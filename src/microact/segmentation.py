"""Self-similarity, checkerboard novelty, and boundary peak picking.

The self-similarity matrix is the cosine similarity between per-frame
feature rows.  Correlating a Gaussian-weighted checkerboard kernel along
its diagonal yields a novelty curve whose peaks mark transitions between
homogeneous blocks, i.e. action boundaries.

Only entries within |i - j| <= 2h of the diagonal are ever consumed by the
kernel, so the default representation is a banded matrix with O(T*h)
memory; the dense matrix exists for small inputs and figure export.

Both are built in one pass of numpy's ``einsum`` over the unit rows, not
one call per diagonal offset: the band from a sliding window over a few
rows at a time, the dense matrix as one product.  Each entry is the same
dot-product kernel over the same d products, so the band and the dense
matrix agree bit for bit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .validation import check_array, check_fraction, check_positive_int

FULL_MATRIX_CAP = 10_000  # largest T the dense ssm builds
_BAND_ROWS = 256  # rows of the band filled per einsum call
# below this max|N| the novelty curve counts as flat and no boundaries are
# picked; guards constant inputs whose novelty is pure rounding noise
NOVELTY_FLOOR = 1e-8


@dataclass
class SelfSimilarityBand:
    """Banded cosine self-similarity.

    ``band[t, c]`` holds S(t, t + c - bw) with bw = 2*half_width, so the
    stored offsets cover |i - j| <= 2h, exactly the reach of a half-width-h
    checkerboard kernel.  Out-of-range entries are 0.
    """

    T: int
    half_width: int
    band: np.ndarray

    @property
    def bandwidth(self) -> int:
        return 2 * self.half_width


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm; all-zero rows stay zero."""
    norms = np.linalg.norm(X, axis=1)
    out = np.zeros_like(X, dtype=np.float64)
    nz = norms > 0
    out[nz] = X[nz] / norms[nz, None]
    return out


def ssm(X) -> np.ndarray:
    """Dense self-similarity matrix S with S_ij = cos(X_i, X_j).

    Symmetric; diagonal exactly 1 for nonzero rows and 0 for zero rows
    (zero rows have similarity 0 against everything by convention).
    Clipped to [-1, 1]: rounding can push a unit dot product one ulp past
    the cosine range.

    Refuses T beyond ``FULL_MATRIX_CAP``; use :func:`ssm_band` there.
    """
    X = check_array(X, name="X")
    T = X.shape[0]
    if T > FULL_MATRIX_CAP:
        raise ValueError(
            f"T={T} exceeds the dense-matrix cap {FULL_MATRIX_CAP}; "
            "use ssm_band for long sequences")
    Xu = _unit_rows(X)
    S = np.einsum("id,jd->ij", Xu, Xu)
    np.clip(S, -1.0, 1.0, out=S)
    S[np.diag_indices(T)] = np.einsum("td,td->t", Xu, Xu) > 0
    return S


def ssm_band(X, h: int) -> SelfSimilarityBand:
    """Banded self-similarity covering offsets |i - j| <= 2h.

    One pass: ``_BAND_ROWS`` rows at a time, one ``einsum`` over a sliding
    window of the rows t..t+2h fills the upper half S(t, t + o), o >= 0,
    which is then clipped as :func:`ssm` clips; a zero-padded copy of the
    chunk's rows stands in past T.  The lower half is the upper half's
    mirror, copied through one strided view of it, ``_BAND_ROWS`` rows at
    a time.  Each entry is :func:`ssm`'s dot product, so the band agrees
    with the dense matrix exactly, not merely to tolerance.  Memory is
    O(T*h), plus O(_BAND_ROWS + h) rows of X.
    """
    X = check_array(X, name="X")
    h = check_positive_int(h, "h")
    T, d = X.shape
    Xu = _unit_rows(X)
    bw = 2 * h
    band = np.zeros((T, 2 * bw + 1), dtype=np.float64)
    upper = band[:, bw:]
    pad = np.zeros((min(T, _BAND_ROWS) + bw, d), dtype=np.float64)
    for t0 in range(0, T, _BAND_ROWS):
        n = min(_BAND_ROWS, T - t0)
        m = min(n + bw, T - t0)  # rows of Xu the window reaches
        pad[:m] = Xu[t0: t0 + m]
        pad[m:] = 0.0
        rows = upper[t0: t0 + n]
        np.einsum("tkd,td->tk",
                  sliding_window_view(pad[: n + bw], (bw + 1, d))[:, 0],
                  Xu[t0: t0 + n], out=rows)
        np.clip(rows, -1.0, 1.0, out=rows)
    band[:, bw] = np.einsum("td,td->t", Xu, Xu) > 0
    # lower half: band[t, c] = band[t - bw + c, 2bw - c].  The first bw
    # rows take one copy per offset; from row bw on, that is one strided
    # view of the upper half, starting at flat element 2bw with strides
    # (W, W - 1) elements.  It is copied in chunks because numpy buffers
    # a source that may overlap its destination whole.
    top = min(bw, T)
    for o in range(1, top):
        band[o:top, bw - o] = band[: top - o, bw + o]
    if T > bw:
        W, step = band.shape[1], band.strides[1]
        mirror = as_strided(band.reshape(-1)[2 * bw:], shape=(T - bw, bw),
                            strides=(W * step, (W - 1) * step))
        for t0 in range(0, T - bw, _BAND_ROWS):
            band[bw + t0: bw + t0 + _BAND_ROWS, :bw] = \
                mirror[t0: t0 + _BAND_ROWS]
    return SelfSimilarityBand(T=T, half_width=h, band=band)


def enhance(S: SelfSimilarityBand | np.ndarray):
    """Contrast enhancement in place: elementwise square, S' = S**2.

    Squares the values of a :class:`SelfSimilarityBand` or of a float64
    matrix and returns its argument.
    """
    data = S.band if isinstance(S, SelfSimilarityBand) else S
    np.square(data, out=data)
    return S


def make_kernel(h: int, sigma: float) -> np.ndarray:
    """The (2h,) factor w of the half-width-h Gaussian checkerboard kernel.

    The kernel over i, j in [-h, h-1] is separable: W(i, j) = w(i) * w(j)
    with w(i) = sgn*(i) * exp(-(i + 0.5)^2 / (2 sigma^2)), sgn*(i) = +1 for
    i >= 0 and -1 otherwise, stored at index i + h.  The half-sample offset
    makes the index range symmetric around -0.5, so w(-1-i) = -w(i) and the
    weights sum to zero; the negative half mirrors the positive half with
    flipped sign, so that cancellation is exact in floating point.
    """
    h = check_positive_int(h, "h")
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    g = np.exp(-((np.arange(h) + 0.5) ** 2) / (2.0 * sigma * sigma))
    w = np.empty(2 * h, dtype=np.float64)
    w[h:] = g
    w[:h] = -g[::-1]
    return w


def novelty(band: SelfSimilarityBand, w: np.ndarray) -> np.ndarray:
    """Checkerboard novelty N(t) = sum_ij W(i,j) S'(t+i, t+j) over an
    enhanced band, ``enhance(ssm_band(X, h))``, with W = w w^T for the
    factor ``w = make_kernel(h, sigma)``; h is ``len(w) // 2``.

    Computed for t in [h, T-h); exactly zero elsewhere.  The kernel is
    separable (W = w w^T), so the double sum collapses to one banded
    matrix product plus a diagonal gather, which keeps the cost at
    O(T * h^2) multiply-adds in BLAS rather than Python loops.
    """
    if not isinstance(band, SelfSimilarityBand):
        raise TypeError(f"novelty takes the SelfSimilarityBand of ssm_band, "
                        f"not {type(band).__name__}")
    h = len(w) // 2
    if band.half_width < h:
        raise ValueError(
            f"band half-width {band.half_width} narrower than kernel h={h}")
    T = band.T
    N = np.zeros(T, dtype=np.float64)
    if T < 2 * h:
        return N
    bw = band.bandwidth
    # M[c, a] places w(j) so that (P @ M)[u, a] = sum_j w(j) P[u, j - i + bw]
    # with i = a - h, i.e. the inner sum of the separated kernel.
    # One tap j at a time; row c = j - a + bw stays inside the band's
    # 2bw + 1 columns, as bw >= 2h.
    M = np.zeros((band.band.shape[1], 2 * h), dtype=np.float64)
    cols = np.arange(2 * h)
    for j in range(2 * h):
        M[j - cols + bw, cols] = w[j]
    R = band.band @ M
    valid = slice(h, T - h)
    n_valid = (T - h) - h
    for a in range(2 * h):
        i = a - h
        N[valid] += w[a] * R[h + i: h + i + n_valid, a]
    return N


def _local_maxima(N: np.ndarray) -> np.ndarray:
    """Interior local maxima: the first index of each run of equal samples
    that rises from the sample before it and falls to the sample after."""
    T = len(N)
    starts = np.flatnonzero(np.concatenate(([True], N[1:] != N[:-1])))
    ends = np.append(starts[1:], T) - 1  # last index of each run
    inner = (starts > 0) & (ends < T - 1)
    starts, ends = starts[inner], ends[inner]
    peak = (N[starts] > N[starts - 1]) & (N[ends + 1] < N[starts])
    return starts[peak]


def _sparse_table(x: np.ndarray, op) -> np.ndarray:
    """``table[j, i] = op.reduce(x[i: i + 2**j])`` for each 2**j <= len(x)
    and i <= len(x) - 2**j; the entries past that are filler."""
    T = len(x)
    table = np.empty((max(T, 1).bit_length(), T), dtype=x.dtype)
    table[0] = x
    for j in range(1, len(table)):
        half, n = 1 << (j - 1), T - (1 << j) + 1
        op(table[j - 1, :n], table[j - 1, half: half + n], out=table[j, :n])
    return table


def _prominences(N: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Each peak's height minus the higher of its two flanking minima.

    A flank runs from the peak to the nearest sample on that side that is
    not ``<=`` the peak (strictly higher, or NaN), or to the signal edge.
    Both flanks of a local maximum hold a lower sample.  The nearest such
    sample is found by binary lifting on a sparse table of window maxima
    of ranks, and each flank's minimum by two overlapping windows of a
    sparse table of minima.
    """
    T = len(N)
    if not len(peaks):
        return np.empty(0, dtype=np.float64)
    # ranks compare like N, with NaN above everything
    uniq, rank = np.unique(N, return_inverse=True)
    rank = rank.astype(np.int32)
    rank[np.isnan(N)] = len(uniq)
    top = _sparse_table(rank, np.maximum)
    low = _sparse_table(N, np.minimum)
    height = rank[peaks]
    left = peaks.copy()    # N[left: peak] <= the peak
    right = peaks + 1      # N[peak + 1: right] <= the peak
    for j in range(len(top) - 1, -1, -1):
        step = 1 << j
        at = left - step
        go = at >= 0
        go[go] = top[j, at[go]] <= height[go]
        left[go] = at[go]
        go = right + step <= T
        go[go] = top[j, right[go]] <= height[go]
        right[go] += step

    def window_min(a, b):  # min of N[a: b], each b > a
        j = np.frexp(b - a)[1] - 1  # floor(log2(b - a)), exactly
        return np.minimum(low[j, a], low[j, b - (1 << j)])

    return N[peaks] - np.maximum(window_min(left, peaks),
                                 window_min(peaks + 1, right))


def peak_pick(N, prominence_threshold: float, d_min: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Boundary selection: prominence filter then distance suppression.

    All interior local maxima with prominence >= threshold are candidates;
    among candidates closer than d_min the higher peak survives (height
    ties favor the earlier index).  Returns the picked frames (int64,
    strictly increasing) and their prominences.
    """
    N = np.asarray(N, dtype=np.float64)
    if N.ndim != 1:
        raise ValueError("N must be 1-dimensional")
    if prominence_threshold < 0:
        raise ValueError("prominence_threshold must be >= 0")
    d_min = check_positive_int(d_min, "d_min")
    taus = _local_maxima(N)
    proms = _prominences(N, taus)
    keep = proms >= prominence_threshold
    taus, proms = taus[keep], proms[keep]
    # higher peaks claim their neighborhood first
    kept: list[int] = []
    for i in np.lexsort((taus, -N[taus])).tolist():
        t = int(taus[i])
        at = bisect.bisect(kept, t)
        if ((at == 0 or t - kept[at - 1] >= d_min)
                and (at == len(kept) or kept[at] - t >= d_min)):
            kept.insert(at, t)
    chosen = np.searchsorted(taus, kept)
    return taus[chosen].astype(np.int64), proms[chosen]


class NoveltyBoundaryDetector:
    """Feature matrix in, action boundaries out.

    Runs the banded SSM -> contrast enhancement -> checkerboard novelty ->
    prominence peak picking chain.  All frame-unit parameters; callers
    working in seconds convert via their fps.

    Parameters
    ----------
    half_width : kernel half-width h in frames (band covers 2h offsets)
    sigma : Gaussian width; None means h / 2
    prominence_frac : threshold as a fraction of max(N)
    min_distance : minimum frames between boundaries (d_min)

    A curve whose max|N| is below ``NOVELTY_FLOOR`` yields no boundaries.

    Attributes (after fit)
    ----------------------
    novelty_ : (T,) novelty curve
    boundaries_ : strictly increasing boundary frames
    prominences_ : per-boundary prominence
    threshold_ : absolute prominence threshold used
    sigma_ : resolved Gaussian width
    """

    def __init__(self, half_width: int = 10, sigma: Optional[float] = None,
                 prominence_frac: float = 0.3, min_distance: int = 5):
        self.half_width = half_width
        self.sigma = sigma
        self.prominence_frac = prominence_frac
        self.min_distance = min_distance

    def fit(self, X):
        X = check_array(X, name="X")
        h = check_positive_int(self.half_width, "half_width")
        check_fraction(self.prominence_frac, "prominence_frac")
        self.sigma_ = float(self.sigma) if self.sigma is not None else h / 2.0
        w = make_kernel(h, self.sigma_)
        band = ssm_band(X, h)
        enhance(band)
        self.novelty_ = novelty(band, w)
        peak = float(np.max(np.abs(self.novelty_))) if len(self.novelty_) else 0.0
        if peak < NOVELTY_FLOOR:
            self.threshold_ = 0.0
            self.boundaries_ = np.array([], dtype=np.int64)
            self.prominences_ = np.array([], dtype=np.float64)
            return self
        self.threshold_ = self.prominence_frac * float(np.max(self.novelty_))
        self.boundaries_, self.prominences_ = peak_pick(
            self.novelty_, self.threshold_,
            check_positive_int(self.min_distance, "min_distance"))
        return self
