"""Self-similarity, checkerboard novelty, and boundary peak picking.

The self-similarity matrix is the cosine similarity between per-frame
feature rows.  Correlating a Gaussian-weighted checkerboard kernel along
its diagonal yields a novelty curve whose peaks mark transitions between
homogeneous blocks, i.e. action boundaries.

The kernel only reaches offsets |i - j| < 2h of the diagonal, and the
matrix is symmetric, so novelty needs only the upper half of that band,
S(t, t + o) for 0 <= o < 2h.  It never holds that T x 2h band: it builds
``_BAND_COLS`` offsets at a time, transforms them and drops them, so its
memory is O(T) per block of columns.  The dense matrix exists for small
inputs and figure export.

Both are built by numpy's ``einsum`` over the unit rows, not one call per
diagonal offset: a block of band columns from a sliding window over the
rows, the dense matrix as one product.  Each entry is the same
dot-product kernel over the same d products, so the band and the dense
matrix agree bit for bit.  Novelty correlates each band column with its
share of the kernel in the frequency domain.  No step calls BLAS, and
numpy's ``einsum`` loops and FFT run on one thread, so every result has
the same bits on any CPU count.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .validation import check_array, check_fraction, check_positive_int

FULL_MATRIX_CAP = 10_000  # largest T the dense ssm builds
_BAND_COLS = 32  # band columns (offsets) built and transformed per FFT call
# a row norm outside [2**-500, 2**500] is rescaled by a power of two
# first: its squares would leave float64's normal range
_NORM_RANGE = (2.0 ** -500, 2.0 ** 500)
# how far a row's squared norm may sit from 1 and still count as unit
_UNIT_TOL = 1e-9
# below this max|N| the novelty curve counts as flat and no boundaries are
# picked; guards constant inputs whose novelty is pure rounding noise
NOVELTY_FLOOR = 1e-8


@dataclass
class SelfSimilarityBand:
    """Columns [start, start + band.shape[1]) of the upper half of the
    banded cosine self-similarity.

    ``band[t, k]`` holds S(t, t + start + k), offsets within [0,
    2*half_width), exactly the reach of a half-width-h checkerboard
    kernel; entries past T are 0.  S is symmetric, so the lower half is
    not stored.
    """

    T: int
    half_width: int
    band: np.ndarray
    start: int = 0


def unit_rows(X) -> np.ndarray:
    """Rows scaled to unit L2 norm; all-zero rows stay zero.

    A row whose norm lies outside ``_NORM_RANGE`` is first scaled by a
    power of two, which is exact, so its squares neither underflow nor
    overflow and it too comes out unit.  Rows inside that range are
    divided by their norm as they are.
    """
    X = np.asarray(X, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(X, axis=1)
    lo, hi = _NORM_RANGE
    far = ~((norms >= lo) & (norms <= hi)) & np.any(X != 0, axis=1)
    if far.any():
        X = X.copy()
        top = np.frexp(np.max(np.abs(X[far]), axis=1))[1]
        X[far] = np.ldexp(X[far], -top[:, None])
        norms[far] = np.linalg.norm(X[far], axis=1)
    out = np.zeros_like(X)
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
    Xu = unit_rows(X)
    S = np.einsum("id,jd->ij", Xu, Xu)
    np.clip(S, -1.0, 1.0, out=S)
    S[np.diag_indices(T)] = np.einsum("td,td->t", Xu, Xu) > 0
    return S


def ssm_band(U, h: int, start: int = 0,
             stop: Optional[int] = None) -> SelfSimilarityBand:
    """Columns [start, stop) of the upper half of the self-similarity
    band, S(t, t + o) for offsets start <= o < stop <= 2h (default: all
    2h of them).

    ``U`` holds unit rows, as :func:`unit_rows` returns them; a row whose
    squared norm is neither 0 nor within ``_UNIT_TOL`` of 1 is refused,
    since its dot products would not be cosines.  One ``einsum`` over a
    sliding window of a zero-padded copy of U fills S(t, t + o), which is
    then clipped as :func:`ssm` clips; the padding stands in past T.
    Each entry is :func:`ssm`'s dot product, so the band agrees with the
    dense matrix exactly, not merely to tolerance, and a block of columns
    has the bits of the same columns of the whole band.  Memory is
    T x (stop - start) floats plus a padded copy of U.
    """
    U = check_array(U, name="U")
    h = check_positive_int(h, "h")
    stop = 2 * h if stop is None else stop
    if not 0 <= start < stop <= 2 * h:
        raise ValueError(f"need 0 <= start < stop <= 2h = {2 * h}, "
                         f"got start={start}, stop={stop}")
    T, d = U.shape
    sq = np.einsum("td,td->t", U, U)
    if not np.all((sq == 0.0) | (np.abs(sq - 1.0) <= _UNIT_TOL)):
        raise ValueError("ssm_band takes unit rows; scale the features "
                         "with unit_rows first")
    pad = np.zeros((T + stop - 1, d), dtype=np.float64)
    pad[:T] = U
    n = stop - start
    band = np.einsum("tkd,td->tk",
                     sliding_window_view(pad[start:], (n, d))[:, 0], U)
    np.clip(band, -1.0, 1.0, out=band)
    if start == 0:
        band[:, 0] = sq > 0
    return SelfSimilarityBand(T=T, half_width=h, band=band, start=start)


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


def novelty(X, w) -> np.ndarray:
    """Checkerboard novelty N(t) = sum_ij W(i,j) S'(t+i, t+j) of the
    feature rows X, where S' is the enhanced self-similarity,
    ``enhance(ssm(X))``, and W = w w^T for the factor
    ``w = make_kernel(h, sigma)``; h is ``len(w) // 2``.

    Computed for t in [h, T-h); exactly zero elsewhere.  S' is symmetric,
    so with s = t - h + a the double sum folds onto the upper half of its
    band: N(t) = sum_o c_o sum_a w(a) w(a + o) S'(s, s + o), c_0 = 1 and
    c_o = 2 for o > 0.  For each offset o that inner sum is a 1-D
    correlation of band column o with a kernel of length 2h - o.  X is
    scaled to unit rows once; then ``_BAND_COLS`` columns at a time are
    built by :func:`ssm_band`, squared, transformed with ``rfft`` at L,
    the power of two >= T (s + a <= T - 1, so nothing wraps), multiplied
    by their kernels' conjugate transforms and summed over the offsets,
    and dropped; one ``irfft`` gives N.  Memory is O(T) per block, never
    the T x 2h band; time O(T log T) per offset.  No BLAS call, so the
    bits do not depend on the thread count.
    """
    X = check_array(X, name="X")
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or len(w) == 0 or len(w) % 2:
        raise ValueError(f"w must be a 1-D kernel factor of even length 2h, "
                         f"got shape {w.shape}")
    h = len(w) // 2
    T = X.shape[0]
    N = np.zeros(T, dtype=np.float64)
    if T <= 2 * h:
        return N
    U = unit_rows(X)
    L = 1 << (T - 1).bit_length()
    acc = np.zeros(L // 2 + 1, dtype=np.complex128)
    a = np.arange(2 * h)[:, None]
    w_pad = np.concatenate((w, np.zeros(2 * h)))  # w(a + o) is 0 past 2h
    for o0 in range(0, 2 * h, _BAND_COLS):
        o1 = min(o0 + _BAND_COLS, 2 * h)
        o = np.arange(o0, o1)
        # kernels[a, k] = c_o w(a) w(a + o) for the k-th offset o of the block
        kernels = w[:, None] * w_pad[a + o]
        kernels[:, o > 0] *= 2.0
        # one expression, so each block's arrays are freed before the next
        acc += np.einsum(
            "fk,fk->f",
            np.fft.rfft(enhance(ssm_band(U, h, o0, o1)).band, n=L, axis=0),
            np.fft.rfft(kernels, n=L, axis=0).conj())
    N[h: T - h] = np.fft.irfft(acc, n=L)[: T - 2 * h]
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
        self.novelty_ = novelty(X, make_kernel(h, self.sigma_))
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
