"""Self-similarity, checkerboard novelty, and boundary peak picking.

The self-similarity matrix is the cosine similarity between per-frame
feature rows.  Correlating a Gaussian-weighted checkerboard kernel along
its diagonal yields a novelty curve whose peaks mark transitions between
homogeneous blocks, i.e. action boundaries.

Only entries within |i - j| <= 2h of the diagonal are ever consumed by the
kernel, so the default representation is a banded matrix with O(T*h)
memory; the dense matrix exists for small inputs and figure export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .validation import check_array, check_fraction, check_positive_int

FULL_MATRIX_CAP = 10_000  # largest T the dense ssm builds


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


def _shifted_rowdot(Xu: np.ndarray, o: int) -> np.ndarray:
    """Dot products of row t with row t+o, for all valid t.

    Shared by the banded and dense builders so both produce identical
    floating-point values.  Clipped to [-1, 1]: rounding can push a unit
    dot product one ulp past the cosine range.
    """
    T = Xu.shape[0]
    v = np.einsum("td,td->t", Xu[: T - o], Xu[o:])
    return np.clip(v, -1.0, 1.0, out=v)


def ssm(X) -> np.ndarray:
    """Dense self-similarity matrix S with S_ij = cos(X_i, X_j).

    Symmetric; diagonal exactly 1 for nonzero rows and 0 for zero rows
    (zero rows have similarity 0 against everything by convention).

    Refuses T beyond ``FULL_MATRIX_CAP``; use :func:`ssm_band` there.
    """
    X = check_array(X, name="X")
    T = X.shape[0]
    if T > FULL_MATRIX_CAP:
        raise ValueError(
            f"T={T} exceeds the dense-matrix cap {FULL_MATRIX_CAP}; "
            "use ssm_band for long sequences")
    Xu = _unit_rows(X)
    S = np.zeros((T, T), dtype=np.float64)
    nz = np.einsum("td,td->t", Xu, Xu) > 0
    S[np.diag_indices(T)] = nz.astype(np.float64)
    idx = np.arange(T)
    for o in range(1, T):
        v = _shifted_rowdot(Xu, o)
        S[idx[: T - o], idx[: T - o] + o] = v
        S[idx[: T - o] + o, idx[: T - o]] = v
    return S


def ssm_band(X, h: int) -> SelfSimilarityBand:
    """Banded self-similarity covering offsets |i - j| <= 2h.

    Entries are computed with the same arithmetic as :func:`ssm`, so the
    band agrees with the dense matrix exactly, not merely to tolerance.
    Memory is O(T*h).
    """
    X = check_array(X, name="X")
    h = check_positive_int(h, "h")
    T = X.shape[0]
    Xu = _unit_rows(X)
    bw = 2 * h
    band = np.zeros((T, 2 * bw + 1), dtype=np.float64)
    nz = np.einsum("td,td->t", Xu, Xu) > 0
    band[:, bw] = nz.astype(np.float64)
    for o in range(1, min(bw, T - 1) + 1):
        v = _shifted_rowdot(Xu, o)
        band[: T - o, bw + o] = v
        band[o:, bw - o] = v
    return SelfSimilarityBand(T=T, half_width=h, band=band)


def enhance(S: Union[np.ndarray, SelfSimilarityBand], *, inplace: bool = False):
    """Contrast enhancement: elementwise square, S' = S**2."""
    if isinstance(S, SelfSimilarityBand):
        data = S.band if inplace else S.band.copy()
        np.square(data, out=data)
        if inplace:
            return S
        return SelfSimilarityBand(T=S.T, half_width=S.half_width, band=data)
    arr = np.asarray(S, dtype=np.float64)
    if inplace and isinstance(S, np.ndarray) and S.dtype == np.float64:
        np.square(S, out=S)
        return S
    return np.square(arr)


@dataclass
class CheckerboardKernel:
    """Gaussian checkerboard weights over i, j in [-h, h-1].

    Separable: W(i, j) = w(i) * w(j) with
    w(i) = sgn*(i) * exp(-(i + 0.5)^2 / (2 sigma^2)), sgn*(i) = +1 for
    i >= 0 and -1 otherwise.  The half-sample offset makes the index range
    symmetric around -0.5, so w(-1-i) = -w(i) and the weights sum to zero.
    """

    half_width: int
    sigma: float
    w: np.ndarray = field(repr=False)  # (2h,) 1-D factor, index i+h


def make_kernel(h: int, sigma: float) -> CheckerboardKernel:
    """Build the half-width-h checkerboard kernel.

    The negative half mirrors the positive half with flipped sign, so the
    cancellation w(i) + w(-1-i) = 0 is exact in floating point.
    """
    h = check_positive_int(h, "h")
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    g = np.exp(-((np.arange(h) + 0.5) ** 2) / (2.0 * sigma * sigma))
    w = np.empty(2 * h, dtype=np.float64)
    w[h:] = g
    w[:h] = -g[::-1]
    return CheckerboardKernel(half_width=h, sigma=sigma, w=w)


def _as_band(S: Union[np.ndarray, SelfSimilarityBand],
             h: int) -> SelfSimilarityBand:
    if isinstance(S, SelfSimilarityBand):
        return S
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix or band, got shape {S.shape}")
    T = S.shape[0]
    bw = 2 * h
    band = np.zeros((T, 2 * bw + 1), dtype=np.float64)
    for o in range(0, min(bw, T - 1) + 1):
        d = np.diagonal(S, offset=o)
        band[: T - o, bw + o] = d
        band[o:, bw - o] = np.diagonal(S, offset=-o)
    return SelfSimilarityBand(T=T, half_width=h, band=band)


def novelty(S_enh: Union[np.ndarray, SelfSimilarityBand],
            kernel: CheckerboardKernel) -> np.ndarray:
    """Checkerboard novelty N(t) = sum_ij W(i,j) S'(t+i, t+j).

    Computed for t in [h, T-h); exactly zero elsewhere.  The kernel is
    separable (W = w w^T), so the double sum collapses to one banded
    matrix product plus a diagonal gather, which keeps the cost at
    O(T * h^2) multiply-adds in BLAS rather than Python loops.
    """
    h = kernel.half_width
    band = _as_band(S_enh, h)
    if band.half_width < h:
        raise ValueError(
            f"band half-width {band.half_width} narrower than kernel h={h}")
    T = band.T
    N = np.zeros(T, dtype=np.float64)
    if T < 2 * h:
        return N
    bw = band.bandwidth
    w = kernel.w
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


@dataclass
class Boundaries:
    """Picked change points with their prominences."""

    taus: np.ndarray          # strictly increasing frame indices
    prominences: np.ndarray

    def __len__(self) -> int:
        return len(self.taus)


def _local_maxima(N: np.ndarray) -> list[int]:
    """Interior local maxima; a flat plateau reports its leftmost index."""
    T = len(N)
    out = []
    t = 1
    while t < T - 1:
        if N[t] > N[t - 1]:
            k = t
            while k + 1 < T and N[k + 1] == N[t]:
                k += 1
            if k < T - 1 and N[k + 1] < N[t]:
                out.append(t)
            t = k + 1
        else:
            t += 1
    return out


def _prominence(N: np.ndarray, t: int) -> float:
    """Peak height minus the highest of the two flanking window minima.

    Each window runs from the peak to the nearest strictly higher sample
    on that side, or to the signal edge when none exists.
    """
    T = len(N)
    s = t - 1
    while s >= 0 and N[s] <= N[t]:
        s -= 1
    left_min = np.min(N[s + 1: t]) if s + 1 < t else N[t]
    e = t + 1
    while e < T and N[e] <= N[t]:
        e += 1
    right_min = np.min(N[t + 1: e]) if t + 1 < e else N[t]
    return float(N[t] - max(left_min, right_min))


def peak_pick(N, prominence_threshold: float, d_min: int) -> Boundaries:
    """Boundary selection: prominence filter then distance suppression.

    All interior local maxima with prominence >= threshold are candidates;
    among candidates closer than d_min the higher peak survives (height
    ties favor the earlier index).  Output is strictly increasing.
    """
    N = np.asarray(N, dtype=np.float64)
    if N.ndim != 1:
        raise ValueError("N must be 1-dimensional")
    if prominence_threshold < 0:
        raise ValueError("prominence_threshold must be >= 0")
    d_min = check_positive_int(d_min, "d_min")
    cands = [(t, _prominence(N, t)) for t in _local_maxima(N)]
    cands = [(t, p) for t, p in cands if p >= prominence_threshold]
    # higher peaks claim their neighborhood first
    order = sorted(cands, key=lambda tp: (-N[tp[0]], tp[0]))
    kept: list[tuple[int, float]] = []
    for t, p in order:
        if all(abs(t - kt) >= d_min for kt, _ in kept):
            kept.append((t, p))
    kept.sort(key=lambda tp: tp[0])
    taus = np.array([t for t, _ in kept], dtype=np.int64)
    proms = np.array([p for _, p in kept], dtype=np.float64)
    return Boundaries(taus=taus, prominences=proms)


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
    novelty_floor : below this max|N| the curve counts as flat and no
        boundaries are returned; guards constant inputs whose novelty is
        pure rounding noise

    Attributes (after fit)
    ----------------------
    novelty_ : (T,) novelty curve
    boundaries_ : strictly increasing boundary frames
    prominences_ : per-boundary prominence
    threshold_ : absolute prominence threshold used
    sigma_ : resolved Gaussian width
    """

    def __init__(self, half_width: int = 10, sigma: Optional[float] = None,
                 prominence_frac: float = 0.3, min_distance: int = 5,
                 novelty_floor: float = 1e-8):
        self.half_width = half_width
        self.sigma = sigma
        self.prominence_frac = prominence_frac
        self.min_distance = min_distance
        self.novelty_floor = novelty_floor

    def fit(self, X):
        X = check_array(X, name="X")
        h = check_positive_int(self.half_width, "half_width")
        check_fraction(self.prominence_frac, "prominence_frac")
        self.sigma_ = float(self.sigma) if self.sigma is not None else h / 2.0
        kernel = make_kernel(h, self.sigma_)
        band = ssm_band(X, h)
        enhance(band, inplace=True)
        self.novelty_ = novelty(band, kernel)
        peak = float(np.max(np.abs(self.novelty_))) if len(self.novelty_) else 0.0
        if peak < self.novelty_floor:
            self.threshold_ = 0.0
            self.boundaries_ = np.array([], dtype=np.int64)
            self.prominences_ = np.array([], dtype=np.float64)
            return self
        self.threshold_ = self.prominence_frac * float(np.max(self.novelty_))
        picked = peak_pick(self.novelty_, self.threshold_,
                           check_positive_int(self.min_distance, "min_distance"))
        self.boundaries_ = picked.taus
        self.prominences_ = picked.prominences
        return self
