"""Tip trajectories to the per-frame kinematic feature matrix.

Features per instrument are scalar speed, acceleration and jerk magnitudes;
features per instrument pair are distance, relative velocity, velocity dot
product and angle.  All derivatives are finite differences over the frames
where the instrument is present, scaled by fps; absent frames contribute
exactly zero and are tracked in the presence mask.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .records import TipTrajectory
from .validation import check_positive_int


@dataclass
class DerivativeSet:
    """Per-frame kinematics of one trajectory; zeros where absent."""

    vel: np.ndarray       # (T, 2) velocity components, px/s
    acc: np.ndarray       # (T, 2)
    jerk: np.ndarray      # (T, 2)
    speed: np.ndarray     # (T,) ‖vel‖
    acc_mag: np.ndarray   # (T,)
    jerk_mag: np.ndarray  # (T,)
    mask: np.ndarray      # (T,) 1 where present


@dataclass
class KinematicMatrix:
    """T×d feature matrix with per-instrument presence mask."""

    X: np.ndarray                  # (T, d)
    feature_names: list[str]
    fps: float                     # effective rate after downsampling
    presence_mask: np.ndarray      # (T, m) in {0, 1}
    instrument_ids: list[int]

    def __post_init__(self):
        if not np.isfinite(self.X).all():
            raise ValueError("feature matrix contains NaN or inf")
        if self.X.shape[0] != self.presence_mask.shape[0]:
            raise ValueError("X and presence_mask row counts differ")


def _diff_over_present(values: np.ndarray, present_idx: np.ndarray,
                       fps: float) -> np.ndarray:
    """Differentiate samples known only at `present_idx` frames.

    Central (two-point divided) differences between the neighboring present
    frames; one-sided at the first and last present frame.  Returns a full
    (T, k) array that is zero off the present set.
    """
    T = values.shape[0]
    out = np.zeros_like(values, dtype=np.float64)
    m = present_idx.size
    if m < 2:
        return out
    p = present_idx
    v = values[p]
    d = np.empty_like(v)
    # interior: slope between the previous and next present samples
    span = (p[2:] - p[:-2]).astype(np.float64)
    d[1:-1] = (v[2:] - v[:-2]) / span[:, None] * fps
    d[0] = (v[1] - v[0]) / float(p[1] - p[0]) * fps
    d[-1] = (v[-1] - v[-2]) / float(p[-1] - p[-2]) * fps
    out[p] = d
    return out


def _smooth_runs(pos: np.ndarray, present: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average within each contiguous present run."""
    if window <= 1:
        return pos
    out = pos.copy()
    T = pos.shape[0]
    t = 0
    half = window // 2
    while t < T:
        if not present[t]:
            t += 1
            continue
        start = t
        while t < T and present[t]:
            t += 1
        run = pos[start:t]
        n = run.shape[0]
        csum = np.zeros((n + 1, run.shape[1]))
        np.cumsum(run, axis=0, out=csum[1:])
        lo = np.maximum(np.arange(n) - half, 0)
        hi = np.minimum(np.arange(n) + half + 1, n)
        out[start:t] = (csum[hi] - csum[lo]) / (hi - lo)[:, None]
    return out


def derivatives(trajectory: TipTrajectory, fps: float, *,
                smooth_window: int = 0) -> DerivativeSet:
    """Velocity, acceleration and jerk of one tip trajectory.

    Differences are taken over present frames only, so a detection gap acts
    as one long step rather than contaminating neighbors with zeros.  The
    derivative chain is applied iteratively (acc differentiates vel, jerk
    differentiates acc), which is exact for linear and quadratic motion at
    frames far enough from the trajectory ends.

    Parameters
    ----------
    trajectory : tip positions with absent frames as None
    fps : frames per second of ``trajectory.points``
    smooth_window : centered moving-average width applied to positions
        before differencing; 0 or 1 disables (the default).

    Returns
    -------
    DerivativeSet with zeros (mask 0) at absent frames.
    """
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    T = len(trajectory.points)
    pos = np.zeros((T, 2), dtype=np.float64)
    present = np.zeros(T, dtype=bool)
    for t, p in enumerate(trajectory.points):
        if p is not None:
            pos[t] = p
            present[t] = True
    present_idx = np.flatnonzero(present)
    if present_idx.size < 2 and present_idx.size != 0:
        warnings.warn(
            f"instrument {trajectory.instrument_id}: fewer than 2 present frames; "
            "derivatives are all zero", stacklevel=2)
    if smooth_window:
        pos = _smooth_runs(pos, present, smooth_window)
    vel = _diff_over_present(pos, present_idx, fps)
    acc = _diff_over_present(vel, present_idx, fps)
    jerk = _diff_over_present(acc, present_idx, fps)
    return DerivativeSet(
        vel=vel, acc=acc, jerk=jerk,
        speed=np.linalg.norm(vel, axis=1),
        acc_mag=np.linalg.norm(acc, axis=1),
        jerk_mag=np.linalg.norm(jerk, axis=1),
        mask=present.astype(np.float64),
    )


def pairwise_features(tip_a: TipTrajectory, tip_b: TipTrajectory,
                      fps: float, deriv_a: DerivativeSet = None,
                      deriv_b: DerivativeSet = None) -> dict[str, np.ndarray]:
    """Inter-instrument distance, relative velocity, dot product and angle
    of two trajectories at ``fps`` frames per second.

    All four are zero (mask 0) at frames where either tip is absent.  The
    angle between velocity vectors lies in [0, pi]; if either velocity is
    exactly zero the angle is defined as 0.
    """
    if len(tip_a.points) != len(tip_b.points):
        raise ValueError("trajectories differ in length")
    da = deriv_a if deriv_a is not None else derivatives(tip_a, fps)
    db = deriv_b if deriv_b is not None else derivatives(tip_b, fps)
    T = len(tip_a.points)
    both = (da.mask > 0) & (db.mask > 0)
    dist = np.zeros(T)
    relvel = np.zeros(T)
    dot = np.zeros(T)
    angle = np.zeros(T)
    if both.any():
        idx = np.flatnonzero(both)
        pa = np.array([tip_a.points[t] for t in idx], dtype=np.float64)
        pb = np.array([tip_b.points[t] for t in idx], dtype=np.float64)
        dist[idx] = np.linalg.norm(pa - pb, axis=1)
        va, vb = da.vel[idx], db.vel[idx]
        relvel[idx] = np.linalg.norm(va - vb, axis=1)
        dot[idx] = np.einsum("ij,ij->i", va, vb)
        na = np.linalg.norm(va, axis=1)
        nb = np.linalg.norm(vb, axis=1)
        nz = (na > 0) & (nb > 0)
        cosang = np.zeros(idx.size)
        cosang[nz] = dot[idx][nz] / (na[nz] * nb[nz])
        ang = np.zeros(idx.size)
        ang[nz] = np.arccos(np.clip(cosang[nz], -1.0, 1.0))
        angle[idx] = ang
    return {"dist": dist, "relvel": relvel, "dot": dot, "angle": angle,
            "mask": both.astype(np.float64)}


def downsample_trajectory(trajectory: TipTrajectory, factor: int) -> TipTrajectory:
    """Keep every `factor`-th frame; the frame rate divides by `factor`."""
    factor = check_positive_int(factor, "downsample factor")
    if factor == 1:
        return trajectory
    return TipTrajectory(instrument_id=trajectory.instrument_id,
                         points=trajectory.points[::factor])


def build_feature_matrix(trajectories: list[TipTrajectory], fps: float, *,
                         downsample: int = 1,
                         smooth_window: int = 0) -> KinematicMatrix:
    """Assemble the T×d kinematic matrix from a set of trajectories.

    Column order is deterministic: per instrument (ascending id) speed,
    acceleration and jerk magnitudes, then per instrument pair (i < j)
    distance, relative velocity, dot product, angle.  Two instruments give
    d = 2*3 + 4 = 10.

    The trajectories are sampled at ``fps`` frames per second.
    Downsampling keeps every k-th frame before feature computation, so
    the matrix's effective fps is ``fps / k``.
    """
    if not trajectories:
        raise ValueError("no trajectories given")
    T0 = len(trajectories[0].points)
    for tr in trajectories[1:]:
        if len(tr.points) != T0:
            raise ValueError(
                f"trajectory lengths differ: {len(tr.points)} vs {T0}")
    trajs = sorted((downsample_trajectory(tr, downsample) for tr in trajectories),
                   key=lambda tr: tr.instrument_id)
    fps = fps / downsample
    derivs = [derivatives(tr, fps, smooth_window=smooth_window) for tr in trajs]
    T = len(trajs[0].points)
    m = len(trajs)

    columns: list[np.ndarray] = []
    names: list[str] = []
    for tr, dv in zip(trajs, derivs):
        tag = f"inst{tr.instrument_id}"
        columns += [dv.speed, dv.acc_mag, dv.jerk_mag]
        names += [f"{tag}_speed", f"{tag}_acc", f"{tag}_jerk"]
    for i in range(m):
        for j in range(i + 1, m):
            pf = pairwise_features(trajs[i], trajs[j], fps, derivs[i],
                                   derivs[j])
            tag = f"pair{trajs[i].instrument_id}_{trajs[j].instrument_id}"
            columns += [pf["dist"], pf["relvel"], pf["dot"], pf["angle"]]
            names += [f"{tag}_dist", f"{tag}_relvel", f"{tag}_dot", f"{tag}_angle"]

    X = np.column_stack(columns) if columns else np.zeros((T, 0))
    mask = np.column_stack([dv.mask for dv in derivs])
    return KinematicMatrix(X=X, feature_names=names, fps=fps,
                           presence_mask=mask,
                           instrument_ids=[tr.instrument_id for tr in trajs])


def normalize(X: np.ndarray) -> np.ndarray:
    """Z-score each column (population std); constant columns map to zero.

    Columns whose spread is pure rounding noise (std below 1e-10 relative
    to the column magnitude) are treated as constant, otherwise the
    division would amplify float residue into O(1) values.  Idempotent on
    already-normalized input.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to normalize")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    out = X - mean
    nz = std > 1e-10 * np.maximum(1.0, np.abs(mean))
    out[:, nz] /= std[nz]
    out[:, ~nz] = 0.0
    return out


class KinematicFeatureExtractor:
    """Transformer wrapping build_feature_matrix + normalize; stateless.

    Parameters
    ----------
    downsample : int, keep every k-th frame (default 1)
    smooth_window : int, moving-average width, 0 disables
    zscore : bool, z-score columns after assembly (default True)
    """

    def __init__(self, downsample: int = 1, smooth_window: int = 0,
                 zscore: bool = True):
        self.downsample = downsample
        self.smooth_window = smooth_window
        self.zscore = zscore

    def transform(self, trajectories, fps: float) -> KinematicMatrix:
        """The matrix of ``trajectories``, sampled at ``fps``."""
        km = build_feature_matrix(trajectories, fps,
                                  downsample=self.downsample,
                                  smooth_window=self.smooth_window)
        return replace(km, X=normalize(km.X)) if self.zscore else km
