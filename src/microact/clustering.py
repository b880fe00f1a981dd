"""Segment summary features and K-means action clustering.

Each inter-boundary segment is summarized by the concatenation of its
per-column feature means, standard deviations and instrument presence
fractions; segments are then clustered with a from-scratch K-means
(k-means++ seeding, Lloyd iterations, restarts) and mapped to action
names either by ground-truth overlap (evaluation) or by a mask heuristic
(unsupervised use).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import linear_assignment
from .records import ActionClass, InstrumentClass
from .validation import check_array, check_positive_int


def segment_edges(taus: Sequence[int], T: int) -> np.ndarray:
    """The int64 edges [0, tau_1, ..., T] that cut [0, T) at the given
    boundaries: segment i is the half-open frame interval
    [edges[i], edges[i + 1]).

    Boundaries must be strictly increasing and lie strictly inside (0, T),
    otherwise a zero-length segment would appear.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    taus = [int(t) for t in taus]
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("boundaries must be strictly increasing")
    if taus and (taus[0] <= 0 or taus[-1] >= T):
        raise ValueError(f"boundaries must lie strictly inside (0, {T})")
    return np.array([0, *taus, T], dtype=np.int64)


def segment_features(X: np.ndarray, mask: np.ndarray, edges,
                     mask_weight: float = 3.0) -> np.ndarray:
    """Per-segment summary f_i = mean ++ std ++ presence-fraction.

    X is the T×d feature matrix, mask the T×m per-instrument presence
    matrix and segment i the frames [edges[i], edges[i + 1]); the result
    is (len(edges) - 1, 2d + m).  Standard deviations are population
    (ddof 0), so a single-frame segment contributes zeros.

    mask_weight scales the presence-fraction columns.  Presence patterns
    carry most of the action identity but only span [0, 1] against
    z-scored kinematics, so Euclidean clustering underweights them unless
    boosted.
    """
    X = check_array(X, name="X")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2 or mask.shape[0] != X.shape[0]:
        raise ValueError("mask must be T×m aligned with X")
    if mask_weight <= 0:
        raise ValueError("mask_weight must be > 0")
    edges = np.asarray(edges, dtype=np.int64).tolist()
    d = X.shape[1]
    F = np.empty((len(edges[1:]), 2 * d + mask.shape[1]), dtype=np.float64)
    # numpy's own mean and std arithmetic, written into F's rows: sum, then
    # divide by n; square the deviations from that mean, sum, divide, root
    for i, (row, start, end) in enumerate(zip(F, edges, edges[1:])):
        if not 0 <= start < end <= X.shape[0]:
            raise ValueError(f"segment {i} [{start}, {end}) "
                             f"outside [0, {X.shape[0]})")
        n = end - start
        block = X[start: end]
        mean, std, frac = row[:d], row[d: 2 * d], row[2 * d:]
        np.true_divide(np.add.reduce(block, axis=0, out=mean), n, out=mean)
        dev = block - mean
        np.square(dev, out=dev)
        np.true_divide(np.add.reduce(dev, axis=0, out=std), n, out=std)
        np.sqrt(std, out=std)
        np.add.reduce(mask[start: end], axis=0, out=frac)
        np.multiply(mask_weight, np.true_divide(frac, n, out=frac), out=frac)
    return F


@dataclass
class ClusterModel:
    """Fitted K-means state: centroids, assignments, and the objective."""

    centroids: np.ndarray     # (K, p)
    assignments: np.ndarray   # (n,)
    inertia: float
    n_iter: int


def _nearest(F: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # squared distances via expansion; argmin ties resolve to lowest index
    d2 = (
        np.einsum("ij,ij->i", F, F)[:, None]
        - 2.0 * F @ centers.T
        + np.einsum("ij,ij->i", centers, centers)[None, :]
    )
    return np.argmin(d2, axis=1)


def _inertia(F: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    diff = F - centers[labels]
    return float(np.einsum("ij,ij->", diff, diff))


def _kmeans_pp_init(F: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding; degenerate all-zero distances fall back to uniform."""
    n = F.shape[0]
    centers = np.empty((K, F.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = F[first]
    d2 = np.einsum("ij,ij->i", F - centers[0], F - centers[0])
    for k in range(1, K):
        total = float(d2.sum())
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[k] = F[idx]
        nd2 = np.einsum("ij,ij->i", F - centers[k], F - centers[k])
        np.minimum(d2, nd2, out=d2)
    return centers


def _lloyd(F: np.ndarray, centers: np.ndarray,
           max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    K = centers.shape[0]
    labels = _nearest(F, centers)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        new_centers = centers.copy()
        for k in range(K):
            members = labels == k
            if members.any():
                new_centers[k] = F[members].mean(axis=0)
        # empty-cluster repair: relocate to the point farthest from its center
        for k in range(K):
            if not (labels == k).any():
                diff = F - new_centers[labels]
                far = int(np.argmax(np.einsum("ij,ij->i", diff, diff)))
                new_centers[k] = F[far]
                labels[far] = k
        centers = new_centers
        new_labels = _nearest(F, centers)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return centers, labels, n_iter


def kmeans(F, K: int, *, seed: int = 0, restarts: int = 10,
           max_iter: int = 300) -> ClusterModel:
    """Best-of-restarts Lloyd K-means minimizing within-cluster variance.

    Deterministic for a fixed seed, and invariant to the order of input
    rows: the data is canonicalized by a lexicographic row sort before
    seeding, so the seed selects data points rather than input positions.
    Ties between restarts resolve to the lowest restart index.
    """
    F = check_array(F, name="F")
    K = check_positive_int(K, "K")
    restarts = check_positive_int(restarts, "restarts")
    n = F.shape[0]
    if K > n:
        raise ValueError(f"K={K} exceeds the {n} available segments")
    order = np.lexsort(F.T[::-1])  # row-major lexicographic order
    Fs = F[order]
    children = np.random.SeedSequence(seed).spawn(restarts)
    best = None
    for r in range(restarts):
        rng = np.random.Generator(np.random.PCG64(children[r]))
        centers0 = _kmeans_pp_init(Fs, K, rng)
        centers, labels_sorted, n_iter = _lloyd(Fs, centers0, max_iter)
        inertia = _inertia(Fs, centers, labels_sorted)
        if best is None or inertia < best[0] - 0.0:
            best = (inertia, centers, labels_sorted, n_iter)
    inertia, centers, labels_sorted, n_iter = best
    labels = np.empty(n, dtype=np.int64)
    labels[order] = labels_sorted
    return ClusterModel(centroids=centers, assignments=labels,
                        inertia=inertia, n_iter=n_iter)


def align_clusters(cluster_stream: Sequence[int],
                   gt_labels: Sequence[ActionClass],
                   ) -> tuple[dict[int, ActionClass], list[ActionClass]]:
    """Optimal one-to-one cluster-to-action mapping by frame overlap.

    Builds the K×4 contingency table against ground truth and solves the
    maximum-overlap assignment.  With K different from 4 the matching is
    maximal partial; clusters left unmapped fall back to NoAction with a
    warning.

    Returns the mapping and the mapped per-frame action stream.
    """
    cluster_stream = np.asarray(cluster_stream, dtype=np.int64)
    gt = list(gt_labels)
    if len(cluster_stream) != len(gt):
        raise ValueError("prediction and ground truth differ in length")
    if len(gt) == 0:
        raise ValueError("empty streams")
    actions = list(ActionClass)
    act_index = {a: i for i, a in enumerate(actions)}
    clusters = sorted(set(int(c) for c in cluster_stream))
    table = np.zeros((len(clusters), len(actions)), dtype=np.int64)
    cluster_pos = {c: i for i, c in enumerate(clusters)}
    for c, a in zip(cluster_stream, gt):
        table[cluster_pos[int(c)], act_index[a]] += 1
    mapping: dict[int, ActionClass] = {}
    for r, c in zip(*linear_assignment(table.tolist(), maximize=True)):
        mapping[clusters[r]] = actions[c]
    unmapped = [c for c in clusters if c not in mapping]
    if unmapped:
        warnings.warn(f"clusters {unmapped} had no action left to map; "
                      "assigned NoAction", stacklevel=2)
        for c in unmapped:
            mapping[c] = ActionClass.NO_ACTION
    mapped = [mapping[int(c)] for c in cluster_stream]
    return mapping, mapped


SCISSOR_CLASSES = (InstrumentClass.SCISSORS_C, InstrumentClass.SCISSORS_S)


def semantic_label(centroids: np.ndarray, n_features: int,
                   mask_classes: Sequence[InstrumentClass],
                   ) -> tuple[dict[int, ActionClass], list[str]]:
    """Name clusters from their centroid presence-mask components.

    The centroid layout is [mean(d), std(d), mask(m)]; mask_classes names
    the instrument class behind each mask column.  Rules: the cluster with
    the highest scissors presence is Cutting, the lowest total presence
    among the rest is NoAction, and the remaining two split by needle
    presence (higher is NeedleDriving, the other KnotTying).  Exact ties
    break by cluster index and are flagged.

    Requires exactly 4 clusters.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    K = centroids.shape[0]
    if K != 4:
        raise ValueError(f"semantic labeling needs exactly 4 clusters, got {K}")
    m = len(mask_classes)
    if centroids.shape[1] != 2 * n_features + m:
        raise ValueError(
            f"centroid width {centroids.shape[1]} does not match "
            f"2*{n_features} + {m}")
    masks = centroids[:, 2 * n_features:]
    flags: list[str] = []

    def argbest(values, pool, *, largest: bool) -> int:
        vals = [(values[c], c) for c in pool]
        best_val = max(v for v, _ in vals) if largest else min(v for v, _ in vals)
        winners = sorted(c for v, c in vals if v == best_val)
        if len(winners) > 1:
            flags.append(f"tie among clusters {winners}; picked {winners[0]}")
        return winners[0]

    scissors = np.zeros(K)
    needle = np.zeros(K)
    total = masks.sum(axis=1)
    for col, cls in enumerate(mask_classes):
        if cls in SCISSOR_CLASSES:
            scissors += masks[:, col]
        if cls == InstrumentClass.NEEDLE:
            needle += masks[:, col]

    pool = list(range(K))
    mapping: dict[int, ActionClass] = {}
    cutting = argbest(scissors, pool, largest=True)
    mapping[cutting] = ActionClass.CUTTING
    pool.remove(cutting)
    idle = argbest(total, pool, largest=False)
    mapping[idle] = ActionClass.NO_ACTION
    pool.remove(idle)
    driving = argbest(needle, pool, largest=True)
    mapping[driving] = ActionClass.NEEDLE_DRIVING
    pool.remove(driving)
    mapping[pool[0]] = ActionClass.KNOT_TYING
    return mapping, flags
