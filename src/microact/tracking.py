"""Identity-stable instrument tracking from a raw detection stream.

Three layers:

  * a constant-velocity Kalman filter on (cx, cy, area, aspect), run as
    one (position, velocity) float filter per coordinate, plus a
    cost-matrix associator (IoU blended with appearance cosine), driven
    frame by frame by ``InstrumentTracker``;
  * ``refine_identity``, the offline repair pass: detections override
    tracked boxes, new object ids created after short dropouts are merged
    back into the lost object, and per-object class history rewrites
    detector mislabels by majority vote;
  * ``localize_tip``, descriptor matching of tip candidates inside a box,
    and ``recovery_correction_rates`` to score the repair against truth.

Box overlap comes in two forms with the same bits: ``iou`` for one pair,
and ``iou_pairs``, one elementwise pass over many pairs, which the
repair scoring and the tips stage's candidate match use.  ``associate``
decides a lone detection and track by the IoU gate alone, since the
solver can only pair them.  ``localize_tip`` matches every (candidate
set, reference) pair of a procedure in one columnar pass, each
similarity with the bits of a per-set match, offset by the set's crop
box; its input checks guard library callers, as ``io`` refuses the rest.

Appearance embeddings are ingested, never computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .assignment import assign_blocks, linear_assignment
from .records import (BBox, Detection, InstrumentClass, Provenance,
                      RefinedTrack, TipCandidateTable, TrackObservation,
                      TruthInstance)
from .validation import check_bbox, descriptor_norms, row_dots

DEFAULT_IOU_GATE = 0.3
DEFAULT_MAX_GAP = 30       # dropout length the repair pass will bridge
DEFAULT_DELETE_AFTER = 60  # consecutive misses before a track is dropped


def iou(a: BBox, b: BBox) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou(a[k], b[k])`` for every row k of two (n, 4) float64 arrays.

    ``iou``'s formula in its order, one elementwise pass per operation:
    float64 ``+ - * /``, ``minimum`` and ``maximum`` round as the scalar
    code does, so each value has the scalar's bits.  The clamp at zero is
    written as ``max(0.0, v)`` behaves, +0.0 unless v > 0, because
    ``np.maximum(0.0, -0.0)`` can be -0.0.
    """
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    ix = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    iy = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = np.where(ix > 0.0, ix, 0.0) * np.where(iy > 0.0, iy, 0.0)
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def frame_pairs(a_frames: np.ndarray, b_frames: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (i, j) with ``a_frames[i] == b_frames[j]``, ``b_frames``
    sorted: i ascending, then j ascending.

    Returns the i and j index arrays and, per i, its number of pairs, so
    row i's pairs start at ``cumsum(counts)[i] - counts[i]``.
    """
    lo = np.searchsorted(b_frames, a_frames, "left")
    counts = np.searchsorted(b_frames, a_frames, "right") - lo
    first = np.cumsum(counts) - counts
    i = np.repeat(np.arange(len(a_frames)), counts)
    j = np.arange(int(counts.sum())) + np.repeat(lo - first, counts)
    return i, j, counts


# --- Kalman filter ---------------------------------------------------------
#
# State x = (cx, cy, s, r, vcx, vcy, vs, vr) with s = w*h, r = w/h.
# Measurements are the first four components.  One frame per step.
#
# F, H, P0, Q and R are block-diagonal over the four coordinates, so the
# 8-state filter is four independent (position, velocity) filters, run
# here on Python floats without a BLAS call.  Each formula below is the
# 8x8 matrix form's arithmetic in the matrix form's order: in every entry
# of those products at most two terms are nonzero, at most one of them is
# an inexact product, and that one comes first, so a BLAS sum in index
# order rounds exactly as the scalar expression does.

# per coordinate (cx, cy, s, r): initial position and velocity variances,
# process noise and measurement noise; aspect ratio is near constant, so
# its noise terms are kept small
_P0_POS = (10.0, 10.0, 100.0, 1e-2)
_P0_VEL = (1e3, 1e3, 1e3, 1e-2)
_Q_POS = (1.0, 1.0, 1.0, 1e-4)
_Q_VEL = (1e-2, 1e-2, 1e-2, 1e-5)
_R = (1.0, 1.0, 10.0, 1e-3)


class KalmanState:
    """One filter per coordinate c of (cx, cy, s, r): ``coords[c]`` is
    (x, v, a, b, d), the mean (position x, velocity v) and the covariance
    [[a, b], [b, d]].  ``x`` and ``P`` give the 8-state mean and
    covariance as arrays."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)

    @property
    def x(self) -> np.ndarray:
        """(8,) mean: the four positions, then the four velocities."""
        return np.array([c[0] for c in self.coords]
                        + [c[1] for c in self.coords])

    @property
    def P(self) -> np.ndarray:
        """(8, 8) covariance; zero outside the per-coordinate blocks."""
        P = np.zeros((8, 8))
        for c, (_, _, a, b, d) in enumerate(self.coords):
            P[c, c], P[c, c + 4], P[c + 4, c], P[c + 4, c + 4] = a, b, b, d
        return P


def _measure(bbox: BBox) -> tuple[float, float, float, float]:
    # in the box's own number type, then to float as np.array converts
    x, y, w, h = bbox
    return tuple(map(float, (x + w / 2.0, y + h / 2.0, w * h, w / h)))


def measurement_to_bbox(z) -> BBox:
    s = max(float(z[2]), 1e-6)
    r = max(float(z[3]), 1e-6)
    w = math.sqrt(s * r)
    h = s / w
    return (float(z[0]) - w / 2.0, float(z[1]) - h / 2.0, w, h)


def _check_finite(state: KalmanState) -> None:
    for x, v, _, _, _ in state.coords:
        if not (math.isfinite(x) and math.isfinite(v)):
            raise ValueError("non-finite kalman state")


def kalman_init(bbox: BBox) -> KalmanState:
    check_bbox(bbox)
    return KalmanState(zip(_measure(bbox), (0.0,) * 4, _P0_POS, (0.0,) * 4,
                           _P0_VEL))


def kalman_predict(state: KalmanState) -> KalmanState:
    """Advance one frame under constant velocity: F P F^T + Q, per block."""
    _check_finite(state)
    coords = []
    for (x, v, a, b, d), qp, qv in zip(state.coords, _Q_POS, _Q_VEL):
        bd = b + d
        coords.append((x + v, v, ((a + b) + bd) + qp, bd, d + qv))
    return KalmanState(coords)


def kalman_update(state: KalmanState, bbox: BBox) -> KalmanState:
    """Fold in a measured box.  Joseph-form covariance update keeps P
    symmetric positive definite regardless of rounding."""
    check_bbox(bbox)
    _check_finite(state)
    coords = []
    for (x, v, a, b, d), z, r in zip(state.coords, _measure(bbox), _R):
        si = 1.0 / (a + r)  # S^-1
        kp, kv = a * si, b * si  # gain K
        y = z - x  # innovation
        # I - K H is [[1 - kp, 0], [0 - kv, 1]] (0 - kv as I - KH forms
        # it: +0 for a zero gain); (I - KH) P, then times (I - KH)^T,
        # plus K R K^T, then symmetrized
        ikp, nkv = 1.0 - kp, 0.0 - kv
        a0, b0 = ikp * a, ikp * b
        a1, b1 = nkv * a + b, nkv * b + d
        p01 = (a0 * nkv + b0) + (kp * r) * kv
        p10 = a1 * ikp + (kv * r) * kp
        coords.append((x + kp * y, v + kv * y,
                       a0 * ikp + (kp * r) * kp, (p01 + p10) / 2.0,
                       (a1 * nkv + b1) + (kv * r) * kv))
    return KalmanState(coords)


def state_bbox(state: KalmanState) -> BBox:
    return measurement_to_bbox([c[0] for c in state.coords])


# --- Association -----------------------------------------------------------

def _check_dims(da: Optional[np.ndarray], ta: Optional[np.ndarray]) -> None:
    if da is not None and ta is not None and da.shape != ta.shape:
        raise ValueError(
            f"appearance dimension mismatch: {da.shape} vs {ta.shape}")


def associate(det_boxes: Sequence[BBox], track_boxes: Sequence[BBox],
              det_apps: Optional[Sequence[Optional[np.ndarray]]] = None,
              track_apps: Optional[Sequence[Optional[np.ndarray]]] = None,
              appearance_weight: float = 0.3,
              iou_gate: float = DEFAULT_IOU_GATE,
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Minimum-cost one-to-one matching of detections to predicted tracks.

    Cost per pair is (1-appearance_weight)*(1-IoU)
    + appearance_weight*(1-cosine).
    Pairs where either side lacks an embedding fall back to pure IoU cost.
    Matches whose IoU is below ``iou_gate`` are rejected after assignment.

    Returns (matches as (det_idx, track_idx), unmatched_dets,
    unmatched_tracks).
    """
    if not 0.0 <= appearance_weight <= 1.0:
        raise ValueError("appearance_weight must lie in [0, 1]")
    nd, nt = len(det_boxes), len(track_boxes)
    if nd == 0 or nt == 0:
        return [], list(range(nd)), list(range(nt))

    det_apps = det_apps if det_apps is not None else [None] * nd
    track_apps = track_apps if track_apps is not None else [None] * nt
    if nd == nt == 1:
        # the solver's only assignment of one pair is (0, 0), so the gate
        # alone decides
        _check_dims(det_apps[0], track_apps[0])
        if iou(det_boxes[0], track_boxes[0]) < iou_gate:
            return [], [0], [0]
        return [(0, 0)], [], []

    iou_weight = 1.0 - appearance_weight
    # each embedding is normed once, for all of its pairs; math.sqrt(a @ a)
    # is np.linalg.norm's own arithmetic on a float64 vector
    det_norms = [None if a is None else math.sqrt(a @ a) for a in det_apps]
    track_norms = [None if a is None else math.sqrt(a @ a)
                   for a in track_apps]
    ious = [[iou(db, tb) for tb in track_boxes] for db in det_boxes]
    cost = []
    for da, na, row in zip(det_apps, det_norms, ious):
        cost.append([])
        for ta, nb, ov in zip(track_apps, track_norms, row):
            if da is not None and ta is not None:
                _check_dims(da, ta)
                cos = float(da @ ta) / (na * nb) if na > 0 and nb > 0 else 0.0
                cost[-1].append(iou_weight * (1.0 - ov)
                                + appearance_weight * (1.0 - cos))
            else:
                cost[-1].append(1.0 - ov)

    rows, cols = linear_assignment(cost)
    matches = [(i, j) for i, j in zip(rows, cols) if ious[i][j] >= iou_gate]
    matched_d = {i for i, _ in matches}
    matched_t = {j for _, j in matches}
    unmatched_d = [i for i in range(nd) if i not in matched_d]
    unmatched_t = [j for j in range(nt) if j not in matched_t]
    return matches, unmatched_d, unmatched_t


# --- Online tracker --------------------------------------------------------

@dataclass
class TrackState:
    """Mutable per-object tracker bookkeeping."""

    object_id: int
    class_id: InstrumentClass
    kalman: KalmanState
    misses: int = 0
    hits: int = 0
    appearance: Optional[np.ndarray] = None
    # class -> (count, frame of first observation); the vote favors count,
    # then the earlier first observation
    class_history: dict = field(default_factory=dict)

    def observe_class(self, cls: InstrumentClass, frame: int) -> None:
        count, first = self.class_history.get(cls, (0, frame))
        self.class_history[cls] = (count + 1, first)
        self.class_id = self.majority_class()

    def majority_class(self) -> InstrumentClass:
        return max(self.class_history.items(),
                   key=lambda kv: (kv[1][0], -kv[1][1]))[0]


class InstrumentTracker:
    """Frame-by-frame tracking-by-detection.

    Matched frames emit the detection box; a confirmed track that misses
    keeps emitting its predicted box for up to ``max_coast`` frames
    (det_index None) and survives silently until ``delete_after``.

    A detection whose class disagrees with the track's majority class is
    accepted only while the track is still inside its trusted coast window
    (misses <= max_coast) and overlaps at ``cross_class_iou`` or better: a
    mislabeled detection sits right on its still-tracked object, while a
    different instrument entering over a stale prediction arrives frames
    after the object left.
    """

    def __init__(self, appearance_weight: float = 0.3,
                 iou_gate: float = DEFAULT_IOU_GATE, max_coast: int = 5,
                 delete_after: int = DEFAULT_DELETE_AFTER, confirm_hits: int = 3,
                 cross_class_iou: float = 0.5):
        if max_coast > delete_after:
            raise ValueError("max_coast must not exceed delete_after")
        if not 0.0 <= cross_class_iou <= 1.0:
            raise ValueError("cross_class_iou must lie in [0, 1]")
        self.appearance_weight = appearance_weight
        self.iou_gate = iou_gate
        self.max_coast = max_coast
        self.delete_after = delete_after
        self.confirm_hits = confirm_hits
        self.cross_class_iou = cross_class_iou
        self.tracks: list[TrackState] = []
        self._next_id = 1

    def step(self, frame: int, detections: Sequence[Detection]
             ) -> list[TrackObservation]:
        for t in self.tracks:
            t.kalman = kalman_predict(t.kalman)

        det_boxes = [d.bbox for d in detections]
        det_apps = [d.appearance for d in detections]
        trk_boxes = [state_bbox(t.kalman) for t in self.tracks]
        trk_apps = [t.appearance for t in self.tracks]
        matches, unmatched_d, unmatched_t = associate(
            det_boxes, trk_boxes, det_apps, trk_apps,
            self.appearance_weight, self.iou_gate)

        kept = []
        for di, tj in matches:
            t = self.tracks[tj]
            d = detections[di]
            if (d.class_id != t.class_id
                    and (t.misses > self.max_coast
                         or iou(d.bbox, trk_boxes[tj]) < self.cross_class_iou)):
                unmatched_d.append(di)
                unmatched_t.append(tj)
            else:
                kept.append((di, tj))
        matches = kept
        unmatched_d.sort()
        unmatched_t.sort()

        out = []
        for di, tj in matches:
            t = self.tracks[tj]
            d = detections[di]
            t.kalman = kalman_update(t.kalman, d.bbox)
            t.misses = 0
            t.hits += 1
            if d.appearance is not None:
                t.appearance = d.appearance
            t.observe_class(d.class_id, frame)
            out.append(TrackObservation(frame=frame, object_id=t.object_id,
                                        class_id=d.class_id, bbox=d.bbox,
                                        det_index=di))
        for tj in unmatched_t:
            t = self.tracks[tj]
            t.misses += 1
            if t.hits >= self.confirm_hits and t.misses <= self.max_coast:
                out.append(TrackObservation(frame=frame, object_id=t.object_id,
                                            class_id=t.class_id,
                                            bbox=trk_boxes[tj],
                                            det_index=None))
        for di in unmatched_d:
            d = detections[di]
            t = TrackState(object_id=self._next_id, class_id=d.class_id,
                           kalman=kalman_init(d.bbox), hits=1,
                           appearance=d.appearance)
            t.observe_class(d.class_id, frame)
            self._next_id += 1
            self.tracks.append(t)
            out.append(TrackObservation(frame=frame, object_id=t.object_id,
                                        class_id=d.class_id, bbox=d.bbox,
                                        det_index=di))
        self.tracks = [t for t in self.tracks if t.misses < self.delete_after]
        out.sort(key=lambda o: o.object_id)
        return out

    def run(self, detections: Sequence[Detection],
            first_frame: Optional[int] = None,
            last_frame: Optional[int] = None) -> list[TrackObservation]:
        """Track a whole stream; frames without detections still step."""
        by_frame: dict[int, list[Detection]] = {}
        for d in detections:
            by_frame.setdefault(d.frame, []).append(d)
        if not by_frame and first_frame is None:
            return []
        lo = first_frame if first_frame is not None else min(by_frame)
        hi = last_frame if last_frame is not None else max(by_frame)
        out = []
        for f in range(lo, hi + 1):
            out.extend(self.step(f, by_frame.get(f, [])))
        return out


# --- Identity repair -------------------------------------------------------

@dataclass
class _Row:
    frame: int
    object_id: int
    class_id: InstrumentClass
    bbox: BBox
    det_backed: bool
    prior: Optional[Provenance] = None


def _rows_from_stream(stream) -> list[_Row]:
    rows = []
    for item in stream:
        if isinstance(item, TrackObservation):
            rows.append(_Row(item.frame, item.object_id, item.class_id,
                             item.bbox, det_backed=item.det_index is not None))
        elif isinstance(item, RefinedTrack):
            for f in item.frames():
                prov = item.provenance[f]
                rows.append(_Row(f, item.object_id, item.class_id,
                                 item.boxes[f],
                                 det_backed=prov != Provenance.RECOVERED,
                                 prior=prov))
        else:
            raise TypeError(f"unsupported stream element {type(item).__name__}")
    rows.sort(key=lambda r: (r.frame, r.object_id))
    return rows


def _majority_class(rows: Sequence[_Row]) -> InstrumentClass:
    """Vote over detection-backed rows; ties go to the earliest-observed
    class.  Coast-only objects fall back to all rows."""
    pool = [r for r in rows if r.det_backed] or list(rows)
    tally: dict = {}
    for r in pool:
        count, first = tally.get(r.class_id, (0, r.frame))
        tally[r.class_id] = (count + 1, first)
    return max(tally.items(), key=lambda kv: (kv[1][0], -kv[1][1]))[0]


def refine_identity(stream: Union[Sequence[TrackObservation],
                                  Sequence[RefinedTrack]],
                    max_gap: int = DEFAULT_MAX_GAP) -> list[RefinedTrack]:
    """Offline identity repair; idempotent.

    Pass 1 merges an object that first appears within ``max_gap`` frames
    of a same-class object's disappearance into that object (latest
    disappearance wins, then lowest id).  Pass 2 rewrites every row's
    class to the object's majority class.  Provenance per frame:
    ``recovered`` for coasted boxes, ``corrected`` where a detection's
    class was overruled, ``detected`` otherwise.
    """
    rows = _rows_from_stream(stream)
    if not rows:
        return []

    by_object: dict[int, list[_Row]] = {}
    for r in rows:
        by_object.setdefault(r.object_id, []).append(r)
    first_seen = {oid: rs[0].frame for oid, rs in by_object.items()}
    # "lost" means no more detections; trailing coasted rows don't count,
    # otherwise a replacement id spawned mid-coast could never merge back
    last_det = {
        oid: max((r.frame for r in rs if r.det_backed), default=rs[-1].frame)
        for oid, rs in by_object.items()
    }
    majority = {oid: _majority_class(rs) for oid, rs in by_object.items()}

    # pass 1: chase each new id back to a recently lost object of the same
    # class; alias maps follow chains so A<-B<-C all land on A
    alias: dict[int, int] = {}

    def root(oid: int) -> int:
        while oid in alias:
            oid = alias[oid]
        return oid

    # surviving object id -> (class, first frame, last detected frame)
    objects: dict[int, tuple[InstrumentClass, int, int]] = {}
    for oid in sorted(by_object, key=lambda o: (first_seen[o], o)):
        cls = majority[oid]
        candidates = []
        for other, (ocls, _, olast) in objects.items():
            if ocls != cls:
                continue
            if olast < first_seen[oid] and first_seen[oid] - olast <= max_gap:
                candidates.append((olast, -other))
        if candidates:
            candidates.sort(reverse=True)  # latest loss first, then lowest id
            target = -candidates[0][1]
            alias[oid] = target
            c, first, _ = objects[target]
            objects[target] = (c, first, last_det[oid])
        else:
            objects[oid] = (cls, first_seen[oid], last_det[oid])

    merged: dict[int, list[_Row]] = {}
    for oid, rs in by_object.items():
        merged.setdefault(root(oid), []).extend(rs)

    # pass 2: one class per object, provenance per frame
    out = []
    for oid in sorted(merged):
        rs = sorted(merged[oid], key=lambda r: r.frame)
        cls = _majority_class(rs)
        boxes: dict[int, BBox] = {}
        prov: dict[int, Provenance] = {}
        for r in rs:
            if r.frame in boxes and not r.det_backed:
                continue  # detection beats a coasted duplicate
            if not r.det_backed:
                p = Provenance.RECOVERED
            elif r.class_id != cls or r.prior == Provenance.CORRECTED:
                p = Provenance.CORRECTED
            else:
                p = Provenance.DETECTED
            boxes[r.frame] = r.bbox
            prov[r.frame] = p
        out.append(RefinedTrack(object_id=oid, class_id=cls,
                                boxes=boxes, provenance=prov))
    return out


# --- Tip localization ------------------------------------------------------

# candidate rows gathered per block by localize_tip: 1024 rows of 16
# descriptor values are 128 KiB
_GATHER_ROWS = 1024


def localize_tip(table: TipCandidateTable, sets: np.ndarray,
                 references: Sequence[np.ndarray],
                 ref_of: np.ndarray) -> np.ndarray:
    """The tip of every (candidate set, reference) pair, in one pass.

    Pair k matches set ``sets[k]`` of ``table`` against
    ``references[ref_of[k]]``; its tip is the best candidate's crop-local
    point plus the x, y of the set's crop box.  Returns (n, 2) float64.

    Cosine similarity, each value with the float operations of
    ``(d @ ref) / (norm(d) * norm(ref))``; exact ties keep the lowest
    candidate index, and a NaN similarity loses to any number.  Raises
    ValueError, checked in this order, when a pair's set is empty, a
    reference some pair uses has zero norm, infinite norm or another
    width than the descriptors, or a pair's set holds a descriptor of
    zero or infinite norm.  A norm whose squares underflow or overflow
    counts as zero or infinite, and so does an infinite value beside a
    NaN; NaN values alone are allowed.
    """
    sets = np.asarray(sets, dtype=np.intp)
    ref_of = np.asarray(ref_of, dtype=np.intp)
    if len(sets) == 0:
        return np.empty((0, 2))
    refs = [np.asarray(r, dtype=float) for r in references]
    used = np.unique(ref_of).tolist()
    # pairs grouped by reference, so each group's candidates are one run of
    # rows and no reference is copied per row
    order = np.argsort(ref_of, kind="stable")
    group = ref_of[order]
    starts = table.offsets[sets[order]]
    counts = table.offsets[sets[order] + 1] - starts
    if not counts.all():
        raise ValueError("no tip candidates")
    # norm()'s arithmetic, for the references some pair uses
    with np.errstate(over="ignore"):
        ref_norms = {g: math.sqrt(refs[g] @ refs[g]) for g in used}
    if 0.0 in ref_norms.values():
        raise ValueError("zero-norm reference descriptor")
    if any(ref_norms[g] == math.inf or np.isinf(refs[g]).any()
           for g in used):
        raise ValueError("infinite-norm reference descriptor")
    width = table.descriptors.shape[1:]
    for g in used:
        if refs[g].shape != width:
            raise ValueError(f"descriptor dimension mismatch: candidates "
                             f"{width} vs reference {refs[g].shape}")
    ends = np.cumsum(counts)
    firsts = ends - counts
    # the pairs' candidates bounds[g]:bounds[g + 1] are reference g's
    bounds = np.r_[0, ends][np.searchsorted(group, np.arange(len(refs) + 1))]
    # the descriptors are gathered _GATHER_ROWS candidates at a time, never
    # all at once, and each block's norms are checked before it is divided
    # by them
    sims = np.empty(ends[-1])
    for g in used:
        for lo in range(bounds[g], bounds[g + 1], _GATHER_ROWS):
            hi = min(lo + _GATHER_ROWS, bounds[g + 1])
            at = np.arange(lo, hi)
            pair = np.searchsorted(firsts, at, "right") - 1
            index = at - firsts[pair]  # within the pair's set
            D = table.descriptors[starts[pair] + index]
            dn, bad = descriptor_norms(D)
            if len(bad):
                kind = "infinite" if dn[bad[0]] else "zero"
                raise ValueError(f"{kind}-norm descriptor at candidate "
                                 f"{index[bad[0]]}")
            sims[lo:hi] = row_dots(D, refs[g]) / (dn * ref_norms[g])
    # each pair's first maximum, NaN ranking below every number; every pair
    # holds one, so its first is the first hit at or after its first row
    sims[np.isnan(sims)] = -np.inf
    top = np.maximum.reduceat(sims, firsts)
    hits = np.flatnonzero(sims == np.repeat(top, counts))
    best = hits[np.searchsorted(hits, firsts)]
    tips = np.empty((len(sets), 2))
    tips[order] = (table.points[starts + (best - firsts)]
                   + table.boxes[sets[order], :2])
    return tips


# --- Repair scoring --------------------------------------------------------

def _match_frames(truth_frames: np.ndarray, truth_boxes: np.ndarray,
                  frames: np.ndarray, boxes: np.ndarray,
                  threshold: float) -> np.ndarray:
    """Best one-to-one IoU matching of truth boxes to boxes, frame by frame.

    Both sides are sorted by frame, each frame's rows in the caller's
    order.  Returns, per truth row, the row of ``boxes`` it matched, or -1;
    pairs below the threshold are dropped.  Every IoU is computed in one
    pass, and the frames of one shape (truths x boxes) are solved in one
    ``assign_blocks`` call.
    """
    ti, bj, counts = frame_pairs(truth_frames, frames)
    gains = iou_pairs(truth_boxes[ti], boxes[bj])
    # a frame's truth rows start at s, its gains at pair g and its boxes
    # at row b; it has nt truths and nb boxes
    new_frame = np.ones(len(truth_frames), dtype=bool)
    new_frame[1:] = truth_frames[1:] != truth_frames[:-1]
    s = np.flatnonzero(new_frame)
    nt = np.diff(s, append=len(truth_frames))
    nb = counts[s]
    g = (np.cumsum(counts) - counts)[s]
    b = np.searchsorted(frames, truth_frames[s])
    # (frame, truth, box) of every assignment
    frame, rows, cols = [np.zeros(0, dtype=np.intp)] * 3
    shape = nt * (int(nb.max(initial=0)) + 1) + nb
    for key in np.unique(shape[nb > 0]).tolist():
        fs = np.flatnonzero(shape == key)
        t, n = int(nt[fs[0]]), int(nb[fs[0]])
        r, c = assign_blocks(
            gains[g[fs, None] + np.arange(t * n)].reshape(-1, t, n),
            maximize=True)
        frame = np.append(frame, np.repeat(fs, r.shape[1]))
        rows = np.append(rows, r)
        cols = np.append(cols, c)
    keep = gains[g[frame] + rows * nb[frame] + cols] >= threshold
    match = np.full(len(truth_frames), -1)
    match[(s[frame] + rows)[keep]] = (b[frame] + cols)[keep]
    return match


_CLASS_CODE = {c: k for k, c in enumerate(InstrumentClass)}


def _frame_sorted(frames: Sequence[int], boxes: Sequence[BBox],
                  classes: Sequence[InstrumentClass]):
    """(frames, boxes, class codes) of parallel rows, stably sorted by
    frame.  The codes get a -1 appended, so that indexing them with -1, no
    match, gives a code no class has."""
    frames = np.array(frames, dtype=np.int64)
    order = np.argsort(frames, kind="stable")
    codes = np.array([_CLASS_CODE[c] for c in classes] + [-1])
    return (frames[order],
            np.array(boxes, dtype=np.float64).reshape(-1, 4)[order],
            codes[np.append(order, len(order))])


def recovery_correction_rates(
        raw: Sequence[Detection], refined: Sequence[RefinedTrack],
        truth: Sequence[TruthInstance], iou_threshold: float = DEFAULT_IOU_GATE,
) -> tuple[Optional[float], Optional[float]]:
    """Score the repair pass against ground truth.

    Recovery rate: of the truth instances the detector missed entirely,
    the fraction present in the refined tracks (IoU and class both
    matching).  Correction rate: of the truth instances the detector
    found with the wrong class, the fraction whose refined class is
    right.  A zero denominator yields None, not 0.  In each frame truths
    are matched to detections and, separately, to refined boxes by best
    one-to-one IoU, with rows in the order given.
    """
    tf, tb, tc = _frame_sorted([t.frame for t in truth],
                               [t.bbox for t in truth],
                               [t.class_id for t in truth])
    df, db, dc = _frame_sorted([d.frame for d in raw], [d.bbox for d in raw],
                               [d.class_id for d in raw])
    frames, boxes, classes = [], [], []
    for track in refined:
        fs = track.frames()
        frames += fs
        boxes += map(track.boxes.__getitem__, fs)
        classes += [track.class_id] * len(fs)
    rf, rb, rc = _frame_sorted(frames, boxes, classes)
    tc = tc[:-1]
    in_refined = rc[_match_frames(tf, tb, rf, rb, iou_threshold)] == tc
    det_cls = dc[_match_frames(tf, tb, df, db, iou_threshold)]
    missed = det_cls == -1
    mislabeled = ~missed & (det_cls != tc)
    misses = int(np.count_nonzero(missed))
    recovered = int(np.count_nonzero(missed & in_refined))
    mislabels = int(np.count_nonzero(mislabeled))
    corrected = int(np.count_nonzero(mislabeled & in_refined))
    rr = recovered / misses if misses else None
    cr = corrected / mislabels if mislabels else None
    return rr, cr
