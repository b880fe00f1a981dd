"""Identity-stable instrument tracking from a raw detection stream.

Three layers:

  * a constant-velocity Kalman filter on (cx, cy, area, aspect) plus a
    cost-matrix associator (IoU blended with appearance cosine), driven
    frame by frame by ``InstrumentTracker``;
  * ``refine_identity``, the offline repair pass: detections override
    tracked boxes, new object ids created after short dropouts are merged
    back into the lost object, and per-object class history rewrites
    detector mislabels by majority vote;
  * ``localize_tip``, descriptor matching of tip candidates inside a box,
    and ``recovery_correction_rates`` to score the repair against truth.

Appearance embeddings are ingested, never computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from .records import (BBox, Detection, InstrumentClass, Provenance,
                      RefinedTrack, TrackObservation, TruthInstance)
from .validation import check_bbox

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


# --- Kalman filter ---------------------------------------------------------
#
# State x = (cx, cy, s, r, vcx, vcy, vs, vr) with s = w*h, r = w/h.
# Measurements are the first four components.  One frame per step.

_DIM_X = 8
_DIM_Z = 4

_F = np.eye(_DIM_X)
_F[:4, 4:] = np.eye(4)
_H = np.zeros((_DIM_Z, _DIM_X))
_H[:, :4] = np.eye(4)

# aspect ratio is near constant, so its noise terms are kept small
_P0 = np.diag([10.0, 10.0, 100.0, 1e-2, 1e3, 1e3, 1e3, 1e-2])
_Q = np.diag([1.0, 1.0, 1.0, 1e-4, 1e-2, 1e-2, 1e-2, 1e-5])
_R = np.diag([1.0, 1.0, 10.0, 1e-3])


@dataclass
class KalmanState:
    x: np.ndarray  # (8,)
    P: np.ndarray  # (8, 8)


def bbox_to_measurement(bbox: BBox) -> np.ndarray:
    x, y, w, h = bbox
    return np.array([x + w / 2.0, y + h / 2.0, w * h, w / h])


def measurement_to_bbox(z: np.ndarray) -> BBox:
    s = max(float(z[2]), 1e-6)
    r = max(float(z[3]), 1e-6)
    w = math.sqrt(s * r)
    h = s / w
    return (float(z[0]) - w / 2.0, float(z[1]) - h / 2.0, w, h)


def kalman_init(bbox: BBox) -> KalmanState:
    check_bbox(bbox)
    x = np.zeros(_DIM_X)
    x[:4] = bbox_to_measurement(bbox)
    return KalmanState(x=x, P=_P0.copy())


def kalman_predict(state: KalmanState) -> KalmanState:
    """Advance one frame under constant velocity."""
    if not np.all(np.isfinite(state.x)):
        raise ValueError("non-finite kalman state")
    x = _F @ state.x
    P = _F @ state.P @ _F.T + _Q
    return KalmanState(x=x, P=(P + P.T) / 2.0)


def kalman_update(state: KalmanState, bbox: BBox) -> KalmanState:
    """Fold in a measured box.  Joseph-form covariance update keeps P
    symmetric positive definite regardless of rounding."""
    check_bbox(bbox)
    if not np.all(np.isfinite(state.x)):
        raise ValueError("non-finite kalman state")
    z = bbox_to_measurement(bbox)
    y = z - _H @ state.x
    S = _H @ state.P @ _H.T + _R
    K = state.P @ _H.T @ np.linalg.inv(S)
    x = state.x + K @ y
    IKH = np.eye(_DIM_X) - K @ _H
    P = IKH @ state.P @ IKH.T + K @ _R @ K.T
    return KalmanState(x=x, P=(P + P.T) / 2.0)


def state_bbox(state: KalmanState) -> BBox:
    return measurement_to_bbox(state.x[:4])


# --- Association -----------------------------------------------------------

def associate(det_boxes: Sequence[BBox], track_boxes: Sequence[BBox],
              det_apps: Optional[Sequence[Optional[np.ndarray]]] = None,
              track_apps: Optional[Sequence[Optional[np.ndarray]]] = None,
              iou_weight: float = 0.7, appearance_weight: float = 0.3,
              iou_gate: float = DEFAULT_IOU_GATE,
              ) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Minimum-cost one-to-one matching of detections to predicted tracks.

    Cost per pair is iou_weight*(1-IoU) + appearance_weight*(1-cosine).
    Pairs where either side lacks an embedding fall back to pure IoU cost.
    Matches whose IoU is below ``iou_gate`` are rejected after assignment.

    Returns (matches as (det_idx, track_idx), unmatched_dets,
    unmatched_tracks).
    """
    if iou_weight < 0 or appearance_weight < 0:
        raise ValueError("weights must be nonnegative")
    if abs(iou_weight + appearance_weight - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    nd, nt = len(det_boxes), len(track_boxes)
    if nd == 0 or nt == 0:
        return [], list(range(nd)), list(range(nt))

    ious = np.zeros((nd, nt))
    cost = np.zeros((nd, nt))
    for i, db in enumerate(det_boxes):
        da = det_apps[i] if det_apps is not None else None
        for j, tb in enumerate(track_boxes):
            ta = track_apps[j] if track_apps is not None else None
            ov = iou(db, tb)
            ious[i, j] = ov
            if da is not None and ta is not None:
                if da.shape != ta.shape:
                    raise ValueError(
                        f"appearance dimension mismatch: {da.shape} vs {ta.shape}")
                na = float(np.linalg.norm(da))
                nb = float(np.linalg.norm(ta))
                cos = float(da @ ta) / (na * nb) if na > 0 and nb > 0 else 0.0
                cost[i, j] = (iou_weight * (1.0 - ov)
                              + appearance_weight * (1.0 - cos))
            else:
                cost[i, j] = 1.0 - ov

    rows, cols = linear_sum_assignment(cost)
    matches = []
    matched_d, matched_t = set(), set()
    for i, j in zip(rows, cols):
        if ious[i, j] < iou_gate:
            continue
        matches.append((int(i), int(j)))
        matched_d.add(int(i))
        matched_t.add(int(j))
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
    age: int = 0
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

    def __init__(self, iou_weight: float = 0.7, appearance_weight: float = 0.3,
                 iou_gate: float = DEFAULT_IOU_GATE, max_coast: int = DEFAULT_MAX_GAP,
                 delete_after: int = DEFAULT_DELETE_AFTER, confirm_hits: int = 3,
                 cross_class_iou: float = 0.5):
        if max_coast > delete_after:
            raise ValueError("max_coast must not exceed delete_after")
        if not 0.0 <= cross_class_iou <= 1.0:
            raise ValueError("cross_class_iou must lie in [0, 1]")
        self.iou_weight = iou_weight
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
            t.age += 1

        det_boxes = [d.bbox for d in detections]
        det_apps = [d.appearance for d in detections]
        trk_boxes = [state_bbox(t.kalman) for t in self.tracks]
        trk_apps = [t.appearance for t in self.tracks]
        matches, unmatched_d, unmatched_t = associate(
            det_boxes, trk_boxes, det_apps, trk_apps,
            self.iou_weight, self.appearance_weight, self.iou_gate)

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
                                            bbox=state_bbox(t.kalman),
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

def _row_dots(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[A[i] @ b for i in rows]`` as one call.

    A stack of (1, d) @ (d, 1) products runs the 1-D dot kernel on every
    row, so each value is bit-identical to ``A[i] @ b``; ``A @ b`` would
    use a matrix-vector kernel that can round differently.
    """
    return np.matmul(A[:, None, :], b[..., None])[:, 0, 0]


def localize_tip(points: np.ndarray, descriptors: np.ndarray,
                 reference: np.ndarray,
                 bbox: Optional[BBox] = None) -> tuple[float, float]:
    """Pick the candidate whose descriptor best matches the reference.

    Row i of ``points`` (n, 2) and ``descriptors`` (n, d) is one
    candidate.  Cosine similarity, each computed with the same float
    operations as ``(d @ ref) / (norm(d) * norm(ref))``; exact ties keep
    the lowest candidate index, and a NaN similarity loses to any number.
    With a bbox the local point is shifted to image coordinates.
    """
    D = np.asarray(descriptors, dtype=float)
    if len(D) == 0:
        raise ValueError("no tip candidates")
    ref = np.asarray(reference, dtype=float)
    rn = math.sqrt(ref @ ref)  # np.linalg.norm's own arithmetic
    if rn == 0.0:
        raise ValueError("zero-norm reference descriptor")
    if D.ndim != 2 or D.shape[1:] != ref.shape:
        raise ValueError(f"descriptor dimension mismatch: candidates "
                         f"{D.shape[1:]} vs reference {ref.shape}")
    dn = np.sqrt(_row_dots(D, D))
    if np.count_nonzero(dn) < len(dn):
        raise ValueError(f"zero-norm descriptor at candidate "
                         f"{np.flatnonzero(dn == 0.0)[0]}")
    sims = _row_dots(D, ref) / (dn * rn)
    best = int(sims.argmax())
    if math.isnan(sims[best]):  # argmax stops at the first NaN
        best = int(np.where(np.isnan(sims), -np.inf, sims).argmax())
    x, y = np.asarray(points, dtype=float)[best].tolist()
    if bbox is not None:
        x += bbox[0]
        y += bbox[1]
    return (x, y)


# --- Repair scoring --------------------------------------------------------

def _match_frame(truth_boxes: Sequence[BBox], boxes: Sequence[BBox],
                 threshold: float) -> dict[int, int]:
    """Best one-to-one IoU matching within one frame; pairs below the
    threshold are dropped."""
    if not truth_boxes or not boxes:
        return {}
    gains = np.array([[iou(tb, b) for b in boxes] for tb in truth_boxes])
    rows, cols = linear_sum_assignment(gains, maximize=True)
    return {int(i): int(j) for i, j in zip(rows, cols)
            if gains[i, j] >= threshold}


def recovery_correction_rates(
        raw: Sequence[Detection], refined: Sequence[RefinedTrack],
        truth: Sequence[TruthInstance], iou_threshold: float = DEFAULT_IOU_GATE,
) -> tuple[Optional[float], Optional[float]]:
    """Score the repair pass against ground truth.

    Recovery rate: of the truth instances the detector missed entirely,
    the fraction present in the refined tracks (IoU and class both
    matching).  Correction rate: of the truth instances the detector
    found with the wrong class, the fraction whose refined class is
    right.  A zero denominator yields None, not 0.
    """
    raw_by_frame: dict[int, list[Detection]] = {}
    for d in raw:
        raw_by_frame.setdefault(d.frame, []).append(d)
    ref_by_frame: dict[int, list[tuple[InstrumentClass, BBox]]] = {}
    for track in refined:
        for f in track.frames():
            ref_by_frame.setdefault(f, []).append((track.class_id,
                                                   track.boxes[f]))
    truth_by_frame: dict[int, list[TruthInstance]] = {}
    for t in truth:
        truth_by_frame.setdefault(t.frame, []).append(t)

    misses = recovered = mislabels = corrected = 0
    for f, truths in truth_by_frame.items():
        t_boxes = [t.bbox for t in truths]
        dets = raw_by_frame.get(f, [])
        det_match = _match_frame(t_boxes, [d.bbox for d in dets],
                                 iou_threshold)
        refs = ref_by_frame.get(f, [])
        ref_match = _match_frame(t_boxes, [b for _, b in refs], iou_threshold)
        for i, t in enumerate(truths):
            in_refined = (i in ref_match
                          and refs[ref_match[i]][0] == t.class_id)
            if i not in det_match:
                misses += 1
                if in_refined:
                    recovered += 1
            elif dets[det_match[i]].class_id != t.class_id:
                mislabels += 1
                if in_refined:
                    corrected += 1
    rr = recovered / misses if misses else None
    cr = corrected / mislabels if mislabels else None
    return rr, cr
