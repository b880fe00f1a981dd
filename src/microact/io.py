"""File ingestion and persistence for every pipeline stage.

All formats are line-oriented text (JSON lines or comma-delimited with a
header) so intermediates stay auditable and diffable.  Floats are written
with shortest round-trip repr, which makes save → load bit-exact.

Loaders are pure functions of file content and never mutate their inputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .records import (
    ActionClass,
    BBox,
    Detection,
    InstrumentClass,
    Provenance,
    RefinedTrack,
    SkillScore,
    TipCandidateSet,
    TipTrajectory,
    TrackObservation,
    TruthInstance,
)

PathLike = Union[str, Path]

APPEARANCE_NORM_TOL = 1e-6


class ParseError(ValueError):
    """Malformed record; carries the 1-based line number."""

    def __init__(self, path, line_no: int, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(value))


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


# ---------------------------------------------------------------------------
# detections


def load_detections(path: PathLike, *, strict_order: bool = False) -> list[Detection]:
    """Read a line-delimited detection file.

    Each line is a JSON object ``{frame, class, x, y, w, h, conf,
    appearance?}``.  The returned stream is sorted by frame index with a
    stable sort, so duplicate (frame, box) records keep their file order.

    Parameters
    ----------
    path : file to read
    strict_order : when True, frames out of order in the file raise
        instead of being stabilized by the sort.

    Raises
    ------
    ParseError
        On malformed JSON, unknown class names, bound violations, or a
        non-unit appearance vector; the message carries the line number.
    """
    out: list[Detection] = []
    prev_frame = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON ({exc.msg})") from exc
            try:
                det = _detection_from_record(rec)
            except (KeyError, ValueError, TypeError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            if strict_order and prev_frame is not None and det.frame < prev_frame:
                raise ParseError(
                    path, line_no,
                    f"frame {det.frame} after frame {prev_frame} (non-monotone)")
            prev_frame = det.frame
            out.append(det)
    out.sort(key=lambda d: d.frame)  # stable: preserves in-frame order
    return out


def _detection_from_record(rec: dict) -> Detection:
    frame = int(rec["frame"])
    if frame < 0:
        raise ValueError(f"negative frame index {frame}")
    cls = InstrumentClass(rec["class"])
    bbox = (float(rec["x"]), float(rec["y"]), float(rec["w"]), float(rec["h"]))
    if not all(np.isfinite(bbox)):
        raise ValueError(f"non-finite bbox {bbox}")
    if bbox[2] <= 0 or bbox[3] <= 0:
        raise ValueError(f"bbox must have positive width and height, got {bbox}")
    conf = float(rec["conf"])
    if not 0.0 <= conf <= 1.0:
        raise ValueError(f"confidence {conf} outside [0, 1]")
    appearance = None
    if rec.get("appearance") is not None:
        appearance = np.asarray(rec["appearance"], dtype=np.float64)
        if appearance.ndim != 1 or appearance.size == 0:
            raise ValueError("appearance must be a nonempty flat vector")
        norm = float(np.linalg.norm(appearance))
        if abs(norm - 1.0) > APPEARANCE_NORM_TOL:
            raise ValueError(f"appearance norm {norm} not within {APPEARANCE_NORM_TOL} of 1")
    return Detection(frame=frame, class_id=cls, bbox=bbox, confidence=conf,
                     appearance=appearance)


def save_detections(detections: Iterable[Detection], path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for det in detections:
            x, y, w, h = det.bbox
            rec = {
                "frame": det.frame,
                "class": det.class_id.value,
                "x": float(x), "y": float(y), "w": float(w), "h": float(h),
                "conf": float(det.confidence),
            }
            if det.appearance is not None:
                rec["appearance"] = [float(v) for v in det.appearance]
            fh.write(_json_line(rec) + "\n")


@dataclass
class StreamReport:
    """validate_stream output: gaps and anomalies, nothing mutated."""

    n_records: int = 0
    n_frames: int = 0
    frame_range: Optional[tuple[int, int]] = None
    gaps: list[tuple[int, int]] = field(default_factory=list)  # (after_frame, length)
    anomalies: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [
            f"records: {self.n_records}",
            f"frames with detections: {self.n_frames}",
            f"frame range: {self.frame_range}",
            f"gaps: {len(self.gaps)}",
        ]
        for after, length in self.gaps:
            lines.append(f"  gap of {length} after frame {after}")
        lines.append(f"anomalies: {len(self.anomalies)}")
        for a in self.anomalies:
            lines.append(f"  {a}")
        return "\n".join(lines)


def validate_stream(stream: Sequence[Detection]) -> StreamReport:
    """Report frame gaps and per-frame class-cardinality anomalies.

    A gap is a run of frames with no detections between two frames that
    have some.  An anomaly is more than one detection of the same
    instrument class in a single frame (e.g. two simultaneous needles).
    """
    report = StreamReport(n_records=len(stream))
    if not stream:
        return report
    frames = sorted({d.frame for d in stream})
    report.n_frames = len(frames)
    report.frame_range = (frames[0], frames[-1])
    for a, b in zip(frames, frames[1:]):
        if b - a > 1:
            report.gaps.append((a, b - a - 1))
    per_frame: dict[int, dict[InstrumentClass, int]] = {}
    for det in stream:
        per_frame.setdefault(det.frame, {}).setdefault(det.class_id, 0)
        per_frame[det.frame][det.class_id] += 1
    for frame in frames:
        for cls, count in per_frame[frame].items():
            if count > 1:
                report.anomalies.append(
                    f"frame {frame}: {count} simultaneous {cls.value} detections")
    return report


# ---------------------------------------------------------------------------
# tip trajectories

TIPS_HEADER = ["frame", "instrument_id", "present", "x", "y"]


def save_tips(trajectories: Sequence[TipTrajectory], path: PathLike) -> None:
    """Write trajectories as `frame, instrument_id, present, x, y` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIPS_HEADER)
        T = max((len(tr) for tr in trajectories), default=0)
        for frame in range(T):
            for tr in trajectories:
                p = tr.points[frame] if frame < len(tr) else None
                if p is None:
                    writer.writerow([frame, tr.instrument_id, 0, "0.0", "0.0"])
                else:
                    writer.writerow([frame, tr.instrument_id, 1, _fmt(p[0]), _fmt(p[1])])


def load_tips(path: PathLike, *, fps: float,
              class_map: Optional[dict[int, InstrumentClass]] = None) -> list[TipTrajectory]:
    """Read a tips file back into trajectories.

    fps is pipeline metadata, not a column, so it must be supplied here.
    """
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    points: dict[int, dict[int, Optional[tuple[float, float]]]] = {}
    max_frame = -1
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TIPS_HEADER:
            raise ParseError(path, 1, f"expected header {TIPS_HEADER}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                frame = int(row[0])
                inst = int(row[1])
                present = int(row[2])
                x, y = float(row[3]), float(row[4])
            except (ValueError, IndexError) as exc:
                raise ParseError(path, line_no, f"bad row {row!r}") from exc
            if present and not (np.isfinite(x) and np.isfinite(y)):
                raise ParseError(path, line_no, "non-finite tip position")
            points.setdefault(inst, {})[frame] = (x, y) if present else None
            max_frame = max(max_frame, frame)
    out = []
    for inst in sorted(points):
        pts: list[Optional[tuple[float, float]]] = [None] * (max_frame + 1)
        for frame, p in points[inst].items():
            pts[frame] = p
        cls = class_map.get(inst) if class_map else None
        out.append(TipTrajectory(instrument_id=inst, points=pts, fps=fps, class_id=cls))
    return out


# ---------------------------------------------------------------------------
# frame labels and skill scores


def save_labels(labels: Sequence[ActionClass], path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "action"])
        for frame, action in enumerate(labels):
            writer.writerow([frame, ActionClass(action).value])


def load_labels(path: PathLike) -> list[ActionClass]:
    """Read per-frame action labels; frames must cover [0, T) exactly."""
    rows: list[tuple[int, ActionClass]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["frame", "action"]:
            raise ParseError(path, 1, f"expected header ['frame', 'action'], got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append((int(row[0]), ActionClass(row[1])))
            except (ValueError, IndexError) as exc:
                raise ParseError(path, line_no, f"bad row {row!r}") from exc
    rows.sort(key=lambda r: r[0])
    frames = [f for f, _ in rows]
    if frames != list(range(len(frames))):
        raise ValueError(f"{path}: labels must cover frames 0..T-1 exactly once")
    return [a for _, a in rows]


def save_scores(scores: Iterable[SkillScore], path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["procedure_id", "action_type", "score"])
        for s in scores:
            writer.writerow([s.procedure_id, s.action_type.value, _fmt(s.score)])


def load_scores(path: PathLike) -> list[SkillScore]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["procedure_id", "action_type", "score"]:
            raise ParseError(path, 1, f"unexpected header {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                action = ActionClass(row[1])
                score = float(row[2])
            except (ValueError, IndexError) as exc:
                raise ParseError(path, line_no, f"bad row {row!r}") from exc
            if action not in (ActionClass.NEEDLE_DRIVING, ActionClass.KNOT_TYING):
                raise ParseError(path, line_no, f"scores not defined for action {action}")
            if not 1.0 <= score <= 5.0:
                raise ParseError(path, line_no, f"score {score} outside [1, 5]")
            out.append(SkillScore(procedure_id=row[0], action_type=action, score=score))
    return out


# ---------------------------------------------------------------------------
# tracks (raw tracker rows, refined tracks, ground truth)


def save_track_rows(rows: Iterable[TrackObservation], path: PathLike) -> None:
    """Raw tracker output, one observation per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            x, y, w, h = r.bbox
            rec = {
                "frame": r.frame, "object_id": r.object_id,
                "class": r.class_id.value,
                "x": float(x), "y": float(y), "w": float(w), "h": float(h),
                "det_index": r.det_index,
            }
            fh.write(_json_line(rec) + "\n")


def load_track_rows(path: PathLike) -> list[TrackObservation]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                det_index = rec.get("det_index")
                out.append(TrackObservation(
                    frame=int(rec["frame"]),
                    object_id=int(rec["object_id"]),
                    class_id=InstrumentClass(rec["class"]),
                    bbox=(float(rec["x"]), float(rec["y"]),
                          float(rec["w"]), float(rec["h"])),
                    det_index=None if det_index is None else int(det_index),
                ))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
    out.sort(key=lambda r: r.frame)
    return out


def save_refined_tracks(tracks: Sequence[RefinedTrack], path: PathLike) -> None:
    """Line-delimited `{frame, object_id, class, x, y, w, h, provenance}`."""
    rows = []
    for tr in tracks:
        for frame in tr.frames():
            x, y, w, h = tr.boxes[frame]
            rows.append({
                "frame": frame, "object_id": tr.object_id,
                "class": tr.class_id.value,
                "x": float(x), "y": float(y), "w": float(w), "h": float(h),
                "provenance": tr.provenance[frame].value,
            })
    rows.sort(key=lambda r: (r["frame"], r["object_id"]))
    with open(path, "w", encoding="utf-8") as fh:
        for rec in rows:
            fh.write(_json_line(rec) + "\n")


def load_refined_tracks(path: PathLike) -> list[RefinedTrack]:
    by_id: dict[int, RefinedTrack] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                oid = int(rec["object_id"])
                cls = InstrumentClass(rec["class"])
                frame = int(rec["frame"])
                bbox = (float(rec["x"]), float(rec["y"]),
                        float(rec["w"]), float(rec["h"]))
                prov = Provenance(rec["provenance"])
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            tr = by_id.setdefault(oid, RefinedTrack(object_id=oid, class_id=cls))
            if tr.class_id != cls:
                raise ParseError(path, line_no,
                                 f"object {oid} has conflicting classes "
                                 f"{tr.class_id.value} and {cls.value}")
            if frame in tr.boxes:
                raise ParseError(path, line_no, f"object {oid} repeats frame {frame}")
            tr.boxes[frame] = bbox
            tr.provenance[frame] = prov
    return [by_id[k] for k in sorted(by_id)]


def save_truth_instances(rows: Iterable[TruthInstance], path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            x, y, w, h = r.bbox
            rec = {
                "frame": r.frame, "object_id": r.object_id,
                "class": r.class_id.value,
                "x": float(x), "y": float(y), "w": float(w), "h": float(h),
            }
            fh.write(_json_line(rec) + "\n")


def load_truth_instances(path: PathLike) -> list[TruthInstance]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                out.append(TruthInstance(
                    frame=int(rec["frame"]),
                    object_id=int(rec["object_id"]),
                    class_id=InstrumentClass(rec["class"]),
                    bbox=(float(rec["x"]), float(rec["y"]),
                          float(rec["w"]), float(rec["h"])),
                ))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
    out.sort(key=lambda r: (r.frame, r.object_id))
    return out


# ---------------------------------------------------------------------------
# tip candidates and reference descriptors


def save_tip_candidates(candidates: dict[tuple[int, int], TipCandidateSet],
                        path: PathLike) -> None:
    """One record per (frame, object_id); candidates are crop-local and
    the crop box travels with them when known."""
    with open(path, "w", encoding="utf-8") as fh:
        for (frame, oid) in sorted(candidates):
            cset = candidates[(frame, oid)]
            cands = [
                {"x": float(x), "y": float(y), "descriptor": [float(v) for v in d]}
                for x, y, d in cset.candidates
            ]
            rec = {"frame": frame, "object_id": oid, "candidates": cands}
            if cset.bbox is not None:
                bx, by, bw, bh = cset.bbox
                rec.update(x=float(bx), y=float(by), w=float(bw), h=float(bh))
            fh.write(_json_line(rec) + "\n")


def load_tip_candidates(path: PathLike) -> dict[tuple[int, int], TipCandidateSet]:
    out: dict[tuple[int, int], TipCandidateSet] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                key = (int(rec["frame"]), int(rec["object_id"]))
                cands = [
                    (float(c["x"]), float(c["y"]),
                     np.asarray(c["descriptor"], dtype=np.float64))
                    for c in rec["candidates"]
                ]
                bbox = None
                if "x" in rec:
                    bbox = (float(rec["x"]), float(rec["y"]),
                            float(rec["w"]), float(rec["h"]))
                out[key] = TipCandidateSet(candidates=cands, bbox=bbox)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ParseError(path, line_no, str(exc)) from exc
    return out


def save_reference_descriptors(refs: dict[InstrumentClass, np.ndarray],
                               path: PathLike) -> None:
    obj = {cls.value: [float(v) for v in vec] for cls, vec in refs.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_reference_descriptors(path: PathLike) -> dict[InstrumentClass, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    out = {}
    for name, vec in obj.items():
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1 or not np.any(arr):
            raise ValueError(f"{path}: descriptor for {name!r} must be a nonzero vector")
        out[InstrumentClass(name)] = arr
    return out


# ---------------------------------------------------------------------------
# matrices, curves, boundaries, segments


def save_matrix(X: np.ndarray, feature_names: Sequence[str], path: PathLike,
                meta: Optional[dict] = None) -> None:
    """Delimited matrix with a header row; optional `<path>.meta.json` sidecar."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise ValueError(f"matrix shape {X.shape} does not match "
                         f"{len(feature_names)} feature names")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(feature_names))
        for row in X:
            writer.writerow([_fmt(v) for v in row])
    if meta is not None:
        with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1)
            fh.write("\n")


def load_matrix(path: PathLike) -> tuple[np.ndarray, list[str], Optional[dict]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(path, 1, "empty matrix file")
        rows = [[float(v) for v in row] for row in reader if row]
    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    meta = None
    meta_path = Path(str(path) + ".meta.json")
    if meta_path.exists():
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    return X, list(header), meta


def save_novelty(novelty: np.ndarray, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "N"])
        for frame, value in enumerate(novelty):
            writer.writerow([frame, _fmt(value)])


def load_novelty(path: PathLike) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["frame", "N"]:
            raise ParseError(path, 1, f"unexpected header {header}")
        values = [float(row[1]) for row in reader if row]
    return np.asarray(values, dtype=np.float64)


def save_boundaries(taus: Sequence[int], prominences: Sequence[float],
                    path: PathLike) -> None:
    if len(taus) != len(prominences):
        raise ValueError("taus and prominences differ in length")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "prominence"])
        for tau, prom in zip(taus, prominences):
            writer.writerow([int(tau), _fmt(prom)])


def load_boundaries(path: PathLike) -> tuple[list[int], list[float]]:
    taus, proms = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["tau", "prominence"]:
            raise ParseError(path, 1, f"unexpected header {header}")
        for row in reader:
            if not row:
                continue
            taus.append(int(row[0]))
            proms.append(float(row[1]))
    return taus, proms


SEGMENTS_HEADER = ["index", "start_frame", "end_frame", "cluster", "action",
                   "duration_s"]


def save_segments(rows: Sequence[dict], path: PathLike) -> None:
    """`index, start_frame, end_frame, cluster, action, duration_s` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SEGMENTS_HEADER)
        for r in rows:
            writer.writerow([r["index"], r["start_frame"], r["end_frame"],
                             r["cluster"], str(r["action"]), _fmt(r["duration_s"])])


def load_segments(path: PathLike) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SEGMENTS_HEADER:
            raise ParseError(path, 1, f"unexpected header {header}")
        for row in reader:
            if not row:
                continue
            out.append({
                "index": int(row[0]),
                "start_frame": int(row[1]),
                "end_frame": int(row[2]),
                "cluster": int(row[3]),
                "action": row[4],
                "duration_s": float(row[5]),
            })
    return out
