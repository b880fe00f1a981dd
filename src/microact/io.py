"""File ingestion and persistence for every pipeline stage.

All formats are line-oriented text (JSON lines or comma-delimited with a
header) so intermediates stay auditable and diffable.  Floats are written
with shortest round-trip repr, which makes save → load bit-exact.

``ARTIFACTS`` is the one description of a procedure directory's layout,
and each format is read and written here only.  A malformed record
raises ``ParseError`` naming the file and line.

Loaders are pure functions of file content and never mutate their inputs.
Writers replace a file only once its new content is complete
(:func:`atomic_write`), so a writer that fails or dies mid-stream leaves
the previous file, or none, and never a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

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
    TipCandidateTable,
    TipTrajectory,
    TrackObservation,
    TruthInstance,
)

PathLike = Union[str, Path]

APPEARANCE_NORM_TOL = 1e-6

_NO_BOX = (math.nan,) * 4  # a TipCandidateTable row for a set without one

# procedure-directory layout: key -> (file name, stage that writes it);
# features.csv also gets its save_matrix sidecar, features.csv.meta.json
ARTIFACTS: dict[str, tuple[str, str]] = {
    "meta": ("meta.json", "synth"),
    "detections": ("detections.jsonl", "synth"),
    "truth": ("truth.jsonl", "synth"),
    "tips_truth": ("tips_truth.csv", "synth"),
    "labels": ("labels.csv", "synth"),
    "boundaries_truth": ("boundaries_truth.csv", "synth"),
    "candidates": ("tip_candidates.jsonl", "synth"),
    "references": ("reference_descriptors.json", "synth"),
    "scores": ("scores.csv", "synth"),
    "track_rows": ("track_rows.jsonl", "track"),
    "refined": ("refined_tracks.jsonl", "track"),
    "tips": ("tips.csv", "tips"),
    "tips_classes": ("tips_classes.json", "tips"),
    "features": ("features.csv", "features"),
    "presence": ("presence.csv", "features"),
    "novelty": ("novelty.csv", "segment"),
    "boundaries": ("boundaries.csv", "segment"),
    "segments": ("segments.csv", "cluster"),
    "pred_labels": ("predicted_labels.csv", "cluster"),
    "eval": ("eval.json", "eval"),
    "skill_pred": ("skill_predictions.json", "predict-skill"),
    "report_txt": ("report.txt", "report"),
    "report_json": ("report.json", "report"),
}


class ParseError(ValueError):
    """Malformed record; carries the 1-based line number."""

    def __init__(self, path, line_no: int, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it crosses a
        # process boundary (a worker pool, run_all's parse child) intact
        return type(self), (self.path, self.line_no, self.reason)


# what a record -> value mapping raises on a missing, mistyped or
# out-of-range field
_ROW_ERRORS = (KeyError, ValueError, TypeError, IndexError)


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(value))


_json_line = json.JSONEncoder(sort_keys=True, separators=(", ", ": ")).encode


def _read_jsonl(path: PathLike, parse: Callable[[dict], object]) -> list:
    """``parse(record)`` for each nonblank line of a JSON-lines file."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                out.append(parse(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON ({exc.msg})") from exc
            except _ROW_ERRORS as exc:
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ParseError(path, line_no, reason) from exc
    return out


@contextlib.contextmanager
def atomic_write(path: PathLike, newline: Optional[str] = None):
    """A text file that replaces ``path`` when the block ends.

    The text goes to a temp file in ``path``'s directory, which
    ``os.replace`` moves over ``path``; if the block raises, the temp file
    is removed and ``path`` stays as it was.  This guards against a
    writer that fails or a process that dies, not against power loss.
    """
    tmp = temp_path(path, os.getpid())
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def temp_path(path: PathLike, pid: int) -> Path:
    """Where :func:`atomic_write` in process ``pid`` writes ``path`` first."""
    path = Path(path)
    return path.with_name(f"{path.name}.{pid}.tmp")


def _write_jsonl(path: PathLike, records: Iterable[dict]) -> None:
    with atomic_write(path) as fh:
        fh.writelines(_json_line(rec) + "\n" for rec in records)


def _read_csv(path: PathLike, header: Optional[list[str]],
              parse: Callable[[list[str]], object]) -> tuple[list[str], list]:
    """(header, ``parse(row)`` for each nonblank row) of a delimited file.

    ``header`` is the required first line, or None to accept any; every
    row must have as many fields as the header.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or (header is not None and got != header):
            raise ParseError(path, 1, f"expected header {header or 'line'}, got {got}")
        out, width = [], len(got)
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != width:
                    raise ValueError(f"{len(row)} fields under a {width}-column header")
                out.append(parse(row))
            except _ROW_ERRORS as exc:
                raise ParseError(path, reader.line_num, f"bad row {row!r}: {exc}") from exc
    return got, out


def _write_csv(path: PathLike, header: Sequence[str], rows: Iterable[list]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_json(path: PathLike):
    """One JSON document, as written by :func:`_write_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, f"invalid JSON ({exc.msg})") from exc


def _write_json(path: PathLike, obj) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_meta(path: PathLike) -> dict:
    """meta.json, checked for the keys every stage may read."""
    meta = _read_json(path)
    for key in ("fps", "n_frames"):
        if key not in meta:
            raise ValueError(f"{path}: missing {key!r}")
    return meta


def _box_fields(bbox: BBox) -> dict:
    x, y, w, h = bbox
    return {"x": float(x), "y": float(y), "w": float(w), "h": float(h)}


def _bbox_of(rec: dict) -> BBox:
    return (float(rec["x"]), float(rec["y"]), float(rec["w"]), float(rec["h"]))


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
    prev_frame = None

    def parse(rec: dict) -> Detection:
        nonlocal prev_frame
        det = _detection_from_record(rec)
        if strict_order and prev_frame is not None and det.frame < prev_frame:
            raise ValueError(f"frame {det.frame} after frame {prev_frame} (non-monotone)")
        prev_frame = det.frame
        return det

    out = _read_jsonl(path, parse)
    out.sort(key=lambda d: d.frame)  # stable: preserves in-frame order
    return out


def _detection_from_record(rec: dict) -> Detection:
    frame = int(rec["frame"])
    if frame < 0:
        raise ValueError(f"negative frame index {frame}")
    cls = InstrumentClass(rec["class"])
    bbox = _bbox_of(rec)
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
    def record(det: Detection) -> dict:
        rec = {"frame": det.frame, "class": det.class_id.value,
               **_box_fields(det.bbox), "conf": float(det.confidence)}
        if det.appearance is not None:
            rec["appearance"] = [float(v) for v in det.appearance]
        return rec

    _write_jsonl(path, map(record, detections))


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
    T = max((len(tr) for tr in trajectories), default=0)

    def rows():
        for frame in range(T):
            for tr in trajectories:
                p = tr.points[frame] if frame < len(tr) else None
                if p is None:
                    yield [frame, tr.instrument_id, 0, "0.0", "0.0"]
                else:
                    yield [frame, tr.instrument_id, 1, _fmt(p[0]), _fmt(p[1])]

    _write_csv(path, TIPS_HEADER, rows())


def load_tips(path: PathLike, *, fps: float,
              class_map: Optional[dict[int, InstrumentClass]] = None) -> list[TipTrajectory]:
    """Read a tips file back into trajectories.

    fps is pipeline metadata, not a column, so it must be supplied here.
    """
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    points: dict[int, dict[int, Optional[tuple[float, float]]]] = {}

    def add(row: list[str]) -> int:
        frame, inst, present = int(row[0]), int(row[1]), int(row[2])
        x, y = float(row[3]), float(row[4])
        if present and not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError("non-finite tip position")
        points.setdefault(inst, {})[frame] = (x, y) if present else None
        return frame

    _, frames = _read_csv(path, TIPS_HEADER, add)
    n_frames = max(frames, default=-1) + 1
    out = []
    for inst in sorted(points):
        pts: list[Optional[tuple[float, float]]] = [None] * n_frames
        for frame, p in points[inst].items():
            pts[frame] = p
        cls = class_map.get(inst) if class_map else None
        out.append(TipTrajectory(instrument_id=inst, points=pts, fps=fps, class_id=cls))
    return out


# ---------------------------------------------------------------------------
# frame labels and skill scores


def save_labels(labels: Sequence[ActionClass], path: PathLike) -> None:
    _write_csv(path, ["frame", "action"],
               ([frame, ActionClass(action).value] for frame, action in enumerate(labels)))


def load_labels(path: PathLike) -> list[ActionClass]:
    """Read per-frame action labels; frames must cover [0, T) exactly."""
    _, rows = _read_csv(path, ["frame", "action"],
                        lambda row: (int(row[0]), ActionClass(row[1])))
    rows.sort(key=lambda r: r[0])
    frames = [f for f, _ in rows]
    if frames != list(range(len(frames))):
        raise ValueError(f"{path}: labels must cover frames 0..T-1 exactly once")
    return [a for _, a in rows]


def save_scores(scores: Iterable[SkillScore], path: PathLike) -> None:
    _write_csv(path, ["procedure_id", "action_type", "score"],
               ([s.procedure_id, s.action_type.value, _fmt(s.score)] for s in scores))


def load_scores(path: PathLike) -> list[SkillScore]:
    def parse(row: list[str]) -> SkillScore:
        action, score = ActionClass(row[1]), float(row[2])
        if action not in (ActionClass.NEEDLE_DRIVING, ActionClass.KNOT_TYING):
            raise ValueError(f"scores not defined for action {action}")
        if not 1.0 <= score <= 5.0:
            raise ValueError(f"score {score} outside [1, 5]")
        return SkillScore(procedure_id=row[0], action_type=action, score=score)

    return _read_csv(path, ["procedure_id", "action_type", "score"], parse)[1]


# ---------------------------------------------------------------------------
# tracks (raw tracker rows, refined tracks, ground truth)


def save_track_rows(rows: Iterable[TrackObservation], path: PathLike) -> None:
    """Raw tracker output, one observation per line."""
    _write_jsonl(path, ({"frame": r.frame, "object_id": r.object_id,
                         "class": r.class_id.value, **_box_fields(r.bbox),
                         "det_index": r.det_index} for r in rows))


def load_track_rows(path: PathLike) -> list[TrackObservation]:
    def parse(rec: dict) -> TrackObservation:
        det_index = rec.get("det_index")
        return TrackObservation(
            frame=int(rec["frame"]), object_id=int(rec["object_id"]),
            class_id=InstrumentClass(rec["class"]), bbox=_bbox_of(rec),
            det_index=None if det_index is None else int(det_index))

    out = _read_jsonl(path, parse)
    out.sort(key=lambda r: r.frame)
    return out


def save_refined_tracks(tracks: Sequence[RefinedTrack], path: PathLike) -> None:
    """Line-delimited `{frame, object_id, class, x, y, w, h, provenance}`."""
    rows = [{"frame": frame, "object_id": tr.object_id, "class": tr.class_id.value,
             **_box_fields(tr.boxes[frame]), "provenance": tr.provenance[frame].value}
            for tr in tracks for frame in tr.frames()]
    rows.sort(key=lambda r: (r["frame"], r["object_id"]))
    _write_jsonl(path, rows)


def load_refined_tracks(path: PathLike) -> list[RefinedTrack]:
    by_id: dict[int, RefinedTrack] = {}

    def add(rec: dict) -> None:
        oid = int(rec["object_id"])
        cls = InstrumentClass(rec["class"])
        frame = int(rec["frame"])
        bbox = _bbox_of(rec)
        prov = Provenance(rec["provenance"])
        tr = by_id.setdefault(oid, RefinedTrack(object_id=oid, class_id=cls))
        if tr.class_id != cls:
            raise ValueError(f"object {oid} has conflicting classes "
                             f"{tr.class_id.value} and {cls.value}")
        if frame in tr.boxes:
            raise ValueError(f"object {oid} repeats frame {frame}")
        tr.boxes[frame] = bbox
        tr.provenance[frame] = prov

    _read_jsonl(path, add)
    return [by_id[k] for k in sorted(by_id)]


def save_truth_instances(rows: Iterable[TruthInstance], path: PathLike) -> None:
    _write_jsonl(path, ({"frame": r.frame, "object_id": r.object_id,
                         "class": r.class_id.value, **_box_fields(r.bbox)}
                        for r in rows))


def load_truth_instances(path: PathLike) -> list[TruthInstance]:
    out = _read_jsonl(path, lambda rec: TruthInstance(
        frame=int(rec["frame"]), object_id=int(rec["object_id"]),
        class_id=InstrumentClass(rec["class"]), bbox=_bbox_of(rec)))
    out.sort(key=lambda r: (r.frame, r.object_id))
    return out


# ---------------------------------------------------------------------------
# tip candidates and reference descriptors


def save_tip_candidates(candidates: Mapping[tuple[int, int], TipCandidateSet],
                        path: PathLike) -> None:
    """One record per (frame, object_id); candidates are crop-local and
    the crop box travels with them when known."""
    def record(key: tuple[int, int]) -> dict:
        cset = candidates[key]
        rec = {"frame": key[0], "object_id": key[1], "candidates": [
            {"x": float(x), "y": float(y), "descriptor": [float(v) for v in d]}
            for x, y, d in cset.candidates]}
        if cset.bbox is not None:
            rec.update(_box_fields(cset.bbox))
        return rec

    _write_jsonl(path, map(record, sorted(candidates)))


def load_tip_candidates(path: PathLike) -> TipCandidateTable:
    """Read every candidate set into one columnar table, in file order.

    All descriptors share the first one's length, and a (frame,
    object_id) pair appears once; a record without ``x`` has no crop box.
    """
    keys, boxes, offsets, points, descriptors = [], [], [0], [], []
    seen: set[tuple[int, int]] = set()

    def add(rec: dict) -> None:
        key = (int(rec["frame"]), int(rec["object_id"]))
        if key in seen:
            raise ValueError(f"repeats frame {key[0]}, object {key[1]}")
        cands = rec["candidates"]
        if cands:
            desc = np.array([c["descriptor"] for c in cands], dtype=np.float64)
            width = descriptors[0].shape[1] if descriptors else desc.shape[-1]
            if desc.ndim != 2 or desc.shape[1] != width or width == 0:
                raise ValueError(f"descriptors must be nonempty flat vectors "
                                 f"of one length, got shape {desc.shape[1:]}")
            descriptors.append(desc)
        points.extend([float(c["x"]), float(c["y"])] for c in cands)
        boxes.append(_bbox_of(rec) if "x" in rec else _NO_BOX)
        keys.append(key)
        seen.add(key)
        offsets.append(len(points))

    _read_jsonl(path, add)
    return TipCandidateTable(
        set_keys=np.array(keys, dtype=np.int64).reshape(-1, 2),
        boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4),
        offsets=np.array(offsets, dtype=np.int64),
        points=np.array(points, dtype=np.float64).reshape(-1, 2),
        descriptors=(np.concatenate(descriptors) if descriptors
                     else np.empty((0, 0))))


def save_reference_descriptors(refs: dict[InstrumentClass, np.ndarray],
                               path: PathLike) -> None:
    _write_json(path, {cls.value: [float(v) for v in vec] for cls, vec in refs.items()})


def load_reference_descriptors(path: PathLike) -> dict[InstrumentClass, np.ndarray]:
    out = {}
    for name, vec in _read_json(path).items():
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1 or not np.any(arr):
            raise ValueError(f"{path}: descriptor for {name!r} must be a nonzero vector")
        out[InstrumentClass(name)] = arr
    return out


# ---------------------------------------------------------------------------
# matrices, curves, boundaries, segments


def sidecar_path(path: PathLike) -> Path:
    """Where :func:`save_matrix` puts the sidecar of the matrix at ``path``."""
    return Path(str(path) + ".meta.json")


def save_matrix(X: np.ndarray, feature_names: Sequence[str], path: PathLike,
                meta: Optional[dict] = None) -> None:
    """Delimited matrix with a header row; optional `<path>.meta.json` sidecar."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise ValueError(f"matrix shape {X.shape} does not match "
                         f"{len(feature_names)} feature names")
    # repr of each Python float from X.tolist() is _fmt's string, with no
    # float64 scalar made per value
    _write_csv(path, list(feature_names),
               (map(repr, row) for row in X.tolist()))
    if meta is not None:
        _write_json(sidecar_path(path), meta)


def load_matrix(path: PathLike) -> tuple[np.ndarray, list[str], Optional[dict]]:
    header, rows = _read_csv(path, None, lambda row: list(map(float, row)))
    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    meta_path = sidecar_path(path)
    meta = _read_json(meta_path) if meta_path.exists() else None
    return X, header, meta


def save_novelty(novelty: np.ndarray, path: PathLike) -> None:
    values = np.asarray(novelty, dtype=np.float64).tolist()
    _write_csv(path, ["frame", "N"], enumerate(map(repr, values)))


def load_novelty(path: PathLike) -> np.ndarray:
    _, values = _read_csv(path, ["frame", "N"], lambda row: float(row[1]))
    return np.asarray(values, dtype=np.float64)


def save_boundaries(taus: Sequence[int], prominences: Sequence[float],
                    path: PathLike) -> None:
    if len(taus) != len(prominences):
        raise ValueError("taus and prominences differ in length")
    _write_csv(path, ["tau", "prominence"],
               ([int(tau), _fmt(prom)] for tau, prom in zip(taus, prominences)))


def load_boundaries(path: PathLike) -> tuple[list[int], list[float]]:
    _, rows = _read_csv(path, ["tau", "prominence"],
                        lambda row: (int(row[0]), float(row[1])))
    return [tau for tau, _ in rows], [prom for _, prom in rows]


SEGMENTS_HEADER = ["index", "start_frame", "end_frame", "cluster", "action",
                   "duration_s"]


def save_segments(rows: Sequence[dict], path: PathLike) -> None:
    """`index, start_frame, end_frame, cluster, action, duration_s` rows."""
    _write_csv(path, SEGMENTS_HEADER, ([r["index"], r["start_frame"], r["end_frame"],
                                        r["cluster"], str(r["action"]), _fmt(r["duration_s"])]
                                       for r in rows))


def load_segments(path: PathLike) -> list[dict]:
    return _read_csv(path, SEGMENTS_HEADER, lambda row: {
        "index": int(row[0]), "start_frame": int(row[1]), "end_frame": int(row[2]),
        "cluster": int(row[3]), "action": row[4], "duration_s": float(row[5]),
    })[1]
