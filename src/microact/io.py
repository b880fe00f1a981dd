"""File ingestion and persistence for every pipeline stage.

All formats are line-oriented text (JSON lines or comma-delimited with a
header) so intermediates stay auditable and diffable.  Floats are written
with shortest round-trip repr, which makes save → load bit-exact.

``ARTIFACTS`` is the one description of a procedure directory's layout:
the file of each artifact, the stage that writes it, and the loader and
saver of its value, and each format is read and written here only.  A
saver takes what its loader returns, then the path (:func:`save_artifact`
applies that rule).  A malformed record raises ``ParseError`` naming the
file and line; a JSON document without a key that a stage reads raises
``ValueError`` naming the file and the key.

Loaders are pure functions of their own file's content: no loader takes
a value from another file, and none mutates its input.  Writers replace
a file only once its new content is complete (:func:`atomic_write`), so
a writer that fails or dies mid-stream leaves the previous file, or
none, and never a truncated one.

So :func:`load_matrix` keeps one process-wide memo, keyed by the SHA-256
of the bytes it read: the same bytes, under any path, are parsed once per
process, and a rewritten file is parsed again.  Each call returns its own
copy of the array and header.  A failed parse is never kept, so every
call raises the same ``ParseError``.  The memo holds at most
``_MATRIX_MEMO_BYTES`` of arrays and headers and drops the least recently
used matrix first.  No other loader has one: their values are lists and
dicts that callers may change.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import heapq
import itertools
import json
import math
import os
import sys
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .records import (
    RATED_ACTIONS,
    ActionClass,
    BBox,
    Detection,
    InstrumentClass,
    Provenance,
    RefinedTrack,
    SkillScore,
    TipCandidateTable,
    TipTrajectory,
    TrackObservation,
    TruthInstance,
)
from .validation import descriptor_norms

PathLike = Union[str, Path]

APPEARANCE_NORM_TOL = 1e-6

# procedure-directory layout: key -> (file name, stage that writes it,
# name of the function here that reads it, or None, and of the one that
# writes it).  Names, not the functions: each is looked up when it is
# called, so a wrapper set on this module is the function that runs.
ARTIFACTS: dict[str, tuple[str, str, Optional[str], str]] = {
    "meta": ("meta.json", "synth", "load_meta", "save_json"),
    "detections": ("detections.jsonl", "synth", "load_detections",
                   "save_detections"),
    "truth": ("truth.jsonl", "synth", "load_truth_instances",
              "save_truth_instances"),
    "tips_truth": ("tips_truth.csv", "synth", "load_tips", "save_tips"),
    "labels": ("labels.csv", "synth", "load_labels", "save_labels"),
    "boundaries_truth": ("boundaries_truth.csv", "synth", "load_boundaries",
                         "save_boundaries"),
    "candidates": ("tip_candidates.jsonl", "synth", "load_tip_candidates",
                   "save_tip_candidates"),
    "references": ("reference_descriptors.json", "synth",
                   "load_reference_descriptors", "save_reference_descriptors"),
    "scores": ("scores.csv", "synth", "load_scores", "save_scores"),
    "track_rows": ("track_rows.jsonl", "track", "load_track_rows",
                   "save_track_rows"),
    "refined": ("refined_tracks.jsonl", "track", "load_refined_tracks",
                "save_refined_tracks"),
    "tips": ("tips.csv", "tips", "load_tips", "save_tips"),
    "tips_classes": ("tips_classes.json", "tips", "load_tips_classes",
                     "save_tips_classes"),
    "features": ("features.csv", "features", "load_matrix", "save_matrix"),
    "features_meta": ("features.csv.meta.json", "features",
                      "load_features_meta", "save_json"),
    "presence": ("presence.csv", "features", "load_matrix", "save_matrix"),
    "novelty": ("novelty.csv", "segment", "load_novelty", "save_novelty"),
    "boundaries": ("boundaries.csv", "segment", "load_boundaries",
                   "save_boundaries"),
    "segments": ("segments.csv", "cluster", "load_segments", "save_segments"),
    "pred_labels": ("predicted_labels.csv", "cluster", "load_labels",
                    "save_labels"),
    "eval": ("eval.json", "eval", "load_eval", "save_json"),
    "skill_pred": ("skill_predictions.json", "predict-skill",
                   "load_skill_predictions", "save_json"),
    "report_txt": ("report.txt", "report", None, "save_text"),
    "report_json": ("report.json", "report", None, "save_json"),
}


def save_artifact(key: str, value, path: PathLike) -> None:
    """Write artifact ``key``'s ``value``, as its loader returns it, to
    ``path``: ``saver(*value, path)`` for a tuple, else ``saver(value, path)``."""
    saver = globals()[ARTIFACTS[key][3]]
    saver(*(value if isinstance(value, tuple) else (value,)), path)


class ParseError(ValueError):
    """Malformed record; carries the 1-based line number and, once a
    pipeline stage has read the file, the stage that writes it."""

    def __init__(self, path, line_no: int, reason: str,
                 stage: Optional[str] = None):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        self.stage = stage
        written = f" (written by the '{stage}' stage)" if stage else ""
        super().__init__(f"{path}:{line_no}: {reason}{written}")

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it crosses a
        # process boundary (a worker pool, run_all's parse child) intact
        return type(self), (self.path, self.line_no, self.reason, self.stage)


# what a record -> value mapping raises on a missing, mistyped or
# out-of-range field
_ROW_ERRORS = (KeyError, ValueError, TypeError, IndexError)


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(value))


def _not_utf8(path: PathLike, exc: UnicodeDecodeError,
              raw: Optional[bytes] = None) -> ParseError:
    """The ParseError for text file ``path`` (whose bytes are ``raw``, when
    read already) that failed to decode with ``exc``: at the line of its
    first byte that is not UTF-8."""
    if raw is None:
        with open(path, "rb") as fh:
            raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as whole:  # offsets into the file, not a chunk
        exc = whole
    return ParseError(path, raw.count(b"\n", 0, exc.start) + 1,
                      f"not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                      f"({exc.reason})")


def _read_jsonl(path: PathLike, parse: Callable[[dict], object]) -> list:
    """``parse(record)`` for each nonblank line of a JSON-lines file."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
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
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
    return out


@contextlib.contextmanager
def atomic_write(path: PathLike, newline: Optional[str] = None):
    """A text file that replaces ``path`` when the block ends.

    The text goes to a temp file in ``path``'s directory, which
    ``os.replace`` moves over ``path``; if the block raises, the temp file
    is removed and ``path`` stays as it was.  This guards against a
    writer that fails or a process that dies, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_jsonl(path: PathLike, records: Iterable[dict]) -> None:
    with atomic_write(path) as fh:
        fh.writelines(_json_flat(rec) + "\n" for rec in records)


def _text(raw: bytes) -> TextIOWrapper:
    """``raw`` as the text stream that opening its file would give."""
    return TextIOWrapper(BytesIO(raw), encoding="utf-8", newline="")


def _read_csv(path: PathLike, header: Optional[list[str]],
              parse: Callable[[list[str]], object],
              raw: Optional[bytes] = None) -> tuple[list[str], list]:
    """(header, ``parse(row)`` for each nonblank row) of a delimited file.

    ``header`` is the required first line, or None to accept any; every
    row must have as many fields as the header.  What the csv module
    itself rejects, such as a field over ``csv.field_size_limit()``, is a
    ParseError at the line it stopped on.  ``raw``, when given, is the
    bytes already read from ``path``, and the file is not opened again.
    """
    with (open(path, "r", encoding="utf-8", newline="") if raw is None
          else _text(raw)) as fh:
        reader = csv.reader(fh)
        try:
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
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, f"unreadable row: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, raw) from exc
    return got, out


def _write_csv(path: PathLike, header: Sequence[str], rows: Iterable[list]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_lines(path: PathLike, header: Sequence[str],
                 lines: Iterable[str]) -> None:
    """:func:`_write_csv`'s file from rows already formatted as csv.writer
    would, each ending "\\r\\n"."""
    with atomic_write(path, newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(lines)


def _read_json(path: PathLike):
    """One JSON document, as written by :func:`save_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, f"invalid JSON ({exc.msg})") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def save_json(doc, path: PathLike) -> None:
    """``doc`` as the stdlib encoder writes it with sorted keys and a
    one-space indent, then a newline: every JSON document the pipeline
    writes."""
    with atomic_write(path) as fh:
        fh.writelines(_json_chunks(doc, 0, set()))
        fh.write("\n")


def save_text(text: str, path: PathLike) -> None:
    """``text`` as the whole file."""
    with atomic_write(path) as fh:
        fh.write(text)


# json.dump always runs the pure-Python encoder, and json.dumps with an
# indent does too; this one-line encoder is the C one.  Both write a
# scalar, and the items of a list, the same way.
_json_flat = json.JSONEncoder(sort_keys=True).encode
_JSON_SCALARS = (str, int, float, type(None))  # bool is an int


@dataclass(frozen=True)
class EncodedList:
    """A nonempty JSON list already encoded on one line as the C encoder
    writes it, ``"[0.5, 1.0]"``, where each ``", "`` separates two items.
    :func:`save_json` lays it out as it would the list itself."""

    text: str


def _json_chunks(obj, level: int, active: set) -> Iterable[str]:
    """The text of ``obj``, nested ``level`` deep in an indent-1 document,
    in pieces: one per item of a dict or list, or the whole scalar.
    ``active`` holds the ids of the containers ``obj`` is inside, as the
    stdlib encoder's markers do, to refuse a cycle the way it does."""
    indent = "\n" + " " * (level + 1)
    if isinstance(obj, EncodedList):
        yield "[" + indent + obj.text[1:-1].replace(", ", "," + indent)
        yield indent[:-1] + "]"
        return
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        yield _json_flat(obj)  # raises TypeError on what JSON cannot hold
        return
    if not obj:
        yield "{}" if is_dict else "[]"
        return
    if id(obj) in active:
        raise ValueError("Circular reference detected")
    if not is_dict and all(issubclass(t, _JSON_SCALARS)
                           for t in set(map(type, obj))):
        flat = _json_flat(obj)
        # the C encoder puts one ", " between items, and a string holding
        # ", " adds more; split only where each is a separator
        if flat.count(", ") == len(obj) - 1:
            yield from _json_chunks(EncodedList(flat), level, active)
            return
    active.add(id(obj))
    sep = ("{" if is_dict else "[") + indent
    for item in (sorted(obj.items()) if is_dict else obj):
        if is_dict:
            key, item = item
            yield sep + _json_flat(_json_key(key)) + ": "
        else:
            yield sep
        yield from _json_chunks(item, level + 1, active)
        sep = "," + indent
    active.discard(id(obj))
    yield indent[:-1] + ("}" if is_dict else "]")


def _json_key(key):
    """A dict key as the stdlib encoder turns it into a JSON string."""
    if isinstance(key, str):
        return key
    if isinstance(key, float) or key is True or key is False or key is None:
        return _json_flat(key)
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _checked(doc, path: PathLike, keys: Sequence[str], within: str = ""):
    """``doc`` once it is an object with every key; ``within`` prefixes a
    nested section in the message."""
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"{path}: missing {within + key!r}")
    return doc


def load_meta(path: PathLike) -> dict:
    """meta.json, checked for the keys every stage may read: ``fps`` a
    positive finite number and ``n_frames`` a non-negative integer."""
    meta = _checked(_read_json(path), path, ("fps", "n_frames"))
    fps, n_frames = meta["fps"], meta["n_frames"]
    # JSON gives exactly these types; a bool is not a number here
    if not (type(fps) in (int, float) and 0 < fps < math.inf):
        raise ParseError(path, _line_of(path, "fps"),
                         f"fps must be a positive finite number, got {fps!r}")
    if not (type(n_frames) is int and n_frames >= 0):
        raise ParseError(path, _line_of(path, "n_frames"),
                         f"n_frames must be a non-negative integer, "
                         f"got {n_frames!r}")
    return meta


def _box_fields(bbox: BBox) -> dict:
    x, y, w, h = bbox
    return {"x": float(x), "y": float(y), "w": float(w), "h": float(h)}


def _bbox_of(rec: dict) -> BBox:
    """The record's box: finite, with positive width and height."""
    return _valid_bbox(
        (float(rec["x"]), float(rec["y"]), float(rec["w"]), float(rec["h"])))


def _valid_bbox(bbox: BBox) -> BBox:
    """``bbox``, a tuple of floats, if it is finite with positive width and
    height; else ValueError."""
    if not all(map(math.isfinite, bbox)):
        raise ValueError(f"non-finite bbox {bbox}")
    if bbox[2] <= 0 or bbox[3] <= 0:
        raise ValueError(f"bbox must have positive width and height, got {bbox}")
    return bbox


# ---------------------------------------------------------------------------
# detections


def load_detections(path: PathLike) -> list[Detection]:
    """Read a line-delimited detection file.

    Each line is a JSON object ``{frame, class, x, y, w, h, conf,
    appearance?}``.  The returned stream is sorted by frame index with a
    stable sort, so duplicate (frame, box) records keep their file order.

    Raises
    ------
    ParseError
        On malformed JSON, unknown class names, bound violations, or a
        non-unit appearance vector; the message carries the line number.
    """
    out = _read_jsonl(path, _detection_from_record)
    out.sort(key=lambda d: d.frame)  # stable: preserves in-frame order
    return out


def _detection_from_record(rec: dict) -> Detection:
    frame = int(rec["frame"])
    if frame < 0:
        raise ValueError(f"negative frame index {frame}")
    cls = InstrumentClass(rec["class"])
    bbox = _bbox_of(rec)
    conf = float(rec["conf"])
    if not 0.0 <= conf <= 1.0:
        raise ValueError(f"confidence {conf} outside [0, 1]")
    appearance = None
    if rec.get("appearance") is not None:
        appearance = np.asarray(rec["appearance"], dtype=np.float64)
        if appearance.ndim != 1 or appearance.size == 0:
            raise ValueError("appearance must be a nonempty flat vector")
        norm = math.sqrt(appearance @ appearance)
        if not abs(norm - 1.0) <= APPEARANCE_NORM_TOL:  # NaN fails too
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


# ---------------------------------------------------------------------------
# tip trajectories

TIPS_HEADER = ["frame", "instrument_id", "present", "x", "y"]


def save_tips(trajectories: Sequence[TipTrajectory], path: PathLike) -> None:
    """Write trajectories as `frame, instrument_id, present, x, y` rows."""
    T = max((len(tr) for tr in trajectories), default=0)

    def lines():
        for frame in range(T):
            for tr in trajectories:
                p = tr.points[frame] if frame < len(tr) else None
                yield (f"{frame},{tr.instrument_id},0,0.0,0.0\r\n" if p is None
                       else f"{frame},{tr.instrument_id},1,"
                            f"{float(p[0])!r},{float(p[1])!r}\r\n")

    _write_lines(path, TIPS_HEADER, lines())


def load_tips(path: PathLike) -> list[TipTrajectory]:
    """Read a tips file back into trajectories, by instrument id; each
    covers frames 0 to the file's last frame."""
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
        out.append(TipTrajectory(instrument_id=inst, points=pts))
    return out


def save_tips_classes(classes: Mapping[int, InstrumentClass],
                      path: PathLike) -> None:
    """tips_classes.json: the instrument class of each tips.csv slot id."""
    save_json({str(k): c.value for k, c in classes.items()}, path)


def load_tips_classes(path: PathLike) -> dict[int, InstrumentClass]:
    """tips_classes.json back as {slot id: class}, in the file's order."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(path, 1, "expected an object of slot id -> class")
    out = {}
    for key, name in doc.items():
        try:
            out[int(key)] = InstrumentClass(name)
        except (ValueError, TypeError) as exc:
            raise ParseError(path, _line_of(path, key),
                             f"slot {key!r}: {exc}") from exc
    return out


def _line_of(path: PathLike, key: str) -> int:
    """The first line of JSON file ``path`` that holds ``key`` as a
    string, or 1."""
    needle = json.dumps(key)
    with open(path, "r", encoding="utf-8") as fh:
        return next((no for no, line in enumerate(fh, start=1)
                     if needle in line), 1)


# ---------------------------------------------------------------------------
# frame labels and skill scores


LABELS_HEADER = ["frame", "action"]

# a member hashes and compares as its value, so each finds the other
_ACTIONS = {a.value: a for a in ActionClass}
_VALUES = {a: a.value for a in ActionClass}


def _action(name: str) -> ActionClass:
    """``ActionClass(name)``, raising its ValueError, by one dict lookup."""
    action = _ACTIONS.get(name)
    return ActionClass(name) if action is None else action


def save_labels(labels: Sequence[ActionClass], path: PathLike) -> None:
    """`frame, action` rows, one per frame; an action may be given as its
    value."""
    names = list(map(_VALUES.get, labels))
    if None in names:  # ActionClass raises its ValueError on the first
        names = [ActionClass(action).value for action in labels]
    _write_lines(path, LABELS_HEADER,
                 [f"{frame},{name}\r\n" for frame, name in enumerate(names)])


def _frame_values(raw: bytes, header: Sequence[str]) -> Optional[list[str]]:
    """The second field of each row of a two-column file whose bytes are
    ``header``'s line, then ``f"{frame},{value}\\r\\n"`` for frames 0..T-1
    in order, exactly as :func:`_write_lines` writes them; None for any
    other bytes.  Such a file holds no quote, no other line break, no
    blank line and no field over the csv module's limit, so the csv module
    splits it the same way."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    head = ",".join(header) + "\r\n"
    if not text.startswith(head):
        return None
    body = text[len(head):]
    fields = body.replace("\r\n", ",")
    if '"' in fields or "\r" in fields or "\n" in fields:
        return None
    values = fields.split(",")[1::2]
    if (body != "".join([f"{i},{v}\r\n" for i, v in enumerate(values)])
            or max(map(len, values), default=0) > csv.field_size_limit()):
        return None
    return values


def load_labels(path: PathLike) -> list[ActionClass]:
    """Read per-frame action labels; frames must cover [0, T) exactly.

    A file as :func:`save_labels` writes it is split at C speed.  Any
    other, and one naming an unknown action, is read again by the csv
    module, which gives the same labels or the ``file:line`` ParseError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    names = _frame_values(raw, LABELS_HEADER)
    if names is not None:
        labels = list(map(_ACTIONS.get, names))
        if None not in labels:
            return labels
    _, rows = _read_csv(path, LABELS_HEADER,
                        lambda row: (int(row[0]), _action(row[1])), raw)
    rows.sort(key=lambda r: r[0])
    frames = [f for f, _ in rows]
    if frames != list(range(len(frames))):
        raise ValueError(f"{path}: labels must cover frames 0..T-1 exactly once")
    return [a for _, a in rows]


SCORES_HEADER = ["procedure_id", "action_type", "score"]


def save_scores(scores: Iterable[SkillScore], path: PathLike) -> None:
    _write_csv(path, SCORES_HEADER,
               ([s.procedure_id, s.action_type.value, _fmt(s.score)] for s in scores))


def load_scores(path: PathLike) -> list[SkillScore]:
    def parse(row: list[str]) -> SkillScore:
        action, score = ActionClass(row[1]), float(row[2])
        if action not in RATED_ACTIONS:
            raise ValueError(f"scores not defined for action {action}")
        if not 1.0 <= score <= 5.0:
            raise ValueError(f"score {score} outside [1, 5]")
        return SkillScore(procedure_id=row[0], action_type=action, score=score)

    return _read_csv(path, SCORES_HEADER, parse)[1]


# ---------------------------------------------------------------------------
# tracks (raw tracker rows, refined tracks, ground truth)


def save_track_rows(rows: Iterable[TrackObservation], path: PathLike) -> None:
    """Raw tracker output, one observation per line.  A box that
    :func:`load_track_rows` would refuse is a ValueError, and the file
    stays as it was."""
    with atomic_write(path) as fh:
        for r in rows:
            x, y, w, h = _valid_bbox(tuple(map(float, r.bbox)))
            cls, d = _json_flat(r.class_id.value), r.det_index
            fh.write(f'{{"class": {cls}, "det_index": '
                     f'{"null" if d is None else d}, "frame": {r.frame}, '
                     f'"h": {h!r}, "object_id": {r.object_id}, '
                     f'"w": {w!r}, "x": {x!r}, "y": {y!r}}}\n')


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
    """Line-delimited `{frame, object_id, class, x, y, w, h, provenance}`,
    ordered by frame, then object id.  A box that
    :func:`load_refined_tracks` would refuse is a ValueError, raised
    before the file is opened.  The lines are then merged from the tracks
    as they are written, not held."""
    for tr in tracks:
        for frame in tr.frames():
            _valid_bbox(tuple(map(float, tr.boxes[frame])))

    def lines(tr: RefinedTrack) -> Iterable[tuple[int, int, str]]:
        cls, oid = _json_flat(tr.class_id.value), tr.object_id
        for frame in tr.frames():
            x, y, w, h = map(float, tr.boxes[frame])
            prov = _json_flat(tr.provenance[frame].value)
            yield frame, oid, (f'{{"class": {cls}, "frame": {frame}, '
                               f'"h": {h!r}, "object_id": {oid}, '
                               f'"provenance": {prov}, "w": {w!r}, '
                               f'"x": {x!r}, "y": {y!r}}}\n')

    # each track's lines are in frame order; the merge is stable, so ties
    # keep track order
    merged = heapq.merge(*map(lines, tracks), key=lambda item: item[:2])
    with atomic_write(path) as fh:
        fh.writelines(line for _, _, line in merged)


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


def save_tip_candidates(table: TipCandidateTable, path: PathLike) -> None:
    """One record per candidate set, in (frame, object_id) order, with its
    crop box; candidates are crop-local.  A table that
    :func:`load_tip_candidates` would refuse raises ValueError before the
    file is opened."""
    _check_tip_sets(table)
    keys, boxes = table.set_keys.tolist(), table.boxes.tolist()
    offsets = table.offsets.tolist()

    def record(i: int) -> dict:
        a, b = offsets[i], offsets[i + 1]
        return {"frame": keys[i][0], "object_id": keys[i][1], "candidates": [
            {"x": x, "y": y, "descriptor": d}
            for (x, y), d in zip(table.points[a:b].tolist(),
                                 table.descriptors[a:b].tolist())],
            **_box_fields(boxes[i])}

    order = np.lexsort(table.set_keys.T[::-1])  # by frame, then object id
    _write_jsonl(path, map(record, order.tolist()))


def _check_tip_sets(table: TipCandidateTable) -> None:
    """ValueError, naming a set, if :func:`load_tip_candidates` would
    refuse ``table`` written out; the rules are tried in this order."""
    keys, boxes, counts = table.set_keys, table.boxes, np.diff(table.offsets)
    set_of = np.repeat(np.arange(len(keys)), counts)  # each candidate's set
    norms, bad = descriptor_norms(table.descriptors)
    for sets, reason in (
            (np.flatnonzero(~np.isfinite(boxes).all(axis=1)
                            | (boxes[:, 2:] <= 0).any(axis=1)),
             "no finite crop box of positive width and height"),
            (np.flatnonzero(counts == 0), "no tip candidates"),
            (set_of[~np.isfinite(table.points).all(axis=1)],
             "a candidate point that is not finite"),
            (set_of[bad], "an infinite-norm descriptor"
             if len(bad) and norms[bad[0]] else "a zero-norm descriptor"),
            (np.setdiff1d(np.arange(len(keys)),
                          np.unique(keys, axis=0, return_index=True)[1]),
             "a repeated (frame, object_id)")):
        if len(sets):
            frame, oid = keys[sets[0]].tolist()
            raise ValueError(f"tip candidate set (frame {frame}, object "
                             f"{oid}) has {reason}")


def _record_line(path: PathLike, i: int) -> int:
    """The line of JSON-lines file ``path`` that holds its record ``i``
    (0-based), as :func:`_read_jsonl` counts them."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (no for no, line in enumerate(fh, start=1) if line.strip())
        return next(itertools.islice(lines, i, None))


def load_tip_candidates(path: PathLike) -> TipCandidateTable:
    """Read every candidate set into one columnar table, in file order.

    Each set has a (frame, object_id) of its own, a crop box (finite, of
    positive width and height) and at least one candidate; every x and y
    is finite, and all descriptors share the first one's length.  Once
    the file is read, or a record is refused, one pass over the sets read
    so far refuses a descriptor of zero or infinite norm as
    ``tracking.localize_tip`` computes it, underflow and overflow
    included, and one holding an infinite value; NaN values are allowed.
    Each refusal is a ParseError at the set's line, so the first bad line
    is the one named.
    """
    keys, boxes, offsets, points, descriptors = [], [], [0], [], []
    seen: set[tuple[int, int]] = set()

    def add(rec: dict) -> None:
        key = (int(rec["frame"]), int(rec["object_id"]))
        if key in seen:
            raise ValueError(f"repeats frame {key[0]}, object {key[1]}")
        cands = rec["candidates"]
        if not cands:
            raise ValueError("no tip candidates")
        desc = np.array([c["descriptor"] for c in cands], dtype=np.float64)
        width = descriptors[0].shape[1] if descriptors else desc.shape[-1]
        if desc.ndim != 2 or desc.shape[1] != width or width == 0:
            raise ValueError(f"descriptors must be nonempty flat vectors "
                             f"of one length, got shape {desc.shape[1:]}")
        descriptors.append(desc)
        xy = [(float(c["x"]), float(c["y"])) for c in cands]
        for x, y in xy:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"candidate point ({x}, {y}) is not finite")
        points.extend(xy)
        boxes.append(_bbox_of(rec))
        keys.append(key)
        seen.add(key)
        offsets.append(len(points))

    def refuse_bad_norm(rows: np.ndarray, offsets) -> None:
        norms, bad = descriptor_norms(rows)
        if len(bad):
            i = int(np.searchsorted(offsets, bad[0], "right")) - 1
            raise ParseError(path, _record_line(path, i),
                             f"{'infinite' if norms[bad[0]] else 'zero'}-norm "
                             f"descriptor at candidate {bad[0] - offsets[i]}")

    try:
        _read_jsonl(path, add)
    except ParseError:
        # a descriptor refused on an earlier line is the first fault
        if keys:
            refuse_bad_norm(np.concatenate(descriptors[:len(keys)]), offsets)
        raise
    table = TipCandidateTable(
        set_keys=np.array(keys, dtype=np.int64).reshape(-1, 2),
        boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4),
        offsets=np.array(offsets, dtype=np.int64),
        points=np.array(points, dtype=np.float64).reshape(-1, 2),
        descriptors=(np.concatenate(descriptors) if descriptors
                     else np.empty((0, 0))))
    refuse_bad_norm(table.descriptors, table.offsets)
    return table


def save_reference_descriptors(refs: dict[InstrumentClass, np.ndarray],
                               path: PathLike) -> None:
    save_json({cls.value: [float(v) for v in vec] for cls, vec in refs.items()},
              path)


def load_reference_descriptors(path: PathLike) -> dict[InstrumentClass, np.ndarray]:
    """reference_descriptors.json back as {class: vector}, in the file's
    order.  A vector whose norm, ``math.sqrt(r @ r)`` as
    ``tracking.localize_tip`` computes it, is zero or infinite is refused,
    so one whose squares underflow or overflow is too, and so is one
    holding an infinite value."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(path, 1, "expected an object of class -> descriptor")
    out = {}
    for name, vec in doc.items():
        try:
            cls = InstrumentClass(name)
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError("the descriptor must be a vector of "
                                 "nonzero norm")
            norms, bad = descriptor_norms(arr[None])
            if len(bad):
                raise ValueError("the descriptor must be a vector of "
                                 + ("finite" if norms[0] else "nonzero")
                                 + " norm")
        except (ValueError, TypeError) as exc:
            raise ParseError(path, _line_of(path, name),
                             f"class {name!r}: {exc}") from exc
        out[cls] = arr
    return out


# ---------------------------------------------------------------------------
# matrices, curves, boundaries, segments


def save_matrix(X: np.ndarray, feature_names: Sequence[str],
                path: PathLike) -> None:
    """Delimited matrix with a header row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(feature_names):
        raise ValueError(f"matrix shape {X.shape} does not match "
                         f"{len(feature_names)} feature names")
    # repr of each Python float from a row's tolist() is _fmt's string,
    # with no float64 scalar made per value, and no list of every row
    _write_lines(path, feature_names,
                 (",".join(map(repr, row.tolist())) + "\r\n" for row in X))


# ASCII characters that numpy's reader strips around a number and float()
# does not
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# what load_matrix's memo may keep alive, and its charge per entry beyond
# the array's data and the header's strings: the array and list objects,
# the key, the tuples and the links.  The largest benchmark working set is
# about 5 MB, two procedures' features.csv and presence.csv.
_MATRIX_MEMO_BYTES = 32 << 20
_ENTRY_BYTES = 512


class _LruMemo:
    """Values by key, each with its size in bytes; once the sizes add up
    to more than ``cap``, the least recently used values are dropped.  A
    lock guards each call, so threads may share one."""

    def __init__(self, cap: int):
        self.cap = cap
        self.size = 0
        self._entries: OrderedDict[bytes, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes):
        """The value kept under ``key``, now the most recently used, or
        None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: bytes, value, size: int) -> None:
        """Keep ``value`` under ``key``; one larger than ``cap`` is not
        kept."""
        with self._lock:
            if size > self.cap or key in self._entries:
                return
            self._entries[key] = (value, size)
            self.size += size
            while self.size > self.cap:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.size -= dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.size = 0


_MATRIX_MEMO = _LruMemo(_MATRIX_MEMO_BYTES)


def load_matrix(path: PathLike) -> tuple[np.ndarray, list[str]]:
    """(X, header) of a file written by :func:`save_matrix`.

    Bytes this process has parsed before, under any path, are answered
    from the module's memo with a fresh copy of the array and header.
    Otherwise numpy's C reader parses the rows.  A file it does not take
    whole, with one value per header field on each row, or one that the
    two readers could split or strip differently, is parsed again by
    :func:`_load_matrix_checked`, from the same bytes, which gives the
    same value or the ``file:line`` ParseError.  Both parsers round every
    decimal correctly, so the bits agree.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    key = hashlib.sha256(raw).digest()
    kept = _MATRIX_MEMO.get(key)
    if kept is None:
        kept = X, header = _parse_matrix(path, raw)
        X.flags.writeable = False  # the memo's copy; callers get their own
        _MATRIX_MEMO.put(key, kept, X.nbytes + sys.getsizeof(header)
                         + sum(map(sys.getsizeof, header)) + _ENTRY_BYTES)
    X, header = kept
    return X.copy(), list(header)


def _parse_matrix(path: PathLike, raw: bytes) -> tuple[np.ndarray, list[str]]:
    """:func:`load_matrix`'s parse of the bytes ``raw`` read from ``path``."""
    # csv refuses a field longer than its limit, and no field is longer
    # than its line
    if (any(c in raw for c in _NUMPY_ONLY_SPACE)
            or max(map(len, raw.split(b"\n"))) > csv.field_size_limit()):
        return _load_matrix_checked(path, raw)
    text = _text(raw)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on no data
            header = next(csv.reader(text), None)
            X = np.loadtxt(text, delimiter=",", comments=None, ndmin=2,
                           dtype=np.float64)
    except (ValueError, Warning, csv.Error):
        return _load_matrix_checked(path, raw)
    # loadtxt takes rows that all share one width other than the header's
    if X.shape[1] == len(header):
        return X, header
    return _load_matrix_checked(path, raw)


def _load_matrix_checked(path: PathLike, raw: Optional[bytes] = None
                         ) -> tuple[np.ndarray, list[str]]:
    """:func:`load_matrix`'s parse row by row with ``float()``, of ``raw``
    when given (the bytes read from ``path``), else of the file; the test
    oracle."""
    header, rows = _read_csv(path, None, lambda row: list(map(float, row)),
                             raw)
    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    return X, header


def load_features_meta(path: PathLike) -> dict:
    """features.csv.meta.json, checked for the keys the stages read."""
    return _checked(_read_json(path), path,
                    ("effective_fps", "downsample", "n_frames_native"))


NOVELTY_HEADER = ["frame", "N"]


def save_novelty(novelty: np.ndarray, path: PathLike) -> None:
    """`frame, N` rows, one per frame."""
    values = np.asarray(novelty, dtype=np.float64).tolist()
    _write_lines(path, NOVELTY_HEADER,
                 [f"{frame},{v!r}\r\n" for frame, v in enumerate(values)])


def load_novelty(path: PathLike) -> np.ndarray:
    """The novelty curve; its frames must run 0..T-1 in order.

    A file as :func:`save_novelty` writes it is split at C speed.  Any
    other, and one holding a value that ``float()`` refuses, is read again
    by the csv module, which gives the same curve or the ``file:line``
    ParseError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    texts = _frame_values(raw, NOVELTY_HEADER)
    if texts is not None:
        try:
            return np.array(list(map(float, texts)), dtype=np.float64)
        except ValueError:
            pass
    values: list[float] = []

    def parse(row: list[str]) -> None:
        if int(row[0]) != len(values):
            raise ValueError(f"frame {row[0]} where frame {len(values)} "
                             f"belongs")
        values.append(float(row[1]))

    _read_csv(path, NOVELTY_HEADER, parse, raw)
    return np.asarray(values, dtype=np.float64)


BOUNDARIES_HEADER = ["tau", "prominence"]


def save_boundaries(taus: Sequence[int], prominences: Sequence[float],
                    path: PathLike) -> None:
    if len(taus) != len(prominences):
        raise ValueError("taus and prominences differ in length")
    _write_csv(path, BOUNDARIES_HEADER,
               ([int(tau), _fmt(prom)] for tau, prom in zip(taus, prominences)))


def load_boundaries(path: PathLike) -> tuple[list[int], list[float]]:
    """(taus, prominences); each tau is >= 1 and above the tau before it."""
    taus: list[int] = []
    proms: list[float] = []

    def parse(row: list[str]) -> None:
        tau, prev = int(row[0]), taus[-1] if taus else 0
        if tau <= prev:
            raise ValueError(f"boundary {tau} is not above {prev}")
        proms.append(float(row[1]))
        taus.append(tau)

    _read_csv(path, BOUNDARIES_HEADER, parse)
    return taus, proms


SEGMENTS_HEADER = ["index", "start_frame", "end_frame", "cluster", "action",
                   "duration_s"]


def save_segments(rows: Sequence[dict], path: PathLike) -> None:
    """`index, start_frame, end_frame, cluster, action, duration_s` rows."""
    _write_csv(path, SEGMENTS_HEADER, ([r["index"], r["start_frame"], r["end_frame"],
                                        r["cluster"], str(r["action"]), _fmt(r["duration_s"])]
                                       for r in rows))


def load_segments(path: PathLike) -> list[dict]:
    """The segments, which tile the frames from 0: row i has index i,
    starts where row i - 1 ends (row 0 at frame 0) and ends after it starts."""
    rows: list[dict] = []

    def parse(row: list[str]) -> None:
        seg = {"index": int(row[0]), "start_frame": int(row[1]),
               "end_frame": int(row[2]), "cluster": int(row[3]),
               "action": row[4], "duration_s": float(row[5])}
        start = rows[-1]["end_frame"] if rows else 0
        if seg["index"] != len(rows):
            raise ValueError(f"index {seg['index']} where index {len(rows)} "
                             f"belongs")
        if seg["start_frame"] != start:
            raise ValueError(f"start_frame {seg['start_frame']} where the "
                             f"segments reach frame {start}")
        if seg["end_frame"] <= start:
            raise ValueError(f"end_frame {seg['end_frame']} is not after "
                             f"start_frame {start}")
        rows.append(seg)

    _read_csv(path, SEGMENTS_HEADER, parse)
    return rows


# ---------------------------------------------------------------------------
# evaluation and skill grades


def load_eval(path: PathLike) -> dict:
    """eval.json, checked for every key the report tables read."""
    result = _checked(_read_json(path), path, ("boundary",))
    if "tracking" in result:
        _checked(result["tracking"], path,
                 ("recovery_rate", "correction_rate"), "tracking.")
    tag = "frame" if "frame" in result else "frame_aligned"
    fm = _checked(_checked(result, path, (tag,))[tag], path,
                  ("accuracy", "f1", "jaccard", "per_class"), tag + ".")
    for cls, d in fm["per_class"].items():
        _checked(d, path, ("precision", "recall", "f1", "jaccard", "support"),
                 f"{tag}.per_class.{cls}.")
    _checked(result["boundary"], path,
             ("precision", "recall", "f1", "tolerance"), "boundary.")
    return result


def load_skill_predictions(path: PathLike) -> dict:
    """skill_predictions.json, checked for each action's summary grade."""
    doc = _checked(_read_json(path), path, ("summary",))
    for action, d in doc["summary"].items():
        _checked(d, path, ("level", "n_segments"), f"summary.{action}.")
    return doc
