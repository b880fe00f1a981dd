"""File-based pipeline stages.

Each stage is a plain function (proc_dir, config) -> summary dict that
reads and writes the documented files inside one procedure directory, so
chaining stages individually is byte-identical to `run_all` and users
can swap in real detector output at any handoff point.  No stage writes
timestamps or machine-dependent values; all randomness flows from the
config seed.

`run_all` parses each artifact at most once and still writes every file:
its stages share one in-memory ``memo`` (artifact key -> the value its
``io.load_*`` returns), filled by the stage that writes or first parses
an artifact.  A value is kept exactly as its loader would return it from
the file just written, so a stage computes the same bytes either way.

Where the host has a second usable CPU, `run_all` also moves work off
the stages' path into forked children (:class:`_Child`): the parse of
``tip_candidates.jsonl`` and each stage's text writes.  Its docstring
gives the rules that keep the bytes and the errors those of the
stage-by-stage run.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import io
from .clustering import (Segment, boundaries_to_segments, frame_clusters,
                         align_clusters, kmeans, segment_features,
                         semantic_label)
from .config import SCHEMA_VERSION, PipelineConfig
from .kinematics import KinematicFeatureExtractor
from .metrics import boundary_metrics, frame_metrics
from .records import (ActionClass, InstrumentClass, Provenance,
                      SkillLevel, TipTrajectory)
from .segmentation import NoveltyBoundaryDetector, enhance, ssm
from .skill import (SkillGradientBoosting, cross_validate, discretize_score,
                    predict as skill_predict, skill_feature_vector)
from .synth import (SLOPPINESS_BY_LEVEL, generate, paper_shaped_script,
                    write_procedure)
from .tracking import (InstrumentTracker, iou, localize_tip, refine_identity,
                       recovery_correction_rates)

# action types that receive expert scores; skill training and prediction
# are restricted to segments of these classes
RATED_ACTIONS = (ActionClass.NEEDLE_DRIVING, ActionClass.KNOT_TYING)


class MissingInput(FileNotFoundError):
    def __init__(self, path, key: str):
        producer = io.ARTIFACTS[key][1]
        super().__init__(
            f"missing {path}; run the '{producer}' stage first "
            "(or supply the file)")
        self.path = str(path)
        self.key = key
        self.stage = producer

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it crosses a
        # process boundary (a worker pool) intact
        return type(self), (self.path, self.key)


def _path(proc_dir, key: str) -> Path:
    return Path(proc_dir) / io.ARTIFACTS[key][0]


def _written(proc_dir, key: str, memo=None) -> Path:
    """The path of artifact ``key`` once no writer child of ``memo`` is
    still writing it."""
    if memo is not None:
        memo.settle(key)
    return _path(proc_dir, key)


def _require(proc_dir, key: str, memo=None) -> Path:
    p = _written(proc_dir, key, memo)
    if not p.exists():
        raise MissingInput(p, key)
    return p


def _exists(proc_dir, key: str, memo=None) -> bool:
    """Whether artifact ``key`` exists: this run holds it, or its file does."""
    return ((memo is not None and key in memo)
            or _written(proc_dir, key, memo).exists())


def _load(proc_dir, key: str, memo: Optional["_Memo"], loader, **kwargs):
    """Artifact ``key`` as ``loader`` returns it: from ``memo`` when this
    run already holds it, else parsed from its file (and kept in ``memo``)."""
    if memo is None:
        return loader(_require(proc_dir, key), **kwargs)
    if key not in memo:
        memo[key] = loader(_require(proc_dir, key, memo), **kwargs)
    return memo[key]


def _save(memo: Optional["_Memo"], write: Callable[[], None], *unkept: str,
          **keep) -> None:
    """``write()`` the artifacts named by ``keep`` and ``unkept``, and leave
    ``keep`` in ``memo``, each value exactly as its loader would read it
    back.  Inside run_all the write runs behind the stages, in a child; a
    stage run on its own writes in-process."""
    if memo is None:
        write()
    else:
        memo.update(keep)
        memo.write_behind(write, (*keep, *unkept))


def _checked(doc: dict, path, keys: Sequence[str], within: str = "") -> dict:
    """``doc`` once it has every key; ``within`` prefixes a nested section."""
    for key in keys:
        if key not in doc:
            raise ValueError(f"{path}: missing {within + key!r}")
    return doc


def _load_sidecar(proc_dir, memo: Optional["_Memo"],
                  keys: Sequence[str]) -> Optional[dict]:
    """features.csv's sidecar checked for ``keys``, or None without one."""
    if memo is not None and "features" in memo:
        path = io.sidecar_path(_path(proc_dir, "features"))
        sidecar = memo["features"][2]
    else:
        path = io.sidecar_path(_require(proc_dir, "features", memo))
        sidecar = io._read_json(path) if path.exists() else None
    return None if sidecar is None else _checked(sidecar, path, keys)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Child:
    """``fn(*args)`` run in a forked child while the caller works on.

    The fork hands the child the caller's values as they are at that
    moment, without pickling.  :meth:`result` receives ``fn``'s value on
    the calling thread, with no result thread that would allocate in a
    malloc arena of its own.  It re-raises the child's ``ParseError`` and
    returns None when the child died without an answer, so the caller
    does the work in-process.  :meth:`wait` joins a child whose value is
    not wanted and says whether ``fn`` returned.  The children parse or
    format text and build arrays: they start no thread and call no BLAS,
    which is what makes "fork" safe here.
    """

    def __init__(self, fn, *args):
        ctx = multiprocessing.get_context("fork")
        self._conn, send = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(target=_run_child, daemon=True,
                                 args=(fn, args, send, self._conn))
        self._proc.start()
        self.pid = self._proc.pid
        send.close()

    @classmethod
    def start(cls, fn, *args) -> Optional["_Child"]:
        """A child running ``fn(*args)``, or None where it could not
        overlap with the caller: one usable CPU, no "fork" start method, a
        daemonic caller, which may not have children, or a failed fork."""
        if (_usable_cpus() < 2
                or "fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            return None
        try:
            return cls(fn, *args)
        except OSError:  # out of processes or memory
            return None

    def result(self):
        try:
            value, error = self._conn.recv()
        except (EOFError, OSError):
            return None
        finally:
            self.close()
        if error is not None:
            raise error
        return value

    def wait(self) -> bool:
        """Join the child; True when ``fn`` returned in it.  A None reply
        is a few bytes, which the pipe holds unread."""
        self._proc.join()
        self._conn.close()
        return self._proc.exitcode == 0

    def close(self) -> None:
        """End the child.  One whose pipe was never read blocks writing to
        it, so it is terminated before the join."""
        self._proc.terminate()
        self._proc.join()
        self._conn.close()


def _run_child(fn, args, conn, parent_end) -> None:
    """A _Child: send (value, None) or (None, ParseError), or exit 1."""
    parent_end.close()  # a dead parent then breaks the pipe
    # the parent ends or joins it, so a writer that Ctrl-C reaches
    # still finishes its file
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        reply = (fn(*args), None)
    except io.ParseError as exc:
        reply = (None, exc)
    except Exception:  # the caller redoes the work and meets it there
        sys.exit(1)
    with contextlib.suppress(OSError):  # the caller has gone
        conn.send(reply)


class _Memo(dict):
    """run_all's memo (artifact key -> value, as :func:`_load` keeps it),
    plus the children still writing ``proc_dir``'s artifacts behind it."""

    def __init__(self, proc_dir, **values):
        super().__init__(**values)
        self._dir = proc_dir
        # key -> (child, its write, the keys it writes), in start order
        self._writers: dict[str, tuple[_Child, Callable, tuple]] = {}

    def write_behind(self, write: Callable[[], None],
                     keys: Sequence[str]) -> None:
        """Run ``write()``, which writes the artifacts ``keys``, in a
        child, or in-process where none can start."""
        child = _Child.start(write)
        if child is None:
            write()
        else:
            self._writers.update(dict.fromkeys(keys, (child, write, keys)))

    def settle(self, key: str) -> None:
        """Wait for the child writing ``key``.  Where it failed, remove the
        temp files it left and redo its writes in-process, which raises
        what the stage run on its own raises."""
        pending = self._writers.get(key)
        if pending is None:
            return
        child, write, keys = pending
        for k in keys:
            del self._writers[k]
        if not child.wait():
            for path in [_path(self._dir, k) for k in keys]:
                for p in (path, io.sidecar_path(path)):  # features' sidecar
                    io.temp_path(p, child.pid).unlink(missing_ok=True)
            write()

    def join(self) -> None:
        """Settle every writer in start order; once all are joined, raise
        the first error, which a stage-by-stage run would meet first."""
        error = None
        while self._writers:
            try:
                self.settle(next(iter(self._writers)))
            except Exception as exc:  # held until every child is joined
                error = error or exc
        if error is not None:
            raise error


# ---------------------------------------------------------------------------
# stages


def stage_synth(out_dir, cfg: PipelineConfig,
                level: Optional[SkillLevel] = None) -> dict:
    """Generate one synthetic procedure directory, ground truth included."""
    s = cfg.synth
    sloppiness = SLOPPINESS_BY_LEVEL[level] if level is not None else s.sloppiness
    script = paper_shaped_script(
        fps=s.fps, seed=cfg.seed, noise=s.noise,
        dropout_rate=s.dropout_rate, mislabel_rate=s.mislabel_rate,
        sloppiness=sloppiness)
    if s.dropout_max_run != script.dropout_max_run:
        script = replace(script, dropout_max_run=s.dropout_max_run)
    proc = generate(script)
    write_procedure(proc, out_dir)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "procedure_id": f"synth-{cfg.seed:06d}",
        "fps": proc.fps,
        "n_frames": proc.n_frames,
        "seed": cfg.seed,
    }
    io._write_json(_path(out_dir, "meta"), meta)
    return {"n_frames": proc.n_frames, "n_detections": len(proc.detections),
            "procedure_id": meta["procedure_id"]}


def stage_track(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Detections -> per-frame track rows -> identity-repaired tracks."""
    meta = _load(proc_dir, "meta", memo, io.load_meta)
    detections = _load(proc_dir, "detections", memo, io.load_detections)
    t = cfg.tracking
    tracker = InstrumentTracker(
        iou_weight=t.iou_weight, appearance_weight=t.appearance_weight,
        iou_gate=t.iou_gate, max_coast=t.max_coast,
        delete_after=t.delete_after, confirm_hits=t.confirm_hits,
        cross_class_iou=t.cross_class_iou)
    rows = tracker.run(detections, first_frame=0,
                       last_frame=int(meta["n_frames"]) - 1)
    # objects that never reach confirm_hits detections are detector noise
    # (typically a mislabeled frame rejected by the cross-class gate);
    # repairing identities across them would graft the noise onto real
    # objects, so they are dropped before the repair pass
    backed: dict[int, int] = {}
    for r in rows:
        if r.det_index is not None:
            backed[r.object_id] = backed.get(r.object_id, 0) + 1
    confirmed = [r for r in rows
                 if backed.get(r.object_id, 0) >= t.confirm_hits]
    # sorted by object id, frame-ordered dicts of float boxes: what
    # load_refined_tracks builds from the file
    refined = refine_identity(confirmed, max_gap=t.max_gap)

    def write():
        io.save_track_rows(rows, _path(proc_dir, "track_rows"))
        io.save_refined_tracks(refined, _path(proc_dir, "refined"))

    _save(memo, write, "track_rows", refined=refined)
    report = io.validate_stream(detections)
    return {"n_rows": len(rows), "n_objects": len(refined),
            "detection_gaps": len(report.gaps),
            "detection_anomalies": len(report.anomalies)}


def _confirmed_frames(track, min_hits: int = 1) -> list[int]:
    """Track frames minus trailing coasted rows and unconfirmed tracks.

    A coasted box between two of the track's own detections bridges a
    dropout; a coasted run the track never confirms again (its own
    departure, or a lost lock while the real instrument re-entered as a
    new track) is the tracker guessing forward, and those guesses drift.
    Trim each contiguous run back to its last detection-backed frame.
    Tracks with fewer than ``min_hits`` detection-backed frames in total
    are detector noise and contribute nothing.
    """
    frames = track.frames()
    n_backed = sum(1 for f in frames
                   if track.provenance[f] != Provenance.RECOVERED)
    if n_backed < min_hits:
        return []
    out = []
    i = 0
    while i < len(frames):
        j = i
        while j + 1 < len(frames) and frames[j + 1] == frames[j] + 1:
            j += 1
        run = frames[i: j + 1]
        backed = [f for f in run
                  if track.provenance[f] != Provenance.RECOVERED]
        if backed:
            out += [f for f in run if f <= backed[-1]]
        i = j + 1
    return out


def stage_tips(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Refined tracks -> one tip trajectory per instrument class.

    Tracks fold into class slots because an instrument that leaves the
    field for a whole action and returns is a new track id by design;
    the kinematic features want the continuing "scissors" or "needle
    driver" role.  Slot ids are the class positions in InstrumentClass
    order, so the feature layout is stable across procedures.

    When a candidate file and reference descriptors exist, candidates are
    matched to track boxes geometrically (tracker ids need not agree with
    the candidate producer's ids) and the best-cosine candidate becomes
    the tip.  Frames without a usable candidate set fall back to the box
    center, which is also the whole story for coasted boxes.
    """
    meta = _load(proc_dir, "meta", memo, io.load_meta)
    n_frames = int(meta["n_frames"])
    refined = _load(proc_dir, "refined", memo, io.load_refined_tracks)

    # optional inputs that no other stage reads; run_all may have left a
    # child parsing the candidates, the largest input, in the memo
    child = memo.pop("candidates", None) if memo is not None else None
    cand_path = _path(proc_dir, "candidates")
    ref_path = _path(proc_dir, "references")
    table = None
    by_frame: dict[int, list[int]] = {}
    references: dict[InstrumentClass, np.ndarray] = {}
    if cand_path.exists() and ref_path.exists():
        table = child.result() if child is not None else None
        if table is None:
            table = io.load_tip_candidates(cand_path)
        by_frame = table.sets_by_frame()
        references = io.load_reference_descriptors(ref_path)

    # best[(class, frame)] = (rank, object_id, tip); detection-backed rows
    # outrank recovered ones, then the older object wins
    best_tip: dict[tuple[InstrumentClass, int],
                   tuple[int, int, tuple[float, float]]] = {}
    n_localized = 0
    for track in sorted(refined, key=lambda t: t.object_id):
        ref = references.get(track.class_id)
        for f in _confirmed_frames(track, cfg.tracking.confirm_hits):
            if not 0 <= f < n_frames:
                continue
            box = track.boxes[f]
            tip = None
            if ref is not None:
                cand, cand_box, cand_iou = None, None, 0.0
                for i in by_frame.get(f, ()):
                    cbox = table.crop_boxes[i]
                    if cbox is None:
                        continue
                    v = iou(box, cbox)
                    if v > cand_iou:
                        cand, cand_box, cand_iou = i, cbox, v
                # det-backed rows carry the detection box verbatim, so the
                # right candidate set matches at IoU 1; 0.5 rejects overlap
                # with a neighboring instrument's crop
                if cand is not None and cand_iou >= 0.5:
                    rows = table.rows(cand)
                    tip = localize_tip(table.points[rows],
                                       table.descriptors[rows], ref,
                                       bbox=cand_box)
                    n_localized += 1
            if tip is None:
                x, y, w, h = box
                tip = (x + w / 2.0, y + h / 2.0)
            rank = 1 if track.provenance[f] == Provenance.RECOVERED else 0
            key = (track.class_id, f)
            entry = (rank, track.object_id, tip)
            if key not in best_tip or entry < best_tip[key]:
                best_tip[key] = entry

    classes = sorted({c for c, _ in best_tip},
                     key=list(InstrumentClass).index)
    trajectories = []
    for cls in classes:
        points: list[Optional[tuple[float, float]]] = [None] * n_frames
        for f in range(n_frames):
            entry = best_tip.get((cls, f))
            if entry is not None:
                points[f] = entry[2]
        trajectories.append(TipTrajectory(
            instrument_id=list(InstrumentClass).index(cls), points=points,
            fps=float(meta["fps"]), class_id=cls))

    _save(memo, lambda: io.save_tips(trajectories, _path(proc_dir, "tips")),
          tips=trajectories)
    io._write_json(_path(proc_dir, "tips_classes"),
                   {str(tr.instrument_id): tr.class_id.value for tr in trajectories})
    return {"n_trajectories": len(trajectories), "n_localized": n_localized}


def stage_features(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Tip trajectories -> kinematic feature matrix + presence matrix."""
    meta = _load(proc_dir, "meta", memo, io.load_meta)
    class_map = {int(k): InstrumentClass(v) for k, v in
                 io._read_json(_require(proc_dir, "tips_classes")).items()}
    trajectories = _load(proc_dir, "tips", memo, io.load_tips,
                         fps=float(meta["fps"]), class_map=class_map)
    if not trajectories:
        raise ValueError(
            f"{_path(proc_dir, 'tips')}: no tip trajectories, so the "
            "'features' stage has nothing to compute (an empty or all-idle "
            "detection stream?)")
    f = cfg.features
    extractor = KinematicFeatureExtractor(
        downsample=f.downsample, smooth_window=f.smooth_window,
        zscore=f.zscore)
    km = extractor.transform(trajectories)
    sidecar = {
        "native_fps": float(meta["fps"]),
        "effective_fps": km.fps,
        "downsample": f.downsample,
        "n_frames_native": int(meta["n_frames"]),
        "instrument_ids": km.instrument_ids,
        "mask_classes": [class_map[i].value if i in class_map else None
                         for i in km.instrument_ids],
    }
    mask_names = [f"present_{i}" for i in km.instrument_ids]

    def write():
        io.save_matrix(km.X, km.feature_names, _path(proc_dir, "features"),
                       meta=sidecar)
        io.save_matrix(km.presence_mask, mask_names,
                       _path(proc_dir, "presence"))

    # both matrices are float64 already and the sidecar's values are
    # JSON-native; its readers look keys up, so key order does not matter
    _save(memo, write, features=(km.X, km.feature_names, sidecar),
          presence=(km.presence_mask, mask_names, None))
    return {"shape": list(km.X.shape), "effective_fps": km.fps}


def stage_segment(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Feature matrix -> novelty curve -> boundary frames."""
    X, _, _ = _load(proc_dir, "features", memo, io.load_matrix)
    g = cfg.segmentation
    det = NoveltyBoundaryDetector(
        half_width=g.half_width, sigma=g.sigma,
        prominence_frac=g.prominence_frac, min_distance=g.min_distance,
        novelty_floor=g.novelty_floor)
    det.fit(X)

    def write():
        io.save_novelty(det.novelty_, _path(proc_dir, "novelty"))
        io.save_boundaries(det.boundaries_, det.prominences_,
                           _path(proc_dir, "boundaries"))

    _save(memo, write, novelty=det.novelty_,
          boundaries=([int(t) for t in det.boundaries_],
                      [float(p) for p in det.prominences_]))
    return {"n_boundaries": int(len(det.boundaries_))}


def stage_cluster(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Boundaries -> segments -> K-means -> action-labeled segments.

    With K = 4 and known instrument classes the clusters get semantic
    action names from their centroid presence patterns; otherwise the
    action column falls back to the cluster id and only the optimal
    alignment in `eval` can name frames.
    """
    X, _, _ = _load(proc_dir, "features", memo, io.load_matrix)
    mask, _, _ = _load(proc_dir, "presence", memo, io.load_matrix)
    taus, _ = _load(proc_dir, "boundaries", memo, io.load_boundaries)
    sidecar = _load_sidecar(proc_dir, memo, ("effective_fps", "downsample",
                                             "n_frames_native"))
    if sidecar is None:
        raise MissingInput(io.sidecar_path(_path(proc_dir, "features")),
                           "features")
    eff_fps = float(sidecar["effective_fps"])
    c = cfg.clustering
    segments = boundaries_to_segments(taus, X.shape[0], eff_fps)
    F = segment_features(X, mask, segments, mask_weight=c.mask_weight)
    model = kmeans(F, c.n_clusters, seed=cfg.seed, restarts=c.restarts,
                   max_iter=c.max_iter)

    mask_classes = [InstrumentClass(v) if v else None
                    for v in sidecar.get("mask_classes", [])]
    mapping: Optional[dict[int, ActionClass]] = None
    flags: list[str] = []
    if c.n_clusters == 4 and mask_classes and all(mask_classes):
        mapping, flags = semantic_label(model.centroids, X.shape[1],
                                        mask_classes)

    rows = []
    for seg, k in zip(segments, model.assignments):
        action = mapping[int(k)].value if mapping else str(int(k))
        rows.append({"index": seg.index, "start_frame": seg.start,
                     "end_frame": seg.end, "cluster": int(k),
                     "action": action, "duration_s": seg.duration_s})
    keep = {"segments": rows}
    if mapping:
        stream = frame_clusters(segments, model.assignments, X.shape[0])
        labels = [mapping[int(k)] for k in stream]
        keep["pred_labels"] = _expand_to_native(
            labels, int(sidecar["downsample"]),
            int(sidecar["n_frames_native"]))
    else:
        # an older semantic run must not feed eval, from disk or memo
        _path(proc_dir, "pred_labels").unlink(missing_ok=True)
        if memo is not None:
            memo.pop("pred_labels", None)

    def write():
        io.save_segments(rows, _path(proc_dir, "segments"))
        if mapping:
            io.save_labels(keep["pred_labels"], _path(proc_dir, "pred_labels"))

    _save(memo, write, **keep)
    return {"n_segments": len(segments), "inertia": model.inertia,
            "semantic": mapping is not None, "tie_flags": flags}


def _expand_to_native(labels: Sequence, factor: int, n_native: int) -> list:
    """Undo feature downsampling by repetition; frame t maps to t // factor."""
    return [labels[min(t // factor, len(labels) - 1)] for t in range(n_native)]


def stage_eval(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Score predictions against the directory's ground truth."""
    meta = _load(proc_dir, "meta", memo, io.load_meta)
    native_fps = float(meta["fps"])
    gt_labels = _load(proc_dir, "labels", memo, io.load_labels)
    sidecar = _load_sidecar(proc_dir, memo, ("downsample",))
    factor = int(sidecar["downsample"]) if sidecar else 1
    n_native = len(gt_labels)

    result: dict = {"procedure_id": meta.get("procedure_id")}

    segs = _load(proc_dir, "segments", memo, io.load_segments)
    cluster_stream = []
    for s in segs:
        cluster_stream += [s["cluster"]] * (s["end_frame"] - s["start_frame"])
    cluster_native = _expand_to_native(cluster_stream, factor, n_native)
    _, aligned = align_clusters(cluster_native, gt_labels)
    result["frame_aligned"] = frame_metrics(aligned, gt_labels).to_dict()

    if _exists(proc_dir, "pred_labels", memo):
        pred = _load(proc_dir, "pred_labels", memo, io.load_labels)
        if len(pred) != len(gt_labels):
            raise ValueError(
                f"predicted labels cover {len(pred)} frames, truth "
                f"{len(gt_labels)}")
        result["frame"] = frame_metrics(pred, gt_labels).to_dict()

    taus, _ = _load(proc_dir, "boundaries", memo, io.load_boundaries)
    gt_taus, _ = _load(proc_dir, "boundaries_truth", memo, io.load_boundaries)
    tol = int(round(cfg.evaluation.boundary_tolerance_s * native_fps))
    taus_native = [t * factor for t in taus]
    result["boundary"] = boundary_metrics(taus_native, gt_taus, tol).to_dict()

    if (_exists(proc_dir, "truth", memo)
            and _exists(proc_dir, "refined", memo)):
        dets = _load(proc_dir, "detections", memo, io.load_detections)
        refined = _load(proc_dir, "refined", memo, io.load_refined_tracks)
        truth = _load(proc_dir, "truth", memo, io.load_truth_instances)
        rr, cr = recovery_correction_rates(dets, refined, truth,
                                           iou_threshold=cfg.tracking.iou_gate)
        result["tracking"] = {"recovery_rate": rr, "correction_rate": cr}

    io._write_json(_path(proc_dir, "eval"), result)
    return result


# ---------------------------------------------------------------------------
# skill stages (train across directories, predict per directory)


def _skill_rows(proc_dir, cfg: PipelineConfig, memo=None
                ) -> list[tuple[int, ActionClass, int, np.ndarray]]:
    """(segment index, action, repetition ordinal, feature vector) per
    rated-action segment, in segment order."""
    X, _, _ = _load(proc_dir, "features", memo, io.load_matrix)
    mask, _, _ = _load(proc_dir, "presence", memo, io.load_matrix)
    seg_rows = _load(proc_dir, "segments", memo, io.load_segments)
    segments = [Segment(index=s["index"], start=s["start_frame"],
                        end=s["end_frame"], duration_s=s["duration_s"])
                for s in seg_rows]
    F = segment_features(X, mask, segments,
                         mask_weight=cfg.clustering.mask_weight)
    rows = []
    reps = {a: 0 for a in RATED_ACTIONS}
    for s, f in zip(seg_rows, F):
        try:
            action = ActionClass(s["action"])
        except ValueError:
            continue  # cluster-id placeholder; no semantic name assigned
        if action not in RATED_ACTIONS:
            continue
        reps[action] += 1
        vec = skill_feature_vector(f, action, reps[action], s["duration_s"])
        rows.append((s["index"], action, reps[action], vec))
    return rows


def train_skill(proc_dirs: Sequence, cfg: PipelineConfig, model_path,
                summary_path=None) -> dict:
    """Fit the skill booster on every scored rated-action segment."""
    X_rows, y, counts = [], [], {}
    for proc_dir in proc_dirs:
        scores = io.load_scores(_require(proc_dir, "scores"))
        by_action = {s.action_type: s.score for s in scores}
        for _, action, _, vec in _skill_rows(proc_dir, cfg):
            if action not in by_action:
                continue
            level = discretize_score(
                by_action[action],
                thresholds=(cfg.skill.poor_max, cfg.skill.moderate_max))
            X_rows.append(vec)
            y.append(int(level))
            counts[str(level)] = counts.get(str(level), 0) + 1
    if not X_rows:
        raise ValueError("no scored rated-action segments found; run the "
                         "'cluster' stage and check scores.csv")
    widths = {v.shape[0] for v in X_rows}
    if len(widths) > 1:
        raise ValueError(f"feature widths differ across procedures: "
                         f"{sorted(widths)}; use one config for all")
    X = np.vstack(X_rows)
    y_arr = np.asarray(y)
    k = cfg.skill
    model = SkillGradientBoosting(
        n_estimators=k.n_estimators, learning_rate=k.learning_rate,
        max_depth=k.max_depth, random_state=cfg.seed)
    model.fit(X, y_arr)
    model.save(model_path)

    summary = {"n_rows": len(y), "n_procedures": len(proc_dirs),
               "class_counts": counts, "n_features": int(X.shape[1])}
    n_classes = len(set(y))
    if n_classes >= 2 and len(y) >= k.folds:
        cv = cross_validate(X, y_arr, folds=k.folds, seed=cfg.seed,
                            n_estimators=k.n_estimators,
                            learning_rate=k.learning_rate,
                            max_depth=k.max_depth)
        summary["cv"] = {key: val for key, val in cv.items()
                         if key in ("fold_accuracy", "accuracy", "per_class")}
    else:
        summary["cv"] = None
        summary["cv_skipped"] = (f"{n_classes} class(es), {len(y)} rows; "
                                 f"need >= 2 classes and >= {k.folds} rows")
    if summary_path is not None:
        io._write_json(summary_path, summary)
    return summary


def predict_skill(proc_dir, cfg: PipelineConfig, model_path, *,
                  memo=None) -> dict:
    """Grade each rated-action segment and summarize per action type."""
    model_path = Path(model_path)
    if not model_path.exists():
        raise FileNotFoundError(
            f"missing model {model_path}; run 'train-skill' first")
    model = SkillGradientBoosting.load(model_path)
    per_segment = []
    by_action: dict[str, list[int]] = {}
    for index, action, rep, vec in _skill_rows(proc_dir, cfg, memo):
        level, proba = skill_predict(model, vec)
        per_segment.append({
            "segment_index": index,
            "action": action.value,
            "repetition": rep,
            "level": str(level),
            "proba": {str(SkillLevel(c)): float(p)
                      for c, p in zip(model.classes_, proba)},
        })
        by_action.setdefault(action.value, []).append(int(level))
    summary = {}
    for action, levels in sorted(by_action.items()):
        # majority grade; ties resolve to the worse grade
        votes = sorted(((levels.count(v), -v) for v in set(levels)),
                       reverse=True)
        summary[action] = {"level": str(SkillLevel(-votes[0][1])),
                           "n_segments": len(levels)}
    out = {"segments": per_segment, "summary": summary}
    io._write_json(_path(proc_dir, "skill_pred"), out)
    return out


# ---------------------------------------------------------------------------
# report


def _ssm_preview(X: np.ndarray, max_side: int = 256) -> dict:
    stride = max(1, math.ceil(X.shape[0] / max_side))
    S = ssm(X[::stride])
    enhance(S, inplace=True)
    return {"stride": stride,
            "values": [[round(float(v), 4) for v in row] for row in S]}


def _fmt_ratio(v) -> str:
    return "n/a" if v is None else f"{v:.3f}"


def _load_eval(path) -> dict:
    """eval.json, checked for every key the report tables read."""
    result = _checked(io._read_json(path), path, ("boundary",))
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


def stage_report(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Human-readable summary tables plus plot-ready curves.

    report.txt carries the tracking-repair, segmentation-quality and
    skill tables; report.json carries the novelty curve, boundaries,
    label ribbons and a decimated enhanced SSM for plotting.
    """
    meta = _load(proc_dir, "meta", memo, io.load_meta)
    novelty = _load(proc_dir, "novelty", memo, io.load_novelty)
    taus, proms = _load(proc_dir, "boundaries", memo, io.load_boundaries)
    segs = _load(proc_dir, "segments", memo, io.load_segments)
    X, _, _ = _load(proc_dir, "features", memo, io.load_matrix)
    sidecar = _load_sidecar(proc_dir, memo, ("downsample",))

    eval_result = skill = None
    if _exists(proc_dir, "eval", memo):
        eval_result = _load_eval(_path(proc_dir, "eval"))
    if _exists(proc_dir, "skill_pred", memo):
        skill = io._read_json(_path(proc_dir, "skill_pred"))
    pred_ribbon = truth_ribbon = None
    if _exists(proc_dir, "pred_labels", memo):
        pred_ribbon = [a.value for a in
                       _load(proc_dir, "pred_labels", memo, io.load_labels)]
    if _exists(proc_dir, "labels", memo):
        truth_ribbon = [a.value for a in
                        _load(proc_dir, "labels", memo, io.load_labels)]

    lines = []
    push = lines.append
    push("microanastomosis segmentation report")
    push(f"procedure : {meta.get('procedure_id', '?')}")
    push(f"frames    : {meta['n_frames']} @ {meta['fps']} fps")
    push("")

    if eval_result and "tracking" in eval_result:
        tr = eval_result["tracking"]
        push("[tracking repair]")
        push(f"  recovery rate   : {_fmt_ratio(tr['recovery_rate'])}")
        push(f"  correction rate : {_fmt_ratio(tr['correction_rate'])}")
        push("")

    if eval_result:
        fm = eval_result.get("frame") or eval_result.get("frame_aligned")
        tag = "semantic" if "frame" in eval_result else "aligned"
        push(f"[action segmentation vs truth ({tag})]")
        push(f"  frame accuracy  : {fm['accuracy']:.3f}")
        push(f"  macro F1        : {fm['f1']:.3f}")
        push(f"  macro Jaccard   : {fm['jaccard']:.3f}")
        bm = eval_result["boundary"]
        push(f"  boundaries      : P {_fmt_ratio(bm['precision'])} "
             f"R {_fmt_ratio(bm['recall'])} F1 {_fmt_ratio(bm['f1'])} "
             f"(tol {bm['tolerance']} frames)")
        push("  per class:")
        for cls, d in fm["per_class"].items():
            push(f"    {cls:<14} P {d['precision']:.3f} R {d['recall']:.3f} "
                 f"F1 {d['f1']:.3f} J {d['jaccard']:.3f} n {d['support']}")
        push("")

    push(f"[segments] ({len(segs)} segments, {len(taus)} boundaries)")
    push("  idx  start    end      cluster  action         dur_s")
    for s in segs:
        push(f"  {s['index']:<4} {s['start_frame']:<8} {s['end_frame']:<8} "
             f"{s['cluster']:<8} {s['action']:<14} {s['duration_s']:.2f}")
    push("")

    if skill:
        push("[skill grades]")
        for action, d in sorted(skill["summary"].items()):
            push(f"  {action:<14}: {d['level']} "
                 f"over {d['n_segments']} repetitions")
        push("")

    with io.atomic_write(_path(proc_dir, "report_txt")) as fh:
        fh.write("\n".join(lines) + "\n")

    downsample = int(sidecar["downsample"]) if sidecar else 1
    report = {
        "procedure_id": meta.get("procedure_id"),
        "fps": meta["fps"],
        "feature_downsample": downsample,
        "novelty": [round(float(v), 6) for v in novelty],
        "boundaries": [int(t) for t in taus],
        "prominences": [round(float(p), 6) for p in proms],
        "segments": segs,
        "ribbons": {"predicted": pred_ribbon, "truth": truth_ribbon},
        "ssm_preview": _ssm_preview(X),
        "metrics": eval_result,
        "skill": skill,
    }
    io._write_json(_path(proc_dir, "report_json"), report)
    return {"report_txt": str(_path(proc_dir, "report_txt")),
            "report_json": str(_path(proc_dir, "report_json"))}


# ---------------------------------------------------------------------------
# chaining


# the per-directory stages in run order: (CLI subcommand, function name,
# run condition), where the condition is None (always), "labels"
# (labels.csv exists) or "model" (a model is given, as ``model_path``)
STAGES = (
    ("track", "stage_track", None),
    ("tips", "stage_tips", None),
    ("features", "stage_features", None),
    ("segment", "stage_segment", None),
    ("cluster", "stage_cluster", None),
    ("eval", "stage_eval", "labels"),
    ("predict-skill", "predict_skill", "model"),
    ("report", "stage_report", None),
)


def run_all(proc_dir, cfg: PipelineConfig, model_path=None) -> dict:
    """Every stage of :data:`STAGES` whose condition holds, in order,
    equivalent to running each stage; returns each one's summary under
    its name, with "_" for "-".

    The stages share one memo that lives for this call only, so each
    artifact is parsed at most once; every file is still written.  Where
    the host has a second CPU, forked children take work off the stages'
    path: the tip candidates, which no stage writes, are parsed while the
    track stage runs, and the text files of track, tips, features,
    segment and cluster are each written by a child while the next stage
    runs.  Each file is replaced atomically, every child is joined before
    this returns or raises, and a writer that died is redone in-process.
    A later stage never waits for a file: what it reads, or checks for,
    comes from the memo.  With one CPU, without "fork", or in a daemonic
    process everything runs in-process, with the same bytes.  If a write
    fails, the error is the one the stage run on its own raises, though
    later stages' files may have been written by then.
    """
    cand_path = _path(proc_dir, "candidates")
    child = None
    if cand_path.exists() and _path(proc_dir, "references").exists():
        child = _Child.start(io.load_tip_candidates, cand_path)
    memo = _Memo(proc_dir, candidates=child) if child else _Memo(proc_dir)
    out = {}
    try:
        for name, fn_name, when in STAGES:
            if ((when == "labels" and not _path(proc_dir, "labels").exists())
                    or (when == "model" and model_path is None)):
                continue
            extra = {"model_path": model_path} if when == "model" else {}
            # looked up at call time, so a wrapper set on the module runs
            out[name.replace("-", "_")] = globals()[fn_name](
                proc_dir, cfg, memo=memo, **extra)
    finally:
        if child is not None:
            child.close()
        memo.join()
    return out
