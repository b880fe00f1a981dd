"""File-based pipeline stages.

Each stage is a plain function (proc_dir, config) -> summary dict that
reads and writes the documented files inside one procedure directory, so
chaining stages individually is byte-identical to `run_all` and users
can swap in real detector output at any handoff point.  No stage writes
timestamps or machine-dependent values; all randomness flows from the
config seed.

`run_all` parses each artifact at most once and still writes every file:
its stages share one in-memory ``memo`` (artifact key -> the value its
``io.ARTIFACTS`` loader returns), filled by the stage that writes or
first parses an artifact.  A value is kept exactly as its loader would return it from
the file just written, so a stage computes the same bytes either way.
Each stage writes its files when it ends, in `run_all` as on its own.

Where the host has a second usable CPU, `run_all` parses
``tip_candidates.jsonl`` in a forked child (:class:`_Child`) while the
track stage runs.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
import multiprocessing
import os
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import io
from .clustering import (align_clusters, kmeans, segment_edges,
                         segment_features, semantic_label)
from .config import SCHEMA_VERSION, PipelineConfig
from .kinematics import KinematicFeatureExtractor
from .metrics import boundary_metrics, frame_metrics
from .records import (RATED_ACTIONS, ActionClass, InstrumentClass,
                      Provenance, SkillLevel, TipTrajectory)
from .segmentation import NoveltyBoundaryDetector, enhance, ssm
from .skill import (SkillGradientBoosting, cross_validate, discretize_score,
                    predict as skill_predict, skill_feature_vector)
from .synth import (SLOPPINESS_BY_LEVEL, generate, paper_shaped_script,
                    write_procedure)
from .tracking import (InstrumentTracker, frame_pairs, iou_pairs, localize_tip,
                       recovery_correction_rates, refine_identity)


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


def _bad(proc_dir, key: str, reason: str) -> ValueError:
    """The error for artifact ``key`` whose value fails a check: its path,
    ``reason`` and the stage that writes it."""
    return ValueError(f"{_path(proc_dir, key)}: {reason} (written by the "
                      f"'{io.ARTIFACTS[key][1]}' stage)")


def _exists(proc_dir, key: str, memo=None) -> bool:
    """Whether artifact ``key`` exists: this run holds it, or its file does."""
    return ((memo is not None and key in memo)
            or _path(proc_dir, key).exists())


def _load(proc_dir, key: str, memo: Optional[dict]):
    """Artifact ``key`` as its ``io.ARTIFACTS`` loader returns it: from
    ``memo`` when this run already holds it, else parsed from its file (and
    kept in ``memo``).  The loader is looked up by name at call time, so a
    wrapper set on ``io`` runs.  A ``ParseError`` names the stage that
    writes the file."""
    if memo is not None and key in memo:
        return memo[key]
    _, producer, loader, _ = io.ARTIFACTS[key]
    path = _path(proc_dir, key)
    if not path.exists():
        raise MissingInput(path, key)
    try:
        value = getattr(io, loader)(path)
    except io.ParseError as exc:
        raise io.ParseError(exc.path, exc.line_no, exc.reason,
                            producer) from exc
    if memo is not None:
        memo[key] = value
    return value


def _save(proc_dir, memo: Optional[dict], **artifacts) -> None:
    """Write each artifact (key=value, in order) with its ``io.ARTIFACTS``
    saver, then keep it in ``memo``.  Each value is exactly what its loader
    would read back."""
    for key, value in artifacts.items():
        io.save_artifact(key, value, _path(proc_dir, key))
        if memo is not None:
            memo[key] = value


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
    does the work in-process.  The child parses text and builds arrays:
    it starts no thread and calls no BLAS, which is what makes "fork"
    safe here.
    """

    def __init__(self, fn, *args):
        ctx = multiprocessing.get_context("fork")
        self._conn, send = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(target=_run_child, daemon=True,
                                 args=(fn, args, send, self._conn))
        self._proc.start()
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

    def close(self) -> None:
        """End the child.  One whose pipe was never read blocks writing to
        it, so it is terminated before the join."""
        self._proc.terminate()
        self._proc.join()
        self._conn.close()


def _run_child(fn, args, conn, parent_end) -> None:
    """A _Child: send (value, None) or (None, ParseError), or exit 1."""
    parent_end.close()  # a dead parent then breaks the pipe
    # Ctrl-C reaches the whole process group; the parent ends this child
    # as it unwinds, so the child ignores it and prints no traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        reply = (fn(*args), None)
    except io.ParseError as exc:
        reply = (None, exc)
    except Exception:  # the caller redoes the work and meets it there
        sys.exit(1)
    with contextlib.suppress(OSError):  # the caller has gone
        conn.send(reply)


# ---------------------------------------------------------------------------
# stages


def stage_synth(out_dir, cfg: PipelineConfig,
                level: Optional[SkillLevel] = None) -> dict:
    """Generate one synthetic procedure directory, ground truth included."""
    s = cfg.synth
    sloppiness = SLOPPINESS_BY_LEVEL[level] if level is not None else s.sloppiness
    script = paper_shaped_script(
        fps=s.fps, seed=cfg.seed, noise=s.noise,
        dropout_rate=s.dropout_rate, dropout_max_run=s.dropout_max_run,
        mislabel_rate=s.mislabel_rate, sloppiness=sloppiness)
    proc = generate(script)
    write_procedure(proc, out_dir)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "procedure_id": f"synth-{cfg.seed:06d}",
        "fps": proc.fps,
        "n_frames": proc.n_frames,
        "seed": cfg.seed,
    }
    _save(out_dir, None, meta=meta)
    return {"n_frames": proc.n_frames, "n_detections": len(proc.detections),
            "procedure_id": meta["procedure_id"]}


def stage_track(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Detections -> per-frame track rows -> identity-repaired tracks."""
    meta = _load(proc_dir, "meta", memo)
    detections = _load(proc_dir, "detections", memo)
    t = cfg.tracking
    tracker = InstrumentTracker(
        appearance_weight=t.appearance_weight,
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

    _save(proc_dir, memo, track_rows=rows, refined=refined)
    # gaps: runs of frames with no detection between frames that have
    # some; anomalies: (frame, class) pairs detected more than once
    frames = sorted({d.frame for d in detections})
    pairs = collections.Counter((d.frame, d.class_id) for d in detections)
    return {"n_rows": len(rows), "n_objects": len(refined),
            "detection_gaps": sum(b - a > 1 for a, b in zip(frames, frames[1:])),
            "detection_anomalies": sum(n > 1 for n in pairs.values())}


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
    the tip, every matched frame in one batched ``localize_tip`` call.
    The loaders refuse an empty set, a set without a crop box and a
    zero-norm descriptor or reference, each at its line; descriptors of
    another width than a reference fail here, naming both files.
    Frames without a matching candidate set fall back to the box
    center, which is also the whole story for coasted boxes.
    """
    meta = _load(proc_dir, "meta", memo)
    n_frames = int(meta["n_frames"])
    refined = _load(proc_dir, "refined", memo)

    # optional inputs that no other stage reads, so neither is kept in the
    # memo; run_all may have left a child parsing the candidates, the
    # largest input, there
    child = memo.pop("candidates", None) if memo is not None else None
    table = None
    references: dict[InstrumentClass, np.ndarray] = {}
    if (_path(proc_dir, "candidates").exists()
            and _path(proc_dir, "references").exists()):
        table = child.result() if child is not None else None
        if table is None:
            table = _load(proc_dir, "candidates", None)
        references = _load(proc_dir, "references", None)
        width = table.descriptors.shape[1]
        for c, ref in references.items():
            if len(table.set_keys) and ref.shape != (width,):
                raise _bad(proc_dir, "candidates", f"the descriptors have "
                           f"{width} values, but class '{c}' has {len(ref)} "
                           f"in {_path(proc_dir, 'references')}")
        sets = np.lexsort(table.set_keys.T[::-1])  # by frame, then object id
        set_frames = table.set_keys[sets, 0]
        set_boxes = table.boxes[sets]

    # one row per (track, confirmed frame), tracks by object id, then
    # frames in order
    kinds = list(InstrumentClass)
    frames, boxes, ranks, oids, cls = [], [], [], [], []
    for track in sorted(refined, key=lambda t: t.object_id):
        fs = [f for f in _confirmed_frames(track, cfg.tracking.confirm_hits)
              if 0 <= f < n_frames]
        frames += fs
        boxes += [track.boxes[f] for f in fs]
        # detection-backed rows outrank recovered ones
        ranks += [track.provenance[f] == Provenance.RECOVERED for f in fs]
        oids += [track.object_id] * len(fs)
        cls += [kinds.index(track.class_id)] * len(fs)
    frames = np.array(frames, dtype=np.int64)
    boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    cls = np.array(cls, dtype=np.int64)
    x, y, w, h = boxes.T
    tips = np.column_stack((x + w / 2.0, y + h / 2.0))  # the box centre

    present = [i for i, c in enumerate(kinds) if c in references]
    with_ref = np.flatnonzero(np.isin(cls, present))
    matched = with_ref[:0]
    if len(with_ref):
        # each row's candidate set: the first of its frame's crops with
        # the highest IoU with the box; det-backed rows carry the detection
        # box verbatim, so the right set matches at IoU 1, and 0.5 rejects
        # overlap with a neighboring instrument's crop
        k, j, counts = frame_pairs(frames[with_ref], set_frames)
        v = iou_pairs(boxes[with_ref][k], set_boxes[j])
        # pairs by row, then highest IoU first, then set order
        order = np.lexsort((-v, k))
        top = order[(np.cumsum(counts) - counts)[counts > 0]]
        won = top[v[top] >= 0.5]
        matched = with_ref[k[won]]
        tips[matched] = localize_tip(
            table, sets[j[won]], [references[kinds[i]] for i in present],
            np.searchsorted(present, cls[matched]))

    # each (class, frame)'s tip comes from its best row: lowest rank, then
    # the older object
    slot = cls * n_frames + frames
    order = np.lexsort((oids, ranks, slot))
    win = order[np.unique(slot[order], return_index=True)[1]]
    trajectories = []
    for c in np.unique(cls).tolist():
        mine = win[cls[win] == c]
        points: list[Optional[tuple[float, float]]] = [None] * n_frames
        for f, p in zip(frames[mine].tolist(), map(tuple, tips[mine].tolist())):
            points[f] = p
        trajectories.append(TipTrajectory(instrument_id=c, points=points))

    _save(proc_dir, memo, tips=trajectories,
          tips_classes={tr.instrument_id: kinds[tr.instrument_id]
                        for tr in trajectories})
    return {"n_trajectories": len(trajectories), "n_localized": len(matched)}


def stage_features(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Tip trajectories -> kinematic feature matrix + presence matrix."""
    meta = _load(proc_dir, "meta", memo)
    class_map = _load(proc_dir, "tips_classes", memo)
    trajectories = _load(proc_dir, "tips", memo)
    if not trajectories:
        raise ValueError(
            f"{_path(proc_dir, 'tips')}: no tip trajectories, so the "
            "'features' stage has nothing to compute (an empty or all-idle "
            "detection stream?)")
    # the sidecar's frame count is what eval checks segments.csv against
    if len(trajectories[0]) != int(meta["n_frames"]):
        raise _bad(proc_dir, "tips", f"the tips cover {len(trajectories[0])} "
                   f"frames, but meta.json has {meta['n_frames']}")
    f = cfg.features
    extractor = KinematicFeatureExtractor(downsample=f.downsample)
    km = extractor.transform(trajectories, float(meta["fps"]))
    sidecar = {
        "native_fps": float(meta["fps"]),
        "effective_fps": km.fps,
        "downsample": f.downsample,
        "n_frames_native": int(meta["n_frames"]),
        "instrument_ids": km.instrument_ids,
        "mask_classes": [class_map[i].value if i in class_map else None
                         for i in km.instrument_ids],
    }
    # both matrices are float64 already and the sidecar's values are
    # JSON-native; its file holds the keys sorted
    _save(proc_dir, memo, features=(km.X, km.feature_names),
          features_meta=dict(sorted(sidecar.items())),
          presence=(km.presence_mask,
                    [f"present_{i}" for i in km.instrument_ids]))
    return {"shape": list(km.X.shape), "effective_fps": km.fps}


def _features(proc_dir, memo) -> np.ndarray:
    """The feature matrix, which must have rows."""
    X, _ = _load(proc_dir, "features", memo)
    if not len(X):
        raise _bad(proc_dir, "features", "no feature rows")
    return X


def _segments(proc_dir, memo, taus: Sequence[int],
              n_rows: Optional[int] = None) -> tuple[list[dict], np.ndarray]:
    """The segments and their edges, which must be [0, *taus, n_rows]: cut
    at the boundaries ``taus`` of boundaries.csv and, when ``n_rows`` is
    given, tiling exactly that many feature rows."""
    segs = _load(proc_dir, "segments", memo)
    # load_segments has checked that the rows tile the frames from 0
    edges = [0] + [s["end_frame"] for s in segs]
    if n_rows is not None and edges[-1] != n_rows:
        raise _bad(proc_dir, "segments", f"the segments end at frame "
                   f"{edges[-1]}, not at feature row {n_rows}")
    if edges[1:-1] != list(taus):
        raise _bad(proc_dir, "segments", f"the segments do not start at the "
                   f"{len(taus)} boundaries of boundaries.csv")
    return segs, np.array(edges, dtype=np.int64)


def stage_segment(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Feature matrix -> novelty curve -> boundary frames."""
    X = _features(proc_dir, memo)
    g = cfg.segmentation
    det = NoveltyBoundaryDetector(
        half_width=g.half_width, sigma=g.sigma,
        prominence_frac=g.prominence_frac, min_distance=g.min_distance)
    det.fit(X)
    _save(proc_dir, memo, novelty=det.novelty_,
          boundaries=([int(t) for t in det.boundaries_],
                      [float(p) for p in det.prominences_]))
    return {"n_boundaries": int(len(det.boundaries_))}


def stage_cluster(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Boundaries -> segments -> K-means -> action-labeled segments.

    With K = 4 and known instrument classes the clusters get semantic
    action names from their centroid presence patterns; otherwise the
    action column falls back to the cluster id and only the optimal
    alignment in `eval` can name frames.  With fewer segments than
    ``n_clusters``, K is clamped to the segment count and the summary
    says ``k_clamped``.
    """
    X = _features(proc_dir, memo)
    mask, _ = _load(proc_dir, "presence", memo)
    taus, _ = _load(proc_dir, "boundaries", memo)
    sidecar = _load(proc_dir, "features_meta", memo)
    eff_fps = float(sidecar["effective_fps"])
    if not eff_fps > 0:
        raise _bad(proc_dir, "features_meta",
                   f"effective_fps {eff_fps} is not positive")
    c = cfg.clustering
    if taus and taus[-1] >= X.shape[0]:
        raise _bad(proc_dir, "boundaries", f"boundary {taus[-1]} is not "
                   f"inside the {X.shape[0]} frames of features.csv")
    edges = segment_edges(taus, X.shape[0])
    F = segment_features(X, mask, edges, mask_weight=c.mask_weight)
    k = min(c.n_clusters, len(F))
    model = kmeans(F, k, seed=cfg.seed, restarts=c.restarts,
                   max_iter=c.max_iter)

    mask_classes = [InstrumentClass(v) if v else None
                    for v in sidecar.get("mask_classes", [])]
    mapping: Optional[dict[int, ActionClass]] = None
    flags: list[str] = []
    if k == 4 and mask_classes and all(mask_classes):
        mapping, flags = semantic_label(model.centroids, X.shape[1],
                                        mask_classes)

    bounds = edges.tolist()
    rows = []
    for i, cluster in enumerate(model.assignments.tolist()):
        a, b = bounds[i], bounds[i + 1]
        action = mapping[cluster].value if mapping else str(cluster)
        rows.append({"index": i, "start_frame": a, "end_frame": b,
                     "cluster": cluster, "action": action,
                     "duration_s": (b - a) / eff_fps})
    keep = {"segments": rows}
    if mapping:
        stream = np.repeat(model.assignments, np.diff(edges))
        labels = [mapping[k] for k in stream.tolist()]
        keep["pred_labels"] = _expand_to_native(
            labels, int(sidecar["downsample"]),
            int(sidecar["n_frames_native"]))
    else:
        # an older semantic run must not feed eval, from disk or memo
        _path(proc_dir, "pred_labels").unlink(missing_ok=True)
        if memo is not None:
            memo.pop("pred_labels", None)
    _save(proc_dir, memo, **keep)
    return {"n_segments": len(rows), "inertia": model.inertia,
            "semantic": mapping is not None, "tie_flags": flags,
            "k_clamped": k < c.n_clusters}


def _expand_to_native(labels: Sequence, factor: int, n_native: int) -> list:
    """Undo feature downsampling by repetition; frame t maps to t // factor."""
    if factor == 1 and len(labels) >= n_native:
        return list(labels[:n_native])
    return [labels[min(t // factor, len(labels) - 1)] for t in range(n_native)]


def _sidecar(proc_dir, memo) -> dict:
    """``features.csv.meta.json``; empty without one."""
    if not _exists(proc_dir, "features_meta", memo):
        return {}
    return _load(proc_dir, "features_meta", memo)


def stage_eval(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Score predictions against the directory's ground truth."""
    meta = _load(proc_dir, "meta", memo)
    native_fps = float(meta["fps"])
    gt_labels = _load(proc_dir, "labels", memo)
    sidecar = _sidecar(proc_dir, memo)
    factor = int(sidecar.get("downsample", 1))
    n_native = len(gt_labels)

    result: dict = {"procedure_id": meta.get("procedure_id")}

    # the feature rows are the native frames, every factor-th kept
    taus, _ = _load(proc_dir, "boundaries", memo)
    segs, edges = _segments(
        proc_dir, memo, taus,
        -(-int(sidecar["n_frames_native"]) // factor) if sidecar else None)
    cluster_stream = np.repeat([s["cluster"] for s in segs], np.diff(edges))
    cluster_native = _expand_to_native(cluster_stream.tolist(), factor,
                                       n_native)
    _, aligned = align_clusters(cluster_native, gt_labels)
    result["frame_aligned"] = frame_metrics(aligned, gt_labels).to_dict()

    if _exists(proc_dir, "pred_labels", memo):
        pred = _load(proc_dir, "pred_labels", memo)
        if len(pred) != len(gt_labels):
            raise _bad(proc_dir, "pred_labels", f"the labels cover "
                       f"{len(pred)} frames, but labels.csv has "
                       f"{len(gt_labels)}")
        result["frame"] = frame_metrics(pred, gt_labels).to_dict()

    gt_taus, _ = _load(proc_dir, "boundaries_truth", memo)
    tol = int(round(cfg.evaluation.boundary_tolerance_s * native_fps))
    taus_native = [t * factor for t in taus]
    result["boundary"] = boundary_metrics(taus_native, gt_taus, tol).to_dict()

    if (_exists(proc_dir, "truth", memo)
            and _exists(proc_dir, "refined", memo)):
        dets = _load(proc_dir, "detections", memo)
        refined = _load(proc_dir, "refined", memo)
        truth = _load(proc_dir, "truth", memo)
        rr, cr = recovery_correction_rates(dets, refined, truth,
                                           iou_threshold=cfg.tracking.iou_gate)
        result["tracking"] = {"recovery_rate": rr, "correction_rate": cr}

    _save(proc_dir, None, eval=result)
    return result


# ---------------------------------------------------------------------------
# skill stages (train across directories, predict per directory)


def _skill_rows(proc_dir, cfg: PipelineConfig, memo=None
                ) -> list[tuple[int, ActionClass, int, np.ndarray]]:
    """(segment index, action, repetition ordinal, feature vector) per
    rated-action segment, in segment order."""
    X = _features(proc_dir, memo)
    mask, _ = _load(proc_dir, "presence", memo)
    taus, _ = _load(proc_dir, "boundaries", memo)
    seg_rows, edges = _segments(proc_dir, memo, taus, len(X))
    F = segment_features(X, mask, edges,
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
        scores = _load(proc_dir, "scores", None)
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
        io.save_json(summary, summary_path)
    return summary


def predict_skill(proc_dir, cfg: PipelineConfig, model_path, *,
                  memo=None) -> dict:
    """Grade each rated-action segment and summarize per action type."""
    model_path = Path(model_path)
    if not model_path.exists():
        raise FileNotFoundError(
            f"missing model {model_path}; run 'train-skill' first")
    model = SkillGradientBoosting.load(model_path)
    rows = _skill_rows(proc_dir, cfg, memo)
    graded = []
    if rows:
        X = np.vstack([vec for *_, vec in rows])
        if X.shape[1] != model.n_features_in_:
            raise ValueError(
                f"{model_path}: model fitted on {model.n_features_in_} "
                f"features, but {proc_dir} has {X.shape[1]}; retrain or "
                "use the config the model was trained with")
        graded = zip(*skill_predict(model, X))
    per_segment = []
    by_action: dict[str, list[int]] = {}
    for (index, action, rep, _), (level, proba) in zip(rows, graded):
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
    _save(proc_dir, None, skill_pred=out)
    return out


# ---------------------------------------------------------------------------
# report


def _rounded(values, digits: int) -> np.ndarray:
    """``round(float(v), digits)`` of each value, as an array.

    ``rint(v * 10**digits) / 10**digits`` is round()'s float wherever the
    product's own rounding cannot move it across a half-integer: both are
    then the nearest double to the same correctly rounded decimal, with
    the sign of v kept on a zero.  The rest (within a few ulps of a tie,
    beyond 2**52 or not finite) go through round() itself.
    """
    x = np.asarray(values, dtype=np.float64)
    scale = 10.0 ** digits
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = x * scale
        out = np.rint(scaled) / scale
        doubt = ~(np.abs(scaled) < 2.0 ** 52) | (
            np.abs(scaled - np.floor(scaled) - 0.5)
            <= 4 * np.abs(np.spacing(scaled)))
    out[doubt] = [round(v, digits) for v in x[doubt].tolist()]
    return out


@functools.cache
def _preview_grid() -> np.ndarray:
    """``repr(k / 1e4)`` for each k in [0, 10**4], as ASCII bytes
    zero-padded to one width; none is longer than "0.0001"."""
    return np.array([repr(k / 1e4) for k in range(10 ** 4 + 1)], dtype="S6")


def _preview_rows(S: np.ndarray) -> list:
    """The rows of ``_rounded(S, 4)`` as the report's JSON holds them.

    Each value of a rounded enhanced SSM is k / 1e4 for some k in
    [0, 10**4], so each row is joined from the repr table of
    :func:`_preview_grid` and comes as an ``io.EncodedList``.  A matrix
    holding any value whose bits k / 1e4 does not give back comes as
    nested lists, for the encoder.
    """
    R = _rounded(S, 4)
    k = np.rint(R * 1e4)
    if not np.all((k >= 0) & (k <= 1e4)):  # NaN fails too
        return R.tolist()
    k = k.astype(np.intp)
    if not np.array_equal((k / 1e4).view(np.int64), R.view(np.int64)):
        return R.tolist()
    # each value's repr and then ", " in a fixed-width cell; the zero bytes
    # that pad the cells drop out, and "\n" ends a row instead of ", "
    n, m = R.shape
    cells = np.zeros((n, m, 8), dtype=np.uint8)
    cells[:, :, :6] = _preview_grid()[k].view(np.uint8).reshape(n, m, 6)
    cells[:, :-1, 6:] = np.frombuffer(b", ", dtype=np.uint8)
    cells[:, -1, 6] = ord("\n")
    text = cells[cells != 0].tobytes().decode("ascii")
    return [io.EncodedList(f"[{row}]") for row in text.split("\n")[:-1]]


def _ssm_preview(X: np.ndarray, max_side: int = 256) -> dict:
    stride = max(1, math.ceil(X.shape[0] / max_side))
    S = ssm(X[::stride])
    enhance(S)
    return {"stride": stride, "values": _preview_rows(S)}


def _fmt_ratio(v) -> str:
    return "n/a" if v is None else f"{v:.3f}"


def stage_report(proc_dir, cfg: PipelineConfig, *, memo=None) -> dict:
    """Human-readable summary tables plus plot-ready curves.

    report.txt carries the tracking-repair, segmentation-quality and
    skill tables; report.json carries the novelty curve, boundaries,
    label ribbons and a decimated enhanced SSM for plotting.
    """
    meta = _load(proc_dir, "meta", memo)
    novelty = _load(proc_dir, "novelty", memo)
    taus, proms = _load(proc_dir, "boundaries", memo)
    X = _features(proc_dir, memo)
    segs, _ = _segments(proc_dir, memo, taus, len(X))
    downsample = int(_sidecar(proc_dir, memo).get("downsample", 1))

    eval_result = skill = None
    if _exists(proc_dir, "eval", memo):
        eval_result = _load(proc_dir, "eval", memo)
    if _exists(proc_dir, "skill_pred", memo):
        skill = _load(proc_dir, "skill_pred", memo)
    # ActionClass is a str enum, so JSON writes each label as its value
    pred_ribbon = truth_ribbon = None
    if _exists(proc_dir, "pred_labels", memo):
        pred_ribbon = _load(proc_dir, "pred_labels", memo)
    if _exists(proc_dir, "labels", memo):
        truth_ribbon = _load(proc_dir, "labels", memo)

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

    report = {
        "procedure_id": meta.get("procedure_id"),
        "fps": meta["fps"],
        "feature_downsample": downsample,
        "novelty": _rounded(novelty, 6).tolist(),
        "boundaries": [int(t) for t in taus],
        "prominences": _rounded(proms, 6).tolist(),
        "segments": segs,
        "ribbons": {"predicted": pred_ribbon, "truth": truth_ribbon},
        "ssm_preview": _ssm_preview(X),
        "metrics": eval_result,
        "skill": skill,
    }
    _save(proc_dir, None, report_txt="\n".join(lines) + "\n",
          report_json=report)
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
    artifact is parsed at most once, and each stage writes its files when
    it ends.  So a stage that fails, or a write that fails, stops the run
    where the stage run on its own stops, with the same error and the
    same files on disk.  With a second usable CPU, one forked child parses
    the tip candidates while track runs; where it cannot start
    (:meth:`_Child.start`), or dies, the tips stage parses them
    in-process.  The child is ended before this returns or raises.
    """
    parse = None
    if (_path(proc_dir, "candidates").exists()
            and _path(proc_dir, "references").exists()):
        parse = _Child.start(_load, proc_dir, "candidates", None)
    memo = {"candidates": parse} if parse else {}
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
        if parse is not None:
            parse.close()
    return out
