"""Span tracing around microact's public functions, from outside the package.

Each patch point swaps one public function or method for a wrapper that
records a span (name, parent span, start, end) and, at some points, counts
read from the call's arguments and result.  Nothing under ``src/`` changes.
A function that another microact module imported by name (``pipeline``
does ``from .tracking import localize_tip``) is patched under every name
that refers to it, and :meth:`Tracer.remove` puts every original back.

Spans and counts stay in memory; the caller turns them into per-op layer
metrics with :meth:`Tracer.op_metrics` and writes them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

MARK = "__perfbench_wrapped__"

IO_LOADS = ("load_detections", "load_tips", "load_labels", "load_scores",
            "load_track_rows", "load_refined_tracks", "load_truth_instances",
            "load_tip_candidates", "load_reference_descriptors", "load_matrix",
            "load_novelty", "load_boundaries", "load_segments")
IO_SAVES = ("save_detections", "save_tips", "save_labels", "save_scores",
            "save_track_rows", "save_refined_tracks", "save_truth_instances",
            "save_tip_candidates", "save_reference_descriptors", "save_matrix",
            "save_novelty", "save_boundaries", "save_segments")


def _file_bytes(path) -> int:
    total = 0
    for p in (str(path), str(path) + ".meta.json"):
        try:
            total += os.path.getsize(p)
        except OSError:
            pass
    return total


# -- count hooks: (tracer, bound arguments, result) -> None -----------------

def _io_read(tr, a, res):
    tr.counts["io.bytes_read"] += _file_bytes(a["path"])


def _io_written(tr, a, res):
    tr.counts["io.bytes_written"] += _file_bytes(a["path"])


def _tips_written(tr, a, res):
    _io_written(tr, a, res)
    if tr.parent_name() == "pipeline.tips":
        tr.counts["pipeline.tips.points"] += sum(
            p is not None for t in a["trajectories"] for p in t.points)


def _tips_stage(tr, a, res):
    tr.counts["pipeline.tips.localized"] += res["n_localized"]


def _tracker_run(tr, a, res):
    tr.counts["tracking.rows"] += len(res)
    tr.counts["tracking.coasted_rows"] += sum(r.det_index is None for r in res)
    lo, hi = a.get("first_frame"), a.get("last_frame")
    if lo is None or hi is None:
        frames = {d.frame for d in a["detections"]}
        lo, hi = (min(frames), max(frames)) if frames else (0, -1)
    tr.counts["tracking.frames"] += hi - lo + 1


def _refine(tr, a, res):
    tr.counts["tracking.objects_before_refine"] += len(
        {r.object_id for r in a["stream"]})
    tr.counts["tracking.objects_after_refine"] += len(res)


def _rates(tr, a, res):
    for key, value in zip(("recovery_rate", "correction_rate"), res):
        if value is not None:
            tr.counts[f"tracking.{key}.sum"] += value
            tr.counts[f"tracking.{key}.n"] += 1


def _detector_fit(tr, a, res):
    tr.counts["segmentation.boundaries"] += len(a["self"].boundaries_)


def _band(tr, a, res):
    mb = res.band.nbytes / 1e6
    tr.counts["segmentation.band_mb"] = max(tr.counts["segmentation.band_mb"], mb)


def _kmeans(tr, a, res):
    tr.counts["clustering.segments"] += len(res.assignments)
    tr.counts["clustering.kmeans.n_iter"] += res.n_iter


def _gbdt_fit(tr, a, res):
    tr.counts["skill.trees"] += sum(len(r) for r in a["self"].trees_)


def _cv(tr, a, res):
    tr.counts["skill.cv_acc.sum"] += res["accuracy"]
    tr.counts["skill.cv_acc.n"] += 1


# span name -> (target "module:attribute[.method]", count hook or None)
POINTS: dict[str, tuple[str, object]] = {
    "pipeline.track": ("microact.pipeline:stage_track", None),
    "pipeline.tips": ("microact.pipeline:stage_tips", _tips_stage),
    "pipeline.features": ("microact.pipeline:stage_features", None),
    "pipeline.segment": ("microact.pipeline:stage_segment", None),
    "pipeline.cluster": ("microact.pipeline:stage_cluster", None),
    "pipeline.eval": ("microact.pipeline:stage_eval", None),
    "pipeline.report": ("microact.pipeline:stage_report", None),
    "pipeline.train_skill": ("microact.pipeline:train_skill", None),
    "pipeline.predict_skill": ("microact.pipeline:predict_skill", None),
    "tracking.run": ("microact.tracking:InstrumentTracker.run", _tracker_run),
    "tracking.refine": ("microact.tracking:refine_identity", _refine),
    "tracking.localize_tip": ("microact.tracking:localize_tip", None),
    "tracking.rates": ("microact.tracking:recovery_correction_rates", _rates),
    "kinematics.transform": (
        "microact.kinematics:KinematicFeatureExtractor.transform", None),
    "segmentation.fit": (
        "microact.segmentation:NoveltyBoundaryDetector.fit", _detector_fit),
    "segmentation.ssm_band": ("microact.segmentation:ssm_band", _band),
    "segmentation.novelty": ("microact.segmentation:novelty", None),
    "segmentation.peak_pick": ("microact.segmentation:peak_pick", None),
    "segmentation.ssm": ("microact.segmentation:ssm", None),
    "clustering.kmeans": ("microact.clustering:kmeans", _kmeans),
    "clustering.segment_features": (
        "microact.clustering:segment_features", None),
    "clustering.align": ("microact.clustering:align_clusters", None),
    "metrics.frame_metrics": ("microact.metrics:frame_metrics", None),
    "metrics.boundary_metrics": ("microact.metrics:boundary_metrics", None),
    "skill.fit": ("microact.skill:SkillGradientBoosting.fit", _gbdt_fit),
    "skill.cv": ("microact.skill:cross_validate", _cv),
    "skill.predict": ("microact.skill:predict", None),
    "synth.generate": ("microact.synth:generate", None),
    "synth.write": ("microact.synth:write_procedure", None),
}
POINTS.update({f"io.{n}": (f"microact.io:{n}", _io_read) for n in IO_LOADS})
POINTS.update({f"io.{n}": (f"microact.io:{n}", _io_written) for n in IO_SAVES})
POINTS["io.save_tips"] = ("microact.io:save_tips", _tips_written)


def resolve(target: str):
    """(owner, attribute, original) for a patch point; raises if renamed."""
    mod_name, _, qual = target.partition(":")
    owner = importlib.import_module(mod_name)
    *outer, attr = qual.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"patch point {target} no longer exists")
    return owner, attr, vars(owner)[attr]


def microact_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "microact"
                                  or name.startswith("microact."))]


def leftover_wrappers() -> list[str]:
    """Names in microact modules and classes still bound to a wrapper."""
    found = []
    for mod in microact_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Spans and counts for one process; record only while ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []          # [name, parent index, t0, t1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def reset(self) -> None:
        self.spans, self._stack = [], []
        self.counts = defaultdict(float)

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        sig = inspect.signature(fn) if hook is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        """Wrap every patch point; fails loudly if one has been renamed."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        resolved = [(name, resolve(target), hook)
                    for name, (target, hook) in POINTS.items()]
        modules = microact_modules()
        for name, (owner, attr, original), hook in resolved:
            wrapper = self._wrap(name, original, hook)
            if inspect.isclass(owner):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, alias, original))
                        setattr(mod, alias, wrapper)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers left behind: {left}")

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: seconds, calls and self seconds; plus self seconds
        per layer (the span name's first component)."""
        child = [0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            dur, own = (t1 - t0) / 1e9, (t1 - t0 - child[i]) / 1e9
            out[f"{name}_s"] += dur
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.layer_self_s"] += own
        return out

    def op_metrics(self) -> dict:
        """Layer metrics for the spans and counts recorded since reset()."""
        t = self.totals()
        # ".sum"/".n" counts stay as they are: the caller divides their
        # totals over all ops into a mean over the calls that gave a value
        m = {**t, **self.counts}
        for layer in ("pipeline", "io", "tracking", "kinematics",
                      "segmentation", "clustering", "metrics", "skill",
                      "synth"):
            m[f"{layer}.self_s"] = t.get(f"{layer}.layer_self_s", 0.0)
        m["pipeline.tips.self_s"] = t.get("pipeline.tips.self_s", 0.0)
        for kind, names in (("parse", IO_LOADS), ("serialize", IO_SAVES)):
            m[f"io.{kind}_s"] = sum(t.get(f"io.{n}_s", 0.0) for n in names)
            m[f"io.{kind}.calls"] = sum(t.get(f"io.{n}.calls", 0.0)
                                        for n in names)
        m["trace.spans"] = len(self.spans)
        return m
