"""Synthetic procedures with known ground truth.

Each action class gets a kinematic regime with a distinct signature so
the downstream feature space separates them by construction:

  Cutting        scissors only, figure-eight oscillation, high jerk
  NeedleDriving  both drivers plus needle on a slow smooth arc, small
                 constant tip separation, velocities aligned
  KnotTying      drivers on opposite sides of a rotating, pulsating
                 radius: large oscillating separation, opposed velocities
  NoAction       all instruments absent

Dropouts (short removed runs) and single-frame class flips are injected
on top, with the removed/flipped events recorded so repair quality can
be scored exactly.  Everything is a pure function of (script, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import io
from .records import (ActionClass, BBox, Detection, InstrumentClass,
                      SkillLevel, SkillScore, TipCandidateTable, TipTrajectory,
                      TruthInstance)
from .validation import check_fraction

BOX_SIZE = 40.0
CANVAS = (640.0, 480.0)
DESCRIPTOR_DIM = 16
APPEARANCE_DIM = 8
N_CANDIDATES = 5

# instrument slot layout; slot index doubles as the truth object_id
SLOT_CLASSES = [
    InstrumentClass.SCISSORS_C,
    InstrumentClass.NEEDLE_DRIVER_C,
    InstrumentClass.NEEDLE_DRIVER_S,
    InstrumentClass.NEEDLE,
]

SLOPPINESS_BY_LEVEL = {
    SkillLevel.GOOD: 0.1,
    SkillLevel.MODERATE: 0.5,
    SkillLevel.POOR: 0.9,
}


def _reference_descriptors() -> dict[InstrumentClass, np.ndarray]:
    # fixed across runs: one seeded draw per class in enum order
    rng = np.random.default_rng(0xD15C)
    refs = {}
    for cls in InstrumentClass:
        v = rng.normal(size=DESCRIPTOR_DIM)
        refs[cls] = v / np.linalg.norm(v)
    return refs


REFERENCE_DESCRIPTORS = _reference_descriptors()


@dataclass
class ActionSpec:
    action: ActionClass
    duration_s: float

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")


@dataclass
class ProcedureScript:
    steps: list[ActionSpec]
    fps: float = 5.0
    seed: int = 0
    noise: float = 0.5          # detection box jitter, px std
    dropout_rate: float = 0.0   # fraction of detection-frames removed
    dropout_max_run: int = 5    # longest removed run, frames
    mislabel_rate: float = 0.0  # fraction of detection-frames class-flipped
    sloppiness: float = 0.0     # 0 clean .. 1 tremulous; also jitters durations

    def __post_init__(self):
        if not self.steps:
            raise ValueError("script has no steps")
        if self.fps <= 0:
            raise ValueError("fps must be > 0")
        check_fraction(self.dropout_rate, "dropout_rate")
        check_fraction(self.mislabel_rate, "mislabel_rate")
        check_fraction(self.sloppiness, "sloppiness")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.dropout_max_run < 1:
            raise ValueError("dropout_max_run must be >= 1")


def paper_shaped_script(fps: float = 5.0, seed: int = 0, noise: float = 0.5,
                        dropout_rate: float = 0.0, dropout_max_run: int = 5,
                        mislabel_rate: float = 0.0, sloppiness: float = 0.0,
                        cut_s: float = 5.0, drive_s: float = 9.0,
                        tie_s: float = 7.0, idle_s: float = 3.0,
                        ) -> ProcedureScript:
    """Vessel preparation (three cuts) then eight stitches of
    drive/tie/cut, idle gaps between every action: 27 action segments."""
    steps = [ActionSpec(ActionClass.NO_ACTION, idle_s)]
    for _ in range(3):
        steps.append(ActionSpec(ActionClass.CUTTING, cut_s))
        steps.append(ActionSpec(ActionClass.NO_ACTION, idle_s))
    for _ in range(8):
        for action, dur in ((ActionClass.NEEDLE_DRIVING, drive_s),
                            (ActionClass.KNOT_TYING, tie_s),
                            (ActionClass.CUTTING, cut_s)):
            steps.append(ActionSpec(action, dur))
            steps.append(ActionSpec(ActionClass.NO_ACTION, idle_s))
    return ProcedureScript(steps=steps, fps=fps, seed=seed, noise=noise,
                           dropout_rate=dropout_rate,
                           dropout_max_run=dropout_max_run,
                           mislabel_rate=mislabel_rate, sloppiness=sloppiness)


@dataclass
class SyntheticProcedure:
    script: ProcedureScript
    n_frames: int
    fps: float
    detections: list[Detection]
    truth: list[TruthInstance]
    trajectories: list[TipTrajectory]          # exact tips, one per slot
    labels: list[ActionClass]
    boundaries: list[int]                      # frames where a segment starts
    segments: list[tuple[int, int, ActionClass]]  # half-open [start, end)
    tip_candidates: TipCandidateTable          # sets by (frame, slot)
    reference_descriptors: dict[InstrumentClass, np.ndarray]
    scores: list[SkillScore]
    dropped: list[tuple[int, int]] = field(default_factory=list)
    mislabeled: list[tuple[int, int, InstrumentClass]] = field(
        default_factory=list)


def _segment_tips(action: ActionClass, n: int, fps: float, sloppiness: float,
                  rng: np.random.Generator) -> dict[int, np.ndarray]:
    """Closed-form tip paths for one segment, keyed by slot."""
    t = np.arange(n) / fps
    mx, my = CANVAS[0] * 0.5, CANVAS[1] * 0.5
    center = np.array([mx + rng.uniform(-80, 80), my + rng.uniform(-60, 60)])
    out: dict[int, np.ndarray] = {}
    if action == ActionClass.CUTTING:
        amp = 15.0
        w = 2.0 * (1.0 + 0.2 * rng.uniform(-1, 1))
        p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
        out[0] = np.stack([center[0] + amp * np.cos(w * t + p1),
                           center[1] + amp * np.sin(2 * w * t + p2)], axis=1)
    elif action == ActionClass.NEEDLE_DRIVING:
        w = 0.5 * (1.0 + 0.2 * rng.uniform(-1, 1))
        phase = rng.uniform(0, 2 * math.pi)
        theta = w * t + phase
        radius, sep = 60.0, 24.0
        base = np.stack([center[0] + radius * np.cos(theta),
                         center[1] + radius * np.sin(theta)], axis=1)
        normal = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        out[1] = base
        out[2] = base + sep * normal
        out[3] = base + (sep / 2) * normal + 6.0 * np.stack(
            [np.cos(theta), np.sin(theta)], axis=1)
    elif action == ActionClass.KNOT_TYING:
        w = 1.2 * (1.0 + 0.2 * rng.uniform(-1, 1))
        phase, pulse_phase = rng.uniform(0, 2 * math.pi, size=2)
        theta = w * t + phase
        rho = 35.0 + 10.0 * np.sin(0.8 * t + pulse_phase)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        out[1] = center + rho[:, None] * u
        out[2] = center - rho[:, None] * u
    if sloppiness > 0:
        # 1.8 Hz tremor; its jerk dwarfs the regimes' own, which is what
        # separates skill levels downstream
        for slot, path in out.items():
            phases = rng.uniform(0, 2 * math.pi, size=2)
            path += 3.0 * sloppiness * np.stack(
                [np.sin(2 * math.pi * 1.8 * t + phases[0]),
                 np.sin(2 * math.pi * 1.8 * t + phases[1])], axis=1)
    return out


def _sample_dropouts(present: list[int], rate: float, max_run: int,
                     rng: np.random.Generator) -> set[int]:
    """Remove ~rate of the given frames in runs of <= max_run, keeping
    runs separated and sparing the first frames of each presence run so a
    tracker can confirm the object before it blinks out."""
    if rate <= 0 or not present:
        return set()
    present_set = set(present)
    eligible = set()
    for f in present:
        # skip the opening 5 frames of each presence run
        if all(f - k in present_set for k in range(1, 6)):
            eligible.add(f)
    target = round(rate * len(present))
    dropped: set[int] = set()
    attempts = 0
    while len(dropped) < target and attempts < 50 * max(1, target):
        attempts += 1
        run = min(int(rng.integers(1, max_run + 1)), target - len(dropped))
        start = int(rng.choice(present))
        frames = [start + k for k in range(run)]
        # the whole run must be eligible and not touch an existing hole
        ok = all(f in eligible and f not in dropped for f in frames)
        ok = ok and all(f - 1 not in dropped and f + 1 not in dropped
                        for f in frames)
        if ok:
            dropped.update(frames)
    return dropped


def generate(script: ProcedureScript,
             seed: Optional[int] = None) -> SyntheticProcedure:
    rng = np.random.default_rng(script.seed if seed is None else seed)

    # durations jitter with sloppiness, then freeze the frame layout
    labels: list[ActionClass] = []
    segments: list[tuple[int, int, ActionClass]] = []
    seg_lengths = []
    for step in script.steps:
        dur = step.duration_s
        if script.sloppiness > 0:
            dur *= 1.0 + 0.25 * script.sloppiness * rng.uniform(-1, 1)
        seg_lengths.append(max(1, round(dur * script.fps)))
    start = 0
    for step, n in zip(script.steps, seg_lengths):
        segments.append((start, start + n, step.action))
        labels.extend([step.action] * n)
        start += n
    n_frames = start
    boundaries = [s for s, _, _ in segments[1:]]

    # per-slot appearance embeddings
    app_base = {}
    for slot in range(len(SLOT_CLASSES)):
        v = rng.normal(size=APPEARANCE_DIM)
        app_base[slot] = v / np.linalg.norm(v)

    # exact tip paths
    points: list[list] = [[None] * n_frames for _ in SLOT_CLASSES]
    for (s0, s1, action) in segments:
        tips = _segment_tips(action, s1 - s0, script.fps, script.sloppiness,
                             rng)
        for slot, path in tips.items():
            for k in range(s1 - s0):
                points[slot][s0 + k] = (float(path[k, 0]), float(path[k, 1]))
    trajectories = [
        TipTrajectory(instrument_id=slot, points=points[slot])
        for slot in range(len(SLOT_CLASSES))
    ]

    def true_box(tip) -> BBox:
        return (tip[0] - BOX_SIZE / 2, tip[1] - BOX_SIZE / 2,
                BOX_SIZE, BOX_SIZE)

    truth = []
    for f in range(n_frames):
        for slot, cls in enumerate(SLOT_CLASSES):
            tip = points[slot][f]
            if tip is not None:
                truth.append(TruthInstance(frame=f, object_id=slot,
                                           class_id=cls, bbox=true_box(tip)))

    # dropouts per slot, then isolated mislabels on the survivors
    dropped: list[tuple[int, int]] = []
    dropped_by_slot: dict[int, set[int]] = {}
    for slot in range(len(SLOT_CLASSES)):
        present = [f for f in range(n_frames) if points[slot][f] is not None]
        ds = _sample_dropouts(present, script.dropout_rate,
                              script.dropout_max_run, rng)
        dropped_by_slot[slot] = ds
        dropped.extend((f, slot) for f in sorted(ds))

    mislabeled: list[tuple[int, int, InstrumentClass]] = []
    mislabel_by_slot: dict[int, dict[int, InstrumentClass]] = {}
    others = {cls: [c for c in InstrumentClass if c != cls]
              for cls in InstrumentClass}
    for slot, cls in enumerate(SLOT_CLASSES):
        mislabel_by_slot[slot] = {}
        if script.mislabel_rate <= 0:
            continue
        ds = dropped_by_slot[slot]
        surviving = [f for f in range(n_frames)
                     if points[slot][f] is not None and f not in ds]
        surviving_set = set(surviving)
        target = round(script.mislabel_rate * len(surviving))
        chosen: set[int] = set()
        attempts = 0
        while len(chosen) < target and attempts < 50 * max(1, target):
            attempts += 1
            f = int(rng.choice(surviving))
            # single-frame flips inside stable runs only
            if (f in chosen or f - 1 in chosen or f + 1 in chosen
                    or f - 1 not in surviving_set
                    or f + 1 not in surviving_set):
                continue
            chosen.add(f)
        for f in sorted(chosen):
            wrong = others[cls][int(rng.integers(len(others[cls])))]
            mislabel_by_slot[slot][f] = wrong
            mislabeled.append((f, slot, wrong))

    detections = []
    # the candidate table's columns, one set per detection
    set_keys, set_boxes, cand_points, cand_descs = [], [], [], []
    shaft_step = np.array([6.0, 4.5])
    for f in range(n_frames):
        for slot, cls in enumerate(SLOT_CLASSES):
            tip = points[slot][f]
            if tip is None or f in dropped_by_slot[slot]:
                continue
            bx, by, bw, bh = true_box(tip)
            if script.noise > 0:
                bx += rng.normal(0, script.noise)
                by += rng.normal(0, script.noise)
            emitted_cls = mislabel_by_slot[slot].get(f, cls)
            a = app_base[slot] + 0.05 * rng.normal(size=APPEARANCE_DIM)
            app = a / np.linalg.norm(a)
            detections.append(Detection(frame=f, class_id=emitted_cls,
                                        bbox=(bx, by, bw, bh),
                                        confidence=float(rng.uniform(0.6, 1.0)),
                                        appearance=app))
            # tip candidates in box-local coordinates; the true tip's
            # local point lands back on the exact tip after the transform
            true_local = np.array([tip[0] - bx, tip[1] - by])
            true_idx = int(rng.integers(N_CANDIDATES))
            for i in range(N_CANDIDATES):
                cand_points.append(true_local - (i - true_idx) * shaft_step)
                if i == true_idx:
                    d = (REFERENCE_DESCRIPTORS[cls]
                         + 0.05 * rng.normal(size=DESCRIPTOR_DIM))
                else:
                    d = rng.normal(size=DESCRIPTOR_DIM)
                cand_descs.append(d / np.linalg.norm(d))
            set_keys.append((f, slot))
            set_boxes.append((bx, by, bw, bh))

    # expert-style scores driven by sloppiness, one per rated action type
    proc_id = f"synth-{script.seed if seed is None else seed:06d}"
    scores = []
    for action in (ActionClass.NEEDLE_DRIVING, ActionClass.KNOT_TYING):
        raw = 5.0 - 3.5 * script.sloppiness + rng.normal(0, 0.15)
        scores.append(SkillScore(procedure_id=proc_id, action_type=action,
                                 score=float(np.clip(raw, 1.0, 5.0))))

    return SyntheticProcedure(
        script=script, n_frames=n_frames, fps=script.fps,
        detections=detections, truth=truth, trajectories=trajectories,
        labels=labels, boundaries=boundaries, segments=segments,
        tip_candidates=TipCandidateTable(
            set_keys=np.array(set_keys, dtype=np.int64).reshape(-1, 2),
            boxes=np.array(set_boxes, dtype=np.float64).reshape(-1, 4),
            offsets=np.arange(0, N_CANDIDATES * len(set_keys) + 1,
                              N_CANDIDATES, dtype=np.int64),
            points=np.array(cand_points, dtype=np.float64).reshape(-1, 2),
            descriptors=np.array(cand_descs, dtype=np.float64).reshape(
                -1, DESCRIPTOR_DIM)),
        reference_descriptors=dict(REFERENCE_DESCRIPTORS),
        scores=scores, dropped=dropped, mislabeled=mislabeled)


def write_procedure(proc: SyntheticProcedure, out_dir) -> dict[str, str]:
    """Emit every synth-produced artifact but meta.json for one procedure;
    returns their paths by artifact key."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values = {
        "detections": proc.detections,
        "truth": proc.truth,
        "tips_truth": proc.trajectories,
        "labels": proc.labels,
        "boundaries_truth": (proc.boundaries, [0.0] * len(proc.boundaries)),
        "candidates": proc.tip_candidates,
        "references": proc.reference_descriptors,
        "scores": proc.scores,
    }
    paths = {key: str(out / io.ARTIFACTS[key][0]) for key in values}
    for key, value in values.items():
        io.save_artifact(key, value, paths[key])
    return paths
