"""The benchmark's workloads, built on microact's public pipeline functions.

A workload makes its inputs in ``setup_units`` (run in a separate process
and timed unit by unit), then the measured phase runs ops over ``items``
round robin.  An op is a list of ``Step``s; the runner times each step,
then, outside the timed region, hashes the step's artifacts and calls its
``after`` hook for quality numbers and failure reasons.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Optional

from microact import io, metrics, pipeline, synth
from microact.config import load_config
from microact.records import SkillLevel

# criterion 6's floors on the messy 30 fps stream
RECOVERY_FLOOR = 0.95
CORRECTION_FLOOR = 0.90

# frame-unit settings scaled to 30 fps, as the README's Configuration asks
MESSY_30FPS = {
    "synth": {"fps": 30.0, "dropout_rate": 0.1, "mislabel_rate": 0.05},
    "tracking": {"max_coast": 30},
    "segmentation": {"half_width": 60, "min_distance": 30},
}


@dataclasses.dataclass
class Step:
    key: str                       # one input; its digests must repeat
    run: Callable[[], object]
    artifacts: list[Path]
    after: Optional[Callable[[object], dict]] = None


def config(seed: int, sections: Optional[dict] = None, **more):
    """Defaults plus overrides; MICROACT_* variables are ignored."""
    overrides: dict = {"seed": seed}
    for source in (sections or {}, more):
        for name, fields in source.items():
            overrides[name] = {**overrides.get(name, {}), **fields}
    return load_config(environ={}, overrides=overrides)


def n_frames(proc_dir: Path) -> int:
    return int(json.loads((proc_dir / "meta.json").read_text())["n_frames"])


def segmentation_quality(proc_dir: Path, cfg) -> dict:
    """Frame accuracy and boundary F1 of one directory's artifacts."""
    gt = io.load_labels(proc_dir / "labels.csv")
    pred_path = proc_dir / "predicted_labels.csv"
    if not pred_path.exists():
        return {"fail": [f"{pred_path.name} missing: no semantic labels"]}
    sidecar = json.loads((proc_dir / "features.csv.meta.json").read_text())
    factor = int(sidecar["downsample"])
    taus, _ = io.load_boundaries(proc_dir / "boundaries.csv")
    gt_taus, _ = io.load_boundaries(proc_dir / "boundaries_truth.csv")
    tol = int(round(cfg.evaluation.boundary_tolerance_s
                    * float(sidecar["native_fps"])))
    return {"frame_acc": metrics.frame_metrics(io.load_labels(pred_path),
                                               gt).accuracy,
            "boundary_f1": metrics.boundary_metrics(
                [t * factor for t in taus], gt_taus, tol).f1}


RUN_ALL_OUTPUTS = ("track_rows.jsonl", "refined_tracks.jsonl", "tips.csv",
                   "tips_classes.json", "features.csv",
                   "features.csv.meta.json", "presence.csv", "novelty.csv",
                   "boundaries.csv", "segments.csv", "predicted_labels.csv",
                   "eval.json", "report.txt", "report.json")
RESEGMENT_OUTPUTS = ("novelty.csv", "boundaries.csv", "segments.csv",
                     "predicted_labels.csv", "report.txt", "report.json")


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, tiny: bool = False):
        self.seed = seed

    def proc_seed(self, i: int) -> int:
        return self.seed * 10 + i

    def setup_units(self) -> list[tuple[str, Callable[[], None]]]:
        raise NotImplementedError

    def items(self) -> list:
        raise NotImplementedError

    def steps(self, item) -> list[Step]:
        raise NotImplementedError

    def frames(self, item) -> int:
        raise NotImplementedError

    def final_quality(self) -> dict:
        """Quality of inputs no op rewrites, keyed by input."""
        return {}


class RunAll30(Workload):
    """run_all on messy 30 fps paper-shaped procedures."""

    name = "runall-30fps"

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed, tiny)
        n = 1 if tiny else 2
        self.dirs = [work / f"proc{i}" for i in range(n)]
        self.cfgs = [config(self.proc_seed(i), MESSY_30FPS) for i in range(n)]

    def setup_units(self):
        return [(d.name, lambda d=d, c=c: pipeline.stage_synth(d, c))
                for d, c in zip(self.dirs, self.cfgs)]

    def items(self):
        return list(range(len(self.dirs)))

    def frames(self, i):
        return n_frames(self.dirs[i])

    def steps(self, i):
        d, cfg = self.dirs[i], self.cfgs[i]

        def after(_):
            out = segmentation_quality(d, cfg)
            rates = json.loads((d / "eval.json").read_text())["tracking"]
            rr, cr = rates["recovery_rate"], rates["correction_rate"]
            out.update(recovery_rate=rr, correction_rate=cr)
            if rr is None or rr < RECOVERY_FLOOR:
                out.setdefault("fail", []).append(f"recovery rate {rr}")
            if cr is None or cr < CORRECTION_FLOOR:
                out.setdefault("fail", []).append(f"correction rate {cr}")
            return out

        return [Step(d.name, lambda: pipeline.run_all(d, cfg),
                     [d / f for f in RUN_ALL_OUTPUTS], after)]


class ResegmentSweep(Workload):
    """Re-run segment -> cluster -> report over a half-width sweep on messy
    30 fps procedures whose upstream stages ran in set-up."""

    name = "resegment-sweep"

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed, tiny)
        n = 1 if tiny else 2
        self.sweep = (60,) if tiny else (60, 150)
        self.dirs = [work / f"proc{i}" for i in range(n)]
        self.cfgs = [config(self.proc_seed(i), MESSY_30FPS) for i in range(n)]

    def setup_units(self):
        def unit(d, cfg):
            for stage in (pipeline.stage_synth, pipeline.stage_track,
                          pipeline.stage_tips, pipeline.stage_features):
                stage(d, cfg)
        return [(d.name, lambda d=d, c=c: unit(d, c))
                for d, c in zip(self.dirs, self.cfgs)]

    def items(self):
        return list(range(len(self.dirs)))

    def frames(self, i):
        return n_frames(self.dirs[i]) * len(self.sweep)

    def steps(self, i):
        d = self.dirs[i]
        out = []
        for h in self.sweep:
            cfg = config(self.cfgs[i].seed, MESSY_30FPS,
                         segmentation={"half_width": h})

            def run(cfg=cfg):
                for stage in (pipeline.stage_segment, pipeline.stage_cluster,
                              pipeline.stage_report):
                    stage(d, cfg)

            out.append(Step(f"{d.name}:h{h}", run,
                            [d / f for f in RESEGMENT_OUTPUTS],
                            lambda _, cfg=cfg: segmentation_quality(d, cfg)))
        return out


class TrainSkill(Workload):
    """train_skill over the README's six level-preset 5 fps procedures, then
    predict_skill on each.

    The six procedures are the README's (synth seeds 10 to 15, run_all at
    the default config), whatever the benchmark seed.  GBDT cost depends on
    the data: two random six-procedure sets of the same 96 x 82 shape
    differed 1.7x in op time, which would swamp any regression bound.  The
    benchmark seed is the training config seed, which picks the CV folds.
    """

    name = "train-skill"
    README = ((SkillLevel.POOR, 10), (SkillLevel.POOR, 11),
              (SkillLevel.MODERATE, 12), (SkillLevel.MODERATE, 13),
              (SkillLevel.GOOD, 14), (SkillLevel.GOOD, 15))

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed, tiny)
        self.procs = self.README[::5] if tiny else self.README
        self.dirs = [work / f"{lvl.name.lower()}{i % 2}"
                     for i, (lvl, _) in enumerate(self.procs)]
        # 200 default rounds would make one op about 90 s
        self.train_cfg = config(seed, skill={"n_estimators": 2 if tiny else 5})
        self.model = work / "model.json"
        self.summary = work / "train_summary.json"

    def setup_units(self):
        def unit(d, level, synth_seed):
            pipeline.stage_synth(d, config(synth_seed), level=level)
            pipeline.run_all(d, config(0))
        return [(d.name, lambda d=d, lv=lv, s=s: unit(d, lv, s))
                for d, (lv, s) in zip(self.dirs, self.procs)]

    def items(self):
        return [0]

    def frames(self, _):
        return sum(n_frames(d) for d in self.dirs)

    def steps(self, _):
        cfg = self.train_cfg

        def after_train(summary):
            cv = summary.get("cv")
            if not cv:
                return {"fail": [f"no cross-validation: "
                                 f"{summary.get('cv_skipped')}"]}
            return {"cv_acc": cv["accuracy"], "n_rows": summary["n_rows"]}

        steps = [Step("train", lambda: pipeline.train_skill(
                          self.dirs, cfg, self.model, self.summary),
                      [self.model, self.summary], after_train)]
        for d in self.dirs:
            steps.append(Step(f"predict:{d.name}",
                              lambda d=d: pipeline.predict_skill(
                                  d, cfg, self.model),
                              [d / "skill_predictions.json"]))
        return steps

    def final_quality(self):
        return {d.name: segmentation_quality(d, config(0)) for d in self.dirs}


WORKLOADS = {w.name: w for w in (RunAll30, ResegmentSweep, TrainSkill)}

