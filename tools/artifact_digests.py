#!/usr/bin/env python3
"""SHA-256 of every artifact the pipeline writes, over a fixed seed set.

    python3 tools/artifact_digests.py SRC_DIR OUT_DIR > digests.json

SRC_DIR is the ``src`` directory of the checkout to run; its microact
package and the ``perfbench/workloads.py`` beside it are imported.  For
each seed 1 to 20, two procedures are made under OUT_DIR: one at the
5 fps defaults and one at ``workloads.MESSY_30FPS``.  Each gets
``run_all``, then segment, cluster and report at half-widths 60 and 150.
A second directory made from the same seed and settings gets each stage
of ``pipeline.STAGES`` that needs no model, track through report, run on
its own, as the CLI runs them one at a time.  After each pass the digest
of every file in the directory is recorded.  The output is one JSON map
of ``seed/fps/pass/file`` to its digest, with sorted keys, where pass is
``run_all``, ``h60``/``h150`` or ``stages``.  Last, the
skill pass: the 5 fps procedures of ``SKILL_PROCS``, made at a given skill
level so that the grades differ, get ``run_all``; one model is trained on
them with ``SKILL_ROUNDS`` boosting rounds, and each gets
``predict_skill`` and a new report.  The model and the training summary
are recorded under ``skill``, each directory under ``seed/skill``.  Two
checkouts give the same bytes exactly when every artifact matches, so
compare the two outputs with ``cmp``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

SEEDS = range(1, 21)
HALF_WIDTHS = (60, 150)
SKILL_PROCS = (("POOR", 1), ("MODERATE", 2), ("GOOD", 3), ("POOR", 4))
SKILL_ROUNDS = 10


def record(d: Path, prefix: str, digests: dict) -> None:
    for f in sorted(d.iterdir()):
        digests[f"{prefix}/{f.name}"] = hashlib.sha256(
            f.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: artifact_digests.py SRC_DIR OUT_DIR", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.path[:0] = [str(src), str(src.parent / "perfbench")]
    from microact import pipeline
    from microact.records import SkillLevel
    from workloads import MESSY_30FPS, config

    digests: dict[str, str] = {}
    for seed in SEEDS:
        for fps, sections in ((5, None), (30, MESSY_30FPS)):
            d = out / f"seed{seed}_{fps}fps"
            shutil.rmtree(d, ignore_errors=True)
            cfg = config(seed, sections)
            pipeline.stage_synth(d, cfg)
            pipeline.run_all(d, cfg)
            record(d, f"{seed}/{fps}/run_all", digests)
            for h in HALF_WIDTHS:
                cfg_h = config(seed, sections, segmentation={"half_width": h})
                for stage in (pipeline.stage_segment, pipeline.stage_cluster,
                              pipeline.stage_report):
                    stage(d, cfg_h)
                record(d, f"{seed}/{fps}/h{h}", digests)
            d = out / f"seed{seed}_{fps}fps_stages"
            shutil.rmtree(d, ignore_errors=True)
            pipeline.stage_synth(d, cfg)
            for _, fn_name, when in pipeline.STAGES:
                if when != "model":
                    getattr(pipeline, fn_name)(d, cfg)
            record(d, f"{seed}/{fps}/stages", digests)
    dirs = [out / f"skill_seed{seed}" for _, seed in SKILL_PROCS]
    for d, (level, seed) in zip(dirs, SKILL_PROCS):
        shutil.rmtree(d, ignore_errors=True)
        pipeline.stage_synth(d, config(seed), level=SkillLevel[level])
        pipeline.run_all(d, config(seed))
    model_dir = out / "skill"
    shutil.rmtree(model_dir, ignore_errors=True)
    model_dir.mkdir(parents=True)
    cfg = config(0, skill={"n_estimators": SKILL_ROUNDS})
    pipeline.train_skill(dirs, cfg, model_dir / "model.json",
                         model_dir / "train_summary.json")
    record(model_dir, "skill", digests)
    for d, (_, seed) in zip(dirs, SKILL_PROCS):
        pipeline.predict_skill(d, config(seed), model_dir / "model.json")
        pipeline.stage_report(d, config(seed))
        record(d, f"{seed}/skill", digests)
    json.dump(digests, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
