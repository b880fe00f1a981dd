#!/usr/bin/env python3
"""Fast self-check of the benchmark itself, at the smallest input sizes.

    python3 perfbench/selfcheck.py

It checks three things, so that a renamed public function fails here
instead of showing up as a layer that reads zero:

1. every patch point the tracer wraps still exists, and after the
   wrappers are removed no microact name is left bound to one;
2. each workload's path runs once, traced and untraced, correctly;
3. every metric named in BENCHMARK.json is printed with its unit, and
   each layer the workload exercises reads above zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# layers that must read above zero in the traced run of each workload
EXERCISED = {
    "runall-30fps": ("pipeline.track_s", "pipeline.tips.self_s", "io.parse_s",
                     "io.serialize_s", "tracking.run_s",
                     "tracking.localize_tip_s", "tracking.rates_s",
                     "kinematics.transform_s", "segmentation.fit_s",
                     "clustering.kmeans_s", "metrics.frame_metrics_s",
                     "synth.generate_s", "synth.write_s"),
    "resegment-sweep": ("pipeline.segment_s", "io.load_matrix_s",
                        "segmentation.ssm_band_s", "segmentation.band_mb",
                        "clustering.segment_features_s", "synth.generate_s"),
    "train-skill": ("pipeline.train_skill_s", "pipeline.predict_skill_s",
                    "skill.fit_s", "skill.cv_s", "skill.predict_s",
                    "skill.trees", "synth.generate_s"),
}


def check_patch_points() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer

    originals = {name: tracer.resolve(target)
                 for name, (target, _) in tracer.POINTS.items()}
    t = tracer.Tracer()
    t.install()
    wrapped = [name for name, (owner, attr, fn) in originals.items()
               if vars(owner)[attr] is fn]
    assert not wrapped, f"install left these unwrapped: {wrapped}"
    t.remove()
    assert not tracer.leftover_wrappers(), tracer.leftover_wrappers()
    moved = [name for name, (owner, attr, fn) in originals.items()
             if vars(owner)[attr] is not fn]
    assert not moved, f"remove did not restore: {moved}"
    print(f"selfcheck: {len(originals)} patch points resolve and restore")


def check_workload(bench: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{cmd} failed:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    expected = {s["name"]: s["unit"] for s in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, f"metric names or units differ: {got}"
    values = {k: v["value"] for k, v in result["metrics"].items()}
    must = EXERCISED[workload] if trace else list(expected)
    zero = [k for k in must if k != "ok_rate" and not values[k] > 0]
    assert not zero, f"{workload}: these read zero: {zero}"
    print(f"selfcheck: {workload} trace={trace} ok "
          f"({result['attempted']} ops)")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(EXERCISED)
    check_patch_points()
    for workload in EXERCISED:
        for trace in (0, 1):
            check_workload(bench, workload, trace)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
