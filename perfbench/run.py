#!/usr/bin/env python3
"""Benchmark of the microact pipeline: one workload per run.

    python3 perfbench/run.py --workload runall-30fps --seed 1 --seconds 10 --trace 0

The inputs are made from --seed in a separate set-up process.  Then this
process runs ops (closed loop, one at a time) for --seconds, checks every
op's outputs, and prints as its last line one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named in
BENCHMARK.json.  The full record (host facts, per-op times, artifact
digests, layer breakdown) goes to perfbench/_results/.  The package is
imported from src/ of the checkout this file sits in; without it the run
exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_TIMEOUT_S = 150
# the reference chunk's time on an idle 2-vCPU Xeon guest; setup_s is
# set-up time at that speed
REFERENCE_CHUNK_S = 0.005
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs; used by selfcheck.py")
    p.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    import importlib.util

    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": os.environ[BLAS_THREAD_VARS[0]],
            "sklearn_importable":
                importlib.util.find_spec("sklearn") is not None,
            "git_commit": git_commit()}


def sha256(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


class Reference:
    """A fixed chunk of interpreter and memory-bound work, timed next to
    each op.

    The host's speed drifts by up to 2x over tens of seconds, for the
    interpreter and for memory access separately.  Dividing an op's wall
    time by this chunk's time at the same moments leaves what the
    program's own speed sets.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.table = rng.random(1 << 21)               # 16 MB, beyond L2
        self.index = rng.integers(0, 1 << 21, 100_000)

    def chunk_s(self) -> float:
        t0 = time.perf_counter()
        self.table[self.index].sum()
        acc, seen = 0, {}
        for i in range(40_000):
            acc += i * i % 7
            seen[i & 1023] = acc
        return time.perf_counter() - t0

    def sample(self, n: int = 10) -> list[float]:
        return [self.chunk_s() for _ in range(n)]


def mean_layers(records: list[dict]) -> dict:
    """Per-op (or per-unit) means of layer metrics, plus the ratios that
    are taken over sums instead of averaged."""
    total: defaultdict[str, float] = defaultdict(float)
    for rec in records:
        for k, v in rec.items():
            total[k] += v
    out = {k: v / max(len(records), 1) for k, v in total.items()}

    def ratio(num, den):
        return total[num] / total[den] if total[den] else 0.0

    out["tracking.frames_per_s"] = ratio("tracking.frames", "tracking.run_s")
    out["skill.trees_per_s"] = ratio("skill.trees", "skill.fit_s")
    for key in ("tracking.recovery_rate", "tracking.correction_rate",
                "skill.cv_acc"):
        out[key] = ratio(f"{key}.sum", f"{key}.n")
    return out


# -- set-up process -----------------------------------------------------------

def setup_main(args) -> int:
    """Make the inputs in args.setup_into, timing each set-up unit."""
    from tracer import Tracer
    from workloads import WORKLOADS

    work = args.setup_into
    w = WORKLOADS[args.workload](work, args.seed, args.tiny)
    tracer = Tracer() if args.trace else None
    reference = Reference()
    units, unit_refs, layers = {}, {}, []
    if tracer:
        tracer.install()
    try:
        for label, fn in w.setup_units():
            ref = reference.sample()
            if tracer:
                tracer.reset()
                tracer.active = True
            t0 = time.perf_counter()
            fn()
            units[label] = time.perf_counter() - t0
            if tracer:
                tracer.active = False
                layers.append(tracer.op_metrics())
            ref += reference.sample()
            unit_refs[label] = units[label] / statistics.median(ref)
    finally:
        if tracer:
            tracer.remove()
    (work / "setup.json").write_text(json.dumps(
        {"unit_s": units, "unit_ref": unit_refs,
         "layers_per_unit": mean_layers(layers)}, indent=1))
    return 0


def run_setup(args, work: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setup-into", str(work)] + (["--tiny"] if args.tiny else [])
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=SETUP_TIMEOUT_S)
    return json.loads((work / "setup.json").read_text())


# -- measured phase -----------------------------------------------------------

class Runner:
    """Runs ops and checks their outputs; holds what the checks compare."""

    def __init__(self, workload, work: Path):
        self.w = workload
        self.work = work
        self.reference = Reference()
        self.first_digests: dict[str, dict] = {}
        self.quality: dict[str, dict] = {}

    def op(self, item, tracer=None) -> dict:
        rec = {"item": item, "steps": [], "fail": []}
        ref = self.reference.sample()
        if tracer:
            tracer.install()
            tracer.reset()
        try:
            rec["op_s"] = self._steps(item, rec, tracer)
        finally:
            if tracer:
                tracer.remove()
        if tracer:
            rec["layers"] = tracer.op_metrics()
        rec["ref_s"] = statistics.median(ref + self.reference.sample())
        rec["op_ref"] = rec["op_s"] / rec["ref_s"]
        return rec

    def _steps(self, item, rec, tracer) -> float:
        total = 0.0
        for step in self.w.steps(item):
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = step.run()
            except Exception as exc:  # an op that raises counts as failed
                total += time.perf_counter() - t0
                rec["fail"].append(f"{step.key}: raised {exc!r}")
                rec["traceback"] = traceback.format_exc()
                return total
            finally:
                if tracer:
                    tracer.active = False
            dt = time.perf_counter() - t0
            total += dt
            digests = {str(p.relative_to(self.work)): sha256(p)
                       for p in step.artifacts}
            first = self.first_digests.setdefault(step.key, digests)
            changed = sorted(k for k in digests if digests[k] != first.get(k))
            if changed:
                rec["fail"].append(f"{step.key}: differs from the first "
                                   f"repeat in {changed}")
            if step.after is not None:
                try:
                    info = step.after(result)
                except Exception as exc:  # a missing or unreadable output
                    info = {"fail": [f"check raised {exc!r}"]}
                rec["fail"] += [f"{step.key}: {m}"
                                for m in info.pop("fail", [])]
                self.quality.setdefault(step.key, info)
            rec["steps"].append({"key": step.key, "s": dt,
                                 "digests": digests})
        return total


def measure(args, work: Path, setup: dict) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](work, args.seed, args.tiny)
    runner = Runner(w, work)
    items = w.items()
    n = len(items)
    # The first op in a process runs about a third slower than later ones.
    # It is checked like any other and sets the digests that repeats of
    # its input must match, but its time is left out.
    warmup = runner.op(items[0])
    tracer = Tracer() if args.trace else None
    ops, overhead = [], []
    t_start = time.perf_counter()
    k = 0
    while True:
        item = items[k % n]
        if tracer:
            # each input once traced and once not, alternating which first
            first_traced = k % 2 == 0
            a = runner.op(item, tracer if first_traced else None)
            b = runner.op(item, None if first_traced else tracer)
            traced, plain = (a, b) if first_traced else (b, a)
            ops += [a, b]
            overhead.append(traced["op_s"] - plain["op_s"])
            k += 1
            done = k % n == 0
        else:
            ops.append(runner.op(item))
            k += 1
            done = k >= n
        if done and time.perf_counter() - t_start >= args.seconds:
            break
    wall_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    quality = dict(runner.quality)
    try:
        for key, info in w.final_quality().items():
            quality[key] = info
    except Exception as exc:  # inputs from set-up unreadable
        quality["final"] = {"fail": [f"check raised {exc!r}"]}
    problems = [f"{k}: {m}" for k, info in quality.items()
                for m in info.pop("fail", [])]

    def quality_mean(name):
        values = [q[name] for q in quality.values() if name in q]
        if not values:
            problems.append(f"no {name} measured")
            return 0.0
        return statistics.fmean(values)

    op_refs = [o["op_ref"] for o in ops]
    attempted = [warmup] + ops
    failed = sum(1 for o in attempted if o["fail"])
    e2e = {
        "setup_s": statistics.median(setup["unit_ref"].values())
        * REFERENCE_CHUNK_S,
        "setup_wall_s": statistics.median(setup["unit_s"].values()),
        "op_ref.p50": statistics.median(op_refs),
        "frames_per_ref": statistics.median(
            w.frames(o["item"]) / o["op_ref"] for o in ops),
        "op_s.p50": statistics.median(o["op_s"] for o in ops),
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (len(attempted) - failed) / len(attempted),
        "frame_acc": quality_mean("frame_acc"),
        "boundary_f1": quality_mean("boundary_f1"),
    }
    layers = {}
    if tracer:
        layers = mean_layers([o["layers"] for o in ops if "layers" in o])
        for key, value in setup["layers_per_unit"].items():
            if key.startswith("synth."):
                layers[key] = value
        layers["trace.overhead_s"] = statistics.fmean(overhead)
    return {"ops": attempted, "wall_s": wall_s, "failed": failed,
            "quality": quality, "problems": problems, "e2e": e2e,
            "layers": layers, "trace_overhead_s": overhead}


def summary_line(bench: dict, trace: int, values: dict) -> dict:
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    return {s["name"]: {"value": float(values.get(s["name"], 0.0)),
                        "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "microact" / "__init__.py").is_file():
        print(f"error: no microact package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:      # at most one BLAS thread per CPU
        os.environ[var] = str(os.cpu_count() or 1)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    sys.path[:0] = [str(SRC), str(HERE)]
    import microact
    if Path(microact.__file__).resolve().parent != SRC / "microact":
        print(f"error: imported microact from {microact.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_into is not None:
        return setup_main(args)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = HERE / "_work" / f"{tag}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = run_setup(args, work)
        res = measure(args, work, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = res["failed"] == 0 and not res["problems"]
    metrics = summary_line(bench, args.trace,
                           res["layers"] if args.trace else res["e2e"])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "host": host_facts(), "correct": correct,
              "n_ops": len(res["ops"]), "failed": res["failed"],
              "problems": res["problems"], "wall_s": res["wall_s"],
              "setup_unit_s": setup["unit_s"], "e2e": res["e2e"],
              "layers": res["layers"],
              "setup_layers_per_unit": setup["layers_per_unit"],
              "quality": res["quality"],
              "trace_overhead_s": res["trace_overhead_s"],
              "ops": res["ops"]}
    out_dir = HERE / "_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(res["ops"]),
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
