"""Acceptance gate: one test per shipping criterion.

Each test prints a single `[acceptance] criterion N: PASS/FAIL` line
straight to the terminal (bypassing capture) so a plain pytest run reads
as a checklist.  Oracles are imported from the module suites; fixtures
are synthesized fresh so nothing here depends on checked-in data.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import microact
from microact import TipTrajectory, load_config
from microact.clustering import (
    align_clusters,
    kmeans,
    segment_edges,
    segment_features,
)
from microact.kinematics import (
    KinematicFeatureExtractor,
    derivatives,
    pairwise_features,
)
from microact.metrics import boundary_metrics, frame_metrics
from microact.pipeline import run_all, stage_synth
from microact.segmentation import (
    NoveltyBoundaryDetector,
    enhance,
    make_kernel,
    novelty,
    peak_pick,
    ssm,
)
from microact.skill import SkillGradientBoosting, cross_validate
from microact.synth import generate, paper_shaped_script
from microact.tracking import (
    InstrumentTracker,
    recovery_correction_rates,
    refine_identity,
)

from test_clustering import two_partition_min_inertia
from test_segmentation import novelty_quadruple_loop, peak_oracle


@pytest.fixture
def announce(capsys):
    def _announce(num: int, ok: bool, detail: str = ""):
        line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line
    return _announce


def test_criterion_1_zero_novelty_on_constant_input(announce):
    X = np.full((1000, 5), 2.0)
    t0 = time.perf_counter()
    worst = 0.0
    for h in (10, 30, 100):
        N = novelty(X, make_kernel(h, h / 2.0))
        worst = max(worst, float(np.max(np.abs(N))))
    dt = time.perf_counter() - t0
    announce(1, worst < 1e-9 and dt < 1.0,
             f"max|N|={worst:.1e}, {dt:.2f}s for h in 10/30/100")


def test_criterion_2_banded_novelty_matches_naive(announce):
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        T = int(rng.integers(10, 301))
        d = int(rng.integers(1, 9))
        h = int(rng.integers(1, min(20, max(2, T // 2 - 1)) + 1))
        sigma = float(rng.uniform(0.5, h)) if h > 1 else 0.5
        X = rng.normal(size=(T, d))
        expect = novelty_quadruple_loop(enhance(ssm(X)), h, sigma)
        got = novelty(X, make_kernel(h, sigma))
        worst = max(worst, float(np.max(np.abs(got - expect))))
    dt = time.perf_counter() - t0
    announce(2, worst <= 1e-12 and dt < 10.0,
             f"20 cases, max dev={worst:.1e}, {dt:.1f}s")


def test_criterion_3_boundary_recovery_on_synthetic(announce):
    t0 = time.perf_counter()
    recalls, precisions, accuracies = [], [], []
    for seed in range(20):
        proc = generate(paper_shaped_script(seed=seed))
        km = KinematicFeatureExtractor().transform(proc.trajectories,
                                                     proc.fps)
        det = NoveltyBoundaryDetector().fit(km.X)
        gt_taus = sorted(b for b in proc.boundaries if b > 0)
        bm = boundary_metrics(sorted(det.boundaries_), gt_taus,
                              tolerance=round(0.5 * proc.fps))
        edges = segment_edges(det.boundaries_, km.X.shape[0])
        F = segment_features(km.X, km.presence_mask, edges, mask_weight=3.0)
        model = kmeans(F, 4, seed=0, restarts=10)
        stream = np.repeat(model.assignments, np.diff(edges))
        _, mapped = align_clusters(stream, proc.labels)
        recalls.append(bm.recall)
        precisions.append(bm.precision)
        accuracies.append(frame_metrics(mapped, proc.labels).accuracy)
    dt = time.perf_counter() - t0
    r, p, a = min(recalls), min(precisions), min(accuracies)
    announce(3, r >= 0.90 and p >= 0.85 and a >= 0.90 and dt < 120.0,
             f"20 seeds, min recall={r:.3f} min precision={p:.3f} "
             f"min aligned acc={a:.3f}, {dt:.1f}s")


def test_criterion_4_kmeans_matches_brute_force(announce):
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    hits, never_below = 0, True
    for _ in range(50):
        n = int(rng.integers(3, 9))
        F = rng.normal(size=(n, 2))
        model = kmeans(F, 2, seed=3, restarts=10)
        best = two_partition_min_inertia(F)
        if model.inertia < best - 1e-9:
            never_below = False
        if model.inertia <= best + 1e-9:
            hits += 1
    dt = time.perf_counter() - t0
    announce(4, hits >= 48 and never_below and dt < 5.0,
             f"{hits}/50 optimal, never below minimum, {dt:.1f}s")


def test_criterion_5_peak_picking_matches_oracle(announce):
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()
    agree = True
    for case in range(100):
        T = int(rng.integers(5, 501))
        N = rng.normal(size=T).cumsum()
        if case % 3 == 0:
            N = np.round(N, 1)  # force plateaus and height ties
        span = float(N.max() - N.min()) or 1.0
        threshold = float(rng.uniform(0.0, 0.3)) * span
        d_min = int(rng.integers(1, 30))
        taus, proms = peak_pick(N, threshold, d_min)
        expect = peak_oracle(N, threshold, d_min)
        if (list(taus) != [t for t, _ in expect]
                or list(proms) != [p for _, p in expect]):
            agree = False
            break
    dt = time.perf_counter() - t0
    announce(5, agree and dt < 5.0, f"100 curves exact, {dt:.1f}s")


def test_criterion_6_tracking_repair_rates(announce):
    worst_rr, worst_cr, idempotent = 1.0, 1.0, True
    for seed in range(3):
        script = paper_shaped_script(fps=30.0, seed=seed, noise=0.5,
                                     dropout_rate=0.1, mislabel_rate=0.05)
        proc = generate(script)
        rows = InstrumentTracker().run(proc.detections)
        refined = refine_identity(rows)
        rr, cr = recovery_correction_rates(proc.detections, refined,
                                           proc.truth)
        worst_rr = min(worst_rr, rr)
        worst_cr = min(worst_cr, cr)
        if refine_identity(refined) != refined:
            idempotent = False
    announce(6, worst_rr >= 0.95 and worst_cr >= 0.90 and idempotent,
             f"3 seeds, min RR={worst_rr:.3f} min CR={worst_cr:.3f}, "
             f"refine idempotent={idempotent}")


def test_criterion_7_gbdt_loss_cv_and_determinism(announce, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    monotone = True
    for s in range(20):
        X = rng.normal(size=(60, 5))
        y = rng.integers(0, 3, size=60)
        model = SkillGradientBoosting(n_estimators=30, learning_rate=0.1,
                                      max_depth=2).fit(X, y)
        if np.any(np.diff(model.train_log_loss_) > 1e-12):
            monotone = False
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    Xs = np.vstack([c + rng.normal(scale=0.5, size=(50, 2)) for c in centers])
    ys = np.repeat([0, 1, 2], 50)
    cv = cross_validate(Xs, ys, folds=5, seed=0, n_estimators=50,
                        learning_rate=0.1, max_depth=2)
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a_path, b_path):
        m = SkillGradientBoosting(n_estimators=40, random_state=0).fit(Xs, ys)
        m.save(path)
    identical = a_path.read_bytes() == b_path.read_bytes()
    dt = time.perf_counter() - t0
    announce(7, monotone and cv["accuracy"] >= 0.95 and identical and dt < 30.0,
             f"loss nonincreasing on 20 sets, cv acc={cv['accuracy']:.3f}, "
             f"retrain bit-identical={identical}, {dt:.1f}s")


def test_criterion_8_kinematics_exact_and_invariant(announce):
    ok = True
    # linear and quadratic: central differences are exact inside the stencil
    lin = derivatives(TipTrajectory(
        instrument_id=0, points=[(3.0 * t, -2.0 * t) for t in range(20)]),
        1.0)
    ok &= bool(np.allclose(lin.vel[1:-1], [3.0, -2.0], atol=1e-12)
               and np.allclose(lin.acc, 0.0, atol=1e-12)
               and np.allclose(lin.jerk, 0.0, atol=1e-12))
    quad = derivatives(TipTrajectory(
        instrument_id=0, points=[(float(t * t), 0.0) for t in range(20)]),
        1.0)
    ok &= all(abs(quad.vel[t, 0] - 2.0 * t) < 1e-12 for t in range(1, 19))
    ok &= all(abs(quad.acc[t, 0] - 2.0) < 1e-12 for t in range(2, 18))
    ok &= all(abs(quad.jerk[t, 0]) < 1e-12 for t in range(3, 17))

    # cubic: truncation error bounded by max|p'''| * dt^2
    fps, T = 10.0, 80
    ts = np.arange(T) / fps
    poly = np.polynomial.Polynomial([0.3, -1.2, 0.8, 0.5])
    cub = derivatives(TipTrajectory(
        instrument_id=0, points=[(float(poly(t)), 0.0) for t in ts]), fps)
    dpoly, dt2 = poly.deriv(), (1.0 / fps) ** 2
    bound = max(abs(float(poly.deriv(3)(t))) for t in ts) * dt2
    ok &= all(abs(cub.vel[t, 0] - float(dpoly(ts[t]))) <= bound
              for t in range(3, T - 3))

    # translating every point leaves all features untouched
    rng = np.random.default_rng(5)
    pts = [tuple(p) for p in rng.normal(size=(30, 2)) * 50]
    moved = [(x + 123.0, y - 77.0) for x, y in pts]
    t_a = TipTrajectory(instrument_id=0, points=pts)
    t_b = TipTrajectory(instrument_id=0, points=moved)
    da, db = derivatives(t_a, 5.0), derivatives(t_b, 5.0)
    ok &= bool(np.allclose(da.vel, db.vel, atol=1e-9)
               and np.allclose(da.acc, db.acc, atol=1e-9)
               and np.allclose(da.jerk, db.jerk, atol=1e-9))
    pts2 = [tuple(p) for p in rng.normal(size=(30, 2)) * 50]
    pa = pairwise_features(t_a, TipTrajectory(instrument_id=1, points=pts2),
                           5.0)
    pb = pairwise_features(t_b, TipTrajectory(
        instrument_id=1, points=[(x + 123.0, y - 77.0) for x, y in pts2]),
        5.0)
    ok &= all(np.allclose(pa[k], pb[k], atol=1e-9) for k in pa)
    announce(8, bool(ok), "derivative exactness and translation invariance")


def test_criterion_9_desk_scale_budget(announce):
    prog = (
        "import resource, time\n"
        "import numpy as np\n"
        "from microact.segmentation import NoveltyBoundaryDetector\n"
        "rng = np.random.default_rng(0)\n"
        "X = np.cumsum(rng.normal(size=(50_000, 20)), axis=0)\n"
        "t0 = time.perf_counter()\n"
        "NoveltyBoundaryDetector(half_width=150).fit(X)\n"
        "dt = time.perf_counter() - t0\n"
        "mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(f'{dt:.3f} {mb:.0f}')\n"
    )
    # the child imports the same microact as this process, whether it
    # comes from PYTHONPATH or from pytest's pythonpath setting
    src = str(Path(microact.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", prog], capture_output=True,
                         text=True, timeout=300, env=env)
    assert out.returncode == 0, out.stderr
    dt, mb = out.stdout.split()
    announce(9, float(dt) < 60.0 and float(mb) < 1024.0,
             f"T=50000 d=20 h=150 in {float(dt):.1f}s, peak {mb} MB")


def test_criterion_10_run_all_deterministic(announce, tmp_path):
    def snapshot(d):
        return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())
                if p.is_file()}

    clean = load_config(overrides={"seed": 5})
    messy = load_config(overrides={
        "seed": 6, "synth": {"dropout_rate": 0.1, "mislabel_rate": 0.05}})
    ok = True
    for name, cfg in (("clean", clean), ("messy", messy)):
        d = tmp_path / name
        stage_synth(d, cfg)
        run_all(d, cfg)
        first = snapshot(d)
        run_all(d, cfg)
        ok &= snapshot(d) == first
        # and a rebuild from scratch lands on the same bytes
        e = tmp_path / (name + "_again")
        stage_synth(e, cfg)
        run_all(e, cfg)
        ok &= snapshot(e) == first
    announce(10, ok, "clean and dropout/mislabel fixtures byte-identical "
                     "across reruns and rebuilds")
