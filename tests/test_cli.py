"""End-to-end checks of the command-line interface.

These run the real `main` entry point against synthesized procedures in
temp dirs, so they cover config layering, stage wiring, and the on-disk
artifact contract rather than any one module.
"""

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from microact import cli, io, load_config, pipeline
from microact.records import InstrumentClass
from microact.synth import generate, paper_shaped_script, write_procedure


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def snapshot(d) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())
            if p.is_file()}


@pytest.fixture(scope="module")
def base_proc(tmp_path_factory):
    """One synthesized procedure with every stage already run."""
    d = tmp_path_factory.mktemp("cli") / "base"
    assert run_cli("synth", "--out-dir", d, "--seed", 5) == 0
    assert run_cli("run-all", d) == 0
    return d


def test_run_all_produces_report(base_proc):
    for name in ("report.txt", "report.json", "eval.json", "segments.csv",
                 "predicted_labels.csv", "skill_predictions.json"):
        if name == "skill_predictions.json":
            # no model was passed, so no skill stage
            assert not (base_proc / name).exists()
        else:
            assert (base_proc / name).exists(), name
    rep = json.loads((base_proc / "report.json").read_text())
    assert rep["boundaries"] and rep["segments"]
    assert len(rep["ribbons"]["predicted"]) == len(rep["ribbons"]["truth"])


def test_every_artifact_is_in_the_table(base_proc):
    names = {name for name, _ in io.ARTIFACTS.values()}
    names.add("features.csv.meta.json")  # save_matrix sidecar
    assert set(snapshot(base_proc)) <= names


def test_malformed_row_is_a_diagnostic(tmp_path, base_proc, capsys):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    lines = (d / "segments.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 2)[0]  # drop the last two fields
    (d / "segments.csv").write_text("\n".join(lines) + "\n")
    assert run_cli("report", d) == 1
    err = capsys.readouterr().err
    assert "segments.csv:3:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage, name, section, key", [
    ("cluster", "features.csv.meta.json", None, "downsample"),
    ("eval", "features.csv.meta.json", None, "downsample"),
    ("report", "eval.json", "boundary", "f1"),
])
def test_missing_json_key_is_a_diagnostic(tmp_path, base_proc, capsys,
                                          stage, name, section, key):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    doc = json.loads((d / name).read_text())
    del (doc[section] if section else doc)[key]
    (d / name).write_text(json.dumps(doc))
    assert run_cli(stage, d) == 1
    err = capsys.readouterr().err
    assert name in err and key in err
    assert "Traceback" not in err


def test_eval_reads_the_sidecar_without_parsing_features(tmp_path, base_proc,
                                                         monkeypatch):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    before = (d / "eval.json").read_bytes()

    def no_parse(path):
        raise AssertionError(f"parsed {path}")

    monkeypatch.setattr(io, "load_matrix", no_parse)
    pipeline.stage_eval(d, load_config(environ={}))
    assert (d / "eval.json").read_bytes() == before


def assert_same(a, b, where):
    """Equal values of the same types, dicts in the same key order."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name),
                        f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for k in a:
            assert_same(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


def test_run_all_memo_matches_files(tmp_path, monkeypatch):
    d = tmp_path / "p"
    assert run_cli("synth", "--out-dir", d, "--seed", 5) == 0
    # run_all's memo as its last stage leaves it
    seen: dict = {}
    stage_report = pipeline.stage_report

    def keep_memo(proc_dir, cfg, *, memo):
        out = stage_report(proc_dir, cfg, memo=memo)
        seen.update(memo)
        return out

    monkeypatch.setattr(pipeline, "stage_report", keep_memo)
    pipeline.run_all(d, load_config(environ={}))

    fps = json.loads((d / "meta.json").read_text())["fps"]
    classes = {int(k): InstrumentClass(v) for k, v in
               json.loads((d / "tips_classes.json").read_text()).items()}
    loaders = {
        "meta": io.load_meta,
        "detections": io.load_detections,
        "refined": io.load_refined_tracks,
        "tips": lambda p: io.load_tips(p, fps=fps, class_map=classes),
        "features": io.load_matrix,
        "presence": io.load_matrix,
        "novelty": io.load_novelty,
        "boundaries": io.load_boundaries,
        "segments": io.load_segments,
        "pred_labels": io.load_labels,
        "labels": io.load_labels,
        "boundaries_truth": io.load_boundaries,
        "truth": io.load_truth_instances,
    }
    assert set(seen) == set(loaders)
    for key, value in seen.items():
        loaded = loaders[key](d / io.ARTIFACTS[key][0])
        if key == "features":
            # the sidecar's readers look keys up, so its key order is free
            value, loaded = [(*m[:2], dict(sorted(m[2].items())))
                             for m in (value, loaded)]
        assert_same(value, loaded, key)


def test_stage_order():
    assert [name for name, *_ in pipeline.STAGES] == [
        "track", "tips", "features", "segment", "cluster", "eval",
        "predict-skill", "report"]


def test_artifact_producers_are_stages():
    names = {name for name, *_ in pipeline.STAGES}
    producers = {stage for _, stage in io.ARTIFACTS.values()}
    assert producers <= names | {"synth"}
    assert names <= producers


def test_parser_offers_the_stage_table():
    parser = cli.build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {name for name, *_ in pipeline.STAGES} | {
        "synth", "train-skill", "run-all", "init-config"}


def stages_without_model():
    """(subcommand, function) of each stage run_all runs without a model,
    in order; looked up now, so a monkeypatched stage is the one called."""
    return [(name, getattr(pipeline, fn_name))
            for name, fn_name, when in pipeline.STAGES if when != "model"]


def test_stagewise_equals_run_all(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--out-dir", a, "--seed", 5) == 0
    assert run_cli("synth", "--out-dir", b, "--seed", 5) == 0
    assert run_cli("run-all", a) == 0
    for name, _ in stages_without_model():
        assert run_cli(name, b) == 0
    assert snapshot(a) == snapshot(b)


def test_stagewise_equals_run_all_messy_30fps(tmp_path):
    # the benchmark's messy 30 fps settings on a half-length script
    cfg = load_config(environ={}, overrides={
        "seed": 3, "tracking": {"max_coast": 30},
        "segmentation": {"half_width": 60, "min_distance": 30}})
    proc = generate(paper_shaped_script(
        fps=30.0, seed=3, dropout_rate=0.1, mislabel_rate=0.05,
        cut_s=2.5, drive_s=4.5, tie_s=3.5, idle_s=1.5))
    a, b = tmp_path / "a", tmp_path / "b"
    write_procedure(proc, a)
    io._write_json(a / "meta.json", {"procedure_id": "messy-30fps",
                                     "fps": proc.fps,
                                     "n_frames": proc.n_frames})
    shutil.copytree(a, b)
    pipeline.run_all(a, cfg)
    for _, stage in stages_without_model():
        stage(b, cfg)
    assert snapshot(a) == snapshot(b)
    rows = io.load_track_rows(a / "track_rows.jsonl")
    assert any(r.det_index is None for r in rows)  # the tracker coasted
    provenance = (a / "refined_tracks.jsonl").read_text()
    assert '"provenance": "corrected"' in provenance


def test_stagewise_equals_run_all_after_semantic_run(tmp_path, base_proc):
    # K=3 gets no semantic names, so cluster removes the stale
    # predicted_labels.csv of base_proc's K=4 run and eval must not score it
    cfg = load_config(environ={}, overrides={"clustering": {"n_clusters": 3}})
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        shutil.copytree(base_proc, d)
        assert (d / "predicted_labels.csv").exists()
    pipeline.run_all(a, cfg)
    for _, stage in stages_without_model():
        stage(b, cfg)
    assert snapshot(a) == snapshot(b)
    assert not (a / "predicted_labels.csv").exists()
    assert "frame" not in json.loads((a / "eval.json").read_text())


def test_rerun_is_byte_identical(tmp_path, base_proc):
    fresh = tmp_path / "fresh"
    assert run_cli("synth", "--out-dir", fresh, "--seed", 5) == 0
    assert run_cli("run-all", fresh) == 0
    assert snapshot(fresh) == snapshot(base_proc)
    # and re-running over existing artifacts changes nothing
    before = snapshot(fresh)
    assert run_cli("run-all", fresh) == 0
    assert snapshot(fresh) == before


def test_jobs_parallel_matches_sequential(tmp_path):
    dirs = {}
    for seed in (6, 7):
        p = tmp_path / f"p{seed}"
        assert run_cli("synth", "--out-dir", p, "--seed", seed) == 0
        q = tmp_path / f"q{seed}"
        shutil.copytree(p, q)
        dirs[seed] = (p, q)
    assert run_cli("run-all", dirs[6][0], dirs[7][0], "--jobs", 2) == 0
    for seed in (6, 7):
        assert run_cli("run-all", dirs[seed][1]) == 0
        assert snapshot(dirs[seed][0]) == snapshot(dirs[seed][1])


@pytest.mark.parametrize("breakage", ["bad row", "missing file"])
def test_jobs_parallel_reports_a_worker_error(tmp_path, base_proc, capsys,
                                              breakage):
    # the worker's ParseError or MissingInput crosses the process pool and
    # is printed as the sequential run prints it, not as a BrokenProcessPool
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        shutil.copytree(base_proc, d)
    if breakage == "bad row":
        lines = (a / "detections.jsonl").read_text().splitlines()
        lines[1] = "{not json"
        (a / "detections.jsonl").write_text("\n".join(lines) + "\n")
        want = f"error: {a / 'detections.jsonl'}:2: "
    else:
        (a / "detections.jsonl").unlink()
        want = f"error: missing {a / 'detections.jsonl'}; run the 'synth'"
    assert run_cli("run-all", a, b, "--jobs", 2) == 1
    err = capsys.readouterr().err
    assert err.startswith(want)
    assert "Traceback" not in err
    assert run_cli("run-all", a) == 1
    assert capsys.readouterr().err == err


def fresh_proc(tmp_path, name="p"):
    d = tmp_path / name
    assert run_cli("synth", "--out-dir", d, "--seed", 5) == 0
    return d


def record_candidate_parses(monkeypatch) -> list:
    """pids of the io.load_tip_candidates calls this process makes; a
    forked child's calls land in the child's copy of the list."""
    calls = []
    load = io.load_tip_candidates

    def recording(path):
        calls.append(os.getpid())
        return load(path)

    monkeypatch.setattr(io, "load_tip_candidates", recording)
    return calls


@pytest.mark.parametrize("cpus", [2, 1])
def test_bad_candidates_fail_like_the_tips_stage(tmp_path, monkeypatch,
                                                 cpus):
    # forked or in-process, run_all raises the tips stage's ParseError,
    # once track has written its files
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    a = fresh_proc(tmp_path, "a")
    lines = (a / "tip_candidates.jsonl").read_text().splitlines()
    lines[1] = lines[1].replace('"descriptor": [', '"descriptor": [[', 1)
    (a / "tip_candidates.jsonl").write_text("\n".join(lines) + "\n")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    cfg = load_config(environ={})
    calls = record_candidate_parses(monkeypatch)
    with pytest.raises(io.ParseError) as in_run_all:
        pipeline.run_all(a, cfg)
    assert len(calls) == (0 if cpus > 1 else 1)
    assert (a / "track_rows.jsonl").exists()
    assert (a / "refined_tracks.jsonl").exists()
    assert not (a / "tips.csv").exists()
    pipeline.stage_track(b, cfg)
    with pytest.raises(io.ParseError) as alone:
        pipeline.stage_tips(b, cfg)
    assert in_run_all.value.line_no == alone.value.line_no == 2
    assert in_run_all.value.reason == alone.value.reason
    assert str(in_run_all.value) == str(alone.value).replace(str(b), str(a))
    assert multiprocessing.active_children() == []


def test_forked_and_in_process_parse_agree(tmp_path, monkeypatch):
    a = fresh_proc(tmp_path, "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    cfg = load_config(environ={})
    calls = record_candidate_parses(monkeypatch)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    pipeline.run_all(a, cfg)
    assert calls == []  # the child parsed
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    pipeline.run_all(b, cfg)
    assert calls == [os.getpid()]
    assert snapshot(a) == snapshot(b)


@pytest.mark.parametrize("failure", ["child dies", "fork fails"])
def test_failed_child_falls_back_to_in_process_parse(tmp_path, monkeypatch,
                                                    base_proc, failure):
    d = fresh_proc(tmp_path)
    parent = os.getpid()
    load = io.load_tip_candidates

    def die_in_child(path):
        if os.getpid() != parent:
            os._exit(3)
        return load(path)

    def no_fork(self, fn, *args):
        raise BlockingIOError("fork: resource temporarily unavailable")

    if failure == "child dies":
        monkeypatch.setattr(io, "load_tip_candidates", die_in_child)
    else:
        monkeypatch.setattr(pipeline._Child, "__init__", no_fork)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    calls = record_candidate_parses(monkeypatch)
    pipeline.run_all(d, load_config(environ={}))
    assert calls == [parent]
    assert snapshot(d) == snapshot(base_proc)
    assert multiprocessing.active_children() == []


def test_no_child_outlives_run_all(tmp_path, monkeypatch):
    d = fresh_proc(tmp_path)
    cfg = load_config(environ={})
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    pipeline.run_all(d, cfg)
    assert multiprocessing.active_children() == []

    # track fails while the child is blocked writing a table larger than
    # the pipe's buffer that nobody will read
    def failing_track(proc_dir, cfg, *, memo):
        assert memo["candidates"]._conn.poll(60)
        raise RuntimeError("track failed")

    monkeypatch.setattr(pipeline, "stage_track", failing_track)
    with pytest.raises(RuntimeError, match="track failed"):
        pipeline.run_all(d, cfg)
    assert multiprocessing.active_children() == []


# the io writers whose files run_all writes from a child
CHILD_WRITERS = ("save_track_rows", "save_refined_tracks", "save_tips",
                 "save_matrix", "save_novelty", "save_boundaries",
                 "save_segments", "save_labels")


def patch_writers(monkeypatch, in_child=None, everywhere=None) -> list:
    """Wrap each CHILD_WRITERS function: ``in_child()`` runs first in a
    forked child, ``everywhere()`` in any process.  Returns the names the
    parent process writes with; a child's calls land in its own copy."""
    parent, calls = os.getpid(), []

    def wrap(name, save):
        def writer(*args, **kwargs):
            if os.getpid() == parent:
                calls.append(name)
            elif in_child is not None:
                in_child()
            if everywhere is not None:
                everywhere()
            return save(*args, **kwargs)
        return writer

    for name in CHILD_WRITERS:
        monkeypatch.setattr(io, name, wrap(name, getattr(io, name)))
    return calls


def no_children_left() -> bool:
    """This process has no child, running or unreaped, left."""
    try:
        os.waitpid(-1, os.WNOHANG)  # raises when there is no child at all
    except ChildProcessError:
        return True
    return False


def assert_clean(*dirs):
    assert no_children_left()
    assert multiprocessing.active_children() == []
    for d in dirs:
        assert not list(Path(d).glob("*.tmp"))


@pytest.mark.parametrize("k", [4, 3])
def test_slow_writers_change_no_output(tmp_path, monkeypatch, base_proc, k):
    # every child writer lags 0.3 s; a stage gating on a file (eval's and
    # report's predicted_labels.csv, say) would then see it missing.  With
    # K=3 the directory starts with a stale predicted_labels.csv of a K=4
    # run, which cluster removes and eval must not score.
    cfg = load_config(environ={}, overrides={"clustering": {"n_clusters": k}})
    a, b = tmp_path / "a", tmp_path / "b"
    if k == 4:
        fresh_proc(tmp_path, "a")
    else:
        shutil.copytree(base_proc, a)
    shutil.copytree(a, b)
    calls = patch_writers(monkeypatch, in_child=lambda: time.sleep(0.3))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    pipeline.run_all(a, cfg)
    assert calls == []  # the children wrote every file
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    pipeline.run_all(b, cfg)
    assert calls
    assert snapshot(a) == snapshot(b)
    assert (a / "predicted_labels.csv").exists() == (k == 4)
    assert ("frame" in json.loads((a / "eval.json").read_text())) == (k == 4)
    assert_clean(a, b)


def test_writer_dying_in_its_child_is_redone(tmp_path, monkeypatch,
                                             base_proc):
    d = fresh_proc(tmp_path)

    def fail():
        raise OSError("child out of disk")

    calls = patch_writers(monkeypatch, in_child=fail)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    pipeline.run_all(d, load_config(environ={}))
    assert sorted(calls) == sorted(CHILD_WRITERS + ("save_matrix",))
    assert snapshot(d) == snapshot(base_proc)
    assert_clean(d)


@pytest.mark.parametrize("name", ["novelty.csv", "features.csv.meta.json"])
def test_writer_child_dying_mid_file_leaves_no_temp_file(
        tmp_path, monkeypatch, base_proc, name):
    # the child has written all of ``name``'s temp file and dies before
    # the rename; the redo in the parent must also remove that file
    d = fresh_proc(tmp_path)
    parent = os.getpid()
    atomic_write = io.atomic_write

    @contextlib.contextmanager
    def dying_write(path, *args, **kwargs):
        with atomic_write(path, *args, **kwargs) as fh:
            yield fh
            if os.getpid() != parent and Path(path).name == name:
                fh.flush()
                os._exit(3)

    monkeypatch.setattr(io, "atomic_write", dying_write)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    pipeline.run_all(d, load_config(environ={}))
    assert snapshot(d) == snapshot(base_proc)
    assert_clean(d)


@pytest.mark.parametrize("cpus", [2, 1])
def test_failing_writer_fails_like_its_stage(tmp_path, monkeypatch, cpus):
    a = fresh_proc(tmp_path, "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    cfg = load_config(environ={})
    stages = stages_without_model()
    for _, stage in stages[:3]:  # track, tips, features
        stage(b, cfg)
    save_novelty = io.save_novelty

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(io, "save_novelty", disk_full)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    with pytest.raises(OSError) as in_run_all:
        pipeline.run_all(a, cfg)
    with pytest.raises(OSError) as alone:
        pipeline.stage_segment(b, cfg)
    assert str(in_run_all.value) == str(alone.value)
    assert not (a / "novelty.csv").exists()
    assert_clean(a, b)
    # the directory is whole again once the writer works
    monkeypatch.setattr(io, "save_novelty", save_novelty)
    pipeline.run_all(a, cfg)
    for _, stage in stages[3:]:
        stage(b, cfg)
    assert snapshot(a) == snapshot(b)


def test_empty_detections_name_the_features_stage(tmp_path, capsys):
    d = fresh_proc(tmp_path)
    (d / "detections.jsonl").write_text("")
    assert run_cli("run-all", d) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / 'tips.csv'}: ")
    assert "'features' stage" in err
    assert "Traceback" not in err


def test_missing_input_names_producer(tmp_path, capsys):
    d = tmp_path / "p"
    assert run_cli("synth", "--out-dir", d, "--seed", 1) == 0
    assert run_cli("features", d) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "run the 'tips' stage first" in err


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        run_cli("segment", tmp_path, "--frobnicate")
    assert ei.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_segment_constant_features_finds_nothing(tmp_path):
    X = np.full((200, 3), 2.5)
    io.save_matrix(X, ["a", "b", "c"], tmp_path / "features.csv")
    assert run_cli("segment", tmp_path) == 0
    taus, proms = io.load_boundaries(tmp_path / "boundaries.csv")
    assert taus == [] and proms == []


def test_env_override_reaches_stage(tmp_path, monkeypatch):
    monkeypatch.setenv("MICROACT_SYNTH__FPS", "10")
    d = tmp_path / "p"
    assert run_cli("synth", "--out-dir", d, "--seed", 1) == 0
    meta = json.loads((d / "meta.json").read_text())
    assert meta["fps"] == 10.0


def test_env_override_bad_value(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MICROACT_TRACKING__MAX_COAST", "fast")
    assert run_cli("init-config", "--out", tmp_path / "c.yaml") == 1
    assert "error:" in capsys.readouterr().err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("tracking:\n  frobnicate: 1\n")
    assert run_cli("init-config", "--config", cfg, "--out", tmp_path / "o.yaml") == 1
    assert "frobnicate" in capsys.readouterr().err


def test_config_validation_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("tracking:\n  max_coast: 100\n  delete_after: 10\n")
    assert run_cli("init-config", "--config", cfg, "--out", tmp_path / "o.yaml") == 1
    assert "error:" in capsys.readouterr().err


def test_seed_flag_position_agrees(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("--seed", 9, "synth", "--out-dir", a) == 0
    assert run_cli("synth", "--out-dir", b, "--seed", 9) == 0
    assert snapshot(a) == snapshot(b)
    assert json.loads((a / "meta.json").read_text())["seed"] == 9


def test_init_config_roundtrip(tmp_path):
    out = tmp_path / "cfg.yaml"
    assert run_cli("init-config", "--out", out, "--seed", 3) == 0
    assert "schema_version" in out.read_text()
    d = tmp_path / "p"
    assert run_cli("synth", "--out-dir", d, "--config", out) == 0
    assert json.loads((d / "meta.json").read_text())["seed"] == 3


def test_train_and_predict_flow(tmp_path):
    # one sloppy and one clean procedure so the grades span 2+ classes
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    assert run_cli("synth", "--out-dir", c1, "--seed", 5, "--level", "poor") == 0
    assert run_cli("synth", "--out-dir", c2, "--seed", 6, "--level", "good") == 0
    assert run_cli("run-all", c1, c2) == 0
    model = tmp_path / "model.json"
    summary = tmp_path / "summary.json"
    assert run_cli("train-skill", c1, c2, "--out", model,
                   "--summary", summary) == 0
    assert model.exists()
    s = json.loads(summary.read_text())
    assert s["n_procedures"] == 2 and s["n_rows"] > 0

    assert run_cli("predict-skill", c1, "--model", model) == 0
    pred = json.loads((c1 / "skill_predictions.json").read_text())
    assert pred["segments"] and pred["summary"]
    for d in pred["summary"].values():
        assert d["level"] in ("Poor", "Moderate", "Good")
        assert d["n_segments"] >= 1

    # run-all with a model folds the skill stage in
    assert run_cli("run-all", c2, "--model", model) == 0
    assert (c2 / "skill_predictions.json").exists()
    rep = json.loads((c2 / "report.json").read_text())
    assert rep.get("skill")


def test_predict_without_model_names_trainer(tmp_path, base_proc, capsys):
    c = tmp_path / "c"
    shutil.copytree(base_proc, c)
    assert run_cli("predict-skill", c, "--model", tmp_path / "nope.json") == 1
    assert "train-skill" in capsys.readouterr().err
