"""End-to-end checks of the command-line interface.

These run the real `main` entry point against synthesized procedures in
temp dirs, so they cover config layering, stage wiring, and the on-disk
artifact contract rather than any one module.
"""

import argparse
import ast
import dataclasses
import importlib.util
import inspect
import json
import multiprocessing
import os
import re
import shutil
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from microact import cli, io, load_config, pipeline
from microact.records import (ActionClass, InstrumentClass, Provenance,
                              RefinedTrack)
from microact.skill import SkillGradientBoosting
from microact.synth import (ActionSpec, ProcedureScript, generate,
                            paper_shaped_script, write_procedure)
from microact.tracking import iou, localize_tip

from test_io import CandidateSet, candidate_table


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
    names = {name for name, *_ in io.ARTIFACTS.values()}
    assert set(snapshot(base_proc)) <= names


def test_every_loader_name_is_an_io_function():
    stages = {name for name, *_ in pipeline.STAGES} | {"synth"}
    for key, (_, stage, loader, saver) in io.ARTIFACTS.items():
        if loader is not None:
            assert callable(getattr(io, loader, None)), key
            assert loader.startswith("load_"), key
        # every row is written by a stage or by synth, through its saver
        assert stage in stages, key
        assert callable(getattr(io, saver, None)), key
        assert saver.startswith("save_"), key
        assert list(inspect.signature(getattr(io, saver)).parameters)[-1] \
            == "path", key


def hook_keys(hook, module) -> set:
    """The argument names a tracer count hook ``hook(tr, a, res)`` reads
    from ``a``, by ``a["name"]`` or ``a.get("name")``, and those read by
    any hook of ``module`` it calls with ``(tr, a, res)``.  Any other use of
    ``a`` fails the assertion inside."""
    params = list(inspect.signature(hook).parameters)
    a = params[1]
    nodes = list(ast.walk(ast.parse(textwrap.dedent(inspect.getsource(hook)))))
    keys, read = set(), set()
    for node in nodes:
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == a and isinstance(node.slice, ast.Constant)):
            keys.add(node.slice.value)
            read.add(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == a and node.func.attr == "get"
              and isinstance(node.args[0], ast.Constant)):
            keys.add(node.args[0].value)
            read.add(node.func.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and [ast.unparse(x) for x in node.args] == params):
            keys |= hook_keys(getattr(module, node.func.id), module)
            read.add(node.args[1])
    uses = {n for n in nodes if isinstance(n, ast.Name) and n.id == a}
    assert uses == read, f"{hook.__name__} reads {a} another way"
    return keys


def load_tracer():
    """perfbench's tracer module, which is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_patch_point_resolves():
    # perfbench's tracer wraps these names from outside the package, so a
    # rename under src/ would leave its --trace 1 run blind, and its count
    # hooks read the wrapped call's arguments by name, so a renamed
    # parameter would raise KeyError there
    tracer = load_tracer()
    assert tracer.POINTS
    for name, (target, hook) in tracer.POINTS.items():
        _, _, original = tracer.resolve(target)
        assert callable(original), name
        if hook is not None:
            missing = (hook_keys(hook, tracer)
                       - set(inspect.signature(original).parameters))
            assert not missing, (name, missing)


def test_tracer_sees_every_run_all_write(tmp_path, monkeypatch):
    # the tracer records spans in its own process only, so the writes of
    # run_all's stages must happen there, even where a child can start
    tracer = load_tracer()
    d = fresh_proc(tmp_path)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    t = tracer.Tracer()
    t.install()
    try:
        t.active = True
        pipeline.run_all(d, load_config(environ={}))
    finally:
        t.remove()
    metrics = t.op_metrics()
    for name in ("io.serialize_s", "io.bytes_written",
                 "pipeline.tips.points"):
        assert metrics[name] > 0, name


def test_malformed_row_is_a_diagnostic(tmp_path, base_proc, capsys):
    # the message starts with file:line and ends with the writing stage
    for stage, name, producer in (("report", "segments.csv", "cluster"),
                                  ("cluster", "features.csv", "features")):
        d = tmp_path / stage
        shutil.copytree(base_proc, d)
        lines = (d / name).read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 2)[0]  # drop the last two fields
        (d / name).write_text("\n".join(lines) + "\n")
        assert run_cli(stage, d) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {d / name}:3: bad row ")
        assert err.endswith(f" (written by the '{producer}' stage)\n")
        assert "Traceback" not in err


@pytest.mark.parametrize("stage", ["eval", "report"])
@pytest.mark.parametrize("damage", ["end-before-start", "overlap"])
def test_segments_that_do_not_tile_name_the_cluster_stage(
        tmp_path, base_proc, capsys, stage, damage):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    lines = (d / "segments.csv").read_text().splitlines()
    row = lines[2].split(",")
    if damage == "end-before-start":
        row[2] = str(int(row[1]) - 2)
    else:
        row[1] = str(int(row[1]) - 1)
    lines[2] = ",".join(row)
    (d / "segments.csv").write_text("\n".join(lines) + "\n")
    assert run_cli(stage, d) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / 'segments.csv'}:3: bad row ")
    assert err.endswith(" (written by the 'cluster' stage)\n")
    assert "Traceback" not in err


def test_boundaries_out_of_order_or_range_name_the_file(tmp_path, base_proc,
                                                        capsys):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    lines = (d / "boundaries.csv").read_text().splitlines()
    assert len(lines) > 2
    (d / "boundaries.csv").write_text(
        "\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n")
    assert run_cli("cluster", d) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / 'boundaries.csv'}:3: bad row ")
    assert err.endswith(" (written by the 'segment' stage)\n")
    n_rows = len(io.load_matrix(d / "features.csv")[0])
    (d / "boundaries.csv").write_text(f"{lines[0]}\n{n_rows},0.5\n")
    assert run_cli("cluster", d) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / 'boundaries.csv'}: boundary {n_rows} ")
    assert "Traceback" not in err


def test_field_over_the_csv_limit_is_a_diagnostic(tmp_path, base_proc,
                                                   capsys):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    lines = (d / "boundaries.csv").read_text().splitlines()
    lines[1] = "0" * 140_000 + lines[1]
    (d / "boundaries.csv").write_text("\n".join(lines) + "\n")
    assert run_cli("cluster", d) == 1
    err = capsys.readouterr().err
    assert f"{d / 'boundaries.csv'}:2: " in err and "field" in err
    assert "Traceback" not in err


def test_invalid_utf8_is_a_diagnostic(tmp_path, base_proc, capsys):
    # one byte of the third line is not UTF-8
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    raw = bytearray((d / "features.csv").read_bytes())
    at = raw.index(b"\n", raw.index(b"\n") + 1) + 3
    raw[at] = 0xFF
    (d / "features.csv").write_bytes(bytes(raw))
    assert run_cli("cluster", d) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {d / 'features.csv'}:3: not UTF-8: "
                          f"byte 0xff ")
    assert err.endswith(" (written by the 'features' stage)\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("stage, name, section, key", [
    ("cluster", "features.csv.meta.json", None, "downsample"),
    ("eval", "features.csv.meta.json", None, "downsample"),
    ("eval", "features.csv.meta.json", None, "effective_fps"),
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


def test_skill_predictions_without_summary_is_a_diagnostic(tmp_path,
                                                           base_proc, capsys):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    (d / "skill_predictions.json").write_text(
        json.dumps({"segments": []}) + "\n")
    assert run_cli("report", d) == 1
    err = capsys.readouterr().err
    assert f"{d / 'skill_predictions.json'}: missing 'summary'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("stage, parses", [
    ("segment", 0), ("cluster", 1), ("report", 1)])
def test_stand_alone_stage_parses_the_sidecar_at_most_once(
        tmp_path, base_proc, monkeypatch, stage, parses):
    # counted through a wrapper set on io, which _load must look up
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    calls = []
    load = io.load_features_meta

    def counting(path):
        calls.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(io, "load_features_meta", counting)
    fn_name, = [fn for name, fn, _ in pipeline.STAGES if name == stage]
    getattr(pipeline, fn_name)(d, load_config(environ={}))
    assert calls == ["features.csv.meta.json"] * parses


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


def run_all_memo(d, monkeypatch, model_path=None) -> dict:
    """run_all's memo on ``d`` as its last stage, report, leaves it."""
    seen: dict = {}
    stage_report = pipeline.stage_report

    def keep_memo(proc_dir, cfg, *, memo):
        out = stage_report(proc_dir, cfg, memo=memo)
        seen.update(memo)
        return out

    monkeypatch.setattr(pipeline, "stage_report", keep_memo)
    pipeline.run_all(d, load_config(environ={}), model_path)
    monkeypatch.setattr(pipeline, "stage_report", stage_report)
    return seen


def test_run_all_memo_matches_files(tmp_path, monkeypatch):
    d = tmp_path / "p"
    assert run_cli("synth", "--out-dir", d, "--seed", 5) == 0
    seen = run_all_memo(d, monkeypatch)

    assert set(seen) == {
        "meta", "detections", "track_rows", "refined", "tips", "tips_classes",
        "features", "features_meta", "presence", "novelty", "boundaries",
        "segments", "pred_labels", "labels", "boundaries_truth", "truth",
        "eval"}
    for key, value in seen.items():
        # parsed by the table's loader, as a stage run on its own reads it
        assert_same(value, pipeline._load(d, key, None), key)


def test_every_artifact_round_trips_through_its_saver(tmp_path, monkeypatch):
    # with a model, so that skill_predictions.json is written and read too
    d = tmp_path / "p"
    assert run_cli("synth", "--out-dir", d, "--seed", 5) == 0
    pipeline.run_all(d, load_config(environ={}))
    width = pipeline._skill_rows(d, load_config())[0][3].shape[0]
    model = tmp_path / "m.json"
    SkillGradientBoosting(n_estimators=2).fit(
        np.random.default_rng(0).normal(size=(6, width)),
        [0, 1, 2] * 2).save(model)
    seen = run_all_memo(d, monkeypatch, model)

    out = tmp_path / "out"
    out.mkdir()
    for key, (name, _, loader, _) in io.ARTIFACTS.items():
        if loader is None:
            continue
        # what run_all keeps, else what the loader reads from run_all's file
        value = seen[key] if key in seen else getattr(io, loader)(d / name)
        io.save_artifact(key, value, out / name)
        assert (out / name).read_bytes() == (d / name).read_bytes(), key
        assert_same(value, getattr(io, loader)(out / name), key)


def test_stage_order():
    assert [name for name, *_ in pipeline.STAGES] == [
        "track", "tips", "features", "segment", "cluster", "eval",
        "predict-skill", "report"]


def test_artifact_producers_are_stages():
    names = {name for name, *_ in pipeline.STAGES}
    producers = {stage for _, stage, *_ in io.ARTIFACTS.values()}
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
    io.save_json({"procedure_id": "messy-30fps", "fps": proc.fps,
                  "n_frames": proc.n_frames}, a / "meta.json")
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


def test_fewer_segments_than_clusters_clamps_k(tmp_path, capsys):
    # idle, one cut, idle: three segments for the default four clusters
    proc = generate(ProcedureScript(steps=[
        ActionSpec(ActionClass.NO_ACTION, 3.0),
        ActionSpec(ActionClass.CUTTING, 5.0),
        ActionSpec(ActionClass.NO_ACTION, 3.0)], seed=2))
    cfg = load_config(environ={})
    a, b = tmp_path / "a", tmp_path / "b"
    write_procedure(proc, a)
    io.save_json({"procedure_id": "short", "fps": proc.fps,
                  "n_frames": proc.n_frames}, a / "meta.json")
    shutil.copytree(a, b)
    out = pipeline.run_all(a, cfg)["cluster"]
    assert out["k_clamped"] is True and not out["semantic"]
    segments = io.load_segments(a / "segments.csv")
    assert out["n_segments"] == len(segments) < cfg.clustering.n_clusters
    # no semantic names: the action column holds the cluster ids
    assert sorted(s["action"] for s in segments) == \
        [str(k) for k in range(len(segments))]
    assert not (a / "predicted_labels.csv").exists()
    for _, stage in stages_without_model():
        stage(b, cfg)
    assert snapshot(a) == snapshot(b)
    assert run_cli("cluster", b) == 0
    assert "k_clamped=True" in capsys.readouterr().out


def test_run_all_on_one_feature_row(tmp_path):
    # downsampling by the frame count leaves one feature row, whose
    # constant columns z-score to zero; one segment then covers it
    proc = generate(ProcedureScript(steps=[
        ActionSpec(ActionClass.NO_ACTION, 3.0),
        ActionSpec(ActionClass.CUTTING, 5.0),
        ActionSpec(ActionClass.NO_ACTION, 3.0)], seed=2))
    cfg = load_config(environ={}, overrides={
        "features": {"downsample": proc.n_frames}})
    d = tmp_path / "p"
    write_procedure(proc, d)
    io.save_json({"procedure_id": "short", "fps": proc.fps,
                  "n_frames": proc.n_frames}, d / "meta.json")
    out = pipeline.run_all(d, cfg)
    X, _ = io.load_matrix(d / "features.csv")
    assert X.shape[0] == 1 and not X.any()
    assert out["segment"]["n_boundaries"] == 0
    assert [s["end_frame"] for s in io.load_segments(d / "segments.csv")] \
        == [1]
    assert (d / "report.json").exists()


def test_more_segments_than_clusters_keeps_k(tmp_path, base_proc, capsys):
    # the README's default seed-5 procedure has far more segments than K=4;
    # the flag must not compare the last segment's cluster id with K
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    cfg = load_config(environ={})
    out = pipeline.stage_cluster(d, cfg)
    assert out["k_clamped"] is False and out["semantic"]
    assert out["n_segments"] > cfg.clustering.n_clusters
    assert run_cli("cluster", d) == 0
    assert "k_clamped=False" in capsys.readouterr().out


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    # a run would fail with exit 1 on the missing directory
    with pytest.raises(SystemExit) as ei:
        run_cli("run-all", tmp_path / "none", f"--jobs={jobs}")
    assert ei.value.code == 2
    assert "--jobs: expected a whole number of at least 1" in (
        capsys.readouterr().err)


def test_resegment_sweep_parses_each_matrix_once(tmp_path, base_proc,
                                                 matrix_parses):
    # segment, cluster and report at two half-widths in one process, as a
    # user tunes the kernel; the same sweep with io's memo emptied before
    # every stage parses at each read and writes the same bytes
    def sweep(d, forget):
        shutil.copytree(base_proc, d)
        for h in (60, 150):
            cfg = load_config(environ={},
                              overrides={"segmentation": {"half_width": h}})
            for stage in (pipeline.stage_segment, pipeline.stage_cluster,
                          pipeline.stage_report):
                if forget:
                    io._MATRIX_MEMO.clear()
                stage(d, cfg)
        names = [p.name for p in matrix_parses]
        del matrix_parses[:]
        return names

    assert sweep(tmp_path / "a", False) == ["features.csv", "presence.csv"]
    assert sweep(tmp_path / "b", True) == 2 * [
        "features.csv", "features.csv", "presence.csv", "features.csv"]
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")


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
    assert str(alone.value).endswith(" (written by the 'synth' stage)")
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


@pytest.mark.parametrize("cpus, forks", [(2, 1), (1, 0)])
def test_run_all_forks_one_child_at_most(tmp_path, monkeypatch, base_proc,
                                         cpus, forks):
    # one child parses the tip candidates; every stage writes its own files
    d = fresh_proc(tmp_path)
    built = []
    init = pipeline._Child.__init__

    def counting(self, fn, *args):
        built.append(fn)
        init(self, fn, *args)

    monkeypatch.setattr(pipeline._Child, "__init__", counting)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    pipeline.run_all(d, load_config(environ={}))
    assert len(built) == forks
    assert snapshot(d) == snapshot(base_proc)
    assert_clean(d)


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
    # run_all stopped where the stage-by-stage run stops, with the same files
    assert snapshot(a) == snapshot(b)
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


def test_empty_feature_matrix_names_the_features_stage(tmp_path, base_proc,
                                                       capsys):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    header = (d / "features.csv").read_text().splitlines()[0]
    (d / "features.csv").write_text(header + "\n")
    for stage in ("segment", "cluster", "report"):
        assert run_cli(stage, d) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {d / 'features.csv'}: no feature rows "
                       "(written by the 'features' stage)\n"), stage


@pytest.mark.parametrize("stage", ["eval", "report"])
@pytest.mark.parametrize("damage", ["short", "long"])
def test_segments_off_the_feature_rows_name_the_cluster_stage(
        tmp_path, base_proc, capsys, stage, damage):
    # segments that stop short of the feature rows, or run past them,
    # used to be padded or cut to the frame count without a word
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    before = (d / f"{stage}.json").read_bytes()
    n_rows = len(io.load_matrix(d / "features.csv")[0])
    lines = (d / "segments.csv").read_text().splitlines()
    if damage == "short":
        lines.pop()
        end = int(lines[-1].split(",")[2])
    else:
        row = lines[-1].split(",")
        row[2] = str(end := int(row[2]) + 3)
        lines[-1] = ",".join(row)
    (d / "segments.csv").write_text("\n".join(lines) + "\n")
    assert run_cli(stage, d) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {d / 'segments.csv'}: the segments end at frame "
                   f"{end}, not at feature row {n_rows} (written by the "
                   "'cluster' stage)\n")
    assert (d / f"{stage}.json").read_bytes() == before


@pytest.mark.parametrize("stage", ["eval", "report", "predict-skill"])
@pytest.mark.parametrize("damage", ["resegment", "last-boundary-gone"])
def test_segments_cut_at_stale_boundaries_name_the_cluster_stage(
        tmp_path, base_proc, capsys, monkeypatch, stage, damage):
    # segment re-run at another half-width used to leave eval, report and
    # the skill stages pairing the new boundaries with segments cut at the
    # old ones
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    args = []
    if stage == "predict-skill":
        width = pipeline._skill_rows(d, load_config())[0][3].shape[0]
        args = ["--model", tmp_path / "m.json"]
        SkillGradientBoosting(n_estimators=2).fit(
            np.random.default_rng(0).normal(size=(6, width)),
            [0, 1, 2] * 2).save(args[1])
    out = d / ("skill_predictions.json" if stage == "predict-skill"
               else f"{stage}.json")
    before = out.read_bytes() if out.exists() else None
    if damage == "resegment":
        monkeypatch.setenv("MICROACT_SEGMENTATION__HALF_WIDTH", "20")
        assert run_cli("segment", d) == 0
        monkeypatch.delenv("MICROACT_SEGMENTATION__HALF_WIDTH")
    else:
        lines = (d / "boundaries.csv").read_text().splitlines()
        (d / "boundaries.csv").write_text("\n".join(lines[:-1]) + "\n")
    taus, _ = io.load_boundaries(d / "boundaries.csv")
    capsys.readouterr()
    assert run_cli(stage, d, *args) == 1
    assert capsys.readouterr().err == (
        f"error: {d / 'segments.csv'}: the segments do not start at the "
        f"{len(taus)} boundaries of boundaries.csv (written by the 'cluster' "
        "stage)\n")
    assert (out.read_bytes() if out.exists() else None) == before
    assert run_cli("cluster", d) == 0
    assert run_cli(stage, d, *args) == 0


def test_segment_durations_follow_the_effective_fps(base_proc):
    # the cluster stage writes each segment's length in seconds at the
    # features' frame rate, which the skill stages read as a feature
    fps = io.load_features_meta(base_proc / "features.csv.meta.json")[
        "effective_fps"]
    segments = io.load_segments(base_proc / "segments.csv")
    assert fps != 1.0 and len(segments) > 1
    for s in segments:
        assert s["duration_s"] == (s["end_frame"] - s["start_frame"]) / fps


@pytest.mark.parametrize("fps", [0.0, -5.0])
def test_non_positive_effective_fps_names_the_features_stage(
        tmp_path, base_proc, capsys, fps):
    # segment durations divide by it
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    path = d / "features.csv.meta.json"
    io.save_json({**json.loads(path.read_text()), "effective_fps": fps},
                 path)
    assert run_cli("cluster", d) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: effective_fps {fps} is not positive (written by "
        "the 'features' stage)\n")


@pytest.mark.parametrize("command", ["tips", "run-all"])
@pytest.mark.parametrize("value", ["NaN", "-Infinity"])
def test_non_finite_candidate_point_names_the_synth_stage(tmp_path, capsys,
                                                          command, value):
    # a NaN x used to reach tips.csv, or fail run-all naming no file
    d = fresh_proc(tmp_path)
    path = d / "tip_candidates.jsonl"
    lines = path.read_text().splitlines()
    # sorted keys: the line's first "x" is its first candidate's
    lines[575] = re.sub(r'"x": [^,]+', f'"x": {value}', lines[575], count=1)
    path.write_text("\n".join(lines) + "\n")
    if command == "tips":
        assert run_cli("track", d) == 0
    assert run_cli(command, d) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:576: candidate point (")
    assert err.endswith(" is not finite (written by the 'synth' stage)\n")
    assert not (d / "tips.csv").exists()


def _emptied(rec):
    rec["candidates"] = []


def _zeroed(value):
    def edit(rec):
        desc = rec["candidates"][2]["descriptor"]
        desc[:] = [value] * len(desc)
    return edit


def _unboxed(rec):
    for k in "xywh":
        del rec[k]


@pytest.mark.parametrize("command", ["tips", "run-all"])
@pytest.mark.parametrize("edit, reason", [
    (_emptied, "no tip candidates"),
    (_zeroed(0.0), "zero-norm descriptor at candidate 2"),
    # nonzero, but its squares underflow, so its norm is zero
    (_zeroed(1e-200), "zero-norm descriptor at candidate 2"),
    # a set without a crop box used to be skipped without a word
    (_unboxed, "missing field 'x'"),
], ids=["empty-set", "zero-descriptor", "underflowing-descriptor", "no-box"])
def test_refused_candidate_set_names_its_line(tmp_path, capsys, command,
                                              edit, reason):
    # each used to fail naming no file, or not at all
    d = fresh_proc(tmp_path)
    path = d / "tip_candidates.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    edit(rec)
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    if command == "tips":
        assert run_cli("track", d) == 0
    capsys.readouterr()
    assert run_cli(command, d) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:4: {reason} (written by the 'synth' stage)\n")
    assert not (d / "tips.csv").exists()


def test_descriptor_width_mismatch_names_both_files(tmp_path, base_proc,
                                                     capsys):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    path = d / "reference_descriptors.json"
    refs = io.load_reference_descriptors(path)
    width = len(refs[InstrumentClass.NEEDLE])
    refs[InstrumentClass.NEEDLE] = np.append(refs[InstrumentClass.NEEDLE], 1.0)
    io.save_reference_descriptors(refs, path)
    before = snapshot(d)
    assert run_cli("tips", d) == 1
    assert capsys.readouterr().err == (
        f"error: {d / 'tip_candidates.jsonl'}: the descriptors have {width} "
        f"values, but class 'needle' has {width + 1} in {path} (written by "
        "the 'synth' stage)\n")
    assert snapshot(d) == before


@pytest.mark.parametrize("frames", [-30, 2])
def test_tips_off_the_frame_count_name_the_tips_stage(tmp_path, base_proc,
                                                      capsys, frames):
    # features made from them would leave the sidecar's frame count,
    # which eval checks segments.csv against, off the matrix's rows
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    n = json.loads((d / "meta.json").read_text())["n_frames"]
    header, *rows = (d / "tips.csv").read_text().splitlines(keepends=True)
    if frames < 0:
        rows = [ln for ln in rows if int(ln.split(",")[0]) < n + frames]
    else:
        rows.append(f"{n + 1},0,0,0.0,0.0\r\n")
    (d / "tips.csv").write_text(header + "".join(rows))
    assert run_cli("features", d) == 1
    assert capsys.readouterr().err == (
        f"error: {d / 'tips.csv'}: the tips cover {n + frames} frames, but "
        f"meta.json has {n} (written by the 'tips' stage)\n")


@pytest.mark.parametrize("command", ["track", "features"])
@pytest.mark.parametrize("key, value, reason", [
    ("fps", 0, "fps must be a positive finite number, got 0"),
    ("fps", "x", "fps must be a positive finite number, got 'x'"),
    ("n_frames", "abc", "n_frames must be a non-negative integer, got 'abc'"),
], ids=["zero-fps", "text-fps", "text-n_frames"])
def test_bad_meta_names_the_synth_stage(tmp_path, base_proc, capsys,
                                        command, key, value, reason):
    # track used to run on with fps 0, and features to fail naming no file
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    path = d / "meta.json"
    io.save_json({**json.loads(path.read_text()), key: value}, path)
    line_no = next(no for no, line in enumerate(
        path.read_text().splitlines(), start=1) if f'"{key}"' in line)
    before = snapshot(d)
    assert run_cli(command, d) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:{line_no}: {reason} (written by the 'synth' stage)\n")
    assert snapshot(d) == before


@pytest.mark.parametrize("doc, line_no, reason", [
    ("[]\n", 1, "expected an object of class -> descriptor"),
    ('{\n "needle": [1.0, 0.5],\n "bogus": [1.0, 2.0]\n}\n', 3,
     "class 'bogus': 'bogus' is not a valid InstrumentClass"),
    ('{\n "needle": ["a", "b"]\n}\n', 2,
     "class 'needle': could not convert string to float: 'a'"),
    ('{\n "needle": [0.0, 0.0]\n}\n', 2,
     "class 'needle': the descriptor must be a vector of nonzero norm"),
    # nonzero, but its squares underflow, so its norm is zero
    ('{\n "needle": [1e-200, 0.0]\n}\n', 2,
     "class 'needle': the descriptor must be a vector of nonzero norm"),
], ids=["not-an-object", "unknown-class", "not-numbers", "zero-vector",
        "underflowing-vector"])
def test_bad_reference_descriptors_name_the_line(tmp_path, base_proc, capsys,
                                                 doc, line_no, reason):
    # a list used to end the tips stage in a traceback, and an unknown
    # class or a text value to name no file
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    path = d / "reference_descriptors.json"
    path.write_text(doc)
    before = snapshot(d)
    assert run_cli("tips", d) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:{line_no}: {reason} (written by the 'synth' stage)\n")
    assert snapshot(d) == before


def test_short_predicted_labels_name_the_cluster_stage(tmp_path, base_proc,
                                                       capsys):
    d = tmp_path / "p"
    shutil.copytree(base_proc, d)
    path = d / "predicted_labels.csv"
    header, *rows = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(header + b"".join(rows[:-5]))
    assert run_cli("eval", d) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: the labels cover {len(rows) - 5} frames, but "
        f"labels.csv has {len(rows)} (written by the 'cluster' stage)\n")


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
    # every dataclass field, each once, loading back to the same config
    written = load_config(environ={}, overrides={"seed": 3})
    assert yaml.safe_load(out.read_text()) == written.to_dict()
    assert load_config(out, environ={}) == written
    d = tmp_path / "p"
    assert run_cli("synth", "--out-dir", d, "--config", out) == 0
    assert json.loads((d / "meta.json").read_text())["seed"] == 3


def test_train_and_predict_flow(tmp_path, matrix_parses):
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
    # training read every matrix, and predicting reads them again from
    # io's memo; run-all parses none
    assert matrix_parses == [c1 / "features.csv", c1 / "presence.csv",
                             c2 / "features.csv", c2 / "presence.csv"]
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


@pytest.mark.parametrize("text, expect", [
    ('{"format_version": 1}', ": missing 'hyperparameters'"),
    ('{"format_version": 1, "hyperparameters": {}, "classes": [0, 1], '
     '"n_features": 1, "trees": [], "train_log_loss": [], '
     '"feature_importances": [1.0]}',
     ": missing 'hyperparameters.n_estimators'"),
    ('{"format_version": 1,', ":1: invalid JSON"),
    ('{"format_version": 1, "hyperparameters": {"n_estimators": 1, '
     '"learning_rate": 0.1, "max_depth": 1}, "classes": [0, 1], '
     '"n_features": 1, "trees": [[{"feature": 0, "left": {"leaf": 0.0}, '
     '"right": {"leaf": 0.0}}, {"leaf": 0.0}]], "train_log_loss": [0.5], '
     '"feature_importances": [1.0]}',
     ": trees[0][0]: missing 'threshold'"),
], ids=["top-level-key", "hyperparameter", "invalid-json", "tree-node"])
def test_malformed_model_is_a_diagnostic(tmp_path, base_proc, capsys, text,
                                         expect):
    model = tmp_path / "m.json"
    model.write_text(text)
    # the model is read before the procedure, so base_proc stays as it is
    assert run_cli("predict-skill", base_proc, "--model", model) == 1
    err = capsys.readouterr().err
    assert f"{model}{expect}" in err
    assert "Traceback" not in err


def test_model_of_another_width_names_both_files(tmp_path, base_proc,
                                                  capsys):
    width = pipeline._skill_rows(base_proc, load_config())[0][3].shape[0]
    rng = np.random.default_rng(0)
    model = tmp_path / "m.json"
    SkillGradientBoosting(n_estimators=2).fit(
        rng.normal(size=(6, width + 8)), [0, 1, 2] * 2).save(model)
    before = snapshot(base_proc)
    assert run_cli("predict-skill", base_proc, "--model", model) == 1
    err = capsys.readouterr().err
    assert f"{model}: model fitted on {width + 8} features, but " \
           f"{base_proc} has {width}" in err
    assert "Traceback" not in err
    assert snapshot(base_proc) == before


def test_predict_without_model_names_trainer(tmp_path, base_proc, capsys):
    c = tmp_path / "c"
    shutil.copytree(base_proc, c)
    assert run_cli("predict-skill", c, "--model", tmp_path / "nope.json") == 1
    assert "train-skill" in capsys.readouterr().err


def _tip_sets_scalar(tracks, cands, n_frames, min_hits):
    """The candidate set each confirmed track frame takes, by the per-pair
    ``iou`` loop the tips stage ran before its IoUs were batched: the first
    crop in object-id order with the highest IoU, if that is 0.5 or more."""
    out = []
    for track in sorted(tracks, key=lambda t: t.object_id):
        for f in pipeline._confirmed_frames(track, min_hits):
            if not 0 <= f < n_frames:
                continue
            best, best_iou = None, 0.0
            for key in sorted(k for k in cands if k[0] == f):
                cbox = cands[key].bbox
                if iou(track.boxes[f], cbox) > best_iou:
                    best, best_iou = key, iou(track.boxes[f], cbox)
            if best is not None and best_iou >= 0.5:
                out.append(best)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_tip_match_agrees_with_the_scalar_loop(tmp_path, monkeypatch, seed):
    # few box shapes, so crops repeat, tie, touch and meet IoU 0.5 exactly
    rng = np.random.default_rng(seed)
    grid = [(x, y, w, 10.0) for x in (0.0, 5.0, 10.0) for y in (0.0, 10.0)
            for w in (5.0, 10.0)]
    n_frames, classes = 12, list(InstrumentClass)[:3]
    tracks = []
    for oid in range(4):
        fs = sorted(rng.choice(np.arange(-1, n_frames + 1), size=8,
                               replace=False).tolist())
        tracks.append(RefinedTrack(
            object_id=oid, class_id=classes[oid % 3],
            boxes={f: grid[rng.integers(len(grid))] for f in fs},
            provenance={f: list(Provenance)[rng.integers(3)] for f in fs}))
    cands = {}
    for f in range(n_frames):
        for oid in rng.choice(6, size=rng.integers(0, 5), replace=False):
            # the set's own key in its point, to tell which set was taken
            cands[(f, int(oid))] = CandidateSet(
                candidates=[(float(f), float(oid), np.array([1.0, 0.5]))],
                bbox=grid[rng.integers(len(grid))])
    io.save_refined_tracks(tracks, tmp_path / "refined_tracks.jsonl")
    io.save_tip_candidates(candidate_table(cands),
                           tmp_path / "tip_candidates.jsonl")
    io.save_reference_descriptors({c: np.array([1.0, 0.0]) for c in classes},
                                  tmp_path / "reference_descriptors.json")
    io.save_json({"fps": 5.0, "n_frames": n_frames}, tmp_path / "meta.json")
    taken = []

    def recording(table, sets, *rest):
        taken.append([tuple(int(v) for v in table.points[table.offsets[s]])
                      for s in sets])
        return localize_tip(table, sets, *rest)

    monkeypatch.setattr(pipeline, "localize_tip", recording)
    cfg = load_config(environ={}, overrides={"tracking": {"confirm_hits": 2}})
    summary = pipeline.stage_tips(tmp_path, cfg)
    want = _tip_sets_scalar(tracks, cands, n_frames, 2)
    # one batched call for the whole stage
    assert taken == [want] and summary["n_localized"] == len(want) > 0


@pytest.mark.parametrize("n_labels, factor, n_native", [
    (5, 1, 5), (5, 1, 3), (5, 1, 8), (5, 1, 0), (0, 1, 0), (5, 6, 30),
    (5, 6, 27), (5, 6, 34), (1, 3, 2)])
def test_expand_to_native_repeats_each_label(n_labels, factor, n_native):
    # the one-line expansion for every factor, as the oracle of the
    # factor-1 copy
    labels = [ActionClass.CUTTING, ActionClass.NO_ACTION,
              ActionClass.KNOT_TYING] * 2
    labels = labels[:n_labels]
    want = [labels[min(t // factor, len(labels) - 1)] for t in range(n_native)]
    assert pipeline._expand_to_native(labels, factor, n_native) == want
