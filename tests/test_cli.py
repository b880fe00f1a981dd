"""End-to-end checks of the command-line interface.

These run the real `main` entry point against synthesized procedures in
temp dirs, so they cover config layering, stage wiring, and the on-disk
artifact contract rather than any one module.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from microact import cli, io


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


def test_stagewise_equals_run_all(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--out-dir", a, "--seed", 5) == 0
    assert run_cli("synth", "--out-dir", b, "--seed", 5) == 0
    assert run_cli("run-all", a) == 0
    for stage in ("track", "tips", "features", "segment", "cluster",
                  "eval", "report"):
        assert run_cli(stage, b) == 0
    assert snapshot(a) == snapshot(b)


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
