"""The configuration layer: type coercion, null handling and validation,
each checked on ``load_config`` and the CLI that calls it."""

import dataclasses
import re
import typing

import numpy as np
import pytest

from microact import cli
from microact.config import ConfigError, PipelineConfig, load_config
from microact.segmentation import NoveltyBoundaryDetector


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def load(overrides=None, environ=None, path=None) -> PipelineConfig:
    return load_config(path, environ=environ or {}, overrides=overrides)


def field_names() -> set[str]:
    """Every settable field, as ``section.field`` or a top-level name."""
    out = set()
    for name, hint in typing.get_type_hints(PipelineConfig).items():
        if dataclasses.is_dataclass(hint):
            out |= {f"{name}.{f.name}" for f in dataclasses.fields(hint)}
        else:
            out.add(name)
    return out


# one override per rule of ``validate`` that breaks it, and the field that
# the rule's message starts with
BROKEN = [
    ({"schema_version": 2}, "schema_version"),
    ({"synth": {"fps": 0.0}}, "synth.fps"),
    ({"synth": {"noise": -1.0}}, "synth.noise"),
    ({"synth": {"dropout_rate": 1.5}}, "synth.dropout_rate"),
    ({"synth": {"mislabel_rate": -0.1}}, "synth.mislabel_rate"),
    ({"synth": {"sloppiness": 2.0}}, "synth.sloppiness"),
    ({"synth": {"dropout_max_run": 0}}, "synth.dropout_max_run"),
    ({"tracking": {"appearance_weight": -0.1}}, "tracking.appearance_weight"),
    ({"tracking": {"appearance_weight": 1.5}}, "tracking.appearance_weight"),
    ({"tracking": {"iou_gate": 1.5}}, "tracking.iou_gate"),
    ({"tracking": {"cross_class_iou": -0.5}}, "tracking.cross_class_iou"),
    ({"tracking": {"max_coast": -1}}, "tracking.max_coast"),
    ({"tracking": {"delete_after": 4}}, "tracking.delete_after"),
    ({"tracking": {"confirm_hits": 0}}, "tracking.confirm_hits"),
    ({"tracking": {"max_gap": -1}}, "tracking.max_gap"),
    ({"features": {"downsample": 0}}, "features.downsample"),
    ({"segmentation": {"half_width": 0}}, "segmentation.half_width"),
    ({"segmentation": {"sigma": 0.0}}, "segmentation.sigma"),
    ({"segmentation": {"prominence_frac": 0.0}},
     "segmentation.prominence_frac"),
    ({"segmentation": {"min_distance": 0}}, "segmentation.min_distance"),
    ({"clustering": {"n_clusters": 0}}, "clustering.n_clusters"),
    ({"clustering": {"restarts": 0}}, "clustering.restarts"),
    ({"clustering": {"max_iter": 0}}, "clustering.max_iter"),
    ({"clustering": {"mask_weight": 0.0}}, "clustering.mask_weight"),
    ({"skill": {"n_estimators": -1}}, "skill.n_estimators"),
    ({"skill": {"learning_rate": 0.0}}, "skill.learning_rate"),
    ({"skill": {"max_depth": 0}}, "skill.max_depth"),
    ({"skill": {"poor_max": 4.0}}, "skill.poor_max"),
    ({"skill": {"moderate_max": 2.0}}, "skill.poor_max"),
    ({"skill": {"folds": 1}}, "skill.folds"),
    ({"evaluation": {"boundary_tolerance_s": -0.5}},
     "evaluation.boundary_tolerance_s"),
]


@pytest.mark.parametrize("override, field", BROKEN,
                         ids=[f"{f}={o}" for o, f in BROKEN])
def test_validate_rule_names_its_field(override, field):
    with pytest.raises(ConfigError) as ei:
        load(override)
    assert str(ei.value).startswith(field)


def test_every_field_but_the_seed_has_a_rule():
    touched = set()
    for override, _ in BROKEN:
        for key, value in override.items():
            touched |= ({f"{key}.{k}" for k in value}
                        if isinstance(value, dict) else {key})
    assert touched == field_names() - {"seed"}


@pytest.mark.parametrize("override, where, message", [
    ({"seed": True}, "seed", "expected an integer"),
    ({"clustering": {"n_clusters": True}}, "clustering.n_clusters",
     "expected an integer"),
    ({"tracking": {"max_coast": 2.5}}, "tracking.max_coast",
     "expected an integer"),
    ({"synth": {"fps": "fast"}}, "synth.fps", "expected a number"),
    ({"synth": {"noise": False}}, "synth.noise", "expected a number"),
])
def test_coerce_rejects_wrong_types(override, where, message):
    with pytest.raises(ConfigError, match=f"overrides: {where}: {message}"):
        load(override)


@pytest.mark.parametrize("override, message", [
    ({"frobnicate": 1}, "unknown key 'frobnicate'"),
    ({"tracking": 3}, "section 'tracking' must be a mapping"),
    # not settings: features are never smoothed and always z-scored, the
    # floor is segmentation.NOVELTY_FLOOR, the IoU weight 1 - appearance's
    ({"features": {"smooth_window": 3}},
     "unknown field features.'smooth_window'"),
    ({"features": {"zscore": False}}, "unknown field features.'zscore'"),
    ({"segmentation": {"novelty_floor": 0.0}},
     "unknown field segmentation.'novelty_floor'"),
    ({"tracking": {"iou_weight": 0.7}}, "unknown field tracking.'iou_weight'"),
])
def test_unknown_names_and_bad_sections(override, message):
    with pytest.raises(ConfigError, match=message):
        load(override)


class TestNull:
    """Only an Optional field takes null; any other null names its field."""

    def test_seed_from_environment(self):
        with pytest.raises(ConfigError,
                           match="environment: seed: expected an integer"):
            load(environ={"MICROACT_SEED": "null"})

    def test_seed_from_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("seed: null\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: seed: expected an integer, got None")):
            load(path=path)

    def test_max_coast_from_environment(self):
        with pytest.raises(ConfigError, match="environment: "
                           "tracking.max_coast: expected an integer"):
            load(environ={"MICROACT_TRACKING__MAX_COAST": "null"})

    def test_float_field(self):
        with pytest.raises(ConfigError, match="synth.fps: expected a number"):
            load({"synth": {"fps": None}})

    def test_sigma_null_means_half_width(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("segmentation:\n  sigma: 3.0\n")
        assert load(path=path).segmentation.sigma == 3.0
        cfg = load(path=path, environ={"MICROACT_SEGMENTATION__SIGMA": "null"})
        assert cfg.segmentation.sigma is None
        g = cfg.segmentation
        det = NoveltyBoundaryDetector(half_width=g.half_width, sigma=g.sigma)
        assert det.fit(np.eye(30)).sigma_ == g.half_width / 2

    def test_cli_synth_reports_the_field(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MICROACT_SEED", "null")
        assert run_cli("synth", "--out-dir", tmp_path / "p") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: environment: seed: expected an integer")
        assert "Traceback" not in err
        assert not (tmp_path / "p").exists()
