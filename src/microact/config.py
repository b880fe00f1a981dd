"""Pipeline configuration: one YAML file drives every stage.

The dataclasses below are the one declaration of every setting: its
name, its type (only an Optional field takes null) and its default.  A
config file overrides defaults, environment variables override the file
(prefix MICROACT_, double underscore between section and field, e.g.
MICROACT_SEGMENTATION__HALF_WIDTH=20), and every value is validated
against its consuming module's preconditions at load time so a bad
config fails before any stage runs.
"""

from __future__ import annotations

import dataclasses
import os
import typing
from dataclasses import dataclass, field
from typing import Optional

import yaml

SCHEMA_VERSION = 1
ENV_PREFIX = "MICROACT_"


class ConfigError(ValueError):
    pass


@dataclass
class SynthSection:
    fps: float = 5.0
    noise: float = 0.5
    dropout_rate: float = 0.0
    dropout_max_run: int = 5
    mislabel_rate: float = 0.0
    sloppiness: float = 0.0


@dataclass
class TrackingSection:
    appearance_weight: float = 0.3   # the IoU cost weighs 1 - this
    iou_gate: float = 0.3
    cross_class_iou: float = 0.5
    # coast emission bound; ~1 s at the 5 fps working rate, scale with fps
    max_coast: int = 5
    delete_after: int = 60
    confirm_hits: int = 3
    max_gap: int = 30


@dataclass
class FeaturesSection:
    downsample: int = 1


@dataclass
class SegmentationSection:
    half_width: int = 10
    sigma: Optional[float] = None   # None -> half_width / 2
    prominence_frac: float = 0.3
    min_distance: int = 5


@dataclass
class ClusteringSection:
    n_clusters: int = 4
    restarts: int = 10
    max_iter: int = 300
    mask_weight: float = 3.0


@dataclass
class SkillSection:
    n_estimators: int = 200
    learning_rate: float = 0.1
    max_depth: int = 3
    poor_max: float = 2.5
    moderate_max: float = 3.5
    folds: int = 5


@dataclass
class EvalSection:
    boundary_tolerance_s: float = 0.5


@dataclass
class PipelineConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    synth: SynthSection = field(default_factory=SynthSection)
    tracking: TrackingSection = field(default_factory=TrackingSection)
    features: FeaturesSection = field(default_factory=FeaturesSection)
    segmentation: SegmentationSection = field(default_factory=SegmentationSection)
    clustering: ClusteringSection = field(default_factory=ClusteringSection)
    skill: SkillSection = field(default_factory=SkillSection)
    evaluation: EvalSection = field(default_factory=EvalSection)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _coerce(value, hint, where: str):
    """A YAML scalar as the field's type; only an Optional field takes null."""
    if typing.get_args(hint):   # Optional[T]
        if value is None:
            return None
        hint, = (a for a in typing.get_args(hint) if a is not type(None))
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    # every other field is a float
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _apply(cfg: PipelineConfig, data: dict, origin: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{origin}: top level must be a mapping")
    hints = typing.get_type_hints(PipelineConfig)
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"{origin}: unknown key {key!r}")
        if not dataclasses.is_dataclass(hints[key]):
            setattr(cfg, key, _coerce(value, hints[key], f"{origin}: {key}"))
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{origin}: section {key!r} must be a mapping")
        section = getattr(cfg, key)
        fields = typing.get_type_hints(hints[key])
        for fk, fv in value.items():
            if fk not in fields:
                raise ConfigError(f"{origin}: unknown field {key}.{fk!r}")
            setattr(section, fk,
                    _coerce(fv, fields[fk], f"{origin}: {key}.{fk}"))


def _env_overrides(environ) -> dict:
    out: dict = {}
    for var, raw in sorted(environ.items()):
        if not var.startswith(ENV_PREFIX):
            continue
        rest = var[len(ENV_PREFIX):].lower()
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            value = raw
        if "__" in rest:
            section, fk = rest.split("__", 1)
            out.setdefault(section, {})[fk] = value
        else:
            out[rest] = value
    return out


def validate(cfg: PipelineConfig) -> PipelineConfig:
    def need(cond: bool, msg: str):
        if not cond:
            raise ConfigError(msg)

    need(cfg.schema_version == SCHEMA_VERSION,
         f"schema_version must be {SCHEMA_VERSION}, got {cfg.schema_version}")
    need(cfg.seed >= 0, "seed must be >= 0")
    s = cfg.synth
    need(s.fps > 0, "synth.fps must be > 0")
    need(s.noise >= 0, "synth.noise must be >= 0")
    for name in ("dropout_rate", "mislabel_rate", "sloppiness"):
        v = getattr(s, name)
        need(0.0 <= v <= 1.0, f"synth.{name} must be in [0, 1]")
    need(s.dropout_max_run >= 1, "synth.dropout_max_run must be >= 1")

    t = cfg.tracking
    need(0.0 <= t.appearance_weight <= 1.0,
         "tracking.appearance_weight must be in [0, 1]")
    need(0.0 <= t.iou_gate <= 1.0, "tracking.iou_gate must be in [0, 1]")
    need(0.0 <= t.cross_class_iou <= 1.0,
         "tracking.cross_class_iou must be in [0, 1]")
    need(t.max_coast >= 0, "tracking.max_coast must be >= 0")
    need(t.delete_after >= t.max_coast,
         "tracking.delete_after must be >= max_coast")
    need(t.confirm_hits >= 1, "tracking.confirm_hits must be >= 1")
    need(t.max_gap >= 0, "tracking.max_gap must be >= 0")

    f = cfg.features
    need(f.downsample >= 1, "features.downsample must be >= 1")

    g = cfg.segmentation
    need(g.half_width >= 1, "segmentation.half_width must be >= 1")
    need(g.sigma is None or g.sigma > 0,
         "segmentation.sigma must be > 0 (or null for half_width/2)")
    need(0.0 < g.prominence_frac <= 1.0,
         "segmentation.prominence_frac must be in (0, 1]")
    need(g.min_distance >= 1, "segmentation.min_distance must be >= 1")

    c = cfg.clustering
    need(c.n_clusters >= 1, "clustering.n_clusters must be >= 1")
    need(c.restarts >= 1, "clustering.restarts must be >= 1")
    need(c.max_iter >= 1, "clustering.max_iter must be >= 1")
    need(c.mask_weight > 0, "clustering.mask_weight must be > 0")

    k = cfg.skill
    need(k.n_estimators >= 0, "skill.n_estimators must be >= 0")
    need(0.0 < k.learning_rate <= 1.0, "skill.learning_rate must be in (0, 1]")
    need(k.max_depth >= 1, "skill.max_depth must be >= 1")
    need(k.poor_max < k.moderate_max,
         "skill.poor_max must be below skill.moderate_max")
    need(k.folds >= 2, "skill.folds must be >= 2")

    need(cfg.evaluation.boundary_tolerance_s >= 0,
         "evaluation.boundary_tolerance_s must be >= 0")
    return cfg


def load_config(path=None, environ=None, overrides: Optional[dict] = None
                ) -> PipelineConfig:
    """Defaults <- file <- environment <- explicit overrides, validated."""
    cfg = PipelineConfig()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        if data is not None:
            _apply(cfg, data, str(path))
    env = os.environ if environ is None else environ
    env_data = _env_overrides(env)
    if env_data:
        _apply(cfg, env_data, "environment")
    if overrides:
        _apply(cfg, overrides, "overrides")
    return validate(cfg)


def save_config(cfg: PipelineConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, default_flow_style=False,
                       sort_keys=True)
