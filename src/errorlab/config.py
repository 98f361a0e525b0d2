"""Scenario files: parsing, eager validation, and normalization.

One YAML scenario drives every command; sections select what each command
runs.  Parsing validates all present sections before any computation, and
``normalize`` materializes defaults into a canonical mapping whose
round-trip reparse yields identical objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence

import yaml

from .errors import ConfigError, InvalidSpecError
from .experiments import AxisLevel, InformationAxis, PanelScenario, level_omit
from .models import REGIMES, ModelSpec
from .worldgen import (
    TargetNoiseSpec,
    World,
    as_mapping,
    build_world,
    coerce,
    feature_noise_from_config,
    reject_unknown,
    spec_from_config,
    spec_to_config,
    world_to_config,
)

SCENARIO_SCHEMA_VERSION = 1

# libyaml's safe loader and dumper where PyYAML was built with it: the same
# objects and bytes as the pure-Python classes, several times faster.
if yaml.__with_libyaml__:
    SafeLoader, SafeDumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    SafeLoader, SafeDumper = yaml.SafeLoader, yaml.SafeDumper


@dataclass
class SimulateConfig:
    n: int = 1000
    label: str = "simulate"


@dataclass
class DecomposeConfig:
    train_n: int = 400
    n: int = 1000


@dataclass
class BiasVarConfig:
    regime: str = "TT"
    n_train: int = 200
    replicates: int = 200
    test_points: int = 256
    components_replicates: int = 0


@dataclass
class ProbeConfig:
    n: int = 20000


@dataclass
class CurveConfig:
    axis: InformationAxis
    replicates: int = 30
    test_points: int = 10_000
    comp_points: int = 512


@dataclass
class GalleryConfig:
    low_world: World
    low_model: ModelSpec
    high_world: World
    high_model: ModelSpec
    axis: InformationAxis
    replicates: int = 20
    test_points: int = 10_000
    ceiling_n: int = 100_000


@dataclass
class Scenario:
    seed: int
    world: World
    model: ModelSpec
    simulate: SimulateConfig
    decompose: DecomposeConfig
    biasvar: BiasVarConfig
    probe: ProbeConfig
    curve: Optional[CurveConfig]
    panels: Optional[list[PanelScenario]]
    gallery: Optional[GalleryConfig]


# Smallest accepted value of an integer section field, by its path (a variance
# needs two values, the probe four rows); any other integer field is a size.
_INT_MINIMUM = {
    "biasvar.replicates": 2,
    "biasvar.components_replicates": 0,
    "probe.n": 4,
    "curve.replicates": 2,
    "curve.test_points": 2,
    "gallery.replicates": 2,
    "gallery.test_points": 2,
    "gallery.ceiling_n": 2,
}


def _section(cls, cfg, path: str, **given):
    """A command section, with its integer fields checked against
    ``_INT_MINIMUM``."""
    section = spec_from_config(cls, cfg, path, **given)
    for f in fields(cls):
        value = getattr(section, f.name)
        minimum = _INT_MINIMUM.get(f"{path}.{f.name}", 1)
        if isinstance(f.default, int) and value < minimum:
            raise ConfigError(f"{path}.{f.name}: must be >= {minimum}, got {value}")
    return section


def _world(cfg, path: str, seed: int) -> World:
    world_cfg = as_mapping(cfg, path)
    if not world_cfg:
        raise ConfigError(f"{path}: required section is missing")
    world_cfg.setdefault("seed", seed)
    return build_world(world_cfg, path)


def _axis_from_config(cfg, path: str, worlds: Sequence[World]) -> InformationAxis:
    """The axis at ``path``, checked against each world it will run on."""
    cfg = as_mapping(cfg, path)
    levels_cfg = cfg.pop("levels", None)
    if not levels_cfg:
        raise ConfigError(f"{path}.levels: required field is missing")
    reject_unknown(cfg, path)
    levels = [
        spec_from_config(AxisLevel, level, f"{path}.levels[{i}]")
        for i, level in enumerate(levels_cfg)
    ]
    try:
        axis = InformationAxis(levels=tuple(levels))
        for world in worlds:
            for level in axis.levels:
                level_omit(world, level)
    except InvalidSpecError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return axis


def _panels_from_config(cfg, world: World, axis: InformationAxis) -> list[PanelScenario]:
    """The panel variants, each checked on its world along the curve axis."""
    cfg = as_mapping(cfg, "panels")
    variants_cfg = cfg.pop("variants", None)
    if not variants_cfg:
        raise ConfigError("panels.variants: required field is missing")
    reject_unknown(cfg, "panels")
    scenarios = []
    for i, raw in enumerate(variants_cfg):
        path = f"panels.variants[{i}]"
        raw = as_mapping(raw, path)
        target = raw.pop("target_noise", None)
        feature = raw.pop("feature_noise", None)
        try:  # a broken rule names the variant; a ConfigError names its own path
            if target is not None:
                target = spec_from_config(TargetNoiseSpec, target, f"{path}.target_noise")
            if feature is not None:
                feature = feature_noise_from_config(
                    feature, world.input_dim, f"{path}.feature_noise"
                )
            scenario = spec_from_config(
                PanelScenario, raw, path, target_noise=target, feature_noise=feature
            )
            variant_world = scenario.apply(world)
            for level in axis.levels:
                level_omit(variant_world, level)
        except InvalidSpecError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        scenarios.append(scenario)
    if not any(s.variant == "baseline" for s in scenarios):
        raise ConfigError("panels.variants: needs a baseline variant")
    return scenarios


def _gallery_side(cfg, path: str, seed: int) -> tuple[World, ModelSpec]:
    side = as_mapping(cfg, path)
    if not side:
        raise ConfigError(f"{path}: required section is missing")
    world = _world(side.pop("world", None), f"{path}.world", seed)
    model = spec_from_config(ModelSpec, side.pop("model", None), f"{path}.model")
    reject_unknown(side, path)
    return world, model


def scenario_from_mapping(raw: Mapping) -> Scenario:
    """Validate a parsed scenario mapping into typed objects."""
    cfg = as_mapping(raw, "scenario")
    version = cfg.pop("schema_version", SCENARIO_SCHEMA_VERSION)
    if type(version) is not int or version != SCENARIO_SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: this errorlab reads version {SCENARIO_SCHEMA_VERSION}, "
            f"got {version!r}"
        )
    if "seed" not in cfg:
        raise ConfigError("seed: required field is missing")
    seed = coerce(int, cfg.pop("seed"), "seed")
    world = _world(cfg.pop("world", None), "world", seed)
    model = spec_from_config(ModelSpec, cfg.pop("model", None), "model")
    simulate = _section(SimulateConfig, cfg.pop("simulate", None), "simulate")
    decompose = _section(DecomposeConfig, cfg.pop("decompose", None), "decompose")
    biasvar = _section(BiasVarConfig, cfg.pop("biasvar", None), "biasvar")
    if biasvar.regime not in REGIMES:
        raise ConfigError(f"biasvar.regime: unknown regime {biasvar.regime!r}")
    if biasvar.components_replicates == 1:
        raise ConfigError("biasvar.components_replicates: must be 0 (off) or >= 2, got 1")
    probe = _section(ProbeConfig, cfg.pop("probe", None), "probe")

    curve = None
    cur_cfg = cfg.pop("curve", None)
    if cur_cfg is not None:
        cur_cfg = as_mapping(cur_cfg, "curve")
        axis = _axis_from_config(cur_cfg.pop("axis", None), "curve.axis", [world])
        curve = _section(CurveConfig, cur_cfg, "curve", axis=axis)

    panels = None
    panels_cfg = cfg.pop("panels", None)
    if panels_cfg is not None:
        if curve is None:
            raise ConfigError("panels: requires a curve section (shared axis)")
        panels = _panels_from_config(panels_cfg, world, curve.axis)

    gallery = None
    gal_cfg = cfg.pop("gallery", None)
    if gal_cfg is not None:
        gal_cfg = as_mapping(gal_cfg, "gallery")
        low_world, low_model = _gallery_side(gal_cfg.pop("low", None), "gallery.low", seed)
        high_world, high_model = _gallery_side(gal_cfg.pop("high", None), "gallery.high", seed)
        axis = _axis_from_config(gal_cfg.pop("axis", None), "gallery.axis", [low_world, high_world])
        gallery = _section(
            GalleryConfig,
            gal_cfg,
            "gallery",
            low_world=low_world,
            low_model=low_model,
            high_world=high_world,
            high_model=high_model,
            axis=axis,
        )
    reject_unknown(cfg, "")

    return Scenario(
        seed=seed,
        world=world,
        model=model,
        simulate=simulate,
        decompose=decompose,
        biasvar=biasvar,
        probe=probe,
        curve=curve,
        panels=panels,
        gallery=gallery,
    )


def parse_config(path) -> Scenario:
    """Parse and validate a scenario file; no computation happens here."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=SafeLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file failed to parse: {exc}") from exc
    if raw is None:
        raise ConfigError("scenario file is empty")
    try:
        return scenario_from_mapping(raw)
    except InvalidSpecError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# normalization

_GALLERY_SIDES = ("low_world", "low_model", "high_world", "high_model")


def normalize_scenario(scenario: Scenario) -> dict:
    """Canonical mapping with defaults materialized; reparsing it yields
    objects equal to the originals."""
    out = spec_to_config(scenario, skip=("world", "panels", "gallery"))
    out["schema_version"] = SCENARIO_SCHEMA_VERSION
    out["world"] = world_to_config(scenario.world)
    if scenario.panels is not None:
        out["panels"] = {"variants": [spec_to_config(panel) for panel in scenario.panels]}
    gal = scenario.gallery
    if gal is not None:
        out["gallery"] = {
            **spec_to_config(gal, skip=_GALLERY_SIDES),
            "low": {
                "world": world_to_config(gal.low_world),
                "model": spec_to_config(gal.low_model),
            },
            "high": {
                "world": world_to_config(gal.high_world),
                "model": spec_to_config(gal.high_model),
            },
        }
    return out


def scenario_to_yaml(scenario: Scenario) -> str:
    return yaml.dump(normalize_scenario(scenario), Dumper=SafeDumper, sort_keys=True)
