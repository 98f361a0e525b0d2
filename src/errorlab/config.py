"""Scenario files: parsing, eager validation, and normalization.

One YAML scenario drives every command; sections select what each command
runs.  Parsing validates all present sections before any computation, and
``normalize`` materializes defaults into a canonical mapping whose
round-trip reparse yields identical objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

import yaml

from .decomp import BiasVarConfig, ProbeConfig
from .errors import ConfigError, InvalidSpecError
from .experiments import (
    AxisLevel,
    CurveConfig,
    GalleryConfig,
    GallerySide,
    InformationAxis,
    PanelScenario,
    PanelsConfig,
)
from .models import ModelSpec
from .worldgen import (
    WORLD_SECTIONS,
    World,
    as_mapping,
    at_least,
    build_world,
    naming,
    read_seed,
    reject_unknown,
    spec_from_config,
    spec_to_config,
    world_section,
)

SCENARIO_SCHEMA_VERSION = 1

# libyaml's safe loader and dumper where PyYAML was built with it: the same
# objects and bytes as the pure-Python classes, several times faster.
if yaml.__with_libyaml__:
    SafeLoader, SafeDumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    SafeLoader, SafeDumper = yaml.SafeLoader, yaml.SafeDumper


@dataclass(frozen=True)
class SimulateConfig:
    n: int = 1000
    label: str = "simulate"

    def __post_init__(self) -> None:
        at_least(self, "simulate", n=1)


@dataclass(frozen=True)
class DecomposeConfig:
    train_n: int = 400
    n: int = 1000

    def __post_init__(self) -> None:
        at_least(self, "decompose", train_n=1, n=1)


@dataclass(frozen=True)
class Scenario:
    seed: int
    world: World
    model: ModelSpec
    simulate: SimulateConfig
    decompose: DecomposeConfig
    biasvar: BiasVarConfig
    probe: ProbeConfig
    curve: Optional[CurveConfig]
    panels: Optional[PanelsConfig]
    gallery: Optional[GalleryConfig]

    def __post_init__(self) -> None:
        # Each section checked its own rules when it was built; these join two
        # of them: the panel variants' worlds share the curve axis too.
        if self.curve is not None:
            with naming("curve.axis"):
                self.curve.axis.check_world(self.world)
        if self.panels is not None:
            if self.curve is None:
                raise InvalidSpecError("panels: requires a curve section (shared axis)")
            for i, variant in enumerate(self.panels.variants):
                with naming(f"panels.variants[{i}]"):
                    self.curve.axis.check_world(variant.apply(self.world))


def _section(cls, cfg, path: str, replicates: Optional[int], **given):
    """The command section at ``path``; ``replicates`` (``--replicates``),
    when given, replaces the file's value."""
    cfg = as_mapping(cfg, path)
    if replicates is not None:
        cfg["replicates"] = replicates
    return spec_from_config(cls, cfg, path, **given)


def _world(cfg, path: str, seed: int, overridden: bool) -> World:
    """The world at ``path``.  Its own ``seed`` key wins over the scenario's
    ``seed``, unless that was overridden (``--seed``): then it is every
    world's seed, though the world's own is still checked."""
    world_cfg = as_mapping(cfg, path)
    if not world_cfg:
        raise ConfigError(f"{path}: required section is missing")
    if overridden and "seed" in world_cfg:
        read_seed(world_cfg["seed"], f"{path}.seed")
    if overridden or "seed" not in world_cfg:
        world_cfg["seed"] = seed
    return build_world(world_cfg, path)


def _axis_from_config(cfg, path: str) -> InformationAxis:
    """The axis at ``path``."""
    cfg = as_mapping(cfg, path)
    levels_cfg = cfg.pop("levels", None)
    if not levels_cfg:
        raise ConfigError(f"{path}.levels: required field is missing")
    reject_unknown(cfg, path)
    levels = [
        spec_from_config(AxisLevel, level, f"{path}.levels[{i}]")
        for i, level in enumerate(levels_cfg)
    ]
    with naming(path):
        return InformationAxis(levels=tuple(levels))


_PANEL_FIELDS = {f.name for f in fields(PanelScenario)}


def _panels_from_config(cfg, world: World) -> PanelsConfig:
    """The panel variants; a variant's override sections are read as
    ``world``'s own are, with its input dimension."""
    cfg = as_mapping(cfg, "panels")
    variants_cfg = cfg.pop("variants", None)
    if not variants_cfg:
        raise ConfigError("panels.variants: required field is missing")
    reject_unknown(cfg, "panels")
    scenarios = []
    for i, raw in enumerate(variants_cfg):
        path = f"panels.variants[{i}]"
        raw = as_mapping(raw, path)
        # A broken rule names the variant; a ConfigError names its own path.
        with naming(path):
            overrides = {
                name: world_section(key, value, world.input_dim, f"{path}.{key}")
                for key, name, _ in WORLD_SECTIONS
                if name in _PANEL_FIELDS and (value := raw.pop(key, None)) is not None
            }
            scenarios.append(spec_from_config(PanelScenario, raw, path, **overrides))
    return PanelsConfig(variants=tuple(scenarios))


def _gallery_side(cfg, path: str, seed: int, overridden: bool) -> GallerySide:
    side = as_mapping(cfg, path)
    if not side:
        raise ConfigError(f"{path}: required section is missing")
    with naming(path):  # a broken rule names the side, as a panel variant's does
        world = _world(side.pop("world", None), f"{path}.world", seed, overridden)
        model = spec_from_config(ModelSpec, side.pop("model", None), f"{path}.model")
    reject_unknown(side, path)
    return GallerySide(world=world, model=model)


def scenario_from_mapping(raw: Mapping, seed=None, replicates=None) -> Scenario:
    """Read a parsed scenario mapping into typed objects, each checking its
    own rules; ``seed`` and ``replicates``, when given, override the
    file's (``--seed`` and ``--replicates``)."""
    # A flag is checked first, named as the flag, not as the file's key.
    if seed is not None:
        seed = read_seed(seed, "--seed")
    if replicates is not None and replicates < 2:
        raise ConfigError(f"--replicates: must be >= 2, got {replicates}")
    cfg = as_mapping(raw, "scenario")
    version = cfg.pop("schema_version", SCENARIO_SCHEMA_VERSION)
    if type(version) is not int or version != SCENARIO_SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: this errorlab reads version {SCENARIO_SCHEMA_VERSION}, "
            f"got {version!r}"
        )
    if "seed" not in cfg:
        raise ConfigError("seed: required field is missing")
    file_seed = read_seed(cfg.pop("seed"), "seed")
    overridden = seed is not None
    seed = seed if overridden else file_seed
    with naming("world"):  # a broken rule names the section, as a gallery side's does
        world = _world(cfg.pop("world", None), "world", seed, overridden)
    model = spec_from_config(ModelSpec, cfg.pop("model", None), "model")
    simulate = spec_from_config(SimulateConfig, cfg.pop("simulate", None), "simulate")
    decompose = spec_from_config(DecomposeConfig, cfg.pop("decompose", None), "decompose")
    biasvar = _section(BiasVarConfig, cfg.pop("biasvar", None), "biasvar", replicates)
    probe = spec_from_config(ProbeConfig, cfg.pop("probe", None), "probe")

    curve = None
    cur_cfg = cfg.pop("curve", None)
    if cur_cfg is not None:
        cur_cfg = as_mapping(cur_cfg, "curve")
        axis = _axis_from_config(cur_cfg.pop("axis", None), "curve.axis")
        curve = _section(CurveConfig, cur_cfg, "curve", replicates, axis=axis)

    panels = None
    panels_cfg = cfg.pop("panels", None)
    if panels_cfg is not None:
        panels = _panels_from_config(panels_cfg, world)

    gallery = None
    gal_cfg = cfg.pop("gallery", None)
    if gal_cfg is not None:
        gal_cfg = as_mapping(gal_cfg, "gallery")
        # ceiling_n sized the ceiling's own draws until 0.2.0; it is ignored.
        gal_cfg.pop("ceiling_n", None)
        low = _gallery_side(gal_cfg.pop("low", None), "gallery.low", seed, overridden)
        high = _gallery_side(gal_cfg.pop("high", None), "gallery.high", seed, overridden)
        axis = _axis_from_config(gal_cfg.pop("axis", None), "gallery.axis")
        gallery = _section(
            GalleryConfig, gal_cfg, "gallery", replicates, low=low, high=high, axis=axis
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


def parse_config(path, seed=None, replicates=None) -> Scenario:
    """Parse and validate a scenario file, with the overrides of
    ``scenario_from_mapping``; no computation happens here."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"scenario file cannot be read: {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"scenario file is not UTF-8: {path}: {exc.reason} at byte {exc.start}"
        ) from exc
    try:
        raw = yaml.load(text, Loader=SafeLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file failed to parse: {exc}") from exc
    if raw is None:
        raise ConfigError("scenario file is empty")
    try:
        return scenario_from_mapping(raw, seed, replicates)
    except InvalidSpecError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# normalization

def normalize_scenario(scenario: Scenario) -> dict:
    """Canonical mapping with defaults materialized; reparsing it yields
    objects equal to the originals."""
    return {**spec_to_config(scenario), "schema_version": SCENARIO_SCHEMA_VERSION}


def scenario_to_yaml(scenario: Scenario) -> str:
    return yaml.dump(normalize_scenario(scenario), Dumper=SafeDumper, sort_keys=True)
