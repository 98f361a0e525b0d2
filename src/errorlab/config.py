"""Scenario files: parsing, eager validation, and normalization.

One YAML scenario drives every command; sections select what each command
runs.  Parsing validates all present sections before any computation, and
``normalize`` materializes defaults into a canonical mapping whose
round-trip reparse yields identical objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

import yaml

from .errors import ConfigError, InvalidSpecError
from .experiments import AxisLevel, InformationAxis, PanelScenario
from .models import ModelSpec
from .worldgen import (
    World,
    build_world,
    feature_noise_from_config,
    target_noise_from_config,
)

SCENARIO_SCHEMA_VERSION = 1


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


def _mapping(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected a mapping")
    return dict(value)


def _count(cfg: Mapping, key: str, default: int, path: str, minimum: int = 1) -> int:
    """An integer size or replicate field, rejected below ``minimum``."""
    value = int(cfg.get(key, default))
    if value < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _model_from_config(cfg: Mapping) -> ModelSpec:
    defaults = ModelSpec()
    spec = ModelSpec(
        family=str(cfg.get("family", defaults.family)),
        lam=float(cfg.get("lam", defaults.lam)),
        k=int(cfg.get("k", defaults.k)),
        widths=tuple(cfg.get("widths", defaults.widths)),
        activation=str(cfg.get("activation", defaults.activation)),
        learning_rate=float(cfg.get("learning_rate", defaults.learning_rate)),
        epochs=int(cfg.get("epochs", defaults.epochs)),
        batch_size=int(cfg.get("batch_size", defaults.batch_size)),
        init_seed=int(cfg.get("init_seed", defaults.init_seed)),
    )
    return spec.validate()


def _axis_from_config(cfg: Mapping, path: str) -> InformationAxis:
    levels_cfg = cfg.get("levels")
    if not levels_cfg:
        raise ConfigError(f"{path}.levels: required field is missing")
    levels = []
    for i, level in enumerate(levels_cfg):
        level = _mapping(level, f"{path}.levels[{i}]")
        for key in ("n_train", "features", "fidelity"):
            if key not in level:
                raise ConfigError(f"{path}.levels[{i}].{key}: required field is missing")
        fidelity = level["fidelity"]
        if not isinstance(fidelity, (list, tuple)) or len(fidelity) != 2:
            raise ConfigError(f"{path}.levels[{i}].fidelity: expected [target, feature] factors")
        levels.append(
            AxisLevel(
                n_train=int(level["n_train"]),
                features=tuple(level["features"]),
                fidelity=(float(fidelity[0]), float(fidelity[1])),
            )
        )
    return InformationAxis(levels=tuple(levels))


def _panels_from_config(cfg: Mapping, world: World) -> list[PanelScenario]:
    variants_cfg = cfg.get("variants")
    if not variants_cfg:
        raise ConfigError("panels.variants: required field is missing")
    scenarios = []
    for i, raw in enumerate(variants_cfg):
        raw = _mapping(raw, f"panels.variants[{i}]")
        if "variant" not in raw:
            raise ConfigError(f"panels.variants[{i}].variant: required field is missing")
        target = raw.get("target_noise")
        feature = raw.get("feature_noise")
        scenario = PanelScenario(
            variant=str(raw["variant"]),
            target_noise=(
                target_noise_from_config(_mapping(target, f"panels.variants[{i}].target_noise"))
                if target is not None
                else None
            ),
            feature_noise=(
                feature_noise_from_config(
                    _mapping(feature, f"panels.variants[{i}].feature_noise"), world.input_dim
                )
                if feature is not None
                else None
            ),
        )
        scenarios.append(scenario.validate())
    return scenarios


def scenario_from_mapping(raw: Mapping) -> Scenario:
    """Validate a parsed scenario mapping into typed objects."""
    cfg = _mapping(raw, "scenario")
    if "seed" not in cfg:
        raise ConfigError("seed: required field is missing")
    seed = int(cfg["seed"])
    world_cfg = _mapping(cfg.get("world"), "world")
    if not world_cfg:
        raise ConfigError("world: required section is missing")
    world_cfg["seed"] = world_cfg.get("seed", seed)
    world = build_world(world_cfg)

    model = _model_from_config(_mapping(cfg.get("model"), "model"))

    sim_cfg = _mapping(cfg.get("simulate"), "simulate")
    simulate = SimulateConfig(
        n=_count(sim_cfg, "n", 1000, "simulate"), label=str(sim_cfg.get("label", "simulate"))
    )
    dec_cfg = _mapping(cfg.get("decompose"), "decompose")
    decompose = DecomposeConfig(
        train_n=_count(dec_cfg, "train_n", 400, "decompose"),
        n=_count(dec_cfg, "n", 1000, "decompose"),
    )
    bv_cfg = _mapping(cfg.get("biasvar"), "biasvar")
    biasvar = BiasVarConfig(
        regime=str(bv_cfg.get("regime", "TT")),
        n_train=_count(bv_cfg, "n_train", 200, "biasvar"),
        replicates=_count(bv_cfg, "replicates", 200, "biasvar", minimum=2),
        test_points=_count(bv_cfg, "test_points", 256, "biasvar"),
        components_replicates=_count(bv_cfg, "components_replicates", 0, "biasvar", minimum=0),
    )
    if biasvar.regime not in ("OO", "TO", "TT", "ORACLE"):
        raise ConfigError(f"biasvar.regime: unknown regime {biasvar.regime!r}")
    if biasvar.components_replicates == 1:
        raise ConfigError("biasvar.components_replicates: must be 0 (off) or >= 2, got 1")
    probe_cfg = _mapping(cfg.get("probe"), "probe")
    probe = ProbeConfig(n=_count(probe_cfg, "n", 20000, "probe"))

    curve = None
    if cfg.get("curve") is not None:
        cur_cfg = _mapping(cfg.get("curve"), "curve")
        curve = CurveConfig(
            axis=_axis_from_config(_mapping(cur_cfg.get("axis"), "curve.axis"), "curve.axis"),
            replicates=_count(cur_cfg, "replicates", 30, "curve", minimum=2),
            test_points=_count(cur_cfg, "test_points", 10_000, "curve"),
            comp_points=_count(cur_cfg, "comp_points", 512, "curve"),
        )

    panels = None
    if cfg.get("panels") is not None:
        if curve is None:
            raise ConfigError("panels: requires a curve section (shared axis)")
        panels = _panels_from_config(_mapping(cfg.get("panels"), "panels"), world)

    gallery = None
    if cfg.get("gallery") is not None:
        gal_cfg = _mapping(cfg.get("gallery"), "gallery")
        sides = {}
        for side in ("low", "high"):
            side_cfg = _mapping(gal_cfg.get(side), f"gallery.{side}")
            if not side_cfg:
                raise ConfigError(f"gallery.{side}: required section is missing")
            side_world_cfg = _mapping(side_cfg.get("world"), f"gallery.{side}.world")
            if not side_world_cfg:
                raise ConfigError(f"gallery.{side}.world: required section is missing")
            side_world_cfg["seed"] = side_world_cfg.get("seed", seed)
            sides[side] = (
                build_world(side_world_cfg),
                _model_from_config(_mapping(side_cfg.get("model"), f"gallery.{side}.model")),
            )
        gallery = GalleryConfig(
            low_world=sides["low"][0],
            low_model=sides["low"][1],
            high_world=sides["high"][0],
            high_model=sides["high"][1],
            axis=_axis_from_config(
                _mapping(gal_cfg.get("axis"), "gallery.axis"), "gallery.axis"
            ),
            replicates=_count(gal_cfg, "replicates", 20, "gallery", minimum=2),
            test_points=_count(gal_cfg, "test_points", 10_000, "gallery"),
            ceiling_n=_count(gal_cfg, "ceiling_n", 100_000, "gallery"),
        )

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
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
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


def _world_to_config(world: World) -> dict:
    x = {
        "kind": world.x_dist.kind,
        "dim": world.input_dim,
        "low": world.x_dist.low,
        "high": world.x_dist.high,
    }
    if world.x_dist.cov is not None:
        x["cov"] = [list(row) for row in world.x_dist.cov]
    f_star = {
        "family": world.f_star.family,
        "coefficients": list(world.f_star.coefficients),
    }
    if world.f_star.interactions:
        f_star["interactions"] = [
            {"pair": [i, j], "weight": w} for i, j, w in world.f_star.interactions
        ]
    aleatoric = {
        "distribution": world.aleatoric.distribution,
        "mean": world.aleatoric.mean,
        "variance": world.aleatoric.variance,
        "df": world.aleatoric.df,
        "mixture_separation": world.aleatoric.mixture_separation,
    }
    if world.aleatoric.het_link is not None:
        aleatoric["het_link"] = world.aleatoric.het_link
    return {
        "x": x,
        "f_star": f_star,
        "aleatoric": aleatoric,
        "target_noise": {
            "distribution": world.target_noise.distribution,
            "mean": world.target_noise.mean,
            "variance": world.target_noise.variance,
            "step": world.target_noise.step,
        },
        "feature_noise": {
            "means": list(world.feature_noise.means),
            "cov": [list(row) for row in world.feature_noise.cov],
            "omit": list(world.feature_noise.omit),
            "coarsen": list(world.feature_noise.coarsen),
        },
        "selection": {
            "rule": world.selection.rule,
            "score": world.selection.score,
            "coverage": world.selection.coverage,
        },
        "seed": world.master_seed,
    }


def _model_to_config(spec: ModelSpec) -> dict:
    return {
        "family": spec.family,
        "lam": spec.lam,
        "k": spec.k,
        "widths": list(spec.widths),
        "activation": spec.activation,
        "learning_rate": spec.learning_rate,
        "epochs": spec.epochs,
        "batch_size": spec.batch_size,
        "init_seed": spec.init_seed,
    }


def _axis_to_config(axis: InformationAxis) -> dict:
    return {
        "levels": [
            {
                "n_train": level.n_train,
                "features": list(level.features),
                "fidelity": list(level.fidelity),
            }
            for level in axis.levels
        ]
    }


def normalize_scenario(scenario: Scenario) -> dict:
    """Canonical mapping with defaults materialized; reparsing it yields
    objects equal to the originals."""
    out = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "seed": scenario.seed,
        "world": _world_to_config(scenario.world),
        "model": _model_to_config(scenario.model),
        "simulate": {"n": scenario.simulate.n, "label": scenario.simulate.label},
        "decompose": {"train_n": scenario.decompose.train_n, "n": scenario.decompose.n},
        "biasvar": {
            "regime": scenario.biasvar.regime,
            "n_train": scenario.biasvar.n_train,
            "replicates": scenario.biasvar.replicates,
            "test_points": scenario.biasvar.test_points,
            "components_replicates": scenario.biasvar.components_replicates,
        },
        "probe": {"n": scenario.probe.n},
    }
    if scenario.curve is not None:
        out["curve"] = {
            "axis": _axis_to_config(scenario.curve.axis),
            "replicates": scenario.curve.replicates,
            "test_points": scenario.curve.test_points,
            "comp_points": scenario.curve.comp_points,
        }
    if scenario.panels is not None:
        variants = []
        for panel in scenario.panels:
            entry: dict = {"variant": panel.variant}
            if panel.target_noise is not None:
                entry["target_noise"] = {
                    "distribution": panel.target_noise.distribution,
                    "mean": panel.target_noise.mean,
                    "variance": panel.target_noise.variance,
                    "step": panel.target_noise.step,
                }
            if panel.feature_noise is not None:
                entry["feature_noise"] = {
                    "means": list(panel.feature_noise.means),
                    "cov": [list(row) for row in panel.feature_noise.cov],
                    "omit": list(panel.feature_noise.omit),
                    "coarsen": list(panel.feature_noise.coarsen),
                }
            variants.append(entry)
        out["panels"] = {"variants": variants}
    if scenario.gallery is not None:
        gal = scenario.gallery
        out["gallery"] = {
            "low": {"world": _world_to_config(gal.low_world), "model": _model_to_config(gal.low_model)},
            "high": {"world": _world_to_config(gal.high_world), "model": _model_to_config(gal.high_model)},
            "axis": _axis_to_config(gal.axis),
            "replicates": gal.replicates,
            "test_points": gal.test_points,
            "ceiling_n": gal.ceiling_n,
        }
    return out


def scenario_to_yaml(scenario: Scenario) -> str:
    return yaml.safe_dump(normalize_scenario(scenario), sort_keys=True)
