"""Batch command-line front end.

One scenario file drives every command; the command picks which
computation runs.  Exit codes: 0 success, 2 config error, 3 numerical
failure, 4 internal invariant breach (always a bug).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, seeding, worldgen
from .config import Scenario, parse_config, scenario_to_yaml
from .decomp import (
    bias_variance_monte_carlo,
    check_telescoping,
    component_covariances,
    decompose_bundle,
    estimate_ceiling,
    representativeness_probe,
)
from .errors import ConfigError, ErrorLabError, FitError, InvalidSpecError, InvariantError
from .experiments import (
    LearningCurvePoint,
    monotone_under_ci,
    regime_gallery,
    run_learning_curve,
    run_panel_scenarios,
)
from .models import fit_regimes, model_to_json
from .parallel import command_pool
from .runio import RunManifest, render_csv, render_json, sha256_text, write_outputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


def _apply_overrides(scenario: Scenario, seed: Optional[int], replicates: Optional[int]):
    if seed is not None:
        scenario.seed = seed
        scenario.world = dataclasses.replace(scenario.world, master_seed=seed).validate()
        if scenario.gallery is not None:
            scenario.gallery.low_world = dataclasses.replace(
                scenario.gallery.low_world, master_seed=seed
            ).validate()
            scenario.gallery.high_world = dataclasses.replace(
                scenario.gallery.high_world, master_seed=seed
            ).validate()
    if replicates is not None:
        if replicates < 2:
            raise ConfigError(f"--replicates: must be >= 2, got {replicates}")
        for section in (scenario.biasvar, scenario.curve, scenario.gallery):
            if section is not None:
                section.replicates = replicates
    return scenario


_POINT_FIELDS = [f.name for f in dataclasses.fields(LearningCurvePoint)]
_CURVE_HEADER = ["scenario", "variant", *_POINT_FIELDS]


def _curve_columns(curves) -> list[list]:
    """CSV columns for ``(scenario, variant, curve)`` triples, one row per
    curve point, in ``_CURVE_HEADER`` order."""
    rows = [(name, variant, p) for name, variant, curve in curves for p in curve.points]
    return [
        [name for name, _, _ in rows],
        [variant for _, variant, _ in rows],
        *([getattr(p, field) for _, _, p in rows] for field in _POINT_FIELDS),
    ]


def _cmd_simulate(scenario: Scenario, workers: int) -> dict[str, str]:
    cfg = scenario.simulate
    bundle = worldgen.sample(scenario.world, cfg.n, cfg.label)
    header, columns = worldgen.bundle_columns(bundle)
    summary = {
        "n": cfg.n,
        "coverage": bundle.coverage,
        "epsilon_mean": float(np.mean(bundle.epsilon)),
        "epsilon_var": float(np.var(bundle.epsilon, ddof=1)) if cfg.n > 1 else 0.0,
        "delta_y_mean": float(np.mean(bundle.delta_y)),
        "delta_y_var": float(np.var(bundle.delta_y, ddof=1)) if cfg.n > 1 else 0.0,
        "observed_dim": int(bundle.x_observed.shape[1]),
    }
    return {
        "samples.csv": render_csv(header, columns),
        "summary.json": render_json(summary),
    }


def _cmd_decompose(scenario: Scenario, workers: int) -> dict[str, str]:
    cfg = scenario.decompose
    world = scenario.world
    train = worldgen.sample(world, cfg.train_n, "decompose/train")
    regimes = fit_regimes(train, scenario.model)
    heldout = worldgen.sample(world, cfg.n, "decompose/eval")
    table = decompose_bundle(world, regimes, heldout)
    check_telescoping(table)
    header = ["row", *(f.name for f in dataclasses.fields(table))]
    columns = [np.arange(table.n)] + [getattr(table, name) for name in header[1:]]
    summary = {
        "n": table.n,
        "train_n": cfg.train_n,
        "mse": float(np.mean((table.y_pred - table.y_true) ** 2)),
        "mean_abs_model_approx_gain": float(np.mean(np.abs(table.model_approx_gain))),
        "mean_abs_meas_gain_y": float(np.mean(np.abs(table.meas_gain_y))),
        "mean_abs_meas_gain_x": float(np.mean(np.abs(table.meas_gain_x))),
        "mean_epsilon": float(np.mean(table.aleatoric)),
    }
    models_doc = {
        "OO": model_to_json(regimes.oo),
        "TO": model_to_json(regimes.to),
        "TT": model_to_json(regimes.tt),
    }
    return {
        "decomposition.csv": render_csv(header, columns),
        "summary.json": render_json(summary),
        "models.json": render_json(models_doc),
    }


def _cmd_biasvar(scenario: Scenario, workers: int) -> dict[str, str]:
    cfg = scenario.biasvar
    world = scenario.world
    grid = worldgen.draw_inputs(world, cfg.test_points, "biasvar/test_grid")
    report = bias_variance_monte_carlo(
        world,
        scenario.model,
        cfg.regime,
        cfg.n_train,
        cfg.replicates,
        grid,
        base_label="biasvar",
        workers=workers,
    )
    payload = dataclasses.asdict(report)
    del payload["replicate_mse"]
    payload.update(
        regime=cfg.regime,
        n_train=cfg.n_train,
        identity_z=report.identity_z,
        bias_z=report.bias_z,
        self_check_identity_ok=bool(abs(report.identity_z) < 3.0),
    )
    files = {
        "biasvar.json": render_json(payload),
        "replicates.csv": render_csv(
            ["replicate", "mse"],
            [np.arange(len(report.replicate_mse)), report.replicate_mse],
        ),
    }
    if cfg.components_replicates > 0:
        comp = component_covariances(
            world,
            scenario.model,
            cfg.n_train,
            cfg.components_replicates,
            grid,
            base_label="components",
            workers=workers,
        )
        files["components.json"] = render_json(dataclasses.asdict(comp))
    return files


def _required(scenario: Scenario, name: str):
    section = getattr(scenario, name)
    if section is None:
        raise ConfigError(f"{name}: required section is missing for this command")
    return section


def _cmd_curve(scenario: Scenario, workers: int) -> dict[str, str]:
    cfg = _required(scenario, "curve")
    curve = run_learning_curve(
        scenario.world,
        scenario.model,
        cfg.axis,
        cfg.replicates,
        test_points=cfg.test_points,
        comp_points=cfg.comp_points,
        base_label="curve",
        workers=workers,
    )
    payload = {
        "replicates": cfg.replicates,
        "var_y_test": curve.var_y_test,
        "monotone_under_ci": monotone_under_ci(curve.points),
        "points": [dataclasses.asdict(p) for p in curve.points],
    }
    return {
        "curve.csv": render_csv(_CURVE_HEADER, _curve_columns([("curve", "baseline", curve)])),
        "curve.json": render_json(payload),
    }


def _cmd_panels(scenario: Scenario, workers: int) -> dict[str, str]:
    cfg = _required(scenario, "curve")
    result = run_panel_scenarios(
        scenario.world,
        _required(scenario, "panels"),
        cfg.axis,
        scenario.model,
        cfg.replicates,
        test_points=cfg.test_points,
        comp_points=cfg.comp_points,
        base_label="panels",
        workers=workers,
    )
    curves = [
        (f"panel{idx}", comparison.variant, curve)
        for idx, (comparison, curve) in enumerate(zip(result.comparisons, result.curves))
    ]
    comparisons = [dataclasses.asdict(c) for c in result.comparisons]
    return {
        "panels.csv": render_csv(_CURVE_HEADER, _curve_columns(curves)),
        "panels.json": render_json({"comparisons": comparisons}),
    }


def _cmd_gallery(scenario: Scenario, workers: int) -> dict[str, str]:
    cfg = _required(scenario, "gallery")
    result = regime_gallery(
        cfg.low_world,
        cfg.low_model,
        cfg.high_world,
        cfg.high_model,
        cfg.axis,
        cfg.replicates,
        test_points=cfg.test_points,
        ceiling_n=cfg.ceiling_n,
        base_label="gallery",
        workers=workers,
    )
    sides = (result.low_noise, result.high_noise)
    payload = {}
    for side in sides:
        payload[side.name] = {
            "ceiling_mse": side.ceiling.ceiling_mse,
            "ceiling_r2": side.ceiling.ceiling_r2,
            "se_ceiling_r2": side.ceiling.se_ceiling_r2,
            "attainment_level": side.attainment_level,
            "monotone_under_ci": monotone_under_ci(side.curve.points),
        }
    return {
        "gallery.csv": render_csv(
            _CURVE_HEADER, _curve_columns([("gallery", side.name, side.curve) for side in sides])
        ),
        "gallery.json": render_json(payload),
    }


def _cmd_probe(scenario: Scenario, workers: int) -> dict[str, str]:
    report = representativeness_probe(scenario.world, scenario.probe.n, base_label="probe")
    ceiling = estimate_ceiling(scenario.world, scenario.probe.n, base_label="probe/ceiling")
    payload = {**dataclasses.asdict(report), "ceiling_r2": ceiling.ceiling_r2}
    return {"probe.json": render_json(payload)}


_HANDLERS = {
    "simulate": _cmd_simulate,
    "decompose": _cmd_decompose,
    "biasvar": _cmd_biasvar,
    "curve": _cmd_curve,
    "panels": _cmd_panels,
    "gallery": _cmd_gallery,
    "probe": _cmd_probe,
}

COMMANDS = tuple(_HANDLERS)


def run(command: str, config, out, seed=None, workers: int = 1, replicates=None) -> RunManifest:
    """Execute one command on the scenario file ``config``, writing into the
    directory ``out``; validates fully before any output is written.  The
    parameters are the command-line options (see ``build_parser``)."""
    started = time.perf_counter()
    scenario = parse_config(config)
    scenario = _apply_overrides(scenario, seed, replicates)
    normalized = scenario_to_yaml(scenario)
    config_hash = sha256_text(normalized + f"|command={command}|replicates={replicates}")

    handler = _HANDLERS[command]
    compute_started = time.perf_counter()
    with command_pool(workers) as pool, seeding.recording() as seed_labels:
        payloads = handler(scenario, workers)
    compute_seconds = time.perf_counter() - compute_started

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = {"scenario.normalized.yaml": normalized, **payloads}
    checksums = write_outputs(out_dir, payloads)
    manifest = RunManifest(
        command=command,
        config_hash=config_hash,
        artifact_version=__version__,
        files=checksums,
        seed_labels=sorted(seed_labels),
        timings={
            "compute_seconds": compute_seconds,
            "total_seconds": time.perf_counter() - started,
            "processes": pool.processes,
        },
    )
    (out_dir / "manifest.json").write_text(
        render_json(dataclasses.asdict(manifest)), encoding="utf-8"
    )
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errorlab",
        description="Simulate prediction worlds and decompose their prediction error.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario YAML file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--workers", type=int, default=1, help="parallel worker bound")
    parser.add_argument("--replicates", type=int, default=None, help="replicate override")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = run(**vars(args))
    except (ConfigError, InvalidSpecError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ErrorLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"{args.command}: wrote {len(manifest.files)} files to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
