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
    component_covariances,
    decompose_rows,
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
from .runio import (
    CsvText,
    RunManifest,
    render_csv,
    render_json,
    sha256_text,
    write_file,
    write_outputs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


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


def _cmd_simulate(scenario: Scenario) -> dict[str, str | CsvText]:
    cfg = scenario.simulate
    bundle = worldgen.sample(scenario.world, cfg.n, cfg.label)
    with worldgen.naming(f"sample {bundle.label}"):
        worldgen.check_bundle(scenario.world, bundle)
    header, columns = worldgen.bundle_columns(bundle)
    # A statistic that overflows is refused by the JSON writer, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
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


def _cmd_decompose(scenario: Scenario) -> dict[str, str | CsvText]:
    cfg = scenario.decompose
    world = scenario.world
    train = worldgen.sample(world, cfg.train_n, "decompose/train")
    regimes = fit_regimes(train, scenario.model)
    x_true = worldgen.draw_inputs(world, cfg.n, "decompose/eval")
    pack = worldgen.held_out(world, x_true, "decompose/eval")
    with worldgen.naming(f"sample {train.label}"):
        table = decompose_rows(regimes, pack, pack.observed(world))
    header = ["row", *(f.name for f in dataclasses.fields(table))]
    columns = [np.arange(table.n)] + [getattr(table, name) for name in header[1:]]
    summary = {
        "n": table.n,
        "train_n": cfg.train_n,
        "mse": float(np.mean((table.y_pred - table.y_true) ** 2)),
        **{f"mean_abs_{name}": value for name, value in table.mean_abs_gains().items()},
        "mean_epsilon": float(np.mean(table.aleatoric)),
    }
    models_doc = {regime: model_to_json(model) for regime, model in regimes.items()}
    return {
        "decomposition.csv": render_csv(header, columns),
        "summary.json": render_json(summary),
        "models.json": render_json(models_doc),
    }


def _cmd_biasvar(scenario: Scenario) -> dict[str, str | CsvText]:
    cfg = scenario.biasvar
    world = scenario.world
    grid = worldgen.draw_inputs(world, cfg.test_points, "biasvar/test_grid")
    report = bias_variance_monte_carlo(world, scenario.model, cfg, grid, base_label="biasvar")
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
        comp = component_covariances(world, scenario.model, cfg, grid, base_label="components")
        files["components.json"] = render_json(dataclasses.asdict(comp))
    return files


def _required(scenario: Scenario, name: str):
    section = getattr(scenario, name)
    if section is None:
        raise ConfigError(f"{name}: required section is missing for this command")
    return section


def _cmd_curve(scenario: Scenario) -> dict[str, str | CsvText]:
    cfg = _required(scenario, "curve")
    curve = run_learning_curve(scenario.world, scenario.model, cfg, base_label="curve")
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


def _cmd_panels(scenario: Scenario) -> dict[str, str | CsvText]:
    cfg = _required(scenario, "curve")  # named first when both sections are missing
    panels = _required(scenario, "panels")
    result = run_panel_scenarios(scenario.world, panels, scenario.model, cfg, base_label="panels")
    curves = [
        (f"panel{idx}", comparison.variant, curve)
        for idx, (comparison, curve) in enumerate(zip(result.comparisons, result.curves))
    ]
    comparisons = [dataclasses.asdict(c) for c in result.comparisons]
    return {
        "panels.csv": render_csv(_CURVE_HEADER, _curve_columns(curves)),
        "panels.json": render_json({"comparisons": comparisons}),
    }


def _cmd_gallery(scenario: Scenario) -> dict[str, str | CsvText]:
    sides = regime_gallery(_required(scenario, "gallery"), base_label="gallery")
    payload = {}
    for side in sides:
        payload[side.name] = {
            **dataclasses.asdict(side.curve.ceiling),
            "attainment_level": side.attainment_level,
            "monotone_under_ci": monotone_under_ci(side.curve.points),
        }
    return {
        "gallery.csv": render_csv(
            _CURVE_HEADER, _curve_columns([("gallery", side.name, side.curve) for side in sides])
        ),
        "gallery.json": render_json(payload),
    }


def _cmd_probe(scenario: Scenario) -> dict[str, str | CsvText]:
    report = representativeness_probe(scenario.world, scenario.probe, base_label="probe")
    return {"probe.json": render_json(dataclasses.asdict(report))}


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
    if workers < 1:
        raise ConfigError(f"--workers: must be >= 1, got {workers}")
    out_dir = Path(out)
    # The nearest existing path of out and its parents must be a directory
    # for the outputs to be written, checked before anything is computed.
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out: {existing} exists and is not a directory")
    scenario = parse_config(config, seed, replicates)
    normalized = scenario_to_yaml(scenario)
    config_hash = sha256_text(normalized + f"|command={command}|replicates={replicates}")

    handler = _HANDLERS[command]
    compute_started = time.perf_counter()
    with command_pool(workers) as pool, seeding.recording() as seed_labels:
        payloads = handler(scenario)
    compute_seconds = time.perf_counter() - compute_started

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
    write_file(out_dir / "manifest.json", render_json(dataclasses.asdict(manifest)))
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
