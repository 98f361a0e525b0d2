"""Acceptance suite: one test per release criterion, at its stated
tolerance, each printing a PASS line with its runtime (visible with -s or
-rP).  Every statistical check runs on fixed substreams, so outcomes are
reproducible bit for bit."""

import dataclasses
import json
import math
import time

import numpy as np

import errorlab as el
from errorlab import worldgen
from errorlab.cli import run
from errorlab.decomp import bias_variance_monte_carlo, decompose_bundle, representativeness_probe
from errorlab.experiments import (
    AxisLevel,
    CurveConfig,
    InformationAxis,
    PanelScenario,
    PanelsConfig,
    monotone_under_ci,
    run_panel_scenarios,
)
from errorlab.models import ModelSpec, check_gradients, fit, fit_regimes
from errorlab.seeding import rng_for
from errorlab.worldgen import TargetNoiseSpec

from conftest import make_world

RIDGE0 = ModelSpec(family="ridge", lam=0.0)


def _report(criterion: str, seconds: float, limit: float, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({seconds:.1f}s < {limit:.0f}s) {detail}")
    assert seconds < limit, f"{criterion} exceeded its runtime budget: {seconds:.1f}s"


# ---------------------------------------------------------------------------
# 1. component sums collapse for 1000 randomized (world, model, row) triples


def _acceptance_worlds():
    return [
        make_world(aleatoric={"variance": 0.0}, target_noise={}, feature_noise={}),
        make_world(target_noise={"variance": 1.0}, feature_noise={}),
        make_world(target_noise={}, feature_noise={"cov": 0.5, "omit": [False, False, True]}),
        make_world(
            f_star={
                "family": "linear",
                "coefficients": [1.5, -2.0, 0.7],
                "interactions": [{"pair": [0, 1], "weight": 0.4}],
            },
            target_noise={"variance": 0.6},
            feature_noise={"cov": 0.3, "coarsen": [0.2, 0.0, 0.0]},
        ),
        make_world(
            aleatoric={"distribution": "student_t", "variance": 0.5},
            target_noise={"distribution": "uniform", "variance": 0.4},
            selection={"rule": "threshold", "score": "epsilon", "coverage": 0.7},
        ),
        make_world(
            x={"kind": "correlated", "dim": 3, "cov": [[1.0, 0.4, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            aleatoric={"distribution": "mixture", "variance": 0.3},
            target_noise={"distribution": "quantization", "step": 0.4},
        ),
        make_world(
            x={"kind": "uniform", "dim": 5, "low": 0.0, "high": 1.0},
            f_star={"family": "friedman", "coefficients": [10.0, 20.0, 10.0, 5.0]},
            aleatoric={"variance": 0.8, "het_link": "one_plus_mean_sq"},
            target_noise={"variance": 0.5},
            feature_noise={"cov": 0.05, "omit": [False, False, False, False, True]},
        ),
        make_world(
            x={"kind": "gaussian", "dim": 1},
            f_star={"family": "step", "coefficients": [-0.5, 0.5, -1.0, 0.5, 2.0]},
            aleatoric={"variance": 0.2},
            selection={"rule": "probabilistic", "coverage": 0.8},
        ),
    ]


def test_acceptance_1_telescoping_suite():
    started = time.perf_counter()
    specs = [
        ModelSpec(family="ridge", lam=0.1),
        ModelSpec(family="knn", k=5),
        ModelSpec(family="mlp", widths=(8,), epochs=30, batch_size=32, learning_rate=0.03),
    ]
    triples = 0
    rows_per_fit = 42
    for w_idx, world in enumerate(_acceptance_worlds()):
        train = el.sample(world, 140, f"acc1/w{w_idx}/train")
        heldout = el.sample(world, rows_per_fit, f"acc1/w{w_idx}/eval")
        for spec in specs:
            regimes = fit_regimes(train, spec)
            table = decompose_bundle(world, regimes, heldout)
            point_dev = np.abs(table.pointwise_sum() - table.y_true)
            assert np.all(point_dev <= 1e-9 * np.maximum(1.0, np.abs(table.y_true)))
            target = table.y_pred - table.y_true
            err_dev = np.abs(table.error_sum() - target)
            assert np.all(err_dev <= 1e-9 * np.maximum(1.0, np.abs(target)))
            triples += table.n
    assert triples >= 1000
    _report("1 telescoping", time.perf_counter() - started, 60, f"triples={triples}")


# ---------------------------------------------------------------------------
# 2. oracle regime hits the noise floor


def test_acceptance_2_oracle_floor():
    started = time.perf_counter()
    world = make_world(aleatoric={"variance": 0.5}, target_noise={}, feature_noise={})
    heldout = el.sample(world, 100_000, "acc2/heldout")
    mse = float(np.mean((world.f_star.values(heldout.x_true) - heldout.y_true) ** 2))
    assert abs(mse - 0.5) / 0.5 < 0.05
    _report("2 oracle floor", time.perf_counter() - started, 30, f"mse={mse:.4f}")


# ---------------------------------------------------------------------------
# 3. bias-variance identity on a correctly specified world


def test_acceptance_3_bias_variance_identity():
    started = time.perf_counter()
    world = make_world(target_noise={}, feature_noise={})
    grid = worldgen.draw_inputs(world, 256, "acc3/grid")
    report = bias_variance_monte_carlo(world, RIDGE0, "TT", 200, 2000, grid, base_label="acc3")
    assert abs(report.identity_gap) < 3 * report.se_identity_gap
    assert abs(report.bias) < 3 * report.se_bias
    _report(
        "3 bias-variance identity",
        time.perf_counter() - started,
        180,
        f"gap_z={report.identity_z:.2f} bias_z={report.bias_z:.2f}",
    )


# ---------------------------------------------------------------------------
# 4. switching off one corruption channel silences exactly its component


def _isolation_components(world, replicates):
    signed = np.empty((replicates, 3))
    mean_abs = np.empty((replicates, 3))
    for r in range(replicates):
        bundle = el.sample(world, 300, f"acc4/rep{r}")
        regimes = fit_regimes(bundle, RIDGE0)
        heldout = el.sample(world, 256, f"acc4/rep{r}/eval")
        table = decompose_bundle(world, regimes, heldout)
        parts = (table.model_approx_gain, table.meas_gain_y, table.meas_gain_x)
        signed[r] = [p.mean() for p in parts]
        mean_abs[r] = [np.abs(p).mean() for p in parts]
    return signed, mean_abs


def _paired_z(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    sd = diff.std(ddof=1)
    if sd == 0.0:
        return 0.0 if diff.mean() == 0.0 else math.inf
    return float(diff.mean() / (sd / math.sqrt(diff.size)))


def test_acceptance_4_epistemic_isolation():
    started = time.perf_counter()
    replicates = 250
    base = make_world(
        target_noise={"variance": 0.8},
        feature_noise={"cov": 0.5, "omit": [False, False, True]},
    )
    dx_off = dataclasses.replace(base, feature_noise=el.FeatureNoiseSpec.none(3))
    dy_off = dataclasses.replace(base, target_noise=TargetNoiseSpec(variance=0.0))
    signed_base, _ = _isolation_components(base, replicates)
    signed_dx, abs_dx = _isolation_components(dx_off, replicates)
    signed_dy, abs_dy = _isolation_components(dy_off, replicates)

    # Matching component collapses below 1e-6 in mean absolute value.
    assert abs_dx[:, 2].mean() < 1e-6
    assert abs_dy[:, 1].mean() < 1e-6
    # The other components' means move by less than 3 paired standard errors.
    z_approx_dx = _paired_z(signed_base[:, 0], signed_dx[:, 0])
    z_measy_dx = _paired_z(signed_base[:, 1], signed_dx[:, 1])
    z_approx_dy = _paired_z(signed_base[:, 0], signed_dy[:, 0])
    z_measx_dy = _paired_z(signed_base[:, 2], signed_dy[:, 2])
    for name, z in (
        ("approx|dx-off", z_approx_dx),
        ("meas_y|dx-off", z_measy_dx),
        ("approx|dy-off", z_approx_dy),
        ("meas_x|dy-off", z_measx_dy),
    ):
        assert abs(z) < 3.0, f"component {name} moved: z={z:.2f}"
    _report(
        "4 epistemic isolation",
        time.perf_counter() - started,
        120,
        f"max |z|={max(abs(z_approx_dx), abs(z_measy_dx), abs(z_approx_dy), abs(z_measx_dy)):.2f}",
    )


# ---------------------------------------------------------------------------
# 5. learning-curve geometry with a reconstructed-target variant


def test_acceptance_5_learning_curve_geometry():
    started = time.perf_counter()
    world = make_world(
        f_star={"family": "linear", "coefficients": [1.2, -0.8, 0.5]},
        target_noise={"variance": 4.0},
        feature_noise={"cov": 0.4},
    )
    feats = (0, 1, 2)
    axis = InformationAxis(
        levels=(
            AxisLevel(50, (0, 1), (1.0, 1.0)),
            AxisLevel(80, feats, (1.0, 1.0)),
            AxisLevel(120, feats, (0.8, 0.8)),
            AxisLevel(200, feats, (0.7, 0.6)),
            AxisLevel(200, feats, (0.6, 0.4)),
            AxisLevel(200, feats, (0.5, 0.3)),
        )
    )
    panels = PanelsConfig(
        (
            PanelScenario("baseline"),
            PanelScenario("reconstructed_target", target_noise=TargetNoiseSpec(variance=2.0)),
            PanelScenario("baseline"),
        )
    )
    result = run_panel_scenarios(
        world, panels, RIDGE0, CurveConfig(axis, replicates=30), base_label="acc5"
    )
    baseline, variant, duplicate = result.curves
    assert monotone_under_ci(baseline.points)
    assert monotone_under_ci(variant.points)
    comparison = result.comparisons[1]
    assert comparison.strictly_below_baseline
    assert variant.terminal.mean_mse < baseline.terminal.mean_mse
    assert np.array_equal(baseline.replicate_mse, duplicate.replicate_mse)
    assert [p.mean_mse for p in baseline.points] == [p.mean_mse for p in duplicate.points]
    _report(
        "5 learning-curve geometry",
        time.perf_counter() - started,
        300,
        f"terminal {baseline.terminal.mean_mse:.4f} -> {variant.terminal.mean_mse:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. biased selection distorts the observable noise moments


def test_acceptance_6_representativeness_probe():
    started = time.perf_counter()
    biased = make_world(
        target_noise={},
        feature_noise={},
        selection={"rule": "threshold", "score": "epsilon", "coverage": 0.7},
    )
    independent = make_world(
        target_noise={},
        feature_noise={},
        selection={"rule": "probabilistic", "coverage": 0.7},
    )
    biased_report = representativeness_probe(biased, 20_000, base_label="acc6")
    independent_report = representativeness_probe(independent, 20_000, base_label="acc6")
    assert abs(biased_report.z_var) > 3.0
    assert abs(independent_report.z_var) < 3.0
    assert abs(biased_report.coverage - independent_report.coverage) < 0.02
    _report(
        "6 representativeness probe",
        time.perf_counter() - started,
        60,
        f"biased z={biased_report.z_var:.1f} independent z={independent_report.z_var:.2f}",
    )


# ---------------------------------------------------------------------------
# 7. numerics gates for the trainable families


def test_acceptance_7_numerics():
    started = time.perf_counter()
    rng = rng_for(9, "gradcheck")
    x = rng.standard_normal((10, 2))
    y = rng.standard_normal(10)
    report = check_gradients(
        ModelSpec(family="mlp", widths=(4,), activation="tanh", init_seed=5), x, y, step=1e-6
    )
    assert report.max_relative_deviation < 1e-5

    rng = rng_for(78, "pilot/lin")
    xl = rng.standard_normal((200, 2))
    yl = 1.3 * xl[:, 0] - 0.7 * xl[:, 1] + 0.5 + 0.3 * rng.standard_normal(200)
    ridge = fit(RIDGE0, xl, yl)
    gd = fit(
        ModelSpec(family="mlp", widths=(), learning_rate=0.05, epochs=400, batch_size=200),
        xl,
        yl,
    )
    w = gd.params["layers"][0][0][:, 0]
    b = gd.params["layers"][0][1][0]
    max_dev = max(np.max(np.abs(w - ridge.params["coef"])), abs(b - ridge.params["intercept"]))
    assert max_dev < 1e-4
    _report(
        "7 numerics",
        time.perf_counter() - started,
        60,
        f"grad_dev={report.max_relative_deviation:.2e} param_dev={max_dev:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. worker count never changes output bytes


_SUITE_SCENARIO = """
seed: 20240908
world:
  x: {kind: gaussian, dim: 3}
  f_star: {family: linear, coefficients: [1.5, -2.0, 0.7]}
  aleatoric: {variance: 0.25}
  target_noise: {variance: 0.5}
  feature_noise: {cov: 0.2}
  selection: {rule: probabilistic, coverage: 0.8}
model: {family: ridge, lam: 0.0}
simulate: {n: 500, label: sim}
decompose: {train_n: 150, n: 120}
biasvar: {regime: TT, n_train: 100, replicates: 60, test_points: 64, components_replicates: 24}
probe: {n: 6000}
curve:
  replicates: 6
  test_points: 800
  comp_points: 64
  axis:
    levels:
      - {n_train: 60, features: [0, 1, 2], fidelity: [1.0, 1.0]}
      - {n_train: 150, features: [0, 1, 2], fidelity: [0.5, 0.5]}
      - {n_train: 300, features: [0, 1, 2], fidelity: [0.0, 0.0]}
panels:
  variants:
    - {variant: baseline}
    - {variant: reconstructed_target, target_noise: {variance: 0.25}}
gallery:
  replicates: 4
  test_points: 800
  ceiling_n: 20000
  axis:
    levels:
      - {n_train: 60, features: [0, 1], fidelity: [1.0, 1.0]}
      - {n_train: 200, features: [0, 1], fidelity: [1.0, 0.5]}
      - {n_train: 600, features: [0, 1], fidelity: [1.0, 0.0]}
  low:
    world:
      x: {kind: gaussian, dim: 2}
      f_star: {family: linear, coefficients: [1.5, -1.0]}
      aleatoric: {variance: 0.05}
      feature_noise: {cov: 0.01}
  high:
    world:
      x: {kind: gaussian, dim: 2}
      f_star: {family: linear, coefficients: [1.5, -1.0]}
      aleatoric: {variance: 1.0}
      feature_noise: {cov: 4.0}
"""


def test_acceptance_8_worker_count_determinism(tmp_path):
    started = time.perf_counter()
    config = tmp_path / "suite.yaml"
    config.write_text(_SUITE_SCENARIO, encoding="utf-8")
    commands = ("simulate", "decompose", "biasvar", "curve", "panels", "gallery", "probe")
    manifests: dict[int, dict[str, object]] = {}
    for workers in (1, 8):
        manifests[workers] = {}
        for command in commands:
            out = tmp_path / f"w{workers}" / command
            manifests[workers][command] = run(command, config, out, workers=workers)
    for command in commands:
        dir1 = tmp_path / "w1" / command
        dir8 = tmp_path / "w8" / command
        names1 = sorted(p.name for p in dir1.iterdir())
        names8 = sorted(p.name for p in dir8.iterdir())
        assert names1 == names8
        for name in names1:
            if name == "manifest.json":
                continue  # carries wall-clock timings; its checksums are compared below
            assert (dir1 / name).read_bytes() == (dir8 / name).read_bytes(), (
                f"{command}/{name} differs between worker counts"
            )
        m1 = json.loads((dir1 / "manifest.json").read_text())
        m8 = json.loads((dir8 / "manifest.json").read_text())
        assert m1["files"] == m8["files"]
        assert m1["seed_labels"] == m8["seed_labels"]
        assert m1["config_hash"] == m8["config_hash"]
    _report("8 determinism", time.perf_counter() - started, 300, f"commands={len(commands)}")
