import dataclasses
import math

import numpy as np
import pytest

import errorlab as el
from errorlab import worldgen
from errorlab.errors import ConfigError, EmptySelectionError, InvalidSpecError, InvariantError
from errorlab.models import ModelSpec
from errorlab.worldgen import AleatoricSpec, SelectionSpec, TargetNoiseSpec

from conftest import make_world


# ---------------------------------------------------------------------------
# build_world and spec validation


def test_degenerate_noiseless_world_builds():
    world = el.build_world(
        {
            "x": {"kind": "gaussian", "dim": 1},
            "f_star": {"family": "linear", "coefficients": [2.0]},
            "seed": 1,
        }
    )
    assert world.aleatoric.variance == 0.0
    assert world.target_noise.variance == 0.0


def test_non_psd_feature_cov_rejected():
    cov = [[1.0, 2.0], [2.0, 1.0]]  # eigenvalues 3 and -1
    with pytest.raises(InvalidSpecError, match="feature_noise.cov"):
        make_world(
            x={"kind": "gaussian", "dim": 2},
            f_star={"family": "linear", "coefficients": [1.0, 1.0]},
            feature_noise={"cov": cov},
        )


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda w: dataclasses.replace(w, aleatoric=AleatoricSpec(variance=-1.0)),
            "aleatoric.variance",
        ),
        (
            lambda w: dataclasses.replace(w, target_noise=TargetNoiseSpec(variance=-1.0)),
            "target_noise.variance",
        ),
        (
            lambda w: dataclasses.replace(
                w, selection=SelectionSpec(rule="threshold", coverage=2.0)
            ),
            "selection.coverage",
        ),
        (lambda w: dataclasses.replace(w, selection=SelectionSpec(rule="bogus")), "selection.rule"),
        (lambda w: dataclasses.replace(w, master_seed=-1), "master_seed"),
        (
            lambda w: dataclasses.replace(
                w, f_star=dataclasses.replace(w.f_star, coefficients=(1.0, -1.0, 2.0))
            ),
            "f_star.coefficients: linear family needs 2 coefficients, got 3",
        ),
        (lambda w: ModelSpec(k=0), "model.k"),
        # A non-finite value breaks every rule it meets, not only parsing.
        (lambda w: AleatoricSpec(mean=math.nan), "aleatoric.mean"),
        (lambda w: AleatoricSpec(variance=math.nan), "aleatoric.variance"),
        (lambda w: AleatoricSpec(variance=math.inf), "aleatoric.variance"),
        (lambda w: AleatoricSpec(distribution="student_t", df=math.nan), "aleatoric.df"),
        (lambda w: TargetNoiseSpec(mean=math.inf), "target_noise.mean"),
        (lambda w: TargetNoiseSpec(variance=math.nan), "target_noise.variance"),
        (lambda w: TargetNoiseSpec(distribution="quantization", step=math.nan), "target_noise.step"),
        (lambda w: TargetNoiseSpec(distribution="quantization", step=math.inf), "target_noise.step"),
        (lambda w: ModelSpec(lam=math.nan), "model.lam"),
        (lambda w: ModelSpec(lam=math.inf), "model.lam"),
        (lambda w: ModelSpec(learning_rate=math.nan), "model.learning_rate"),
        (lambda w: worldgen.XDistributionSpec(kind="uniform", low=-math.inf), "x.low"),
        (
            lambda w: worldgen.XDistributionSpec(kind="uniform", low=-1e308, high=1e308),
            "x.high: the uniform box's width high - low overflows float64",
        ),
    ],
    ids=[
        "aleatoric-variance",
        "target-variance",
        "threshold-coverage",
        "unknown-rule",
        "negative-seed",
        "extra-coefficient",
        "knn-k",
        "aleatoric-mean-nan",
        "aleatoric-variance-nan",
        "aleatoric-variance-inf",
        "student-t-df-nan",
        "target-mean-inf",
        "target-variance-nan",
        "quantization-step-nan",
        "quantization-step-inf",
        "ridge-lam-nan",
        "ridge-lam-inf",
        "learning-rate-nan",
        "uniform-low-inf",
        "uniform-width-overflows",
    ],
)
def test_a_broken_rule_raises_when_the_spec_is_built(build, message):
    # No caller has to remember a check: dataclasses.replace builds anew.
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [1.0, -1.0]},
    )
    with pytest.raises(InvalidSpecError, match=message):
        build(world)


def test_non_psd_x_cov_rejected_on_every_validation():
    spec = worldgen.XDistributionSpec(kind="correlated", cov=((1.0, 2.0), (2.0, 1.0)))
    for _ in range(2):
        with pytest.raises(InvalidSpecError, match="x.cov: not positive semidefinite"):
            spec.validate(2)


def test_validated_covariances_are_not_factored_again_per_draw(monkeypatch):
    cov = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]]
    world = make_world(
        x={"kind": "correlated", "dim": 3, "cov": cov}, feature_noise={"cov": 0.3}
    )
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    for _ in range(2):
        bundle = el.sample(world, 50, "factor")
        worldgen.observe_features(world, bundle.x_true, "factor/view")
        worldgen.draw_inputs(world, 20, "factor/grid")
    assert calls == []


def test_missing_input_dim_rejected():
    with pytest.raises(ConfigError, match="world.x.dim"):
        el.build_world({"f_star": {"coefficients": [1.0]}, "seed": 1})


def test_coefficient_count_checked_per_family():
    with pytest.raises(InvalidSpecError, match="coefficients"):
        make_world(f_star={"family": "linear", "coefficients": [1.0, 2.0]})
    with pytest.raises(InvalidSpecError, match="friedman"):
        make_world(f_star={"family": "friedman", "coefficients": [1.0, 2.0, 3.0, 4.0]})


def test_friedman_world_noise_variance_calibrated():
    world = make_world(
        x={"kind": "uniform", "dim": 10, "low": 0.0, "high": 1.0},
        f_star={"family": "friedman", "coefficients": [10.0, 20.0, 10.0, 5.0]},
        aleatoric={"variance": 1.0},
        target_noise={},
        feature_noise={},
    )
    bundle = el.sample(world, 100_000, "friedman-var")
    assert abs(np.var(bundle.epsilon, ddof=1) - 1.0) < 0.03


@pytest.mark.parametrize("distribution", ["student_t", "mixture"])
def test_heavy_and_mixed_noise_variance_calibrated(distribution):
    world = make_world(
        aleatoric={"distribution": distribution, "mean": 0.5, "variance": 2.0},
        target_noise={},
        feature_noise={},
    )
    bundle = el.sample(world, 200_000, "alt-noise")
    assert abs(np.mean(bundle.epsilon) - 0.5) < 0.02
    assert abs(np.var(bundle.epsilon, ddof=1) - 2.0) / 2.0 < 0.03


def test_heteroskedastic_link_scales_variance():
    world = make_world(
        aleatoric={"variance": 0.5, "het_link": "one_plus_mean_sq"},
        target_noise={},
        feature_noise={},
    )
    bundle = el.sample(world, 200_000, "het")
    expected = 0.5 * np.mean(world.aleatoric.multiplier(bundle.x_true))
    assert abs(np.mean(bundle.epsilon**2) - expected) / expected < 0.03
    assert world.aleatoric.variance_on(bundle.x_true) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# f_star on one point (a one-row matrix)


def test_linear_value_by_hand():
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [2.0, -1.0]},
    )
    assert world.f_star.values([[1.0, 1.0]])[0] == pytest.approx(1.0)


def test_polynomial_value_by_hand():
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "polynomial", "coefficients": [1.0, 2.0, 3.0, 4.0, 5.0]},
    )
    # 1 + 2*x0 + 3*x1 + 4*x0^2 + 5*x1^2 at (1, 2)
    assert world.f_star.values([[1.0, 2.0]])[0] == pytest.approx(33.0)


def test_step_threshold_takes_right_branch():
    world = make_world(
        x={"kind": "gaussian", "dim": 1},
        f_star={"family": "step", "coefficients": [0.0, -1.0, 1.0]},
    )
    assert world.f_star.values([[0.0]])[0] == 1.0  # value just above the threshold
    assert world.f_star.values([[-1e-12]])[0] == -1.0
    assert world.f_star.values([[0.5]])[0] == 1.0


def test_friedman_probe_point_matches_direct_formula():
    world = make_world(
        x={"kind": "uniform", "dim": 6, "low": 0.0, "high": 1.0},
        f_star={"family": "friedman", "coefficients": [10.0, 20.0, 10.0, 5.0]},
    )
    probe = [0.2, 0.4, 0.6, 0.8, 1.0, 0.3]
    expected = (
        10.0 * math.sin(math.pi * 0.2 * 0.4)
        + 20.0 * (0.6 - 0.5) ** 2
        + 10.0 * 0.8
        + 5.0 * 1.0
    )
    assert world.f_star.values([probe])[0] == pytest.approx(expected, rel=1e-12)


def test_interaction_terms_add_products():
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={
            "family": "linear",
            "coefficients": [1.0, 1.0],
            "interactions": [{"pair": [0, 1], "weight": 0.5}],
        },
    )
    assert world.f_star.values([[2.0, 3.0]])[0] == pytest.approx(5.0 + 0.5 * 6.0)


def test_eval_dimension_mismatch():
    world = make_world()
    with pytest.raises(el.errors.DimensionError):
        world.f_star.values([[1.0, 2.0]])


# ---------------------------------------------------------------------------
# sampling invariants


@pytest.mark.parametrize(
    "draw",
    [
        lambda world: el.sample(world, 5, "overflow"),
        lambda world: worldgen.held_out(world, worldgen.draw_inputs(world, 5, "o"), "overflow"),
    ],
    ids=["sample", "held_out"],
)
def test_y_true_that_overflows_is_refused_naming_the_noise(draw):
    # f* and the noise are each finite; only their sum overflows.
    world = make_world(
        x={"kind": "gaussian", "dim": 1},
        f_star={"family": "polynomial", "coefficients": [1.7e308, 0.0]},
        aleatoric={"mean": 1e308},
        target_noise={},
        feature_noise={},
    )
    message = r"^aleatoric: y_true is inf at row 0; f\*\(x\) plus the noise overflows float64$"
    with pytest.raises(InvalidSpecError, match=message):
        draw(world)


def test_identity_corruption_passthrough(noiseless_world):
    bundle = el.sample(noiseless_world, 3, "identity")
    f_vals = noiseless_world.f_star.values(bundle.x_true)
    assert np.array_equal(bundle.y_true, f_vals)
    assert np.array_equal(bundle.y_observed, bundle.y_true)
    assert np.array_equal(bundle.x_observed, bundle.x_true)
    assert bundle.selected.all()


def test_constant_target_shift():
    world = make_world(target_noise={"mean": 0.5, "variance": 0.0}, feature_noise={})
    bundle = el.sample(world, 50, "shift")
    assert np.array_equal(bundle.y_observed, bundle.y_true + 0.5)


def test_target_noise_sample_variance_in_band():
    world = make_world(target_noise={"variance": 0.25}, feature_noise={})
    bundle = el.sample(world, 100_000, "dy-var")
    var = np.var(bundle.delta_y, ddof=1)
    assert 0.2375 <= var <= 0.2625


def test_uniform_target_noise_moments():
    world = make_world(
        target_noise={"distribution": "uniform", "mean": 0.2, "variance": 0.12},
        feature_noise={},
    )
    bundle = el.sample(world, 100_000, "dy-uniform")
    assert abs(np.mean(bundle.delta_y) - 0.2) < 3 * math.sqrt(0.12 / 100_000)
    assert abs(np.var(bundle.delta_y, ddof=1) - 0.12) / 0.12 < 0.05


def test_quantized_target_recomputable():
    world = make_world(
        target_noise={"distribution": "quantization", "step": 0.5}, feature_noise={}
    )
    bundle = el.sample(world, 1000, "quant")
    assert np.array_equal(bundle.y_observed, 0.5 * np.round(bundle.y_true / 0.5))


def test_feature_noise_moments_per_feature():
    cov = [[0.3, 0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.4]]
    world = make_world(feature_noise={"means": [0.1, -0.2, 0.0], "cov": cov})
    bundle = el.sample(world, 100_000, "dx-var")
    for j, (mean_j, var_j) in enumerate(zip([0.1, -0.2, 0.0], [0.3, 0.2, 0.4])):
        draws = bundle.delta_x[:, j]
        assert abs(np.mean(draws) - mean_j) < 3 * math.sqrt(var_j / 100_000)
        assert abs(np.var(draws, ddof=1) - var_j) / var_j < 0.05


def test_omission_and_coarsening():
    world = make_world(
        feature_noise={
            "cov": 0.0,
            "omit": [False, True, False],
            "coarsen": [0.0, 0.0, 0.25],
        }
    )
    bundle = el.sample(world, 500, "omit")
    assert bundle.x_observed.shape[1] == 2
    assert np.array_equal(bundle.x_observed[:, 0], bundle.x_true[:, 0])
    assert np.array_equal(
        bundle.x_observed[:, 1], 0.25 * np.round(bundle.x_true[:, 2] / 0.25)
    )


def test_all_features_omitted_rejected():
    with pytest.raises(InvalidSpecError, match="at least one feature"):
        make_world(feature_noise={"omit": [True, True, True]})


def test_generative_identity_exact(noisy_world):
    bundle = el.sample(noisy_world, 5000, "exact")
    recomputed = noisy_world.f_star.values(bundle.x_true) + bundle.epsilon
    assert np.array_equal(recomputed, bundle.y_true)
    assert np.array_equal(bundle.y_observed - bundle.y_true, bundle.delta_y)
    el.verify_bundle(noisy_world, bundle)


def _changed(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    out.flat[0] = not out.flat[0] if out.dtype == bool else out.flat[0] + 1.0
    return out


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda b: {"x_true": _changed(b.x_true)}, r"y_true != f_star\(x_true\) \+ epsilon"),
        (lambda b: {"x_observed": _changed(b.x_observed)}, "x_observed does not match"),
        (lambda b: {"y_true": _changed(b.y_true)}, r"y_true != f_star\(x_true\) \+ epsilon"),
        (lambda b: {"y_observed": _changed(b.y_observed)}, "stored delta_y"),
        (lambda b: {"epsilon": _changed(b.epsilon)}, r"y_true != f_star\(x_true\) \+ epsilon"),
        (lambda b: {"selected": _changed(b.selected)}, "field selected is not reproducible"),
        (lambda b: {"delta_y": _changed(b.delta_y)}, "stored delta_y"),
        (lambda b: {"delta_x": _changed(b.delta_x)}, "x_observed does not match"),
        (
            lambda b: {"x_observed": np.column_stack([b.x_observed, b.x_observed[:, 0]])},
            "x_observed has 4 columns, expected 3",
        ),
    ],
    ids=[
        "x_true",
        "x_observed",
        "y_true",
        "y_observed",
        "epsilon",
        "selected",
        "delta_y",
        "delta_x",
        "extra-column",
    ],
)
def test_verify_bundle_catches_each_corruption(noisy_world, corrupt, message):
    bundle = el.sample(noisy_world, 50, "verify")
    with pytest.raises(InvariantError, match=message):
        el.verify_bundle(noisy_world, dataclasses.replace(bundle, **corrupt(bundle)))


@pytest.mark.parametrize(
    "field, message",
    [
        ("y_true", r"y_true != f_star\(x_true\) \+ epsilon"),
        ("y_observed", "stored delta_y"),
        ("x_observed", "x_observed does not match"),
    ],
)
def test_check_bundle_checks_every_block_of_rows(noisy_world, monkeypatch, field, message):
    # Blocks of 16 rows: the last row of 50 sits in the fourth, a short one.
    monkeypatch.setattr(worldgen, "_CHECK_ROWS", 16)
    bundle = el.sample(noisy_world, 50, "verify")
    worldgen.check_bundle(noisy_world, bundle)
    values = getattr(bundle, field).copy()
    values[-1] += 1.0
    with pytest.raises(InvariantError, match=message):
        worldgen.check_bundle(noisy_world, dataclasses.replace(bundle, **{field: values}))


def test_sampling_deterministic_per_label(noisy_world):
    a = el.sample(noisy_world, 100, "det")
    b = el.sample(noisy_world, 100, "det")
    c = el.sample(noisy_world, 100, "det2")
    assert np.array_equal(a.x_observed, b.x_observed)
    assert np.array_equal(a.y_observed, b.y_observed)
    assert not np.array_equal(a.y_observed, c.y_observed)


def test_equal_worlds_sample_identically(world_factory):
    w1 = world_factory()
    w2 = world_factory()
    assert w1 == w2
    a = el.sample(w1, 64, "eq")
    b = el.sample(w2, 64, "eq")
    assert np.array_equal(a.y_observed, b.y_observed)


def test_noise_channels_use_independent_substreams(world_factory):
    base = el.sample(world_factory(), 256, "iso")
    changed = el.sample(world_factory(target_noise={"variance": 4.0}), 256, "iso")
    # Only the target channel moves; inputs, inherent noise, and feature
    # noise keep their exact realizations.
    assert np.array_equal(base.x_true, changed.x_true)
    assert np.array_equal(base.epsilon, changed.epsilon)
    assert np.array_equal(base.delta_x, changed.delta_x)
    assert not np.array_equal(base.delta_y, changed.delta_y)


# ---------------------------------------------------------------------------
# selection


def test_selection_none_keeps_everything(noisy_world):
    assert noisy_world.selection.rule == "none"
    bundle = el.sample(noisy_world, 1000, "sel-none")
    assert bundle.selected.all()


def test_threshold_selection_on_noise_shifts_mean():
    world = make_world(selection={"rule": "threshold", "score": "epsilon", "coverage": 0.7})
    bundle = el.sample(world, 20_000, "sel-thr")
    assert abs(bundle.coverage - 0.7) < 0.02
    sel_eps = bundle.epsilon[bundle.selected]
    se = np.std(bundle.epsilon, ddof=1) / math.sqrt(sel_eps.size)
    assert abs(np.mean(sel_eps) - 0.0) > 3 * se


def test_probabilistic_selection_independent_of_noise():
    world = make_world(selection={"rule": "probabilistic", "coverage": 0.5})
    bundle = el.sample(world, 20_000, "sel-prob")
    assert abs(bundle.coverage - 0.5) < 0.02
    sel_eps = bundle.epsilon[bundle.selected]
    se = np.std(bundle.epsilon, ddof=1) / math.sqrt(sel_eps.size)
    assert abs(np.mean(sel_eps)) < 3 * se


def test_empty_selection_raises():
    half = make_world(selection={"rule": "threshold", "score": "epsilon", "coverage": 0.5})
    assert el.sample(half, 50, "sel-empty").selected.sum() == 25
    hopeless = make_world(selection={"rule": "probabilistic", "coverage": 1e-12})
    with pytest.raises(EmptySelectionError, match="kept zero of 50 rows"):
        el.sample(hopeless, 50, "sel-empty")


# ---------------------------------------------------------------------------
# export


def test_bundle_csv_columns(noisy_world):
    bundle = el.sample(noisy_world, 4, "csv")
    header, columns = worldgen.bundle_columns(bundle)
    assert header == [
        "x_true_0",
        "x_true_1",
        "x_true_2",
        "x_obs_0",
        "x_obs_1",
        "x_obs_2",
        "y_true",
        "y_obs",
        "epsilon",
        "selected",
    ]
    assert len(columns) == len(header)
    assert all(len(column) == 4 for column in columns)
    assert columns[6][0] == pytest.approx(bundle.y_true[0])
