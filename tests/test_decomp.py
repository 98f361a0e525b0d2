import dataclasses
import math

import numpy as np
import pytest

import errorlab as el
from errorlab import decomp, worldgen
from errorlab.decomp import (
    bias_variance_monte_carlo,
    check_telescoping,
    component_covariances,
    decompose_bundle,
    estimate_aleatoric_from_residuals,
    estimate_ceiling,
    representativeness_probe,
)
from errorlab.errors import InvalidSpecError, InvariantError
from errorlab.models import ModelSpec, fit_regimes

from conftest import make_world


def _fit_and_decompose(world, spec, n_train=300, n_eval=400, label="dec"):
    train = el.sample(world, n_train, f"{label}/train")
    regimes = fit_regimes(train, spec)
    heldout = el.sample(world, n_eval, f"{label}/eval")
    return regimes, heldout, decompose_bundle(world, regimes, heldout)


# ---------------------------------------------------------------------------
# pointwise and error decompositions


def test_all_components_vanish_in_noiseless_world(noiseless_world):
    _, heldout, table = _fit_and_decompose(
        noiseless_world, ModelSpec(family="ridge", lam=0.0)
    )
    assert np.max(np.abs(table.model_approx_gain)) < 1e-9
    assert np.max(np.abs(table.meas_gain_y)) < 1e-9
    assert np.max(np.abs(table.meas_gain_x)) < 1e-9
    assert np.max(np.abs(table.aleatoric)) == 0.0
    np.testing.assert_allclose(table.current_prediction, heldout.y_true, atol=1e-9)
    assert np.max(np.abs(table.error_sum())) < 1e-9


def test_component_sum_reproduces_y_true(noisy_world):
    _, heldout, table = _fit_and_decompose(noisy_world, ModelSpec(family="knn", k=7))
    np.testing.assert_allclose(
        table.pointwise_sum(), heldout.y_true, rtol=1e-9, atol=1e-9
    )
    np.testing.assert_allclose(
        table.error_sum(), table.y_pred - table.y_true, rtol=1e-9, atol=1e-9
    )
    check_telescoping(table)


def test_scalar_ops_match_batch(noisy_world):
    regimes, heldout, table = _fit_and_decompose(noisy_world, ModelSpec(family="ridge"))
    i = 17
    row = decomp.decompose_rows(
        noisy_world,
        regimes,
        heldout.x_true[i : i + 1],
        heldout.x_observed[i : i + 1],
        heldout.y_true[i : i + 1],
        heldout.epsilon[i : i + 1],
    )
    assert row.n == 1
    assert row.pointwise_sum()[0] == pytest.approx(heldout.y_true[i], rel=1e-9)
    assert row.error_sum()[0] == pytest.approx(
        row.current_prediction[0] - heldout.y_true[i], rel=1e-9
    )
    for f in dataclasses.fields(row):
        assert getattr(row, f.name)[0] == pytest.approx(getattr(table, f.name)[i], rel=1e-9)


def test_error_components_negate_gains_exactly(noisy_world):
    _, _, table = _fit_and_decompose(noisy_world, ModelSpec(family="ridge", lam=0.1))
    assert np.array_equal(table.err_x, -table.meas_gain_x)
    assert np.array_equal(table.err_y, -table.meas_gain_y)
    assert np.array_equal(table.delta_f, -table.model_approx_gain)


def test_aleatoric_term_is_negated_noise(noisy_world):
    _, heldout, table = _fit_and_decompose(noisy_world, ModelSpec(family="ridge"))
    # Stored with the sign the collapsing sum forces: f*(x) - y = -epsilon.
    np.testing.assert_allclose(table.aleatoric_term, -heldout.epsilon, rtol=0, atol=1e-12)


def test_target_noise_only_world_isolates_y_channel():
    world = make_world(
        aleatoric={"variance": 0.01}, target_noise={"variance": 1.0}, feature_noise={}
    )
    _, _, table = _fit_and_decompose(world, ModelSpec(family="ridge", lam=0.0), n_eval=500)
    assert np.max(np.abs(table.meas_gain_x)) < 1e-6
    others = np.mean(np.abs(table.model_approx_gain)) + np.mean(np.abs(table.meas_gain_x))
    assert np.mean(np.abs(table.meas_gain_y)) > 3 * others


def test_check_telescoping_flags_corruption(noisy_world):
    _, _, table = _fit_and_decompose(noisy_world, ModelSpec(family="ridge"))
    table.meas_gain_y = table.meas_gain_y + 1e-6
    with pytest.raises(InvariantError):
        check_telescoping(table)


@pytest.mark.parametrize("field", ["meas_gain_x", "delta_f", "y_pred"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_telescoping_rejects_non_finite_terms(noisy_world, field, bad):
    _, _, table = _fit_and_decompose(noisy_world, ModelSpec(family="ridge"))
    values = getattr(table, field).copy()
    values[7] = bad
    setattr(table, field, values)
    with pytest.raises(InvariantError, match="non-finite .* row 7"):
        check_telescoping(table)


def test_check_telescoping_rejects_an_all_nan_prediction_chain(noisy_world):
    # What a diverged model produces: every prediction NaN, so every term
    # and sum is NaN and every tolerance comparison is False.
    _, _, table = _fit_and_decompose(noisy_world, ModelSpec(family="ridge"))
    nan = np.full(table.n, np.nan)
    for field in ("model_approx_gain", "meas_gain_y", "meas_gain_x", "current_prediction",
                  "err_x", "err_y", "delta_f", "y_pred"):
        setattr(table, field, nan)
    with pytest.raises(InvariantError, match="non-finite"):
        check_telescoping(table)


# ---------------------------------------------------------------------------
# bias-variance Monte Carlo


def _grid(world, m=256, label="bv/grid"):
    return worldgen.draw_inputs(world, m, label)


def test_degenerate_world_oracle_regime_all_zero():
    world = make_world(aleatoric={"variance": 0.0}, target_noise={}, feature_noise={})
    report = bias_variance_monte_carlo(
        world, ModelSpec(family="ridge"), "ORACLE", 50, 60, _grid(world)
    )
    assert report.empirical_mse == pytest.approx(0.0, abs=1e-12)
    assert report.bias == pytest.approx(0.0, abs=1e-12)
    assert report.variance == pytest.approx(0.0, abs=1e-12)


def test_ols_unbiased_and_identity_holds_on_linear_gaussian_world():
    world = make_world(target_noise={}, feature_noise={})
    report = bias_variance_monte_carlo(
        world, ModelSpec(family="ridge", lam=0.0), "TT", 200, 400, _grid(world)
    )
    assert abs(report.bias_z) < 3.0
    assert abs(report.identity_z) < 3.0
    assert report.replicates == 400
    # Within-point variance plus across-grid bias dispersion is the total.
    assert report.variance == pytest.approx(
        report.variance_within + report.bias_dispersion, rel=1e-9
    )


def test_identity_holds_with_observable_regime_and_heteroskedastic_noise():
    world = make_world(
        aleatoric={"variance": 0.5, "het_link": "one_plus_mean_sq"},
        target_noise={"variance": 0.3},
        feature_noise={"cov": 0.2},
    )
    report = bias_variance_monte_carlo(
        world, ModelSpec(family="ridge", lam=0.0), "OO", 150, 300, _grid(world)
    )
    assert abs(report.identity_z) < 3.0
    assert report.aleatoric_variance > 0.5  # multiplier raises the oracle floor


def test_biasvar_workers_do_not_change_results():
    world = make_world()
    grid = _grid(world, 64)
    spec = ModelSpec(family="ridge", lam=0.0)
    serial = bias_variance_monte_carlo(world, spec, "TT", 80, 24, grid, workers=1)
    parallel = bias_variance_monte_carlo(world, spec, "TT", 80, 24, grid, workers=4)
    assert np.array_equal(serial.replicate_mse, parallel.replicate_mse)
    assert serial.identity_gap == parallel.identity_gap


def test_biasvar_validates_inputs():
    world = make_world()
    with pytest.raises(InvalidSpecError):
        bias_variance_monte_carlo(world, ModelSpec(), "TT", 50, 1, _grid(world))
    with pytest.raises(InvalidSpecError):
        bias_variance_monte_carlo(world, ModelSpec(), "XX", 50, 10, _grid(world))


def test_biasvar_fit_failure_names_the_replicate():
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [1.0, 1.0]},
        feature_noise={"coarsen": [100.0, 100.0]},
    )
    with pytest.raises(el.errors.SingularSystemError, match="replicate bv/rep00000"):
        bias_variance_monte_carlo(
            world, ModelSpec(family="ridge", lam=0.0), "OO", 60, 4, _grid(world, 32), base_label="bv"
        )


def test_component_fit_failure_names_the_replicate():
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [1.0, 1.0]},
        feature_noise={"coarsen": [100.0, 100.0]},
    )
    with pytest.raises(el.errors.SingularSystemError, match="replicate components/rep00000"):
        component_covariances(world, ModelSpec(family="ridge", lam=0.0), 60, 4, _grid(world, 32))


def test_component_covariances_report():
    world = make_world()
    report = component_covariances(
        world, ModelSpec(family="ridge", lam=0.0), 150, 60, _grid(world, 128)
    )
    assert report.component_names == ("err_x", "err_y", "delta_f", "aleatoric_term")
    assert report.covariance.shape == (4, 4)
    np.testing.assert_allclose(report.covariance, report.covariance.T, atol=1e-15)
    # Fresh noise is independent of the epistemic channels: |corr z| < 3.
    n = report.replicates
    for i in range(3):
        corr = report.covariance[i, 3] / math.sqrt(
            report.covariance[i, i] * report.covariance[3, 3]
        )
        assert abs(corr) * math.sqrt(n) < 3.0


# ---------------------------------------------------------------------------
# ceiling


def test_noiseless_world_has_r2_ceiling_one(noiseless_world):
    estimate = estimate_ceiling(noiseless_world, 20_000)
    assert estimate.ceiling_r2 == pytest.approx(1.0)
    assert estimate.ceiling_mse == pytest.approx(0.0, abs=1e-12)


def test_constant_function_world_has_r2_ceiling_zero():
    world = make_world(
        x={"kind": "gaussian", "dim": 1},
        f_star={"family": "step", "coefficients": [0.0, 3.0, 3.0]},
        aleatoric={"variance": 0.5},
        target_noise={},
        feature_noise={},
    )
    estimate = estimate_ceiling(world, 20_000)
    # Same draws feed both variances, so the ratio cancels exactly.
    assert estimate.ceiling_r2 == 0.0


def test_ceiling_matches_plugin_variance_ratio():
    world = make_world(
        x={"kind": "gaussian", "dim": 1},
        f_star={"family": "linear", "coefficients": [math.sqrt(3.0)]},
        aleatoric={"variance": 1.0},
        target_noise={},
        feature_noise={},
    )
    estimate = estimate_ceiling(world, 100_000)
    assert abs(estimate.ceiling_r2 - 0.75) < 0.02
    assert 0.0 <= estimate.ceiling_r2 <= 1.0
    assert estimate.se_ceiling_r2 > 0.0


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"selection": {"rule": "threshold", "score": "y_true", "coverage": 0.3}},
        {
            "x": {"kind": "uniform", "dim": 3},
            "aleatoric": {"variance": 0.4, "het_link": "one_plus_mean_sq"},
        },
    ],
)
def test_ceiling_draws_equal_the_full_sample(overrides):
    # The ceiling reads only epsilon and y_true, which sample() draws from
    # the same "x" and "eps" substreams under the same label.
    world = make_world(**overrides)
    bundle = el.sample(world, 5000, "ceil")
    x_true = worldgen.draw_inputs(world, 5000, "ceil")
    eps = worldgen.draw_aleatoric(world, x_true, "ceil")
    assert np.array_equal(eps, bundle.epsilon)
    assert np.array_equal(world.f_star.values(x_true) + eps, bundle.y_true)
    estimate = estimate_ceiling(world, 5000, base_label="ceil")
    assert estimate.ceiling_mse == float(np.var(bundle.epsilon, ddof=1))
    assert estimate.ceiling_r2 == 1.0 - estimate.ceiling_mse / float(np.var(bundle.y_true, ddof=1))


def test_ceiling_ignores_the_selection_rule():
    # At coverage 1e-9 a two-row sample keeps no row, but the ceiling
    # concerns every row of the population and never selects.
    world = make_world(selection={"rule": "probabilistic", "coverage": 1e-9})
    with pytest.raises(el.errors.EmptySelectionError):
        el.sample(world, 2, "ceiling")
    unselected = make_world()
    assert estimate_ceiling(world, 2) == estimate_ceiling(unselected, 2)


def test_degenerate_variance_rejected():
    world = make_world(
        x={"kind": "gaussian", "dim": 1},
        f_star={"family": "step", "coefficients": [0.0, 1.0, 1.0]},
        aleatoric={"variance": 0.0},
        target_noise={},
        feature_noise={},
    )
    with pytest.raises(InvalidSpecError):
        estimate_ceiling(world, 1000)


def test_residual_plugin_estimator_is_separate_and_biased_up():
    world = make_world(target_noise={}, feature_noise={})
    train = el.sample(world, 500, "plugin/train")
    regimes = fit_regimes(train, ModelSpec(family="ridge", lam=0.0))
    heldout = el.sample(world, 50_000, "plugin/eval")
    plugin = estimate_aleatoric_from_residuals(
        regimes.tt, heldout.x_true, heldout.y_true
    )
    assert plugin >= 0.25 * 0.95
    assert plugin == pytest.approx(0.25, rel=0.10)


# ---------------------------------------------------------------------------
# representativeness probe


def test_probe_requires_selection_rule(noisy_world):
    with pytest.raises(InvalidSpecError):
        representativeness_probe(noisy_world, 1000)


def test_selection_on_noise_shrinks_its_variance():
    world = make_world(
        selection={"rule": "threshold", "score": "epsilon", "coverage": 0.7},
        target_noise={},
        feature_noise={},
    )
    report = representativeness_probe(world, 20_000)
    assert abs(report.coverage - 0.7) < 0.02
    assert abs(report.z_var) > 3.0
    assert abs(report.z_mean) > 3.0
    # Truncation shrinks the observable noise variance below the full draw.
    assert report.eps_var_selected < report.eps_var_full


def test_independent_selection_leaves_moments_alone():
    world = make_world(
        selection={"rule": "probabilistic", "coverage": 0.7},
        target_noise={},
        feature_noise={},
    )
    report = representativeness_probe(world, 20_000)
    assert abs(report.z_mean) < 3.0
    assert abs(report.z_var) < 3.0


def test_full_coverage_probe_is_degenerate():
    world = make_world(selection={"rule": "probabilistic", "coverage": 1.0})
    report = representativeness_probe(world, 5_000)
    assert report.coverage == 1.0
    assert report.eps_mean_selected == report.eps_mean_full
    assert report.eps_var_selected == report.eps_var_full
    assert report.z_mean == 0.0 and report.z_var == 0.0
