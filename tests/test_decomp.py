import dataclasses
import math
import re

import numpy as np
import pytest

import errorlab as el
from errorlab import decomp, parallel, worldgen
from errorlab.decomp import (
    BiasVarConfig,
    ProbeConfig,
    bias_variance_monte_carlo,
    check_telescoping,
    component_covariances,
    decompose_bundle,
    estimate_ceiling,
    representativeness_probe,
)
from errorlab.errors import EmptySelectionError, InvalidSpecError, InvariantError
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
    x_true = heldout.x_true[i : i + 1]
    pack = worldgen.HeldOut(
        x_true,
        noisy_world.f_star.values(x_true),
        heldout.epsilon[i : i + 1],
        heldout.y_true[i : i + 1],
        heldout.label,
    )
    row = decomp.decompose_rows(regimes, pack, heldout.x_observed[i : i + 1])
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


@pytest.mark.parametrize(
    "column, message",
    [
        ("meas_gain_y", "pointwise component sum misses y_true by 1.000e-06 at row 7"),
        ("delta_f", "error component sum misses y_pred - y_true by 1.000e-06 at row 7"),
    ],
    ids=["meas_gain_y", "delta_f"],
)
def test_check_telescoping_flags_corruption(noisy_world, column, message):
    # A gain column enters only the pointwise sum, an error column only the
    # error sum: each identity is checked on its own.
    _, _, table = _fit_and_decompose(noisy_world, ModelSpec(family="ridge"))
    values = getattr(table, column).copy()
    values[7] += 1e-6
    setattr(table, column, values)
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
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
        world, ModelSpec(family="ridge"), BiasVarConfig("ORACLE", 50, 60), _grid(world)
    )
    assert report.empirical_mse == pytest.approx(0.0, abs=1e-12)
    assert report.bias == pytest.approx(0.0, abs=1e-12)
    assert report.variance == pytest.approx(0.0, abs=1e-12)


def test_ols_unbiased_and_identity_holds_on_linear_gaussian_world():
    world = make_world(target_noise={}, feature_noise={})
    report = bias_variance_monte_carlo(
        world, ModelSpec(family="ridge", lam=0.0), BiasVarConfig("TT", 200, 400), _grid(world)
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
        world, ModelSpec(family="ridge", lam=0.0), BiasVarConfig("OO", 150, 300), _grid(world)
    )
    assert abs(report.identity_z) < 3.0
    assert report.aleatoric_variance > 0.5  # multiplier raises the oracle floor


def test_biasvar_workers_do_not_change_results():
    world = make_world()
    grid = _grid(world, 64)
    spec = ModelSpec(family="ridge", lam=0.0)
    cfg = BiasVarConfig("TT", 80, 24)
    serial = bias_variance_monte_carlo(world, spec, cfg, grid)
    with parallel.command_pool(4):
        pooled = bias_variance_monte_carlo(world, spec, cfg, grid)
    assert np.array_equal(serial.replicate_mse, pooled.replicate_mse)
    assert serial.identity_gap == pooled.identity_gap


def test_biasvar_validates_inputs():
    # The studies' sections refuse what the studies cannot run, when built.
    with pytest.raises(InvalidSpecError, match=r"^biasvar\.replicates: must be >= 2, got 1$"):
        BiasVarConfig(replicates=1)
    with pytest.raises(InvalidSpecError, match=r"^biasvar\.regime: unknown regime 'XX'$"):
        BiasVarConfig(regime="XX")
    with pytest.raises(InvalidSpecError, match=r"^probe\.n: must be >= 4, got 3$"):
        ProbeConfig(n=3)


def test_component_covariances_refuses_a_section_with_the_study_off():
    world = make_world()
    off = BiasVarConfig(components_replicates=0)
    with pytest.raises(InvalidSpecError, match=r"^biasvar\.components_replicates: "):
        component_covariances(world, ModelSpec(), off, _grid(world))


def test_biasvar_fit_failure_names_the_replicate():
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [1.0, 1.0]},
        feature_noise={"coarsen": [100.0, 100.0]},
    )
    with pytest.raises(el.errors.SingularSystemError, match="sample bv/rep00000: regime OO"):
        bias_variance_monte_carlo(
            world,
            ModelSpec(family="ridge", lam=0.0),
            BiasVarConfig("OO", 60, 4),
            _grid(world, 32),
            base_label="bv",
        )


def test_component_fit_failure_names_the_replicate():
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [1.0, 1.0]},
        feature_noise={"coarsen": [100.0, 100.0]},
    )
    with pytest.raises(el.errors.SingularSystemError, match="sample components/rep00000: regime OO"):
        component_covariances(
            world,
            ModelSpec(family="ridge", lam=0.0),
            BiasVarConfig(n_train=60, components_replicates=4),
            _grid(world, 32),
        )


def test_component_covariances_report():
    world = make_world()
    report = component_covariances(
        world,
        ModelSpec(family="ridge", lam=0.0),
        BiasVarConfig(n_train=150, components_replicates=60),
        _grid(world, 128),
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


def _pack_floor(world, n, label="ceiling"):
    """The noise floor of an n-row held-out pack, as a curve reads it."""
    pack = worldgen.held_out(world, worldgen.draw_inputs(world, n, label), label)
    return estimate_ceiling(pack.epsilon, pack.y_true)


def test_noiseless_world_has_r2_ceiling_one(noiseless_world):
    estimate = _pack_floor(noiseless_world, 20_000)
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
    estimate = _pack_floor(world, 20_000)
    # Same rows feed both variances, so the ratio cancels exactly.
    assert estimate.ceiling_r2 == 0.0


def test_ceiling_matches_plugin_variance_ratio():
    world = make_world(
        x={"kind": "gaussian", "dim": 1},
        f_star={"family": "linear", "coefficients": [math.sqrt(3.0)]},
        aleatoric={"variance": 1.0},
        target_noise={},
        feature_noise={},
    )
    estimate = _pack_floor(world, 100_000)
    assert abs(estimate.ceiling_r2 - 0.75) < 0.02
    assert 0.0 <= estimate.ceiling_r2 <= 1.0
    assert estimate.se_ceiling_r2 > 0.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("mean", [0.0, 0.5])
def test_pack_floor_estimates_the_spec_variance(seed, mean):
    # Homoskedastic gaussian noise of variance 0.25 on a 10,000-row pack:
    # the floor is a sample variance, whose standard error is
    # sqrt(2 / (n - 1)) sigma^2, and the R^2 ceiling comes with its own.
    # Each fixed seed lands within four of them (one would miss on about a
    # third of seeds by chance).  A noise mean leaves the floor unchanged:
    # a model with an intercept absorbs it.
    n, sigma_sq = 10_000, 0.25
    world = make_world(aleatoric={"mean": mean, "variance": sigma_sq}, seed=seed)
    estimate = _pack_floor(world, n)
    assert abs(estimate.ceiling_mse - sigma_sq) <= 4 * math.sqrt(2 / (n - 1)) * sigma_sq
    var_y = 1.5**2 + 2.0**2 + 0.7**2 + sigma_sq
    assert abs(estimate.ceiling_r2 - (1 - sigma_sq / var_y)) <= 4 * estimate.se_ceiling_r2


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
    # The ceiling reads only epsilon and y_true, which a held-out pack and
    # sample() draw from the same "x" and "eps" substreams under one label:
    # read off either (a curve's pack, the probe's sample), it is one floor.
    world = make_world(**overrides)
    bundle = el.sample(world, 5000, "ceil")
    estimate = _pack_floor(world, 5000, "ceil")
    assert estimate == estimate_ceiling(bundle.epsilon, bundle.y_true)
    assert estimate.ceiling_mse == float(np.var(bundle.epsilon, ddof=1))
    assert estimate.ceiling_r2 == 1.0 - estimate.ceiling_mse / float(np.var(bundle.y_true, ddof=1))


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"selection": {"rule": "threshold", "score": "y_true", "coverage": 0.3}},
        {
            "x": {"kind": "uniform", "dim": 3},
            "aleatoric": {"variance": 0.4, "het_link": "one_plus_mean_sq"},
            "feature_noise": {"cov": 0.3, "omit": [False, True, False], "coarsen": [0.5, 0, 0]},
        },
    ],
)
def test_testpack_draws_equal_the_full_sample(overrides):
    # A held-out pack (every study's test rows) draws x_true, x_observed and
    # epsilon from the "x", "dx" and "eps" substreams that sample() reads
    # under the same label; only target noise and selection are left out.
    world = make_world(**overrides)
    bundle = el.sample(world, 2000, "pack")
    pack = worldgen.held_out(world, worldgen.draw_inputs(world, 2000, "pack"), "pack")
    assert np.array_equal(pack.x_true, bundle.x_true)
    assert np.array_equal(pack.observed(world), bundle.x_observed)
    assert np.array_equal(pack.epsilon, bundle.epsilon)
    assert np.array_equal(pack.y_true, bundle.y_true)
    assert np.array_equal(pack.f_star, world.f_star.values(bundle.x_true))
    head = pack.head(37)
    assert head.label == "pack"
    for field in ("x_true", "f_star", "epsilon", "y_true"):
        assert np.array_equal(getattr(head, field), getattr(pack, field)[:37])


def test_ceiling_ignores_the_selection_rule():
    # The probe's ceiling concerns every row's true outcome: it is read off
    # all n rows of the probe's sample, not the 30% with the highest y_true
    # that the rule keeps, so the same rows with no selection give it too.
    world = make_world(selection={"rule": "threshold", "score": "y_true", "coverage": 0.3})
    report = representativeness_probe(world, ProbeConfig(5000))
    everyone = el.sample(make_world(), 5000, "probe")
    assert report.ceiling_r2 == estimate_ceiling(everyone.epsilon, everyone.y_true).ceiling_r2
    kept = el.sample(world, 5000, "probe").selected
    assert report.ceiling_r2 != estimate_ceiling(
        everyone.epsilon[kept], everyone.y_true[kept]
    ).ceiling_r2


def test_degenerate_variance_rejected():
    world = make_world(
        x={"kind": "gaussian", "dim": 1},
        f_star={"family": "step", "coefficients": [0.0, 1.0, 1.0]},
        aleatoric={"variance": 0.0},
        target_noise={},
        feature_noise={},
    )
    with pytest.raises(InvalidSpecError, match=r"Var\(y_true\) is zero"):
        _pack_floor(world, 1000)
    with pytest.raises(InvalidSpecError, match="needs n >= 2"):
        estimate_ceiling(np.zeros(1), np.ones(1))


# ---------------------------------------------------------------------------
# representativeness probe


def test_probe_requires_selection_rule(noisy_world):
    with pytest.raises(InvalidSpecError):
        representativeness_probe(noisy_world, ProbeConfig(1000))


def test_selection_on_noise_shrinks_its_variance():
    world = make_world(
        selection={"rule": "threshold", "score": "epsilon", "coverage": 0.7},
        target_noise={},
        feature_noise={},
    )
    report = representativeness_probe(world, ProbeConfig(20_000))
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
    report = representativeness_probe(world, ProbeConfig(20_000))
    assert abs(report.z_mean) < 3.0
    assert abs(report.z_var) < 3.0


def test_full_coverage_probe_is_degenerate():
    world = make_world(selection={"rule": "probabilistic", "coverage": 1.0})
    report = representativeness_probe(world, ProbeConfig(5_000))
    assert report.coverage == 1.0
    assert report.eps_mean_selected == report.eps_mean_full
    assert report.eps_var_selected == report.eps_var_full
    assert report.z_mean == 0.0 and report.z_var == 0.0


def test_probe_refuses_a_selection_of_fewer_than_two_rows():
    # A threshold at coverage 0.25 keeps one of four rows: no variance of
    # the selected noise exists, so the probe stops before computing one.
    world = make_world(selection={"rule": "threshold", "coverage": 0.25})
    message = "selection kept 1 of 4 rows; the probe's variances need 2"
    with pytest.raises(EmptySelectionError, match=f"^{re.escape(message)}$"):
        representativeness_probe(world, ProbeConfig(4))
