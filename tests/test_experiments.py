import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import errorlab as el
from errorlab import parallel, worldgen
from errorlab.config import parse_config
from errorlab.decomp import (
    BiasVarConfig,
    ProbeConfig,
    bias_variance_monte_carlo,
    decompose_rows,
    estimate_ceiling,
    representativeness_probe,
)
from errorlab.errors import InvalidSpecError
from errorlab.experiments import (
    AxisLevel,
    CurveConfig,
    GalleryConfig,
    GallerySide,
    InformationAxis,
    LearningCurve,
    LearningCurvePoint,
    PanelScenario,
    PanelsConfig,
    _attainment_level,
    level_world,
    monotone_under_ci,
    regime_gallery,
    run_learning_curve,
    run_panel_scenarios,
)
from errorlab.models import ModelSpec, fit_regimes, predict
from errorlab.worldgen import FeatureNoiseSpec, TargetNoiseSpec

from conftest import make_world

STANDARD = Path(__file__).resolve().parents[1] / "scenarios" / "standard.yaml"
FEATS = (0, 1, 2)
RIDGE = ModelSpec(family="ridge", lam=0.0)


def _axis(levels):
    return InformationAxis(levels=tuple(levels))


# ---------------------------------------------------------------------------
# axis validation


def test_non_nested_axes_rejected():
    base = AxisLevel(100, FEATS, (1.0, 1.0))
    with pytest.raises(InvalidSpecError, match="n_train decreases"):
        _axis([base, AxisLevel(50, FEATS, (1.0, 1.0))])
    with pytest.raises(InvalidSpecError, match="feature subset shrinks"):
        _axis([base, AxisLevel(200, (0, 1), (1.0, 1.0))])
    with pytest.raises(InvalidSpecError, match="fidelity factors increase"):
        _axis([AxisLevel(100, FEATS, (0.5, 0.5)), AxisLevel(200, FEATS, (1.0, 0.5))])
    with pytest.raises(InvalidSpecError, match="fidelity"):
        _axis([AxisLevel(100, FEATS, (1.5, 1.0))])
    with pytest.raises(InvalidSpecError, match="must not be empty"):
        _axis([])


def test_level_world_scales_and_omits():
    world = make_world(
        target_noise={"mean": 0.4, "variance": 1.0},
        feature_noise={"cov": 0.5, "coarsen": [0.2, 0.0, 0.0]},
    )
    scaled = level_world(world, AxisLevel(100, (0, 1), (0.5, 0.5)))
    assert scaled.target_noise.mean == pytest.approx(0.2)
    assert scaled.target_noise.variance == pytest.approx(0.25)
    assert scaled.feature_noise.cov[0][0] == pytest.approx(0.125)
    assert scaled.feature_noise.coarsen[0] == pytest.approx(0.1)
    assert scaled.feature_noise.omit == (False, False, True)
    assert scaled.master_seed == world.master_seed


def test_level_world_zero_fidelity_disables_channels():
    world = make_world(
        target_noise={"distribution": "quantization", "step": 0.5},
        feature_noise={"cov": 0.5},
    )
    clean = level_world(world, AxisLevel(100, FEATS, (0.0, 0.0)))
    bundle = el.sample(clean, 200, "clean")
    assert np.array_equal(bundle.y_observed, bundle.y_true)
    assert np.array_equal(bundle.x_observed, bundle.x_true)


def test_level_world_quantization_step_underflowing_to_zero_disables_the_channel():
    # step * fy is 0.0 at a fidelity above 0; no quantization spec can have
    # a zero step, so the level's target channel is off, as at fidelity 0.
    world = make_world(target_noise={"distribution": "quantization", "step": 1e-200})
    clean = level_world(world, AxisLevel(100, FEATS, (1e-200, 1.0)))
    assert clean.target_noise == TargetNoiseSpec()
    bundle = el.sample(clean, 200, "underflow")
    assert np.array_equal(bundle.y_observed, bundle.y_true)


# ---------------------------------------------------------------------------
# learning curves


def test_single_level_curve_matches_direct_mse_estimate():
    world = make_world()
    axis = _axis([AxisLevel(200, FEATS, (1.0, 1.0))])
    curve = run_learning_curve(world, RIDGE, CurveConfig(axis, 40, test_points=2000))
    assert len(curve.points) == 1
    grid = worldgen.draw_inputs(world, 2000, "direct/grid")
    direct = bias_variance_monte_carlo(world, RIDGE, BiasVarConfig("OO", 200, 200), grid)
    point = curve.points[0]
    # Same quantity estimated two ways; allow both Monte Carlo errors.
    assert abs(point.mean_mse - direct.empirical_mse) < 3 * (
        point.ci_half_width + direct.se_mse
    )


def test_curve_counts_the_features_its_fits_observe():
    # The world omits feature 2, so the level naming all three shows two; a
    # repeated index is one feature.
    world = make_world(feature_noise={"cov": 0.2, "omit": [False, False, True]})
    levels = [
        AxisLevel(30, (0, 0), (1.0, 1.0)),
        AxisLevel(40, (0, 1), (1.0, 1.0)),
        AxisLevel(50, FEATS, (1.0, 1.0)),
    ]
    curve = run_learning_curve(world, RIDGE, CurveConfig(_axis(levels), 2, test_points=50))
    assert [p.n_features for p in curve.points] == [1, 2, 2]
    for level, point in zip(levels, curve.points):
        bundle = el.sample(level_world(world, level), level.n_train, "n-features")
        assert fit_regimes(bundle, RIDGE, ("OO",))["OO"].input_dim == point.n_features


def test_growing_information_curve_is_monotone_under_ci():
    world = make_world(target_noise={"variance": 1.5}, feature_noise={"cov": 0.5})
    axis = _axis(
        [
            AxisLevel(50, (0, 1), (1.0, 1.0)),
            AxisLevel(100, FEATS, (1.0, 1.0)),
            AxisLevel(200, FEATS, (0.7, 0.7)),
            AxisLevel(500, FEATS, (0.4, 0.4)),
            AxisLevel(1200, FEATS, (0.1, 0.1)),
        ]
    )
    curve = run_learning_curve(world, RIDGE, CurveConfig(axis, 30, test_points=4000))
    assert monotone_under_ci(curve.points)
    assert curve.points[0].mean_mse > curve.points[-1].mean_mse


@pytest.mark.parametrize("field", ["mean_mse", "ci_half_width"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_curve_is_not_monotone(field, bad):
    first = LearningCurvePoint(0, 50, 3, 1.0, 1.0, 2.0, 0.1, 0.5, 0.4, 0.3, 0.6)
    second = dataclasses.replace(first, level_index=1, mean_mse=1.5)
    assert monotone_under_ci([first, second])
    assert not monotone_under_ci([first, dataclasses.replace(second, **{field: bad})])
    assert not monotone_under_ci([dataclasses.replace(first, **{field: bad})])


def test_terminal_level_reaches_noise_floor():
    world = make_world(target_noise={"variance": 1.0}, feature_noise={"cov": 0.4})
    axis = _axis(
        [
            AxisLevel(50, FEATS, (1.0, 1.0)),
            AxisLevel(400, FEATS, (0.5, 0.5)),
            AxisLevel(2000, FEATS, (0.0, 0.0)),
        ]
    )
    curve = run_learning_curve(world, RIDGE, CurveConfig(axis, 30, test_points=4000))
    assert abs(curve.points[-1].mean_mse - 0.25) / 0.25 < 0.10


def test_curve_fit_failure_names_the_cell():
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [1.0, 1.0]},
        feature_noise={"coarsen": [100.0, 100.0]},
    )
    axis = _axis([AxisLevel(60, (0, 1), (1.0, 1.0))])
    with pytest.raises(el.errors.SingularSystemError, match="sample curve/L0/rep0000: regime OO"):
        run_learning_curve(world, RIDGE, CurveConfig(axis, 2, test_points=100))


def test_curve_on_a_constant_outcome_is_rejected():
    # Var(y_test) is zero, so performance = 1 - mse / Var(y_test) is undefined.
    world = make_world(
        f_star={"family": "linear", "coefficients": [0.0, 0.0, 0.0]},
        aleatoric={"variance": 0.0},
    )
    axis = _axis([AxisLevel(60, FEATS, (1.0, 1.0))])
    with pytest.raises(InvalidSpecError, match="Var\\(y_test\\) is zero"):
        run_learning_curve(world, RIDGE, CurveConfig(axis, 2, test_points=100))


def test_curve_refuses_an_overflowing_f_star():
    # Coefficients near the float maximum overflow f*(x) to +-inf.  The
    # held-out pack's f* refuses that, naming f_star, before Var(y_test)
    # (NaN with a RuntimeWarning) could be computed from it.
    world = make_world(f_star={"family": "linear", "coefficients": [1e308, 1e308, 1e308]})
    axis = _axis([AxisLevel(60, FEATS, (1.0, 1.0))])
    with pytest.raises(InvalidSpecError, match=r"^f_star: f\*\(x\) is -?inf at row \d+"):
        run_learning_curve(world, RIDGE, CurveConfig(axis, 2, test_points=100))


def test_ceiling_refuses_an_overflowing_f_star():
    # The same overflowing world: the noise ceiling's r2 = 1 - mse / Var(y_true)
    # would be undefined.  The probe reads its ceiling off its own sample,
    # and the refusal comes from that sample's f* before it.
    world = make_world(
        f_star={"family": "linear", "coefficients": [1e308, 1e308, 1e308]},
        selection={"rule": "probabilistic", "coverage": 0.9},
    )
    with pytest.raises(InvalidSpecError, match=r"^f_star: "):
        representativeness_probe(world, ProbeConfig(100))


def test_curve_ceiling_is_read_off_its_own_pack():
    # The floor a curve reports is that of the held-out rows it scores
    # every level on: its pack under "<base_label>/test".
    world = make_world()
    axis = _axis([AxisLevel(60, FEATS, (1.0, 1.0))])
    curve = run_learning_curve(world, RIDGE, CurveConfig(axis, 2, test_points=700), "c")
    pack = worldgen.held_out(world, worldgen.draw_inputs(world, 700, "c/test"), "c/test")
    assert curve.ceiling == estimate_ceiling(pack.epsilon, pack.y_true)
    assert curve.var_y_test == float(np.var(pack.y_true, ddof=1))


def test_curve_needs_two_replicates():
    axis = _axis([AxisLevel(60, FEATS, (1.0, 1.0))])
    with pytest.raises(InvalidSpecError, match="curve.replicates: must be >= 2"):
        CurveConfig(axis, 1, test_points=100)


def test_curve_workers_do_not_change_results():
    world = make_world()
    axis = _axis([AxisLevel(60, FEATS, (1.0, 1.0)), AxisLevel(150, FEATS, (0.5, 0.5))])
    curve = CurveConfig(axis, 6, test_points=500)
    serial = run_learning_curve(world, RIDGE, curve)
    with parallel.command_pool(4):
        pooled = run_learning_curve(world, RIDGE, curve)
    assert np.array_equal(serial.replicate_mse, pooled.replicate_mse)


# The per-cell engine the per-level engine replaced: every (level, replicate)
# cell redraws the test pack and its observed view.  Kept as the reference
# that the per-level engine must reproduce bit for bit.
def _reference_cell(world, level, spec, label, base_label, test_points, comp_points):
    w_level = level_world(world, level)
    grid = worldgen.draw_inputs(world, test_points, f"{base_label}/test")
    eps_test = worldgen.draw_aleatoric(world, grid, f"{base_label}/test")
    y_test = world.f_star.values(grid) + eps_test
    x_obs_test = worldgen.observe_features(w_level, grid, f"{base_label}/test")
    bundle = worldgen.sample(w_level, level.n_train, label)
    regimes = fit_regimes(bundle, spec)
    preds = predict(regimes["OO"], x_obs_test)
    mse = float(np.mean((preds - y_test) ** 2))
    cp = min(comp_points, test_points)
    f_star = w_level.f_star.values(grid[:cp])
    pack = worldgen.HeldOut(grid[:cp], f_star, eps_test[:cp], y_test[:cp], f"{base_label}/test")
    table = decompose_rows(regimes, pack, x_obs_test[:cp])
    return (
        mse,
        float(np.mean(np.abs(table.model_approx_gain))),
        float(np.mean(np.abs(table.meas_gain_y))),
        float(np.mean(np.abs(table.meas_gain_x))),
    )


def _reference_curve(world, spec, axis, replicates, test_points, comp_points, base_label):
    values = np.asarray(
        [
            _reference_cell(
                world, level, spec, f"{base_label}/L{li}/rep{r:04d}",
                base_label, test_points, comp_points,
            )
            for li, level in enumerate(axis.levels)
            for r in range(replicates)
        ]
    ).reshape(len(axis.levels), replicates, 4)
    grid = worldgen.draw_inputs(world, test_points, f"{base_label}/test")
    eps_test = worldgen.draw_aleatoric(world, grid, f"{base_label}/test")
    var_y = float(np.var(world.f_star.values(grid) + eps_test, ddof=1))
    return values, var_y


def _hard_world():
    # Probabilistic selection, an omitted feature and a coarsened column.
    return make_world(
        feature_noise={"cov": 0.3, "omit": [False, False, True], "coarsen": [0.25, 0.0, 0.0]},
        selection={"rule": "probabilistic", "coverage": 0.8},
    )


def _hard_axis():
    return _axis(
        [
            AxisLevel(40, (0, 1), (1.0, 1.0)),
            AxisLevel(90, FEATS, (1.0, 0.7)),
            AxisLevel(160, FEATS, (0.5, 0.4)),
        ]
    )


@pytest.mark.parametrize(
    "spec",
    [
        RIDGE,
        ModelSpec(family="knn", k=5),
        ModelSpec(family="mlp", widths=(8,), epochs=4, batch_size=16),
    ],
    ids=["ridge", "knn", "mlp"],
)
def test_per_level_engine_matches_per_cell_reference_bitwise(spec):
    world, axis = _hard_world(), _hard_axis()
    curve = run_learning_curve(world, spec, CurveConfig(axis, 3, test_points=300, comp_points=64))
    values, var_y = _reference_curve(world, spec, axis, 3, 300, 64, "curve")
    assert np.array_equal(curve.replicate_mse, values[:, :, 0])
    assert curve.var_y_test == var_y
    for li, point in enumerate(curve.points):
        assert point.mean_mse == float(values[li, :, 0].mean())
        assert point.mean_abs_approx == float(values[li, :, 1].mean())
        assert point.mean_abs_meas_y == float(values[li, :, 2].mean())
        assert point.mean_abs_meas_x == float(values[li, :, 3].mean())


def test_curve_and_panels_identical_at_one_two_and_four_workers():
    world, curve = _hard_world(), CurveConfig(_hard_axis(), 4, test_points=200)
    variants = PanelsConfig(
        (
            PanelScenario("baseline"),
            PanelScenario("reconstructed_target", target_noise=TargetNoiseSpec(variance=0.1)),
        )
    )
    curves, panels = [], []
    for workers in (1, 2, 4):
        with parallel.command_pool(workers):
            curves.append(run_learning_curve(world, RIDGE, curve))
            panels.append(run_panel_scenarios(world, variants, RIDGE, curve))
    for curve in curves[1:]:
        assert np.array_equal(curve.replicate_mse, curves[0].replicate_mse)
        assert curve.points == curves[0].points
    for panel in panels[1:]:
        assert panel.comparisons == panels[0].comparisons
        for a, b in zip(panel.curves, panels[0].curves):
            assert np.array_equal(a.replicate_mse, b.replicate_mse)
            assert a.points == b.points


# ---------------------------------------------------------------------------
# panels


def _panel_axis():
    return _axis(
        [
            AxisLevel(50, (0, 1), (1.0, 1.0)),
            AxisLevel(80, FEATS, (1.0, 1.0)),
            AxisLevel(120, FEATS, (0.8, 0.8)),
            AxisLevel(200, FEATS, (0.7, 0.6)),
            AxisLevel(200, FEATS, (0.6, 0.4)),
            AxisLevel(200, FEATS, (0.5, 0.3)),
        ]
    )


def test_panel_variant_validation():
    with pytest.raises(InvalidSpecError):
        PanelScenario("baseline", target_noise=TargetNoiseSpec(variance=1.0))
    with pytest.raises(InvalidSpecError):
        PanelScenario("reconstructed_target")
    with pytest.raises(InvalidSpecError):
        PanelScenario(
            "reconstructed_target",
            target_noise=TargetNoiseSpec(variance=1.0),
            feature_noise=FeatureNoiseSpec.none(3),
        )


def test_duplicated_baseline_curves_are_bit_identical():
    world = make_world(target_noise={"variance": 2.0})
    result = run_panel_scenarios(
        world,
        PanelsConfig((PanelScenario("baseline"), PanelScenario("baseline"))),
        RIDGE,
        CurveConfig(_panel_axis(), replicates=8, test_points=1000),
    )
    assert np.array_equal(result.curves[0].replicate_mse, result.curves[1].replicate_mse)
    assert result.comparisons[1].mean_diff_vs_baseline == 0.0
    assert not result.comparisons[1].strictly_below_baseline


def test_halving_target_noise_beats_baseline_at_terminal():
    world = make_world(target_noise={"variance": 4.0}, feature_noise={"cov": 0.4})
    result = run_panel_scenarios(
        world,
        PanelsConfig(
            (
                PanelScenario("baseline"),
                PanelScenario("reconstructed_target", target_noise=TargetNoiseSpec(variance=2.0)),
            )
        ),
        RIDGE,
        CurveConfig(_panel_axis(), replicates=30, test_points=4000),
    )
    comparison = result.comparisons[1]
    assert comparison.strictly_below_baseline
    assert comparison.mean_diff_vs_baseline > 1.96 * comparison.se_diff


def test_unomitting_a_relevant_feature_clears_the_x_channel():
    world = make_world(
        feature_noise={"cov": 0.0, "omit": [False, False, True]},
        target_noise={"variance": 0.5},
    )
    repaired = FeatureNoiseSpec.none(3)
    result = run_panel_scenarios(
        world,
        PanelsConfig(
            (
                PanelScenario("baseline"),
                PanelScenario("reconstructed_features", feature_noise=repaired),
            )
        ),
        RIDGE,
        CurveConfig(_panel_axis(), replicates=10, test_points=1000),
    )
    base_terminal = result.curves[0].points[-1]
    fixed_terminal = result.curves[1].points[-1]
    assert base_terminal.mean_abs_meas_x > 0.01
    assert fixed_terminal.mean_abs_meas_x < 1e-9


# Variants that redraw the feature noise, re-observe the features, redraw
# the target noise, and put a baseline after the first variant and twice.
_SHARING_VARIANTS = (
    PanelScenario(
        "reconstructed_features",
        feature_noise=FeatureNoiseSpec(
            means=(0.0,) * 3,
            cov=((0.1, 0.0, 0.0), (0.0, 0.1, 0.0), (0.0, 0.0, 0.1)),
            omit=(False,) * 3,
            coarsen=(0.5, 0.0, 0.0),
        ),
    ),
    PanelScenario(
        "reconstructed_target", target_noise=TargetNoiseSpec(distribution="quantization", step=0.25)
    ),
    PanelScenario("baseline"),
    PanelScenario(
        "reconstructed_target", target_noise=TargetNoiseSpec(distribution="uniform", variance=0.3)
    ),
    PanelScenario("baseline"),
)


def _sharing_world():
    return make_world(
        target_noise={"variance": 1.0},
        feature_noise={"cov": 0.4, "omit": [False, False, True]},
        selection={"rule": "probabilistic", "coverage": 0.9},
    )


@pytest.mark.parametrize(
    "spec",
    [
        RIDGE,
        ModelSpec(family="knn", k=5),
        ModelSpec(family="mlp", widths=(6,), epochs=3, batch_size=16),
    ],
    ids=["ridge", "knn", "mlp"],
)
def test_panels_equal_one_curve_per_variant_bitwise(spec):
    # The variants share each replicate's draws and fits; each must still
    # get the curve it gets alone.  The last level switches both channels
    # off, where the target variants equal the baseline.
    world = _sharing_world()
    axis = _axis(
        [
            AxisLevel(40, (0, 1), (1.0, 1.0)),
            AxisLevel(60, FEATS, (0.7, 0.5)),
            AxisLevel(80, FEATS, (0.0, 0.0)),
        ]
    )
    curve = CurveConfig(axis, 3, test_points=200, comp_points=50)
    result = run_panel_scenarios(world, PanelsConfig(_SHARING_VARIANTS), spec, curve)
    for variant, shared in zip(_SHARING_VARIANTS, result.curves):
        alone = run_learning_curve(variant.apply(world), spec, curve, "panels")
        assert np.array_equal(shared.replicate_mse, alone.replicate_mse)
        assert shared.points == alone.points
        assert (shared.var_y_test, shared.ceiling) == (alone.var_y_test, alone.ceiling)


@pytest.mark.parametrize("workers", [1, 2])
def test_panels_name_the_first_listed_variant_that_fails(workers):
    # The baseline's constant third observed feature makes its OO design
    # singular from level 1, where that feature becomes visible; the
    # variant listed after it coarsens the first two features to constants,
    # so it fails already at level 0.  Run one after another, the variants
    # would fail with the baseline's error, and so must the shared run.
    world = make_world(feature_noise={"cov": 0.0, "coarsen": [0.0, 0.0, 100.0]})
    coarse = FeatureNoiseSpec(
        means=(0.0,) * 3, cov=((0.0,) * 3,) * 3, omit=(False,) * 3, coarsen=(100.0, 100.0, 0.0)
    )
    variants = (
        PanelScenario("baseline"),
        PanelScenario("reconstructed_features", feature_noise=coarse),
    )
    axis = _axis([AxisLevel(40, (0, 1), (1.0, 1.0)), AxisLevel(60, FEATS, (1.0, 1.0))])
    curve = CurveConfig(axis, 2, test_points=100, comp_points=20)
    with parallel.command_pool(workers):
        with pytest.raises(el.errors.SingularSystemError) as info:
            run_panel_scenarios(world, PanelsConfig(variants), RIDGE, curve)
    assert str(info.value).startswith(
        "panels.variants[0] (baseline): sample panels/L1/rep0000: regime OO: ridge with lam=0"
    )
    with pytest.raises(el.errors.SingularSystemError, match="sample panels/L0/rep0000: regime OO"):
        run_learning_curve(variants[1].apply(world), RIDGE, curve, "panels")


def test_panels_require_a_baseline():
    with pytest.raises(InvalidSpecError, match="baseline"):
        PanelsConfig((PanelScenario("reconstructed_target", target_noise=TargetNoiseSpec()),))


# ---------------------------------------------------------------------------
# gallery


def test_gallery_contrast():
    low = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [1.5, -1.0]},
        aleatoric={"variance": 0.05},
        target_noise={},
        feature_noise={"cov": 0.01},
        seed=21,
    )
    high = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [1.5, -1.0]},
        aleatoric={"variance": 1.0},
        target_noise={},
        feature_noise={"cov": 4.0},
        seed=22,
    )
    axis = _axis(
        [
            AxisLevel(60, (0, 1), (1.0, 1.0)),
            AxisLevel(150, (0, 1), (1.0, 0.6)),
            AxisLevel(400, (0, 1), (1.0, 0.35)),
            AxisLevel(1000, (0, 1), (1.0, 0.2)),
            AxisLevel(2500, (0, 1), (1.0, 0.1)),
            AxisLevel(5000, (0, 1), (1.0, 0.0)),
        ]
    )
    gallery = GalleryConfig(
        GallerySide(low, RIDGE),
        GallerySide(high, RIDGE),
        axis,
        replicates=20,
        test_points=4000,
    )
    low_noise, high_noise = regime_gallery(gallery)
    assert (low_noise.name, high_noise.name) == ("low_noise", "high_noise")
    # Matched Var(f*(x)) forces the ceiling ordering by construction.
    assert low_noise.curve.ceiling.ceiling_r2 > high_noise.curve.ceiling.ceiling_r2
    assert low_noise.attainment_level is not None
    assert high_noise.attainment_level is not None
    assert low_noise.attainment_level < high_noise.attainment_level
    assert monotone_under_ci(low_noise.curve.points)
    assert monotone_under_ci(high_noise.curve.points)


def test_attainment_compares_each_level_with_the_curve_floor():
    # A level attains the floor when its mean mse is within 10% of the
    # floor of the same held-out rows: 1.08 reaches a floor of 1.0 and 1.15
    # does not, so the first curve attains at level 2 and the second never.
    point = LearningCurvePoint(0, 50, 2, 1.0, 1.0, 3.0, 0.1, 0.5, 0.4, 0.3, 0.6)
    floor = el.CeilingEstimate(ceiling_mse=1.0, ceiling_r2=0.7, se_ceiling_r2=0.01)

    def curve(*mses):
        points = [dataclasses.replace(point, level_index=i, mean_mse=m) for i, m in enumerate(mses)]
        return LearningCurve(points, np.zeros((len(mses), 2)), var_y_test=3.3, ceiling=floor)

    assert _attainment_level(curve(3.0, 1.5, 1.08, 1.01)) == 2
    assert _attainment_level(curve(3.0, 1.5, 1.15)) is None


def test_gallery_peak_memory_stays_small():
    # Each side's floor is read off its 10,000-row held-out pack, so the
    # gallery holds no draw of its own beside the packs: with 100,000 extra
    # ceiling rows per side its traced peak was 6.4 MB.
    gallery = parse_config(STANDARD, replicates=2).gallery
    tracemalloc.start()
    try:
        regime_gallery(gallery)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
