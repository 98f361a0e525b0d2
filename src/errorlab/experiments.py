"""Decomposed learning curves over nested information axes.

An information axis orders levels of (sample size, feature subset,
measurement fidelity); each level refits the model on observable data and
scores it on one fixed held-out grid.  Levels must be nested so that the
expected curve is monotone: more rows, more features, less corruption.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import worldgen
from .decomp import CeilingEstimate, decompose_rows, estimate_ceiling
from .errors import FitError, InvalidSpecError
from .models import ModelSpec, fit_regimes, predict
from .parallel import ordered_map
from .worldgen import FeatureNoiseSpec, TargetNoiseSpec, World, coerce_fields

PANEL_VARIANTS = ("baseline", "reconstructed_target", "reconstructed_features")
_ATTAINMENT_SLACK = 0.10  # a gallery curve attains its ceiling within this fraction


@dataclass(frozen=True)
class AxisLevel:
    """One information level: training rows, visible features, and the
    fidelity pair scaling the target-noise and feature-noise draws (1 keeps
    the base corruption, 0 switches the channel off entirely)."""

    n_train: int
    features: tuple[int, ...]
    fidelity: tuple[float, float]

    def __post_init__(self) -> None:
        coerce_fields(self, n_train=int, features=(int,), fidelity=(float, float))


@dataclass(frozen=True)
class InformationAxis:
    levels: tuple[AxisLevel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        self.validate()

    def validate(self) -> "InformationAxis":
        if not self.levels:
            raise InvalidSpecError("axis.levels: must not be empty")
        for idx, level in enumerate(self.levels):
            if level.n_train < 1:
                raise InvalidSpecError(f"axis.levels[{idx}].n_train: must be >= 1")
            if not level.features:
                raise InvalidSpecError(f"axis.levels[{idx}].features: must not be empty")
            if any(j < 0 for j in level.features):
                raise InvalidSpecError(f"axis.levels[{idx}].features: negative index")
            fy, fx = level.fidelity
            if not (0.0 <= fy <= 1.0 and 0.0 <= fx <= 1.0):
                raise InvalidSpecError(f"axis.levels[{idx}].fidelity: factors must lie in [0, 1]")
        for idx in range(len(self.levels) - 1):
            a, b = self.levels[idx], self.levels[idx + 1]
            if b.n_train < a.n_train:
                raise InvalidSpecError(
                    f"axis.levels[{idx + 1}]: n_train decreases; levels must be nested"
                )
            if not set(a.features) <= set(b.features):
                raise InvalidSpecError(
                    f"axis.levels[{idx + 1}]: feature subset shrinks; levels must be nested"
                )
            if b.fidelity[0] > a.fidelity[0] or b.fidelity[1] > a.fidelity[1]:
                raise InvalidSpecError(
                    f"axis.levels[{idx + 1}]: fidelity factors increase; levels must be nested"
                )
        return self


def level_world(world: World, level: AxisLevel) -> World:
    """Derive the world seen at one information level.

    Fidelity scales the whole target-noise and feature-noise draws (means
    and spreads alike), and features outside the level's subset are omitted
    on top of the base omission mask.  Everything else, including the
    master seed, is untouched, so draws stay paired across levels.
    """
    fy, fx = level.fidelity
    d = world.input_dim
    if any(j >= d for j in level.features):
        raise InvalidSpecError(f"axis level {list(level.features)}: feature index >= input_dim {d}")
    tn = world.target_noise
    target = dataclasses.replace(
        tn, mean=tn.mean * fy, variance=tn.variance * fy * fy, step=tn.step * fy
    )
    fn = world.feature_noise
    visible = set(level.features)
    omit = tuple(fn.omit[j] or (j not in visible) for j in range(d))
    if all(omit):
        raise InvalidSpecError(f"axis level {list(level.features)} leaves no observed features")
    feature = FeatureNoiseSpec(
        means=tuple(m * fx for m in fn.means),
        cov=tuple(tuple(v * fx * fx for v in row) for row in fn.cov),
        omit=omit,
        coarsen=tuple(s * fx for s in fn.coarsen),
    )
    return dataclasses.replace(world, target_noise=target, feature_noise=feature)


@dataclass(frozen=True)
class LearningCurvePoint:
    level_index: int
    n_train: int
    n_features: int
    fidelity_y: float
    fidelity_x: float
    mean_mse: float
    ci_half_width: float
    mean_abs_approx: float
    mean_abs_meas_y: float
    mean_abs_meas_x: float
    performance: float


@dataclass
class LearningCurve:
    points: list[LearningCurvePoint]
    replicate_mse: np.ndarray  # levels x replicates
    var_y_test: float

    @property
    def terminal(self) -> LearningCurvePoint:
        return self.points[-1]


def _replicate_scores(w_level, n_train, spec, label, grid, x_obs_test, y_test, eps_test, cp):
    """Held-out mse and mean absolute gains of one replicate's refit.  A
    function of its own, so the replicate's sample and models are freed
    before the level's next replicate draws its own."""
    bundle = worldgen.sample(w_level, n_train, label)
    try:
        regimes = fit_regimes(bundle, spec)
    except FitError as exc:
        raise type(exc)(f"cell {label}: {exc}") from exc
    preds = predict(regimes.oo, x_obs_test)
    mse = float(np.mean((preds - y_test) ** 2))
    table = decompose_rows(
        w_level, regimes, grid[:cp], x_obs_test[:cp], y_test[:cp], eps_test[:cp]
    )
    return (
        mse,
        float(np.mean(np.abs(table.model_approx_gain))),
        float(np.mean(np.abs(table.meas_gain_y))),
        float(np.mean(np.abs(table.meas_gain_x))),
    )


def _curve_cell(args) -> list[tuple[float, float, float, float]]:
    """One level's replicates, scored on the shared test pack.

    The level's observed view of the grid depends only on the level, so it
    is built once here and serves every replicate of the level."""
    world, level, spec, labels, base_label, comp_points, grid, eps_test, y_test = args
    w_level = level_world(world, level)
    x_obs_test = worldgen.observe_features(w_level, grid, f"{base_label}/test")
    cp = min(comp_points, len(grid))
    return [
        _replicate_scores(
            w_level, level.n_train, spec, label, grid, x_obs_test, y_test, eps_test, cp
        )
        for label in labels
    ]


def run_learning_curve(
    world: World,
    spec: ModelSpec,
    axis: InformationAxis,
    replicates: int,
    test_points: int = 10_000,
    comp_points: int = 512,
    base_label: str = "curve",
    workers: int = 1,
) -> LearningCurve:
    """Held-out MSE and mean absolute gain components per axis level.

    Every level and replicate refits in the observable (OO) regime on its
    own substream; the held-out grid and its noise are drawn once per
    world and shared by all levels and replicates, and each level's
    observed view of the grid is built once.
    """
    if replicates < 2:
        raise InvalidSpecError("run_learning_curve needs replicates >= 2")
    n_levels = len(axis.levels)
    test_label = f"{base_label}/test"
    grid = worldgen.draw_inputs(world, test_points, test_label)
    eps_test = worldgen.draw_aleatoric(world, grid, test_label)
    y_test = world.f_star.values(grid) + eps_test
    var_y = float(np.var(y_test, ddof=1))
    if not var_y > 0.0:
        raise InvalidSpecError(f"run_learning_curve: Var(y_test) is zero or not a number ({var_y})")

    labels = [
        [f"{base_label}/L{li}/rep{r:04d}" for r in range(replicates)] for li in range(n_levels)
    ]
    tasks = [
        (world, level, spec, labels[li], base_label, comp_points, grid, eps_test, y_test)
        for li, level in enumerate(axis.levels)
    ]
    values = np.asarray(ordered_map(_curve_cell, tasks, workers=workers), dtype=float)

    points = []
    for li, level in enumerate(axis.levels):
        mse = values[li, :, 0]
        mean_mse = float(mse.mean())
        ci = float(1.96 * mse.std(ddof=1) / np.sqrt(replicates))
        points.append(
            LearningCurvePoint(
                level_index=li,
                n_train=level.n_train,
                n_features=len(level.features),
                fidelity_y=level.fidelity[0],
                fidelity_x=level.fidelity[1],
                mean_mse=mean_mse,
                ci_half_width=ci,
                mean_abs_approx=float(values[li, :, 1].mean()),
                mean_abs_meas_y=float(values[li, :, 2].mean()),
                mean_abs_meas_x=float(values[li, :, 3].mean()),
                performance=1.0 - mean_mse / var_y,
            )
        )
    return LearningCurve(
        points=points,
        replicate_mse=values[:, :, 0].copy(),
        var_y_test=var_y,
    )


def monotone_under_ci(points: Sequence[LearningCurvePoint]) -> bool:
    """Non-increasing means up to the CI-overlap rule: a level violates
    monotonicity only if its mean exceeds the previous mean by more than
    the sum of the two half-widths.  A non-finite mean or half-width is
    never monotone."""
    if not all(math.isfinite(p.mean_mse) and math.isfinite(p.ci_half_width) for p in points):
        return False
    for prev, cur in zip(points, points[1:]):
        if cur.mean_mse > prev.mean_mse + (prev.ci_half_width + cur.ci_half_width):
            return False
    return True


# ---------------------------------------------------------------------------
# panel scenarios


@dataclass(frozen=True)
class PanelScenario:
    """A named variant world: the baseline, a better-constructed target, or
    a better-constructed feature view.  Only the declared override may
    differ from the base world."""

    variant: str
    target_noise: Optional[TargetNoiseSpec] = None
    feature_noise: Optional[FeatureNoiseSpec] = None

    def validate(self) -> "PanelScenario":
        if self.variant not in PANEL_VARIANTS:
            raise InvalidSpecError(f"panel variant: unknown {self.variant!r}")
        if self.variant == "baseline" and (self.target_noise or self.feature_noise):
            raise InvalidSpecError("panel baseline must not carry overrides")
        if self.variant == "reconstructed_target":
            if self.target_noise is None or self.feature_noise is not None:
                raise InvalidSpecError(
                    "reconstructed_target overrides target_noise and nothing else"
                )
        if self.variant == "reconstructed_features":
            if self.feature_noise is None or self.target_noise is not None:
                raise InvalidSpecError(
                    "reconstructed_features overrides feature_noise and nothing else"
                )
        return self

    def apply(self, world: World) -> World:
        if self.variant == "reconstructed_target":
            return dataclasses.replace(world, target_noise=self.target_noise.validate())
        if self.variant == "reconstructed_features":
            self.feature_noise.validate(world.input_dim)
            return dataclasses.replace(world, feature_noise=self.feature_noise)
        return world


@dataclass(frozen=True)
class TerminalComparison:
    variant: str
    terminal_mean_mse: float
    terminal_ci_half_width: float
    mean_diff_vs_baseline: float
    se_diff: float
    strictly_below_baseline: bool


@dataclass
class PanelResult:
    curves: list[LearningCurve]
    comparisons: list[TerminalComparison]


def run_panel_scenarios(
    world: World,
    scenarios: Sequence[PanelScenario],
    axis: InformationAxis,
    spec: ModelSpec,
    replicates: int,
    test_points: int = 10_000,
    comp_points: int = 512,
    base_label: str = "panels",
    workers: int = 1,
) -> PanelResult:
    """Aligned variant curves with a paired terminal comparison.

    All variants share the axis and every substream label, so per-replicate
    differences isolate the declared override; in particular a duplicated
    baseline reproduces the baseline curve bit for bit.
    """
    scenario_list = [s.validate() for s in scenarios]
    if not any(s.variant == "baseline" for s in scenario_list):
        raise InvalidSpecError("panel scenarios need at least one baseline")
    curves = [
        run_learning_curve(
            s.apply(world),
            spec,
            axis,
            replicates,
            test_points=test_points,
            comp_points=comp_points,
            base_label=base_label,
            workers=workers,
        )
        for s in scenario_list
    ]
    base_idx = next(i for i, s in enumerate(scenario_list) if s.variant == "baseline")
    base_terminal = curves[base_idx].replicate_mse[-1]
    comparisons = []
    for s, curve in zip(scenario_list, curves):
        diff = base_terminal - curve.replicate_mse[-1]
        mean_diff = float(diff.mean())
        se_diff = float(diff.std(ddof=1) / np.sqrt(replicates))
        strictly_below = mean_diff > 1.96 * se_diff and (
            curve.terminal.mean_mse < curves[base_idx].terminal.mean_mse
        )
        comparisons.append(
            TerminalComparison(
                variant=s.variant,
                terminal_mean_mse=curve.terminal.mean_mse,
                terminal_ci_half_width=curve.terminal.ci_half_width,
                mean_diff_vs_baseline=mean_diff,
                se_diff=se_diff,
                strictly_below_baseline=strictly_below,
            )
        )
    return PanelResult(curves=curves, comparisons=comparisons)


# ---------------------------------------------------------------------------
# two-regime gallery


@dataclass
class GalleryScenarioResult:
    name: str
    curve: LearningCurve
    ceiling: CeilingEstimate
    attainment_level: Optional[int]


@dataclass
class GalleryResult:
    low_noise: GalleryScenarioResult
    high_noise: GalleryScenarioResult


def _attainment_level(curve: LearningCurve, ceiling_mse: float) -> Optional[int]:
    for point in curve.points:
        if point.mean_mse <= (1.0 + _ATTAINMENT_SLACK) * ceiling_mse:
            return point.level_index
    return None


def regime_gallery(
    low_world: World,
    low_spec: ModelSpec,
    high_world: World,
    high_spec: ModelSpec,
    axis: InformationAxis,
    replicates: int,
    test_points: int = 10_000,
    ceiling_n: int = 100_000,
    base_label: str = "gallery",
    workers: int = 1,
) -> GalleryResult:
    """Contrast a low-noise fast-attaining world with a high-noise slow one.

    Emits both decomposed curves, their estimated ceilings, and the first
    axis level at which each curve comes within 10% of its ceiling MSE.
    """
    results = []
    for name, world, spec in (
        ("low_noise", low_world, low_spec),
        ("high_noise", high_world, high_spec),
    ):
        curve = run_learning_curve(
            world,
            spec,
            axis,
            replicates,
            test_points=test_points,
            base_label=f"{base_label}/{name}",
            workers=workers,
        )
        ceiling = estimate_ceiling(world, ceiling_n, base_label=f"{base_label}/{name}/ceiling")
        results.append(
            GalleryScenarioResult(
                name=name,
                curve=curve,
                ceiling=ceiling,
                attainment_level=_attainment_level(curve, ceiling.ceiling_mse),
            )
        )
    return GalleryResult(low_noise=results[0], high_noise=results[1])
