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
from .errors import InvalidSpecError
from .models import ModelSpec, fit_regimes, predict
from .parallel import ordered_map
from .worldgen import FeatureNoiseSpec, TargetNoiseSpec, World, at_least, coerce_fields, naming

# Each panel variant and the world section it overrides (None: none).
_PANEL_OVERRIDES = {
    "baseline": None,
    "reconstructed_target": "target_noise",
    "reconstructed_features": "feature_noise",
}
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

    def check_world(self, world: World) -> None:
        """Raise unless ``world`` can be seen at every level (``level_omit``)."""
        for level in self.levels:
            level_omit(world, level)


def level_omit(world: World, level: AxisLevel) -> tuple[bool, ...]:
    """The omission mask seen at ``level``: the world's own, plus every
    feature outside the level's subset.  Raises when the subset names a
    feature the world does not have or the mask leaves none observed."""
    d = world.input_dim
    if any(j >= d for j in level.features):
        raise InvalidSpecError(f"axis level {list(level.features)}: feature index >= input_dim {d}")
    visible = set(level.features)
    omit = tuple(world.feature_noise.omit[j] or (j not in visible) for j in range(d))
    if all(omit):
        raise InvalidSpecError(f"axis level {list(level.features)} leaves no observed features")
    return omit


def level_world(world: World, level: AxisLevel) -> World:
    """Derive the world seen at one information level.

    Fidelity scales the whole target-noise and feature-noise draws (means
    and spreads alike), and features outside the level's subset are omitted
    on top of the base omission mask.  Everything else, including the
    master seed, is untouched, so draws stay paired across levels.
    """
    fy, fx = level.fidelity
    tn = world.target_noise
    if tn.distribution == "quantization" and tn.step * fy == 0.0:
        # Fidelity 0, or a step that underflows to 0: the channel is off.
        target = TargetNoiseSpec()
    else:
        target = dataclasses.replace(
            tn, mean=tn.mean * fy, variance=tn.variance * fy * fy, step=tn.step * fy
        )
    fn = world.feature_noise
    feature = FeatureNoiseSpec(
        means=tuple(m * fx for m in fn.means),
        cov=tuple(tuple(v * fx * fx for v in row) for row in fn.cov),
        omit=level_omit(world, level),
        coarsen=tuple(s * fx for s in fn.coarsen),
    )
    return dataclasses.replace(world, target_noise=target, feature_noise=feature)


@dataclass(frozen=True)
class LearningCurvePoint:
    """One level's scores; ``n_features`` counts the features its fits
    observe, after the world's own omissions."""

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


@dataclass(frozen=True)
class CurveConfig:
    """A learning curve's axis, replicates per level, and held-out points
    (all scored for mse, the first ``comp_points`` decomposed)."""

    axis: InformationAxis
    replicates: int = 30
    test_points: int = 10_000
    comp_points: int = 512

    def __post_init__(self) -> None:
        # A variance needs two replicates and two test points.
        at_least(self, "curve", replicates=2, test_points=2, comp_points=1)


@dataclass
class LearningCurve:
    points: list[LearningCurvePoint]
    replicate_mse: np.ndarray  # levels x replicates
    var_y_test: float
    ceiling: CeilingEstimate  # the noise floor of the held-out pack's rows

    @property
    def terminal(self) -> LearningCurvePoint:
        return self.points[-1]


def _replicate_scores(w_level, n_train, spec, label, pack, x_obs_test, comp_points):
    """Held-out mse and mean absolute gains of one replicate's refit.  A
    function of its own, so the replicate's sample and models are freed
    before the level's next replicate draws its own."""
    regimes = fit_regimes(worldgen.sample(w_level, n_train, label), spec)
    preds = predict(regimes["OO"], x_obs_test)
    mse = float(np.mean((preds - pack.y_true) ** 2))
    with naming(f"sample {label}"):
        table = decompose_rows(regimes, pack.head(comp_points), x_obs_test[:comp_points])
    return (mse, *table.mean_abs_gains().values())


def _curve_cell(args) -> list[tuple[float, float, float, float]]:
    """One level's replicates, scored on the shared test pack.

    The level's observed view of the grid depends only on the level, so it
    is built once here and serves every replicate of the level."""
    world, level, spec, labels, comp_points, pack = args
    w_level = level_world(world, level)
    x_obs_test = pack.observed(w_level)
    return [
        _replicate_scores(w_level, level.n_train, spec, label, pack, x_obs_test, comp_points)
        for label in labels
    ]


def run_learning_curve(
    world: World,
    spec: ModelSpec,
    curve: CurveConfig,
    base_label: str = "curve",
) -> LearningCurve:
    """Held-out MSE and mean absolute gain components per level of
    ``curve.axis``.

    Every level and replicate refits in the observable (OO) regime on its
    own substream; the held-out grid and its noise are drawn once per
    world and shared by all levels and replicates, and each level's
    observed view of the grid is built once, as is the pack's noise floor.
    """
    axis, replicates = curve.axis, curve.replicates
    n_levels = len(axis.levels)
    test_label = f"{base_label}/test"
    grid = worldgen.draw_inputs(world, curve.test_points, test_label)
    pack = worldgen.held_out(world, grid, test_label)
    var_y = float(np.var(pack.y_true, ddof=1))
    if not var_y > 0.0:
        raise InvalidSpecError(f"run_learning_curve: Var(y_test) is zero or not a number ({var_y})")
    ceiling = estimate_ceiling(pack.epsilon, pack.y_true)

    labels = [
        [f"{base_label}/L{li}/rep{r:04d}" for r in range(replicates)] for li in range(n_levels)
    ]
    tasks = [
        (world, level, spec, labels[li], curve.comp_points, pack)
        for li, level in enumerate(axis.levels)
    ]
    values = np.asarray(ordered_map(_curve_cell, tasks), dtype=float)

    points = []
    for li, level in enumerate(axis.levels):
        mse = values[li, :, 0]
        mean_mse = float(mse.mean())
        ci = float(1.96 * mse.std(ddof=1) / np.sqrt(replicates))
        points.append(
            LearningCurvePoint(
                level_index=li,
                n_train=level.n_train,
                n_features=level_omit(world, level).count(False),
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
        ceiling=ceiling,
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

    def __post_init__(self) -> None:
        if self.variant not in _PANEL_OVERRIDES:
            raise InvalidSpecError(f"panel variant: unknown {self.variant!r}")
        section = _PANEL_OVERRIDES[self.variant]
        given = {s for s in _PANEL_OVERRIDES.values() if s and getattr(self, s) is not None}
        if section is None and given:
            raise InvalidSpecError("panel baseline must not carry overrides")
        if section is not None and given != {section}:
            raise InvalidSpecError(f"{self.variant} overrides {section} and nothing else")

    def apply(self, world: World) -> World:
        section = _PANEL_OVERRIDES[self.variant]
        if section is None:
            return world
        return dataclasses.replace(world, **{section: getattr(self, section)})


@dataclass(frozen=True)
class PanelsConfig:
    """The panel variants, one of them the baseline the rest are compared with."""

    variants: tuple[PanelScenario, ...]

    def __post_init__(self) -> None:
        if not any(s.variant == "baseline" for s in self.variants):
            raise InvalidSpecError("panels.variants: needs a baseline variant")


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
    panels: PanelsConfig,
    spec: ModelSpec,
    curve: CurveConfig,
    base_label: str = "panels",
) -> PanelResult:
    """Aligned variant curves with a paired terminal comparison.

    All variants share the curve and every substream label, so
    per-replicate differences isolate the declared override; in particular
    a duplicated baseline reproduces the baseline curve bit for bit.
    """
    scenarios = panels.variants
    curves = []
    for i, s in enumerate(scenarios):
        with naming(f"panels.variants[{i}] ({s.variant})"):
            curves.append(run_learning_curve(s.apply(world), spec, curve, base_label))
    base_idx = next(i for i, s in enumerate(scenarios) if s.variant == "baseline")
    base_terminal = curves[base_idx].replicate_mse[-1]
    comparisons = []
    for s, result in zip(scenarios, curves):
        diff = base_terminal - result.replicate_mse[-1]
        mean_diff = float(diff.mean())
        se_diff = float(diff.std(ddof=1) / np.sqrt(curve.replicates))
        strictly_below = mean_diff > 1.96 * se_diff and (
            result.terminal.mean_mse < curves[base_idx].terminal.mean_mse
        )
        comparisons.append(
            TerminalComparison(
                variant=s.variant,
                terminal_mean_mse=result.terminal.mean_mse,
                terminal_ci_half_width=result.terminal.ci_half_width,
                mean_diff_vs_baseline=mean_diff,
                se_diff=se_diff,
                strictly_below_baseline=strictly_below,
            )
        )
    return PanelResult(curves=curves, comparisons=comparisons)


# ---------------------------------------------------------------------------
# two-regime gallery


@dataclass(frozen=True)
class GallerySide:
    world: World
    model: ModelSpec


@dataclass(frozen=True)
class GalleryConfig:
    """Two sides run along one axis, each with its own held-out pack."""

    low: GallerySide
    high: GallerySide
    axis: InformationAxis
    replicates: int = 20
    test_points: int = 10_000

    def __post_init__(self) -> None:
        with naming("gallery.axis"):
            self.axis.check_world(self.low.world)
            self.axis.check_world(self.high.world)
        at_least(self, "gallery", replicates=2, test_points=2)


@dataclass
class GalleryScenarioResult:
    name: str
    curve: LearningCurve
    attainment_level: Optional[int]


def _attainment_level(curve: LearningCurve) -> Optional[int]:
    for point in curve.points:
        if point.mean_mse <= (1.0 + _ATTAINMENT_SLACK) * curve.ceiling.ceiling_mse:
            return point.level_index
    return None


def regime_gallery(
    gallery: GalleryConfig, base_label: str = "gallery"
) -> list[GalleryScenarioResult]:
    """Contrast a low-noise fast-attaining world with a high-noise slow one.

    Emits both decomposed curves and the first axis level at which each
    comes within 10% of the ceiling MSE of its own held-out pack: the
    ``low_noise`` side first, then ``high_noise``, each naming its errors.
    """
    config = CurveConfig(gallery.axis, gallery.replicates, gallery.test_points)
    results = []
    for name, key in (("low_noise", "low"), ("high_noise", "high")):
        side = getattr(gallery, key)
        with naming(f"gallery.{key}"):
            curve = run_learning_curve(side.world, side.model, config, f"{base_label}/{name}")
        results.append(GalleryScenarioResult(name, curve, _attainment_level(curve)))
    return results
