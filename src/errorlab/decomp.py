"""Decomposition of prediction error into epistemic and aleatoric parts.

The pointwise decomposition expresses the true outcome as a chain of
pairwise model-output differences (model-approximation gain, measurement
gain from the target, measurement gain from the features) plus the current
prediction and the inherent noise; the chain collapses algebraically, so
the component sum must reproduce the true outcome to rounding error.  The
error decomposition is the same chain read from the prediction side, and
its components are exact negations of the corresponding gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import worldgen
from .errors import EmptySelectionError, InvalidSpecError, InvariantError
from .models import REGIMES, FittedModel, ModelSpec, fit_regimes, predict
from .parallel import ordered_map
from .worldgen import HeldOut, SampleBundle, World, at_least

REL_TOL = 1e-9
ABS_TOL = 1e-9

# The table's gain columns (pointwise side) and error columns (error side),
# in chain order; every summary over a column group reads these.
GAIN_COLUMNS = ("model_approx_gain", "meas_gain_y", "meas_gain_x")
ERROR_COLUMNS = ("err_x", "err_y", "delta_f", "aleatoric_term")


@dataclass
class DecompositionTable:
    """The pointwise and error decompositions of many rows, one array per
    component; a single row is a one-row table.

    ``aleatoric_term`` stores f_star(x_true) - y_true, i.e. the negated
    noise draw; that sign is forced by the chain collapsing exactly.
    """

    model_approx_gain: np.ndarray
    meas_gain_y: np.ndarray
    meas_gain_x: np.ndarray
    current_prediction: np.ndarray
    aleatoric: np.ndarray
    err_x: np.ndarray
    err_y: np.ndarray
    delta_f: np.ndarray
    aleatoric_term: np.ndarray
    y_true: np.ndarray
    y_pred: np.ndarray

    @property
    def n(self) -> int:
        return self.y_true.shape[0]

    def pointwise_sum(self) -> np.ndarray:
        return (
            self.model_approx_gain
            + self.meas_gain_y
            + self.meas_gain_x
            + self.current_prediction
            + self.aleatoric
        )

    def error_sum(self) -> np.ndarray:
        return self.err_x + self.err_y + self.delta_f + self.aleatoric_term

    def mean_abs_gains(self) -> dict[str, float]:
        """Mean absolute value of each gain column, in ``GAIN_COLUMNS`` order."""
        return {name: float(np.mean(np.abs(getattr(self, name)))) for name in GAIN_COLUMNS}


def decompose_rows(
    regimes: dict[str, FittedModel], pack: HeldOut, x_observed: np.ndarray
) -> DecompositionTable:
    """The decomposition of the pack's rows under the fitted regimes; every
    table passes :func:`check_telescoping` before it is returned."""
    pred_tt = predict(regimes["TT"], pack.x_true)
    pred_to = predict(regimes["TO"], pack.x_true)
    pred_oo = predict(regimes["OO"], x_observed)
    table = DecompositionTable(
        model_approx_gain=pack.f_star - pred_tt,
        meas_gain_y=pred_tt - pred_to,
        meas_gain_x=pred_to - pred_oo,
        current_prediction=pred_oo,
        aleatoric=pack.epsilon,
        err_x=pred_oo - pred_to,
        err_y=pred_to - pred_tt,
        delta_f=pred_tt - pack.f_star,
        aleatoric_term=pack.f_star - pack.y_true,
        y_true=pack.y_true,
        y_pred=pred_oo,
    )
    check_telescoping(table)
    return table


def decompose_bundle(
    world: World, regimes: dict[str, FittedModel], bundle: SampleBundle
) -> DecompositionTable:
    """Decompose the bundle's own rows, in-sample when ``bundle`` is the
    sample the regimes were fitted on: f* at its ``x_true``, its own noise,
    ``y_true`` and ``x_observed``, nothing redrawn.  Public API (README's
    quick start); ``decompose_rows`` scores a held-out pack."""
    f_star = world.f_star.values(bundle.x_true)
    pack = HeldOut(bundle.x_true, f_star, bundle.epsilon, bundle.y_true, bundle.label)
    return decompose_rows(regimes, pack, bundle.x_observed)


def check_telescoping(table: DecompositionTable) -> None:
    """Raise :class:`InvariantError` unless both component sums collapse to
    within ``ABS_TOL + REL_TOL * |target|``.

    A non-finite term makes its sum non-finite, and every comparison with
    NaN is False, so finiteness is checked first.
    """
    point_sum = table.pointwise_sum()
    error_sum = table.error_sum()
    finite = (
        np.isfinite(point_sum)
        & np.isfinite(error_sum)
        & np.isfinite(table.y_true)
        & np.isfinite(table.y_pred)
    )
    if not np.all(finite):
        worst = int(np.argmin(finite))
        raise InvariantError(f"decomposition holds a non-finite term or sum at row {worst}")
    for what, total, target in (
        ("pointwise component sum misses y_true", point_sum, table.y_true),
        ("error component sum misses y_pred - y_true", error_sum, table.y_pred - table.y_true),
    ):
        err = np.abs(total - target)
        bound = ABS_TOL + REL_TOL * np.abs(target)
        if np.any(err > bound):
            worst = int(np.argmax(err - bound))
            raise InvariantError(f"{what} by {err[worst]:.3e} at row {worst}")


# ---------------------------------------------------------------------------
# bias-variance Monte Carlo


@dataclass(frozen=True)
class BiasVarConfig:
    regime: str = "TT"
    n_train: int = 200
    replicates: int = 200
    test_points: int = 256
    components_replicates: int = 0

    def __post_init__(self) -> None:
        at_least(self, "biasvar", n_train=1, replicates=2, test_points=1, components_replicates=0)
        if self.regime not in REGIMES:
            raise InvalidSpecError(f"biasvar.regime: unknown regime {self.regime!r}")
        if self.components_replicates == 1:
            raise InvalidSpecError("biasvar.components_replicates: must be 0 (off) or >= 2, got 1")


@dataclass
class BiasVarianceReport:
    """Aggregate squared-error decomposition over refitted replicates.

    ``bias`` is the signed mean prediction error over all replicates and
    test points; ``variance`` is the variance of the epistemic part of the
    error over the same samples, so that
    ``empirical_mse = bias**2 + variance + aleatoric_variance + identity_gap``
    holds by construction and the gap is statistically zero.
    ``variance_within`` (per-point variance across replicates, grid-averaged)
    and ``bias_dispersion`` (grid variance of per-point mean error) split
    ``variance`` into its within-point and across-grid parts.
    """

    empirical_mse: float
    bias: float
    variance: float
    aleatoric_variance: float
    identity_gap: float
    replicates: int
    se_mse: float
    se_bias: float
    se_variance: float
    se_identity_gap: float
    variance_within: float
    bias_dispersion: float
    replicate_mse: np.ndarray

    @property
    def identity_z(self) -> float:
        return _z(self.identity_gap, self.se_identity_gap)

    @property
    def bias_z(self) -> float:
        return _z(self.bias, self.se_bias)


def _z(value: float, se: float) -> float:
    """``value / se``; a zero SE reads 0 for a zero value and inf otherwise."""
    if se == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return value / se


def _biasvar_cell(args) -> tuple[np.ndarray, np.ndarray]:
    """One replicate: refit, predict the fixed grid, return error rows."""
    world, spec, regime, n_train, grid, label = args
    pack = worldgen.held_out(world, grid, f"{label}/test")
    if regime == "ORACLE":
        preds = pack.f_star
    else:
        model = fit_regimes(worldgen.sample(world, n_train, label), spec, (regime,))[regime]
        preds = predict(model, pack.observed(world) if regime == "OO" else grid)
    return preds - pack.y_true, preds - pack.f_star


def _jackknife(rep_sums: np.ndarray, rep_count: int, aleatoric: float):
    """[mse, bias, variance, gap] pooled over every replicate, and their
    leave-one-replicate-out standard errors.

    ``rep_sums`` holds one row of [sum error, sum error^2, sum epistemic,
    sum epistemic^2] per replicate over its ``rep_count`` points.  Row 0 of
    the stacked sums pools all replicates and row r + 1 leaves replicate r
    out, so one pass computes the statistics of both.
    """
    n_reps = rep_sums.shape[0]
    totals = rep_sums.sum(axis=0)
    sums = np.vstack([totals, totals - rep_sums])
    counts = rep_count * np.array([n_reps] + [n_reps - 1] * n_reps, dtype=float)
    mse = sums[:, 1] / counts
    bias = sums[:, 0] / counts
    variance = sums[:, 3] / counts - (sums[:, 2] / counts) ** 2
    stats = np.stack([mse, bias, variance, mse - bias**2 - variance - aleatoric], axis=1)
    loo = stats[1:]
    se = np.sqrt((n_reps - 1) / n_reps * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
    return stats[0], se


def _grid_for(world: World, test_grid) -> np.ndarray:
    """``test_grid`` as a float array, refused unless it is m x input_dim."""
    grid = np.asarray(test_grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != world.input_dim:
        raise InvalidSpecError(f"test_grid must be m x {world.input_dim}, got shape {grid.shape}")
    return grid


def bias_variance_monte_carlo(
    world: World,
    spec: ModelSpec,
    cfg: BiasVarConfig,
    test_grid: np.ndarray,
    base_label: str = "biasvar",
) -> BiasVarianceReport:
    """Refit on independent training draws and decompose the squared error.

    Each replicate draws its own training sample and fresh test noise from
    labeled substreams; the fixed ``test_grid`` of true-input points is
    shared by all replicates.  The aleatoric variance comes from the
    world's noise spec (oracle access), averaged over the grid when the
    noise is heteroskedastic.
    """
    grid = _grid_for(world, test_grid)
    m = grid.shape[0]
    labels = [f"{base_label}/rep{r:05d}" for r in range(cfg.replicates)]
    tasks = [(world, spec, cfg.regime, cfg.n_train, grid, label) for label in labels]
    error, epistemic = (np.stack(parts) for parts in zip(*ordered_map(_biasvar_cell, tasks)))
    ep_sq = epistemic**2
    rep_sums = np.stack([part.sum(axis=1) for part in (error, error**2, epistemic, ep_sq)], axis=1)
    aleatoric = world.aleatoric.variance_on(grid)
    (mse, bias, variance, gap), (se_mse, se_bias, se_var, se_gap) = _jackknife(
        rep_sums, m, aleatoric
    )
    # cumsum adds the replicates in order; sum(axis=0) goes pairwise on a one-point grid.
    point_mean = np.cumsum(epistemic, axis=0)[-1] / cfg.replicates
    point_var = np.cumsum(ep_sq, axis=0)[-1] / cfg.replicates - point_mean**2
    return BiasVarianceReport(
        empirical_mse=float(mse),
        bias=float(bias),
        variance=float(variance),
        aleatoric_variance=float(aleatoric),
        identity_gap=float(gap),
        replicates=cfg.replicates,
        se_mse=float(se_mse),
        se_bias=float(se_bias),
        se_variance=float(se_var),
        se_identity_gap=float(se_gap),
        variance_within=float(np.mean(point_var)),
        bias_dispersion=float(np.var(point_mean)),
        replicate_mse=rep_sums[:, 1] / m,
    )


@dataclass
class ComponentCovarianceReport:
    """Empirical moments of the error components across refit replicates.

    Covariances among the epistemic components (and with the noise term)
    are measured, not assumed zero.
    """

    component_names: tuple[str, ...]
    means: np.ndarray
    covariance: np.ndarray
    replicates: int


def _component_cell(args) -> np.ndarray:
    world, spec, n_train, grid, label = args
    regimes = fit_regimes(worldgen.sample(world, n_train, label), spec)
    pack = worldgen.held_out(world, grid, f"{label}/test")
    with worldgen.naming(f"sample {label}"):
        table = decompose_rows(regimes, pack, pack.observed(world))
    return np.array([getattr(table, name).mean() for name in ERROR_COLUMNS])


def component_covariances(
    world: World,
    spec: ModelSpec,
    cfg: BiasVarConfig,
    test_grid: np.ndarray,
    base_label: str = "components",
) -> ComponentCovarianceReport:
    """The error components' moments over ``cfg.components_replicates`` refits."""
    if cfg.components_replicates == 0:
        raise InvalidSpecError("biasvar.components_replicates: is 0 (off); the study needs >= 2")
    grid = _grid_for(world, test_grid)
    labels = [f"{base_label}/rep{r:05d}" for r in range(cfg.components_replicates)]
    tasks = [(world, spec, cfg.n_train, grid, label) for label in labels]
    samples = np.stack(ordered_map(_component_cell, tasks))
    return ComponentCovarianceReport(
        component_names=ERROR_COLUMNS,
        means=samples.mean(axis=0),
        covariance=np.cov(samples, rowvar=False, ddof=1),
        replicates=cfg.components_replicates,
    )


# ---------------------------------------------------------------------------
# ceiling and representativeness


@dataclass(frozen=True)
class ProbeConfig:
    n: int = 20000

    def __post_init__(self) -> None:
        at_least(self, "probe", n=4)  # the probe's variances need four rows


@dataclass(frozen=True)
class CeilingEstimate:
    """Best attainable performance once every epistemic channel is clean."""

    ceiling_mse: float
    ceiling_r2: float
    se_ceiling_r2: float


def _var_se_sq(values: np.ndarray) -> float:
    n = values.shape[0]
    dev_sq = (values - values.mean()) ** 2
    m4 = float(np.mean(dev_sq**2))
    s2 = float(np.var(values, ddof=1))
    return max(m4 - s2**2, 0.0) / n


def estimate_ceiling(epsilon: np.ndarray, y_true: np.ndarray) -> CeilingEstimate:
    """The noise floor and the matching R^2 ceiling of rows a study already
    drew; nothing is drawn.  The ceiling concerns the true outcome, so no
    corruption or selection applies."""
    n = epsilon.shape[0]
    if n < 2:
        raise InvalidSpecError("estimate_ceiling needs n >= 2")
    sigma_sq = float(np.var(epsilon, ddof=1))
    var_y = float(np.var(y_true, ddof=1))
    if not var_y > 0.0:
        raise InvalidSpecError(f"estimate_ceiling: Var(y_true) is zero or not a number ({var_y})")
    eps_dev_sq = (epsilon - epsilon.mean()) ** 2
    y_dev_sq = (y_true - y_true.mean()) ** 2
    # Delta method for r2 = 1 - sigma_sq / var_y via per-row influences.
    influence = -eps_dev_sq / var_y + sigma_sq * y_dev_sq / var_y**2
    se_r2 = float(np.std(influence, ddof=1) / math.sqrt(n))
    return CeilingEstimate(
        ceiling_mse=sigma_sq, ceiling_r2=1.0 - sigma_sq / var_y, se_ceiling_r2=se_r2
    )


@dataclass(frozen=True)
class RepresentativenessReport:
    """Noise moments on the selected subsample vs. the full draw.

    Divergence z-scores compare the selected rows against their disjoint
    complement; both are zero when selection keeps everything.  The R^2
    ceiling is read off all ``n`` rows, as no selection applies to it.
    """

    eps_mean_full: float
    eps_mean_selected: float
    eps_var_full: float
    eps_var_selected: float
    z_mean: float
    z_var: float
    coverage: float
    n: int
    n_selected: int
    ceiling_r2: float


def representativeness_probe(
    world: World, cfg: ProbeConfig, base_label: str = "probe"
) -> RepresentativenessReport:
    """Measure how biased selection distorts the observable noise moments."""
    if world.selection.rule == "none":
        raise InvalidSpecError("representativeness_probe needs a world with a selection rule")
    bundle = worldgen.sample(world, cfg.n, base_label)
    eps = bundle.epsilon
    sel = eps[bundle.selected]
    if sel.shape[0] < 2:
        raise EmptySelectionError(
            f"selection kept {sel.shape[0]} of {cfg.n} rows; the probe's variances need 2"
        )
    rest = eps[~bundle.selected]
    if rest.shape[0] < 2:
        z_mean = 0.0
        z_var = 0.0
    else:
        se_mean = math.sqrt(np.var(sel, ddof=1) / sel.shape[0] + np.var(rest, ddof=1) / rest.shape[0])
        z_mean = float((sel.mean() - rest.mean()) / se_mean) if se_mean > 0 else 0.0
        se_var = math.sqrt(_var_se_sq(sel) + _var_se_sq(rest))
        z_var = (
            float((np.var(sel, ddof=1) - np.var(rest, ddof=1)) / se_var) if se_var > 0 else 0.0
        )
    return RepresentativenessReport(
        eps_mean_full=float(eps.mean()),
        eps_mean_selected=float(sel.mean()),
        eps_var_full=float(np.var(eps, ddof=1)),
        eps_var_selected=float(np.var(sel, ddof=1)),
        z_mean=z_mean,
        z_var=z_var,
        coverage=bundle.coverage,
        n=cfg.n,
        n_selected=int(sel.shape[0]),
        ceiling_r2=estimate_ceiling(eps, bundle.y_true).ceiling_r2,
    )
