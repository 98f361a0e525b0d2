"""Synthetic prediction worlds with fully known ground truth.

A :class:`World` bundles a deterministic true function, an input
distribution, inherent outcome noise, and three corruption channels:
measurement error on the target, measurement/construction error on the
features (additive noise, omission, coarsening), and biased selection.
Sampling is pure: identical ``(world, n, substream_label)`` triples produce
bit-identical bundles.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, partial, wraps
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    EmptySelectionError,
    ErrorLabError,
    InvalidSpecError,
    InvariantError,
)
from .seeding import rng_for

_PSD_TOL = 1e-10

FUNCTION_FAMILIES = ("linear", "polynomial", "friedman", "step")
ALEATORIC_DISTRIBUTIONS = ("gaussian", "student_t", "mixture")
TARGET_DISTRIBUTIONS = ("gaussian", "uniform", "quantization")
SELECTION_RULES = ("none", "threshold", "probabilistic")
SCORE_TAGS = ("epsilon", "y_true", "first_feature")
X_KINDS = ("gaussian", "uniform", "correlated")

# Variance-multiplier links for heteroskedastic outcome noise.  Each maps an
# n x d input matrix to a strictly positive multiplier per row.
HET_LINKS = {
    "one_plus_mean_sq": lambda x: 1.0 + np.mean(np.square(x), axis=1),
}


def psd_factor(cov: np.ndarray, name: str = "cov") -> np.ndarray:
    """Factor L with cov = L @ L.T, rejecting asymmetric or non-PSD input.
    The caller has checked that ``cov`` is square (``_check_square``)."""
    cov = np.asarray(cov, dtype=float)
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
        raise InvalidSpecError(f"{name}: matrix is not symmetric")
    eigvals, eigvecs = np.linalg.eigh(cov)
    floor = -_PSD_TOL * max(1.0, float(eigvals[-1]))
    if float(eigvals[0]) < floor:
        raise InvalidSpecError(
            f"{name}: not positive semidefinite (min eigenvalue {float(eigvals[0]):.3e})"
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _check_square(cov, dim: int, name: str) -> None:
    """Raise unless the nested tuple ``cov`` is ``dim`` rows of ``dim``."""
    if len(cov) != dim or any(len(row) != dim for row in cov):
        raise InvalidSpecError(f"{name}: expected a {dim} x {dim} matrix, got {cov!r}")


def _refuse_non_finite(what: str, reason: str):
    """Decorate a function that returns an array: it runs with numpy's
    overflow and invalid-value warnings off, and an infinity or NaN in its
    result raises :class:`InvalidSpecError` reading ``<what> is <value> at
    row <row>; <reason>``, ``what`` naming the world section whose numbers
    overflow float64 on the drawn rows."""

    def decorate(fn):
        @wraps(fn)
        def checked(*args):
            with np.errstate(over="ignore", invalid="ignore"):
                out = fn(*args)
            finite = np.isfinite(out)
            if not finite.all():
                first = int(np.argmin(finite))
                row = int(np.unravel_index(first, out.shape)[0])
                raise InvalidSpecError(
                    f"{what} is {float(out.flat[first])} at row {row}; {reason}"
                )
            return out

        return checked

    return decorate


@dataclass(frozen=True)
class TrueFunctionSpec:
    """Deterministic ground-truth function with fixed coefficients.

    Families:

    * ``linear``: ``c . x`` with ``len(c) == input_dim``.
    * ``polynomial``: additive polynomial ``c0 + sum_j sum_k c[1 + k*d + j] * x_j**(k+1)``;
      coefficient count is ``1 + degree * input_dim``.
    * ``friedman``: ``c0*sin(pi*x0*x1) + c1*(x2 - 0.5)**2 + c2*x3 + c3*x4``;
      exactly 4 coefficients, requires ``input_dim >= 5``; extra inputs are inert.
    * ``step``: piecewise-constant in the first input; coefficients are
      ``(t_1..t_K, v_0..v_K)`` with strictly increasing thresholds.  At a
      threshold the right-continuous branch applies.

    ``interactions`` adds ``sum w * x_i * x_j`` on top of any family.
    """

    family: str = dataclasses.field(default="linear", kw_only=True)
    coefficients: tuple[float, ...]
    input_dim: int
    interactions: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        coerce_fields(self, coefficients=(float,), interactions=((int, int, float),))
        if self.family not in FUNCTION_FAMILIES:
            raise InvalidSpecError(f"f_star.family: unknown family {self.family!r}")
        d = self.input_dim
        if d < 1:
            raise InvalidSpecError("f_star.input_dim: must be a positive integer")
        n_coef = len(self.coefficients)
        if self.family == "linear" and n_coef != d:
            raise InvalidSpecError(
                f"f_star.coefficients: linear family needs {d} coefficients, got {n_coef}"
            )
        if self.family == "polynomial":
            if n_coef < 1 + d or (n_coef - 1) % d != 0:
                raise InvalidSpecError(
                    "f_star.coefficients: polynomial family needs 1 + degree*input_dim "
                    f"coefficients, got {n_coef} for input_dim {d}"
                )
        if self.family == "friedman":
            if n_coef != 4:
                raise InvalidSpecError(
                    f"f_star.coefficients: friedman family needs 4 coefficients, got {n_coef}"
                )
            if d < 5:
                raise InvalidSpecError("f_star.input_dim: friedman family needs input_dim >= 5")
        if self.family == "step":
            if n_coef < 3 or n_coef % 2 == 0:
                raise InvalidSpecError(
                    "f_star.coefficients: step family needs an odd count >= 3 "
                    "(K thresholds then K+1 values)"
                )
            k = n_coef // 2
            thresholds = self.coefficients[:k]
            if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
                raise InvalidSpecError("f_star.coefficients: step thresholds must strictly increase")
        for i, j, _ in self.interactions:
            if not (0 <= i < d and 0 <= j < d):
                raise InvalidSpecError("f_star.interactions: index out of range")

    def values(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at an n x input_dim matrix; deterministic.  Raises
        ``InvalidSpecError`` naming ``f_star`` when a value is not finite
        (coefficients that overflow float64 on the drawn inputs)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"expected points with {self.input_dim} columns, got shape {x.shape}"
            )
        return self._evaluate(x)

    @_refuse_non_finite("f_star: f*(x)", "the coefficients overflow float64 on the drawn inputs")
    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        c = np.asarray(self.coefficients)
        # Columnwise accumulation keeps each row's value identical whether it
        # is evaluated alone or inside a batch (a matmul would not).
        if self.family == "linear":
            out = np.zeros(x.shape[0])
            for j in range(self.input_dim):
                out += c[j] * x[:, j]
        elif self.family == "polynomial":
            d = self.input_dim
            degree = (len(c) - 1) // d
            out = np.full(x.shape[0], c[0])
            for k in range(degree):
                for j in range(d):
                    out += c[1 + k * d + j] * x[:, j] ** (k + 1)
        elif self.family == "friedman":
            out = (
                c[0] * np.sin(np.pi * x[:, 0] * x[:, 1])
                + c[1] * np.square(x[:, 2] - 0.5)
                + c[2] * x[:, 3]
                + c[3] * x[:, 4]
            )
        else:  # step
            k = len(c) // 2
            thresholds = c[:k]
            values = c[k:]
            # side="right" makes the value at a threshold equal the limit
            # from above: the documented right-continuous tie rule.
            out = values[np.searchsorted(thresholds, x[:, 0], side="right")]
        for i, j, w in self.interactions:
            out = out + w * x[:, i] * x[:, j]
        return out


@dataclass(frozen=True)
class AleatoricSpec:
    """Inherent outcome randomness; fixed once the target construct is fixed.

    All distributions are calibrated so draws have population mean ``mean``
    and population variance ``variance`` (times the heteroskedastic
    multiplier where a link is set).  ``df`` applies to student_t only and
    must exceed 2; ``mixture_separation`` in [0, 1) sets how far apart the
    two equal-weight gaussian mixture components sit.
    """

    distribution: str = "gaussian"
    mean: float = 0.0
    variance: float = 0.0
    df: float = 8.0
    mixture_separation: float = 0.7
    het_link: Optional[str] = None

    def __post_init__(self) -> None:
        if self.distribution not in ALEATORIC_DISTRIBUTIONS:
            raise InvalidSpecError(f"aleatoric.distribution: unknown {self.distribution!r}")
        if not math.isfinite(self.mean):
            raise InvalidSpecError("aleatoric.mean: must be finite")
        if not 0 <= self.variance < math.inf:
            raise InvalidSpecError("aleatoric.variance: must be finite and nonnegative")
        if self.distribution == "student_t" and not 2 < self.df < math.inf:
            raise InvalidSpecError("aleatoric.df: student_t needs a finite df > 2")
        if not (0.0 <= self.mixture_separation < 1.0):
            raise InvalidSpecError("aleatoric.mixture_separation: must lie in [0, 1)")
        if self.het_link is not None and self.het_link not in HET_LINKS:
            raise InvalidSpecError(f"aleatoric.het_link: unknown link {self.het_link!r}")

    def _unit_noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Mean 0, variance 1 in population for every distribution.
        if self.distribution == "gaussian":
            return rng.standard_normal(n)
        if self.distribution == "student_t":
            return rng.standard_t(self.df, n) / math.sqrt(self.df / (self.df - 2.0))
        sep = self.mixture_separation
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return signs * sep + rng.standard_normal(n) * math.sqrt(1.0 - sep * sep)

    def multiplier(self, x_true: np.ndarray) -> np.ndarray:
        if self.het_link is None:
            return np.ones(x_true.shape[0])
        return HET_LINKS[self.het_link](np.asarray(x_true, dtype=float))

    @_refuse_non_finite("aleatoric: epsilon", "the noise overflows float64 on the drawn inputs")
    def draw(self, rng: np.random.Generator, x_true: np.ndarray) -> np.ndarray:
        scale = np.sqrt(self.variance * self.multiplier(x_true))
        return self.mean + scale * self._unit_noise(rng, x_true.shape[0])

    def variance_on(self, x_true: np.ndarray) -> float:
        """Oracle noise variance averaged over the given input rows."""
        return float(self.variance * np.mean(self.multiplier(x_true)))


@dataclass(frozen=True)
class TargetNoiseSpec:
    """Measurement error added to the true outcome.

    ``quantization`` is deterministic rounding of the outcome to a grid of
    width ``step``; ``mean``/``variance`` are ignored for it.
    """

    distribution: str = "gaussian"
    mean: float = 0.0
    variance: float = 0.0
    step: float = 0.0

    def __post_init__(self) -> None:
        if self.distribution not in TARGET_DISTRIBUTIONS:
            raise InvalidSpecError(f"target_noise.distribution: unknown {self.distribution!r}")
        if not math.isfinite(self.mean):
            raise InvalidSpecError("target_noise.mean: must be finite")
        if not 0 <= self.variance < math.inf:
            raise InvalidSpecError("target_noise.variance: must be finite and nonnegative")
        if self.distribution == "quantization" and not 0 < self.step < math.inf:
            raise InvalidSpecError("target_noise.step: quantization needs a finite step > 0")

    @_refuse_non_finite(
        "target_noise: y_obs", "the measurement error overflows float64 on the drawn outcomes"
    )
    def corrupt(self, rng: np.random.Generator, y_true: np.ndarray) -> np.ndarray:
        n = y_true.shape[0]
        if self.distribution == "quantization":
            return self.step * np.round(y_true / self.step)
        if self.distribution == "gaussian":
            draw = self.mean + math.sqrt(self.variance) * rng.standard_normal(n)
        else:  # uniform with matching mean/variance
            half_width = math.sqrt(3.0 * self.variance)
            draw = self.mean + half_width * rng.uniform(-1.0, 1.0, n)
        return y_true + draw


@dataclass(frozen=True)
class FeatureNoiseSpec:
    """Measurement and construction error on the feature view.

    Additive noise is drawn jointly from N(means, cov).  ``omit`` drops
    features from the observed view entirely; ``coarsen`` quantizes a kept
    feature to a grid of the given width (0 disables).  The observed view
    keeps the non-omitted columns in their original order.
    """

    means: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]
    omit: tuple[bool, ...]
    coarsen: tuple[float, ...]

    def __post_init__(self) -> None:
        coerce_fields(self, means=(float,), cov=((float,),), omit=(bool,), coarsen=(float,))
        if all(self.omit):
            raise InvalidSpecError("feature_noise.omit: at least one feature must stay observed")
        if any(s < 0 for s in self.coarsen):
            raise InvalidSpecError("feature_noise.coarsen: steps must be nonnegative")

    @staticmethod
    def none(input_dim: int) -> "FeatureNoiseSpec":
        zero = (0.0,) * input_dim
        cov = tuple(tuple(0.0 for _ in range(input_dim)) for _ in range(input_dim))
        return FeatureNoiseSpec(means=zero, cov=cov, omit=(False,) * input_dim, coarsen=zero)

    def validate(self, input_dim: int) -> None:
        """The rules that need the world's input dimension."""
        if len(self.means) != input_dim:
            raise InvalidSpecError(
                f"feature_noise.means: expected length {input_dim}, got {len(self.means)}"
            )
        if len(self.omit) != input_dim:
            raise InvalidSpecError(
                f"feature_noise.omit: expected length {input_dim}, got {len(self.omit)}"
            )
        if len(self.coarsen) != input_dim:
            raise InvalidSpecError(
                f"feature_noise.coarsen: expected length {input_dim}, got {len(self.coarsen)}"
            )
        _check_square(self.cov, input_dim, "feature_noise.cov")
        self.factor  # raises on an asymmetric or non-PSD cov

    @cached_property
    def factor(self) -> np.ndarray:
        """``psd_factor`` of ``cov``, computed once per spec."""
        return psd_factor(np.asarray(self.cov), name="feature_noise.cov")

    def observed_indices(self) -> tuple[int, ...]:
        return tuple(j for j, dropped in enumerate(self.omit) if not dropped)

    def draw_delta(self, rng: np.random.Generator, n: int) -> np.ndarray:
        d = len(self.means)
        z = rng.standard_normal((n, d))
        return np.asarray(self.means) + z @ self.factor.T

    @_refuse_non_finite(
        "feature_noise: x_obs", "the measurement error overflows float64 on the drawn inputs"
    )
    def observe(self, x_true: np.ndarray, delta: np.ndarray) -> np.ndarray:
        keep = list(self.observed_indices())
        observed = (x_true + delta)[:, keep]
        for col, j in enumerate(keep):
            step = self.coarsen[j]
            if step > 0:
                observed[:, col] = step * np.round(observed[:, col] / step)
        return observed


@dataclass(frozen=True)
class SelectionSpec:
    """Which generated rows make it into the observed sample."""

    rule: str = "none"
    score: str = "epsilon"
    coverage: float = 1.0

    def __post_init__(self) -> None:
        if self.rule not in SELECTION_RULES:
            raise InvalidSpecError(f"selection.rule: unknown rule {self.rule!r}")
        if self.score not in SCORE_TAGS:
            raise InvalidSpecError(f"selection.score: unknown score {self.score!r}")
        if not (0.0 < self.coverage <= 1.0):
            raise InvalidSpecError("selection.coverage: must lie in (0, 1]")

    def _scores(self, x_true: np.ndarray, epsilon: np.ndarray, y_true: np.ndarray) -> np.ndarray:
        if self.score == "epsilon":
            return epsilon
        if self.score == "y_true":
            return y_true
        return x_true[:, 0]

    def select(
        self,
        rng: np.random.Generator,
        x_true: np.ndarray,
        epsilon: np.ndarray,
        y_true: np.ndarray,
    ) -> np.ndarray:
        n = x_true.shape[0]
        if self.rule == "none":
            return np.ones(n, dtype=bool)
        if self.rule == "probabilistic":
            return rng.random(n) < self.coverage
        scores = self._scores(x_true, epsilon, y_true)
        kth = max(1, math.ceil(self.coverage * n))
        threshold = np.partition(scores, kth - 1)[kth - 1]
        return scores <= threshold


@dataclass(frozen=True)
class XDistributionSpec:
    """Input distribution for the true feature matrix."""

    kind: str = "gaussian"
    low: float = -1.0
    high: float = 1.0
    cov: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.cov is not None:
            coerce_fields(self, cov=((float,),))
        if self.kind not in X_KINDS:
            raise InvalidSpecError(f"x.kind: unknown kind {self.kind!r}")
        if self.kind == "uniform" and not math.isfinite(self.low):
            raise InvalidSpecError("x.low: must be finite")
        if self.kind == "uniform" and not self.low < self.high < math.inf:
            raise InvalidSpecError("x.high: uniform box needs a finite high > low")
        if self.kind == "uniform" and not math.isfinite(self.high - self.low):
            raise InvalidSpecError("x.high: the uniform box's width high - low overflows float64")
        if self.kind == "correlated" and self.cov is None:
            raise InvalidSpecError("x.cov: correlated gaussian needs a covariance matrix")

    def validate(self, input_dim: int) -> None:
        """The rules that need the world's input dimension."""
        if self.kind == "correlated":
            _check_square(self.cov, input_dim, "x.cov")
            self.factor  # raises on an asymmetric or non-PSD cov

    @cached_property
    def factor(self) -> np.ndarray:
        """``psd_factor`` of ``cov``, computed once per spec."""
        return psd_factor(np.asarray(self.cov), name="x.cov")

    def draw(self, rng: np.random.Generator, n: int, input_dim: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal((n, input_dim))
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, (n, input_dim))
        return rng.standard_normal((n, input_dim)) @ self.factor.T


@dataclass(frozen=True)
class World:
    """A complete synthetic data-generating process plus its master seed."""

    f_star: TrueFunctionSpec
    x_dist: XDistributionSpec
    aleatoric: AleatoricSpec
    target_noise: TargetNoiseSpec
    feature_noise: FeatureNoiseSpec
    selection: SelectionSpec
    master_seed: int

    @property
    def input_dim(self) -> int:
        return self.f_star.input_dim

    @property
    def observed_dim(self) -> int:
        return len(self.feature_noise.observed_indices())

    def __post_init__(self) -> None:
        # Each section checked its own rules when it was built; these need
        # the input dimension, which only the world knows.
        self.x_dist.validate(self.input_dim)
        self.feature_noise.validate(self.input_dim)
        if not (0 <= self.master_seed < 2**64):
            raise InvalidSpecError("master_seed: must fit in an unsigned 64-bit integer")


@dataclass
class SampleBundle:
    """Aligned true and observed columns for one generated sample.

    ``delta_y`` stores the realized observed-minus-true outcome difference
    and ``delta_x`` the full additive feature-noise draw (before omission
    and coarsening), so every corruption can be verified by recomputation.
    """

    x_true: np.ndarray
    x_observed: np.ndarray
    y_true: np.ndarray
    y_observed: np.ndarray
    epsilon: np.ndarray
    selected: np.ndarray
    delta_y: np.ndarray
    delta_x: np.ndarray
    label: str

    @property
    def n(self) -> int:
        return self.x_true.shape[0]

    @property
    def coverage(self) -> float:
        return float(np.mean(self.selected))


def as_mapping(value, path: str) -> dict:
    """A dict copy of the section ``value``; None (absent) gives {}."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected a mapping")
    return dict(value)


def reject_unknown(rest: Mapping, path: str) -> None:
    """Raise naming the first key left over once a section is parsed."""
    if rest:
        key = sorted(map(str, rest))[0]
        raise ConfigError(f"{path}.{key}: unknown field" if path else f"{key}: unknown field")


def coerce(kind, value, path: str):
    """``value`` read as ``kind``, raising :class:`ConfigError` naming
    ``path`` when it cannot be.

    A tuple of kinds reads a list (not a string: ``tuple("16")`` would
    split it into characters) into a tuple, item by item, an item's error
    naming ``path[i]``: one kind reads a list of any length, several kinds
    exactly one item per kind.  A float with a fractional part is not read
    as an int (``int(2.5)`` would truncate it), nor NaN or an infinity as a
    float.  A bool is read only as a bool, and only a bool is read as one;
    only a str is read as a str."""

    def wrong() -> ConfigError:
        if isinstance(kind, tuple):
            name = "list" if len(kind) == 1 else f"list of {len(kind)}"
        else:
            name = kind.__name__
        return ConfigError(f"{path}: expected {name}, got {value!r}")

    if isinstance(kind, tuple):
        if not isinstance(value, (list, tuple, np.ndarray)) or len(kind) not in (1, len(value)):
            raise wrong()
        kinds = kind * len(value) if len(kind) == 1 else kind
        return tuple(  # an item already of its kind (and finite) is kept, its path never built
            v
            if type(v) is k and (k is not float or math.isfinite(v))
            else coerce(k, v, f"{path}[{i}]")
            for i, (k, v) in enumerate(zip(kinds, value))
        )
    if (kind is bool) != isinstance(value, (bool, np.bool_)):
        raise wrong()
    if kind is str and not isinstance(value, str):
        raise wrong()
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise wrong()
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise wrong() from exc
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{path}: expected a finite float, got {value!r}")
    return out


def coerce_fields(spec, **kinds) -> None:
    """Read each named field of the frozen dataclass ``spec`` through
    ``coerce``; an error names the field (``spec_from_config`` adds the section)."""
    for name, kind in kinds.items():
        object.__setattr__(spec, name, coerce(kind, getattr(spec, name), name))


def _read_field(spec, path: str, name: str, read):
    """Store ``read(value, "path.name")`` as the field ``name`` of ``spec``
    and return it, raising the reader's :class:`ConfigError` as
    :class:`InvalidSpecError`."""
    try:
        value = read(getattr(spec, name), f"{path}.{name}")
    except ConfigError as exc:
        raise InvalidSpecError(str(exc)) from None
    object.__setattr__(spec, name, value)
    return value


def at_least(spec, path: str, **minimums) -> None:
    """Read each named field of ``spec`` as an int through ``coerce`` and
    raise naming ``path.field`` for the first one that is not an int or is
    below its minimum."""
    for name, minimum in minimums.items():
        value = _read_field(spec, path, name, partial(coerce, int))
        if value < minimum:
            raise InvalidSpecError(f"{path}.{name}: must be >= {minimum}, got {value}")


def seed_field(spec, path: str, name: str) -> None:
    """Read the field ``name`` of ``spec`` through ``read_seed``, raising
    :class:`InvalidSpecError` naming ``path.name`` unless it is an int in
    [0, 2**64)."""
    _read_field(spec, path, name, read_seed)


@contextmanager
def naming(path: str) -> Iterator[None]:
    """Prefix ``path`` to the message of an error raised in the block,
    keeping its type; a :class:`ConfigError` already names its full path."""
    try:
        yield
    except ConfigError:
        raise
    except ErrorLabError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def spec_from_config(cls, cfg: Mapping, path: str, **given):
    """An instance of the dataclass ``cls`` from the mapping ``cfg``.

    Each field not in ``given`` reads its key, coerced to the type of the
    field's default when that is a scalar; an absent key keeps the
    default.  Any other field takes the value as it is, for the class's
    own converter (``__post_init__``) to read, and a field with no default
    is required.  Keys naming no field, and the keys of the ``given``
    fields, are rejected: their caller reads them.  A value of the wrong
    type raises :class:`ConfigError` naming its key; a rule the built
    instance breaks, the class's own :class:`InvalidSpecError`.
    """
    rest = as_mapping(cfg, path)
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        if f.name in rest:
            value = rest.pop(f.name)
            if isinstance(f.default, (bool, int, float, str)):
                value = coerce(type(f.default), value, f"{path}.{f.name}")
            values[f.name] = value
        elif f.default is MISSING:
            raise ConfigError(f"{path}.{f.name}: required field is missing")
    reject_unknown(rest, path)
    try:
        return cls(**values)
    except ConfigError as exc:  # raised by coerce_fields, naming the field
        raise ConfigError(f"{path}.{exc}") from exc


def _plain(value):
    if isinstance(value, World):
        return world_to_config(value)
    if dataclasses.is_dataclass(value):
        return spec_to_config(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def spec_to_config(spec, skip: Sequence[str] = ()) -> dict:
    """The mapping ``spec_from_config`` reads back into ``spec``: tuples
    become lists, a nested World its ``world_to_config`` mapping and any
    other nested dataclass its own mapping.  Fields whose value is None are
    left out, as are the fields named in ``skip``."""
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name not in skip and value is not None:
            out[f.name] = _plain(value)
    return out


# A world mapping's sections, (key, World field, spec class), in the order
# build_world reads them: f_star's rules are checked before x's.
WORLD_SECTIONS = (
    ("f_star", "f_star", TrueFunctionSpec),
    ("x", "x_dist", XDistributionSpec),
    ("aleatoric", "aleatoric", AleatoricSpec),
    ("target_noise", "target_noise", TargetNoiseSpec),
    ("feature_noise", "feature_noise", FeatureNoiseSpec),
    ("selection", "selection", SelectionSpec),
)
_SECTION_SPECS = {key: cls for key, _, cls in WORLD_SECTIONS}


def world_section(key: str, cfg, dim: int, path: str, **given):
    """The spec of the world section ``key`` read from ``cfg`` at ``path`` by
    ``spec_from_config``, with the fields in ``given``.  Feature noise needs
    the input dimension ``dim``: its absent fields are those of
    ``FeatureNoiseSpec.none(dim)``, and its ``cov`` may be a full matrix, a
    per-feature variance vector or a scalar shared variance."""
    cls = _SECTION_SPECS[key]
    if cls is FeatureNoiseSpec:
        cfg = as_mapping(cfg, path)
        none = FeatureNoiseSpec.none(dim)
        cov = cfg.pop("cov", None)
        if cov is None:
            cov = none.cov
        elif np.isscalar(cov):
            cov = coerce(float, cov, f"{path}.cov") * np.eye(dim)
        elif all(np.isscalar(v) for v in cov):
            cov = np.diag(coerce((float,), cov, f"{path}.cov"))
        # Otherwise a matrix, which the spec's converter reads.
        cfg = {**spec_to_config(none, skip=("cov",)), **cfg}
        given["cov"] = cov
    return spec_from_config(cls, cfg, path, **given)


def read_seed(value, path: str) -> int:
    """``value`` read as a master seed, an int in [0, 2**64); raises
    :class:`ConfigError` naming ``path`` otherwise."""
    seed = coerce(int, value, path)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{path}: must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def build_world(config: Mapping, path: str = "world") -> World:
    """Build a World from a nested mapping (the scenario ``world`` section
    plus a ``seed`` key), ``path`` being the section's own name: ``x.dim``
    first, then each ``WORLD_SECTIONS`` section by ``world_section`` in the
    table's order (f* with its ``interactions``), then ``seed``.  A missing
    or mistyped field, an ``x.dim`` below 1 or a seed outside [0, 2**64)
    raises :class:`ConfigError` naming its full path; a broken rule, the
    spec's own :class:`InvalidSpecError`."""
    cfg = dict(config)
    x_cfg = cfg["x"] = as_mapping(cfg.get("x"), f"{path}.x")
    if "dim" not in x_cfg:
        raise ConfigError(f"{path}.x.dim: required field is missing")
    dim = coerce(int, x_cfg.pop("dim"), f"{path}.x.dim")
    if dim < 1:
        raise ConfigError(f"{path}.x.dim: must be >= 1, got {dim}")
    f_cfg = cfg["f_star"] = as_mapping(cfg.get("f_star"), f"{path}.f_star")
    interactions = []
    for i, item in enumerate(f_cfg.pop("interactions", None) or []):
        item_path = f"{path}.f_star.interactions[{i}]"
        rest = dict(item) if isinstance(item, Mapping) else {}
        if not {"pair", "weight"} <= rest.keys():
            raise ConfigError(f"{item_path}: expected {{pair: [i, j], weight: w}}, got {item!r}")
        pair, weight = rest.pop("pair"), rest.pop("weight")
        reject_unknown(rest, item_path)
        pair = coerce((int, int), pair, f"{item_path}.pair")
        interactions.append((*pair, coerce(float, weight, f"{item_path}.weight")))
    given = {"f_star": {"input_dim": dim, "interactions": tuple(interactions)}}
    specs = {
        name: world_section(key, cfg.pop(key, None), dim, f"{path}.{key}", **given.get(key, {}))
        for key, name, _ in WORLD_SECTIONS
    }
    if "seed" not in cfg:
        raise ConfigError(f"{path}.seed: required field is missing")
    master_seed = read_seed(cfg.pop("seed"), f"{path}.seed")
    reject_unknown(cfg, path)
    return World(**specs, master_seed=master_seed)


def world_to_config(world: World) -> dict:
    """The ``world`` mapping ``build_world`` reads back into ``world``: each
    section's ``spec_to_config`` mapping, f*'s ``input_dim`` as ``x.dim``
    and ``master_seed`` as ``seed``."""
    out = {key: spec_to_config(getattr(world, name)) for key, name, _ in WORLD_SECTIONS}
    f_star = out["f_star"]
    out["x"]["dim"] = f_star.pop("input_dim")
    del f_star["interactions"]
    if world.f_star.interactions:
        f_star["interactions"] = [
            {"pair": [i, j], "weight": w} for i, j, w in world.f_star.interactions
        ]
    out["seed"] = world.master_seed
    return out


def draw_inputs(world: World, n: int, substream_label: str) -> np.ndarray:
    """Draw n rows from the input distribution only (no noise channels)."""
    rng = rng_for(world.master_seed, substream_label, "x")
    return world.x_dist.draw(rng, n, world.input_dim)


def observe_features(world: World, x_true: np.ndarray, substream_label: str) -> np.ndarray:
    """Corrupt a fixed input matrix into its observed view."""
    rng = rng_for(world.master_seed, substream_label, "dx")
    delta = world.feature_noise.draw_delta(rng, x_true.shape[0])
    return world.feature_noise.observe(np.asarray(x_true, dtype=float), delta)


def draw_aleatoric(world: World, x_true: np.ndarray, substream_label: str) -> np.ndarray:
    """Draw fresh inherent noise for a fixed input matrix."""
    rng = rng_for(world.master_seed, substream_label, "eps")
    return world.aleatoric.draw(rng, np.asarray(x_true, dtype=float))


@dataclass(frozen=True)
class HeldOut:
    """Held-out rows and the truth they are scored against: f* at ``x_true``, the
    inherent noise and ``y_true = f_star + epsilon`` (no target noise or selection)."""

    x_true: np.ndarray
    f_star: np.ndarray
    epsilon: np.ndarray
    y_true: np.ndarray
    label: str

    def observed(self, world: World) -> np.ndarray:
        """The rows as ``world`` shows them, drawn under the pack's label."""
        return observe_features(world, self.x_true, self.label)

    def head(self, n: int) -> "HeldOut":
        return HeldOut(
            self.x_true[:n], self.f_star[:n], self.epsilon[:n], self.y_true[:n], self.label
        )


@_refuse_non_finite("aleatoric: y_true", "f*(x) plus the noise overflows float64")
def _y_true(f_star: np.ndarray, epsilon: np.ndarray) -> np.ndarray:
    return f_star + epsilon


def held_out(world: World, x_true: np.ndarray, label: str) -> HeldOut:
    """The pack at ``x_true``, its noise drawn as ``sample`` under ``label`` draws it."""
    f_star, epsilon = world.f_star.values(x_true), draw_aleatoric(world, x_true, label)
    return HeldOut(x_true, f_star, epsilon, _y_true(f_star, epsilon), label)


def sample(world: World, n: int, substream_label: str) -> SampleBundle:
    """Generate a paired true/observed sample of size n.

    Draw channels use independent substreams (inputs, inherent noise,
    target noise, feature noise, selection), so altering one corruption
    spec leaves the realizations of every other channel untouched.
    """
    if n < 1:
        raise InvalidSpecError("sample: n must be >= 1")
    seed = world.master_seed
    x_true = world.x_dist.draw(rng_for(seed, substream_label, "x"), n, world.input_dim)
    epsilon = world.aleatoric.draw(rng_for(seed, substream_label, "eps"), x_true)
    y_true = _y_true(world.f_star.values(x_true), epsilon)
    y_observed = world.target_noise.corrupt(rng_for(seed, substream_label, "dy"), y_true)
    delta_x = world.feature_noise.draw_delta(rng_for(seed, substream_label, "dx"), n)
    x_observed = world.feature_noise.observe(x_true, delta_x)
    selected = world.selection.select(
        rng_for(seed, substream_label, "sel"), x_true, epsilon, y_true
    )
    bundle = SampleBundle(
        x_true=x_true,
        x_observed=x_observed,
        y_true=y_true,
        y_observed=y_observed,
        epsilon=epsilon,
        selected=selected,
        delta_y=y_observed - y_true,
        delta_x=delta_x,
        label=substream_label,
    )
    if world.selection.rule != "none" and not bundle.selected.any():
        raise EmptySelectionError(f"selection kept zero of {n} rows")
    return bundle


# Rows per block of ``check_bundle``: the columns it recomputes stay a few
# hundred kB whatever the sample's size.
_CHECK_ROWS = 1 << 12


def check_bundle(world: World, bundle: SampleBundle) -> None:
    """Check, exactly, the generative identities that need no second draw:
    the observed width, ``y_true == f*(x_true) + epsilon``, ``y_observed -
    y_true == delta_y`` and ``x_observed == observe(x_true, delta_x)``.
    f* and the feature noise treat each row on its own, so the rows are
    checked in blocks.  Raises :class:`InvariantError` on a mismatch."""
    expected_dim = world.observed_dim
    if bundle.x_observed.shape[1] != expected_dim:
        raise InvariantError(
            f"x_observed has {bundle.x_observed.shape[1]} columns, expected {expected_dim}"
        )
    for start in range(0, bundle.n, _CHECK_ROWS):
        rows = slice(start, start + _CHECK_ROWS)
        x_true, y_true = bundle.x_true[rows], bundle.y_true[rows]
        if not np.array_equal(world.f_star.values(x_true) + bundle.epsilon[rows], y_true):
            raise InvariantError("y_true != f_star(x_true) + epsilon")
        if not np.array_equal(bundle.y_observed[rows] - y_true, bundle.delta_y[rows]):
            raise InvariantError("y_observed - y_true != stored delta_y")
        observed = world.feature_noise.observe(x_true, bundle.delta_x[rows])
        if not np.array_equal(observed, bundle.x_observed[rows]):
            raise InvariantError("x_observed does not match stored feature-noise draw")


def verify_bundle(world: World, bundle: SampleBundle) -> None:
    """Assert the generative identities: ``check_bundle``'s, then that a
    second draw under the bundle's label reproduces it.  Raises
    :class:`InvariantError` on any mismatch."""
    check_bundle(world, bundle)
    regenerated = sample(world, bundle.n, bundle.label)
    for field in ("x_true", "x_observed", "y_true", "y_observed", "epsilon", "selected"):
        if not np.array_equal(getattr(regenerated, field), getattr(bundle, field)):
            raise InvariantError(f"bundle field {field} is not reproducible from its label")


def bundle_columns(bundle: SampleBundle) -> tuple[list[str], list[np.ndarray]]:
    """Header and columns for the CSV export (one row per observation).

    The columns are views into the bundle's arrays; nothing is copied."""
    d = bundle.x_true.shape[1]
    d_obs = bundle.x_observed.shape[1]
    header = (
        [f"x_true_{j}" for j in range(d)]
        + [f"x_obs_{j}" for j in range(d_obs)]
        + ["y_true", "y_obs", "epsilon", "selected"]
    )
    columns = [
        *bundle.x_true.T,
        *bundle.x_observed.T,
        bundle.y_true,
        bundle.y_observed,
        bundle.epsilon,
        bundle.selected,
    ]
    return header, columns
