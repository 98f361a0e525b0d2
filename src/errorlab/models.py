"""From-scratch regression models with a uniform fit/predict contract.

Three trainable families (ridge, knn, mlp); the oracle is no model but the
world's true function, ``world.f_star``.  Fitting canonicalizes the
training-row order (lexicographic by features, then label) so fits are
bit-for-bit invariant to input row permutation; the knn tie rule refers to
this canonical order.

The canonical order is computed from the first feature column alone when
that column has no ties (no two equal values, -0.0 and 0.0 counting as
equal, and no NaN): the sorted order is then unique and equals the full
lexicographic order.  Otherwise it falls back to ``np.lexsort`` over every
feature column and the label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FitError, InvalidSpecError, SingularSystemError
from .seeding import rng_for
from .worldgen import SampleBundle, coerce, coerce_fields, spec_from_config, spec_to_config

# training regime -> the bundle fields it trains on, as (features, labels).
_REGIME_FIELDS = {
    "OO": ("x_observed", "y_observed"),
    "TO": ("x_true", "y_observed"),
    "TT": ("x_true", "y_true"),
}
# The regimes a bias-variance study reads: the three training regimes and
# ORACLE, which fits nothing and predicts with ``world.f_star``.
REGIMES = (*_REGIME_FIELDS, "ORACLE")

MODEL_JSON_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    """Hyperparameters for one model family.

    Only the fields of the chosen family matter; the rest keep defaults.
    mlp weights initialize uniformly in +-1/sqrt(fan_in) (biases at zero)
    from ``init_seed``, and mini-batch order is reshuffled each epoch from
    the same seed, so training is fully deterministic.
    """

    family: str = "ridge"
    lam: float = 0.0
    k: int = 5
    widths: tuple[int, ...] = (16,)
    activation: str = "tanh"
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    init_seed: int = 0

    def __post_init__(self) -> None:
        coerce_fields(self, widths=(int,))

    def validate(self) -> "ModelSpec":
        if self.family not in _FAMILIES:
            raise InvalidSpecError(f"model.family: unknown family {self.family!r}")
        if self.lam < 0:
            raise InvalidSpecError("model.lam: ridge penalty must be nonnegative")
        if self.k < 1:
            raise InvalidSpecError("model.k: knn needs k >= 1")
        if any(w < 1 for w in self.widths):
            raise InvalidSpecError("model.widths: layer widths must be positive")
        if self.activation not in _ACT:
            raise InvalidSpecError(f"model.activation: unknown activation {self.activation!r}")
        if self.epochs < 1:
            raise InvalidSpecError("model.epochs: must be >= 1")
        if self.batch_size < 1:
            raise InvalidSpecError("model.batch_size: must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidSpecError("model.learning_rate: must be positive")
        return self


@dataclass
class FittedModel:
    """An immutable fitted predictor; ``predict`` is deterministic."""

    spec: ModelSpec
    regime: str
    input_dim: int
    params: dict
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RegimeModels:
    """Fitted predictors for the three information regimes."""

    oo: FittedModel
    to: FittedModel
    tt: FittedModel


def canonical_row_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sort order by features (first column primary) then label.

    A first column without ties orders the rows on its own; only a tie
    (equal neighbours once sorted) or a NaN, which sorts last and compares
    unequal to everything, needs the full ``np.lexsort``."""
    if x.size:  # at least one row and one column
        column = x[:, 0]
        order = np.argsort(column)
        first = column[order]
        if not np.isnan(first[-1]) and not (first[1:] == first[:-1]).any():
            return order
    keys = (y,) + tuple(x[:, j] for j in range(x.shape[1] - 1, -1, -1))
    return np.lexsort(keys)


def _check_training_arrays(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"x must be 2-d, got shape {x.shape}")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise DimensionError(f"y of shape {y.shape} does not match x of shape {x.shape}")
    return x, y


# ---------------------------------------------------------------------------
# ridge


def _fit_ridge(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> tuple[dict, dict]:
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + spec.lam * np.eye(x.shape[1])
    if spec.lam == 0.0:
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "ridge with lam=0 on a rank-deficient design; add regularization "
                "or remove collinear features"
            ) from exc
    coef = np.linalg.solve(gram, xc.T @ yc)
    intercept = y_mean - float(x_mean @ coef)
    residuals = y - (x @ coef + intercept)
    params = {"coef": coef, "intercept": intercept}
    diagnostics = {"final_loss": float(np.mean(residuals**2)), "iterations": 1}
    return params, diagnostics


def _predict_ridge(model: FittedModel, x: np.ndarray) -> np.ndarray:
    return x @ model.params["coef"] + model.params["intercept"]


# ---------------------------------------------------------------------------
# knn

# 64 query rows per chunk: the (chunk, n) distance and selection arrays of
# a 256-row chunk raised the peak resident set of small knn studies.
_KNN_CHUNK = 64
# numpy's pairwise sum unrolls by eight, so a column-by-column accumulation
# matches ``np.sum(..., axis=2)`` bit for bit only up to seven columns.
_KNN_COLUMNWISE_MAX_DIM = 7


def _fit_knn(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> tuple[dict, dict]:
    if x.shape[0] < spec.k:
        raise FitError(f"knn needs at least k={spec.k} training rows, got {x.shape[0]}")
    mean = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    params = {
        "train_x_std": (x - mean) / sd,
        "train_y": y,
        "mean": mean,
        "sd": sd,
        "k": spec.k,
    }
    diagnostics = {"final_loss": None, "iterations": 0}
    return params, diagnostics


def _knn_distances(
    chunk: np.ndarray,
    train: np.ndarray,
    train_cols: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Squared Euclidean distances, (queries, training rows), in ``out``.

    Explicit differences keep exactly-equal distances exactly equal, so the
    lower-canonical-index tie rule is honest.  ``out`` and ``scratch`` are
    buffers of the result's shape, reused across chunks.
    """
    if not 0 < train.shape[1] <= _KNN_COLUMNWISE_MAX_DIM:
        return np.sum((chunk[:, None, :] - train[None, :, :]) ** 2, axis=2)
    np.subtract(chunk[:, 0:1], train_cols[0], out=out)
    np.square(out, out=out)
    for j in range(1, train.shape[1]):
        np.subtract(chunk[:, j : j + 1], train_cols[j], out=scratch)
        np.square(scratch, out=scratch)
        out += scratch
    return out


def _knn_nearest(dist_sq: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest training rows, ascending.

    The neighbours are the k first rows of a stable sort by distance:
    every row closer than the k-th distance, then the lowest-index rows at
    exactly that distance.
    """
    kth = np.partition(dist_sq, k - 1, axis=1)[:, k - 1 : k]
    if not np.all(np.isfinite(kth)):
        # A NaN k-th distance equals no distance, so ties cannot fill the
        # set; every non-finite k-th distance is left to the stable sort.
        return np.sort(np.argsort(dist_sq, axis=1, kind="stable")[:, :k], axis=1)
    sel = dist_sq < kth
    ties = dist_sq == kth
    need = k - np.count_nonzero(sel, axis=1)
    surplus = np.count_nonzero(ties, axis=1) > need
    if surplus.any():
        ties[surplus] &= np.cumsum(ties[surplus], axis=1) <= need[surplus, None]
    sel |= ties
    return np.nonzero(sel)[1].reshape(-1, k)


def _predict_knn(model: FittedModel, x: np.ndarray) -> np.ndarray:
    train = model.params["train_x_std"]
    train_cols = np.ascontiguousarray(train.T)
    labels = model.params["train_y"]
    k = model.params["k"]
    queries = (x - model.params["mean"]) / model.params["sd"]
    out = np.empty(queries.shape[0])
    buffers = np.empty((2, min(_KNN_CHUNK, queries.shape[0]), train.shape[0]))
    for start in range(0, queries.shape[0], _KNN_CHUNK):
        chunk = queries[start : start + _KNN_CHUNK]
        rows = chunk.shape[0]
        dist_sq = _knn_distances(chunk, train, train_cols, buffers[0, :rows], buffers[1, :rows])
        # Average in canonical index order so equal neighbor sets produce
        # bitwise-equal means (k = n then gives the global mean everywhere).
        out[start : start + _KNN_CHUNK] = labels[_knn_nearest(dist_sq, k)].mean(axis=1)
    return out


# ---------------------------------------------------------------------------
# mlp

# activation -> (forward, derivative from the pre-activation z and the
# stored activation h = forward(z)).
_ACT = {
    "tanh": (np.tanh, lambda z, h: 1.0 - h**2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, h: (z > 0.0).astype(float)),
    "identity": (lambda z: z, lambda z, h: np.ones_like(z)),
}


def mlp_init_params(spec: ModelSpec, input_dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = rng_for(spec.init_seed, "mlp/init")
    sizes = [input_dim, *spec.widths, 1]
    params = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, (fan_in, fan_out))
        params.append((w, np.zeros(fan_out)))
    return params


def _mlp_forward(
    params: list[tuple[np.ndarray, np.ndarray]], activation: str, x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    act, _ = _ACT[activation]
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    h = x
    last = len(params) - 1
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        pre.append(z)
        h = act(z) if i < last else z
        post.append(h)
    return pre, post


def mlp_predict_params(
    params: list[tuple[np.ndarray, np.ndarray]], activation: str, x: np.ndarray
) -> np.ndarray:
    _, post = _mlp_forward(params, activation, x)
    return post[-1][:, 0]


def _flatten(params: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params])


def _param_views(
    flat: np.ndarray, like: list[tuple[np.ndarray, np.ndarray]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(w, b) views into ``flat``, shaped and ordered like ``like``."""
    views = []
    offset = 0
    for w, b in like:
        w_view = flat[offset : offset + w.size].reshape(w.shape)
        offset += w.size
        views.append((w_view, flat[offset : offset + b.size]))
        offset += b.size
    return views


def _mlp_gradients(
    params: list[tuple[np.ndarray, np.ndarray]],
    activation: str,
    x: np.ndarray,
    y: np.ndarray,
    grads: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Write the analytic mean-squared-error gradient of every parameter
    into ``grads``, shaped like ``params``; return the residuals."""
    _, dact = _ACT[activation]
    pre, post = _mlp_forward(params, activation, x)
    resid = post[-1][:, 0] - y
    delta = (2.0 / y.shape[0]) * resid[:, None]
    for i in range(len(params) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(post[i].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i > 0:
            w, _ = params[i]
            delta = (delta @ w.T) * dact(pre[i - 1], post[i])
    return resid


def mlp_loss_and_gradients(
    params: list[tuple[np.ndarray, np.ndarray]],
    activation: str,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean-squared-error loss and its analytic gradient for every parameter."""
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in params]
    resid = _mlp_gradients(params, activation, x, y, grads)
    return float(np.mean(resid**2)), grads


# An epoch loss above this multiple of the larger of mean(y^2) and the
# loss at initialization counts as divergence.  A diverging fit passes the
# bound within an epoch or two (1e8 against mean(y^2) = 7 after one epoch
# at learning_rate 5.0), while the worst seen spike of a healthy fit stays
# near Var(y).  The initial loss keeps the bound positive when the labels
# are all zero.
_MLP_DIVERGENCE_FACTOR = 1e6


def _fit_mlp(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> tuple[dict, dict]:
    if x.shape[0] < spec.batch_size:
        raise FitError(
            f"mlp needs at least batch_size={spec.batch_size} training rows, got {x.shape[0]}"
        )
    n = x.shape[0]
    lr = spec.learning_rate
    init = mlp_init_params(spec, x.shape[1])
    # Parameters and gradients each live in one buffer, so a step updates
    # every layer with one multiply and one subtraction, elementwise the
    # same arithmetic as w - lr * gw.
    flat = _flatten(init)
    params = _param_views(flat, init)
    grad_flat = np.empty_like(flat)
    grads = _param_views(grad_flat, init)
    shuffler = rng_for(spec.init_seed, "mlp/batches")
    initial_loss = float(np.mean((mlp_predict_params(params, spec.activation, x) - y) ** 2))
    bound = _MLP_DIVERGENCE_FACTOR * max(float(np.mean(y**2)), initial_loss)
    epoch_losses = []
    iterations = 0
    for epoch in range(1, spec.epochs + 1):
        perm = shuffler.permutation(n)
        x_perm = x[perm]
        y_perm = y[perm]
        for start in range(0, n, spec.batch_size):
            stop = start + spec.batch_size
            _mlp_gradients(params, spec.activation, x_perm[start:stop], y_perm[start:stop], grads)
            grad_flat *= lr
            flat -= grad_flat
            iterations += 1
        loss = float(np.mean((mlp_predict_params(params, spec.activation, x) - y) ** 2))
        if not loss <= bound:
            raise FitError(
                f"mlp training loss {loss:.6g} after epoch {epoch} of {spec.epochs} is "
                f"non-finite or above the divergence bound {bound:.6g}; learning_rate {lr} "
                "diverges on this data"
            )
        epoch_losses.append(loss)
    model_params = {"layers": params}
    diagnostics = {
        "final_loss": epoch_losses[-1],
        "iterations": iterations,
        "epoch_losses": epoch_losses,
    }
    return model_params, diagnostics


def _predict_mlp(model: FittedModel, x: np.ndarray) -> np.ndarray:
    return mlp_predict_params(model.params["layers"], model.spec.activation, x)


@dataclass(frozen=True)
class GradientCheckReport:
    max_relative_deviation: float
    n_parameters: int


def check_gradients(
    spec: ModelSpec, x: np.ndarray, y: np.ndarray, step: float = 1e-6
) -> GradientCheckReport:
    """Compare the mlp analytic gradient against central finite differences.

    Runs at the spec's initial parameters on the full probe batch.
    """
    spec.validate()
    if spec.family != "mlp":
        raise InvalidSpecError("check_gradients applies to the mlp family only")
    x, y = _check_training_arrays(x, y)
    params = mlp_init_params(spec, x.shape[1])
    _, analytic = mlp_loss_and_gradients(params, spec.activation, x, y)

    def loss_at(flat: np.ndarray) -> float:
        pred = mlp_predict_params(_param_views(flat, params), spec.activation, x)
        return float(np.mean((pred - y) ** 2))

    flat = _flatten(params)
    flat_analytic = _flatten(analytic)
    max_rel = 0.0
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + step
        up = loss_at(bumped)
        bumped[i] = flat[i] - step
        down = loss_at(bumped)
        fd = (up - down) / (2.0 * step)
        denom = max(abs(fd), abs(flat_analytic[i]), 1e-8)
        max_rel = max(max_rel, abs(fd - flat_analytic[i]) / denom)
    return GradientCheckReport(max_relative_deviation=max_rel, n_parameters=int(flat.size))


# ---------------------------------------------------------------------------
# uniform contract

# The trainable families, each as (fit, predict).
_FAMILIES = {
    "ridge": (_fit_ridge, _predict_ridge),
    "knn": (_fit_knn, _predict_knn),
    "mlp": (_fit_mlp, _predict_mlp),
}


def fit(spec: ModelSpec, x: np.ndarray, y: np.ndarray, regime: str = "OO") -> FittedModel:
    spec.validate()
    if regime not in _REGIME_FIELDS:
        raise InvalidSpecError(f"unknown training regime {regime!r}")
    fit_family, _ = _FAMILIES[spec.family]
    try:
        x, y = _check_training_arrays(x, y)
        if x.shape[0] < 1:
            raise FitError("training data is empty")
        # Every family trains on the canonical row order.
        order = canonical_row_order(x, y)
        x, y = x[order], y[order]
        params, diagnostics = fit_family(spec, x, y)
    except (FitError, DimensionError) as exc:
        raise type(exc)(f"regime {regime}: {exc}") from exc
    return FittedModel(
        spec=spec, regime=regime, input_dim=x.shape[1], params=params, diagnostics=diagnostics
    )


def predict(model: FittedModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionError(f"x must be 2-d, got shape {x.shape}")
    if x.shape[1] != model.input_dim:
        raise DimensionError(
            f"model expects {model.input_dim} feature columns, got {x.shape[1]}"
        )
    _, predict_family = _FAMILIES[model.spec.family]
    return predict_family(model, x)


def regime_view(bundle: SampleBundle, regime: str) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) a regime trains on: the bundle's selected rows of OO's
    (x_observed, y_observed), TO's (x_true, y_observed) or TT's
    (x_true, y_true)."""
    if regime not in _REGIME_FIELDS:
        raise InvalidSpecError(f"unknown training regime {regime!r}")
    x_name, y_name = _REGIME_FIELDS[regime]
    rows = bundle.selected
    return getattr(bundle, x_name)[rows], getattr(bundle, y_name)[rows]


def fit_regimes(bundle: SampleBundle, spec: ModelSpec) -> RegimeModels:
    """Fit the spec under each information regime on identical row indices."""
    fitted = {
        regime: fit(spec, *regime_view(bundle, regime), regime=regime)
        for regime in _REGIME_FIELDS
    }
    return RegimeModels(oo=fitted["OO"], to=fitted["TO"], tt=fitted["TT"])


# ---------------------------------------------------------------------------
# serialization


def model_to_json(model: FittedModel) -> str:
    """Serialize to a versioned JSON document; floats round-trip exactly."""
    # Imported here, not at the top: runio loads hashlib, which
    # ``import errorlab`` does not need otherwise.
    from .runio import to_builtin

    spec = model.spec
    doc = {
        "schema_version": MODEL_JSON_VERSION,
        "family": spec.family,
        "regime": model.regime,
        "input_dim": model.input_dim,
        "spec": spec_to_config(spec),
        "diagnostics": to_builtin(model.diagnostics),
        "params": to_builtin(model.params),
    }
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> FittedModel:
    doc = json.loads(text)
    if doc.get("schema_version") != MODEL_JSON_VERSION:
        raise InvalidSpecError(
            f"unsupported model schema_version {doc.get('schema_version')!r}"
        )
    spec = spec_from_config(ModelSpec, doc["spec"], "spec").validate()
    regime = doc.get("regime")
    if not isinstance(regime, str) or regime not in _REGIME_FIELDS:
        raise InvalidSpecError(f"unknown training regime {regime!r}")
    raw = doc["params"]
    if spec.family == "mlp":
        params = {
            "layers": [
                (np.asarray(w, dtype=float), np.asarray(b, dtype=float)) for w, b in raw["layers"]
            ]
        }
    else:
        # Arrays were written as lists; scalars (ridge's intercept, knn's k)
        # as themselves.
        params = {
            key: np.asarray(value, dtype=float) if isinstance(value, list) else value
            for key, value in raw.items()
        }
    input_dim = coerce(int, doc["input_dim"], "input_dim")
    _check_param_shapes(spec, input_dim, params)
    return FittedModel(
        spec=spec,
        regime=regime,
        input_dim=input_dim,
        params=params,
        diagnostics=doc["diagnostics"],
    )


def _check_param_shapes(spec: ModelSpec, input_dim: int, params: dict) -> None:
    """Raise :class:`InvalidSpecError` naming the first array parameter whose
    shape does not fit ``input_dim``; for the mlp, the layer chain from
    ``input_dim`` through the hidden sizes its biases give (not checked
    against ``spec.widths``, which ``predict`` does not read) down to 1."""
    d = input_dim
    if spec.family == "mlp":
        layers = params["layers"]
        sizes = [d, *(np.size(b) for _, b in layers[:-1]), 1]
        pairs = enumerate(zip(sizes, sizes[1:]))
        expected = {f"layers[{i}]": ((a, b), (b,)) for i, (a, b) in pairs}
        shapes = {f"layers[{i}]": (np.shape(w), np.shape(b)) for i, (w, b) in enumerate(layers)}
    else:
        n = np.size(params.get("train_y"))
        knn = {"train_x_std": (n, d), "train_y": (n,), "mean": (d,), "sd": (d,)}
        expected = {"coef": (d,)} if spec.family == "ridge" else knn
        shapes = {key: np.shape(params.get(key)) for key in expected}
    for key in {**expected, **shapes}:
        want, got = expected.get(key), shapes.get(key)
        if got != want:
            raise InvalidSpecError(f"params.{key}: expected shape {want}, got {got}")
