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
from .worldgen import (
    SampleBundle,
    at_least,
    coerce,
    coerce_fields,
    naming,
    seed_field,
    spec_from_config,
    spec_to_config,
)

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
    the same seed, so training is fully deterministic.  Every mlp trains
    in a stack (``fit`` a stack of one), with the bits a lone network gets;
    a diverging stack names the first network to cross its bound.
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
        if self.family not in _FAMILIES:
            raise InvalidSpecError(f"model.family: unknown family {self.family!r}")
        if not 0 <= self.lam < math.inf:
            raise InvalidSpecError("model.lam: ridge penalty must be finite and nonnegative")
        at_least(self, "model", k=1, epochs=1, batch_size=1)
        if any(w < 1 for w in self.widths):
            raise InvalidSpecError("model.widths: layer widths must be positive")
        if self.activation not in _ACT:
            raise InvalidSpecError(f"model.activation: unknown activation {self.activation!r}")
        seed_field(self, "model", "init_seed")
        if not 0 < self.learning_rate < math.inf:
            raise InvalidSpecError("model.learning_rate: must be finite and positive")


@dataclass
class FittedModel:
    """An immutable fitted predictor; ``predict`` is deterministic."""

    spec: ModelSpec
    regime: str
    input_dim: int
    params: dict
    diagnostics: dict = field(default_factory=dict)


def _label_free_order(x: np.ndarray):
    """The canonical row order of ``x`` when it needs no labels: the sort
    order of a first column without ties (equal neighbours once sorted) or
    NaN, which sorts last and compares unequal to everything.  None when
    the column has either, or ``x`` has no rows or columns."""
    if x.size:
        column = x[:, 0]
        order = np.argsort(column)
        first = column[order]
        if not np.isnan(first[-1]) and not (first[1:] == first[:-1]).any():
            return order
    return None


def canonical_row_order(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sort order by features (first column primary) then label.

    A first column without ties orders the rows on its own
    (``_label_free_order``); otherwise the full ``np.lexsort`` runs."""
    order = _label_free_order(x)
    if order is None:
        keys = (y,) + tuple(x[:, j] for j in range(x.shape[1] - 1, -1, -1))
        order = np.lexsort(keys)
    return order


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


def _ridge_design(spec: ModelSpec, x: np.ndarray) -> tuple:
    """The rows ``x`` (in canonical order), their column means, the centred
    rows and their Gram matrix plus ``lam`` on the diagonal, which must be
    positive definite when ``lam`` is 0."""
    x_mean = x.mean(axis=0)
    xc = x - x_mean
    gram = xc.T @ xc + spec.lam * np.eye(x.shape[1])
    if spec.lam == 0.0:
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "ridge with lam=0 on a rank-deficient design; add regularization "
                "or remove collinear features"
            ) from exc
    return x, x_mean, xc, gram


def _fit_ridge(spec: ModelSpec, x: np.ndarray, y: np.ndarray, shared=None) -> tuple[dict, dict]:
    """Ridge on the rows ``(x, y)``, in canonical order.  Views on one ``x``
    in one order (TO and TT on ``x_true``) may pass one list as ``shared``:
    the first to fit stores x's ``_ridge_design`` there, and every view
    solves on it."""
    if shared is None:
        shared = []
    if not shared:
        shared.append(_ridge_design(spec, x))
    x, x_mean, xc, gram = shared[0]
    y_mean = float(y.mean())
    yc = y - y_mean
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

# Distance entries per block: a block holds max(1, _KNN_SCRATCH // (n * w))
# query rows against n training rows, where w is the input dimension on the
# broadcast path (its (rows, n, d) temporary) and 1 on the columnwise path.
# Each of the two (rows, n) float buffers then takes 256 kB whatever n is, so
# predict memory does not grow with the training set.
_KNN_SCRATCH = 1 << 15
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
        # Column-major, so each feature's column is contiguous for the
        # distance kernel: laid out once here rather than on every predict.
        "train_x_std": np.asfortranarray((x - mean) / sd),
        "train_y": y,
        "mean": mean,
        "sd": sd,
        "k": spec.k,
    }
    diagnostics = {"final_loss": None, "iterations": 0}
    return params, diagnostics


def _knn_distances(
    chunk: np.ndarray, train: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances, (queries, training rows), in ``out``.

    Explicit differences keep exactly-equal distances exactly equal, so the
    lower-canonical-index tie rule is honest.  ``out`` and ``scratch`` are
    buffers of the result's shape, reused across blocks.  Any layout of
    ``train`` gives the same bits; column-major reads fastest.
    """
    rows, (n, d) = chunk.shape[0], train.shape
    if not 0 < d <= _KNN_COLUMNWISE_MAX_DIM:
        # The differences in C order whatever the layout of ``train``, so
        # the sum runs along contiguous columns, as np.sum's pairwise
        # summation does for a C-ordered ``train``.
        diff = np.subtract(chunk[:, None, :], train[None, :, :], out=np.empty((rows, n, d)))
        return np.sum(np.square(diff, out=diff), axis=2, out=out)
    np.subtract(chunk[:, 0:1], train[:, 0], out=out)
    np.square(out, out=out)
    for j in range(1, d):
        np.subtract(chunk[:, j : j + 1], train[:, j], out=scratch)
        np.square(scratch, out=scratch)
        out += scratch
    return out


def _knn_nearest(dist_sq: np.ndarray, scratch: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest training rows, ascending.

    The neighbours are the k first rows of a stable sort by distance:
    every row closer than the k-th distance, then the lowest-index rows at
    exactly that distance.  ``scratch``, a buffer of ``dist_sq``'s shape,
    is overwritten: the k-th distance is found by partitioning it in place.
    """
    np.copyto(scratch, dist_sq)
    scratch.partition(k - 1, axis=1)
    kth = scratch[:, k - 1 : k]
    if not np.all(np.isfinite(kth)):
        # A NaN k-th distance equals no distance, so ties cannot fill the
        # set; every non-finite k-th distance is left to the stable sort.
        return np.sort(np.argsort(dist_sq, axis=1, kind="stable")[:, :k], axis=1)
    sel = dist_sq <= kth
    # More than k rows at or below the k-th distance: ties at that distance
    # outnumber the places left, which go to the lowest indices.
    surplus = np.count_nonzero(sel, axis=1) > k
    if surplus.any():
        dist, cut = dist_sq[surplus], kth[surplus]
        closer = dist < cut
        ties = dist == cut
        need = k - np.count_nonzero(closer, axis=1)
        ties &= np.cumsum(ties, axis=1) <= need[:, None]
        sel[surplus] = closer | ties
    return np.nonzero(sel)[1].reshape(-1, k)


def _predict_knn(model: FittedModel, x: np.ndarray) -> np.ndarray:
    """The mean label of each row's k nearest training rows.  Finite labels
    can still have a mean that overflows: that raises :class:`FitError`
    naming the model's regime, with numpy's warnings off."""
    train = model.params["train_x_std"]
    labels = model.params["train_y"]
    k = model.params["k"]
    n, d = train.shape
    block = max(1, _KNN_SCRATCH // (n * (d if d > _KNN_COLUMNWISE_MAX_DIM else 1)))
    out = np.empty(x.shape[0])
    buffers = np.empty((2, min(block, x.shape[0]), n))
    with np.errstate(over="ignore", invalid="ignore"):
        queries = (x - model.params["mean"]) / model.params["sd"]
        for start in range(0, queries.shape[0], block):
            chunk = queries[start : start + block]
            dist, scratch = buffers[:, : chunk.shape[0]]
            dist_sq = _knn_distances(chunk, train, dist, scratch)
            # Average in canonical index order so equal neighbor sets produce
            # bitwise-equal means (k = n then gives the global mean everywhere).
            out[start : start + block] = labels[_knn_nearest(dist_sq, scratch, k)].mean(axis=1)
    finite = np.isfinite(out)
    if not finite.all():
        row = int(np.argmin(finite))
        raise FitError(
            f"regime {model.regime}: knn prediction is {out[row]} at row {row}; "
            f"the mean of the {k} nearest labels overflows float64"
        )
    return out


# ---------------------------------------------------------------------------
# mlp

# activation -> (forward, which overwrites the pre-activation z with the
# activation h and returns it, derivative read off h alone).  relu's h > 0
# holds exactly where z > 0 does, NaN, -0.0 and 0.0 included.
_ACT = {
    "tanh": (lambda z: np.tanh(z, out=z), lambda h: 1.0 - h**2),
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda h: h > 0.0),
    "identity": (lambda z: z, np.ones_like),
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


# The mlp kernels below run a stack of networks of one architecture side by
# side, each on its own rows.  Every weight is (s, fan_in, fan_out) and
# every bias (s, fan_out) for a stack of s, except the first layer's weight:
# the networks' inputs may differ in width, so the input comes in blocks of
# consecutive networks of one width, each (s_g, rows, d_g), and the first
# weight in matching (s_g, d_g, fan_out) blocks.  Every matrix product is
# then one numpy call per layer (per block for the first), with the shapes
# and memory layout a lone network's product has, so numpy picks the same
# BLAS kernel and each network gets the same bits as it would alone.


def _mlp_forward(params: list[tuple], activation: str, xs: list[np.ndarray]) -> list:
    """Every layer of the stack ``params`` on the input blocks ``xs``: ``xs``
    itself, each hidden activation, then the (s, rows, 1) output.  Each
    activation is computed over its pre-activation, so a pass keeps one
    array per layer."""
    act, _ = _ACT[activation]
    (w0, b0), *rest = params
    z = np.empty((len(b0), xs[0].shape[1], b0.shape[1]))
    start = 0
    for x, w in zip(xs, w0):
        np.matmul(x, w, out=z[start : start + len(x)])
        start += len(x)
    # In place: the same sums as z + b, without a second array of z's size.
    z += b0[:, None, :]
    post: list = [xs]
    for w, b in rest:
        h = act(z)
        post.append(h)
        z = h @ w
        z += b[:, None, :]
    post.append(z)
    return post


def _mlp_gradients(
    params: list[tuple], activation: str, xs: list[np.ndarray], y: np.ndarray, grads: list[tuple]
) -> np.ndarray:
    """Write the analytic mean-squared-error gradient of every parameter of
    the stack into ``grads``, shaped like ``params``, each network's on its
    own labels (a row of the (s, rows) ``y``); return the residuals."""
    _, dact = _ACT[activation]
    post = _mlp_forward(params, activation, xs)
    resid = post[-1][..., 0] - y
    delta = (2.0 / y.shape[-1]) * resid[..., None]
    for i in range(len(params) - 1, 0, -1):
        gw, gb = grads[i]
        np.matmul(post[i].swapaxes(1, 2), delta, out=gw)
        np.add.reduce(delta, axis=1, out=gb)
        delta = delta @ params[i][0].swapaxes(1, 2)
        delta *= dact(post[i])
    gw0, gb0 = grads[0]
    np.add.reduce(delta, axis=1, out=gb0)
    start = 0
    for x, gw in zip(xs, gw0):
        np.matmul(x.swapaxes(1, 2), delta[start : start + len(x)], out=gw)
        start += len(x)
    return resid


def _stack_of_one(layers: list[tuple[np.ndarray, np.ndarray]]) -> list[tuple]:
    """One network's (w, b) layers as a stack of one: views, not copies."""
    (w0, b0), *rest = layers
    return [([w0[None]], b0[None]), *((w[None], b[None]) for w, b in rest)]


def mlp_predict_params(
    params: list[tuple[np.ndarray, np.ndarray]], activation: str, x: np.ndarray
) -> np.ndarray:
    return _mlp_forward(_stack_of_one(params), activation, [x[None]])[-1][0, :, 0]


def mlp_loss_and_gradients(
    params: list[tuple[np.ndarray, np.ndarray]],
    activation: str,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean-squared-error loss and its analytic gradient for every parameter."""
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in params]
    resid = _mlp_gradients(
        _stack_of_one(params), activation, [x[None]], y[None], _stack_of_one(grads)
    )
    return float(np.mean(resid**2)), grads


# An epoch loss above this multiple of the larger of mean(y^2) and the
# loss at initialization counts as divergence.  A diverging fit passes the
# bound within an epoch or two (1e8 against mean(y^2) = 7 after one epoch
# at learning_rate 5.0), while the worst seen spike of a healthy fit stays
# near Var(y).  The initial loss keeps the bound positive when the labels
# are all zero.
_MLP_DIVERGENCE_FACTOR = 1e6


def _mlp_loss(layers: list[tuple[np.ndarray, np.ndarray]], activation: str, x, y) -> float:
    return float(np.mean((mlp_predict_params(layers, activation, x) - y) ** 2))


def _train_mlp(
    spec: ModelSpec, regimes: tuple[str, ...], x_blocks: list[np.ndarray], y: np.ndarray
) -> list[tuple[dict, dict]]:
    """Train a stack of networks, one per regime and row of the (s, n)
    labels ``y``, on the input blocks ``x_blocks`` (see ``_mlp_forward``),
    each network's rows in its canonical order: an SGD step is one set of
    numpy calls for all of them.

    Every network draws the ``mlp/init`` weights for its input width and
    takes the same ``mlp/batches`` permutations, and gets the same bits
    whatever else the stack holds.  Each epoch's full-data loss is computed
    one network at a time.  Training stops at the first network whose
    epoch loss crosses its divergence bound (the earliest epoch, then
    regime order within it) with a :class:`FitError` naming its regime.
    """
    s, n = y.shape
    lr = spec.learning_rate
    sizes = [*spec.widths, 1]
    shapes = [(len(x), x.shape[2], sizes[0]) for x in x_blocks] + [(s, sizes[0])]
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        shapes += [(s, fan_in, fan_out), (s, fan_out)]
    # Parameters and gradients each live in one buffer, so a step updates
    # every layer of every network with one multiply and one subtraction,
    # elementwise the same arithmetic as w - lr * gw.
    ends = np.cumsum([math.prod(shape) for shape in shapes])  # where each array ends
    flat = np.empty(ends[-1])
    grad_flat = np.empty_like(flat)
    stacks = []
    for buffer in (flat, grad_flat):
        arrays = [a.reshape(shape) for a, shape in zip(np.split(buffer, ends[:-1]), shapes)]
        first = (arrays[: len(x_blocks)], arrays[len(x_blocks)])
        rest = arrays[len(x_blocks) + 1 :]
        stacks.append([first, *zip(rest[::2], rest[1::2])])
    params, grads = stacks
    # Each network's own inputs and layers, the layers as views into the stack.
    inputs, nets = [], []
    for w0, x in zip(params[0][0], x_blocks):
        for j in range(len(x)):
            r = len(nets)
            net = [(w0[j], params[0][1][r]), *((w[r], b[r]) for w, b in params[1:])]
            for (w, b), (w_init, b_init) in zip(net, mlp_init_params(spec, x.shape[2])):
                w[...] = w_init
                b[...] = b_init
            inputs.append(x[j])
            nets.append(net)
    bounds = [
        _MLP_DIVERGENCE_FACTOR
        * max(float(np.mean(y_r**2)), _mlp_loss(net, spec.activation, x, y_r))
        for net, x, y_r in zip(nets, inputs, y)
    ]
    shuffler = rng_for(spec.init_seed, "mlp/batches")
    epoch_losses: list[list[float]] = [[] for _ in nets]
    iterations = 0
    for epoch in range(1, spec.epochs + 1):
        perm = shuffler.permutation(n)
        for start in range(0, n, spec.batch_size):
            rows = perm[start : start + spec.batch_size]
            # take, not x[:, rows], whose result is not C-ordered: each
            # network's batch must be laid out as a lone network's x[rows] is.
            batch = [x.take(rows, axis=1) for x in x_blocks]
            _mlp_gradients(params, spec.activation, batch, y.take(rows, axis=1), grads)
            grad_flat *= lr
            flat -= grad_flat
            iterations += 1
        for r, net in enumerate(nets):
            loss = _mlp_loss(net, spec.activation, inputs[r], y[r])
            if not loss <= bounds[r]:
                raise FitError(
                    f"regime {regimes[r]}: mlp training loss {loss:.6g} after epoch {epoch} "
                    f"of {spec.epochs} is non-finite or above the divergence bound "
                    f"{bounds[r]:.6g}; learning_rate {lr} diverges on this data"
                )
            epoch_losses[r].append(loss)
    return [
        (
            {"layers": net},
            {"final_loss": losses[-1], "iterations": iterations, "epoch_losses": losses},
        )
        for net, losses in zip(nets, epoch_losses)
    ]


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

    Runs at the spec's initial parameters on the full probe batch, perturbing
    each parameter in place and restoring it before the next.
    """
    if spec.family != "mlp":
        raise InvalidSpecError("check_gradients applies to the mlp family only")
    x, y = _check_training_arrays(x, y)
    params = mlp_init_params(spec, x.shape[1])
    _, analytic = mlp_loss_and_gradients(params, spec.activation, x, y)
    pairs = [(a, g) for layer, grads in zip(params, analytic) for a, g in zip(layer, grads)]
    max_rel = 0.0
    for a, g in pairs:
        for i in np.ndindex(a.shape):
            value = a[i]
            a[i] = value + step
            up = _mlp_loss(params, spec.activation, x, y)
            a[i] = value - step
            down = _mlp_loss(params, spec.activation, x, y)
            a[i] = value
            fd = (up - down) / (2.0 * step)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            max_rel = max(max_rel, abs(fd - g[i]) / denom)
    n_parameters = sum(a.size for a, _ in pairs)
    return GradientCheckReport(max_relative_deviation=max_rel, n_parameters=n_parameters)


# ---------------------------------------------------------------------------
# uniform contract

# The trainable families as (fit one view, predict); an mlp trains in ``_fit_stack``.
_FAMILIES = {
    "ridge": (_fit_ridge, _predict_ridge),
    "knn": (_fit_knn, _predict_knn),
    "mlp": (None, _predict_mlp),
}


def _training_view(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked, non-empty training arrays in canonical row order."""
    x, y = _check_training_arrays(x, y)
    if x.shape[0] < 1:
        raise FitError("training data is empty")
    order = canonical_row_order(x, y)
    return x[order], y[order]


def _trained(train, spec: ModelSpec, *args):
    """``train(spec, *args)`` with numpy's overflow and invalid-value
    warnings off: an overflow is refused, not warned about.  An mlp stack
    is judged by its epoch loss against its divergence bound as it trains;
    a ridge or knn fit, here, by its first parameter that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = train(spec, *args)
    if spec.family != "mlp":
        for name, value in out[0].items():
            if not np.isfinite(value).all():
                raise FitError(f"{spec.family} fit gave a non-finite {name}")
    return out


def _fit_stack(spec: ModelSpec, regimes: tuple[str, ...], views) -> dict[str, FittedModel]:
    """Train an mlp on each regime's (x, y) view as one stack (see
    ``_train_mlp`` and ``_trained``), in input blocks of consecutive views
    of one width."""
    blocks, ys = [], []
    for regime, (x, y) in zip(regimes, views):
        with naming(f"regime {regime}"):
            x, y = _training_view(x, y)
            if len(y) < spec.batch_size:
                raise FitError(
                    f"mlp needs at least batch_size={spec.batch_size} training rows, got {len(y)}"
                )
        if not blocks or blocks[-1][-1].shape[1] != x.shape[1]:
            blocks.append([])
        blocks[-1].append(x)
        ys.append(y)
    stack = [np.stack(block) for block in blocks], np.stack(ys)
    del blocks, ys, x, y  # only the stack is held while it trains
    trained = _trained(_train_mlp, spec, regimes, *stack)
    # A first weight matrix has a row per input column.
    return {
        regime: FittedModel(spec, regime, p["layers"][0][0].shape[0], p, diagnostics)
        for regime, (p, diagnostics) in zip(regimes, trained)
    }


def fit(spec: ModelSpec, x: np.ndarray, y: np.ndarray, regime: str = "OO") -> FittedModel:
    """Fit the spec on the rows ``(x, y)``, taken in canonical row order, as
    the training regime ``regime``; a failed fit names the regime.  An mlp
    trains as a stack of one (see ``_fit_stack``)."""
    if regime not in _REGIME_FIELDS:
        raise InvalidSpecError(f"unknown training regime {regime!r}")
    if spec.family == "mlp":
        return _fit_stack(spec, (regime,), [(x, y)])[regime]
    fit_family, _ = _FAMILIES[spec.family]
    with naming(f"regime {regime}"):
        x, y = _training_view(x, y)
        params, diagnostics = _trained(fit_family, spec, x, y)
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


def fit_regimes(
    bundle: SampleBundle, spec: ModelSpec, regimes: tuple[str, ...] = tuple(_REGIME_FIELDS)
) -> dict[str, FittedModel]:
    """Fit the spec on the bundle's selected rows under each of the regimes
    a study fits, keyed by regime in the order given.  Each regime's view
    is OO's (x_observed, y_observed), TO's (x_true, y_observed) or TT's
    (x_true, y_true).  A failed fit names the sample and the regime.

    The mlp trains the regimes as one stack (see ``_fit_stack``), and knn
    fits them one at a time through ``fit``.  ridge fits them one at a time
    in the order given, and regimes on one feature view (TO and TT) share
    its canonical order and design (``_fit_ridge``) unless the order needs
    the labels (a first column with ties).  Every model gets the bits a
    lone ``fit`` gives it."""
    if not regimes or not set(regimes) <= _REGIME_FIELDS.keys():
        raise InvalidSpecError(f"training regimes must be among OO, TO, TT, got {regimes!r}")
    rows = bundle.selected

    def view(regime: str) -> tuple[np.ndarray, np.ndarray]:
        x_name, y_name = _REGIME_FIELDS[regime]
        return getattr(bundle, x_name)[rows], getattr(bundle, y_name)[rows]

    with naming(f"sample {bundle.label}"):
        if spec.family == "mlp":
            return _fit_stack(spec, regimes, map(view, regimes))
        if spec.family == "knn":
            return {regime: fit(spec, *view(regime), regime) for regime in regimes}
        # feature field -> (rows in canonical order, the order, a list holding
        # their design), or (rows, None, None) when the order needs the labels
        fitted, features = {}, {}
        for regime in regimes:
            x_name, y_name = _REGIME_FIELDS[regime]
            y = getattr(bundle, y_name)[rows]
            with naming(f"regime {regime}"):
                if x_name not in features:
                    x = getattr(bundle, x_name)[rows]
                    order = _label_free_order(x)
                    features[x_name] = (x, None, None) if order is None else (x[order], order, [])
                x, order, shared = features[x_name]
                if order is None:
                    x, y = _training_view(x, y)
                else:
                    y = y[order]
                params, diagnostics = _trained(_fit_ridge, spec, x, y, shared)
            fitted[regime] = FittedModel(spec, regime, x.shape[1], params, diagnostics)
        return fitted


def refit_regimes(
    bundle: SampleBundle, spec: ModelSpec, fitted: dict[str, FittedModel], base: SampleBundle
) -> dict[str, FittedModel]:
    """``fit_regimes(bundle, spec, tuple(fitted))`` given ``fitted``, the same
    regimes fitted on ``base``, a sample that shares arrays with ``bundle``
    (``worldgen.resampler``).  A regime whose training arrays are all base's
    own keeps its model; the rest are fitted again, in ``fitted``'s order.
    Returns ``fitted`` itself when nothing is refitted."""
    stale = tuple(
        regime
        for regime in fitted
        if any(getattr(bundle, name) is not getattr(base, name) for name in _REGIME_FIELDS[regime])
    )
    return {**fitted, **fit_regimes(bundle, spec, stale)} if stale else fitted


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
    spec = spec_from_config(ModelSpec, doc["spec"], "spec")
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
