import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import errorlab as el
from errorlab import models, worldgen
from errorlab.errors import DimensionError, InvalidSpecError, SingularSystemError
from errorlab.models import ModelSpec, check_gradients, fit, fit_regimes, predict
from errorlab.seeding import rng_for

from conftest import make_world


# ---------------------------------------------------------------------------
# ridge


def test_ridge_recovers_exact_line():
    x = np.arange(1.0, 6.0).reshape(-1, 1)
    model = fit(ModelSpec(family="ridge", lam=0.0), x, 2.0 * x[:, 0])
    assert abs(model.params["coef"][0] - 2.0) < 1e-10
    assert abs(model.params["intercept"]) < 1e-10
    assert abs(predict(model, np.array([[10.0]]))[0] - 20.0) < 1e-8


def test_ridge_penalty_shrinks_coefficient():
    x = np.arange(1.0, 6.0).reshape(-1, 1)
    loose = fit(ModelSpec(family="ridge", lam=0.0), x, 2.0 * x[:, 0])
    tight = fit(ModelSpec(family="ridge", lam=50.0), x, 2.0 * x[:, 0])
    assert tight.params["coef"][0] < loose.params["coef"][0]


def test_ridge_singular_design_raises():
    rng = rng_for(5, "singular")
    col = rng.standard_normal(20)
    x = np.column_stack([col, col])  # duplicated feature
    with pytest.raises(SingularSystemError):
        fit(ModelSpec(family="ridge", lam=0.0), x, rng.standard_normal(20))
    # Any positive penalty makes the same system solvable.
    fit(ModelSpec(family="ridge", lam=1e-6), x, rng.standard_normal(20))


# ---------------------------------------------------------------------------
# knn


def test_knn_k1_returns_training_label_exactly():
    rng = rng_for(6, "knn1")
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    model = fit(ModelSpec(family="knn", k=1), x, y)
    preds = predict(model, x)
    assert np.array_equal(np.sort(preds), np.sort(y))
    assert predict(model, x[3:4])[0] == y[3]


def test_knn_equidistant_neighbors_average():
    x = np.array([[0.0], [2.0]])
    y = np.array([1.0, 3.0])
    model = fit(ModelSpec(family="knn", k=2), x, y)
    assert predict(model, np.array([[1.0]]))[0] == pytest.approx(2.0)
    # k=1 with an exact tie resolves to the lower canonical (sorted) row.
    tie = fit(ModelSpec(family="knn", k=1), x, y)
    assert predict(tie, np.array([[1.0]]))[0] == 1.0


def test_knn_k_equals_n_predicts_global_mean():
    rng = rng_for(7, "knncap")
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    model = fit(ModelSpec(family="knn", k=40), x, y)
    preds = predict(model, rng.standard_normal((10, 3)))
    assert np.all(preds == preds[0])
    assert preds[0] == pytest.approx(np.mean(y), rel=1e-12)


def test_knn_requires_enough_rows():
    with pytest.raises(el.errors.FitError):
        fit(ModelSpec(family="knn", k=5), np.zeros((3, 1)), np.zeros(3))


# ---------------------------------------------------------------------------
# mlp


def test_mlp_learns_sine():
    # Pilot run of this exact spec reached training MSE 0.00358.
    rng = rng_for(77, "pilot/sin")
    x = rng.uniform(-np.pi, np.pi, (500, 1))
    y = np.sin(x[:, 0])
    spec = ModelSpec(
        family="mlp",
        widths=(16,),
        activation="tanh",
        learning_rate=0.05,
        epochs=300,
        batch_size=32,
        init_seed=3,
    )
    model = fit(spec, x, y)
    assert model.diagnostics["final_loss"] < 0.01


def test_mlp_loss_decreases_on_average():
    rng = rng_for(78, "mlp-mono")
    x = rng.standard_normal((200, 2))
    y = x[:, 0] - 0.5 * x[:, 1]
    spec = ModelSpec(family="mlp", widths=(8,), learning_rate=0.03, epochs=60, batch_size=25)
    model = fit(spec, x, y)
    losses = np.asarray(model.diagnostics["epoch_losses"])
    assert losses[-1] < losses[0]
    # Documented tolerance: most epoch-to-epoch steps go down.
    assert np.mean(np.diff(losses) <= 0) >= 0.6


def test_gradient_check_small_network():
    rng = rng_for(9, "gradcheck")
    x = rng.standard_normal((10, 2))
    y = rng.standard_normal(10)
    spec = ModelSpec(family="mlp", widths=(4,), activation="tanh", init_seed=5)
    report = check_gradients(spec, x, y, step=1e-6)
    assert report.max_relative_deviation < 1e-5
    assert report.n_parameters == 2 * 4 + 4 + 4 + 1


def test_gradient_check_rejects_other_families():
    with pytest.raises(InvalidSpecError):
        check_gradients(ModelSpec(family="ridge"), np.zeros((4, 1)), np.zeros(4))


def test_zero_inputs_give_zero_weight_gradients():
    params = [
        (np.zeros((2, 3)), np.zeros(3)),
        (np.zeros((3, 1)), np.zeros(1)),
    ]
    x = np.zeros((6, 2))
    y = np.ones(6)
    _, grads = models.mlp_loss_and_gradients(params, "tanh", x, y)
    assert np.all(grads[0][0] == 0.0)  # weight gradients see zero inputs
    assert np.all(grads[1][0] == 0.0)  # hidden activations are zero too
    assert np.any(grads[1][1] != 0.0)  # output bias still feels the residual


def test_single_linear_layer_gradient_is_least_squares_formula():
    rng = rng_for(10, "linear-grad")
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    w = rng.standard_normal((3, 1))
    b = rng.standard_normal(1)
    _, grads = models.mlp_loss_and_gradients([(w, b)], "identity", x, y)
    resid = x @ w[:, 0] + b[0] - y
    expected_w = (2.0 / 12) * x.T @ resid
    expected_b = (2.0 / 12) * resid.sum()
    np.testing.assert_allclose(grads[0][0][:, 0], expected_w, rtol=1e-12)
    assert grads[0][1][0] == pytest.approx(expected_b, rel=1e-12)


def test_linear_mlp_matches_ridge_closed_form():
    rng = rng_for(78, "pilot/lin")
    x = rng.standard_normal((200, 2))
    y = 1.3 * x[:, 0] - 0.7 * x[:, 1] + 0.5 + 0.3 * rng.standard_normal(200)
    ridge = fit(ModelSpec(family="ridge", lam=0.0), x, y)
    gd = fit(
        ModelSpec(family="mlp", widths=(), learning_rate=0.05, epochs=400, batch_size=200),
        x,
        y,
    )
    w = gd.params["layers"][0][0][:, 0]
    b = gd.params["layers"][0][1][0]
    np.testing.assert_allclose(w, ridge.params["coef"], atol=1e-4)
    assert abs(b - ridge.params["intercept"]) < 1e-4


# ---------------------------------------------------------------------------
# shared contract


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(family="ridge", lam=0.1),
        ModelSpec(family="knn", k=3),
        ModelSpec(family="mlp", widths=(6,), epochs=15, batch_size=16, learning_rate=0.03),
    ],
    ids=["ridge", "knn", "mlp"],
)
def test_fit_invariant_to_row_permutation(spec):
    rng = rng_for(11, f"perm/{spec.family}")
    x = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    perm = rng.permutation(60)
    grid = rng.standard_normal((20, 3))
    direct = predict(fit(spec, x, y), grid)
    shuffled = predict(fit(spec, x[perm], y[perm]), grid)
    assert np.array_equal(direct, shuffled)


def test_predict_dimension_mismatch():
    rng = rng_for(13, "dims")
    model = fit(ModelSpec(family="ridge"), rng.standard_normal((8, 2)), rng.standard_normal(8))
    with pytest.raises(DimensionError):
        predict(model, np.zeros((3, 5)))


def test_oracle_matches_true_function_bitwise(noisy_world):
    # The oracle is world.f_star: evaluated on a batch, each row has the
    # bits it has when evaluated alone.
    x = worldgen.draw_inputs(noisy_world, 200, "oracle-probe")
    expected = np.array([noisy_world.f_star.values(row[None, :])[0] for row in x])
    assert np.array_equal(noisy_world.f_star.values(x), expected)


def test_regimes_coincide_without_corruption(noiseless_world):
    bundle = el.sample(noiseless_world, 200, "reg-eq")
    regimes = fit_regimes(bundle, ModelSpec(family="ridge", lam=0.0))
    grid = worldgen.draw_inputs(noiseless_world, 100, "reg-grid")
    oo = predict(regimes["OO"], grid)
    to = predict(regimes["TO"], grid)
    tt = predict(regimes["TT"], grid)
    np.testing.assert_allclose(oo, to, atol=1e-9)
    np.testing.assert_allclose(to, tt, atol=1e-9)


def test_regime_mse_ordering_under_feature_noise():
    # Monte Carlo ordering: cleaner training data can only help on average.
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [2.0, -1.0]},
        feature_noise={"cov": 1.0},
    )
    spec = ModelSpec(family="ridge", lam=0.0)
    grid = worldgen.draw_inputs(world, 1000, "ord/grid")
    y_grid = world.f_star.values(grid) + worldgen.draw_aleatoric(world, grid, "ord/grid")
    mse = {"OO": [], "TO": [], "TT": []}
    for r in range(200):
        bundle = el.sample(world, 200, f"ord/rep{r}")
        regimes = fit_regimes(bundle, spec)
        x_obs = worldgen.observe_features(world, grid, f"ord/rep{r}/test")
        mse["OO"].append(np.mean((predict(regimes["OO"], x_obs) - y_grid) ** 2))
        mse["TO"].append(np.mean((predict(regimes["TO"], grid) - y_grid) ** 2))
        mse["TT"].append(np.mean((predict(regimes["TT"], grid) - y_grid) ** 2))
    for worse, better in (("OO", "TO"), ("TO", "TT")):
        diff = np.asarray(mse[worse]) - np.asarray(mse[better])
        z = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
        assert z > 3.0, f"expected MSE({better}) <= MSE({worse}) on average, z={z:.2f}"


def test_oracle_regime_mse_matches_noise_floor():
    world = make_world(target_noise={}, feature_noise={})
    bundle = el.sample(world, 100_000, "oracle-floor")
    mse = np.mean((world.f_star.values(bundle.x_true) - bundle.y_true) ** 2)
    assert abs(mse - 0.25) / 0.25 < 0.05


def test_fit_errors_are_labeled_by_regime():
    world = make_world(
        x={"kind": "gaussian", "dim": 2},
        f_star={"family": "linear", "coefficients": [1.0, 1.0]},
        feature_noise={"cov": 0.0, "coarsen": [100.0, 100.0]},
    )
    # Coarsening this hard collapses both observed columns to one value, so
    # the OO design is rank deficient while TO/TT stay fine.
    bundle = el.sample(world, 100, "regime-err")
    with pytest.raises(SingularSystemError, match="regime OO"):
        fit_regimes(bundle, ModelSpec(family="ridge", lam=0.0))


@pytest.mark.parametrize(
    "spec, x, y, message",
    [
        # Finite labels whose mean overflows.
        (ModelSpec(family="ridge"), [[0.0], [1.0], [2.0]], [1.7e308] * 3, "coef"),
        # Finite inputs whose standard deviation overflows.
        (ModelSpec(family="knn", k=1), [[-1e308], [0.0], [1e308]], [0.0] * 3, "sd"),
    ],
    ids=["ridge", "knn"],
)
def test_fit_refuses_a_non_finite_parameter(spec, x, y, message):
    with pytest.raises(el.errors.FitError) as info:
        fit(spec, np.array(x), np.array(y), "TO")
    assert str(info.value) == f"regime TO: {spec.family} fit gave a non-finite {message}"


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(family="ridge", lam=0.5),
        ModelSpec(family="knn", k=4),
        ModelSpec(family="mlp", widths=(5,), epochs=10, batch_size=16),
    ],
    ids=["ridge", "knn", "mlp"],
)
def test_model_json_roundtrip_preserves_predictions(spec):
    rng = rng_for(12, f"json/{spec.family}")
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal(40)
    model = fit(spec, x, y, regime="TT")
    text = models.model_to_json(model)
    doc = json.loads(text)
    assert doc["schema_version"] == models.MODEL_JSON_VERSION
    restored = models.model_from_json(text)
    grid = rng.standard_normal((15, 2))
    assert np.array_equal(predict(model, grid), predict(restored, grid))
    assert restored.regime == "TT"


MLP_SMALL = ModelSpec(family="mlp", widths=(5,), epochs=2)


@pytest.mark.parametrize(
    "spec, edit, key",
    [
        (ModelSpec(family="ridge"), lambda doc: doc.update(input_dim=5), "params.coef"),
        (ModelSpec(family="ridge"), lambda doc: doc["params"]["coef"].pop(), "params.coef"),
        (ModelSpec(family="knn", k=4), lambda doc: doc["params"]["sd"].pop(), "params.sd"),
        (
            ModelSpec(family="knn", k=4),
            lambda doc: doc["params"]["train_y"].pop(),
            "params.train_x_std",
        ),
        (MLP_SMALL, lambda doc: doc.update(input_dim=3), "params.layers[0]"),
        (MLP_SMALL, lambda doc: doc["params"]["layers"][1][0].pop(), "params.layers[1]"),
        (MLP_SMALL, lambda doc: doc["params"]["layers"].pop(), "params.layers[0]"),
    ],
    ids=["ridge-dim", "ridge-coef", "knn-sd", "knn-rows", "mlp-dim", "mlp-chain", "mlp-depth"],
)
def test_model_json_whose_shapes_do_not_fit_is_rejected_on_load(spec, edit, key):
    # A document whose arrays do not fit its input_dim and widths would load
    # and fail only in predict, with a bare numpy error.
    rng = rng_for(12, "json/shapes")
    model = fit(spec, rng.standard_normal((40, 2)), rng.standard_normal(40))
    doc = json.loads(models.model_to_json(model))
    edit(doc)
    with pytest.raises(InvalidSpecError, match=re.escape(key)):
        models.model_from_json(json.dumps(doc))


@pytest.mark.parametrize("family", ["oracle", "lasso"])
def test_model_json_naming_no_trainable_family_is_rejected_on_load(family):
    rng = rng_for(12, "json/family")
    model = fit(ModelSpec(family="ridge"), rng.standard_normal((20, 2)), rng.standard_normal(20))
    doc = json.loads(models.model_to_json(model))
    doc["spec"]["family"] = family
    with pytest.raises(InvalidSpecError, match="model.family: unknown family"):
        models.model_from_json(json.dumps(doc))


def test_fit_rejects_the_oracle_regime():
    # ORACLE fits nothing (it is world.f_star), so no fit may carry its tag.
    rng = rng_for(12, "fit/oracle")
    x, y = rng.standard_normal((20, 2)), rng.standard_normal(20)
    with pytest.raises(InvalidSpecError, match="unknown training regime 'ORACLE'"):
        fit(ModelSpec(), x, y, regime="ORACLE")


@pytest.mark.parametrize("regime", ["ORACLE", "XX", None, ["OO"]])
def test_model_json_naming_no_training_regime_is_rejected_on_load(regime):
    rng = rng_for(12, "json/regime")
    model = fit(ModelSpec(family="ridge"), rng.standard_normal((20, 2)), rng.standard_normal(20))
    doc = json.loads(models.model_to_json(model))
    doc["regime"] = regime
    with pytest.raises(InvalidSpecError, match="unknown training regime"):
        models.model_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# kernel references: the stable-argsort knn and the list-rebuilding mlp
# loop.  The kernels in ``models`` do the same arithmetic with less work,
# so they must match these bit for bit.


def _reference_knn(model, x):
    # Row-major whatever layout the model holds (a fit stores it
    # column-major): np.sum's order along the broadcast temporary's last
    # axis follows the layout, and the reference fixes the pairwise order
    # along contiguous rows.
    train = np.ascontiguousarray(model.params["train_x_std"])
    labels = model.params["train_y"]
    k = model.params["k"]
    queries = (x - model.params["mean"]) / model.params["sd"]
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], 256):
        chunk = queries[start : start + 256]
        dist_sq = np.sum((chunk[:, None, :] - train[None, :, :]) ** 2, axis=2)
        nearest = np.argsort(dist_sq, axis=1, kind="stable")[:, :k]
        out[start : start + 256] = labels[np.sort(nearest, axis=1)].mean(axis=1)
    return out


_REFERENCE_ACT = {
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(float)),
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
}


def _reference_forward(params, activation, x):
    act, _ = _REFERENCE_ACT[activation]
    pre, post = [], [x]
    h = x
    for i, (w, b) in enumerate(params):
        z = h @ w + b
        pre.append(z)
        h = act(z) if i < len(params) - 1 else z
        post.append(h)
    return pre, post


def _reference_loss_and_gradients(params, activation, x, y):
    _, dact = _REFERENCE_ACT[activation]
    pre, post = _reference_forward(params, activation, x)
    resid = post[-1][:, 0] - y
    loss = float(np.mean(resid**2))
    delta = (2.0 / y.shape[0]) * resid[:, None]
    grads = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        grads[i] = (post[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ params[i][0].T) * dact(pre[i - 1])
    return loss, grads


def _reference_fit_mlp(spec, x, y):
    order = models.canonical_row_order(x, y)
    x = x[order]
    y = y[order]
    n = x.shape[0]
    params = models.mlp_init_params(spec, x.shape[1])
    shuffler = rng_for(spec.init_seed, "mlp/batches")
    epoch_losses = []
    iterations = 0
    for _ in range(spec.epochs):
        perm = shuffler.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            _, grads = _reference_loss_and_gradients(params, spec.activation, x[idx], y[idx])
            params = [
                (w - spec.learning_rate * gw, b - spec.learning_rate * gb)
                for (w, b), (gw, gb) in zip(params, grads)
            ]
            iterations += 1
        _, post = _reference_forward(params, spec.activation, x)
        epoch_losses.append(float(np.mean((post[-1][:, 0] - y) ** 2)))
    return params, epoch_losses, iterations


def _assert_knn_matches_reference(x, y, queries, k):
    model = fit(ModelSpec(family="knn", k=k), x, y)
    got = predict(model, queries)
    expected = _reference_knn(model, queries)
    assert got.shape == expected.shape == (queries.shape[0],)
    # Bitwise, NaN included: equal_nan alone would accept a NaN in place of
    # a finite value only if both sides held NaN there.
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # A loaded model holds its training matrix row-major, not as the fit
    # laid it out, and predicts the same bits.
    restored = models.model_from_json(models.model_to_json(model))
    assert np.array_equal(predict(restored, queries).view(np.int64), got.view(np.int64))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_knn_distances_match_broadcast_sum_bitwise(d):
    # Predictions depend on distances only through their order, so compare
    # the distances themselves too.
    rng = rng_for(39, f"knnref/dist{d}")
    train = rng.standard_normal((150, d)) * 10.0 ** rng.integers(-3, 4, d)
    chunk = rng.standard_normal((64, d))
    expected = np.sum((chunk[:, None, :] - train[None, :, :]) ** 2, axis=2)
    # A fit stores the training matrix column-major and a loaded model
    # row-major; the broadcast path's sum runs in one order for both.
    for layout in (np.asfortranarray(train), np.ascontiguousarray(train)):
        buffers = np.empty((2, 64, 150))
        got = models._knn_distances(chunk, layout, *buffers)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_knn_matches_argsort_reference_across_dims(d):
    rng = rng_for(40, f"knnref/d{d}")
    x = rng.standard_normal((150, d))
    y = rng.standard_normal(150)
    _assert_knn_matches_reference(x, y, rng.standard_normal((130, d)), k=10)


def test_knn_matches_reference_on_duplicates_and_training_queries():
    rng = rng_for(41, "knnref/dup")
    base = rng.standard_normal((40, 3))
    x = np.concatenate([base, base[:25], base[:10]])  # rows repeated up to 3 times
    y = rng.standard_normal(x.shape[0])
    queries = np.concatenate([x[::2], rng.standard_normal((20, 3))])
    for k in (1, 2, 3, 7):
        _assert_knn_matches_reference(x, y, queries, k)


@pytest.mark.parametrize("d", [2, 8])
def test_knn_matches_reference_on_grid_ties(d):
    # Integer-valued points on a small grid: most distances tie exactly.
    rng = rng_for(42, f"knnref/grid{d}")
    x = rng.integers(0, 3, (180, d)).astype(float)
    y = rng.standard_normal(180)
    queries = rng.integers(0, 3, (130, d)).astype(float) + rng.choice([0.0, 0.5], (130, d))
    for k in (1, 5, 17, 60):
        _assert_knn_matches_reference(x, y, queries, k)


@pytest.mark.parametrize("k", [1, 90])
def test_knn_matches_reference_at_k_extremes(k):
    rng = rng_for(43, f"knnref/k{k}")
    x = rng.standard_normal((90, 2))
    y = rng.standard_normal(90)
    _assert_knn_matches_reference(x, y, rng.standard_normal((70, 2)), k)


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 130])
def test_knn_matches_reference_across_chunk_boundaries(m):
    # 63, 64 and 65 straddled the old fixed 64-row chunk.  Against 100
    # training rows a block now holds _KNN_SCRATCH // 100 rows, so every m
    # here fits in one block; the budget's own boundaries are tested below.
    rng = rng_for(44, f"knnref/m{m}")
    x = rng.standard_normal((100, 3))
    y = rng.standard_normal(100)
    _assert_knn_matches_reference(x, y, rng.standard_normal((m, 3)), k=7)


# 3,000 training rows of dimension 3: a block holds this many query rows.
_BUDGET_ROWS = models._KNN_SCRATCH // 3000


@pytest.mark.parametrize(
    "m", [0, 1, _BUDGET_ROWS - 1, _BUDGET_ROWS, _BUDGET_ROWS + 1, 3 * _BUDGET_ROWS + 1]
)
def test_knn_matches_reference_across_budget_block_boundaries(m):
    assert 1 < _BUDGET_ROWS < 64
    rng = rng_for(46, f"knnref/budget{m}")
    x = rng.standard_normal((3000, 3))
    y = rng.standard_normal(3000)
    _assert_knn_matches_reference(x, y, rng.standard_normal((m, 3)), k=7)


def test_knn_matches_reference_in_a_block_mixing_surplus_ties_and_none():
    # Training rows on a 3 x 3 grid, 10 copies of each point, and a
    # continuous cluster far from it.  A grid query has 10 rows at its k-th
    # distance (0) for k = 5 places; a query in the cluster has no tie.
    # Interleaved, both kinds share every block.
    rng = rng_for(47, "knnref/mixed")
    grid = np.repeat(np.stack(np.meshgrid(range(3), range(3)), -1).reshape(-1, 2), 10, axis=0)
    x = np.concatenate([grid.astype(float), 10.0 + rng.standard_normal((90, 2))])
    y = rng.standard_normal(180)
    queries = np.empty((60, 2))
    queries[0::2] = rng.integers(0, 3, (30, 2))
    queries[1::2] = 10.0 + rng.standard_normal((30, 2))
    assert queries.shape[0] <= models._KNN_SCRATCH // 180
    k = 5
    model = fit(ModelSpec(family="knn", k=k), x, y)
    scaled = (queries - model.params["mean"]) / model.params["sd"]
    dist = np.sum((scaled[:, None, :] - model.params["train_x_std"][None]) ** 2, axis=2)
    kth = np.sort(dist, axis=1)[:, k - 1 : k]
    surplus = np.count_nonzero(dist <= kth, axis=1) > k
    assert surplus[0::2].all() and not surplus[1::2].any()
    _assert_knn_matches_reference(x, y, queries, k)


def test_knn_matches_reference_at_d9_under_the_budget():
    # The broadcast path's (rows, n, d) temporary counts against the budget:
    # against 3,000 rows of dimension 9 a block holds a single query row.
    assert models._KNN_SCRATCH // (3000 * 9) <= 1
    rng = rng_for(48, "knnref/budget-d9")
    x = rng.standard_normal((3000, 9))
    y = rng.standard_normal(3000)
    _assert_knn_matches_reference(x, y, rng.standard_normal((5, 9)), k=10)


@pytest.mark.parametrize("scratch", [1, 7, 1 << 30])
@pytest.mark.parametrize("data", ["grid", "continuous"])
def test_knn_scratch_budget_does_not_change_predictions(monkeypatch, scratch, data):
    rng = rng_for(49, f"knnref/scratch-{data}")
    if data == "grid":
        x = rng.integers(0, 3, (180, 2)).astype(float)
        queries = rng.integers(0, 3, (70, 2)).astype(float) + rng.choice([0.0, 0.5], (70, 2))
    else:
        x = rng.standard_normal((180, 2))
        queries = rng.standard_normal((70, 2))
    y = rng.standard_normal(180)
    model = fit(ModelSpec(family="knn", k=17), x, y)
    default = predict(model, queries)
    monkeypatch.setattr(models, "_KNN_SCRATCH", scratch)
    assert np.array_equal(predict(model, queries).view(np.int64), default.view(np.int64))
    _assert_knn_matches_reference(x, y, queries, k=17)


@pytest.mark.parametrize("n, d", [(20_000, 3), (3000, 9)])
def test_knn_predict_memory_does_not_grow_with_the_training_set(n, d):
    # Two (64, n) float buffers would take 20 MB at n = 20,000.  The bound
    # leaves room for the two budget-sized blocks (256 kB each); predict
    # copies no training columns, as the fit stored them column-major.
    rng = rng_for(50, f"knnref/memory{n}x{d}")
    model = fit(ModelSpec(family="knn", k=10), rng.standard_normal((n, d)), rng.standard_normal(n))
    queries = rng.standard_normal((64, d))
    tracemalloc.start()
    try:
        predict(model, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, f"predict peaked at {peak / 2**20:.2f} MB"


def test_mlp_predict_keeps_one_array_per_layer():
    # Each hidden activation overwrites its pre-activation: one (10,000, 16)
    # layer (1.28 MB) and the output (0.08 MB).  Keeping the pre-activation
    # as well would take 2.64 MB.
    rng = rng_for(51, "mlp/predict-memory")
    spec = ModelSpec(family="mlp", widths=(16,), epochs=1)
    model = fit(spec, rng.standard_normal((64, 3)), rng.standard_normal(64))
    queries = rng.standard_normal((10_000, 3))
    tracemalloc.start()
    try:
        predict(model, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_600_000, f"predict peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_mlp_activation_derivative_from_the_activation_equals_the_pre_activation_formula(
    activation,
):
    z = np.array([-1.0, -0.0, 0.0, 5e-324, np.inf, -np.inf, np.nan])
    act, dact = models._ACT[activation]
    act_ref, dact_ref = _REFERENCE_ACT[activation]
    with np.errstate(invalid="ignore"):
        h = z.copy()
        assert act(h) is h  # the forward writes over its argument
        assert np.array_equal(h.view(np.int64), act_ref(z).view(np.int64))
        derivative = np.asarray(dact(h), dtype=float)
        expected = dact_ref(z)
    np.testing.assert_array_equal(derivative, expected)  # NaN positions must match


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_knn_matches_reference_on_non_finite_queries(bad):
    rng = rng_for(45, "knnref/nonfinite")
    x = rng.standard_normal((80, 2))
    y = rng.standard_normal(80)
    queries = rng.standard_normal((70, 2))
    queries[3, 0] = bad
    queries[66, 1] = bad
    with np.errstate(invalid="ignore"):
        _assert_knn_matches_reference(x, y, queries, k=5)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(family="mlp", widths=(6,), activation="tanh", epochs=4, batch_size=16),
        ModelSpec(family="mlp", widths=(6,), activation="relu", epochs=4, batch_size=16),
        ModelSpec(family="mlp", widths=(6,), activation="identity", epochs=4, batch_size=16),
        ModelSpec(family="mlp", widths=(5, 4), activation="tanh", epochs=3, batch_size=16),
        ModelSpec(family="mlp", widths=(5, 4), activation="relu", epochs=3, batch_size=7),
    ],
    ids=["tanh", "relu", "identity", "two-layer-tanh", "two-layer-relu"],
)
def test_mlp_fit_matches_list_rebuilding_reference(spec):
    rng = rng_for(46, f"mlpref/{spec.activation}/{len(spec.widths)}")
    x = rng.standard_normal((75, 3))  # 75 is not a multiple of either batch size
    y = np.sin(x[:, 0]) - 0.5 * x[:, 1] + 0.1 * rng.standard_normal(75)
    model = fit(spec, x, y)
    params, epoch_losses, iterations = _reference_fit_mlp(spec, x, y)
    assert model.diagnostics["iterations"] == iterations
    assert model.diagnostics["epoch_losses"] == epoch_losses
    assert model.diagnostics["final_loss"] == epoch_losses[-1]
    for (w, b), (w_ref, b_ref) in zip(model.params["layers"], params):
        assert np.array_equal(w, w_ref)
        assert np.array_equal(b, b_ref)


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_mlp_loss_and_gradients_match_reference(activation):
    rng = rng_for(47, f"mlpref/grad/{activation}")
    spec = ModelSpec(family="mlp", widths=(5, 4), activation=activation, init_seed=2)
    params = models.mlp_init_params(spec, 3)
    x = rng.standard_normal((21, 3))
    y = rng.standard_normal(21)
    loss, grads = models.mlp_loss_and_gradients(params, activation, x, y)
    loss_ref, grads_ref = _reference_loss_and_gradients(params, activation, x, y)
    assert loss == loss_ref
    for (gw, gb), (gw_ref, gb_ref) in zip(grads, grads_ref):
        assert np.array_equal(gw, gw_ref)
        assert np.array_equal(gb, gb_ref)


def test_divergent_mlp_raises_fit_error_naming_regime_and_epoch():
    rng = rng_for(48, "mlp/diverge")
    x = rng.standard_normal((100, 2))
    y = x[:, 0] + rng.standard_normal(100)
    spec = ModelSpec(family="mlp", widths=(16,), learning_rate=5.0, epochs=200)
    with pytest.raises(el.errors.FitError) as info:
        fit(spec, x, y, regime="TO")
    message = str(info.value)
    assert "regime TO" in message
    assert "non-finite" in message
    assert "after epoch" in message


def _bundle_scaling_features(x_true_scale, x_observed_scale):
    rng = rng_for(51, "mlp/diverge-stacked")
    x = rng.standard_normal((64, 3))
    y_true = x[:, 0] - x[:, 1] + 0.1 * rng.standard_normal(64)
    return worldgen.SampleBundle(
        x_true=x_true_scale * x,
        x_observed=x_observed_scale * x[:, :2],
        y_true=y_true,
        y_observed=y_true + 0.5 * rng.standard_normal(64),
        epsilon=np.zeros(64),
        selected=np.ones(64, dtype=bool),
        delta_y=np.zeros(64),
        delta_x=np.zeros((64, 3)),
        label="diverge",
    )


@pytest.mark.parametrize(
    "regime, x_true_scale, x_observed_scale, batch_size",
    [("TO", 100.0, 1.0, 32), ("OO", 1e6, 30.0, 16)],
    ids=["TO-and-TT", "OO-while-TO-and-TT-overflow"],
)
def test_stacked_mlp_regimes_name_the_diverging_regime_as_lone_fits_do(
    regime, x_true_scale, x_observed_scale, batch_size
):
    # Scaled features make SGD diverge at the default learning rate.  In the
    # first case x_true's scale makes TO and TT cross the bound in epoch 1.
    # In the second OO crosses it in epoch 1, the epoch in which TO and TT
    # overflow: of the networks that cross in the earliest epoch, the stack
    # names the first in regime order, and its overflow raises no warning
    # under the suite's RuntimeWarning filter.
    bundle = _bundle_scaling_features(x_true_scale, x_observed_scale)
    spec = ModelSpec(family="mlp", widths=(8,), activation="relu", epochs=5, batch_size=batch_size)
    x_name, y_name = models._REGIME_FIELDS[regime]
    with pytest.raises(el.errors.FitError) as lone:
        fit(spec, getattr(bundle, x_name), getattr(bundle, y_name), regime)
    with pytest.raises(el.errors.FitError) as stacked:
        fit_regimes(bundle, spec)
    assert str(stacked.value) == f"sample diverge: {lone.value}"
    assert str(lone.value).startswith(f"regime {regime}: mlp training loss ")
    assert "after epoch 1 of 5" in str(lone.value)


def test_stacked_mlp_names_the_first_network_to_cross_its_bound():
    # OO comes first in regime order, but a lone OO fit crosses the bound
    # in epoch 2 and a lone TO fit in epoch 1: the stack stops at TO's
    # crossing and words it as the lone TO fit does.
    bundle = _bundle_scaling_features(100.0, 10.0)
    spec = ModelSpec(family="mlp", widths=(8,), activation="relu", epochs=5, batch_size=32)
    with pytest.raises(el.errors.FitError) as lone_oo:
        fit(spec, bundle.x_observed, bundle.y_observed, "OO")
    with pytest.raises(el.errors.FitError) as lone_to:
        fit(spec, bundle.x_true, bundle.y_observed, "TO")
    with pytest.raises(el.errors.FitError) as stacked:
        fit_regimes(bundle, spec)
    assert "after epoch 2 of 5" in str(lone_oo.value)
    assert str(lone_to.value).startswith("regime TO: mlp training loss ")
    assert "after epoch 1 of 5" in str(lone_to.value)
    assert str(stacked.value) == f"sample diverge: {lone_to.value}"


def test_lone_mlp_fit_that_overflows_raises_fit_error_not_a_warning():
    # x_true scaled by 1e6 overflows TO's matrix products in epoch 1.  The
    # suite turns a RuntimeWarning into an error, so this passes only if a
    # lone fit trains with numpy's overflow warnings off, as a stack does.
    bundle = _bundle_scaling_features(1e6, 30.0)
    spec = ModelSpec(family="mlp", widths=(8,), activation="relu", epochs=5, batch_size=16)
    with pytest.raises(el.errors.FitError) as info:
        fit(spec, bundle.x_true, bundle.y_observed, "TO")
    message = str(info.value)
    assert message.startswith("regime TO: mlp training loss "), message
    assert "after epoch 1 of 5 is non-finite" in message


@pytest.mark.parametrize(
    "spec",
    [ModelSpec(family="ridge"), ModelSpec(family="mlp", widths=(4,), epochs=1)],
    ids=["ridge", "mlp"],
)
def test_fit_regimes_on_no_selected_rows_names_the_first_regime(spec):
    bundle = dataclasses.replace(
        _bundle_scaling_features(1.0, 1.0), selected=np.zeros(64, dtype=bool), label="empty"
    )
    with pytest.raises(el.errors.FitError) as info:
        fit_regimes(bundle, spec)
    assert str(info.value) == "sample empty: regime OO: training data is empty"


def test_finite_mlp_divergence_raises_at_the_bound():
    rng = rng_for(48, "mlp/diverge-finite")
    x = rng.standard_normal((100, 2))
    y = x[:, 0] + rng.standard_normal(100)
    spec = ModelSpec(family="mlp", widths=(8,), learning_rate=5.0, epochs=20)
    with pytest.raises(el.errors.FitError, match="divergence bound"):
        fit(spec, x, y, regime="TT")


@pytest.mark.parametrize("x_scale", [0.0, 1.0])
def test_mlp_divergence_bound_holds_on_all_zero_labels(x_scale):
    # mean(y^2) is 0 here; with all-zero inputs the loss stays exactly 0.
    x = x_scale * rng_for(50, "mlp/zero-labels").standard_normal((64, 2))
    y = np.zeros(64)
    model = fit(ModelSpec(family="mlp", widths=(8,), epochs=30), x, y)
    assert all(math.isfinite(loss) for loss in model.diagnostics["epoch_losses"])
    assert model.diagnostics["final_loss"] <= model.diagnostics["epoch_losses"][0]


def test_fit_regime_fits_each_regimes_training_data():
    world = make_world(selection={"rule": "probabilistic", "coverage": 0.6})
    bundle = el.sample(world, 50, "regime-view")
    spec = ModelSpec(family="ridge", lam=0.1)
    rows = bundle.selected
    assert 0 < rows.sum() < 50
    expected = {
        "OO": (bundle.x_observed[rows], bundle.y_observed[rows]),
        "TO": (bundle.x_true[rows], bundle.y_observed[rows]),
        "TT": (bundle.x_true[rows], bundle.y_true[rows]),
    }
    for regime, (x, y) in expected.items():
        # model_to_json round-trips floats exactly, so equal documents are
        # equal models bit for bit.
        (got,) = fit_regimes(bundle, spec, (regime,)).values()
        assert models.model_to_json(got) == models.model_to_json(fit(spec, x, y, regime))
        assert got.regime == regime
    assert list(fit_regimes(bundle, spec, ("TT", "OO"))) == ["TT", "OO"]
    for regimes in [("ORACLE",), ("OO", "ORACLE"), ()]:
        with pytest.raises(InvalidSpecError):
            fit_regimes(bundle, spec, regimes)


def test_model_json_spec_lists_every_model_spec_field():
    spec = ModelSpec(family="mlp", widths=(3, 2), epochs=2, batch_size=8, init_seed=4)
    rng = rng_for(49, "json/fields")
    model = fit(spec, rng.standard_normal((16, 2)), rng.standard_normal(16))
    doc = json.loads(models.model_to_json(model))
    assert doc["spec"] == {
        "activation": "tanh",
        "batch_size": 8,
        "epochs": 2,
        "family": "mlp",
        "init_seed": 4,
        "k": 5,
        "lam": 0.0,
        "learning_rate": 0.05,
        "widths": [3, 2],
    }
    assert models.model_from_json(models.model_to_json(model)).spec == spec
