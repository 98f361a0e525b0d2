"""Property tests of the fitting contract over random data and worlds: a
fit is a function of the set of training rows, not of their order, the
canonical row order equals the full ``np.lexsort`` whichever path computes
it, a sample's mlp regimes trained as one stack equal lone fits bit for
bit, the decomposition of every fit telescopes, and no study result or
seed ledger depends on the worker count."""

import dataclasses

import numpy as np
import pytest

import errorlab as el
from errorlab import models, parallel, seeding, worldgen
from errorlab.decomp import (
    BiasVarConfig,
    bias_variance_monte_carlo,
    check_telescoping,
    component_covariances,
    decompose_bundle,
)
from errorlab.errors import ErrorLabError
from errorlab.experiments import AxisLevel, CurveConfig, InformationAxis, run_learning_curve
from errorlab.models import (
    ModelSpec,
    canonical_row_order,
    fit,
    fit_regimes,
    model_to_json,
    predict,
)
from errorlab.worldgen import FeatureNoiseSpec
from test_models import _reference_fit_mlp

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SPECS = {
    "ridge": ModelSpec(family="ridge", lam=0.1),
    "knn": ModelSpec(family="knn", k=4),
    "mlp": ModelSpec(family="mlp", widths=(5,), epochs=3, batch_size=8, learning_rate=0.05),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(SPECS)),
    n=st.integers(min_value=8, max_value=40),
    d=st.integers(min_value=1, max_value=4),
    tied=st.sampled_from(["none", "all", "first"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fit_is_bitwise_invariant_under_row_permutation(family, n, d, tied, seed):
    rng = np.random.default_rng(seed)
    if tied == "all":
        # Few distinct values, so rows share features (and sometimes labels)
        # and the canonical order has to break ties.
        x = rng.integers(-1, 2, (n, d)).astype(float)
        y = rng.integers(0, 3, n).astype(float)
    elif tied == "first":
        # Ties in the first column only: the later columns (or, with one
        # column, the label) break them.
        x = rng.standard_normal((n, d))
        x[:, 0] = rng.integers(-1, 2, n)
        y = rng.standard_normal(n)
    else:
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
    perm = rng.permutation(n)
    grid = rng.standard_normal((7, d))
    spec = SPECS[family]
    direct = fit(spec, x, y)
    shuffled = fit(spec, x[perm], y[perm])
    # The JSON round-trips every float exactly and holds the parameters and
    # the training diagnostics (for mlp, every epoch's loss).
    assert model_to_json(direct) == model_to_json(shuffled)
    assert np.array_equal(predict(direct, grid), predict(shuffled, grid))


def _lexsort_reference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.lexsort((y,) + tuple(x[:, j] for j in range(x.shape[1] - 1, -1, -1)))


_ORDER_CASES = (
    "continuous",
    "first_tied",
    "all_tied",
    "signed_zero",
    "one_nan",
    "many_nan",
    "inf",
    "coarsened",
)


def _order_case(case: str, n: int, d: int, rng: np.random.Generator):
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n)

    def rows(k: int) -> np.ndarray:
        return rng.choice(n, size=min(k, n), replace=False)

    if case == "first_tied":
        x[:, 0] = rng.integers(0, max(1, n // 3), n)
    elif case == "all_tied":
        x = rng.integers(-1, 2, (n, d)).astype(float)
        y = rng.integers(0, 3, n).astype(float)
    elif case == "signed_zero":
        picked = rows(4)
        x[picked, 0] = [-0.0, 0.0, -0.0, 0.0][: picked.size]
    elif case == "one_nan":
        x[rows(1), 0] = np.nan
    elif case == "many_nan":
        x[rows(5), 0] = np.nan
        x[rows(3), d - 1] = np.nan
    elif case == "inf":
        picked = rows(int(rng.integers(1, 5)))
        x[picked, 0] = rng.choice([-np.inf, np.inf], picked.size)
    elif case == "coarsened":
        noise = FeatureNoiseSpec(
            means=(0.0,) * d,
            cov=np.eye(d) * 0.1,
            omit=(False,) * d,
            coarsen=(float(rng.choice([0.05, 0.5, 2.0])),) + (0.0,) * (d - 1),
        )
        x = noise.observe(x, noise.draw_delta(rng, n))
    return x, y


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(_ORDER_CASES),
    n=st.one_of(st.integers(1, 12), st.integers(1, 3000)),
    d=st.integers(1, 4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_canonical_row_order_equals_lexsort(case, n, d, seed):
    x, y = _order_case(case, n, d, np.random.default_rng(seed))
    assert np.array_equal(canonical_row_order(x, y), _lexsort_reference(x, y))


def test_canonical_row_order_uses_lexsort_only_on_a_first_column_tie(monkeypatch):
    calls = []
    lexsort = np.lexsort

    def counting_lexsort(keys):
        calls.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(models.np, "lexsort", counting_lexsort)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2500, 3))
    y = rng.standard_normal(2500)
    spec = SPECS["ridge"]
    fit(spec, x, y)
    assert calls == []
    x[7, 0] = x[1900, 0]
    fit(spec, x, y)
    assert calls == [4]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    widths=st.one_of(
        st.just(()),
        st.tuples(st.integers(1, 6)),
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
    ),
    activation=st.sampled_from(["tanh", "relu", "identity"]),
    batch_size=st.integers(2, 9),
    rows=st.sampled_from(["one batch", "ragged"]),
    d=st.integers(1, 4),
    oo=st.sampled_from(["narrower", "as wide"]),
    regimes=st.sets(st.sampled_from(list(models._REGIME_FIELDS)), min_size=1).map(
        lambda drawn: tuple(r for r in models._REGIME_FIELDS if r in drawn)
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# OO narrower than TT, with TO left out: two input blocks of one regime each.
@example((3,), "tanh", 4, "ragged", 2, "narrower", ("OO", "TT"), 0)
@example((3,), "relu", 5, "one batch", 3, "narrower", ("OO", "TO"), 1)
def test_stacked_mlp_regimes_equal_lone_reference_fits(
    widths, activation, batch_size, rows, d, oo, regimes, seed
):
    # fit_regimes trains the regimes asked for as one stack, in input blocks
    # of one width (OO's narrower than TO's and TT's, as in ("OO", "TT"));
    # each must match the list-rebuilding reference run on that regime's
    # view alone.
    rng = np.random.default_rng(seed)
    n = batch_size
    if rows == "ragged":  # a last batch shorter than the others
        n = batch_size * int(rng.integers(1, 4)) + int(rng.integers(1, batch_size))
    d_obs = d if oo == "as wide" or d == 1 else int(rng.integers(1, d))
    total = n + 5  # five rows the selection drops
    selected = np.zeros(total, dtype=bool)
    selected[rng.choice(total, n, replace=False)] = True
    x_true = rng.standard_normal((total, d))
    y_true = np.sin(x_true[:, 0]) + 0.1 * rng.standard_normal(total)
    bundle = worldgen.SampleBundle(
        x_true=x_true,
        x_observed=x_true[:, :d_obs] + 0.3 * rng.standard_normal((total, d_obs)),
        y_true=y_true,
        y_observed=y_true + 0.5 * rng.standard_normal(total),
        epsilon=np.zeros(total),
        selected=selected,
        delta_y=np.zeros(total),
        delta_x=np.zeros((total, d)),
        label="stacked",
    )
    spec = ModelSpec(
        family="mlp",
        widths=widths,
        activation=activation,
        epochs=int(rng.integers(1, 4)),
        batch_size=batch_size,
        init_seed=int(rng.integers(0, 3)),
    )
    fitted = fit_regimes(bundle, spec, regimes)
    assert tuple(fitted) == regimes
    for regime in regimes:
        x_name, y_name = models._REGIME_FIELDS[regime]
        x, y = getattr(bundle, x_name)[selected], getattr(bundle, y_name)[selected]
        params, epoch_losses, iterations = _reference_fit_mlp(spec, x, y)
        model = fitted[regime]
        assert model.input_dim == x.shape[1]
        assert model.diagnostics["iterations"] == iterations
        assert model.diagnostics["epoch_losses"] == epoch_losses
        assert len(model.params["layers"]) == len(params)
        for (w, b), (w_ref, b_ref) in zip(model.params["layers"], params):
            assert w.shape == w_ref.shape
            assert np.array_equal(w.view(np.int64), w_ref.view(np.int64))
            assert np.array_equal(b.view(np.int64), b_ref.view(np.int64))


def _coefficients(draw, family: str, dim: int) -> list:
    coef = st.floats(-3.0, 3.0)
    if family == "linear":
        return [draw(coef) for _ in range(dim)]
    if family == "polynomial":
        return [draw(coef) for _ in range(1 + draw(st.integers(1, 3)) * dim)]
    thresholds = sorted(set(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))))
    return thresholds + [draw(coef) for _ in range(len(thresholds) + 1)]


@st.composite
def _worlds(draw) -> el.World:
    """A small world with every channel drawn: the true function, inherent
    noise, target noise, feature noise with omission and coarsening, and
    selection."""
    dim = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["linear", "polynomial", "step"]))
    omit = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    omit[draw(st.integers(0, dim - 1))] = False
    target = draw(st.sampled_from(["gaussian", "uniform", "quantization"]))
    return el.build_world(
        {
            "x": {"kind": draw(st.sampled_from(["gaussian", "uniform"])), "dim": dim},
            "f_star": {"family": family, "coefficients": _coefficients(draw, family, dim)},
            "aleatoric": {
                "distribution": draw(st.sampled_from(["gaussian", "student_t", "mixture"])),
                "variance": draw(st.floats(0.0, 2.0)),
            },
            "target_noise": {
                "distribution": target,
                "mean": draw(st.floats(-1.0, 1.0)),
                "variance": draw(st.floats(0.0, 2.0)),
                "step": draw(st.sampled_from([0.25, 1.0])),
            },
            "feature_noise": {
                "cov": draw(st.floats(0.0, 1.0)),
                "omit": omit,
                "coarsen": [draw(st.sampled_from([0.0, 0.5])) for _ in range(dim)],
            },
            "selection": {
                "rule": draw(st.sampled_from(["none", "threshold", "probabilistic"])),
                "score": draw(st.sampled_from(["epsilon", "y_true", "first_feature"])),
                "coverage": draw(st.floats(0.5, 1.0)),
            },
            "seed": draw(st.integers(0, 2**32 - 1)),
        }
    )


_TELESCOPING_SPECS = st.one_of(
    st.builds(ModelSpec, family=st.just("ridge"), lam=st.sampled_from([1e-3, 0.1, 1.0])),
    st.builds(ModelSpec, family=st.just("knn"), k=st.integers(1, 5)),
    st.builds(
        ModelSpec,
        family=st.just("mlp"),
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
        activation=st.sampled_from(["tanh", "relu", "identity"]),
        learning_rate=st.just(0.01),
        epochs=st.integers(1, 3),
        batch_size=st.just(8),
    ),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(world=_worlds(), spec=_TELESCOPING_SPECS)
def test_decomposition_telescopes_on_random_worlds(world, spec):
    train = el.sample(world, 60, "property/train")
    heldout = el.sample(world, 40, "property/eval")
    check_telescoping(decompose_bundle(world, fit_regimes(train, spec), heldout))


def _leaves(value) -> list:
    """Every field of a study result as an array, nested results flattened
    in field order."""
    if dataclasses.is_dataclass(value):
        return [leaf for f in dataclasses.fields(value) for leaf in _leaves(getattr(value, f.name))]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [np.asarray(value)]


def _study_runs(world, spec, regime):
    """Each parallel study on ``world``, as (result, ledger), at the worker
    count of the enclosing command pool."""
    every = tuple(range(world.input_dim))
    axis = InformationAxis(
        levels=(AxisLevel(40, every, (1.0, 1.0)), AxisLevel(60, every, (0.5, 0.0)))
    )
    grid = worldgen.draw_inputs(world, 16, "workers/grid")
    cfg = BiasVarConfig(regime, 40, 3, components_replicates=3)
    studies = (
        lambda: run_learning_curve(
            world, spec, CurveConfig(axis, 2, test_points=64, comp_points=16)
        ),
        lambda: bias_variance_monte_carlo(world, spec, cfg, grid),
        lambda: component_covariances(world, spec, cfg, grid),
    )
    runs = []
    for study in studies:
        with seeding.recording() as labels:
            try:
                result = study()
            except ErrorLabError as exc:  # must be the same error at any count
                result = f"{type(exc).__name__}: {exc}"
        runs.append((result, labels))
    return runs


def test_worker_count_never_changes_a_study(monkeypatch):
    # Two usable CPUs whatever the host has, and one spawn pool shared by
    # every example, so the parallel path runs and starts only once.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    completed = set()  # the studies that returned a result in some example
    with parallel.command_pool(2) as pool:

        @settings(max_examples=5, deadline=None, derandomize=True, database=None)
        @given(
            world=_worlds(),
            spec=_TELESCOPING_SPECS,
            regime=st.sampled_from(models.REGIMES),
        )
        def check(world, spec, regime):
            with monkeypatch.context() as one_cpu:  # the serial pass maps in-process
                one_cpu.setattr(parallel, "usable_cpus", lambda: 1)
                serial = _study_runs(world, spec, regime)
            pooled = _study_runs(world, spec, regime)
            for study, ((one, one_labels), (two, two_labels)) in enumerate(zip(serial, pooled)):
                if not isinstance(one, str):
                    completed.add(study)
                one, two = _leaves(one), _leaves(two)
                assert len(one) == len(two)
                assert all(np.array_equal(a, b) for a, b in zip(one, two))
                assert one_labels and one_labels == two_labels

        check()
        assert pool.processes == 2  # the pool started: the maps ran in it
    assert completed == {0, 1, 2}
