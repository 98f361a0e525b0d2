"""Property tests of the fitting contract over random data and worlds: a
fit is a function of the set of training rows, not of their order, and the
decomposition of every fit telescopes."""

import numpy as np
import pytest

import errorlab as el
from errorlab.decomp import check_telescoping, decompose_bundle
from errorlab.models import ModelSpec, fit, fit_regimes, model_to_json, predict

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
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
    tied=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fit_is_bitwise_invariant_under_row_permutation(family, n, d, tied, seed):
    rng = np.random.default_rng(seed)
    if tied:
        # Few distinct values, so rows share features (and sometimes labels)
        # and the canonical order has to break ties.
        x = rng.integers(-1, 2, (n, d)).astype(float)
        y = rng.integers(0, 3, n).astype(float)
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
