"""Property tests of the fitting contract: a fit is a function of the set
of training rows, not of their order."""

import numpy as np
import pytest

from errorlab.models import ModelSpec, fit, model_to_json, predict

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
