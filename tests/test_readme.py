"""README's Python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run_and_the_quick_start_identity_holds():
    blocks = _python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    bundle, table, row = namespace["bundle"], namespace["table"], namespace["row"]
    # The identity the quick start states: the row's components sum to y_true.
    assert namespace["total"] == pytest.approx(bundle.y_true[row], rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(table.pointwise_sum(), bundle.y_true, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        table.error_sum(), table.y_pred - bundle.y_true, rtol=1e-9, atol=1e-9
    )
    assert len(namespace["curve"].points) == 3
    assert namespace["bv"].replicates == 20
