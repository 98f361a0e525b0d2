"""Property test of the column-wise CSV writer: for any mix of columns its
text equals formatting every cell with ``_format_cell``, row by row."""

import numpy as np
import pytest

from errorlab import runio
from errorlab.runio import CSV_BLOCK_ROWS, render_csv

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True),
)

# Row counts on both sides of the first and second block edges.
_ROWS = st.one_of(
    st.integers(0, 3),
    st.integers(CSV_BLOCK_ROWS - 2, CSV_BLOCK_ROWS + 2),
    st.integers(2 * CSV_BLOCK_ROWS - 2, 2 * CSV_BLOCK_ROWS + 2),
)


def _column_kinds(n: int) -> dict:
    """Strategies for one column of n cells, by the column's type."""
    f64 = hnp.arrays(np.float64, n, elements=_FLOATS)
    return {
        "f64": f64,
        "f64_strided": hnp.arrays(np.float64, 2 * n, elements=_FLOATS).map(lambda a: a[::2]),
        "f32": hnp.arrays(np.float32, n, elements=st.floats(width=32)),
        "i64": hnp.arrays(np.int64, n),
        "u8": hnp.arrays(np.uint8, n),
        "bool": hnp.arrays(np.bool_, n),
        "py_float": f64.map(lambda a: a.tolist()),
        "py_int": hnp.arrays(np.int64, n).map(lambda a: a.tolist()),
        "py_bool": hnp.arrays(np.bool_, n).map(lambda a: a.tolist()),
        "py_str": hnp.arrays(np.dtype("U4"), n, elements=st.text("ab_-. 9", max_size=4)).map(
            lambda a: a.tolist()
        ),
        "np_float_scalars": f64.map(list),
        "np_int_scalars": hnp.arrays(np.int32, n).map(list),
    }


@st.composite
def _tables(draw) -> tuple[list[str], list]:
    n = draw(_ROWS)
    kinds = _column_kinds(n)
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6))
    return [f"{name}{i}" for i, name in enumerate(names)], [draw(kinds[k]) for k in names]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_tables())
def test_render_csv_equals_row_wise_format_cell(table):
    header, columns = table
    rows = [
        ",".join(runio._format_cell(column[i]) for column in columns)
        for i in range(len(columns[0]))
    ]
    lines = [f"# schema_version={runio.OUTPUT_SCHEMA_VERSION}", ",".join(header), *rows]
    assert "".join(render_csv(header, columns)) == "\n".join(lines) + "\n"
