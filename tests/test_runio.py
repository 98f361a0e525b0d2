import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from errorlab import cli, runio, worldgen
from errorlab.cli import main
from errorlab.config import parse_config
from errorlab.errors import NonFiniteOutputError
from errorlab.runio import CSV_BLOCK_ROWS, render_csv, render_json, write_outputs

STANDARD = Path(__file__).resolve().parents[1] / "scenarios" / "standard.yaml"


def _reference_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _reference_csv(header, rows, schema_version=runio.OUTPUT_SCHEMA_VERSION) -> str:
    """The row-by-row writer the column-wise one must match byte for byte."""
    lines = [f"# schema_version={schema_version}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_cell(v) for v in row))
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e22, 0.1, -1.5, 1e-7]


def _mixed_columns(n: int) -> tuple[list[str], list]:
    rng = np.random.default_rng(n)
    specials = np.array(_SPECIAL_FLOATS)
    floats = np.where(np.arange(n) % 3 == 0, specials[np.arange(n) % len(specials)],
                      rng.normal(size=n) * 10.0 ** rng.integers(-10, 10, size=n))
    matrix = np.stack([floats, -floats[::-1]], axis=1)
    columns = {
        "f64": floats,
        "strided": matrix.T[1],
        "f32": floats.astype(np.float32),
        "i64": rng.integers(-(2**62), 2**62, size=n),
        "u8": rng.integers(0, 255, size=n).astype(np.uint8),
        "bool": rng.random(n) < 0.5,
        "py_int": [i - 3 for i in range(n)],
        "py_float": [float(v) for v in floats],
        "py_bool": [i % 2 == 0 for i in range(n)],
        "py_str": [f"s{i}" for i in range(n)],
        "np_scalars": [np.float64(v) for v in floats],
        "np_ints": list(np.arange(n)),
    }
    return list(columns), list(columns.values())


@pytest.mark.parametrize(
    "n", [0, 1, 2, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3]
)
def test_render_csv_matches_row_wise_reference(n):
    header, columns = _mixed_columns(n)
    rows = [[column[i] for column in columns] for i in range(n)]
    assert "".join(render_csv(header, columns)) == _reference_csv(header, rows)


def test_render_csv_rejects_ragged_columns():
    with pytest.raises(ValueError, match="differ in length"):
        render_csv(["a", "b"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError, match="header"):
        render_csv(["a", "b"], [np.zeros(3)])


def test_a_csv_payload_renders_the_same_text_each_time_it_is_iterated():
    header, columns = _mixed_columns(2 * CSV_BLOCK_ROWS + 3)
    payload = render_csv(header, columns)
    parts = list(payload)
    # The schema line and header, then one part per block.
    assert len(parts) == 1 + 3
    assert all(part.endswith("\n") for part in parts)
    assert "".join(payload) == "".join(parts)
    assert payload.encode("utf-8") == "".join(parts).encode("utf-8")


def test_writing_a_csv_never_holds_the_whole_file(tmp_path):
    n = 50_000
    rng = np.random.default_rng(0)
    header = [f"c{i}" for i in range(9)]
    columns = [np.arange(n), *rng.normal(size=(8, n))]
    tracemalloc.start()
    try:
        write_outputs(tmp_path, {"big.csv": render_csv(header, columns)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "big.csv").stat().st_size
    assert size > 7_000_000
    assert peak < size / 8, (peak, size)


def test_simulate_samples_round_trip_to_bundle(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(STANDARD), "--out", str(out)]) == 0
    scenario = parse_config(STANDARD)
    bundle = worldgen.sample(scenario.world, scenario.simulate.n, scenario.simulate.label)
    header, expected = worldgen.bundle_columns(bundle)
    lines = (out / "samples.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",") == header
    cells = list(zip(*(line.split(",") for line in lines[2:])))
    assert len(cells) == len(header)
    for name, parsed, column in zip(header[:-1], cells, expected):
        assert np.array_equal(np.array([float(c) for c in parsed]), column), name
    assert np.array_equal(np.array([c == "true" for c in cells[-1]]), bundle.selected)
    assert set(cells[-1]) <= {"true", "false"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_render_json_rejects_non_finite(value):
    with pytest.raises(NonFiniteOutputError):
        render_json({"ok": 1.0, "nested": {"bad": np.array([0.0, value])}})


def test_write_outputs_checksums_the_written_bytes(tmp_path):
    payloads = {"a.csv": "x,y\n1,2\n", "b.json": '{"name": "é中"}\n'}
    checksums = write_outputs(tmp_path, payloads)
    for name, text in payloads.items():
        data = (tmp_path / name).read_bytes()
        assert data == text.encode("utf-8")
        assert checksums[name] == hashlib.sha256(data).hexdigest()
    assert json.loads((tmp_path / "b.json").read_bytes())["name"] == "é中"


def test_write_outputs_checksums_a_csv_payload_as_written(tmp_path):
    header, columns = _mixed_columns(CSV_BLOCK_ROWS + 5)
    checksums = write_outputs(tmp_path, {"t.csv": render_csv(header, columns)})
    data = (tmp_path / "t.csv").read_bytes()
    assert checksums == {"t.csv": hashlib.sha256(data).hexdigest()}
    rows = [[column[i] for column in columns] for i in range(CSV_BLOCK_ROWS + 5)]
    assert data == _reference_csv(header, rows).encode("utf-8")


def test_decompose_with_a_non_finite_json_value_writes_nothing(tmp_path, monkeypatch, capsys):
    # decomposition.csv comes first in decompose's payloads, but every JSON
    # payload is rendered before any file is opened.
    monkeypatch.setattr(cli, "model_to_json", lambda model: {"w": float("nan")})
    out = tmp_path / "d"
    assert main(["decompose", "--config", str(STANDARD), "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()
