"""Deterministic result persistence: CSV/JSON writers, checksums, manifest.

Floats are written with ``repr`` (shortest round-trip form) and JSON keys
are sorted, so identical results serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NonFiniteOutputError

OUTPUT_SCHEMA_VERSION = 1


def to_builtin(value):
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biuf":
            return value.tolist()  # already nested lists of Python scalars
        return [to_builtin(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: to_builtin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_builtin(v) for v in value]
    return value


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# Rows formatted per block.  A cell string costs about 70 bytes until its
# block is joined, so a twelve-column block of 256 rows holds about 200 kB
# and rendering a small CSV adds little to a run's peak memory; the
# per-block Python calls are still too few to show in the render time.
CSV_BLOCK_ROWS = 256


def _format_column(column, lo: int, hi: int) -> list[str]:
    """Cells ``lo:hi`` of one column, formatted exactly as ``_format_cell``
    would format each value."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fbiu":
        values = column[lo:hi].tolist()
        kind = column.dtype.kind
        if kind == "f":
            # repr of a tolist() float is repr(float(np.float64)), -0.0,
            # nan and inf included.
            return list(map(repr, values))
        if kind == "b":
            return ["true" if v else "false" for v in values]
        return list(map(str, values))
    return [_format_cell(v) for v in column[lo:hi]]


class CsvText:
    """The text of one CSV file, rendered block by block as it is iterated.

    The constructor checks the shape (one column per header field, every
    column the same length) and keeps references to the columns, not
    copies, until the payload is written, so a column must not be changed
    after ``render_csv``.  Iterating yields the schema line and header,
    then one newline-terminated string per ``CSV_BLOCK_ROWS`` rows; each
    column of a block is formatted in one pass, so only one block's cell
    strings are alive at a time.  Every iteration renders the text again.
    The bytes equal formatting every cell with ``_format_cell`` row by row.
    """

    __slots__ = ("_header", "_columns", "_n")

    def __init__(self, header: list[str], columns) -> None:
        columns = list(columns)
        if len(columns) != len(header):
            raise ValueError(f"render_csv: {len(columns)} columns for {len(header)} header fields")
        n = len(columns[0]) if columns else 0
        if any(len(column) != n for column in columns):
            raise ValueError("render_csv: columns differ in length")
        self._header = ",".join(header)
        self._columns = columns
        self._n = n

    def __iter__(self):
        yield f"# schema_version={OUTPUT_SCHEMA_VERSION}\n{self._header}\n"
        for lo in range(0, self._n, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, self._n)
            cells = [_format_column(column, lo, hi) for column in self._columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    def encode(self, encoding: str = "utf-8") -> bytes:
        """The whole file as bytes, like ``str.encode``."""
        return b"".join(part.encode(encoding) for part in self)


def render_csv(header: list[str], columns) -> CsvText:
    """CSV payload from one sequence per column (every column the same
    length); raises ``ValueError`` here, before anything is written, when
    the shape is wrong.  See ``CsvText``."""
    return CsvText(header, columns)


def render_json(payload) -> str:
    doc = dict(to_builtin(payload))
    doc.setdefault("schema_version", OUTPUT_SCHEMA_VERSION)
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteOutputError(f"refusing to write a non-finite value as JSON: {exc}") from exc


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Provenance record for one CLI run.

    ``files`` maps every emitted output to its checksum; regenerating with
    the same config and seed reproduces those checksums exactly (only the
    wall-clock timings differ between reruns).  ``render_json`` sorts its
    keys; the writer passes ``seed_labels`` sorted.
    """

    command: str
    config_hash: str
    artifact_version: str
    files: dict[str, str] = field(default_factory=dict)
    seed_labels: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    schema_version: int = OUTPUT_SCHEMA_VERSION


def write_file(path: Path, payload: str | CsvText) -> str:
    """Write one rendered payload, part by part as it is encoded (a ``str``
    is one part), and return the SHA-256 of the bytes written."""
    digest = hashlib.sha256()
    parts = (payload,) if isinstance(payload, str) else payload
    with open(path, "wb") as fh:
        for part in parts:
            data = part.encode("utf-8")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def write_outputs(out_dir: Path, payloads: dict[str, str | CsvText]) -> dict[str, str]:
    """Write rendered files and return their checksums."""
    return {name: write_file(out_dir / name, payload) for name, payload in payloads.items()}
