"""Serialization glue: matrix JSON format, atomic CSV and JSON output.

Matrices and state vectors serialize to ``{"rows", "cols", "entries"}``
with the entries as a flat row-major list of [re, im] pairs.  The writers
take finished metadata and decide nothing about it: CSV files start with
one ``# key: value`` line per metadata entry, then the header row, then
data rows; floats, in the rows and on metadata lines alike, get 9
significant digits.  Rows come block by block, each block a
:class:`Columns` whose kinds give its row template, and each is
formatted in bulk with that one template, so writing costs O(block)
memory however long the table.  All writes go through a temp file and
an atomic rename so a failure never leaves a partial output behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np


def matrix_to_json(mat) -> dict:
    """Encode a matrix or vector as rows/cols/flat [re, im] entries."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix or vector, got ndim {arr.ndim}")
    entries = [[float(v.real), float(v.imag)] for v in arr.reshape(-1)]
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]), "entries": entries}


def matrix_from_json(payload: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    rows, cols = int(payload["rows"]), int(payload["cols"])
    entries = payload["entries"]
    if len(entries) != rows * cols:
        raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)


def _atomic_write(path: str, chunks):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


FLOAT_FIELD = "%.9g"
_VARYING = {float: FLOAT_FIELD, int: "%d", str: "%s"}


@dataclass(frozen=True)
class Columns:
    """Rows held in memory as columns, for :func:`write_csv`.

    ``kinds`` has one entry per CSV column: ``float`` (9 significant
    digits), ``int`` (written verbatim) or ``str`` (already formatted
    text) for a column that varies by row; any other value is a constant
    written into every row, a float with 9 significant digits and None as
    an empty field.  ``data`` holds the varying columns in order, as
    equal-length numpy arrays or lists.  A ``Columns`` is a table of one
    block: :meth:`blocks` yields itself.
    """

    kinds: tuple
    data: tuple

    def __len__(self) -> int:
        return len(self.data[0])

    def blocks(self):
        yield self


def _row_template(header, kinds) -> str:
    """One ``%`` template for a whole row: a field per varying column, literals for constants."""
    if len(header) != len(kinds):
        raise ValueError(f"{len(header)} header fields for {len(kinds)} columns")
    fields = [_VARYING[kind] if isinstance(kind, type)
              else FLOAT_FIELD % kind if isinstance(kind, float)
              else ("" if kind is None else str(kind)).replace("%", "%%") for kind in kinds]
    return ",".join(fields) + "\n"


def _format_block(header, block: Columns) -> str:
    """Every row of a block through one ``%``: its row template repeated, values row-major."""
    template = _row_template(header, block.kinds)
    size, width = len(block), len(block.data)
    values = [None] * (size * width)
    for k, column in enumerate(block.data):
        if len(column) != size:
            raise ValueError(f"block columns differ in length: {[len(c) for c in block.data]}")
        values[k::width] = column.tolist() if isinstance(column, np.ndarray) else column
    return (template * size) % tuple(values)


def write_csv(path: str, header: list[str], rows, metadata: dict | None = None):
    """Write a CSV with a commented line per ``metadata`` entry, atomically.

    ``rows`` is a sized table, such as :class:`Columns` or
    :class:`~chsh_kcbs.experiments.LandscapeTable`, of ``len(rows)`` data
    rows, whose ``blocks()`` yields them as :class:`Columns`.  Each block
    is formatted in bulk with one row template built from its own kinds,
    one per header field, so memory stays O(block) however many blocks
    the table has.
    """
    lines = [f"# {key}: " + (FLOAT_FIELD % value if isinstance(value, float) else str(value))
             for key, value in (metadata or {}).items()]
    lines.append(",".join(header))

    def chunks():
        yield "\n".join(lines) + "\n"
        written = 0
        for block in rows.blocks():
            yield _format_block(header, block)
            written += len(block)
        if written != len(rows):
            raise ValueError(f"table yielded {written} rows, expected {len(rows)}")

    _atomic_write(path, chunks())


def read_csv(path: str) -> tuple[list[str], list[list[str]], dict]:
    """Read back a CSV written by :func:`write_csv`.

    Returns (header, rows-as-strings, metadata).
    """
    metadata: dict = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                metadata[key.strip()] = value.strip()
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows, metadata


def write_json(path: str, payload: dict, metadata: dict | None = None):
    """Write JSON with the ``metadata`` block, if any, as its last key, atomically."""
    body = {**payload, "metadata": metadata} if metadata else payload
    _atomic_write(path, [json.dumps(body, indent=2) + "\n"])
