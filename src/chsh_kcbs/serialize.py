"""Serialization glue: matrix JSON format, atomic CSV and JSON output.

Matrices and state vectors serialize to ``{"rows", "cols", "entries"}``
with the entries as a flat row-major list of [re, im] pairs.  The writers
take finished metadata and decide nothing about it: CSV files start with
one ``# key: value`` line per metadata entry, then the header row, then
data rows.  A value's format comes from its type: floats, in the rows
and on metadata lines alike, get 9 significant digits, a None cell is
empty, and anything else is its ``str``.  Rows come in blocks, tuples
of column values on a grid of rows of cells, written with one template
per grid row filled ``RUN_CELLS`` cells at a time, so writing costs
O(block) memory.
All writes go through a temp file and an atomic rename so a failure
never leaves a partial output.
"""

from __future__ import annotations

import errno
import itertools
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


def out_directory(path: str) -> str:
    """The directory of output file ``path``; OSError naming ``path`` if no file can go there.

    That is a directory (``EISDIR``), an empty path or a missing directory (``ENOENT``).
    """
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not (path and os.path.isdir(directory)):
        code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    return directory


def _atomic_write(path: str, chunks):
    directory = out_directory(path)  # refused before any chunk is computed
    # mkstemp makes its file 0600: it gets the mode open(path, "w") would leave.
    umask = os.umask(0o022)
    os.umask(umask)
    tmp_path = ""
    try:
        mode = os.stat(path).st_mode & 0o7777 if os.path.exists(path) else 0o666 & ~umask
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.chmod(tmp_path, mode)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError) and exc.filename != path:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


FLOAT_FIELD = "%.9g"
RUN_CELLS = 4096  # cells formatted per % call
_SEQUENCES = (list, np.ndarray)


def _text(value) -> str:
    return FLOAT_FIELD % value if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Columns:
    """One block held in memory as a sized table for :func:`write_csv`, such as the 1-D
    columns of a ``coexist`` or ``scaling`` table; ``len`` counts CSV rows."""

    data: tuple

    def __len__(self) -> int:
        return int(np.prod(_shape(self.data)))

    def blocks(self):
        yield self.data


def _shape(block) -> tuple[int, int]:
    """(grid rows, cells per row) of a block; 1-D columns alone are one grid row."""
    shapes = [c.shape if isinstance(c, np.ndarray) else (len(c),) for c in block
              if isinstance(c, _SEQUENCES)]
    rows = {shape[0] for shape in shapes if len(shape) == 2}
    widths = {shape[-1] for shape in shapes if shape[1:] != (1,)}  # (rows, 1): by row
    if not shapes or len(rows) > 1 or len(widths) > 1:
        raise ValueError(f"a block needs varying columns, all of one length, got {shapes}")
    return max(rows, default=1), max(widths, default=1)


def _field(value) -> str:
    return FLOAT_FIELD if isinstance(value, np.ndarray) and value.dtype.kind == "f" else "%s"


def _format_block(header, block):
    """A block's rows: each grid row's template, constants and by-row values in, repeated over
    ``RUN_CELLS`` cells per ``%`` call.  A list or 1-D column that several grid rows share is
    formatted once, and a block one cell wide is laid out as one grid row of cells, as a table
    of 1-D columns is, so it costs no ``%`` call per row."""
    if len(header) != len(block):
        raise ValueError(f"{len(header)} header fields for {len(block)} data columns")
    (rows, width), data, fields, by_row, by_cell = _shape(block), list(block), [], [], []
    for k, value in enumerate(block):  # shared by every grid row: its texts, formatted once
        if rows > 1 and (isinstance(value, list) or getattr(value, "ndim", 0) == 1):
            field, cells = _field(value), value.tolist() if isinstance(value, np.ndarray) else value
            data[k] = [field % (v,) for v in cells]
    if width == 1 < rows:
        data = [value.ravel() if isinstance(value, np.ndarray)
                else value * rows if isinstance(value, list) else value for value in data]
        rows, width = 1, rows
    for value in data:
        field = _field(value)
        if isinstance(value, np.ndarray) and value.shape[1:] == (1,):  # by row
            fields.append(field)  # a text passes on into the cell fields, so % is escaped
            texts = value.ravel().tolist()
            by_row.append(texts if field != "%s" else [str(v).replace("%", "%%") for v in texts])
        elif isinstance(value, _SEQUENCES):
            fields.append("%" + field)  # a cell field, once the row's values are in
            by_cell.append(value if getattr(value, "ndim", 1) == 2 else [value] * rows)
        else:
            fields.append("" if value is None else _text(value).replace("%", "%%%%"))
    template = ",".join(fields) + "\n"
    for head, *cells in zip(zip(*by_row) if by_row else [()] * rows, *by_cell):
        line = template % head
        for start in range(0, width, RUN_CELLS):  # a run of a row's cells at a time
            count, stop = min(RUN_CELLS, width - start), start + RUN_CELLS
            values = [None] * (count * len(cells))
            for k, column in enumerate(cells):  # an extended slice: a short column raises
                run = column[start:stop]
                values[k::len(cells)] = run.tolist() if isinstance(run, np.ndarray) else run
            yield line * count % tuple(values)


def write_csv(path: str, header: list[str], rows, metadata: dict | None = None):
    """Write a CSV with a commented line per ``metadata`` entry, atomically.

    ``rows`` is a sized table, such as :class:`Columns` or a landscape, whose ``blocks()``
    yields its ``len(rows)`` rows as blocks, tuples with a value per header field on a grid of
    rows of cells: a ``(rows, cells)`` array, or a list or 1-D array that every grid row
    shares, varies by cell, a ``(rows, 1)`` array by row, and any other value is a constant.
    Memory stays O(block).
    """
    lines = [f"# {key}: {_text(value)}" for key, value in (metadata or {}).items()]
    lines.append(",".join(header))

    def chunks():
        yield "\n".join(lines) + "\n"
        written = 0
        for block in rows.blocks():
            yield from _format_block(header, block)
            written += int(np.prod(_shape(block)))
        if written != len(rows):
            raise ValueError(f"table yielded {written} rows, expected {len(rows)}")

    _atomic_write(path, chunks())


def write_json(path: str, payload: dict, metadata: dict | None = None):
    """Write JSON with the ``metadata`` block, if any, as its last key, atomically.

    The text goes out in pieces of 256 encoder chunks, never whole in memory (a write per
    chunk costs more than the pieces' joins); they join to ``json.dumps(body, indent=2)``,
    then a newline ends the file.
    """
    body = {**payload, "metadata": metadata} if metadata else payload
    chunks = json.JSONEncoder(indent=2).iterencode(body)
    pieces = iter(lambda: "".join(itertools.islice(chunks, 256)), "")  # "" once chunks run out
    _atomic_write(path, itertools.chain(pieces, "\n"))
