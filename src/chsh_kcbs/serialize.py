"""Serialization glue: matrix JSON format, atomic CSV and JSON output.

Matrices and state vectors serialize to ``{"rows", "cols", "entries"}``
with the entries as a flat row-major list of [re, im] pairs.  The writers
take finished metadata and decide nothing about it: CSV files start with
one ``# key: value`` line per metadata entry, then the header row, then
data rows; floats, in the rows and on metadata lines alike, get 9
significant digits.  Rows come block by block, each a :class:`Columns`
whose kinds are formats and whose non-sequence data are constants, and
each is formatted in bulk with one row template, so writing costs
O(block) memory however long the table.  All writes go through a temp
file and an atomic rename so a failure never leaves a partial output.
"""

from __future__ import annotations

import errno
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


def _atomic_write(path: str, chunks):
    if os.path.isdir(path):  # refused before any chunk is computed
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
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
_FORMATS = {float: FLOAT_FIELD, int: "%d", str: "%s"}
_SEQUENCES = (list, np.ndarray)


@dataclass(frozen=True)
class Columns:
    """Rows held in memory as columns, for :func:`write_csv`.

    ``kinds`` gives each CSV column's format: ``float`` (9 significant
    digits), ``int`` (``%d``) or ``str`` (``%s``, text formatted already).
    ``data`` holds one entry per column: a list or numpy array varies by
    row, and any other value is a constant written into every row through
    its kind's format, None as an empty field.  A block needs at least one
    varying column, and they all have its length.  A ``Columns`` is a
    table of one block: :meth:`blocks` yields itself.
    """

    kinds: tuple
    data: tuple

    def __len__(self) -> int:
        for column in self.data:
            if isinstance(column, _SEQUENCES):
                return len(column)
        raise ValueError("a block needs at least one varying column")

    def blocks(self):
        yield self


def _format_block(header, block: Columns) -> tuple[str, int]:
    """(text, row count) of a block: one row template repeated, varying values row-major.

    A constant is formatted once, into the template as a literal.
    """
    if not len(header) == len(block.kinds) == len(block.data):
        raise ValueError(f"{len(header)} header fields for {len(block.kinds)} kinds "
                         f"and {len(block.data)} data columns")
    fields, columns = [], []
    try:
        for kind, value in zip(block.kinds, block.data):
            field = _FORMATS[kind]
            if isinstance(value, _SEQUENCES):
                columns.append(value)
            elif value is None:
                field = ""
            else:
                field = (field % value).replace("%", "%%") if kind is str else field % value
            fields.append(field)
    except KeyError:
        raise ValueError(f"kinds must be float, int or str, got {block.kinds}") from None
    if not columns:
        raise ValueError("a block needs at least one varying column")
    size, width = len(columns[0]), len(columns)
    values = [None] * (size * width)
    for k, column in enumerate(columns):
        if len(column) != size:
            raise ValueError(f"block columns differ in length: {[len(c) for c in columns]}")
        values[k::width] = column.tolist() if isinstance(column, np.ndarray) else column
    return ((",".join(fields) + "\n") * size) % tuple(values), size


def write_csv(path: str, header: list[str], rows, metadata: dict | None = None):
    """Write a CSV with a commented line per ``metadata`` entry, atomically.

    ``rows`` is a sized table, such as :class:`Columns` or
    :class:`~chsh_kcbs.experiments.LandscapeTable`, of ``len(rows)`` data
    rows, whose ``blocks()`` yields them as :class:`Columns`, each with a
    kind and a data entry per header field.  A block's kinds are formats
    and a non-sequence value in its data is a constant, formatted once
    into the block's row template; the rows are formatted in bulk with
    it, so memory stays O(block) however many blocks the table has.
    """
    lines = [f"# {key}: " + (FLOAT_FIELD % value if isinstance(value, float) else str(value))
             for key, value in (metadata or {}).items()]
    lines.append(",".join(header))

    def chunks():
        yield "\n".join(lines) + "\n"
        written = 0
        for block in rows.blocks():
            text, size = _format_block(header, block)
            written += size
            yield text
        if written != len(rows):
            raise ValueError(f"table yielded {written} rows, expected {len(rows)}")

    _atomic_write(path, chunks())


def write_json(path: str, payload: dict, metadata: dict | None = None):
    """Write JSON with the ``metadata`` block, if any, as its last key, atomically."""
    body = {**payload, "metadata": metadata} if metadata else payload
    _atomic_write(path, [json.dumps(body, indent=2) + "\n"])
