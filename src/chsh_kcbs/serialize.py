"""Serialization glue: matrix JSON format, atomic CSV and JSON output.

Matrices and state vectors serialize to ``{"rows", "cols", "entries"}``
with the entries as a flat row-major list of [re, im] pairs.  The writers
take finished metadata and decide nothing about it: CSV files start with
one ``# key: value`` line per metadata entry, then the header row, then
data rows.  A value's format comes from its type: floats, in the rows
and on metadata lines alike, get 9 significant digits, a None cell is
empty, and anything else is its ``str``.  Rows come in :class:`Columns`
blocks of at most ``BLOCK_CELLS`` rows, each formatted in bulk with one
row template, so writing costs O(block) memory however long the table.
All writes go through a temp file and an atomic rename so a failure
never leaves a partial output.
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
BLOCK_CELLS = 65536  # rows per formatted block and cells per landscape block
_SEQUENCES = (list, np.ndarray)


def _text(value) -> str:
    return FLOAT_FIELD % value if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Columns:
    """Rows held in memory as columns, for :func:`write_csv`.

    ``data`` holds one entry per CSV column: a list or numpy array varies
    by row, any other value is a constant.  Floats and float arrays get 9
    significant digits, None is empty, and the rest is its ``str``, so a
    list is a column of texts.  :meth:`blocks` yields slices of at most
    ``BLOCK_CELLS`` rows.
    """

    data: tuple

    def __len__(self) -> int:
        lengths = {len(column) for column in self.data if isinstance(column, _SEQUENCES)}
        if len(lengths) != 1:
            raise ValueError("a block needs one or more varying columns, all of one length, "
                             f"got lengths {sorted(lengths)}")
        return lengths.pop()

    def blocks(self):
        for start in range(0, len(self) or 1, BLOCK_CELLS):  # an empty table is one empty block
            yield Columns(tuple(column[start:start + BLOCK_CELLS] if isinstance(column, _SEQUENCES)
                                else column for column in self.data))


def _format_block(header, block: Columns) -> tuple[str, int]:
    """(text, row count) of a block: one row template repeated, varying values row-major.

    A constant is formatted once, into the template as a literal.
    """
    if len(header) != len(block.data):
        raise ValueError(f"{len(header)} header fields for {len(block.data)} data columns")
    fields, columns = [], []
    for value in block.data:
        if isinstance(value, _SEQUENCES):
            floats = isinstance(value, np.ndarray) and value.dtype.kind == "f"
            fields.append(FLOAT_FIELD if floats else "%s")
            columns.append(value.tolist() if isinstance(value, np.ndarray) else value)
        else:
            fields.append("" if value is None else _text(value).replace("%", "%%"))
    if not columns:
        raise ValueError("a block needs at least one varying column")
    size, width = len(columns[0]), len(columns)
    values = [None] * (size * width)
    for k, column in enumerate(columns):
        values[k::width] = column  # an extended slice: another length raises ValueError
    return ((",".join(fields) + "\n") * size) % tuple(values), size


def write_csv(path: str, header: list[str], rows, metadata: dict | None = None):
    """Write a CSV with a commented line per ``metadata`` entry, atomically.

    ``rows`` is a sized table, such as :class:`Columns` or
    :class:`~chsh_kcbs.experiments.LandscapeTable`, whose ``blocks()``
    yields its ``len(rows)`` rows as :class:`Columns` of at most
    ``BLOCK_CELLS`` rows, each with a data entry per header field and
    formatted in bulk with one row template, so memory stays O(block).
    """
    lines = [f"# {key}: {_text(value)}" for key, value in (metadata or {}).items()]
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
