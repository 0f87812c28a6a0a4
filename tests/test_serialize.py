"""Tests for the matrix JSON format and the CSV writer."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from chsh_kcbs import serialize
from helpers import matrix_from_json, read_csv


def test_matrix_json_round_trip():
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    payload = serialize.matrix_to_json(mat)
    assert payload["rows"] == 3 and payload["cols"] == 3
    assert len(payload["entries"]) == 9
    back = matrix_from_json(payload)
    assert np.array_equal(back, mat)
    # Survives an actual JSON encode/decode cycle at full precision.
    again = matrix_from_json(json.loads(json.dumps(payload)))
    assert np.array_equal(again, mat)


def test_vector_serializes_as_column():
    payload = serialize.matrix_to_json(np.array([1.0, 2j, -3.0]))
    assert payload["rows"] == 3 and payload["cols"] == 1
    assert payload["entries"][1] == [0.0, 2.0]


def test_matrix_from_json_checks_entry_count():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})


def test_metadata_floats_get_nine_significant_digits(tmp_path):
    # A float on a metadata line goes through the rows' own rule; a missing cell is empty.
    path = tmp_path / "table.csv"
    slopes = {"a": 0.34307127801047144, "b": -2.4721359549995794, "c": np.float64(1 / 3)}
    serialize.write_csv(str(path), ["x", "gap"],
                        serialize.Columns((np.array([0.34307127801047144]), None)),
                        metadata=slopes)
    _, rows, metadata = read_csv(str(path))
    assert metadata == {"a": "0.343071278", "b": "-2.47213595", "c": "0.333333333"}
    assert rows == [["0.343071278", ""]]
    assert all(metadata[key] == "%.9g" % value for key, value in slopes.items())
    assert float(metadata["a"]) == pytest.approx(0.34307127801047144, rel=1e-8)


def test_write_csv_cells_and_metadata(tmp_path):
    path = tmp_path / "table.csv"
    table = serialize.Columns((np.array([5, 3194799977]), np.array([0.123456789012, 2.5]), None,
                               "text"))
    serialize.write_csv(str(path), ["a", "b", "c", "d"], table,
                        metadata={"key": "value", "count": 2})
    header, rows, metadata = read_csv(str(path))
    assert header == ["a", "b", "c", "d"]
    assert rows[0] == ["5", "0.123456789", "", "text"]
    # Integers are written verbatim, never in scientific notation.
    assert rows[1][0] == "3194799977"
    assert rows[1][2] == ""
    # The writer adds nothing to the metadata it is given, a timestamp included.
    assert metadata == {"key": "value", "count": "2"}
    assert "timestamp" not in path.read_text()


class _Table:
    """A table that yields the given blocks, then raises ``error`` if one is given."""

    def __init__(self, length, blocks, error=None):
        self.length, self._blocks, self._error = length, blocks, error

    def __len__(self):
        return self.length

    def blocks(self):
        yield from self._blocks
        if self._error is not None:
            raise self._error


def test_write_csv_formats_nine_digits_across_blocks(tmp_path):
    values = [0.1, -2.4721359549995794, 1e-300, 12345678912.0, -0.0, float("nan"), 7.0]
    index = list(range(len(values)))
    # Each block brings its own columns and constants; the last has a float and a text constant.
    blocks = [(np.array(values[:3]), np.array(index[:3]), "m%d"),
              (np.array(values[3:6]), np.array(index[3:6]), "m%d"),
              (np.array(values[6:]), [str(i) for i in index[6:]], "m%d"),
              (["a", "b"], 1 / 3, "k%")]
    path = tmp_path / "table.csv"
    serialize.write_csv(str(path), ["x", "i", "tag"], _Table(9, blocks))
    _, rows, _ = read_csv(str(path))
    assert rows == ([["%.9g" % v, str(i), "m%d"] for i, v in enumerate(values)]
                    + [["a", "0.333333333", "k%"], ["b", "0.333333333", "k%"]])


def test_constants_are_formatted_by_their_type(tmp_path):
    # A non-sequence value in data is a constant: an int as its str, a str
    # with its % kept, a float through %.9g, None as an empty field.
    path = tmp_path / "table.csv"
    table = serialize.Columns((3194799977, np.int64(7), "100% sure", 2 / 3, None, ["a", "b"]))
    assert len(table) == 2
    serialize.write_csv(str(path), ["i", "j", "s", "x", "gap", "t"], table)
    _, rows, _ = read_csv(str(path))
    assert rows == [["3194799977", "7", "100% sure", "0.666666667", "", t] for t in "ab"]


def test_one_block_of_every_value_type_writes_fixed_bytes(tmp_path):
    # Float arrays and floats get %.9g, None is empty, and everything else is
    # its str: int64 and big-int object arrays, lists of texts, int constants.
    path = tmp_path / "table.csv"
    table = serialize.Columns((
        np.array([0.1, -2.4721359549995794, 1e-300]), np.array([5, -7, 3194799977]),
        np.array([2**64 + 1, -(2**70), 3], dtype=object), ["a", "b%", "c d"],
        1 / 3, 12345678901234567890, np.int64(-9), "100% sure", None))
    serialize.write_csv(str(path), list("abcdefghi"), table)
    assert path.read_text() == (
        "a,b,c,d,e,f,g,h,i\n"
        "0.1,5,18446744073709551617,a,0.333333333,12345678901234567890,-9,100% sure,\n"
        "-2.47213595,-7,-1180591620717411303424,b%,0.333333333,12345678901234567890,-9,100% sure,\n"
        "1e-300,3194799977,3,c d,0.333333333,12345678901234567890,-9,100% sure,\n")


def test_columns_are_one_block_written_whole(tmp_path):
    # The table is its one block, formatted RUN_CELLS cells per % call.
    size = 2 * serialize.RUN_CELLS + 3
    values, index = np.linspace(-1.0, 1.0, size) / 3, np.arange(size) * 10**9
    texts = [f"t{i}%" for i in range(size)]
    table = serialize.Columns((values, index, texts, 2 / 3, None, "k%d"))
    assert [block is table.data for block in table.blocks()] == [True] and len(table) == size
    path = tmp_path / "table.csv"
    serialize.write_csv(str(path), ["x", "i", "t", "c", "gap", "k"], table)
    expected = "".join(f"{'%.9g' % x},{i},{t},{'%.9g' % (2 / 3)},,k%d\n"
                       for x, i, t in zip(values.tolist(), index.tolist(), texts))
    assert path.read_text() == "x,i,t,c,gap,k\n" + expected
    # A longer second column is refused.
    with pytest.raises(ValueError, match="one length"):
        len(serialize.Columns((np.arange(4.0), np.arange(8.0))))


@pytest.mark.parametrize("shared, texts", [
    (["p0", "p%d", "p2", "p3"], ["p0", "p%d", "p2", "p3"]),
    (np.array(["p0", "p%d", 2**64, -7], object), ["p0", "p%d", "18446744073709551616", "-7"]),
    (np.array([0.5, 1 / 3, -2e-300, 7.0]), ["0.5", "0.333333333", "-2e-300", "7"]),
])
def test_a_grid_block_writes_each_row_value_once_per_row(tmp_path, shared, texts):
    # A (rows, 1) array varies by grid row, a (rows, cells) array by cell, and a list or 1-D
    # array is every row's cells, its texts formatted once; the bytes are those of formatting
    # every field of every row alone.
    thetas, tags = np.array([[0.5], [1 / 3], [-2.0]]), np.array([["a%"], ["b"], ["%s"]], object)
    margins = np.arange(12.0).reshape(3, 4) / 7
    table = serialize.Columns((5, thetas, shared, margins, tags, "k%", None))
    assert serialize._shape(table.data) == (3, 4) and len(table) == 12
    path = tmp_path / "grid.csv"
    serialize.write_csv(str(path), list("ntpmgkz"), table)
    expected = "".join(f"5,{'%.9g' % t},{p},{'%.9g' % m},{g},k%,\n"
                       for t, g, row in zip(thetas[:, 0], tags[:, 0], margins)
                       for p, m in zip(texts, row))
    assert path.read_text() == "n,t,p,m,g,k,z\n" + expected
    # A list longer than the rows' cells, or rows of two lengths, are refused.
    for data in ((thetas, list(shared) + ["p4"], margins), (thetas[:2], margins)):
        with pytest.raises(ValueError, match="one length"):
            len(serialize.Columns(data))


def test_a_one_cell_wide_block_is_written_in_runs_of_cells(tmp_path):
    # Grid rows one cell wide are laid out as one row of cells and formatted RUN_CELLS cells
    # at a time; the bytes are those of formatting every field of every row alone.
    rows = 2 * serialize.RUN_CELLS + 5
    thetas = (np.arange(rows) / 7)[:, None]
    index = (np.arange(rows) * 10**9 - 3)[:, None]  # ints, by row
    tags = np.array([f"t{i}%" for i in range(rows)], dtype=object)[:, None]
    table = serialize.Columns((5, thetas, ["p%d"], np.array([0.25]), index, tags, "k%", None))
    assert serialize._shape(table.data) == (rows, 1)
    header = list("ntpqigkz")
    assert len(list(serialize._format_block(header, table.data))) == 3
    path = tmp_path / "narrow.csv"
    serialize.write_csv(str(path), header, table)
    expected = "".join(f"5,{'%.9g' % t},p%d,0.25,{i},{g},k%,\n"
                       for t, i, g in zip(thetas[:, 0].tolist(), index[:, 0].tolist(), tags[:, 0]))
    assert path.read_text() == "n,t,p,q,i,g,k,z\n" + expected


def test_block_needs_a_varying_column(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="varying column"):
        len(serialize.Columns((5, 0.5)))
    with pytest.raises(ValueError, match="varying column"):
        serialize.write_csv(str(path), ["n", "x"], _Table(1, [(5, 0.5)]))
    assert os.listdir(tmp_path) == []


def test_write_is_atomic(tmp_path):
    path = tmp_path / "out.csv"
    serialize.write_csv(str(path), ["x"], serialize.Columns((np.array([1.0]),)),
                        metadata={"timestamp": "2026-01-01T00:00:00+00:00"})
    assert path.exists()
    leftovers = [name for name in os.listdir(tmp_path) if name != "out.csv"]
    assert leftovers == []
    _, _, metadata = read_csv(str(path))
    assert metadata == {"timestamp": "2026-01-01T00:00:00+00:00"}


def test_json_is_written_without_holding_its_text(tmp_path):
    # About 4 MB of JSON: the encoder's chunks go to the file in small pieces as they come,
    # so the writer's peak stays far below the size of the text.
    body = {"rows": [f"{i:0200d}" for i in range(20000)], "values": [i / 7 for i in range(20000)]}
    path = tmp_path / "out.json"
    tracemalloc.start()
    try:
        serialize.write_json(str(path), body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000 and peak < size / 4
    assert path.read_text(encoding="utf-8") == json.dumps(body, indent=2) + "\n"


@pytest.fixture
def umask():
    """Set the process umask for a test and restore it afterwards."""
    saved = os.umask(0o022)
    yield os.umask
    os.umask(saved)


_WRITERS = {
    "csv": lambda path: serialize.write_csv(path, ["x"], serialize.Columns((np.array([1.0]),))),
    "json": lambda path: serialize.write_json(path, {"x": 1.0}),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002], ids=lambda mask: f"umask{mask:03o}")
def test_a_new_file_gets_the_mode_of_a_plain_open(tmp_path, umask, kind, mask):
    umask(mask)
    path, plain = tmp_path / f"out.{kind}", tmp_path / "plain"
    _WRITERS[kind](str(path))
    plain.open("w").close()
    assert os.stat(path).st_mode & 0o7777 == os.stat(plain).st_mode & 0o7777 == 0o666 & ~mask
    assert sorted(os.listdir(tmp_path)) == sorted([path.name, plain.name])


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_an_overwritten_file_keeps_its_mode(tmp_path, umask, kind):
    umask(0o022)
    path = tmp_path / f"out.{kind}"
    for mode in (0o644, 0o600, 0o640, 0o664):
        path.write_text("old\n")
        os.chmod(path, mode)
        _WRITERS[kind](str(path))
        assert os.stat(path).st_mode & 0o7777 == mode
        assert path.read_text() != "old\n"
    assert os.listdir(tmp_path) == [path.name]


def test_failed_or_short_table_leaves_no_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        serialize.write_csv(str(path), ["x"], _Table(
            3, [(np.array([1.0]),), (np.array([2.0]),)], RuntimeError("third block failed")))
    with pytest.raises(ValueError):
        serialize.write_csv(str(path), ["x"], _Table(3, [(np.array([1.0, 2.0]),)]))
    # Columns of different lengths, or more data columns than header fields, are refused.
    with pytest.raises(ValueError):
        serialize.write_csv(str(path), ["x", "y"],
                            serialize.Columns((np.array([1.0, 2.0]), np.array([3.0]))))
    with pytest.raises(ValueError):  # a block a table yields is held to one length too
        serialize.write_csv(str(path), ["x", "y"], _Table(
            2, [(np.array([1.0, 2.0]), np.array([3.0]))]))
    with pytest.raises(ValueError):
        serialize.write_csv(str(path), ["x"],
                            serialize.Columns((np.array([1.0]), np.array([2.0]))))
    with pytest.raises(ValueError):  # a later block's columns are held to the header too
        serialize.write_csv(str(path), ["x"], _Table(
            2, [(np.array([1.0]),), (np.array([1.0]), np.array([2.0]))]))
    assert os.listdir(tmp_path) == []
