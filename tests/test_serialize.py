"""Tests for the matrix JSON format and the CSV writer."""

import json
import os

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
                        serialize.Columns((float, float), ([0.34307127801047144], None)),
                        metadata=slopes)
    _, rows, metadata = read_csv(str(path))
    assert metadata == {"a": "0.343071278", "b": "-2.47213595", "c": "0.333333333"}
    assert rows == [["0.343071278", ""]]
    assert all(metadata[key] == "%.9g" % value for key, value in slopes.items())
    assert float(metadata["a"]) == pytest.approx(0.34307127801047144, rel=1e-8)


def test_write_csv_cells_and_metadata(tmp_path):
    path = tmp_path / "table.csv"
    table = serialize.Columns((int, float, str, str),
                              (np.array([5, 3194799977]), [0.123456789012, 2.5], None, "text"))
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
    """A table that yields the given ``Columns`` blocks, then raises ``error`` if one is given."""

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
    # Each block brings its own kinds and constants; the last has a float and a text constant.
    kinds = (float, int, str)
    blocks = [serialize.Columns(kinds, (np.array(values[:3]), index[:3], "m%d")),
              serialize.Columns(kinds, (values[3:6], np.array(index[3:6]), "m%d")),
              serialize.Columns(kinds, (values[6:], index[6:], "m%d")),
              serialize.Columns((str, float, str), (["a", "b"], 1 / 3, "k%"))]
    path = tmp_path / "table.csv"
    serialize.write_csv(str(path), ["x", "i", "tag"], _Table(9, blocks))
    _, rows, _ = read_csv(str(path))
    assert rows == ([["%.9g" % v, str(i), "m%d"] for i, v in enumerate(values)]
                    + [["a", "0.333333333", "k%"], ["b", "0.333333333", "k%"]])


def test_constants_go_through_their_kinds_format(tmp_path):
    # A non-sequence value in data is a constant: an int through %d, a str
    # through %s with its % kept, a float through %.9g, None as an empty field.
    path = tmp_path / "table.csv"
    table = serialize.Columns((int, int, str, float, float, str),
                              (3194799977, np.int64(7), "100% sure", 2 / 3, None, ["a", "b"]))
    assert len(table) == 2
    serialize.write_csv(str(path), ["i", "j", "s", "x", "gap", "t"], table)
    _, rows, _ = read_csv(str(path))
    assert rows == [["3194799977", "7", "100% sure", "0.666666667", "", t] for t in "ab"]


def test_block_needs_a_varying_column_and_known_kinds(tmp_path):
    path = tmp_path / "table.csv"
    constants = serialize.Columns((int, float), (5, 0.5))
    with pytest.raises(ValueError, match="varying column"):
        len(constants)
    with pytest.raises(ValueError, match="varying column"):
        serialize.write_csv(str(path), ["n", "x"], _Table(1, [constants]))
    for kind in (bool, "text", None):
        with pytest.raises(ValueError, match="float, int or str"):
            serialize.write_csv(str(path), ["x"], serialize.Columns((kind,), ([1.0],)))
    assert os.listdir(tmp_path) == []


def test_write_is_atomic(tmp_path):
    path = tmp_path / "out.csv"
    serialize.write_csv(str(path), ["x"], serialize.Columns((float,), ([1.0],)),
                        metadata={"timestamp": "2026-01-01T00:00:00+00:00"})
    assert path.exists()
    leftovers = [name for name in os.listdir(tmp_path) if name != "out.csv"]
    assert leftovers == []
    _, _, metadata = read_csv(str(path))
    assert metadata == {"timestamp": "2026-01-01T00:00:00+00:00"}


def test_failed_or_short_table_leaves_no_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        serialize.write_csv(str(path), ["x"], _Table(
            3, [serialize.Columns((float,), ([1.0],)), serialize.Columns((float,), ([2.0],))],
            RuntimeError("third block failed")))
    with pytest.raises(ValueError):
        serialize.write_csv(str(path), ["x"],
                            _Table(3, [serialize.Columns((float,), ([1.0, 2.0],))]))
    # Columns of different lengths, or more kinds than header fields, are refused.
    with pytest.raises(ValueError):
        serialize.write_csv(str(path), ["x", "y"],
                            serialize.Columns((float, float), ([1.0, 2.0], [3.0])))
    with pytest.raises(ValueError):
        serialize.write_csv(str(path), ["x"], serialize.Columns((float, float), ([1.0], [2.0])))
    with pytest.raises(ValueError):  # a later block's kinds are held to the header too
        serialize.write_csv(str(path), ["x"], _Table(
            2, [serialize.Columns((float,), ([1.0],)),
                serialize.Columns((float, float), ([1.0], [2.0]))]))
    assert os.listdir(tmp_path) == []
