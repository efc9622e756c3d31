import numpy as np
import pytest

from newstrend.artifacts import read_arrays, read_text, write_arrays
from newstrend.errors import DataError

MAGIC = "newstrend-test 1"


def arrays_of(header, arrays):
    return header, arrays


def test_roundtrip_keeps_header_order_and_values(tmp_path):
    path = tmp_path / "a.bin"
    x, y = np.arange(6.0).reshape(2, 3), np.array([np.pi, -0.5])
    write_arrays(path, MAGIC, {"note": "hi"}, [("y", y), ("x", x)])
    assert path.read_bytes().startswith(f"{MAGIC}\n".encode("ascii"))
    header, arrays = read_arrays(path, MAGIC, arrays_of)
    assert header["note"] == "hi" and header["magic"] == MAGIC
    assert header["arrays"] == [{"name": "y", "shape": [2]}, {"name": "x", "shape": [2, 3]}]
    assert np.array_equal(arrays["x"], x) and np.array_equal(arrays["y"], y)
    assert arrays["x"].flags.writeable


def test_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "a.bin"
    write_arrays(path, MAGIC, {}, [("x", np.arange(3.0))])
    before = path.read_bytes()
    # the header and the first array are written before the second fails
    with pytest.raises(ValueError):
        write_arrays(path, MAGIC, {}, [("x", np.arange(4.0)), ("y", np.array(["oops"]))])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_parse_errors_are_data_errors_naming_the_file(tmp_path):
    path = tmp_path / "a.bin"
    write_arrays(path, MAGIC, {}, [("x", np.arange(3.0))])

    def parse(header, arrays):
        return header["absent"]

    with pytest.raises(DataError, match="a.bin is corrupt: header lacks key 'absent'"):
        read_arrays(path, MAGIC, parse)
    with pytest.raises(DataError, match="a.bin is corrupt: expected magic"):
        read_arrays(path, "newstrend-other 1", arrays_of)
    with pytest.raises(DataError, match="cannot read .*b.bin"):
        read_arrays(tmp_path / "b.bin", MAGIC, arrays_of)


def test_read_text_of_undecodable_or_missing_file_is_data_error(tmp_path):
    path = tmp_path / "weeks.csv"
    path.write_bytes(b"anchor\n\xff\n")
    with pytest.raises(DataError, match="cannot read weeks file .*weeks.csv"):
        read_text(path, "weeks file")
    with pytest.raises(DataError, match="cannot read weeks file .*absent.csv"):
        read_text(tmp_path / "absent.csv", "weeks file")
