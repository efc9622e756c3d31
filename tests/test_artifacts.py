import os
from pathlib import Path

import numpy as np
import pytest

from newstrend import artifacts
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
    # the header and the first array are formatted before the second fails
    with pytest.raises(ValueError):
        write_arrays(path, MAGIC, {}, [("x", np.arange(4.0)), ("y", np.array(["oops"]))])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def _bad_rows():
    yield ["a", 1]
    raise ValueError("row 2 cannot be formatted")


# writer: (a call that succeeds, a call that fails while formatting)
WRITERS = {
    "write_text": (lambda p: artifacts.write_text(p, "a\nb\n"),
                   lambda p: artifacts.write_text(p, "a\n\udc80\n")),
    "write_csv": (lambda p: artifacts.write_csv(p, ["k", "v"], [["a", 1]]),
                  lambda p: artifacts.write_csv(p, ["k", "v"], _bad_rows())),
    "write_arrays": (lambda p: write_arrays(p, MAGIC, {}, [("x", np.arange(3.0))]),
                     lambda p: write_arrays(p, MAGIC, {}, [("y", np.array(["oops"]))])),
}


@pytest.mark.parametrize("where", ["formatting", "writing", "renaming"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_every_writer_keeps_the_previous_file_when_a_write_fails(tmp_path, monkeypatch,
                                                                  writer, where):
    path = tmp_path / "a.out"
    good, bad = WRITERS[writer]
    good(path)
    before = path.read_bytes()
    if where == "formatting":
        with pytest.raises((ValueError, UnicodeEncodeError)):
            bad(path)
    else:
        real_write_bytes = Path.write_bytes

        def write_half(self, data):  # the disk fills after half the bytes
            real_write_bytes(self, data[: len(data) // 2])
            raise OSError("disk full")

        def refuse(src, dst):
            raise OSError("disk full")

        if where == "writing":
            monkeypatch.setattr(Path, "write_bytes", write_half)
        else:
            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            good(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_text_writers_spell_line_ends_as_before(tmp_path):
    artifacts.write_text(tmp_path / "a.txt", "x\ny\n")
    assert (tmp_path / "a.txt").read_bytes() == b"x\ny\n"
    artifacts.write_csv(tmp_path / "a.csv", ["k", "v"], [["a,b", 1.5], ["", None]])
    assert (tmp_path / "a.csv").read_bytes() == b'k,v\r\n"a,b",1.5\r\n,\r\n'
    artifacts.write_csv(tmp_path / "empty.csv", [], [])
    assert (tmp_path / "empty.csv").read_bytes() == b""


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


@pytest.mark.parametrize("cut, why", [
    (0, f"the magic line {MAGIC!r} is missing"),
    (len(MAGIC), "the header-length line is missing"),
    (len(MAGIC) + 3, "the header-length line is missing"),
])
def test_empty_or_cut_file_names_the_missing_line(tmp_path, cut, why):
    path = tmp_path / "a.bin"
    write_arrays(path, MAGIC, {}, [("x", np.arange(3.0))])
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(DataError, match=f"a.bin is corrupt: {why}"):
        read_arrays(path, MAGIC, arrays_of)


def test_read_text_of_undecodable_or_missing_file_is_data_error(tmp_path):
    path = tmp_path / "weeks.csv"
    path.write_bytes(b"anchor\n\xff\n")
    with pytest.raises(DataError, match="cannot read weeks file .*weeks.csv"):
        read_text(path, "weeks file")
    with pytest.raises(DataError, match="cannot read weeks file .*absent.csv"):
        read_text(tmp_path / "absent.csv", "weeks file")
