import json
import os
import struct
import sys
import tempfile
from array import array
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstrend import artifacts
from newstrend.artifacts import read_arrays, read_text, write_arrays
from newstrend.errors import DataError
from newstrend.summarizer import read_weekly_sentiment_csv
from newstrend.weeks import load_prices, read_weeks_csv

MAGIC = "newstrend-test 1"
STAGE = "synth"  # the stage an error about the magic line tells the user to re-run


def arrays_of(header, arrays):
    return header, dict(arrays)  # each read while the file is open


def read(path, parse=arrays_of, magic=MAGIC):
    return read_arrays(path, magic, parse, STAGE)


def edit_header(path, edit):
    """Rewrite the JSON header of the array file `path` as `edit` changes it."""
    magic, size, rest = path.read_bytes().split(b"\n", 2)
    header = json.loads(rest[: int(size)])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(b"%s\n%d\n%s%s" % (magic, len(blob), blob, rest[int(size):]))


def body_of(path):
    _, size, rest = path.read_bytes().split(b"\n", 2)
    return rest[int(size):]


def test_roundtrip_keeps_header_order_and_values(tmp_path):
    path = tmp_path / "a.bin"
    x, y = np.arange(6.0).reshape(2, 3), np.array([np.pi, -0.5])
    ids, days = array("i", [7, -1]), np.array([737432, 1], dtype=">i8")
    write_arrays(path, MAGIC, {"note": "hi"}, [("y", y), ("x", x), ("ids", ids), ("days", days)])
    assert path.read_bytes().startswith(f"{MAGIC}\n".encode("ascii"))
    header, arrays = read(path)
    assert header["note"] == "hi" and header["magic"] == MAGIC
    assert header["arrays"] == [{"name": "y", "shape": [2], "dtype": "<f8"},
                                {"name": "x", "shape": [2, 3], "dtype": "<f8"},
                                {"name": "ids", "shape": [2], "dtype": "<i4"},
                                {"name": "days", "shape": [2], "dtype": "<i8"}]
    assert np.array_equal(arrays["x"], x) and np.array_equal(arrays["y"], y)
    assert arrays["ids"].dtype == np.int32 and arrays["ids"].tolist() == [7, -1]
    assert arrays["days"].dtype == np.int64 and arrays["days"].tolist() == [737432, 1]
    assert arrays["x"].flags.writeable and arrays["ids"].flags.writeable
    assert len(body_of(path)) == 8 * 8 + 2 * 4 + 2 * 8


def test_failed_write_keeps_the_previous_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "a.bin"
    write_arrays(path, MAGIC, {}, [("x", np.arange(3.0))])
    before = path.read_bytes()
    # the second array's type is refused before anything is written
    with pytest.raises(ValueError):
        write_arrays(path, MAGIC, {}, [("x", np.arange(4.0)), ("y", np.array(["oops"]))])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


TYPECODES = {dtype: code for code, dtype in artifacts.DTYPES.items()}
VALUES = {"<f8": st.floats(width=64), "<i8": st.integers(-(2**63), 2**63 - 1),
          "<i4": st.integers(-(2**31), 2**31 - 1)}
# a dtype, values of it, and how the writer is given them: as a stdlib
# array, or as a numpy array of either byte order
typed_values = st.sampled_from(sorted(VALUES)).flatmap(lambda dtype: st.tuples(
    st.just(dtype), st.lists(VALUES[dtype], max_size=5), st.sampled_from(["array", "<", ">"])))


@given(st.lists(typed_values, max_size=4))
@settings(max_examples=80, deadline=None)
def test_each_dtype_round_trips_bit_for_bit(specs):
    given_arrays = [(f"a{i}", array(TYPECODES[dtype], values) if kind == "array"
                     else np.array(values, dtype=kind + dtype[1:]))
                    for i, (dtype, values, kind) in enumerate(specs)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.bin"
        write_arrays(path, MAGIC, {}, given_arrays)
        header, arrays = read(path)
        body = body_of(path)
    assert [spec["dtype"] for spec in header["arrays"]] == [dtype for dtype, _, _ in specs]
    want = [np.array(values, dtype=dtype) for dtype, values, _ in specs]
    assert body == b"".join(w.tobytes() for w in want)
    for (name, _), w in zip(given_arrays, want):
        assert arrays[name].dtype == w.dtype and arrays[name].shape == w.shape
        assert arrays[name].tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", ["<f4", ">f8", "<u4", "|b1", "float64", None, "absent"])
def test_a_declared_dtype_outside_the_three_is_a_data_error_naming_the_file(tmp_path, dtype):
    path = tmp_path / "a.bin"
    write_arrays(path, MAGIC, {}, [("x", np.arange(3.0))])
    if dtype == "absent":
        edit_header(path, lambda header: header["arrays"][0].pop("dtype"))
        why = "header lacks key 'dtype'"
    else:
        edit_header(path, lambda header: header["arrays"][0].update(dtype=dtype))
        why = f"x has dtype {dtype!r}, not one of <f8, <i8, <i4"
    with pytest.raises(DataError, match=f"a.bin is corrupt: {why}"):
        read(path)


@pytest.mark.parametrize("a", [np.arange(3, dtype=np.float32), np.arange(3, dtype=np.uint32),
                               np.array([True]), np.array(["oops"]), array("f", [1.0]),
                               array("I", [1]), array("b", [1])],
                         ids=["float32", "uint32", "bool", "str", "array-f", "array-I", "array-b"])
def test_an_array_of_another_type_writes_nothing(tmp_path, a):
    with pytest.raises(ValueError, match="x is of .*; an array file stores <f8, <i8, <i4"):
        write_arrays(tmp_path / "a.bin", MAGIC, {}, [("x", a)])
    assert list(tmp_path.iterdir()) == []


def test_a_big_endian_host_writes_its_stdlib_arrays_little_endian(tmp_path, monkeypatch):
    values = {"d": [1.5, -2.0, 1e300], "q": [3, -4, 2**62], "i": [5, -6, 2**30]}
    # the arrays as a host of the other byte order holds them
    held = {code: array(code, v) for code, v in values.items()}
    for a in held.values():
        a.byteswap()
    before = {code: a.tobytes() for code, a in held.items()}
    monkeypatch.setattr(sys, "byteorder", "little" if sys.byteorder == "big" else "big")
    path = tmp_path / "a.bin"
    write_arrays(path, MAGIC, {}, list(held.items()))
    assert body_of(path) == (struct.pack("<3d", *values["d"]) + struct.pack("<3q", *values["q"])
                             + struct.pack("<3i", *values["i"]))
    assert {code: a.tobytes() for code, a in held.items()} == before  # swapped in a copy
    _, arrays = read(path)
    assert {code: a.tolist() for code, a in arrays.items()} == values


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


class SmallDisk:
    """A file opened for writing on a disk that fills after `room` bytes."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data) -> int:
        data = memoryview(data).cast("B")
        self.fh.write(data[: self.room])
        if len(data) > self.room:
            raise OSError("disk full")
        self.room -= len(data)
        return len(data)


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
        real_open = Path.open

        def open_on_small_disk(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return SmallDisk(fh, len(before) // 2) if "w" in mode else fh

        def refuse(src, dst):
            raise OSError("disk full")

        if where == "writing":
            monkeypatch.setattr(Path, "open", open_on_small_disk)
        else:
            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(DataError, match=f"cannot write {path}: disk full"):
            good(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_chunks_that_fail_midway_keep_the_previous_file_and_leave_no_temp_file(tmp_path):
    path = tmp_path / "a.out"
    artifacts.write_bytes(path, [b"old\n"])

    def chunks():
        yield b"new line\n" * 2000  # larger than the file buffer, so on disk now
        (tmp,) = set(tmp_path.iterdir()) - {path}
        assert tmp.name == f".a.out.{os.getpid()}.tmp" and tmp.stat().st_size == 18000
        raise ValueError("line 2001 cannot be encoded")

    with pytest.raises(ValueError, match="line 2001"):
        artifacts.write_bytes(path, chunks())
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_a_path_under_a_regular_file_is_a_data_error_naming_it(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(DataError, match=f"cannot write {blocker / 'a.out'}: Not a directory"):
        artifacts.write_text(blocker / "a.out", "a\n")
    assert list(tmp_path.iterdir()) == [blocker]


def test_a_rename_over_a_directory_is_a_data_error_and_removes_the_temp_file(tmp_path):
    (tmp_path / "a.out").mkdir()
    with pytest.raises(DataError, match=f"cannot write {tmp_path / 'a.out'}: Is a directory"):
        artifacts.write_bytes(tmp_path / "a.out", [b"new\n"])
    assert list(tmp_path.iterdir()) == [tmp_path / "a.out"]


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
        read(path, parse)
    with pytest.raises(DataError, match="a.bin is corrupt: expected magic 'newstrend-test 2', "
                                        "found b'newstrend-test 1'; re-run `synth` to rewrite it"):
        read(path, magic="newstrend-test 2")
    with pytest.raises(DataError, match="cannot read .*b.bin"):
        read(tmp_path / "b.bin")


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
        read(path)


def test_read_text_of_undecodable_or_missing_file_is_data_error(tmp_path):
    path = tmp_path / "weeks.csv"
    path.write_bytes(b"anchor\n\xff\n")
    with pytest.raises(DataError, match="cannot read weeks file .*weeks.csv"):
        read_text(path, "weeks file")
    with pytest.raises(DataError, match="cannot read weeks file .*absent.csv"):
        read_text(tmp_path / "absent.csv", "weeks file")


def _day(i):
    return (date(2020, 1, 6) + timedelta(weeks=i)).isoformat()


# each CSV the pipeline reads back: its reader, its columns, the fields of a
# valid row for week i, and the index of a numeric column
CSV_FILES = {
    "prices.csv": (load_prices, ["date", "close"], lambda i: [_day(i), f"{100 + i}.0"], 1),
    "weeks.csv": (read_weeks_csv,
                  ["anchor", "prev_anchor", "pct_change", "extractor_class", "pot_class",
                   "summarizer_class"],
                  lambda i: [_day(i + 1), _day(i), "0.50000000", "excluded", "pos", "preserve"],
                  2),
    "weekly_sentiment.csv": (read_weekly_sentiment_csv,
                             ["anchor", "n_sampled", "overall_score", "true_class"],
                             lambda i: [_day(i), "3", "0.2500000000", "up"], 2),
}


def _set(table, line, j, value):
    table[line - 1][j] = value


# each edit of a valid table (header first) and the error it must raise,
# or None where the file must load as the valid one does
CONTRACT = {
    "bad field": (lambda t, j: _set(t, 3, j, "bad"), "line 3: bad or missing field"),
    "key out of order": (lambda t, j: t.__setitem__(3, list(t[1])),
                         "line 4: .* does not follow .*; rows must strictly increase"),
    "short row": (lambda t, j: t[2].pop(), "line 3: bad or missing field"),
    # a Unicode line break neither ends a row nor shifts the line count
    "unicode line break": (lambda t, j: (_set(t, 3, j, t[2][j] + "\u2028"), _set(t, 5, j, "x")),
                           "line 5: bad or missing field"),
    "whitespace-only row": (lambda t, j: t.insert(2, [" "] * len(t[0])), None),
    "upper-case header": (lambda t, j: t.__setitem__(0, [f" {c.upper()}" for c in t[0]]), None),
    "columns reordered": (lambda t, j: [row.reverse() for row in t], None),
    "empty file": (lambda t, j: t.clear(), "holds no rows"),
    "field past the csv size limit": (lambda t, j: _set(t, 3, j, "1" * 200_000),
                                      r"line 3: field larger than field limit \(131072\)"),
}


@pytest.mark.parametrize("case", CONTRACT)
@pytest.mark.parametrize("name", CSV_FILES)
def test_every_csv_read_back_keeps_one_contract(tmp_path, name, case):
    reader, columns, row, j = CSV_FILES[name]
    table = [list(columns)] + [row(i) for i in range(6)]  # a case may reorder the header
    clean = tmp_path / "clean.csv"
    clean.write_text("".join(",".join(fields) + "\n" for fields in table), encoding="utf-8")
    edit, error = CONTRACT[case]
    edit(table, j)
    path = tmp_path / name
    path.write_text("".join(",".join(fields) + "\n" for fields in table), encoding="utf-8")
    if error is None:
        assert reader(path) == reader(clean)
    else:
        with pytest.raises(DataError, match=f"{name} {error}"):
            reader(path)


@pytest.mark.parametrize("text", ["[]", "3", '"config"', '{"config": []}', '{"config": 1}'],
                         ids=["list", "number", "string", "config_list", "config_number"])
def test_manifest_of_the_wrong_shape_is_a_data_error_naming_it(tmp_path, text):
    artifact = tmp_path / "prices.csv"
    artifacts.manifest_path(artifact).write_text(text)
    with pytest.raises(DataError, match="manifest .*prices.csv.manifest.json must hold "
                                        "a JSON object whose 'config' is an object"):
        artifacts.config_drift(artifact, {"synth.seed": 7})


def test_manifest_without_a_config_has_no_drift(tmp_path):
    artifact = tmp_path / "prices.csv"
    artifacts.manifest_path(artifact).write_text('{"command": "synth"}')
    assert artifacts.config_drift(artifact, {"synth.seed": 7}) == []
