"""Workdir bookkeeping: `write_bytes`, through which every file the pipeline
writes goes, `read_csv`, through which every CSV it reads back goes, the
array-file format, manifests, hashing, and the advisory lock.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, BinaryIO, Callable, Collection, Iterable, Mapping, Sequence,
                    TypeVar)

from .errors import ConfigError, DataError

if TYPE_CHECKING:  # numpy and the stdlib array load only where arrays are read or written
    from array import array

    import numpy as np

VERSION = "0.1.0"

T = TypeVar("T")


def write_bytes(path: str | Path, chunks: Iterable[bytes | np.ndarray | array]) -> None:
    """Write each of `chunks` in turn to `.<name>.<pid>.tmp` beside `path`,
    then rename it over `path`; on any error, one raised while the chunks
    are produced included, the temporary file is removed. An OSError is a
    DataError naming `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # where it cannot be opened, it cannot be removed either
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def write_text(path: str | Path, text: str) -> None:
    """`write_bytes` of the UTF-8 `text`, line ends as given."""
    write_bytes(path, [text.encode("utf-8")])


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """`write_bytes` of `header` and `rows` as `csv.writer` spells them in
    UTF-8, CRLF line ends included, one row a chunk; an empty `header`
    writes no header line."""
    writer = csv.writer(_Echo())  # `writerow` returns the line it wrote
    rows = itertools.chain([header] if header else [], rows)
    write_bytes(path, (writer.writerow(row).encode("utf-8") for row in rows))


class _Echo:
    """A file whose `write` returns what it is given."""

    def write(self, text: str) -> str:
        return text


@dataclass(frozen=True)
class Chunks:
    """A one-dimensional array of `length` values for `write_arrays`, given
    as `parts`, arrays it takes one after another, so that the whole array
    need not exist at once."""

    length: int
    parts: Iterable[np.ndarray | array]


def write_arrays(path: str | Path, magic: str, header: Mapping,
                 arrays: Sequence[tuple[str, np.ndarray | array | Chunks]]) -> None:
    """Write `header` and the named `arrays` as one array file (`write_bytes`),
    each array's buffer a chunk of its own, or each part's of `Chunks`. An
    array is a numpy array, or a stdlib `array("d")`, taken as
    one-dimensional and packed without importing numpy; `Chunks` whose parts
    do not hold `length` values in all are a ValueError."""
    header = {**header, "magic": magic, "arrays": [
        {"name": name, "shape": _shape(a)} for name, a in arrays]}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    write_bytes(path, itertools.chain(
        [b"%s\n%d\n%s" % (magic.encode("ascii"), len(blob), blob)],
        *(_f8_parts(name, a) for name, a in arrays)))


def _shape(a: np.ndarray | array | Chunks) -> list[int]:
    from array import array

    if isinstance(a, Chunks):
        return [a.length]
    return [len(a)] if isinstance(a, array) else list(a.shape)


def _f8_parts(name: str, a: np.ndarray | array | Chunks) -> Iterable[np.ndarray | array]:
    """The buffers of `a` (`_f8_buffer`), its parts one by one for `Chunks`."""
    from array import array

    if not isinstance(a, Chunks):
        yield _f8_buffer(a)
        return
    count = 0
    for part in a.parts:
        part = _f8_buffer(part)
        count += len(part) if isinstance(part, array) else part.size
        yield part
    if count != a.length:
        raise ValueError(f"{name} has {count} values in its parts, not the {a.length} declared")


def _f8_buffer(a: np.ndarray | array) -> np.ndarray | array:
    """`a` as a contiguous buffer of little-endian float64, copied only when
    its type or byte order differ."""
    from array import array

    if isinstance(a, array):
        if a.typecode != "d":
            raise TypeError(f"an array file stores float64, not array({a.typecode!r})")
        if sys.byteorder == "big":
            a = array("d", a)
            a.byteswap()
        return a
    import numpy as np

    return np.ascontiguousarray(a, dtype="<f8")


def read_arrays(path: str | Path, magic: str,
                parse: Callable[[dict, dict[str, np.ndarray]], T],
                int32: Collection[str] = ()) -> T:
    """`parse(header, arrays)` of an array file. The arrays are writable
    float64 views into one `bytearray` that holds the file's body, read
    once, so no reader holds a second copy of it; an array that `parse`
    keeps keeps that buffer. An array named in `int32` is read into an int32
    array of its own instead, READ_CHUNK values at a time, so its float64
    values are never held whole; each must be an integer that int32 holds.
    A missing or wrong magic line, header-length line or header, a body
    whose length differs from the declared shapes, and a KeyError,
    ValueError or TypeError in `parse` are DataErrors naming the file."""
    try:
        with open(path, "rb") as fh:
            header, arrays = _decode(fh, magic, int32)
        return parse(header, arrays)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path} is corrupt: header lacks key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise DataError(f"{path} is corrupt: {exc}") from None


# values of an int32 array read and checked in one step: 64 KB as float64
READ_CHUNK = 1 << 13


def _decode(fh: BinaryIO, magic: str, int32: Collection[str]) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the named arrays of the array file open as `fh`."""
    import numpy as np

    lines = fh.read(len(magic) + 32).split(b"\n", 2)
    if lines == [b""]:
        raise ValueError(f"the magic line {magic!r} is missing")
    if lines[0] != magic.encode("ascii"):
        raise ValueError(f"expected magic {magic!r}, found {lines[0][:40]!r}")
    if len(lines) < 3 or not lines[1].isdigit():
        raise ValueError("the header-length line is missing")
    start = len(lines[0]) + len(lines[1]) + 2
    end, file_size = start + int(lines[1]), os.fstat(fh.fileno()).st_size
    fh.seek(start)
    header = json.loads(fh.read(min(end, file_size) - start))
    counts = [math.prod(spec["shape"]) for spec in header["arrays"]]
    # the body's length is checked against the file's before it is allocated
    size = file_size - end
    if size != 8 * sum(counts):
        raise ValueError(f"{size} array bytes where the header declares {8 * sum(counts)}")
    body = bytearray(8 * sum(c for spec, c in zip(header["arrays"], counts)
                             if spec["name"] not in int32))
    # native float64 views of the buffer, which starts aligned: the file's
    # little-endian bytes are read into it and swapped in place where needed
    flat, at, arrays = np.frombuffer(body, dtype=np.float64), 0, {}
    for spec, count in zip(header["arrays"], counts):  # in file order
        if spec["name"] in int32:
            a = _read_int32(fh, spec["name"], count, size)
        else:
            a, at = flat[at : at + count], at + count
            _read_exactly(fh, memoryview(a).cast("B"), size)
        arrays[spec["name"]] = a.reshape(spec["shape"])
    if sys.byteorder == "big":
        flat.byteswap(inplace=True)
    return header, arrays


def _read_int32(fh: BinaryIO, name: str, count: int, size: int) -> np.ndarray:
    """The next `count` float64 values of `fh` as an int32 array, read and
    checked READ_CHUNK at a time; a value that is not an integer int32 holds
    is a ValueError."""
    import numpy as np

    low, high = -(2**31), 2**31
    out = np.empty(count, dtype=np.int32)
    chunk = bytearray(8 * min(count, READ_CHUNK))
    for lo in range(0, count, READ_CHUNK):
        n = min(READ_CHUNK, count - lo)
        _read_exactly(fh, memoryview(chunk)[: 8 * n], size)
        part = np.frombuffer(chunk, dtype="<f8", count=n)
        if not (np.all((part >= low) & (part < high)) and np.all(np.floor(part) == part)):
            raise ValueError(f"{name} holds a value that is not an integer in [{low}, {high})")
        out[lo:lo + n] = part
    return out


def _read_exactly(fh: BinaryIO, buf: memoryview, size: int) -> None:
    with buf:
        if fh.readinto(buf) != len(buf):  # the file shrank while it was read
            raise ValueError(f"the array bytes end short of the {size} declared")


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of `path`; an unreadable or undecodable file is a
    DataError naming `what` and the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None


def read_lines(path: str | Path, what: str) -> Iterable[str]:
    """The lines of `read_text(path, what)`, read one at a time, without
    their "\\n"; errors as `read_text` names them."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                yield line.removesuffix("\n")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        read_text(path, what)  # names the first undecodable byte by its place in the file
        raise DataError(f"cannot read {what} {path}: {exc}") from None


def read_csv(path: str | Path, what: str,
             parse: Callable[[dict[str, str]], tuple[object, T]]) -> list[T]:
    """The items of the CSV `path`, the pipeline's `what`, in row order:
    `parse(row)` returns a row's key and item, a row mapping each header name,
    stripped and lowercased, to its field. Rows end only at `\\n` or `\\r`,
    rows of blank fields are skipped, and keys must strictly increase; a
    KeyError, TypeError or ValueError in a row, and a file of no rows, are
    DataErrors naming the file and the line, as is a line `csv` cannot read
    (a field past its size limit, say)."""
    reader = csv.reader(io.StringIO(read_text(path, what), newline=""))
    items: list[T] = []
    try:
        header = [name.strip().lower() for name in next(reader, [])]
        for fields in reader:
            if not "".join(fields).strip():
                continue
            try:
                key, item = parse(dict(zip(header, fields)))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{what} {path} line {reader.line_num}: bad or missing "
                                f"field {exc}") from None
            if items and not last < key:
                raise DataError(f"{what} {path} line {reader.line_num}: {key} does not "
                                f"follow {last}; rows must strictly increase")
            last = key
            items.append(item)
    except csv.Error as exc:
        raise DataError(f"{what} {path} line {reader.line_num}: {exc}") from None
    if not items:
        raise DataError(f"{what} {path} holds no rows")
    return items


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_path(artifact: Path) -> Path:
    return artifact.parent / (artifact.name + ".manifest.json")


def write_manifest(
    artifact: Path, command: str, config_flat: Mapping, inputs: Mapping[str, str]
) -> None:
    """`inputs` maps each input's name to its sha256 digest."""
    payload = {
        "artifact": artifact.name,
        "command": command,
        "version": VERSION,
        "config": {k: v for k, v in sorted(config_flat.items())},
        "inputs": dict(sorted(inputs.items())),
    }
    write_text(manifest_path(artifact), json.dumps(payload, sort_keys=True, indent=1) + "\n")


def read_manifest(artifact: Path) -> dict | None:
    """The manifest of `artifact`, or None; a DataError names one of the wrong shape."""
    path = manifest_path(artifact)
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"manifest {path} is unreadable: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config", {}), dict):
        raise DataError(f"manifest {path} must hold a JSON object whose 'config' is an object")
    return manifest


def config_drift(artifact: Path, config_flat: Mapping) -> list[str]:
    """Keys whose value differs between the artifact's manifest and now."""
    manifest = read_manifest(artifact)
    if manifest is None:
        return []
    old = manifest.get("config", {})
    return sorted(
        k for k, v in config_flat.items() if k in old and old[k] != json.loads(json.dumps(v))
    )


@contextmanager
def workdir_lock(workdir: Path, force: bool = False):
    """Advisory single-writer lock: one command per workdir at a time.

    The lock file holds the owner's pid. `force` takes over a stale lock by
    rewriting it; on exit the lock is removed only if it still holds this
    process's pid, so a lock another process has since taken survives.
    """
    lock = workdir / ".lock"
    pid = str(os.getpid())
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, pid.encode("ascii"))
        os.close(fd)
    except FileExistsError:
        if not force:
            raise ConfigError(
                f"workdir {workdir} is locked ({lock} exists); another command may be "
                f"running. Remove the lock file or pass --force."
            )
        lock.write_text(pid, encoding="ascii")
    try:
        yield
    finally:
        try:
            if lock.read_text(encoding="ascii") == pid:
                lock.unlink()
        except FileNotFoundError:
            pass
