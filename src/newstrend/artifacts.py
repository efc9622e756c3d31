"""Workdir bookkeeping: `write_bytes`, through which every file the pipeline
writes goes, `read_csv`, through which every CSV it reads back goes, the
array-file format, manifests, hashing, and the advisory lock.

An array file (`write_arrays`, `read_arrays`) is a magic line naming its
kind and layout version, a line holding the header's length in bytes, a
sorted-key JSON header whose `arrays` entry gives each array's name, shape
and dtype, one of DTYPES, then each array's little-endian bytes in turn.
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
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, TypeVar

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


# the dtypes an array file stores, little-endian, by the stdlib `array`
# typecode that holds each
DTYPES = {"d": "<f8", "q": "<i8", "i": "<i4"}


def write_arrays(path: str | Path, magic: str, header: Mapping,
                 arrays: Sequence[tuple[str, np.ndarray | array]]) -> None:
    """Write `header` and the named `arrays` as one array file (`write_bytes`),
    each array's dtype in the header and its buffer a chunk of its own. An
    array is a numpy array of a dtype in DTYPES, of either byte order, or a
    stdlib `array` of a typecode in DTYPES, taken as one-dimensional and
    packed without importing numpy; any other is a ValueError."""
    typed = [(name, *_typed(name, a)) for name, a in arrays]
    header = {**header, "magic": magic, "arrays": [
        {"name": name, "shape": shape, "dtype": dtype} for name, shape, dtype, _ in typed]}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    write_bytes(path, [b"%s\n%d\n%s" % (magic.encode("ascii"), len(blob), blob),
                       *(buffer for *_, buffer in typed)])


def _typed(name: str, a: np.ndarray | array) -> tuple[list[int], str, np.ndarray | array]:
    """The shape, dtype and little-endian buffer of `a`, copied only where
    its byte order differs."""
    from array import array

    if isinstance(a, array):
        shape, dtype = [len(a)], DTYPES.get(a.typecode, f"array({a.typecode!r})")
        if sys.byteorder == "big":
            a = array(a.typecode, a)
            a.byteswap()
    else:
        import numpy as np

        shape, dtype = list(a.shape), a.dtype.newbyteorder("<").str
        a = np.ascontiguousarray(a, dtype=dtype)
    if dtype not in DTYPES.values():
        raise ValueError(f"{name} is of {dtype}; an array file stores {', '.join(DTYPES.values())}")
    return shape, dtype, a


def read_arrays(path: str | Path, magic: str,
                parse: Callable[[dict, Mapping[str, np.ndarray]], T], stage: str) -> T:
    """`parse(header, arrays)` of an array file that the CLI stage `stage`
    writes. Each lookup `arrays[name]` in `parse` reads that array from the
    file into a writable array of its own, of the dtype the header declares,
    so no reader holds a second copy of the body or an array it has dropped.
    A missing or wrong magic line (a file of another layout version, say:
    the error names `stage`, which rewrites it), header-length line or
    header, a dtype not in DTYPES, a body whose length differs from the
    declared shapes, and a KeyError, ValueError or TypeError in `parse` are
    DataErrors naming the file."""
    try:
        with open(path, "rb") as fh:
            arrays = _Arrays(fh, magic, stage)
            return parse(arrays.header, arrays)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path} is corrupt: header lacks key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise DataError(f"{path} is corrupt: {exc}") from None


class _Arrays(Mapping):
    """The `header` of the array file open as `fh`, and its arrays by name,
    each read from the file into an array of its declared shape and dtype
    whenever it is looked up."""

    def __init__(self, fh: BinaryIO, magic: str, stage: str):
        import numpy as np

        lines = fh.read(len(magic) + 32).split(b"\n", 2)
        if lines == [b""]:
            raise ValueError(f"the magic line {magic!r} is missing")
        if lines[0] != magic.encode("ascii"):
            raise ValueError(f"expected magic {magic!r}, found {lines[0][:40]!r}; "
                             f"re-run `{stage}` to rewrite it")
        if len(lines) < 3 or not lines[1].isdigit():
            raise ValueError("the header-length line is missing")
        start = len(lines[0]) + len(lines[1]) + 2
        end, file_size = start + int(lines[1]), os.fstat(fh.fileno()).st_size
        fh.seek(start)
        self.header = json.loads(fh.read(min(end, file_size) - start))
        self._fh, self._places, at = fh, {}, end
        for spec in self.header["arrays"]:  # in file order
            if spec["dtype"] not in DTYPES.values():
                raise ValueError(f"{spec['name']} has dtype {spec['dtype']!r}, not one of "
                                 f"{', '.join(DTYPES.values())}")
            self._places[spec["name"]] = (at, spec)
            at += math.prod(spec["shape"]) * np.dtype(spec["dtype"]).itemsize
        # the body's length is checked against the file's before any array is allocated
        if file_size != at:
            raise ValueError(f"{file_size - end} array bytes where the header declares {at - end}")

    def __getitem__(self, name: str) -> np.ndarray:
        import numpy as np

        at, spec = self._places[name]
        a = np.empty(spec["shape"], dtype=spec["dtype"])
        self._fh.seek(at)
        if self._fh.readinto(a) != a.nbytes:  # the file shrank while it was read
            raise ValueError("the array bytes end short of those the header declares")
        return a

    def __iter__(self):
        return iter(self._places)

    def __len__(self) -> int:
        return len(self._places)


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
