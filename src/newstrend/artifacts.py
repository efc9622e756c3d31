"""Workdir bookkeeping: `write_bytes`, through which every file the pipeline
writes goes, the array-file format, manifests, hashing, and the advisory lock.

Every binary artifact (`pot.bin`, `extractor.model`) is one array file: a
magic line, a line holding the header's length in bytes, a sorted-key JSON
header whose `arrays` entry lists each array's name and shape, then those
arrays in that order as raw little-endian float64.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import ConfigError, DataError

if TYPE_CHECKING:  # numpy loads only where arrays are read or written
    import numpy as np

VERSION = "0.1.0"

T = TypeVar("T")


def write_bytes(path: str | Path, data: bytes) -> None:
    """Write `data` to `.<name>.<pid>.tmp` beside `path` and rename it over
    `path`; on any error the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """`write_bytes` of the UTF-8 `text`, line ends as given."""
    write_bytes(path, text.encode("utf-8"))


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """`write_text` of `header` and `rows` as `csv.writer` spells them, CRLF
    line ends included; an empty `header` writes no header line."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def write_arrays(path: str | Path, magic: str, header: Mapping,
                 arrays: Sequence[tuple[str, np.ndarray]]) -> None:
    """Write `header` and the named `arrays` as one array file (`write_bytes`)."""
    import numpy as np

    header = {**header, "magic": magic,
              "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays]}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    write_bytes(path, b"".join(
        [b"%s\n%d\n%s" % (magic.encode("ascii"), len(blob), blob)]
        + [np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays]))


def read_arrays(path: str | Path, magic: str,
                parse: Callable[[dict, dict[str, np.ndarray]], T]) -> T:
    """`parse(header, arrays)` of an array file. A missing or wrong magic line,
    header-length line or header, a body whose length differs from the
    declared shapes, and a KeyError, ValueError or TypeError in `parse` are
    DataErrors naming the file."""
    import numpy as np

    try:
        lines = Path(path).read_bytes().split(b"\n", 2)
        if lines == [b""]:
            raise ValueError(f"the magic line {magic!r} is missing")
        if lines[0] != magic.encode("ascii"):
            raise ValueError(f"expected magic {magic!r}, found {lines[0][:40]!r}")
        if len(lines) < 3 or not lines[1].isdigit():
            raise ValueError("the header-length line is missing")
        _, size, rest = lines
        header, body = json.loads(rest[: int(size)]), memoryview(rest)[int(size):]
        counts = [math.prod(spec["shape"]) for spec in header["arrays"]]
        if len(body) != 8 * sum(counts):
            raise ValueError(f"{len(body)} array bytes where the header declares "
                             f"{8 * sum(counts)}")
        parts = np.split(np.frombuffer(body, dtype="<f8").astype(np.float64),
                         np.cumsum(counts)[:-1])
        return parse(header, {spec["name"]: part.reshape(spec["shape"])
                              for spec, part in zip(header["arrays"], parts)})
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{path} is corrupt: header lacks key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise DataError(f"{path} is corrupt: {exc}") from None


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of `path`; an unreadable or undecodable file is a
    DataError naming `what` and the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from None


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
    path = manifest_path(artifact)
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"manifest {path} is unreadable: {exc}") from None


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
