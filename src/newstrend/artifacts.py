"""Workdir bookkeeping: manifests, hashing, and the advisory lock."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

from .errors import ConfigError

VERSION = "0.1.0"

# artifact name -> the stage that produces it (for actionable errors)
PRODUCERS = {
    "news.jsonl": "synth (or point paths.news at your own file)",
    "prices.csv": "synth (or point paths.prices at your own file)",
    "corpus.jsonl": "ingest",
    "rejects.csv": "ingest",
    "weeks.csv": "label",
    "pot": "pot",
    "vocab.json": "pot",
    "extractor.model": "train-extractor",
    "weekly_sentiment.csv": "score",
    "weekly_features.csv": "score",
    "summarizer.model": "train-summarizer",
    "report.txt": "evaluate",
}


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_path(artifact: Path) -> Path:
    return artifact.parent / (artifact.name + ".manifest.json")


def write_manifest(
    artifact: Path, command: str, config_flat: Mapping, inputs: Mapping[str, Path]
) -> None:
    payload = {
        "artifact": artifact.name,
        "command": command,
        "version": VERSION,
        "config": {k: v for k, v in sorted(config_flat.items())},
        "inputs": {name: sha256_file(p) for name, p in sorted(inputs.items())},
    }
    manifest_path(artifact).write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def read_manifest(artifact: Path) -> dict | None:
    path = manifest_path(artifact)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def config_drift(artifact: Path, config_flat: Mapping) -> list[str]:
    """Keys whose value differs between the artifact's manifest and now."""
    manifest = read_manifest(artifact)
    if manifest is None:
        return []
    old = manifest.get("config", {})
    return sorted(
        k for k, v in config_flat.items() if k in old and old[k] != _jsonish(v)
    )


def _jsonish(value):
    return json.loads(json.dumps(value))


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
