"""News corpus handling: JSONL ingestion, cleaning, tokenization, worthiness
proxy labels, and vocabulary selection.

The on-disk record format is JSONL, one object per line:

    {"id": str, "url": str, "title": str, "content": str,
     "published": "YYYY-MM-DDTHH:MM:SSZ", "categories": [str],
     "worthiness": 0 | 1 | null}
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import artifacts
from .config import CorpusConfig
from .errors import ConfigError, DataError

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
# the canonical spelling of TIMESTAMP_FORMAT, parsed without strptime
_TIMESTAMP_RE = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)
# byte table keeping a-z and 0-9 and turning every other byte into a space
_TOKEN_BYTES = bytes(
    c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for c in range(256)
)


@dataclass(frozen=True)
class NewsRecord:
    id: str
    url: str
    title: str
    content: str
    published: datetime          # timezone-aware UTC, second precision
    categories: frozenset[str]
    worthiness: int | None = None  # 1 market-relevant, 0 irrelevant, None unknown


@dataclass(frozen=True)
class TokenizedDoc:
    record_id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Vocabulary:
    """Ordered word list with a word -> position index (a bijection)."""

    words: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary words must be distinct")

    @property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)


@dataclass
class IngestResult:
    records: list[NewsRecord]
    total: int
    rejected: list[tuple[int, str]]  # (1-based line number, reason)

    @property
    def parsed(self) -> int:
        return len(self.records)


def parse_timestamp(value: str) -> datetime:
    """A UTC datetime from TIMESTAMP_FORMAT; ValueError if `value` does not fit."""
    m = _TIMESTAMP_RE.fullmatch(value)
    if m is None:  # strptime also accepts `z`, one-digit fields and non-ASCII digits
        return datetime.strptime(value, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    return datetime(*map(int, m.groups()), tzinfo=timezone.utc)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime(TIMESTAMP_FORMAT)


def record_from_obj(obj: Mapping) -> NewsRecord:
    """Build a NewsRecord from a parsed JSON object; raises ValueError on bad fields."""
    for key in ("id", "url", "title", "content", "published"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
        if not isinstance(obj[key], str):
            raise ValueError(f"field {key!r} must be a string")
    if not obj["id"]:
        raise ValueError("field 'id' must be nonempty")
    categories = obj.get("categories", [])
    if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
        raise ValueError("field 'categories' must be a list of strings")
    worthiness = obj.get("worthiness")
    if worthiness not in (0, 1, None):
        raise ValueError("field 'worthiness' must be 0, 1, or null")
    try:
        published = parse_timestamp(obj["published"])
    except ValueError:
        raise ValueError(f"bad timestamp {obj['published']!r}")
    return NewsRecord(
        id=obj["id"],
        url=obj["url"],
        title=obj["title"],
        content=obj["content"],
        published=published,
        categories=frozenset(categories),
        worthiness=worthiness,
    )


def record_to_obj(record: NewsRecord) -> dict:
    return {
        "id": record.id,
        "url": record.url,
        "title": record.title,
        "content": record.content,
        "published": format_timestamp(record.published),
        "categories": sorted(record.categories),
        "worthiness": record.worthiness,
    }


def ingest_news(path: str | Path) -> IngestResult:
    """Read a news JSONL file.

    Malformed lines are skipped and counted (never silently dropped); an
    unreadable file is fatal.
    """
    lines = artifacts.read_text(path, "news file").splitlines()
    records: list[NewsRecord] = []
    rejected: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            rejected.append((lineno, "empty line"))
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            rejected.append((lineno, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(obj, dict):
            rejected.append((lineno, "record is not a JSON object"))
            continue
        try:
            records.append(record_from_obj(obj))
        except ValueError as exc:
            rejected.append((lineno, str(exc)))
    return IngestResult(records=records, total=len(lines), rejected=rejected)


def write_news_jsonl(records: Iterable[NewsRecord], path: str | Path) -> None:
    artifacts.write_text(path, "".join(
        json.dumps(record_to_obj(record), sort_keys=True) + "\n" for record in records))


def read_news_jsonl(path: str | Path) -> list[NewsRecord]:
    """Read a file that `write_news_jsonl` wrote; unlike `ingest_news`, which
    skips bad lines of raw news, fail with a DataError naming file and line,
    or naming the file when it holds no records."""
    result = ingest_news(path)
    if result.rejected:
        lineno, reason = result.rejected[0]
        raise DataError(f"{path} line {lineno}: {reason}")
    if not result.records:
        raise DataError(f"{path} holds no news records")
    return result.records


def write_rejects_csv(rejected: Sequence[tuple[int, str]], path: str | Path) -> None:
    artifacts.write_csv(path, ["line_number", "reason"], rejected)


def clean_filter(records: Sequence[NewsRecord], config: CorpusConfig) -> list[NewsRecord]:
    """Drop bad records: too short/long content, urls matching a
    `url_blocklist` regex, duplicates.

    Duplicates are detected by id and by (title, published date); the first
    occurrence wins. Deterministic and idempotent.
    """
    blocked = [re.compile(p) for p in config.url_blocklist]
    seen_ids: set[str] = set()
    seen_title_day: set[tuple[str, str]] = set()
    kept: list[NewsRecord] = []
    for record in records:
        n = len(record.content)
        if n < config.min_content_chars or n > config.max_content_chars:
            continue
        if any(p.search(record.url) for p in blocked):
            continue
        title_day = (record.title, record.published.date().isoformat())
        if record.id in seen_ids or title_day in seen_title_day:
            continue
        seen_ids.add(record.id)
        seen_title_day.add(title_day)
        kept.append(record)
    return kept


def tokenize(record: NewsRecord, max_tokens: int = 180) -> TokenizedDoc:
    """Lowercase word tokens of title then content, truncated to max_tokens.

    Tokens are maximal runs of a-z and 0-9 in the lowercased text; every
    other character, non-ASCII included, separates them. Pure-digit tokens
    are dropped.
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    text = (record.title + " " + record.content).lower()
    words = text.encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii").split()
    tokens = [t for t in words if not t.isdigit()]
    return TokenizedDoc(record_id=record.id, tokens=tuple(tokens[:max_tokens]))


@dataclass(frozen=True)
class ProxyRule:
    category: str
    label: int  # 0 or 1
    cap: int    # max records this rule may label


def assign_worthiness_proxy(
    records: Sequence[NewsRecord], rules: Sequence[ProxyRule]
) -> list[NewsRecord]:
    """Attach worthiness labels from category proxies, respecting per-rule caps.

    Existing labels (manual annotation) are never overwritten. Rules apply in
    order; within a rule, records are labeled in corpus order until the cap.
    A rule whose category no record carries labels nothing.
    """
    for rule in rules:
        if rule.label not in (0, 1):
            raise ConfigError(f"proxy label for {rule.category!r} must be 0 or 1")
    out = list(records)
    for rule in rules:
        assigned = 0
        for i, record in enumerate(out):
            if assigned >= rule.cap:
                break
            if record.worthiness is None and rule.category in record.categories:
                out[i] = replace(record, worthiness=rule.label)
                assigned += 1
    return out


def build_vocabulary(
    docs: Sequence[TokenizedDoc],
    ranking: Sequence[tuple[str, float]],
    size: int,
) -> Vocabulary:
    """Select the `size` most polar words present in `docs`.

    `ranking` carries signed polarity scores; selection is by absolute
    magnitude, descending, ties broken lexicographically.
    """
    present: set[str] = set()
    for doc in docs:
        present.update(doc.tokens)
    seen: set[str] = set()
    candidates = []
    for word, score in ranking:
        if word in present and word not in seen:
            seen.add(word)
            candidates.append((-abs(score), word))
    if len(candidates) < size:
        raise DataError(
            f"vocabulary needs {size} candidate words but the ranking covers only "
            f"{len(candidates)} words present in the corpus; lower the vocabulary "
            f"size or supply more training text"
        )
    candidates.sort()
    return Vocabulary(words=tuple(word for _, word in candidates[:size]))
