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
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import artifacts
from .config import CorpusConfig, TokenizerConfig
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
class Vocabulary:
    """Ordered list of distinct words."""

    words: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary words must be distinct")

    def __len__(self) -> int:
        return len(self.words)


def parse_timestamp(value: str) -> datetime:
    """A UTC datetime from TIMESTAMP_FORMAT; ValueError if `value` does not fit."""
    m = _TIMESTAMP_RE.fullmatch(value)
    if m is None:  # strptime also accepts `z`, one-digit fields and non-ASCII digits
        return datetime.strptime(value, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    return datetime(*map(int, m.groups()), tzinfo=timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """`dt` in UTC as TIMESTAMP_FORMAT, with a four-digit year."""
    dt = dt.astimezone(timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (dt.year, dt.month, dt.day,
                                              dt.hour, dt.minute, dt.second)


def record_from_obj(obj: Mapping) -> NewsRecord:
    """Build a NewsRecord from a parsed JSON object; raises ValueError on bad fields."""
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
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
    if worthiness is not None and (type(worthiness) is not int or worthiness not in (0, 1)):
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


class NewsReader:
    """The records of a news JSONL file, each parsed as its line is read;
    iterate once. `total` counts the lines read and `rejected` holds the
    (1-based line number, reason) of each malformed one, never silently
    dropped. An unreadable file is a DataError."""

    def __init__(self, path: str | Path):
        self.path, self.total, self.rejected = path, 0, []

    @property
    def parsed(self) -> int:
        return self.total - len(self.rejected)

    def __iter__(self) -> Iterator[NewsRecord]:
        for self.total, line in enumerate(artifacts.read_lines(self.path, "news file"), 1):
            try:
                if not line.strip():
                    raise ValueError("empty line")
                record = record_from_obj(json.loads(line))
            except json.JSONDecodeError as exc:
                self.rejected.append((self.total, f"invalid JSON: {exc.msg}"))
            except ValueError as exc:
                self.rejected.append((self.total, str(exc)))
            else:
                yield record


def ingest_news(path: str | Path) -> NewsReader:
    return NewsReader(path)


def encode_record(record: NewsRecord) -> bytes:
    """The JSONL line of `record`, as `json.dumps(obj, sort_keys=True)` writes
    the object of the module docstring, key by key without building it."""
    w = record.worthiness
    return (f'{{"categories": [{", ".join(map(_quote, sorted(record.categories)))}], '
            f'"content": {_quote(record.content)}, "id": {_quote(record.id)}, '
            f'"published": "{format_timestamp(record.published)}", '
            f'"title": {_quote(record.title)}, "url": {_quote(record.url)}, '
            f'"worthiness": {"null" if w is None else "%d" % w}}}\n').encode("ascii")


def write_news_jsonl(records: Iterable[NewsRecord], path: str | Path) -> None:
    """Write `records` as JSONL, one line a chunk, so a generator of records
    is written as it runs and no more than one line is held at a time."""
    artifacts.write_bytes(path, map(encode_record, records))


def write_rejects_csv(rejected: Sequence[tuple[int, str]], path: str | Path) -> None:
    artifacts.write_csv(path, ["line_number", "reason"], rejected)


def clean_filter(records: Iterable[NewsRecord], config: CorpusConfig) -> Iterator[NewsRecord]:
    """Yield the records of `records` that are not bad: too short/long
    content, urls matching a `url_blocklist` regex, duplicates.

    Duplicates are detected by id and by (title, published date); the first
    occurrence wins. Deterministic and idempotent.
    """
    blocked = [re.compile(p) for p in config.url_blocklist]
    seen_ids: set[str] = set()
    seen_title_day: set[tuple[str, int]] = set()
    for record in records:
        n = len(record.content)
        if n < config.min_content_chars or n > config.max_content_chars:
            continue
        if any(p.search(record.url) for p in blocked):
            continue
        title_day = (record.title, record.published.toordinal())
        if record.id in seen_ids or title_day in seen_title_day:
            continue
        seen_ids.add(record.id)
        seen_title_day.add(title_day)
        yield record


def _words(text: str) -> list[str]:
    """The tokens of `text`, in order, before truncation."""
    words = text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii")
    return [t for t in words.split() if not t.isdigit()]


def tokenize(record: NewsRecord, max_tokens: int = TokenizerConfig.max_tokens) -> tuple[str, ...]:
    """Lowercase word tokens of title then content, truncated to max_tokens.

    Tokens are maximal runs of a-z and 0-9 in the lowercased text; every
    other character, non-ASCII included, separates them. Pure-digit tokens
    are dropped.
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    return tuple(_words(record.title + " " + record.content)[:max_tokens])


def is_token(word: str) -> bool:
    """Whether `tokenize` can return `word` unchanged, as one whole token."""
    return _words(word) == [word]


@dataclass(frozen=True)
class ProxyRule:
    category: str
    label: int  # 0 or 1
    cap: int    # max records this rule may label


def assign_worthiness_proxy(
    records: Iterable[NewsRecord], rules: Sequence[ProxyRule]
) -> tuple[Iterator[NewsRecord], list[int]]:
    """Attach worthiness labels from category proxies, respecting per-rule caps;
    also returns how many records each rule labeled, a count final once
    every record is taken.

    Existing labels (manual annotation) are never overwritten. Rules apply in
    order; within a rule, records are labeled in corpus order until the cap.
    In one pass, an unlabeled record takes the first rule whose category it
    carries and whose cap is not yet reached, which labels the same records.
    A rule whose category no record carries labels nothing.
    """
    for rule in rules:
        if rule.label not in (0, 1):
            raise ConfigError(f"proxy label for {rule.category!r} must be 0 or 1")
    counts = [0] * len(rules)

    def labeled() -> Iterator[NewsRecord]:
        for record in records:
            if record.worthiness is None:
                for k, rule in enumerate(rules):
                    if counts[k] < rule.cap and rule.category in record.categories:
                        record = replace(record, worthiness=rule.label)
                        counts[k] += 1
                        break
            yield record

    return labeled(), counts


def build_vocabulary(ranking: Sequence[tuple[str, float]], size: int) -> Vocabulary:
    """Select the `size` most polar words of `ranking`.

    `ranking` carries signed polarity scores; selection is by absolute
    magnitude, descending, ties broken lexicographically.
    """
    if len(ranking) < size:
        raise DataError(
            f"vocabulary needs {size} candidate words but the ranking covers only "
            f"{len(ranking)}; lower the vocabulary size or supply more training text"
        )
    candidates = sorted((-abs(score), word) for word, score in ranking)
    return Vocabulary(words=tuple(word for _, word in candidates[:size]))
