"""Token ids: the `tokens.bin` file that `ingest` writes and the corpus
that `pot`, `train-extractor` and `score` read from it.

`ingest` tokenizes each kept record once and writes `tokens.bin`, an array
file (see `artifacts`) whose header holds the sorted distinct words and the
record ids in corpus order, and whose arrays hold each record's published
UTC day ordinal (`day`), its worthiness (-1 for none), the document
`offsets`, all int64, and the token ids (`tokens`, positions in the words)
as int32. Writing it needs no numpy: the ids are ranked in place, so the
file's arrays are those `ingest` built. A reader gets a `TokenizedCorpus`
that holds the file's int32 ids, finds records by id and builds a record's
`EncodedDoc`, a copy of its ids plus the one shared word table, only when
a stage asks for it. So a corpus holds no per-token Python objects, a
stage that drops the corpus holds the ids of only the records it used, and
counting words is `bincount` and sorting over ids.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

from . import artifacts
from .corpus import NewsRecord

if TYPE_CHECKING:  # numpy loads only where it is used
    import numpy as np

TOKENS_MAGIC = "newstrend-tokens 2"


@dataclass(frozen=True, eq=False, slots=True)
class EncodedDoc:
    """A document as `ids`, positions in `words`, the sorted word table that
    every document of one corpus shares."""

    record_id: str
    ids: np.ndarray
    words: tuple[str, ...]


class TokenizedCorpus(Sequence):
    """What `tokens.bin` holds, record by record in corpus order: `words`,
    `record_ids`, each record's published UTC day (`days`), `worthiness`
    and document, built when asked for by place (`corpus[i]`, `take`) and
    found by record id (`positions`). Record i's ids are
    `ids[offsets[i]:offsets[i + 1]]`, int32; a built document copies its
    ids out, so it outlives the corpus without keeping the others'.
    Repeated record ids are a ValueError."""

    def __init__(self, words: tuple[str, ...], record_ids: tuple[str, ...],
                 days: tuple[date, ...], worthiness: tuple[int | None, ...],
                 offsets: np.ndarray, ids: np.ndarray):
        self.words, self.record_ids, self.days, self.worthiness = (
            words, record_ids, days, worthiness)
        self.offsets, self.ids = offsets, ids
        self._position = {rid: i for i, rid in enumerate(record_ids)}
        if len(self._position) != len(record_ids):
            raise ValueError("record ids must be distinct")

    def __len__(self) -> int:
        return len(self.record_ids)

    def __getitem__(self, i: int) -> EncodedDoc:
        return self.take([i])[0]

    def positions(self, record_ids: Iterable[str]) -> list[int]:
        """The places of the records `record_ids`; KeyError for one it lacks."""
        return [self._position[rid] for rid in record_ids]

    def take(self, positions: Iterable[int]) -> list[EncodedDoc]:
        """The documents of the records at `positions`, built together: their
        ids are int32 views of one array copied for them alone. A negative
        position counts from the end; one outside the corpus is an IndexError."""
        import numpy as np

        positions = [range(len(self))[p] for p in positions]
        spans = [(int(self.offsets[p]), int(self.offsets[p + 1])) for p in positions]
        ids = np.empty(sum(hi - lo for lo, hi in spans), dtype=np.int32)
        docs, at = [], 0
        for p, (lo, hi) in zip(positions, spans):
            part = ids[at:at + hi - lo]
            part[...] = self.ids[lo:hi]
            docs.append(EncodedDoc(self.record_ids[p], part, self.words))
            at += hi - lo
        return docs


# values checked, or ranked by `_IdTable.finish`, in one step, so the
# temporaries stay small
CHECK_CHUNK = 1 << 13


class _IdTable(dict):
    """Token sequences added one at a time, each token as a 4-byte number in
    `ids`, the array("i") of them all: its word's in order of first lookup.
    Looking up a new word adds it with the next number, inside
    `dict.__getitem__`, so mapping that over a sequence numbers it without a
    Python-level loop."""

    def __init__(self):
        from array import array

        super().__init__()
        self.ids, self.offsets = array("i"), array("q", [0])

    def __missing__(self, word: str) -> int:
        self[word] = n = len(self)
        return n

    def add(self, tokens: Iterable[str]) -> None:
        self.ids.extend(map(self.__getitem__, tokens))
        self.offsets.append(len(self.ids))

    def finish(self) -> tuple[str, ...]:
        """The sorted distinct words. It renumbers `ids` in place,
        CHECK_CHUNK at a time, and each word, by its position among them, so
        a later call, after more `add`s or none, renumbers from there."""
        from array import array

        words = sorted(self)
        rank = [0] * len(words)
        for r, word in enumerate(words):
            rank[self[word]], self[word] = r, r
        for lo in range(0, len(self.ids), CHECK_CHUNK):
            hi = lo + CHECK_CHUNK
            self.ids[lo:hi] = array("i", map(rank.__getitem__, self.ids[lo:hi]))
        return tuple(words)


def encode_docs(docs: Sequence[tuple[str, Sequence[str]]]) -> list[EncodedDoc]:
    """`(record_id, tokens)` pairs as EncodedDocs over one table, their sorted distinct words."""
    import numpy as np

    table = _IdTable()
    for _, tokens in docs:
        table.add(tokens)
    words = table.finish()
    flat = np.frombuffer(table.ids, dtype=np.int32)
    return [EncodedDoc(record_id, flat[lo:hi], words)
            for (record_id, _), lo, hi in zip(docs, table.offsets, table.offsets[1:])]


def concat_ids(
    docs: Sequence[EncodedDoc], words: tuple[str, ...] | None = None
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The word table `docs` share, their ids end to end, and each document's
    length (int64); ValueError if two documents index different tables, or
    one indexes another table than `words`, when that is given."""
    import numpy as np

    if words is None:
        words = docs[0].words if docs else ()
    if any(d.words is not words and d.words != words for d in docs):
        raise ValueError("documents must share one word table")
    lengths = np.array([len(d.ids) for d in docs], dtype=np.int64)
    ids = np.concatenate([d.ids for d in docs]) if docs else np.zeros(0, dtype=np.int64)
    return words, ids, lengths


class TokensWriter:
    """`tokens.bin` built one record at a time: `add` keeps a record's id, day,
    worthiness and the ids of `corpus.tokenize`'s tokens; `write` writes the file."""

    def __init__(self):
        from array import array

        self.record_ids: list[str] = []
        self.days, self.worthiness = array("q"), array("q")
        self._table = _IdTable()

    def add(self, record: NewsRecord, tokens: Iterable[str]) -> None:
        self._table.add(tokens)
        self.record_ids.append(record.id)
        self.days.append(record.published.toordinal())
        self.worthiness.append(-1 if record.worthiness is None else record.worthiness)

    def write(self, path: str | Path) -> None:
        """Write `tokens.bin`; its token ids are ranked in place
        (`_IdTable.finish`), so no copy of them all is made."""
        table = self._table
        words = table.finish()
        artifacts.write_arrays(path, TOKENS_MAGIC, {"words": list(words),
                                                    "record_ids": self.record_ids}, [
            ("day", self.days),
            ("worthiness", self.worthiness),
            ("offsets", table.offsets),
            ("tokens", table.ids),
        ])


def read_tokens(path: str | Path) -> TokenizedCorpus:
    """Read `tokens.bin`. Words that are not sorted and distinct, repeated
    record ids, an array whose length does not fit the record count, an
    array stored as floats, a value out of its range (a token id of at least
    the word count included), and offsets that are not a rise from 0 to the
    token count are DataErrors naming the file, as is a file of no records.
    The corpus holds the token ids, nearly all of the file, as the int32
    array read from it, and the checks look at CHECK_CHUNK values at a time,
    so reading holds about the file's size."""
    return artifacts.read_arrays(path, TOKENS_MAGIC, _parse_tokens, "ingest")


def _integers(arrays: Mapping, name: str, low: int, high: int, count: int | None) -> np.ndarray:
    """`arrays[name]`; ValueError unless it is one-dimensional, of `count`
    values (any count for None), stored as integers, each in [low, high)."""
    import numpy as np

    a = arrays[name]
    if a.ndim != 1 or count is not None and len(a) != count:
        raise ValueError(f"{name} has shape {list(a.shape)}, not [{count}]")
    if a.dtype.kind != "i":
        raise ValueError(f"{name} is stored as {a.dtype.str}, not as integers")
    for lo in range(0, len(a), CHECK_CHUNK):
        part = a[lo:lo + CHECK_CHUNK]
        if not np.all((part >= low) & (part < high)):
            raise ValueError(f"{name} holds a value outside [{low}, {high})")
    return a


def _parse_tokens(header: dict, arrays: Mapping) -> TokenizedCorpus:
    import numpy as np

    words, record_ids = header["words"], header["record_ids"]
    for name, items in (("words", words), ("record_ids", record_ids)):
        if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
            raise TypeError(f"{name} must be a list of strings")
    if any(a >= b for a, b in zip(words, words[1:])):
        raise ValueError("words must be sorted and distinct")
    if not record_ids:
        raise ValueError("it holds no news records")
    n, words, record_ids = len(record_ids), tuple(words), tuple(record_ids)
    days = _integers(arrays, "day", 1, date.max.toordinal() + 1, n)
    worthiness = _integers(arrays, "worthiness", -1, 2, n)
    offsets = _integers(arrays, "offsets", 0, 2**53, n + 1)
    tokens = _integers(arrays, "tokens", 0, len(words), None)
    if offsets[0] != 0 or offsets[-1] != len(tokens) or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"offsets must rise from 0 to the token count {len(tokens)}")
    return TokenizedCorpus(
        words=words,
        record_ids=record_ids,
        days=tuple(map(date.fromordinal, days.tolist())),
        worthiness=tuple(None if w < 0 else w for w in worthiness.tolist()),
        offsets=offsets,
        ids=tokens,
    )
