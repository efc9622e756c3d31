"""Token ids: the `tokens.bin` file that `ingest` writes and the documents
that `pot`, `train-extractor` and `score` read from it.

`ingest` tokenizes each kept record once and writes `tokens.bin`, an array
file (see `artifacts`) whose header holds the sorted distinct words and the
record ids in corpus order, and whose arrays hold each record's published
UTC day ordinal (`day`), its worthiness (-1 for none), the document
`offsets` and the token ids (`tokens`, positions in the words). Writing it
needs no numpy. Readers get each document as an `EncodedDoc`: an int32 copy
of its ids, made only when a stage asks for that record, plus the one shared
word table, so a corpus holds no per-token Python objects, a stage holds
the ids of only the records it uses once it drops the corpus, and counting
words is `bincount` and sorting over ids.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

from . import artifacts, corpus
from .corpus import NewsRecord, TokenizedDoc

if TYPE_CHECKING:  # numpy and the stdlib array load only where they are used
    from array import array

    import numpy as np

TOKENS_MAGIC = "newstrend-tokens 1"


@dataclass(frozen=True, eq=False, slots=True)
class EncodedDoc:
    """A document as `ids`, positions in `words`, the sorted word table that
    every document of one corpus shares."""

    record_id: str
    ids: np.ndarray
    words: tuple[str, ...]


@dataclass(frozen=True)
class TokenizedCorpus:
    """What `tokens.bin` holds, record by record in corpus order. `docs`
    holds the file's buffer and builds a record's `EncodedDoc` only when it
    is asked for, copying out int32 ids, so a document outlives the corpus
    without keeping the file."""

    words: tuple[str, ...]
    record_ids: tuple[str, ...]
    docs: CorpusDocs
    days: tuple[date, ...]                # published UTC day
    worthiness: tuple[int | None, ...]


class CorpusDocs(Sequence):
    """The documents of a corpus in record order, built when asked for:
    `docs[i]` one, `docs.take(positions)` several at once. Record i's ids are
    `tokens[bounds[i]:bounds[i + 1]]`, `tokens` being a float64 view of the
    file and `bounds` int64."""

    def __init__(self, record_ids: tuple[str, ...], words: tuple[str, ...],
                 bounds: np.ndarray, tokens: np.ndarray):
        self._record_ids, self._words, self._bounds, self._tokens = (
            record_ids, words, bounds, tokens)

    def __len__(self) -> int:
        return len(self._record_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(range(len(self))[i])
        return self.take([i])[0]

    def take(self, positions: Iterable[int]) -> list[EncodedDoc]:
        """The documents of the records at `positions`, built together: their
        ids are int32 views of one array copied for them alone. A negative
        position counts from the end; one outside the corpus is an IndexError."""
        import numpy as np

        positions = [range(len(self))[p] for p in positions]
        spans = [(int(self._bounds[p]), int(self._bounds[p + 1])) for p in positions]
        ids = np.empty(sum(hi - lo for lo, hi in spans), dtype=np.int32)
        docs, at = [], 0
        for p, (lo, hi) in zip(positions, spans):
            part = ids[at:at + hi - lo]
            part[...] = self._tokens[lo:hi]
            docs.append(EncodedDoc(self._record_ids[p], part, self._words))
            at += hi - lo
        return docs


class _IdTable(dict):
    """Token sequences added one at a time, each token as a 4-byte number:
    its word's in order of first lookup. Looking up a new word adds it with
    the next number, inside `dict.__getitem__`, so mapping that over a
    sequence numbers it without a Python-level loop."""

    def __init__(self):
        from array import array

        super().__init__()
        self._ids, self.offsets = array("I"), array("q", [0])

    def __missing__(self, word: str) -> int:
        self[word] = n = len(self)
        return n

    def add(self, tokens: Iterable[str]) -> None:
        self._ids.extend(map(self.__getitem__, tokens))
        self.offsets.append(len(self._ids))

    def finish(self, typecode: str) -> tuple[tuple[str, ...], array, array]:
        """The sorted distinct words, every token as its position among them
        (an `array` of `typecode`), and a leading 0 then the offset at which
        each sequence ends."""
        from array import array

        words = sorted(self)
        rank = [0] * len(words)
        for r, word in enumerate(words):
            rank[self[word]] = r
        return tuple(words), array(typecode, map(rank.__getitem__, self._ids)), self.offsets


def encode_docs(docs: Sequence[TokenizedDoc]) -> list[EncodedDoc]:
    """`docs` as EncodedDocs sharing one table, the sorted distinct words of them all."""
    import numpy as np

    table = _IdTable()
    for d in docs:
        table.add(d.tokens)
    words, ids, offsets = table.finish("q")
    flat = np.frombuffer(ids, dtype=np.int64)
    return [EncodedDoc(d.record_id, flat[lo:hi], words)
            for d, lo, hi in zip(docs, offsets, offsets[1:])]


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
    """`tokens.bin` built one record at a time: `add` tokenizes a record and
    keeps its token ids, id, day and worthiness; `write` writes the file."""

    def __init__(self, max_tokens: int):
        from array import array

        self.max_tokens = max_tokens
        self.record_ids: list[str] = []
        self.days, self.worthiness = array("d"), array("d")
        self._table = _IdTable()

    def add(self, record: NewsRecord) -> NewsRecord:
        # through the module, so that a wrapper installed on `corpus.tokenize` sees each call
        self._table.add(corpus.tokenize(record, self.max_tokens).tokens)
        self.record_ids.append(record.id)
        self.days.append(record.published.toordinal())
        self.worthiness.append(-1 if record.worthiness is None else record.worthiness)
        return record

    def write(self, path: str | Path) -> None:
        from array import array

        words, ids, offsets = self._table.finish("d")
        artifacts.write_arrays(path, TOKENS_MAGIC, {"words": list(words),
                                                    "record_ids": self.record_ids}, [
            ("day", self.days),
            ("worthiness", self.worthiness),
            ("offsets", array("d", offsets)),
            ("tokens", ids),
        ])


def read_tokens(path: str | Path) -> TokenizedCorpus:
    """Read `tokens.bin`. Words that are not sorted and distinct, repeated
    record ids, an array whose length does not fit the record count, a value
    that is not an integer in its range (a token id of at least the word
    count included), and offsets that are not a rise from 0 to the token
    count are DataErrors naming the file, as is a file of no records. The
    corpus reads its documents' ids from the file's buffer, which it holds,
    and the checks look at CHECK_CHUNK values at a time, so reading holds
    about one copy of the file."""
    return artifacts.read_arrays(path, TOKENS_MAGIC, _parse_tokens)


# values an integer check looks at in one step, so its temporaries stay small
CHECK_CHUNK = 1 << 13


def _integers(arrays: dict, name: str, low: int, high: int, count: int | None) -> np.ndarray:
    """`arrays[name]`; ValueError unless it is one-dimensional, of `count`
    values (any count for None), each an integer in [low, high)."""
    import numpy as np

    a = arrays[name]
    if a.ndim != 1 or count is not None and len(a) != count:
        raise ValueError(f"{name} has shape {list(a.shape)}, not [{count}]")
    for lo in range(0, len(a), CHECK_CHUNK):
        part = a[lo:lo + CHECK_CHUNK]
        if not (np.all((part >= low) & (part < high)) and np.all(np.floor(part) == part)):
            raise ValueError(f"{name} holds a value that is not an integer in [{low}, {high})")
    return a


def _parse_tokens(header: dict, arrays: dict) -> TokenizedCorpus:
    import numpy as np

    words, record_ids = header["words"], header["record_ids"]
    for name, items in (("words", words), ("record_ids", record_ids)):
        if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
            raise TypeError(f"{name} must be a list of strings")
    if any(a >= b for a, b in zip(words, words[1:])):
        raise ValueError("words must be sorted and distinct")
    if not record_ids:
        raise ValueError("it holds no news records")
    if len(set(record_ids)) != len(record_ids):
        raise ValueError("record ids must be distinct")
    n, words, record_ids = len(record_ids), tuple(words), tuple(record_ids)
    days = _integers(arrays, "day", 1, date.max.toordinal() + 1, n).astype(np.int64)
    worthiness = _integers(arrays, "worthiness", -1, 2, n).astype(np.int64)
    offsets = _integers(arrays, "offsets", 0, 2**53, n + 1).astype(np.int64)
    tokens = _integers(arrays, "tokens", 0, len(words), None)
    if offsets[0] != 0 or offsets[-1] != len(tokens) or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"offsets must rise from 0 to the token count {len(tokens)}")
    return TokenizedCorpus(
        words=words,
        record_ids=record_ids,
        docs=CorpusDocs(record_ids, words, offsets, tokens),
        days=tuple(map(date.fromordinal, days.tolist())),
        worthiness=tuple(None if w < 0 else w for w in worthiness.tolist()),
    )
