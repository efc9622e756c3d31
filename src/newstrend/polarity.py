"""Time-varying word polarity over a rolling window of trading weeks.

For week t the trailing window (13 week anchors including t, roughly a
quarter) is split into five corpora by each week's price-change class:
vpos, pos, neutral, neg, vneg. A word's polarity at week t is

    P(x, t) = W(x, vpos)/sqrt(N_vpos) - W(x, vneg)/sqrt(N_vneg)
              + discount * (W(x, pos)/sqrt(N_pos) - W(x, neg)/sqrt(N_neg))

where W(x, c) is the TF-IDF of x in class c's pooled text (term frequency
over the pooled class tokens, smoothed IDF over the individual window
documents) and N_c is the class document count. An empty class contributes
zero. Positive scores mean the word tracks rising weeks.

The formula is coded once, in `_weights` and `_idf`, over integer counts:
per class, each word's token count and document frequency, and the class
token and document totals. `_count` takes them from the documents' token
ids with `bincount` and an in-place sort (not `np.unique`, which imports
numpy.ma, about 1.3 MB of resident memory), COUNT_DOCS documents at a time,
and sums the chunks' int64 counts, so its temporaries do not grow with a
class's documents. `build_model_set` lays the weekly counts out as a
(window + weeks) x word table: `window_weeks` zero rows, then one
row per week. The window ending at week i is row window + i minus row i of
its cumulative sum, so every window is scored at once. The IDF universe
takes the table of every week; each class's weights take a table of that
class's weeks alone, built and scored one class at a time, so a build holds
a few weeks x words arrays, never one per class. The counts are int64, so
these differences are exact. `tfidf_difference_ranking` applies the same
formula to two classes; it finds the words they use by marking the table
ids of each chunk, never holding both classes' ids at once.

Stacking a vocabulary's scores for weeks t, t-1, ... t-L+1 gives the
per-article feature matrix consumed by the extractor's lag attention.

A `PolarityModelSet` is stored as one array file, `pot.bin` (see
`artifacts`): the header lists the anchors, the words and the vocabulary,
and the body is the weeks x words `scores` array as `build_model_set`
computed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from . import artifacts
from .config import PolarityConfig, parse_day
from .corpus import Vocabulary
from .errors import DataError
from .tokens import EncodedDoc, concat_ids
from .weeks import POT_CLASSES, WeeklyLabel

SCORE_FORMAT = "%.12e"
POT_MAGIC = "newstrend-pot 2"

# documents whose ids are counted in one step
COUNT_DOCS = 256


def _chunks(docs: Sequence[EncodedDoc], table: tuple[str, ...] | None = None):
    """`concat_ids` of `docs`, COUNT_DOCS documents at a time; ValueError, as
    `concat_ids` raises it, unless every document indexes `table` (by default
    the table of the first)."""
    if table is None and docs:
        table = docs[0].words
    for lo in range(0, len(docs), COUNT_DOCS):
        yield concat_ids(docs[lo:lo + COUNT_DOCS], table)


def _count(groups: Sequence[Sequence[EncodedDoc]], words: Sequence[str]):
    """int64 counts of each group of documents: per-word token counts and
    document frequencies over `words` (groups x words), and the token and
    document totals (groups), which include all other words too. The
    documents of a group share one word table."""
    index = {word: j for j, word in enumerate(words)}
    width = len(index)
    counts = np.zeros((len(groups), width), dtype=np.int64)
    df = np.zeros_like(counts)
    tokens = np.zeros(len(groups), dtype=np.int64)
    table, column_of = None, np.zeros(0, dtype=np.int64)
    for g, docs in enumerate(groups):
        for words_g, ids, lengths in _chunks(docs):
            if words_g is not table:  # each word of the table as its column, -1 if untracked
                table = words_g
                column_of = np.array([index.get(word, -1) for word in table], dtype=np.int64)
            column = column_of[ids]
            kept = column >= 0
            column = column[kept]
            doc = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)[kept]
            counts[g] += np.bincount(column, minlength=width)
            # each (document, word) pair once, a document lying in one chunk
            pairs = doc * width + column
            pairs.sort()
            first = np.ones(len(pairs), dtype=bool)
            np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
            df[g] += np.bincount(pairs[first] % width, minlength=width)
            tokens[g] += lengths.sum()
    n_docs = np.array([len(docs) for docs in groups], dtype=np.int64)
    return counts, df, tokens, n_docs


def _idf(df: np.ndarray, n_docs: np.ndarray) -> np.ndarray:
    """Smoothed IDF of each word over a universe of `n_docs` documents, `df`
    of which hold it (words on axis -1 of `df`; leading axes broadcast)."""
    return np.log((1 + n_docs)[..., None] / (1 + df)) + 1.0


def _weights(counts: np.ndarray, tokens: np.ndarray, n_docs: np.ndarray, idf: np.ndarray):
    """W(x, c)/sqrt(N_c) for each class c and word x, from a class's `_count`
    results (words on axis -1 of `counts`, one total per row of it) and the
    `_idf` of the universe of every class. An empty class has no tokens, so
    every count and weight in it is 0.
    """
    w = counts / np.maximum(tokens, 1)[..., None]  # TF, scaled in place to save memory
    w *= idf
    w /= np.sqrt(np.maximum(n_docs, 1))[..., None]
    return w


def tfidf_difference_ranking(
    pos_docs: Sequence[EncodedDoc], neg_docs: Sequence[EncodedDoc]
) -> list[tuple[str, float]]:
    """Words of the two classes scored by normalized TF-IDF gap, descending.

    The IDF universe is the documents of both classes. Positive scores lean
    toward the positive class. Ties break lexicographically, so the ranking
    is stable across runs.
    """
    if not pos_docs or not neg_docs:
        raise DataError("tfidf_difference_ranking needs nonempty positive and negative classes")
    table = pos_docs[0].words
    used = np.zeros(len(table), dtype=bool)
    for docs in (pos_docs, neg_docs):
        for _, ids, _ in _chunks(docs, table):
            used[ids] = True
    words = [table[i] for i in np.flatnonzero(used).tolist()]  # sorted, as the table is
    counts, df, tokens, n_docs = _count([pos_docs, neg_docs], words)
    w = _weights(counts, tokens, n_docs, _idf(df.sum(axis=0), n_docs.sum()))
    scored = list(zip(words, (w[0] - w[1]).tolist()))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


@dataclass
class PolarityModelSet:
    """Weekly polarity scores over an ordered anchor sequence.

    Row i of `scores` holds week `anchors[i]`, column j the sorted word
    `words[j]`; any other word scores 0. `vocab` is the ranked vocabulary
    the extractor reads, every word of it tracked, and `train_weeks` the
    extractor training weeks it was ranked on. Anchors and words must be
    sorted and distinct, and `scores` must be finite, with one row per anchor
    and one column per word (ValueError otherwise, as for a vocabulary word
    that is repeated or untracked).
    """

    anchors: tuple[date, ...]
    words: tuple[str, ...]
    scores: np.ndarray
    vocab: Vocabulary = Vocabulary(words=())
    train_weeks: tuple[date, ...] = ()
    _pos: dict[date, int] = field(init=False, repr=False)
    _col: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        for name, items in (("anchors", self.anchors), ("words", self.words)):
            if list(items) != sorted(set(items)):
                raise ValueError(f"{name} must be sorted and distinct")
        if self.scores.shape != (len(self.anchors), len(self.words)):
            raise ValueError(f"scores have shape {self.scores.shape}, not anchors x words")
        if not np.isfinite(self.scores).all():
            raise ValueError("scores hold a value that is not finite")
        self._pos = {a: i for i, a in enumerate(self.anchors)}
        self._col = {w: j for j, w in enumerate(self.words)}
        if not self._col.keys() >= set(self.vocab.words):
            raise ValueError("every vocabulary word must be a tracked word")

    def matrix(self, vocab: Vocabulary, anchor: date, n_lags: int) -> np.ndarray:
        """Vocab-by-lag score matrix: column l holds week (anchor - l) scores."""
        if anchor not in self._pos:
            raise DataError(f"no polarity model for week {anchor.isoformat()}")
        i = self._pos[anchor]
        if i < n_lags - 1:
            raise DataError(f"week {anchor.isoformat()} lacks {n_lags - 1 - i} trailing "
                            f"model(s) for {n_lags} lags")
        cols = np.array([self._col.get(w, -1) for w in vocab.words], dtype=np.int64)
        known = cols >= 0
        out = np.zeros((len(vocab), n_lags), dtype=np.float64)
        out[known] = self.scores[i - n_lags + 1 : i + 1][::-1][:, cols[known]].T
        return out

    def trajectory(
        self, word: str, start: date | None = None, end: date | None = None
    ) -> list[tuple[date, float]]:
        j = self._col.get(word)
        column = [0.0] * len(self.anchors) if j is None else self.scores[:, j].tolist()
        return [
            (a, score)
            for a, score in zip(self.anchors, column)
            if (start is None or a >= start) and (end is None or a <= end)
        ]

    def save(self, path: str | Path) -> list[Path]:
        """Write the set as one array file (`artifacts.write_arrays`) whose
        header lists the anchors, words, vocabulary and training weeks and
        whose body is `scores` bit for bit; returns `[path]`."""
        header = {"anchors": [a.isoformat() for a in self.anchors], "words": list(self.words),
                  "vocab": list(self.vocab.words),
                  "train_weeks": [a.isoformat() for a in self.train_weeks]}
        artifacts.write_arrays(path, POT_MAGIC, header, [("scores", self.scores)])
        return [Path(path)]

    @classmethod
    def load(cls, path: str | Path) -> PolarityModelSet:
        return artifacts.read_arrays(path, POT_MAGIC, lambda header, arrays: cls(
            anchors=tuple(map(parse_day, header["anchors"])),
            words=tuple(header["words"]), scores=arrays["scores"],
            vocab=Vocabulary(words=tuple(header["vocab"])),
            train_weeks=tuple(map(parse_day, header["train_weeks"]))), "pot")


def build_model_set(
    labels: Sequence[WeeklyLabel],
    docs_by_week: Mapping[date, Sequence[EncodedDoc]],
    words: Collection[str],
    config: PolarityConfig,
) -> PolarityModelSet:
    """Weekly scores of `words` for every labeled week, all windows at once,
    each window `config.window_weeks` long and the mild classes weighted by
    `config.discount`.

    Early weeks use however much history exists (the window simply has not
    filled yet).
    """
    ordered = sorted(labels, key=lambda lab: lab.week.anchor)
    word_list = sorted(set(words))
    counts, df, tokens, n_docs = _count(
        [docs_by_week.get(lab.week.anchor, ()) for lab in ordered], word_list)
    n_weeks = len(ordered)
    window_weeks, discount = config.window_weeks, config.discount
    classes = np.array([POT_CLASSES.index(lab.pot_class) for lab in ordered], dtype=np.int64)

    def window_sums(weekly: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """Each week's window sum of the `kept` weeks' rows of `weekly`."""
        table = np.zeros((window_weeks + n_weeks,) + weekly.shape[1:], dtype=np.int64)
        table[window_weeks:][kept] = weekly[kept]
        np.cumsum(table, axis=0, out=table)
        return table[window_weeks:] - table[:n_weeks]

    every = np.ones(n_weeks, dtype=bool)
    idf = _idf(window_sums(df, every), window_sums(n_docs, every))

    def weights(cls: str) -> np.ndarray:
        kept = classes == POT_CLASSES.index(cls)
        return _weights(*(window_sums(x, kept) for x in (counts, tokens, n_docs)), idf)

    return PolarityModelSet(
        anchors=tuple(lab.week.anchor for lab in ordered),
        words=tuple(word_list),
        scores=weights("vpos") - weights("vneg") + discount * (weights("pos") - weights("neg")),
    )


def write_trajectory_csv(
    rows: Sequence[tuple[date, float]], word: str, path: str | Path
) -> None:
    artifacts.write_text(path, "anchor,word,score\n" + "".join(
        f"{anchor.isoformat()},{word},{SCORE_FORMAT % score}\n" for anchor, score in rows))
