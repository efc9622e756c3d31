"""`tokens.bin`, and the word counting over token ids that reads it.

The string-keyed references below are the implementations the id-based
code replaced: the encoder's bag of words, the TF-IDF count tables, the
difference ranking, the vocabulary selection and the encoder's frequency
vocabulary. A hypothesis test checks that both agree exactly.
"""

import itertools
import tracemalloc
from collections import Counter
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstrend import polarity, tokens
from newstrend.artifacts import write_arrays
from newstrend.config import PolarityConfig
from newstrend.corpus import build_vocabulary, tokenize
from newstrend.errors import DataError
from newstrend.extractor import ReferenceEncoder
from newstrend.polarity import (
    _count, _idf, _weights, build_model_set, tfidf_difference_ranking,
)
from newstrend.tokens import TOKENS_MAGIC, EncodedDoc, TokensWriter, _IdTable, read_tokens
from newstrend.weeks import POT_CLASSES

from conftest import encoded, labeled_weeks, make_doc, make_record, traced_peak

RECORDS = [
    make_record(rec_id="a", title="Markets rally", content="oil prices surge 2020 on oil",
                published="2020-01-08T23:59:59Z", worthiness=1),
    make_record(rec_id="b", title="Oil prices", content="markets fall",
                published="2020-01-09T00:00:00Z"),
    make_record(rec_id="c", title="", content="!! 42 ??", published="2019-12-31T12:00:00Z",
                worthiness=0),
]


def write_tokens(records, path, max_tokens):
    writer = TokensWriter(max_tokens)
    for record in records:
        writer.add(record)
    writer.write(path)


class TestRoundTrip:
    def test_read_gives_back_what_ingest_tokenized(self, tmp_path):
        path = tmp_path / "tokens.bin"
        write_tokens(RECORDS, path, max_tokens=5)
        corpus = read_tokens(path)
        docs = [tokenize(r, 5) for r in RECORDS]
        assert corpus.words == tuple(sorted({t for d in docs for t in d.tokens}))
        assert [d.record_id for d in corpus.docs] == ["a", "b", "c"]
        for doc, want in zip(corpus.docs, docs):
            assert doc.words is corpus.words
            assert [corpus.words[i] for i in doc.ids] == list(want.tokens)
        assert len(corpus.docs[2].ids) == 0
        assert corpus.days == (date(2020, 1, 8), date(2020, 1, 9), date(2019, 12, 31))
        assert corpus.worthiness == (1, None, 0)

    def test_docs_are_built_for_the_records_asked_for(self, tmp_path):
        path = tmp_path / "tokens.bin"
        write_tokens(RECORDS, path, max_tokens=5)
        docs = read_tokens(path).docs
        assert len(docs) == 3 and docs[-1].record_id == "c"
        assert [d.record_id for d in docs[1:]] == ["b", "c"]
        taken = docs.take([1, 0])
        assert [d.record_id for d in taken] == ["b", "a"]
        assert [d.ids.tolist() for d in taken] == [docs[1].ids.tolist(), docs[0].ids.tolist()]
        with pytest.raises(IndexError):
            docs[3]
        with pytest.raises(IndexError):
            docs.take([0, -4])

    @given(st.lists(st.lists(st.sampled_from(["oil", "a", "é", "Oil", "b2", "a"]), max_size=6),
                    max_size=6))
    def test_id_table_numbers_each_token_by_its_sorted_word(self, seqs):
        table = _IdTable()
        for seq in seqs:
            table.add(iter(seq))
        # ranked in place a few tokens at a time, so most runs cross a chunk;
        # the last sequence is added after a first `finish`, so the second
        # renumbers from the first one's numbering
        with mock.patch.object(tokens, "CHECK_CHUNK", 4):
            table.finish()
            table.add(iter(["zz", "a"]))
            words, ids = table.finish(), table.ids
        seqs = [*seqs, ["zz", "a"]]
        want = sorted({t for seq in seqs for t in seq})
        assert words == tuple(want)
        assert ids.typecode == "i" and ids.itemsize == 4
        assert ids.tolist() == [want.index(t) for seq in seqs for t in seq]
        assert table.offsets.tolist() == list(itertools.accumulate(map(len, seqs), initial=0))

    def test_write_is_byte_identical_on_rerun(self, tmp_path):
        write_tokens(RECORDS, tmp_path / "a.bin", max_tokens=180)
        write_tokens(iter(RECORDS), tmp_path / "b.bin", max_tokens=180)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        # one writer writing twice, as after a failed write, ranks its ids once
        writer = TokensWriter(180)
        for record in RECORDS:
            writer.add(record)
        writer.write(tmp_path / "c.bin")
        writer.write(tmp_path / "d.bin")
        assert (tmp_path / "d.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()


# a valid file: "a" says gain oil, "b" says fall
VALID = {
    "words": ["fall", "gain", "oil"],
    "record_ids": ["a", "b"],
    "day": [737432, 737433],
    "worthiness": [1, -1],
    "offsets": [0, 2, 3],
    "tokens": [1, 2, 0],
}
# each array's dtype as `ingest` writes it
ARRAYS = {"day": np.int64, "worthiness": np.int64, "offsets": np.int64, "tokens": np.int32}


def write_parts(path, **changes):
    """`VALID` as `tokens.bin`, `changes` replacing some of it; a change that
    is a numpy array keeps its dtype."""
    parts = {**VALID, **changes}
    header = {key: parts[key] for key in ("words", "record_ids")}
    arrays = [(name, parts[name] if isinstance(parts[name], np.ndarray)
               else np.array(parts[name], dtype=dtype)) for name, dtype in ARRAYS.items()]
    write_arrays(path, TOKENS_MAGIC, header, arrays)


CORRUPT = {
    "id at the word count": ({"tokens": [1, 3, 0]}, "tokens holds a value"),
    "negative id": ({"tokens": [1, -1, 0]}, "tokens holds a value"),
    # arrays stored as float64, as every array was before each had its dtype
    "fractional id": ({"tokens": np.array([1, 1.5, 0])}, "tokens is stored as <f8, not"),
    "nan id": ({"tokens": np.array([1, np.nan, 0])}, "tokens is stored as <f8, not"),
    "fractional day": ({"day": np.array([737432.5, 737433])}, "day is stored as <f8, not"),
    "whole ids stored as floats": ({"tokens": np.array([1.0, 2.0, 0.0])},
                                   "tokens is stored as <f8, not as integers"),
    "worthiness of 2": ({"worthiness": [2, -1]}, "worthiness holds a value"),
    "decreasing offsets": ({"offsets": [0, 4, 3]}, "offsets must rise from 0"),
    "offsets short of the token count": ({"offsets": [0, 2, 2]}, "offsets must rise from 0"),
    "offsets not from 0": ({"offsets": [1, 2, 3]}, "offsets must rise from 0"),
    "one offset too few": ({"offsets": [0, 3]}, "offsets has shape [2], not [3]"),
    "one day too many": ({"day": [737432, 737433, 737434]}, "day has shape [3], not [2]"),
    "unsorted words": ({"words": ["gain", "fall", "oil"]}, "words must be sorted and distinct"),
    "repeated words": ({"words": ["fall", "fall", "oil"]}, "words must be sorted and distinct"),
    "words not strings": ({"words": [1, 2, 3]}, "words must be a list of strings"),
    "repeated record ids": ({"record_ids": ["a", "a"]}, "record ids must be distinct"),
    "no records": ({"record_ids": [], "day": [], "worthiness": [], "offsets": [0],
                    "tokens": []}, "holds no news records"),
}


class TestCorruptFile:
    @pytest.mark.parametrize("case", sorted(CORRUPT))
    def test_is_a_data_error_naming_the_file(self, tmp_path, case):
        changes, reason = CORRUPT[case]
        path = tmp_path / "tokens.bin"
        write_parts(path, **changes)
        with pytest.raises(DataError) as info:
            read_tokens(path)
        assert f"{path} is corrupt: " in str(info.value)
        assert reason in str(info.value)

    def test_missing_array_names_it(self, tmp_path):
        path = tmp_path / "tokens.bin"
        header = {key: VALID[key] for key in ("words", "record_ids")}
        write_arrays(path, TOKENS_MAGIC, header, [(name, np.array(VALID[name], dtype=dtype))
                                                  for name, dtype in list(ARRAYS.items())[:3]])
        with pytest.raises(DataError, match="lacks key 'tokens'"):
            read_tokens(path)

    def test_valid_parts_read(self, tmp_path):
        write_parts(tmp_path / "tokens.bin")
        corpus = read_tokens(tmp_path / "tokens.bin")
        assert [d.ids.tolist() for d in corpus.docs] == [[1, 2], [0]]
        assert corpus.worthiness == (1, None)


# Reading holds the token ids as the file's int32, 4 bytes an id, and checks
# them a chunk at a time: its tracemalloc peak must stay below this many
# bytes a token id. It reads 5.24 here (the rest is the header's record ids
# and each record's day), as it did when the file stored float64 ids that
# the reader converted to int32 a chunk at a time, and read above 8 when the
# corpus held the file's float64 bytes.
READ_PEAK_PER_ID = 6


def write_big_corpus(path, n_records=5_000, per_record=180, n_words=500):
    """A valid `tokens.bin` of several MB, nearly all of it token ids: each
    record is a long article cut at the default `tokenizer.max_tokens`."""
    rng = np.random.default_rng(0)
    header = {"words": [f"w{i:03d}" for i in range(n_words)],
              "record_ids": [f"r{i}" for i in range(n_records)]}
    write_arrays(path, TOKENS_MAGIC, header, [
        ("day", np.full(n_records, 737432)),
        ("worthiness", rng.integers(-1, 2, n_records)),
        ("offsets", np.arange(0, (n_records + 1) * per_record, per_record)),
        ("tokens", rng.integers(0, n_words, n_records * per_record).astype(np.int32)),
    ])
    return n_records * per_record


class TestBoundedMemory:
    def test_read_peak_stays_near_the_file_size(self, tmp_path):
        path = tmp_path / "tokens.bin"
        n_ids = write_big_corpus(path)
        assert path.stat().st_size > 3_000_000
        assert traced_peak(read_tokens, path) < READ_PEAK_PER_ID * n_ids

    def test_a_taken_doc_outlives_the_corpus_without_its_buffer(self, tmp_path):
        path = tmp_path / "tokens.bin"
        write_big_corpus(path)
        tracemalloc.start()
        try:
            corpus = read_tokens(path)
            doc = corpus.docs[7]
            want = (doc.record_id, doc.ids.tolist(), doc.words)
            del corpus
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (doc.record_id, doc.ids.tolist(), doc.words) == want
        assert doc.ids.dtype == np.int32 and len(doc.ids) == 180
        # the words and one document's ids, not the file's token ids
        assert held < path.stat().st_size / 20

    def test_write_ranks_the_token_ids_a_chunk_at_a_time(self, tmp_path):
        words = [f"w{i}x" for i in range(50)]
        writer = TokensWriter(max_tokens=4000)
        for i in range(60):
            writer.add(make_record(rec_id=f"r{i}", title="", content=" ".join(
                words[(i + j) % 50] for j in range(4000))))
        n_tokens = 60 * 4000
        path = tmp_path / "tokens.bin"
        peak = traced_peak(writer.write, path)
        # a float64 copy of every id takes 8 bytes a token, so this bound is a
        # quarter of one; ranking in place holds one chunk of ids at a time
        assert peak < 8 * n_tokens / 4
        corpus = read_tokens(path)
        assert corpus.words == tuple(sorted(words))
        assert [corpus.words[i] for i in corpus.docs[1].ids[:3]] == words[1:4]
        assert sum(len(doc.ids) for doc in corpus.docs) == n_tokens


# --- string-keyed references -------------------------------------------------

def reference_bag(encoder, token_lists):
    width = len(encoder.vocab) + 1
    out = np.zeros((len(token_lists), width))
    for row, tokens in enumerate(token_lists):
        for t in tokens:
            out[row, encoder.index.get(t, 0)] += 1
        out[row] /= np.sqrt(max(len(tokens), 1))
    return out


def reference_count(groups, words):
    index = {word: j for j, word in enumerate(words)}
    counts = np.zeros((len(groups), len(index)), dtype=np.int64)
    df = np.zeros_like(counts)
    for g, docs in enumerate(groups):
        for tokens in docs:
            for t in tokens:
                if t in index:
                    counts[g, index[t]] += 1
            for t in set(tokens) & set(index):
                df[g, index[t]] += 1
    tokens = np.array([sum(map(len, docs)) for docs in groups], dtype=np.int64)
    n_docs = np.array([len(docs) for docs in groups], dtype=np.int64)
    return counts, df, tokens, n_docs


def reference_ranking(pos, neg):
    words = sorted({t for docs in (pos, neg) for tokens in docs for t in tokens})
    counts, df, tokens, n_docs = reference_count([pos, neg], words)
    w = _weights(counts, tokens, n_docs, _idf(df.sum(axis=0), n_docs.sum()))
    return sorted(zip(words, (w[0] - w[1]).tolist()), key=lambda item: (-item[1], item[0]))


def reference_vocabulary(token_lists, ranking, size):
    present = {t for tokens in token_lists for t in tokens}
    candidates = sorted({(-abs(score), word) for word, score in ranking if word in present})
    return None if len(candidates) < size else tuple(word for _, word in candidates[:size])


def reference_frequency_vocab(token_lists, size):
    counts = Counter(t for tokens in token_lists for t in tokens)
    return tuple(w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:size])


# lexicographic order differs from first-seen order, and some words are
# never seen by the encoder
WORDS = ["zeta", "a", "ab", "b1", "q", "mid", "aa"]
doc_lists = st.lists(st.lists(st.sampled_from(WORDS), max_size=6), max_size=6)


class TestIdsMatchStringReferences:
    @given(pos=doc_lists, neg=doc_lists, other=doc_lists,
           tracked=st.sets(st.sampled_from(WORDS + ["none"])), size=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_counts_ranking_vocabularies_and_bag(self, pos, neg, other, tracked, size):
        # `other` documents share the word table but are never counted
        pos_docs, neg_docs, _ = encoded(*([make_doc(f"{i}", t) for i, t in enumerate(docs)]
                                          for docs in (pos, neg, other)))
        words = sorted(tracked)
        got, want = _count([pos_docs, neg_docs], words), reference_count([pos, neg], words)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

        if pos and neg:
            ranking = tfidf_difference_ranking(pos_docs, neg_docs)
            assert ranking == reference_ranking(pos, neg)
            # each ranked word occurs in the ranked documents, once, so the
            # ranking alone gives the most polar words present in them
            want_vocab = reference_vocabulary(pos + neg, ranking, size)
            if want_vocab is None:
                with pytest.raises(DataError):
                    build_vocabulary(ranking, size)
            else:
                assert build_vocabulary(ranking, size).words == want_vocab
        else:
            with pytest.raises(DataError):
                tfidf_difference_ranking(pos_docs, neg_docs)

        vocab = ReferenceEncoder.frequency_vocab(neg_docs, size)
        assert vocab == reference_frequency_vocab(neg, size)
        encoder = ReferenceEncoder(vocab[: size // 2] + ("unseen",), dim=2, emb_dim=2)
        all_docs, all_tokens = pos_docs + neg_docs, pos + neg
        bag, want = encoder._bag(all_docs), reference_bag(encoder, all_tokens)
        assert bag.shape == want.shape and bag[:, :].tobytes() == want.tobytes()
        width = want.shape[1]
        for lo, hi in ((0, 1), (1, width), (width // 2, width + 3), (2, 1)):
            assert bag[:, lo:hi].tobytes() == want[:, lo:hi].tobytes()

    def test_documents_of_two_tables_are_refused(self):
        [[a]], [[b]] = encoded([make_doc("a", ["x"])]), encoded([make_doc("b", ["y"])])
        with pytest.raises(ValueError, match="one word table"):
            ReferenceEncoder(["x"], dim=2, emb_dim=2)._bag([a, b])


def decoded(groups):
    """Each group of EncodedDocs as the token lists it encodes."""
    return [[[d.words[i] for i in d.ids.tolist()] for d in docs] for docs in groups]


# Ranking marks the words it meets a chunk of documents at a time: its
# tracemalloc peak must stay below this share of the documents' id bytes.
RANKING_PEAK_SHARE = 1 / 2


class TestChunkedCounting:
    """Counting takes `polarity.COUNT_DOCS` documents at a time; every chunk
    size gives the counts of whole groups, and so the same scores."""

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @given(pos=doc_lists, neg=doc_lists,
           weeks=st.lists(st.tuples(st.sampled_from(POT_CLASSES), doc_lists), min_size=1,
                          max_size=6),
           tracked=st.sets(st.sampled_from(WORDS + ["none"])))
    @settings(max_examples=40, deadline=None)
    def test_every_chunk_size_counts_whole_groups(self, chunk, pos, neg, weeks, tracked):
        token_groups = [pos, neg, *(docs for _, docs in weeks)]
        groups = encoded(*([make_doc(f"{i}", t) for i, t in enumerate(docs)]
                           for docs in token_groups))
        labels = labeled_weeks([cls for cls, _ in weeks])
        docs_by_week = {lab.week.anchor: docs for lab, docs in zip(labels, groups[2:])}
        words = sorted(tracked)
        with mock.patch.object(polarity, "COUNT_DOCS", chunk):
            got = _count(groups, words)
            ranking = tfidf_difference_ranking(*groups[:2]) if pos and neg else None
            scores = build_model_set(labels, docs_by_week, words,
                                     PolarityConfig(window_weeks=3)).scores
        assert all(np.array_equal(g, w) for g, w in zip(got, reference_count(token_groups, words)))
        if pos and neg:
            assert ranking == reference_ranking(pos, neg)
        # the same build over the string-keyed counts of each week
        with mock.patch.object(polarity, "_count",
                               lambda groups, words: reference_count(decoded(groups), words)):
            want = build_model_set(labels, docs_by_week, words,
                                   PolarityConfig(window_weeks=3)).scores
        assert scores.tobytes() == want.tobytes()

    def test_a_chunk_over_another_table_is_refused(self):
        # one document a chunk, so no chunk alone holds two tables; "y" has
        # id 0 in its own table, which would mark "x" in the other one
        [[a]], [[b]] = encoded([make_doc("a", ["x"])]), encoded([make_doc("b", ["y"])])
        with mock.patch.object(polarity, "COUNT_DOCS", 1):
            for pos, neg in (([a], [b]), ([a, b], [a]), ([a], [a, b])):
                with pytest.raises(ValueError, match="one word table"):
                    tfidf_difference_ranking(pos, neg)
            with pytest.raises(ValueError, match="one word table"):
                _count([[a, b]], ["x", "y"])

    def test_ranking_peak_stays_below_a_share_of_the_ids(self):
        rng = np.random.default_rng(0)
        n_docs, per_doc = 8_000, 100
        words = tuple(f"w{i:04d}" for i in range(2_000))
        ids = rng.integers(0, len(words), n_docs * per_doc).astype(np.int32)
        docs = [EncodedDoc(f"r{i}", ids[i * per_doc:(i + 1) * per_doc], words)
                for i in range(n_docs)]
        # numpy loads some of what ranking calls on first use; load it untraced
        tfidf_difference_ranking(docs[:1], docs[1:2])
        peak = traced_peak(tfidf_difference_ranking, docs[::2], docs[1::2])
        assert peak < RANKING_PEAK_SHARE * ids.nbytes
