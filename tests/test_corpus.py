import json
import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstrend.config import CorpusConfig
from newstrend.corpus import (
    TIMESTAMP_FORMAT, ProxyRule, Vocabulary, assign_worthiness_proxy,
    build_vocabulary, clean_filter, ingest_news, parse_timestamp, read_news_jsonl, tokenize,
    write_news_jsonl, write_rejects_csv,
)
from newstrend.errors import DataError

from conftest import make_doc, make_record


def write_lines(path, lines):
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def record_line(**kwargs):
    rec = make_record(**kwargs)
    return json.dumps(
        {
            "id": rec.id, "url": rec.url, "title": rec.title, "content": rec.content,
            "published": "2020-01-08T12:00:00Z", "categories": sorted(rec.categories),
            "worthiness": rec.worthiness,
        }
    )


class TestIngest:
    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "news.jsonl"
        write_lines(path, [])
        result = ingest_news(path)
        assert result.records == []
        assert result.rejected == []
        assert result.total == 0

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "news.jsonl"
        write_lines(path, [record_line(rec_id="a"), "{not json", record_line(rec_id="b")])
        result = ingest_news(path)
        assert [r.id for r in result.records] == ["a", "b"]
        assert len(result.rejected) == 1
        assert result.rejected[0][0] == 2
        assert result.total == 3

    def test_missing_field_rejected_with_reason(self, tmp_path):
        path = tmp_path / "news.jsonl"
        bad = json.dumps({"id": "x", "url": "u", "title": "t", "content": "c"})
        write_lines(path, [bad])
        result = ingest_news(path)
        assert result.records == []
        assert "published" in result.rejected[0][1]

    def test_bad_worthiness_rejected(self, tmp_path):
        path = tmp_path / "news.jsonl"
        obj = json.loads(record_line())
        obj["worthiness"] = 2
        write_lines(path, [json.dumps(obj)])
        assert ingest_news(path).rejected

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(DataError):
            ingest_news(tmp_path / "missing.jsonl")

    def test_roundtrip_identity(self, tmp_path):
        records = [
            make_record(rec_id="a", categories=("us", "technology"), worthiness=1),
            make_record(rec_id="b", published="2020-03-01T01:02:03Z"),
        ]
        path = tmp_path / "out.jsonl"
        write_news_jsonl(records, path)
        back = ingest_news(path)
        assert back.rejected == []
        assert back.records == records
        assert read_news_jsonl(path) == records

    @pytest.mark.parametrize("bad, why", [
        ("{not json", "invalid JSON"),
        ("", "empty line"),
        ("[1]", "not a JSON object"),
        (json.dumps({"id": "x"}), "missing field 'url'"),
    ])
    def test_strict_read_names_file_and_line(self, tmp_path, bad, why):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [record_line(rec_id="a"), bad, record_line(rec_id="b")])
        with pytest.raises(DataError, match=f"corpus.jsonl line 2: .*{why}"):
            read_news_jsonl(path)

    def test_strict_read_of_file_without_records_names_it(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="corpus.jsonl holds no news records"):
            read_news_jsonl(path)

    def test_strict_read_of_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(DataError, match="missing.jsonl"):
            read_news_jsonl(tmp_path / "missing.jsonl")

    def test_rejects_csv(self, tmp_path):
        path = tmp_path / "rejects.csv"
        write_rejects_csv([(3, "invalid JSON: oops")], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "line_number,reason"
        assert lines[1].startswith("3,")


class TestCleanFilter:
    rules = CorpusConfig()

    def test_short_content_removed(self):
        records = [make_record(rec_id="a", content="")]
        assert clean_filter(records, self.rules) == []

    def test_long_content_removed(self):
        records = [make_record(rec_id="a", content="x" * 30_000)]
        assert clean_filter(records, self.rules) == []

    def test_duplicate_id_keeps_first(self):
        a = make_record(rec_id="a", title="one")
        b = make_record(rec_id="a", title="two")
        assert clean_filter([a, b], self.rules) == [a]

    def test_duplicate_title_and_day_removed(self):
        a = make_record(rec_id="a", published="2020-01-08T09:00:00Z")
        b = make_record(rec_id="b", published="2020-01-08T21:00:00Z")
        assert clean_filter([a, b], self.rules) == [a]

    def test_url_blocklist(self):
        rules = CorpusConfig(url_blocklist=[r"/video/"])
        bad = make_record(rec_id="a", url="https://example.com/video/1")
        good = make_record(rec_id="b")
        assert clean_filter([bad, good], rules) == [good]

    def test_idempotent(self):
        records = [
            make_record(rec_id="a"),
            make_record(rec_id="a", title="dup id"),
            make_record(rec_id="c", content="tiny"),
            make_record(rec_id="d", title="other", published="2021-06-01T00:00:00Z"),
        ]
        once = clean_filter(records, self.rules)
        assert clean_filter(once, self.rules) == once


class TestTokenize:
    def test_title_then_content(self):
        rec = make_record(title="Stocks Rise!", content="")
        assert tokenize(rec).tokens == ("stocks", "rise")

    def test_truncation_preserves_prefix(self):
        rec = make_record(title="lead words first", content=" ".join(f"w{i}" for i in range(500)))
        doc = tokenize(rec, max_tokens=180)
        assert len(doc.tokens) == 180
        assert doc.tokens[:3] == ("lead", "words", "first")

    def test_pure_digit_tokens_dropped(self):
        rec = make_record(title="COVID-19 fears", content="sales fell 12 percent in q3")
        doc = tokenize(rec)
        assert doc.tokens[:2] == ("covid", "fears")
        assert "12" not in doc.tokens
        assert "q3" in doc.tokens

    def test_max_tokens_validated(self):
        with pytest.raises(ValueError):
            tokenize(make_record(), max_tokens=0)

    @given(
        st.text(alphabet=st.characters(max_codepoint=0x2FF), max_size=200),
        st.text(alphabet=st.characters(max_codepoint=0x2FF), max_size=400),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_token_properties(self, title, content, max_tokens):
        doc = tokenize(make_record(title=title, content=content), max_tokens=max_tokens)
        assert len(doc.tokens) <= max_tokens
        for tok in doc.tokens:
            assert tok
            assert tok == tok.lower()
            assert tok.isalnum()
            assert not tok.isdigit()

    @given(st.lists(st.sampled_from(["gain", "loss", "fed", "q3x"]), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_retokenize_join_is_identity(self, tokens):
        rec = make_record(title="", content=" ".join(tokens))
        doc = tokenize(rec, max_tokens=100)
        again = tokenize(make_record(title="", content=" ".join(doc.tokens)), max_tokens=100)
        assert again.tokens == doc.tokens


def reference_parse_timestamp(value):
    """The strptime parser that `parse_timestamp` replaced."""
    return datetime.strptime(value, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)


def reference_tokens(text, max_tokens):
    """The regex tokenizer that `tokenize` replaced."""
    tokens = [t for t in re.findall(r"[a-z0-9]+", text.lower()) if not t.isdigit()]
    return tuple(tokens[:max_tokens])


def outcome(parse, value):
    try:
        return parse(value)
    except ValueError:
        return ValueError


class TestParseTimestampMatchesStrptime:
    @pytest.mark.parametrize("value", [
        "2020-01-08T12:00:00Z",
        "2020-02-29T00:00:00Z",       # leap year
        "2019-02-29T00:00:00Z",       # common year
        "2020-04-31T00:00:00Z",
        "2020-01-01T24:00:00Z",
        "2020-01-01T00:60:00Z",
        "2020-01-01T00:00:60Z",
        "2020-01-01T00:00:61Z",
        "0000-01-01T00:00:00Z",
        "0001-01-01T00:00:00Z",
        "9999-12-31T23:59:59Z",
        "2020-00-01T00:00:00Z",
        "2020-13-01T00:00:00Z",
        "2020-01-00T00:00:00Z",
        "2020-1-1T1:2:3Z",
        "2020-01- 1T00:00:00Z",
        "2020-01-01 00:00:00Z",
        "2020-01-01T00:00:00z",
        "2020-01-01t00:00:00Z",
        "２０２０-０１-０１T００:００:００Z",  # fullwidth digits
        "2020-01-01T00:00:00+00:00",
        "2020-01-01T00:00:00",
        "2020-01-01T00:00:00Z\n",
        " 2020-01-01T00:00:00Z",
        "2020-W01-1T00:00:00Z",
        "20200-01-01T00:00:00Z",
        "",
    ])
    def test_same_value_or_both_reject(self, value):
        expected = outcome(reference_parse_timestamp, value)
        got = outcome(parse_timestamp, value)
        assert got == expected
        if expected is not ValueError:
            assert got.tzinfo is timezone.utc

    @given(st.integers(0, 10_000), st.integers(0, 13), st.integers(0, 32),
           st.integers(0, 25), st.integers(0, 61), st.integers(0, 62))
    @settings(max_examples=300, deadline=None)
    def test_every_zero_padded_field_combination(self, y, mo, d, h, mi, s):
        value = f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}Z"
        assert outcome(parse_timestamp, value) == outcome(reference_parse_timestamp, value)


class TestTokenizeMatchesRegex:
    @pytest.mark.parametrize("text", [
        "Stocks Rise!",
        "\u212a is the Kelvin sign",      # lowercases to an ASCII k
        "\u0130stanbul shares",            # dotted I lowercases to i + combining dot
        "\uff21\uff22\uff23 \uff11\uff12 fullwidth",
        "x\u00b2 and \u00b9\u00b2\u00b3 superscripts",
        "\u0661\u0662\u0663 arabic-indic q\u0663",
        "non\u00a0breaking\u00a0space",
        "tabs\tand\nnewlines\r\nmixed",
        "0123456789" * 20 + " long digit run a" + "9" * 50,
        "caf\u00e9 na\u00efve \u00dfeta \u0153uvre",
        "emoji \U0001F4C8 up",
        "",
    ])
    @pytest.mark.parametrize("max_tokens", [1, 3, 180])
    def test_same_tokens(self, text, max_tokens):
        rec = make_record(title=text, content=text[::-1])
        expected = reference_tokens(rec.title + " " + rec.content, max_tokens)
        assert tokenize(rec, max_tokens).tokens == expected

    @given(st.text(max_size=300), st.integers(min_value=1, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_same_tokens_on_any_text(self, text, max_tokens):
        rec = make_record(title="", content=text)
        assert tokenize(rec, max_tokens).tokens == reference_tokens(" " + text, max_tokens)


class TestWorthinessProxy:
    def test_cap_respected_in_corpus_order(self):
        records = [make_record(rec_id=f"r{i}", categories=("basic-materials",)) for i in range(5)]
        out = assign_worthiness_proxy(records, [ProxyRule("basic-materials", 0, 3)])
        assert [r.worthiness for r in out] == [0, 0, 0, None, None]

    def test_positive_proxy(self):
        records = [make_record(rec_id="a", categories=("top-companies",))]
        out = assign_worthiness_proxy(records, [ProxyRule("top-companies", 1, 10)])
        assert out[0].worthiness == 1

    def test_manual_label_wins(self):
        records = [make_record(rec_id="a", categories=("top-companies",), worthiness=0)]
        out = assign_worthiness_proxy(records, [ProxyRule("top-companies", 1, 10)])
        assert out[0].worthiness == 0

    def test_unknown_category_labels_nothing(self):
        records = [make_record(rec_id="a", categories=("us",))]
        out = assign_worthiness_proxy(
            records, [ProxyRule("no-such-tag", 1, 10), ProxyRule("us", 0, 10)]
        )
        assert [r.worthiness for r in out] == [0]

    def test_never_overwrites_even_across_rules(self):
        records = [make_record(rec_id="a", categories=("us", "healthcare"))]
        out = assign_worthiness_proxy(
            records, [ProxyRule("us", 1, 10), ProxyRule("healthcare", 0, 10)]
        )
        assert out[0].worthiness == 1


class TestVocabulary:
    def test_top_one(self):
        docs = [make_doc("d1", ["gain", "loss"])]
        vocab = build_vocabulary(docs, [("gain", 2.0), ("loss", -1.0)], 1)
        assert vocab.words == ("gain",)

    def test_absolute_magnitude_ranking(self):
        docs = [make_doc("d1", ["gain", "loss", "flat"])]
        vocab = build_vocabulary(docs, [("gain", 0.5), ("loss", -2.0), ("flat", 0.1)], 2)
        assert vocab.words == ("loss", "gain")

    def test_tie_breaks_lexicographic(self):
        docs = [make_doc("d1", ["beta", "alpha"])]
        vocab = build_vocabulary(docs, [("beta", 1.0), ("alpha", -1.0)], 2)
        assert vocab.words == ("alpha", "beta")

    def test_words_absent_from_docs_skipped(self):
        docs = [make_doc("d1", ["gain"])]
        vocab = build_vocabulary(docs, [("missing", 9.0), ("gain", 1.0)], 1)
        assert vocab.words == ("gain",)

    def test_insufficient_candidates_fatal(self):
        docs = [make_doc("d1", ["gain"])]
        with pytest.raises(DataError, match="vocabulary"):
            build_vocabulary(docs, [("gain", 1.0)], 2)

    def test_index_bijection(self):
        vocab = Vocabulary(words=("a", "b", "c"))
        assert vocab.index == {"a": 0, "b": 1, "c": 2}
        with pytest.raises(ValueError):
            Vocabulary(words=("a", "a"))
