import json
import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstrend.config import CorpusConfig
from newstrend.corpus import (
    TIMESTAMP_FORMAT, NewsRecord, ProxyRule, Vocabulary, assign_worthiness_proxy,
    build_vocabulary, clean_filter, encode_record, format_timestamp, ingest_news,
    parse_timestamp, tokenize, write_news_jsonl, write_rejects_csv,
)
from newstrend.errors import DataError
from newstrend.tokens import encode_docs

from conftest import WRITE_PEAK_SHARE, make_record, traced_peak


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
        assert list(result) == []
        assert result.rejected == []
        assert result.total == 0

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "news.jsonl"
        write_lines(path, [record_line(rec_id="a"), "{not json", record_line(rec_id="b")])
        result = ingest_news(path)
        assert [r.id for r in result] == ["a", "b"]
        assert len(result.rejected) == 1
        assert result.rejected[0][0] == 2
        assert result.total == 3

    def test_each_malformed_line_rejected_with_its_reason(self, tmp_path):
        path = tmp_path / "news.jsonl"
        write_lines(path, [record_line(rec_id="a"), "", "  \t", "[1, 2]", '"text"',
                           "{not json", "null", record_line(rec_id="b")])
        result = ingest_news(path)
        assert [r.id for r in result] == ["a", "b"]
        assert result.rejected == [
            (2, "empty line"), (3, "empty line"), (4, "record is not a JSON object"),
            (5, "record is not a JSON object"),
            (6, "invalid JSON: Expecting property name enclosed in double quotes"),
            (7, "record is not a JSON object"),
        ]
        assert (result.total, result.parsed) == (8, 2)

    @pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u2029"])
    def test_unicode_line_break_inside_a_record_is_content(self, tmp_path, char):
        obj = json.loads(record_line(rec_id="a"))
        obj["content"] = f"shares rose{char}then fell"
        path = tmp_path / "news.jsonl"
        write_lines(path, [json.dumps(obj, ensure_ascii=False), "{not json",
                           record_line(rec_id="b")])
        result = ingest_news(path)
        records = list(result)
        assert [r.id for r in records] == ["a", "b"]
        assert char in records[0].content
        assert result.total == 3
        assert [line for line, _ in result.rejected] == [2]

    @pytest.mark.parametrize("ending", ["", "\n", "\r\n"])
    def test_final_newline_or_crlf_adds_no_line(self, tmp_path, ending):
        path = tmp_path / "news.jsonl"
        lines = [record_line(rec_id="a"), record_line(rec_id="b")]
        path.write_bytes(("\r\n".join(lines) + ending).encode("utf-8"))
        result = ingest_news(path)
        assert [r.id for r in result] == ["a", "b"]
        assert (result.total, result.rejected) == (2, [])

    def test_missing_field_rejected_with_reason(self, tmp_path):
        path = tmp_path / "news.jsonl"
        bad = json.dumps({"id": "x", "url": "u", "title": "t", "content": "c"})
        write_lines(path, [bad])
        result = ingest_news(path)
        assert list(result) == []
        assert "published" in result.rejected[0][1]

    def test_bad_worthiness_rejected(self, tmp_path):
        # a bool or a float equals 0 or 1 but is not the `0 | 1 | null` the format requires
        path = tmp_path / "news.jsonl"
        bad = [2, -1, True, False, 1.0, 0.0, "1", [1]]
        lines = []
        for worthiness in bad:
            obj = json.loads(record_line())
            obj["worthiness"] = worthiness
            lines.append(json.dumps(obj))
        write_lines(path, lines)
        result = ingest_news(path)
        assert list(result) == []
        assert result.rejected == [(i, "field 'worthiness' must be 0, 1, or null")
                                   for i in range(1, len(bad) + 1)]

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(DataError, match="cannot read news file .*missing.jsonl"):
            list(ingest_news(tmp_path / "missing.jsonl"))

    def test_undecodable_byte_named_by_its_place_in_the_file(self, tmp_path):
        path = tmp_path / "news.jsonl"
        head = (record_line(rec_id="a") + "\n").encode() * 100
        path.write_bytes(head + b"\xff\n")
        with pytest.raises(DataError, match=f"in position {len(head)}: invalid start byte"):
            list(ingest_news(path))

    def test_roundtrip_identity(self, tmp_path):
        records = [
            make_record(rec_id="a", categories=("us", "technology"), worthiness=1),
            make_record(rec_id="b", published="2020-03-01T01:02:03Z"),
        ]
        path = tmp_path / "out.jsonl"
        write_news_jsonl(records, path)
        back = ingest_news(path)
        assert list(back) == records
        assert back.rejected == []

    def test_write_holds_one_line_not_the_file(self, tmp_path):
        records = [make_record(rec_id=f"r{i}", content="market " * 150) for i in range(5000)]
        path = tmp_path / "out.jsonl"
        write_news_jsonl(records[:1], path)  # warm up
        peak = traced_peak(write_news_jsonl, records, path)
        assert path.stat().st_size > 5_000_000
        assert peak < WRITE_PEAK_SHARE * path.stat().st_size

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
        assert list(clean_filter(records, self.rules)) == []

    def test_long_content_removed(self):
        records = [make_record(rec_id="a", content="x" * 30_000)]
        assert list(clean_filter(records, self.rules)) == []

    def test_duplicate_id_keeps_first(self):
        a = make_record(rec_id="a", title="one")
        b = make_record(rec_id="a", title="two")
        assert list(clean_filter([a, b], self.rules)) == [a]

    def test_duplicate_title_and_day_removed(self):
        a = make_record(rec_id="a", published="2020-01-08T09:00:00Z")
        b = make_record(rec_id="b", published="2020-01-08T21:00:00Z")
        assert list(clean_filter([a, b], self.rules)) == [a]

    def test_url_blocklist(self):
        rules = CorpusConfig(url_blocklist=[r"/video/"])
        bad = make_record(rec_id="a", url="https://example.com/video/1")
        good = make_record(rec_id="b")
        assert list(clean_filter([bad, good], rules)) == [good]

    def test_idempotent(self):
        records = [
            make_record(rec_id="a"),
            make_record(rec_id="a", title="dup id"),
            make_record(rec_id="c", content="tiny"),
            make_record(rec_id="d", title="other", published="2021-06-01T00:00:00Z"),
        ]
        once = list(clean_filter(records, self.rules))
        assert list(clean_filter(once, self.rules)) == once


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


class TestTokenObjects:
    """Documents index one table of the distinct words, so a corpus holds one
    string per word rather than one per occurrence."""

    def test_records_sharing_words_share_token_objects(self):
        a, b = encode_docs([
            tokenize(make_record(rec_id="a", title="Markets rally", content="oil prices surge")),
            tokenize(make_record(rec_id="b", title="Oil prices", content="markets fall")),
        ])
        assert a.words is b.words
        assert a.words == ("fall", "markets", "oil", "prices", "rally", "surge")
        tokens_a, tokens_b = [a.words[i] for i in a.ids], [b.words[i] for i in b.ids]
        assert tokens_a[0] == tokens_b[2] == "markets"
        assert tokens_a[0] is tokens_b[2]
        assert tokens_a[2] is tokens_b[0] and tokens_a[3] is tokens_b[1]

    def test_loaded_corpus_holds_one_object_per_distinct_token(self, trained_workdir):
        from newstrend.cli import _load_week_data

        # every document indexes one shared table of the distinct words, and
        # holds int32 ids rather than strings
        workdir, _ = trained_workdir
        labels, corpus, positions = _load_week_data(workdir)
        docs = corpus.docs.take(positions([rid for lab in labels for rid in lab.week.news_ids]))
        words = docs[0].words
        assert all(doc.words is words for doc in docs)
        assert list(words) == sorted(set(words))
        assert all(isinstance(doc.ids, np.ndarray) and doc.ids.dtype == np.int32 for doc in docs)
        assert sum(len(doc.ids) for doc in docs) > 10 * len(words)


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


class TestFormatTimestamp:
    @pytest.mark.parametrize("value", ["0001-01-01T00:00:00Z", "0999-01-06T10:00:00Z",
                                       "2020-02-29T23:59:59Z", "9999-12-31T23:59:59Z"])
    def test_round_trip(self, value):
        assert format_timestamp(parse_timestamp(value)) == value

    def test_early_year_survives_a_corpus_round_trip(self, tmp_path):
        record = make_record(published="0999-01-06T10:00:00Z")
        path = tmp_path / "corpus.jsonl"
        write_news_jsonl([record], path)
        back = ingest_news(path)
        assert list(back) == [record]
        assert back.rejected == []

    def test_other_zones_are_written_in_utc(self):
        dt = datetime(2020, 1, 1, 1, 30, 5, 999_999, tzinfo=timezone(timedelta(hours=2)))
        assert format_timestamp(dt) == "2019-12-31T23:30:05Z"


# any character, lone surrogates included, and the ones JSON escapes
TEXT = st.text(st.one_of(st.characters(blacklist_categories=()),
                         st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfffé')), max_size=40)
ZONES = st.sampled_from([timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                         timezone(timedelta(hours=-8))])


def record_to_obj(record):
    """The JSON object of `record`, as the corpus module docstring lays it out."""
    return {
        "id": record.id,
        "url": record.url,
        "title": record.title,
        "content": record.content,
        "published": format_timestamp(record.published),
        "categories": sorted(record.categories),
        "worthiness": record.worthiness,
    }


class TestEncodeRecord:
    """`encode_record` spells out by hand what the json module writes; the
    reference encoder is kept here, so that the package keeps one."""

    @given(st.builds(NewsRecord, id=TEXT, url=TEXT, title=TEXT, content=TEXT,
                     published=st.datetimes(min_value=datetime(2, 1, 1),
                                            max_value=datetime(9998, 12, 31), timezones=ZONES),
                     categories=st.frozensets(TEXT, max_size=4),
                     worthiness=st.sampled_from([None, 0, 1])))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_json_dumps(self, record):
        want = (json.dumps(record_to_obj(record), sort_keys=True) + "\n").encode()
        assert encode_record(record) == want


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


def rule_at_a_time(records, rules):
    """Proxy labels applied one rule at a time, as `assign_worthiness_proxy`
    was first written, with each rule's count taken from the change it made."""
    out, counts = list(records), []
    for rule in rules:
        assigned = 0
        for i, record in enumerate(out):
            if assigned >= rule.cap:
                break
            if record.worthiness is None and rule.category in record.categories:
                out[i] = replace(record, worthiness=rule.label)
                assigned += 1
        counts.append(assigned)
    return out, counts


CATEGORIES = ("us", "tech", "health", "euro")


class TestWorthinessProxy:
    def test_cap_respected_in_corpus_order(self):
        records = [make_record(rec_id=f"r{i}", categories=("basic-materials",)) for i in range(5)]
        out, counts = assign_worthiness_proxy(records, [ProxyRule("basic-materials", 0, 3)])
        assert [r.worthiness for r in out] == [0, 0, 0, None, None]
        assert counts == [3]

    def test_positive_proxy(self):
        records = [make_record(rec_id="a", categories=("top-companies",))]
        out, _ = assign_worthiness_proxy(records, [ProxyRule("top-companies", 1, 10)])
        assert [r.worthiness for r in out] == [1]

    def test_manual_label_wins(self):
        records = [make_record(rec_id="a", categories=("top-companies",), worthiness=0)]
        out, counts = assign_worthiness_proxy(records, [ProxyRule("top-companies", 1, 10)])
        assert [r.worthiness for r in out] == [0]
        assert counts == [0]

    def test_unknown_category_labels_nothing(self):
        records = [make_record(rec_id="a", categories=("us",))]
        out, counts = assign_worthiness_proxy(
            records, [ProxyRule("no-such-tag", 1, 10), ProxyRule("us", 0, 10)]
        )
        assert [r.worthiness for r in out] == [0]
        assert counts == [0, 1]

    def test_never_overwrites_even_across_rules(self):
        records = [make_record(rec_id="a", categories=("us", "healthcare"))]
        out, _ = assign_worthiness_proxy(
            records, [ProxyRule("us", 1, 10), ProxyRule("healthcare", 0, 10)]
        )
        assert [r.worthiness for r in out] == [1]

    @given(
        st.lists(st.tuples(st.sets(st.sampled_from(CATEGORIES)),
                           st.sampled_from([None, None, 0, 1])), max_size=40),
        st.lists(st.tuples(st.sampled_from(CATEGORIES + ("none",)), st.sampled_from([0, 1]),
                           st.integers(min_value=0, max_value=8)), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_pass_labels_and_counts_as_rule_at_a_time(self, specs, rule_specs):
        records = [make_record(rec_id=f"r{i}", categories=cats, worthiness=worth)
                   for i, (cats, worth) in enumerate(specs)]
        rules = [ProxyRule(*spec) for spec in rule_specs]
        out, counts = assign_worthiness_proxy(iter(records), rules)
        assert (list(out), counts) == rule_at_a_time(records, rules)


class TestVocabulary:
    def test_top_one(self):
        vocab = build_vocabulary([("gain", 2.0), ("loss", -1.0)], 1)
        assert vocab.words == ("gain",)

    def test_absolute_magnitude_ranking(self):
        vocab = build_vocabulary([("gain", 0.5), ("loss", -2.0), ("flat", 0.1)], 2)
        assert vocab.words == ("loss", "gain")

    def test_tie_breaks_lexicographic(self):
        vocab = build_vocabulary([("beta", 1.0), ("alpha", -1.0)], 2)
        assert vocab.words == ("alpha", "beta")

    def test_insufficient_candidates_fatal(self):
        with pytest.raises(DataError, match="vocabulary"):
            build_vocabulary([("gain", 1.0)], 2)

    def test_repeated_word_fatal(self):
        with pytest.raises(ValueError):
            Vocabulary(words=("a", "a"))
