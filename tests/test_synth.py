import hashlib
import itertools
import json
from datetime import date

import numpy as np
import pytest

from newstrend.config import SynthConfig
from newstrend.corpus import tokenize
from newstrend import synth
from newstrend.errors import ConfigError
from newstrend.synth import (
    NEGATIVE_WORDS, POSITIVE_WORDS, _draw, _filler_cdf, _filler_words, generate, write_outputs,
)

from conftest import WRITE_PEAK_SHARE, traced_peak


SMALL = SynthConfig(weeks=30, articles_per_week=8, seed=3)


class TestGenerate:
    def test_counts_and_week_coverage(self):
        records, prices, truth = generate(SMALL)
        assert len(list(records)) == 30 * 8
        # one extra price week beyond the news range
        assert len(truth.anchors) == 32
        assert truth.anchors[0] == date.fromisoformat(SMALL.start)
        last_price_day = max(d for d, _ in prices)
        assert last_price_day == truth.anchors[-1]

    def test_published_within_week_interval(self):
        records, _, truth = generate(SMALL)
        for rec in records:
            week_idx = int(rec.id.split("-")[1])
            lo, hi = truth.anchors[week_idx - 1], truth.anchors[week_idx]
            assert lo < rec.published.date() <= hi

    def test_articles_lean_their_weeks_mood(self):
        records, _, truth = generate(SMALL)
        pos, neg = set(POSITIVE_WORDS), set(NEGATIVE_WORDS)
        for rec in itertools.islice(records, 50):
            week_idx = int(rec.id.split("-")[1])
            toks = tokenize(rec, 400)
            n_pos = sum(1 for t in toks if t in pos)
            n_neg = sum(1 for t in toks if t in neg)
            if truth.moods[week_idx] > 0:
                assert n_pos > n_neg
            else:
                assert n_neg > n_pos

    def test_moods_alternate_in_balanced_blocks(self):
        _, _, truth = generate(SynthConfig(weeks=120, seed=55))
        moods = truth.moods[1:]
        frac_up = sum(1 for m in moods if m > 0) / len(moods)
        assert 0.3 <= frac_up <= 0.7
        flips = sum(1 for a, b in zip(moods, moods[1:]) if a != b)
        assert 3 <= flips <= 10

    def test_rho_couples_price_sign_to_mood(self):
        _, _, strong = generate(SynthConfig(weeks=120, rho=0.9, seed=1))
        agree = np.mean([
            np.sign(strong.pct_changes[t]) == strong.moods[t]
            for t in range(1, len(strong.moods))
        ])
        assert agree > 0.9
        _, _, none = generate(SynthConfig(weeks=120, rho=0.0, seed=1))
        agree0 = np.mean([
            np.sign(none.pct_changes[t]) == none.moods[t]
            for t in range(1, len(none.moods))
        ])
        assert 0.3 <= agree0 <= 0.7

    def test_big_moves_always_mood_aligned_at_high_rho(self):
        _, _, truth = generate(SynthConfig(weeks=200, rho=0.9, seed=2))
        for t in range(1, len(truth.moods)):
            if abs(truth.pct_changes[t]) > 2.0:
                assert np.sign(truth.pct_changes[t]) == truth.moods[t]

    def test_content_survives_default_cleaning(self):
        records, _, _ = generate(SMALL)
        assert all(200 <= len(r.content) <= 20_000 for r in records)

    def test_prices_match_weekly_pct_changes(self):
        _, prices, truth = generate(SMALL)
        closes = dict(prices)
        for t in range(1, len(truth.anchors)):
            c0, c1 = closes[truth.anchors[t - 1]], closes[truth.anchors[t]]
            assert 100.0 * (c1 - c0) / c0 == pytest.approx(truth.pct_changes[t], abs=1e-6)

    def test_category_proxies_present(self):
        records, _, _ = generate(SynthConfig(weeks=60, articles_per_week=30, seed=4))
        records = list(records)
        tagged = [r for r in records if r.categories]
        assert tagged
        manual = [r for r in records if r.worthiness is not None]
        assert manual


class TestStart:
    @pytest.mark.parametrize("start, message", [
        ("2015-01-07", "synth.start must be a Monday, got '2015-01-07', a Wednesday"),
        ("2015-01", "synth.start must be a YYYY-MM-DD date, got '2015-01'"),
    ])
    def test_start_other_than_a_monday_is_config_error_before_writing(self, tmp_path, start,
                                                                       message):
        with pytest.raises(ConfigError, match=message):
            write_outputs(SynthConfig(start=start, weeks=3), tmp_path / "news.jsonl",
                          tmp_path / "prices.csv")
        assert list(tmp_path.iterdir()) == []


class TestFillerDraws:
    @pytest.mark.parametrize("size", [40, 300, 800])
    def test_draw_is_generator_choice(self, size):
        # guards the hoisted sampler against a numpy whose `choice` changes
        words = np.array(_filler_words(size), dtype=object)
        p = np.array([1.0 / (i + 3.0) for i in range(size)])
        p /= p.sum()
        cdf = _filler_cdf(size)
        for seed in range(5):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in (1, 45, 69, 500):
                assert _draw(ours, words, cdf, n) == theirs.choice(words, size=n, p=p).tolist()
            assert ours.random() == theirs.random()  # the same stream was consumed


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            write_outputs(SMALL, d / "news.jsonl", d / "prices.csv")
        assert (tmp_path / "a/news.jsonl").read_bytes() == (tmp_path / "b/news.jsonl").read_bytes()
        assert (tmp_path / "a/prices.csv").read_bytes() == (tmp_path / "b/prices.csv").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        write_outputs(SMALL, tmp_path / "n1.jsonl", tmp_path / "p1.csv")
        other = SynthConfig(weeks=30, articles_per_week=8, seed=4)
        write_outputs(other, tmp_path / "n2.jsonl", tmp_path / "p2.csv")
        assert (tmp_path / "n1.jsonl").read_bytes() != (tmp_path / "n2.jsonl").read_bytes()


class TestBoundedMemory:
    def test_write_outputs_holds_one_record_not_the_corpus(self, tmp_path):
        # numpy.random imports its generator modules on first use
        write_outputs(SynthConfig(weeks=2, articles_per_week=2),
                      tmp_path / "w.jsonl", tmp_path / "w.csv")
        config = SynthConfig(weeks=20, articles_per_week=400, seed=7,
                             block_min_weeks=2, block_max_weeks=4)
        news = tmp_path / "news.jsonl"
        peak = traced_peak(write_outputs, config, news, tmp_path / "prices.csv")
        assert news.stat().st_size > 5_000_000
        assert peak < WRITE_PEAK_SHARE * news.stat().st_size


class TestDefaultSizes:
    def test_default_sizes_keep_their_bytes(self, tmp_path):
        """The bench digests cover 12 articles a week over 300 or 800 filler
        words; this pins the default 50 articles over 500 fillers, on fewer
        weeks so that it runs in about a second. The loop that tops a body
        up to 250 characters ran for none of the 20,000 default-config, 3,600
        deep or 4,080 lexicon articles, so no digest covers its draws, and
        they must stay as written."""
        config = SynthConfig(weeks=200)
        assert (config.articles_per_week, config.filler_vocab) == (50, 500)
        write_outputs(config, tmp_path / "news.jsonl", tmp_path / "prices.csv")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("news.jsonl", "prices.csv")}
        assert digests == {
            "news.jsonl": "6096ed01677a69ba9316e63b1b758196e3ea500f775edc6f48d312f331932aab",
            "prices.csv": "050e741e184d048e5dcea12577a28c86551951af71fc3aa93570dbdccb4cb630",
        }

    def test_top_up_draws_keep_their_bytes(self, tmp_path, monkeypatch):
        # fillers of two or three characters leave every body short of 250,
        # so each article runs the top-up loop that no other digest covers
        monkeypatch.setattr(synth, "_filler_words", lambda size: [f"w{i}" for i in range(size)])
        write_outputs(SynthConfig(weeks=10, articles_per_week=5, filler_vocab=30),
                      tmp_path / "news.jsonl", tmp_path / "prices.csv")
        lines = (tmp_path / "news.jsonl").read_bytes()
        # a topped-up body stops at the first filler that takes it to 250
        # characters, so 47 of the 50 end within one filler of 250
        lengths = [len(json.loads(line)["content"]) for line in lines.splitlines()]
        assert min(lengths) == 250 and sum(n < 254 for n in lengths) == 47
        assert hashlib.sha256(lines).hexdigest() == (
            "d764651c57d72da12c222b2df3806a1a8484370dcd160d9f777a1ae369c705de")
