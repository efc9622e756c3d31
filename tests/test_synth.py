from datetime import date

import numpy as np
import pytest

from newstrend.config import SynthConfig
from newstrend.corpus import tokenize
from newstrend.synth import NEGATIVE_WORDS, POSITIVE_WORDS, generate, write_outputs


SMALL = SynthConfig(weeks=30, articles_per_week=8, seed=3)


class TestGenerate:
    def test_counts_and_week_coverage(self):
        records, prices, truth = generate(SMALL)
        assert len(records) == 30 * 8
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
        for rec in records[:50]:
            week_idx = int(rec.id.split("-")[1])
            toks = tokenize(rec, 400).tokens
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
        tagged = [r for r in records if r.categories]
        assert tagged
        manual = [r for r in records if r.worthiness is not None]
        assert manual


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
