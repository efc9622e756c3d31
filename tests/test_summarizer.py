import json
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstrend.config import SummarizerConfig
from newstrend.errors import DataError
from newstrend.summarizer import (
    SummarizerModel, WeeklySentiment,
    build_summarizer_dataset, features_of, load_summarizer, predict_week,
    read_weekly_sentiment_csv, save_summarizer, train_summarizer,
    write_weekly_sentiment_csv,
)
from newstrend.weeks import TradingWeek, WeeklyLabel


MONDAY = date(2020, 1, 6)


def make_labels(n_weeks, n_articles=5, classes=None):
    labels = []
    for i in range(n_weeks):
        anchor = MONDAY + timedelta(days=7 * (i + 1))
        ids = tuple(f"a{i}-{j}" for j in range(n_articles))
        week = TradingWeek(anchor=anchor, prev_anchor=MONDAY + timedelta(days=7 * i),
                           pct_change=1.0 if i % 2 else -1.0, news_ids=ids)
        cls = (classes[i] if classes else ("up" if i % 2 else "down"))
        labels.append(WeeklyLabel(week=week, extractor_class="excluded",
                                  pot_class="neutral", summarizer_class=cls))
    return labels


def constant_scorer(value):
    def score(anchor, ids):
        return np.full(len(ids), value)
    return score


class TestDatasetBuild:
    def test_row_per_usable_week_with_next_week_target(self):
        labels = make_labels(5)
        ds = build_summarizer_dataset(labels, set(), constant_scorer(0.5), n_sample=10, seed=0)
        # last week has no next week -> 4 rows
        assert len(ds.rows) == 4
        for i, row in enumerate(ds.rows):
            assert row.label == labels[i + 1].summarizer_class
        assert ds.skipped == [(labels[-1].week.anchor, "no target week")]

    def test_mean_of_constant_scores(self):
        labels = make_labels(3)
        ds = build_summarizer_dataset(labels, set(), constant_scorer(0.5), n_sample=10, seed=0)
        assert all(row.overall_score == pytest.approx(0.5) for row in ds.rows)

    def test_sample_clamped_to_available(self):
        labels = make_labels(3, n_articles=4)
        ds = build_summarizer_dataset(labels, set(), constant_scorer(0.5), n_sample=100, seed=0)
        assert all(row.n_sampled == 4 for row in ds.rows)

    def test_zero_article_week_excluded_and_reported(self):
        labels = make_labels(4)
        empty = labels[1]
        labels[1] = WeeklyLabel(
            week=TradingWeek(anchor=empty.week.anchor, prev_anchor=empty.week.prev_anchor,
                             pct_change=empty.week.pct_change, news_ids=()),
            extractor_class=empty.extractor_class, pot_class=empty.pot_class,
            summarizer_class=empty.summarizer_class,
        )
        ds = build_summarizer_dataset(labels, set(), constant_scorer(0.5), n_sample=5, seed=0)
        assert (labels[1].week.anchor, "no articles") in ds.skipped
        assert len(ds.rows) == 2

    def test_extractor_weeks_excluded(self):
        labels = make_labels(5)
        excluded = {labels[0].week.anchor, labels[2].week.anchor}
        ds = build_summarizer_dataset(labels, excluded, constant_scorer(0.5), n_sample=5, seed=0)
        anchors = {row.week for row in ds.rows}
        assert not anchors & excluded
        reasons = dict(ds.skipped)
        assert reasons[labels[0].week.anchor] == "extractor train/dev week"

    def test_excluded_target_label_skipped(self):
        labels = make_labels(4, classes=["up", "excluded", "down", "up"])
        ds = build_summarizer_dataset(labels, set(), constant_scorer(0.5), n_sample=5, seed=0)
        assert (labels[0].week.anchor, "target week outside policy bins") in ds.skipped
        assert {row.week for row in ds.rows} == {labels[1].week.anchor, labels[2].week.anchor}

    def test_offset_zero_pairs_own_week(self):
        labels = make_labels(3)
        ds = build_summarizer_dataset(labels, set(), constant_scorer(0.5),
                                      n_sample=5, seed=0, target_offset=0)
        assert len(ds.rows) == 3
        for i, row in enumerate(ds.rows):
            assert row.label == labels[i].summarizer_class

    def test_sampling_is_seed_deterministic_and_bounded(self):
        labels = make_labels(3, n_articles=30)
        calls = {}

        def spread_scorer(anchor, ids):
            calls[anchor] = list(ids)
            return np.linspace(0.1, 0.9, len(ids))

        ds1 = build_summarizer_dataset(labels, set(), spread_scorer, n_sample=10, seed=1)
        ids_first = dict(calls)
        calls.clear()
        ds2 = build_summarizer_dataset(labels, set(), spread_scorer, n_sample=10, seed=1)
        assert dict(calls) == ids_first
        assert [r.sampled_ids for r in ds1.rows] == [r.sampled_ids for r in ds2.rows]

        ds3 = build_summarizer_dataset(labels, set(), spread_scorer, n_sample=10, seed=2)
        assert any(a.sampled_ids != b.sampled_ids for a, b in zip(ds1.rows, ds3.rows))
        for row in ds1.rows + ds3.rows:
            assert 0.1 - 1e-9 <= row.overall_score <= 0.9 + 1e-9

    def test_worthiness_mean_captured_from_two_column_scorer(self):
        labels = make_labels(3)

        def pair_scorer(anchor, ids):
            return np.column_stack([np.full(len(ids), 0.7), np.full(len(ids), 0.2)])

        ds = build_summarizer_dataset(labels, set(), pair_scorer, n_sample=5, seed=0)
        assert all(row.overall_score == pytest.approx(0.7) for row in ds.rows)
        assert all(row.worthiness_mean == pytest.approx(0.2) for row in ds.rows)


def toy_rows(n, split_score=0.5, labels=None, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        label = labels[i] if labels else ("up" if i % 2 else "down")
        lo, hi = (0.6, 0.95) if label == "up" else (0.05, 0.4)
        rows.append(
            WeeklySentiment(week=MONDAY + timedelta(days=7 * i), n_sampled=10,
                            overall_score=float(rng.uniform(lo, hi)), label=label,
                            sampled_ids=())
        )
    return rows


class TestTraining:
    def test_separable_data_fits_exactly(self):
        rows = toy_rows(30)
        model = train_summarizer(rows, SummarizerConfig(train_weeks=20))
        train = sorted(rows, key=lambda r: r.week)[:20]
        assert all(predict_week(model, r) == r.label for r in train)

    def test_deterministic(self):
        rows = toy_rows(30)
        a = train_summarizer(rows, SummarizerConfig(train_weeks=20))
        b = train_summarizer(rows, SummarizerConfig(train_weeks=20))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_single_class_fatal(self):
        rows = toy_rows(10, labels=["up"] * 10)
        with pytest.raises(DataError):
            train_summarizer(rows, SummarizerConfig(train_weeks=8))

    def test_split_leaving_no_test_weeks_fatal(self):
        rows = toy_rows(10)
        with pytest.raises(DataError):
            train_summarizer(rows, SummarizerConfig(train_weeks=10))

    def test_three_way_one_vs_rest(self):
        labels = (["up", "preserve", "down"] * 10)
        rng = np.random.default_rng(3)
        rows = []
        centers = {"down": 0.1, "preserve": 0.5, "up": 0.9}
        for i, lab in enumerate(labels):
            rows.append(WeeklySentiment(week=MONDAY + timedelta(days=7 * i), n_sampled=5,
                                        overall_score=centers[lab] + rng.uniform(-0.05, 0.05),
                                        label=lab, sampled_ids=()))
        model = train_summarizer(rows, SummarizerConfig(train_weeks=24))
        assert model.kind == "one-vs-rest-hinge"
        assert model.classes == ("down", "preserve", "up")
        train = sorted(rows, key=lambda r: r.week)[:24]
        # a scalar feature cannot linearly carve out the middle class under
        # one-vs-rest; the outer classes must still be recovered
        for lab in ("down", "up"):
            part = [r for r in train if r.label == lab]
            acc = np.mean([predict_week(model, r) == lab for r in part])
            assert acc == 1.0
        overall = np.mean([predict_week(model, r) == r.label for r in train])
        assert overall >= 2 / 3 - 1e-9


class TestPrediction:
    def test_monotone_binary_decision(self):
        model = SummarizerModel(classes=("down", "up"),
                                weights=np.array([[-2.0], [2.0]]),
                                bias=np.array([1.0, -1.0]))
        high = WeeklySentiment(week=MONDAY, n_sampled=1, overall_score=1.0,
                               label="up", sampled_ids=())
        low = WeeklySentiment(week=MONDAY, n_sampled=1, overall_score=0.0,
                              label="down", sampled_ids=())
        assert predict_week(model, high) == "up"
        assert predict_week(model, low) == "down"

    def test_tie_goes_to_lower_class_index(self):
        model = SummarizerModel(classes=("down", "up"),
                                weights=np.array([[-2.0], [2.0]]),
                                bias=np.array([1.0, -1.0]))
        boundary = WeeklySentiment(week=MONDAY, n_sampled=1, overall_score=0.5,
                                   label="up", sampled_ids=())
        assert predict_week(model, boundary) == "down"

    def test_golden_affine_decision(self):
        # scores: down = -3*x + 1.2, up = 3*x - 1.2 -> boundary x = 0.4
        model = SummarizerModel(classes=("down", "up"),
                                weights=np.array([[-3.0], [3.0]]),
                                bias=np.array([1.2, -1.2]))
        row = WeeklySentiment(week=MONDAY, n_sampled=1, overall_score=0.45,
                              label="up", sampled_ids=())
        assert predict_week(model, row) == "up"

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        weights = rng.normal(size=(3, 4))
        bias = rng.normal(size=3)
        model = SummarizerModel(classes=("down", "preserve", "up"), weights=weights,
                                bias=bias, feature_spec="extended")
        scaled = SummarizerModel(classes=("down", "preserve", "up"), weights=7.0 * weights,
                                 bias=7.0 * bias, feature_spec="extended")
        for _ in range(50):
            row = WeeklySentiment(week=MONDAY, n_sampled=5,
                                  overall_score=float(rng.uniform(0, 1)), label="up",
                                  sampled_ids=(), score_std=float(rng.uniform(0, 0.5)),
                                  frac_positive=float(rng.uniform(0, 1)),
                                  worthiness_mean=float(rng.uniform(0, 1)))
            assert predict_week(model, row) == predict_week(scaled, row)


class TestLeakageGuard:
    @given(st.integers(min_value=0, max_value=2 ** 20 - 1))
    @settings(max_examples=60, deadline=None)
    def test_no_overlap_for_random_partitions(self, mask):
        labels = make_labels(20)
        excluded = {labels[i].week.anchor for i in range(20) if (mask >> i) & 1}
        ds = build_summarizer_dataset(labels, excluded, constant_scorer(0.5),
                                      n_sample=3, seed=0)
        excluded_ids = {
            rid for lab in labels if lab.week.anchor in excluded for rid in lab.week.news_ids
        }
        sampled = {rid for row in ds.rows for rid in row.sampled_ids}
        assert not sampled & excluded_ids

    def test_paper_shaped_counts_yield_407(self):
        # 497 candidate news weeks (449 + 48), one trailing price week so every
        # candidate has a next-week target, 45 + 45 extractor weeks excluded
        labels = make_labels(498)
        rng = np.random.default_rng(17)
        excluded_idx = set(rng.choice(497, size=90, replace=False).tolist())
        excluded = {labels[i].week.anchor for i in excluded_idx}
        ds = build_summarizer_dataset(labels, excluded, constant_scorer(0.5),
                                      n_sample=5, seed=0)
        assert len(ds.rows) == 407


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rows = toy_rows(30)
        model = train_summarizer(rows, SummarizerConfig(train_weeks=20))
        path = tmp_path / "s.model"
        save_summarizer(model, path)
        loaded = load_summarizer(path)
        assert loaded.classes == model.classes
        assert np.allclose(loaded.weights, model.weights)
        for row in rows:
            assert predict_week(loaded, row) == predict_week(model, row)

    def test_save_deterministic(self, tmp_path):
        rows = toy_rows(30)
        model = train_summarizer(rows, SummarizerConfig(train_weeks=20))
        save_summarizer(model, tmp_path / "a"); save_summarizer(model, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("bias"), "lacks key 'bias'"),
        (lambda p: p.update(classes=["up", "sideways"]), "bad 'classes'"),
        (lambda p: p.update(feature_spec=["scalar"]), "bad 'feature_spec'"),
        (lambda p: p.update(feature_spec="extended"), "'weights' must be numbers of shape"),
        (lambda p: p.update(bias=["x", 1.0]), "'bias' must be numbers of shape"),
    ])
    def test_corrupt_model_is_data_error_naming_the_key(self, tmp_path, edit, message):
        path = tmp_path / "s.model"
        save_summarizer(train_summarizer(toy_rows(30), SummarizerConfig(train_weeks=20)), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            load_summarizer(path)

    def test_weekly_sentiment_csv_keeps_extended_features_exactly(self, tmp_path):
        rows = [
            WeeklySentiment(week=MONDAY, n_sampled=3, overall_score=0.25, label="up",
                            sampled_ids=("a", "b", "c"), score_std=0.1 / 3,
                            frac_positive=1 / 3, worthiness_mean=2 / 3),
            WeeklySentiment(week=MONDAY + timedelta(days=7), n_sampled=1,
                            overall_score=0.75, label="down", sampled_ids=("d",)),
        ]
        path = tmp_path / "weekly_sentiment.csv"
        write_weekly_sentiment_csv(rows, path)
        loaded = read_weekly_sentiment_csv(path)
        for spec in ("scalar", "extended"):
            for got, want in zip(loaded, rows):
                assert np.array_equal(features_of(got, spec), features_of(want, spec))
        assert loaded[1].worthiness_mean is None

    def test_weekly_sentiment_csv_unknown_class_is_data_error(self, tmp_path):
        path = tmp_path / "weekly_sentiment.csv"
        write_weekly_sentiment_csv(toy_rows(3), path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "bogus"  # true_class
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 3: .*'bogus'"):
            read_weekly_sentiment_csv(path)

    def test_weekly_sentiment_csv_without_rows_is_data_error(self, tmp_path):
        path = tmp_path / "weekly_sentiment.csv"
        write_weekly_sentiment_csv([], path)
        with pytest.raises(DataError, match="weekly_sentiment.csv holds no weeks"):
            read_weekly_sentiment_csv(path)

    def test_weekly_sentiment_csv_without_feature_columns_is_data_error(self, tmp_path):
        path = tmp_path / "weekly_sentiment.csv"
        path.write_text("anchor,n_sampled,overall_score,true_class,predicted_class\n"
                        "2020-01-06,3,0.2500000000,up,\n")
        with pytest.raises(DataError, match="line 2"):
            read_weekly_sentiment_csv(path)
