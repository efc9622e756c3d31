from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstrend.errors import ConfigError, DataError
from newstrend.weeks import (
    PriceSeries, TradingWeek, attach_news, autocorrelation,
    binary_asymmetric_policy, binary_symmetric_policy, extractor_class_of,
    label_weeks, load_prices, make_policy, monday_anchors, pot_class_of,
    read_weeks_csv, three_way_policy, weekday_autocorrelation, weekly_changes,
    write_weeks_csv,
)

from conftest import make_record


def series(rows):
    return PriceSeries(entries=[(date.fromisoformat(d), c) for d, c in rows])


class TestLoadPrices:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-06,100.0\n2020-01-13,102.0\n")
        prices = load_prices(path)
        assert len(prices) == 2
        assert prices.close_on(date(2020, 1, 13)) == 102.0

    def test_duplicate_date_fatal_with_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-06,100.0\n2020-01-06,101.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_prices(path)

    def test_unsorted_fatal(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-13,100.0\n2020-01-06,101.0\n")
        with pytest.raises(DataError):
            load_prices(path)

    def test_nonpositive_close_fatal(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-06,0.0\n")
        with pytest.raises(DataError, match="positive"):
            load_prices(path)

    def test_bad_header_fatal(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("day,price\n2020-01-06,1.0\n")
        with pytest.raises(DataError, match="header"):
            load_prices(path)


class TestMondayAnchors:
    # 2020-01-06 and 2020-01-13 are Mondays
    def test_ordinary_week_uses_monday(self):
        prices = series([("2020-01-06", 100.0), ("2020-01-07", 101.0)])
        assert monday_anchors(prices, date(2020, 1, 6), date(2020, 1, 12)) == [date(2020, 1, 6)]

    def test_monday_holiday_substitutes_next_trading_day(self):
        prices = series([("2020-01-07", 100.0), ("2020-01-13", 102.0)])
        out = monday_anchors(prices, date(2020, 1, 6), date(2020, 1, 19))
        assert out == [date(2020, 1, 7), date(2020, 1, 13)]

    def test_range_without_mondays_empty(self):
        prices = series([("2020-01-07", 100.0)])
        assert monday_anchors(prices, date(2020, 1, 7), date(2020, 1, 12)) == []

    def test_week_with_no_trading_days_skipped(self):
        prices = series([("2020-01-06", 100.0), ("2020-01-20", 102.0)])
        out = monday_anchors(prices, date(2020, 1, 6), date(2020, 1, 26))
        assert out == [date(2020, 1, 6), date(2020, 1, 20)]


class TestWeeklyChanges:
    def test_arithmetic(self):
        prices = series([("2020-01-06", 100.0), ("2020-01-13", 102.0)])
        weeks = weekly_changes(prices, [date(2020, 1, 6), date(2020, 1, 13)])
        assert len(weeks) == 1
        assert weeks[0].pct_change == pytest.approx(2.0)

    def test_flat_week(self):
        prices = series([("2020-01-06", 100.0), ("2020-01-13", 100.0)])
        weeks = weekly_changes(prices, [date(2020, 1, 6), date(2020, 1, 13)])
        assert weeks[0].pct_change == 0.0

    def test_needs_two_anchors(self):
        prices = series([("2020-01-06", 100.0)])
        with pytest.raises(DataError):
            weekly_changes(prices, [date(2020, 1, 6)])

    def test_scale_invariance(self):
        rows = [("2020-01-06", 100.0), ("2020-01-13", 97.0), ("2020-01-20", 103.0)]
        anchors = [date(2020, 1, 6), date(2020, 1, 13), date(2020, 1, 20)]
        base = weekly_changes(series(rows), anchors)
        scaled = weekly_changes(series([(d, 7.3 * c) for d, c in rows]), anchors)
        for a, b in zip(base, scaled):
            assert a.pct_change == pytest.approx(b.pct_change)


def week(anchor, prev, pct):
    return TradingWeek(anchor=date.fromisoformat(anchor),
                       prev_anchor=date.fromisoformat(prev), pct_change=pct)


class TestLabels:
    def test_three_way_defaults(self):
        w = week("2020-01-13", "2020-01-06", 1.0)
        lab = label_weeks([w], three_way_policy())[0]
        assert lab.summarizer_class == "up"
        assert label_weeks([week("2020-01-13", "2020-01-06", 0.0)],
                           three_way_policy())[0].summarizer_class == "preserve"
        assert label_weeks([week("2020-01-13", "2020-01-06", -0.3)],
                           three_way_policy())[0].summarizer_class == "down"

    def test_extractor_threshold(self):
        assert extractor_class_of(2.5) == "positive"
        assert extractor_class_of(2.0) == "excluded"
        assert extractor_class_of(-2.5) == "negative"

    def test_pot_classes(self):
        assert pot_class_of(2.0) == "vpos"
        assert pot_class_of(0.5) == "pos"
        assert pot_class_of(0.0) == "neutral"
        assert pot_class_of(-0.5) == "neg"
        assert pot_class_of(-2.0) == "vneg"

    def test_binary_policies(self):
        assert binary_asymmetric_policy().classify(0.1) == "up"
        assert binary_asymmetric_policy().classify(-0.1) == "down"
        assert binary_asymmetric_policy().classify(0.0) == "excluded"
        assert binary_symmetric_policy().classify(0.3) == "excluded"
        assert binary_symmetric_policy().classify(0.7) == "up"

    def test_inverted_thresholds_fatal(self):
        with pytest.raises(ConfigError):
            three_way_policy(up=-0.5, down=0.5)
        with pytest.raises(ConfigError):
            make_policy("binary_custom", up=-1.0, down=1.0)

    def test_every_week_labeled(self):
        weeks = [week("2020-01-13", "2020-01-06", p) for p in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        labels = label_weeks(weeks, three_way_policy())
        assert len(labels) == len(weeks)
        counts = {}
        for lab in labels:
            counts[lab.extractor_class] = counts.get(lab.extractor_class, 0) + 1
        assert counts["positive"] + counts["negative"] + counts["excluded"] == len(weeks)

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_policy("nonsense")


class TestAttachNews:
    weeks = [
        week("2020-01-13", "2020-01-06", 1.0),
        week("2020-01-20", "2020-01-13", -1.0),
    ]

    def test_midweek_article(self):
        rec = make_record(rec_id="a", published="2020-01-08T10:00:00Z")  # Wednesday
        out = attach_news(self.weeks, [rec])
        assert out[0].news_ids == ("a",)
        assert out[1].news_ids == ()

    def test_anchor_monday_belongs_to_ending_week(self):
        rec = make_record(rec_id="a", published="2020-01-13T09:00:00Z")
        out = attach_news(self.weeks, [rec])
        assert out[0].news_ids == ("a",)

    def test_day_after_anchor_goes_to_next_week(self):
        rec = make_record(rec_id="a", published="2020-01-14T09:00:00Z")
        out = attach_news(self.weeks, [rec])
        assert out[1].news_ids == ("a",)

    def test_outside_ranges_unassigned(self):
        rec = make_record(rec_id="a", published="2020-03-01T09:00:00Z")
        out = attach_news(self.weeks, [rec])
        assert all(w.news_ids == () for w in out)

    def test_each_record_in_exactly_one_week(self):
        records = [
            make_record(rec_id=f"r{i}", published=f"2020-01-{7 + i:02d}T10:00:00Z")
            for i in range(13)
        ]
        out = attach_news(self.weeks, records)
        assigned = [rid for w in out for rid in w.news_ids]
        assert len(assigned) == len(set(assigned))
        assert set(assigned) == {f"r{i}" for i in range(13)}


    def test_matches_linear_rule_on_random_calendars(self):
        # gaps, overlaps, empty spans and shared anchors, plus records
        # before, between and after the weeks
        rng = np.random.default_rng(17)
        base = date(2020, 1, 6)
        for _ in range(300):
            weeks = []
            for _ in range(int(rng.integers(1, 12))):
                anchor = base + timedelta(days=int(rng.integers(0, 120)))
                prev = anchor - timedelta(days=int(rng.integers(-3, 15)))
                weeks.append(TradingWeek(anchor=anchor, prev_anchor=prev, pct_change=0.0))
            records = [
                make_record(rec_id=f"r{j}", published=(
                    base + timedelta(days=int(rng.integers(-20, 140)))
                ).strftime("%Y-%m-%dT10:00:00Z"))
                for j in range(40)
            ]
            ordered = sorted(weeks, key=lambda w: w.anchor)
            want = [[] for _ in ordered]
            for rec in records:
                day = rec.published.date()
                for i, w in enumerate(ordered):
                    if w.prev_anchor < day <= w.anchor:
                        want[i].append(rec.id)
                        break
            got = attach_news(weeks, records)
            assert [w.anchor for w in got] == [w.anchor for w in ordered]
            assert [w.prev_anchor for w in got] == [w.prev_anchor for w in ordered]
            assert [w.news_ids for w in got] == [tuple(ids) for ids in want]


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        assert autocorrelation([1.0, 2.0, 5.0, 3.0], 0) == pytest.approx(1.0)

    def test_hand_evaluated_example(self):
        # r(1) of [1,2,3,4,5] with the global-mean estimator: 4/10
        assert autocorrelation([1, 2, 3, 4, 5], 1) == pytest.approx(0.4)

    def test_constant_series_undefined(self):
        assert autocorrelation([2.0, 2.0, 2.0, 2.0], 1) is None

    def test_too_short_fatal(self):
        with pytest.raises(DataError):
            autocorrelation([1.0, 2.0], 1)

    def test_weekday_series_with_substitution(self):
        prices = series(
            [("2020-01-06", 100.0), ("2020-01-14", 105.0), ("2020-01-20", 95.0),
             ("2020-01-27", 110.0), ("2020-02-03", 90.0)]
        )  # second Monday missing -> Tuesday close substituted
        value = weekday_autocorrelation(prices, 0, 1)
        assert value is not None
        assert -1.0 <= value <= 1.0

    @given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=6, max_size=40),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_bounded_and_scale_invariant(self, xs, lag):
        value = autocorrelation(xs, lag)
        scaled = autocorrelation([3.5 * x for x in xs], lag)
        if value is None:
            assert scaled is None or abs(scaled) <= 1 + 1e-9
            return
        assert abs(value) <= 1 + 1e-9
        if lag == 0:
            assert value == pytest.approx(1.0)
        assert scaled == pytest.approx(value, abs=1e-9)


class TestWeeksCsv:
    def test_roundtrip(self, tmp_path):
        weeks = [week("2020-01-13", "2020-01-06", 2.5), week("2020-01-20", "2020-01-13", -0.4)]
        labels = label_weeks(weeks, three_way_policy())
        path = tmp_path / "weeks.csv"
        write_weeks_csv(labels, path)
        back = read_weeks_csv(path)
        assert [l.summarizer_class for l in back] == [l.summarizer_class for l in labels]
        assert [l.extractor_class for l in back] == [l.extractor_class for l in labels]
        assert back[0].week.anchor == date(2020, 1, 13)
        assert back[0].week.pct_change == pytest.approx(2.5)

    def test_file_without_weeks_is_data_error_naming_it(self, tmp_path):
        path = tmp_path / "weeks.csv"
        write_weeks_csv([], path)
        with pytest.raises(DataError, match="weeks.csv holds no weeks"):
            read_weeks_csv(path)

    def test_weeks_tile_date_range(self):
        prices = series(
            [("2020-01-06", 100.0), ("2020-01-08", 100.5), ("2020-01-13", 101.0),
             ("2020-01-16", 99.0), ("2020-01-20", 102.0)]
        )
        anchors = monday_anchors(prices, prices.first_date, prices.last_date)
        weeks = weekly_changes(prices, anchors)
        for day, _ in prices.entries:
            owners = [w for w in weeks if w.prev_anchor < day <= w.anchor]
            if weeks[0].prev_anchor < day <= weeks[-1].anchor:
                assert len(owners) == 1
