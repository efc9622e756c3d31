import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstrend.config import ExtractorConfig
from newstrend.errors import ConfigError, DataError
from newstrend.weeks import (
    POLICY_THRESHOLDS, BinningPolicy, PriceSeries, TradingWeek, WeeklyLabel, attach_news,
    autocorrelation, extractor_class_of, extractor_split, label_weeks, load_prices,
    make_policy, monday_anchors, pot_class_of, read_weeks_csv, split_dev_weeks,
    weekday_autocorrelation, weekday_anchors, weekly_changes, write_weeks_csv,
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

    def test_export_with_more_columns_loads_date_and_close_by_name(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("Date,Open,High,Low,Close,Volume\n"
                        "2020-01-06,99.5,101.0,99.0,100.0,1200\n"
                        "2020-01-13,100.0,103.0,99.5,102.0,1500\n")
        prices = load_prices(path)
        assert prices.entries == [(date(2020, 1, 6), 100.0), (date(2020, 1, 13), 102.0)]

    def test_duplicate_date_fatal_with_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-06,100.0\n2020-01-06,101.0\n")
        with pytest.raises(DataError, match="line 3"):
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
        with pytest.raises(DataError, match="p.csv line 2: bad or missing field 'date'"):
            load_prices(path)

    # spellings that date.fromisoformat accepts on some Python versions only
    @pytest.mark.parametrize("day", ["20200113", "2020-W03-1", "2020-01-13T00:00", "2020-1-13",
                                     "\uff12\uff10\uff12\uff10-01-13"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, day):
        path = tmp_path / "p.csv"
        path.write_text(f"date,close\n2020-01-06,100.0\n{day},101.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3"):
            load_prices(path)

    # csv.reader ends a row only at \n or \r, where str.splitlines also ends
    # one at these Unicode line breaks
    @pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_break_neither_splits_a_row_nor_shifts_the_count(self, tmp_path, brk):
        closes = ["100.0", "101.0", "102.0" + brk, "103.0", "104.0", "bad"]
        rows = [f"{date(2020, 1, 6) + timedelta(weeks=i)},{c}" for i, c in enumerate(closes)]
        path = tmp_path / "p.csv"
        path.write_text("date,close\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 7: bad or missing field"):
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


def calendar_walk_anchors(prices, weekday, start, end):
    """Anchors by walking the calendar weeks of [start, end] and probing each
    day from the target to Sunday. Kept as the reference for the one pass
    over the trading days."""
    anchors = []
    monday = start - timedelta(days=start.weekday())
    while monday + timedelta(days=weekday) <= end:
        target = monday + timedelta(days=weekday)
        if target >= start:
            for offset in range(7 - weekday):
                if prices.close_on(target + timedelta(days=offset)) is not None:
                    anchors.append(target + timedelta(days=offset))
                    break
        monday += timedelta(days=7)
    return anchors


class TestWeekdayAnchors:
    # trading calendars of up to 60 days from a Wednesday, each day trading
    # or not, so they hold holidays, closed weeks and weekend closes
    @given(st.lists(st.booleans(), min_size=1, max_size=60), st.integers(0, 4),
           st.integers(-10, 70), st.integers(-10, 70))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_matches_the_calendar_walk(self, trades, weekday, lo, hi):
        first = date(2020, 1, 1)
        days = [first + timedelta(days=i) for i, t in enumerate(trades) if t]
        if not days:
            days = [first]
        prices = PriceSeries(entries=[(d, 100.0 + i) for i, d in enumerate(days)])
        start, end = first + timedelta(days=lo), first + timedelta(days=hi)
        want = calendar_walk_anchors(prices, weekday, start, end)
        assert weekday_anchors(prices, weekday, start, end) == want
        if start > end:
            assert want == []

    def test_weekday_out_of_range_is_config_error(self):
        prices = series([("2020-01-06", 100.0)])
        with pytest.raises(ConfigError):
            weekday_anchors(prices, 5, date(2020, 1, 6), date(2020, 1, 12))


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
        lab = label_weeks([w], make_policy("three_way"))[0]
        assert lab.summarizer_class == "up"
        assert label_weeks([week("2020-01-13", "2020-01-06", 0.0)],
                           make_policy("three_way"))[0].summarizer_class == "preserve"
        assert label_weeks([week("2020-01-13", "2020-01-06", -0.3)],
                           make_policy("three_way"))[0].summarizer_class == "down"

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
        assert make_policy("binary_asymmetric").classify(0.1) == "up"
        assert make_policy("binary_asymmetric").classify(-0.1) == "down"
        assert make_policy("binary_asymmetric").classify(0.0) == "excluded"
        assert make_policy("binary_symmetric").classify(0.3) == "excluded"
        assert make_policy("binary_symmetric").classify(0.7) == "up"

    def test_inverted_thresholds_fatal(self):
        with pytest.raises(ConfigError):
            make_policy("three_way", up=-0.5, down=0.5)
        with pytest.raises(ConfigError):
            make_policy("binary_symmetric", up=-1.0, down=1.0)

    def test_every_week_labeled(self):
        weeks = [week("2020-01-13", "2020-01-06", p) for p in (-3.0, -1.0, 0.0, 1.0, 3.0)]
        labels = label_weeks(weeks, make_policy("three_way"))
        assert len(labels) == len(weeks)
        counts = {}
        for lab in labels:
            counts[lab.extractor_class] = counts.get(lab.extractor_class, 0) + 1
        assert counts["positive"] + counts["negative"] + counts["excluded"] == len(weeks)

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            make_policy("nonsense")

    @pytest.mark.parametrize("name", sorted(POLICY_THRESHOLDS))
    def test_policy_bins_around_its_default_thresholds(self, name):
        up, down = POLICY_THRESHOLDS[name]
        policy = make_policy(name)
        assert (policy.name, policy.up, policy.down) == (name, up, down)
        assert policy.classify(math.nextafter(up, math.inf)) == "up"
        assert policy.classify(math.nextafter(down, -math.inf)) == "down"
        middle = "preserve" if name == "three_way" else "excluded"
        assert policy.classify((up + down) / 2) == middle

    def test_policy_built_directly_is_checked(self):
        with pytest.raises(ConfigError, match="unknown binning policy 'custom'"):
            BinningPolicy("custom", 1.0, 0.0)
        with pytest.raises(ConfigError, match="binary policy requires up >= down"):
            BinningPolicy("binary_symmetric", -1.0, 1.0)


FIRST_MONDAY = date(2020, 1, 6)


def split_labels(classes, no_news=()):
    """One label a week from FIRST_MONDAY for each character of `classes`: "p"
    a positive extractor week, "n" a negative one, "." neither. Week i holds
    one news id unless i is in `no_news`."""
    names = {"p": "positive", "n": "negative", ".": "excluded"}
    return [WeeklyLabel(TradingWeek(anchor=FIRST_MONDAY + timedelta(weeks=i),
                                    prev_anchor=FIRST_MONDAY + timedelta(weeks=i - 1),
                                    pct_change=0.0, news_ids=() if i in no_news else (f"r{i}",)),
                        names[c], "neutral", "preserve")
            for i, c in enumerate(classes)]


def week_numbers(anchors):
    return [(a - FIRST_MONDAY).days // 7 for a in anchors]


class TestExtractorSplit:
    def test_cap_is_seeded_sample_spread_over_the_period(self):
        labels = split_labels("np" * 15)
        config = ExtractorConfig(max_weeks_per_class=5)
        selected, train, dev = extractor_split(labels, config, n_lags=1)
        assert len(selected) == 10
        assert extractor_split(labels, config, n_lags=1) == (selected, train, dev)
        assert max(week_numbers(selected)) - min(week_numbers(selected)) >= 15
        uncapped, _, _ = extractor_split(labels, ExtractorConfig(), n_lags=1)
        assert len(uncapped) == 30

    @pytest.mark.parametrize("n_lags", [1, 2, 4, 7])
    def test_weeks_without_a_full_lag_history_are_never_selected(self, n_lags):
        labels = split_labels("pn" * 10)
        selected, train, dev = extractor_split(labels, ExtractorConfig(), n_lags)
        assert week_numbers(selected) == list(range(n_lags - 1, 20))
        assert sorted(train + dev) == list(selected)

    def test_a_selected_week_without_news_is_dropped_before_the_dev_draw(self):
        labels = split_labels("pn" * 10, no_news={8})
        config = ExtractorConfig(dev_fraction=0.2, seed=4)
        selected, train, dev = extractor_split(labels, config, n_lags=1)
        assert week_numbers(selected) == [i for i in range(20) if i != 8]
        assert (train, dev) == split_dev_weeks(selected, 0.2, 4)
        # drawn with the week still in, the dev weeks would differ
        every = [lab.week.anchor for lab in labels]
        assert split_dev_weeks(every, 0.2, 4)[1] != dev

    def test_train_weeks_of_one_class_name_the_keys(self):
        with pytest.raises(DataError, match=r"1 training week\(s\) hold [01] positive and "
                           r"[01] negative.*max_weeks_per_class \(now 1\).*dev_fraction"):
            extractor_split(split_labels("pnpn"), ExtractorConfig(max_weeks_per_class=1), 1)

    # (max_weeks_per_class, dev_fraction, seed, n_lags) and the week numbers of
    # (selected, train, dev), as the split gave them before it was one function
    RECORDED = [
        ((8, 0.25, 5, 4), ([4, 5, 7, 9, 15, 18, 19, 20, 21, 23, 28, 30, 35, 39],
                           [4, 7, 9, 15, 18, 20, 21, 30, 35, 39], [5, 19, 23, 28])),
        ((None, 0.1, 0, 4), ([4, 5, 7, 9, 10, 12, 14, 15, 18, 19, 20, 21, 23, 24, 26, 28, 29,
                              30, 32, 33, 35, 36, 37, 38, 39],
                             [4, 5, 7, 9, 10, 12, 14, 15, 18, 19, 20, 21, 24, 26, 28, 29, 30,
                              32, 33, 35, 36, 38, 39], [23, 37])),
        ((6, 0.3, 11, 1), ([2, 4, 9, 14, 21, 23, 24, 29, 33, 35, 36],
                           [2, 4, 14, 21, 23, 24, 29, 33], [9, 35, 36])),
    ]

    @pytest.mark.parametrize("keys, want", RECORDED, ids=["capped", "uncapped", "no_lags"])
    def test_matches_the_recorded_split(self, keys, want):
        cap, dev_fraction, seed, n_lags = keys
        labels = split_labels("pnp.nppn.nn.ppnp..pnnpnpp.n.pnnppn.pnpnn", no_news={6, 13, 22, 31})
        config = ExtractorConfig(max_weeks_per_class=cap, dev_fraction=dev_fraction, seed=seed)
        got = extractor_split(labels, config, n_lags)
        assert [week_numbers(part) for part in got] == [list(part) for part in want]


def news(records):
    """The (record id, published UTC day) pairs that `attach_news` takes."""
    return [(r.id, r.published.date()) for r in records]


class TestAttachNews:
    weeks = [
        week("2020-01-13", "2020-01-06", 1.0),
        week("2020-01-20", "2020-01-13", -1.0),
    ]

    def test_midweek_article(self):
        rec = make_record(rec_id="a", published="2020-01-08T10:00:00Z")  # Wednesday
        out = attach_news(self.weeks, news([rec]))
        assert out[0].news_ids == ("a",)
        assert out[1].news_ids == ()

    def test_anchor_monday_belongs_to_ending_week(self):
        rec = make_record(rec_id="a", published="2020-01-13T09:00:00Z")
        out = attach_news(self.weeks, news([rec]))
        assert out[0].news_ids == ("a",)

    def test_day_after_anchor_goes_to_next_week(self):
        rec = make_record(rec_id="a", published="2020-01-14T09:00:00Z")
        out = attach_news(self.weeks, news([rec]))
        assert out[1].news_ids == ("a",)

    def test_outside_ranges_unassigned(self):
        rec = make_record(rec_id="a", published="2020-03-01T09:00:00Z")
        out = attach_news(self.weeks, news([rec]))
        assert all(w.news_ids == () for w in out)

    def test_each_record_in_exactly_one_week(self):
        records = [
            make_record(rec_id=f"r{i}", published=f"2020-01-{7 + i:02d}T10:00:00Z")
            for i in range(13)
        ]
        out = attach_news(self.weeks, news(records))
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
            got = attach_news(weeks, news(records))
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
        labels = label_weeks(weeks, make_policy("three_way"))
        path = tmp_path / "weeks.csv"
        write_weeks_csv(labels, path)
        back = read_weeks_csv(path)
        assert [l.summarizer_class for l in back] == [l.summarizer_class for l in labels]
        assert [l.extractor_class for l in back] == [l.extractor_class for l in labels]
        assert back[0].week.anchor == date(2020, 1, 13)
        assert back[0].week.pct_change == pytest.approx(2.5)

    @pytest.mark.parametrize("column", ["anchor", "prev_anchor"])
    def test_only_yyyy_mm_dd_dates(self, tmp_path, column):
        weeks = [week("2020-01-13", "2020-01-06", 2.5), week("2020-01-20", "2020-01-13", -0.4)]
        path = tmp_path / "weeks.csv"
        write_weeks_csv(label_weeks(weeks, make_policy("three_way")), path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        fields = lines[2].split(",")
        fields[header.index(column)] = fields[header.index(column)].replace("-", "")
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 3"):
            read_weeks_csv(path)

    @pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85"])
    def test_unicode_line_break_neither_splits_a_row_nor_shifts_the_count(self, tmp_path, brk):
        weeks = [week(f"{date(2020, 1, 13) + timedelta(weeks=i)}",
                      f"{date(2020, 1, 6) + timedelta(weeks=i)}", 0.5) for i in range(5)]
        path = tmp_path / "weeks.csv"
        write_weeks_csv(label_weeks(weeks, make_policy("three_way")), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace(",0.50000000,", f",0.50000000{brk},")  # still a number
        lines[4] = lines[4].replace(",0.50000000,", ",bad,")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="weeks.csv line 5: "):
            read_weeks_csv(path)

    def test_file_without_weeks_is_data_error_naming_it(self, tmp_path):
        path = tmp_path / "weeks.csv"
        write_weeks_csv([], path)
        with pytest.raises(DataError, match="weeks.csv holds no rows"):
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
