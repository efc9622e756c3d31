"""Weekly Monday calendar: price series, Monday anchors, weekly percent
changes, class labels under the different binning policies, news-to-week
assignment, and weekday autocorrelation.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass, replace
from datetime import date, timedelta
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

from . import artifacts
from .corpus import NewsRecord
from .errors import ConfigError, DataError

EXTRACTOR_CLASSES = ("positive", "negative", "excluded")
POT_CLASSES = ("vpos", "pos", "neutral", "neg", "vneg")
SUMMARIZER_CLASSES = ("down", "preserve", "up", "excluded")

# Canonical ordering used for classifier class indices and tiebreaks.
CLASS_ORDER = ("down", "preserve", "up")


@dataclass
class PriceSeries:
    """Strictly increasing (date, close) pairs with positive closes."""

    entries: list[tuple[date, float]]

    def __post_init__(self):
        self._by_date = {d: c for d, c in self.entries}

    def close_on(self, day: date) -> float | None:
        return self._by_date.get(day)

    @property
    def first_date(self) -> date:
        return self.entries[0][0]

    @property
    def last_date(self) -> date:
        return self.entries[-1][0]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TradingWeek:
    """One Monday-to-Monday window (anchors may be substitute trading days).

    ``news_ids`` holds ids of records published in (prev_anchor, anchor]:
    strictly after the previous anchor's date, up to and including the anchor
    date itself.
    """

    anchor: date
    prev_anchor: date
    pct_change: float
    news_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class BinningPolicy:
    """Threshold rule mapping a weekly percent change to a class label."""

    kind: str          # "three_way" or "binary"
    up: float
    down: float
    name: str

    def __post_init__(self):
        if self.kind == "three_way" and self.up <= self.down:
            raise ConfigError(
                f"three-way policy requires up > down, got up={self.up} down={self.down}"
            )
        if self.kind == "binary" and self.up < self.down:
            raise ConfigError(
                f"binary policy requires up >= down, got up={self.up} down={self.down}"
            )
        if self.kind not in ("three_way", "binary"):
            raise ConfigError(f"unknown policy kind {self.kind!r}")

    def classify(self, pct: float) -> str:
        if pct > self.up:
            return "up"
        if pct < self.down:
            return "down"
        return "preserve" if self.kind == "three_way" else "excluded"


def three_way_policy(up: float = 0.79, down: float = -0.21) -> BinningPolicy:
    return BinningPolicy(kind="three_way", up=up, down=down, name="three_way")


def binary_asymmetric_policy() -> BinningPolicy:
    return BinningPolicy(kind="binary", up=0.0, down=0.0, name="binary_asymmetric")


def binary_symmetric_policy(up: float = 0.6, down: float = 0.0) -> BinningPolicy:
    return BinningPolicy(kind="binary", up=up, down=down, name="binary_symmetric")


def make_policy(name: str, up: float | None = None, down: float | None = None) -> BinningPolicy:
    """The policy `name`, with the thresholds `up` and `down` (the
    `labels.up`/`labels.down` keys) given both or neither."""
    if (up is None) != (down is None):
        raise ConfigError(f"policy {name!r} needs both labels.up and labels.down, or neither; "
                          f"got up={up} down={down}")
    if name == "three_way":
        return three_way_policy() if up is None else three_way_policy(up, down)
    if name == "binary_asymmetric":
        if up is not None:
            raise ConfigError("policy 'binary_asymmetric' splits at 0 and takes no "
                              "labels.up or labels.down")
        return binary_asymmetric_policy()
    if name == "binary_symmetric":
        return binary_symmetric_policy() if up is None else binary_symmetric_policy(up, down)
    if name in ("custom", "binary_custom"):
        if up is None:
            raise ConfigError(f"{name} policy needs explicit up and down thresholds")
        kind = "three_way" if name == "custom" else "binary"
        return BinningPolicy(kind=kind, up=up, down=down, name=name)
    raise ConfigError(f"unknown binning policy {name!r}")


def extractor_class_of(pct: float, threshold: float = 2.0) -> str:
    if pct > threshold:
        return "positive"
    if pct < -threshold:
        return "negative"
    return "excluded"


def pot_class_of(pct: float, very: float = 2.0, mild: float = 0.5) -> str:
    if pct >= very:
        return "vpos"
    if pct >= mild:
        return "pos"
    if pct <= -very:
        return "vneg"
    if pct <= -mild:
        return "neg"
    return "neutral"


@dataclass(frozen=True)
class WeeklyLabel:
    week: TradingWeek
    extractor_class: str
    pot_class: str
    summarizer_class: str


def load_prices(path: str | Path) -> PriceSeries:
    """Parse a `date,close` CSV into a validated price series."""
    reader = csv.reader(artifacts.read_text(path, "price file").splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"price file {path} is empty")
    if [h.strip().lower() for h in header[:2]] != ["date", "close"]:
        raise DataError(f"price file {path} must have header 'date,close'")
    entries: list[tuple[date, float]] = []
    for rownum, row in enumerate(reader, start=2):
        if not row or not "".join(row).strip():
            continue
        try:
            day = date.fromisoformat(row[0].strip())
            close = float(row[1])
        except (ValueError, IndexError):
            raise DataError(f"price file {path} row {rownum}: bad row {row!r}")
        if close <= 0:
            raise DataError(f"price file {path} row {rownum}: close must be positive")
        if entries and day <= entries[-1][0]:
            raise DataError(f"price file {path} row {rownum}: dates must strictly increase")
        entries.append((day, close))
    if not entries:
        raise DataError(f"price file {path} has no data rows")
    return PriceSeries(entries=entries)


def _week_monday(day: date) -> date:
    return day - timedelta(days=day.weekday())


def weekday_anchors(prices: PriceSeries, weekday: int, start: date, end: date) -> list[date]:
    """Anchor dates for one weekday (0=Monday .. 4=Friday) over [start, end].

    For each calendar week whose target weekday falls in range, the anchor is
    the target day if it trades, else the next trading day within that same
    week (holiday substitution). A week with no such trading day yields no
    anchor; no week yields two.
    """
    if not 0 <= weekday <= 4:
        raise ConfigError("weekday must be 0 (Monday) .. 4 (Friday)")
    anchors: list[date] = []
    monday = _week_monday(start)
    while True:
        target = monday + timedelta(days=weekday)
        if target > end:
            break
        if target >= start:
            for offset in range(7 - weekday):
                candidate = target + timedelta(days=offset)
                if prices.close_on(candidate) is not None:
                    anchors.append(candidate)
                    break
        monday += timedelta(days=7)
    return anchors


def monday_anchors(prices: PriceSeries, start: date, end: date) -> list[date]:
    return weekday_anchors(prices, 0, start, end)


def weekly_changes(prices: PriceSeries, anchors: Sequence[date]) -> list[TradingWeek]:
    """TradingWeeks between consecutive anchors; pct change is in percent points."""
    if len(anchors) < 2:
        raise DataError("need at least 2 anchors to form a week")
    weeks = []
    for prev, cur in zip(anchors, anchors[1:]):
        c0 = prices.close_on(prev)
        c1 = prices.close_on(cur)
        if c0 is None or c1 is None:
            raise DataError(f"no close price at anchor {prev if c0 is None else cur}")
        weeks.append(TradingWeek(anchor=cur, prev_anchor=prev, pct_change=100.0 * (c1 - c0) / c0))
    return weeks


def label_weeks(
    weeks: Sequence[TradingWeek],
    policy: BinningPolicy,
    extractor_threshold: float = 2.0,
    pot_very: float = 2.0,
    pot_mild: float = 0.5,
) -> list[WeeklyLabel]:
    return [
        WeeklyLabel(
            week=w,
            extractor_class=extractor_class_of(w.pct_change, extractor_threshold),
            pot_class=pot_class_of(w.pct_change, pot_very, pot_mild),
            summarizer_class=policy.classify(w.pct_change),
        )
        for w in weeks
    ]


def attach_news(weeks: Sequence[TradingWeek], records: Iterable[NewsRecord]) -> list[TradingWeek]:
    """Assign each record to the week containing its publication date.

    A record belongs to the week with prev_anchor < published date <= anchor;
    records outside every week stay unassigned.
    """
    ordered = sorted(weeks, key=lambda w: w.anchor)
    anchors = [w.anchor for w in ordered]
    # earliest prev_anchor from each position on: weeks from i on end on or
    # after the day, so one of them holds it only if this floor is before it
    floor = list(accumulate(reversed([w.prev_anchor for w in ordered]), min))[::-1]
    ids: list[list[str]] = [[] for _ in ordered]
    for record in records:
        day = record.published.date()
        i = bisect_left(anchors, day)
        if i < len(ordered) and floor[i] < day:
            while not ordered[i].prev_anchor < day:
                i += 1
            ids[i].append(record.id)
    return [replace(w, news_ids=tuple(chunk)) for w, chunk in zip(ordered, ids)]


def weekday_close_series(prices: PriceSeries, weekday: int) -> list[float]:
    anchors = weekday_anchors(prices, weekday, prices.first_date, prices.last_date)
    return [prices.close_on(a) for a in anchors]


def autocorrelation(series: Sequence[float], lag: int) -> float | None:
    """Sample autocorrelation r(k) = sum (x_t - m)(x_{t+k} - m) / sum (x_t - m)^2.

    Returns None (explicitly undefined) for a constant series, never NaN.
    """
    n = len(series)
    if lag < 0:
        raise ConfigError("lag must be >= 0")
    if n <= lag + 1:
        raise DataError(f"series of length {n} too short for lag {lag}")
    mean = sum(series) / n
    centered = [x - mean for x in series]
    denom = sum(c * c for c in centered)
    if denom == 0.0:
        return None
    num = sum(centered[t] * centered[t + lag] for t in range(n - lag))
    return num / denom


def weekday_autocorrelation(prices: PriceSeries, weekday: int, lag: int) -> float | None:
    return autocorrelation(weekday_close_series(prices, weekday), lag)


def write_weeks_csv(labels: Sequence[WeeklyLabel], path: str | Path) -> None:
    artifacts.write_csv(
        path,
        ["anchor", "prev_anchor", "pct_change", "extractor_class",
         "pot_class", "summarizer_class", "n_news"],
        ([lab.week.anchor.isoformat(), lab.week.prev_anchor.isoformat(),
          "%.8f" % lab.week.pct_change, lab.extractor_class,
          lab.pot_class, lab.summarizer_class, len(lab.week.news_ids)] for lab in labels),
    )


# every value each class column of weeks.csv can hold
WEEK_CLASSES = {"extractor_class": EXTRACTOR_CLASSES, "pot_class": POT_CLASSES,
                "summarizer_class": SUMMARIZER_CLASSES}


def read_weeks_csv(path: str | Path) -> list[WeeklyLabel]:
    text = artifacts.read_text(path, "weeks file")
    labels = []
    for n, row in enumerate(csv.DictReader(text.splitlines()), start=2):
        try:
            for key, allowed in WEEK_CLASSES.items():
                if row[key] not in allowed:
                    raise ValueError(f"{key} {row[key]!r} is not one of {allowed}")
            week = TradingWeek(
                anchor=date.fromisoformat(row["anchor"]),
                prev_anchor=date.fromisoformat(row["prev_anchor"]),
                pct_change=float(row["pct_change"]),
            )
            if labels and week.anchor <= labels[-1].week.anchor:
                raise ValueError(f"anchor {week.anchor} does not follow {labels[-1].week.anchor}")
            labels.append(WeeklyLabel(week, **{key: row[key] for key in WEEK_CLASSES}))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"weeks file {path} line {n}: bad or missing field {exc}") from None
    if not labels:
        raise DataError(f"weeks file {path} holds no weeks")
    return labels
