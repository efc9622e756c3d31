"""Weekly Monday calendar: price series, Monday anchors, weekly percent
changes, class labels under the different binning policies, news-to-week
assignment, the extractor's week split, and weekday autocorrelation.

`extractor_split` alone assigns the extractor's week roles, so `pot`, which
ranks its vocabulary on the training weeks, and `train-extractor` see one
split. Only the split draws random numbers, and it imports numpy when it
is called, so `label` never loads numpy and `pot` never loads the extractor.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from datetime import date, timedelta
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

from . import artifacts
from .config import ExtractorConfig, PolarityConfig, parse_day, parse_finite
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


# each binning policy's default (up, down) thresholds; `three_way` keeps the
# weeks between them as "preserve", the binary policies exclude them
POLICY_THRESHOLDS = {"three_way": (0.79, -0.21), "binary_asymmetric": (0.0, 0.0),
                     "binary_symmetric": (0.6, 0.0)}


@dataclass(frozen=True)
class BinningPolicy:
    """Threshold rule mapping a weekly percent change to a class label."""

    name: str          # a key of POLICY_THRESHOLDS
    up: float
    down: float

    def __post_init__(self):
        if self.name not in POLICY_THRESHOLDS:
            raise ConfigError(f"unknown binning policy {self.name!r}")
        if self.name == "three_way" and self.up <= self.down:
            raise ConfigError(
                f"three-way policy requires up > down, got up={self.up} down={self.down}"
            )
        if self.up < self.down:
            raise ConfigError(
                f"binary policy requires up >= down, got up={self.up} down={self.down}"
            )

    def classify(self, pct: float) -> str:
        if pct > self.up:
            return "up"
        if pct < self.down:
            return "down"
        return "preserve" if self.name == "three_way" else "excluded"


def make_policy(name: str, up: float | None = None, down: float | None = None) -> BinningPolicy:
    """The policy `name`, with the thresholds `up` and `down` (the
    `labels.up`/`labels.down` keys) given both or neither."""
    if (up is None) != (down is None):
        raise ConfigError(f"policy {name!r} needs both labels.up and labels.down, or neither; "
                          f"got up={up} down={down}")
    if name == "binary_asymmetric" and up is not None:
        raise ConfigError("policy 'binary_asymmetric' splits at 0 and takes no "
                          "labels.up or labels.down")
    if up is None:  # an unknown name keeps None, which BinningPolicy rejects first
        up, down = POLICY_THRESHOLDS.get(name, (None, None))
    return BinningPolicy(name, up, down)


def extractor_class_of(pct: float, threshold: float = ExtractorConfig.threshold) -> str:
    if pct > threshold:
        return "positive"
    if pct < -threshold:
        return "negative"
    return "excluded"


def pot_class_of(pct: float, very: float = PolarityConfig.very_threshold,
                 mild: float = PolarityConfig.mild_threshold) -> str:
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
    """The price series of the `date` and `close` columns of a CSV (`artifacts.read_csv`)."""
    return PriceSeries(entries=artifacts.read_csv(path, "price file", _price_row))


def _price_row(row: dict[str, str]) -> tuple[date, tuple[date, float]]:
    day, close = parse_day(row["date"].strip()), parse_finite(row["close"])
    if close <= 0:
        raise ValueError(f"close {row['close']!r} is not positive")
    return day, (day, close)


def _week_monday(day: date) -> date:
    return day - timedelta(days=day.weekday())


def weekday_anchors(prices: PriceSeries, weekday: int, start: date, end: date) -> list[date]:
    """Anchor dates for one weekday (0=Monday .. 4=Friday) over [start, end].

    For each calendar week whose target weekday falls in range, the anchor is
    the first trading day on or after the target day within that same week
    (holiday substitution), found in one pass over the trading days. A week
    with no such trading day yields no anchor; no week yields two.
    """
    if not 0 <= weekday <= 4:
        raise ConfigError("weekday must be 0 (Monday) .. 4 (Friday)")
    anchors: list[date] = []
    for day, _ in prices.entries:
        target = _week_monday(day) + timedelta(days=weekday)
        # an anchor already taken in this week is on or after its target
        if target <= day and start <= target <= end and (not anchors or anchors[-1] < target):
            anchors.append(day)
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
    extractor_threshold: float = ExtractorConfig.threshold,
    pot_very: float = PolarityConfig.very_threshold,
    pot_mild: float = PolarityConfig.mild_threshold,
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


def extractor_split(
    labels: Sequence[WeeklyLabel], config: ExtractorConfig, n_lags: int
) -> tuple[tuple[date, ...], tuple[date, ...], tuple[date, ...]]:
    """The extractor's `(selected, train, dev)` week anchors, each sorted,
    from `labels` in anchor order (as `read_weeks_csv` and `attach_news`
    give them).

    Selected are the positive and negative weeks that have news and a full
    history of `n_lags` polarity models, each class capped at
    `config.max_weeks_per_class` by a seeded sample, which stays spread over
    the whole period. `split_dev_weeks` splits them into whole train and dev
    weeks (all dev when fewer than two). Train weeks that lack a class are a
    DataError naming the config keys that shrink them.
    """
    import numpy as np

    eligible = labels[n_lags - 1:]
    cap = config.max_weeks_per_class
    rng = np.random.default_rng([config.seed, 2])
    picked: dict[str, list[date]] = {}
    for cls in ("positive", "negative"):
        anchors = [lab.week.anchor for lab in eligible if lab.extractor_class == cls]
        if cap is not None and len(anchors) > cap:
            kept = sorted(rng.choice(len(anchors), size=cap, replace=False).tolist())
            anchors = [anchors[i] for i in kept]
        picked[cls] = anchors
    with_news = {lab.week.anchor for lab in eligible if lab.week.news_ids}
    selected = tuple(sorted(anchor for anchors in picked.values() for anchor in anchors
                            if anchor in with_news))
    train, dev = ((), selected) if len(selected) < 2 else split_dev_weeks(
        selected, config.dev_fraction, config.seed)
    n_pos = len(set(train) & set(picked["positive"]))
    if not n_pos or n_pos == len(train):
        raise DataError(
            f"the extractor's {len(train)} training week(s) hold {n_pos} "
            f"positive and {len(train) - n_pos} negative, and it needs both classes: "
            f"raise extractor.max_weeks_per_class (now {cap}) "
            f"or lower extractor.dev_fraction (now {config.dev_fraction})")
    return selected, train, dev


def split_dev_weeks(
    weeks: Sequence[date], dev_fraction: float, seed: int
) -> tuple[tuple[date, ...], tuple[date, ...]]:
    """Hold out whole weeks (never individual articles) for the dev set."""
    import numpy as np

    ordered = sorted(set(weeks))
    if len(ordered) < 2:
        raise DataError("need at least 2 distinct weeks to split off a dev set")
    n_dev = max(1, round(dev_fraction * len(ordered)))
    rng = np.random.default_rng([seed, 1])
    dev_idx = set(rng.choice(len(ordered), size=n_dev, replace=False).tolist())
    train = tuple(w for i, w in enumerate(ordered) if i not in dev_idx)
    dev = tuple(w for i, w in enumerate(ordered) if i in dev_idx)
    return train, dev


def attach_news(weeks: Sequence[TradingWeek],
                news: Iterable[tuple[str, date]]) -> list[TradingWeek]:
    """Assign each (record id, published UTC day) pair to the week holding the day.

    A record belongs to the week with prev_anchor < published day <= anchor;
    records outside every week stay unassigned.
    """
    ordered = sorted(weeks, key=lambda w: w.anchor)
    anchors = [w.anchor for w in ordered]
    # earliest prev_anchor from each position on: weeks from i on end on or
    # after the day, so one of them holds it only if this floor is before it
    floor = list(accumulate(reversed([w.prev_anchor for w in ordered]), min))[::-1]
    ids: list[list[str]] = [[] for _ in ordered]
    for record_id, day in news:
        i = bisect_left(anchors, day)
        if i < len(ordered) and floor[i] < day:
            while not ordered[i].prev_anchor < day:
                i += 1
            ids[i].append(record_id)
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
         "pot_class", "summarizer_class"],
        ([lab.week.anchor.isoformat(), lab.week.prev_anchor.isoformat(),
          "%.8f" % lab.week.pct_change, lab.extractor_class,
          lab.pot_class, lab.summarizer_class] for lab in labels),
    )


# every value each class column of weeks.csv can hold
WEEK_CLASSES = {"extractor_class": EXTRACTOR_CLASSES, "pot_class": POT_CLASSES,
                "summarizer_class": SUMMARIZER_CLASSES}


def read_weeks_csv(path: str | Path) -> list[WeeklyLabel]:
    return artifacts.read_csv(path, "weeks file", _weeks_row)


def _weeks_row(row: dict[str, str]) -> tuple[date, WeeklyLabel]:
    for key, allowed in WEEK_CLASSES.items():
        if row[key] not in allowed:
            raise ValueError(f"{key} {row[key]!r} is not one of {allowed}")
    week = TradingWeek(anchor=parse_day(row["anchor"]), prev_anchor=parse_day(row["prev_anchor"]),
                       pct_change=parse_finite(row["pct_change"]))
    return week.anchor, WeeklyLabel(week, **{key: row[key] for key in WEEK_CLASSES})
