"""Synthetic planted-signal corpus and price series.

A persistent two-state weekly "news mood" drives everything: articles in a
week draw their polar vocabulary from the mood's side, and the weekly price
change takes the mood's sign with probability (1 + rho) / 2. At rho = 0 the
price is independent of the text and every downstream accuracy falls to
chance; at high rho the mood is recoverable from text and, because the mood
chain is persistent, this week's news also calls next week's move. That
gives the pipeline a ground truth to be tested against.

Articles carry varying polar-word intensity; high-intensity ones are tagged
with market-relevant category proxies, low-intensity ones with irrelevant
categories, so the worthiness head has something real to learn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from . import artifacts
from .config import SynthSettings  # noqa: F401 (bench/run.py calls SynthSettings)
from .config import SynthConfig
from .corpus import NewsRecord, write_news_jsonl

POSITIVE_WORDS = (
    "surge", "rally", "gain", "jump", "record", "upbeat",
    "optimism", "boom", "recovery", "advance", "strong", "bullish",
)
NEGATIVE_WORDS = (
    "plunge", "slump", "fear", "drop", "loss", "concern",
    "weak", "crisis", "selloff", "warning", "downturn", "bearish",
)
POSITIVE_CATEGORIES = ("top-companies", "financials", "us", "technology")
NEGATIVE_CATEGORIES = ("basic-materials", "cyclicals", "non-cyclicals", "healthcare", "european")

_BASE_FILLERS = (
    "market", "company", "shares", "index", "week", "report", "quarter",
    "analyst", "investor", "trading", "price", "stock", "sector", "group",
    "bank", "fund", "rate", "data", "percent", "billion", "chief",
    "executive", "statement", "meeting", "update", "outlook", "results",
    "plan", "deal", "board", "global", "region", "demand", "supply",
    "product", "service", "agreement", "contract", "forecast", "review",
)


@dataclass
class SynthTruth:
    anchors: list[date]              # Monday anchors, index 0 = start
    moods: list[int]                 # mood of week t (change over anchors[t-1]..anchors[t])
    pct_changes: list[float]


def _filler_words(size: int) -> list[str]:
    words = list(_BASE_FILLERS)
    i = 0
    while len(words) < size:
        words.append(f"item{i:03d}")
        i += 1
    return words[:size]


def _filler_cdf(size: int) -> np.ndarray:
    """Cumulative distribution of `size` filler words, word i drawn with
    probability proportional to 1 / (i + 3)."""
    p = np.array([1.0 / (i + 3.0) for i in range(size)])
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, words: list[str], cdf: np.ndarray, n: int) -> list[str]:
    """`rng.choice(words, size=n, p=p).tolist()` for `cdf` built from `p` by
    `_filler_cdf`: one uniform per word searched in the cdf, as `choice` does
    after it has converted `words` and checked and summed `p` again."""
    return [words[k] for k in cdf.searchsorted(rng.random(n), side="right").tolist()]


def generate(config: SynthConfig) -> tuple[Iterator[NewsRecord], list[tuple[date, float]],
                                          SynthTruth]:
    """Returns (news records, daily price rows, ground truth).

    Week t: interval (anchor[t-1], anchor[t]], anchor[0] = `config.start`.
    News exists for weeks 1..weeks; prices run one extra week so the final
    news week still has a next-week move to predict.

    The prices are drawn here. The records are a generator that draws each
    record when it is taken, after the prices, so a writer holds one record
    at a time; `list()` keeps them all.
    """
    rng = np.random.default_rng(config.seed)
    n_price_weeks = config.weeks + 1
    start = config.monday()
    anchors = [start + timedelta(days=7 * t) for t in range(n_price_weeks + 1)]

    # alternating mood regimes: persistent (this week's mood usually still
    # holds next week) yet balanced over the run by construction
    moods = [0]  # index 0 unused
    mood = 1 if rng.random() < 0.5 else -1
    while len(moods) <= n_price_weeks:
        block = int(rng.integers(config.block_min_weeks, config.block_max_weeks + 1))
        moods.extend([mood] * block)
        mood = -mood
    del moods[n_price_weeks + 1:]

    # price change = rho-weighted mood-driven component plus independent
    # noise: big moves are mood-aligned, contrarian weeks stay small, and at
    # rho = 0 the change is pure noise, independent of the text
    pcts = [0.0]
    for t in range(1, n_price_weeks + 1):
        driven = moods[t] * abs(rng.normal(0.0, 1.0))
        noise = rng.normal(0.0, 1.0)
        pct = config.pct_scale * (config.rho * driven + (1.0 - config.rho) * noise)
        if pct == 0.0:
            pct = 0.01
        pcts.append(pct)

    closes = [1000.0]
    for t in range(1, n_price_weeks + 1):
        closes.append(closes[-1] * (1.0 + pcts[t] / 100.0))

    # daily weekday closes: anchors exact, intra-week log interpolation + jitter
    price_rows: list[tuple[date, float]] = []
    for t in range(n_price_weeks):
        c0, c1 = closes[t], closes[t + 1]
        step = (math.log(c1) - math.log(c0)) / 7.0
        for offset in range(5):  # Mon..Fri
            day = anchors[t] + timedelta(days=offset)
            if offset == 0:
                price_rows.append((day, c0))
            else:
                jitter = rng.normal(0.0, 0.001)
                price_rows.append((day, math.exp(math.log(c0) + step * offset + jitter)))
    price_rows.append((anchors[n_price_weeks], closes[n_price_weeks]))

    truth = SynthTruth(anchors=anchors, moods=moods, pct_changes=pcts)
    return _records(config, rng, anchors, moods), price_rows, truth


def _records(config: SynthConfig, rng: np.random.Generator, anchors: list[date],
             moods: list[int]) -> Iterator[NewsRecord]:
    """The news records of weeks 1..`config.weeks`, drawn from `rng` one at a time."""
    fillers = _filler_words(config.filler_vocab)
    filler_cdf = _filler_cdf(len(fillers))
    for t in range(1, config.weeks + 1):
        for i in range(config.articles_per_week):
            intensity = int(rng.integers(3, 10))
            own = POSITIVE_WORDS if moods[t] > 0 else NEGATIVE_WORDS
            other = NEGATIVE_WORDS if moods[t] > 0 else POSITIVE_WORDS
            tokens = [own[int(k)] for k in rng.integers(0, len(own), size=intensity)]
            if rng.random() < 0.25:
                tokens.append(other[int(rng.integers(0, len(other)))])
            n_fill = int(rng.integers(45, 70))
            tokens.extend(_draw(rng, fillers, filler_cdf, n_fill))
            rng.shuffle(tokens)
            title = " ".join(tokens[:6])
            body_tokens = tokens[6:]
            while len(" ".join(body_tokens)) < 250:
                body_tokens.append(fillers[int(rng.integers(0, len(fillers)))])
            content = " ".join(body_tokens)

            categories: list[str] = []
            if intensity >= 7 and rng.random() < 0.3:
                categories.append(POSITIVE_CATEGORIES[int(rng.integers(0, len(POSITIVE_CATEGORIES)))])
            elif intensity <= 4 and rng.random() < 0.3:
                categories.append(NEGATIVE_CATEGORIES[int(rng.integers(0, len(NEGATIVE_CATEGORIES)))])
            worthiness = None
            if rng.random() < 0.02:
                worthiness = 1 if intensity >= 7 else 0

            day = anchors[t - 1] + timedelta(days=int(rng.integers(1, 8)))
            seconds = int(rng.integers(0, 86400))
            published = datetime(day.year, day.month, day.day, tzinfo=timezone.utc) + timedelta(
                seconds=seconds
            )
            rec_id = f"synth-{t:04d}-{i:04d}"
            yield NewsRecord(
                id=rec_id,
                url=f"synth://news/{rec_id}",
                title=title,
                content=content,
                published=published,
                categories=frozenset(categories),
                worthiness=worthiness,
            )


def write_prices_csv(rows: list[tuple[date, float]], path: str | Path) -> None:
    artifacts.write_csv(path, ["date", "close"],
                        ([day.isoformat(), "%.4f" % close] for day, close in rows))


def write_outputs(config: SynthConfig, news_path: str | Path, prices_path: str | Path) -> SynthTruth:
    """Write `news.jsonl`, each record's line as the record is drawn, then `prices.csv`."""
    records, price_rows, truth = generate(config)
    write_news_jsonl(records, news_path)
    write_prices_csv(price_rows, prices_path)
    return truth
