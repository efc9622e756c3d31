"""Weekly aggregation of article sentiment and the linear trend classifier.

Each usable week gets one row: a seeded sample of its articles is scored and
averaged into the week's overall sentiment; the row's label is the trend
class of the week `target_offset` ahead (default 1: this week's news calls
next Monday's move). Weeks whose articles trained the extractor are excluded
outright, which is the leakage guard.

The classifier reads that one overall score: each class has one slope and
one bias on it, fit one class against the rest by deterministic full-batch
hinge-loss subgradient descent, whatever the label policy, on the
chronologically earliest `train_weeks` rows, which `chronological_split`
cuts. The model records the week of its last training row, and `evaluate`
tests only on later weeks (`rows_after_training`), so a changed
`train_weeks` cannot score weeks the model was fit on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import artifacts
from .config import SummarizerConfig, parse_day, parse_finite
from .errors import DataError, NumericError
from .weeks import CLASS_ORDER, WeeklyLabel

if TYPE_CHECKING:  # numpy loads only where articles are scored, so fitting runs without it
    import numpy as np

@dataclass
class WeeklySentiment:
    week: date                     # anchor of the news week that was scored
    n_sampled: int
    overall_score: float
    label: str                     # trend class of the target week
    sampled_ids: tuple[str, ...]


@dataclass
class SummarizerDataset:
    rows: list[WeeklySentiment]
    skipped: list[tuple[date, str]] = field(default_factory=list)


def build_summarizer_dataset(
    week_labels: Sequence[WeeklyLabel],
    excluded_anchors: set[date],
    score_articles: Callable[[date, Sequence[str]], np.ndarray],
    config: SummarizerConfig,
) -> SummarizerDataset:
    """One scored row per usable week, labeled with the class of the week
    `config.target_offset` ahead.

    `score_articles(anchor, ids)` returns each article's sentiment score,
    shape (n,). At most `config.n_sample` articles are scored a week,
    sampled without replacement and seeded per week from `config.seed`, so
    week order cannot change a week's sample. Skipped weeks are reported with
    a reason, never silently dropped.
    """
    import numpy as np

    ordered = sorted(week_labels, key=lambda lab: lab.week.anchor)
    rows: list[WeeklySentiment] = []
    skipped: list[tuple[date, str]] = []
    for i, lab in enumerate(ordered):
        anchor = lab.week.anchor
        if anchor in excluded_anchors:
            skipped.append((anchor, "extractor train/dev week"))
            continue
        if not lab.week.news_ids:
            skipped.append((anchor, "no articles"))
            continue
        j = i + config.target_offset
        if not 0 <= j < len(ordered):
            skipped.append((anchor, "no target week"))
            continue
        label = ordered[j].summarizer_class
        if label == "excluded":
            skipped.append((anchor, "target week outside policy bins"))
            continue
        ids = sorted(lab.week.news_ids)
        if len(ids) > config.n_sample:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, anchor.toordinal()]))
            picked = rng.choice(len(ids), size=config.n_sample, replace=False)
            ids = [ids[k] for k in picked]
        scores = np.asarray(score_articles(anchor, ids), dtype=np.float64)
        rows.append(WeeklySentiment(week=anchor, n_sampled=len(ids),
                                    overall_score=float(scores.mean()), label=label,
                                    sampled_ids=tuple(ids)))
    return SummarizerDataset(rows=rows, skipped=skipped)


@dataclass
class SummarizerModel:
    """One slope and one bias per class on the weekly score.

    Prediction is the argmax of the per-class scores `w * score + b`; exact
    ties go to the class with the lower index in `classes`.
    """

    classes: tuple[str, ...]
    weights: list[float]          # one slope per class
    bias: list[float]
    last_train_week: date         # the latest week of the training split


def _fit_binary_hinge(
    x: Sequence[float], y: Sequence[float], c: float, epochs: int
) -> tuple[float, float]:
    """Full-batch projected subgradient descent on the soft-margin objective

        (lam / 2) (w^2 + b^2) + (1/n) sum hinge(y_i, w x_i + b),  lam = 1 / (c * n),

    so the bias is a weight on an always-1 input. Zero init, 1/(lam*t) steps,
    projection onto the |(w, b)| <= 1/sqrt(lam) ball: fully deterministic.
    """
    n = len(x)
    lam = 1.0 / (c * n)
    # y is +-1, so y_i * x_i is exact and the margin y_i (w x_i + b) is (y_i x_i) w + y_i b
    yx = [yi * xi for yi, xi in zip(y, x)]
    w = b = 0.0
    radius = 1.0 / math.sqrt(lam)
    for t in range(1, epochs + 1):
        active = [i for i in range(n) if yx[i] * w + y[i] * b < 1.0]
        # as numpy's axis-0 sum: row by row from the first active row, 0.0 if none
        # (not sum(), which compensates floats from Python 3.12 on)
        total_w = reduce(add, [yx[i] for i in active]) if active else 0.0
        total_b = reduce(add, [y[i] for i in active]) if active else 0.0
        step = lam * t
        w = w - (lam * w - total_w / n) / step
        b = b - (lam * b - total_b / n) / step
        # w^2 rounds, then b^2 adds in one rounding: the FMA of the BLAS dot in np.linalg.norm
        norm = math.sqrt(float(Fraction(b) ** 2 + Fraction(w * w)))
        if norm > radius:
            scale = radius / norm
            w, b = w * scale, b * scale
    return w, b


def chronological_split(
    rows: Sequence[WeeklySentiment], train_weeks: int
) -> tuple[list[WeeklySentiment], list[WeeklySentiment]]:
    """The earliest `train_weeks` rows by week, and the later rows to test on."""
    ordered = sorted(rows, key=lambda r: r.week)
    if train_weeks >= len(ordered):
        raise DataError(f"train split of {train_weeks} weeks leaves no test weeks "
                        f"(dataset has {len(ordered)})")
    return ordered[:train_weeks], ordered[train_weeks:]


def rows_after_training(
    rows: Sequence[WeeklySentiment], model: SummarizerModel
) -> list[WeeklySentiment]:
    """The rows of weeks after `model`'s training split, by week: the ones to test on."""
    test = sorted((r for r in rows if r.week > model.last_train_week), key=lambda r: r.week)
    if not test:
        raise DataError(f"no test weeks after the training split, which ends "
                        f"{model.last_train_week.isoformat()} (dataset has {len(rows)})")
    return test


def train_summarizer(
    rows: Sequence[WeeklySentiment], config: SummarizerConfig
) -> SummarizerModel:
    """Fit on the training split of `config.train_weeks` rows, with the hinge
    constant `c` and `epochs` of `config`."""
    train, _ = chronological_split(rows, config.train_weeks)
    present = {r.label for r in train}
    classes = tuple(c for c in CLASS_ORDER if c in present)
    if len(classes) < 2:
        raise DataError(f"training split has a single class {present}; cannot fit")
    x = [r.overall_score for r in train]
    # Each class is fit against the rest. With two classes the first fit is the
    # second negated, since every step is odd in y and round-to-nearest is
    # sign-symmetric: the model holds [-w, w] and [-b, b] (a zero is +0.0 in both).
    weights, bias = [], []
    for cls in classes:
        y = [1.0 if r.label == cls else -1.0 for r in train]
        try:
            w, b = _fit_binary_hinge(x, y, config.c, config.epochs)
        except (OverflowError, ZeroDivisionError, ValueError):  # left the float range, or NaN
            raise NumericError(f"the summarizer fit leaves the float range at "
                               f"summarizer.c={config.c!r}; choose a value nearer 1") from None
        weights.append(w)
        bias.append(b)
    return SummarizerModel(classes=classes, weights=weights, bias=bias,
                           last_train_week=train[-1].week)


def predict_week(model: SummarizerModel, row: WeeklySentiment) -> str:
    scores = [w * row.overall_score + b for w, b in zip(model.weights, model.bias)]
    return model.classes[scores.index(max(scores))]


def save_summarizer(model: SummarizerModel, path: str | Path) -> None:
    payload = {
        "classes": list(model.classes),
        "weights": [float(w) for w in model.weights],
        "bias": [float(v) for v in model.bias],
        "last_train_week": model.last_train_week.isoformat(),
    }
    artifacts.write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_summarizer(path: str | Path) -> SummarizerModel:
    try:
        payload = json.loads(artifacts.read_text(path, "summarizer model"))
    except ValueError as exc:
        raise DataError(f"summarizer model {path} is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"summarizer model {path} must hold a JSON object")
    for key in ("classes", "weights", "bias", "last_train_week"):
        if key not in payload:
            raise DataError(f"summarizer model {path} lacks key {key!r}; "
                            f"re-run `train-summarizer`")
    classes = payload["classes"]
    # two or more distinct classes in CLASS_ORDER order, as `train_summarizer` writes
    if (not isinstance(classes, list) or len(classes) < 2
            or classes != [c for c in CLASS_ORDER if c in classes]):
        raise DataError(f"summarizer model {path}: bad 'classes' {classes!r}")
    n = len(classes)
    weights, bias = (_floats(payload[key], n) for key in ("weights", "bias"))
    for key, value in (("weights", weights), ("bias", bias)):
        if value is None:
            raise DataError(f"summarizer model {path}: {key!r} must be numbers of shape "
                            f"{(n,)}, all finite; re-run `train-summarizer`")
    try:
        last_train_week = parse_day(payload["last_train_week"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"summarizer model {path}: bad 'last_train_week': {exc}") from None
    return SummarizerModel(tuple(classes), weights, bias, last_train_week)


def _floats(value, length: int) -> list[float] | None:
    """`value` as floats if it is a list of `length` finite JSON numbers, else
    None; `json` reads NaN and Infinity as floats."""
    if not isinstance(value, list) or len(value) != length or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        return None
    try:
        floats = [float(v) for v in value]
    except OverflowError:  # an integer beyond the float range
        return None
    return floats if all(map(math.isfinite, floats)) else None


def write_weekly_sentiment_csv(rows: Sequence[WeeklySentiment], path: str | Path) -> None:
    artifacts.write_csv(path, ["anchor", "n_sampled", "overall_score", "true_class"],
                        ([row.week.isoformat(), row.n_sampled, "%.10f" % row.overall_score,
                          row.label] for row in rows))


def read_weekly_sentiment_csv(path: str | Path) -> list[WeeklySentiment]:
    return artifacts.read_csv(path, "weekly sentiment file", _weekly_sentiment_row)


def _weekly_sentiment_row(rec: dict[str, str]) -> tuple[date, WeeklySentiment]:
    if rec["true_class"] not in CLASS_ORDER:
        raise ValueError(f"true_class {rec['true_class']!r} is not one of {CLASS_ORDER}")
    row = WeeklySentiment(week=parse_day(rec["anchor"]), n_sampled=int(rec["n_sampled"]),
                          overall_score=parse_finite(rec["overall_score"]),
                          label=rec["true_class"], sampled_ids=())
    if row.n_sampled < 1:
        raise ValueError(f"n_sampled {row.n_sampled} is below 1")
    return row.week, row
