"""Weekly aggregation of article sentiment and the linear trend classifier.

Each usable week gets one row: a seeded sample of its articles is scored and
averaged into the week's overall sentiment; the row's label is the trend
class of the week `target_offset` ahead (default 1: this week's news calls
next Monday's move). Weeks whose articles trained the extractor are excluded
outright, which is the leakage guard.

The classifier reads that one overall score. It is a hinge-loss linear model
fit by deterministic full-batch subgradient descent (one-vs-rest for more
than two classes) on the chronologically earliest `train_weeks` rows, which
`chronological_split` cuts. The model records the week of its last training
row, and `evaluate` tests only on later weeks (`rows_after_training`), so a
changed `train_weeks` cannot score weeks the model was fit on.
"""

from __future__ import annotations

import csv
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
    n_sample: int = 100,
    seed: int = 0,
    target_offset: int = 1,
) -> SummarizerDataset:
    """One scored row per usable week.

    `score_articles(anchor, ids)` returns each article's sentiment score,
    shape (n,). Sampling is without replacement and seeded per week, so week
    order cannot change a week's sample. Skipped weeks are reported with a
    reason, never silently dropped.
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
        j = i + target_offset
        if not 0 <= j < len(ordered):
            skipped.append((anchor, "no target week"))
            continue
        label = ordered[j].summarizer_class
        if label == "excluded":
            skipped.append((anchor, "target week outside policy bins"))
            continue
        ids = sorted(lab.week.news_ids)
        if len(ids) > n_sample:
            rng = np.random.default_rng(np.random.SeedSequence([seed, anchor.toordinal()]))
            picked = rng.choice(len(ids), size=n_sample, replace=False)
            ids = [ids[k] for k in picked]
        scores = np.asarray(score_articles(anchor, ids), dtype=np.float64)
        rows.append(WeeklySentiment(week=anchor, n_sampled=len(ids),
                                    overall_score=float(scores.mean()), label=label,
                                    sampled_ids=tuple(ids)))
    return SummarizerDataset(rows=rows, skipped=skipped)


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    # left to right; the builtin sum() compensates floats from Python 3.12 on
    total = 0.0
    for u, v in zip(a, b):
        total += u * v
    return total


def _norm(w: Sequence[float]) -> float:
    """|w|, adding each square in one rounding (a fused multiply-add), as the
    BLAS dot behind `np.linalg.norm` does on FMA hardware; exact Fractions
    make that the same on every machine."""
    sq = 0.0
    for v in w:
        sq = float(Fraction(v) ** 2 + Fraction(sq))
    return math.sqrt(sq)


@dataclass
class SummarizerModel:
    """Linear hinge classifier; binary reduces to the sign of one affine map.

    Prediction is the argmax of per-class scores; exact ties go to the class
    with the lower index in `classes`.
    """

    classes: tuple[str, ...]
    weights: list[list[float]]    # (n_classes, 1); binary holds -w and w
    bias: list[float]
    last_train_week: date         # the latest week of the training split

    @property
    def kind(self) -> str:
        return "binary-hinge" if len(self.classes) == 2 else "one-vs-rest-hinge"

    def decision_scores(self, x: Sequence[float]) -> list[float]:
        return [_dot(w, x) + b for w, b in zip(self.weights, self.bias)]


def _fit_binary_hinge(
    x: Sequence[Sequence[float]], y: Sequence[float], c: float, epochs: int
) -> tuple[list[float], float]:
    """Full-batch projected subgradient descent on the soft-margin objective

        (lam / 2) |w|^2 + (1/n) sum hinge(y_i, w . x_i),  lam = 1 / (c * n),

    with the bias folded in as an augmented always-1 coordinate. Zero init,
    1/(lam*t) steps, projection onto the |w| <= 1/sqrt(lam) ball: fully
    deterministic.
    """
    n = len(x)
    lam = 1.0 / (c * n)
    # y is +-1, so y_i * x_ij is exact and the margin y_i (w . x_i) is w . (y_i x_i)
    cols = [[yi * v for yi, v in zip(y, col)] for col in (*zip(*x), [1.0] * n)]
    w = [0.0] * len(cols)
    radius = 1.0 / math.sqrt(lam)
    for t in range(1, epochs + 1):
        margins = [0.0] * n
        for col, wj in zip(cols, w):
            margins = [m + v * wj for m, v in zip(margins, col)]
        active = [i for i, m in enumerate(margins) if m < 1.0]
        # as numpy's axis-0 sum: row by row from the first active row, 0.0 if none
        total = [reduce(add, [col[i] for i in active]) if active else 0.0 for col in cols]
        step = lam * t
        w = [wj - (lam * wj - s / n) / step for wj, s in zip(w, total)]
        norm = _norm(w)
        if norm > radius:
            scale = radius / norm
            w = [wj * scale for wj in w]
    return w[:-1], w[-1]


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
    x = [[r.overall_score] for r in train]
    labels = [r.label for r in train]

    def fit(cls: str) -> tuple[list[float], float]:
        y = [1.0 if lab == cls else -1.0 for lab in labels]
        try:
            return _fit_binary_hinge(x, y, config.c, config.epochs)
        except (OverflowError, ZeroDivisionError, ValueError):  # left the float range, or NaN
            raise NumericError(f"the summarizer fit leaves the float range at "
                               f"summarizer.c={config.c!r}; choose a value nearer 1") from None

    if len(classes) == 2:
        w, b = fit(classes[1])
        weights, bias = [[-v for v in w], w], [-b, b]
    else:
        fits = [fit(cls) for cls in classes]
        weights, bias = [w for w, _ in fits], [b for _, b in fits]
    return SummarizerModel(classes=classes, weights=weights, bias=bias,
                           last_train_week=train[-1].week)


def predict_week(model: SummarizerModel, row: WeeklySentiment) -> str:
    scores = model.decision_scores([row.overall_score])
    return model.classes[scores.index(max(scores))]


def save_summarizer(model: SummarizerModel, path: str | Path) -> None:
    payload = {
        "kind": model.kind,
        "classes": list(model.classes),
        "weights": [[float(v) for v in row] for row in model.weights],
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
    if (not isinstance(classes, list) or len(classes) < 2
            or not all(c in CLASS_ORDER for c in classes)):
        raise DataError(f"summarizer model {path}: bad 'classes' {classes!r}")
    n, rows = len(classes), payload["weights"]
    weights = [_floats(row, 1) for row in rows] if isinstance(rows, list) else []
    if len(weights) != n or None in weights:
        raise DataError(f"summarizer model {path}: 'weights' must be numbers of shape "
                        f"{(n, 1)}, all finite")
    bias = _floats(payload["bias"], n)
    if bias is None:
        raise DataError(f"summarizer model {path}: 'bias' must be numbers of shape "
                        f"{(n,)}, all finite")
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
    text = artifacts.read_text(path, "weekly sentiment file")
    rows = []
    for n, rec in enumerate(csv.DictReader(text.splitlines()), start=2):
        try:
            if rec["true_class"] not in CLASS_ORDER:
                raise ValueError(f"true_class {rec['true_class']!r} is not one of {CLASS_ORDER}")
            rows.append(WeeklySentiment(
                week=parse_day(rec["anchor"]), n_sampled=int(rec["n_sampled"]),
                overall_score=parse_finite(rec["overall_score"]), label=rec["true_class"],
                sampled_ids=()))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"weekly sentiment file {path} line {n}: bad or missing field {exc}"
            ) from None
    if not rows:
        raise DataError(f"weekly sentiment file {path} holds no weeks")
    return rows
