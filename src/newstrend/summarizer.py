"""Weekly aggregation of article sentiment and the linear trend classifier.

Each usable week gets one row: a seeded sample of its articles is scored and
averaged into the week's overall sentiment; the row's label is the trend
class of the week `target_offset` ahead (default 1: this week's news calls
next Monday's move). Weeks whose articles trained the extractor are excluded
outright, which is the leakage guard.

The classifier is a hinge-loss linear model fit by deterministic full-batch
subgradient descent (one-vs-rest for more than two classes); the default
feature is the scalar overall score alone.
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
from .config import SummarizerConfig, parse_day
from .errors import ConfigError, DataError
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
    score_std: float = 0.0
    frac_positive: float = 0.0
    worthiness_mean: float | None = None


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

    `score_articles(anchor, ids)` returns either sentiment scores (n,) or
    sentiment/worthiness pairs (n, 2). Sampling is without replacement and
    seeded per week, so week order cannot change a week's sample. Skipped
    weeks are reported with a reason, never silently dropped.
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
        senti = scores[:, 0] if scores.ndim == 2 else scores
        worth = float(scores[:, 1].mean()) if scores.ndim == 2 else None
        rows.append(
            WeeklySentiment(
                week=anchor,
                n_sampled=len(ids),
                overall_score=float(senti.mean()),
                label=label,
                sampled_ids=tuple(ids),
                score_std=float(senti.std()),
                frac_positive=float((senti > 0.5).mean()),
                worthiness_mean=worth,
            )
        )
    return SummarizerDataset(rows=rows, skipped=skipped)


FEATURE_WIDTHS = {"scalar": 1, "extended": 4}


def features_of(row: WeeklySentiment, spec: str) -> list[float]:
    if spec == "scalar":
        return [row.overall_score]
    if spec == "extended":
        worth = 0.5 if row.worthiness_mean is None else row.worthiness_mean
        return [row.overall_score, row.score_std, row.frac_positive, worth]
    raise ConfigError(f"unknown feature spec {spec!r}")


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
    weights: list[list[float]]    # (n_classes, n_features); binary holds -w and w
    bias: list[float]
    feature_spec: str = "scalar"

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


def train_summarizer(
    rows: Sequence[WeeklySentiment], config: SummarizerConfig
) -> SummarizerModel:
    """Fit on the chronologically earliest `train_weeks` rows, with the
    `features` spec, hinge constant `c` and `epochs` of `config`."""
    ordered = sorted(rows, key=lambda r: r.week)
    if config.train_weeks >= len(ordered):
        raise DataError(
            f"train split of {config.train_weeks} weeks leaves no test weeks "
            f"(dataset has {len(ordered)})"
        )
    train = ordered[: config.train_weeks]
    present = {r.label for r in train}
    classes = tuple(c for c in CLASS_ORDER if c in present)
    if len(classes) < 2:
        raise DataError(f"training split has a single class {present}; cannot fit")
    x = [features_of(r, config.features) for r in train]
    labels = [r.label for r in train]

    def fit(cls: str) -> tuple[list[float], float]:
        y = [1.0 if lab == cls else -1.0 for lab in labels]
        return _fit_binary_hinge(x, y, config.c, config.epochs)

    if len(classes) == 2:
        w, b = fit(classes[1])
        weights, bias = [[-v for v in w], w], [-b, b]
    else:
        fits = [fit(cls) for cls in classes]
        weights, bias = [w for w, _ in fits], [b for _, b in fits]
    return SummarizerModel(
        classes=classes, weights=weights, bias=bias, feature_spec=config.features
    )


def predict_week(model: SummarizerModel, row: WeeklySentiment) -> str:
    scores = model.decision_scores(features_of(row, model.feature_spec))
    return model.classes[scores.index(max(scores))]


def save_summarizer(model: SummarizerModel, path: str | Path) -> None:
    payload = {
        "kind": model.kind,
        "classes": list(model.classes),
        "weights": [[float(v) for v in row] for row in model.weights],
        "bias": [float(v) for v in model.bias],
        "feature_spec": model.feature_spec,
    }
    artifacts.write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_summarizer(path: str | Path) -> SummarizerModel:
    try:
        payload = json.loads(artifacts.read_text(path, "summarizer model"))
    except ValueError as exc:
        raise DataError(f"summarizer model {path} is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"summarizer model {path} must hold a JSON object")
    for key in ("classes", "weights", "bias", "feature_spec"):
        if key not in payload:
            raise DataError(f"summarizer model {path} lacks key {key!r}")
    classes, spec = payload["classes"], payload["feature_spec"]
    if (not isinstance(classes, list) or len(classes) < 2
            or not all(c in CLASS_ORDER for c in classes)):
        raise DataError(f"summarizer model {path}: bad 'classes' {classes!r}")
    if not isinstance(spec, str) or spec not in FEATURE_WIDTHS:
        raise DataError(f"summarizer model {path}: bad 'feature_spec' {spec!r}")
    n, width = len(classes), FEATURE_WIDTHS[spec]
    rows = payload["weights"]
    weights = [_floats(row, width) for row in rows] if isinstance(rows, list) else []
    if len(weights) != n or None in weights:
        raise DataError(f"summarizer model {path}: 'weights' must be numbers of shape {(n, width)}")
    bias = _floats(payload["bias"], n)
    if bias is None:
        raise DataError(f"summarizer model {path}: 'bias' must be numbers of shape {(n,)}")
    return SummarizerModel(tuple(classes), weights, bias, spec)


def _floats(value, length: int) -> list[float] | None:
    """`value` as floats if it is a list of `length` JSON numbers, else None."""
    if not isinstance(value, list) or len(value) != length or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        return None
    try:
        return [float(v) for v in value]
    except OverflowError:  # an integer beyond the float range
        return None


def write_weekly_sentiment_csv(rows: Sequence[WeeklySentiment], path: str | Path) -> None:
    # reprs read back bit for bit, so the extended features survive the file
    artifacts.write_csv(
        path,
        ["anchor", "n_sampled", "overall_score", "true_class",
         "score_std", "frac_positive", "worthiness_mean"],
        ([row.week.isoformat(), row.n_sampled, "%.10f" % row.overall_score,
          row.label, repr(row.score_std), repr(row.frac_positive),
          "" if row.worthiness_mean is None else repr(row.worthiness_mean)] for row in rows),
    )


def read_weekly_sentiment_csv(path: str | Path) -> list[WeeklySentiment]:
    text = artifacts.read_text(path, "weekly sentiment file")
    rows = []
    for n, rec in enumerate(csv.DictReader(text.splitlines()), start=2):
        try:
            worth = rec["worthiness_mean"]
            if rec["true_class"] not in CLASS_ORDER:
                raise ValueError(f"true_class {rec['true_class']!r} is not one of {CLASS_ORDER}")
            rows.append(
                WeeklySentiment(
                    week=parse_day(rec["anchor"]),
                    n_sampled=int(rec["n_sampled"]),
                    overall_score=float(rec["overall_score"]),
                    label=rec["true_class"],
                    sampled_ids=(),
                    score_std=float(rec["score_std"]),
                    frac_positive=float(rec["frac_positive"]),
                    worthiness_mean=float(worth) if worth else None,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"weekly sentiment file {path} line {n}: bad or missing field {exc}"
            ) from None
    if not rows:
        raise DataError(f"weekly sentiment file {path} holds no weeks")
    return rows
