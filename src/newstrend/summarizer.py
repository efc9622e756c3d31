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
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import artifacts
from .config import SummarizerConfig
from .errors import ConfigError, DataError
from .weeks import CLASS_ORDER, WeeklyLabel

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


def features_of(row: WeeklySentiment, spec: str) -> np.ndarray:
    if spec == "scalar":
        return np.array([row.overall_score])
    if spec == "extended":
        worth = 0.5 if row.worthiness_mean is None else row.worthiness_mean
        return np.array([row.overall_score, row.score_std, row.frac_positive, worth])
    raise ConfigError(f"unknown feature spec {spec!r}")


@dataclass
class SummarizerModel:
    """Linear hinge classifier; binary reduces to the sign of one affine map.

    Prediction is the argmax of per-class scores; exact ties go to the class
    with the lower index in `classes`.
    """

    classes: tuple[str, ...]
    weights: np.ndarray           # (n_classes, n_features); binary holds -w and w
    bias: np.ndarray
    feature_spec: str = "scalar"

    @property
    def kind(self) -> str:
        return "binary-hinge" if len(self.classes) == 2 else "one-vs-rest-hinge"

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        return self.weights @ x + self.bias


def _fit_binary_hinge(
    x: np.ndarray, y: np.ndarray, c: float, epochs: int
) -> tuple[np.ndarray, float]:
    """Full-batch projected subgradient descent on the soft-margin objective

        (lam / 2) |w|^2 + (1/n) sum hinge(y_i, w . x_i),  lam = 1 / (c * n),

    with the bias folded in as an augmented always-1 coordinate. Zero init,
    1/(lam*t) steps, projection onto the |w| <= 1/sqrt(lam) ball: fully
    deterministic.
    """
    n, d = x.shape
    lam = 1.0 / (c * n)
    xa = np.hstack([x, np.ones((n, 1))])
    w = np.zeros(d + 1)
    radius = 1.0 / np.sqrt(lam)
    for t in range(1, epochs + 1):
        margins = y * (xa @ w)
        active = margins < 1.0
        grad = lam * w - (y[active, None] * xa[active]).sum(axis=0) / n
        w -= grad / (lam * t)
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w *= radius / norm
    return w[:d], float(w[d])


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
    x = np.stack([features_of(r, config.features) for r in train])
    labels = [r.label for r in train]
    if len(classes) == 2:
        y = np.array([1.0 if lab == classes[1] else -1.0 for lab in labels])
        w, b = _fit_binary_hinge(x, y, config.c, config.epochs)
        weights = np.stack([-w, w])
        bias = np.array([-b, b])
    else:
        weights = np.zeros((len(classes), x.shape[1]))
        bias = np.zeros(len(classes))
        for k, cls in enumerate(classes):
            y = np.array([1.0 if lab == cls else -1.0 for lab in labels])
            weights[k], bias[k] = _fit_binary_hinge(x, y, config.c, config.epochs)
    return SummarizerModel(
        classes=classes, weights=weights, bias=bias, feature_spec=config.features
    )


def predict_week(model: SummarizerModel, row: WeeklySentiment) -> str:
    scores = model.decision_scores(features_of(row, model.feature_spec))
    return model.classes[int(np.argmax(scores))]


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
    if not isinstance(classes, list) or not all(c in CLASS_ORDER for c in classes):
        raise DataError(f"summarizer model {path}: bad 'classes' {classes!r}")
    if not isinstance(spec, str) or spec not in FEATURE_WIDTHS:
        raise DataError(f"summarizer model {path}: bad 'feature_spec' {spec!r}")
    shapes = {"weights": (len(classes), FEATURE_WIDTHS[spec]), "bias": (len(classes),)}
    arrays = {}
    for key, shape in shapes.items():
        try:
            arrays[key] = np.array(payload[key], dtype=np.float64)
            if arrays[key].shape != shape:
                raise ValueError(f"got shape {arrays[key].shape}")
        except (TypeError, ValueError) as exc:
            raise DataError(
                f"summarizer model {path}: {key!r} must be numbers of shape {shape}: {exc}"
            ) from None
    return SummarizerModel(tuple(classes), arrays["weights"], arrays["bias"], spec)


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
                    week=date.fromisoformat(rec["anchor"]),
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
    return rows
