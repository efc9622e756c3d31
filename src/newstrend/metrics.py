"""Evaluation metrics over confusion matrices, plus report assembly.

Counts are plain ints and every metric is computed from integer sums, so
`evaluate` runs without numpy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DataError, UndefinedMetricError


@dataclass
class ConfusionMatrix:
    """K x K count table; rows are true classes, columns predicted. `counts`
    is held as a tuple of rows of ints, whatever nested sequence it is given as."""

    classes: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.counts = tuple(tuple(int(v) for v in row) for row in self.counts)

    @classmethod
    def from_pairs(
        cls, truths: Sequence[str], predictions: Sequence[str],
        classes: Sequence[str] | None = None,
    ) -> "ConfusionMatrix":
        if len(truths) != len(predictions):
            raise DataError(
                f"got {len(truths)} truths but {len(predictions)} predictions"
            )
        if classes is None:
            classes = sorted(set(truths) | set(predictions))
        index = {c: i for i, c in enumerate(classes)}
        counts = [[0] * len(classes) for _ in classes]
        for t, p in zip(truths, predictions):
            counts[index[t]][index[p]] += 1
        return cls(classes=tuple(classes), counts=counts)

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts))

    @property
    def trace(self) -> int:
        return sum(row[i] for i, row in enumerate(self.counts))


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise UndefinedMetricError("accuracy undefined for an empty confusion matrix")
    return cm.trace / cm.total


def mcc(cm: ConfusionMatrix, with_flag: bool = False):
    """Matthews correlation coefficient; generalized form for K > 2.

    A zero denominator (a degenerate matrix) yields 0.0; pass with_flag=True
    to also learn whether that convention fired.
    """
    if cm.total == 0:
        raise UndefinedMetricError("MCC undefined for an empty confusion matrix")
    s = cm.total
    t = [sum(row) for row in cm.counts]  # true-class counts
    p = [sum(col) for col in zip(*cm.counts)]  # predicted-class counts
    num = cm.trace * s - sum(x * y for x, y in zip(t, p))
    den = (math.sqrt(s * s - sum(x * x for x in p))
           * math.sqrt(s * s - sum(x * x for x in t)))
    degenerate = den == 0.0
    value = 0.0 if degenerate else num / den
    return (value, degenerate) if with_flag else value


def f1(cm: ConfusionMatrix, positive_class: str) -> float:
    """Harmonic mean of precision and recall for one class; 0 when both vanish."""
    if cm.total == 0:
        raise UndefinedMetricError("F1 undefined for an empty confusion matrix")
    if positive_class not in cm.classes:
        raise DataError(f"class {positive_class!r} not in confusion matrix")
    i = cm.classes.index(positive_class)
    tp = cm.counts[i][i]
    fp = sum(row[i] for row in cm.counts) - tp
    fn = sum(cm.counts[i]) - tp
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) != len(ys):
        raise DataError(f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise UndefinedMetricError("pearson needs at least 2 points")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedMetricError("pearson undefined for a zero-variance series")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


@dataclass
class EvaluationReport:
    policy: str
    cm: ConfusionMatrix
    accuracy: float
    mcc: float
    mcc_degenerate: bool
    f1_per_class: dict[str, float]


def report(
    predictions: Sequence[str],
    truths: Sequence[str],
    policy: str,
    classes: Sequence[str] | None = None,
) -> EvaluationReport:
    """Assemble a full evaluation: confusion matrix, Acc, MCC, per-class F1."""
    if not truths:
        raise DataError("nothing to evaluate: no aligned prediction/truth pairs")
    cm = ConfusionMatrix.from_pairs(truths, predictions, classes)
    mcc_value, degenerate = mcc(cm, with_flag=True)
    return EvaluationReport(
        policy=policy,
        cm=cm,
        accuracy=accuracy(cm),
        mcc=mcc_value,
        mcc_degenerate=degenerate,
        f1_per_class={c: f1(cm, c) for c in cm.classes},
    )


def format_report_text(rep: EvaluationReport) -> str:
    lines = [
        "evaluation report",
        f"policy: {rep.policy}",
        f"n: {rep.cm.total}",
        f"accuracy: {rep.accuracy:.6f}",
        f"mcc: {rep.mcc:.6f}" + ("  (degenerate: zero denominator)" if rep.mcc_degenerate else ""),
    ]
    for c in rep.cm.classes:
        lines.append(f"f1[{c}]: {rep.f1_per_class[c]:.6f}")
    lines.append("confusion matrix (rows=true, cols=predicted):")
    header = "  true\\pred " + " ".join(f"{c:>10}" for c in rep.cm.classes)
    lines.append(header)
    for i, c in enumerate(rep.cm.classes):
        row = " ".join(f"{v:>10}" for v in rep.cm.counts[i])
        lines.append(f"  {c:>9} {row}")
    return "\n".join(lines) + "\n"

