import math

import numpy as np
import pytest

from newstrend.errors import DataError, UndefinedMetricError
from newstrend.metrics import ConfusionMatrix, accuracy, f1, mcc, pearson, report


def cm_of(counts, classes=("neg", "pos")):
    return ConfusionMatrix(classes=tuple(classes), counts=np.array(counts, dtype=np.int64))


def brute_force_binary(truths, preds, positive="pos"):
    """Independent TP/TN/FP/FN computation straight from the label vectors."""
    tp = sum(1 for t, p in zip(truths, preds) if t == positive and p == positive)
    tn = sum(1 for t, p in zip(truths, preds) if t != positive and p != positive)
    fp = sum(1 for t, p in zip(truths, preds) if t != positive and p == positive)
    fn = sum(1 for t, p in zip(truths, preds) if t == positive and p != positive)
    return tp, tn, fp, fn


class TestAccuracy:
    def test_diagonal_is_one(self):
        assert accuracy(cm_of([[4, 0], [0, 6]])) == 1.0

    def test_antidiagonal_is_zero(self):
        assert accuracy(cm_of([[0, 5], [5, 0]])) == 0.0

    def test_seven_of_ten(self):
        assert accuracy(cm_of([[3, 1], [2, 4]])) == pytest.approx(0.7)

    def test_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            accuracy(cm_of([[0, 0], [0, 0]]))


class TestMcc:
    def test_perfect(self):
        assert mcc(cm_of([[5, 0], [0, 5]])) == pytest.approx(1.0)

    def test_inverted(self):
        assert mcc(cm_of([[0, 5], [5, 0]])) == pytest.approx(-1.0)

    def test_hand_value(self):
        # rows true [neg,pos]: TN=4 FP=1 / FN=2 TP=3 -> 10/sqrt(600)
        value = mcc(cm_of([[4, 1], [2, 3]]))
        assert value == pytest.approx(10.0 / math.sqrt(600.0), abs=1e-12)

    def test_zero_denominator_flagged(self):
        value, degenerate = mcc(cm_of([[3, 0], [2, 0]]), with_flag=True)
        assert value == 0.0
        assert degenerate

    def test_three_class_matches_binary_on_binary_data(self):
        binary = cm_of([[4, 1], [2, 3]])
        padded = cm_of([[4, 1, 0], [2, 3, 0], [0, 0, 0]], classes=("a", "b", "c"))
        assert mcc(padded) == pytest.approx(mcc(binary), abs=1e-12)


class TestF1:
    def test_perfect(self):
        assert f1(cm_of([[5, 0], [0, 5]]), "pos") == 1.0

    def test_no_true_positives(self):
        assert f1(cm_of([[5, 0], [4, 0]]), "pos") == 0.0

    def test_hand_value(self):
        # TP=3 FP=1 FN=2: precision .75 recall .6
        assert f1(cm_of([[4, 1], [2, 3]]), "pos") == pytest.approx(
            2 * (0.75 * 0.6) / (0.75 + 0.6), abs=1e-12
        )

    def test_unknown_class(self):
        with pytest.raises(DataError):
            f1(cm_of([[1, 0], [0, 1]]), "nope")


class TestPearson:
    def test_affine_is_one(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        xs = [1.0, 2.0, 5.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_zero_variance_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            pearson([1.0, 2.0], [1.0])


class TestReport:
    def test_consistency_with_individual_metrics(self):
        truths = ["up", "down", "up", "preserve", "down"]
        preds = ["up", "up", "up", "preserve", "down"]
        rep = report(preds, truths, policy="three_way")
        assert rep.accuracy == pytest.approx(accuracy(rep.cm))
        assert rep.mcc == pytest.approx(mcc(rep.cm))
        for cls in rep.cm.classes:
            assert rep.f1_per_class[cls] == pytest.approx(f1(rep.cm, cls))

    def test_empty_fatal(self):
        with pytest.raises(DataError):
            report([], [], policy="x")

    def test_length_mismatch_fatal(self):
        with pytest.raises(DataError):
            report(["up"], ["up", "down"], policy="x")


class TestAgainstBruteForce:
    def test_random_binary_vectors(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            truths = ["pos" if b else "neg" for b in rng.integers(0, 2, n)]
            preds = ["pos" if b else "neg" for b in rng.integers(0, 2, n)]
            cm = ConfusionMatrix.from_pairs(truths, preds, classes=("neg", "pos"))
            tp, tn, fp, fn = brute_force_binary(truths, preds)
            assert cm.counts[1][1] == tp and cm.counts[0][0] == tn
            assert cm.counts[0][1] == fp and cm.counts[1][0] == fn
            assert accuracy(cm) == pytest.approx((tp + tn) / n, abs=1e-12)
            denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
            expected_mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / denom
            assert mcc(cm) == pytest.approx(expected_mcc, abs=1e-12)
            if tp:
                precision, recall = tp / (tp + fp), tp / (tp + fn)
                assert f1(cm, "pos") == pytest.approx(
                    2 * precision * recall / (precision + recall), abs=1e-12
                )

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(9)
        names = ["down", "preserve", "up"]
        truths = [names[i] for i in rng.integers(0, 3, 200)]
        preds = [names[i] for i in rng.integers(0, 3, 200)]
        cm = ConfusionMatrix.from_pairs(truths, preds, classes=names)
        mapping = {"down": "up", "preserve": "down", "up": "preserve"}
        cm2 = ConfusionMatrix.from_pairs(
            [mapping[t] for t in truths], [mapping[p] for p in preds], classes=names
        )
        assert accuracy(cm) == pytest.approx(accuracy(cm2), abs=1e-12)
        assert mcc(cm) == pytest.approx(mcc(cm2), abs=1e-12)
        assert f1(cm, "up") == pytest.approx(f1(cm2, mapping["up"]), abs=1e-12)
