"""Acceptance gate: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The real-data calibration criterion is optional: it runs only
when data/real/news.jsonl and data/real/prices.csv exist under the repo
root, and is reported as skipped otherwise.
"""

import json
import math
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from newstrend.cli import main as cli_main, _load_week_data
from newstrend.config import PolarityConfig, SummarizerConfig, load_config
from newstrend.corpus import ingest_news, tokenize
from newstrend.extractor import gradient_check, load_extractor, multitask_loss, pot_attention
from newstrend.metrics import ConfusionMatrix, accuracy, f1, mcc
from newstrend.polarity import PolarityModelSet, build_model_set
from newstrend.summarizer import build_summarizer_dataset
from newstrend.tokens import encode_docs
from newstrend.weeks import (
    POT_CLASSES, TradingWeek, WeeklyLabel, label_weeks, load_prices,
    make_policy, monday_anchors, weekday_autocorrelation, weekly_changes,
)

from test_extractor import randomize, tiny_example, tiny_model, zero_gradient_blocks
from test_polarity import oracle_polarity, window_scores

REPO_ROOT = Path(__file__).resolve().parent.parent
REAL_NEWS = REPO_ROOT / "data" / "real" / "news.jsonl"
REAL_PRICES = REPO_ROOT / "data" / "real" / "prices.csv"

PIPELINE_CONFIG = {
    "labels.policy": "binary_asymmetric",
    "polarity.vocab_size": 64,
    "extractor.dim": 32, "extractor.emb_dim": 32, "extractor.hidden": 64,
    "extractor.epochs": 12, "extractor.max_weeks_per_class": 10,
    "summarizer.train_weeks": 45,
    "synth.weeks": 120, "synth.articles_per_week": 50, "synth.seed": 55,
    "synth.filler_vocab": 300,
}

STAGES = ["synth", "ingest", "label", "pot", "train-extractor", "score",
          "train-summarizer", "evaluate"]


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _run_pipeline(workdir: Path, rho: float) -> float:
    cfg = dict(PIPELINE_CONFIG)
    cfg["synth.rho"] = rho
    config_path = workdir.parent / f"{workdir.name}.json"
    config_path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    for stage in STAGES:
        rc = cli_main([stage, "--workdir", str(workdir), "--config", str(config_path),
                       "--allow-config-drift"])
        assert rc == 0, f"stage {stage} exited {rc}"
    return time.perf_counter() - start


def _parse_report(workdir: Path):
    lines = (workdir / "report.txt").read_text().splitlines()
    acc = float([l for l in lines if l.startswith("accuracy:")][0].split()[-1])
    mcc_value = float([l for l in lines if l.startswith("mcc:")][0].split()[1])
    return acc, mcc_value


def _extractor_test_accuracy(workdir: Path) -> float:
    """Class-balanced article accuracy on big-move weeks held out of training.

    Balanced so that a degenerate held-out class mix cannot move the chance
    level away from 0.5.
    """
    config = load_config(workdir.parent / f"{workdir.name}.json")
    labels, corpus = _load_week_data(workdir)
    trained = load_extractor(workdir / "extractor.model")
    model_set = PolarityModelSet.load(workdir / "pot.bin")
    vocab = model_set.vocab
    used = set(trained.train_weeks) | set(trained.dev_weeks)
    n_lags = config.polarity.n_lags
    per_class = {0: [0, 0], 1: [0, 0]}
    for lab in labels[n_lags - 1:]:
        anchor = lab.week.anchor
        if lab.extractor_class not in ("positive", "negative"):
            continue
        if anchor in used or not lab.week.news_ids:
            continue
        matrix = model_set.matrix(vocab, anchor, n_lags)
        y = 1 if lab.extractor_class == "positive" else 0
        docs = corpus.take(corpus.positions(sorted(lab.week.news_ids)))
        ps, _, _ = trained.model.forward(docs, np.repeat(matrix[None], len(docs), axis=0))
        per_class[y][0] += int((ps.argmax(axis=1) == y).sum())
        per_class[y][1] += len(docs)
    assert per_class[0][1] and per_class[1][1], "held-out weeks must cover both classes"
    return 0.5 * (per_class[0][0] / per_class[0][1] + per_class[1][0] / per_class[1][1])


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    runs = {}
    runs["signal_a"] = base / "signal_a"
    runs["elapsed"] = _run_pipeline(runs["signal_a"], rho=0.9)
    runs["signal_b"] = base / "signal_b"
    _run_pipeline(runs["signal_b"], rho=0.9)
    runs["chance"] = base / "chance"
    _run_pipeline(runs["chance"], rho=0.0)
    return runs


def test_01_polarity_score_matches_independent_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    vocab = [f"w{i}" for i in range(50)]
    checked = 0
    worst = 0.0
    while checked < 100:
        plain, n_docs = {}, 0
        for cls in POT_CLASSES:
            k = int(rng.integers(0, 5))
            plain[cls] = [
                [vocab[j] for j in rng.integers(0, 50, size=rng.integers(1, 12))]
                for _ in range(k)
            ]
            n_docs += k
        if n_docs > 20:
            continue
        checked += 1
        alpha = float(rng.uniform(0, 1))
        words = [str(w) for w in rng.choice(vocab, size=5, replace=False)]
        for word, got in window_scores(plain, words, discount=alpha).items():
            want = oracle_polarity(word, plain, alpha)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    _report("1. polarity score oracle equivalence", worst <= 1e-12 and elapsed < 10.0,
            f"max |diff| {worst:.2e} over 100 windows in {elapsed:.1f}s")


def test_02_gradient_check_and_mutation():
    start = time.perf_counter()
    worst = 0.0
    silent = []
    for seed in range(10):
        model = tiny_model(seed=seed)
        rng = np.random.default_rng(100 + seed)
        randomize(model, rng)
        ex = tiny_example(model, rng, worthiness=[None, 0, 1][seed % 3], sentiment=seed % 2)
        silent += zero_gradient_blocks(model, ex)
        worst = max(worst, gradient_check(model, ex))
    model = tiny_model(seed=1)
    ex = tiny_example(model, np.random.default_rng(2), worthiness=1)
    corrupted = gradient_check(model, ex, corrupt_block="att_w")
    elapsed = time.perf_counter() - start
    _report(
        "2. gradient correctness + mutation detection",
        worst < 1e-4 and corrupted > 1e-2 and not silent and elapsed < 30.0,
        f"max rel err {worst:.2e}, corrupted {corrupted:.2e}, "
        f"zero-gradient blocks {silent or 'none'}, {elapsed:.1f}s",
    )


def test_03_worthiness_masking_is_exact():
    model = tiny_model(seed=2)
    rng = np.random.default_rng(3)
    model.params["worth_w"] = rng.normal(0, 0.3, size=model.params["worth_w"].shape)
    ex = tiny_example(model, rng, worthiness=None)
    _, grads = model.gradient([ex])
    masked_zero = np.all(grads["worth_w"] == 0.0) and np.all(grads["worth_b"] == 0.0)

    ps = np.array([0.31, 0.69])
    pw = np.array([0.82, 0.18])
    loss, breakdown = multitask_loss(ps, pw, 1, 0, lam=1.0)
    collapse_exact = loss == breakdown["ce_senti"] == -math.log(0.69)
    _report("3. missing-label masking", masked_zero and collapse_exact)


def test_04_metrics_match_brute_force():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(1000):
        k = 2 if trial % 2 == 0 else 3
        names = ["down", "up", "preserve"][:k]
        n = int(rng.integers(2, 40))
        truths = [names[i] for i in rng.integers(0, k, n)]
        preds = [names[i] for i in rng.integers(0, k, n)]
        cm = ConfusionMatrix.from_pairs(truths, preds, classes=names)

        # brute-force confusion counts straight from the vectors
        counts = np.zeros((k, k), dtype=int)
        for t, p in zip(truths, preds):
            counts[names.index(t), names.index(p)] += 1
        assert np.array_equal(cm.counts, counts)

        hits = sum(1 for t, p in zip(truths, preds) if t == p)
        worst = max(worst, abs(accuracy(cm) - hits / n))

        # per-class F1 from raw tp/fp/fn tallies
        for cls in names:
            tp = sum(1 for t, p in zip(truths, preds) if t == cls and p == cls)
            fp = sum(1 for t, p in zip(truths, preds) if t != cls and p == cls)
            fn = sum(1 for t, p in zip(truths, preds) if t == cls and p != cls)
            want = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
            worst = max(worst, abs(f1(cm, cls) - want))

        # MCC via the covariance of one-hot indicator matrices
        X = np.zeros((n, k)); Y = np.zeros((n, k))
        for i, (t, p) in enumerate(zip(truths, preds)):
            Y[i, names.index(t)] = 1.0
            X[i, names.index(p)] = 1.0
        xc = X - X.mean(axis=0)
        yc = Y - Y.mean(axis=0)
        num = float((xc * yc).sum())
        den = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
        want_mcc = 0.0 if den == 0 else num / den
        worst = max(worst, abs(mcc(cm) - want_mcc))
    _report("4. metric oracles (acc, F1, MCC binary+3-class)", worst <= 1e-12,
            f"max |diff| {worst:.2e} over 1000 vectors")


def test_05_attention_invariants():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(300):
        v = int(rng.integers(1, 9))
        lags = int(rng.integers(1, 6))
        m = rng.normal(0, rng.uniform(0.01, 3.0), size=(v, lags))
        a, _ = pot_attention(m, rng.normal(size=(v, v)), rng.normal(size=v))
        ok = ok and abs(a.sum() - 1.0) < 1e-9 and (a > 0).all()
    m = rng.normal(size=(6, 1))
    a, vpot = pot_attention(m, rng.normal(size=(6, 6)), rng.normal(size=6))
    ok = ok and a[0] == 1.0 and np.array_equal(vpot, m[:, 0])
    a, vpot = pot_attention(np.zeros((5, 4)), rng.normal(size=(5, 5)), rng.normal(size=5))
    ok = ok and np.allclose(a, 0.25, atol=1e-15) and np.all(vpot == 0.0)
    _report("5. attention invariants (simplex, L=1 exact, zero-M uniform)", ok)


def test_06_leakage_guard_and_407_weeks():
    monday = date(2009, 8, 3)

    def labels_of(n):
        out = []
        for i in range(n):
            week = TradingWeek(
                anchor=monday + timedelta(days=7 * (i + 1)),
                prev_anchor=monday + timedelta(days=7 * i),
                pct_change=1.0 if i % 2 else -1.0,
                news_ids=tuple(f"a{i}-{j}" for j in range(5)),
            )
            out.append(WeeklyLabel(week=week, extractor_class="excluded",
                                   pot_class="neutral",
                                   summarizer_class="up" if i % 2 else "down"))
        return out

    def scorer(anchor, ids):
        return np.full(len(ids), 0.5)

    rng = np.random.default_rng(99)
    overlap_free = True
    for _ in range(200):
        labels = labels_of(30)
        n_excl = int(rng.integers(0, 20))
        excluded_idx = set(rng.choice(30, size=n_excl, replace=False).tolist())
        excluded = {labels[i].week.anchor for i in excluded_idx}
        ds = build_summarizer_dataset(labels, excluded, scorer,
                                      SummarizerConfig(n_sample=3, seed=11))
        excluded_ids = {
            rid for lab in labels if lab.week.anchor in excluded for rid in lab.week.news_ids
        }
        sampled = {rid for row in ds.rows for rid in row.sampled_ids}
        overlap_free = overlap_free and not (sampled & excluded_ids)

    # paper-shaped counts: 449 + 48 candidate news weeks, one extra trailing
    # price week so every candidate has a next-week target, 45 + 45 excluded
    labels = labels_of(497 + 1)
    excluded_idx = set(np.random.default_rng(17).choice(497, size=90, replace=False).tolist())
    excluded = {labels[i].week.anchor for i in excluded_idx}
    ds = build_summarizer_dataset(labels, excluded, scorer, SummarizerConfig(n_sample=5, seed=0))
    _report("6. leakage guard + 407 evaluation weeks",
            overlap_free and len(ds.rows) == 407,
            f"overlap-free over 200 partitions, count {len(ds.rows)}")


def test_07_planted_signal_end_to_end(pipeline_runs):
    acc9, mcc9 = _parse_report(pipeline_runs["signal_a"])
    ext9 = _extractor_test_accuracy(pipeline_runs["signal_a"])
    acc0, _ = _parse_report(pipeline_runs["chance"])
    ext0 = _extractor_test_accuracy(pipeline_runs["chance"])
    elapsed = pipeline_runs["elapsed"]
    ok = (
        ext9 >= 0.90 and acc9 >= 0.85 and mcc9 >= 0.6
        and 0.4 <= ext0 <= 0.6 and 0.4 <= acc0 <= 0.6
        and elapsed < 300.0
    )
    _report(
        "7. planted-signal end-to-end",
        ok,
        f"rho=0.9: extractor {ext9:.3f}, summarizer {acc9:.3f}, MCC {mcc9:.3f}; "
        f"rho=0: extractor {ext0:.3f}, summarizer {acc0:.3f}; run {elapsed:.0f}s",
    )


def test_08_determinism_byte_identical(pipeline_runs):
    a, b = pipeline_runs["signal_a"], pipeline_runs["signal_b"]
    tracked = ["news.jsonl", "prices.csv", "corpus.jsonl", "tokens.bin", "weeks.csv", "pot.bin",
               "extractor.model", "train_log.csv", "weekly_sentiment.csv",
               "summarizer.model", "report.txt", "report.csv"]
    diffs = [n for n in tracked if (a / n).read_bytes() != (b / n).read_bytes()]
    _report("8. determinism: byte-identical artifacts", not diffs,
            f"diffs: {diffs or 'none'}")


def test_09_real_data_calibration():
    if not (REAL_NEWS.exists() and REAL_PRICES.exists()):
        print("[acceptance] 9. real-data calibration: SKIP (data/real/ not present)")
        pytest.skip("real dataset not downloaded")

    reader = ingest_news(REAL_NEWS)
    records = list(reader)
    ingest_ok = len(records) == 181_523

    prices = load_prices(REAL_PRICES)
    lag_ok = True
    for lag in (1, 5, 10, 20, 40):
        values = {}
        for weekday in range(5):
            values[weekday] = weekday_autocorrelation(prices, weekday, lag)
        monday = values[0]
        lag_ok = lag_ok and all(monday < values[w] for w in range(1, 5))
        if lag == 1:
            lag_ok = lag_ok and round(monday, 3) == round(0.995197, 3)

    train_anchors = monday_anchors(prices, date(2009, 8, 1), date(2019, 4, 30))
    train_weeks = weekly_changes(prices, train_anchors)
    counts = {"positive": 0, "negative": 0, "excluded": 0}
    for lab in label_weeks(train_weeks, make_policy("three_way")):
        counts[lab.extractor_class] += 1
    partition_ok = (counts["positive"], counts["negative"], counts["excluded"]) == (69, 53, 327)

    # polarity trajectory needs the full span, through spring 2020
    from dataclasses import replace as dc_replace
    from newstrend.weeks import attach_news
    anchors = monday_anchors(prices, prices.first_date, prices.last_date)
    weeks = weekly_changes(prices, anchors)
    labels = label_weeks(weeks, make_policy("three_way"))
    attached = attach_news(weeks, ((r.id, r.published.date()) for r in records))
    by_anchor = {w.anchor: w for w in attached}
    labels = [dc_replace(lab, week=by_anchor[lab.week.anchor]) for lab in labels]
    docs = encode_docs([(r.id, tokenize(r)) for r in records])
    by_id = {doc.record_id: doc for doc in docs}
    docs_by_week = {lab.week.anchor: [by_id[rid] for rid in lab.week.news_ids]
                    for lab in labels}
    model_set = build_model_set(labels, docs_by_week, {"coronavirus"}, PolarityConfig())
    trajectory = model_set.trajectory("coronavirus", date(2020, 2, 1), date(2020, 3, 31))
    corona_ok = bool(trajectory) and all(score < 0 for _, score in trajectory)

    _report("9. real-data calibration", ingest_ok and lag_ok and partition_ok and corona_ok,
            f"ingest {reader.parsed}, partition {counts}")
