import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newstrend import extractor
from newstrend.config import ExtractorConfig
from newstrend.corpus import Vocabulary
from newstrend.errors import DataError, NumericError
from newstrend.extractor import (
    ADAM_BETA1, ADAM_BETA2, ADAM_BLOCK, ADAM_EPS, Adam, ExtractorModel, ReferenceEncoder,
    TrainedExtractor, TrainingExample, gradient_check, load_extractor, multitask_loss, pot_attention,
    save_extractor, sentiment_score, softmax, train_extractor,
)
from newstrend.weeks import split_dev_weeks

from conftest import doc_over, traced_peak

# the word tables of the toy documents below
TINY_WORDS = tuple(sorted(f"t{i}" for i in range(34)))
PLANTED_WORDS = tuple(sorted(["the", "market", "report", "week", "gain", "surge", "fall", "drop"]))


def tiny_model(v=6, n_lags=3, dim=5, emb_dim=6, hidden=8, lam=0.5, seed=0):
    enc_vocab = [f"t{i}" for i in range(12)]
    encoder = ReferenceEncoder(enc_vocab, dim=dim, emb_dim=emb_dim)
    vocab = Vocabulary(words=tuple(f"v{i}" for i in range(v)))
    return ExtractorModel(vocab=vocab, encoder=encoder, n_lags=n_lags,
                          hidden=hidden, lam=lam, seed=seed)


def tiny_example(model, rng, worthiness=None, sentiment=1):
    v, n_lags = len(model.vocab), model.n_lags
    tokens = [f"t{i}" for i in rng.integers(0, 14, size=rng.integers(2, 8))]  # some OOV
    doc = doc_over(TINY_WORDS, "d", tokens)
    matrix = rng.normal(0.0, 0.02, size=(v, n_lags))
    return TrainingExample(doc=doc, matrix=matrix, week=date(2020, 1, 6),
                           sentiment=sentiment, worthiness=worthiness)


def randomize(model, rng):
    """Nonzero heads, attention gate and scaler, so every block gets gradient."""
    for name in ("att_v", "senti_w", "senti_b", "worth_w", "worth_b", "dense_b"):
        model.params[name][...] = rng.normal(0, 0.5, size=model.params[name].shape)
    model.pot_mu = rng.normal(0, 0.1, size=len(model.vocab))
    model.pot_sigma = rng.uniform(0.5, 2.0, size=len(model.vocab))


def zero_gradient_blocks(model, ex):
    """Gradient blocks that are exactly zero, apart from a masked worthiness head."""
    _, grads = model.gradient([ex])
    return [name for name, g in grads.items()
            if not np.any(g) and not (ex.worthiness is None and name.startswith("worth_"))]


def reference_forward(model, docs, mats):
    """Per-article forward: per-document encoder loop, one attention per row
    through einsum. Kept as an independent reference for the batched code."""
    p, enc = model.params, model.encoder
    ids = [np.array([enc.index.get(d.words[i], 0) for i in d.ids], dtype=np.int64)
           for d in docs]
    xbar = np.zeros((len(docs), enc.emb_dim))
    for i, row in enumerate(ids):
        if len(row):
            xbar[i] = p["enc.emb"][row].sum(axis=0) / np.sqrt(len(row))
    vcls = np.tanh(xbar @ p["enc.w"] + p["enc.b"])
    t = np.tanh(np.einsum("uv,bvl->bul", p["att_w"], mats))
    a = softmax(np.einsum("v,bvl->bl", p["att_v"], t), axis=1)
    vpot = (np.einsum("bvl,bl->bv", mats, a) - model.pot_mu) / model.pot_sigma
    u = np.concatenate([vcls, vpot], axis=1)
    q = u @ p["dense_w"] + p["dense_b"]
    r = np.maximum(q, 0.0)
    ps = softmax(r @ p["senti_w"] + p["senti_b"], axis=1)
    pw = softmax(r @ p["worth_w"] + p["worth_b"], axis=1)
    return ps, pw, {"ids": ids, "xbar": xbar, "vcls": vcls, "t": t, "a": a,
                    "u": u, "q": q, "r": r}


def reference_loss_and_grads(model, batch):
    p, n = model.params, len(batch)
    mats = np.stack([ex.matrix for ex in batch])
    ps, pw, c = reference_forward(model, [ex.doc for ex in batch], mats)
    loss = sum(multitask_loss(ps[i], pw[i], ex.sentiment, ex.worthiness, model.lam)[0]
               for i, ex in enumerate(batch)) / n
    ys, yw = np.zeros_like(ps), np.zeros_like(pw)
    cs, cw = np.empty(n), np.zeros(n)
    for i, ex in enumerate(batch):
        ys[i, ex.sentiment] = 1.0
        if ex.worthiness is None:
            cs[i] = 1.0
        else:
            cs[i] = model.lam
            yw[i, ex.worthiness] = 1.0
            cw[i] = 1.0 - model.lam
    dls = (ps - ys) * cs[:, None] / n
    dlw = (pw - yw) * cw[:, None] / n
    g = {"senti_w": c["r"].T @ dls, "senti_b": dls.sum(axis=0),
         "worth_w": c["r"].T @ dlw, "worth_b": dlw.sum(axis=0)}
    dq = (dls @ p["senti_w"].T + dlw @ p["worth_w"].T) * (c["q"] > 0.0)
    g["dense_w"] = c["u"].T @ dq
    g["dense_b"] = dq.sum(axis=0)
    du = dq @ p["dense_w"].T
    d = model.encoder.dim
    dvpot_raw = du[:, d:] / model.pot_sigma
    t, a = c["t"], c["a"]
    da = np.einsum("bvl,bv->bl", mats, dvpot_raw)
    ds = a * (da - (a * da).sum(axis=1, keepdims=True))
    g["att_v"] = np.einsum("bvl,bl->v", t, ds)
    dz = np.einsum("v,bl->bvl", p["att_v"], ds) * (1.0 - t * t)
    g["att_w"] = np.einsum("bul,bvl->uv", dz, mats)
    dpre = du[:, :d] * (1.0 - c["vcls"] ** 2)
    dxbar = dpre @ p["enc.w"].T
    demb = np.zeros_like(p["enc.emb"])
    for i, row in enumerate(c["ids"]):
        if len(row):
            np.add.at(demb, row, dxbar[i] / np.sqrt(len(row)))
    g.update({"enc.emb": demb, "enc.w": c["xbar"].T @ dpre, "enc.b": dpre.sum(axis=0)})
    return loss, g


class TestAttention:
    def test_single_lag_returns_the_column(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 1))
        a, vpot = pot_attention(m, np.eye(4), rng.normal(size=4))
        assert a.shape == (1,)
        assert a[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(vpot, m[:, 0], atol=1e-12)

    def test_zero_matrix_gives_uniform_weights(self):
        m = np.zeros((5, 4))
        a, vpot = pot_attention(m, np.random.default_rng(1).normal(size=(5, 5)),
                                np.random.default_rng(2).normal(size=5))
        assert np.allclose(a, 0.25, atol=1e-12)
        assert np.allclose(vpot, 0.0, atol=1e-12)

    def test_hand_evaluated_two_by_two(self):
        # W=I, v=[1,0], M=[[1,0],[0,1]]: frozen from direct softmax(tanh) evaluation
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        a, vpot = pot_attention(m, np.eye(2), np.array([1.0, 0.0]))
        assert a == pytest.approx([0.6816997421945262, 0.3183002578054738], abs=1e-12)
        assert vpot == pytest.approx([0.6816997421945262, 0.3183002578054738], abs=1e-12)

    def test_shape_mismatch_fatal(self):
        with pytest.raises(ValueError):
            pot_attention(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            pot_attention(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(2))

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(2, 3, 5, 4))
        att_w, att_v = rng.normal(size=(5, 5)), rng.normal(size=5)
        a, vpot = pot_attention(stack, att_w, att_v)
        assert a.shape == (2, 3, 4) and vpot.shape == (2, 3, 5)
        for i in range(2):
            for j in range(3):
                a1, v1 = pot_attention(stack[i, j], att_w, att_v)
                assert np.allclose(a[i, j], a1, atol=1e-14)
                assert np.allclose(vpot[i, j], v1, atol=1e-14)

    @pytest.mark.parametrize("v_size", [64, 128, 512])
    def test_stack_of_weeks_matches_each_week_alone(self, v_size):
        # a stack is one product over all of its lag columns, a single matrix
        # a product of its own: bit for bit equal at V = 512, and within a few
        # units in the last place below, where the BLAS kernel may round the
        # wider product differently
        rng = np.random.default_rng(v_size)
        stack = rng.normal(size=(12, v_size, 4))
        att_w = np.eye(v_size) + rng.normal(0.0, 0.05, size=(v_size, v_size))
        att_v = rng.normal(0.0, 0.1, size=v_size)
        a, vpot = pot_attention(stack, att_w, att_v)
        ulps = 0 if v_size == 512 else 8
        for week, m in enumerate(stack):
            a1, v1 = pot_attention(m, att_w, att_v)
            assert np.abs(a[week] - a1).max() <= ulps * np.spacing(1.0)
            assert np.abs(vpot[week] - v1).max() <= ulps * np.spacing(np.abs(v1).max())

    def test_weights_form_simplex_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = int(rng.integers(1, 8))
            lags = int(rng.integers(1, 6))
            m = rng.normal(0, rng.uniform(0.01, 3.0), size=(v, lags))
            a, vpot = pot_attention(m, rng.normal(size=(v, v)), rng.normal(size=v))
            assert abs(a.sum() - 1.0) < 1e-9
            assert (a > 0).all()
            assert np.allclose(vpot, m @ a, atol=1e-12)


class TestDraw:
    @pytest.mark.parametrize("seed", [0, 1, 7, 55])
    def test_blocks_hold_the_generator_arrays_bit_for_bit(self, seed):
        """Each block drawn into its view of `flat` against the arrays that
        `uniform` and `normal` return, drawn in the same order."""
        model = tiny_model(v=9, dim=5, emb_dim=7, hidden=11, seed=seed)
        rng = np.random.default_rng(seed)
        k_enc, k_dense = 1.0 / np.sqrt(7), 1.0 / np.sqrt(5 + 9)
        drawn = {
            "enc.emb": rng.uniform(-k_enc, k_enc, size=(13, 7)),
            "enc.w": rng.uniform(-k_enc, k_enc, size=(7, 5)),
            "att_w": np.eye(9) + rng.normal(0.0, 0.01, size=(9, 9)),
            "dense_w": rng.uniform(-k_dense, k_dense, size=(14, 11)),
        }
        want = np.concatenate([drawn[name].reshape(-1) if name in drawn else np.zeros(p.size)
                               for name, p in model.params.items()])
        assert model.flat.tobytes() == want.tobytes()


class TestForward:
    def test_outputs_are_distributions(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        exs = [tiny_example(model, rng) for _ in range(4)]
        ps, pw, _ = model.forward([e.doc for e in exs], np.stack([e.matrix for e in exs]))
        assert np.allclose(ps.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(pw.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_heads_give_exactly_half(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        ex = tiny_example(model, rng)
        ps, pw, _ = model.forward([ex.doc], ex.matrix[None])
        assert ps[0].tolist() == [0.5, 0.5]
        assert pw[0].tolist() == [0.5, 0.5]

    def test_matches_independent_step_by_step_evaluation(self):
        model = tiny_model(seed=11)
        rng = np.random.default_rng(12)
        # give heads nonzero weights so the comparison is nontrivial
        model.params["senti_w"] = rng.normal(0, 0.5, size=model.params["senti_w"].shape)
        model.params["senti_b"] = rng.normal(0, 0.5, size=2)
        model.params["worth_w"] = rng.normal(0, 0.5, size=model.params["worth_w"].shape)
        model.pot_mu = rng.normal(0, 0.1, size=len(model.vocab))
        model.pot_sigma = rng.uniform(0.5, 2.0, size=len(model.vocab))
        ex = tiny_example(model, rng)
        ps, pw, _ = model.forward([ex.doc], ex.matrix[None])

        # independent chain: plain numpy, no model code
        p = model.params
        enc = model.encoder
        ids = [enc.index.get(ex.doc.words[i], 0) for i in ex.doc.ids]
        pooled = p["enc.emb"][ids].sum(axis=0) / math.sqrt(len(ids))
        vcls = np.tanh(pooled @ p["enc.w"] + p["enc.b"])
        scores = p["att_v"] @ np.tanh(p["att_w"] @ ex.matrix)
        e = np.exp(scores - scores.max())
        a = e / e.sum()
        vpot = (ex.matrix @ a - model.pot_mu) / model.pot_sigma
        u = np.concatenate([vcls, vpot])
        r = np.maximum(u @ p["dense_w"] + p["dense_b"], 0.0)
        ls = r @ p["senti_w"] + p["senti_b"]
        lw = r @ p["worth_w"] + p["worth_b"]
        want_ps = np.exp(ls - ls.max()); want_ps /= want_ps.sum()
        want_pw = np.exp(lw - lw.max()); want_pw /= want_pw.sum()
        assert np.allclose(ps[0], want_ps, atol=1e-12)
        assert np.allclose(pw[0], want_pw, atol=1e-12)

    def test_week_table_matches_per_article_reference(self):
        # B=32 rows over 7 week matrices; rows of a week share one object
        vocab = Vocabulary(words=tuple(f"v{i}" for i in range(16)))
        encoder = ReferenceEncoder([f"t{i}" for i in range(30)], dim=8, emb_dim=8)
        model = ExtractorModel(vocab=vocab, encoder=encoder, n_lags=4, hidden=24,
                               lam=0.5, seed=4)
        rng = np.random.default_rng(31)
        randomize(model, rng)
        table = rng.normal(0, 0.5, size=(7, 16, 4))
        matrices = list(table)  # one object per week, shared by its rows
        week = rng.integers(0, 7, size=32)
        batch = [
            TrainingExample(
                doc=doc_over(TINY_WORDS, f"d{i}",
                             [f"t{j}" for j in rng.integers(34, size=rng.integers(12))]),
                matrix=matrices[w], week=date(2020, 1, 6) + timedelta(days=7 * int(w)),
                sentiment=int(rng.integers(0, 2)),
                worthiness=[None, 0, 1][int(rng.integers(0, 3))],
            )
            for i, w in enumerate(week)
        ]
        docs = [ex.doc for ex in batch]
        want_ps, want_pw, _ = reference_forward(model, docs, table[week])
        for ps, pw, _ in (model.forward(docs, table, week), model.forward(docs, table[week])):
            assert np.abs(ps - want_ps).max() < 1e-12
            assert np.abs(pw - want_pw).max() < 1e-12
        loss, grads = model.gradient(batch)
        assert model._loss_forward(batch)[1]["a"].shape == (len(set(week.tolist())), 4)
        want_loss, want_grads = reference_loss_and_grads(model, batch)
        assert abs(loss - want_loss) < 1e-12
        assert set(grads) == set(want_grads) == set(model.params)
        for name, g in grads.items():
            assert g.shape == model.params[name].shape
            assert np.abs(g - want_grads[name]).max() < 1e-12, name

    def test_batch_pools_each_distinct_matrix_once(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        shared = tiny_example(model, rng).matrix
        exs = [tiny_example(model, rng) for _ in range(3)]
        batch = [replace(exs[0], matrix=shared), exs[1], replace(exs[2], matrix=shared)]
        _, cache = model._loss_forward(batch)
        assert cache["a"].shape == (2, model.n_lags)
        assert cache["week"].tolist() == [0, 1, 0]

    def test_empty_document_encodes(self):
        model = tiny_model()
        ex = TrainingExample(doc=doc_over(TINY_WORDS, "d", []), matrix=np.zeros((6, 3)),
                             week=date(2020, 1, 6), sentiment=0)
        ps, _, _ = model.forward([ex.doc], ex.matrix[None])
        assert np.isfinite(ps).all()

    def test_permutation_invariance(self):
        model = tiny_model(seed=5)
        rng = np.random.default_rng(6)
        model.params["att_v"] = rng.normal(size=len(model.vocab))
        model.params["senti_w"] = rng.normal(0, 0.3, size=model.params["senti_w"].shape)
        model.pot_mu = rng.normal(0, 0.1, size=len(model.vocab))
        model.pot_sigma = rng.uniform(0.5, 2.0, size=len(model.vocab))
        ex = tiny_example(model, rng)
        ps, pw, cache = model.forward([ex.doc], ex.matrix[None])

        perm = rng.permutation(len(model.vocab))
        permuted = tiny_model(seed=5)
        permuted.params["att_w"] = model.params["att_w"][np.ix_(perm, perm)]
        permuted.params["att_v"] = model.params["att_v"][perm]
        permuted.pot_mu = model.pot_mu[perm]
        permuted.pot_sigma = model.pot_sigma[perm]
        d = model.encoder.dim
        for name in ("dense_b", "senti_w", "senti_b", "worth_w", "worth_b"):
            permuted.params[name] = model.params[name].copy()
        for name in ("enc.emb", "enc.w", "enc.b"):
            permuted.params[name] = model.params[name].copy()
        dense = model.params["dense_w"].copy()
        dense[d:] = dense[d:][perm]
        permuted.params["dense_w"] = dense
        ps2, pw2, cache2 = permuted.forward([ex.doc], ex.matrix[perm][None])
        assert np.allclose(cache2["a"], cache["a"], atol=1e-12)
        assert np.allclose(ps2, ps, atol=1e-12)
        assert np.allclose(pw2, pw, atol=1e-12)


class TestMultitaskLoss:
    def test_lambda_one_collapses_to_sentiment(self):
        loss, breakdown = multitask_loss(
            np.array([0.2, 0.8]), np.array([0.6, 0.4]), 1, 0, lam=1.0
        )
        assert loss == pytest.approx(breakdown["ce_senti"])
        assert breakdown["ce_senti"] == pytest.approx(-math.log(0.8))

    def test_unlabeled_uniform_is_ln2(self):
        loss, breakdown = multitask_loss(
            np.array([0.5, 0.5]), np.array([0.9, 0.1]), 0, None, lam=0.5
        )
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert breakdown["ce_worth"] is None

    def test_weighted_sum(self):
        loss, b = multitask_loss(np.array([0.3, 0.7]), np.array([0.6, 0.4]), 1, 1, lam=0.5)
        assert loss == pytest.approx(0.5 * -math.log(0.7) + 0.5 * -math.log(0.4))

    def test_zero_probability_clamped_and_flagged(self):
        loss, b = multitask_loss(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1, None, lam=0.5)
        assert b["clamped"]
        assert loss == pytest.approx(-math.log(1e-12))


def labeled_batch(model, rng, n):
    """`n` examples of random classes, a third of them without a worthiness label."""
    return [tiny_example(model, rng, worthiness=[None, 0, 1][int(rng.integers(3))],
                         sentiment=int(rng.integers(2))) for _ in range(n)]


def saturate_heads(model):
    """Head biases so large that each softmax gives one class exactly 0 and
    the other exactly 1, so one row in two hits the probability floor."""
    model.params["senti_b"][...] = [400.0, -400.0]
    model.params["worth_b"][...] = [-400.0, 400.0]


def reference_accuracy_on(model, examples, batch_size):
    """Dev accuracies and mean loss by a loop over rows with `multitask_loss`.
    Kept as the reference for the per-batch arrays of `_accuracy_on`."""
    hits_s = hits_w = n_w = 0
    loss_sum = 0.0
    for lo in range(0, len(examples), batch_size):
        chunk = examples[lo : lo + batch_size]
        ps, pw, _ = model.forward([ex.doc for ex in chunk], np.stack([ex.matrix for ex in chunk]))
        for i, ex in enumerate(chunk):
            hits_s += int(ps[i].argmax() == ex.sentiment)
            loss_sum += multitask_loss(ps[i], pw[i], ex.sentiment, ex.worthiness, model.lam)[0]
            if ex.worthiness is not None:
                n_w += 1
                hits_w += int(pw[i].argmax() == ex.worthiness)
    return hits_s / len(examples), hits_w / n_w if n_w else None, loss_sum / len(examples)


class TestBatchLoss:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("saturated", [False, True])
    def test_row_losses_are_multitask_loss_bit_for_bit(self, lam, saturated):
        for seed in range(12):
            model = tiny_model(lam=lam, seed=seed)
            rng = np.random.default_rng(seed)
            randomize(model, rng)
            if saturated:
                saturate_heads(model)
            batch = labeled_batch(model, rng, int(rng.integers(1, 10)))
            if saturated:  # every combination of probability 0 and 1, labeled or not
                batch += [tiny_example(model, rng, worthiness=w, sentiment=s)
                          for s in (0, 1) for w in (None, 0, 1)]
            losses, cache = model._loss_forward(batch)
            ps, pw = cache["ps"], cache["pw"]
            want = [multitask_loss(ps[i], pw[i], ex.sentiment, ex.worthiness, lam)[0]
                    for i, ex in enumerate(batch)]
            assert losses.dtype == np.float64
            assert losses.tobytes() == np.array(want).tobytes()
            if saturated:  # the floor fired, and the loss stays finite
                assert 0.0 in ps[np.arange(len(batch)), [ex.sentiment for ex in batch]]
                assert np.isfinite(losses).all() and np.signbit(losses).any()
            assert model.batch_loss(batch) == sum(want) / len(batch)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_accuracy_on_matches_the_row_loop(self, lam):
        from newstrend.extractor import _accuracy_on

        for seed, saturated in ((1, False), (2, True), (3, False)):
            model = tiny_model(lam=lam, seed=seed)
            rng = np.random.default_rng(seed)
            randomize(model, rng)
            if saturated:
                saturate_heads(model)
            examples = labeled_batch(model, rng, 23)
            for batch_size in (1, 4, 32):
                assert _accuracy_on(model, examples, batch_size) == reference_accuracy_on(
                    model, examples, batch_size)
        unlabeled = [replace(ex, worthiness=None) for ex in examples]
        assert _accuracy_on(model, unlabeled, 8)[1] is None


class TestGradientCheck:
    def test_correct_gradients_across_seeds(self):
        worst = 0.0
        for seed in range(4):
            model = tiny_model(seed=seed)
            rng = np.random.default_rng(100 + seed)
            randomize(model, rng)
            worth = [None, 0, 1][seed % 3]
            ex = tiny_example(model, rng, worthiness=worth, sentiment=seed % 2)
            assert zero_gradient_blocks(model, ex) == [], seed
            err = gradient_check(model, ex)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_corrupted_gradient_detected(self):
        model = tiny_model(seed=1)
        ex = tiny_example(model, np.random.default_rng(2), worthiness=1)
        assert gradient_check(model, ex, corrupt_block="att_w") > 1e-2

    def test_mixed_batch_with_a_shared_week(self):
        # two examples share one matrix object, two have their own; labeled and
        # unlabeled worthiness, both sentiments
        model = tiny_model(seed=6)
        rng = np.random.default_rng(40)
        randomize(model, rng)
        shared = rng.normal(0, 0.5, size=(6, 3))
        exs = [tiny_example(model, rng) for _ in range(4)]
        batch = [
            replace(exs[0], matrix=shared, sentiment=1, worthiness=None),
            replace(exs[1], matrix=rng.normal(0, 0.5, size=(6, 3)), sentiment=0, worthiness=1),
            replace(exs[2], matrix=shared, sentiment=0, worthiness=0),
            replace(exs[3], sentiment=1, worthiness=None),
        ]
        worst, errors = gradient_check(model, batch, detail=True)
        assert worst < 1e-4, errors
        _, grads = model.gradient(batch)
        assert all(np.any(grads[name] != 0.0) for name in ("att_w", "att_v", "enc.emb"))
        assert gradient_check(model, batch, corrupt_block="att_w") > 1e-2

    def test_unknown_block_rejected(self):
        model = tiny_model()
        ex = tiny_example(model, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gradient_check(model, ex, corrupt_block="nope")

    def test_masked_worthiness_gradients_exactly_zero(self):
        model = tiny_model(seed=2)
        # give worthiness head nonzero weights so flow *would* exist if unmasked
        rng = np.random.default_rng(3)
        model.params["worth_w"] = rng.normal(0, 0.3, size=model.params["worth_w"].shape)
        ex = tiny_example(model, rng, worthiness=None)
        _, grads = model.gradient([ex])
        assert np.all(grads["worth_w"] == 0.0)
        assert np.all(grads["worth_b"] == 0.0)
        labeled = tiny_example(model, rng, worthiness=1)
        _, grads2 = model.gradient([labeled])
        assert np.any(grads2["worth_w"] != 0.0)


def planted_training_set(n_weeks=10, docs_per_week=6, seed=0):
    """Linearly separable toy: positive weeks say gain/surge, negative fall/drop."""
    rng = np.random.default_rng(seed)
    monday = date(2020, 1, 6)
    vocab = Vocabulary(words=("gain", "fall", "w0", "w1"))
    examples = []
    for i in range(n_weeks):
        anchor = monday + timedelta(days=7 * i)
        sentiment = i % 2
        words = ("gain", "surge") if sentiment else ("fall", "drop")
        base = rng.normal(0, 0.005, size=(4, 2))
        base[0, :] += 0.02 if sentiment else -0.02
        base[1, :] += -0.02 if sentiment else 0.02
        for j in range(docs_per_week):
            tokens = list(rng.choice(["the", "market", "report", "week"], size=6))
            tokens += list(rng.choice(words, size=3))
            rng.shuffle(tokens)
            worthiness = int(rng.integers(0, 2)) if rng.random() < 0.3 else None
            examples.append(
                TrainingExample(doc=doc_over(PLANTED_WORDS, f"d{i}-{j}", tokens), matrix=base,
                                week=anchor, sentiment=sentiment, worthiness=worthiness)
            )
    return vocab, examples


def dev_weeks_of(examples):
    """The pipeline's holdout: 10% of the example weeks, drawn with seed 0."""
    return split_dev_weeks([e.week for e in examples], dev_fraction=0.1, seed=0)[1]


SLICED_WORDS = tuple(f"s{i:04d}" for i in range(640))  # the last 40 are unknown words


def sliced_model():
    """A model whose encoder embedding, attention mixing and dense layer each
    exceed ADAM_BLOCK elements, so that backward hands them over in slices."""
    encoder = ReferenceEncoder(SLICED_WORDS[:600], dim=8, emb_dim=64)
    vocab = Vocabulary(words=tuple(f"v{i:03d}" for i in range(190)))
    model = ExtractorModel(vocab=vocab, encoder=encoder, n_lags=3, hidden=170, lam=0.5, seed=7)
    randomize(model, np.random.default_rng(70))
    return model


class TestFlatAdam:
    def test_bitwise_equal_to_the_per_block_update_over_60_steps(self):
        """Adam on the one flat buffer, fed slice by slice during backward,
        against the per-block update of the whole gradient it replaced."""
        model = tiny_model(seed=3)
        rng = np.random.default_rng(9)
        randomize(model, rng)
        batch = [tiny_example(model, rng, worthiness=[None, 0, 1][i % 3], sentiment=i % 2)
                 for i in range(6)]
        lr = 0.05
        adam = Adam(model.flat, lr)
        params = {name: p.copy() for name, p in model.params.items()}
        adam_m = {name: np.zeros_like(p) for name, p in params.items()}
        adam_v = {name: np.zeros_like(p) for name, p in params.items()}
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        start = model.flat.copy()
        for step in range(1, 61):
            _, grads = model.gradient(batch)
            model.loss_and_grads(batch, adam.step())
            for name, g in grads.items():
                adam_m[name] = b1 * adam_m[name] + (1 - b1) * g
                adam_v[name] = b2 * adam_v[name] + (1 - b2) * (g * g)
                mhat = adam_m[name] / (1 - b1 ** step)
                vhat = adam_v[name] / (1 - b2 ** step)
                params[name] -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            for name, p in model.params.items():
                assert np.array_equal(p, params[name]), (step, name)
                assert np.shares_memory(p, model.flat)
        before = model.views(start)
        assert all(np.any(p != before[name]) for name, p in model.params.items())

    @pytest.mark.parametrize("size", [3 * ADAM_BLOCK + 1234, ADAM_BLOCK // 3])
    def test_blocked_step_equals_the_whole_buffer_update(self, size):
        """Piece by piece, over three pieces and a ragged tail or within one
        piece, handed in slices cut at random, against the 14 ufuncs run once
        over the whole buffer."""
        rng = np.random.default_rng(size)
        flat, lr = rng.normal(size=size), 0.01
        adam = Adam(flat, lr)
        want, m, v = flat.copy(), np.zeros(size), np.zeros(size)
        for step in range(1, 61):
            grad = rng.normal(size=size) * 10.0 ** rng.integers(-6, 3, size=size)
            whole_buffer_adam_step(want, m, v, grad.copy(), lr, step)
            update = adam.step()
            cuts = [0, *np.sort(rng.integers(0, size, size=3)).tolist(), size]
            for lo, hi in zip(cuts, cuts[1:]):
                update(lo, grad[lo:hi])
            assert flat.tobytes() == want.tobytes(), step
            assert adam.m.tobytes() == m.tobytes() and adam.v.tobytes() == v.tobytes()
        assert adam.tmp.size <= ADAM_BLOCK

    def test_streamed_update_equals_the_whole_gradient_update_over_60_steps(self):
        """Training through the Adam sink, which updates each slice while
        backward still runs, against filling a buffer with the whole gradient
        and then updating: parameters and moments bit for bit."""
        model = sliced_model()
        sizes = {name: p.size for name, p in model.params.items()}
        assert all(sizes[name] > ADAM_BLOCK for name in ("enc.emb", "att_w", "dense_w"))
        rng = np.random.default_rng(71)
        matrices = [rng.normal(0, 0.5, size=(190, 3)) for _ in range(5)]
        batch = [TrainingExample(
                    doc=doc_over(SLICED_WORDS, f"d{i}", list(rng.choice(SLICED_WORDS, 40))),
                    matrix=matrices[i % 5], week=date(2020, 1, 6) + timedelta(days=7 * (i % 5)),
                    sentiment=i % 2, worthiness=[None, 0, 1][i % 3])
                 for i in range(12)]
        lr = 0.01
        adam = Adam(model.flat, lr)
        want, m, v = model.flat.copy(), np.zeros(model.size), np.zeros(model.size)
        for step in range(1, 61):
            _, grads = model.gradient(batch)
            whole_buffer_adam_step(want, m, v, np.concatenate(
                [g.reshape(-1) for g in grads.values()]), lr, step)
            model.loss_and_grads(batch, adam.step())
            assert model.flat.tobytes() == want.tobytes(), step
            assert adam.m.tobytes() == m.tobytes() and adam.v.tobytes() == v.tobytes(), step
        start = sliced_model().params
        for name in ("enc.emb", "att_w", "dense_w"):  # each slice was applied
            rows = ADAM_BLOCK // model.shapes[name][1]
            moved = np.any(model.params[name] != start[name], axis=1)
            assert all(moved[lo : lo + rows].any() for lo in range(0, len(moved), rows)), name

    # the bench's wide and deep layers, and the default config's with an
    # encoder vocabulary of 1,000 words; each head block on its own would
    # make 13 and 27 calls
    @pytest.mark.parametrize("enc_words, v, calls", [(400, 128, 10), (1000, 512, 24)])
    def test_heads_go_as_one_slice_updated_as_block_by_block(self, enc_words, v, calls):
        """One step through the Adam sink, the heads handed as one slice,
        against Adam applied to each head block on its own, its gradient as
        r' dls or a column sum, then to the other slices as handed;
        parameters and moments bit for bit."""
        words = tuple(f"h{i:04d}" for i in range(enc_words + 20))  # 20 unknown words
        encoder = ReferenceEncoder(words[:enc_words], dim=64, emb_dim=64)
        vocab = Vocabulary(words=tuple(f"v{i:03d}" for i in range(v)))
        model = ExtractorModel(vocab=vocab, encoder=encoder, n_lags=4, hidden=512, lam=0.5,
                               seed=5)
        rng = np.random.default_rng(50)
        randomize(model, rng)
        matrices = [rng.normal(0, 0.5, size=(v, 4)) for _ in range(3)]
        batch = [TrainingExample(doc=doc_over(words, f"d{i}", list(rng.choice(words, 30))),
                                 matrix=matrices[i % 3], week=date(2020, 1, 6),
                                 sentiment=i % 2, worthiness=[None, 0, 1][i % 3])
                 for i in range(10)]
        _, grads = model.gradient(batch)
        _, cache = model._loss_forward(batch)
        n = len(batch)
        dls = (cache["ps"] - cache["ys"]) * cache["cs"][:, None] / n
        dlw = (cache["pw"] - cache["yw"]) * cache["cw"][:, None] / n
        heads = {"senti_w": cache["r"].T @ dls, "senti_b": dls.sum(axis=0),
                 "worth_w": cache["r"].T @ dlw, "worth_b": dlw.sum(axis=0)}
        whole = np.concatenate([g.reshape(-1) for g in grads.values()])
        lr = 0.01
        want, adam = model.flat.copy(), Adam(model.flat, lr)
        handed = []
        update = adam.step()

        def sink(lo, g):
            handed.append((lo, g.size))
            update(lo, g)

        model.loss_and_grads(batch, sink)
        assert len(handed) == calls
        assert handed[0] == (model.offsets["senti_w"], 4 * 512 + 4)
        old = Adam(want, lr)
        old_update = old.step()
        for name, g in heads.items():
            old_update(model.offsets[name], g.copy())
        for lo, size in handed[1:]:
            old_update(lo, whole[lo : lo + size].copy())
        assert model.flat.tobytes() == want.tobytes()
        assert adam.m.tobytes() == old.m.tobytes() and adam.v.tobytes() == old.v.tobytes()
        tiles = sorted(handed)  # each element once
        assert [lo for lo, _ in tiles] == [sum(size for _, size in tiles[:i])
                                           for i in range(len(tiles))]
        assert sum(size for _, size in tiles) == model.size


def whole_buffer_adam_step(flat, m, v, grad, lr, t):
    """One Adam step as 14 ufuncs over whole buffers, with two scratch
    buffers of the full size: the reference for the blocked step."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    tmp, tmp2 = np.empty_like(flat), np.empty_like(flat)
    np.multiply(m, b1, out=m)
    np.multiply(grad, 1 - b1, out=tmp)
    np.add(m, tmp, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(grad, grad, out=tmp)
    np.multiply(tmp, 1 - b2, out=tmp)
    np.add(v, tmp, out=v)
    np.divide(m, 1 - b1 ** t, out=tmp)
    np.multiply(tmp, lr, out=tmp)
    np.divide(v, 1 - b2 ** t, out=tmp2)
    np.sqrt(tmp2, out=tmp2)
    np.add(tmp2, ADAM_EPS, out=tmp2)
    np.divide(tmp, tmp2, out=tmp)
    np.subtract(flat, tmp, out=flat)


def stacked_pot_scaler(matrices):
    """The scaler's statistics from one stacked row per example, through
    numpy's axis-0 mean and std: the reference for the streamed scaler."""
    pooled = np.stack([np.asarray(m, dtype=np.float64).mean(axis=1) for m in matrices])
    mu, sigma = pooled.mean(axis=0), pooled.std(axis=0)
    sigma[sigma < 1e-12] = 1.0
    return mu, sigma


# numpy sums an axis-0 reduction row by row when the rows have two or more
# entries; a single column is summed pairwise, so the oracle's vocabularies
# have at least two words
scaler_layouts = st.integers(2, 6).flatmap(lambda v: st.integers(1, 4).flatmap(
    lambda lags: st.tuples(
        st.lists(st.lists(st.floats(-1e6, 1e6, width=64), min_size=v * lags,
                          max_size=v * lags), min_size=1, max_size=5),
        st.lists(st.integers(0, 4), min_size=1, max_size=40),
        st.just((v, lags)))))


class TestPotScaler:
    @given(layout=scaler_layouts)
    @settings(max_examples=150, deadline=None)
    def test_streamed_statistics_equal_the_stacked_reference(self, layout):
        values, picks, shape = layout
        distinct = [np.array(vals).reshape(shape) for vals in values]
        for m in distinct:  # word 0 has one score in every matrix: zero variance
            m[0] = 0.25
        matrices = [distinct[i % len(distinct)] for i in picks]  # shared, in any order
        model = tiny_model(v=shape[0], n_lags=shape[1])
        model.fit_pot_scaler(matrices)
        mu, sigma = stacked_pot_scaler(matrices)
        assert model.pot_mu.tobytes() == mu.tobytes()
        assert model.pot_sigma.tobytes() == sigma.tobytes()
        assert model.pot_sigma[0] == 1.0

    def test_peak_holds_one_row_per_matrix_not_per_example(self):
        v, n_matrices, n_examples = 512, 10, 5000
        rng = np.random.default_rng(0)
        distinct = [rng.normal(size=(v, 4)) for _ in range(n_matrices)]
        matrices = [distinct[i % n_matrices] for i in range(n_examples)]
        model = tiny_model(v=v, n_lags=4)
        peak = traced_peak(model.fit_pot_scaler, matrices)
        # a pooled row per matrix, and room for ten more rows of working space
        assert peak < (n_matrices + 10) * v * 8


class TestTraining:
    settings = ExtractorConfig(dim=12, emb_dim=12, hidden=16, epochs=10,
                               batch_size=8, seed=0, lr=3e-3)

    def test_separable_classes_reach_dev_accuracy(self):
        vocab, examples = planted_training_set()
        trained = train_extractor(examples, self.settings, vocab, dev_weeks_of(examples))
        assert max(h["dev_acc_senti"] for h in trained.history) >= 0.95
        assert len(trained.history) == 10

    def test_same_seed_reproduces_parameters_exactly(self):
        vocab, examples = planted_training_set()
        a = train_extractor(examples, self.settings, vocab, dev_weeks_of(examples))
        b = train_extractor(examples, self.settings, vocab, dev_weeks_of(examples))
        assert a.train_weeks == b.train_weeks
        for name in a.model.params:
            assert np.array_equal(a.model.params[name], b.model.params[name])

    def test_lambda_zero_freezes_sentiment_head(self):
        vocab, examples = planted_training_set()
        labeled = [
            TrainingExample(doc=e.doc, matrix=e.matrix, week=e.week,
                            sentiment=e.sentiment, worthiness=e.sentiment)
            for e in examples
        ]
        settings = ExtractorConfig(dim=12, emb_dim=12, hidden=16, epochs=3,
                                   batch_size=8, seed=0, lam=0.0)
        trained = train_extractor(labeled, settings, vocab, dev_weeks_of(labeled))
        assert np.all(trained.model.params["senti_w"] == 0.0)
        ps, _, _ = trained.model.forward([labeled[0].doc], labeled[0].matrix[None])
        assert ps[0].tolist() == [0.5, 0.5]

    def test_single_class_fatal(self):
        vocab, examples = planted_training_set()
        ones = [e for e in examples if e.sentiment == 1]
        with pytest.raises(DataError):
            train_extractor(ones, self.settings, vocab, dev_weeks_of(ones))

    def test_trains_only_outside_the_given_dev_weeks(self, monkeypatch):
        vocab, examples = planted_training_set()
        weeks = sorted({e.week for e in examples})
        dev = (weeks[1], weeks[4], weeks[7])
        assert set(dev) != set(dev_weeks_of(examples))
        batch_weeks = []
        loss_and_grads = ExtractorModel.loss_and_grads

        def recording(model, batch, *args, **kwargs):
            batch_weeks.append({ex.week for ex in batch})
            return loss_and_grads(model, batch, *args, **kwargs)

        monkeypatch.setattr(ExtractorModel, "loss_and_grads", recording)
        trained = train_extractor(examples, self.settings, vocab, dev)
        assert trained.dev_weeks == dev
        assert trained.train_weeks == tuple(w for w in weeks if w not in dev)
        assert len(batch_weeks) == self.settings.epochs * math.ceil(
            sum(e.week not in dev for e in examples) / self.settings.batch_size
        )
        assert all(not seen & set(dev) for seen in batch_weeks)

    def test_dev_weeks_without_examples_fatal(self):
        vocab, examples = planted_training_set()
        with pytest.raises(DataError, match="dev week"):
            train_extractor(examples, self.settings, vocab, (date(1999, 1, 4),))

    def test_the_best_epoch_is_restored_bit_for_bit(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        vocab, examples = planted_training_set()
        dev = dev_weeks_of(examples)

        def train(epochs, best_epoch):
            epoch = iter(range(1, epochs + 1))
            monkeypatch.setattr(extractor, "_accuracy_on", lambda model, examples, batch_size:
                                (0.9 if next(epoch) == best_epoch else 0.5, None, 1.0))
            return train_extractor(examples, replace(self.settings, epochs=epochs), vocab, dev)

        second_of_four = train(4, best_epoch=2)
        assert [h["dev_acc_senti"] for h in second_of_four.history] == [0.5, 0.9, 0.5, 0.5]
        assert second_of_four.model.flat.tobytes() == train(2, best_epoch=2).model.flat.tobytes()
        assert second_of_four.model.flat.tobytes() != train(4, best_epoch=4).model.flat.tobytes()
        assert list(tmp_path.iterdir()) == []

    def test_divergence_closes_the_best_epoch_file_and_leaves_none(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        opened = []
        temporary_file = tempfile.TemporaryFile

        def recording(*args, **kwargs):
            opened.append(temporary_file(*args, **kwargs))
            return opened[-1]

        class RecordingAdam(Adam):
            def __init__(self, *args):
                super().__init__(*args)
                adams.append(self)

        adams, before = [], {}
        steps = iter(range(100))
        loss_and_grads = ExtractorModel.loss_and_grads

        def diverging(model, batch, sink):
            """The 11th batch's loss is NaN: its first row's matrix is."""
            if next(steps) == 10:
                batch = [replace(batch[0], matrix=np.full_like(batch[0].matrix, np.nan)),
                         *batch[1:]]
                before.update(flat=model.flat.copy(), m=adams[0].m.copy(), v=adams[0].v.copy())
            return loss_and_grads(model, batch, sink)

        monkeypatch.setattr(tempfile, "TemporaryFile", recording)
        monkeypatch.setattr(extractor, "Adam", RecordingAdam)
        monkeypatch.setattr(ExtractorModel, "loss_and_grads", diverging)
        vocab, examples = planted_training_set()
        with pytest.raises(NumericError, match="loss=nan at epoch 2 batch 3$"):
            train_extractor(examples, self.settings, vocab, dev_weeks_of(examples))
        assert len(opened) == 1 and opened[0].closed
        assert list(tmp_path.iterdir()) == []
        # the diverging batch applied no slice
        (adam,) = adams
        assert adam.flat.tobytes() == before["flat"].tobytes()
        assert adam.m.tobytes() == before["m"].tobytes()
        assert adam.v.tobytes() == before["v"].tobytes()

    def test_an_unusable_temporary_directory_is_a_data_error(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(tempfile, "tempdir", str(blocker / "sub"))
        vocab, examples = planted_training_set()
        with pytest.raises(DataError, match=f"temporary file.*{blocker / 'sub'}"):
            train_extractor(examples, self.settings, vocab, dev_weeks_of(examples))

    def test_dev_split_holds_out_whole_weeks(self):
        weeks = [date(2020, 1, 6) + timedelta(days=7 * i) for i in range(20)]
        train, dev = split_dev_weeks(weeks, dev_fraction=0.1, seed=3)
        assert set(train) | set(dev) == set(weeks)
        assert not set(train) & set(dev)
        assert len(dev) == 2


# the share of the parameters' bytes that training may hold at its peak: the
# parameters and Adam's two moments, and room for one batch and one slice
TRAIN_PEAK_SHARE = 3.5


def wide_encoder_training_set(n_weeks=10, docs_per_week=6, words_per_doc=100):
    """`planted_training_set` with a hundred words of its own in each
    document, so that the encoder's embedding dwarfs one batch."""
    vocab, examples = planted_training_set(n_weeks, docs_per_week)
    own = [f"w{i:05d}" for i in range(len(examples) * words_per_doc)]
    words = tuple(sorted([*PLANTED_WORDS, *own]))
    return vocab, [
        replace(ex, doc=doc_over(words, ex.doc.record_id,
                                 [ex.doc.words[j] for j in ex.doc.ids.tolist()]
                                 + own[i * words_per_doc:(i + 1) * words_per_doc]))
        for i, ex in enumerate(examples)]


class TestBoundedMemory:
    def test_training_holds_three_parameter_buffers_and_one_batch(self):
        vocab, examples = wide_encoder_training_set()
        config = ExtractorConfig(encoder_vocab=10_000, dim=16, emb_dim=128, hidden=16,
                                 epochs=3, batch_size=4, seed=0)
        dev = dev_weeks_of(examples)
        # a first run imports what training imports on first use
        trained = train_extractor(examples, config, vocab, dev)
        assert len(trained.model.encoder.vocab) > 5000
        peak = traced_peak(train_extractor, examples, config, vocab, dev)
        assert peak < TRAIN_PEAK_SHARE * trained.model.flat.nbytes

    def test_one_step_drops_each_forward_array_after_its_last_read(self):
        """The tracemalloc peak of one `loss_and_grads` call through Adam: a
        32-row batch over 16 week matrices, an encoder of 2,000 words and
        the default hidden layer. Its largest arrays are the bag of words
        (512 KB, whole only while the encoder's forward product reads it), a
        gradient slice (256 KB), the attention's lag columns and their tanh
        and the dense layer's output (128 KB each). The step peaked at 0.89
        MB when the bound was set, at the dense layer's slices, and at 1.97
        MB when every forward array (the pre-ReLU output and a stack of the
        week matrices among them) lived until backward ended and the bag was
        built twice. The bound leaves 90 KB for numpy's own buffers, less
        than any one of those arrays: one of them kept alive up to the
        dense layer's slices again fails here."""
        words = tuple(f"h{i:04d}" for i in range(2020))
        encoder = ReferenceEncoder(words[:2000], dim=64, emb_dim=64)
        vocab = Vocabulary(words=tuple(f"v{i:03d}" for i in range(256)))
        model = ExtractorModel(vocab=vocab, encoder=encoder, n_lags=4, hidden=512, lam=0.5,
                               seed=5)
        rng = np.random.default_rng(51)
        matrices = [rng.normal(0, 0.5, size=(256, 4)) for _ in range(16)]
        batch = [TrainingExample(doc=doc_over(words, f"d{i}", list(rng.choice(words, 60))),
                                 matrix=matrices[i % 16],
                                 week=date(2020, 1, 6) + timedelta(days=7 * (i % 16)),
                                 sentiment=i % 2, worthiness=[None, 0, 1][i % 3])
                 for i in range(32)]
        adam = Adam(model.flat, 1e-3)
        model.loss_and_grads(batch, adam.step())  # the encoder maps the word table once
        assert traced_peak(model.loss_and_grads, batch, adam.step()) < 980_000


class TestScoring:
    def test_untrained_score_is_half_and_complement(self):
        model = tiny_model()
        rng = np.random.default_rng(8)
        ex = tiny_example(model, rng)
        score = sentiment_score(model, ex.doc, ex.matrix)
        assert score == pytest.approx(0.5)
        ps, _, _ = model.forward([ex.doc], ex.matrix[None])
        assert score + ps[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_trained_model_scores_planted_docs(self):
        vocab, examples = planted_training_set()
        trained = train_extractor(
            examples, ExtractorConfig(dim=12, emb_dim=12, hidden=16, epochs=10,
                                      batch_size=8, seed=0, lr=3e-3),
            vocab, dev_weeks_of(examples),
        )
        pos = [e for e in examples if e.sentiment == 1][0]
        neg = [e for e in examples if e.sentiment == 0][0]
        assert sentiment_score(trained.model, pos.doc, pos.matrix) > 0.9
        assert sentiment_score(trained.model, neg.doc, neg.matrix) < 0.1


class TestModelArtifact:
    def test_save_load_roundtrip_and_determinism(self, tmp_path):
        vocab, examples = planted_training_set()
        settings = ExtractorConfig(dim=12, emb_dim=12, hidden=16, epochs=3, batch_size=8, seed=0)
        trained = train_extractor(examples, settings, vocab, dev_weeks_of(examples))
        p1, p2 = tmp_path / "m1.model", tmp_path / "m2.model"
        save_extractor(trained, p1)
        save_extractor(trained, p2)
        assert p1.read_bytes() == p2.read_bytes()

        loaded = load_extractor(p1)
        assert loaded.train_weeks == trained.train_weeks
        assert loaded.dev_weeks == trained.dev_weeks
        for name in trained.model.params:
            assert np.array_equal(loaded.model.params[name], trained.model.params[name])
        ex = examples[0]
        assert sentiment_score(loaded.model, ex.doc, ex.matrix) == pytest.approx(
            sentiment_score(trained.model, ex.doc, ex.matrix), abs=1e-12
        )

    def test_a_loaded_model_does_not_keep_the_file(self, tmp_path):
        # a model holds its parameters once, in `flat`; a kept view of the
        # file's arrays would hold them a second time
        path = tmp_path / "m.model"
        model = tiny_model(v=64, n_lags=4, dim=64, emb_dim=64, hidden=256)
        save_extractor(TrainedExtractor(model, train_weeks=(), dev_weeks=()), path)
        tracemalloc.start()
        try:
            loaded = load_extractor(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.model.flat, model.flat)
        assert held < 1.5 * path.stat().st_size

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"not a model")
        with pytest.raises(DataError):
            load_extractor(path)

    def saved_with_header_edit(self, tmp_path, edit):
        """A saved model whose header `edit` has changed in place."""
        vocab, examples = planted_training_set()
        settings = ExtractorConfig(dim=4, emb_dim=4, hidden=4, epochs=1, batch_size=8, seed=0)
        path = tmp_path / "m.model"
        save_extractor(train_extractor(examples, settings, vocab, dev_weeks_of(examples)), path)
        magic, size, rest = path.read_bytes().split(b"\n", 2)
        header = json.loads(rest[: int(size)])
        edit(header)
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(b"%s\n%d\n%s%s" % (magic, len(blob), blob, rest[int(size):]))
        return path

    def test_unknown_encoder_kind_rejected(self, tmp_path):
        path = self.saved_with_header_edit(
            tmp_path, lambda header: header["encoder"].update(kind="bert"))
        with pytest.raises(DataError, match="encoder kind 'bert'"):
            load_extractor(path)

    @pytest.mark.parametrize("key", ["train_weeks", "dev_weeks"])
    def test_week_not_spelled_yyyy_mm_dd_rejected(self, tmp_path, key):
        path = self.saved_with_header_edit(
            tmp_path, lambda header: header[key].__setitem__(0, "20150302"))
        with pytest.raises(DataError, match="m.model is corrupt: '20150302' is not YYYY-MM-DD"):
            load_extractor(path)
