import json
import math
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from newstrend.config import ExtractorConfig
from newstrend.corpus import Vocabulary
from newstrend.errors import DataError
from newstrend.extractor import (
    ExtractorModel, ReferenceEncoder, TrainingExample,
    gradient_check, load_extractor, multitask_loss, pot_attention,
    save_extractor, select_extractor_weeks, sentiment_score, softmax,
    split_dev_weeks, train_extractor,
)

from conftest import make_doc


def tiny_model(v=6, n_lags=3, dim=5, emb_dim=6, hidden=8, lam=0.5, seed=0):
    enc_vocab = [f"t{i}" for i in range(12)]
    encoder = ReferenceEncoder(enc_vocab, dim=dim, emb_dim=emb_dim)
    vocab = Vocabulary(words=tuple(f"v{i}" for i in range(v)))
    return ExtractorModel(vocab=vocab, encoder=encoder, n_lags=n_lags,
                          hidden=hidden, lam=lam, seed=seed)


def tiny_example(model, rng, worthiness=None, sentiment=1):
    v, n_lags = len(model.vocab), model.n_lags
    tokens = [f"t{i}" for i in rng.integers(0, 14, size=rng.integers(2, 8))]  # some OOV
    doc = make_doc("d", tokens)
    matrix = rng.normal(0.0, 0.02, size=(v, n_lags))
    return TrainingExample(doc=doc, matrix=matrix, week=date(2020, 1, 6),
                           sentiment=sentiment, worthiness=worthiness)


def randomize(model, rng):
    """Nonzero heads, attention gate and scaler, so every block gets gradient."""
    for name in ("att_v", "senti_w", "senti_b", "worth_w", "worth_b", "dense_b"):
        model.params[name] = rng.normal(0, 0.5, size=model.params[name].shape)
    model.pot_mu = rng.normal(0, 0.1, size=len(model.vocab))
    model.pot_sigma = rng.uniform(0.5, 2.0, size=len(model.vocab))


def zero_gradient_blocks(model, ex):
    """Gradient blocks that are exactly zero, apart from a masked worthiness head."""
    _, grads = model.loss_and_grads([ex])
    return [name for name, g in grads.items()
            if not np.any(g) and not (ex.worthiness is None and name.startswith("worth_"))]


def reference_forward(model, docs, mats):
    """Per-article forward: per-document encoder loop, one attention per row
    through einsum. Kept as an independent reference for the batched code."""
    p, enc = model.params, model.encoder
    ids = [np.array([enc.index.get(t, 0) for t in d.tokens], dtype=np.int64) for d in docs]
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
        ids = [enc.index.get(t, 0) for t in ex.doc.tokens]
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
                doc=make_doc(f"d{i}", [f"t{j}" for j in rng.integers(34, size=rng.integers(12))]),
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
        loss, grads = model.loss_and_grads(batch)
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
        _, cache, _ = model._loss_forward(batch)
        assert cache["a"].shape == (2, model.n_lags)
        assert cache["week"].tolist() == [0, 1, 0]

    def test_empty_document_encodes(self):
        model = tiny_model()
        ex = TrainingExample(doc=make_doc("d", []), matrix=np.zeros((6, 3)),
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
        _, grads = model.loss_and_grads(batch)
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
        _, grads = model.loss_and_grads([ex])
        assert np.all(grads["worth_w"] == 0.0)
        assert np.all(grads["worth_b"] == 0.0)
        labeled = tiny_example(model, rng, worthiness=1)
        _, grads2 = model.loss_and_grads([labeled])
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
                TrainingExample(doc=make_doc(f"d{i}-{j}", tokens), matrix=base,
                                week=anchor, sentiment=sentiment, worthiness=worthiness)
            )
    return vocab, examples


def dev_weeks_of(examples):
    """The pipeline's holdout: 10% of the example weeks, drawn with seed 0."""
    return split_dev_weeks([e.week for e in examples], dev_fraction=0.1, seed=0)[1]


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

        def recording(model, batch):
            batch_weeks.append({ex.week for ex in batch})
            return loss_and_grads(model, batch)

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

    def test_dev_split_holds_out_whole_weeks(self):
        weeks = [date(2020, 1, 6) + timedelta(days=7 * i) for i in range(20)]
        train, dev = split_dev_weeks(weeks, dev_fraction=0.1, seed=3)
        assert set(train) | set(dev) == set(weeks)
        assert not set(train) & set(dev)
        assert len(dev) == 2


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


class TestSelection:
    def test_cap_is_seeded_sample(self):
        from newstrend.weeks import TradingWeek, WeeklyLabel
        labels = []
        monday = date(2020, 1, 6)
        for i in range(30):
            wk = TradingWeek(anchor=monday + timedelta(days=7 * i),
                             prev_anchor=monday + timedelta(days=7 * (i - 1)),
                             pct_change=3.0 if i % 2 else -3.0)
            labels.append(WeeklyLabel(week=wk, extractor_class="positive" if i % 2 else "negative",
                                      pot_class="vpos", summarizer_class="up"))
        sel = select_extractor_weeks(labels, seed=0, max_weeks_per_class=5)
        assert len(sel) == 10
        again = select_extractor_weeks(labels, seed=0, max_weeks_per_class=5)
        assert sel == again
        uncapped = select_extractor_weeks(labels, seed=0)
        assert len(uncapped) == 30


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

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"not a model")
        with pytest.raises(DataError):
            load_extractor(path)

    def test_unknown_encoder_kind_rejected(self, tmp_path):
        vocab, examples = planted_training_set()
        settings = ExtractorConfig(dim=4, emb_dim=4, hidden=4, epochs=1, batch_size=8, seed=0)
        path = tmp_path / "m.model"
        save_extractor(train_extractor(examples, settings, vocab, dev_weeks_of(examples)), path)
        magic, size, rest = path.read_bytes().split(b"\n", 2)
        header = json.loads(rest[: int(size)])
        header["encoder"]["kind"] = "bert"
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(b"%s\n%d\n%s%s" % (magic, len(blob), blob, rest[int(size):]))
        with pytest.raises(DataError, match="encoder kind 'bert'"):
            load_extractor(path)
