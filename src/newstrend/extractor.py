"""Per-article sentiment extractor.

Architecture: a bag-of-words text encoder produces a dense article vector; the
article's week gets a vocab-by-lag polarity matrix, pooled over lags by a
small attention (softmax(v' tanh(W M)) weights, pooled vector M a); the
standardized pooled polarity vector is concatenated with the encoder output,
passed through one rectified dense layer, and read out by two softmax heads:
sentiment (negative/positive) and worthiness (irrelevant/relevant). A batch
runs the attention once per distinct week matrix, not per article, and the
encoder is one bag-of-words matrix product.

Training minimizes a masked multitask objective: for articles with a
worthiness label, lam * CE_sentiment + (1 - lam) * CE_worthiness; for the
rest, plain CE_sentiment (the worthiness loss is skipped entirely, so those
examples contribute exactly zero gradient to the worthiness head).

All gradients are hand-derived and checked against central finite
differences (see gradient_check). Everything is float64 and deterministic
under a fixed seed.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import artifacts
from .config import ExtractorConfig
from .corpus import TokenizedDoc, Vocabulary
from .errors import DataError, NumericError
from .weeks import WeeklyLabel

PROB_FLOOR = 1e-12

MODEL_MAGIC = "newstrend-extractor 1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class ReferenceEncoder:
    """Trainable averaged-embedding encoder, the desk-scale stand-in for a
    pretrained text model.

    Token embeddings are pooled as sum / sqrt(n) (scale stays independent of
    document length and comparable to the standardized polarity features;
    a plain mean shrinks by 1/sqrt(n) and starves the text channel), then
    mapped through a tanh dense layer. Unknown tokens share one row; an
    empty document encodes the zero vector.
    """

    def __init__(self, vocab: Sequence[str], dim: int = 64, emb_dim: int = 64):
        self.vocab = tuple(vocab)
        self.dim = dim
        self.emb_dim = emb_dim
        self.index = {w: i + 1 for i, w in enumerate(self.vocab)}  # 0 = UNK

    @classmethod
    def frequency_vocab(cls, docs: Sequence[TokenizedDoc], size: int = 5000) -> tuple[str, ...]:
        counts = Counter()
        for doc in docs:
            counts.update(doc.tokens)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return tuple(w for w, _ in ranked[:size])

    def init_params(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        k = 1.0 / np.sqrt(self.emb_dim)
        return {
            "emb": rng.uniform(-k, k, size=(len(self.vocab) + 1, self.emb_dim)),
            "w": rng.uniform(-k, k, size=(self.emb_dim, self.dim)),
            "b": np.zeros(self.dim),
        }

    def _bag(self, docs: Sequence[TokenizedDoc]) -> np.ndarray:
        """B x (|vocab|+1) bag of words holding count / sqrt(n) per token."""
        width = len(self.vocab) + 1
        lengths = np.array([len(d.tokens) for d in docs], dtype=np.int64)
        ids = np.fromiter(
            (self.index.get(t, 0) for d in docs for t in d.tokens),
            dtype=np.int64, count=int(lengths.sum()),
        )
        rows = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
        counts = np.bincount(rows * width + ids, minlength=len(docs) * width)
        return counts.reshape(len(docs), width) / np.sqrt(np.maximum(lengths, 1))[:, None]

    def forward(self, docs, params):
        bag = self._bag(docs)
        xbar = bag @ params["emb"]
        out = np.tanh(xbar @ params["w"] + params["b"])
        return out, (bag, xbar, out)

    def backward(self, cache, d_out, params):
        bag, xbar, out = cache
        dpre = d_out * (1.0 - out * out)
        dxbar = dpre @ params["w"].T
        return {"emb": bag.T @ dxbar, "w": xbar.T @ dpre, "b": dpre.sum(axis=0)}

    def to_config(self) -> dict:
        return {
            "kind": "reference",
            "vocab": list(self.vocab),
            "dim": self.dim,
            "emb_dim": self.emb_dim,
        }


def pot_attention(
    m: np.ndarray, att_w: np.ndarray, att_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Attention over the lag columns of a (V, L) polarity matrix or a stack of them.

    Weights a = softmax(att_v' tanh(att_w m)) form a probability simplex over
    the lags; the pooled vector is m a.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2:
        raise ValueError(f"m must be (..., V, L), got {m.shape}")
    v_size = m.shape[-2]
    if att_w.shape != (v_size, v_size):
        raise ValueError(f"att_w must be {v_size}x{v_size}, got {att_w.shape}")
    if att_v.shape != (v_size,):
        raise ValueError(f"att_v must have length {v_size}, got {att_v.shape}")
    a = softmax(att_v @ np.tanh(att_w @ m))
    return a, (m @ a[..., None])[..., 0]


def multitask_loss(
    p_senti: np.ndarray,
    p_worth: np.ndarray,
    sentiment: int,
    worthiness: int | None,
    lam: float,
) -> tuple[float, dict]:
    """Masked multitask objective for one example.

    Labeled worthiness: lam * CE_senti + (1 - lam) * CE_worth; unlabeled:
    CE_senti alone (unscaled, so the sentiment gradient stays full-size).
    Probabilities are clamped at 1e-12 before the log; the breakdown flags
    when that fires.
    """
    ps = float(p_senti[sentiment])
    clamped = ps < PROB_FLOOR
    ce_senti = -np.log(max(ps, PROB_FLOOR))
    if worthiness is None:
        return float(ce_senti), {"ce_senti": float(ce_senti), "ce_worth": None, "clamped": clamped}
    pw = float(p_worth[worthiness])
    clamped = clamped or pw < PROB_FLOOR
    ce_worth = -np.log(max(pw, PROB_FLOOR))
    loss = lam * ce_senti + (1.0 - lam) * ce_worth
    return float(loss), {
        "ce_senti": float(ce_senti),
        "ce_worth": float(ce_worth),
        "clamped": clamped,
    }


@dataclass
class TrainingExample:
    doc: TokenizedDoc
    matrix: np.ndarray          # vocab x lags polarity matrix of the doc's week
    week: date
    sentiment: int              # 0 negative, 1 positive (the week's class)
    worthiness: int | None = None


class ExtractorModel:
    """Parameter container plus forward/backward passes.

    Parameter blocks: enc.* (encoder), att_w, att_v, dense_w, dense_b,
    senti_w, senti_b, worth_w, worth_b. pot_mu/pot_sigma are fixed
    standardization buffers, not trained.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        encoder: ReferenceEncoder,
        n_lags: int,
        hidden: int,
        lam: float,
        seed: int = 0,
    ):
        self.vocab = vocab
        self.encoder = encoder
        self.n_lags = n_lags
        self.hidden = hidden
        self.lam = lam
        v = len(vocab)
        d = encoder.dim
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for name, arr in encoder.init_params(rng).items():
            params[f"enc.{name}"] = arr
        # attention starts near pass-through: identity-plus-noise mixing,
        # zero gate (uniform lag weights)
        params["att_w"] = np.eye(v) + rng.normal(0.0, 0.01, size=(v, v))
        params["att_v"] = np.zeros(v)
        k = 1.0 / np.sqrt(d + v)
        params["dense_w"] = rng.uniform(-k, k, size=(d + v, hidden))
        params["dense_b"] = np.zeros(hidden)
        params["senti_w"] = np.zeros((hidden, 2))
        params["senti_b"] = np.zeros(2)
        params["worth_w"] = np.zeros((hidden, 2))
        params["worth_b"] = np.zeros(2)
        self.params = params
        self.pot_mu = np.zeros(v)
        self.pot_sigma = np.ones(v)

    def fit_pot_scaler(self, matrices: Sequence[np.ndarray]) -> None:
        """Standardization statistics for the pooled polarity vector.

        Computed under the initial uniform attention (the pooled vector is
        then the per-word lag mean), over the training matrices only.
        """
        pooled = np.stack([np.asarray(m, dtype=np.float64).mean(axis=1) for m in matrices])
        self.pot_mu = pooled.mean(axis=0)
        sigma = pooled.std(axis=0)
        sigma[sigma < 1e-12] = 1.0
        self.pot_sigma = sigma

    def forward(
        self, docs: Sequence[TokenizedDoc], matrices: np.ndarray, week: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Batch forward over a (W, V, L) table of week matrices; `week` is each
        document's (B,) index into it, None meaning one matrix per document.
        Attention runs once per table entry; documents gather its output."""
        p = self.params
        m = np.asarray(matrices, dtype=np.float64)
        if m.ndim != 3 or m.shape[1] != len(self.vocab) or m.shape[2] != self.n_lags:
            raise ValueError(
                f"matrices must be (W, {len(self.vocab)}, {self.n_lags}), got {m.shape}"
            )
        week = np.arange(len(m)) if week is None else np.asarray(week, dtype=np.intp)
        vcls, enc_cache = self.encoder.forward(docs, _sub(p, "enc."))
        a, pooled = pot_attention(m, p["att_w"], p["att_v"])
        vpot = (pooled[week] - self.pot_mu) / self.pot_sigma
        u = np.concatenate([vcls, vpot], axis=1)
        q = u @ p["dense_w"] + p["dense_b"]
        r = np.maximum(q, 0.0)
        ps = softmax(r @ p["senti_w"] + p["senti_b"], axis=1)
        pw = softmax(r @ p["worth_w"] + p["worth_b"], axis=1)
        cache = {"m": m, "week": week, "a": a, "enc_cache": enc_cache,
                 "u": u, "q": q, "r": r, "ps": ps, "pw": pw}
        return ps, pw, cache

    def batch_loss(self, batch: Sequence[TrainingExample]) -> float:
        loss, _, _ = self._loss_forward(batch)
        return loss

    def _loss_forward(self, batch):
        ps, pw, cache = self.forward(*_week_table(batch))
        n = len(batch)
        total = 0.0
        clamped = False
        for i, ex in enumerate(batch):
            li, breakdown = multitask_loss(ps[i], pw[i], ex.sentiment, ex.worthiness, self.lam)
            total += li
            clamped = clamped or breakdown["clamped"]
        return total / n, cache, clamped

    def loss_and_grads(
        self, batch: Sequence[TrainingExample]
    ) -> tuple[float, dict[str, np.ndarray]]:
        loss, cache, _ = self._loss_forward(batch)
        p = self.params
        n = len(batch)
        ps, pw, r, q, u = cache["ps"], cache["pw"], cache["r"], cache["q"], cache["u"]
        m, week, a = cache["m"], cache["week"], cache["a"]

        labeled = np.array([ex.worthiness is not None for ex in batch])
        ys = np.eye(2)[[ex.sentiment for ex in batch]]
        yw = np.eye(2)[[ex.worthiness or 0 for ex in batch]] * labeled[:, None]
        cs = np.where(labeled, self.lam, 1.0)
        cw = np.where(labeled, 1.0 - self.lam, 0.0)
        dls = (ps - ys) * cs[:, None] / n
        dlw = (pw - yw) * cw[:, None] / n

        grads: dict[str, np.ndarray] = {}
        grads["senti_w"] = r.T @ dls
        grads["senti_b"] = dls.sum(axis=0)
        grads["worth_w"] = r.T @ dlw
        grads["worth_b"] = dlw.sum(axis=0)
        dr = dls @ p["senti_w"].T + dlw @ p["worth_w"].T
        dq = dr * (q > 0.0)
        grads["dense_w"] = u.T @ dq
        grads["dense_b"] = dq.sum(axis=0)
        du = dq @ p["dense_w"].T
        d = self.encoder.dim
        dvcls = du[:, :d]
        # attention backward once per table entry: rows sharing a week add up
        dpooled = np.zeros((len(m), len(self.vocab)))
        np.add.at(dpooled, week, du[:, d:] / self.pot_sigma)
        da = (dpooled[:, None, :] @ m)[:, 0, :]
        ds = a * (da - (a * da).sum(axis=1, keepdims=True))
        t = np.tanh(p["att_w"] @ m)
        grads["att_v"] = _lag_columns(t) @ ds.reshape(-1)
        dz = p["att_v"][:, None] * ds[:, None, :] * (1.0 - t * t)
        grads["att_w"] = _lag_columns(dz) @ _lag_columns(m).T
        for name, g in self.encoder.backward(cache["enc_cache"], dvcls, _sub(p, "enc.")).items():
            grads[f"enc.{name}"] = g
        return loss, grads

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params: Mapping[str, np.ndarray]) -> None:
        for k in self.params:
            self.params[k][...] = params[k]


def _sub(params: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def _lag_columns(x: np.ndarray) -> np.ndarray:
    """(W, V, L) -> (V, W*L): every lag column of every table entry."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], -1)


def _week_table(batch: Sequence[TrainingExample]):
    """Docs, the distinct matrices (by identity, first seen first) and each row's index."""
    table = {id(ex.matrix): ex.matrix for ex in batch}
    slot = {key: i for i, key in enumerate(table)}
    week = np.array([slot[id(ex.matrix)] for ex in batch], dtype=np.intp)
    return [ex.doc for ex in batch], np.stack(list(table.values())), week


def sentiment_score(model: ExtractorModel, doc: TokenizedDoc, matrix: np.ndarray) -> float:
    """P(positive market sentiment) for one article, in [0, 1]."""
    ps, _, _ = model.forward([doc], np.asarray(matrix)[None, :, :])
    return float(ps[0, 1])


def gradient_check(
    model: ExtractorModel,
    example: TrainingExample | Sequence[TrainingExample],
    eps: float = 1e-5,
    corrupt_block: str | None = None,
    corrupt_amount: float = 0.05,
    detail: bool = False,
):
    """Max relative error of analytic gradients vs central finite differences.

    The error is |a - fd| / max(|a| + |fd|, 1e-3), so finite-difference noise
    on near-zero coordinates cannot dominate. `corrupt_block` additively
    perturbs one analytic block first (mutation-testing aid: a correct
    implementation scores < 1e-4 while a corrupted block scores > 1e-2).
    `example` may also be a batch of examples.
    """
    batch = [example] if isinstance(example, TrainingExample) else list(example)
    _, grads = model.loss_and_grads(batch)
    if corrupt_block is not None:
        if corrupt_block not in grads:
            raise ValueError(f"unknown parameter block {corrupt_block!r}")
        grads[corrupt_block] = grads[corrupt_block] + corrupt_amount
    errors: dict[str, float] = {}
    for name, param in model.params.items():
        g = grads[name]
        worst = 0.0
        flat = param.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = model.batch_loss(batch)
            flat[i] = orig - eps
            lm = model.batch_loss(batch)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * eps)
            err = abs(gflat[i] - fd) / max(abs(gflat[i]) + abs(fd), 1e-3)
            if err > worst:
                worst = err
        errors[name] = worst
    max_error = max(errors.values())
    return (max_error, errors) if detail else max_error


@dataclass
class TrainedExtractor:
    model: ExtractorModel
    train_weeks: tuple[date, ...]
    dev_weeks: tuple[date, ...]
    history: list[dict] = field(default_factory=list)


def split_dev_weeks(
    weeks: Sequence[date], dev_fraction: float, seed: int
) -> tuple[tuple[date, ...], tuple[date, ...]]:
    """Hold out whole weeks (never individual articles) for the dev set."""
    ordered = sorted(set(weeks))
    if len(ordered) < 2:
        raise DataError("need at least 2 distinct weeks to split off a dev set")
    n_dev = max(1, round(dev_fraction * len(ordered)))
    rng = np.random.default_rng([seed, 1])
    dev_idx = set(rng.choice(len(ordered), size=n_dev, replace=False).tolist())
    train = tuple(w for i, w in enumerate(ordered) if i not in dev_idx)
    dev = tuple(w for i, w in enumerate(ordered) if i in dev_idx)
    return train, dev


def select_extractor_weeks(
    labels: Sequence[WeeklyLabel],
    seed: int,
    max_weeks_per_class: int | None = None,
) -> tuple[date, ...]:
    """Weeks eligible for extractor training, optionally capped per class.

    The cap is a seeded without-replacement sample so capped selections stay
    spread over the whole period.
    """
    rng = np.random.default_rng([seed, 2])
    selected: list[date] = []
    for cls in ("positive", "negative"):
        anchors = sorted(l.week.anchor for l in labels if l.extractor_class == cls)
        if max_weeks_per_class is not None and len(anchors) > max_weeks_per_class:
            idx = sorted(rng.choice(len(anchors), size=max_weeks_per_class, replace=False).tolist())
            anchors = [anchors[i] for i in idx]
        selected.extend(anchors)
    return tuple(sorted(selected))


def _accuracy_on(model: ExtractorModel, examples: Sequence[TrainingExample], batch_size: int):
    hits_s = 0
    hits_w = 0
    n_w = 0
    loss_sum = 0.0
    for lo in range(0, len(examples), batch_size):
        chunk = examples[lo : lo + batch_size]
        ps, pw, _ = model.forward(*_week_table(chunk))
        pred_s = ps.argmax(axis=1)
        pred_w = pw.argmax(axis=1)
        for i, ex in enumerate(chunk):
            hits_s += int(pred_s[i] == ex.sentiment)
            loss_sum += multitask_loss(ps[i], pw[i], ex.sentiment, ex.worthiness, model.lam)[0]
            if ex.worthiness is not None:
                n_w += 1
                hits_w += int(pred_w[i] == ex.worthiness)
    acc_w = hits_w / n_w if n_w else None
    return hits_s / len(examples), acc_w, loss_sum / len(examples)


def train_extractor(
    examples: Sequence[TrainingExample],
    config: ExtractorConfig,
    vocab: Vocabulary,
    dev_weeks: Sequence[date],
) -> TrainedExtractor:
    """Mini-batch Adam training with the caller's whole-week dev holdout.

    `vocab` is the polarity vocabulary the example matrices were built
    against (rows of each matrix). Examples from `dev_weeks` only select the
    best epoch; every other example trains. Deterministic under a fixed seed
    and fixed example order; the returned model carries the parameters of
    the best dev-accuracy epoch.
    """
    if not examples:
        raise DataError("no training examples")
    dev_set = set(dev_weeks)
    dev_weeks = tuple(sorted(dev_set))
    train_ex = [ex for ex in examples if ex.week not in dev_set]
    dev_ex = [ex for ex in examples if ex.week in dev_set]
    if not dev_ex:
        raise DataError("no training example falls in a dev week")
    for cls in (0, 1):
        if not any(ex.sentiment == cls for ex in train_ex):
            raise DataError(f"training data has no sentiment-class-{cls} examples")
    train_weeks = tuple(sorted({ex.week for ex in train_ex}))

    enc_vocab = ReferenceEncoder.frequency_vocab([ex.doc for ex in train_ex], config.encoder_vocab)
    encoder = ReferenceEncoder(enc_vocab, dim=config.dim, emb_dim=config.emb_dim)
    n_lags = train_ex[0].matrix.shape[1]
    if train_ex[0].matrix.shape[0] != len(vocab):
        raise DataError(
            f"example matrices have {train_ex[0].matrix.shape[0]} rows "
            f"but the vocabulary has {len(vocab)} words"
        )
    model = ExtractorModel(
        vocab=vocab, encoder=encoder, n_lags=n_lags,
        hidden=config.hidden, lam=config.lam, seed=config.seed,
    )
    model.fit_pot_scaler([ex.matrix for ex in train_ex])

    rng = np.random.default_rng([config.seed, 3])
    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    step = 0
    # best by dev accuracy; accuracy ties broken by lower dev loss, so a
    # model that keeps gaining margin after accuracy saturates still wins
    best_key = (-1.0, -float("inf"))
    best_params = model.copy_params()
    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_ex))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [train_ex[i] for i in order[lo : lo + config.batch_size]]
            loss, grads = model.loss_and_grads(batch)
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged: loss={loss} at epoch {epoch} batch {n_batches}"
                )
            step += 1
            b1, b2 = ADAM_BETA1, ADAM_BETA2
            for name, g in grads.items():
                adam_m[name] = b1 * adam_m[name] + (1 - b1) * g
                adam_v[name] = b2 * adam_v[name] + (1 - b2) * (g * g)
                mhat = adam_m[name] / (1 - b1 ** step)
                vhat = adam_v[name] / (1 - b2 ** step)
                model.params[name] -= config.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            epoch_loss += loss
            n_batches += 1
        acc_s, acc_w, dev_loss = _accuracy_on(model, dev_ex, config.batch_size)
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / max(n_batches, 1),
                "dev_acc_senti": acc_s,
                "dev_acc_worth": acc_w,
            }
        )
        key = (acc_s, -dev_loss)
        if key > best_key:
            best_key = key
            best_params = model.copy_params()
    model.set_params(best_params)
    return TrainedExtractor(
        model=model, train_weeks=train_weeks, dev_weeks=dev_weeks, history=history
    )


def write_train_log(history: Sequence[dict], path: str | Path) -> None:
    lines = ["epoch,train_loss,dev_acc_senti,dev_acc_worth\n"]
    for row in history:
        worth = "" if row["dev_acc_worth"] is None else repr(row["dev_acc_worth"])
        lines.append(f"{row['epoch']},{row['train_loss']!r},{row['dev_acc_senti']!r},{worth}\n")
    artifacts.write_text(path, "".join(lines))


def _sha256_words(words: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(words).encode("utf-8")).hexdigest()


def save_extractor(trained: TrainedExtractor, path: str | Path) -> None:
    """Single-file model artifact (`artifacts.write_arrays`): versioned header,
    vocabulary hashes, then the parameter arrays in name order,
    `pot_mu` and `pot_sigma`. Byte-identical for identical seeds and inputs."""
    model = trained.model
    arrays = [(n, model.params[n]) for n in sorted(model.params)]
    arrays += [("pot_mu", model.pot_mu), ("pot_sigma", model.pot_sigma)]
    header = {
        "encoder": model.encoder.to_config(),
        "vocab": list(model.vocab.words),
        "vocab_sha256": _sha256_words(model.vocab.words),
        "n_lags": model.n_lags,
        "hidden": model.hidden,
        "lam": model.lam,
        "train_weeks": [d.isoformat() for d in trained.train_weeks],
        "dev_weeks": [d.isoformat() for d in trained.dev_weeks],
    }
    artifacts.write_arrays(path, MODEL_MAGIC, header, arrays)


def load_extractor(path: str | Path) -> TrainedExtractor:
    return artifacts.read_arrays(path, MODEL_MAGIC, _parse_extractor)


def _parse_extractor(header: dict, arrays: dict[str, np.ndarray]) -> TrainedExtractor:
    if header["vocab_sha256"] != _sha256_words(header["vocab"]):
        raise ValueError("vocabulary does not match its recorded sha256")
    enc = header["encoder"]
    if enc["kind"] != "reference":
        raise ValueError(f"unknown encoder kind {enc['kind']!r}")
    encoder = ReferenceEncoder(enc["vocab"], dim=enc["dim"], emb_dim=enc["emb_dim"])
    vocab = Vocabulary(words=tuple(header["vocab"]))
    model = ExtractorModel(
        vocab=vocab, encoder=encoder, n_lags=header["n_lags"],
        hidden=header["hidden"], lam=header["lam"], seed=0,
    )
    model.pot_mu = arrays.pop("pot_mu")
    model.pot_sigma = arrays.pop("pot_sigma")
    model.set_params(arrays)
    return TrainedExtractor(
        model=model,
        train_weeks=tuple(date.fromisoformat(d) for d in header["train_weeks"]),
        dev_weeks=tuple(date.fromisoformat(d) for d in header["dev_weeks"]),
        history=[],
    )
