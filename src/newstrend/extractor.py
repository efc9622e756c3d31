"""Per-article sentiment extractor.

Architecture: a bag-of-words text encoder produces a dense article vector; the
article's week gets a vocab-by-lag polarity matrix, pooled over lags by a
small attention (softmax(v' tanh(W M)) weights, pooled vector M a); the
standardized pooled polarity vector is concatenated with the encoder output,
passed through one rectified dense layer, and read out by two softmax heads:
sentiment (negative/positive) and worthiness (irrelevant/relevant). A batch
runs the attention once per distinct week matrix, not per article: W M for
all of them is one matrix product over every lag column of every matrix,
which reads W once. The encoder is one bag-of-words matrix product.

Training minimizes a masked multitask objective: for articles with a
worthiness label, lam * CE_sentiment + (1 - lam) * CE_worthiness; for the
rest, plain CE_sentiment (the worthiness loss is skipped entirely, so those
examples contribute exactly zero gradient to the worthiness head).

All gradients are hand-derived and checked against central finite
differences (see gradient_check). Everything is float64 and deterministic
under a fixed seed. The parameters are named views into one flat buffer,
and Adam's two moments are buffers of the same layout. No buffer holds the
whole gradient: backward hands each block's gradient to a sink once it has
read that block's parameters for the last time, in the order heads (the
four blocks, side by side at the end of the buffer, as one slice), dense
layer, attention gate, attention mixing, encoder projection, bias and
embedding, and a block of more than ADAM_BLOCK elements goes in slices of
whole rows. In training the sink is Adam's update of that slice, a few
in-place array operations with one slice of scratch. A step holds only
what the rest of backward still reads: forward adds the dense bias and
takes the ReLU in place, backward builds dq in dr and the attention's dz
in its tanh, and it drops each forward array after its last read. The
week matrices are kept only as the attention's lag columns, and the bag
of words is whole only while the encoder's forward product reads it;
backward builds its columns one gradient slice at a time. Training holds
three buffers, one batch and one slice: the best epoch's parameters wait
in an unnamed temporary file until training ends. `param_shapes` gives the
layout to both ways of making a model: a seeded draw for training, straight
into `flat`, and `load_extractor`, which copies a saved model's arrays into
`flat` once, draws nothing and does not import `numpy.random`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from datetime import date
from functools import partial, reduce
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import artifacts
from .config import ExtractorConfig, parse_day
from .corpus import Vocabulary
from .errors import DataError, NumericError
from .tokens import EncodedDoc, concat_ids

PROB_FLOOR = 1e-12

MODEL_MAGIC = "newstrend-extractor 2"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per gradient slice and per piece of an Adam update: the piece's
# five arrays (parameters, gradient, two moments, scratch) take 1.25 MB,
# inside a 2 MB L2 cache
ADAM_BLOCK = 32_768


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

    def __init__(self, vocab: Sequence[str], dim: int = ExtractorConfig.dim,
                 emb_dim: int = ExtractorConfig.emb_dim):
        self.vocab = tuple(vocab)
        self.dim = dim
        self.emb_dim = emb_dim
        self.index = {w: i + 1 for i, w in enumerate(self.vocab)}  # 0 = UNK
        self._table: tuple[str, ...] | None = None  # the word table `_rows` maps
        self._rows = np.zeros(0, dtype=np.int64)

    @classmethod
    def frequency_vocab(cls, docs: Sequence[EncodedDoc],
                        size: int = ExtractorConfig.encoder_vocab) -> tuple[str, ...]:
        """The `size` most frequent words of `docs`, ties in word order."""
        words, ids, _ = concat_ids(docs)
        counts = np.bincount(ids, minlength=len(words))
        ranked = np.argsort(-counts, kind="stable")[: min(size, np.count_nonzero(counts))]
        return tuple(words[i] for i in ranked.tolist())

    def _bag(self, docs: Sequence[EncodedDoc]) -> _Bag:
        """The B x (|vocab|+1) bag of words of `docs`, built a range of columns at a time."""
        table, ids, lengths = concat_ids(docs)
        if table is not self._table:  # each word of the docs' table as its embedding row
            self._table = table
            self._rows = np.array([self.index.get(w, 0) for w in table], dtype=np.int64)
        return _Bag(np.repeat(np.arange(len(docs), dtype=np.int64), lengths),
                    self._rows[ids], lengths, len(self.vocab) + 1)

    def forward(self, docs, params):
        """The encoding of `docs` and what `backward` reads: the whole bag of
        words lives only while the product with the embedding reads it."""
        bag = self._bag(docs)
        xbar = bag[:, :] @ params["emb"]
        out = np.tanh(xbar @ params["w"] + params["b"])
        return out, (bag, xbar, out)

    def backward(self, cache, d_out, params, hand):
        """Give `hand(name, a, b=None)` the gradient of each of `params`: `a`,
        or a.T @ b (see `ExtractorModel._hand`), once `w` has been read."""
        bag, xbar, out = cache
        dpre = d_out * (1.0 - out * out)
        dxbar = dpre @ params["w"].T
        hand("w", xbar, dpre)
        hand("b", dpre.sum(axis=0))
        hand("emb", bag, dxbar)

    def to_config(self) -> dict:
        return {
            "kind": "reference",
            "vocab": list(self.vocab),
            "dim": self.dim,
            "emb_dim": self.emb_dim,
        }


class _Bag:
    """A batch's bag of words, B x width, kept as each token's document and
    column: `bag[:, lo:hi]` builds those columns, count / sqrt(n) per token,
    n being the document's length, so only the columns asked for exist."""

    def __init__(self, doc: np.ndarray, col: np.ndarray, lengths: np.ndarray, width: int):
        self.doc, self.col = doc, col
        self.scale = np.sqrt(np.maximum(lengths, 1))[:, None]
        self.shape = (len(lengths), width)

    def __getitem__(self, index: tuple[slice, slice]) -> np.ndarray:
        rows, cols = index
        lo, hi, step = cols.indices(self.shape[1])
        if rows != slice(None) or step != 1:
            raise IndexError("a bag of words gives all rows of a range of columns")
        n, width = self.shape[0], max(hi - lo, 0)
        doc, col = self.doc, self.col
        if width < self.shape[1]:  # the tokens of those columns
            keep = (col >= lo) & (col < hi)
            doc, col = doc[keep], col[keep] - lo
        # counted as sums of ones, exact in float64, so that the scaling runs in
        # place; with no token, bincount counts in int64 whatever the weights
        bag = np.bincount(doc * width + col, weights=np.ones(len(doc)), minlength=n * width)
        bag = bag.astype(np.float64, copy=False).reshape(n, width)
        bag /= self.scale
        return bag


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
    a, pooled, _, _ = _attend(m.reshape(-1, *m.shape[-2:]), att_w, att_v)
    return a.reshape(m.shape[:-2] + m.shape[-1:]), pooled.reshape(m.shape[:-1])


def _attend(
    matrices: Sequence[np.ndarray], att_w: np.ndarray, att_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`pot_attention`'s (N, L) weights and (N, V) pooled vectors of N (V, L)
    matrices, given as a sequence or a stack; x, their (V, N*L) lag columns
    side by side, matrix by matrix; and tanh(att_w x). The backward pass
    reuses the last two and reads the matrices as `_stacked(x, N)`, so no
    stack of them is kept beside x. One product over all lag columns reads
    `att_w` once, not once per matrix."""
    x = np.concatenate(matrices, axis=1, dtype=np.float64)
    v_size = x.shape[0]
    if att_w.shape != (v_size, v_size):
        raise ValueError(f"att_w must be {v_size}x{v_size}, got {att_w.shape}")
    if att_v.shape != (v_size,):
        raise ValueError(f"att_v must have length {v_size}, got {att_v.shape}")
    t = att_w @ x
    np.tanh(t, out=t)
    a = softmax((att_v @ t).reshape(len(matrices), -1))
    return a, (_stacked(x, len(matrices)) @ a[..., None])[..., 0], x, t


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
    doc: EncodedDoc
    matrix: np.ndarray          # vocab x lags polarity matrix of the doc's week
    week: date
    sentiment: int              # 0 negative, 1 positive (the week's class)
    worthiness: int | None = None


def param_shapes(encoder: ReferenceEncoder, v: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The parameter layout of an extractor over `v` polarity words: each
    block's name and shape, in the order the blocks lie in `flat`."""
    d, e = encoder.dim, encoder.emb_dim
    return {"enc.emb": (len(encoder.vocab) + 1, e), "enc.w": (e, d), "enc.b": (d,),
            "att_w": (v, v), "att_v": (v,), "dense_w": (d + v, hidden), "dense_b": (hidden,),
            "senti_w": (hidden, 2), "senti_b": (2,), "worth_w": (hidden, 2), "worth_b": (2,)}


class ExtractorModel:
    """Parameter container plus forward/backward passes.

    Parameter blocks: enc.* (encoder), att_w, att_v, dense_w, dense_b,
    senti_w, senti_b, worth_w, worth_b, laid out by `param_shapes`. `params`
    maps each name to a view into the one flat buffer `flat`, starting at
    `offsets[name]`; write a block in place (`[...] =`) to keep it there. A
    model is built on `flat` when it is given (the caller's buffer of this
    layout, not a copy), else drawn from `seed`.
    pot_mu/pot_sigma are fixed standardization buffers, not trained.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        encoder: ReferenceEncoder,
        n_lags: int,
        hidden: int,
        lam: float,
        seed: int = ExtractorConfig.seed,
        flat: np.ndarray | None = None,
    ):
        self.vocab = vocab
        self.encoder = encoder
        self.n_lags = n_lags
        self.hidden = hidden
        self.lam = lam
        v = len(vocab)
        self.shapes = param_shapes(encoder, v, hidden)
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        self.offsets = dict(zip(self.shapes, accumulate(sizes, initial=0)))
        self.size = sum(sizes)
        self.flat = self._draw(seed) if flat is None else flat
        self.params = self.views(self.flat)
        self.pot_mu = np.zeros(v)
        self.pot_sigma = np.ones(v)

    def _draw(self, seed: int) -> np.ndarray:
        """Seeded initial parameters as one flat buffer, each block drawn
        straight into its view of it. The encoder's embedding and projection
        are uniform in +-1/sqrt(emb_dim); attention starts near pass-through
        (identity-plus-noise mixing, a zero gate giving uniform lag weights);
        every bias and head starts at zero. The blocks are drawn in layout
        order, each holding the bits that `rng.uniform(-k, k)` and
        `np.eye(v) + rng.normal(0, 0.01)` would give it."""
        flat = np.zeros(self.size)
        p, v = self.views(flat), len(self.vocab)
        rng = np.random.default_rng(seed)
        k_enc = 1.0 / np.sqrt(self.encoder.emb_dim)
        _uniform(rng, p["enc.emb"], k_enc)
        _uniform(rng, p["enc.w"], k_enc)
        rng.standard_normal(out=p["att_w"])
        p["att_w"] *= 0.01
        p["att_w"] += 0.0  # normal's 0 + 0.01 g, which turns a -0.0 into 0.0
        p["att_w"].reshape(-1)[:: v + 1] += 1.0
        _uniform(rng, p["dense_w"], 1.0 / np.sqrt(self.encoder.dim + v))
        return flat

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter block's view into `flat`, a buffer of this model's layout."""
        return {name: flat[lo : lo + math.prod(shape)].reshape(shape)
                for (name, shape), lo in zip(self.shapes.items(), self.offsets.values())}

    def fit_pot_scaler(self, matrices: Sequence[np.ndarray]) -> None:
        """Standardization statistics for the pooled polarity vector.

        Computed under the initial uniform attention (the pooled vector is
        then the per-word lag mean), over the training matrices only, one
        row per entry of `matrices`. Each distinct matrix (by identity) is
        pooled once, and the sums run row by row in the order of `matrices`,
        as numpy's axis-0 `mean` and `std` of the stacked rows do for two or
        more words, without holding a row per entry.
        """
        pooled: dict[int, np.ndarray] = {}
        for m in matrices:
            if id(m) not in pooled:
                pooled[id(m)] = np.asarray(m, dtype=np.float64).mean(axis=1)
        zero, n = np.zeros(len(self.vocab)), len(matrices)
        self.pot_mu = sum((pooled[id(m)] for m in matrices), zero) / n
        sigma = np.sqrt(sum(((pooled[id(m)] - self.pot_mu) ** 2 for m in matrices), zero) / n)
        sigma[sigma < 1e-12] = 1.0
        self.pot_sigma = sigma

    def forward(
        self, docs: Sequence[EncodedDoc], matrices: Sequence[np.ndarray],
        week: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Batch forward over a table of W week matrices, each (V, L), as a
        sequence or a (W, V, L) stack; `week` is each document's (B,) index
        into it, None meaning one matrix per document. Attention runs once
        per table entry; documents gather its output."""
        p, shape = self.params, (len(self.vocab), self.n_lags)
        for m in matrices:
            if np.shape(m) != shape:
                raise ValueError(f"each week matrix must be {shape}, got {np.shape(m)}")
        week = np.arange(len(matrices)) if week is None else np.asarray(week, dtype=np.intp)
        vcls, enc_cache = self.encoder.forward(docs, _sub(p, "enc."))
        a, pooled, x, t = _attend(matrices, p["att_w"], p["att_v"])
        vpot = (pooled[week] - self.pot_mu) / self.pot_sigma
        u = np.concatenate([vcls, vpot], axis=1)
        r = u @ p["dense_w"]  # q, the dense layer's output, which the ReLU overwrites
        r += p["dense_b"]
        np.maximum(r, 0.0, out=r)
        ps = softmax(r @ p["senti_w"] + p["senti_b"], axis=1)
        pw = softmax(r @ p["worth_w"] + p["worth_b"], axis=1)
        cache = {"week": week, "a": a, "x": x, "t": t, "enc_cache": enc_cache,
                 "u": u, "r": r, "ps": ps, "pw": pw}
        return ps, pw, cache

    def batch_loss(self, batch: Sequence[TrainingExample]) -> float:
        losses, _ = self._loss_forward(batch)
        return reduce(add, losses.tolist(), 0.0) / len(batch)

    def _loss_forward(self, batch):
        """Each row's loss, bit for bit as `multitask_loss` gives it, and the
        forward cache, which also holds the rows' one-hot targets `ys`, `yw`
        and loss weights `cs`, `cw`. An unlabeled row's worthiness term is
        0 * -log(1), which keeps its sentiment loss's bits, signed zero too."""
        ps, pw, cache = self.forward(*_week_table(batch))
        rows = np.arange(len(batch))
        sentiment = np.array([ex.sentiment for ex in batch], dtype=np.intp)
        worthiness = np.array([ex.worthiness or 0 for ex in batch], dtype=np.intp)
        labeled = np.array([ex.worthiness is not None for ex in batch])
        cs = np.where(labeled, self.lam, 1.0)
        cw = np.where(labeled, 1.0 - self.lam, 0.0)
        p_worth = np.where(labeled, pw[rows, worthiness], 1.0)
        losses = (cs * -np.log(np.maximum(ps[rows, sentiment], PROB_FLOOR))
                  + cw * -np.log(np.maximum(p_worth, PROB_FLOOR)))
        cache.update(ys=np.eye(2)[sentiment], yw=np.eye(2)[worthiness] * labeled[:, None],
                     cs=cs, cw=cw)
        return losses, cache

    def loss_and_grads(self, batch: Sequence[TrainingExample], sink) -> float:
        """The batch loss. Its gradient goes to `sink(lo, g)`, g being the
        gradient of flat[lo : lo + g.size], which the sink may overwrite;
        each block goes once backward has read its parameters for the last
        time, so a sink may update them (`Adam.step`), and the four head
        blocks, which lie side by side, go as one slice. A loss that is not
        finite has no gradient: the sink gets nothing. Backward drops each
        forward array after its last read; dq is built in dr and the
        attention's dz in the forward cache's `t`."""
        losses, cache = self._loss_forward(batch)
        n = len(batch)
        loss = reduce(add, losses.tolist(), 0.0) / n
        if not math.isfinite(loss):
            return loss
        p, hand, pop = self.params, partial(self._hand, sink), cache.pop
        dls = (pop("ps") - pop("ys")) * pop("cs")[:, None] / n
        dlw = (pop("pw") - pop("yw")) * pop("cw")[:, None] / n

        r = pop("r")
        dr = dls @ p["senti_w"].T
        dr += dlw @ p["worth_w"].T
        # the four head blocks lie side by side at the end of `flat`
        sink(self.offsets["senti_w"], np.concatenate([
            (r.T @ dls).reshape(-1), dls.sum(axis=0), (r.T @ dlw).reshape(-1), dlw.sum(axis=0)]))
        # dq = dr * (q > 0) in dr's place: r, q's ReLU, is positive where q is
        dq = np.multiply(dr, r > 0.0, out=dr)
        del dls, dlw, r, dr
        du = dq @ p["dense_w"].T
        hand("dense_w", pop("u"), dq)
        hand("dense_b", dq.sum(axis=0))
        del dq
        d = self.encoder.dim
        # attention backward once per table entry: rows sharing a week add up
        a, x = pop("a"), pop("x")
        dpooled = np.zeros((len(a), len(self.vocab)))
        np.add.at(dpooled, pop("week"), du[:, d:] / self.pot_sigma)
        da = (dpooled[:, None, :] @ _stacked(x, len(a)))[:, 0, :]
        ds = (a * (da - (a * da).sum(axis=1, keepdims=True))).reshape(-1)
        del a, da, dpooled
        # t is read: dz = (att_v ds') * (1 - t t) takes its place, rounded as written
        dz = pop("t")
        d_att_v = dz @ ds
        np.multiply(dz, dz, out=dz)
        np.subtract(1.0, dz, out=dz)
        step = max(1, ADAM_BLOCK // len(ds))  # the outer product a gradient slice's rows at a time
        for lo in range(0, len(dz), step):
            np.multiply(np.multiply.outer(p["att_v"][lo : lo + step], ds), dz[lo : lo + step],
                        out=dz[lo : lo + step])
        del ds
        hand("att_v", d_att_v)
        hand("att_w", dz.T, x.T)
        del dz, x
        self.encoder.backward(pop("enc_cache"), du[:, :d], _sub(p, "enc."),
                              lambda name, *ab: hand("enc." + name, *ab))
        return loss

    def _hand(self, sink, name: str, a: np.ndarray, b: np.ndarray | None = None) -> None:
        """Give `sink` the gradient of block `name`: `a`, or a.T @ b computed
        in slices of whole rows, each of at most ADAM_BLOCK elements unless
        one row is longer. For a.T @ b, `a` need only give a range of its
        columns at a time, `a[:, lo:hi]`, as a `_Bag` does."""
        lo = self.offsets[name]
        if b is None:
            sink(lo, a)
            return
        width = b.shape[1]
        step = max(1, ADAM_BLOCK // width)
        for row in range(0, a.shape[1], step):
            sink(lo + row * width, a[:, row : row + step].T @ b)

    def gradient(self, batch: Sequence[TrainingExample]) -> tuple[float, dict[str, np.ndarray]]:
        """The batch loss and its whole gradient, block by block: views into
        one new buffer of the `flat` layout that `loss_and_grads` fills, NaN
        where it hands nothing."""
        grad = np.full_like(self.flat, np.nan)

        def fill(lo, g):
            grad[lo : lo + g.size] = g.reshape(-1)

        return self.loss_and_grads(batch, fill), self.views(grad)


def _uniform(rng: np.random.Generator, out: np.ndarray, k: float) -> None:
    """Fill `out` as `rng.uniform(-k, k, out.shape)` fills a new array: -k + 2k u."""
    rng.random(out=out)
    out *= 2 * k
    out -= k


def _sub(params: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}


def _stacked(x: np.ndarray, n: int) -> np.ndarray:
    """The (N, V, L) stack of the N matrices whose lag columns `x` holds, a view of it."""
    return x.reshape(len(x), n, -1).transpose(1, 0, 2)


def _week_table(batch: Sequence[TrainingExample]):
    """Docs, the distinct matrices (by identity, first seen first) and each row's index."""
    table = {id(ex.matrix): ex.matrix for ex in batch}
    slot = {key: i for i, key in enumerate(table)}
    week = np.array([slot[id(ex.matrix)] for ex in batch], dtype=np.intp)
    return [ex.doc for ex in batch], list(table.values()), week


def sentiment_score(model: ExtractorModel, doc: EncodedDoc, matrix: np.ndarray) -> float:
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
    _, grads = model.gradient(batch)
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


class Adam:
    """Adam over one flat parameter buffer, updated in place as the gradient
    arrives: the moments match the buffer's size, and a step updates each
    gradient slice it is handed in pieces of at most ADAM_BLOCK elements,
    each a few ufunc calls with `out=` into one scratch buffer of one piece
    and the gradient's piece, which it overwrites once it has read it. Each
    element rounds as the per-array expressions m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) (g g) and
    params -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) do."""

    def __init__(self, flat: np.ndarray, lr: float):
        self.flat, self.lr, self.t = flat, lr, 0
        self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
        self.tmp = np.empty_like(flat[:ADAM_BLOCK])

    def step(self):
        """Begin update t + 1 and return its sink, `update`, for
        `ExtractorModel.loss_and_grads`."""
        self.t += 1
        return self.update

    def update(self, lo: int, grad: np.ndarray) -> None:
        """The current step's update of flat[lo : lo + grad.size] from
        `grad`, that slice's gradient, which it leaves holding scratch values."""
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        grad = grad.reshape(-1)
        for at in range(0, grad.size, ADAM_BLOCK):
            g = grad[at : at + ADAM_BLOCK]
            part = slice(lo + at, lo + at + g.size)
            flat, m, v = self.flat[part], self.m[part], self.v[part]
            tmp = self.tmp[: g.size]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1 - b1, out=tmp)
            np.add(m, tmp, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=tmp)
            np.multiply(tmp, 1 - b2, out=tmp)
            np.add(v, tmp, out=v)
            np.divide(m, c1, out=tmp)
            np.multiply(tmp, self.lr, out=tmp)
            # g is read: its slice is the second scratch buffer from here on
            np.divide(v, c2, out=g)
            np.sqrt(g, out=g)
            np.add(g, ADAM_EPS, out=g)
            np.divide(tmp, g, out=tmp)
            np.subtract(flat, tmp, out=flat)


def _accuracy_on(model: ExtractorModel, examples: Sequence[TrainingExample], batch_size: int):
    """Sentiment accuracy, worthiness accuracy (None without labels) and mean loss."""
    hits_s = 0
    hits_w = 0
    n_w = 0
    loss_sum = 0.0
    for lo in range(0, len(examples), batch_size):
        losses, cache = model._loss_forward(examples[lo : lo + batch_size])
        ys, yw = cache["ys"], cache["yw"]
        labeled = yw.any(axis=1)
        hits_s += int((cache["ps"].argmax(axis=1) == ys.argmax(axis=1)).sum())
        hits_w += int((cache["pw"].argmax(axis=1) == yw.argmax(axis=1))[labeled].sum())
        n_w += int(labeled.sum())
        loss_sum = reduce(add, losses.tolist(), loss_sum)
    acc_w = hits_w / n_w if n_w else None
    return hits_s / len(examples), acc_w, loss_sum / len(examples)


def _train_epoch(model: ExtractorModel, adam: Adam,
                 examples: Sequence[TrainingExample], batch_size: int, epoch: int) -> float:
    """One Adam step per `batch_size` of `examples` in turn, each gradient
    slice applied as backward hands it over; the mean batch loss. A loss that
    is not finite is a NumericError, raised before its step changes anything."""
    epoch_loss = 0.0
    n_batches = 0
    for lo in range(0, len(examples), batch_size):
        loss = model.loss_and_grads(examples[lo : lo + batch_size], adam.step())
        if not np.isfinite(loss):
            raise NumericError(f"training diverged: loss={loss} at epoch {epoch} batch {n_batches}")
        epoch_loss += loss
        n_batches += 1
    return epoch_loss / max(n_batches, 1)


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
    the best dev-accuracy epoch. Training holds three buffers of the model's
    size: the parameters and Adam's two moments. An unusable
    temporary directory, where the best epoch waits, is a DataError.
    """
    import tempfile

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
    adam = Adam(model.flat, config.lr)
    # best by dev accuracy; accuracy ties broken by lower dev loss, so a
    # model that keeps gaining margin after accuracy saturates still wins
    best_key = (-1.0, -float("inf"))
    history: list[dict] = []
    try:  # the file's calls are the only I/O in this block
        # the best epoch's parameters wait in a file with no name, not in a
        # fifth buffer: each better epoch overwrites them, the end reads them once
        with tempfile.TemporaryFile() as best:
            for epoch in range(1, config.epochs + 1):
                shuffled = [train_ex[i] for i in rng.permutation(len(train_ex))]
                train_loss = _train_epoch(model, adam, shuffled, config.batch_size, epoch)
                acc_s, acc_w, dev_loss = _accuracy_on(model, dev_ex, config.batch_size)
                history.append({"epoch": epoch, "train_loss": train_loss,
                                "dev_acc_senti": acc_s, "dev_acc_worth": acc_w})
                key = (acc_s, -dev_loss)
                if key > best_key:
                    best_key = key
                    best.seek(0)
                    best.write(model.flat)
            best.seek(0)
            best.readinto(model.flat)
    except OSError as exc:
        raise DataError(
            f"cannot keep the best epoch's parameters in a temporary file: {exc}") from None
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
    """The model `save_extractor` wrote: its parameters are copied once, from
    the arrays read from the file into a new `flat`, with no random draw."""
    return artifacts.read_arrays(path, MODEL_MAGIC, _parse_extractor, "train-extractor")


def _parse_extractor(header: dict, arrays: dict[str, np.ndarray]) -> TrainedExtractor:
    if header["vocab_sha256"] != _sha256_words(header["vocab"]):
        raise ValueError("vocabulary does not match its recorded sha256")
    enc = header["encoder"]
    if enc["kind"] != "reference":
        raise ValueError(f"unknown encoder kind {enc['kind']!r}")
    if type(header["n_lags"]) is not int or header["n_lags"] < 1:  # `score` reads it
        raise ValueError(f"n_lags {header['n_lags']!r} is not a lag count of at least 1")
    encoder = ReferenceEncoder(enc["vocab"], dim=enc["dim"], emb_dim=enc["emb_dim"])
    vocab = Vocabulary(words=tuple(header["vocab"]))
    v = len(vocab)
    shapes = param_shapes(encoder, v, header["hidden"])
    for name, shape in {**shapes, "pot_mu": (v,), "pot_sigma": (v,)}.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{name} has shape {list(arrays[name].shape)}, not {list(shape)}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{name} holds a value that is not finite")
    # one copy of the parameter blocks, the model's one flat buffer
    model = ExtractorModel(
        vocab=vocab, encoder=encoder, n_lags=header["n_lags"], hidden=header["hidden"],
        lam=header["lam"], flat=np.concatenate([arrays[name].reshape(-1) for name in shapes]),
    )
    model.pot_mu, model.pot_sigma = arrays["pot_mu"], arrays["pot_sigma"]
    return TrainedExtractor(
        model=model,
        train_weeks=tuple(parse_day(d) for d in header["train_weeks"]),
        dev_weeks=tuple(parse_day(d) for d in header["dev_weeks"]),
        history=[],
    )
