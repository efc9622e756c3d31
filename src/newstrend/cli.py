"""Batch command-line front end.

Every subcommand is one entry of the stage table `STAGES`: the artifacts it
reads, the artifacts it writes, and a function that does only the stage's
own work. One runner frames every stage the same way: load the config, take
the workdir lock, require each input (naming the stage that produces a
missing one), warn on config drift against each input's manifest, run, and
write beside each output a manifest of the sha256 of every input, the config
and the version. Re-runs with unchanged inputs are byte-identical. Exit
codes: 0 success, 1 usage/config, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path
from typing import Callable

# One BLAS thread unless the user chose a count. At this pipeline's matrix
# sizes a second thread saves no wall time but spins between calls, doubling
# a stage's CPU time, and artifacts no longer depend on the core count. Set
# on import, before any stage loads numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# numpy and the modules built on it (polarity, synth, extractor) are imported
# inside the stages that use them, so `ingest`, `label`, `train-summarizer`
# and `evaluate` run without loading numpy
from . import artifacts
from .config import PipelineConfig, load_config, parse_date
from .corpus import (
    ProxyRule, assign_worthiness_proxy, build_vocabulary, clean_filter,
    ingest_news, is_token, write_news_jsonl, write_rejects_csv,
)
from .errors import ConfigError, DataError, NumericError, PipelineError
from .tokens import TokensWriter, read_tokens
from .weeks import (
    CLASS_ORDER, attach_news, extractor_split, label_weeks, load_prices, make_policy,
    monday_anchors, read_weeks_csv, weekly_changes, weekday_autocorrelation, write_weeks_csv,
)

WEEKDAY_NAMES = ("monday", "tuesday", "wednesday", "thursday", "friday")
AUTOCORR_LAGS = (1, 5, 10, 20, 40)
# artifacts whose location is a `paths.*` config key rather than a workdir name
CONFIG_PATHS = {"news.jsonl": "news", "prices.csv": "prices"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _token_word(word: str) -> str:
    # a word tokenize never returns would track all zeros and name a bad path
    if not is_token(word):
        raise argparse.ArgumentTypeError(
            f"{word!r} is not a token: tokens are lowercase runs of a-z and 0-9, "
            f"not all digits")
    return word


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file of dotted keys")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("--workdir", help="artifact directory (default: paths.workdir)")
    common.add_argument("--force", action="store_true", help="ignore a stale workdir lock")
    common.add_argument("--allow-config-drift", action="store_true",
                        help="silence config/manifest mismatch warnings")

    parser = _Parser(prog="newstrend", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", parents=[common], help="generate a planted-signal corpus")
    sub.add_parser("ingest", parents=[common], help="parse, clean, and proxy-label the news")
    sub.add_parser("label", parents=[common], help="build the weekly Monday calendar")
    p = sub.add_parser("pot", parents=[common], help="build weekly polarity models + vocabulary")
    p.add_argument("--word", action="append", default=[], type=_token_word,
                   help="also track this word in pot.bin (repeatable)")
    sub.add_parser("train-extractor", parents=[common], help="train the sentiment extractor")
    sub.add_parser("score", parents=[common], help="score weekly sentiment (leakage-guarded)")
    sub.add_parser("train-summarizer", parents=[common], help="train the weekly trend classifier")
    sub.add_parser("evaluate", parents=[common], help="evaluate on the chronological test split")
    p = sub.add_parser("export-plot-data", parents=[common], help="export plot-ready CSVs")
    p.add_argument("--word", action="append", default=[], type=_token_word,
                   help="export this word's trajectory (repeatable; pot.bin must track it)")
    p.add_argument("--from", dest="date_from", help="trajectory start (YYYY-MM or YYYY-MM-DD)")
    p.add_argument("--to", dest="date_to", help="trajectory end (YYYY-MM or YYYY-MM-DD)")
    return parser


def _path(config: PipelineConfig, workdir: Path, name: str) -> Path:
    # an absolute `paths.*` value replaces the workdir prefix
    key = CONFIG_PATHS.get(name)
    return workdir / (getattr(config.paths, key) if key else name)


def _parse_date(flag: str, value: str, end: bool = False) -> date:
    try:
        return parse_date(value, end)
    except ValueError:
        raise ConfigError(f"{flag} {value!r} must look like YYYY-MM or YYYY-MM-DD") from None


def _load_week_data(workdir: Path):
    """Weeks with news attached, from `tokens.bin` and `weeks.csv` alone.

    Returns the week labels in anchor order, the corpus, and `positions(ids)`,
    the places of the records `ids` in it. The corpus holds the file's token
    ids; the documents `corpus.docs.take` returns copy theirs, so a stage
    that drops the corpus keeps the ids of only the records it took.
    """
    corpus = read_tokens(workdir / "tokens.bin")
    labels = read_weeks_csv(workdir / "weeks.csv")  # anchors strictly increase
    attached = attach_news([lab.week for lab in labels], zip(corpus.record_ids, corpus.days))
    # attach_news returns anchor order, so the two lists pair by position
    labels = [replace(lab, week=week) for lab, week in zip(labels, attached)]
    position = {rid: i for i, rid in enumerate(corpus.record_ids)}

    def positions(ids):
        return [position[i] for i in ids]

    return labels, corpus, positions


def _load_pot(workdir: Path):
    """The `PolarityModelSet` of `pot.bin`. Call it after `_load_week_data`:
    importing `polarity` before the corpus is loaded raises the peak RSS of
    `train-extractor`, the lexicon bench workload's peak stage, by about
    0.16 MB there (10 alternating runs; it lowers deep's by about 0.18 MB)."""
    from . import polarity

    return polarity.PolarityModelSet.load(workdir / "pot.bin")


def run_synth(config: PipelineConfig, workdir: Path, args) -> None:
    from . import synth

    s = config.synth
    news_path = _path(config, workdir, "news.jsonl")
    prices_path = _path(config, workdir, "prices.csv")
    truth = synth.write_outputs(s, news_path, prices_path)
    print(f"synth: {s.weeks} news weeks, {s.articles_per_week} articles/week, "
          f"rho={s.rho} -> {news_path.name}, {prices_path.name}")
    print(f"synth: price series spans {truth.anchors[0]} .. {truth.anchors[-1]}")


def run_ingest(config: PipelineConfig, workdir: Path, args) -> None:
    """One pass over `news.jsonl`: each line is parsed, cleaned, proxy-labeled,
    tokenized and written to `corpus.jsonl` as it is read."""
    news_path = _path(config, workdir, "news.jsonl")
    items = config.corpus.proxy_rules  # shape checked by load_config
    rules = [ProxyRule(cat, int(label), int(cap))
             for cat, label, cap in (item.split(":") for item in items)]
    news = ingest_news(news_path)
    labeled, per_rule = assign_worthiness_proxy(clean_filter(news, config.corpus), rules)
    tokens = TokensWriter(config.tokenizer.max_tokens)

    def counts() -> str:
        return (f"{news.total} lines, {news.parsed} parsed, "
                f"{len(news.rejected)} rejected, {len(tokens.record_ids)} after cleaning")

    def kept():
        yield from map(tokens.add, labeled)
        if not tokens.record_ids:  # raised inside the write, so no file is written
            raise DataError(f"no news record of {news_path} survives ingest: {counts()}")

    write_news_jsonl(kept(), workdir / "corpus.jsonl")
    write_rejects_csv(news.rejected, workdir / "rejects.csv")
    # last, so the one output later stages read is replaced after the others
    tokens.write(workdir / "tokens.bin")
    print(f"ingest: {counts()}")
    print(f"ingest: worthiness labels: {tokens.worthiness.count(1)} positive, "
          f"{tokens.worthiness.count(0)} negative")
    tally = ", ".join(f"{item}={n}" for item, n in zip(items, per_rule))
    print(f"ingest: records labeled per proxy rule: {tally or 'no rules'}")


def run_label(config: PipelineConfig, workdir: Path, args) -> None:
    prices = load_prices(_path(config, workdir, "prices.csv"))
    anchors = monday_anchors(prices, prices.first_date, prices.last_date)
    weeks = weekly_changes(prices, anchors)
    policy = make_policy(config.labels.policy, config.labels.up, config.labels.down)
    labels = label_weeks(
        weeks, policy,
        extractor_threshold=config.extractor.threshold,
        pot_very=config.polarity.very_threshold,
        pot_mild=config.polarity.mild_threshold,
    )
    write_weeks_csv(labels, workdir / "weeks.csv")
    by_class = dict(Counter(lab.extractor_class for lab in labels))
    print(f"label: {len(labels)} weeks under policy {policy.name}; "
          f"extractor classes {by_class}")


def run_pot(config: PipelineConfig, workdir: Path, args) -> None:
    from . import polarity

    labels, corpus, positions = _load_week_data(workdir)
    _, train_w, _ = extractor_split(labels, config.extractor, config.polarity.n_lags)
    docs_by_week = {lab.week.anchor: corpus.docs.take(positions(lab.week.news_ids))
                    for lab in labels}
    del corpus, positions  # the file's token ids; the documents are copies
    train_set = set(train_w)
    pos_docs, neg_docs = [], []
    for lab in labels:
        if lab.week.anchor not in train_set:
            continue
        bucket = pos_docs if lab.extractor_class == "positive" else neg_docs
        bucket.extend(docs_by_week[lab.week.anchor])
    ranking = polarity.tfidf_difference_ranking(pos_docs, neg_docs)
    vocab = build_vocabulary(ranking, config.polarity.vocab_size)
    model_set = polarity.build_model_set(labels, docs_by_week, set(vocab.words) | set(args.word),
                                         config.polarity)
    model_set = replace(model_set, vocab=vocab, train_weeks=train_w)
    model_set.save(workdir / "pot.bin")
    print(f"pot: {len(model_set.anchors)} weekly models over {len(model_set.words)} words; "
          f"vocabulary {len(vocab)} words from {len(train_w)} training weeks")


def run_train_extractor(config: PipelineConfig, workdir: Path, args) -> None:
    from .extractor import TrainingExample, save_extractor, train_extractor, write_train_log

    labels, corpus, positions = _load_week_data(workdir)
    selected, train_w, dev_w = extractor_split(labels, config.extractor,
                                               config.polarity.n_lags)
    model_set = _load_pot(workdir)
    vocab = model_set.vocab
    if train_w != model_set.train_weeks:
        raise DataError(f"{workdir / 'pot.bin'} ranked its vocabulary on other training weeks "
                        f"than this config splits off; re-run `pot`")
    selected_set = set(selected)
    examples = []
    for lab in labels:
        anchor = lab.week.anchor
        if anchor not in selected_set:
            continue
        matrix = model_set.matrix(vocab, anchor, config.polarity.n_lags)
        senti = 1 if lab.extractor_class == "positive" else 0
        places = positions(lab.week.news_ids)
        for p, doc in zip(places, corpus.docs.take(places)):
            examples.append(
                TrainingExample(
                    doc=doc, matrix=matrix, week=anchor,
                    sentiment=senti, worthiness=corpus.worthiness[p],
                )
            )
    # the file's token ids, `pot.bin`'s scores and the week tables: training holds
    # only the examples, which hold the selected weeks' ids and matrices
    del corpus, positions, model_set, labels
    trained = train_extractor(examples, config.extractor, vocab, dev_w)
    save_extractor(trained, workdir / "extractor.model")
    write_train_log(trained.history, workdir / "train_log.csv")
    best = max(h["dev_acc_senti"] for h in trained.history)
    print(f"train-extractor: {len(examples)} examples from {len(selected)} weeks "
          f"({len(train_w)} train / {len(dev_w)} dev); best dev accuracy {best:.4f}")


def run_score(config: PipelineConfig, workdir: Path, args) -> None:
    import numpy as np

    from .extractor import load_extractor
    from .summarizer import build_summarizer_dataset, write_weekly_sentiment_csv

    labels, corpus, positions = _load_week_data(workdir)
    trained = load_extractor(workdir / "extractor.model")
    model_set = _load_pot(workdir)
    vocab = model_set.vocab
    if vocab != trained.model.vocab:
        raise DataError(
            f"the vocabulary of {workdir / 'pot.bin'} is not the one that "
            f"{workdir / 'extractor.model'} was trained on; re-run `train-extractor`"
        )
    excluded = set(trained.train_weeks) | set(trained.dev_weeks)
    model = trained.model
    n_lags = model.n_lags  # the lag count it was trained on, whatever the config says
    batch = config.extractor.batch_size

    def score_articles(anchor, ids):
        matrix = model_set.matrix(vocab, anchor, n_lags)
        out = np.empty(len(ids))
        for lo in range(0, len(ids), batch):
            chunk = ids[lo : lo + batch]
            docs = corpus.docs.take(positions(chunk))
            ps, _, _ = model.forward(docs, matrix[None], np.zeros(len(chunk), dtype=np.intp))
            out[lo : lo + len(chunk)] = ps[:, 1]
        return out

    dataset = build_summarizer_dataset(labels[n_lags - 1:], excluded, score_articles,
                                       config.summarizer)
    write_weekly_sentiment_csv(dataset.rows, workdir / "weekly_sentiment.csv")
    reasons = dict(Counter(why for _, why in dataset.skipped))
    print(f"score: {len(dataset.rows)} weeks scored "
          f"(+{n_lags - 1} warmup weeks not eligible); skipped: {reasons}")


def run_train_summarizer(config: PipelineConfig, workdir: Path, args) -> None:
    from .summarizer import read_weekly_sentiment_csv, save_summarizer, train_summarizer

    rows = read_weekly_sentiment_csv(workdir / "weekly_sentiment.csv")
    model = train_summarizer(rows, config.summarizer)
    save_summarizer(model, workdir / "summarizer.model")
    print(f"train-summarizer: fit on {config.summarizer.train_weeks} weeks, "
          f"classes {model.classes}")


def run_evaluate(config: PipelineConfig, workdir: Path, args) -> None:
    from .metrics import format_report_text, report
    from .summarizer import (
        load_summarizer, predict_week, read_weekly_sentiment_csv, rows_after_training,
    )

    rows = read_weekly_sentiment_csv(workdir / "weekly_sentiment.csv")
    model = load_summarizer(workdir / "summarizer.model")
    test = rows_after_training(rows, model)
    predictions = [predict_week(model, r) for r in test]
    truths = [r.label for r in test]
    classes = [c for c in CLASS_ORDER if c in set(truths) | set(predictions)]
    text = format_report_text(report(predictions, truths, policy=config.labels.policy,
                                     classes=classes))
    artifacts.write_text(workdir / "report.txt", text)
    artifacts.write_csv(
        workdir / "report.csv",
        ["anchor", "n_sampled", "overall_score", "true_class", "predicted_class"],
        ([r.week.isoformat(), r.n_sampled, "%.10f" % r.overall_score, r.label, p]
         for r, p in zip(test, predictions)),
    )
    print(text, end="")


def run_export_plot_data(config: PipelineConfig, workdir: Path, args) -> None:
    from . import polarity
    from .metrics import pearson
    from .summarizer import read_weekly_sentiment_csv

    if (args.date_from or args.date_to) and not args.word:
        raise ConfigError("--from and --to bound --word trajectories; pass --word with them")
    start = _parse_date("--from", args.date_from) if args.date_from else None
    end = _parse_date("--to", args.date_to, end=True) if args.date_to else None
    if start is not None and end is not None and start > end:
        raise ConfigError(f"--from {args.date_from!r} is after --to {args.date_to!r}")
    flat = config.to_flat()
    if args.word:
        pot_path = workdir / "pot.bin"
        _warn_on_drift(pot_path, flat, args)
        model_set = polarity.PolarityModelSet.load(pot_path)
        for word in args.word:
            if word not in model_set.words:
                raise DataError(f"{pot_path} does not track the word {word!r}; "
                                f"`pot --word {word}` tracks it")

    def digests(*names):
        return {Path(n).stem: artifacts.sha256_file(_path(config, workdir, n)) for n in names}

    # outputs depend on which inputs exist, so this stage writes its own
    # manifests; `written` maps each output to the digests of its inputs
    plots = workdir / "plots"
    try:
        plots.mkdir(exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {plots}: {exc.strerror or exc}") from None
    written = {}

    sentiment_path = workdir / "weekly_sentiment.csv"
    weeks_path = workdir / "weeks.csv"
    if sentiment_path.exists() and weeks_path.exists():
        for path in (sentiment_path, weeks_path):
            _warn_on_drift(path, flat, args)
        rows = read_weekly_sentiment_csv(sentiment_path)
        labels = read_weeks_csv(weeks_path)
        index = {lab.week.anchor: i for i, lab in enumerate(labels)}
        offset = config.summarizer.target_offset
        out = plots / "overlay.csv"
        scores, pcts, lines = [], [], ["anchor,overall_score,target_week_pct_change\n"]
        for row in rows:
            j = index.get(row.week, -1) + offset
            if row.week in index and 0 <= j < len(labels):
                pct = labels[j].week.pct_change
                scores.append(row.overall_score)
                pcts.append(pct)
                lines.append(f"{row.week.isoformat()},{row.overall_score!r},{'%.8f' % pct}\n")
        artifacts.write_text(out, "".join(lines))
        written[out] = digests("weekly_sentiment.csv", "weeks.csv")
        target = "next-week change" if offset == 1 else f"change {offset} weeks ahead"
        try:
            corr = pearson(scores, pcts)
            print(f"export-plot-data: overlay correlation "
                  f"(weekly sentiment vs {target}): {corr:.4f}")
        except NumericError:
            pass

    prices_path = _path(config, workdir, "prices.csv")
    if prices_path.exists():
        _warn_on_drift(prices_path, flat, args)
        prices = load_prices(prices_path)
        out = plots / "weekday_autocorr.csv"
        lines = ["weekday,lag,autocorrelation\n"]
        for wd, name in enumerate(WEEKDAY_NAMES):
            for lag in AUTOCORR_LAGS:
                try:
                    value = weekday_autocorrelation(prices, wd, lag)
                except DataError:
                    continue
                lines.append(f"{name},{lag},{'' if value is None else '%.6f' % value}\n")
        artifacts.write_text(out, "".join(lines))
        written[out] = digests("prices.csv")

    for word in args.word:
        out = plots / f"trajectory_{word}.csv"
        polarity.write_trajectory_csv(model_set.trajectory(word, start, end), word, out)
        written[out] = digests("pot.bin")

    for path, inputs in written.items():
        artifacts.write_manifest(path, "export-plot-data", flat, inputs)
    print(f"export-plot-data: wrote {', '.join(p.name for p in written) or 'nothing'}")


@dataclass(frozen=True)
class Stage:
    """One subcommand: `run(config, workdir, args)` reads `inputs` and writes
    `outputs` (workdir names, or the `paths.*` files in CONFIG_PATHS)."""

    run: Callable[[PipelineConfig, Path, argparse.Namespace], None]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()


STAGES = {
    "synth": Stage(run_synth, (), ("news.jsonl", "prices.csv")),
    "ingest": Stage(run_ingest, ("news.jsonl",), ("corpus.jsonl", "tokens.bin", "rejects.csv")),
    "label": Stage(run_label, ("prices.csv",), ("weeks.csv",)),
    "pot": Stage(run_pot, ("tokens.bin", "weeks.csv"), ("pot.bin",)),
    "train-extractor": Stage(
        run_train_extractor, ("tokens.bin", "weeks.csv", "pot.bin"),
        ("extractor.model", "train_log.csv"),
    ),
    "score": Stage(
        run_score, ("tokens.bin", "weeks.csv", "pot.bin", "extractor.model"),
        ("weekly_sentiment.csv",),
    ),
    "train-summarizer": Stage(
        run_train_summarizer, ("weekly_sentiment.csv",), ("summarizer.model",)
    ),
    "evaluate": Stage(
        run_evaluate, ("weekly_sentiment.csv", "summarizer.model"), ("report.txt", "report.csv")
    ),
    "export-plot-data": Stage(run_export_plot_data),
}


def _warn_on_drift(path: Path, flat: dict, args) -> None:
    """Warn where `flat` differs from the config in the manifest of `path`."""
    drift = [] if args.allow_config_drift else artifacts.config_drift(path, flat)
    if drift:
        print(f"warning: config differs from the manifest of {path.name} on: "
              f"{', '.join(drift)} (pass --allow-config-drift to silence)", file=sys.stderr)


def _run_stage(command: str, args) -> None:
    """Run one stage inside the frame that every stage shares."""
    stage = STAGES[command]
    config = load_config(args.config, args.set)
    workdir = Path(args.workdir) if args.workdir else Path(config.paths.workdir)
    try:
        workdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the workdir {workdir}: {exc.strerror or exc}") from None
    flat = config.to_flat()
    with artifacts.workdir_lock(workdir, args.force):
        inputs = {}
        for name in stage.inputs:
            path = _path(config, workdir, name)
            if not path.exists():
                producer = next(c for c, s in STAGES.items() if name in s.outputs)
                hint = f" (or set paths.{CONFIG_PATHS[name]})" if name in CONFIG_PATHS else ""
                raise DataError(
                    f"`{command}` needs {name!r}, which is missing at {path}; "
                    f"run `{producer}` first{hint}"
                )
            inputs[Path(name).stem] = path
            _warn_on_drift(path, flat, args)
        digests = {key: artifacts.sha256_file(path) for key, path in inputs.items()}
        stage.run(config, workdir, args)
        for name in stage.outputs:
            artifacts.write_manifest(_path(config, workdir, name), command, flat, digests)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _run_stage(args.command, args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
