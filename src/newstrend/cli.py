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
import json
import sys
from collections import Counter
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

# numpy and the modules built on it (polarity, synth, extractor, metrics,
# summarizer) are imported inside the stages that use them, so `ingest` and
# `label` run without loading numpy
from . import artifacts
from .config import PipelineConfig, load_config
from .corpus import (
    ProxyRule, Vocabulary, assign_worthiness_proxy, build_vocabulary, clean_filter,
    ingest_news, read_news_jsonl, tokenize, write_news_jsonl, write_rejects_csv,
)
from .errors import ConfigError, DataError, NumericError, PipelineError
from .weeks import (
    CLASS_ORDER, attach_news, label_weeks, load_prices, make_policy,
    monday_anchors, read_weeks_csv, weekly_changes, weekday_autocorrelation,
    write_weeks_csv,
)

WEEKDAY_NAMES = ("monday", "tuesday", "wednesday", "thursday", "friday")
AUTOCORR_LAGS = (1, 5, 10, 20, 40)
# artifacts whose location is a `paths.*` config key rather than a workdir name
CONFIG_PATHS = {"news.jsonl": "news", "prices.csv": "prices"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


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
    p.add_argument("--word", action="append", default=[],
                   help="also track this word in pot.bin (repeatable)")
    sub.add_parser("train-extractor", parents=[common], help="train the sentiment extractor")
    sub.add_parser("score", parents=[common], help="score weekly sentiment (leakage-guarded)")
    sub.add_parser("train-summarizer", parents=[common], help="train the weekly trend classifier")
    sub.add_parser("evaluate", parents=[common], help="evaluate on the chronological test split")
    p = sub.add_parser("export-plot-data", parents=[common], help="export plot-ready CSVs")
    p.add_argument("--word", action="append", default=[],
                   help="export this word's trajectory (repeatable; pot.bin must track it)")
    p.add_argument("--from", dest="date_from", help="trajectory start (YYYY-MM or YYYY-MM-DD)")
    p.add_argument("--to", dest="date_to", help="trajectory end (YYYY-MM or YYYY-MM-DD)")
    return parser


def _path(config: PipelineConfig, workdir: Path, name: str) -> Path:
    # an absolute `paths.*` value replaces the workdir prefix
    key = CONFIG_PATHS.get(name)
    return workdir / (getattr(config.paths, key) if key else name)


def _parse_date(flag: str, value: str, end: bool = False) -> date:
    """YYYY-MM-DD, or YYYY-MM as the month's first (or with `end`, last) day."""
    try:
        if len(value) != 7:
            return date.fromisoformat(value)
        y, m = int(value[:4]), int(value[5:7])
        first = date(y, m, 1)  # also rejects a month outside 1..12
        return date(y + m // 12, m % 12 + 1, 1) - timedelta(days=1) if end else first
    except ValueError:
        raise ConfigError(f"{flag} {value!r} must look like YYYY-MM or YYYY-MM-DD") from None


def _load_week_data(config: PipelineConfig, workdir: Path):
    """Corpus + weeks with news attached and documents tokenized."""
    records = read_news_jsonl(workdir / "corpus.jsonl")
    labels = read_weeks_csv(workdir / "weeks.csv")
    attached = attach_news([lab.week for lab in labels], records)
    by_anchor = {w.anchor: w for w in attached}
    labels = sorted(
        (replace(lab, week=by_anchor[lab.week.anchor]) for lab in labels),
        key=lambda lab: lab.week.anchor,
    )
    records_by_id = {r.id: r for r in records}
    docs_by_id = {r.id: tokenize(r, config.tokenizer.max_tokens) for r in records}
    docs_by_week = {
        lab.week.anchor: [docs_by_id[i] for i in lab.week.news_ids] for lab in labels
    }
    return labels, records_by_id, docs_by_id, docs_by_week


def _extractor_split(config: PipelineConfig, labels):
    """Week selection shared by pot and train-extractor.

    Only weeks with a full lag history are eligible, and selected weeks
    without news are dropped, since they give no examples. pot ranks words on
    the train weeks and `train_extractor` holds out the dev weeks; this is the
    one place that splits them.
    """
    from .extractor import select_extractor_weeks, split_dev_weeks

    eligible = labels[config.polarity.n_lags - 1:]
    with_news = {lab.week.anchor for lab in eligible if lab.week.news_ids}
    picked = select_extractor_weeks(eligible, seed=config.extractor.seed,
                                    max_weeks_per_class=config.extractor.max_weeks_per_class)
    selected = tuple(anchor for anchor in picked if anchor in with_news)
    train_w, dev_w = split_dev_weeks(selected, config.extractor.dev_fraction, config.extractor.seed)
    return selected, train_w, dev_w


def _load_models_and_vocab(workdir: Path):
    from . import polarity

    path = workdir / "vocab.json"
    try:
        words = json.loads(path.read_text(encoding="utf-8"))["words"]
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise TypeError("'words' must be a list of strings")
        vocab = Vocabulary(words=tuple(words))  # checks that they are distinct
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read vocabulary {path}: {exc}") from None
    return polarity.PolarityModelSet.load(workdir / "pot.bin"), vocab


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
    result = ingest_news(_path(config, workdir, "news.jsonl"))
    cleaned = clean_filter(result.records, config.corpus)
    # one rule at a time, which labels exactly as all rules at once, to count each
    labeled, per_rule = cleaned, []
    for item in config.corpus.proxy_rules:  # shape checked by load_config
        cat, label, cap = item.split(":")
        before = labeled
        labeled = assign_worthiness_proxy(before, [ProxyRule(cat, int(label), int(cap))])
        n = sum(a.worthiness != b.worthiness for a, b in zip(before, labeled))
        per_rule.append(f"{item}={n}")
    write_news_jsonl(labeled, workdir / "corpus.jsonl")
    write_rejects_csv(result.rejected, workdir / "rejects.csv")
    n_pos = sum(1 for r in labeled if r.worthiness == 1)
    n_neg = sum(1 for r in labeled if r.worthiness == 0)
    print(f"ingest: {result.total} lines, {result.parsed} parsed, "
          f"{len(result.rejected)} rejected, {len(cleaned)} after cleaning")
    print(f"ingest: worthiness labels: {n_pos} positive, {n_neg} negative")
    print(f"ingest: records labeled per proxy rule: {', '.join(per_rule) or 'no rules'}")


def run_label(config: PipelineConfig, workdir: Path, args) -> None:
    prices = load_prices(_path(config, workdir, "prices.csv"))
    anchors = monday_anchors(prices, prices.first_date, prices.last_date)
    weeks = weekly_changes(prices, anchors)
    records = read_news_jsonl(workdir / "corpus.jsonl")
    weeks = attach_news(weeks, records)
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

    labels, _, _, docs_by_week = _load_week_data(config, workdir)
    _, train_w, _ = _extractor_split(config, labels)
    train_set = set(train_w)
    pos_docs, neg_docs = [], []
    for lab in labels:
        if lab.week.anchor not in train_set:
            continue
        bucket = pos_docs if lab.extractor_class == "positive" else neg_docs
        bucket.extend(docs_by_week[lab.week.anchor])
    ranking = polarity.tfidf_difference_ranking(pos_docs, neg_docs)
    vocab = build_vocabulary(pos_docs + neg_docs, ranking, config.polarity.vocab_size)
    tracked = set(vocab.words) | set(args.word)
    model_set = polarity.build_model_set(
        labels, docs_by_week, tracked,
        window_weeks=config.polarity.window_weeks,
        discount=config.polarity.discount,
    )
    model_set.save(workdir / "pot.bin")
    vocab_record = {
        "words": list(vocab.words),
        "ranking_head": [[w, s] for w, s in ranking[:50]],
        "n_train_weeks": len(train_w),
    }
    artifacts.write_text(workdir / "vocab.json",
                         json.dumps(vocab_record, sort_keys=True, indent=1) + "\n")
    print(f"pot: {len(model_set.anchors)} weekly models over {len(tracked)} words; "
          f"vocabulary {len(vocab)} words from {len(train_w)} training weeks")


def run_train_extractor(config: PipelineConfig, workdir: Path, args) -> None:
    from .extractor import TrainingExample, save_extractor, train_extractor, write_train_log

    labels, records_by_id, docs_by_id, _ = _load_week_data(config, workdir)
    model_set, vocab = _load_models_and_vocab(workdir)
    selected, train_w, dev_w = _extractor_split(config, labels)
    selected_set = set(selected)
    examples = []
    for lab in labels:
        anchor = lab.week.anchor
        if anchor not in selected_set:
            continue
        matrix = model_set.matrix(vocab, anchor, config.polarity.n_lags)
        senti = 1 if lab.extractor_class == "positive" else 0
        for rid in lab.week.news_ids:
            examples.append(
                TrainingExample(
                    doc=docs_by_id[rid], matrix=matrix, week=anchor,
                    sentiment=senti, worthiness=records_by_id[rid].worthiness,
                )
            )
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

    labels, _, docs_by_id, _ = _load_week_data(config, workdir)
    model_set, vocab = _load_models_and_vocab(workdir)
    trained = load_extractor(workdir / "extractor.model")
    if vocab.words != trained.model.vocab.words:
        raise DataError(
            f"{workdir / 'vocab.json'} is not the vocabulary that {workdir / 'extractor.model'} "
            f"was trained on; re-run `train-extractor`"
        )
    excluded = set(trained.train_weeks) | set(trained.dev_weeks)
    n_lags = config.polarity.n_lags
    batch = config.extractor.batch_size
    model = trained.model

    def score_articles(anchor, ids):
        matrix = model_set.matrix(vocab, anchor, n_lags)
        out = np.empty((len(ids), 2))
        for lo in range(0, len(ids), batch):
            chunk = ids[lo : lo + batch]
            docs = [docs_by_id[i] for i in chunk]
            ps, pw, _ = model.forward(docs, matrix[None], np.zeros(len(chunk), dtype=np.intp))
            out[lo : lo + len(chunk), 0] = ps[:, 1]
            out[lo : lo + len(chunk), 1] = pw[:, 1]
        return out

    dataset = build_summarizer_dataset(
        labels[n_lags - 1:], excluded, score_articles,
        n_sample=config.summarizer.n_sample,
        seed=config.summarizer.seed,
        target_offset=config.summarizer.target_offset,
    )
    write_weekly_sentiment_csv(dataset.rows, workdir / "weekly_sentiment.csv")
    reasons = dict(Counter(why for _, why in dataset.skipped))
    print(f"score: {len(dataset.rows)} weeks scored "
          f"(+{n_lags - 1} warmup weeks not eligible); skipped: {reasons}")


def run_train_summarizer(config: PipelineConfig, workdir: Path, args) -> None:
    from .summarizer import read_weekly_sentiment_csv, save_summarizer, train_summarizer

    rows = read_weekly_sentiment_csv(workdir / "weekly_sentiment.csv")
    model = train_summarizer(rows, config.summarizer)
    save_summarizer(model, workdir / "summarizer.model")
    print(f"train-summarizer: {model.kind} on {config.summarizer.train_weeks} weeks, "
          f"classes {model.classes}")


def run_evaluate(config: PipelineConfig, workdir: Path, args) -> None:
    from .metrics import format_report_text, report, write_report_csv
    from .summarizer import load_summarizer, predict_week, read_weekly_sentiment_csv

    rows = read_weekly_sentiment_csv(workdir / "weekly_sentiment.csv")
    model = load_summarizer(workdir / "summarizer.model")
    ordered = sorted(rows, key=lambda r: r.week)
    test = ordered[config.summarizer.train_weeks:]
    if not test:
        raise DataError("no test weeks beyond the training split; nothing to evaluate")
    predictions = [predict_week(model, r) for r in test]
    truths = [r.label for r in test]
    classes = [c for c in CLASS_ORDER if c in set(truths) | set(predictions)]
    detail = [
        {"anchor": r.week.isoformat(), "n_sampled": r.n_sampled,
         "overall_score": "%.10f" % r.overall_score, "true_class": r.label,
         "predicted_class": p}
        for r, p in zip(test, predictions)
    ]
    rep = report(predictions, truths, policy=config.labels.policy,
                 classes=classes, rows=detail)
    text = format_report_text(rep)
    artifacts.write_text(workdir / "report.txt", text)
    write_report_csv(rep, workdir / "report.csv")
    print(text, end="")


def run_export_plot_data(config: PipelineConfig, workdir: Path, args) -> None:
    from . import polarity
    from .metrics import pearson
    from .summarizer import read_weekly_sentiment_csv

    start = _parse_date("--from", args.date_from) if args.date_from else None
    end = _parse_date("--to", args.date_to, end=True) if args.date_to else None
    if args.word:
        pot_path = workdir / "pot.bin"
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
    plots.mkdir(exist_ok=True)
    written = {}

    sentiment_path = workdir / "weekly_sentiment.csv"
    weeks_path = workdir / "weeks.csv"
    if sentiment_path.exists() and weeks_path.exists():
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
        try:
            corr = pearson(scores, pcts)
            print(f"export-plot-data: overlay correlation "
                  f"(weekly sentiment vs next-week change): {corr:.4f}")
        except NumericError:
            pass

    prices_path = _path(config, workdir, "prices.csv")
    if prices_path.exists():
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

    flat = config.to_flat()
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
    "ingest": Stage(run_ingest, ("news.jsonl",), ("corpus.jsonl", "rejects.csv")),
    "label": Stage(run_label, ("prices.csv", "corpus.jsonl"), ("weeks.csv",)),
    "pot": Stage(run_pot, ("corpus.jsonl", "weeks.csv"), ("pot.bin", "vocab.json")),
    "train-extractor": Stage(
        run_train_extractor, ("corpus.jsonl", "weeks.csv", "pot.bin", "vocab.json"),
        ("extractor.model", "train_log.csv"),
    ),
    "score": Stage(
        run_score, ("corpus.jsonl", "weeks.csv", "pot.bin", "vocab.json", "extractor.model"),
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


def _run_stage(command: str, args) -> None:
    """Run one stage inside the frame that every stage shares."""
    stage = STAGES[command]
    config = load_config(args.config, args.set)
    workdir = Path(args.workdir) if args.workdir else Path(config.paths.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
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
            drift = [] if args.allow_config_drift else artifacts.config_drift(path, flat)
            if drift:
                print(
                    f"warning: config differs from the manifest of {path.name} on: "
                    f"{', '.join(drift)} (pass --allow-config-drift to silence)",
                    file=sys.stderr,
                )
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
