"""Batch command-line front end.

Each subcommand reads prior-stage artifacts from the workdir, writes its own
artifacts with stable names plus a manifest (input hashes, config echo,
version), and is byte-identical on re-runs with unchanged inputs. Exit
codes: 0 success, 1 usage/config, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import artifacts, polarity, synth
from .config import PipelineConfig, load_config
from .corpus import (
    FilterRules, ProxyRule, assign_worthiness_proxy, build_vocabulary,
    Vocabulary, clean_filter, ingest_news, tokenize, write_news_jsonl,
    write_rejects_csv,
)
from .errors import ConfigError, DataError, NumericError, PipelineError
from .extractor import (
    TrainSettings, TrainingExample, load_extractor, save_extractor,
    select_extractor_weeks, split_dev_weeks, train_extractor, write_train_log,
)
from .metrics import pearson, report, write_report_csv, write_report_text
from .summarizer import (
    SummarizerSettings, WeeklySentiment, build_summarizer_dataset,
    load_summarizer, predict_week, read_weekly_sentiment_csv, save_summarizer,
    train_summarizer, write_weekly_sentiment_csv,
)
from .weeks import (
    CLASS_ORDER, attach_news, label_weeks, load_prices, make_policy,
    monday_anchors, read_weeks_csv, weekly_changes, weekday_autocorrelation,
    write_weeks_csv,
)

WEEKDAY_NAMES = ("monday", "tuesday", "wednesday", "thursday", "friday")
AUTOCORR_LAGS = (1, 5, 10, 20, 40)


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
    p = sub.add_parser("synth", parents=[common], help="generate a planted-signal corpus")
    p.add_argument("--seed", type=int, help="shorthand for --set synth.seed=N")
    sub.add_parser("ingest", parents=[common], help="parse, clean, and proxy-label the news")
    sub.add_parser("label", parents=[common], help="build the weekly Monday calendar")
    p = sub.add_parser("pot", parents=[common], help="build weekly polarity models + vocabulary")
    p.add_argument("--word", action="append", default=[], help="also track this word (repeatable)")
    p.add_argument("--from", dest="date_from", help="trajectory start (YYYY-MM or YYYY-MM-DD)")
    p.add_argument("--to", dest="date_to", help="trajectory end (YYYY-MM or YYYY-MM-DD)")
    sub.add_parser("train-extractor", parents=[common], help="train the sentiment extractor")
    sub.add_parser("score", parents=[common], help="score weekly sentiment (leakage-guarded)")
    sub.add_parser("train-summarizer", parents=[common], help="train the weekly trend classifier")
    sub.add_parser("evaluate", parents=[common], help="evaluate on the chronological test split")
    p = sub.add_parser("export-plot-data", parents=[common], help="export plot-ready CSVs")
    p.add_argument("--word", action="append", default=[], help="export this word's trajectory")
    return parser


def _context(args) -> tuple[PipelineConfig, Path]:
    config = load_config(args.config, args.set)
    workdir = Path(args.workdir) if args.workdir else Path(config.paths.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return config, workdir


def _resolve(workdir: Path, p: str) -> Path:
    path = Path(p)
    return path if path.is_absolute() else workdir / path


def _require(workdir: Path, name: str) -> Path:
    path = workdir / name
    if not path.exists():
        stage = artifacts.PRODUCERS.get(name, "an earlier stage")
        raise DataError(f"missing artifact {name!r} in {workdir}; run `{stage}` first")
    return path


def _warn_drift(paths: list[Path], config: PipelineConfig, allow: bool) -> None:
    if allow:
        return
    flat = config.to_flat()
    for path in paths:
        drift = artifacts.config_drift(path, flat)
        if drift:
            print(
                f"warning: config differs from the manifest of {path.name} on: "
                f"{', '.join(drift)} (pass --allow-config-drift to silence)",
                file=sys.stderr,
            )


def _parse_date(value: str, end: bool = False) -> date:
    if len(value) == 7:  # YYYY-MM
        y, m = int(value[:4]), int(value[5:7])
        if not end:
            return date(y, m, 1)
        nxt = date(y + 1, 1, 1) if m == 12 else date(y, m + 1, 1)
        return nxt - timedelta(days=1)
    return date.fromisoformat(value)


def _proxy_rules(config: PipelineConfig) -> list[ProxyRule]:
    rules = []
    for item in config.corpus.proxy_rules:
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(f"proxy rule {item!r} must look like category:label:cap")
        rules.append(ProxyRule(category=parts[0], label=int(parts[1]), cap=int(parts[2])))
    return rules


def _load_week_data(config: PipelineConfig, workdir: Path):
    """Corpus + weeks with news attached and documents tokenized."""
    corpus_path = _require(workdir, "corpus.jsonl")
    weeks_path = _require(workdir, "weeks.csv")
    records = ingest_news(corpus_path).records
    labels = read_weeks_csv(weeks_path)
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
    """Week selection shared by pot / train-extractor / score.

    Weeks without enough trailing history for a full lag matrix are not
    eligible, so every selected week can actually produce examples.
    """
    eligible = labels[config.polarity.n_lags - 1:]
    selected = select_extractor_weeks(
        eligible,
        seed=config.extractor.seed,
        max_weeks_per_class=config.extractor.max_weeks_per_class,
    )
    train_w, dev_w = split_dev_weeks(
        selected, config.extractor.dev_fraction, config.extractor.seed
    )
    return eligible, selected, train_w, dev_w


def cmd_synth(args) -> int:
    config, workdir = _context(args)
    if args.seed is not None:
        config.synth.seed = args.seed
    with artifacts.workdir_lock(workdir, args.force):
        settings = synth.SynthSettings(
            weeks=config.synth.weeks,
            articles_per_week=config.synth.articles_per_week,
            rho=config.synth.rho,
            seed=config.synth.seed,
            start=date.fromisoformat(config.synth.start),
            block_min_weeks=config.synth.block_min_weeks,
            block_max_weeks=config.synth.block_max_weeks,
            pct_scale=config.synth.pct_scale,
        )
        news_path = _resolve(workdir, config.paths.news)
        prices_path = _resolve(workdir, config.paths.prices)
        truth = synth.write_outputs(settings, news_path, prices_path)
        flat = config.to_flat()
        artifacts.write_manifest(news_path, "synth", flat, {})
        artifacts.write_manifest(prices_path, "synth", flat, {})
        print(f"synth: {settings.weeks} news weeks, {settings.articles_per_week} articles/week, "
              f"rho={settings.rho} -> {news_path.name}, {prices_path.name}")
        print(f"synth: price series spans {truth.anchors[0]} .. {truth.anchors[-1]}")
    return 0


def cmd_ingest(args) -> int:
    config, workdir = _context(args)
    with artifacts.workdir_lock(workdir, args.force):
        news_path = _resolve(workdir, config.paths.news)
        if not news_path.exists():
            raise DataError(
                f"news file {news_path} not found; run `synth` or set paths.news"
            )
        result = ingest_news(news_path)
        rules = FilterRules(
            min_content_chars=config.corpus.min_content_chars,
            max_content_chars=config.corpus.max_content_chars,
            url_blocklist=tuple(config.corpus.url_blocklist),
        )
        cleaned = clean_filter(result.records, rules)
        labeled = assign_worthiness_proxy(cleaned, _proxy_rules(config))
        out = workdir / "corpus.jsonl"
        write_news_jsonl(labeled, out)
        write_rejects_csv(result.rejected, workdir / "rejects.csv")
        flat = config.to_flat()
        artifacts.write_manifest(out, "ingest", flat, {"news": news_path})
        artifacts.write_manifest(workdir / "rejects.csv", "ingest", flat, {"news": news_path})
        n_pos = sum(1 for r in labeled if r.worthiness == 1)
        n_neg = sum(1 for r in labeled if r.worthiness == 0)
        print(f"ingest: {result.total} lines, {result.parsed} parsed, "
              f"{len(result.rejected)} rejected, {len(cleaned)} after cleaning")
        print(f"ingest: worthiness labels: {n_pos} positive, {n_neg} negative")
    return 0


def cmd_label(args) -> int:
    config, workdir = _context(args)
    with artifacts.workdir_lock(workdir, args.force):
        prices_path = _resolve(workdir, config.paths.prices)
        if not prices_path.exists():
            raise DataError(f"price file {prices_path} not found; run `synth` or set paths.prices")
        corpus_path = _require(workdir, "corpus.jsonl")
        _warn_drift([corpus_path], config, args.allow_config_drift)
        prices = load_prices(prices_path)
        anchors = monday_anchors(prices, prices.first_date, prices.last_date)
        weeks = weekly_changes(prices, anchors)
        records = ingest_news(corpus_path).records
        weeks = attach_news(weeks, records)
        policy = make_policy(config.labels.policy, config.labels.up, config.labels.down)
        labels = label_weeks(
            weeks, policy,
            extractor_threshold=config.extractor.threshold,
            pot_very=config.polarity.very_threshold,
            pot_mild=config.polarity.mild_threshold,
        )
        out = workdir / "weeks.csv"
        write_weeks_csv(labels, out)
        artifacts.write_manifest(
            out, "label", config.to_flat(), {"prices": prices_path, "corpus": corpus_path}
        )
        by_class = {}
        for lab in labels:
            by_class[lab.extractor_class] = by_class.get(lab.extractor_class, 0) + 1
        print(f"label: {len(labels)} weeks under policy {policy.name}; "
              f"extractor classes {by_class}")
    return 0


def cmd_pot(args) -> int:
    config, workdir = _context(args)
    with artifacts.workdir_lock(workdir, args.force):
        labels, _, docs_by_id, docs_by_week = _load_week_data(config, workdir)
        _warn_drift([workdir / "weeks.csv"], config, args.allow_config_drift)
        _, selected, train_w, _ = _extractor_split(config, labels)
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
        pot_dir = workdir / "pot"
        model_set.save(pot_dir)
        vocab_path = workdir / "vocab.json"
        vocab_path.write_text(
            json.dumps(
                {
                    "words": list(vocab.words),
                    "ranking_head": [[w, s] for w, s in ranking[:50]],
                    "n_train_weeks": len(train_w),
                },
                sort_keys=True, indent=1,
            ) + "\n",
            encoding="utf-8",
        )
        flat = config.to_flat()
        inputs = {"corpus": workdir / "corpus.jsonl", "weeks": workdir / "weeks.csv"}
        artifacts.write_manifest(pot_dir, "pot", flat, inputs)
        artifacts.write_manifest(vocab_path, "pot", flat, inputs)
        print(f"pot: {len(model_set.anchors)} weekly models over {len(tracked)} words; "
              f"vocabulary {len(vocab)} words from {len(train_w)} training weeks")
        for word in args.word:
            start = _parse_date(args.date_from) if args.date_from else None
            end = _parse_date(args.date_to, end=True) if args.date_to else None
            rows = model_set.trajectory(word, start, end)
            plots = workdir / "plots"
            plots.mkdir(exist_ok=True)
            out = plots / f"trajectory_{word}.csv"
            polarity.write_trajectory_csv(rows, word, out)
            print(f"pot: wrote {out} ({len(rows)} weeks)")
    return 0


def _load_models_and_vocab(workdir: Path):
    pot_dir = _require(workdir, "pot")
    vocab_path = _require(workdir, "vocab.json")
    vocab = Vocabulary(words=tuple(json.loads(vocab_path.read_text(encoding="utf-8"))["words"]))
    return polarity.PolarityModelSet.load(pot_dir), vocab


def cmd_train_extractor(args) -> int:
    config, workdir = _context(args)
    with artifacts.workdir_lock(workdir, args.force):
        labels, records_by_id, docs_by_id, _ = _load_week_data(config, workdir)
        _warn_drift([workdir / "weeks.csv", workdir / "vocab.json"], config,
                    args.allow_config_drift)
        model_set, vocab = _load_models_and_vocab(workdir)
        _, selected, train_w, dev_w = _extractor_split(config, labels)
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
        settings = TrainSettings(
            dim=config.extractor.dim,
            emb_dim=config.extractor.emb_dim,
            encoder_vocab=config.extractor.encoder_vocab,
            hidden=config.extractor.hidden,
            lam=config.extractor.lam,
            lr=config.effective_lr(),
            batch_size=config.extractor.batch_size,
            epochs=config.extractor.epochs,
            seed=config.extractor.seed,
            dev_fraction=config.extractor.dev_fraction,
        )
        trained = train_extractor(examples, settings, vocab)
        out = workdir / "extractor.model"
        save_extractor(trained, out, config_echo=config.to_flat())
        write_train_log(trained.history, workdir / "train_log.csv")
        flat = config.to_flat()
        inputs = {
            "corpus": workdir / "corpus.jsonl",
            "weeks": workdir / "weeks.csv",
            "vocab": workdir / "vocab.json",
        }
        artifacts.write_manifest(out, "train-extractor", flat, inputs)
        artifacts.write_manifest(workdir / "train_log.csv", "train-extractor", flat, inputs)
        best = max(h["dev_acc_senti"] for h in trained.history)
        print(f"train-extractor: {len(examples)} examples from {len(selected)} weeks "
              f"({len(train_w)} train / {len(dev_w)} dev); best dev accuracy {best:.4f}")
    return 0


def cmd_score(args) -> int:
    config, workdir = _context(args)
    with artifacts.workdir_lock(workdir, args.force):
        labels, _, docs_by_id, _ = _load_week_data(config, workdir)
        model_path = _require(workdir, "extractor.model")
        _warn_drift([model_path], config, args.allow_config_drift)
        model_set, vocab = _load_models_and_vocab(workdir)
        trained = load_extractor(model_path)
        excluded = set(trained.train_weeks) | set(trained.dev_weeks)
        eligible = labels[config.polarity.n_lags - 1:]
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
            eligible, excluded, score_articles,
            n_sample=config.summarizer.n_sample,
            seed=config.summarizer.seed,
            target_offset=config.summarizer.target_offset,
        )
        out = workdir / "weekly_sentiment.csv"
        write_weekly_sentiment_csv(dataset.rows, out)
        if config.summarizer.features == "extended":
            feats = workdir / "weekly_features.csv"
            with open(feats, "w", encoding="utf-8", newline="") as fh:
                fh.write("anchor,overall_score,score_std,frac_positive,worthiness_mean\n")
                for row in dataset.rows:
                    fh.write(
                        f"{row.week.isoformat()},{row.overall_score!r},{row.score_std!r},"
                        f"{row.frac_positive!r},{row.worthiness_mean!r}\n"
                    )
            artifacts.write_manifest(feats, "score", config.to_flat(), {"model": model_path})
        artifacts.write_manifest(out, "score", config.to_flat(), {"model": model_path})
        reasons = {}
        for _, why in dataset.skipped:
            reasons[why] = reasons.get(why, 0) + 1
        print(f"score: {len(dataset.rows)} weeks scored "
              f"(+{n_lags - 1} warmup weeks not eligible); skipped: {reasons}")
    return 0


def _load_sentiment_rows(config: PipelineConfig, workdir: Path) -> list[WeeklySentiment]:
    rows = read_weekly_sentiment_csv(_require(workdir, "weekly_sentiment.csv"))
    if config.summarizer.features == "extended":
        import csv as _csv

        feats_path = _require(workdir, "weekly_features.csv")
        extras = {}
        for rec in _csv.DictReader(feats_path.read_text(encoding="utf-8").splitlines()):
            extras[date.fromisoformat(rec["anchor"])] = rec
        merged = []
        for row in rows:
            rec = extras.get(row.week)
            if rec is None:
                raise DataError(f"weekly_features.csv has no row for {row.week}")
            worth = None if rec["worthiness_mean"] == "None" else float(rec["worthiness_mean"])
            merged.append(
                replace(
                    row,
                    score_std=float(rec["score_std"]),
                    frac_positive=float(rec["frac_positive"]),
                    worthiness_mean=worth,
                )
            )
        return merged
    return rows


def cmd_train_summarizer(args) -> int:
    config, workdir = _context(args)
    with artifacts.workdir_lock(workdir, args.force):
        _warn_drift([workdir / "weekly_sentiment.csv"], config, args.allow_config_drift)
        rows = _load_sentiment_rows(config, workdir)
        settings = SummarizerSettings(
            train_weeks=config.summarizer.train_weeks,
            c=config.summarizer.c,
            epochs=config.summarizer.epochs,
            feature_spec=config.summarizer.features,
        )
        model = train_summarizer(rows, settings)
        out = workdir / "summarizer.model"
        save_summarizer(model, out)
        artifacts.write_manifest(
            out, "train-summarizer", config.to_flat(),
            {"weekly_sentiment": workdir / "weekly_sentiment.csv"},
        )
        print(f"train-summarizer: {model.kind} on {settings.train_weeks} weeks, "
              f"classes {model.classes}")
    return 0


def cmd_evaluate(args) -> int:
    config, workdir = _context(args)
    with artifacts.workdir_lock(workdir, args.force):
        _warn_drift([workdir / "weekly_sentiment.csv", workdir / "summarizer.model"],
                    config, args.allow_config_drift)
        rows = _load_sentiment_rows(config, workdir)
        model = load_summarizer(_require(workdir, "summarizer.model"))
        ordered = sorted(rows, key=lambda r: r.week)
        test = ordered[config.summarizer.train_weeks:]
        if not test:
            raise DataError("no test weeks beyond the training split; nothing to evaluate")
        predictions = [predict_week(model, r) for r in test]
        truths = [r.label for r in test]
        classes = [c for c in CLASS_ORDER if c in set(truths) | set(predictions)]
        detail = [
            {
                "anchor": r.week.isoformat(),
                "n_sampled": r.n_sampled,
                "overall_score": "%.10f" % r.overall_score,
                "true_class": r.label,
                "predicted_class": p,
            }
            for r, p in zip(test, predictions)
        ]
        rep = report(predictions, truths, policy=config.labels.policy,
                     classes=classes, rows=detail)
        write_report_text(rep, workdir / "report.txt")
        write_report_csv(rep, workdir / "report.csv")
        flat = config.to_flat()
        inputs = {
            "weekly_sentiment": workdir / "weekly_sentiment.csv",
            "summarizer": workdir / "summarizer.model",
        }
        artifacts.write_manifest(workdir / "report.txt", "evaluate", flat, inputs)
        artifacts.write_manifest(workdir / "report.csv", "evaluate", flat, inputs)
        print((workdir / "report.txt").read_text(encoding="utf-8"), end="")
    return 0


def cmd_export_plot_data(args) -> int:
    config, workdir = _context(args)
    with artifacts.workdir_lock(workdir, args.force):
        plots = workdir / "plots"
        plots.mkdir(exist_ok=True)
        flat = config.to_flat()
        written = []

        sentiment_path = workdir / "weekly_sentiment.csv"
        weeks_path = workdir / "weeks.csv"
        if sentiment_path.exists() and weeks_path.exists():
            rows = read_weekly_sentiment_csv(sentiment_path)
            labels = read_weeks_csv(weeks_path)
            index = {lab.week.anchor: i for i, lab in enumerate(labels)}
            offset = config.summarizer.target_offset
            out = plots / "overlay.csv"
            scores, pcts = [], []
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write("anchor,overall_score,target_week_pct_change\n")
                for row in rows:
                    j = index.get(row.week, -1) + offset
                    if row.week in index and 0 <= j < len(labels):
                        pct = labels[j].week.pct_change
                        scores.append(row.overall_score)
                        pcts.append(pct)
                        fh.write(f"{row.week.isoformat()},{row.overall_score!r},{'%.8f' % pct}\n")
            written.append(out)
            try:
                corr = pearson(scores, pcts)
                print(f"export-plot-data: overlay correlation "
                      f"(weekly sentiment vs next-week change): {corr:.4f}")
            except NumericError:
                pass

        prices_path = _resolve(workdir, config.paths.prices)
        if prices_path.exists():
            prices = load_prices(prices_path)
            out = plots / "weekday_autocorr.csv"
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write("weekday,lag,autocorrelation\n")
                for wd, name in enumerate(WEEKDAY_NAMES):
                    for lag in AUTOCORR_LAGS:
                        try:
                            value = weekday_autocorrelation(prices, wd, lag)
                        except DataError:
                            continue
                        fh.write(f"{name},{lag},{'' if value is None else '%.6f' % value}\n")
            written.append(out)

        if args.word:
            model_set, _ = _load_models_and_vocab(workdir)
            for word in args.word:
                out = plots / f"trajectory_{word}.csv"
                polarity.write_trajectory_csv(model_set.trajectory(word), word, out)
                written.append(out)

        for path in written:
            artifacts.write_manifest(path, "export-plot-data", flat, {})
        print(f"export-plot-data: wrote {', '.join(p.name for p in written) or 'nothing'}")
    return 0


HANDLERS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "label": cmd_label,
    "pot": cmd_pot,
    "train-extractor": cmd_train_extractor,
    "score": cmd_score,
    "train-summarizer": cmd_train_summarizer,
    "evaluate": cmd_evaluate,
    "export-plot-data": cmd_export_plot_data,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return HANDLERS[args.command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
