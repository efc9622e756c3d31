import json
import tracemalloc
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import settings

# every run draws the same examples, so a property test passes or fails alike
# on each run; the examples come from a fixed seed rather than a saved database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

from newstrend.cli import main
from newstrend.corpus import NewsRecord
from newstrend.tokens import EncodedDoc, encode_docs
from newstrend.weeks import TradingWeek, WeeklyLabel


def make_record(
    rec_id="r1",
    title="Stocks rise on earnings",
    content="x" * 300,
    published="2020-01-08T12:00:00Z",
    categories=(),
    worthiness=None,
    url=None,
):
    dt = datetime.strptime(published, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    return NewsRecord(
        id=rec_id,
        url=url if url is not None else f"https://example.com/{rec_id}",
        title=title,
        content=content,
        published=dt,
        categories=frozenset(categories),
        worthiness=worthiness,
    )


# A streaming writer holds about one record, not the file: its tracemalloc
# peak must stay below this share of the bytes it writes.
WRITE_PEAK_SHARE = 1 / 20


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of `fn(*args)`."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_doc(rec_id, tokens):
    """A document before ingest: its record id and its tokens."""
    return rec_id, tuple(tokens)


def encoded(*groups):
    """Each group of `make_doc` pairs as a list of EncodedDocs, all groups
    over one shared word table."""
    docs = iter(encode_docs([doc for group in groups for doc in group]))
    return [[next(docs) for _ in group] for group in groups]


def encoded_weeks(docs_by_week):
    """A mapping of `make_doc` pair lists as EncodedDoc lists over one table."""
    return dict(zip(docs_by_week, encoded(*docs_by_week.values())))


def doc_over(words, rec_id, tokens):
    """An EncodedDoc of `tokens` over the sorted table `words`, which holds each."""
    words = tuple(words)
    return EncodedDoc(rec_id, np.array([words.index(t) for t in tokens], dtype=np.int32), words)


def labeled_weeks(pot_classes):
    """One labeled week per class of `pot_classes`, consecutive from 2020-01-13."""
    monday = date(2020, 1, 6)
    return [WeeklyLabel(week=TradingWeek(anchor=monday + timedelta(days=7 * (i + 1)),
                                         prev_anchor=monday + timedelta(days=7 * i),
                                         pct_change=0.0),
                        extractor_class="excluded", pot_class=cls, summarizer_class="up")
            for i, cls in enumerate(pot_classes)]


@pytest.fixture
def record_factory():
    return make_record


# a small pipeline, run end to end by the CLI tests
BASE_CONFIG = {
    "labels.policy": "binary_asymmetric",
    "polarity.vocab_size": 24,
    "extractor.dim": 16, "extractor.emb_dim": 16, "extractor.hidden": 24,
    "extractor.epochs": 3,
    "summarizer.train_weeks": 12,
    "synth.weeks": 40, "synth.articles_per_week": 10, "synth.seed": 55,
    "synth.filler_vocab": 300,
}

STAGES = ["ingest", "label", "pot", "train-extractor", "score",
          "train-summarizer", "evaluate"]


def write_config(tmp_path, **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run(args):
    return main([str(a) for a in args])


def run_pipeline(workdir, config, stages=STAGES):
    assert run(["synth", "--workdir", workdir, "--config", config]) == 0
    for stage in stages:
        rc = run([stage, "--workdir", workdir, "--config", config, "--allow-config-drift"])
        assert rc == 0, f"stage {stage} exited {rc}"


@pytest.fixture(scope="session")
def trained_workdir(tmp_path_factory):
    """A workdir after every pipeline stage, and its config; copy it to modify it."""
    base = tmp_path_factory.mktemp("trained")
    config = write_config(base)
    run_pipeline(base / "w", config)
    return base / "w", config
