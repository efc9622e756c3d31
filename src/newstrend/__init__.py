"""newstrend: weekly stock-index trend prediction from financial news.

Two stages: a per-article sentiment extractor (bag-of-words text encoder plus
time-varying word-polarity features and a masked multitask worthiness head)
and a weekly summarizer mapping aggregated sentiment to next Monday's index
direction.

The public names below resolve lazily: `from newstrend import X` imports only
the module that defines X, so a process that never touches the numeric
modules never loads numpy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("CorpusConfig", "ExtractorConfig", "PolarityConfig", "SummarizerConfig",
               "SynthConfig", "SynthSettings", "TokenizerConfig"),
    "corpus": (
        "IngestResult", "NewsRecord", "ProxyRule", "TokenizedDoc", "Vocabulary",
        "assign_worthiness_proxy", "build_vocabulary", "clean_filter", "ingest_news",
        "tokenize", "write_news_jsonl",
    ),
    "errors": ("ConfigError", "DataError", "NumericError", "PipelineError",
               "UndefinedMetricError"),
    "extractor": (
        "ExtractorModel", "ReferenceEncoder", "TrainedExtractor", "TrainingExample",
        "gradient_check", "load_extractor", "multitask_loss", "pot_attention",
        "save_extractor", "sentiment_score", "train_extractor",
    ),
    "metrics": ("ConfusionMatrix", "EvaluationReport", "accuracy", "f1", "mcc", "pearson",
                "report"),
    "polarity": ("PolarityModelSet", "build_model_set", "tfidf_difference_ranking"),
    "summarizer": (
        "SummarizerDataset", "SummarizerModel", "WeeklySentiment", "build_summarizer_dataset",
        "chronological_split", "load_summarizer", "predict_week", "rows_after_training",
        "save_summarizer", "train_summarizer",
    ),
    "synth": ("SynthTruth", "generate", "write_outputs"),
    "tokens": ("EncodedDoc", "TokenizedCorpus", "encode_docs", "read_tokens", "write_tokens"),
    "weeks": (
        "BinningPolicy", "PriceSeries", "TradingWeek", "WeeklyLabel", "attach_news",
        "autocorrelation", "extractor_class_of", "extractor_split", "label_weeks", "load_prices",
        "make_policy", "monday_anchors", "pot_class_of", "split_dev_weeks",
        "weekday_autocorrelation", "weekly_changes",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
