"""newstrend: weekly stock-index trend prediction from financial news.

Two stages: a per-article sentiment extractor (bag-of-words text encoder plus
time-varying word-polarity features and a masked multitask worthiness head)
and a weekly summarizer mapping aggregated sentiment to next Monday's index
direction.
"""

__version__ = "0.1.0"

from .config import CorpusConfig, ExtractorConfig, SummarizerConfig
from .corpus import (
    IngestResult, NewsRecord, ProxyRule, TokenizedDoc, Vocabulary,
    assign_worthiness_proxy, build_vocabulary, clean_filter, ingest_news,
    tokenize, write_news_jsonl,
)
from .errors import ConfigError, DataError, NumericError, PipelineError, UndefinedMetricError
from .extractor import (
    ExtractorModel, ReferenceEncoder, TrainedExtractor, TrainingExample,
    gradient_check, load_extractor, multitask_loss, pot_attention,
    save_extractor, select_extractor_weeks, sentiment_score, split_dev_weeks,
    train_extractor,
)
from .metrics import (
    ConfusionMatrix, EvaluationReport, accuracy, f1, mcc, pearson, report,
)
from .polarity import PolarityModelSet, build_model_set, tfidf_difference_ranking
from .summarizer import (
    SummarizerDataset, SummarizerModel, WeeklySentiment, build_summarizer_dataset,
    features_of, load_summarizer, predict_week, save_summarizer, train_summarizer,
)
from .synth import SynthSettings, SynthTruth, generate, write_outputs
from .weeks import (
    BinningPolicy, PriceSeries, TradingWeek, WeeklyLabel, attach_news,
    autocorrelation, binary_asymmetric_policy, binary_symmetric_policy,
    extractor_class_of, label_weeks, load_prices, make_policy, monday_anchors,
    pot_class_of, three_way_policy, weekday_autocorrelation, weekly_changes,
)
