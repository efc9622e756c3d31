"""Pipeline configuration: nested dataclasses exposed as flat dotted keys.

A config file is a JSON object of dotted keys ({"polarity.vocab_size": 256});
`--set key=value` flags override the file. Defaults follow the reference
hyperparameters: vocabulary 512, 4 lags, discount 0.5, loss weight 0.5,
batch 32, 180 input tokens.
"""

from __future__ import annotations

import dataclasses
import json
import re
import typing
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .errors import ConfigError


@dataclass
class PathsConfig:
    news: str = "news.jsonl"
    prices: str = "prices.csv"
    workdir: str = "work"


@dataclass
class CorpusConfig:
    min_content_chars: int = 200
    max_content_chars: int = 20_000
    url_blocklist: list[str] = field(default_factory=list)
    # "category:label:cap" entries, applied in order; manual labels always win
    proxy_rules: list[str] = field(
        default_factory=lambda: [
            "top-companies:1:750",
            "financials:1:500",
            "us:1:250",
            "technology:1:250",
            "basic-materials:0:250",
            "cyclicals:0:250",
            "non-cyclicals:0:250",
            "healthcare:0:250",
            "european:0:250",
        ]
    )


@dataclass
class TokenizerConfig:
    max_tokens: int = 180


@dataclass
class PolarityConfig:
    vocab_size: int = 512
    n_lags: int = 4
    discount: float = 0.5
    window_weeks: int = 13
    very_threshold: float = 2.0
    mild_threshold: float = 0.5


@dataclass
class ExtractorConfig:
    dim: int = 64
    emb_dim: int = 64
    encoder_vocab: int = 5000
    hidden: int = 512
    lam: float = 0.5
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 8
    seed: int = 0
    dev_fraction: float = 0.1
    max_weeks_per_class: int | None = None
    threshold: float = 2.0         # |pct| bound selecting training weeks


@dataclass
class SummarizerConfig:
    n_sample: int = 100
    train_weeks: int = 250
    seed: int = 0
    target_offset: int = 1
    c: float = 1.0
    epochs: int = 200
    features: str = "scalar"


@dataclass
class LabelsConfig:
    policy: str = "three_way"      # three_way | binary_asymmetric | binary_symmetric | custom
    up: float | None = None
    down: float | None = None


@dataclass
class SynthConfig:
    # sized so that the default config runs end to end: 24 polar and 500
    # filler words give `pot` 524 candidates for its 512, and `score` leaves
    # 36-49 test weeks past the summarizer's 250 at seeds 1, 2, 3, 7 and 55
    weeks: int = 400
    articles_per_week: int = 50
    rho: float = 0.9
    seed: int = 7
    start: str = "2015-01-05"      # a Monday
    block_min_weeks: int = 15      # mood regimes alternate in blocks of this
    block_max_weeks: int = 25      # .. to this many weeks (balanced, persistent)
    pct_scale: float = 2.0
    filler_vocab: int = 500


# the library name for the `synth` section, kept because callers such as
# bench/run.py build `synth.SynthSettings(weeks=..., seed=...)`; one class,
# so every synth setting and its default is declared only here
SynthSettings = SynthConfig


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    polarity: PolarityConfig = field(default_factory=PolarityConfig)
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    summarizer: SummarizerConfig = field(default_factory=SummarizerConfig)
    labels: LabelsConfig = field(default_factory=LabelsConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def to_flat(self) -> dict:
        flat = {}
        for section in dataclasses.fields(self):
            obj = getattr(self, section.name)
            for f in dataclasses.fields(obj):
                flat[f"{section.name}.{f.name}"] = getattr(obj, f.name)
        return flat

    def set_flat(self, key: str, value) -> None:
        if "." not in key:
            raise ConfigError(f"config key {key!r} must be section.field")
        section_name, field_name = key.split(".", 1)
        if not hasattr(self, section_name):
            raise ConfigError(f"unknown config section {section_name!r}")
        obj = getattr(self, section_name)
        if field_name not in {f.name for f in dataclasses.fields(obj)}:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(obj, field_name, value)


def load_config(path: str | Path | None, overrides: list[str] | None = None) -> PipelineConfig:
    """Defaults, then the JSON file of dotted keys, then key=value overrides."""
    config = PipelineConfig()
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object of dotted keys")
        for key, value in data.items():
            config.set_flat(key, value)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        config.set_flat(key.strip(), value)
    _validate(config)
    return config


def _accepts(hint, value) -> bool:
    """Whether `value` fits a field annotation; an int fits a float field."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_accepts(item, v) for v in value)
    if typing.get_args(hint):  # a union such as `int | None`
        return any(_accepts(h, value) for h in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _validate(config: PipelineConfig) -> None:
    """Reject values the pipeline would otherwise ignore, misuse or crash on."""
    for section in dataclasses.fields(config):
        obj = getattr(config, section.name)
        hints = typing.get_type_hints(type(obj))
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if not _accepts(hints[f.name], value):
                raise ConfigError(f"{section.name}.{f.name} must be {f.type}, got {value!r}")
    bad = [r for r in config.corpus.proxy_rules if not re.fullmatch(r"[^:]+:[01]:[0-9]+", r)]
    if bad:
        raise ConfigError(
            f"corpus.proxy_rules entries {bad} must look like category:label:cap "
            f"with label 0 or 1 and a non-negative integer cap"
        )
    try:
        date.fromisoformat(config.synth.start)
    except ValueError:
        raise ConfigError(
            f"synth.start must be a YYYY-MM-DD date, got {config.synth.start!r}"
        ) from None
    from .weeks import make_policy  # weeks imports this module through corpus

    make_policy(config.labels.policy, config.labels.up, config.labels.down)
    if config.summarizer.features not in ("scalar", "extended"):
        raise ConfigError(
            f"summarizer.features must be 'scalar' or 'extended', "
            f"got {config.summarizer.features!r}"
        )
    if config.summarizer.target_offset < 1:
        raise ConfigError(
            f"summarizer.target_offset must be an integer >= 1 (at 0 the lag-0 "
            f"polarity column sees the target week's own class), "
            f"got {config.summarizer.target_offset!r}"
        )
