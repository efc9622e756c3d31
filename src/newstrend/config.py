"""Pipeline configuration: nested dataclasses exposed as flat dotted keys.

A config file is a JSON object of dotted keys ({"polarity.vocab_size": 256});
`--set key=value` flags override the file. Defaults follow the reference
hyperparameters: vocabulary 512, 4 lags, discount 0.5, loss weight 0.5,
batch 32, 180 input tokens.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import re
import typing
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from .errors import ConfigError

# a bound a numeric field declares as `bounded(default, min=...)`: the check
# and how a message spells it
BOUNDS = {"min": (operator.ge, ">="), "max": (operator.le, "<="),
          "above": (operator.gt, ">"), "below": (operator.lt, "<")}


def bounded(default, why: str = "", **bounds):
    """A field whose value must lie within `bounds` (keys of BOUNDS); `why`,
    if given, ends the message that rejects a value outside them."""
    return field(default=default, metadata={"bounds": bounds, "why": why})


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
    max_tokens: int = bounded(180, min=1)


@dataclass
class PolarityConfig:
    vocab_size: int = bounded(512, min=1)
    n_lags: int = bounded(4, min=1)
    # the mild classes' weight in a polarity score; below 0 it flips their sign
    discount: float = bounded(0.5, min=0.0, max=1.0)
    window_weeks: int = bounded(13, min=1)
    very_threshold: float = 2.0    # at least mild_threshold
    mild_threshold: float = bounded(0.5, min=0.0)


@dataclass
class ExtractorConfig:
    dim: int = bounded(64, min=1)
    emb_dim: int = bounded(64, min=1)
    encoder_vocab: int = bounded(5000, min=1)
    hidden: int = bounded(512, min=1)
    lam: float = bounded(0.5, min=0.0, max=1.0)
    lr: float = bounded(1e-3, above=0.0)
    batch_size: int = bounded(32, min=1)
    epochs: int = bounded(8, min=1)
    seed: int = bounded(0, min=0)
    # at 1 every selected week is held out and none is left to train on
    dev_fraction: float = bounded(0.1, min=0.0, below=1.0)
    max_weeks_per_class: int | None = bounded(None, min=1)
    # |pct| bound selecting training weeks; below 0 a fall can be "positive"
    threshold: float = bounded(2.0, min=0.0)


@dataclass
class SummarizerConfig:
    n_sample: int = bounded(100, min=1)
    train_weeks: int = bounded(250, min=1)
    seed: int = bounded(0, min=0)
    target_offset: int = bounded(1, min=1, why="at 0 the lag-0 polarity column "
                                 "sees the target week's own class")
    c: float = bounded(1.0, above=0.0)
    epochs: int = bounded(200, min=1)


@dataclass
class LabelsConfig:
    policy: str = "three_way"      # three_way | binary_asymmetric | binary_symmetric
    up: float | None = None
    down: float | None = None


@dataclass
class SynthConfig:
    # sized so that the default config runs end to end: 24 polar and 500
    # filler words give `pot` 524 candidates for its 512, and `score` leaves
    # 36-49 test weeks past the summarizer's 250 at seeds 1, 2, 3, 7 and 55
    weeks: int = bounded(400, min=0)
    articles_per_week: int = bounded(50, min=0)
    # a change follows the mood with probability (1 + rho) / 2
    rho: float = bounded(0.9, min=-1.0, max=1.0)
    seed: int = bounded(7, min=0)
    start: str = "2015-01-05"      # a Monday, as `monday` requires
    # mood regimes alternate in blocks of block_min_weeks to block_max_weeks
    # weeks (balanced, persistent)
    block_min_weeks: int = bounded(15, min=1)
    block_max_weeks: int = bounded(25, min=1)
    pct_scale: float = bounded(2.0, above=0.0)
    filler_vocab: int = bounded(500, min=1)

    def monday(self) -> date:
        """`start` as a date; a ConfigError unless it is a YYYY-MM-DD Monday, as
        `synth` writes five closes a week from it and `label` anchors Mondays."""
        try:
            start = parse_day(self.start)
        except (TypeError, ValueError):
            raise ConfigError(f"synth.start must be a YYYY-MM-DD date, "
                              f"got {self.start!r}") from None
        if start.weekday() != 0:
            raise ConfigError(f"synth.start must be a Monday, got {self.start!r}, a {start:%A}")
        return start


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
        if section_name not in {f.name for f in dataclasses.fields(self)}:
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


# ASCII YYYY-MM or YYYY-MM-DD; `date.fromisoformat` takes more spellings on
# Python 3.11 than on 3.10 (20150101, 2015-W01-1)
_DATE_RE = re.compile(r"(\d{4})-(\d\d)(?:-(\d\d))?", re.ASCII)


def parse_date(value: str, end: bool = False) -> date:
    """YYYY-MM-DD, or YYYY-MM as the month's first (or with `end`, last) day;
    ValueError for any other spelling."""
    m = _DATE_RE.fullmatch(value)
    if m is None:
        raise ValueError(f"{value!r} is not YYYY-MM or YYYY-MM-DD")
    y, mo, d = m.groups()
    y, mo = int(y), int(mo)
    if d is not None:
        return date(y, mo, int(d))
    first = date(y, mo, 1)  # also rejects a month outside 1..12
    return date(y + mo // 12, mo % 12 + 1, 1) - timedelta(days=1) if end else first


def parse_day(value: str) -> date:
    """YYYY-MM-DD only; ValueError for any other spelling."""
    m = _DATE_RE.fullmatch(value)
    if m is None or m.group(3) is None:
        raise ValueError(f"{value!r} is not YYYY-MM-DD")
    return date(*map(int, m.groups()))


def parse_finite(value: str) -> float:
    """A finite float; ValueError for nan, inf or any spelling `float` rejects."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _validate(config: PipelineConfig) -> None:
    """Reject values the pipeline would otherwise ignore, misuse or crash on."""
    for section in dataclasses.fields(config):
        obj = getattr(config, section.name)
        hints = typing.get_type_hints(type(obj))
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            key = f"{section.name}.{f.name}"
            if not _accepts(hints[f.name], value):
                raise ConfigError(f"{key} must be {f.type}, got {value!r}")
            # JSON reads NaN, Infinity and 1e309 as floats
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number, got {value!r}")
            for kind, bound in f.metadata.get("bounds", {}).items():
                test, sign = BOUNDS[kind]
                if value is not None and not test(value, bound):
                    why = f.metadata["why"]
                    raise ConfigError(f"{key} must be {sign} {bound}"
                                      f"{f' ({why})' if why else ''}, got {value!r}")
    if config.synth.block_min_weeks > config.synth.block_max_weeks:
        raise ConfigError(
            f"synth.block_min_weeks ({config.synth.block_min_weeks}) must be <= "
            f"synth.block_max_weeks ({config.synth.block_max_weeks})"
        )
    if config.polarity.mild_threshold > config.polarity.very_threshold:
        raise ConfigError(
            f"polarity.mild_threshold ({config.polarity.mild_threshold}) must be <= "
            f"polarity.very_threshold ({config.polarity.very_threshold})"
        )
    bad = [r for r in config.corpus.proxy_rules if not re.fullmatch(r"[^:]+:[01]:[0-9]+", r)]
    if bad:
        raise ConfigError(
            f"corpus.proxy_rules entries {bad} must look like category:label:cap "
            f"with label 0 or 1 and a non-negative integer cap"
        )
    for pattern in config.corpus.url_blocklist:
        try:
            re.compile(pattern)
        except re.error as exc:
            raise ConfigError(f"corpus.url_blocklist entry {pattern!r} is not a regular "
                              f"expression: {exc}") from None
    config.synth.monday()
    from .weeks import make_policy  # here, so that importing config loads no weeks code

    make_policy(config.labels.policy, config.labels.up, config.labels.down)
