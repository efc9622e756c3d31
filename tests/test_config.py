import json

import pytest

from newstrend.config import PipelineConfig, load_config
from newstrend.errors import ConfigError

from conftest import run


class TestDefaults:
    def test_reference_hyperparameters(self):
        config = PipelineConfig()
        assert config.polarity.vocab_size == 512
        assert config.polarity.n_lags == 4
        assert config.polarity.discount == 0.5
        assert config.extractor.lam == 0.5
        assert config.extractor.batch_size == 32
        assert config.tokenizer.max_tokens == 180
        assert config.summarizer.n_sample == 100
        assert config.summarizer.train_weeks == 250
        assert config.labels.policy == "three_way"

    def test_learning_rate_auto(self):
        assert PipelineConfig().extractor.lr == 1e-3     # reference encoder default
        assert load_config(None, ["extractor.lr=7e-4"]).extractor.lr == 7e-4


class TestFlatKeys:
    def test_roundtrip(self):
        config = PipelineConfig()
        flat = config.to_flat()
        assert flat["polarity.vocab_size"] == 512
        assert flat["paths.workdir"] == "work"
        other = PipelineConfig()
        for key, value in flat.items():
            other.set_flat(key, value)
        assert other.to_flat() == flat

    def test_unknown_key_rejected(self):
        config = PipelineConfig()
        with pytest.raises(ConfigError):
            config.set_flat("polarity.nope", 1)
        with pytest.raises(ConfigError):
            config.set_flat("nosection.x", 1)
        with pytest.raises(ConfigError):
            config.set_flat("plainkey", 1)


    @pytest.mark.parametrize("key", ["to_flat.x", "set_flat.x", "__dict__.x"])
    def test_attribute_that_is_not_a_section_rejected(self, key, capsys):
        with pytest.raises(ConfigError, match="unknown config section"):
            PipelineConfig().set_flat(key, 1)
        assert run(["label", "--set", f"{key}=1"]) == 1
        assert capsys.readouterr().err == f"error: unknown config section {key.split('.')[0]!r}\n"


class TestLoading:
    def test_file_then_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"polarity.vocab_size": 128, "synth.rho": 0.5}))
        config = load_config(path, ["polarity.vocab_size=64", "labels.policy=binary_asymmetric"])
        assert config.polarity.vocab_size == 64
        assert config.synth.rho == 0.5
        assert config.labels.policy == "binary_asymmetric"

    def test_bad_json_fatal(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_override_fatal(self):
        with pytest.raises(ConfigError):
            load_config(None, ["no-equals-sign"])


class TestLabelPolicy:
    @pytest.mark.parametrize("overrides, match", [
        (["labels.up=0.5"], "needs both labels.up and labels.down"),
        (["labels.down=-0.5"], "needs both labels.up and labels.down"),
        (["labels.policy=binary_asymmetric", "labels.up=5", "labels.down=-5"],
         "takes no labels.up or labels.down"),
        (["labels.policy=nonsense"], "unknown binning policy 'nonsense'"),
        (["labels.policy=custom"], "unknown binning policy 'custom'"),
        (["labels.policy=binary_custom", "labels.up=1", "labels.down=-1"],
         "unknown binning policy 'binary_custom'"),
        (["labels.up=-0.5", "labels.down=0.5"], "requires up > down"),
    ], ids=["up_alone", "down_alone", "binary_asymmetric_thresholds", "unknown_policy",
            "custom_is_not_a_policy", "binary_custom_is_not_a_policy",
            "inverted_thresholds"])
    def test_bad_policy_fails_when_loaded(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            load_config(None, overrides)

    def test_both_thresholds_load(self):
        config = load_config(None, ["labels.up=0.5", "labels.down=-0.5"])
        assert (config.labels.up, config.labels.down) == (0.5, -0.5)
