import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from newstrend.cli import STAGES as CLI_STAGES
from newstrend.cli import main


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


class TestFullPipeline:
    def test_end_to_end_smoke(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config)
        for name in ("news.jsonl", "prices.csv", "corpus.jsonl", "rejects.csv", "weeks.csv",
                     "vocab.json", "extractor.model", "train_log.csv",
                     "weekly_sentiment.csv", "summarizer.model", "report.txt", "report.csv"):
            assert (wd / name).exists(), name
        assert (wd / "pot.bin").is_file()
        report = (wd / "report.txt").read_text()
        assert "accuracy:" in report and "mcc:" in report

    def test_manifests_written_beside_artifacts(self, tmp_path):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config)
        manifest = json.loads((wd / "weeks.csv.manifest.json").read_text())
        assert manifest["command"] == "label"
        assert manifest["config"]["polarity.vocab_size"] == 24
        assert set(manifest["inputs"]) == {"prices", "corpus"}

    def test_score_manifest_hashes_every_input(self, tmp_path):
        from newstrend.artifacts import sha256_file

        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=STAGES[:5])
        manifest = json.loads((wd / "weekly_sentiment.csv.manifest.json").read_text())
        assert manifest["command"] == "score"
        assert manifest["inputs"] == {
            "corpus": sha256_file(wd / "corpus.jsonl"),
            "weeks": sha256_file(wd / "weeks.csv"),
            "pot": sha256_file(wd / "pot.bin"),
            "vocab": sha256_file(wd / "vocab.json"),
            "extractor": sha256_file(wd / "extractor.model"),
        }

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config)
        tracked = ["corpus.jsonl", "weeks.csv", "vocab.json", "extractor.model",
                   "weekly_sentiment.csv", "summarizer.model", "report.txt", "report.csv"]
        before = {n: (wd / n).read_bytes() for n in tracked}
        for stage in STAGES:
            assert run([stage, "--workdir", wd, "--config", config,
                        "--allow-config-drift"]) == 0
        for name in tracked:
            assert (wd / name).read_bytes() == before[name], name

    def test_export_plot_data(self, tmp_path):
        from newstrend.artifacts import sha256_file

        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config)
        assert run(["export-plot-data", "--workdir", wd, "--config", config,
                    "--allow-config-drift", "--word", "surge"]) == 0
        plots = wd / "plots"
        overlay = (plots / "overlay.csv").read_text().splitlines()
        assert overlay[0] == "anchor,overall_score,target_week_pct_change"
        assert len(overlay) > 10
        autocorr = (plots / "weekday_autocorr.csv").read_text().splitlines()
        assert autocorr[0] == "weekday,lag,autocorrelation"
        assert any(line.startswith("monday,1,") for line in autocorr)
        trajectory = (plots / "trajectory_surge.csv").read_text().splitlines()
        assert trajectory[0] == "anchor,word,score"

        def inputs(name):
            return json.loads((plots / f"{name}.manifest.json").read_text())["inputs"]

        assert inputs("overlay.csv") == {
            "weekly_sentiment": sha256_file(wd / "weekly_sentiment.csv"),
            "weeks": sha256_file(wd / "weeks.csv"),
        }
        assert inputs("weekday_autocorr.csv") == {"prices": sha256_file(wd / "prices.csv")}
        assert inputs("trajectory_surge.csv") == {"pot": sha256_file(wd / "pot.bin")}


class TestExtendedFeatures:
    def test_extended_feature_pipeline(self, tmp_path):
        config = write_config(tmp_path, **{"summarizer.features": "extended"})
        wd = tmp_path / "w"
        run_pipeline(wd, config)
        lines = (wd / "weekly_sentiment.csv").read_text().splitlines()
        assert lines[0].split(",")[-3:] == ["score_std", "frac_positive", "worthiness_mean"]
        assert len(lines) > 10
        assert not (wd / "weekly_features.csv").exists()
        model = json.loads((wd / "summarizer.model").read_text())
        assert model["feature_spec"] == "extended"
        assert len(model["weights"][0]) == 4
        assert "accuracy:" in (wd / "report.txt").read_text()


class TestSynthCommand:
    def test_seed_flag_and_determinism(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--workdir", a, "--config", config, "--set", "synth.seed=7"]) == 0
        assert run(["synth", "--workdir", b, "--config", config, "--set", "synth.seed=7"]) == 0
        assert (a / "news.jsonl").read_bytes() == (b / "news.jsonl").read_bytes()
        assert (a / "prices.csv").read_bytes() == (b / "prices.csv").read_bytes()

    def test_seed_is_only_a_config_key(self, tmp_path, capsys):
        assert run(["synth", "--workdir", tmp_path / "w", "--seed", "7"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "w" / "news.jsonl").exists()

    def test_default_corpus_runs_the_default_config_through_pot(self, tmp_path, capsys):
        # the default corpus offers the default 512-word vocabulary enough words
        wd = tmp_path / "w"
        for stage in ("synth", "ingest", "label", "pot"):
            assert run([stage, "--workdir", wd]) == 0, (stage, capsys.readouterr().err)
        assert len(json.loads((wd / "vocab.json").read_text())["words"]) == 512


class TestIngestCommand:
    def test_corpus_lacking_a_proxy_category_ingests(self, tmp_path, capsys):
        wd = tmp_path / "w"
        small = ["--set", "synth.weeks=20", "--set", "synth.articles_per_week=5",
                 "--set", "synth.filler_vocab=300"]
        assert run(["synth", "--workdir", wd, *small]) == 0
        assert run(["ingest", "--workdir", wd, *small]) == 0
        assert "basic-materials:0:250=0" in capsys.readouterr().out
        assert (wd / "corpus.jsonl").exists()


class TestPotCommand:
    """`pot --word` tracks a word in pot.bin; `export-plot-data` writes its
    trajectory, optionally cut to a date range."""

    def test_word_trajectory_with_month_range(self, tmp_path):
        from newstrend.artifacts import sha256_file

        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest", "label"])
        assert run(["pot", "--workdir", wd, "--config", config, "--allow-config-drift",
                    "--word", "coronavirus"]) == 0
        assert not (wd / "plots").exists()
        assert run(["export-plot-data", "--workdir", wd, "--config", config,
                    "--word", "plunge", "--word", "coronavirus",
                    "--from", "2015-02", "--to", "2015-06"]) == 0
        for word in ("plunge", "coronavirus"):
            rows = (wd / f"plots/trajectory_{word}.csv").read_text().splitlines()[1:]
            assert rows
            for row in rows:
                anchor = row.split(",")[0]
                assert "2015-02-01" <= anchor <= "2015-06-30"
            manifest = json.loads((wd / f"plots/trajectory_{word}.csv.manifest.json").read_text())
            assert manifest["inputs"] == {"pot": sha256_file(wd / "pot.bin")}

    def test_bad_month_exits_one_before_writing(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest", "label", "pot"])
        assert run(["export-plot-data", "--workdir", wd, "--config", config, "--word", "plunge",
                    "--from", "2015-13"]) == 1
        assert "--from" in capsys.readouterr().err
        assert not (wd / "plots").exists()

    def test_pot_takes_no_date_range(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest", "label"])
        assert run(["pot", "--workdir", wd, "--config", config, "--word", "plunge",
                    "--from", "2015-02"]) == 1
        assert "--from" in capsys.readouterr().err
        assert not (wd / "pot.bin").exists()

    def test_export_of_an_untracked_word_exits_two_naming_it(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest", "label", "pot"])
        assert run(["export-plot-data", "--workdir", wd, "--config", config,
                    "--word", "coronavirus"]) == 2
        err = capsys.readouterr().err
        assert "'coronavirus'" in err and "`pot --word coronavirus`" in err
        assert not (wd / "plots").exists()

    def test_pot_ranks_only_the_extractor_training_weeks(self, tmp_path):
        # at synth seed 1 the extractor selection picks the last labeled week,
        # which has no news; it must not shift the train/dev split pot ranks on
        from newstrend.extractor import load_extractor

        config = write_config(tmp_path, **{"synth.seed": 1})
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest", "label", "pot", "train-extractor"])
        vocab = json.loads((wd / "vocab.json").read_text())
        assert vocab["n_train_weeks"] == len(load_extractor(wd / "extractor.model").train_weeks)


class TestErrors:
    def test_missing_upstream_names_stage(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        wd.mkdir()
        assert run(["synth", "--workdir", wd, "--config", config]) == 0
        assert run(["ingest", "--workdir", wd, "--config", config]) == 0
        rc = run(["pot", "--workdir", wd, "--config", config])
        assert rc == 2
        err = capsys.readouterr().err
        assert "weeks.csv" in err and "label" in err

    @pytest.mark.parametrize("stage, missing, producer", [
        ("ingest", "news.jsonl", "synth"),
        ("label", "corpus.jsonl", "ingest"),
        ("pot", "corpus.jsonl", "ingest"),
        ("train-extractor", "corpus.jsonl", "ingest"),
        ("score", "corpus.jsonl", "ingest"),
        ("train-summarizer", "weekly_sentiment.csv", "score"),
        ("evaluate", "weekly_sentiment.csv", "score"),
    ])
    def test_missing_input_exits_two_naming_it_and_its_stage(self, tmp_path, capsys,
                                                             stage, missing, producer):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        wd.mkdir()
        if stage != "ingest":
            assert run(["synth", "--workdir", wd, "--config", config]) == 0
        capsys.readouterr()
        assert run([stage, "--workdir", wd, "--config", config]) == 2
        err = capsys.readouterr().err
        assert repr(missing) in err and f"`{producer}`" in err
        assert not (wd / ".lock").exists()

    def test_usage_error_exits_one(self, tmp_path, capsys):
        assert run(["no-such-command"]) == 1

    def test_bad_config_key_exits_one(self, tmp_path, capsys):
        wd = tmp_path / "w"
        assert run(["synth", "--workdir", wd, "--set", "nonsense.key=1"]) == 1

    def test_config_file_not_utf8_exits_one(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b"\xff{")
        assert run(["label", "--workdir", tmp_path / "w", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and "bad.json" in err

    @pytest.mark.parametrize("override, key", [
        ("extractor.encoder=bert", "extractor.encoder"),
        ("summarizer.features=fancy", "summarizer.features"),
        ("summarizer.target_offset=0", "summarizer.target_offset"),
        ('corpus.proxy_rules=["us:x:3"]', "corpus.proxy_rules"),
        ("synth.start=notadate", "synth.start"),
        ("synth.weeks=abc", "synth.weeks"),
        ("labels.up=0.5", "labels.down"),
    ])
    def test_bad_config_value_exits_one_when_loaded(self, tmp_path, capsys, override, key):
        wd = tmp_path / "w"
        assert run(["synth", "--workdir", wd, "--set", override]) == 1
        assert key in capsys.readouterr().err
        assert not (wd / "news.jsonl").exists()

    def test_vocab_larger_than_corpus_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path, **{"polarity.vocab_size": 50_000})
        wd = tmp_path / "w"
        assert run(["synth", "--workdir", wd, "--config", config]) == 0
        for stage in ("ingest", "label"):
            assert run([stage, "--workdir", wd, "--config", config,
                        "--allow-config-drift"]) == 0
        rc = run(["pot", "--workdir", wd, "--config", config, "--allow-config-drift"])
        assert rc == 2

    def test_drift_warning_emitted_and_suppressed(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        assert run(["synth", "--workdir", wd, "--config", config]) == 0
        assert run(["ingest", "--workdir", wd, "--config", config]) == 0
        assert run(["label", "--workdir", wd, "--config", config,
                    "--set", "polarity.vocab_size=16"]) == 0
        assert "warning: config differs" in capsys.readouterr().err
        assert run(["label", "--workdir", wd, "--config", config,
                    "--set", "polarity.vocab_size=16", "--allow-config-drift"]) == 0
        assert "warning: config differs" not in capsys.readouterr().err

    def test_corrupt_input_manifest_exits_two_naming_it(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest"])
        (wd / "corpus.jsonl.manifest.json").write_text("{broken")
        assert run(["label", "--workdir", wd, "--config", config]) == 2
        assert "corpus.jsonl.manifest.json" in capsys.readouterr().err

    def test_lock_blocks_second_writer(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        wd.mkdir()
        (wd / ".lock").write_text("12345")
        assert run(["synth", "--workdir", wd, "--config", config]) == 1
        assert run(["synth", "--workdir", wd, "--config", config, "--force"]) == 0
        assert not (wd / ".lock").exists()

    def test_lock_taken_by_another_process_survives_exit(self, tmp_path):
        from newstrend.artifacts import workdir_lock

        with workdir_lock(tmp_path):
            (tmp_path / ".lock").write_text("12345")
        assert (tmp_path / ".lock").read_text() == "12345"
        with workdir_lock(tmp_path, force=True):
            (tmp_path / ".lock").write_text("67890")
        assert (tmp_path / ".lock").read_text() == "67890"

    def test_numeric_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        from newstrend import cli
        from newstrend.errors import NumericError

        def explode(config, workdir, args):
            raise NumericError("training diverged: loss=nan")

        monkeypatch.setitem(cli.STAGES, "evaluate", cli.Stage(explode))
        assert run(["evaluate", "--workdir", tmp_path]) == 3
        assert "diverged" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("trained")
    config = write_config(base)
    run_pipeline(base / "w", config)
    return base / "w", config


def _truncate_pot(wd):
    path = wd / "pot.bin"
    path.write_bytes(path.read_bytes()[:-8])
    return "pot.bin is corrupt"


def _pot_directory_of_old_workdir(wd):
    (wd / "pot.bin").unlink()
    (wd / "pot").mkdir()
    (wd / "pot" / "2020-01-06.tsv").write_text("gain\t1.0\n")
    return "'pot.bin', which is missing"


def _truncate_model(wd):
    path = wd / "extractor.model"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    return "extractor.model"


def _garble_vocab(wd):
    (wd / "vocab.json").write_text("{not json")
    return "vocab.json"


def _vocab_words_not_a_list(wd):
    (wd / "vocab.json").write_text('{"words": 5}')
    return "vocab.json"


def _vocab_words_repeated(wd):
    (wd / "vocab.json").write_text('{"words": ["a", "a"]}')
    return "vocab.json"


def _edit_model_header(wd, edit):
    path = wd / "extractor.model"
    magic, size, rest = path.read_bytes().split(b"\n", 2)
    header = json.loads(rest[: int(size)])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(b"%s\n%d\n%s%s" % (magic, len(blob), blob, rest[int(size):]))


def _rename_vocab_word(wd):
    def edit(header):
        header["vocab"][0] += "x"

    _edit_model_header(wd, edit)
    return "sha256"


def _other_encoder_kind(wd):
    _edit_model_header(wd, lambda header: header["encoder"].update(kind="bert"))
    return "extractor.model is corrupt: unknown encoder kind 'bert'"


def _bad_weeks_anchor(wd):
    path = wd / "weeks.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "20XX" + lines[2][4:]
    path.write_text("".join(lines), encoding="utf-8")
    return "weeks.csv line 3"


def _bad_weeks_class(wd):
    path = wd / "weeks.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[4].split(",")
    fields[5] = "bogus"  # summarizer_class
    lines[4] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    return "weeks.csv line 5"


def _garble_corpus_line(wd):
    path = wd / "corpus.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "{not json\n"
    path.write_text("".join(lines), encoding="utf-8")
    return "corpus.jsonl line 3"


def _repeated_weeks_row(wd):
    path = wd / "weeks.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(3, lines[3])
    path.write_text("".join(lines), encoding="utf-8")
    return "weeks.csv line 5"


def _weeks_not_utf8(wd):
    path = wd / "weeks.csv"
    path.write_bytes(path.read_bytes() + b"\xff\n")
    return "cannot read weeks file"


def _vocab_of_a_rerun_pot(wd):
    config = write_config(wd.parent, **{"polarity.vocab_size": 20})
    assert run(["pot", "--workdir", wd, "--config", config, "--allow-config-drift"]) == 0
    return (f"{wd / 'vocab.json'} is not the vocabulary that {wd / 'extractor.model'} "
            f"was trained on; re-run `train-extractor`")


def _swap_vocab_words(wd):
    path = wd / "vocab.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    record["words"][:2] = record["words"][1::-1]
    path.write_text(json.dumps(record), encoding="utf-8")
    return "vocab.json is not the vocabulary that"


def _summarizer_without_classes(wd):
    (wd / "summarizer.model").write_text('{"kind": "x"}')
    return "summarizer.model lacks key 'classes'"


class TestCorruptArtifacts:
    @pytest.mark.parametrize("corrupt", [_truncate_pot, _pot_directory_of_old_workdir,
                                         _truncate_model, _rename_vocab_word,
                                         _garble_vocab, _vocab_words_not_a_list,
                                         _vocab_words_repeated, _other_encoder_kind,
                                         _vocab_of_a_rerun_pot, _swap_vocab_words])
    def test_score_exits_two_naming_the_artifact(self, trained_workdir, tmp_path, capsys,
                                                 corrupt):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        expected = corrupt(wd)
        assert run(["score", "--workdir", wd, "--config", config,
                    "--allow-config-drift"]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("stage, corrupt", [("pot", _bad_weeks_anchor),
                                                ("pot", _bad_weeks_class),
                                                ("pot", _garble_corpus_line),
                                                ("pot", _repeated_weeks_row),
                                                ("pot", _weeks_not_utf8),
                                                ("evaluate", _summarizer_without_classes)])
    def test_stage_exits_two_naming_the_artifact(self, trained_workdir, tmp_path, capsys,
                                                 stage, corrupt):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        expected = corrupt(wd)
        assert run([stage, "--workdir", wd, "--config", config, "--allow-config-drift"]) == 2
        assert expected in capsys.readouterr().err


# input faults, each a function of the file's bytes
FAULTS = {
    "emptied": lambda data: b"",
    "halved": lambda data: data[: len(data) // 2],
    "garbled": lambda data: data[: len(data) // 2] + b"\xff{" + data[len(data) // 2:],
}


class TestFaultyInputs:
    """Every declared input of every stage, emptied, cut in half or with
    undecodable bytes inserted: the stage exits 0 or 2 and never raises.
    Truncated raw news and prices may still parse, and raw news may hold no
    records, so inserted bytes must exit 2 naming the file, and so must every
    other emptied input."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("stage, name", [(command, name)
                                             for command, stage in CLI_STAGES.items()
                                             for name in stage.inputs])
    def test_stage_exits_zero_or_two(self, trained_workdir, tmp_path, capsys,
                                     stage, name, fault):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        path = wd / name
        path.write_bytes(FAULTS[fault](path.read_bytes()))
        rc = run([stage, "--workdir", wd, "--config", config, "--allow-config-drift"])
        err = capsys.readouterr().err
        assert rc in (0, 2), err
        if fault == "garbled" or (fault == "emptied" and name != "news.jsonl"):
            assert rc == 2
            assert any(line.startswith("error: ") and name in line
                       for line in err.splitlines()), err


class TestTrainLog:
    def test_schema(self, tmp_path):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest", "label", "pot", "train-extractor"])
        lines = (wd / "train_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,dev_acc_senti,dev_acc_worth"
        assert len(lines) == 1 + BASE_CONFIG["extractor.epochs"]
        first = lines[1].split(",")
        assert first[0] == "1"
        assert 0.0 <= float(first[2]) <= 1.0


class TestTracedStage:
    """The benchmark's launcher wraps library functions in spans. A layer the
    stage imports past those patches would read as 0 s rather than fail, so
    check that a traced `score` records the layers it runs."""

    def test_traced_score_records_its_layers(self, trained_workdir, tmp_path):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        spans_path = tmp_path / "score.spans.json"
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "launcher.py"), str(spans_path), "test-score",
             "score", "--workdir", ".", "--config", str(config), "--allow-config-drift"],
            cwd=wd, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(spans_path.read_text())
        assert payload["missing"] == []
        names = {span[0] for span in payload["spans"]}
        for layer in ("corpus.tokenize", "corpus.ingest_news",
                      "polarity.PolarityModelSet.matrix", "extractor.ExtractorModel.forward"):
            assert layer in names, layer
