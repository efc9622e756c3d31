import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from newstrend.artifacts import read_arrays, write_arrays
from newstrend.cli import CONFIG_PATHS, STAGES as CLI_STAGES, run_ingest
from newstrend.config import BOUNDS, PipelineConfig, SynthConfig
from newstrend.extractor import MODEL_MAGIC
from newstrend.polarity import POT_MAGIC, PolarityModelSet
from newstrend.summarizer import (
    load_summarizer, predict_week, read_weekly_sentiment_csv, rows_after_training,
)
from newstrend.synth import write_outputs

from conftest import BASE_CONFIG, STAGES, run, run_pipeline, traced_peak, write_config


def declared_bounds():
    """(key, bound kind, first value outside it) for every bound that a config
    field declares: one past an int bound, the next float past an inclusive
    float bound, the bound itself when it is exclusive."""
    config = PipelineConfig()
    cases = []
    for section in dataclasses.fields(config):
        for f in dataclasses.fields(getattr(config, section.name)):
            for kind, bound in f.metadata.get("bounds", {}).items():
                down = kind in ("min", "above")
                if kind in ("above", "below"):
                    value = bound
                elif isinstance(bound, int):
                    value = bound - 1 if down else bound + 1
                else:
                    value = math.nextafter(bound, -math.inf if down else math.inf)
                cases.append(pytest.param(f"{section.name}.{f.name}", kind, value,
                                          id=f"{section.name}.{f.name}-{kind}"))
    return cases


class TestFullPipeline:
    def test_end_to_end_smoke(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config)
        for name in ("news.jsonl", "prices.csv", "corpus.jsonl", "tokens.bin", "rejects.csv",
                     "weeks.csv", "extractor.model", "train_log.csv",
                     "weekly_sentiment.csv", "summarizer.model", "report.txt", "report.csv"):
            assert (wd / name).exists(), name
        assert (wd / "pot.bin").is_file()
        assert not (wd / "vocab.json").exists()  # the vocabulary is in pot.bin
        report = (wd / "report.txt").read_text()
        assert "accuracy:" in report and "mcc:" in report

    def test_manifests_written_beside_artifacts(self, tmp_path):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config)
        manifest = json.loads((wd / "weeks.csv.manifest.json").read_text())
        assert manifest["command"] == "label"
        assert manifest["config"]["polarity.vocab_size"] == 24
        assert set(manifest["inputs"]) == {"prices"}

    def test_score_manifest_hashes_every_input(self, tmp_path):
        from newstrend.artifacts import sha256_file

        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=STAGES[:5])
        manifest = json.loads((wd / "weekly_sentiment.csv.manifest.json").read_text())
        assert manifest["command"] == "score"
        assert manifest["inputs"] == {
            "tokens": sha256_file(wd / "tokens.bin"),
            "weeks": sha256_file(wd / "weeks.csv"),
            "pot": sha256_file(wd / "pot.bin"),
            "extractor": sha256_file(wd / "extractor.model"),
        }

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config)
        tracked = ["corpus.jsonl", "tokens.bin", "weeks.csv", "pot.bin", "extractor.model",
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

    @pytest.mark.parametrize("offset, target", [(1, "next-week change"),
                                                (3, "change 3 weeks ahead")])
    def test_overlay_correlation_names_the_target_offset(self, trained_workdir, tmp_path,
                                                         capsys, offset, target):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        capsys.readouterr()
        assert run(["export-plot-data", "--workdir", wd, "--config", config,
                    "--set", f"summarizer.target_offset={offset}",
                    "--allow-config-drift"]) == 0
        out = capsys.readouterr().out
        assert f"overlay correlation (weekly sentiment vs {target}): " in out


class TestSummarizerArtifacts:
    def test_summarizer_reads_one_weekly_score(self, trained_workdir):
        wd, _ = trained_workdir
        lines = (wd / "weekly_sentiment.csv").read_text().splitlines()
        assert lines[0] == "anchor,n_sampled,overall_score,true_class"
        model = json.loads((wd / "summarizer.model").read_text())
        assert sorted(model) == ["bias", "classes", "last_train_week", "weights"]
        assert [type(w) for w in model["weights"]] == [float, float]
        train_rows = lines[1:1 + BASE_CONFIG["summarizer.train_weeks"]]
        assert model["last_train_week"] == train_rows[-1].split(",")[0]

    def test_evaluate_without_a_test_week_names_the_split(self, trained_workdir, tmp_path,
                                                           capsys):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        path = wd / "weekly_sentiment.csv"
        lines = path.read_text().splitlines(keepends=True)
        n_train = BASE_CONFIG["summarizer.train_weeks"]
        path.write_text("".join(lines[:1 + n_train]))  # the training rows alone
        last = lines[n_train].split(",")[0]
        assert run(["evaluate", "--workdir", wd, "--config", config,
                    "--allow-config-drift"]) == 2
        assert (f"no test weeks after the training split, which ends {last} "
                f"(dataset has {n_train})" in capsys.readouterr().err)

    def test_evaluate_scores_only_weeks_after_the_trained_split(self, trained_workdir,
                                                                tmp_path):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        assert run(["evaluate", "--workdir", wd, "--config", config, "--allow-config-drift",
                    "--set", "summarizer.train_weeks=10"]) == 0
        assert (wd / "report.csv").read_bytes() == (source / "report.csv").read_bytes()
        assert (wd / "report.txt").read_bytes() == (source / "report.txt").read_bytes()
        n_rows = len((wd / "weekly_sentiment.csv").read_text().splitlines()) - 1
        n_test = n_rows - BASE_CONFIG["summarizer.train_weeks"]
        assert f"\nn: {n_test}\n" in (wd / "report.txt").read_text()

    def test_report_csv_holds_the_test_weeks_and_their_predictions(self, trained_workdir):
        wd, _ = trained_workdir
        lines = (wd / "report.csv").read_text().splitlines()
        assert lines[0] == "anchor,n_sampled,overall_score,true_class,predicted_class"
        scored = (wd / "weekly_sentiment.csv").read_text().splitlines()
        rows, predicted = zip(*(line.rsplit(",", 1) for line in lines[1:]))
        assert list(rows) == scored[1 + BASE_CONFIG["summarizer.train_weeks"]:]
        model = load_summarizer(wd / "summarizer.model")
        test = rows_after_training(read_weekly_sentiment_csv(wd / "weekly_sentiment.csv"), model)
        assert list(predicted) == [predict_week(model, row) for row in test]


class TestScoreCommand:
    @pytest.mark.parametrize("n_lags", [2, 7])
    def test_lag_count_comes_from_the_model(self, trained_workdir, tmp_path, capsys, n_lags):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        assert run(["score", "--workdir", wd, "--config", config, "--allow-config-drift",
                    "--set", f"polarity.n_lags={n_lags}"]) == 0
        n_lags = PipelineConfig().polarity.n_lags  # the count the model was trained on
        assert f"(+{n_lags - 1} warmup weeks not eligible)" in capsys.readouterr().out
        assert ((wd / "weekly_sentiment.csv").read_bytes()
                == (source / "weekly_sentiment.csv").read_bytes())


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
        assert len(PolarityModelSet.load(wd / "pot.bin").vocab) == 512


class TestLabelCommand:
    def test_label_reads_only_prices_and_may_run_before_ingest(self, tmp_path):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["label"])
        assert not (wd / "corpus.jsonl").exists() and not (wd / "tokens.bin").exists()
        header = (wd / "weeks.csv").read_text().splitlines()[0]
        assert header == "anchor,prev_anchor,pct_change,extractor_class,pot_class,summarizer_class"
        for stage in ("ingest", "pot"):
            assert run([stage, "--workdir", wd, "--config", config]) == 0


    @pytest.mark.parametrize("day", ["20150105", "2015-W02-1"])
    def test_price_date_other_than_yyyy_mm_dd_exits_two_naming_the_row(self, tmp_path,
                                                                       capsys, day):
        wd = tmp_path / "w"
        wd.mkdir()
        (wd / "prices.csv").write_text(f"date,close\n2015-01-02,100.0\n{day},101.0\n")
        assert run(["label", "--workdir", wd]) == 2
        err = capsys.readouterr().err
        assert "prices.csv line 3" in err and repr(day) in err
        assert not (wd / "weeks.csv").exists()


class TestIngestCommand:
    def test_corpus_lacking_a_proxy_category_ingests(self, tmp_path, capsys):
        wd = tmp_path / "w"
        small = ["--set", "synth.weeks=20", "--set", "synth.articles_per_week=5",
                 "--set", "synth.filler_vocab=300"]
        assert run(["synth", "--workdir", wd, *small]) == 0
        assert run(["ingest", "--workdir", wd, *small]) == 0
        assert "basic-materials:0:250=0" in capsys.readouterr().out
        assert (wd / "corpus.jsonl").exists()

    def test_ingest_holds_the_token_ids_not_the_records(self, tmp_path):
        # the deep bench workload's inputs, about 10 bytes of news.jsonl a
        # token; `ingest` reads them one line at a time and keeps only the
        # word table, the ids, the offsets and each kept record's id, day,
        # worthiness and (for the duplicate check) title
        config = PipelineConfig()
        news = tmp_path / config.paths.news
        write_outputs(SynthConfig(weeks=300, articles_per_week=12, seed=55, filler_vocab=300),
                      news, tmp_path / config.paths.prices)
        run_ingest(config, tmp_path, None)  # a first run imports what ingest imports
        peak = traced_peak(run_ingest, config, tmp_path, None)
        assert news.stat().st_size > 2_000_000
        assert peak < 2.0 * news.stat().st_size


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
        # 20150101 and 2015-W01-1 are ISO dates that only some Pythons parse
        for bad in ("2015-13", "2015/01", "2015x03", "+201-01", "20150101", "2015-W01-1"):
            for flag in ("--from", "--to"):
                assert run(["export-plot-data", "--workdir", wd, "--config", config,
                            "--word", "plunge", flag, bad]) == 1
                assert f"{flag} {bad!r}" in capsys.readouterr().err
        assert not (wd / "plots").exists()

    def test_from_after_to_exits_one_before_writing(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest", "label", "pot"])
        for start, end in (("2016-05", "2015-01"), ("2015-06-02", "2015-06-01")):
            assert run(["export-plot-data", "--workdir", wd, "--config", config,
                        "--word", "plunge", "--from", start, "--to", end]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"--from {start!r} is after --to {end!r}" in err
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

    @pytest.mark.parametrize("stage", ["pot", "export-plot-data"])
    @pytest.mark.parametrize("word", ["a/b", "Surge", "2020", "two words", ""])
    def test_word_tokenize_cannot_produce_exits_one_before_writing(
            self, trained_workdir, tmp_path, capsys, stage, word):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in wd.rglob("*")}

        before = tree()
        assert run([stage, "--workdir", wd, "--config", config, "--allow-config-drift",
                    "--word", "plunge", "--word", word]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{word!r} is not a token" in err
        assert tree() == before

    def test_pot_ranks_only_the_extractor_training_weeks(self, tmp_path, capsys):
        # at synth seed 1 the extractor selection picks the last labeled week,
        # which has no news; it must not shift the train/dev split pot ranks on
        from newstrend.extractor import load_extractor

        config = write_config(tmp_path, **{"synth.seed": 1})
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest", "label", "pot", "train-extractor"])
        pot_line, = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("pot: ")]
        n_train_weeks = len(load_extractor(wd / "extractor.model").train_weeks)
        assert pot_line.endswith(f" from {n_train_weeks} training weeks")

    def test_train_extractor_refuses_a_pot_ranked_on_other_training_weeks(self, tmp_path,
                                                                          capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=["ingest", "label", "pot"])
        for drift in ([], ["--allow-config-drift"]):
            assert run(["train-extractor", "--workdir", wd, "--config", config,
                        "--set", "extractor.seed=1", *drift]) == 2
            err = capsys.readouterr().err
            assert (f"error: {wd / 'pot.bin'} ranked its vocabulary on other training weeks"
                    in err and "re-run `pot`" in err)
        assert not (wd / "extractor.model").exists()

    @pytest.mark.parametrize("override", ["extractor.max_weeks_per_class=1",
                                          "extractor.dev_fraction=0.99"])
    def test_training_weeks_of_one_class_exit_two_naming_the_keys(self, trained_workdir,
                                                                   tmp_path, capsys, override):
        # a cap of one week a class leaves at most one training week, 0.99 none
        wd = tmp_path / "w"
        shutil.copytree(trained_workdir[0], wd)
        before = {p: p.read_bytes() for p in wd.iterdir() if p.is_file()}
        for stage in ("pot", "train-extractor"):
            assert run([stage, "--workdir", wd, "--config", trained_workdir[1],
                        "--set", override, "--allow-config-drift"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: the extractor's ") and " training week(s) hold " in err
            assert "extractor.max_weeks_per_class" in err and "extractor.dev_fraction" in err
        assert {p: p.read_bytes() for p in wd.iterdir() if p.is_file()} == before

    def test_export_warns_on_drift_from_each_input_it_reads(self, trained_workdir, tmp_path,
                                                            capsys):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        args = ["export-plot-data", "--workdir", wd, "--config", config, "--word", "plunge",
                "--set", "summarizer.target_offset=3"]
        assert run(args) == 0
        err = capsys.readouterr().err
        for name in ("pot.bin", "weekly_sentiment.csv", "weeks.csv", "prices.csv"):
            assert (f"warning: config differs from the manifest of {name} on: "
                    f"summarizer.target_offset (pass --allow-config-drift to silence)" in err)
        assert run([*args, "--allow-config-drift"]) == 0
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("dates", [["--from", "2015-02", "--to", "2015-03"],
                                       ["--from", "2015-02"], ["--to", "2015-03"]])
    def test_date_range_without_a_word_exits_one_before_writing(self, trained_workdir,
                                                                tmp_path, capsys, dates):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        assert run(["export-plot-data", "--workdir", wd, "--config", config, *dates]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --from and --to bound") and "--word" in err
        assert not (wd / "plots").exists()


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
        ("label", "prices.csv", "synth"),
        ("pot", "tokens.bin", "ingest"),
        ("train-extractor", "tokens.bin", "ingest"),
        ("score", "tokens.bin", "ingest"),
        ("train-summarizer", "weekly_sentiment.csv", "score"),
        ("evaluate", "weekly_sentiment.csv", "score"),
    ])
    def test_missing_input_exits_two_naming_it_and_its_stage(self, tmp_path, capsys,
                                                             stage, missing, producer):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        wd.mkdir()
        assert run(["synth", "--workdir", wd, "--config", config]) == 0
        (wd / missing).unlink(missing_ok=True)
        capsys.readouterr()
        assert run([stage, "--workdir", wd, "--config", config]) == 2
        err = capsys.readouterr().err
        assert repr(missing) in err and f"`{producer}`" in err
        if missing in CONFIG_PATHS:
            assert f"(or set paths.{CONFIG_PATHS[missing]})" in err
        assert not (wd / ".lock").exists()

    def test_a_workdir_under_a_regular_file_exits_one_naming_it(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("")
        assert run(["label", "--workdir", blocker / "sub"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot create the workdir {blocker / 'sub'}: Not a directory\n"

    def test_an_output_that_cannot_be_written_exits_two_naming_it(self, tmp_path, capsys):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        assert run(["synth", "--workdir", wd, "--config", config]) == 0
        (wd / "weeks.csv").mkdir()
        before = sorted(wd.iterdir())
        capsys.readouterr()
        assert run(["label", "--workdir", wd, "--config", config]) == 2
        assert f"cannot write {wd / 'weeks.csv'}: Is a directory" in capsys.readouterr().err
        assert sorted(wd.iterdir()) == before

    def test_a_plots_path_that_is_a_file_exits_two_naming_it(self, trained_workdir, tmp_path,
                                                             capsys):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        shutil.rmtree(wd / "plots", ignore_errors=True)
        (wd / "plots").write_text("")
        assert run(["export-plot-data", "--workdir", wd, "--config", config]) == 2
        assert f"cannot write {wd / 'plots'}: File exists" in capsys.readouterr().err

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
        ("summarizer.features=extended", "unknown config key 'summarizer.features'"),
        ('corpus.proxy_rules=["us:x:3"]', "corpus.proxy_rules"),
        ("synth.start=notadate", "synth.start"),
        ("synth.start=2015W021", "synth.start"),
        ('synth.start="20150101"', "synth.start"),  # quoted: unquoted is an int
        ("synth.start=2015-W01-1", "synth.start"),
        ("synth.start=+201-01-01", "synth.start"),
        ("synth.start=2015-01", "synth.start"),
        ("synth.start=2015-01-07", "synth.start must be a Monday, got '2015-01-07', a Wednesday"),
        ("synth.weeks=abc", "synth.weeks"),
        ("labels.up=0.5", "labels.down"),
        ("synth.block_min_weeks=30", "synth.block_min_weeks"),
        ("polarity.very_threshold=0.1 polarity.mild_threshold=5",
         "polarity.mild_threshold (5) must be <= polarity.very_threshold (0.1)"),
        # JSON spells non-finite floats NaN, Infinity and 1e309
        ("extractor.threshold=NaN", "extractor.threshold must be a finite number"),
        ("polarity.very_threshold=NaN polarity.mild_threshold=NaN",
         "polarity.very_threshold must be a finite number"),
        ("labels.policy=binary_symmetric labels.up=NaN labels.down=NaN",
         "labels.up must be a finite number"),
        ("summarizer.c=Infinity", "summarizer.c must be a finite number"),
        ("summarizer.c=1e309", "summarizer.c must be a finite number"),
        ("synth.pct_scale=-Infinity", "synth.pct_scale must be a finite number"),
        ('corpus.url_blocklist=["ok","("]', "corpus.url_blocklist entry '('"),
    ])
    def test_bad_config_value_exits_one_when_loaded(self, tmp_path, capsys, override, key):
        # an override holding spaces is several overrides
        sets = [arg for item in override.split(" ") for arg in ("--set", item)]
        wd = tmp_path / "w"
        assert run(["synth", "--workdir", wd, *sets]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (wd / "news.jsonl").exists()

    @pytest.mark.parametrize("sets, message", [
        # every week would be a training week, one that fell 0.5% "positive"
        (["extractor.threshold=-1"], "extractor.threshold must be >= 0.0, got -1"),
        # no week would be pos or neg
        (["polarity.very_threshold=0.1", "polarity.mild_threshold=5"],
         "polarity.mild_threshold (5) must be <= polarity.very_threshold (0.1)"),
    ], ids=["negative_extractor_threshold", "mild_above_very"])
    def test_label_thresholds_that_would_misclass_weeks_exit_one(self, tmp_path, capsys,
                                                                 sets, message):
        config = write_config(tmp_path, **{"synth.weeks": 60})
        wd = tmp_path / "w"
        assert run(["synth", "--workdir", wd, "--config", config]) == 0
        overrides = [arg for item in sets for arg in ("--set", item)]
        assert run(["label", "--workdir", wd, "--config", config, *overrides]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (wd / "weeks.csv").exists()

    @pytest.mark.parametrize("key, kind, value", declared_bounds())
    def test_value_past_a_declared_bound_exits_one_when_loaded(self, tmp_path, capsys,
                                                               key, kind, value):
        wd = tmp_path / "w"
        assert run(["synth", "--workdir", wd, "--set", f"{key}={value!r}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be {BOUNDS[kind][1]} ") and repr(value) in err
        assert not wd.exists()

    def test_ingest_keeping_no_record_exits_two_and_writes_nothing(self, tmp_path, capsys):
        wd = tmp_path / "w"
        assert run(["synth", "--workdir", wd, "--set", "synth.weeks=0"]) == 0
        assert (wd / "news.jsonl").read_bytes() == b""
        assert run(["ingest", "--workdir", wd, "--set", "synth.weeks=0"]) == 2
        err = capsys.readouterr().err
        assert "news.jsonl" in err and "0 lines, 0 parsed, 0 rejected, 0 after cleaning" in err
        assert sorted(p.name for p in wd.iterdir()) == [
            "news.jsonl", "news.jsonl.manifest.json", "prices.csv", "prices.csv.manifest.json"]

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
        run_pipeline(wd, config, stages=[])
        (wd / "prices.csv.manifest.json").write_text("{broken")
        assert run(["label", "--workdir", wd, "--config", config]) == 2
        assert "prices.csv.manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", '{"config": []}'])
    def test_input_manifest_of_the_wrong_shape_exits_two_naming_it(self, tmp_path, capsys,
                                                                    text):
        config = write_config(tmp_path)
        wd = tmp_path / "w"
        run_pipeline(wd, config, stages=[])
        (wd / "prices.csv.manifest.json").write_text(text)
        assert run(["label", "--workdir", wd, "--config", config]) == 2
        assert "prices.csv.manifest.json must hold a JSON object" in capsys.readouterr().err
        assert not (wd / "weeks.csv").exists()

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

    @pytest.mark.parametrize("c", ["1e-310", "1e200", "1e300"])
    def test_summarizer_c_past_the_float_range_exits_three(self, trained_workdir, tmp_path,
                                                           capsys, c):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        before = (wd / "summarizer.model").read_bytes()
        assert run(["train-summarizer", "--workdir", wd, "--config", config,
                    "--allow-config-drift", "--set", f"summarizer.c={c}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"summarizer.c={float(c)!r}" in err
        assert (wd / "summarizer.model").read_bytes() == before


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


def _edit_header(path, edit):
    magic, size, rest = path.read_bytes().split(b"\n", 2)
    header = json.loads(rest[: int(size)])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(b"%s\n%d\n%s%s" % (magic, len(blob), blob, rest[int(size):]))


def _pot_without_vocab(wd):
    _edit_header(wd / "pot.bin", lambda header: header.pop("vocab"))  # an older pot.bin
    return "pot.bin is corrupt: header lacks key 'vocab'"


def _pot_without_train_weeks(wd):
    _edit_header(wd / "pot.bin", lambda header: header.pop("train_weeks"))  # an older pot.bin
    return "pot.bin is corrupt: header lacks key 'train_weeks'"


def _pot_vocab_not_a_list(wd):
    _edit_header(wd / "pot.bin", lambda header: header.update(vocab=5))
    return "pot.bin is corrupt"


def _pot_vocab_repeated(wd):
    _edit_header(wd / "pot.bin", lambda header: header.update(vocab=header["vocab"][:1] * 2))
    return "pot.bin is corrupt: vocabulary words must be distinct"


def _edit_array(path, magic, name, change):
    """Rewrite the array `name` of the array file `path` as `change` of it."""
    header, arrays = read_arrays(path, magic, lambda header, arrays: (header, dict(arrays)), "test")
    arrays[name] = change(arrays[name])
    write_arrays(path, magic, header, list(arrays.items()))
    return f"{path.name} is corrupt: {name} "


def _in_first_layout(path):
    """Rewrite the array file `path` in the first layout, whose magic line
    ends in 1 and whose every array is float64, named without a dtype;
    return the magic lines it had and has."""
    magic = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
    header, arrays = read_arrays(path, magic, lambda header, arrays: (header, dict(arrays)), "test")
    old = magic.replace(" 2", " 1")
    for spec in header["arrays"]:
        del spec["dtype"]
    blob = json.dumps({**header, "magic": old}, sort_keys=True).encode("utf-8")
    path.write_bytes(b"%s\n%d\n%s" % (old.encode("ascii"), len(blob), blob)
                     + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays.values()))
    return magic, old


def _with_nan(a):
    a.flat[3] = math.nan
    return a


def _att_v_of_one_value(wd):  # broadcast over the whole block unless refused
    prefix = _edit_array(wd / "extractor.model", MODEL_MAGIC, "att_v", lambda a: a[:1])
    return prefix + "has shape [1], not [24]"


def _pot_mu_cut(wd):
    prefix = _edit_array(wd / "extractor.model", MODEL_MAGIC, "pot_mu", lambda a: a[:10])
    return prefix + "has shape [10], not [24]"


def _nan_in_model_block(wd):
    prefix = _edit_array(wd / "extractor.model", MODEL_MAGIC, "dense_w", _with_nan)
    return prefix + "holds a value that is not finite"


def _nan_pot_score(wd):
    prefix = _edit_array(wd / "pot.bin", POT_MAGIC, "scores", _with_nan)
    return prefix + "hold a value that is not finite"


def _model_of_no_lags(wd):
    _edit_header(wd / "extractor.model", lambda header: header.update(n_lags=0))
    return "extractor.model is corrupt: n_lags 0 is not a lag count"


def _model_lag_count_a_string(wd):
    _edit_header(wd / "extractor.model", lambda header: header.update(n_lags="4"))
    return "extractor.model is corrupt: n_lags '4' is not a lag count"


def _rename_vocab_word(wd):
    def edit(header):
        header["vocab"][0] += "x"

    _edit_header(wd / "extractor.model", edit)
    return "sha256"


def _other_encoder_kind(wd):
    _edit_header(wd / "extractor.model", lambda header: header["encoder"].update(kind="bert"))
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
    return (f"the vocabulary of {wd / 'pot.bin'} is not the one that "
            f"{wd / 'extractor.model'} was trained on; re-run `train-extractor`")


def _swap_vocab_words(wd):
    def edit(header):
        header["vocab"][:2] = header["vocab"][1::-1]

    _edit_header(wd / "pot.bin", edit)
    return "pot.bin is not the one that"


def _summarizer_without_classes(wd):
    (wd / "summarizer.model").write_text('{"kind": "x"}')
    return "summarizer.model lacks key 'classes'"


def _summarizer_without_last_train_week(wd):
    path = wd / "summarizer.model"
    payload = json.loads(path.read_text())
    del payload["last_train_week"]  # a model written before the key existed
    path.write_text(json.dumps(payload))
    return "summarizer.model lacks key 'last_train_week'; re-run `train-summarizer`"


def _set_csv_field(path, line, column, value):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[line - 1].split(",")
    fields[column] = value
    lines[line - 1] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")


def _nan_close(wd):
    _set_csv_field(wd / "prices.csv", 3, 1, "nan\n")
    return "prices.csv line 3"


def _inf_close(wd):
    _set_csv_field(wd / "prices.csv", 4, 1, "inf\n")
    return "prices.csv line 4"


def _nan_pct_change(wd):
    _set_csv_field(wd / "weeks.csv", 3, 2, "nan")
    return "weeks.csv line 3"


def _inf_pct_change(wd):
    _set_csv_field(wd / "weeks.csv", 4, 2, "-inf")
    return "weeks.csv line 4"


def _nan_overall_score(wd):
    _set_csv_field(wd / "weekly_sentiment.csv", 3, 2, "nan")
    return "weekly_sentiment.csv line 3"


def _inf_overall_score(wd):
    _set_csv_field(wd / "weekly_sentiment.csv", 4, 2, "inf")
    return "weekly_sentiment.csv line 4"


def _negative_n_sampled(wd):
    _set_csv_field(wd / "weekly_sentiment.csv", 3, 1, "-7")
    return "weekly_sentiment.csv line 3: bad or missing field n_sampled -7 is below 1"


def _repeated_weekly_sentiment_row(wd):
    path = wd / "weekly_sentiment.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(3, lines[3])  # trains on that week twice unless refused
    path.write_text("".join(lines), encoding="utf-8")
    anchor = lines[3].split(",")[0]
    return f"weekly_sentiment.csv line 5: {anchor} does not follow"


def _edit_summarizer(wd, key, value):
    path = wd / "summarizer.model"
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    return f"summarizer.model: '{key}' must be numbers of shape"


def _set_summarizer_classes(wd, classes):
    path = wd / "summarizer.model"
    payload = json.loads(path.read_text())
    payload.update(classes=classes, weights=[1.0] * len(classes), bias=[0.0] * len(classes))
    path.write_text(json.dumps(payload))
    return f"summarizer.model: bad 'classes' {classes!r}"


def _summarizer_class_repeated(wd):
    return _set_summarizer_classes(wd, ["down", "down", "up"])


def _summarizer_classes_out_of_order(wd):
    return _set_summarizer_classes(wd, ["up", "down", "preserve"])


def _nan_summarizer_weights(wd):
    return _edit_summarizer(wd, "weights", [math.nan, math.nan])


def _inf_summarizer_bias(wd):
    return _edit_summarizer(wd, "bias", [math.inf, -math.inf])


def _summarizer_of_nested_weights(wd):
    path = wd / "summarizer.model"
    payload = json.loads(path.read_text())
    # the layout written when each slope was a row of width 1
    payload.update(kind="binary-hinge", weights=[[w] for w in payload["weights"]])
    path.write_text(json.dumps(payload))
    return ("summarizer.model: 'weights' must be numbers of shape (2,), all finite; "
            "re-run `train-summarizer`")


class TestCorruptArtifacts:
    @pytest.mark.parametrize("corrupt", [_truncate_pot, _pot_directory_of_old_workdir,
                                         _truncate_model, _rename_vocab_word,
                                         _pot_without_vocab, _pot_vocab_not_a_list,
                                         _pot_vocab_repeated, _other_encoder_kind,
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
                                                ("pot", _repeated_weeks_row),
                                                ("pot", _weeks_not_utf8),
                                                ("evaluate", _summarizer_without_classes),
                                                ("evaluate",
                                                 _summarizer_without_last_train_week),
                                                ("train-extractor",
                                                 _pot_without_train_weeks),
                                                ("label", _nan_close),
                                                ("label", _inf_close),
                                                ("pot", _nan_pct_change),
                                                ("train-extractor", _inf_pct_change),
                                                ("train-summarizer", _nan_overall_score),
                                                ("evaluate", _inf_overall_score),
                                                ("train-summarizer", _negative_n_sampled),
                                                ("train-summarizer",
                                                 _repeated_weekly_sentiment_row),
                                                ("evaluate", _summarizer_class_repeated),
                                                ("evaluate", _summarizer_classes_out_of_order),
                                                ("evaluate", _nan_summarizer_weights),
                                                ("evaluate", _inf_summarizer_bias),
                                                ("evaluate", _summarizer_of_nested_weights),
                                                ("score", _att_v_of_one_value),
                                                ("score", _pot_mu_cut),
                                                ("score", _nan_in_model_block),
                                                ("score", _nan_pot_score),
                                                ("score", _model_of_no_lags),
                                                ("score", _model_lag_count_a_string)])
    def test_stage_exits_two_naming_the_artifact(self, trained_workdir, tmp_path, capsys,
                                                 stage, corrupt):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        expected = corrupt(wd)
        assert run([stage, "--workdir", wd, "--config", config, "--allow-config-drift"]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("name, reader, writer", [("tokens.bin", "pot", "ingest"),
                                                      ("pot.bin", "train-extractor", "pot"),
                                                      ("extractor.model", "score",
                                                       "train-extractor")])
    def test_a_file_of_the_first_layout_exits_two_naming_the_stage_that_rewrites_it(
            self, trained_workdir, tmp_path, capsys, name, reader, writer):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        magic, old = _in_first_layout(wd / name)
        assert run([reader, "--workdir", wd, "--config", config, "--allow-config-drift"]) == 2
        assert (f"{wd / name} is corrupt: expected magic '{magic}', found b'{old}'; "
                f"re-run `{writer}` to rewrite it") in capsys.readouterr().err


# input faults, each a function of the file's bytes
FAULTS = {
    "emptied": lambda data: b"",
    "halved": lambda data: data[: len(data) // 2],
    "garbled": lambda data: data[: len(data) // 2] + b"\xff{" + data[len(data) // 2:],
}


class TestFaultyInputs:
    """Every declared input of every stage, emptied, cut in half or with
    undecodable bytes inserted: the stage exits 0 or 2 and never raises.
    Truncated raw news and prices may still parse, so inserted bytes must
    exit 2 naming the file, and so must every emptied input."""

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
        if fault in ("garbled", "emptied"):
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
    check that a traced stage records the layers it runs."""

    def traced_span_names(self, trained_workdir, tmp_path, stage):
        source, config = trained_workdir
        wd = tmp_path / "w"
        shutil.copytree(source, wd)
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        spans_path = tmp_path / f"{stage}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "launcher.py"), str(spans_path),
             f"test-{stage}", stage, "--workdir", ".", "--config", str(config),
             "--allow-config-drift"],
            cwd=wd, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(spans_path.read_text())
        assert payload["missing"] == []
        return [span[0] for span in payload["spans"]]

    def test_traced_ingest_records_its_layers(self, trained_workdir, tmp_path):
        names = self.traced_span_names(trained_workdir, tmp_path, "ingest")
        assert names.count("corpus.ingest_news") == 1
        # every kept record is tokenized exactly once
        n_records = len((tmp_path / "w" / "corpus.jsonl").read_text().splitlines())
        assert names.count("corpus.tokenize") == n_records

    def test_traced_score_records_its_layers(self, trained_workdir, tmp_path):
        names = self.traced_span_names(trained_workdir, tmp_path, "score")
        for layer in ("polarity.PolarityModelSet.matrix", "extractor.ExtractorModel.forward"):
            assert layer in names, layer
        assert "corpus.tokenize" not in names
