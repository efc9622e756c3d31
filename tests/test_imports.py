"""What importing the package costs: the package root resolves its public
names lazily, only the stages that do array work load numpy, and importing
the CLI gives those stages one BLAS thread unless the user chose a count.

Each check runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import newstrend
from newstrend.cli import BLAS_THREAD_VARS, main

from conftest import BASE_CONFIG

ROOT = Path(__file__).resolve().parents[1]


def python(code: str, cwd=None, threads=None) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter; `threads`, when given, replaces
    every BLAS thread variable of the environment."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if threads is not None:
        for name in BLAS_THREAD_VARS:
            env.pop(name, None)
        env.update(threads)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["newstrend", "newstrend.cli"])
def test_import_leaves_numpy_unloaded(module):
    proc = python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def after_cli_import(threads: dict) -> list:
    """The BLAS thread variables, and whether numpy is loaded, once a fresh
    interpreter whose thread variables are `threads` imports `newstrend.cli`."""
    proc = python("import json, os, sys, newstrend.cli\n"
                  "env = {k: os.environ.get(k) for k in %r}\n"
                  "print(json.dumps([env, 'numpy' in sys.modules]))" % (BLAS_THREAD_VARS,),
                  threads=threads)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_sets_one_blas_thread_before_numpy_loads():
    env, numpy_loaded = after_cli_import({})
    assert env == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                   "MKL_NUM_THREADS": None}
    assert not numpy_loaded


@pytest.mark.parametrize("name", BLAS_THREAD_VARS)
def test_cli_import_keeps_a_thread_count_the_user_set(name):
    env, _ = after_cli_import({name: "2"})
    assert env == {k: "2" if k == name else None for k in BLAS_THREAD_VARS}


def test_extractor_artifacts_do_not_depend_on_the_thread_default(tmp_path):
    """At a 512-word polarity vocabulary and hidden size 512, two BLAS threads
    round some products differently from one, so `extractor.model` and
    `weekly_sentiment.csv` would depend on the machine's core count if the
    stages ran the BLAS default of one thread per core."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth.weeks": 60, "synth.articles_per_week": 10, "synth.filler_vocab": 500,
        "synth.seed": 55, "polarity.vocab_size": 512, "extractor.epochs": 2,
        "summarizer.train_weeks": 12, "labels.policy": "binary_asymmetric",
    }))
    base = tmp_path / "base"
    for stage in ("synth", "ingest", "label", "pot"):
        assert main([stage, "--workdir", str(base), "--config", str(config)]) == 0
    outputs = {}
    for label, threads in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        wd = tmp_path / label
        shutil.copytree(base, wd)
        for stage in ("train-extractor", "score"):
            proc = python("import sys\nfrom newstrend.cli import main\n"
                          f"sys.exit(main([{stage!r}, '--workdir', {str(wd)!r}, "
                          f"'--config', {str(config)!r}]))", threads=threads)
            assert proc.returncode == 0, proc.stderr
        outputs[label] = [(wd / n).read_bytes()
                          for n in ("extractor.model", "weekly_sentiment.csv")]
    assert outputs["unset"] == outputs["one"]


def test_ingest_and_label_leave_numpy_unloaded(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth.weeks": 20, "synth.articles_per_week": 5,
                                  "synth.filler_vocab": 300}))
    wd = tmp_path / "w"
    assert main(["synth", "--workdir", str(wd), "--config", str(config)]) == 0
    for stage in ("ingest", "label"):
        run_stage_in_fresh_python(tmp_path, stage)
    assert (wd / "weeks.csv").is_file()


def weekly_sentiment_workdir(tmp_path):
    """A workdir holding only a `weekly_sentiment.csv` of 30 weeks, and a
    config that trains the summarizer on the first 20."""
    from datetime import date, timedelta

    from newstrend.summarizer import WeeklySentiment, write_weekly_sentiment_csv

    (tmp_path / "config.json").write_text(json.dumps({"summarizer.train_weeks": 20}))
    (tmp_path / "w").mkdir()
    write_weekly_sentiment_csv(
        [WeeklySentiment(week=date(2020, 1, 6) + timedelta(days=7 * i), n_sampled=3,
                         overall_score=0.2 + 0.6 * (i % 2), label=("down", "up")[i % 2],
                         sampled_ids=()) for i in range(30)],
        tmp_path / "w" / "weekly_sentiment.csv",
    )


def run_stage_in_fresh_python(tmp_path, stage):
    proc = python(
        "import sys\n"
        "from newstrend.cli import main\n"
        f"rc = main([{stage!r}, '--workdir', 'w', '--config', 'config.json'])\n"
        "print(rc, 'numpy' in sys.modules)\n",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False", (stage, proc.stdout)


def test_train_summarizer_leaves_numpy_unloaded(tmp_path):
    weekly_sentiment_workdir(tmp_path)
    run_stage_in_fresh_python(tmp_path, "train-summarizer")
    assert (tmp_path / "w" / "summarizer.model").is_file()


def test_evaluate_leaves_numpy_unloaded(tmp_path):
    weekly_sentiment_workdir(tmp_path)
    assert main(["train-summarizer", "--workdir", str(tmp_path / "w"),
                 "--config", str(tmp_path / "config.json")]) == 0
    run_stage_in_fresh_python(tmp_path, "evaluate")
    assert (tmp_path / "w" / "report.txt").read_text().startswith("evaluation report\n")


def test_pot_leaves_the_extractor_and_numpy_ma_unimported(tmp_path):
    # `pot` picks the extractor's weeks through `weeks`, not `extractor`, and
    # counts without `np.unique`, which imports numpy.ma
    wd = tmp_path / "w"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    for stage in ("synth", "ingest", "label"):
        assert main([stage, "--workdir", str(wd), "--config", str(config)]) == 0
    proc = python(
        "import sys\n"
        "from newstrend.cli import main\n"
        "rc = main(['pot', '--workdir', 'w', '--config', 'config.json'])\n"
        "print(rc, 'newstrend.extractor' in sys.modules, 'numpy.ma' in sys.modules)\n",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False", proc.stdout
    assert (wd / "pot.bin").is_file()


def test_load_extractor_draws_nothing_and_restores_the_model(tmp_path):
    import numpy as np

    from newstrend.corpus import Vocabulary
    from newstrend.extractor import ExtractorModel, ReferenceEncoder, TrainedExtractor, \
        save_extractor

    rng = np.random.default_rng(4)
    model = ExtractorModel(Vocabulary(words=("a", "b", "c")),
                           ReferenceEncoder(["x", "y"], dim=4, emb_dim=5),
                           n_lags=2, hidden=6, lam=0.5, seed=9)
    model.flat[...] = rng.normal(size=model.flat.size)  # every block, heads and biases too
    model.pot_mu, model.pot_sigma = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    save_extractor(TrainedExtractor(model, train_weeks=(), dev_weeks=()), tmp_path / "m.model")
    proc = python(
        "import sys\n"
        "from newstrend.extractor import load_extractor\n"
        "m = load_extractor('m.model').model\n"
        "print('numpy.random' in sys.modules)\n"
        "open('restored', 'wb').write(m.flat.tobytes() + m.pot_mu.tobytes()"
        " + m.pot_sigma.tobytes())\n",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    want = model.flat.tobytes() + model.pot_mu.tobytes() + model.pot_sigma.tobytes()
    assert (tmp_path / "restored").read_bytes() == want


def readme_library_names() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from newstrend import \((.*?)\)", text, re.S)
    assert block is not None, "README lost its `from newstrend import (...)` block"
    return [name.strip() for name in block.group(1).split(",") if name.strip()]


@pytest.mark.parametrize("name", readme_library_names())
def test_readme_library_names_resolve(name):
    assert getattr(newstrend, name) is not None


def test_every_exported_name_resolves_from_its_module():
    for name in newstrend.__all__:
        value = getattr(newstrend, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(newstrend.__all__) <= set(dir(newstrend))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        newstrend.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from newstrend import no_such_name  # noqa: F401
