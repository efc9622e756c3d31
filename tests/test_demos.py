"""Smoke test: the quick demos run to completion and print every section.

Demo 03 trains an extractor for about ten seconds, so it runs in CI's own
step rather than here. Demo 04 runs the whole pipeline in about a second,
into a workdir under the test's temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_weekly_calendar.py": [
        "1. a price series",
        "2. Monday anchors and weekly percent changes",
        "3. labels under the binning policies",
        "4. weekday autocorrelation",
    ],
    "02_polarity_lexicon.py": [
        "1. TF-IDF difference ranking",
        "2. vocabulary = the most polar words",
        "3. weekly polarity models over a rolling 13-week window",
        "4. trajectories track the planted mood regime",
    ],
    "04_full_pipeline.py": [
        *(f"$ newstrend {stage}" for stage in ("synth", "ingest", "label", "pot",
                                                "train-extractor", "score",
                                                "train-summarizer", "evaluate")),
        "$ newstrend export-plot-data --word surge --word plunge",
        "evaluation report",
        "artifacts:",
    ],
}
# arguments of each demo that takes any: demo 04's workdir, which it
# otherwise makes with tempfile.mkdtemp and leaves behind (demos run in
# the test's temporary directory)
ARGS = {"04_full_pipeline.py": ["work"]}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs_and_prints_its_sections(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / demo), *ARGS.get(demo, [])],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for header in DEMOS[demo]:
        assert header in proc.stdout, header
