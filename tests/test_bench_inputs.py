"""The benchmark's recorded input digests still match what `newstrend.synth`
generates.

`bench/run.py` fails a run as "workload changed" when the generated inputs
differ from `bench/digests.json`; this makes such an edit to the generator a
test failure first. It regenerates the default seed of every workload.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_default_seed_inputs_match_recorded_digests(workload, tmp_path):
    recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    run.setup_inputs(run.WORKLOADS[workload], run.DEFAULT_SEED, tmp_path)
    assert run.input_digests(tmp_path) == recorded[workload][str(run.DEFAULT_SEED)]
