"""Record the sha256 of each workload's generated inputs, per seed.

    python3 bench/record_digests.py

writes `bench/digests.json`: workload -> seed -> {news.jsonl, prices.csv}
for seeds 0 .. 99, the default seed among them. `run.py` compares every
input it generates against this table and fails the run as "workload
changed" on a mismatch, so an edit to `newstrend.synth` cannot silently
change what the benchmark measures. Re-record only in a change that means to alter the
workloads.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(100)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workdir = run.WORK / "digests"
    table = {}
    for name, workload in run.WORKLOADS.items():
        table[name] = {}
        for seed in SEEDS:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            run.setup_inputs(workload, seed, workdir)
            table[name][str(seed)] = run.input_digests(workdir)
        print(f"{name}: {len(SEEDS)} seeds recorded")
    shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
