"""End-to-end pipeline walkthrough via the CLI.

Generates a planted-signal corpus, then runs every stage into one workdir:
ingest -> label -> pot -> train-extractor -> score -> train-summarizer ->
evaluate -> export-plot-data. Prints the final report and where each
artifact landed. Everything is seeded, so re-running reproduces every file
byte for byte.

Run:  python3 demos/04_full_pipeline.py [workdir]
"""

import json
import sys
import tempfile
from pathlib import Path

from newstrend.cli import main as newstrend

CONFIG = {
    "labels.policy": "binary_asymmetric",
    "polarity.vocab_size": 64,
    "extractor.dim": 32, "extractor.emb_dim": 32, "extractor.hidden": 64,
    "extractor.epochs": 12, "extractor.max_weeks_per_class": 10,
    "summarizer.train_weeks": 45,
    "synth.weeks": 120, "synth.articles_per_week": 50, "synth.seed": 55,
    "synth.filler_vocab": 300,
}

STAGES = ["synth", "ingest", "label", "pot", "train-extractor", "score",
          "train-summarizer", "evaluate"]


def main(workdir=None):
    workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="newstrend-demo-"))
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(CONFIG, indent=1))
    print(f"workdir: {workdir}\n")

    for stage in STAGES:
        print(f"$ newstrend {stage}")
        rc = newstrend([stage, "--workdir", str(workdir), "--config", str(config_path),
                        "--allow-config-drift"])
        if rc != 0:
            print(f"stage {stage} failed with exit code {rc}")
            return rc
        print()

    print("$ newstrend export-plot-data --word surge --word plunge")
    newstrend(["export-plot-data", "--workdir", str(workdir), "--config", str(config_path),
               "--allow-config-drift", "--word", "surge", "--word", "plunge"])

    print("\nartifacts:")
    for path in sorted(workdir.iterdir()):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            print(f"  {path.name:24s} {path.stat().st_size:>9,} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
