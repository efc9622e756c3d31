"""The README quick start runs as written: its config file is written and
every `newstrend ...` line of the block exits 0 without a warning."""

import re
import shlex
from pathlib import Path

from newstrend.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Quick start", 1)[1]
    return section.split("```bash\n", 1)[1].split("\n```", 1)[0]


def test_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    block = quick_start_block()
    heredoc = re.search(r"^cat > (\S+) <<'EOF'\n(.*?)\nEOF$", block, re.M | re.S)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("newstrend ")]
    assert heredoc is not None and len(commands) == 9
    monkeypatch.chdir(tmp_path)
    Path(heredoc[1]).write_text(heredoc[2], encoding="utf-8")
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert capsys.readouterr().err == ""
    assert (tmp_path / "work" / "plots" / "trajectory_surge.csv").is_file()
