"""The README quick start runs as written: its config file is written and
every `newstrend ...` line of the block exits 0 without a warning. Every
config key the README names exists."""

import re
import shlex
from pathlib import Path

import newstrend
from newstrend.cli import STAGES, main
from newstrend.config import PipelineConfig
from newstrend.weeks import POLICY_THRESHOLDS

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


def unknown_config_keys(text: str) -> list[str]:
    """The backticked `section.key` names of `text` whose section is a config
    section but which are no config key. Artifact names (`extractor.model`)
    and library names (`synth.generate`) that start with a section are not
    keys."""
    flat = PipelineConfig().to_flat()
    sections = {key.split(".", 1)[0] for key in flat}
    artifacts = {name for stage in STAGES.values() for name in stage.outputs}

    def library(section, name):
        value = getattr(newstrend, name, None)
        return getattr(value, "__module__", None) == f"newstrend.{section}"

    return sorted({f"{section}.{name}"
                   for section, name in re.findall(r"`([a-z_]+)\.([a-z_]+)`", text)
                   if section in sections and f"{section}.{name}" not in flat
                   and f"{section}.{name}" not in artifacts and not library(section, name)})


def test_readme_names_only_config_keys_that_exist():
    assert unknown_config_keys(README.read_text(encoding="utf-8")) == []
    # the check sees a removed key, and passes keys, artifacts and library names
    assert unknown_config_keys("`summarizer.features` `summarizer.c` `summarizer.model` "
                               "`synth.generate` `synth.start`") == ["summarizer.features"]


def artifacts_table() -> dict[str, str]:
    """Each file of README's "Workdir artifacts" table, mapped to the stage
    named beside it."""
    section = README.read_text(encoding="utf-8").split("\n### Workdir artifacts\n", 1)[1]
    table = {}
    for line in section.split("\n\n", 1)[0].splitlines()[3:]:  # past the header rows
        files, stage, _ = line.split("|")[1:-1]
        for name in re.findall(r"`([^`]+)`", files):
            table[name] = re.search(r"`([^`]+)`", stage)[1]
    return table


def test_artifacts_table_names_every_stage_output():
    table = artifacts_table()
    assert table.pop("plots/*.csv") == "export-plot-data"  # its outputs depend on its inputs
    assert table == {name: command for command, stage in STAGES.items()
                     for name in stage.outputs}


def test_only_synth_hands_on_more_than_one_output():
    # a stage whose outputs are read together can die between writing them
    # and leave a half-written stage to the next one; synth's two go to
    # different stages, and a user may supply them
    read = {name for stage in STAGES.values() for name in stage.inputs}
    assert [command for command, stage in STAGES.items()
            if len(read.intersection(stage.outputs)) > 1] == ["synth"]


def test_policy_paragraph_names_each_policy_with_its_default_thresholds():
    text = " ".join(README.read_text(encoding="utf-8").split())  # lines unwrapped
    paragraph = text.split("`labels.policy` is one of", 1)[1].split("`labels.up`", 1)[0]
    named = {name: (float(up), float(down)) for name, up, down in re.findall(
        r"`([a-z_]+)` \(up above (-?[\d.]+), down below (-?[\d.]+)", paragraph)}
    assert named == POLICY_THRESHOLDS
