"""What importing the package costs: the package root resolves its public
names lazily, and only the stages that do numeric work load numpy.

Each check runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import newstrend
from newstrend.cli import main

ROOT = Path(__file__).resolve().parents[1]


def python(code: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["newstrend", "newstrend.cli"])
def test_import_leaves_numpy_unloaded(module):
    proc = python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_ingest_and_label_leave_numpy_unloaded(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth.weeks": 20, "synth.articles_per_week": 5,
                                  "synth.filler_vocab": 300}))
    wd = tmp_path / "w"
    assert main(["synth", "--workdir", str(wd), "--config", str(config)]) == 0
    for stage in ("ingest", "label"):
        proc = python(
            "import sys\n"
            "from newstrend.cli import main\n"
            f"rc = main([{stage!r}, '--workdir', 'w', '--config', 'config.json'])\n"
            "print(rc, 'numpy' in sys.modules)\n",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False", (stage, proc.stdout)
    assert (wd / "weeks.csv").is_file()


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
