"""Every name a module reads is bound somewhere it can resolve to.

A name read in a function but bound nowhere raises NameError only when that
line runs, which a test that skips (the real-data acceptance test without
its data) never does. `symtable` sees every scope of a module without
running it.
"""

import builtins
import symtable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
# bound in every module's namespace, though not in builtins
MODULE_NAMES = {"__file__", "__cached__", "__builtins__"}


def _tables(table):
    yield table
    for child in table.get_children():
        yield from _tables(child)


def _bound(symbol) -> bool:
    return (symbol.is_assigned() or symbol.is_imported() or symbol.is_parameter()
            or symbol.is_namespace())


def unbound_reads(path: Path) -> list[str]:
    """Each name of `path` that is read as a global but bound neither at
    module level, nor by a `global` statement, nor in builtins."""
    top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    tables = list(_tables(top))
    bound = set(dir(builtins)) | MODULE_NAMES
    bound |= {s.get_name() for s in top.get_symbols() if _bound(s)}
    bound |= {s.get_name() for t in tables for s in t.get_symbols()
              if s.is_declared_global() and s.is_assigned()}
    return sorted({f"{t.get_name()}: {s.get_name()}" for t in tables for s in t.get_symbols()
                   if s.is_referenced() and s.is_global() and s.get_name() not in bound})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_name_read_is_bound(path):
    assert unbound_reads(path) == []


def test_an_unbound_read_in_a_function_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\n\ndef f(a):\n    b = a\n    return os.sep, b, len(a), result\n")
    assert unbound_reads(path) == ["f: result"]
