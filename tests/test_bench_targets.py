"""The benchmark's trace targets must all still exist in the package.

A renamed function would otherwise surface only as a failed operation of a
traced benchmark run; this makes it a test failure.
"""

import sys
from pathlib import Path

import newstrend.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from launcher import SYNTH_TARGETS, TARGETS, Tracer  # noqa: E402


def test_every_trace_target_exists():
    tracer = Tracer("tests")
    tracer.install(TARGETS + SYNTH_TARGETS, also_in=(newstrend.cli,))
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
