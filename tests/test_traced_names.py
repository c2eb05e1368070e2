"""Every name the benchmark's tracer wraps must exist in the package.

``perfbench/trace_layers.TRACED`` maps (module, attribute path) to a span;
the tracer replaces each one with a wrapper, so a traced name that is
dropped or renamed breaks only the traced benchmark run.  This test reads
that table and resolves every entry the way the tracer does.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from trace_layers import TRACED  # noqa: E402


@pytest.mark.parametrize("module, path", sorted(TRACED))
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"schedmech.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), f"schedmech.{module}.{path}"
