"""Every entry point the benchmark's span tracer wraps must exist.

perfbench/spans.py lists in POINTS the (module, attribute) names through
which each layer is reached; a renamed or deleted one breaks the traced
benchmark run.  This resolves them all without installing the tracer.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import POINTS  # noqa: E402


@pytest.mark.parametrize("module,attr", sorted({(p[0], p[1]) for p in POINTS}))
def test_traced_entry_point_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
