"""Every entry point the benchmark's span tracer wraps must exist.

perfbench/spans.py lists in POINTS the (module, attribute) names through
which each layer is reached; a renamed or deleted one breaks the traced
benchmark run.  This resolves them all without installing the tracer, and
checks that a closed-form refusal raises the same error with it installed.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import POINTS, Tracer  # noqa: E402
from conftest import make_trajectory  # noqa: E402


@pytest.mark.parametrize("module,attr", sorted({(p[0], p[1]) for p in POINTS}))
def test_traced_entry_point_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_a_refused_cell_raises_its_error_under_the_tracer():
    # the tracer replaces discrepancy.ratio_second_moment, which the tables
    # call by name; the refusal of a NaN cell must not look that name up
    from filterlab import discrepancy as dsc

    traj = make_trajectory(42, 10, low=0.7, high=0.95)
    inp = dsc.PerturbedInputs(p0=1e200, x0=0.2, p_tilde0=1e200, x_tilde0=0.1, alpha=5.0,
                              r=0.8)
    want = ("phat0: step 3: the closed form of E[dp^2] is NaN, which no moment is: an "
            "input of size 1e+200 takes it out of double range")
    tracer = Tracer()
    tracer.install()
    try:
        dsc._moment_table.cache_clear()
        tracer.begin_job()
        with pytest.raises(dsc.InputError) as traced:
            dsc.second_moment_dp(traj, inp, 3)
    finally:
        tracer.uninstall()
        dsc._moment_table.cache_clear()
    with pytest.raises(dsc.InputError) as plain:
        dsc.second_moment_dp(traj, inp, 3)
    assert str(traced.value) == str(plain.value) == want
