"""Smoke tests for the parameter-study scripts: each runs from the checkout
with src/ on the path and prints a CSV header plus rows of finite values."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("script,header,n_rows", [
    ("theta_convergence.py", "alpha,S_p0_over_r,theta,theta_star,gap", 35),
    ("ensemble_size_sweep.py", "N,alpha,mean_dp,mean_dp_se,var_dp,p_a", 7),
])
def test_script_prints_finite_csv(script, header, n_rows):
    lines = _run(script)
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
    for line in lines[1:]:
        assert all(math.isfinite(float(tok)) for tok in line.split(","))


def test_gate_false_alarms_reports_each_gate():
    # three seeds of each gate on its committed config
    lines = _run("gate_false_alarms.py", "3")
    assert [line.split(" ", 1)[0] for line in lines] == ["mc-verify", "po-penalty"]
    for line in lines:
        m = re.search(r": 3 seeds, (\d) FAIL \(.*\), 0 refused; worst gap quartiles "
                      r"([\d.]+) / ([\d.]+) / ([\d.]+) SE, max ([\d.]+) SE$", line)
        assert m, line
        q = [float(x) for x in m.groups()[1:]]
        assert q == sorted(q)
