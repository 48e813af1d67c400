"""Smoke tests for the parameter-study scripts: each runs from the checkout
with src/ on the path and prints a CSV header plus rows of finite values."""

import math
import os
import re
import shutil
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


def test_entry_cost_prints_a_positive_cost_per_entry():
    lines = _run("entry_cost.py", "--calls", "202")
    assert lines[0] == "entry,ns_per_call"
    rows = [line.split(",") for line in lines[1:]]
    assert [name for name, _ in rows] == [
        "expected_dp", "second_moment_dp", "expected_dx", "second_moment_dx", "po_gain_mean",
        "po_gain_fourth", "po_variance_penalty", "skf_closed_form", "loop"]
    assert all(0.0 < float(ns) < math.inf for _, ns in rows)


def test_csv_cost_prints_a_positive_cost_per_table():
    # the script exits nonzero if the writer's bytes differ from "%.17g"
    lines = _run("csv_cost.py")
    assert lines[0] == ("table,rows,cols,writer_ns_per_value,per_value_ns_per_value,"
                        "writer_extra_us")
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:3] for row in rows] == [["schedule", "1001", "6"], ["mc_verify", "21", "25"],
                                         ["po_penalty", "26", "10"]]
    assert all(0.0 < float(ns) < math.inf for row in rows for ns in row[3:5])


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
        # the statistics the verdict lines named: one per FAIL, one per run
        fails, held = re.search(r"; FAILs decided by (.*); worst gaps held by (.*)\), ",
                                line).groups()
        counts = [sum(int(t.rsplit(" ", 1)[1]) for t in tally.split(", ") if t != "none")
                  for tally in (fails, held)]
        assert counts == [int(m[1]), 3]


def test_golden_diff_exits_1_when_a_table_moved_or_is_new(tmp_path):
    # a checkout of its own: the script reads HEAD's tables through git
    out = tmp_path / "scripts" / "out"
    out.mkdir(parents=True)
    shutil.copy(ROOT / "scripts" / "golden_diff.py", tmp_path / "scripts")
    for name in ("a.csv", "b.csv"):
        (out / name).write_bytes(b"step,x\n0,1\n1,2\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "tables"], check=True)

    def diff():
        proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "golden_diff.py")],
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout.splitlines()

    assert diff() == (0, ["a.csv: unchanged", "b.csv: unchanged"])
    (out / "b.csv").write_bytes(b"step,x\n0,1\n1,3\n")
    assert diff() == (1, ["a.csv: unchanged", "b.csv x 5.0e-01"])
    for moved in (b"step,x\n0,1\n", b"step,x\r\n0,1\r\n1,2\r\n"):
        (out / "b.csv").write_bytes(moved)
        assert diff() == (1, ["a.csv: unchanged",
                              "b.csv: the header, the table's shape or its line ends changed"])
    (out / "b.csv").write_bytes(b"step,x\n0,1\n1,2\n")
    (out / "c.csv").write_bytes(b"step,x\n0,1\n")
    assert diff() == (1, ["a.csv: unchanged", "b.csv: unchanged", "c.csv: not in HEAD"])


def test_count_loc_counts_no_blank_comment_or_docstring_line(tmp_path):
    # a.py: 7 lines of code, the string assigned over two lines among them;
    # neither the module's, the function's nor the class's docstring counts
    (tmp_path / "a.py").write_text('''"""Module docstring
over two lines."""

import os  # a comment

# a comment line


def f(x):
    """One-line docstring."""
    s = """a string
that is code"""
    return s + x


class C:
    """Doc."""

    y = 1
''', encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n\n", encoding="utf-8")
    assert _run("count_loc.py", str(tmp_path)) == ["a.py 7", "b.py 1", "total 8"]
