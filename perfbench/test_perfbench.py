"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke test runs every workload for one second, untraced and traced,
and checks that each metric BENCHMARK.json names appears with its unit.
The negative tests show that the output check is not vacuous: one
perturbed value, one value out of its bounds or one missing row fails it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, seconds=1):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed",
           str(workloads.DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.self_sum_frac"]["value"] == pytest.approx(1.0, rel=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".out"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _first_job(name, seed=workloads.DEFAULT_SEED):
    wl = workloads.WORKLOADS[name](seed)
    job = wl.job(0)
    return wl, job, wl.run(job, False)


def test_one_perturbed_value_fails_the_reference_check():
    wl, job, table = _first_job("moments")
    wl.check(job, table)
    col = wl.header.index("po_penalty")
    i = int(abs(table[:, col]).argmax())
    table[i, col] *= 1.0 + 10 * wl.rtol
    with pytest.raises(workloads.CheckError, match="reference"):
        wl.check(job, table)


def _rewrite_csv(wl, edit):
    header, table = workloads.parse_csv(wl.csv.read_text())
    table = edit(header, table)
    wl.csv.write_text(",".join(header) + "\n"
                      + "".join(",".join("%.17g" % v for v in row) + "\n" for row in table))


def test_one_perturbed_csv_value_fails_the_reference_check():
    wl, job, rc = _first_job("schedule")
    wl.check(job, rc)

    def nudge(header, table):
        table[500, header.index("theta")] *= 1.0 - 1e-6
        return table

    _rewrite_csv(wl, nudge)
    with pytest.raises(workloads.CheckError, match="reference"):
        wl.check(job, rc)


def test_theta_above_theta_star_fails_on_any_seed():
    wl, job, rc = _first_job("schedule", seed=12345)
    wl.check(job, rc)

    def overshoot(header, table):
        table[3, header.index("theta")] = job.alpha / (job.alpha - 1.0) * (1 + 1e-12)
        return table

    _rewrite_csv(wl, overshoot)
    with pytest.raises(workloads.CheckError, match="theta outside"):
        wl.check(job, rc)


def test_incomplete_mc_verify_csv_fails_on_any_seed():
    wl, job, rc = _first_job("mc_verify", seed=12345)
    wl.check(job, rc)
    _rewrite_csv(wl, lambda header, table: table[:-1])
    with pytest.raises(workloads.CheckError, match="rows"):
        wl.check(job, rc)
