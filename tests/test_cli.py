"""Command-line interface and configuration tests.

Runs subcommands in-process through filterlab.cli.main so exit codes,
stdout/stderr, and output files can be asserted directly.
"""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import filterlab.cli as cli
import filterlab.discrepancy as dsc

from filterlab.cli import (build_parser, main, _INFL_COLS, _MC_COLS, _PO_COLS, _SKF_COLS,
                           _SPENKF_COLS, _STREAM_ENSEMBLE, _trajectory, _write_csv)
from filterlab.config import ConfigError, ExperimentConfig
from filterlab.rng import RngSpec
from filterlab.skf import skf_run
from filterlab.spenkf import inflation_schedule, sample_initial_ensemble

ROOT = Path(__file__).resolve().parents[1]
MV_DEMO = ROOT / "scripts" / "configs" / "mv_demo.json"


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- basics


def test_skf_stdout_shape(capsys):
    code, out, _ = run_cli(["skf"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [n for n, _ in _SKF_COLS]
    # default config: 20 steps, states at i = 0..20
    assert len(rows) == 21
    assert out.endswith("\n")
    for row in rows:
        assert len(row) == len(header)
        for tok in row[1:]:
            float(tok)


def test_float_tokens_round_trip(capsys):
    # 17 significant digits must reproduce the double exactly
    code, out, _ = run_cli(["skf"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        for tok in row[1:]:
            assert "%.17g" % float(tok) == tok


def test_describe_lists_every_column(capsys):
    for argv, cols in ((["skf", "--describe"], _SKF_COLS),
                       (["spenkf", "--describe"], _SPENKF_COLS),
                       (["mc-verify", "--describe"], _MC_COLS),
                       (["inflation-table", "--describe"], _INFL_COLS),
                       (["po-penalty", "--describe"], _PO_COLS)):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        for name, doc in cols:
            assert name in out
            assert doc in out


# sha256 of each subcommand's --describe bytes: mc-verify's columns are
# generated from one list of statistics, so a doc string that changed would
# pass a comparison with that list unseen
@pytest.mark.parametrize("argv,digest", [
    (["skf"], "ce44feca7d0781861849e90d89cd47e9bbd1d6158df95f85ff4bfa9b3d289c26"),
    (["spenkf"], "e80b81ac066c1d37aff470b36608b3a6c006ed6adaefaeeb4fa603e0e935fd8c"),
    (["mc-verify"], "2806b7aa866095b8e14bfb059143ec6655e449200dfbe40a9286cda29b1d25c0"),
    (["inflation-table"], "3acf980cd984ef619a510b1a3d59c5dbc07010d1fed02510eba0d4c755a0ffa1"),
    (["po-penalty"], "43b463574eac1edcd2e320181593a4b3fcf22e4d82e3c7af1a3e4f0a411d6033"),
    (["mv"], "619b38b56d9f686f8862ea9c82d6fc4e88ec0ac99253f5fdd4b31cd08317ab1d"),
    (["mv", "--config", str(MV_DEMO)],
     "d05be4801a04e19575a8dacc48b94a2a181ea8658a729368dfcbd554d5c9f92c"),
    (["selftest"], "51366e34f12d4ba5546225511dc85b671d4a934d5e4aa1e401f14de7db0503af"),
], ids=["skf", "spenkf", "mc-verify", "inflation-table", "po-penalty", "mv", "mv-demo",
        "selftest"])
def test_describe_prints_its_committed_bytes(capsys, argv, digest):
    code, out, _ = run_cli(argv + ["--describe"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "run.csv"
    code, out, _ = run_cli(["skf", "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""
    text = dest.read_bytes().decode("utf-8")
    header, rows = parse_csv(text)
    assert header == [n for n, _ in _SKF_COLS]
    assert len(rows) == 21
    assert text.endswith("\n")


def test_output_path_from_config(tmp_path, capsys):
    dest = tmp_path / "from_config.csv"
    cfg = write_config(tmp_path, {"steps": 3, "output_path": str(dest)})
    code, out, _ = run_cli(["skf", "--config", cfg], capsys)
    assert code == 0
    assert out == ""
    header, rows = parse_csv(dest.read_text(encoding="utf-8"))
    assert len(rows) == 4


def test_write_csv_prints_ints_and_floats_as_before(tmp_path):
    # one "%.17g" per value prints what "%.17g" for a float and str() for a
    # step index printed, at the edges the golden tables never reach
    row = [0, 7, 1000, 10**16, -0.0, 5e-324, 1.7976931348623157e308, 0.1,
           math.nan, math.inf, -math.inf, np.float64(1 / 3)]
    cols = [("c%d" % j, "") for j in range(len(row))]
    dest = tmp_path / "row.csv"
    _write_csv(str(dest), cols, [row])
    old = ",".join(["%.17g" % v if isinstance(v, float) else str(v) for v in row])
    assert dest.read_text(encoding="utf-8") == ",".join(n for n, _ in cols) + "\n" + old + "\n"


def test_a_constant_column_prints_what_per_value_formatting_prints(tmp_path):
    # inflation-table formats theta_star once; at N = 15 it is 15/13, which
    # takes all 17 digits.  Every byte equals one "%.17g" per value
    obj = {"seed": 5, "steps": 40, "ensemble_size": 15,
           "model": {"kind": "random_loguniform", "low": 0.5, "high": 2.0}}
    dest = tmp_path / "table.csv"
    assert main(["inflation-table", "--config", write_config(tmp_path, obj),
                 "--out", str(dest)]) == 0
    cfg = ExperimentConfig.from_dict(obj)
    traj = _trajectory(cfg)
    sched = inflation_schedule(traj, 7.5, cfg.p_tilde0, cfg.x0)
    assert sched.theta_star == 15.0 / 13.0 and len("%.17g" % sched.theta_star) == 18
    lines = [",".join(name for name, _ in _INFL_COLS)]
    for i in range(traj.n_steps + 1):
        row = [i, cfg.r * traj.inv_S[i], sched.theta[i], sched.phi[i], sched.psi[i],
               sched.theta_star]
        lines.append(",".join("%.17g" % v for v in row))
    assert dest.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_one_parser_serves_many_main_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    dest = tmp_path / "from_config.csv"
    cfg = write_config(tmp_path, {"steps": 3, "output_path": str(dest)})
    code, out, _ = run_cli(["skf", "--config", cfg], capsys)
    assert (code, out) == (0, "")
    dest.unlink()
    # the config's output_path stays with the run that read it
    code, out, _ = run_cli(["skf"], capsys)
    assert code == 0 and not dest.exists()
    assert parse_csv(out)[0] == [n for n, _ in _SKF_COLS]
    code, out, _ = run_cli(["skf", "--describe"], capsys)
    assert code == 0 and "closed_var" in out
    code, out, _ = run_cli(["inflation-table"], capsys)
    header, rows = parse_csv(out)
    assert code == 0 and header == [n for n, _ in _INFL_COLS] and len(rows) == 21
    for argv in (["mc-verify", "--threads", "x"], ["skf", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(["skf", "--seed", "3"], capsys)
    assert code == 0 and len(parse_csv(out)[1]) == 21


def test_importing_the_cli_loads_no_heavy_module():
    # what "import filterlab.cli" adds to "import numpy", the imports the
    # benchmark's set-up times; numpy may load some of these itself
    code = ("import sys, numpy; seen = set(sys.modules); import filterlab.cli; "
            "print(*sorted(set(sys.modules) - seen))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    denied = ("concurrent", "logging", "subprocess", "platform", "importlib.metadata",
              "multiprocessing", "scipy", "mpmath", "filterlab.discrepancy",
              "filterlab.gamma_ratio")
    assert [m for m in added if m in denied or m.startswith(tuple(d + "." for d in denied))] == []


# ---------------------------------------------------------------- determinism


def test_same_seed_same_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(["skf", "--seed", "777", "--out", str(a)], capsys)
    run_cli(["skf", "--seed", "777", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_different_output(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(["spenkf", "--seed", "1", "--out", str(a)], capsys)
    run_cli(["spenkf", "--seed", "2", "--out", str(b)], capsys)
    assert a.read_bytes() != b.read_bytes()


def record_builds_and_starts(monkeypatch, tables, mc, step_arg):
    # one list, in the order they happen, of ("build", name) as each table
    # build ends and ("mc", i) as the Monte Carlo of step i starts
    events = []
    for name in tables:
        build = getattr(dsc, name)

        def recorded(*args, build=build, name=name):
            table = build(*args)
            events.append(("build", name))
            return table
        monkeypatch.setattr(dsc, name, recorded)
    run = getattr(dsc, mc)

    def started(*args):
        events.append(("mc", args[step_arg]))
        return run(*args)
    monkeypatch.setattr(dsc, mc, started)
    return events


def assert_built_once_before_the_monte_carlo(events, tables, n_steps):
    builds = [k for k, (kind, _) in enumerate(events) if kind == "build"]
    assert sorted(events[k][1] for k in builds) == sorted(tables)
    starts = [k for k, (kind, _) in enumerate(events) if kind == "mc"]
    assert sorted(events[k][1] for k in starts) == list(range(n_steps + 1))
    assert max(builds) < min(starts)


def test_mc_verify_bytes_identical_across_threads(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"seed": 4242, "steps": 3,
                                  "replicates": 5000, "ensemble_size": 16})
    outputs = []
    codes = []
    events = record_builds_and_starts(monkeypatch, ("_moment_table",),
                                      "mc_discrepancy_moments", 2)
    for threads in ("1", "2", "3"):
        dest = tmp_path / ("mc_%s.csv" % threads)
        events.clear()
        code, _, err = run_cli(["mc-verify", "--config", cfg,
                                "--threads", threads, "--out", str(dest)],
                               capsys)
        codes.append(code)
        outputs.append(dest.read_bytes())
        assert "mc-verify: 4 steps, 5000 replicates" in err
        # each run's trajectory gets its table once, from the closed forms
        # evaluated before any step's Monte Carlo starts
        assert_built_once_before_the_monte_carlo(events, ["_moment_table"], 3)
    assert outputs[0] == outputs[1] == outputs[2]
    assert codes[0] == codes[1] == codes[2]


@pytest.mark.parametrize("cmd", ["mc-verify", "po-penalty"])
def test_bytes_identical_across_threads_over_several_blocks(tmp_path, capsys, cmd):
    # 2 blocks and 7 replicates a step: each sample crosses two block
    # boundaries and ends in a ragged row (criterion 13)
    cfg = write_config(tmp_path, {"seed": 4242, "steps": 3, "ensemble_size": 16,
                                  "replicates": 2 * dsc._BLOCK + 7})
    outputs = []
    for threads in ("1", "2", "4"):
        dest = tmp_path / ("%s.csv" % threads)
        code, _, _ = run_cli([cmd, "--config", cfg, "--threads", threads, "--out", str(dest)],
                             capsys)
        assert code in (0, 1)
        outputs.append(dest.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_po_penalty_builds_its_gain_tables_before_the_pool(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"seed": 4242, "steps": 4, "replicates": 2000})
    events = record_builds_and_starts(monkeypatch, ("_gain_table",),
                                      "po_mean_identity_check", 4)
    outputs = []
    for threads in ("1", "3"):
        dest = tmp_path / ("po_%s.csv" % threads)
        events.clear()
        run_cli(["po-penalty", "--config", cfg, "--threads", threads, "--out", str(dest)],
                capsys)
        outputs.append(dest.read_bytes())
        # one table for E[K], one for E[K^4]
        assert_built_once_before_the_monte_carlo(events, ["_gain_table"] * 2, 4)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- refused steps


# configs whose closed forms meet a step the gamma-ratio rules refuse, a
# fourth gain moment the closed form cannot give (p0^4 underflows at
# p0 = 1e-300 and overflows at p0 = 1e308; (alpha r/S_i)^3 overflows at
# r = 1e308), or a discrepancy moment a prior's size takes out of double
# range (p_tilde0 = 1e308, or 1e200, which squares to inf, or p0 = 1e200
# with p_tilde0 = 1); a truth of 1e200 (through B_i/S_i) or a mean prior of
# 1e308 that takes dx out of it, the latter through coefficients that
# overflow; and a model whose M_i^2/S_i underflows to 0, which makes dp and
# K constant; all before any Monte Carlo runs
@pytest.mark.parametrize("cmd,obj,last", [
    ("mc-verify", {"steps": 3, "r": 1e-320, "ensemble_size": 10, "replicates": 2000},
     "mc-verify: config.r: step 0: dp: a*d == b*c makes Y constant, as its coefficient a "
     "underflows to 0: an input of size 9.99989e-321 takes it out of double range"),
    ("mc-verify", {"steps": 2, "ensemble_size": 10, "replicates": 2000,
                   "model": {"kind": "explicit", "values": [1e200, 1e-200]}},
     "mc-verify: step 1: dp: need c > 0 and d > 0"),
    ("po-penalty", {"steps": 3, "r": 1e10, "p0": 1e-300, "replicates": 2000},
     "po-penalty: config.p0: step 0: the closed form of E[K^4] gives inf, which no fourth "
     "moment is: it divides by p0^4, which is 0 in double precision"),
    ("mc-verify", {"steps": 20, "p0": 1e308, "ensemble_size": 10, "replicates": 2000},
     "mc-verify: config.p_tilde0: step 0: the closed form of E[dp] is NaN, which no moment "
     "is: an input of size 1e+308 takes it out of double range"),
    ("mc-verify", {"steps": 20, "p0": 1e200, "ensemble_size": 10, "replicates": 2000},
     "mc-verify: config.p_tilde0: step 0: the closed form of E[dp^2] is NaN, which no moment "
     "is: an input of size 1e+200 takes it out of double range"),
    ("mc-verify", {"steps": 20, "p0": 1e200, "p_tilde0": 1.0, "ensemble_size": 10,
                   "replicates": 2000},
     "mc-verify: config.p0: step 0: the closed form of E[dp^2] is NaN, which no moment "
     "is: an input of size 1e+200 takes it out of double range"),
    ("po-penalty", {"steps": 20, "p0": 1e308, "ensemble_size": 10, "replicates": 2000},
     "po-penalty: config.p0: step 0: the closed form of E[K^4] gives nan, which no fourth "
     "moment is: it divides by p0^4, which is inf in double precision"),
    ("po-penalty", {"steps": 3, "r": 1e308, "ensemble_size": 10, "replicates": 2000},
     "po-penalty: config.r: step 0: the closed form of E[K^4] gives nan, which no fourth "
     "moment is: it cancels or overflows at r/(S_i p0) = 1e+308"),
    ("mc-verify", {"steps": 3, "x0_truth": 1e200},
     "mc-verify: config.x0_truth: step 0: the closed form of E[dx^2] is NaN, which no moment "
     "is: an input of size 1e+200 takes it out of double range"),
    ("mc-verify", {"steps": 3, "x0": 1e308, "x_tilde0": -1e308},
     "mc-verify: config.x0: step 0: the closed form of E[dx] is NaN, which no moment is: an "
     "input of size 1e+308 takes it out of double range"),
    ("mc-verify", {"model": {"kind": "explicit", "values": [1e-200, 1e-200]}},
     "mc-verify: config.model: step 1: dp: a*d == b*c makes Y constant, as M_i^2/S_i "
     "underflows to 0"),
    ("po-penalty", {"model": {"kind": "explicit", "values": [1e-200, 1e-200]}},
     "po-penalty: config.model: step 1: K: a*d == b*c makes Y constant, as M_i^2/S_i "
     "underflows to 0"),
], ids=["r-1e-320", "explicit-1e200", "z-inf", "mc-verify-p0-1e308", "mc-verify-p0-1e200",
        "mc-verify-p0-1e200-p_tilde0-1", "po-penalty-p0-1e308", "po-penalty-r-1e308",
        "mc-verify-x0_truth-1e200", "mc-verify-x0-1e308-x_tilde0--1e308",
        "mc-verify-model-1e-200", "po-penalty-model-1e-200"])
def test_a_refused_step_exits_2_naming_it(tmp_path, capsys, cmd, obj, last):
    cfg = write_config(tmp_path, obj)
    code, _, err = run_cli([cmd, "--config", cfg, "--seed", "1",
                            "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1] == last


# finite means so large that an analysis mean, a mean shift or a closed-form
# mean leaves double range: the filters' analysis means, the schedule's
# shifts and skf's closed form refuse them, naming x0 or x0_truth, whichever
# is larger (x0 on a tie), or the model where the forecast m x_a overflowed
OPPOSED = {"steps": 2, "x0": 1e308, "x0_truth": -1e308}
TRUTH_LARGER = {"steps": 2, "x0": -1e308, "x0_truth": 1.7e308}
GROWN = {"steps": 2, "x0": 1e300, "p0": 1e-250, "model": {"kind": "constant", "m": 1e10}}


@pytest.mark.parametrize("cmd,obj,line", [
    ("skf", OPPOSED, "config.x0: step 0: the analysis mean -inf is not a finite double"),
    ("spenkf", OPPOSED,
     "config.x0: step 0: the ensemble analysis mean -inf is not a finite double"),
    ("inflation-table", OPPOSED, "config.x0: step 1: the mean shift psi is not a finite double"),
    ("mc-verify", OPPOSED, "config.x0: step 1: the mean shift psi is not a finite double"),
    ("skf", {"steps": 2, "x0": 1e308, "x0_truth": 1e308, "r": 10},
     "config.x0: step 0: the closed-form analysis mean inf is not a finite double"),
    ("skf", TRUTH_LARGER,
     "config.x0_truth: step 0: the analysis mean inf is not a finite double"),
    ("inflation-table", TRUTH_LARGER,
     "config.x0_truth: step 1: the mean shift psi is not a finite double"),
    ("skf", GROWN, "config.model: step 1: the analysis mean nan is not a finite double"),
    ("spenkf", GROWN,
     "config.model: step 1: the ensemble analysis mean nan is not a finite double"),
], ids=["skf", "spenkf", "inflation-table", "mc-verify", "skf-closed-form", "skf-x0_truth",
        "inflation-table-x0_truth", "skf-model", "spenkf-model"])
def test_a_mean_out_of_double_range_exits_2_naming_its_input(tmp_path, capsys, cmd, obj,
                                                             line):
    dest = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        code, out, err = run_cli([cmd, "--config", write_config(tmp_path, obj), "--seed", "1",
                                  "--out", str(dest)], capsys)
    assert (code, out, err.splitlines()) == (2, "", ["%s: %s" % (cmd, line)])
    assert not dest.exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_an_earlier_failing_step_is_reported_before_a_refused_one(tmp_path, capsys, threads):
    # m = 2 over 600 steps: r/S_i underflows to 0 from step 538 on, which the
    # dp table refuses, but the Monte Carlo of step 30 fails first
    cfg = write_config(tmp_path, {"steps": 600, "ensemble_size": 8, "replicates": 2000,
                                  "model": {"kind": "constant", "m": 2.0}})
    code, _, err = run_cli(["mc-verify", "--config", cfg, "--seed", "1", "--threads",
                            str(threads), "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 2
    assert err == ("mc-verify: step 30: the standard error of dx_mean is 0: "
                   "every replicate is the same double\n")


# extreme inputs for every command that reads the scalar config: each run
# must return from main (no exception escapes, so no traceback) with exit
# 0, 1 or 2, and a nonzero exit must end on one "<command>: " line
SWEEP_CONFIGS = {
    "r-1e10-p0-1e-300": {"r": 1e10, "p0": 1e-300},
    "r-1e10-p_tilde0-1e-300": {"r": 1e10, "p_tilde0": 1e-300},
    "r-1e160": {"r": 1e160},
    "p0-1e308": {"p0": 1e308},
    "r-1e-320": {"r": 1e-320},
    "m-2-600-steps": {"steps": 600, "model": {"kind": "constant", "m": 2.0}},
    "m-0.3-400-steps": {"steps": 400, "model": {"kind": "constant", "m": 0.3}},
    "explicit-1e200": {"steps": 2, "model": {"kind": "explicit", "values": [1e200, 1e-200]}},
    "r-1e308": {"steps": 3, "r": 1e308},
    # the ratio ledger leaves the plain-double window and M_i comes back to 1
    "window-crossing": {"steps": 300, "model": {"kind": "explicit",
                                                "values": [0.01] * 150 + [100.0] * 150}},
}


# numpy's overflow RuntimeWarnings at these inputs are not what is checked
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
@pytest.mark.parametrize("cmd", ["skf", "spenkf", "inflation-table", "mc-verify", "po-penalty"])
def test_extreme_configs_end_without_a_traceback(tmp_path, capsys, cmd, name):
    obj = dict(ensemble_size=10, replicates=2000, perturbed_obs=True,
               inflation="sequential", **SWEEP_CONFIGS[name])
    cfg = write_config(tmp_path, obj)
    code, _, err = run_cli([cmd, "--config", cfg, "--seed", "1",
                            "--out", str(tmp_path / "out.csv")], capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith(cmd + ": ")


# ---------------------------------------------------------------- seed policy


@pytest.mark.parametrize("cmd", ["mc-verify", "po-penalty"])
def test_monte_carlo_commands_require_seed(cmd, capsys):
    code, _, err = run_cli([cmd], capsys)
    assert code == 2
    assert "requires --seed" in err


def test_seed_flag_satisfies_requirement(tmp_path, capsys):
    cfg = write_config(tmp_path, {"steps": 2, "replicates": 5000,
                                  "ensemble_size": 16})
    dest = tmp_path / "mc.csv"
    code, _, err = run_cli(["mc-verify", "--config", cfg, "--seed", "9",
                            "--out", str(dest)], capsys)
    assert code in (0, 1)
    assert "requires --seed" not in err


def test_config_seed_satisfies_requirement(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 5, "steps": 2, "replicates": 5000,
                                  "ensemble_size": 16})
    dest = tmp_path / "mc.csv"
    code, _, err = run_cli(["mc-verify", "--config", cfg, "--out", str(dest)],
                           capsys)
    assert code in (0, 1)
    assert "requires --seed" not in err


def test_seed_out_of_range_rejected(capsys):
    code, _, err = run_cli(["skf", "--seed", "-1"], capsys)
    assert code == 2
    assert "64-bit" in err
    code, _, err = run_cli(["skf", "--seed", str(2 ** 64)], capsys)
    assert code == 2


def test_threads_must_be_positive(capsys):
    code, _, err = run_cli(["mc-verify", "--threads", "0"], capsys)
    assert code == 2
    assert "threads" in err


# ---------------------------------------------------------------- guards


def test_mc_verify_small_ensemble_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "ensemble_size": 4})
    code, _, err = run_cli(["mc-verify", "--config", cfg], capsys)
    assert code == 2
    assert "ensemble_size" in err


def test_po_penalty_small_ensemble_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "ensemble_size": 8})
    code, _, err = run_cli(["po-penalty", "--config", cfg], capsys)
    assert code == 2
    assert "ensemble_size" in err


def test_mv_requires_mv_section(tmp_path, capsys):
    cfg = write_config(tmp_path, {"steps": 2})
    code, _, err = run_cli(["mv", "--config", cfg], capsys)
    assert code == 2
    assert "mv" in err


@pytest.mark.parametrize("argv,cfg,field", [
    (["mc-verify"], {"steps": 2}, "requires --seed"),
    (["mc-verify", "--seed", "1"], {"ensemble_size": 4}, "config.ensemble_size: must be >= 5"),
    (["po-penalty", "--seed", "1"], {"ensemble_size": 8}, "config.ensemble_size: must be >= 9"),
    (["mv"], {"steps": 2}, "config.mv: missing required section"),
    (["skf", "--seed", "-1"], {"steps": 2}, "--seed: "),
    (["po-penalty", "--threads", "0"], {"steps": 2}, "--threads: "),
], ids=["no-seed", "mc-verify-ensemble", "po-penalty-ensemble", "no-mv-section",
        "bad-seed", "no-threads"])
def test_bad_input_prints_one_prefixed_line(tmp_path, capsys, argv, cfg, field):
    dest = tmp_path / "out.csv"
    code, out, err = run_cli(argv + ["--config", write_config(tmp_path, cfg),
                                     "--out", str(dest)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("%s: %s" % (argv[0], field))
    assert not dest.exists()


# ---------------------------------------------------------------- subcommands


def test_spenkf_inflation_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 3, "steps": 5, "ensemble_size": 16,
                                  "inflation": "sequential",
                                  "perturbed_obs": True})
    code, out, _ = run_cli(["spenkf", "--config", cfg], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    idx = {name: k for k, name in enumerate(header)}
    for row in rows:
        assert float(row[idx["theta"]]) > 1.0
        assert float(row[idx["phi"]]) >= 1.0
        assert float(row[idx["po_penalty"]]) > 0.0
    # psi starts at zero by construction
    assert float(rows[0][idx["psi"]]) == 0.0


def test_spenkf_no_inflation_columns_nan(capsys):
    code, out, _ = run_cli(["spenkf"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    idx = {name: k for k, name in enumerate(header)}
    for row in rows:
        for col in ("theta", "phi", "psi", "po_penalty"):
            assert row[idx[col]] == "nan"


def test_inflation_table_bounds(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 11, "steps": 12, "ensemble_size": 8,
                                  "model": {"kind": "random_loguniform",
                                            "low": 0.8, "high": 1.6}})
    code, out, _ = run_cli(["inflation-table", "--config", cfg], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    idx = {name: k for k, name in enumerate(header)}
    star = float(rows[0][idx["theta_star"]])
    assert star == 4.0 / 3.0
    for row in rows:
        assert 1.0 < float(row[idx["theta"]]) <= star + 1e-12


def test_spenkf_initial_theta_inflates_only_the_initial_ensemble(tmp_path, capsys):
    obj = {"seed": 8, "steps": 6, "ensemble_size": 10, "r": 0.5, "p0": 1.7,
           "inflation": "initial-theta",
           "model": {"kind": "random_loguniform", "low": 0.7, "high": 1.4}}
    cfg_path = write_config(tmp_path, obj)
    code, out, _ = run_cli(["spenkf", "--config", cfg_path], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    col = {name: [float(row[k]) for row in rows] for k, name in enumerate(header)}
    code, out, _ = run_cli(["inflation-table", "--config", cfg_path], capsys)
    assert code == 0
    sched_header, sched_rows = parse_csv(out)
    assert col["theta"] == [float(row[sched_header.index("theta")]) for row in sched_rows]
    assert all(math.isnan(v) for v in col["phi"] + col["psi"])
    # the ensemble is the exact filter started from theta_n times the
    # uninflated sampled prior variance
    cfg = ExperimentConfig.from_dict(obj)
    phat0 = sample_initial_ensemble(cfg.ensemble_size, cfg.p_tilde0, cfg.x0,
                                    RngSpec(cfg.seed, _STREAM_ENSEMBLE)).sampled_var
    last = skf_run(_trajectory(cfg), cfg.x0, col["theta"][-1] * phat0)[-1]
    assert col["mean"][-1] == pytest.approx(last.mean_analysis, rel=1e-12)
    assert col["sampled_var"][-1] == pytest.approx(last.var_analysis, rel=1e-12)


def test_mv_output_shape(tmp_path, capsys):
    mv = {"Z": [[1.0, 0.3], [0.2, 1.0]],
          "multipliers": [[1.1, 0.9], [0.8, 1.2]],
          "p0_diag": [1.0, 0.5], "r_diag": [1.0, 0.7], "x0": [1.0, -0.5]}
    cfg = write_config(tmp_path, {"seed": 21, "ensemble_size": 12, "mv": mv})
    code, out, _ = run_cli(["mv", "--config", cfg], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert len(header) == 1 + 3 * 2
    assert len(rows) == 3  # two multiplier steps, states at i = 0, 1, 2
    for row in rows:
        for tok in row[1:]:
            float(tok)


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "selftest: PASS" in out
    assert "FAIL" not in out


def test_selftest_describe_runs_no_check(monkeypatch, capsys):
    def fail():
        raise RuntimeError("a check ran")

    checks = [(name, fail) for name, _ in cli._SELFTEST_CHECKS]
    monkeypatch.setattr(cli, "_SELFTEST_CHECKS", checks)
    code, out, _ = run_cli(["selftest", "--describe"], capsys)
    assert code == 0
    assert out.splitlines() == ["check %d  %s" % (k, name)
                                for k, (name, _) in enumerate(checks, 1)]
    with pytest.raises(RuntimeError, match="a check ran"):
        main(["selftest"])


def test_po_penalty_runs_and_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 13, "steps": 2, "replicates": 40000,
                                  "ensemble_size": 12, "r": 2.0})
    dest = tmp_path / "po.csv"
    code, _, err = run_cli(["po-penalty", "--config", cfg,
                            "--out", str(dest)], capsys)
    assert code == 0
    assert "PASS" in err
    header, rows = parse_csv(dest.read_text(encoding="utf-8"))
    idx = {name: k for k, name in enumerate(header)}
    for row in rows:
        # alpha = 6: E[(R - r)^2] = r^2 / alpha = 2/3 exactly
        assert float(row[idx["exact_second_R"]]) == pytest.approx(2.0 / 3.0,
                                                                  rel=1e-15)
        assert float(row[idx["penalty"]]) > 0.0
        assert float(row[idx["max_gap_se"]]) <= 4.0


# ---------------------------------------------------------------- config


def test_unknown_field_names_path(tmp_path):
    with pytest.raises(ConfigError, match="config.bogus: unknown field"):
        ExperimentConfig.from_dict({"bogus": 1})


def test_missing_model_kind_names_path():
    with pytest.raises(ConfigError, match="model.kind"):
        ExperimentConfig.from_dict({"model": {}})


def test_type_errors_name_path():
    with pytest.raises(ConfigError, match="config.steps"):
        ExperimentConfig.from_dict({"steps": "ten"})
    with pytest.raises(ConfigError, match="perturbed_obs"):
        ExperimentConfig.from_dict({"perturbed_obs": 1})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError, match="ensemble_size"):
        ExperimentConfig.from_dict({"ensemble_size": 2})
    with pytest.raises(ConfigError, match="p0"):
        ExperimentConfig.from_dict({"p0": 0.0})
    with pytest.raises(ConfigError, match="inflation"):
        ExperimentConfig.from_dict({"inflation": "always"})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict({"seed": -3})


def test_readme_config_table_lists_every_field():
    # the README table documents exactly the fields ExperimentConfig declares
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Config reference", 1)[1]
    names = {name for line in table.splitlines() if line.startswith("| `")
             for name in re.findall(r"`([^`]+)`", line.split("|")[1])}
    assert names == {f.name for f in dataclasses.fields(ExperimentConfig)} - {"seed_given"}


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.from_json(str(path))


def test_sampled_prior_defaults_track_exact_prior():
    cfg = ExperimentConfig.from_dict({"p0": 2.5, "x0": -1.0})
    assert cfg.p_tilde0 == 2.5
    assert cfg.x_tilde0 == -1.0
    cfg = ExperimentConfig.from_dict({"p0": 2.5, "p_tilde0": 0.5})
    assert cfg.p_tilde0 == 0.5


def test_model_config_variants():
    cfg = ExperimentConfig.from_dict({"model": {"kind": "constant", "m": 0.9}})
    assert cfg.model.m == 0.9
    cfg = ExperimentConfig.from_dict(
        {"model": {"kind": "explicit", "values": [1.0, -0.5, 2.0]}})
    assert cfg.model.values == (1.0, -0.5, 2.0)
    with pytest.raises(ConfigError, match="values"):
        ExperimentConfig.from_dict({"model": {"kind": "explicit",
                                              "values": [1.0, 0.0]}})
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig.from_dict({"model": {"kind": "fancy"}})


# ---------------------------------------------------------------- bad input exits 2


def test_config_rejects_fractional_counts_and_non_finite_states():
    with pytest.raises(ConfigError, match="config.steps: expected an integer"):
        ExperimentConfig.from_dict({"steps": 2.7})
    assert ExperimentConfig.from_dict({"steps": 3.0}).steps == 3
    for name in ("x0", "x0_truth"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="config.%s: expected a finite" % name):
                ExperimentConfig.from_dict({name: bad})


@pytest.mark.parametrize("obj,field", [
    ({"steps": 2.7}, "config.steps"),
    ({"x0": math.nan}, "config.x0"),
    ({"x0_truth": math.inf}, "config.x0_truth"),
])
def test_bad_config_exits_2_naming_the_field(tmp_path, capsys, obj, field):
    # json.dumps writes NaN / Infinity tokens, which json.load accepts
    cfg = write_config(tmp_path, obj)
    dest = tmp_path / "out.csv"
    code, _, err = run_cli(["inflation-table", "--config", cfg,
                            "--out", str(dest)], capsys)
    assert code == 2
    assert field in err and len(err.strip().splitlines()) == 1
    assert not dest.exists()


def test_unresolvable_inflation_exits_2_naming_the_field(tmp_path, capsys):
    # p0 = 1e-300 rounds the inverse's shift to 1/alpha
    cfg = write_config(tmp_path, {"p0": 1e-300})
    code, _, err = run_cli(["inflation-table", "--config", cfg], capsys)
    assert code == 2
    assert "config.p_tilde0" in err and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["skf", "inflation-table"])
def test_overflowing_truth_exits_2_naming_the_field(tmp_path, capsys, cmd):
    # x0_truth * 2^i leaves double range near step 1024: no inf/nan CSV
    cfg = write_config(tmp_path, {"steps": 1100,
                                  "model": {"kind": "constant", "m": 2.0}})
    dest = tmp_path / "out.csv"
    code, _, err = run_cli([cmd, "--config", cfg, "--seed", "3",
                            "--out", str(dest)], capsys)
    assert code == 2
    assert err.startswith("%s: config.model: step 1024: " % cmd)
    assert len(err.strip().splitlines()) == 1
    assert not dest.exists()


def test_mv_overflowing_truth_exits_2_naming_the_field(tmp_path, capsys):
    mv = {"Z": [[1.0, 0.3], [0.2, 1.0]],
          "multipliers": [[1e200, 0.9]] * 3,
          "p0_diag": [1.0, 0.5], "r_diag": [1.0, 0.7], "x0": [1.0, -0.5]}
    cfg = write_config(tmp_path, {"seed": 21, "mv": mv})
    dest = tmp_path / "out.csv"
    code, _, err = run_cli(["mv", "--config", cfg, "--out", str(dest)], capsys)
    assert code == 2
    assert err.startswith("mv: config.mv.multipliers: basis component 0, step 2: ")
    assert len(err.strip().splitlines()) == 1
    assert not dest.exists()


def test_explicit_model_steps_must_match_its_values(tmp_path, capsys):
    model = {"kind": "explicit", "values": [1.0, 2.0, 0.5]}
    dest = tmp_path / "out.csv"
    code, _, err = run_cli(["skf", "--config", write_config(tmp_path, {"steps": 20, "model": model}),
                            "--out", str(dest)], capsys)
    assert code == 2
    assert err == ("skf: config.steps: 20 does not match the 3 values of "
                   "config.model.values\n")
    assert not dest.exists()
    # omitted, steps is the number of values
    code, out, _ = run_cli(["skf", "--config", write_config(tmp_path, {"model": model})], capsys)
    assert code == 0
    assert len(parse_csv(out)[1]) == 4
    assert ExperimentConfig.from_dict({"model": model}).steps == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_members", [3, 16])
def test_huge_prior_schedule_is_finite_and_silent(tmp_path, capsys, n_members):
    cfg = write_config(tmp_path, {"steps": 3, "p0": 1e308, "ensemble_size": n_members})
    code, out, err = run_cli(["inflation-table", "--config", cfg, "--seed", "1"], capsys)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    col = {name: [float(row[k]) for row in rows] for k, name in enumerate(header)}
    assert all(math.isfinite(v) for row in rows for v in map(float, row))
    star = col["theta_star"][0]
    assert all(1.0 <= phi <= star for phi in col["phi"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cmd,field", [("inflation-table", "p_tilde0"),
                                       ("spenkf", "p_tilde0"), ("mc-verify", "p0")])
def test_huge_r_over_s_is_refused_naming_the_prior(tmp_path, capsys, cmd, field):
    # alpha (prior + r / S_i) overflows on r / S_i: the inverse's shift
    # rounds to 1/alpha, so theta has no root, not the r / S_i -> 0 limit
    cfg = write_config(tmp_path, {"steps": 3, "r": 1e308, "ensemble_size": 16,
                                  "inflation": "sequential", "replicates": 2000})
    code, out, err = run_cli([cmd, "--config", cfg, "--seed", "1"], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("%s: config.%s: 1.0 is too small against r / S_i" % (cmd, field))


def test_multipliers_beyond_1e154_with_a_finite_truth_run(tmp_path, capsys):
    # m_0^2 is not a double, but x0_truth * M_i is at every step
    cfg = write_config(tmp_path, {"steps": 2, "model": {
        "kind": "explicit", "values": [1e200, 1e-200]}})
    code, out, _ = run_cli(["inflation-table", "--config", cfg], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3
    assert all(math.isfinite(float(tok)) for row in rows for tok in row)


@pytest.mark.parametrize("cmd,what", [("skf", "forecast variance"),
                                      ("spenkf", "sampled forecast variance")])
def test_overflowing_forecast_exits_2_naming_the_field(tmp_path, capsys, cmd, what):
    # the ledger and the truth stay finite, but m_0^2 p_a is not a double
    cfg = write_config(tmp_path, {"steps": 2, "model": {
        "kind": "explicit", "values": [1e200, 1e-200]}})
    dest = tmp_path / "out.csv"
    code, _, err = run_cli([cmd, "--config", cfg, "--seed", "3",
                            "--out", str(dest)], capsys)
    assert code == 2
    assert err.startswith("%s: config.model: step 1: the %s " % (cmd, what))
    assert len(err.strip().splitlines()) == 1
    assert not dest.exists()


@pytest.mark.parametrize("cmd,obj", [("skf", {"steps": 3, "p0": 1e-305}),
                                     ("spenkf", {"steps": 3, "p0": 1e-305, "p_tilde0": 1.0})])
def test_exact_prior_under_the_variance_floor_exits_2_naming_p0(tmp_path, capsys, cmd, obj):
    # skf's prior, and spenkf's exact-prior reference run, start from config.p0
    dest = tmp_path / "out.csv"
    code, _, err = run_cli([cmd, "--config", write_config(tmp_path, obj), "--seed", "1",
                            "--out", str(dest)], capsys)
    assert code == 2
    assert err == ("%s: config.p0: step 0: the forecast variance 1e-305 leaves "
                   "[1e-300, inf)\n" % cmd)
    assert not dest.exists()


def test_degenerate_initial_ensemble_exits_2_naming_the_field(tmp_path, capsys):
    # phat0 of p0 = 1e-305 is below the smallest variance an analysis accepts
    cfg = write_config(tmp_path, {"steps": 3, "p0": 1e-305})
    dest = tmp_path / "out.csv"
    code, _, err = run_cli(["spenkf", "--config", cfg, "--seed", "1",
                            "--out", str(dest)], capsys)
    assert code == 2
    assert err.startswith("spenkf: config.p_tilde0: step 0: the sampled forecast variance ")
    assert len(err.strip().splitlines()) == 1
    assert not dest.exists()


def _mv_demo(**changes):
    cfg = json.loads(MV_DEMO.read_text(encoding="utf-8"))
    cfg["mv"].update(changes)
    return cfg


@pytest.mark.parametrize("changes,field", [
    ({"Z": [[1, 1, 0], [1, 1, 0], [0, 0, 1]]}, "Z"),
    ({"x0": [1.0, -0.5]}, "x0"),
    ({"p0_diag": [1.0, 0.5]}, "p0_diag"),
    ({"r_diag": [1.0, 0.0, 0.7]}, "r_diag"),
    ({"multipliers": [[1.1, 0.9]]}, "multipliers"),
    ({"p0_diag": [1e-305, 0.5, 2.0]}, "p0_diag: basis component 0, step 0"),
])
def test_mv_bad_section_exits_2_naming_the_field(tmp_path, capsys, changes, field):
    cfg = write_config(tmp_path, _mv_demo(**changes))
    dest = tmp_path / "out.csv"
    code, _, err = run_cli(["mv", "--config", cfg, "--out", str(dest)], capsys)
    assert code == 2
    assert err.startswith("mv: config.mv.%s: " % field)
    assert len(err.strip().splitlines()) == 1
    assert not dest.exists()


def _mv_sequential(**mv):
    # a two-component identity-basis model run with sequential inflation
    return {"ensemble_size": 8, "inflation": "sequential",
            "mv": dict({"Z": [[1, 0], [0, 1]], "multipliers": [[1, 1], [1, 1]],
                        "p0_diag": [1, 1], "r_diag": [1, 1], "x0": [0, 0]}, **mv)}


@pytest.mark.parametrize("cmd,cfg,line", [
    ("skf", {"model": {"kind": "constant", "m": 0}}, "config.model.m: must be nonzero"),
    ("skf", {"model": {"kind": "constant", "m": math.nan}},
     "config.model.m: expected a finite number, got NaN"),
    ("skf", {"model": {"kind": "random_loguniform", "high": math.inf}},
     "config.model.high: expected a finite number, got Infinity"),
    ("skf", {"model": {"kind": "explicit", "values": [1.0, math.nan]}},
     "config.model.values[1]: expected a finite number, got NaN"),
    # json.load reads the literal 1e400 as inf
    ("skf", '{"model": {"kind": "explicit", "values": [1.0, 1e400]}}',
     "config.model.values[1]: expected a finite number, got Infinity"),
    ("mv", _mv_demo(Z=[[1, 2], [3]]), "config.mv.Z: rows must all have the same length"),
    ("skf", {"steps": 0}, "config.steps: must be >= 1"),
    ("spenkf", {"ensemble_size": 2}, "config.ensemble_size: must be >= 3"),
    ("skf", {"model": {}}, "config.model.kind: missing required field"),
    ("mv", {"mv": {"Z": 1}}, "config.mv.Z: expected a list, got 1"),
    ("skf", {"model": {"kind": "constant", "m": 2, "hgih": 3}},
     "config.model.hgih: unknown field"),
    ("skf", {"model": {"kind": "random_loguniform", "m": 0.5}},
     "config.model.m: not read by kind 'random_loguniform'"),
    ("skf", {"model": {"kind": "explicit", "values": [1.0], "signed": False}},
     "config.model.signed: not read by kind 'explicit'"),
    ("mv", {"mv": dict(_mv_demo()["mv"], p0=[1.0])}, "config.mv.p0: unknown field"),
    # the inverse's shift rounds to 1/alpha in basis component 0, on a tiny
    # prior or a huge r alike, as the scalar commands name their prior
    ("mv", _mv_sequential(p0_diag=[1e-300, 1]),
     "config.mv.p0_diag: basis component 0, 1e-300 is too small against r / S_i for the "
     "optimal inflation (expint_scaled_inverse_shifted requires 0 <= delta < 1/alpha; "
     "got delta=0.25)"),
    ("mv", _mv_sequential(p0_diag=[1, 1], r_diag=[1e300, 1]),
     "config.mv.p0_diag: basis component 0, 1.0 is too small against r / S_i for the "
     "optimal inflation (expint_scaled_inverse_shifted requires 0 <= delta < 1/alpha; "
     "got delta=0.25)"),
], ids=["m-zero", "m-nan", "high-inf", "values-nan", "values-1e400", "ragged-rows",
        "steps-zero", "ensemble-2", "model-no-kind", "mv-Z-number", "model-unknown-key",
        "model-unread-key", "explicit-unread-key", "mv-unknown-key", "mv-p0_diag-1e-300",
        "mv-r_diag-1e300"])
def test_bad_config_prints_one_config_line(tmp_path, capsys, cmd, cfg, line):
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg), encoding="utf-8")
    dest = tmp_path / "out.csv"
    code, out, err = run_cli([cmd, "--config", str(path), "--seed", "1",
                              "--out", str(dest)], capsys)
    assert code == 2
    assert out == ""
    assert err == "%s: %s\n" % (cmd, line)
    assert not dest.exists()


def test_mv_rejects_initial_theta(tmp_path, capsys):
    # mv has no one-shot mode: it must not run the uninflated filter instead
    cfg = write_config(tmp_path, dict(_mv_demo(), inflation="initial-theta"))
    dest = tmp_path / "out.csv"
    code, _, err = run_cli(["mv", "--config", cfg, "--out", str(dest)], capsys)
    assert code == 2
    assert err == "mv: config.inflation: mv runs only 'none' or 'sequential'\n"
    assert not dest.exists()


@pytest.mark.parametrize("cmd,cfg,line", [
    ("spenkf", {"steps": 3, "r": 1e-320}, "spenkf: config.r: step 1: "),
    ("mv", _mv_demo(r_diag=[1.0, 1e-320, 0.7]),
     "mv: config.mv.r_diag: basis component 1, step 1: "),
])
def test_r_below_the_variance_floor_is_named(tmp_path, capsys, cmd, cfg, line):
    # the analysis variance is below r, so the next forecast variance falls
    # under 1e-300 with a model of m = 1: r is at fault, not the model
    dest = tmp_path / "out.csv"
    code, _, err = run_cli([cmd, "--config", write_config(tmp_path, cfg), "--seed", "1",
                            "--out", str(dest)], capsys)
    assert code == 2
    assert err.startswith(line + "the sampled forecast variance ")
    assert len(err.splitlines()) == 1
    assert not dest.exists()


def test_skf_with_r_below_the_variance_floor_exits_2_naming_r(tmp_path, capsys):
    # p_a = k r is below r = 1e-320, so the first forecast variance is under
    # spenkf's 1e-300 floor; past it the gains lost digits and still exited 0
    dest = tmp_path / "out.csv"
    cfg = write_config(tmp_path, {"steps": 3, "r": 1e-320})
    code, _, err = run_cli(["skf", "--config", cfg, "--seed", "1", "--out", str(dest)], capsys)
    assert code == 2
    assert err.startswith("skf: config.r: step 1: the forecast variance ")
    assert len(err.splitlines()) == 1
    assert not dest.exists()


def test_tiny_r_spenkf_runs(tmp_path, capsys):
    # r/p_f = 1e-17: (1 - k) p_f rounded every analysis variance to 0
    code, out, _ = run_cli(["spenkf", "--config", write_config(tmp_path, {"steps": 3, "r": 1e-17}),
                            "--seed", "1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    # the analysis variance is about r / (step + 1)
    assert all(0.0 < float(row[header.index("sampled_var")]) < 2e-17 for row in rows)


def test_underflowed_r_over_s_uses_the_limit_gain(tmp_path, capsys):
    # m = 2: r/S_i underflows to 0 from step 538, where K_i = q_i exactly
    obj = {"steps": 600, "ensemble_size": 10, "perturbed_obs": True,
           "model": {"kind": "constant", "m": 2.0}}
    code, out, _ = run_cli(["spenkf", "--config", write_config(tmp_path, obj), "--seed", "1"],
                           capsys)
    assert code == 0
    header, rows = parse_csv(out)
    q = _trajectory(ExperimentConfig.from_dict(dict(obj, seed=1))).M2_over_S[599]
    # E[K^4] r^2 / alpha with r = 1 and alpha = 5
    assert float(rows[599][header.index("po_penalty")]) == q ** 4 / 5.0
    # po-penalty reaches the same limit; its verdict is a statistical outcome
    obj = dict(obj, steps=560, replicates=2000)
    dest = tmp_path / "po.csv"
    code, _, err = run_cli(["po-penalty", "--config", write_config(tmp_path, obj), "--seed", "1",
                            "--out", str(dest)], capsys)
    assert code in (0, 1) and "po-penalty: 561 steps" in err
    header, rows = parse_csv(dest.read_text(encoding="utf-8"))
    assert all(math.isfinite(float(row[header.index("penalty")])) for row in rows)


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _, err = run_cli(["skf", "--config", missing], capsys)
    assert code == 2
    assert "--config" in err and missing in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flag,path,line", [
    ("--out", "{dir}", "skf: --out: is a directory: {dir}\n"),
    ("--config", "{dir}", "skf: --config: is a directory: {dir}\n"),
    ("--config", "{dir}/utf16.json",
     "skf: config: invalid JSON in {dir}/utf16.json: 'utf-8' codec can't decode byte 0xff "
     "in position 0: invalid start byte\n"),
], ids=["out-directory", "config-directory", "config-not-utf8"])
def test_a_file_error_on_a_flag_exits_2_naming_it(tmp_path, capsys, flag, path, line):
    # exit 1 is a verification FAIL, so a file that cannot be read or
    # written must not end in a traceback
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["skf", flag, path.format(dir=tmp_path)], capsys)
    assert (code, out, err) == (2, "", line.format(dir=tmp_path))


# ---------------------------------------------------------------- NaN-aware gates


def test_mc_verify_nan_gap_fails(tmp_path, capsys, monkeypatch):
    # a NaN in the third gap of the second step: Python max() drops it
    real = dsc.expected_dx
    monkeypatch.setattr(dsc, "expected_dx",
                        lambda traj, inp, i: math.nan if i == 1 else real(traj, inp, i))
    cfg = write_config(tmp_path, {"seed": 4242, "steps": 3, "replicates": 5000,
                                  "ensemble_size": 16})
    dest = tmp_path / "mc.csv"
    code, _, err = run_cli(["mc-verify", "--config", cfg, "--out", str(dest)], capsys)
    assert code == 1
    assert "worst gap nan SE: FAIL" in err
    assert err.rstrip().endswith("FAIL (dx_mean at step 1)")
    header, rows = parse_csv(dest.read_text(encoding="utf-8"))
    assert rows[1][header.index("max_gap_se")] == "nan"


def test_po_penalty_nan_gap_fails(tmp_path, capsys, monkeypatch):
    real = dsc.po_mean_identity_check

    def patched(traj, p0, alpha, r, i, replicates, spec):
        p, cross, r2 = real(traj, p0, alpha, r, i, replicates, spec)
        return p, cross, r2._replace(mean2=math.nan) if i == 2 else r2

    monkeypatch.setattr(dsc, "po_mean_identity_check", patched)
    cfg = write_config(tmp_path, {"seed": 13, "steps": 2, "replicates": 40000,
                                  "ensemble_size": 12, "r": 2.0})
    code, _, err = run_cli(["po-penalty", "--config", cfg,
                            "--out", str(tmp_path / "po.csv")], capsys)
    assert code == 1
    assert "worst gap nan SE: FAIL" in err
    assert err.rstrip().endswith("FAIL (second_R at step 2)")


@pytest.mark.parametrize("cmd,obj,stats", [
    ("mc-verify", {"seed": 5, "steps": 12, "replicates": 4000, "ensemble_size": 10},
     ("dp_mean", "dp2", "dx_mean", "dx2")),
    ("po-penalty", {"seed": 6, "steps": 12, "replicates": 4000, "ensemble_size": 10},
     ("mean_P", "cov_cross", "second_R")),
])
def test_the_verdict_names_the_step_of_the_largest_gap(tmp_path, capsys, cmd, obj, stats):
    dest = tmp_path / "gate.csv"
    code, _, err = run_cli([cmd, "--config", write_config(tmp_path, obj), "--out", str(dest)],
                           capsys)
    m = re.fullmatch(r"%s: 13 steps.*, worst gap ([\d.]+) SE: (PASS|FAIL) "
                     r"\((\w+) at step (\d+)\)\n" % cmd, err)
    assert m, err
    header, rows = parse_csv(dest.read_text(encoding="utf-8"))
    gaps = [float(row[header.index("max_gap_se")]) for row in rows]
    assert int(m[4]) == int(np.argmax(gaps))
    assert m[3] in stats and m[1] == "%.2f" % max(gaps)
    assert code == (0 if max(gaps) <= 4.0 else 1)


# a closed form injected k SEs from its seeded estimate at step 1, on a run
# whose every gap is below 3.9 SE: 3.9 must PASS and 4.1 FAIL naming that
# statistic and step, so the 4-SE bound is held from both sides.  The
# kernel's records are read from a first run; the closed form is scale
# times the entry (po-penalty's r E[K]), and a power of two scales exactly
@pytest.mark.parametrize("cmd,obj,kernel,step_arg,entry,scale,stat", [
    ("mc-verify", {"seed": 4242, "steps": 3, "replicates": 5000, "ensemble_size": 16},
     "mc_discrepancy_moments", 2, "expected_dp", 1.0, "dp_mean"),
    ("po-penalty", {"seed": 13, "steps": 2, "replicates": 40000, "ensemble_size": 12,
                    "r": 2.0}, "po_mean_identity_check", 4, "po_gain_mean", 2.0, "mean_P"),
])
def test_the_gate_fails_past_4_standard_errors(tmp_path, capsys, monkeypatch, cmd, obj,
                                               kernel, step_arg, entry, scale, stat):
    argv = [cmd, "--config", write_config(tmp_path, obj), "--out", str(tmp_path / "g.csv")]
    run, seen = getattr(dsc, kernel), {}

    def recorded(*args):
        seen[args[step_arg]] = out = run(*args)
        return out
    monkeypatch.setattr(dsc, kernel, recorded)
    code, _, err = run_cli(argv, capsys)
    assert code == 0 and float(re.search(r"worst gap ([\d.]+) SE", err)[1]) < 3.9, err
    sample = seen[1][0]  # dp of (dp, dx); P of (P, cross term, R - r)
    real = getattr(dsc, entry)
    for k, verdict in ((3.9, "PASS"), (4.1, "FAIL")):
        target = (sample.mean + k * sample.mean_se) / scale
        monkeypatch.setattr(dsc, entry, lambda *a, target=target: (
            target if a[-1] == 1 else real(*a)))
        code, _, err = run_cli(argv, capsys)
        assert code == (0 if verdict == "PASS" else 1)
        assert err.endswith("worst gap %.2f SE: %s (%s at step 1)\n" % (k, verdict, stat)), err


# the fourth-moment form cancels (r/(S_i p0) = 1000 gives E[K^4] < 0 where
# the true value is about 1.9e-12) or overflows (r^2 = 1e320 is no double)
@pytest.mark.parametrize("cmd,obj,last", [
    ("po-penalty", {"steps": 3, "r": 1000, "p0": 1},
     "po-penalty: config.r: step 0: the closed form of E[K^4] gives -1.0172526041666666e-05, "
     "which no fourth moment is: it cancels or overflows at r/(S_i p0) = 1000"),
    ("po-penalty", {"steps": 3, "r": 1e160},
     "po-penalty: config.r: step 0: the closed form of E[K^4] gives nan, which no fourth "
     "moment is: it cancels or overflows at r/(S_i p0) = 1e+160"),
    ("spenkf", {"steps": 3, "r": 1000, "p0": 1, "ensemble_size": 10, "perturbed_obs": True},
     "spenkf: config.r: step 0: the closed form of E[K^4] gives -2.5431315104166665e-06, "
     "which no fourth moment is: it cancels or overflows at r/(S_i p0) = 1000"),
], ids=["po-penalty-r-1000", "po-penalty-r-1e160", "spenkf-r-1000"])
def test_a_wrong_fourth_gain_moment_exits_2_naming_r(tmp_path, capsys, cmd, obj, last):
    dest = tmp_path / "out.csv"
    code, _, err = run_cli([cmd, "--config", write_config(tmp_path, obj), "--seed", "1",
                            "--out", str(dest)], capsys)
    # one line, no numpy warning before it, and no table
    assert code == 2
    assert err == last + "\n"
    assert not dest.exists()


# ---------------------------------------------------------------- zero standard errors


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("cmd,step,stat", [("mc-verify", 77, "dp2"),
                                           ("po-penalty", 51, "cov_cross")])
def test_zero_standard_error_exits_2_naming_step_and_statistic(tmp_path, capsys,
                                                                cmd, step, stat, threads):
    # m = 0.3: dp^2 (mc-verify) and the gain cross term (po-penalty) decay
    # until their Monte Carlo standard errors underflow to 0
    cfg = write_config(tmp_path, {"steps": 200, "ensemble_size": 16, "replicates": 20000,
                                  "model": {"kind": "constant", "m": 0.3}})
    code, _, err = run_cli([cmd, "--config", cfg, "--seed", "1", "--threads", str(threads),
                            "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 2
    assert err == "%s: step %d: the standard error of %s underflowed to 0\n" % (cmd, step, stat)


@pytest.mark.parametrize("threads", [1, 2])
def test_constant_sample_exits_2_saying_so(tmp_path, capsys, monkeypatch, threads):
    # m = 2: once r/S_i is below about 1e-16 of X, X/(X + u) rounds to 1 and
    # every replicate of dx_i is the same double; nothing underflowed.  The
    # 2000 replicates fill one block, then four
    cfg = write_config(tmp_path, {"steps": 40, "ensemble_size": 8, "replicates": 2000,
                                  "model": {"kind": "constant", "m": 2.0}})
    dest = tmp_path / "out.csv"
    for block in (dsc._BLOCK, 512):
        monkeypatch.setattr(dsc, "_BLOCK", block)
        code, _, err = run_cli(["mc-verify", "--config", cfg, "--seed", "1", "--threads",
                                str(threads), "--out", str(dest)], capsys)
        assert code == 2
        assert err == ("mc-verify: step 29: the standard error of dx_mean is 0: "
                       "every replicate is the same double\n")
        assert not dest.exists()
