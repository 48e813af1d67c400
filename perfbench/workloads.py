"""The benchmark's four workloads: inputs from a seed, the timed job, and the
check of every job's output.

A workload runs in rounds; a round is one job of each of its input classes
in a fixed order, and a run always ends on a whole round, so every run of a
workload has the same mix of classes.  Job k's inputs are a pure function
of (workload seed, k).

The output check has two parts.  Every job of every seed must satisfy the
invariants (finite outputs, 1 <= theta <= theta_star, phi within
[1, theta_star], variances >= 0, complete verification CSVs).  For the
default seed, the first `ref_jobs` jobs of each workload are also compared
with the reference values in `reference/<workload>.npz`, written by
`make_reference.py`, within the workload's relative tolerance `rtol`.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
REFERENCE = HERE / "reference"
LAUNCH = HERE / "launch.py"
DEFAULT_SEED = 0

# BLAS and OpenMP pools pinned to one thread in every child process; the
# only parallelism a workload uses is mc-verify's two worker threads.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MC_THREADS = 2

# Absolute slack on the phi bounds, as in the library's own selftest.
PHI_SLACK = 1e-12


class CheckError(Exception):
    """A job's output failed the benchmark's check."""


@dataclass
class Job:
    index: int
    kind: str
    items: int
    argv: list = None      # CLI arguments, for the CLI workloads
    params: dict = None    # generated inputs
    alpha: float = None    # ensemble half-size, for the inflation bounds
    rows: int = None       # rows a complete output has


@dataclass
class Output:
    header: list
    table: np.ndarray
    gate_fail: bool = False


def child_env():
    env = dict(os.environ, **CHILD_THREADS)
    env["PYTHONPATH"] = str(SRC) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def job_rng(seed, workload_id, k):
    return np.random.default_rng(np.random.SeedSequence([seed, workload_id, k]))


def job_seed(rng):
    return int(rng.integers(0, 2**63))


def loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    try:
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise CheckError("unparsable CSV: %s" % exc) from exc
    if table.ndim != 2 or table.shape[1] != len(header):
        raise CheckError("CSV rows do not match the %d-column header" % len(header))
    return header, table


def _column(header, table, name):
    return table[:, header.index(name)]


def check_invariants(header, table, alpha=None, rows=None):
    """Raise CheckError unless the table satisfies every invariant that holds
    for any seed."""
    if rows is not None and table.shape[0] != rows:
        raise CheckError("expected %d rows, got %d" % (rows, table.shape[0]))
    if not np.all(np.isfinite(table)):
        bad = [h for h, ok in zip(header, np.isfinite(table).all(axis=0)) if not ok]
        raise CheckError("non-finite values in %s" % bad)
    for j, name in enumerate(header):
        col = table[:, j]
        nonneg = ("var" in name or name.endswith("_se") or "penalty" in name
                  or name in ("gain_fourth", "second_R", "exact_second_R",
                              "dp2", "dp2_mc", "dx2", "dx2_mc"))
        if nonneg and np.any(col < 0.0):
            raise CheckError("%s < 0 at row %d" % (name, int(np.argmin(col))))
    if alpha is not None:
        star = alpha / (alpha - 1.0)
        for name in ("theta", "theta_i"):
            if name in header:
                th = _column(header, table, name)
                if np.any(th < 1.0) or np.any(th > star):
                    raise CheckError("%s outside [1, %r]" % (name, star))
        for name in ("phi", "phi_i"):
            if name in header:
                ph = _column(header, table, name)
                if np.any(ph < 1.0 - PHI_SLACK) or np.any(ph > star + PHI_SLACK):
                    raise CheckError("%s outside [1, %r]" % (name, star))
        if "theta_star" in header and np.any(_column(header, table, "theta_star") != star):
            raise CheckError("theta_star differs from alpha/(alpha-1)")
    for name in ("dp", "dx"):
        # closed-form moments: Var = E[Y^2] - E[Y]^2 must not be negative
        if name + "_mean" in header and name + "2" in header:
            m = _column(header, table, name + "_mean")
            if np.any(_column(header, table, name + "2") - m * m < 0.0):
                raise CheckError("closed-form Var[%s] < 0" % name)


def compare_reference(header, table, ref_header, ref_table, rtol):
    """Raise CheckError unless every number matches the reference within
    rtol times the largest magnitude in its column (so values near zero in a
    column of large ones are not held to a tighter tolerance than the rest)."""
    if list(header) != list(ref_header):
        raise CheckError("header differs from the reference")
    if table.shape != ref_table.shape:
        raise CheckError("shape %s differs from the reference %s"
                         % (table.shape, ref_table.shape))
    scale = np.abs(ref_table).max(axis=0, initial=0.0)
    bad = np.abs(table - ref_table) > rtol * scale
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise CheckError("%s at row %d is %r, reference %r (rtol %g)"
                         % (header[j], i, table[i, j], ref_table[i, j], rtol))


class Workload:
    name = None
    workload_id = None
    round = ()           # input classes, one job each per round
    tail_pct = None      # job_tail_s percentile (>= 10 samples beyond it)
    ref_jobs = 0
    rtol = 1e-9
    threads = 1
    # job times scaled by the speed probe (see run.py): only where the job
    # runs on the probing thread, since the probe sees only that CPU's speed
    scaled = True

    def __init__(self, seed, references=True):
        self.seed = seed
        OUT.mkdir(exist_ok=True)
        self.csv = OUT / ("%s.csv" % self.name)
        self.cfg = OUT / ("%s.json" % self.name)
        self.refs = None
        if references and seed == DEFAULT_SEED:
            self.refs = dict(np.load(REFERENCE / ("%s.npz" % self.name)))

    def job(self, k):
        """Job k's inputs; writes its config file when it has one."""
        raise NotImplementedError

    def run(self, job, traced):
        """The timed part: returns whatever check() needs."""
        raise NotImplementedError

    def output(self, job, raw):
        """Parse the job's result into an Output, raising CheckError."""
        raise NotImplementedError

    def child_spans(self, raw):
        """Spans a traced child process handed back, if the job had one."""
        return None

    def check(self, job, raw):
        out = self.output(job, raw)
        check_invariants(out.header, out.table, job.alpha, job.rows)
        if self.refs is not None and job.index < self.ref_jobs:
            key = str(job.index)
            compare_reference(out.header, out.table, list(self.refs[key + ".header"]),
                              self.refs[key], self.rtol)
        return out

    def first_config(self):
        """Path of the config the set-up measurement loads."""
        self.job(0)
        return self.cfg

    def write_config(self, cfg):
        """Write job inputs as a CLI config, and remove the previous job's
        CSV so that a job which writes none cannot pass on a stale one."""
        self.cfg.write_text(json.dumps(cfg))
        if self.csv.exists():
            self.csv.unlink()


def _run_cli(argv):
    import filterlab.cli
    with contextlib.redirect_stderr(io.StringIO()):
        return filterlab.cli.main(argv)


class Schedule(Workload):
    """inflation-table on ~1e3-step random_loguniform trajectories."""

    name = "schedule"
    workload_id = 1
    # narrow band twice per round so the median sits inside one band's
    # distribution; parity alternates from job to job, so half of each
    # band's jobs have integer alpha + 1
    round = ("narrow", "wide", "narrow")
    bands = {"narrow": (0.9, 1.1), "wide": (0.5, 2.0)}
    steps = 1000
    tail_pct = 90
    ref_jobs = 6

    def job(self, k):
        rng = job_rng(self.seed, self.workload_id, k)
        band = self.round[k % len(self.round)]
        n = 2 * int(rng.integers(2, 17)) + k % 2
        lo, hi = self.bands[band]
        cfg = {"seed": job_seed(rng), "steps": self.steps, "ensemble_size": n,
               "p0": loguniform(rng, 0.5, 2.0), "r": loguniform(rng, 0.5, 2.0),
               "x0": float(rng.normal()), "x0_truth": 1.0,
               "model": {"kind": "random_loguniform", "low": lo, "high": hi,
                         "signed": True}}
        self.write_config(cfg)
        argv = ["inflation-table", "--config", str(self.cfg), "--out", str(self.csv)]
        return Job(k, "%s-%s" % (band, "odd" if n % 2 else "even"), self.steps + 1,
                   argv=argv, params=cfg, alpha=0.5 * n, rows=self.steps + 1)

    def run(self, job, traced):
        return _run_cli(job.argv)

    def output(self, job, rc):
        if rc != 0:
            raise CheckError("exit code %r" % rc)
        return Output(*parse_csv(self.csv.read_text(encoding="utf-8")))


class McVerify(Workload):
    """mc-verify with two threads, N = 8, 20 steps."""

    name = "mc_verify"
    workload_id = 2
    # replicates per step: 1e5 keeps each array (0.8 MB) inside a core's
    # 2 MiB L2, 3e5 (2.4 MB) spills it; 1e5 twice per round so the median
    # sits inside one class
    round = (100_000, 100_000, 300_000)
    steps = 20
    tail_pct = 75
    ref_jobs = 6
    threads = MC_THREADS
    scaled = False

    def job(self, k):
        rng = job_rng(self.seed, self.workload_id, k)
        reps = self.round[k % len(self.round)]
        cfg = {"steps": self.steps, "ensemble_size": 8, "replicates": reps,
               "p0": loguniform(rng, 0.5, 2.0), "r": loguniform(rng, 0.5, 2.0),
               "x0": float(rng.normal()), "x0_truth": 1.0,
               "model": {"kind": "random_loguniform", "low": 0.8, "high": 1.25,
                         "signed": True}}
        self.write_config(cfg)
        argv = ["mc-verify", "--config", str(self.cfg), "--seed", str(job_seed(rng)),
                "--threads", str(MC_THREADS), "--out", str(self.csv)]
        return Job(k, "reps-%d" % reps, reps * (self.steps + 1), argv=argv,
                   params=cfg, alpha=4.0, rows=self.steps + 1)

    def run(self, job, traced):
        return _run_cli(job.argv)

    def output(self, job, rc):
        # exit 1 is the gate's FAIL verdict, a statistical outcome; the CSV
        # must still be complete
        if rc not in (0, 1):
            raise CheckError("exit code %r" % rc)
        return Output(*parse_csv(self.csv.read_text(encoding="utf-8")), gate_fail=rc == 1)


class Moments(Workload):
    """Library closed forms along one trajectory, no CLI."""

    name = "moments"
    workload_id = 3
    # every job walks its trajectory once per alpha; one class per round
    round = ("alpha-4.5..1024",)
    alphas = (4.5, 16.0, 64.5, 256.0, 1024.0)
    steps = 100
    tail_pct = 95
    ref_jobs = 4
    # the large-alpha closed forms currently carry errors up to ~2e-6
    # (ratio_fourth_moment at alpha = 1024), so a more accurate branch must
    # still pass
    rtol = 1e-5
    header = ["alpha", "dp_mean", "dp2", "dx_mean", "dx2", "po_penalty",
              "closed_mean", "closed_var"]

    def job(self, k):
        rng = job_rng(self.seed, self.workload_id, k)
        # |m| in [0.9, 1.1] and r/p0 in [0.64, 1.56] keep S_i p0/r below
        # ~300 over 100 steps, so z = alpha r/(S_i p0) stays above 1 at
        # alpha >= 256.  Below z = 1 those orders take the power series,
        # ~100x slower per call than the continued fraction, and a random
        # share of jobs doing so would make the tail a draw on that share.
        params = {"seed": job_seed(rng), "steps": self.steps,
                  "p0": loguniform(rng, 0.8, 1.25), "r": loguniform(rng, 0.8, 1.25),
                  "x0": float(rng.normal()), "x0_truth": 1.0,
                  "model": {"kind": "random_loguniform", "low": 0.9, "high": 1.1,
                            "signed": True}}
        # same schema as a CLI config, so set-up can load it
        self.write_config(params)
        rows = len(self.alphas) * (self.steps + 1)
        return Job(k, self.round[0], 6 * rows, params=params, rows=rows)

    def run(self, job, traced):
        # modules looked up at call time, so a traced run sees its wrappers
        from filterlab import discrepancy as dsc, propagators as prop, skf
        from filterlab.rng import RngSpec
        p = job.params
        spec = RngSpec(p["seed"], 0)
        model = prop.ModelSequence.random_loguniform(
            p["steps"], spec.stream(1), p["model"]["low"], p["model"]["high"])
        traj = prop.build_trajectory(model, p["x0_truth"], p["r"], spec)
        p0, x0, r = p["p0"], p["x0"], p["r"]
        out = np.empty((job.rows, len(self.header)))
        row = 0
        for alpha in self.alphas:
            inp = dsc.PerturbedInputs(p0=p0, x0=x0, p_tilde0=p0, x_tilde0=x0,
                                      alpha=alpha, r=r)
            for i in range(p["steps"] + 1):
                c = skf.skf_closed_form(traj, x0, p0, i)
                out[row] = (alpha,
                            dsc.expected_dp(traj, inp, i), dsc.second_moment_dp(traj, inp, i),
                            dsc.expected_dx(traj, inp, i), dsc.second_moment_dx(traj, inp, i),
                            dsc.po_variance_penalty(traj, p0, alpha, r, i),
                            c.mean_analysis, c.var_analysis)
                row += 1
        return out

    def output(self, job, table):
        return Output(list(self.header), table)


# scripts/run_all.sh, with mc-verify on two threads instead of four
TABLES = (
    ("selftest", None),
    ("skf", "basic_skf.json"),
    ("spenkf", "inflated_spenkf.json"),
    ("inflation-table", "inflated_spenkf.json"),
    ("mc-verify", "mc_verify_default.json"),
    ("po-penalty", "inflated_spenkf.json"),
    ("mv", "mv_demo.json"),
)


class Tables(Workload):
    """Each job one fresh interpreter running one CLI subcommand."""

    name = "tables"
    workload_id = 4
    round = tuple(cmd for cmd, _ in TABLES)
    tail_pct = 75
    ref_jobs = 14
    scaled = False

    def job(self, k):
        rng = job_rng(self.seed, self.workload_id, k)
        cmd, cfg_name = TABLES[k % len(TABLES)]
        argv = [cmd, "--seed", str(job_seed(rng))]
        if cfg_name is None:
            return Job(k, cmd, 1, argv=argv)
        path = ROOT / "scripts" / "configs" / cfg_name
        cfg = json.loads(path.read_text())
        argv += ["--config", str(path), "--out", str(self.csv)]
        if cmd == "mc-verify":
            argv += ["--threads", str(MC_THREADS)]
        rows = (len(cfg["mv"]["multipliers"]) if cmd == "mv" else cfg.get("steps", 20)) + 1
        if self.csv.exists():
            self.csv.unlink()  # a job that writes no CSV must not pass on a stale one
        return Job(k, cmd, 1, argv=argv, params=cfg,
                   alpha=0.5 * cfg.get("ensemble_size", 16), rows=rows)

    def first_config(self):
        return ROOT / "scripts" / "configs" / TABLES[1][1]

    def run(self, job, traced):
        if traced:
            spans = OUT / "child_spans.json"
            if spans.exists():
                spans.unlink()
            cmd = [sys.executable, str(LAUNCH), str(spans)] + job.argv
        else:
            cmd = [sys.executable, "-m", "filterlab.cli"] + job.argv
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        child = json.loads(spans.read_text()) if traced and spans.exists() else None
        return proc, child

    def child_spans(self, raw):
        return raw[1] if raw is not None else None

    def output(self, job, raw):
        proc = raw[0]
        gate = job.kind in ("mc-verify", "po-penalty")
        if proc.returncode not in ((0, 1) if gate else (0,)):
            raise CheckError("%s exit code %r: %s" % (job.kind, proc.returncode,
                                                      proc.stderr.strip()[-300:]))
        if job.kind == "selftest":
            lines = proc.stdout.strip().split("\n")
            if lines[-1] != "selftest: PASS" or any(l.startswith("FAIL") for l in lines):
                raise CheckError("selftest did not pass")
            return Output(["checks_ok"], np.array([[float(len(lines) - 1)]]))
        header, table = parse_csv(self.csv.read_text(encoding="utf-8"))
        return Output(header, table, gate_fail=proc.returncode == 1)


WORKLOADS = {w.name: w for w in (Schedule, McVerify, Moments, Tables)}
