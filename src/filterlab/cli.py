"""Command-line front end.

Every subcommand reads one JSON config (all fields optional, defaults in
config.ExperimentConfig), draws all randomness from the --seed override or
the config seed, and emits UTF-8 CSV with floats at 17 significant digits,
so outputs are byte-identical across runs and thread counts for a given
seed.  Every value prints as "%.17g" prints it: each value is a float or a
step index, and "%.17g" prints an int below 2^53 as str() does.  A command
hands its whole table to _csvtext.csv_text as one float64 array, which
prints those bytes without a Python call per value.
Verification commands (mc-verify, po-penalty, selftest) exit
nonzero when a check fails.
"""

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from ._csvtext import csv_text
from .expint import DomainError, expint_scaled, expint_scaled_inverse
from .config import ConfigError, ExperimentConfig
from .propagators import InputError, ModelSequence, build_trajectory
from .rng import RngSpec
from .mvspenkf import DiagonalizableModel, mv_inflation_schedule, mv_spenkf_run
from .skf import skf_closed_form, skf_run
from .spenkf import (
    inflation_schedule,
    sample_initial_ensemble,
    spenkf_run,
    theta_star,
)

# stream-id layout shared by all commands
_STREAM_TRAJ = 0
_STREAM_ENSEMBLE = 1
_STREAM_MC_BASE = 10


def _write_csv(out_path, cols, rows):
    # rows is any 2-D table of floats and step indices, an array or a list
    # of rows; each value prints as "%.17g" prints it
    text = ",".join(name for name, _ in cols) + "\n" + csv_text(rows)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _describe(columns):
    width = max(len(name) for name, _ in columns)
    for name, doc in columns:
        print("%-*s  %s" % (width, name, doc))


def _load(args):
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed, seed_given=True)
    if args.out is None and cfg.output_path is not None:
        args.out = cfg.output_path
    return cfg


# the config field behind each library input, top level and in "mv": p0 and
# x0 are an exact prior, phat0 and x_tilde0 the sampled prior of an initial
# ensemble
_TRAJ_FIELDS = {"model": "model", "x0_truth": "x0_truth", "obs_variance": "r",
                "p0": "p0", "phat0": "p_tilde0", "x0": "x0", "x_tilde0": "x_tilde0"}
_MV_FIELDS = {"model": "mv.multipliers", "x0_truth": "mv.x0", "obs_variance": "mv.r_diag",
              "Z": "mv.Z", "multipliers": "mv.multipliers", "p0_diag": "mv.p0_diag",
              "phat0": "mv.p0_diag", "r_diag": "mv.r_diag", "x0": "mv.x0"}


def _trajectory(cfg):
    spec = RngSpec(cfg.seed, _STREAM_TRAJ)
    model = cfg.model.build(cfg.steps, spec.stream(_STREAM_MC_BASE - 1))
    return build_trajectory(model, cfg.x0_truth, cfg.r, spec)


def _schedule(cfg, traj, alpha, field):
    # the inflation schedule built from prior variance cfg.<field>; a
    # prior too small against r / S_i leaves the inverse's domain
    p = getattr(cfg, field)
    try:
        return inflation_schedule(traj, alpha, p, cfg.x0)
    except DomainError as exc:
        raise ConfigError("config.%s: %r is too small against r / S_i for the "
                          "optimal inflation (%s)" % (field, p, exc)) from exc


# a verification fails when any closed form sits more than this many
# Monte Carlo standard errors from its estimate
_GATE_SE = 4.0


def _gate_setup(args, order):
    # the config, trajectory and alpha = N/2 of a Monte Carlo gate checking
    # moments up to the order-th.  It refuses to run on an implicit seed, so
    # either --seed or an explicit "seed" field in the config is required,
    # and on an ensemble whose alpha does not exceed order
    cfg = _load(args)
    if not cfg.seed_given:
        raise ConfigError("requires --seed or an explicit config.seed, so results "
                          "are attributable to a stated seed")
    if cfg.ensemble_size <= 2 * order:
        raise ConfigError("config.ensemble_size: must be >= %d (%s moments need alpha = N/2 > %d)"
                          % (2 * order + 1, {2: "second", 4: "fourth"}[order], order))
    return cfg, _trajectory(cfg), 0.5 * cfg.ensemble_size


def _gated_rows(args, cfg, cols, closed, one):
    # closed(i), every step's closed forms, on this thread first: that builds
    # each table once.  Then one(i, closed(i), spec), a row and its
    # (statistic, gap) pairs from the Monte Carlo stream spec of step i, on
    # args.threads threads, up to a step closed() refused, whose error is
    # raised after those rows if none of them raises first.  Each row ends
    # with its largest gap in SE units, NaN if any gap is NaN, and the
    # verdict is on the largest of those, so a NaN cannot pass.  It names
    # the first NaN gap's statistic and step, else the first largest.
    from concurrent.futures import ThreadPoolExecutor  # only these commands make a pool

    forms = []
    try:
        for i in range(cfg.steps + 1):
            forms.append(closed(i))
    finally:
        specs = [RngSpec(cfg.seed, _STREAM_MC_BASE + i) for i in range(len(forms))]
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(one, range(len(forms)), forms, specs))
    rows = [row + [float(np.max([g for _, g in gaps]))] for row, gaps in results]
    flat = [(g, i, stat) for i, (_, gaps) in enumerate(results) for stat, g in gaps]
    nans = [t for t in flat if t[0] != t[0]]
    worst, step, stat = nans[0] if nans else max(flat, key=lambda t: t[0])
    _write_csv(args.out, cols, rows)
    ok = worst <= _GATE_SE
    print("%s: %d steps, %d replicates, worst gap %.2f SE: %s (%s at step %d)"
          % (args.command, len(rows), cfg.replicates, worst, "PASS" if ok else "FAIL",
             stat, step), file=sys.stderr)
    return 0 if ok else 1


def _gap(i, stat, closed, sample, field):
    # (stat, |closed - the field of the SampleMoments sample| in SE units).
    # A zero SE is exact when every replicate is the same double; otherwise
    # the squared deviations underflowed
    se = getattr(sample, field + "_se")
    if se == 0.0:
        why = ("is 0: every replicate is the same double" if sample.constant
               else "underflowed to 0")
        raise DomainError("step %d: the standard error of %s %s" % (i, stat, why))
    return stat, abs(closed - getattr(sample, field)) / se


# ---------------------------------------------------------------- skf

_SKF_COLS = [
    ("step", "assimilation step index i"),
    ("truth", "true state x_i"),
    ("observation", "observation y_i = x_i + noise, noise variance r"),
    ("mean_forecast", "forecast mean before assimilating y_i"),
    ("var_forecast", "forecast variance before assimilating y_i"),
    ("gain", "Kalman gain p_f / (p_f + r)"),
    ("mean_analysis", "analysis mean after assimilating y_i"),
    ("var_analysis", "analysis variance after assimilating y_i"),
    ("closed_mean", "closed form M_i (B_i p0 + r x0) / (S_i p0 + r)"),
    ("closed_var", "closed form M_i^2 p0 r / (S_i p0 + r)"),
]


def cmd_skf(args):
    cfg = _load(args)
    traj = _trajectory(cfg)
    # each SkfState is (step, mean_forecast, var_forecast, gain,
    # mean_analysis, var_analysis)
    states = np.array(skf_run(traj, cfg.x0, cfg.p0))
    closed = np.array([skf_closed_form(traj, cfg.x0, cfg.p0, i) for i in range(len(states))])
    _write_csv(args.out, _SKF_COLS, np.column_stack(
        [states[:, 0], traj.truth, traj.observations, states[:, 1:], closed[:, 4:]]))
    return 0


# ---------------------------------------------------------------- spenkf

_SPENKF_COLS = [
    ("step", "assimilation step index i"),
    ("truth", "true state x_i"),
    ("observation", "observation y_i"),
    ("mean", "ensemble analysis mean"),
    ("sampled_var", "divisor-N ensemble analysis variance (1/N) a.a"),
    ("gain", "sampled gain phat_f / (phat_f + r)"),
    ("ref_mean", "exact-prior filter analysis mean (reference)"),
    ("ref_var", "exact-prior filter analysis variance (reference)"),
    ("theta", "one-shot optimal inflation factor theta_i (nan if disabled)"),
    ("phi", "sequential variance inflation applied to forecast i (nan if disabled)"),
    ("psi", "sequential mean shift applied to forecast i (nan if disabled)"),
    ("po_penalty", "perturbed-observation variance penalty E[K_i^4] r^2 / alpha "
                   "(nan unless perturbed_obs is set and alpha > 4)"),
]


def cmd_spenkf(args):
    cfg = _load(args)
    traj = _trajectory(cfg)
    alpha = 0.5 * cfg.ensemble_size
    sched = run = None
    if cfg.inflation != "none":
        sched = _schedule(cfg, traj, alpha, "p_tilde0")
        run = sched.initial_theta() if cfg.inflation == "initial-theta" else sched
    init = sample_initial_ensemble(cfg.ensemble_size, cfg.p_tilde0, cfg.x0,
                                   RngSpec(cfg.seed, _STREAM_ENSEMBLE))
    states = spenkf_run(traj, init, run)
    ref = skf_run(traj, cfg.x0, cfg.p0)
    dsc = None
    if cfg.perturbed_obs and alpha > 4.0:
        from . import discrepancy as dsc  # the penalty's closed forms
    steps = range(len(states))
    nan = np.full(len(states), math.nan)
    seq = cfg.inflation == "sequential"
    _write_csv(args.out, _SPENKF_COLS, np.column_stack([
        steps, traj.truth, traj.observations,
        [(s.mean, s.sampled_var, s.gain) for s in states],
        [(s.mean_analysis, s.var_analysis) for s in ref],
        nan if sched is None else sched.theta,
        sched.phi if seq else nan,
        sched.psi if seq else nan,
        nan if dsc is None
        else [dsc.po_variance_penalty(traj, cfg.p0, alpha, cfg.r, i) for i in steps]]))
    return 0


# ---------------------------------------------------------------- mc-verify

# the two discrepancies, each with what it is the discrepancy of, and the
# statistics of each, in column order: the column's suffix, the
# SampleMoments field, the moment, what its closed form's doc adds, and
# whether it is gated (Var is the difference of the two that are)
_MC_DISCREPANCIES = [("dp", "variance"), ("dx", "mean")]
_MC_STATS = [("_mean", "mean", "E[{d}_i]", ", {what} discrepancy mean", True),
             ("_var", "var", "Var[{d}_i]", " = E[{d}_i^2] - E[{d}_i]^2", False),
             ("2", "mean2", "E[{d}_i^2]", "", True)]


def _mc_stat_cols():
    # the closed-form, estimate and SE columns of each statistic of each discrepancy
    for d, what in _MC_DISCREPANCIES:
        for suffix, _, moment, note, _ in _MC_STATS:
            yield d + suffix, ("closed-form " + moment + note).format(d=d, what=what)
            yield d + suffix + "_mc", "Monte Carlo estimate of " + moment.format(d=d)
            yield d + suffix + "_se", "standard error of %s%s_mc" % (d, suffix)


_MC_COLS = [
    ("step", "assimilation step index i"),
    ("M_ratio", "propagator ratio M_i^2 / S_i"),
    ("skf_mean", "exact filter analysis mean at step i (closed form)"),
    ("skf_var", "exact filter analysis variance at step i (closed form)"),
    *_mc_stat_cols(),
    ("theta_i", "one-shot optimal inflation factor at step i"),
    ("phi_i", "sequential variance inflation factor at step i"),
    ("psi_i", "sequential mean shift at step i"),
    ("max_gap_se", "largest |closed form - Monte Carlo| in SE units this step "
                   "(over the two means and two second moments)"),
]


def cmd_mc_verify(args):
    from . import discrepancy as dsc

    cfg, traj, alpha = _gate_setup(args, 2)
    inp = dsc.PerturbedInputs(p0=cfg.p0, x0=cfg.x0, p_tilde0=cfg.p_tilde0,
                              x_tilde0=cfg.x_tilde0, alpha=alpha, r=cfg.r)
    sched = _schedule(cfg, traj, alpha, "p0")

    def closed(i):
        # E[d_i] and E[d_i^2] of each discrepancy d, from expected_<d> and
        # second_moment_<d>, looked up on each call
        return skf_closed_form(traj, cfg.x0, cfg.p0, i), [
            (getattr(dsc, "expected_" + d)(traj, inp, i),
             getattr(dsc, "second_moment_" + d)(traj, inp, i)) for d, _ in _MC_DISCREPANCIES]

    def one(i, forms, spec):
        ref, moments = forms
        samples = dsc.mc_discrepancy_moments(traj, inp, i, cfg.replicates, spec)
        row, gaps = [i, traj.M2_over_S[i], ref.mean_analysis, ref.var_analysis], []
        for (d, _), (m1, m2), sample in zip(_MC_DISCREPANCIES, moments, samples):
            form = {"mean": m1, "var": m2 - m1 * m1, "mean2": m2}
            for suffix, field, _, _, gated in _MC_STATS:
                row += [form[field], getattr(sample, field), getattr(sample, field + "_se")]
                if gated:
                    gaps.append(_gap(i, d + suffix, form[field], sample, field))
        return row + [float(sched.theta[i]), float(sched.phi[i]), float(sched.psi[i])], gaps

    return _gated_rows(args, cfg, _MC_COLS, closed, one)


# ---------------------------------------------------------------- inflation-table

_INFL_COLS = [
    ("step", "assimilation step index i"),
    ("r_over_s", "observation-to-propagated variance ratio r / S_i"),
    ("theta", "one-shot optimal inflation theta_i"),
    ("phi", "sequential variance factor phi_i (phi_0 = theta_0)"),
    ("psi", "sequential mean shift psi_i (psi_0 = 0)"),
    ("theta_star", "asymptote alpha / (alpha - 1) of theta_i as r/S_i -> 0"),
]


def cmd_inflation_table(args):
    cfg = _load(args)
    traj = _trajectory(cfg)
    alpha = 0.5 * cfg.ensemble_size
    sched = _schedule(cfg, traj, alpha, "p_tilde0")
    n = traj.n_steps + 1
    _write_csv(args.out, _INFL_COLS, np.column_stack(
        [np.arange(n), traj.obs_variance * traj.array("inv_S"), sched.theta, sched.phi,
         sched.psi, np.full(n, sched.theta_star)]))
    return 0


# ---------------------------------------------------------------- po-penalty

_PO_COLS = [
    ("step", "assimilation step index i"),
    ("gain_fourth", "closed-form E[K_i^4] of the sampled propagated gain"),
    ("penalty", "perturbed-observation variance penalty E[K_i^4] r^2 / alpha"),
    ("mean_P", "Monte Carlo mean of P = r K + K^2 (R - r)"),
    ("mean_rK", "closed-form r E[K], which E[P] must equal"),
    ("cov_cross", "Monte Carlo covariance of r K and K^2 (R - r)"),
    ("cov_cross_se", "standard error of cov_cross"),
    ("second_R", "Monte Carlo mean of (R - r)^2"),
    ("exact_second_R", "exact value r^2 / alpha of E[(R - r)^2]"),
    ("max_gap_se", "largest Monte Carlo/closed-form gap in SE units this step"),
]


def cmd_po_penalty(args):
    from . import discrepancy as dsc

    cfg, traj, alpha = _gate_setup(args, 4)
    second_r = cfg.r * cfg.r / alpha  # E[(R - r)^2], exactly

    def closed(i):
        # r E[K], E[K^4] and the penalty from the gain tables; the Monte
        # Carlo kernel reads none of them
        return (cfg.r * dsc.po_gain_mean(traj, cfg.p0, alpha, cfg.r, i),
                dsc.po_gain_fourth(traj, cfg.p0, alpha, cfg.r, i),
                dsc.po_variance_penalty(traj, cfg.p0, alpha, cfg.r, i))

    def one(i, forms, spec):
        p, cross, r2 = dsc.po_mean_identity_check(traj, cfg.p0, alpha, cfg.r, i,
                                                  cfg.replicates, spec)
        mean_rk, k4, penalty = forms
        gaps = [_gap(i, "mean_P", mean_rk, p, "mean"),
                _gap(i, "cov_cross", 0.0, cross, "mean"),
                _gap(i, "second_R", second_r, r2, "mean2")]
        return [i, k4, penalty, p.mean, mean_rk, cross.mean, cross.mean_se, r2.mean2,
                second_r], gaps

    return _gated_rows(args, cfg, _PO_COLS, closed, one)


# ---------------------------------------------------------------- mv

def _mv_cols(dim):
    cols = [("step", "assimilation step index i")]
    for j in range(dim):
        cols.append(("mean_basis_%d" % j, "component-%d analysis mean in the shared eigenbasis" % j))
    for j in range(dim):
        cols.append(("var_basis_%d" % j, "component-%d sampled analysis variance in the eigenbasis" % j))
    for j in range(dim):
        cols.append(("mean_%d" % j, "coordinate-%d analysis mean mapped back through Z" % j))
    return cols


def cmd_mv(args):
    cfg = _load(args)
    if cfg.mv is None:
        if args.describe:
            _describe(_mv_cols(2) + [("...", "column triple repeats per state dimension")])
            return 0
        raise ConfigError("config.mv: missing required section")
    if cfg.inflation == "initial-theta":
        raise ConfigError("config.inflation: mv runs only 'none' or 'sequential'")
    model = DiagonalizableModel(Z=np.array(cfg.mv.Z),
                                multipliers=np.array(cfg.mv.multipliers),
                                p0_diag=np.array(cfg.mv.p0_diag),
                                r_diag=np.array(cfg.mv.r_diag))
    if args.describe:
        _describe(_mv_cols(model.dim))
        return 0
    spec = RngSpec(cfg.seed, _STREAM_MC_BASE)
    result = mv_spenkf_run(model, np.array(cfg.mv.x0), cfg.ensemble_size, spec)
    if cfg.inflation == "sequential":
        result = mv_spenkf_run(model, np.array(cfg.mv.x0), cfg.ensemble_size,
                               spec, mv_inflation_schedule(result))
    _write_csv(args.out, _mv_cols(model.dim), np.column_stack(
        [np.arange(len(result.means)), result.means_basis, result.variances_basis,
         result.means]))
    return 0


# ---------------------------------------------------------------- selftest

def _expint_recurrence():
    worst = 0.0
    for nu in (1.5, 2.0, 5.0, 17.25, 50.0, 100.0):
        for z in (1e-6, 1e-3, 0.5, 1.0, 7.0, 100.0, 700.0):
            val = expint_scaled(nu, z)
            nxt = expint_scaled(nu + 1.0, z)
            worst = max(worst, abs(nu * nxt + z * val - 1.0))
            if not (1.0 / (z + nu) < val <= 1.0 / (z + nu - 1.0)):
                return False, "sandwich violated at nu=%g z=%g" % (nu, z)
    return worst < 1e-12, "recurrence residual %.2e" % worst


def _inverse_roundtrip():
    worst = 0.0
    for alpha in (1.5, 2.0, 5.0, 50.0):
        for z in (1e-5, 0.3, 4.0, 300.0):
            y = expint_scaled(alpha + 1.0, z)
            zz = expint_scaled_inverse(alpha, y)
            worst = max(worst, abs(zz - z) / max(z, 1e-12))
    return worst < 1e-9, "round-trip rel err %.2e" % worst


def _closed_form_match():
    spec = RngSpec(1234, 0)
    model = ModelSequence.random_loguniform(40, spec.stream(1))
    traj = build_trajectory(model, 1.0, 0.7, spec)
    states = skf_run(traj, 0.2, 1.3)
    worst = 0.0
    for i, s in enumerate(states):
        c = skf_closed_form(traj, 0.2, 1.3, i)
        worst = max(worst,
                    abs(c.var_analysis - s.var_analysis) / s.var_analysis,
                    abs(c.mean_analysis - s.mean_analysis)
                    / max(abs(s.mean_analysis), 1e-12))
    return worst < 1e-10, "closed-vs-recursive rel err %.2e" % worst


def _inflation_bounds():
    spec = RngSpec(99, 0)
    model = ModelSequence.random_loguniform(30, spec.stream(1))
    traj = build_trajectory(model, 1.0, 2.0, spec)
    for alpha in (1.5, 4.0, 64.0):
        sched = inflation_schedule(traj, alpha, 0.8, 0.1)
        ts = theta_star(alpha)
        if not np.all((sched.phi >= 1.0 - 1e-12) & (sched.phi <= ts + 1e-12)):
            return False, "phi out of [1, alpha/(alpha-1)] at alpha=%g" % alpha
        if not np.all((sched.theta > 1.0) & (sched.theta <= ts + 1e-12)):
            return False, "theta out of (1, alpha/(alpha-1)] at alpha=%g" % alpha
    return True, "phi, theta within bounds"


def _bootstrap_identity():
    spec = RngSpec(7, 0)
    model = ModelSequence.random_loguniform(12, spec.stream(1))
    traj = build_trajectory(model, 0.5, 1.0, spec)
    sched = inflation_schedule(traj, 8.0, 1.0, 0.0)
    states = skf_run(traj, 0.0, 1.0, sched)
    # theta realized sequentially must equal theta realized in one shot
    worst = 0.0
    for i, s in enumerate(states):
        u = traj.obs_variance * traj.inv_S[i]
        one_shot = traj.obs_variance * sched.theta[i] * 1.0 \
            * traj.M2_over_S[i] / (sched.theta[i] * 1.0 + u)
        worst = max(worst, abs(s.var_analysis - one_shot) / one_shot)
    return worst < 1e-10, "sequential-vs-one-shot rel err %.2e" % worst


# the checks selftest runs, in order, and documents for --describe
_SELFTEST_CHECKS = [
    ("expint recurrence and sandwich bounds", _expint_recurrence),
    ("scaled-expint inverse round trip", _inverse_roundtrip),
    ("recursion matches closed forms", _closed_form_match),
    ("inflation factors within bounds", _inflation_bounds),
    ("sequential schedule bootstraps one-shot inflation", _bootstrap_identity),
]


def cmd_selftest(args):
    ok = True
    for name, fn in _SELFTEST_CHECKS:
        good, detail = fn()
        ok = ok and good
        print("%s: %s (%s)" % ("ok" if good else "FAIL", name, detail))
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------- parser

def _add_common(sub):
    sub.add_argument("--config", metavar="PATH", default=None,
                     help="JSON experiment config (defaults used when omitted)")
    sub.add_argument("--seed", type=int, default=None, metavar="U64",
                     help="override the config seed")
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="write CSV here instead of stdout")
    sub.add_argument("--threads", type=int, default=1, metavar="N",
                     help="worker threads for per-step computations")
    sub.add_argument("--describe", action="store_true",
                     help="print documentation for every output column and exit")


# built once per process; main only reads it and writes its own namespace
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="filterlab",
        description="Scalar and diagonalizable ensemble filtering laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the columns main documents for --describe; mv's vary, so it has its own
    specs = [
        ("skf", cmd_skf, _SKF_COLS, "run the exact scalar filter and its closed forms"),
        ("spenkf", cmd_spenkf, _SPENKF_COLS,
         "run the scalar ensemble filter (optionally inflated)"),
        ("mc-verify", cmd_mc_verify, _MC_COLS,
         "check closed-form discrepancy moments against Monte Carlo"),
        ("inflation-table", cmd_inflation_table, _INFL_COLS,
         "tabulate the exact inflation schedule along a trajectory"),
        ("po-penalty", cmd_po_penalty, _PO_COLS,
         "perturbed-observation variance penalty and its Monte Carlo checks"),
        ("mv", cmd_mv, None, "run the diagonalizable multivariate reduction"),
        ("selftest", cmd_selftest,
         [("check %d" % k, name) for k, (name, _) in enumerate(_SELFTEST_CHECKS, 1)],
         "run built-in consistency checks"),
    ]
    for name, fn, columns, help_text in specs:
        s = sub.add_parser(name, help=help_text)
        _add_common(s)
        s.set_defaults(fn=fn, columns=columns)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # bad input exits 2 with the one line "<command>: <message>", where the
    # message names the field; exit 1 is reserved for a verification FAIL
    try:
        if args.seed is not None and not (0 <= args.seed < 2**64):
            raise ConfigError("--seed: must fit in an unsigned 64-bit integer")
        if args.threads < 1:
            raise ConfigError("--threads: must be >= 1")
        if args.describe and args.columns:
            _describe(args.columns)
            return 0
        return args.fn(args)
    except (ConfigError, DomainError) as exc:
        message = str(exc)
    except InputError as exc:
        # a library input at fault, named by the config field it came from
        where = _MV_FIELDS if args.command == "mv" else _TRAJ_FIELDS
        message = "config.%s: %s" % (where[exc.param], exc.detail)
    except OSError as exc:
        # the file that --config or --out names cannot be read or written
        if exc.filename is None or exc.filename not in (args.config, args.out):
            raise
        flag = "--config" if exc.filename == args.config else "--out"
        message = "%s: %s: %s" % (flag, exc.strerror.lower(), exc.filename)
    print("%s: %s" % (args.command, message), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
