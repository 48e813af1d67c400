"""Acceptance suite: one test per release criterion.

Each test prints a single "criterion NN ...: PASS" line (visible with -s or
in failure output) and enforces the stated tolerance and, where applicable,
a wall-clock budget.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from filterlab.cli import main
from filterlab.discrepancy import (
    PerturbedInputs,
    expected_dp,
    expected_dx,
    mc_discrepancy_moments,
    po_gain_mean,
    po_mean_identity_check,
    po_variance_penalty,
    second_moment_dp,
    second_moment_dx,
)
from filterlab.expint import expint_scaled, expint_scaled_inverse
from filterlab.gamma_ratio import (
    GammaRatioSpec,
    ratio_fourth_moment,
    ratio_mean,
    ratio_second_moment,
)
from filterlab.mvspenkf import DiagonalizableModel, mv_spenkf_run
from filterlab.propagators import ModelSequence, build_trajectory
from filterlab.rng import RngSpec
from filterlab.skf import skf_closed_form, skf_run
from filterlab.spenkf import (
    EnsembleState,
    inflation_schedule,
    spenkf_run,
    theta_star,
    theta_step,
)
from conftest import ratio_pdf, ratio_support


def _report(num, name, detail):
    print("criterion %02d (%s): PASS - %s" % (num, name, detail))


# ------------------------------------------------------------ criterion 1


def test_criterion_01_expint_suite():
    t0 = time.perf_counter()
    nus = np.geomspace(1.5, 100.0, 10)
    zs = np.geomspace(1e-6, 700.0, 10)
    worst_rec = 0.0
    for nu in nus:
        for z in zs:
            val = expint_scaled(nu, z)
            nxt = expint_scaled(nu + 1.0, z)
            worst_rec = max(worst_rec, abs(nu * nxt + z * val - 1.0))
            # sandwich, with one-ulp slack on the lower bound
            assert 1.0 / (z + nu) * (1.0 - 1e-15) <= val <= 1.0 / (z + nu - 1.0)
    assert worst_rec <= 1e-12

    # round trip measured in y: y -> z -> y must reproduce y to 1e-10.
    # The z -> z direction is checked where it is well conditioned; at
    # z << 1 the y-representation cannot resolve z (relative condition
    # ~ eps * nu / z), so that direction is restricted to z >= 1e-2.
    worst_y = 0.0
    worst_z = 0.0
    for alpha in nus:
        for z in zs:
            y = expint_scaled(alpha + 1.0, z)
            zz = expint_scaled_inverse(alpha, y)
            yy = expint_scaled(alpha + 1.0, zz)
            worst_y = max(worst_y, abs(yy - y) / y)
            if z >= 1e-2:
                worst_z = max(worst_z, abs(zz - z) / z)
    assert worst_y <= 1e-10
    assert worst_z <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, "expint suite", "recurrence %.1e, round trip %.1e, %.2fs"
            % (worst_rec, max(worst_y, worst_z), dt))


# ------------------------------------------------------------ criterion 2


def test_criterion_02_skf_closed_vs_recursion():
    t0 = time.perf_counter()
    spec = RngSpec(20260826, 0)
    lens = np.random.default_rng(1).integers(1, 101, size=1000)
    worst = 0.0
    for k, n in enumerate(lens):
        sub = spec.stream(k)
        model = ModelSequence.random_loguniform(int(n), sub.stream(0),
                                                0.5, 2.0, True)
        traj = build_trajectory(model, 1.0, 1.0, sub)
        states = skf_run(traj, 0.3, 0.8)
        for i in (0, int(n) // 2, int(n)):
            c = skf_closed_form(traj, 0.3, 0.8, i)
            s = states[i]
            worst = max(worst,
                        abs(c.var_analysis - s.var_analysis) / s.var_analysis,
                        abs(c.mean_analysis - s.mean_analysis)
                        / max(abs(s.mean_analysis), 1e-12))
    assert worst <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(2, "closed form vs recursion",
            "worst rel err %.1e over 1000 sequences, %.2fs" % (worst, dt))


# ------------------------------------------------------------ criterion 3


def test_criterion_03_sqrt_e_variance_limit():
    m = math.sqrt(math.e)
    traj = build_trajectory(ModelSequence.constant(m, 60), 1.0, 1.0,
                            RngSpec(3, 0))
    limit = (math.e - 1.0) / math.e
    gap = abs(skf_closed_form(traj, 0.0, 1.0, 60).var_analysis - limit)
    assert gap <= 1e-6
    _report(3, "sqrt(e) model variance limit",
            "|p_a/r - (e-1)/e| = %.1e at step 60" % gap)


# ------------------------------------------------------------ criterion 4


def test_criterion_04_theta_saturates():
    worst = 0.0
    for alpha in (2.0, 5.0, 50.0):
        th = theta_step(alpha, 1e8, 1.0, 1.0)
        worst = max(worst, abs(th - theta_star(alpha)))
        assert abs(th - theta_star(alpha)) <= 1e-6
    # alpha = 1.5 approaches its asymptote only at O((r/(S p0))^(alpha-1));
    # at S p0/r = 1e8 the true distance to theta_star is 3.7596e-4, so the
    # 1e-6 target cannot hold there.  The implementation is pinned to the
    # 50-digit-arithmetic root instead; the gap itself is asserted as an
    # expected failure below.
    th15 = theta_step(1.5, 1e8, 1.0, 1.0)
    assert th15 == pytest.approx(2.9996240421950486, rel=1e-12)
    _report(4, "theta approaches alpha/(alpha-1)",
            "worst gap %.1e for alpha in {2, 5, 50}; alpha=1.5 exact to 1e-12"
            % worst)


@pytest.mark.xfail(strict=True,
                   reason="theta - theta_star decays as (r/(S p0))^(alpha-1); "
                          "at alpha=1.5, S p0/r=1e8 the exact gap is 3.76e-4, "
                          "so no implementation can meet 1e-6 here")
def test_criterion_04_alpha_1p5_gap_unattainable():
    th = theta_step(1.5, 1e8, 1.0, 1.0)
    assert abs(th - theta_star(1.5)) <= 1e-6


# ------------------------------------------------------------ criterion 5


def test_criterion_05_inflation_zeroes_dp():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(1.3, 60.0)
        p0 = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.5, 2.0)
        steps = int(rng.integers(1, 20))
        model = ModelSequence.random_loguniform(steps, RngSpec(7, steps),
                                                0.7, 1.5, True)
        traj = build_trajectory(model, 1.0, r, RngSpec(11, steps))
        i = int(rng.integers(0, steps + 1))
        theta = theta_step(alpha, 1.0 / traj.inv_S[i], p0, r)
        inp = PerturbedInputs(p0=p0, x0=0.0, p_tilde0=theta * p0,
                              x_tilde0=0.0, alpha=alpha, r=r)
        p_a = skf_closed_form(traj, 0.0, p0, i).var_analysis
        worst = max(worst, abs(expected_dp(traj, inp, i)) / p_a)
    assert worst <= 1e-10
    _report(5, "optimal inflation zeroes E[dp]",
            "worst |E[dp]|/p_a = %.1e over 20 tuples" % worst)


# ------------------------------------------------------------ criterion 6


def test_criterion_06_sequential_equals_one_shot():
    worst = 0.0
    for seed in (1, 2, 3):
        spec = RngSpec(seed, 0)
        model = ModelSequence.random_loguniform(10, spec.stream(1),
                                                0.6, 1.6, True)
        traj = build_trajectory(model, 1.0, 1.0, spec)
        sched = inflation_schedule(traj, 4.0, 1.0, 0.2)
        states = skf_run(traj, 0.2, 1.0, sched)
        for i, s in enumerate(states):
            one_shot = skf_closed_form(traj, 0.2, float(sched.theta[i]) * 1.0, i)
            worst = max(worst,
                        abs(s.var_analysis - one_shot.var_analysis)
                        / one_shot.var_analysis,
                        abs(s.mean_analysis - one_shot.mean_analysis)
                        / max(abs(one_shot.mean_analysis), 1e-12))
    assert worst <= 1e-10
    _report(6, "sequential schedule bootstraps one-shot",
            "worst per-step rel err %.1e" % worst)


# ------------------------------------------------------------ criterion 7


def test_criterion_07_schedule_bounds_property():
    rng = np.random.default_rng(7)
    checked = 0
    for k in range(10_000):
        alpha = rng.uniform(1.26, 50.0)
        p0 = rng.uniform(0.5, 2.0)
        r = rng.uniform(0.5, 2.0)
        steps = int(rng.integers(1, 7))
        spec = RngSpec(70_000 + k, 0)
        model = ModelSequence.random_loguniform(steps, spec.stream(1),
                                                0.7, 1.4, False)
        traj = build_trajectory(model, 1.0, r, spec)
        sched = inflation_schedule(traj, alpha, p0, 0.0)
        ts = theta_star(alpha)
        assert np.all(sched.phi >= 1.0 - 1e-12)
        assert np.all(sched.phi <= ts * (1.0 + 1e-12))
        assert np.all(sched.theta >= 1.0)
        assert np.all(sched.theta <= ts * (1.0 + 1e-12))
        assert np.all(np.diff(sched.theta) >= -1e-12 * ts)
        checked += 1
    _report(7, "inflation factor bounds", "%d randomized schedules" % checked)


# ------------------------------------------------------------ criterion 8


def _random_ratio_specs(count, rng, b_zero=False, alpha_lo=2.5):
    out = []
    while len(out) < count:
        alpha = rng.uniform(alpha_lo, 25.0)
        p = rng.uniform(0.2, 3.0)
        a = rng.uniform(0.1, 2.0)
        b = 0.0 if b_zero else rng.uniform(-1.0, 1.0)
        c = rng.uniform(0.1, 2.0)
        d = rng.uniform(0.1, 3.0)
        if abs(a * d - b * c) < 1e-3:
            continue
        out.append(GammaRatioSpec(alpha=alpha, p=p, a=a, b=b, c=c, d=d))
    return out


def _quad_moment(spec, k):
    lo, hi = sorted(ratio_support(spec))
    val, err = quad(lambda y: (y ** k) * ratio_pdf(spec, y), lo, hi,
                    limit=800, epsabs=1e-13, epsrel=1e-11)
    assert err < 1e-8 * max(abs(val), 1e-3)
    return val


def test_criterion_08_gamma_ratio_vs_quadrature():
    rng = np.random.default_rng(8)
    worst = 0.0
    for spec in _random_ratio_specs(20, rng):
        mass = _quad_moment(spec, 0)
        assert abs(mass - 1.0) <= 1e-8
        worst = max(worst,
                    abs(ratio_mean(spec) - _quad_moment(spec, 1))
                    / abs(_quad_moment(spec, 1)),
                    abs(ratio_second_moment(spec) - _quad_moment(spec, 2))
                    / abs(_quad_moment(spec, 2)))
    for spec in _random_ratio_specs(20, rng, b_zero=True, alpha_lo=4.5):
        q4 = _quad_moment(spec, 4)
        worst = max(worst, abs(ratio_fourth_moment(spec) - q4) / abs(q4))
    assert worst <= 1e-7
    _report(8, "gamma-ratio moments vs quadrature",
            "worst rel err %.1e over 40 specs" % worst)


# ------------------------------------------------------------ criterion 9


def test_criterion_09_mc_discrepancy_verification():
    t0 = time.perf_counter()
    traj = build_trajectory(ModelSequence.constant(1.0, 20), 1.0, 1.0,
                            RngSpec(9, 0))
    alpha = 4.0  # N = 8
    inputs = [
        PerturbedInputs(p0=1.0, x0=0.0, p_tilde0=1.0, x_tilde0=0.0,
                        alpha=alpha, r=1.0),
        PerturbedInputs(p0=1.0, x0=0.0, p_tilde0=1.4, x_tilde0=0.3,
                        alpha=alpha, r=1.0),
    ]
    worst = 0.0
    for inp in inputs:
        for i in (0, 3, 10, 20):
            mc = mc_discrepancy_moments(traj, inp, i, 100_000,
                                        RngSpec(90 + i, i))
            gaps = [
                abs(expected_dp(traj, inp, i) - mc.mean_dp) / mc.mean_dp_se,
                abs(second_moment_dp(traj, inp, i) - mc.mean_dp2) / mc.mean_dp2_se,
                abs(expected_dx(traj, inp, i) - mc.mean_dx) / mc.mean_dx_se,
                abs(second_moment_dx(traj, inp, i) - mc.mean_dx2) / mc.mean_dx2_se,
            ]
            worst = max(worst, max(gaps))
    assert worst <= 4.0
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(9, "MC discrepancy cross-check",
            "worst gap %.2f SE, %.2fs" % (worst, dt))


# ------------------------------------------------------------ criterion 10


def test_criterion_10_perturbed_observation_penalty():
    traj = build_trajectory(ModelSequence.constant(1.0, 8), 1.0, 2.0,
                            RngSpec(10, 0))
    rep = po_mean_identity_check(traj, 1.0, 10.0, 2.0, 5, 200_000,
                                 RngSpec(10, 1))
    # exact by construction: E[(R - r)^2] = r^2 / alpha
    assert abs(rep.second_R - 4.0 / 10.0) <= 4.0 * rep.second_R_se
    assert abs(rep.cov_cross) <= 4.0 * rep.cov_cross_se
    mean_rk = 2.0 * po_gain_mean(traj, 1.0, 10.0, 2.0, 5)
    assert abs(rep.mean_P - mean_rk) <= 4.0 * rep.mean_P_se
    pen10 = po_variance_penalty(traj, 1.0, 10.0, 2.0, 5)
    pen1000 = po_variance_penalty(traj, 1.0, 1000.0, 2.0, 5)
    ratio = pen10 / pen1000
    assert ratio > 50.0
    _report(10, "perturbed-observation penalty",
            "cov within %.2f SE of 0, penalty ratio %.0f"
            % (abs(rep.cov_cross) / rep.cov_cross_se, ratio))


# ------------------------------------------------------------ criterion 11


def test_criterion_11_multivariate_reduction():
    rng = np.random.default_rng(11)
    worst = 0.0
    for seed in (101, 202, 303):
        n, n_members = 3, 12
        Z = np.eye(n) + rng.uniform(-0.3, 0.3, size=(n, n))
        mult = rng.uniform(0.6, 1.6, size=(6, n)) * rng.choice([-1.0, 1.0],
                                                               size=(6, n))
        model = DiagonalizableModel(Z=Z, multipliers=mult,
                                    p0_diag=rng.uniform(0.5, 2.0, n),
                                    r_diag=rng.uniform(0.5, 2.0, n))
        x0 = rng.uniform(-1.0, 1.0, n)
        spec = RngSpec(seed, 0)
        result = mv_spenkf_run(model, x0, n_members, spec)
        x0_basis = np.linalg.solve(Z, x0)
        scalar_means = np.empty_like(result.means_basis)
        for j in range(n):
            traj = build_trajectory(ModelSequence(mult[:, j]), x0_basis[j],
                                    model.r_diag[j], spec.stream(2 * j))
            a0 = result.initial_anomalies[j]
            init = EnsembleState(step=0, phase="forecast", mean=x0_basis[j],
                                 anomalies=a0,
                                 sampled_var=float(np.dot(a0, a0) / len(a0)))
            scalar_means[:, j] = [s.mean for s in spenkf_run(traj, init)]
        ref = scalar_means @ Z.T
        scale = np.maximum(np.abs(ref), 1e-12)
        worst = max(worst, float(np.max(np.abs(result.means - ref) / scale)))
        worst = max(worst, float(np.max(
            np.abs(result.means_basis - scalar_means)
            / np.maximum(np.abs(scalar_means), 1e-12))))
    assert worst <= 1e-10
    _report(11, "multivariate reduction",
            "worst rel err %.1e vs mapped scalar runs" % worst)


# ------------------------------------------------------------ criterion 12


def test_criterion_12_ensemble_size_degeneration():
    traj = build_trajectory(ModelSequence.constant(1.0, 10), 1.0, 1.0,
                            RngSpec(12, 0))
    i = 6
    p_a = skf_closed_form(traj, 0.0, 1.0, i).var_analysis
    means, variances = [], []
    for k, n_members in enumerate((8, 32, 128, 512)):
        inp = PerturbedInputs(p0=1.0, x0=0.0, p_tilde0=1.0, x_tilde0=0.0,
                              alpha=0.5 * n_members, r=1.0)
        mc = mc_discrepancy_moments(traj, inp, i, 400_000, RngSpec(120, k))
        means.append(abs(mc.mean_dp))
        variances.append(mc.var_dp)
    assert all(a > b for a, b in zip(means, means[1:]))
    assert all(a > b for a, b in zip(variances, variances[1:]))
    assert means[-1] <= 1e-2 * p_a
    assert variances[-1] <= 1e-2 * p_a
    _report(12, "large-ensemble degeneration",
            "|E[dp]| %.1e and Var[dp] %.1e at N=512 (1e-2 p_a = %.1e)"
            % (means[-1], variances[-1], 1e-2 * p_a))


# ------------------------------------------------------------ criterion 13


def test_criterion_13_mc_verify_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 13, "steps": 3, "replicates": 5000,
                               "ensemble_size": 16}), encoding="utf-8")
    blobs = []
    for name in ("a.csv", "b.csv", "c.csv"):
        dest = tmp_path / name
        threads = "3" if name == "c.csv" else "1"
        code = main(["mc-verify", "--config", str(cfg), "--out", str(dest),
                     "--threads", threads])
        capsys.readouterr()
        assert code in (0, 1)
        blobs.append(dest.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _report(13, "determinism",
            "mc-verify CSV byte-identical across reruns and thread counts")
