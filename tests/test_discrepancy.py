import math
import tracemalloc

import numpy as np
import pytest

from filterlab import (
    PerturbedInputs,
    RngSpec,
    expected_dp,
    expected_dx,
    mc_discrepancy_moments,
    po_mean_identity_check,
    po_variance_penalty,
    second_moment_dp,
    second_moment_dx,
    skf_closed_form,
)
from filterlab.discrepancy import dp_spec, dx_spec, po_gain_spec, sample_moments
from conftest import (VAR_SE_RTOL, make_trajectory, reference_mean_se,
                      reference_var_se)


def base_inputs(**kw):
    args = dict(p0=1.0, x0=0.0, p_tilde0=1.0, x_tilde0=0.0, alpha=4.0, r=1.0)
    args.update(kw)
    return PerturbedInputs(**args)


def test_inputs_validation():
    with pytest.raises(ValueError, match="positive"):
        base_inputs(p0=0.0)
    with pytest.raises(ValueError, match="positive"):
        base_inputs(p_tilde0=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        base_inputs(alpha=1.0)


def test_moments_match_monte_carlo():
    # independent oracle: library gamma draws through both filters' closed
    # analysis forms
    for seed, steps, alpha in ((7, 10, 4.0), (8, 25, 3.0), (9, 40, 10.0)):
        traj = make_trajectory(seed, steps)
        inp = base_inputs(alpha=alpha, p_tilde0=1.4, x_tilde0=0.3, x0=0.1)
        i = steps // 2
        mc = mc_discrepancy_moments(traj, inp, i, 400_000, RngSpec(seed, 2))
        assert abs(mc.mean_dp - expected_dp(traj, inp, i)) < 4 * mc.mean_dp_se
        assert abs(mc.mean_dp2 - second_moment_dp(traj, inp, i)) \
            < 4 * mc.mean_dp2_se
        assert abs(mc.mean_dx - expected_dx(traj, inp, i)) < 4 * mc.mean_dx_se
        assert abs(mc.mean_dx2 - second_moment_dx(traj, inp, i)) \
            < 4 * mc.mean_dx2_se


@pytest.mark.parametrize("n", [100_000, 300_000])
def test_mc_moments_match_reference_formulas(n):
    # the same draws through the kernel's first expressions and numpy's own
    # mean/std/var: every field bit for bit but the two variance SEs
    traj = make_trajectory(7, 20)
    inp = base_inputs(alpha=4.0, p_tilde0=1.4, x_tilde0=0.3, x0=0.1)
    i, spec = 12, RngSpec(7, 12)
    mc = mc_discrepancy_moments(traj, inp, i, n, spec)
    x = spec.generator().gamma(inp.alpha, inp.p_tilde0 / inp.alpha, n)
    u = inp.r * traj.inv_S(i)
    m2s, ms, mbs, r = traj.M2_over_S(i), traj.M_over_S(i), traj.MB_over_S(i), inp.r
    dp = r * x * m2s / (x + u) - r * inp.p0 * m2s / (inp.p0 + u)
    dx = ((x * mbs + ms * r * inp.x_tilde0) / (x + u)
          - (inp.p0 * mbs + ms * r * inp.x0) / (inp.p0 + u))
    assert (mc.mean_dp, mc.mean_dp_se) == reference_mean_se(dp)
    assert (mc.mean_dp2, mc.mean_dp2_se) == reference_mean_se(dp * dp)
    assert (mc.mean_dx, mc.mean_dx_se) == reference_mean_se(dx)
    assert (mc.mean_dx2, mc.mean_dx2_se) == reference_mean_se(dx * dx)
    for v, var, var_se in ((dp, mc.var_dp, mc.var_dp_se), (dx, mc.var_dx, mc.var_dx_se)):
        want, want_se = reference_var_se(v)
        assert var == want
        assert var_se == pytest.approx(want_se, rel=VAR_SE_RTOL, abs=0.0)
    assert mc.replicates == n


@pytest.mark.parametrize("n", [100_000, 300_000])
def test_po_report_matches_reference_formulas(n):
    traj = make_trajectory(8, 20)
    p0, alpha, r, i, spec = 1.3, 10.0, 2.0, 9, RngSpec(8, 9)
    rep = po_mean_identity_check(traj, p0, alpha, r, i, n, spec)
    gen = spec.generator()
    x = gen.gamma(alpha, p0 / alpha, n)
    rr = gen.gamma(alpha, r / alpha, n)
    gs = po_gain_spec(traj, p0, alpha, r, i)
    k = gs.a * x / (gs.c * x + gs.d)
    a_term = r * k
    b_term = k * k * (rr - r)
    assert (rep.mean_P, rep.mean_P_se) == reference_mean_se(r * k + k * k * (rr - r))
    assert (rep.second_R, rep.second_R_se) == reference_mean_se((rr - r) ** 2)
    prod = (a_term - np.mean(a_term)) * (b_term - np.mean(b_term))
    assert (rep.cov_cross, rep.cov_cross_se) == reference_mean_se(prod)
    assert rep.replicates == n


@pytest.mark.parametrize("fourth", [False, True])
def test_sample_moments_in_place_matches_a_copy(fourth):
    v = np.random.default_rng(3).gamma(4.0, 0.25, 10_001)
    want = [x.hex() for x in sample_moments(v.copy(), fourth)]
    scratch = np.empty_like(v)
    kept = v.copy()
    assert [x.hex() for x in sample_moments(v, fourth, out=scratch)] == want
    assert np.array_equal(v, kept)
    assert [x.hex() for x in sample_moments(v, fourth, out=v)] == want


def _peak_bytes(call):
    call()  # warm: the trajectory's ratios and every first-call allocation
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel,arrays", [("mc", 3), ("po", 4)])
def test_monte_carlo_kernels_peak_at_their_live_buffers(kernel, arrays):
    # one replicate-sized buffer per live quantity (see the discrepancy
    # module docstring); a fresh array per arithmetic step peaked at 6 and 8
    n = 100_000
    traj = make_trajectory(7, 20)
    if kernel == "mc":
        inp = base_inputs(alpha=4.0, p_tilde0=1.4, x_tilde0=0.3, x0=0.1)
        peak = _peak_bytes(lambda: mc_discrepancy_moments(traj, inp, 12, n, RngSpec(7, 12)))
    else:
        peak = _peak_bytes(lambda: po_mean_identity_check(traj, 1.3, 10.0, 2.0, 9, n,
                                                          RngSpec(8, 9)))
    assert peak <= arrays * 8 * n + 64 * 1024


def test_constant_sample_is_told_from_an_underflowed_variance():
    # m = 2: r/S_39 is about 1e-23 of X, so X/(X + u) rounds to 1 and every
    # replicate of dx (and dx^2) is the same double
    inp = base_inputs()
    mc = mc_discrepancy_moments(make_trajectory(1, 40, kind="constant", m=2.0), inp,
                                39, 2000, RngSpec(1, 39))
    assert (mc.mean_dx_se, mc.mean_dx2_se) == (0.0, 0.0)
    assert mc.constant == ("mean_dx", "mean_dx2")
    # m = 0.3: dp^2 decays until its squared deviations underflow, though
    # its replicates differ
    mc = mc_discrepancy_moments(make_trajectory(1, 80, kind="constant", m=0.3),
                                base_inputs(alpha=8.0), 77, 2000, RngSpec(1, 77))
    assert mc.mean_dp2_se == 0.0
    assert mc.constant == ()


def test_variance_nonnegative():
    rng = np.random.default_rng(55)
    traj = make_trajectory(55, 30)
    for _ in range(50):
        inp = base_inputs(alpha=rng.uniform(2.5, 40.0),
                          p0=rng.uniform(0.2, 3.0),
                          p_tilde0=rng.uniform(0.2, 3.0),
                          x0=rng.uniform(-1, 1), x_tilde0=rng.uniform(-1, 1))
        i = int(rng.integers(0, 31))
        vp = second_moment_dp(traj, inp, i) - expected_dp(traj, inp, i) ** 2
        vx = second_moment_dx(traj, inp, i) - expected_dx(traj, inp, i) ** 2
        assert vp >= -1e-12
        assert vx >= -1e-12


def test_dp_vanishes_at_large_alpha():
    traj = make_trajectory(3, 10)
    i = 5
    inp = base_inputs(alpha=1e6)
    pa = skf_closed_form(traj, 0.0, 1.0, i).var_analysis
    assert abs(expected_dp(traj, inp, i)) <= 1e-4 * pa
    # matched means: dx also vanishes
    assert abs(expected_dx(traj, inp, i)) <= 1e-4 * max(abs(pa), 1.0)


def test_discrepancy_decays_for_stable_models():
    # |m| <= 1: both discrepancy moments sink below 1e-3 * p0^2 by i = 200
    for m in (1.0, 0.8, -0.95):
        traj = make_trajectory(41, 200, kind="constant", m=m)
        inp = base_inputs(p_tilde0=1.5, alpha=4.0)
        assert abs(expected_dp(traj, inp, 200)) < 1e-3
        assert second_moment_dp(traj, inp, 200) < 1e-3


def test_dx_exceedance_probability_decays():
    # P(|dx_i| > eps) shrinks with i for a constant model
    traj = make_trajectory(62, 200, kind="constant", m=1.0)
    inp = base_inputs(p_tilde0=2.0, x_tilde0=0.5, alpha=3.0)
    rng = np.random.default_rng(62)
    x = rng.gamma(inp.alpha, inp.p_tilde0 / inp.alpha, 200_000)
    probs = []
    for i in (2, 20, 200):
        u = inp.r * traj.inv_S(i)
        mbs = traj.MB_over_S(i)
        ms = traj.M_over_S(i)
        xa_exact = (inp.p0 * mbs + ms * inp.r * inp.x0) / (inp.p0 + u)
        xa_hat = (x * mbs + ms * inp.r * inp.x_tilde0) / (x + u)
        probs.append(np.mean(np.abs(xa_hat - xa_exact) > 0.05))
    assert probs[0] > probs[1] > probs[2]


def test_dx_degenerate_branch():
    # when B_i/S_i equals x_tilde0 the ratio collapses to a constant
    traj = make_trajectory(5, 8)
    i = 4
    inp = base_inputs(x_tilde0=traj.B_over_S(i), x0=-0.7)
    with pytest.raises(ValueError, match="constant"):
        dx_spec(traj, inp, i)
    const = expected_dx(traj, inp, i)
    assert second_moment_dx(traj, inp, i) == pytest.approx(const * const,
                                                           rel=1e-14)
    u = inp.r * traj.inv_S(i)
    want = inp.r * traj.M_over_S(i) * (traj.B_over_S(i) - inp.x0) \
        / (inp.p0 + u)
    assert const == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_dx_degenerate_at_every_step(seed):
    # B_i/S_i == x_tilde0 must be caught directly: the rounded a*d and b*c
    # of the spec need not come out equal
    traj = make_trajectory(seed, 50)
    for i in range(traj.n_steps + 1):
        inp = base_inputs(x_tilde0=traj.B_over_S(i), x0=-0.7)
        with pytest.raises(ValueError, match="constant"):
            dx_spec(traj, inp, i)
        const = expected_dx(traj, inp, i)
        assert second_moment_dx(traj, inp, i) == const * const


def test_specs_are_well_scaled_for_unstable_models():
    # |m| up to 2 over 300 steps: raw M, S overflow but the assembled
    # ratio-spec coefficients stay finite and the moments evaluate
    traj = make_trajectory(77, 300, low=1.2, high=2.0, signed=False)
    inp = base_inputs(alpha=5.0, p_tilde0=1.3)
    for i in (150, 300):
        sp = dp_spec(traj, inp, i)
        for v in (sp.a, sp.b, sp.c, sp.d):
            assert math.isfinite(v)
        assert math.isfinite(expected_dp(traj, inp, i))
        assert math.isfinite(second_moment_dp(traj, inp, i))


def test_po_penalty_examples():
    traj = make_trajectory(1, 10, kind="constant", m=1.0)
    # E[(R-r)^2] = r^2/alpha exactly: r=2, alpha=4 -> 1.0
    rep = po_mean_identity_check(traj, 1.0, 4.0, 2.0, 5, 100_000,
                                 RngSpec(10, 0))
    assert rep.exact_second_R == 1.0
    assert abs(rep.second_R - 1.0) < 4.0 * rep.second_R_se
    # mean identity and zero covariance
    assert abs(rep.mean_P - rep.analytic_mean_rK) < 4.0 * rep.mean_P_se
    assert abs(rep.cov_cross) < 4.0 * rep.cov_cross_se
    # alpha = 4 sits on the fourth-moment order boundary
    assert math.isnan(rep.penalty)
    rep2 = po_mean_identity_check(traj, 1.0, 6.0, 2.0, 5, 50_000,
                                  RngSpec(10, 1))
    assert rep2.penalty > 0.0


def test_po_penalty_matches_monte_carlo():
    traj = make_trajectory(2, 12, kind="constant", m=1.0)
    p0, alpha, r, i = 1.0, 6.0, 1.0, 4
    rng = np.random.default_rng(17)
    n = 1_000_000
    x = rng.gamma(alpha, p0 / alpha, n)
    rr = rng.gamma(alpha, r / alpha, n)
    gs = po_gain_spec(traj, p0, alpha, r, i)
    k = gs.a * x / (gs.c * x + gs.d)
    term = k * k * (rr - r)
    est = np.var(term)
    se = math.sqrt(np.var((term - np.mean(term)) ** 2) / n)
    want = po_variance_penalty(traj, p0, alpha, r, i)
    # Var(K^2 (R-r)) = E[K^4] r^2/alpha since E[R-r] = 0 and K, R independent
    assert abs(est - want) < 4.0 * se


def test_po_penalty_shrinks_with_alpha():
    traj = make_trajectory(4, 10, kind="constant", m=1.0)
    p10 = po_variance_penalty(traj, 1.0, 10.0, 1.0, 5)
    p1000 = po_variance_penalty(traj, 1.0, 1000.0, 1.0, 5)
    assert p10 / p1000 > 50.0


def test_po_degenerate_noise_is_exact():
    # r_hat identically r: the perturbation term is exactly zero and the
    # update reduces to r*K per draw
    traj = make_trajectory(6, 8, kind="constant", m=1.0)
    gs = po_gain_spec(traj, 1.0, 4.0, 1.0, 3)
    x = np.random.default_rng(3).gamma(4.0, 0.25, 1000)
    k = gs.a * x / (gs.c * x + gs.d)
    p_var = 1.0 * k + k * k * (1.0 - 1.0)
    np.testing.assert_array_equal(p_var, k)
