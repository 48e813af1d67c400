import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from filterlab import (
    DomainError,
    EnsembleState,
    PerturbedInputs,
    RngSpec,
    TrajectoryRangeError,
    expected_dp,
    inflation_schedule,
    sample_initial_ensemble,
    skf_closed_form,
    skf_run,
    spenkf_analyze,
    spenkf_forecast,
    spenkf_run,
    theta_star,
    theta_step,
)
from conftest import make_trajectory


def test_initial_ensemble_basics():
    ens = sample_initial_ensemble(8, 2.0, 3.0, RngSpec(11, 0))
    assert ens.phase == "forecast"
    assert ens.mean == 3.0
    assert len(ens.anomalies) == 8
    assert ens.sampled_var == pytest.approx(
        float(np.dot(ens.anomalies, ens.anomalies)) / 8.0, rel=1e-15)
    with pytest.raises(ValueError):
        sample_initial_ensemble(2, 1.0, 0.0, RngSpec(1, 0))
    with pytest.raises(ValueError):
        sample_initial_ensemble(8, 0.0, 0.0, RngSpec(1, 0))


def test_initial_ensemble_rejects_degenerate(monkeypatch):
    import filterlab.spenkf as mod
    monkeypatch.setattr(mod, "normal_polar", lambda gen, n: np.zeros(n))
    with pytest.raises(ValueError, match="degenerate"):
        sample_initial_ensemble(8, 1.0, 0.0, RngSpec(1, 0))


@pytest.mark.parametrize("step,a,param,value", [(0, 1e-152, "phat0", "1e-304"),
                                                (2, 1e200, "model", "inf")])
def test_forecast_state_names_the_input_at_fault(step, a, param, value):
    # (1/N) a.a underflows below, or overflows, what an analysis accepts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrajectoryRangeError,
                           match=r"^%s: step %d: the sampled forecast variance %s leaves "
                                 r"\[1e-300, inf\): degenerate" % (param, step, value)):
            EnsembleState.forecast(step, 0.0, np.full(8, a))


def test_initial_sampled_variance_law():
    # phat0 = (1/N) a.a with i.i.d. N(0, p0) anomalies is a Gamma variable
    # with mean p0 and variance p0^2/alpha, alpha = N/2
    n, p0, reps = 8, 1.7, 30_000
    vals = np.empty(reps)
    for k in range(reps):
        vals[k] = sample_initial_ensemble(n, p0, 0.0, RngSpec(500, k)).sampled_var
    alpha = n / 2.0
    mean_se = math.sqrt(np.var(vals) / reps)
    assert abs(np.mean(vals) - p0) < 4.0 * mean_se
    m2 = (vals - np.mean(vals)) ** 2
    var_se = math.sqrt(np.var(m2) / reps)
    assert abs(np.var(vals) - p0 * p0 / alpha) < 4.0 * var_se


def test_analysis_variance_identity():
    # after the anomaly rescaling, the sampled variance equals (1-k)*pf
    # by construction, not just in expectation
    ens = sample_initial_ensemble(16, 1.0, 0.0, RngSpec(7, 0))
    pf = ens.sampled_var
    ana = spenkf_analyze(ens, 0.37, 2.0)
    k = pf / (pf + 2.0)
    assert ana.gain == pytest.approx(k, rel=1e-15)
    assert ana.sampled_var == pytest.approx((1.0 - k) * pf, rel=1e-14)
    assert ana.mean == pytest.approx(k * 0.37, rel=1e-14)
    with pytest.raises(ValueError, match="forecast"):
        spenkf_analyze(ana, 0.0, 1.0)
    with pytest.raises(ValueError, match="analysis"):
        spenkf_forecast(ens, 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        spenkf_forecast(ana, 0.0)


def test_matches_skf_when_variance_forced():
    # N -> infinity surrogate: alternating +-sqrt(p0) anomalies make the
    # sampled variance exactly p0, and the run collapses onto the SKF
    traj = make_trajectory(91, 30)
    p0, x0 = 1.3, 0.4
    anoms = math.sqrt(p0) * np.array([1.0, -1.0] * 4)
    ens = EnsembleState(step=0, phase="forecast", mean=x0,
                        anomalies=anoms, sampled_var=p0)
    states = spenkf_run(traj, ens)
    ref = skf_run(traj, x0, p0)
    for got, want in zip(states, ref):
        assert got.mean == pytest.approx(want.mean_analysis, rel=1e-12)
        assert got.sampled_var == pytest.approx(want.var_analysis, rel=1e-12)


def test_matches_skf_closed_form_with_sampled_variance():
    # the ensemble run is the exact recursion driven by the realized phat0
    for seed in (1, 2, 3):
        traj = make_trajectory(seed, 40)
        ens = sample_initial_ensemble(8, 0.9, -0.2, RngSpec(seed, 5))
        phat0 = ens.sampled_var
        states = spenkf_run(traj, ens)
        r = traj.obs_variance
        for i in (0, 7, 25, 40):
            ref = skf_closed_form(traj, -0.2, phat0, i)
            assert states[i].mean == pytest.approx(ref.mean_analysis, rel=1e-10)
            assert states[i].sampled_var == pytest.approx(
                ref.var_analysis, rel=1e-10)
            # gain closed form: pa = r M^2 phat0 / (S phat0 + r), ratio-safe
            pa = r * traj.M2_over_S[i] * phat0 / (phat0 + r * traj.inv_S[i])
            assert states[i].sampled_var == pytest.approx(pa, rel=1e-10)


@pytest.mark.parametrize("m,value", [(1e200, "inf"), (1e-200, "0")])
def test_run_stops_where_the_forecast_variance_leaves_range(m, value):
    # the truth M_i x0 stays a double, the sampled forecast variance does not
    traj = make_trajectory(3, 2, kind=[m, 1.0 / m])
    init = sample_initial_ensemble(8, 1.0, 0.0, RngSpec(3, 1))
    with pytest.raises(TrajectoryRangeError,
                       match=r"^model: step 1: the sampled forecast variance %s " % value):
        spenkf_run(traj, init)


def test_run_with_tiny_r_matches_the_closed_form():
    # r/phat0 = 1e-17: the analysis variance k r must not round to 0
    traj = make_trajectory(1, 30, r=1e-17)
    ens = sample_initial_ensemble(8, 1.0, 0.3, RngSpec(1, 5))
    for i, s in enumerate(spenkf_run(traj, ens)):
        ref = skf_closed_form(traj, 0.3, ens.sampled_var, i)
        assert s.sampled_var == pytest.approx(ref.var_analysis, rel=1e-13, abs=0.0)
        assert s.mean == pytest.approx(ref.mean_analysis, rel=1e-13, abs=0.0)


def test_run_names_r_when_it_is_below_the_variance_floor():
    # every analysis variance is below r = 1e-320, so the first forecast
    # variance falls under 1e-300 whatever the model
    traj = make_trajectory(1, 3, r=1e-320, kind="constant")
    init = sample_initial_ensemble(8, 1.0, 0.0, RngSpec(1, 5))
    with pytest.raises(TrajectoryRangeError,
                       match=r"^obs_variance: step 1: the sampled forecast variance "):
        spenkf_run(traj, init)


def test_theta_star_values():
    assert theta_star(5.0) == 1.25
    assert theta_star(2.0) == 2.0
    assert abs(theta_star(1e6) - 1.0) < 1e-5
    with pytest.raises(ValueError):
        theta_star(1.0)


def test_theta_step_saturates_to_theta_star():
    # convergence rate is O(z^(alpha-1)), z ~ r/(S p0): exponential in the
    # gap only once alpha - 1 is comfortably above 0
    for alpha in (2.0, 5.0, 50.0):
        th = theta_step(alpha, 1e8, 1.0, 1.0)
        assert abs(th - theta_star(alpha)) < 1e-6 * theta_star(alpha)
    # at alpha = 1.5 the z^0.5 branch point slows the approach: the exact
    # value at S = 1e8 still differs from theta_star by 3.76e-4
    # (50-digit quadrature root)
    th = theta_step(1.5, 1e8, 1.0, 1.0)
    assert th == pytest.approx(2.9996240421950486, rel=1e-12)


def test_theta_step_matches_direct_root():
    # theta_i should zero the expected analysis-variance discrepancy when
    # the initial variance is inflated to theta_i * p0
    traj = make_trajectory(0, 5, kind="constant", m=1.0)  # S_i = i + 1
    alpha, p0, r, i = 4.0, 1.0, 1.0, 2  # S_2 = 3
    th = theta_step(alpha, 3.0, p0, r)

    def gap(theta):
        inp = PerturbedInputs(p0=p0, x0=0.0, p_tilde0=theta * p0,
                              x_tilde0=0.0, alpha=alpha, r=r)
        return expected_dp(traj, inp, i)

    root = brentq(gap, 1.0, theta_star(alpha), xtol=1e-13, rtol=1e-13)
    assert th == pytest.approx(root, rel=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p0,r,p0_small,r_small", [
    (1e308, 1e308, 1.0, 1.0),  # alpha (p0 + r / S_i) overflows on both
    (1e308, 1e300, 1e8, 1.0),  # on p0, with r / S_i not negligible
])
def test_theta_depends_on_r_over_s_p0_alone_where_the_shift_overflows(p0, r, p0_small, r_small):
    for alpha in (1.5, 8.0, 512.5):
        assert theta_step(alpha, 1.0, p0, r) == pytest.approx(
            theta_step(alpha, 1.0, p0_small, r_small), rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_shift_is_the_limit_on_p0_and_refused_on_r_over_s():
    # on p0 with r / (S_i p0) below the normal range: the r / S_i -> 0 limit
    assert theta_step(8.0, 1.0, 1.7e308, 1e-8) == theta_star(8.0)
    # on r / S_i: the shift rounds to 1/alpha and theta has no root
    with pytest.raises(DomainError, match="requires 0 <= delta < 1/alpha"):
        theta_step(8.0, 1.0, 1.0, 1e308)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p0,r", [(1e300, 1e-9), (1e305, 1e-4)])
def test_a_subnormal_shift_is_the_limit_where_nothing_overflows(p0, r):
    # alpha (p0 + r / S_i) is finite, but the shift r / (alpha S_i (p0 + u))
    # is subnormal, so it has lost digits; the exact theta rounds to theta_star
    assert theta_step(8.0, 1.0, p0, r) == theta_star(8.0)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1.1, 200.0), s=st.floats(1.0, 1e6),
       p0=st.floats(1e-3, 1e3), r=st.floats(1e-3, 1e3))
def test_theta_step_bounds(alpha, s, p0, r):
    # alpha*r/(S*p0) beyond ~700 saturates the inverse by design
    assume(alpha * r / (s * p0) < 600.0)
    th = theta_step(alpha, s, p0, r)
    assert 1.0 <= th * (1 + 1e-12)
    assert th <= theta_star(alpha) * (1 + 1e-12)


def test_schedule_monotone_and_bounded():
    for seed, alpha in ((3, 1.5), (4, 4.0), (5, 30.0)):
        traj = make_trajectory(seed, 50, low=1.0, high=2.0, signed=False)
        sched = inflation_schedule(traj, alpha, 0.8, 0.0)
        ts = theta_star(alpha)
        assert np.all(sched.theta >= 1.0 - 1e-12)
        assert np.all(sched.theta <= ts * (1 + 1e-12))
        # S_i strictly increases, so theta_i does too
        assert np.all(np.diff(sched.theta) >= -1e-12)
        assert np.all(sched.phi >= 1.0 - 1e-12)
        assert np.all(sched.phi <= ts * (1 + 1e-12))


def test_schedule_equal_thetas_give_identity_corrections(monkeypatch):
    # when consecutive theta values coincide, the sequential correction is
    # the identity: phi = 1 and psi = 0
    import filterlab.spenkf as mod
    monkeypatch.setattr(mod, "_thetas",
                        lambda a, p, u, inverse: np.full_like(u, 1.4))
    traj = make_trajectory(9, 10)
    sched = inflation_schedule(traj, 4.0, 1.0, 0.0)
    assert np.all(sched.theta == 1.4)
    assert sched.phi[0] == 1.4
    np.testing.assert_allclose(sched.phi[1:], 1.0, rtol=0, atol=0)
    np.testing.assert_allclose(sched.psi, 0.0, rtol=0, atol=0)


def test_schedule_matches_per_step_scalar_entry():
    # the schedule solves every step in one array pass; each theta must
    # match the scalar entry solving that step alone
    traj = make_trajectory(17, 1000, low=0.5, high=2.0)
    for alpha, p0 in ((1.26, 0.7), (4.5, 1.3), (16.5, 1.0), (256.0, 2.0)):
        sched = inflation_schedule(traj, alpha, p0, 0.0)
        single = np.array([theta_step(alpha, 1.0 / traj.inv_S[i], p0,
                                      traj.obs_variance)
                           for i in range(traj.n_steps + 1)])
        np.testing.assert_allclose(sched.theta, single, rtol=1e-12, atol=0)


def test_sequential_equals_initial_theta_run():
    # per-step bootstrap: the sequentially inflated run at step i equals an
    # uninflated run whose initial anomalies were scaled by sqrt(theta_i)
    # the phi/psi factors are derived for a run whose pre-inflation initial
    # variance is exactly p0, so force the sampled variance to p0
    traj = make_trajectory(12, 10, kind="constant", m=1.0)
    p0, x0, alpha = 1.0, traj.truth[0], 4.0
    anoms = math.sqrt(p0) * np.array([1.0, -1.0] * 4)
    ens = EnsembleState(step=0, phase="forecast", mean=x0,
                        anomalies=anoms, sampled_var=p0)
    sched = inflation_schedule(traj, alpha, p0, x0)
    seq = spenkf_run(traj, ens, inflation=sched)
    for i in range(11):
        scaled = ens.anomalies * math.sqrt(sched.theta[i])
        ens_i = EnsembleState(step=0, phase="forecast", mean=x0,
                              anomalies=scaled,
                              sampled_var=float(np.dot(scaled, scaled)) / 8.0)
        ref = spenkf_run(traj, ens_i)
        assert seq[i].mean == pytest.approx(ref[i].mean, rel=1e-10)
        assert seq[i].sampled_var == pytest.approx(ref[i].sampled_var,
                                                   rel=1e-10)


def test_reference_run_reproduces_ensemble():
    # the deterministic recursion fed the sampled (x0, phat0) tracks the
    # inflated ensemble exactly
    traj = make_trajectory(21, 15)
    p0, x0 = 0.7, traj.truth[0]
    ens = sample_initial_ensemble(16, p0, x0, RngSpec(21, 9))
    sched = inflation_schedule(traj, 8.0, p0, x0)
    states = spenkf_run(traj, ens, inflation=sched)
    ref = skf_run(traj, x0, ens.sampled_var, sched)
    means = np.array([s.mean_analysis for s in ref])
    variances = np.array([s.var_analysis for s in ref])
    got_m = np.array([s.mean for s in states])
    got_v = np.array([s.sampled_var for s in states])
    np.testing.assert_allclose(got_m, means, rtol=1e-12)
    np.testing.assert_allclose(got_v, variances, rtol=1e-12)


def test_inflation_efficacy_monte_carlo():
    # with the schedule applied, the expected analysis variance and mean
    # match the exact filter; verified through the closed forms driven by
    # Gamma draws of phat0 (an exact surrogate for full ensemble runs,
    # per test_matches_skf_closed_form_with_sampled_variance)
    traj = make_trajectory(33, 12, kind="constant", m=1.0)
    p0, r, n = 1.0, traj.obs_variance, 8
    alpha = n / 2.0
    x0 = traj.truth[0]
    sched = inflation_schedule(traj, alpha, p0, x0)
    rng = np.random.default_rng(33)
    reps = 200_000
    phat0 = rng.gamma(alpha, p0 / alpha, size=reps)
    for i in (0, 5, 12):
        th = sched.theta[i]
        u = r * traj.inv_S[i]
        # constant m = 1: M_i B_i / S_i reduces to B_i / S_i
        mbs = traj.B_over_S[i]
        pa_hat = r * traj.M2_over_S[i] * th * phat0 / (th * phat0 + u)
        xa_hat = ((th * phat0 * mbs + traj.M_over_S[i] * r * x0)
                  / (th * phat0 + u))
        ref = skf_closed_form(traj, x0, p0, i)
        se_p = math.sqrt(np.var(pa_hat) / reps)
        se_x = math.sqrt(np.var(xa_hat) / reps)
        assert abs(np.mean(pa_hat) - ref.var_analysis) < 4.0 * se_p
        assert abs(np.mean(xa_hat) - ref.mean_analysis) < 4.0 * se_x
