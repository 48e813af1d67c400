import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab import (
    ModelSequence,
    RngSpec,
    TrajectoryRangeError,
    build_trajectory,
    inflation_schedule,
    skf_closed_form,
    skf_run,
    skf_start,
    skf_step,
)
from filterlab.rng import normal_polar
from filterlab.skf import skf_error_moments
from conftest import MC_RTOL, make_trajectory, reference_mean_se, reference_var_se


def test_first_analysis():
    s = skf_start(x0=0.0, p0=1.0, y0=1.0, r=1.0)
    assert s.gain == 0.5
    assert s.mean_analysis == 0.5
    assert s.var_analysis == 0.5


def test_constant_model_fourth_analysis():
    # m = 1, p0 = r = 1: p_i^a = 1/(i+2), so the 4th analysis gives 1/5
    s = skf_start(0.0, 1.0, 1.0, 1.0)
    for _ in range(3):
        s = skf_step(s, 1.0, 0.0, 1.0)
    assert s.var_analysis == pytest.approx(0.2, rel=1e-14)
    assert s.gain == pytest.approx(0.2, rel=1e-14)


def test_zero_innovation_keeps_mean():
    s = skf_start(0.0, 1.0, 1.0, 1.0)
    s2 = skf_step(s, 2.0, 2.0 * s.mean_analysis, 1.0)
    assert s2.mean_analysis == s2.mean_forecast


def test_rejects_zero_multiplier():
    s = skf_start(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        skf_step(s, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("inflated", [False, True])
def test_run_stops_where_the_forecast_variance_leaves_range(inflated):
    # the ratio ledger and the schedule stay finite, m_0^2 p_a phi_1 does not
    traj = make_trajectory(3, 2, kind=[1e200, 1e-200])
    sched = inflation_schedule(traj, 4.0, 1.0, 0.0) if inflated else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrajectoryRangeError,
                           match=r"^model: step 1: the forecast variance "):
            skf_run(traj, 0.0, 1.0, sched)


@pytest.mark.parametrize("r,param", [(1e-320, "obs_variance"), (1.0, "model")])
def test_run_names_the_input_behind_a_forecast_variance_under_the_floor(r, param):
    # p_a < r, so with r under 1e-300 the first forecast variance is too,
    # whatever the model; with r = 1 a multiplier of 1e-160 takes it there
    traj = make_trajectory(1, 3, r=r, kind=[1.0 if r < 1.0 else 1e-160, 1.0, 1.0])
    with pytest.raises(TrajectoryRangeError,
                       match=r"^%s: step 1: the forecast variance " % param):
        skf_run(traj, 0.0, 1.0)


@pytest.mark.parametrize("p0,shown", [(1e-305, "1e-305"), (0.0, "0"), (math.inf, "inf"),
                                      (math.nan, "nan")])
def test_start_names_p0_for_a_prior_outside_the_variance_range(p0, shown):
    with pytest.raises(TrajectoryRangeError,
                       match=r"^p0: step 0: the forecast variance %s leaves " % shown):
        skf_start(0.0, p0, 1.0, 1.0)


@pytest.mark.parametrize("r", [1.0, 0.5])
@pytest.mark.parametrize("p0", [-1.0, 0.0, 1e-320, math.nan, math.inf])
def test_closed_form_refuses_the_priors_the_recursion_refuses(p0, r):
    # not all-zero states at 0, NaN states at nan or inf, negative variances
    # or a ZeroDivisionError (p0 + r/S_0 = 0 at p0 = -1, r = 1) at -1
    traj = make_trajectory(3, 5, r=r)
    with pytest.raises(TrajectoryRangeError) as run:
        skf_run(traj, 0.3, p0)
    for i in (0, 4, 4):  # and again at step 4: a refused prior keeps no table
        with pytest.raises(TrajectoryRangeError) as closed:
            skf_closed_form(traj, 0.3, p0, i)
        assert (closed.value.param, str(closed.value)) == (run.value.param, str(run.value))
    assert str(run.value) == "p0: step 0: the forecast variance %g leaves [1e-300, inf)" % p0
    assert [key for key in traj.tables if key[0] == "skf"] == []


@pytest.mark.parametrize("ratio", [1e-17, 1e-10])
def test_recursion_matches_closed_form_when_r_is_tiny(ratio):
    # (1 - k) p_f cancels once r << p_f (all of it at r/p_f = 1e-17); k r does not
    p0 = 3.7
    traj = make_trajectory(1, 40, r=ratio * p0)
    for i, s in enumerate(skf_run(traj, 0.3, p0)):
        c = skf_closed_form(traj, 0.3, p0, i)
        for name in ("gain", "mean_analysis", "var_analysis"):
            assert getattr(s, name) == pytest.approx(getattr(c, name), rel=1e-14, abs=0.0)


def test_variance_gain_identity(unit_traj):
    for s in skf_run(unit_traj, 0.0, 1.0):
        assert s.var_analysis == pytest.approx(
            unit_traj.obs_variance * s.gain, rel=1e-14)


def test_closed_form_base_case(unit_traj):
    p0, x0 = 1.3, 0.4
    y0 = unit_traj.observations[0]
    r = unit_traj.obs_variance
    c = skf_closed_form(unit_traj, x0, p0, 0)
    assert c.mean_analysis == pytest.approx((y0 * p0 + r * x0) / (p0 + r),
                                            rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), steps=st.integers(1, 100),
       p0=st.floats(0.05, 20.0), x0=st.floats(-5.0, 5.0))
def test_closed_form_equals_recursion(seed, steps, p0, x0):
    traj = make_trajectory(seed, steps)
    states = skf_run(traj, x0, p0)
    for i in (0, steps // 2, steps):
        c = skf_closed_form(traj, x0, p0, i)
        s = states[i]
        assert c.var_analysis == pytest.approx(s.var_analysis, rel=1e-12)
        assert c.mean_analysis == pytest.approx(
            s.mean_analysis, rel=1e-10, abs=1e-12 * max(1.0, abs(s.mean_analysis)))
        assert c.var_forecast == pytest.approx(s.var_forecast, rel=1e-12)


def test_gain_monotone_for_stable_constant_model():
    traj = make_trajectory(5, 50, kind="constant", m=0.9)
    gains = [s.gain for s in skf_run(traj, 0.0, 1.0)]
    assert all(g1 > g2 for g1, g2 in zip(gains, gains[1:]))


def test_error_moments_unbiased_and_calibrated(unit_traj):
    # constant m = 1, p0 = r = 1, i = 20: mean error ~ 0 and error variance
    # ~ p_i^a over observation-noise replicates
    em = skf_error_moments(unit_traj, 1.0, 1.0, 20, 100_000, RngSpec(77, 3))
    assert abs(em.mean) < 4.0 * em.mean_se
    pa = skf_closed_form(unit_traj, 1.0, 1.0, 20).var_analysis
    assert abs(em.var - pa) < 4.0 * em.var_se


def test_error_moments_deterministic(unit_traj):
    a = skf_error_moments(unit_traj, 1.0, 1.0, 5, 2000, RngSpec(5, 0))
    b = skf_error_moments(unit_traj, 1.0, 1.0, 5, 2000, RngSpec(5, 0))
    assert a == b


def _replay(traj, p0, i, n, spec):
    # the errors x_i - truth_i skf_error_moments replays, in plain array
    # expressions: the prior draw, then one observation draw per step
    r = traj.obs_variance
    gen = spec.generator()
    e = -math.sqrt(p0) * normal_polar(gen, n)
    for j, s in enumerate(skf_run(traj, 0.0, p0)[: i + 1]):
        if j:
            e = traj.model.values[j - 1] * e
        e = (r / (s.var_forecast + r)) * e + (s.gain * math.sqrt(r)) * normal_polar(gen, n)
    return e


@pytest.mark.parametrize("n", [100_000, 300_000])
def test_error_moments_match_reference_formulas(n):
    # the replicates skf_error_moments draws, step by step, through numpy's
    # own mean/std/var: every field within MC_RTOL
    traj = make_trajectory(31, 12, low=0.8, high=1.25)
    x0, p0, i, spec = 0.4, 1.3, 12, RngSpec(31, 3)
    em = skf_error_moments(traj, x0, p0, i, n, spec)
    errs = _replay(traj, p0, i, n, spec)
    want = reference_mean_se(errs) + reference_var_se(errs)
    assert (em.mean, em.mean_se, em.var, em.var_se) == pytest.approx(want, rel=MC_RTOL,
                                                                     abs=0.0)
    # the replay's algebra: on the same draws, the truth from the prior, its
    # observations and the filter's analysis mean give the same error
    r = traj.obs_variance
    gen = spec.generator()
    truth = x0 + math.sqrt(p0) * normal_polar(gen, n)
    xa = np.full(n, x0)
    for j, s in enumerate(skf_run(traj, x0, p0)[: i + 1]):
        if j:
            m = traj.model.values[j - 1]
            truth, xa = m * truth, m * xa
        y = truth + math.sqrt(r) * normal_polar(gen, n)
        xa = xa + s.gain * (y - xa)
    sim_mean, _ = reference_mean_se(xa - truth)
    sim_var, _ = reference_var_se(xa - truth)
    assert sim_mean == pytest.approx(em.mean, rel=1e-12, abs=0.0)
    assert sim_var == pytest.approx(em.var, rel=1e-12, abs=0.0)


def test_error_moments_peak_at_a_few_replicate_arrays():
    # one replicate-sized error and one draw per step; drawing the noise of
    # every step as one n * (i + 2) block peaks at about 70 arrays here
    traj = make_trajectory(31, 12, low=0.8, high=1.25)
    n = 100_000
    tracemalloc.start()
    try:
        skf_error_moments(traj, 0.4, 1.3, 12, n, RngSpec(31, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * n


@pytest.mark.parametrize("i", [-1, 4])
def test_a_step_outside_the_trajectory_is_refused(i):
    # steps 0..3 on model [2, 0.5, 3]; step -1 must not wrap round to step 3
    traj = make_trajectory(7, 3, kind=[2.0, 0.5, 3.0])
    with pytest.raises(IndexError, match=r"^step %d is outside \[0, 3\]$" % i):
        skf_closed_form(traj, 0.0, 1.0, i)
    with pytest.raises(IndexError, match=r"^step %d is outside \[0, 3\]$" % i):
        skf_error_moments(traj, 0.0, 1.0, i, 100, RngSpec(7, 3))


@pytest.mark.parametrize("i", [1050, 1100])
def test_error_moments_past_propagator_overflow(i):
    # m = 2: M_l leaves double range at l = 1024 and M_i/S_i underflows at
    # i = 1075, yet the replayed recursion never forms M_i and the moments
    # match the closed form
    traj = make_trajectory(19, i, x0_truth=0.0, kind="constant", m=2.0)
    em = skf_error_moments(traj, 0.0, 1.0, i, 400, RngSpec(19, 3))
    pa = skf_closed_form(traj, 0.0, 1.0, i).var_analysis
    assert math.isfinite(em.mean) and math.isfinite(em.var)
    assert abs(em.mean) < 4.0 * em.mean_se
    assert abs(em.var - pa) < 4.0 * em.var_se
