"""The closed-form trajectory tables behind the per-step entries.

expected_dp, second_moment_dp, expected_dx, second_moment_dx,
po_variance_penalty (and the gain mean of po_mean_identity_check) and
skf_closed_form index a table built once per (trajectory, inputs).  These
tests hold the tables to the scalar specs they replace: the same values,
the same errors at the same steps, and keys that follow the trajectory's
identity.
"""

import dataclasses
import math

import numpy as np
import pytest

from filterlab import (
    PerturbedInputs,
    expected_dp,
    expected_dx,
    po_variance_penalty,
    ratio_fourth_moment,
    ratio_mean,
    ratio_second_moment,
    second_moment_dp,
    second_moment_dx,
    skf_closed_form,
)
from filterlab import discrepancy as dsc
from filterlab import skf
from conftest import make_trajectory


def inputs(alpha, **kw):
    args = dict(p0=1.1, x0=0.2, p_tilde0=0.9, x_tilde0=-0.1, alpha=alpha, r=0.8)
    args.update(kw)
    return PerturbedInputs(**args)


def scalar_moments(traj, inp, i):
    # the per-step route the tables replace: one scalar spec per moment
    dp, dx = dsc.dp_spec(traj, inp, i), dsc.dx_spec(traj, inp, i)
    gain = dsc.po_gain_spec(traj, inp.p0, inp.alpha, inp.r, i)
    return (ratio_mean(dp), ratio_second_moment(dp), ratio_mean(dx),
            ratio_second_moment(dx), ratio_mean(gain), ratio_fourth_moment(gain))


def table_moments(traj, inp, i):
    gain = (traj, inp.p0, inp.alpha, inp.r, i)
    return (expected_dp(traj, inp, i), second_moment_dp(traj, inp, i),
            expected_dx(traj, inp, i), second_moment_dx(traj, inp, i),
            dsc.po_gain_mean(*gain), dsc._po_gain_moment(*gain, 4))


# the moments benchmark's regime: |m| in [0.9, 1.1] over 100 steps, so z runs
# from below 1 (series) at small alpha to above 1 (continued fraction)
@pytest.mark.parametrize("alpha", [4.5, 16.0, 64.5, 256.0, 1024.0])
@pytest.mark.parametrize("seed", [1, 3])
def test_table_matches_scalar_specs(seed, alpha):
    traj = make_trajectory(seed, 100, low=0.9, high=1.1)
    inp = inputs(alpha)
    steps = range(traj.n_steps + 1)
    got = np.array([table_moments(traj, inp, i) for i in steps])
    want = np.array([scalar_moments(traj, inp, i) for i in steps])
    assert type(expected_dp(traj, inp, 3)) is float
    assert po_variance_penalty(traj, inp.p0, alpha, inp.r, 3) == \
        got[3, 5] * inp.r * inp.r / alpha
    # where both z of the step are >= 1 the two routes run the same scalar
    # continued fraction, and the same formula rounds alike for floats and
    # arrays: bit for bit
    cf = np.array([min(dsc.dp_spec(traj, inp, i).z,
                       dsc.po_gain_spec(traj, inp.p0, alpha, inp.r, i).z) >= 1.0
                   for i in steps])
    np.testing.assert_array_equal(got[cf], want[cf])
    # below z = 1 the block series sums its rows in a different order: the
    # means agree to 1e-14 relative; the second and fourth moments cancel
    # (roughly a digit per decade of alpha) and agree to 1e-14 of the
    # largest value along the trajectory
    for j in (0, 2, 4):
        np.testing.assert_allclose(got[:, j], want[:, j], rtol=1e-14, atol=0.0)
    for j in (1, 3, 5):
        scale = np.abs(want[:, j]).max()
        assert np.abs(got[:, j] - want[:, j]).max() <= 1e-14 * scale, j


def test_skf_closed_form_matches_the_step_formula():
    traj = make_trajectory(5, 60, low=0.5, high=2.0)
    x0, p0, r = 0.3, 1.7, traj.obs_variance
    for i in range(traj.n_steps + 1):
        s = skf_closed_form(traj, x0, p0, i)
        u = traj.r_over_S(i)
        assert s.var_analysis == r * p0 * traj.M2_over_S(i) / (p0 + u)
        assert s.mean_analysis == (p0 * traj.MB_over_S(i)
                                   + traj.M_over_S(i) * r * x0) / (p0 + u)
        assert s.gain == s.var_analysis / r
        if i:
            prev = skf_closed_form(traj, x0, p0, i - 1)
            m = traj.model.values[i - 1]
            assert (s.mean_forecast, s.var_forecast) == (m * prev.mean_analysis,
                                                         m * m * prev.var_analysis)
        else:
            assert (s.mean_forecast, s.var_forecast) == (x0, p0)


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_small_alpha_has_means_but_no_second_moments(alpha):
    traj = make_trajectory(11, 30)
    inp = inputs(alpha)
    for i in range(traj.n_steps + 1):
        for entry, spec in ((expected_dp, dsc.dp_spec), (expected_dx, dsc.dx_spec)):
            want = ratio_mean(spec(traj, inp, i))
            assert entry(traj, inp, i) == pytest.approx(want, rel=1e-14, abs=0.0)
        with pytest.raises(ValueError, match="second moment needs alpha > 2"):
            second_moment_dp(traj, inp, i)
        with pytest.raises(ValueError, match="second moment needs alpha > 2"):
            second_moment_dx(traj, inp, i)


def test_small_alpha_keeps_the_constant_dx():
    traj = make_trajectory(12, 10)
    inp = inputs(1.5, x_tilde0=traj.B_over_S(4))
    const = expected_dx(traj, inp, 4)
    assert second_moment_dx(traj, inp, 4) == const * const
    with pytest.raises(ValueError, match="second moment needs alpha > 2"):
        second_moment_dx(traj, inp, 5)


def test_a_step_with_zero_r_over_s_raises_alone():
    traj = make_trajectory(13, 12)
    k = 7
    inv_s = list(traj.inv_S_seq)
    inv_s[k] = 0.0
    broken = dataclasses.replace(traj, inv_S_seq=tuple(inv_s))
    inp = inputs(6.0)
    for entry in (expected_dp, second_moment_dp, expected_dx, second_moment_dx):
        with pytest.raises(ValueError, match="need c > 0 and d > 0"):
            entry(broken, inp, k)
        # the other steps evaluate as before, up to the block series' row
        # order (see test_table_matches_scalar_specs)
        for i in range(traj.n_steps + 1):
            if i != k:
                want = entry(traj, inp, i)
                assert entry(broken, inp, i) == pytest.approx(want, rel=1e-13, abs=0.0)
    # the gain's r/S_k = 0 takes its limit q_k instead
    assert po_variance_penalty(broken, 1.1, 6.0, 0.8, k) == \
        broken.M2_over_S(k) ** 4 * 0.8 * 0.8 / 6.0


def test_underflowed_r_over_s_takes_the_gain_limit():
    # m = 2: r/S_i underflows to 0 from step 538 on
    traj = make_trajectory(14, 600, kind="constant", m=2.0)
    first = next(i for i in range(601) if traj.r_over_S(i) == 0.0)
    assert 500 < first < 600
    for i in (first - 1, first, 600):
        q = traj.M2_over_S(i)
        gain = dsc.po_gain_mean(traj, 1.0, 5.0, 1.0, i)
        penalty = po_variance_penalty(traj, 1.0, 5.0, 1.0, i)
        if i < first:
            spec = dsc.po_gain_spec(traj, 1.0, 5.0, 1.0, i)
            assert gain == ratio_mean(spec)
            assert penalty == ratio_fourth_moment(spec) / 5.0
        else:
            assert (gain, penalty) == (q, q ** 4 / 5.0)


def test_gain_fourth_moment_needs_alpha_above_four():
    traj = make_trajectory(15, 10)
    with pytest.raises(ValueError, match="fourth moment needs alpha > 4"):
        po_variance_penalty(traj, 1.0, 4.0, 1.0, 3)
    assert math.isfinite(dsc.po_gain_mean(traj, 1.0, 4.0, 1.0, 3))


# ---------------------------------------------------------------- keys


def test_trajectories_are_keyed_by_identity():
    a = make_trajectory(21, 40)
    b = make_trajectory(21, 40)
    assert a != b and hash(a) != hash(b)
    inp = inputs(8.0)
    dsc._moment_table.cache_clear()
    skf._closed_table.cache_clear()
    for traj in (a, b):
        expected_dp(traj, inp, 0)
        skf_closed_form(traj, 0.2, 1.1, 0)
    assert dsc._moment_table.cache_info().misses == 2
    assert skf._closed_table.cache_info().misses == 2
    assert dsc._moment_table(a, inp) == dsc._moment_table(b, inp)
    assert dsc._moment_table(a, inp) is not dsc._moment_table(b, inp)
    assert skf._closed_table(a, 0.2, 1.1) == skf._closed_table(b, 0.2, 1.1)


def test_eviction_changes_no_value():
    traj = make_trajectory(22, 30)
    inp = inputs(6.0)
    steps = range(traj.n_steps + 1)
    dsc._moment_table.cache_clear()
    before = [table_moments(traj, inp, i) for i in steps]
    # nine more trajectories push the first out of the 8-entry cache
    for seed in range(30, 39):
        table_moments(make_trajectory(seed, 5), inp, 0)
    misses = dsc._moment_table.cache_info().misses
    assert [table_moments(traj, inp, i) for i in steps] == before
    assert dsc._moment_table.cache_info().misses == misses + 1
    assert dsc._moment_table.cache_info().maxsize == 8
