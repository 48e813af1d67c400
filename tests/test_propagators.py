import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab import ModelSequence, RngSpec, TrajectoryRangeError, build_trajectory


def brute_msb(model_values, observations):
    n = len(model_values)
    M = np.empty(n + 1)
    M[0] = 1.0
    for i, m in enumerate(model_values):
        M[i + 1] = M[i] * m
    S = np.cumsum(M * M)
    B = np.cumsum(M * observations)
    return M, S, B


def test_ledger_matches_brute_force():
    spec = RngSpec(7, 0)
    model = ModelSequence.random_loguniform(40, spec.stream(1))
    traj = build_trajectory(model, 1.0, 0.8, spec)
    M, S, B = brute_msb(model.values, traj.observations)
    for i in range(41):
        assert traj.M2_over_S(i) == pytest.approx(M[i] ** 2 / S[i], rel=1e-12)
        assert traj.M_over_S(i) == pytest.approx(M[i] / S[i], rel=1e-12)
        assert traj.B_over_S(i) == pytest.approx(B[i] / S[i], rel=1e-10)
        assert traj.r_over_S(i) == pytest.approx(0.8 / S[i], rel=1e-12)


def test_ratios_survive_overflow():
    # m = 2 for 1200 steps: M and S overflow doubles long before the end,
    # but the ratios stay finite and converge to their geometric limits
    traj = build_trajectory(ModelSequence.constant(2.0, 1200), 0.0, 1.0,
                            RngSpec(1, 0))
    i = 1200
    assert traj.inv_S(i) == 0.0  # S_i is beyond double range
    assert traj.M2_over_S(i) == pytest.approx(1.0 - 0.25, rel=1e-9)
    assert math.isfinite(traj.B_over_S(i))
    assert traj.r_over_S(i) == pytest.approx(0.0, abs=1e-300)


def test_decaying_model_keeps_precision():
    traj = build_trajectory(ModelSequence.constant(0.5, 900), 1.0, 1.0,
                            RngSpec(3, 0))
    # S_i -> sum 4^-l = 4/3; M_i^2/S_i underflows gracefully
    assert traj.inv_S(900) == pytest.approx(3.0 / 4.0, rel=1e-12)
    assert traj.M2_over_S(900) >= 0.0


def test_determinism_and_stream_separation():
    a = build_trajectory(ModelSequence.constant(1.0, 10), 1.0, 1.0, RngSpec(9, 0))
    b = build_trajectory(ModelSequence.constant(1.0, 10), 1.0, 1.0, RngSpec(9, 0))
    c = build_trajectory(ModelSequence.constant(1.0, 10), 1.0, 1.0, RngSpec(9, 1))
    assert np.array_equal(a.observations, b.observations)
    assert not np.array_equal(a.observations, c.observations)


def test_model_sequence_validation():
    with pytest.raises(ValueError):
        ModelSequence(np.array([]))
    with pytest.raises(ValueError):
        ModelSequence(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        ModelSequence(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        build_trajectory(ModelSequence.constant(1.0, 3), 0.0, -1.0, RngSpec(0))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_loguniform_magnitudes_in_range(seed):
    model = ModelSequence.random_loguniform(50, RngSpec(seed, 0))
    mags = np.abs(model.values)
    assert np.all((mags >= 0.5) & (mags <= 2.0))


def test_doubly_normalized_deviation_formula():
    spec = RngSpec(11, 0)
    model = ModelSequence.random_loguniform(15, spec.stream(1))
    traj = build_trajectory(model, 0.3, 2.0, spec)
    M, S, B = brute_msb(model.values, traj.observations)
    for i in (0, 5, 15):
        want = M[i] * (B[i] - 1.7 * S[i]) / S[i] ** 2
        assert traj.doubly_normalized_deviation(1.7, i) == pytest.approx(
            want, rel=1e-10)


def mp_ledger(traj, c):
    # every accessor at every step from M_i, S_i and B_i summed at 50 digits
    with mpmath.workdps(50):
        M, S, B = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        ms = [1.0] + traj.model.values.tolist()
        for m, y in zip(ms, traj.observations.tolist()):
            M *= m
            S += M * M
            B += M * y
            yield {
                "inv_S": float(1 / S),
                "r_over_S": float(traj.obs_variance / S),
                "M_over_S": float(M / S),
                "M2_over_S": float(M * M / S),
                "B_over_S": float(B / S),
                "MB_over_S": float(M * B / S),
                "doubly_normalized_deviation": float(M * (B - c * S) / (S * S)),
            }


@pytest.mark.parametrize("make", [
    # wide band, random signs
    lambda: build_trajectory(
        ModelSequence.random_loguniform(400, RngSpec(5, 1), 0.1, 10.0), 1.3, 0.7,
        RngSpec(5, 0)),
    # M and S overflow doubles; 1/S_i and M_i/S_i underflow
    lambda: build_trajectory(ModelSequence.constant(2.0, 1200), 0.0, 1.0, RngSpec(1, 0)),
    # M_i^2/S_i underflows
    lambda: build_trajectory(ModelSequence.constant(0.5, 900), 1.0, 1.0, RngSpec(3, 0)),
    # 1e4 steps: rounding compounds along the recursion
    lambda: build_trajectory(
        ModelSequence.random_loguniform(10_000, RngSpec(8, 1)), 1.0, 1.0, RngSpec(8, 0)),
    # M_i^2/S_i falls below the smallest double, then M_4 = 1 and S_4 ~ 2
    lambda: build_trajectory(ModelSequence(np.array([1e-100, 1e-100, 1e150, 1e50])),
                             1.0, 1.0, RngSpec(4, 0)),
    # M_i and the truth leave double range downwards and come back to 1
    lambda: build_trajectory(ModelSequence(np.array([1e-200] * 4 + [1e200] * 4)),
                             1.0, 1.0, RngSpec(6, 0)),
    # |m_i| beyond 1e154: m_i^2 is not a double, the truth is
    lambda: build_trajectory(ModelSequence(np.array([1e200, -1e-200] * 20)),
                             1.0, 1.0, RngSpec(2, 0)),
], ids=["wide_signed", "overflowing", "decaying", "long_band", "dip_recover",
        "deep_dip_recover", "huge_multipliers"])
def test_ratio_accessors_match_50_digit_ledger(make):
    # relative error 1e-13, against the smallest normal double for ratios
    # that underflow
    traj = make()
    c = -2.5
    for i, want in enumerate(mp_ledger(traj, c)):
        for name, ref in want.items():
            args = (c, i) if name == "doubly_normalized_deviation" else (i,)
            got = getattr(traj, name)(*args)
            assert type(got) is float
            assert abs(got - ref) <= 1e-13 * max(abs(ref), sys.float_info.min), \
                (name, i, got, ref)


def test_truth_comes_back_after_leaving_double_range():
    values = np.array([1e-200] * 4 + [1e200] * 4)
    traj = build_trajectory(ModelSequence(values), 1.0, 1.0, RngSpec(6, 0))
    assert traj.truth[4] == 0.0  # 1e-800
    with mpmath.workdps(50):
        for i in range(9):
            want = float(mpmath.fprod([mpmath.mpf(m) for m in values[:i]]))
            assert traj.truth[i] == pytest.approx(want, rel=1e-15)


def test_truth_is_the_running_product_in_double_range():
    spec = RngSpec(12, 0)
    model = ModelSequence.random_loguniform(300, spec.stream(1), 0.1, 10.0)
    traj = build_trajectory(model, -1.7, 1.0, spec)
    x = -1.7
    for i, m in enumerate(model.values.tolist()):
        x *= m
        assert traj.truth[i + 1] == x


@pytest.mark.parametrize("x0_truth,param,step", [
    (1.0, "model", 1024),      # M_1024 = 2^1024 is not a double
    (1e300, "x0_truth", 28),   # M_28 = 2^28 is, 1e300 * 2^28 is not
])
def test_non_finite_truth_names_the_input_and_step(x0_truth, param, step):
    with pytest.raises(TrajectoryRangeError, match=r"^%s: step %d: " % (param, step)) as info:
        build_trajectory(ModelSequence.constant(2.0, 1100), x0_truth, 1.0, RngSpec(3, 0))
    assert info.value.param == param


def test_non_finite_noise_names_obs_variance():
    with pytest.raises(TrajectoryRangeError, match=r"^obs_variance: step 0: "):
        build_trajectory(ModelSequence.constant(1.0, 3), 0.0, math.inf, RngSpec(3, 0))
