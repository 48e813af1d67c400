import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab import ModelSequence, RngSpec, build_trajectory
from filterlab.propagators import _signed_logaddexp


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
        assert traj.M(i) == pytest.approx(M[i], rel=1e-12)
        assert traj.S(i) == pytest.approx(S[i], rel=1e-12)
        assert traj.B(i) == pytest.approx(B[i], rel=1e-10)
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
    assert math.isinf(traj.S(i))
    assert traj.M2_over_S(i) == pytest.approx(1.0 - 0.25, rel=1e-9)
    assert math.isfinite(traj.B_over_S(i))
    assert traj.r_over_S(i) == pytest.approx(0.0, abs=1e-300)


def test_decaying_model_keeps_precision():
    traj = build_trajectory(ModelSequence.constant(0.5, 900), 1.0, 1.0,
                            RngSpec(3, 0))
    # S_i -> sum 4^-l = 4/3; M_i^2/S_i underflows gracefully
    assert traj.S(900) == pytest.approx(4.0 / 3.0, rel=1e-12)
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


def test_signed_logaddexp_cancellation_and_zero():
    l, s = _signed_logaddexp(math.log(3.0), 1, math.log(3.0), -1)
    assert s == 0
    l, s = _signed_logaddexp(math.log(5.0), 1, math.log(2.0), -1)
    assert s == 1 and math.exp(l) == pytest.approx(3.0, rel=1e-14)
    l, s = _signed_logaddexp(-1e308, 0, math.log(2.0), -1)
    assert s == -1 and math.exp(l) == pytest.approx(2.0)


def log_ledger_ratios(traj, i):
    # each ratio evaluated per call from the signed-log ledger
    ls = traj.log_S[i]
    return {
        "inv_S": math.exp(-ls),
        "r_over_S": traj.obs_variance * math.exp(-ls),
        "M_over_S": traj.sign_M[i] * math.exp(traj.log_abs_M[i] - ls),
        "M2_over_S": math.exp(2.0 * traj.log_abs_M[i] - ls),
        "B_over_S": traj.sign_B[i] * math.exp(traj.log_abs_B[i] - ls),
        "MB_over_S": traj.sign_M[i] * traj.sign_B[i] * math.exp(
            traj.log_abs_M[i] + traj.log_abs_B[i] - ls),
    }


@pytest.mark.parametrize("make", [
    # wide band, random signs
    lambda: build_trajectory(
        ModelSequence.random_loguniform(400, RngSpec(5, 1), 0.1, 10.0), 1.3, 0.7,
        RngSpec(5, 0)),
    # M and S overflow doubles
    lambda: build_trajectory(ModelSequence.constant(2.0, 1200), 0.0, 1.0, RngSpec(1, 0)),
    # M_i^2/S_i underflows
    lambda: build_trajectory(ModelSequence.constant(0.5, 900), 1.0, 1.0, RngSpec(3, 0)),
], ids=["wide_signed", "overflowing", "decaying"])
def test_ratio_accessors_equal_log_ledger_exactly(make):
    traj = make()
    for i in range(traj.n_steps + 1):
        for name, want in log_ledger_ratios(traj, i).items():
            got = getattr(traj, name)(i)
            assert type(got) is float
            assert got == want, (name, i)
