import hashlib
import math
import sys
from math import frexp, ldexp

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filterlab import ModelSequence, RngSpec, TrajectoryRangeError, build_trajectory
from filterlab.rng import normal_polar

# an overflow the ledger does not guard would warn without failing a test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
        assert traj.M2_over_S[i] == pytest.approx(M[i] ** 2 / S[i], rel=1e-12)
        assert traj.M_over_S[i] == pytest.approx(M[i] / S[i], rel=1e-12)
        assert traj.B_over_S[i] == pytest.approx(B[i] / S[i], rel=1e-10)
        assert traj.obs_variance * traj.inv_S[i] == pytest.approx(0.8 / S[i], rel=1e-12)


def test_ratios_survive_overflow():
    # m = 2 for 1200 steps: M and S overflow doubles long before the end,
    # but the ratios stay finite and converge to their geometric limits
    traj = build_trajectory(ModelSequence.constant(2.0, 1200), 0.0, 1.0,
                            RngSpec(1, 0))
    i = 1200
    assert traj.inv_S[i] == 0.0  # S_i is beyond double range
    assert traj.M2_over_S[i] == pytest.approx(1.0 - 0.25, rel=1e-9)
    assert math.isfinite(traj.B_over_S[i])
    assert traj.obs_variance * traj.inv_S[i] == pytest.approx(0.0, abs=1e-300)


def test_decaying_model_keeps_precision():
    traj = build_trajectory(ModelSequence.constant(0.5, 900), 1.0, 1.0,
                            RngSpec(3, 0))
    # S_i -> sum 4^-l = 4/3; M_i^2/S_i underflows gracefully
    assert traj.inv_S[900] == pytest.approx(3.0 / 4.0, rel=1e-12)
    assert traj.M2_over_S[900] >= 0.0


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


def mp_ledger(traj):
    # every ledger ratio at every step from M_i, S_i and B_i summed at 50 digits
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
    # the ledger leaves the plain-double window and M_i comes back to 1
    lambda: build_trajectory(ModelSequence(np.array([0.01] * 150 + [100.0] * 150)),
                             1.0, 1.0, RngSpec(10, 0)),
], ids=["wide_signed", "overflowing", "decaying", "long_band", "dip_recover",
        "deep_dip_recover", "huge_multipliers", "window_crossing"])
def test_ratio_accessors_match_50_digit_ledger(make):
    # relative error 1e-13, against the smallest normal double for ratios
    # that underflow
    traj = make()
    for i, want in enumerate(mp_ledger(traj)):
        for name, ref in want.items():
            if name == "r_over_S":
                got = traj.obs_variance * traj.inv_S[i]
            else:
                got = getattr(traj, name)[i]
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


def _add(a, ea, b, eb):
    if b and (not a or eb > ea):
        a, ea, b, eb = b, eb, a, ea
    f, e = frexp(a + ldexp(b, eb - ea))
    return f, e + ea


def mantissa_trajectory(model, x0_truth, obs_variance, spec):
    """Oracle: the ledger with every ratio that can leave double range carried
    as a frexp mantissa and exponent at every step, and the truth multiplied
    out the same way.  Returns what build_trajectory stores, or raises what
    it raises."""
    r = float(obs_variance)
    if not (r > 0.0):
        raise ValueError("obs_variance must be positive")
    x0 = float(x0_truth)
    if not math.isfinite(x0):
        raise TrajectoryRangeError("x0_truth", "not a finite number")
    mfs, mes = (a.tolist() for a in np.frexp(model.values))
    xf, xe = frexp(x0)
    truth_f, truth_e = [xf], [xe]
    for mf, me in zip(mfs, mes):
        xf, e = frexp(xf * mf)
        xe += me + e
        truth_f.append(xf)
        truth_e.append(xe)
    noise = math.sqrt(r) * normal_polar(spec.generator(), len(mfs) + 1)
    with np.errstate(over="ignore"):
        truth = np.ldexp(truth_f, truth_e)
        obs = truth + noise

    def range_error(i):
        if not math.isfinite(noise[i]):
            return TrajectoryRangeError(
                "obs_variance", "step %d: the observation noise is not finite" % i)
        f0, e0 = frexp(x0)
        with np.errstate(over="ignore"):
            m_ok = bool(x0) and np.isfinite(np.ldexp(truth_f[i] / f0, truth_e[i] - e0))
        if m_ok:
            return TrajectoryRangeError("x0_truth", "step %d: the truth x0_truth * "
                                        "M_i leaves double range" % i)
        return TrajectoryRangeError("model", "step %d: M_i leaves double range, "
                                    "and with it the truth x0_truth * M_i" % i)

    if not np.isfinite(obs).all():
        raise range_error(int(np.argmin(np.isfinite(obs))))
    yfs, yes = (a.tolist() for a in np.frexp(obs))
    inv_s, b_s = 1.0, float(obs[0])
    qf, qe, uf, ue, wf, we = 0.5, 1, 0.5, 1, yfs[0], yes[0]
    rows = [(inv_s, b_s, uf, ue, qf, qe, wf, we)]
    try:
        for mf, me, yf, ye in zip(mfs, mes, yfs[1:], yes[1:]):
            tf, te = mf * mf * qf, 2 * me + qe
            gf, ge = (tf, te) if te > 64 else (1.0 + ldexp(tf, te), 0)
            inv_s = ldexp(inv_s / gf, -ge)
            b_s = ldexp(b_s / gf, -ge) + ldexp(mf * uf * yf / gf, me + ue + ye - ge)
            qf, e = frexp(tf / gf)
            qe = te - ge + e
            uf, e = frexp(mf * uf / gf)
            ue += me - ge + e
            wf, we = _add(mf * wf / gf, me + we - ge, qf * yf, qe + ye)
            rows.append((inv_s, b_s, uf, ue, qf, qe, wf, we))
    except OverflowError:
        raise range_error(len(rows)) from None
    inv_ss, b_ss, u_f, u_e, q_f, q_e, w_f, w_e = zip(*rows)
    with np.errstate(over="ignore"):
        mb_s = np.ldexp(w_f, w_e)
    finite = np.isfinite(b_ss) & np.isfinite(mb_s)
    if not finite.all():
        raise range_error(int(np.argmin(finite)))
    return (truth, obs, inv_ss, tuple(np.ldexp(u_f, u_e).tolist()),
            tuple(np.ldexp(q_f, q_e).tolist()), b_ss, tuple(mb_s.tolist()))


def outcome(build, *args):
    # every stored double as bytes, so -0.0, NaN and subnormals count; or
    # the exception's type and message
    try:
        got = build(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        return tuple(np.asarray(col, dtype=float).tobytes() for col in got)
    return tuple(np.asarray(col, dtype=float).tobytes() for col in (
        got.truth, got.observations, got.inv_S, got.M_over_S, got.M2_over_S,
        got.B_over_S, got.MB_over_S))


# runs of multipliers at one magnitude, so a trajectory can stay in the
# plain-double window, leave it and come back
_runs = st.lists(st.tuples(st.integers(1, 120), st.floats(-200.0, 200.0),
                           st.floats(0.0, 2.0)), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
# m and q near 1e-100 at step 1: m^2 q lies below the normal range
@example(runs=[(1, -55.0, 0.0), (1, -100.0, 0.0), (1, 200.0, 0.0)], seed=1,
         x0_truth=1.0, log_r=0.0)
@given(runs=_runs, seed=st.integers(0, 2**32 - 1),
       x0_truth=st.one_of(st.sampled_from([0.0, 1e-300, 1e300]), st.floats(-10.0, 10.0)),
       log_r=st.floats(-300.0, 300.0))
def test_ledger_is_bit_identical_to_the_mantissa_loop(runs, seed, x0_truth, log_r):
    # |m| from 1e-200 to 1e200 with random signs, at most 400 steps
    gen = np.random.default_rng(seed)
    logs = np.concatenate([c + w * gen.uniform(-1.0, 1.0, n) for n, c, w in runs])[:400]
    sign = np.where(gen.random(len(logs)) < 0.5, -1.0, 1.0)
    model = ModelSequence(sign * 10.0 ** np.clip(logs, -200.0, 200.0))
    args = (model, x0_truth, 10.0 ** log_r, RngSpec(seed, 0))
    assert outcome(build_trajectory, *args) == outcome(mantissa_trajectory, *args)


def test_array_callers_share_one_read_only_array_per_ratio():
    traj = build_trajectory(ModelSequence.constant(1.5, 20), 1.0, 0.5, RngSpec(2, 0))
    for name in ("inv_S", "M_over_S", "M2_over_S", "B_over_S", "MB_over_S"):
        a = traj.array(name)
        assert a is traj.array(name)
        assert a.tolist() == list(getattr(traj, name))
        with pytest.raises(ValueError):
            a[0] = 0.0


# sha256 of the five ledger tuples of seeds 0-299 below, as float64 bytes,
# from a build that handed off to the mantissa loop at most once and stayed
# there
HANDOFF_LEDGERS_SHA256 = "afecf0612448c1f3cc34db484ec403641de5d507207792a7365826ee1e1bc476"


def test_the_ledger_keeps_its_bits_when_it_comes_back_to_plain_doubles():
    # 1000 steps of |m| log-uniform on [0.1, 10]: 239 of the 300 ledgers
    # leave the plain-double window, and 135 of those come back to it while
    # S_i < 2^128, where the mantissa form keeps running to the last step
    digest, returns = hashlib.sha256(), 0
    for seed in range(300):
        spec = RngSpec(seed, 0)
        model = ModelSequence.random_loguniform(1000, spec.stream(1), 0.1, 10.0)
        traj = build_trajectory(model, 1.0, 1.0, spec)
        cols = [traj.inv_S, traj.M_over_S, traj.M2_over_S, traj.B_over_S, traj.MB_over_S]
        for col in cols:
            digest.update(np.array(col, dtype=float).tobytes())
        # step i + 1 runs in plain doubles when row i and m_i, y_{i+1} lie in
        # the window
        rows = np.abs(np.array(cols))
        ins = np.abs(np.array([model.values, traj.observations[1:]]))
        plain = (np.all((rows >= 2.0 ** -128) & (rows <= 2.0 ** 128), axis=0)[:-1]
                 & np.all((ins >= 2.0 ** -128) & (ins <= 2.0 ** 128), axis=0))
        returns += bool(np.any(np.diff(plain.astype(int)) == 1))
    assert digest.hexdigest() == HANDOFF_LEDGERS_SHA256
    assert returns > 0


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
