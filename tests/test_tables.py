"""The closed-form trajectory tables behind the per-step entries.

expected_dp, second_moment_dp, expected_dx, second_moment_dx, po_gain_mean
and po_gain_fourth (behind po_variance_penalty) index a table built once
per (trajectory, inputs), and read nothing else.  These tests hold the
tables to float specs sliced from the table's own array spec, one step at a
time: the same values bit for bit, the same errors at the same steps, no
step outside the trajectory, and keys that follow the trajectory's
identity.  skf_closed_form reads a table of SkfStates per (trajectory, x0,
p0), held to the step formula it evaluates.  Every table lives in its
trajectory's tables dict and goes when the trajectory goes.  A digest pins
the bytes of every table along one trajectory at the moments benchmark's
alphas.
"""

import dataclasses
import gc
import hashlib
import math
import re
import struct
import weakref

import numpy as np
import pytest

from filterlab import (
    GammaRatioSpec,
    PerturbedInputs,
    RngSpec,
    SkfState,
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


def float_spec(spec, index):
    # element index of an array spec, as the spec of floats it stands for
    a, b, c, d = (float(np.broadcast_to(v, np.shape(spec.a))[index])
                  for v in (spec.a, spec.b, spec.c, spec.d))
    return GammaRatioSpec(a, b, c, d, spec.alpha, spec.p)


def moment_table(traj, inp):
    # the dp/dx table the entries read, built as they build it
    return traj.tables.get(inp) or dsc._moment_table(traj, inp)


def gain_table(traj, p0, alpha, r, n):
    key = ("gain", p0, alpha, r, n)
    return traj.tables.get(key) or dsc._gain_table(traj, key)


def record_builds(monkeypatch):
    # the (builder, trajectory, key) of every table build, in order
    builds = []
    for module, name in ((dsc, "_moment_table"), (dsc, "_gain_table"), (skf, "_closed_table")):
        def recorded(traj, key, build=getattr(module, name), name=name):
            builds.append((name, traj, key))
            return build(traj, key)
        monkeypatch.setattr(module, name, recorded)
    return builds


def dp_dx_specs(traj, inp, i):
    spec = moment_table(traj, inp)[4]
    return float_spec(spec, (0, i)), float_spec(spec, (1, i))


def gain_spec(traj, p0, alpha, r, i):
    return float_spec(gain_table(traj, p0, float(alpha), float(r), 1)[1], i)


def scalar_moments(traj, inp, i):
    # the per-step route the tables replace: one float spec per moment
    dp, dx = dp_dx_specs(traj, inp, i)
    gain = gain_spec(traj, inp.p0, inp.alpha, inp.r, i)
    return (ratio_mean(dp), ratio_second_moment(dp), ratio_mean(dx),
            ratio_second_moment(dx), ratio_mean(gain), ratio_fourth_moment(gain))


def table_moments(traj, inp, i):
    gain = (traj, inp.p0, inp.alpha, inp.r, i)
    return (expected_dp(traj, inp, i), second_moment_dp(traj, inp, i),
            expected_dx(traj, inp, i), second_moment_dx(traj, inp, i),
            dsc.po_gain_mean(*gain), dsc.po_gain_fourth(*gain))


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
    # the scaled expint gives each (order, z) one value in any batch, and the
    # same formula rounds alike for floats and arrays: bit for bit at every
    # step, on both sides of the branch point z = 1
    np.testing.assert_array_equal(got, want)


# sha256 of the float64 bytes of the tables below; a scaled-expint pass per
# order and a per-call skf closed form gave the same bytes
TABLE_DIGEST = "17aa371dce65842f44072b6126d694a1bddb0f8795ff5f5bbaa5bb896bf3b3f9"


def test_every_table_keeps_its_bytes():
    # the dp, dx and gain tables at the moments benchmark's alphas, whose
    # z crosses from the series (z < 1) to the continued fraction along the
    # trajectory, and the skf table; the golden CSVs reach alpha 4 and 5 only
    traj = make_trajectory(7, 100, low=0.9, high=1.1)
    steps = range(traj.n_steps + 1)
    digest = hashlib.sha256()
    for alpha in (4.5, 16.0, 64.5, 256.0, 1024.0):
        inp = inputs(alpha)
        digest.update(np.array([table_moments(traj, inp, i) for i in steps]).tobytes())
    states = [skf_closed_form(traj, 0.2, 1.1, i) for i in steps]
    digest.update(np.array(states, dtype=float).tobytes())
    assert digest.hexdigest() == TABLE_DIGEST


def test_skf_closed_form_reads_one_table_per_trajectory_and_prior(monkeypatch):
    builds = record_builds(monkeypatch)
    traj = make_trajectory(6, 30)
    states = [skf_closed_form(traj, 0.3, 1.7, i) for i in range(traj.n_steps + 1)]
    assert builds == [("_closed_table", traj, ("skf", 0.3, 1.7))]
    assert traj.tables["skf", 0.3, 1.7] == states
    # a read hands out the table's state; an equal trajectory built apart
    # has its own table, and an int prior reads the table of its float
    assert skf_closed_form(traj, 0.3, 1.7, 4) is states[4]
    other = make_trajectory(6, 30)
    assert skf_closed_form(other, 0.3, 1.7, 4) == states[4]
    assert skf_closed_form(traj, 1, 2, 4) is skf_closed_form(traj, 1.0, 2.0, 4)
    assert builds == [("_closed_table", traj, ("skf", 0.3, 1.7)),
                      ("_closed_table", other, ("skf", 0.3, 1.7)),
                      ("_closed_table", traj, ("skf", 1.0, 2.0))]
    assert skf_closed_form(traj, 0.3, math.nextafter(1.7, 2.0), 4) != states[4]


def test_skf_closed_form_matches_the_step_formula():
    traj = make_trajectory(5, 60, low=0.5, high=2.0)
    x0, p0, r = 0.3, 1.7, traj.obs_variance
    for i in range(traj.n_steps + 1):
        s = skf_closed_form(traj, x0, p0, i)
        u = r * traj.inv_S[i]
        assert s.var_analysis == r * p0 * traj.M2_over_S[i] / (p0 + u)
        assert s.mean_analysis == (p0 * traj.MB_over_S[i]
                                   + traj.M_over_S[i] * r * x0) / (p0 + u)
        assert s.gain == s.var_analysis / r
        if i:
            prev = skf_closed_form(traj, x0, p0, i - 1)
            m = traj.model.values[i - 1]
            assert (s.mean_forecast, s.var_forecast) == (m * prev.mean_analysis,
                                                         m * m * prev.var_analysis)
        else:
            assert (s.mean_forecast, s.var_forecast) == (x0, p0)


# ---------------------------------------------------------------- direct reads


def entry_routes(traj, inp):
    # (entry, its route through _at or _refuse_gain_fourth) for every per-step
    # entry: the route reads the same table cell and refuses it the same way
    p0, alpha, r = inp.p0, float(inp.alpha), float(inp.r)

    def moment(k, row, name, n, sizes):
        def route(i):
            t = moment_table(traj, inp)
            return dsc._at(traj, i, t[k], t[4], row, name, n, t[sizes])
        return route

    def gain_mean(i):
        moments, spec, sizes = gain_table(traj, p0, alpha, r, 1)
        return dsc._at(traj, i, moments, spec, (), "K", 1, sizes)

    def gain_fourth(i):
        # _at's value, refused when it is no fourth moment
        moments, spec, _ = gain_table(traj, p0, alpha, r, 4)
        k4 = dsc._at(traj, i, moments, spec, (), "K", 4)
        if not 0.0 <= k4 < math.inf:
            dsc._refuse_gain_fourth(traj, i, r, moments, spec)
        return k4

    return [
        (lambda i: expected_dp(traj, inp, i), moment(0, (0,), "dp", 1, 5)),
        (lambda i: second_moment_dp(traj, inp, i), moment(2, (0,), "dp", 2, 5)),
        (lambda i: expected_dx(traj, inp, i), moment(1, (1,), "dx", 1, 6)),
        (lambda i: second_moment_dx(traj, inp, i), moment(3, (1,), "dx", 2, 6)),
        (lambda i: dsc.po_gain_mean(traj, p0, alpha, r, i), gain_mean),
        (lambda i: dsc.po_gain_fourth(traj, p0, alpha, r, i), gain_fourth),
        (lambda i: po_variance_penalty(traj, p0, alpha, r, i),
         lambda i: gain_fourth(i) * r * r / alpha),
    ]


def outcome(call, i):
    # the bits of a value, or the type and message of an error
    try:
        v = call(i)
    except ValueError as exc:  # InputError and DomainError among them
        return type(exc), str(exc)
    return type(v), struct.pack("<d", v)


def zero_r_over_s_at(traj, k):
    inv_s = list(traj.inv_S)
    inv_s[k] = 0.0
    return dataclasses.replace(traj, inv_S=tuple(inv_s))


GROWING = dict(seed=41, steps=60, low=1.05, high=1.3)
DECAYING = dict(seed=42, steps=60, low=0.7, high=0.95)


# (trajectory, inputs, whether some cell is refused): seeded growing and
# decaying trajectories, then NaN rows of every kind _at tells apart: a
# coefficient rule (r/S_7 = 0), M_i^2/S_i underflowed to 0 (model 1e-200),
# an alpha below the moment's order, a prior that takes the second moments
# out of double range, and coefficients that are not finite
@pytest.mark.parametrize("traj,changes,refused", [
    (GROWING, dict(alpha=4.5), False),
    (GROWING, dict(alpha=64.5), False),
    (DECAYING, dict(alpha=4.5), False),
    (DECAYING, dict(alpha=1024.0), False),
    ("zero-r-over-s", dict(alpha=6.0), True),
    ([1e-200, 1e-200, 2.0], dict(alpha=4.5), True),
    (DECAYING, dict(alpha=1.5), True),
    (DECAYING, dict(alpha=5.0, p0=1e200, p_tilde0=1e200), True),
    (DECAYING, dict(alpha=5.0, x0=1e308, x_tilde0=-1e308), True),
], ids=["growing-4.5", "growing-64.5", "decaying-4.5", "decaying-1024", "zero-r-over-s",
        "model-1e-200", "alpha-1.5", "prior-1e200", "x0-1e308"])
def test_every_entry_reads_what_at_reads_and_refuses_what_it_refuses(traj, changes, refused):
    if traj == "zero-r-over-s":
        traj = zero_r_over_s_at(make_trajectory(13, 12), 7)
    elif isinstance(traj, dict):
        traj = make_trajectory(traj["seed"], traj["steps"], low=traj["low"], high=traj["high"])
    else:
        traj = make_trajectory(43, len(traj), kind=traj)
    inp = inputs(**changes)
    errors = 0
    for entry, route in entry_routes(traj, inp):
        for i in range(traj.n_steps + 1):
            got = outcome(entry, i)
            assert got == outcome(route, i), (i, got)
            errors += got[0] is not float
    assert (errors > 0) == refused


# ---------------------------------------------------------------- errors


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_small_alpha_has_means_but_no_second_moments(alpha):
    traj = make_trajectory(11, 30)
    inp = inputs(alpha)
    for i in range(traj.n_steps + 1):
        for entry, spec in zip((expected_dp, expected_dx), dp_dx_specs(traj, inp, i)):
            want = ratio_mean(spec)
            assert entry(traj, inp, i) == pytest.approx(want, rel=1e-14, abs=0.0)
        with pytest.raises(ValueError, match="second moment needs alpha > 2"):
            second_moment_dp(traj, inp, i)
        with pytest.raises(ValueError, match="second moment needs alpha > 2"):
            second_moment_dx(traj, inp, i)


def test_small_alpha_keeps_the_constant_dx():
    traj = make_trajectory(12, 10)
    inp = inputs(1.5, x_tilde0=traj.B_over_S[4])
    const = expected_dx(traj, inp, 4)
    assert second_moment_dx(traj, inp, 4) == const * const
    with pytest.raises(ValueError, match="second moment needs alpha > 2"):
        second_moment_dx(traj, inp, 5)


def test_a_step_with_zero_r_over_s_raises_alone():
    traj = make_trajectory(13, 12)
    k = 7
    inv_s = list(traj.inv_S)
    inv_s[k] = 0.0
    broken = dataclasses.replace(traj, inv_S=tuple(inv_s))
    inp = inputs(6.0)
    for entry in (expected_dp, second_moment_dp, expected_dx, second_moment_dx):
        with pytest.raises(ValueError, match="need c > 0 and d > 0"):
            entry(broken, inp, k)
        # the other steps evaluate as before
        for i in range(traj.n_steps + 1):
            if i != k:
                assert entry(broken, inp, i) == entry(traj, inp, i)
    # the gain's r/S_k = 0 takes its limit q_k instead
    assert po_variance_penalty(broken, 1.1, 6.0, 0.8, k) == \
        broken.M2_over_S[k] ** 4 * 0.8 * 0.8 / 6.0


def test_underflowed_r_over_s_takes_the_gain_limit():
    # m = 2: r/S_i underflows to 0 from step 538 on
    traj = make_trajectory(14, 600, kind="constant", m=2.0)
    first = next(i for i in range(601) if traj.obs_variance * traj.inv_S[i] == 0.0)
    assert 500 < first < 600
    for i in (first - 1, first, 600):
        q = traj.M2_over_S[i]
        gain = dsc.po_gain_mean(traj, 1.0, 5.0, 1.0, i)
        penalty = po_variance_penalty(traj, 1.0, 5.0, 1.0, i)
        if i < first:
            spec = gain_spec(traj, 1.0, 5.0, 1.0, i)
            assert gain == ratio_mean(spec)
            assert penalty == ratio_fourth_moment(spec) / 5.0
        else:
            assert (gain, penalty) == (q, q ** 4 / 5.0)


@pytest.mark.parametrize("i", [-1, 4, 2.5, np.float64(1.0)])
def test_a_step_outside_the_trajectory_is_refused(i, monkeypatch):
    # steps 0..3 on model [2, 0.5, 3]: step -1 must not wrap round to step 3,
    # a fractional step must not truncate to the step below, and each entry
    # refuses either with skf's check and message (test_skf.py), before it
    # builds or looks up a table
    why = "is not an integer" if isinstance(i, float) else r"is outside \[0, 3\]"
    builds = record_builds(monkeypatch)
    traj = make_trajectory(7, 3, kind=[2.0, 0.5, 3.0])
    inp = inputs(6.0)
    gain = (traj, inp.p0, inp.alpha, inp.r, i)
    calls = [lambda: expected_dp(traj, inp, i), lambda: second_moment_dp(traj, inp, i),
             lambda: expected_dx(traj, inp, i), lambda: second_moment_dx(traj, inp, i),
             lambda: dsc.po_gain_mean(*gain), lambda: dsc.po_gain_fourth(*gain),
             lambda: po_variance_penalty(*gain),
             lambda: skf_closed_form(traj, inp.x0, inp.p0, i),
             lambda: dsc.mc_discrepancy_moments(traj, inp, i, 100, RngSpec(7, 3)),
             lambda: dsc.po_mean_identity_check(*gain, 100, RngSpec(7, 3))]
    for call in calls:
        with pytest.raises(IndexError, match=r"^step %s %s$" % (re.escape(repr(i)), why)):
            call()
    assert builds == [] and traj.tables == {}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_key_input_that_is_not_finite_is_refused_before_a_table(bad, monkeypatch):
    # a NaN key never equals itself, so a table kept under it would be built
    # and kept again on every call; each builder refuses the input by name
    builds = record_builds(monkeypatch)
    traj = make_trajectory(7, 3, kind=[2.0, 0.5, 3.0])
    calls = [("x0", lambda: skf_closed_form(traj, bad, 1.1, 2)),
             ("x0", lambda: expected_dx(traj, inputs(6.0, x0=bad), 2)),
             ("x_tilde0", lambda: second_moment_dp(traj, inputs(6.0, x_tilde0=bad), 2)),
             ("p0", lambda: dsc.po_gain_mean(traj, bad, 6.0, 0.8, 2)),
             ("obs_variance", lambda: po_variance_penalty(traj, 1.1, 6.0, bad, 2))]
    for name, call in calls:
        for _ in range(3):
            with pytest.raises(ValueError, match=r"^%s: must be finite, got %s$"
                               % (name, re.escape(repr(bad)))):
                call()
    assert len(builds) == 15 and traj.tables == {}


def test_integer_steps_of_any_integer_type_are_read():
    traj = make_trajectory(7, 3, kind=[2.0, 0.5, 3.0])
    inp = inputs(6.0)
    for step, i in ((np.int64(2), 2), (np.int32(3), 3), (True, 1)):
        assert skf_closed_form(traj, inp.x0, inp.p0, step) == \
            skf_closed_form(traj, inp.x0, inp.p0, i)
        assert type(skf_closed_form(traj, inp.x0, inp.p0, step).step) is int
        assert expected_dp(traj, inp, step) == expected_dp(traj, inp, i)
        assert po_variance_penalty(traj, inp.p0, inp.alpha, inp.r, step) == \
            po_variance_penalty(traj, inp.p0, inp.alpha, inp.r, i)


def test_gain_fourth_moment_needs_alpha_above_four():
    traj = make_trajectory(15, 10)
    with pytest.raises(ValueError, match="fourth moment needs alpha > 4"):
        po_variance_penalty(traj, 1.0, 4.0, 1.0, 3)
    assert math.isfinite(dsc.po_gain_mean(traj, 1.0, 4.0, 1.0, 3))


# ---------------------------------------------------------------- keys


def test_equal_inputs_built_apart_share_one_table(monkeypatch):
    traj = make_trajectory(23, 20)
    a, b = inputs(8.0), inputs(8.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(dataclasses.astuple(a))
    builds = record_builds(monkeypatch)
    assert expected_dp(traj, a, 3) == expected_dp(traj, b, 3)
    assert builds == [("_moment_table", traj, a)]
    assert [key for key in traj.tables if isinstance(key, PerturbedInputs)] == [a]


def test_unequal_inputs_do_not_share_a_table(monkeypatch):
    traj = make_trajectory(24, 20)
    builds = record_builds(monkeypatch)
    base = inputs(8.0)
    # each field moved alone, by the smallest step its double takes
    moved = [dataclasses.replace(base, **{f.name: math.nextafter(getattr(base, f.name), 2.0)})
             for f in dataclasses.fields(base)]
    assert all(inp != base for inp in moved)
    for inp in [base] + moved:
        expected_dp(traj, inp, 0)
    assert builds == [("_moment_table", traj, inp) for inp in [base] + moved]
    assert [key for key in traj.tables if isinstance(key, PerturbedInputs)] == [base] + moved


def test_skf_state_is_a_record_of_six_fields_that_refuses_assignment():
    traj = make_trajectory(25, 5)
    s = skf_closed_form(traj, 0.3, 1.7, 2)
    assert SkfState._fields == ("step", "mean_forecast", "var_forecast", "gain",
                                "mean_analysis", "var_analysis")
    assert s == SkfState(2, s.mean_forecast, s.var_forecast, s.gain, s.mean_analysis,
                         s.var_analysis)
    for name in SkfState._fields:
        with pytest.raises(AttributeError):
            setattr(s, name, 0.0)
    assert s.step == 2


def test_penalty_is_the_gain_fourth_moment_times_r_squared_over_alpha():
    traj = make_trajectory(26, 100, low=0.9, high=1.1)
    for alpha, r in ((4.5, 0.8), (64.5, 1.3), (1024.0, 0.9)):
        for i in range(traj.n_steps + 1):
            want = dsc.po_gain_fourth(traj, 1.1, alpha, r, i) * r * r / alpha
            assert po_variance_penalty(traj, 1.1, alpha, r, i) == want


def test_trajectories_are_keyed_by_identity(monkeypatch):
    a = make_trajectory(21, 40)
    b = make_trajectory(21, 40)
    assert a != b and hash(a) != hash(b)
    inp = inputs(8.0)
    builds = record_builds(monkeypatch)
    for traj in (a, b):
        expected_dp(traj, inp, 0)
    assert builds == [("_moment_table", a, inp), ("_moment_table", b, inp)]
    assert a.tables[inp][:4] == b.tables[inp][:4]
    assert a.tables[inp] is not b.tables[inp]


def test_a_replaced_trajectory_builds_its_own_tables(monkeypatch):
    # the copy may hold other ratios (zero_r_over_s_at), so it must not read
    # the tables of the trajectory it was made from
    traj = make_trajectory(27, 20)
    inp = inputs(8.0)
    want = [table_moments(traj, inp, i) for i in range(traj.n_steps + 1)]
    assert {key for key in traj.tables if not isinstance(key, str)} == {
        inp, ("gain", inp.p0, inp.alpha, inp.r, 1), ("gain", inp.p0, inp.alpha, inp.r, 4)}
    copy = dataclasses.replace(traj)
    assert copy.tables == {}
    builds = record_builds(monkeypatch)
    assert [table_moments(copy, inp, i) for i in range(copy.n_steps + 1)] == want
    assert [b[:2] for b in builds] == [("_moment_table", copy), ("_gain_table", copy),
                                       ("_gain_table", copy)]
    assert copy.tables[inp] is not traj.tables[inp]


def test_tables_go_with_their_trajectory():
    # a trajectory read through every table family, then dropped, is freed
    # with its tables: nothing outside it keeps them
    traj = make_trajectory(22, 30)
    inp = inputs(6.0)
    for i in range(traj.n_steps + 1):
        table_moments(traj, inp, i)
        skf_closed_form(traj, inp.x0, inp.p0, i)
    ref = weakref.ref(traj)
    del traj
    freed_at_once = ref() is None
    gc.collect()
    assert ref() is None
    # and nothing in them refers back to it, so it went with its last
    # reference, before any collection of cycles
    assert freed_at_once
