import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filterlab import (
    DomainError,
    ModelSequence,
    RngSpec,
    build_trajectory,
    expint,
    expint_scaled,
    expint_scaled_inverse,
    inflation_schedule,
)
from filterlab.expint import (
    _depth,
    _scaled_orders,
    expint_scaled_inverse_shifted,
    expint_scaled_inverse_shifted_array,
)

# Reference values of exp(z) * E_nu(z), 40-digit quadrature of
# integral_0^inf exp(-z*u) (1+u)^(-nu) du, rounded to 17 significant digits.
SCALED_REFERENCE = [
    (1.5, 0.5, 0.68864091516240306),
    (1.5, 1e-06, 1.9964590887559462),
    (2.0, 0.5, 0.53854468375813477),
    (3.0, 2.0, 0.22265723377644517),
    (5.0, 0.3, 0.2280376057667147),
    (7.25, 1.0, 0.13510445814510035),
    (17.5, 12.0, 0.034574451708837911),
    (50.0, 0.0001, 0.020408120748389781),
    (100.0, 700.0, 0.0012501949169070129),
    # orders a hair away from an integer: the series pole must cancel cleanly
    (2.000000001, 0.25, 0.66477863841862341),
    (3.99999999999, 0.75, 0.25142307115202674),
    (1.0, 1.0, 0.59634736232319407),
    (0.5, 2.0, 0.42136922928805447),
]


def _one_order(nu, z):
    # the kernel at one order: row 0 of a one-order pass
    return _scaled_orders((nu,), z)[0]


@pytest.mark.parametrize("nu,z,ref", SCALED_REFERENCE)
def test_scaled_reference_values(nu, z, ref):
    assert expint_scaled(nu, z) == pytest.approx(ref, rel=5e-14)


def test_scaled_at_zero_argument():
    assert expint_scaled(2.0, 0.0) == 1.0
    assert expint_scaled(5.5, 0.0) == 1.0 / 4.5


def test_domain_errors():
    with pytest.raises(DomainError):
        expint_scaled(-0.5, 1.0)
    with pytest.raises(DomainError):
        expint_scaled(2.0, -1.0)
    with pytest.raises(DomainError):
        expint_scaled(1.0, 0.0)  # divergent
    with pytest.raises(DomainError):
        expint_scaled(0.5, 0.0)


def test_unscaled_matches_library_integer_orders():
    # independent route: scipy's E_n for integer n
    for n in (1, 2, 3, 7, 20):
        for z in (0.05, 0.8, 1.0, 3.0, 30.0):
            assert math.exp(-z) * expint_scaled(n, z) == pytest.approx(
                float(sps.expn(n, z)), rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(0.0, 150.0), z=st.floats(1e-6, 700.0))
def test_recurrence_and_sandwich(nu, z):
    # nu * scaled(nu+1, z) + z * scaled(nu, z) = 1
    lo = expint_scaled(nu, z)
    hi = expint_scaled(nu + 1.0, z)
    assert abs(nu * hi + z * lo - 1.0) < 1e-12
    if z + nu > 1.0:
        assert 1.0 / (z + nu) * (1 - 1e-15) <= lo <= 1.0 / (z + nu - 1.0) * (1 + 1e-15)


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(0.5, 100.0), z=st.floats(1e-6, 650.0))
def test_monotone_decreasing_in_z_and_nu(nu, z):
    assert expint_scaled(nu, z * 1.5 + 1e-6) < expint_scaled(nu, z)
    assert expint_scaled(nu + 0.5, z) < expint_scaled(nu, z)


def test_inverse_round_trip_forward_then_back():
    for alpha in (1.5, 2.0, 5.0, 17.0, 50.0):
        for z in (1e-2, 0.3, 1.0, 12.0, 300.0, 699.0):
            y = expint_scaled(alpha + 1.0, z)
            assert expint_scaled_inverse(alpha, y) == pytest.approx(z, rel=1e-10)


def test_inverse_round_trip_back_then_forward():
    # where the forward map is ill-conditioned in z, the value round trip
    # must still close tightly
    for alpha in (1.5, 5.0, 50.0):
        for y in (0.9999 / alpha, 0.9 / alpha, 0.5 / alpha, 1.0 / (600.0 + alpha)):
            z = expint_scaled_inverse(alpha, y)
            assert expint_scaled(alpha + 1.0, z) == pytest.approx(y, rel=1e-12)


def test_inverse_endpoint_and_domain():
    assert expint_scaled_inverse(4.0, 0.25) == 0.0  # y = 1/alpha exactly
    with pytest.raises(DomainError):
        expint_scaled_inverse(4.0, 0.26)  # above the range
    with pytest.raises(DomainError):
        expint_scaled_inverse(4.0, 0.0)
    with pytest.raises(DomainError):
        expint_scaled_inverse(1.0, 0.5)  # alpha must exceed 1


def test_inverse_saturation_is_reported():
    # the root would sit beyond z = 700 where the map is flat in doubles
    with pytest.raises(DomainError, match="saturated"):
        expint_scaled_inverse(2.0, 1e-4)


def _mp_scaled(a, z):
    # 50-digit quadrature of integral_0^inf exp(-z*u) (1+u)^(-a) du in the
    # variable 1+u = e^s, cut where the integrand has fallen below 1e-60
    # (for a <= 1 at z >= 1 only, where the exponential alone gets it there)
    with mp.workdps(50):
        a, z = mp.mpf(a), mp.mpf(z)
        top = mp.log1p(140 / z)
        if a > 1:
            top = min(140 / (a - 1), top)
        cuts = [c for c in (1 / (z + a), 1, 10) if c < top]
        return mp.quad(lambda s: mp.exp(-z * mp.expm1(s) - (a - 1) * s),
                       [0] + cuts + [top])


# alpha from near 1 to 256, plus orders within 1e-12 of an integer (the
# series pole) on both sides
ORACLE_ALPHAS = (1.26, 1.5, 2.0, 3.0, 4.5, 16.5, 50.0, 256.0,
                 3.0 - 1e-12, 16.0 + 1e-12)


# Relative error of a root against its 50-digit value.  The forward kernel
# bounds it: the worst root, at alpha 1.26 and z 0.85, inherits the 1.1e-14
# error of the series at that order and reads 2.9e-14 (2.8e-14 by Newton
# steps); every other order's roots lie within 1e-15 (2e-15 by Newton's)
INVERSE_RTOL = 4e-14


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_inverse_array_matches_50_digit_roots(alpha):
    # The root solves h(z) = z scaled(alpha, z) = alpha delta (DLMF
    # 8.19.12).  One 50-digit Newton step from the double root lands on
    # the exact root to ~1e-28 relative; the derivative only scales that
    # tiny correction, so its double value is enough.  The deltas run from
    # 1e-300 to the top of the domain, with one a decade between 1e-12 and 1
    ends = [1e-300, 1e-100, 1e-12, 1e-4 / alpha, 0.1 / alpha, 0.5 / alpha, 0.9 / alpha,
            (1.0 - 1e-3) / alpha]
    deltas = np.concatenate([ends, np.logspace(-12.0, 0.0, 13) * ((1.0 - 1e-3) / alpha)])
    saturated = alpha * alpha * deltas / (1.0 - alpha * deltas) - 1.0 >= 700.0
    assert saturated[7] and not saturated[:4].any()
    z = expint_scaled_inverse_shifted_array(alpha, deltas[~saturated])
    for d, zd in zip(deltas[~saturated], z):
        with mp.workdps(50):
            h = mp.mpf(zd) * _mp_scaled(alpha, zd)
            hp = alpha * (expint_scaled(alpha, zd) - expint_scaled(alpha + 1.0, zd))
            root = mp.mpf(zd) + (mp.mpf(alpha) * mp.mpf(d) - h) / hp
            assert abs(zd - root) <= INVERSE_RTOL * root, (d, zd, root)
    for d in deltas[saturated]:
        with pytest.raises(DomainError, match="saturated"):
            expint_scaled_inverse_shifted_array(alpha, [d])


@pytest.fixture
def kernel_calls(monkeypatch):
    # the length of every array the inverse hands _scaled_orders
    calls = []

    def counted(nus, z):
        calls.append(len(z))
        return _scaled_orders(nus, z)

    monkeypatch.setattr(expint, "_scaled_orders", counted)
    return calls


def test_inverse_takes_at_most_0p7_of_newtons_kernel_calls(kernel_calls):
    # criterion 7's first 3000 schedules (1 to 7 steps each): Newton from
    # below made 14557 kernel calls on them (61699 element
    # evaluations); Halley's steps make 9387 (41380)
    rng = np.random.default_rng(7)
    for k in range(3000):
        alpha, p0, r = rng.uniform(1.26, 50.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        spec = RngSpec(70_000 + k, 0)
        model = ModelSequence.random_loguniform(int(rng.integers(1, 7)), spec.stream(1),
                                                0.7, 1.4, False)
        inflation_schedule(build_trajectory(model, 1.0, r, spec), alpha, p0, 0.0)
    assert len(kernel_calls) <= 0.7 * 14557
    assert sum(kernel_calls) <= 0.7 * 61699


def test_inverse_stops_where_h_is_flat_to_rounding(kernel_calls):
    # near the cap at small alpha, h is flat enough that rounding keeps a
    # step above _INVERSE_RTOL of the root; the residual test stops there
    # in a few passes, not at _INVERSE_MAXIT
    for alpha in (1.26, 1.5, 2.0, 4.5):
        deltas = np.linspace(0.0, 1.0 / alpha, 2001)[1:-1]
        deltas = deltas[alpha * alpha * deltas / (1.0 - alpha * deltas) < 700.0]
        kernel_calls.clear()
        z = expint_scaled_inverse_shifted_array(alpha, deltas)
        assert z.max() > 500.0
        assert len(kernel_calls) <= 6, alpha


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_inverse_array_matches_the_scalar_entry_exactly(alpha):
    # each root takes the same Halley steps alone as in a batch; the roots
    # run from 0 through z = 1 to several alpha, short of the cap z = 700
    top = (0.9 if alpha <= 50.0 else 0.5) / alpha
    deltas = np.concatenate([[0.0, 1e-300], np.logspace(-12.0, 0.0, 300) * top])
    got = expint_scaled_inverse_shifted_array(alpha, deltas)
    assert got.max() > 1.0
    assert got.tolist() == [expint_scaled_inverse_shifted(alpha, d) for d in deltas.tolist()]


def test_inverse_array_one_bad_element_fails_the_whole_array():
    good = [0.0, 1e-6, 0.01]
    assert expint_scaled_inverse_shifted_array(4.0, good)[0] == 0.0
    for bad in (-1e-300, 0.25, math.nan, 0.2499):  # below, at 1/alpha, nan, saturated
        with pytest.raises(DomainError):
            expint_scaled_inverse_shifted_array(4.0, good + [bad] + good)
    with pytest.raises(DomainError):
        expint_scaled_inverse_shifted_array(1.0, good)


# ---------------------------------------------------------------- scalar entry

# both branches (z < 1 series, z >= 1 continued fraction), orders within
# 1e-12 of an integer on either side, and the z = 0 limit
MEMO_POINTS = [(4.5, 0.3), (4.5, 3.0), (3.0 - 1e-12, 0.6), (3.0 + 1e-12, 0.6),
               (16.0 + 1e-12, 2.5), (255.999999999999, 0.9), (7.0, 0.0)]


@pytest.mark.parametrize("nu,z", MEMO_POINTS)
def test_memo_returns_python_float_for_numpy_scalars(nu, z):
    got = expint_scaled(np.float64(nu), np.float64(z))
    assert type(got) is float
    assert got.hex() == expint_scaled(nu, z).hex()


@pytest.mark.parametrize("nu,z", [(math.nan, 0.5), (2.5, math.nan), (2.5, -1e-300),
                                  (-0.5, 2.0), (1.0, 0.0), (1.0 - 1e-12, 0.0),
                                  (np.float64(0.5), np.float64(0.0))])
def test_memo_never_caches_errors(nu, z):
    for _ in range(3):
        with pytest.raises(DomainError):
            expint_scaled(nu, z)


# ---------------------------------------------------------------- array kernel

# the orders the gamma-ratio moments take, alpha - 1 to alpha + 2, at the
# ensemble half-sizes of the moments benchmark; z log-spaced over
# [1e-3, 1e3] and packed on both sides of the branch point z = 1
KERNEL_ALPHAS = (4.5, 16.0, 64.5, 256.0, 1024.0)
KERNEL_Z = np.concatenate([np.logspace(-3.0, 3.0, 13),
                           [1.0 - 1e-3, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-3]])


def _mp_orders(alpha, z):
    # 50-digit scaled(alpha + k, z) for k = -1..2 from one quadrature and
    # the recurrence nu*scaled(nu+1) + z*scaled(nu) = 1, run in the
    # direction that does not cancel: up from alpha - 1 where z < alpha,
    # down from alpha + 2 elsewhere
    with mp.workdps(50):
        zz = mp.mpf(z)
        if z < alpha:
            vals = [_mp_scaled(alpha - 1.0, z)]
            for k in range(3):
                vals.append((1 - zz * vals[-1]) / (alpha - 1.0 + k))
            return vals
        vals = [_mp_scaled(alpha + 2.0, z)]
        for k in range(3):
            vals.insert(0, (1 - (alpha + 1.0 - k) * vals[0]) / zz)
        return vals


@pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
def test_array_kernel_matches_50_digit_quadrature(alpha):
    got = [_one_order(alpha + k, KERNEL_Z) for k in (-1.0, 0.0, 1.0, 2.0)]
    for j, z in enumerate(KERNEL_Z):
        for k, want in enumerate(_mp_orders(alpha, float(z))):
            assert abs(got[k][j] - want) <= 5e-14 * want, (alpha + k - 1.0, z, got[k][j], want)


# The series' stated bound (see the expint docstring).  Its worst points sit
# just past 0.01 from an integer order up to 5 as z nears 1 (3.14e-13 at
# nu = 1.99), where lgamma(1 + d) leaves its Taylor series; the error falls
# as the order moves off the integer (1.1e-14 at nu = 1.26, z = 0.85, where
# the inverse's worst root sits) and stays near 1e-15 from order 7 up
SERIES_RTOL = 3.2e-13
SERIES_POINTS = [(1.99, 0.99999), (1.011, 0.99999), (2.0101, 0.85), (2.06, 0.99999),
                 (1.26, 0.8503708815016777), (0.5, 0.3), (3.5, 0.5), (4.987, 0.99999),
                 (16.5, 0.9), (1024.0, 1e-6)]


@pytest.mark.parametrize("nu,z", SERIES_POINTS)
def test_series_matches_50_digit_quadrature(nu, z):
    want = _mp_scaled(nu, z)
    assert abs(expint_scaled(nu, z) - want) <= SERIES_RTOL * want


# orders within 1e-9 of an integer on either side, a half-integer and large
# orders; z log-spaced over (0, 1) and packed across z = 1, shuffled so that
# neighbours in the batch are unrelated
BATCH_ORDERS = (0.3, 1.0 - 1e-9, 2.0 + 1e-9, 3.0 - 1e-10, 3.5, 8.0, 16.0 + 1e-9,
                64.5, 1024.0)
BATCH_Z = np.random.default_rng(0).permutation(
    np.concatenate([np.logspace(-6.0, 0.0, 400, endpoint=False), np.linspace(0.9, 1.1, 101)]))


@pytest.mark.parametrize("nu", BATCH_ORDERS)
def test_array_kernel_gives_one_value_per_order_and_z(nu):
    batch = _one_order(nu, BATCH_Z)
    alone = [_one_order(nu, BATCH_Z[j:j + 1])[0] for j in range(len(BATCH_Z))]
    np.testing.assert_array_equal(batch, alone)
    # expint_scaled is the one-element case
    assert batch.tolist() == [expint_scaled(nu, z) for z in BATCH_Z.tolist()]


# ---------------------------------------------------------------- several orders


def _alone(nu, z):
    # the bytes of every element of z evaluated alone at order nu
    return np.array([_one_order(nu, z[j:j + 1])[0] for j in range(len(z))]).tobytes()


# z on every branch: the z = 0 limit, the series, the continued fraction,
# the z = inf limit and NaN
BRANCH_Z = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.floats(1.0, 1e3), st.just(math.inf), st.just(math.nan))
# integer and half-integer orders from 0, among them 1.5 to 3.5, where the
# series prefactor's z ** (n - 1) takes numpy's scalar-exponent fast path
# (n - 1 is 1 or 2), orders just off an integer, and large orders.  Order
# 0's value 1/z is inf at a subnormal z, with no warning
MULTI_ORDERS = st.one_of(st.integers(0, 24).map(lambda k: 0.5 * k),
                         st.sampled_from([2.0 + 1e-9, 3.0 - 1e-10, 16.5, 64.5, 256.0, 1024.0]))


@settings(max_examples=80, deadline=None)
# orders below 1 at a subnormal z, where the series prefactor z^(nu - 1)
# overflows to inf at order 0 (and stays finite at 0.25 and 0.75)
@example(nus=[0.0, 0.25, 0.75], z=[5e-324, 1e-310])
@given(nus=st.lists(MULTI_ORDERS, min_size=1, max_size=4, unique=True),
       z=st.lists(BRANCH_Z, min_size=1, max_size=40))
def test_a_multi_order_pass_gives_each_element_its_one_order_value(nus, z):
    z = np.array(z)
    got = _scaled_orders(nus, z)
    assert got.shape == (len(nus), len(z))
    for nu, row in zip(nus, got):
        assert row.tobytes() == _alone(nu, z), nu


@pytest.mark.parametrize("nus", [(1.5, 2.5, 3.5), (3.5, 4.5, 5.5), (15.0, 16.0, 17.0),
                                 (1023.0, 1024.0, 1025.0), (0.3, 64.5, 8.0, 2.0 + 1e-9)])
def test_a_multi_order_pass_over_long_batches(nus):
    # batches long and deep enough that the fraction runs in numpy with every
    # order's elements sorted by depth together, and the series sums every
    # order's rows at once, and a short one whose fraction runs element by
    # element in Python
    for z in (BATCH_Z, _fraction_z(), np.concatenate([BATCH_Z[:40], _fraction_z()[:60]]),
              _fraction_z()[:6]):
        got = _scaled_orders(nus, z)
        for nu, row in zip(nus, got):
            assert row.tobytes() == _one_order(nu, z).tobytes() == _alone(nu, z), nu


def test_the_fraction_runs_in_bounded_memory():
    # 1e5 fraction elements of one order, deepest at z = 1: the numpy path
    # holds two (depth x chunk) arrays at a time beside arrays of a few
    # doubles per element, and each element keeps the bits it gets alone
    n = 100_000
    z = np.linspace(1.0, 3.0, n)
    rows = int(_depth(4.5, 1.0)) + 1
    bound = 2 * rows * expint._CHUNK * 8 + 16 * 8 * n
    assert expint._CHUNK >= 303 and bound < 32 * 2 ** 20
    tracemalloc.start()
    try:
        got = _one_order(4.5, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)
    # a sample across every chunk
    assert got[::997].tobytes() == _alone(4.5, z[::997])


# ---------------------------------------------------------------- continued fraction

# orders from 0 (where the fraction is 1/z after one term) to 4097, where
# the depth is set by the order alone
FRACTION_ORDERS = (0.0, 0.5, 1.0, 1.26, 3.5, 4.5, 16.0, 64.5, 256.0, 1024.0, 4097.0)
FRACTION_RTOL = 1e-15


def _fraction_z():
    # z log-spaced over [1, 1e3], and on either side of every step of the
    # depth's z term floor(7 + 108 z^(-3/4)), which falls to j - 1 at
    # z = (108/(j - 7))^(4/3), shuffled so that neighbours are unrelated
    steps = [(108.0 / (j - 7)) ** (4.0 / 3.0) for j in range(8, 115)]
    sides = np.multiply.outer(steps, [1.0 - 1e-12, 1.0 + 1e-12]).ravel()
    z = np.concatenate([np.logspace(0.0, 3.0, 61), sides])
    return np.random.default_rng(1).permutation(z)


def _batches(z):
    # consecutive runs of 1, 2, 3, 5, 8, ... elements, then the whole array
    sizes, a, b = [], 1, 2
    while sum(sizes) + a <= len(z):
        sizes.append(a)
        a, b = b, a + b
    return np.split(z, np.cumsum(sizes)) + [z]


def test_depth_takes_every_step_in_z():
    # the same depth for an element alone, in a one-element array, as in an
    # array
    z = _fraction_z()
    for nu in FRACTION_ORDERS:
        k = _depth(nu, z).astype(int).tolist()
        assert k == [int(_depth(nu, z[j:j + 1])[0]) for j in range(len(z))]
    assert sorted(set(_depth(0.5, z).astype(int).tolist())) == list(range(7, 116))


@pytest.mark.parametrize("nu", FRACTION_ORDERS)
def test_fraction_gives_one_value_per_order_and_z(nu):
    # a batch runs in numpy when its terms, k.sum(), exceed
    # _ITERATION_TERMS times its deepest k (so it has more elements than
    # that), else one element at a time in Python floats; both must occur
    paths = set()
    for batch in _batches(_fraction_z()):
        k = _depth(nu, batch).astype(int)
        paths.add(bool(k.sum() > expint._ITERATION_TERMS * k.max()))
        got = _one_order(nu, batch)
        alone = [_one_order(nu, batch[j:j + 1])[0] for j in range(len(batch))]
        np.testing.assert_array_equal(got, alone)
        assert got.tolist() == [expint_scaled(nu, z) for z in batch.tolist()]
    assert paths == {False, True}


@pytest.mark.parametrize("nu", FRACTION_ORDERS)
def test_fraction_matches_50_digit_quadrature(nu):
    z = np.logspace(0.0, math.log10(700.0), 9)
    got = _one_order(nu, z)
    for zj, g in zip(z.tolist(), got.tolist()):
        want = _mp_scaled(nu, zj)
        assert abs(g - want) <= FRACTION_RTOL * want, (nu, zj, g, want)


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(0.0, 5000.0), z=st.floats(1.0, 1000.0))
def test_fraction_matches_50_digit_quadrature_anywhere(nu, z):
    want = _mp_scaled(nu, z)
    assert abs(expint_scaled(nu, z) - want) <= FRACTION_RTOL * want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fraction_is_converged_at_its_depth(monkeypatch):
    # doubling every depth moves no value by more than 2 ulp
    z = np.logspace(0.0, 3.0, 400)
    orders = np.concatenate([np.linspace(0.0, 10.0, 41), np.logspace(1.0, 4.0, 60)])
    at_depth = [_one_order(nu, z) for nu in orders.tolist()]
    monkeypatch.setattr(expint, "_depth", lambda nu, z, depth=_depth: 2 * depth(nu, z))
    for nu, got in zip(orders.tolist(), at_depth):
        deeper = _one_order(nu, z)
        assert (np.abs(got - deeper) <= 2.0 * np.spacing(deeper)).all(), nu


# ---------------------------------------------------------------- domain limits


@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0, 64.5])
def test_scaled_is_zero_at_infinite_z(nu):
    assert expint_scaled(nu, math.inf) == 0.0


@pytest.mark.parametrize("nu", BATCH_ORDERS)
def test_array_kernel_takes_the_limits_at_the_ends_of_the_domain(nu):
    z = np.array([0.0, 1e300, math.inf])
    got = _one_order(nu, z)
    np.testing.assert_array_equal(got, [_one_order(nu, z[j:j + 1])[0] for j in range(3)])
    # 1/(nu - 1) at z = 0, diverging for nu <= 1; 0 at z = inf
    assert got[0] == (1.0 / (nu - 1.0) if nu > 1.0 else math.inf)
    assert got[1] == pytest.approx(1e-300, rel=1e-15)
    assert got[2] == 0.0
