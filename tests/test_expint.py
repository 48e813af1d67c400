import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlab import DomainError, expint, expint_scaled, expint_scaled_inverse
from filterlab.expint import _FixedOrder, expint_scaled_inverse_shifted_array

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
            assert expint(n, z) == pytest.approx(float(sps.expn(n, z)),
                                                 rel=1e-13)


def test_unscaled_scaled_consistency():
    for nu, z, _ in SCALED_REFERENCE:
        if z > 0:
            assert expint(nu, z) == pytest.approx(
                math.exp(-z) * expint_scaled(nu, z), rel=1e-15)


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
    with mp.workdps(50):
        a, z = mp.mpf(a), mp.mpf(z)
        top = min(140 / (a - 1), mp.log1p(140 / z))
        cuts = [c for c in (1 / (z + a), 1, 10) if c < top]
        return mp.quad(lambda s: mp.exp(-z * mp.expm1(s) - (a - 1) * s),
                       [0] + cuts + [top])


# alpha from near 1 to 256, plus orders within 1e-12 of an integer (the
# series pole) on both sides
ORACLE_ALPHAS = (1.26, 1.5, 2.0, 3.0, 4.5, 16.5, 50.0, 256.0,
                 3.0 - 1e-12, 16.0 + 1e-12)


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_inverse_array_matches_50_digit_roots(alpha):
    # The root solves h(z) = z scaled(alpha, z) = alpha delta (DLMF
    # 8.19.12).  One 50-digit Newton step from the double root lands on
    # the exact root to ~1e-28 relative; the derivative only scales that
    # tiny correction, so its double value is enough.
    deltas = np.array([1e-300, 1e-100, 1e-12, 1e-4 / alpha, 0.1 / alpha,
                       0.5 / alpha, 0.9 / alpha, (1.0 - 1e-3) / alpha])
    saturated = alpha * alpha * deltas / (1.0 - alpha * deltas) - 1.0 >= 700.0
    assert saturated[-1] and not saturated[:4].any()
    z = expint_scaled_inverse_shifted_array(alpha, deltas[~saturated])
    for d, zd in zip(deltas[~saturated], z):
        with mp.workdps(50):
            h = mp.mpf(zd) * _mp_scaled(alpha, zd)
            hp = alpha * (expint_scaled(alpha, zd) - expint_scaled(alpha + 1.0, zd))
            root = mp.mpf(zd) + (mp.mpf(alpha) * mp.mpf(d) - h) / hp
            assert abs(zd - root) <= 1e-12 * root, (d, zd, root)
    for d in deltas[saturated]:
        with pytest.raises(DomainError, match="saturated"):
            expint_scaled_inverse_shifted_array(alpha, [d])


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
    got = [_FixedOrder(alpha + k)(KERNEL_Z) for k in (-1.0, 0.0, 1.0, 2.0)]
    for j, z in enumerate(KERNEL_Z):
        for k, want in enumerate(_mp_orders(alpha, float(z))):
            assert abs(got[k][j] - want) <= 5e-14 * want, (alpha + k - 1.0, z, got[k][j], want)
