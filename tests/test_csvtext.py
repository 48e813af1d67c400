"""The vectorized CSV writer prints the bytes of one "%.17g" per value."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from filterlab._csvtext import _BLOCK, _pow10, csv_text


def per_value(table):
    # the reference: one "%.17g" per value, commas, a newline per row
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def assert_prints_as_per_value(values):
    column = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    got, want = csv_text(column).splitlines(), per_value(column).splitlines()
    bad = [(v, g, w) for v, g, w in zip(column[:, 0].tolist(), got, want) if g != w]
    assert (len(got), bad[:5]) == (len(want), [])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_any_table_prints_as_per_value(table):
    assert csv_text(table) == per_value(table)


def test_random_bit_patterns_print_as_per_value():
    # 10^6 doubles of uniform random bits: every exponent, NaNs among them
    rng = np.random.default_rng(20261021)
    for _ in range(10):
        assert_prints_as_per_value(
            rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64))


def test_powers_of_ten_and_their_neighbours_print_as_per_value():
    powers = np.array([float("1e%d" % e) for e in range(-323, 309)])
    assert_prints_as_per_value(np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))


def test_the_g_switch_points_print_as_per_value():
    # fixed notation from 1e-4 up to below 1e17, exponent notation outside
    points = np.array([1e-5, 1e-4, 1e16, 1e17])
    edges = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, np.inf)])
    assert_prints_as_per_value(np.concatenate([edges, -edges]))


def test_each_power_pair_is_ten_to_the_s():
    # every exponent 16 - k the fast path asks for, |x| in [1e-250, 1e250]:
    # hi is 10^s rounded, lo the rest rounded
    for s in range(-234, 267):
        hi, lo = _pow10(s)
        exact = Fraction(10) ** s
        assert (hi, lo) == (float(exact), float(exact - Fraction(hi))), s


def test_a_column_of_every_fallback_class_prints_as_per_value():
    fallbacks = [
        0.0, -0.0,  # zeros
        np.nan, np.inf, -np.inf,  # not finite
        5e-324, 1e-300, 1e300, -1.7976931348623157e308,  # outside [1e-250, 1e250]
        1e15 + 0.25,  # an exact tie at the 17th digit
        np.nextafter(1000.0, 0.0),  # log10 rounds up to the next decade
        np.nextafter(1e-14, 0.0),  # 17 digits round up to 1e-14
    ]
    rng = np.random.default_rng(5)
    shape = (len(fallbacks), 4)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
    table[:, 2] = fallbacks
    assert csv_text(table) == per_value(table)
    assert csv_text(table).splitlines()[9].split(",")[2] == "1000000000000000.2"


def test_a_table_of_many_blocks_prints_as_per_value():
    # 7 columns do not divide a block, so each block ends inside a row's
    # worth of values; zeros and a NaN fall in every block
    rng = np.random.default_rng(29)
    shape = (3 * _BLOCK // 7 + 5, 7)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    table[::1000, 3] = 0.0
    table[::997, 5] = np.nan
    assert csv_text(table) == per_value(table)


def test_an_empty_table_prints_nothing():
    assert csv_text(np.empty((0, 3))) == ""
    assert csv_text([]) == ""
