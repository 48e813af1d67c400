import math

import numpy as np
import pytest
from scipy.integrate import quad

from filterlab import (
    GammaRatioSpec,
    gamma_ratio,
    ratio_fourth_moment,
    ratio_mean,
    ratio_second_moment,
)
from conftest import ratio_pdf, ratio_support

# independent oracle: 2 e^2 E_3(2), 40-digit quadrature of y * f_Y(y) for
# Y = X/(X+1), X ~ Gamma(2, 1/2)
MEAN_X_OVER_X_PLUS_1 = 0.445314467552890339


def random_specs(seed, n, b_zero=False, alpha_lo=2.5, alpha_hi=30.0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        b = 0.0 if b_zero else rng.uniform(-2.0, 2.0)
        c = rng.uniform(0.2, 3.0)
        d = rng.uniform(0.2, 3.0)
        if abs(a * d - b * c) < 1e-3:
            continue
        out.append(GammaRatioSpec(a=a, b=b, c=c, d=d,
                                  alpha=rng.uniform(alpha_lo, alpha_hi),
                                  p=rng.uniform(0.3, 3.0)))
    return out


def quad_moment(spec, k):
    lo, hi = ratio_support(spec)
    val, err = quad(lambda y: y ** k * ratio_pdf(spec, y), lo, hi,
                    limit=800, epsabs=1e-13, epsrel=1e-11)
    assert err < 1e-8 * max(abs(val), 1e-3)
    return val


def test_spec_validation():
    with pytest.raises(ValueError, match="c > 0"):
        GammaRatioSpec(a=1, b=0, c=0, d=1, alpha=2, p=1)
    with pytest.raises(ValueError, match="c > 0"):
        GammaRatioSpec(a=1, b=0, c=1, d=-1, alpha=2, p=1)
    with pytest.raises(ValueError, match="constant"):
        GammaRatioSpec(a=2, b=1, c=2, d=1, alpha=2, p=1)
    with pytest.raises(ValueError, match="alpha"):
        GammaRatioSpec(a=1, b=0, c=1, d=1, alpha=1.0, p=1)
    with pytest.raises(ValueError, match="p > 0"):
        GammaRatioSpec(a=1, b=0, c=1, d=1, alpha=2, p=0.0)


def test_support_and_pdf_outside():
    spec = GammaRatioSpec(a=1, b=0, c=1, d=1, alpha=2, p=1)
    lo, hi = ratio_support(spec)
    assert (lo, hi) == (0.0, 1.0)
    assert ratio_pdf(spec, -0.1) == 0.0
    assert ratio_pdf(spec, 1.1) == 0.0
    assert ratio_pdf(spec, 0.5) > 0.0
    # decreasing ratio: support endpoints swap
    spec2 = GammaRatioSpec(a=-1, b=1, c=1, d=1, alpha=2, p=1)
    lo2, hi2 = ratio_support(spec2)
    assert lo2 == -1.0 and hi2 == 1.0


def test_pdf_normalizes():
    for spec in random_specs(101, 20):
        lo, hi = ratio_support(spec)
        total, err = quad(lambda y: ratio_pdf(spec, y), lo, hi, limit=400)
        assert abs(total - 1.0) < 1e-8


def test_moments_match_quadrature():
    for spec in random_specs(202, 20):
        assert ratio_mean(spec) == pytest.approx(quad_moment(spec, 1),
                                                 rel=1e-7, abs=1e-10)
        assert ratio_second_moment(spec) == pytest.approx(
            quad_moment(spec, 2), rel=1e-7, abs=1e-10)


def test_fourth_moment_matches_quadrature():
    for spec in random_specs(303, 10, b_zero=True, alpha_lo=4.5,
                             alpha_hi=25.0):
        assert ratio_fourth_moment(spec) == pytest.approx(
            quad_moment(spec, 4), rel=1e-7)


def test_frozen_mean_value():
    spec = GammaRatioSpec(a=1, b=0, c=1, d=1, alpha=2, p=1)
    assert ratio_mean(spec) == pytest.approx(MEAN_X_OVER_X_PLUS_1, rel=5e-14)


def test_mean_degenerate_limit():
    # alpha -> infinity: X -> p almost surely, so Y -> (ap+b)/(cp+d)
    spec = GammaRatioSpec(a=1.3, b=0.4, c=0.9, d=1.1, alpha=1e6, p=0.8)
    lim = (1.3 * 0.8 + 0.4) / (0.9 * 0.8 + 1.1)
    assert ratio_mean(spec) == pytest.approx(lim, rel=1e-4)


def test_variance_shrinks_with_alpha():
    vs = []
    for alpha in (10.0, 100.0, 1000.0, 10000.0):
        spec = GammaRatioSpec(a=1.0, b=0.0, c=1.0, d=1.0, alpha=alpha, p=1.0)
        m = ratio_mean(spec)
        v = ratio_second_moment(spec) - m * m
        assert v > 0.0
        vs.append(v)
    assert vs[0] > vs[1] > vs[2] > vs[3]
    # delta method: Var ~ (d(ad-bc))^2 p^2 / ((cp+d)^4 alpha)
    assert vs[3] == pytest.approx(1.0 / (16.0 * 10000.0), rel=0.01)


def test_fourth_moment_degenerate_limit():
    # the closed form loses ~3 digits per decade of alpha to cancellation;
    # at alpha = 1000 it must still agree with the deterministic limit
    # (a p / (c p + d))^4 to the 1/alpha correction level
    spec = GammaRatioSpec(a=1.0, b=0.0, c=6.0, d=1.0, alpha=1000.0, p=1.0)
    lim = (1.0 / 7.0) ** 4
    assert ratio_fourth_moment(spec) == pytest.approx(lim, rel=2e-2)
    assert ratio_fourth_moment(spec) >= ratio_second_moment(spec) ** 2


def test_near_degenerate_spec_collapses():
    spec = GammaRatioSpec(a=1.0, b=1.0 / (1.0 + 1e-12), c=1.0, d=1.0,
                          alpha=3.0, p=1.0)
    assert ratio_mean(spec) == pytest.approx(1.0, rel=1e-9)


def test_moments_match_monte_carlo():
    rng = np.random.default_rng(404)
    for spec in random_specs(404, 4):
        x = rng.gamma(spec.alpha, spec.p / spec.alpha, size=1_000_000)
        ys = (spec.a * x + spec.b) / (spec.c * x + spec.d)
        lo, hi = ratio_support(spec)
        assert np.all(ys > lo) and np.all(ys < hi)
        se1 = math.sqrt(np.var(ys) / len(ys))
        assert abs(np.mean(ys) - ratio_mean(spec)) < 4.0 * se1
        y2 = ys * ys
        se2 = math.sqrt(np.var(y2) / len(ys))
        assert abs(np.mean(y2) - ratio_second_moment(spec)) < 4.0 * se2


def test_pdf_matches_histogram():
    # X/(X+1) with alpha=2, p=1: empirical bin masses vs integrated density
    spec = GammaRatioSpec(a=1, b=0, c=1, d=1, alpha=2, p=1)
    rng = np.random.default_rng(505)
    x = rng.gamma(2.0, 0.5, size=500_000)
    ys = x / (x + 1.0)
    edges = np.linspace(0.0, 1.0, 21)
    counts, _ = np.histogram(ys, bins=edges)
    n = len(ys)
    for k in range(20):
        mass, _ = quad(lambda y: ratio_pdf(spec, y), edges[k], edges[k + 1])
        se = math.sqrt(mass * (1.0 - mass) / n)
        assert abs(counts[k] / n - mass) < 4.0 * se + 1e-9


def test_array_spec_is_elementwise():
    # one Y per element, scalars broadcasting against arrays, each equal to
    # its float spec bit for bit, an element whose z underflows to 0 (the
    # kernel's z = 0 limit) included; an element that a float spec would
    # reject (d = 0) comes out NaN
    specs = [GammaRatioSpec(float(s.a), 0.0, float(s.c), float(s.d), 8.0, 1.3)
             for s in random_specs(606, 6, b_zero=True)]
    specs.append(GammaRatioSpec(1.0, 0.0, 1e10, 5e-324, 8.0, 1.3))
    assert specs[-1].z == 0.0
    a = np.array([s.a for s in specs] + [1.0])
    c = np.array([s.c for s in specs] + [1.0])
    d = np.array([s.d for s in specs] + [0.0])
    spec = GammaRatioSpec(a, 0.0, c, d, 8.0, 1.3)
    for fn, tiny in ((ratio_mean, 1e-10), (ratio_second_moment, 1e-20),
                     (ratio_fourth_moment, 1e-40)):
        got = fn(spec)
        want = [fn(s) for s in specs]
        assert type(want[0]) is float
        np.testing.assert_array_equal(got[:-1], want)
        assert got[-2] == pytest.approx(tiny, rel=1e-15)
        assert np.isnan(got[-1])
    with pytest.raises(ValueError, match="c > 0"):
        GammaRatioSpec(1.0, 0.0, 1.0, 0.0, 8.0, 1.3)


def test_an_array_spec_evaluates_the_orders_it_reads_in_one_pass(monkeypatch):
    # a moment evaluates in one pass the orders it reads that the spec has
    # not yet evaluated: a table that asks for its second moments first
    # makes one pass, and its means read two of those orders; in the other
    # order the second moment adds alpha - 1 alone, and a mean or fourth
    # moment alone evaluates only its orders.  Every route gives the float
    # specs' values bit for bit, with z on both sides of alpha, where order
    # alpha - 1 recurs down from alpha
    passes = []
    real = gamma_ratio._scaled_orders
    monkeypatch.setattr(gamma_ratio, "_scaled_orders",
                        lambda nus, z: passes.append(list(nus)) or real(nus, z))
    rng = np.random.default_rng(808)
    a, b = rng.uniform(0.2, 3.0, 12), rng.uniform(-2.0, 2.0, 12)
    c, d = rng.uniform(0.2, 3.0, 12), np.exp(rng.uniform(-6.0, 3.0, 12))
    alpha, p = 6.5, 1.3
    floats = [GammaRatioSpec(*v, alpha, p) for v in zip(a.tolist(), b.tolist(), c.tolist(),
                                                         d.tolist())]
    table = GammaRatioSpec(a, b, c, d, alpha, p)
    assert (table.z < 1.0).any() and (table.z >= alpha).any()
    second, mean = ratio_second_moment(table), ratio_mean(table)
    assert passes == [[alpha + 1.0, alpha, alpha - 1.0]]
    np.testing.assert_array_equal(mean, [ratio_mean(s) for s in floats])
    np.testing.assert_array_equal(second, [ratio_second_moment(s) for s in floats])
    passes.clear()
    plain = GammaRatioSpec(a, b, c, d, alpha, p)
    np.testing.assert_array_equal(ratio_mean(plain), mean)
    assert passes == [[alpha + 1.0, alpha]]
    np.testing.assert_array_equal(ratio_second_moment(plain), second)
    assert passes == [[alpha + 1.0, alpha], [alpha - 1.0]]
    passes.clear()
    ratio_fourth_moment(GammaRatioSpec(a, 0.0, c, d, alpha, p))
    assert passes == [[alpha]]
