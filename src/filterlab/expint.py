"""Real-order generalized exponential integral, scaled variant, and its inverse.

The central object is the scaled function

    scaled(nu, z) = exp(z) * integral_1^inf exp(-z*t) t^(-nu) dt
                  = integral_0^inf exp(-z*u) (1+u)^(-nu) du

for real order nu >= 0 and z in [0, inf].  Working with the scaled form
avoids the exp(-z) underflow that makes the unscaled integral vanish below
1e-300 for z beyond ~700, and it is the quantity every downstream formula
actually consumes.  The kernel takes the limits 1/(nu-1) at z = 0 (inf for
nu <= 1, where expint_scaled raises DomainError) and 0 at z = inf.

Two complementary evaluation schemes cover the rest:

  * 1 <= z < inf: modified Lentz continued fraction, evaluated directly in
    the scaled form so no exponential factor is ever applied.
  * 0 < z < 1: power series at the exact (real) order, summed by Horner's
    rule over a fixed list of coefficients per order.  The classical
    series has a simple pole in the order at every positive integer; the
    pole term from the Gamma prefactor and the offending series term are
    combined analytically through expm1, which keeps the evaluation
    uniformly accurate arbitrarily close to integer orders.

One kernel, _scaled_array, evaluates one order over an array of z.  Each
element goes through the same float operations whatever else the array
holds, so a value does not depend on its batch: the inverse below and the
gamma-ratio trajectory tables call it on arrays, and expint_scaled is its
one-element case.

Against 50-digit quadrature of the defining integral, the worst relative
error observed is 6.6e-15 on the series (at nu = 3.5; 40 z in [1e-6, 0.999]
for 14 orders in [0.5, 1024], some within 1e-12 of an integer) and 4.3e-15
on the continued fraction (orders 3.5 to 1026 over z in [1, 1e3]).

The inverse problem scaled(alpha+1, z) = 1/alpha - delta is solved for a
whole array of shifts delta at once.  By the recurrence DLMF 8.19.12,
alpha*scaled(alpha+1, z) = 1 - z*scaled(alpha, z), so the root solves

    h(z) = z * scaled(alpha, z) = alpha * delta,

which involves no cancellation against the z = 0 limit 1/alpha.  h is
increasing and concave, and by DLMF 8.19.13 (E_p' = -E_{p-1}) its
derivative comes with the same evaluation: h'(z) = alpha*scaled(alpha, z)
+ h(z) - 1, so each Newton iteration costs one evaluation where the
secant needs two.  Newton started below the root (at the larger of the
sandwich-bracket end and the tangent root at z = 0) climbs to it
monotonically without overshooting, and every unresolved element takes
its step together.  Elements below z = 1 evaluate scaled(alpha, z) with
the Horner series at one fixed order.  Elements at z >= 1 (about one root
in a hundred along a long schedule) keep the scalar Lentz continued
fraction, one element at a time: each fraction stops after its own number
of terms, from a handful at large z to ~100 near z = 1, which a fixed-size
array block could only match by always paying for the worst case.
"""

import functools
import math

import numpy as np

__all__ = [
    "DomainError",
    "expint",
    "expint_scaled",
    "expint_scaled_inverse",
    "expint_scaled_inverse_shifted",
    "expint_scaled_inverse_shifted_array",
]

_TINY = 1e-300
_EULER_GAMMA = 0.5772156649015328606065

# z below which the inverse problem is treated as saturated: the target
# value is so small that no double-precision z in the supported range
# reproduces it.
_Z_CAP = 700.0

# Newton stops at a step below this fraction of the root, or after this many steps
_INVERSE_RTOL = 1e-14
_INVERSE_MAXIT = 200

# The continued fraction stops at a step within this of 1, or after this many
_CF_RTOL = 5e-16
_CF_MAXIT = 20000


class DomainError(ValueError):
    """Argument outside the mathematical domain of the requested function."""


def _cf_scaled(nu, z):
    # Modified Lentz evaluation of the continued fraction
    #   1/(z+nu-) 1*(nu)/(z+nu+2-) 2*(nu+1)/(z+nu+4-) ...
    # which converges for z >= 1 at every nu >= 0; the limits 1/(nu-1) at
    # z = 0 (inf for nu <= 1) and 0 at z = inf, and NaN off the domain.
    if not 0.0 < z < math.inf:
        if z == 0.0:
            return 1.0 / (nu - 1.0) if nu > 1.0 else math.inf
        return 0.0 if z == math.inf else math.nan
    b = z + nu
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    # -tol < x < tol is abs(x) < tol for every double, NaN included
    nu1 = nu - 1.0
    for i in range(1, _CF_MAXIT):
        a = -i * (nu1 + i)
        b += 2.0
        d = a * d + b
        if -_TINY < d < _TINY:
            d = _TINY
        c = b + a / c
        if -_TINY < c < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -_CF_RTOL < delta - 1.0 < _CF_RTOL:
            return h
    raise RuntimeError("continued fraction failed to converge at nu=%g z=%g" % (nu, z))


# zeta(2) .. zeta(8), for the Taylor series of lgamma(1+d) about d=0.
_ZETA = (
    1.6449340668482264365,
    1.2020569031595942854,
    1.0823232337111381916,
    1.0369277551433699263,
    1.0173430619844491397,
    1.0083492773819228268,
    1.0040773561979443394,
)


def _lgamma1p(d):
    # lgamma(1+d) with small *absolute* error near d=0, where the library
    # lgamma only promises small relative error of the (tiny) result.
    if abs(d) > 0.01:
        return math.lgamma(1.0 + d)
    s = -_EULER_GAMMA * d
    qk = -d
    for k, zk in enumerate(_ZETA, start=2):
        qk *= -d
        s += zk * qk / k
    return s


def _lgamma_shift(n, d):
    # lgamma(n+d) - lgamma(n) for integer n >= 1 and small |d|, computed
    # without subtracting two O(lgamma(n)) quantities.
    s = _lgamma1p(d)
    for j in range(1, n):
        s += math.log1p(d / j)
    return s


def _psi_int(n):
    # digamma at a positive integer
    s = -_EULER_GAMMA
    for j in range(1, n):
        s += 1.0 / j
    return s


@functools.lru_cache(maxsize=256)
def _pole_order(nu):
    # Order-only pieces (n, d, scale, a, b, coef) of the series, with
    # n = round(nu) and d = nu - n; see _series.  Cached: callers such as
    # the gamma-ratio moments revisit a few orders many times, and the
    # digamma and log-Gamma sums cost O(n).
    n = int(round(nu))
    d = nu - n
    # coef[k] = 1/(k! (k+1-nu)) for k < terms, 0 at the pole term k = n-1
    # that c(z) carries.  The first dropped term z^terms/terms! is below
    # 1/terms! <= 1e-18/(1+nu), a relative 6e-18 of the result (which
    # exceeds 1/(1+nu)): 20 terms at nu = 0, 23 at nu = 1e4.
    terms = 1
    while math.factorial(terms) * (1e-18 / (1.0 + nu)) < 1.0:
        terms += 1
    coef = [0.0 if k == n - 1 else 1.0 / (math.factorial(k) * (k + 1.0 - nu))
            for k in range(terms)]
    if n == 0:
        return n, d, math.gamma(1.0 - nu), 0.0, 0.0, coef
    if d == 0.0:
        a, b = 0.0, _psi_int(n)
    else:
        # a = log(pi*d / sin(pi*d)) via the reflection identity
        # pi*d/sin(pi*d) = Gamma(1+d)*Gamma(1-d), which keeps full absolute
        # accuracy as d -> 0 (the direct log underflows against 1 below
        # |d| ~ 1e-8)
        a, b = _lgamma1p(d) + _lgamma1p(-d), _lgamma_shift(n, d)
    return n, d, (-1.0) ** n * math.exp(-math.lgamma(n)), a, b, coef


def _series(nu, z):
    # scaled(nu, z) over an array of 0 < z < 1 from the power series
    #     scaled(nu, z) = (c(z) - sum_{k != n-1} (-z)^k / (k! (k+1-nu))) e^z,
    # the sum by Horner's rule over the same coefficients at every z.  For
    # n >= 1 the prefactor c(z) is the Gamma(1-nu) z^(nu-1) term plus the
    # k = n-1 series term, which both blow up as d -> 0 while their sum stays
    # finite:  c = (-1)^n z^(n-1) / Gamma(n) * h  with
    # h = expm1(d log z + a - b) / d, or log z - psi(n) at d = 0.
    n, d, scale, a, b, coef = _pole_order(nu)
    if n == 0:
        c = scale * z ** (d - 1.0)
    else:
        log_z = np.log(z)
        h = log_z - b if d == 0.0 else np.expm1(d * log_z + a - b) / d
        c = scale * z ** (n - 1.0) * h
    nz = -z
    s = np.full_like(z, coef[-1])
    for a_k in reversed(coef[:-1]):
        s *= nz
        s += a_k
    return (c - s) * np.exp(z)


def _scaled_array(nu, z):
    """scaled(nu, z) at one order for a 1-d array of z in [0, inf]: the
    Horner series where 0 < z < 1, _cf_scaled one element at a time
    elsewhere (NaN for a NaN z).  Every element takes the same float
    operations in any batch, so it gets the value a one-element array would."""
    out = np.empty_like(z)
    small = (z > 0.0) & (z < 1.0)
    if small.any():
        out[small] = _series(nu, z[small])
    rest = ~small
    # Python floats: numpy scalars would slow the Lentz loop twofold
    out[rest] = [_cf_scaled(nu, t) for t in z[rest].tolist()]
    return out


def expint_scaled(nu, z):
    """exp(z) * E_nu(z) for nu >= 0, z >= 0 (z > 0 when nu <= 1), 0 at z = inf."""
    if not (nu >= 0.0) or not (z >= 0.0):
        raise DomainError("expint_scaled requires nu >= 0 and z >= 0, got nu=%r z=%r" % (nu, z))
    if z == 0.0 and nu <= 1.0:
        raise DomainError("E_nu(0) diverges for nu <= 1 (nu=%r)" % (nu,))
    return float(_scaled_array(float(nu), np.array([float(z)]))[0])


def expint(nu, z):
    """E_nu(z) = integral_1^inf exp(-z*t) t^(-nu) dt.

    Underflows gracefully (subnormal, then 0.0) for z beyond ~745; prefer
    expint_scaled whenever the caller can absorb the exp(z) factor.
    """
    return math.exp(-z) * expint_scaled(nu, z)


def expint_scaled_inverse(alpha, y):
    """Solve exp(z) * E_{alpha+1}(z) = y for z >= 0.

    Requires alpha > 1 and 0 < y <= 1/alpha (the range of the scaled
    function on z >= 0).  Raises DomainError when y is out of range and
    when the bracketed root exceeds the supported cap of z = 700, where
    the forward map is flat to double precision and the inverse problem
    is saturated.
    """
    if not (alpha > 1.0):
        raise DomainError("expint_scaled_inverse requires alpha > 1, got %r" % (alpha,))
    if not (0.0 < y <= 1.0 / alpha):
        raise DomainError(
            "expint_scaled_inverse requires 0 < y <= 1/alpha; got y=%r with 1/alpha=%r"
            % (y, 1.0 / alpha)
        )
    return expint_scaled_inverse_shifted(alpha, 1.0 / alpha - y)


def expint_scaled_inverse_shifted(alpha, delta):
    """Solve exp(z) * E_{alpha+1}(z) = 1/alpha - delta for z >= 0.

    Parameterizing by the shift delta = 1/alpha - y instead of y itself
    keeps the root accurate where the target sits within roundoff of the
    z = 0 limit 1/alpha.  Requires alpha > 1 and 0 <= delta < 1/alpha.
    The scalar entry of expint_scaled_inverse_shifted_array.
    """
    return float(expint_scaled_inverse_shifted_array(alpha, delta))


def expint_scaled_inverse_shifted_array(alpha, delta):
    """Solve exp(z) * E_{alpha+1}(z) = 1/alpha - delta for every element of
    the array delta, at one alpha; returns the roots z >= 0 in delta's shape.

    Requires alpha > 1 and 0 <= delta < 1/alpha elementwise.  One element
    out of range, or one root beyond the supported cap z = 700 (where the
    forward map is flat to double precision and the inverse is saturated),
    raises DomainError for the whole array.  Every root carries relative
    precision _INVERSE_RTOL in z.
    """
    shape = np.shape(delta)
    delta = np.asarray(delta, dtype=float).ravel()
    if not (alpha > 1.0):
        raise DomainError("expint_scaled_inverse_shifted requires alpha > 1, got %r" % (alpha,))
    bad = ~((delta >= 0.0) & (delta < 1.0 / alpha))
    if bad.any():
        raise DomainError(
            "expint_scaled_inverse_shifted requires 0 <= delta < 1/alpha; got delta=%r"
            % (float(delta[bad][0]),)
        )
    # sandwich 1/(z+alpha+1) < scaled(alpha+1, z) <= 1/(z+alpha) gives
    # 1/y - alpha = alpha^2 delta / (1 - alpha delta) as the upper endpoint
    hi = alpha * alpha * delta / (1.0 - alpha * delta)
    lo = np.maximum(hi - 1.0, 0.0)
    if (lo >= _Z_CAP).any():
        k = int(np.argmax(lo >= _Z_CAP))
        raise DomainError(
            "inverse saturated: target shift delta=%r needs z >= %g, beyond the supported cap %g"
            % (float(delta[k]), lo[k], _Z_CAP)
        )
    # the root solves h(z) = z*scaled(alpha, z) = w; h is concave with
    # h'(0) = 1/(alpha - 1), so (alpha - 1) w is a second lower bound.
    # Newton from below climbs to the root without overshooting; a step
    # <= 0 is roundoff at the root and keeps the current lower bound.
    w = alpha * delta
    z = np.maximum(lo, (alpha - 1.0) * w)
    pending = np.flatnonzero(z > 0.0)
    for _ in range(_INVERSE_MAXIT):
        if not pending.size:
            break
        za = z[pending]
        s = _scaled_array(alpha, za)
        h = za * s
        step = (w[pending] - h) / (alpha * s + h - 1.0)
        za = za + np.maximum(step, 0.0)
        z[pending] = za
        pending = pending[step > _INVERSE_RTOL * za]
    return z.reshape(shape)
