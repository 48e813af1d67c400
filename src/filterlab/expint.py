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

  * 1 <= z < inf: the continued fraction

        1/(z+nu-) 1*nu/(z+nu+2-) 2*(nu+1)/(z+nu+4-) ...

    in the scaled form, so no exponential factor is ever applied, evaluated
    bottom up from a fixed depth (Gil, Segura & Temme, Numerical Methods
    for Special Functions, 2007, ch. 6).  The depth is a closed form in
    (nu, z) alone, from 115 terms near z = 1 at small orders to 6 or 7 at
    large z or large orders; there is no stopping test.
  * 0 < z < 1: power series at the exact (real) order, summed by Horner's
    rule over a fixed list of coefficients per order.  The classical
    series has a simple pole in the order at every positive integer; the
    pole term from the Gamma prefactor and the offending series term are
    combined analytically through expm1, which keeps the evaluation
    uniformly accurate arbitrarily close to integer orders.

One kernel, _scaled_orders, evaluates several orders over one array of z
in a single pass: the series elements of every order take one Horner sum,
a row of coefficients per order, zero-padded at the top (which adds
exactly), and the fraction elements of every order run together, sorted by
depth, each with its own a_i.  Each element goes through the same float
operations whatever else the array holds and whatever other orders share
the pass, so a value does not depend on its batch.  The gamma-ratio tables
fetch the two or three orders a table reads in one pass; _scaled_array is
the one-order case, which the inverse below calls on arrays, and
expint_scaled its one-element case.

Against 50-digit values of the defining integral, the series stays within
3.2e-13 relative.  Its worst points lie just past 0.01 from an integer
order up to 5 as z nears 1 (3.14e-13 at nu = 1.99, z = 0.99999), where
lgamma(1 + d) leaves its Taylor series for the library's lgamma and h
divides that rounding by d; the error falls as the order moves off the
integer (5.2e-14 at nu = 2.06, 1.1e-14 at nu = 1.26, z = 0.85), and from
order 7 up it stays within 1.3e-15 (orders n + d for n up to 12 and 20,
50, 100 with |d| in [0.002, 0.05], 551 orders in [0.5, 6] and 40 in
[4, 1024], z in [1e-6, 0.99999]).  Orders within 0.01 of an integer
keep 3.7e-15, and the integer and half-integer orders the laboratory
takes 6.6e-15 (at nu = 3.5).  The continued fraction stays within
2.3e-16 (11 orders from 0 to 4097 over 25 z in [1, 700]); against 30-digit
evaluations of the fraction, 2.5e-16 at 3000 random points with nu in
[0, 5000] and z in [1, 1e3].

The inverse problem scaled(alpha+1, z) = 1/alpha - delta is solved for a
whole array of shifts delta at once.  By the recurrence DLMF 8.19.12,
alpha*scaled(alpha+1, z) = 1 - z*scaled(alpha, z), so the root solves

    h(z) = z * scaled(alpha, z) = alpha * delta,

which involves no cancellation against the z = 0 limit 1/alpha.  h is
increasing and concave, and by DLMF 8.19.13 (E_p' = -E_{p-1}) both of its
derivatives are algebraic in the one evaluation s = scaled(alpha, z):

    h'(z) = alpha*s + h - 1,    h''(z) = alpha*(s - (1 - (alpha-1)*s)/z) + h'(z),

so a Halley step, third order, costs the one evaluation a Newton step
does.  Halley starts from a lower bound of the root (the larger of the
sandwich-bracket end and the tangent root at z = 0) and steps both ways,
and every unresolved element takes its step together, in one _scaled_array
call: the Horner series below z = 1, and the continued fraction at each
element's own depth at z >= 1 (about one root in a hundred along a long
schedule).  Along a 1000-step schedule the roots settle in 3 or 4 passes
where Newton, which climbs from below without overshooting, took 5 or 6;
over short schedules of 1 to 7 steps the inverse makes 0.65 of Newton's
kernel calls and 0.67 of its element evaluations.
"""

import functools
import math

import numpy as np

__all__ = [
    "DomainError",
    "expint_scaled",
    "expint_scaled_inverse",
    "expint_scaled_inverse_shifted",
    "expint_scaled_inverse_shifted_array",
]

_EULER_GAMMA = 0.5772156649015328606065

# z below which the inverse problem is treated as saturated: the target
# value is so small that no double-precision z in the supported range
# reproduces it.
_Z_CAP = 700.0

# the inverse stops at a step below this fraction of the root, at a residual
# within _INVERSE_NOISE of h (where the step is rounding noise), or after
# this many steps
_INVERSE_RTOL = 1e-14
_INVERSE_NOISE = 2.0 ** -50
_INVERSE_MAXIT = 200

# One numpy iteration of the continued fraction over a batch costs about as
# much as this many of its terms in Python floats
_ITERATION_TERMS = 24


class DomainError(ValueError):
    """Argument outside the mathematical domain of the requested function."""


def _depth(nu, z, sqrt=np.sqrt, minimum=np.minimum):
    # Terms of the continued fraction at order nu for an array of z >= 1
    # (for a column of orders, a row per order), or for one z given
    # math.sqrt and min, before the floor:
    # min(7 + 108 z^(-3/4), 6 + 420 (nu+1)^(-3/4)), 115 at z = 1 for nu up
    # to 5, falling in z and in nu to 6 once nu passes 3150.  Against
    # 30-digit convergents at 100 orders in [0, 1e4] by 50 z in [1, 1e3] it
    # leaves a truncation error under 1e-17 relative.  The powers are square
    # roots and the floor is exact, so every element gets the same depth in
    # numpy as in Python, whatever its batch.
    r = sqrt(z)
    s = sqrt(nu + 1.0)
    return minimum(7.0 + 108.0 / (r * sqrt(r)), 6.0 + 420.0 / (s * sqrt(s)))


def _fraction(nus, z):
    # scaled(nu, z) for each order nu in nus (a row each) over an array of
    # z >= 1, bottom up from each element's depth k: t = 0, then
    # t = a_i / ((z+nu+2i) + t) for i = k .. 1 with a_i = -i (nu-1+i), and
    # 1/((z+nu) + t); at z = inf every term is 0 and the value its limit 0.
    # A batch of at most _ITERATION_TERMS elements (all orders counted), or
    # whose terms, sum(k), are at most _ITERATION_TERMS times its deepest k,
    # runs one element at a time in Python floats, the rest in numpy with
    # the elements of every order sorted by depth together.  + - * / round
    # the same in both, so both give the same bits.
    zs = z.tolist()
    # one order as a float and its values as a 1-d array; several as a
    # column, with a row of values each
    if len(nus) == 1:
        nu, shape = nus[0], (-1,)
    else:
        nu, shape = np.array(nus)[:, None], (len(nus), -1)
    if len(nus) * len(zs) <= _ITERATION_TERMS:
        depths = [int(_depth(nu_j, x, math.sqrt, min)) for nu_j in nus for x in zs]
    else:
        k = _depth(nu, z).astype(int).ravel()
        depths = k.tolist()
    top = max(depths)
    # a_i = -i (nu-1+i) for each order, and 2i, for i = top .. 1
    a = [[-i * (nu1 + i) for i in range(top, 0, -1)] for nu1 in [nu - 1.0 for nu in nus]]
    c = [2.0 * i for i in range(top, 0, -1)]
    if len(depths) <= _ITERATION_TERMS or sum(depths) <= _ITERATION_TERMS * top:
        out = []
        for j, nu_j in enumerate(nus):
            for x, depth in zip(zs, depths[j * len(zs):(j + 1) * len(zs)]):
                b = x + nu_j
                t = 0.0
                for a_i, c_i in zip(a[j][top - depth:], c[top - depth:]):
                    t = a_i / ((b + c_i) + t)
                out.append(1.0 / (b + t))
        return np.array(out).reshape(shape)
    # deepest first, so the elements still iterating at i are the first
    # m[i] = #(k >= i); the stable sort maps less of numpy's sort code
    order = np.argsort(k, kind="stable")[::-1]
    m = np.cumsum(np.bincount(k)[::-1])[::-1].tolist()[:0:-1]
    zn = (z + nu).ravel()[order]
    if len(nus) > 1:
        # each element's own a_i, over the elements still iterating at i
        a = [a_i[:mi] for a_i, mi in zip(np.array(a).T[:, order // len(zs)], m)]
    else:
        a = a[0]
    t = np.zeros_like(zn)
    den = np.empty_like(zn)
    for a_i, c_i, mi in zip(a, c, m):
        d = den[:mi]
        np.add(zn[:mi], c_i, out=d)
        d += t[:mi]
        np.divide(a_i, d, out=t[:mi])
    out = np.empty_like(zn)
    out[order] = 1.0 / (zn + t)
    return out.reshape(shape)


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


def _series(nus, z):
    # scaled(nu, z) for each order nu in nus (a row each) over an array of
    # 0 < z < 1, from the power series
    #     scaled(nu, z) = (c(z) - sum_{k != n-1} (-z)^k / (k! (k+1-nu))) e^z,
    # the sum by Horner's rule over each order's coefficients.  For n >= 1
    # the prefactor c(z) is the Gamma(1-nu) z^(nu-1) term plus the k = n-1
    # series term, which both blow up as d -> 0 while their sum stays
    # finite:  c = (-1)^n z^(n-1) / Gamma(n) * h  with
    # h = expm1(d log z + a - b) / d, or log z - psi(n) at d = 0.  c is
    # formed one order at a time: z ** (n - 1) takes a scalar exponent, and
    # numpy computes the exponents 1 and 2 as a copy and a square, which an
    # array of exponents might not.  The orders share log z and e^z, and
    # their coefficient rows are padded with zeros at the top, which
    # Horner's rule adds exactly: the sum stays 0 up to a row's own leading
    # coefficient.
    log_z = np.log(z)
    c, rows = [], []
    for nu in nus:
        n, d, scale, a, b, coef = _pole_order(nu)
        if n == 0:
            # 1/z and past it overflow to inf at a subnormal z, as they should
            with np.errstate(over="ignore"):
                c.append(scale * z ** (d - 1.0))
        else:
            h = log_z - b if d == 0.0 else np.expm1(d * log_z + a - b) / d
            c.append(scale * z ** (n - 1.0) * h)
        rows.append(coef)
    if len(nus) == 1:
        c, coef = c[0], rows[0]
    else:
        # a row per order, coefficient k of every order as a column
        top = max(map(len, rows))
        c = np.array(c)
        coef = np.array([row + [0.0] * (top - len(row)) for row in rows]).T[:, :, None]
    nz = -z
    s = np.full_like(c, coef[-1])
    for a_k in coef[-2::-1]:
        s *= nz
        s += a_k
    return (c - s) * np.exp(z)


def _scaled(nus, z, out):
    # scaled(nu, z) for each order nu in nus over a 1-d array z into out, a
    # row per order (out 1-d for one order): see _scaled_orders
    small = (z > 0.0) & (z < 1.0)
    frac = z >= 1.0
    n_small, n_frac = np.count_nonzero(small), np.count_nonzero(frac)
    if n_small:
        out[..., small] = _series(nus, z[small])
    if n_frac:
        out[..., frac] = _fraction(nus, z[frac])
    if n_small + n_frac < len(z):
        # 1/(nu-1) at z = 0 (inf for nu <= 1), NaN for a NaN or negative z
        edge = ~(small | frac)
        limit = [[1.0 / (nu - 1.0) if nu > 1.0 else math.inf] for nu in nus]
        out[..., edge] = np.where(z[edge] == 0.0, limit, math.nan)
    return out


def _scaled_array(nu, z):
    """scaled(nu, z) at one order for a 1-d array of z in [0, inf]: the
    Horner series where 0 < z < 1, the continued fraction at its fixed depth
    where z >= 1, and the limit at z = 0 (NaN for a NaN z).  Every
    element takes the same float operations in any batch, so it gets the
    value a one-element array would."""
    return _scaled((nu,), z, np.empty_like(z))


def _scaled_orders(nus, z):
    """scaled(nu, z) for each order nu in nus over a 1-d array z, a row
    each, in one pass: one Horner sum over the series elements with a row of
    coefficients per order, and one continued fraction over the fraction
    elements of every order, sorted by depth together.  Each element gets
    the bits _scaled_array gives it at its one order, whatever the other
    orders and elements."""
    return _scaled(tuple(nus), z, np.empty((len(nus), len(z))))


def expint_scaled(nu, z):
    """exp(z) * E_nu(z) for nu >= 0, z >= 0 (z > 0 when nu <= 1), 0 at z = inf."""
    if not (nu >= 0.0) or not (z >= 0.0):
        raise DomainError("expint_scaled requires nu >= 0 and z >= 0, got nu=%r z=%r" % (nu, z))
    if z == 0.0 and nu <= 1.0:
        raise DomainError("E_nu(0) diverges for nu <= 1 (nu=%r)" % (nu,))
    return float(_scaled_array(float(nu), np.array([float(z)]))[0])


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
    precision _INVERSE_RTOL in z, or all that the rounding of h leaves
    where h is flat.
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
    # Halley steps both ways from there, kept inside [start, hi], where the
    # root lies.  A root whose h is flat to rounding (near the cap at small
    # alpha) stops on its residual, not on a step that noise keeps large.
    w = alpha * delta
    start = np.maximum(lo, (alpha - 1.0) * w)
    z = start.copy()
    pending = np.flatnonzero(z > 0.0)
    for _ in range(_INVERSE_MAXIT):
        if not pending.size:
            break
        za = z[pending]
        s = _scaled_array(alpha, za)
        h = za * s
        f = h - w[pending]
        d1 = alpha * s + h - 1.0
        d2 = alpha * (s - (1.0 - (alpha - 1.0) * s) / za) + d1
        step = -2.0 * f * d1 / (2.0 * d1 * d1 - f * d2)
        za = np.clip(za + step, start[pending], hi[pending])
        z[pending] = za
        pending = pending[(np.abs(step) > _INVERSE_RTOL * za) & (np.abs(f) > _INVERSE_NOISE * h)]
    return z.reshape(shape)
