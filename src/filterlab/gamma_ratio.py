"""Moments of Y = (aX + b) / (cX + d) for X ~ Gamma(alpha, p/alpha).

X has shape alpha and mean p (scale p/alpha).  Every sampling-error
statistic of the stochastically initialized scalar filter is a variable of
this form, so its exact moments reduce to evaluations of the scaled
exponential integral at z = alpha*d/(c*p):

    E[X^n / (cX + d)^n] -> linear combinations of scaled(alpha+j, z).

The moments work elementwise: a spec with array coefficients (broadcasting
together, one alpha and one p) gets arrays, each order of the scaled expint
evaluated once per spec in one expint._scaled_array pass over z, and NaN where
an element breaks a coefficient rule (GammaRatioSpec.refusal says which).  A
spec of floats gets floats through expint_scaled, the same kernel on one
element, so each element of an array spec equals its float spec bit for bit.
The laboratory builds array specs only; the float route stays as their
reference and because the benchmark's span tracer wraps it by name.  The
density of Y, for the quadrature oracle, lives beside the tests.

The closed forms below are exact for all alpha > 1 (alpha > 2, > 4 where
the respective moment requires it); their floating-point accuracy degrades
at very large alpha because the expint combinations cancel, roughly one
digit per decade of alpha for the second moment and three per decade for
the fourth.  Callers probing the alpha -> infinity regime should compare
against the degenerate limit Y -> (a*p + b)/(c*p + d) directly.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expint import _scaled_array, expint_scaled

__all__ = [
    "GammaRatioSpec",
    "ratio_mean",
    "ratio_second_moment",
    "ratio_fourth_moment",
]


def _scaled(nu, z):
    # scaled(nu, z) elementwise: a float through expint_scaled, an array in
    # one fixed-order pass of the same kernel, which gives NaN for a NaN z
    return _scaled_array(nu, z) if isinstance(z, np.ndarray) else expint_scaled(nu, z)


@dataclass(frozen=True)
class GammaRatioSpec:
    """Coefficients of Y = (aX+b)/(cX+d) and the law of X.

    Requires c > 0 and d > 0 so the denominator is bounded away from zero
    on X > 0, a*d != b*c so Y is non-degenerate, alpha > 1 and p > 0.
    With array coefficients the first two rules hold elementwise: an
    element that breaks one gets NaN moments instead of an error.
    """

    a: float
    b: float
    c: float
    d: float
    alpha: float
    p: float

    def __post_init__(self):
        why = not self._elementwise and self.refusal()
        if why:
            raise ValueError(why)
        if not (self.alpha > 1.0):
            raise ValueError("need alpha > 1")
        if not (self.p > 0.0):
            raise ValueError("need p > 0")

    @property
    def _elementwise(self):
        return any(isinstance(v, np.ndarray) for v in (self.a, self.b, self.c, self.d))

    @cached_property
    def z(self):
        return self.alpha * self.d / (self.c * self.p)

    # scaled expint at orders alpha - 1, alpha, alpha + 1, each evaluated
    # once per spec and only when a moment asks for it
    @cached_property
    def _e1(self):
        return _scaled(self.alpha, self.z)

    @cached_property
    def _e2(self):
        return _scaled(self.alpha + 1.0, self.z)

    @cached_property
    def _e0(self):
        # adjacent orders obey nu*scaled(nu+1) + z*scaled(nu) = 1; downward
        # from alpha only where z >= alpha, which bounds the amplification,
        # and evaluated directly elsewhere
        alpha, z = self.alpha, self.z
        if not isinstance(z, np.ndarray):
            return _scaled(alpha - 1.0, z) if z < alpha else (1.0 - (alpha - 1.0) * self._e1) / z
        down = z >= alpha
        e0 = _scaled(alpha - 1.0, np.where(down, np.nan, z))
        np.divide(1.0 - (alpha - 1.0) * self._e1, z, out=e0, where=down)
        return e0

    def _rules(self):
        # c > 0 and d > 0 (the denominator stays off 0 on X > 0), and
        # a*d != b*c (Y is not constant): bools, elementwise for arrays
        return (self.c > 0.0) & (self.d > 0.0), self.a * self.d != self.b * self.c

    def refusal(self, index=()):
        """Why the spec (element index of an array spec) breaks a rule, or None."""
        shape = np.broadcast(self.a, self.b, self.c, self.d).shape
        whys = ("need c > 0 and d > 0", "a*d == b*c makes Y constant")
        return next((why for kept, why in zip(self._rules(), whys)
                     if not np.broadcast_to(kept, shape)[index]), None)

    def _where_valid(self, value):
        # an array spec's value is NaN where the coefficients break a rule
        if not self._elementwise:
            return value
        return np.where(np.logical_and(*self._rules()), value, np.nan)


def ratio_mean(spec: GammaRatioSpec):
    """E[Y], exact for alpha > 1."""
    a, b, c, p, alpha = spec.a, spec.b, spec.c, spec.p, spec.alpha
    return spec._where_valid((alpha / c) * ((b / p) * spec._e1 + a * spec._e2))


def ratio_second_moment(spec: GammaRatioSpec):
    """E[Y^2], exact for alpha > 2."""
    a, b, c, p, alpha = spec.a, spec.b, spec.c, spec.p, spec.alpha
    if not (alpha > 2.0):
        raise ValueError("second moment needs alpha > 2")
    # order alpha + 2 upward from alpha + 1
    e3 = (1.0 - spec.z * spec._e2) / (alpha + 1.0)
    c2 = c * c
    t0 = (alpha * alpha * b * b / (c2 * p * p)) * spec._e0
    t1 = (alpha * alpha * b * (2.0 * a * p - b) / (c2 * p * p)) * spec._e1
    t2 = (alpha * a * ((alpha + 1.0) * a * p - 2.0 * alpha * b) / (c2 * p)) * spec._e2
    t3 = -(alpha * (alpha + 1.0) * a * a / c2) * e3
    return spec._where_valid(t0 + t1 + t2 + t3)


def ratio_fourth_moment(spec: GammaRatioSpec):
    """E[Y^4] for the pure-ratio case b = 0, exact for alpha > 4."""
    a, b, c, d, alpha, p = spec.a, spec.b, spec.c, spec.d, spec.alpha, spec.p
    if np.any(b != 0.0):
        raise ValueError("fourth moment implemented for b = 0 only")
    if not (alpha > 4.0):
        raise ValueError("fourth moment needs alpha > 4")
    # products, not ** on a coefficient: numpy's pow and libm's differ in
    # the last bit, and an array spec must round like a float one
    cp = c * p
    ad = alpha * d
    ad3 = ad * ad * ad
    poly = p * (
        cp * (cp * (6.0 * cp + alpha * (alpha * (alpha + 7.0) + 18.0) * d)
              + (2.0 * alpha + 9.0) * alpha * alpha * d * d)
        + ad3
    )
    nest = (
        (alpha + 3.0) * cp * (
            (alpha + 2.0) * cp * ((alpha + 1.0) * cp + 3.0 * ad)
            + 3.0 * alpha * alpha * d * d
        )
        + ad3
    )
    bracket = poly - (ad / c) * nest * spec._e1
    a2, p2, c2 = a * a, p * p, c * c
    return spec._where_valid(a2 * a2 / (6.0 * p2 * p2 * c2 * c2 * c2 * c) * bracket)
