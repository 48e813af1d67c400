"""Moments of Y = (aX + b) / (cX + d) for X ~ Gamma(alpha, p/alpha).

X has shape alpha and mean p (scale p/alpha).  Every sampling-error
statistic of the stochastically initialized scalar filter is a variable of
this form, so its exact moments reduce to evaluations of the scaled
exponential integral at z = alpha*d/(c*p):

    E[X^n / (cX + d)^n] -> linear combinations of scaled(alpha+j, z).

The moments work elementwise: a spec with array coefficients (broadcasting
together, one alpha and one p) gets arrays, and NaN where an element breaks
a coefficient rule (GammaRatioSpec.refusal says which).  A spec evaluates
its rules once, as it computes z once, and a moment whose elements all keep
them is returned as computed, with no masked copy.  Each order of the
scaled expint is evaluated once per spec, and the orders a moment reads and
the spec has not yet evaluated (alpha and alpha + 1 for the mean, alpha - 1
too for the second moment, alpha alone for the fourth) in one
expint._scaled_orders pass over z, so a table that asks for its second
moments first and then its means makes one pass.  A spec of floats gets
floats through expint_scaled, the same kernel on one element, so each
element of an array spec equals its float spec bit for bit.  The laboratory
builds array specs only; the float route stays as their reference and
because the benchmark's span tracer wraps it by name.  The density of Y,
for the quadrature oracle, lives beside the tests.

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

from .expint import _scaled_orders, expint_scaled

__all__ = [
    "GammaRatioSpec",
    "ratio_mean",
    "ratio_second_moment",
    "ratio_fourth_moment",
]


# the orders alpha + j that moment n reads, as {n: (j, ..)}
_READS = {1: (0, 1), 2: (-1, 0, 1), 4: (0,)}


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

    @cached_property
    def _elementwise(self):
        return any(isinstance(v, np.ndarray) for v in (self.a, self.b, self.c, self.d))

    @cached_property
    def z(self):
        return self.alpha * self.d / (self.c * self.p)

    @cached_property
    def _e(self):
        # scaled(alpha + j, z) by j, filled in as moments ask for them
        return {}

    def _scaled(self, n):
        """[scaled(alpha + j, z) for j in _READS[n]], the orders moment n
        reads.  An array spec evaluates the ones it has not yet evaluated in
        one expint pass; a float spec evaluates each through expint_scaled."""
        e = self._e
        need = set(_READS[n])
        if -1 in need:
            need.add(0)  # order alpha - 1 recurs down from alpha where z >= alpha
        js = sorted(need.difference(e), reverse=True)
        if js:
            self._evaluate(js)
        return [e[j] for j in _READS[n]]

    def _evaluate(self, js):
        # orders alpha + j, j in js (descending), into self._e.  Adjacent
        # orders obey nu*scaled(nu+1) + z*scaled(nu) = 1: order alpha - 1
        # comes down from alpha only where z >= alpha, which bounds the
        # amplification, and is evaluated directly elsewhere
        alpha, z, e = self.alpha, self.z, self._e
        if not isinstance(z, np.ndarray):
            for j in js:
                e[j] = (expint_scaled(alpha + j, z) if j != -1 or z < alpha
                        else (1.0 - (alpha - 1.0) * e[0]) / z)
            return
        for j, v in zip(js, _scaled_orders([alpha + j for j in js], z.ravel())):
            e[j] = v.reshape(z.shape)
        if -1 in js:
            np.divide(1.0 - (alpha - 1.0) * e[0], z, out=e[-1], where=z >= alpha)

    @cached_property
    def _rules(self):
        # c > 0 and d > 0 (the denominator stays off 0 on X > 0), and
        # a*d != b*c (Y is not constant): bools, elementwise for arrays
        return (self.c > 0.0) & (self.d > 0.0), self.a * self.d != self.b * self.c

    def refusal(self, index=()):
        """Why the spec (element index of an array spec) breaks a rule, or None."""
        shape = np.broadcast(self.a, self.b, self.c, self.d).shape
        whys = ("need c > 0 and d > 0", "a*d == b*c makes Y constant")
        return next((why for kept, why in zip(self._rules, whys)
                     if not np.broadcast_to(kept, shape)[index]), None)

    def _where_valid(self, value):
        # an array spec's value, NaN where the coefficients break a rule: the
        # value itself (each moment's own new array) when no element does
        if not self._elementwise:
            return value
        valid = np.logical_and(*self._rules)
        return value if valid.all() else np.where(valid, value, np.nan)


def ratio_mean(spec: GammaRatioSpec):
    """E[Y], exact for alpha > 1."""
    a, b, c, p, alpha = spec.a, spec.b, spec.c, spec.p, spec.alpha
    e1, e2 = spec._scaled(1)
    return spec._where_valid((alpha / c) * ((b / p) * e1 + a * e2))


def ratio_second_moment(spec: GammaRatioSpec):
    """E[Y^2], exact for alpha > 2."""
    a, b, c, p, alpha = spec.a, spec.b, spec.c, spec.p, spec.alpha
    if not (alpha > 2.0):
        raise ValueError("second moment needs alpha > 2")
    e0, e1, e2 = spec._scaled(2)
    # order alpha + 2 upward from alpha + 1
    e3 = (1.0 - spec.z * e2) / (alpha + 1.0)
    c2 = c * c
    t0 = (alpha * alpha * b * b / (c2 * p * p)) * e0
    t1 = (alpha * alpha * b * (2.0 * a * p - b) / (c2 * p * p)) * e1
    t2 = (alpha * a * ((alpha + 1.0) * a * p - 2.0 * alpha * b) / (c2 * p)) * e2
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
    bracket = poly - (ad / c) * nest * spec._scaled(4)[0]
    a2, p2, c2 = a * a, p * p, c * c
    return spec._where_valid(a2 * a2 / (6.0 * p2 * p2 * c2 * c2 * c2 * c) * bracket)
