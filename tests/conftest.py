import math

import numpy as np
import pytest

from filterlab import ModelSequence, RngSpec, build_trajectory


def make_trajectory(seed, steps, r=1.0, x0_truth=1.0, kind="random",
                    m=1.0, low=0.5, high=2.0, signed=True):
    spec = RngSpec(seed, 0)
    if kind == "random":
        model = ModelSequence.random_loguniform(steps, spec.stream(1),
                                                low=low, high=high,
                                                signed=signed)
    elif kind == "constant":
        model = ModelSequence.constant(m, steps)
    else:
        model = ModelSequence(np.asarray(kind, dtype=float))
    return build_trajectory(model, x0_truth, r, spec)


@pytest.fixture
def unit_traj():
    # constant m = 1, r = 1: S_i = i + 1
    return make_trajectory(2024, 20, kind="constant", m=1.0)


# The sample-moment expressions the Monte Carlo kernels were first written
# with (numpy's two-pass mean, std and var), as the reference for their
# shifted power sums.  Those add in another order, so every field may move
# by a few roundings: MC_RTOL sits well above the largest relative move
# measured on the reference tests' draws, 2.9e-15.
MC_RTOL = 1e-13


def reference_mean_se(v):
    return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v)))


def reference_var_se(v):
    var = float(np.var(v, ddof=1))
    m4 = float(np.mean((v - np.mean(v)) ** 4))
    return var, math.sqrt(max(m4 - var * var, 0.0) / len(v))


# The quadrature oracle of the gamma-ratio moments: the density of
# Y = (aX+b)/(cX+d), X ~ Gamma(alpha, p/alpha), over the interval Y sweeps.


def ratio_support(spec):
    """Open interval swept by (aX+b)/(cX+d) as X runs over (0, inf)."""
    lo = spec.b / spec.d
    hi = spec.a / spec.c
    return (lo, hi) if lo < hi else (hi, lo)


def ratio_pdf(spec, y):
    """Density of Y at y (zero outside the support), formed in log space."""
    a, b, c, d, alpha, p = spec.a, spec.b, spec.c, spec.d, spec.alpha, spec.p
    lo, hi = ratio_support(spec)
    if not (lo < y < hi):
        return 0.0
    x = (d * y - b) / (a - c * y)
    lf = (
        math.log(abs(b * c - a * d))
        + alpha * math.log(alpha * x / p)
        - alpha * x / p
        - math.log(abs(d * y - b))
        - math.log(abs(a - c * y))
        - math.lgamma(alpha)
    )
    return math.exp(lf)
