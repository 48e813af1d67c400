"""Exact moments of the sampling discrepancy of a stochastically seeded filter.

A filter started from a sampled variance X ~ Gamma(alpha, p_tilde0/alpha)
(and mean x_tilde0) instead of the exact prior (p0, x0) produces analysis
quantities that differ from the exact filter by ratio variables in X:

    dp_i = phat_i - p_i = (aX + b)/(cX + d)    (variance discrepancy)
    dx_i = xhat_i - x_i                        (mean discrepancy)

so all their moments come from the gamma-ratio engine.  Coefficients are
assembled from the trajectory's ratio ledger; nothing here evaluates M_i or
S_i directly, which keeps every spec well scaled for long or unstable
model sequences.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gamma_ratio import (
    GammaRatioSpec,
    ratio_fourth_moment,
    ratio_mean,
    ratio_second_moment,
)
from .propagators import ModelTrajectory
from .rng import RngSpec

__all__ = [
    "PerturbedInputs",
    "dp_spec",
    "dx_spec",
    "expected_dp",
    "second_moment_dp",
    "expected_dx",
    "second_moment_dx",
    "McMoments",
    "mc_discrepancy_moments",
    "po_gain_spec",
    "po_variance_penalty",
    "PoReport",
    "po_mean_identity_check",
]


@dataclass(frozen=True)
class PerturbedInputs:
    """Exact prior (p0, x0), sampled-prior law (p_tilde0, x_tilde0, alpha),
    and the observation variance r the filter assumes."""

    p0: float
    x0: float
    p_tilde0: float
    x_tilde0: float
    alpha: float
    r: float

    def __post_init__(self):
        if not (self.p0 > 0.0 and self.p_tilde0 > 0.0 and self.r > 0.0):
            raise ValueError("variances must be positive")
        if not (self.alpha > 1.0):
            raise ValueError("need alpha > 1")


def dp_spec(traj: ModelTrajectory, inp: PerturbedInputs, i):
    """Gamma-ratio spec of dp_i, scaled by 1/S_i^2 top and bottom."""
    u = inp.r * traj.inv_S(i)
    a = traj.M2_over_S(i) * u * inp.r  # M^2 r^2 / S^2
    return GammaRatioSpec(a=a, b=-a * inp.p0, c=inp.p0 + u, d=u * (inp.p0 + u),
                          alpha=inp.alpha, p=inp.p_tilde0)


def dx_spec(traj: ModelTrajectory, inp: PerturbedInputs, i):
    """Gamma-ratio spec of dx_i, scaled by 1/S_i^2 top and bottom.

    Degenerates (a*d == b*c) exactly when B_i/S_i == x_tilde0, in which
    case dx_i is the constant a/c; that case raises ValueError, since the
    rounded a*d and b*c need not come out equal.  Callers should branch on it.
    """
    b_over_s = traj.B_over_S(i)
    if b_over_s == inp.x_tilde0:
        raise ValueError("B_i/S_i == x_tilde0 makes dx_%d constant" % i)
    u = inp.r * traj.inv_S(i)
    m_over_s = traj.M_over_S(i)
    a = inp.r * m_over_s * (b_over_s - inp.x0)
    b = inp.r * m_over_s * (
        (inp.p0 + u) * inp.x_tilde0 - b_over_s * inp.p0 - u * inp.x0
    )
    return GammaRatioSpec(a=a, b=b, c=inp.p0 + u, d=u * (inp.p0 + u),
                          alpha=inp.alpha, p=inp.p_tilde0)


def expected_dp(traj, inp, i):
    """E[dp_i], exact for alpha > 1."""
    return ratio_mean(dp_spec(traj, inp, i))


def second_moment_dp(traj, inp, i):
    """E[dp_i^2], exact for alpha > 2."""
    return ratio_second_moment(dp_spec(traj, inp, i))


def _dx_constant(traj, inp, i):
    u = inp.r * traj.inv_S(i)
    return inp.r * traj.M_over_S(i) * (traj.B_over_S(i) - inp.x0) / (inp.p0 + u)


def expected_dx(traj, inp, i):
    """E[dx_i], exact for alpha > 1."""
    if traj.B_over_S(i) == inp.x_tilde0:
        return _dx_constant(traj, inp, i)
    return ratio_mean(dx_spec(traj, inp, i))


def second_moment_dx(traj, inp, i):
    """E[dx_i^2], exact for alpha > 2."""
    if traj.B_over_S(i) == inp.x_tilde0:
        # c * c, not c ** 2: libm pow may round x^2 one ulp off x * x
        c = _dx_constant(traj, inp, i)
        return c * c
    return ratio_second_moment(dx_spec(traj, inp, i))


@dataclass(frozen=True)
class McMoments:
    mean_dp: float
    mean_dp_se: float
    mean_dp2: float
    mean_dp2_se: float
    var_dp: float
    var_dp_se: float
    mean_dx: float
    mean_dx_se: float
    mean_dx2: float
    mean_dx2_se: float
    var_dx: float
    var_dx_se: float
    replicates: int


def _mean_se(v):
    n = len(v)
    return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(n))


def _var_se(v):
    # SE of the sample variance via the fourth central moment
    n = len(v)
    var = float(np.var(v, ddof=1))
    m4 = float(np.mean((v - np.mean(v)) ** 4))
    return var, math.sqrt(max(m4 - var * var, 0.0) / n)


def mc_discrepancy_moments(traj, inp: PerturbedInputs, i, replicates,
                           spec: RngSpec):
    """Monte Carlo moments of (dp_i, dx_i) over the initial-variance draw.

    Independent route from the closed forms: samples X with the library
    gamma sampler and evaluates both filters' analysis formulas per draw.
    """
    gen = spec.generator()
    n = int(replicates)
    x = gen.gamma(inp.alpha, inp.p_tilde0 / inp.alpha, n)
    u = inp.r * traj.inv_S(i)
    m2s = traj.M2_over_S(i)
    ms = traj.M_over_S(i)
    mbs = traj.MB_over_S(i)
    r = inp.r

    pa_exact = r * inp.p0 * m2s / (inp.p0 + u)
    pa_hat = r * x * m2s / (x + u)
    dp = pa_hat - pa_exact

    xa_exact = (inp.p0 * mbs + ms * r * inp.x0) / (inp.p0 + u)
    xa_hat = (x * mbs + ms * r * inp.x_tilde0) / (x + u)
    dx = xa_hat - xa_exact

    m_dp, se_dp = _mean_se(dp)
    m_dp2, se_dp2 = _mean_se(dp * dp)
    v_dp, vse_dp = _var_se(dp)
    m_dx, se_dx = _mean_se(dx)
    m_dx2, se_dx2 = _mean_se(dx * dx)
    v_dx, vse_dx = _var_se(dx)
    return McMoments(m_dp, se_dp, m_dp2, se_dp2, v_dp, vse_dp,
                     m_dx, se_dx, m_dx2, se_dx2, v_dx, vse_dx, n)


def po_gain_spec(traj: ModelTrajectory, p0, alpha, r, i):
    """Gamma-ratio spec of the propagated gain K_i = M_i^2 X / (S_i X + r),
    rescaled by 1/S_i top and bottom so the coefficients stay bounded."""
    u = float(r) * traj.inv_S(i)
    return GammaRatioSpec(a=traj.M2_over_S(i), b=0.0, c=1.0, d=u,
                          alpha=float(alpha), p=float(p0))


def po_variance_penalty(traj, p0, alpha, r, i):
    """Extra analysis-variance term E[K_i^4] r^2 / alpha contributed by
    perturbing observations with sampled variance R ~ Gamma(alpha, r/alpha).
    Exact for alpha > 4."""
    alpha, r = float(alpha), float(r)
    return ratio_fourth_moment(po_gain_spec(traj, p0, alpha, r, i)) * r * r / alpha


@dataclass(frozen=True)
class PoReport:
    """Monte Carlo evidence for the perturbed-observation decomposition
    P = rK + K^2 (R - r): the cross term is uncorrelated with rK and the
    noise-variance fluctuation has second moment exactly r^2/alpha."""

    mean_P: float
    mean_P_se: float
    analytic_mean_rK: float
    cov_cross: float
    cov_cross_se: float
    second_R: float
    second_R_se: float
    exact_second_R: float
    penalty: float
    replicates: int


def po_mean_identity_check(traj, p0, alpha, r, i, replicates, spec: RngSpec):
    gen = spec.generator()
    n = int(replicates)
    alpha, r = float(alpha), float(r)
    gspec = po_gain_spec(traj, p0, alpha, r, i)
    x = gen.gamma(alpha, p0 / alpha, n)
    rr = gen.gamma(alpha, r / alpha, n)
    k = gspec.a * x / (gspec.c * x + gspec.d)
    p_var = r * k + k * k * (rr - r)

    m_p, se_p = _mean_se(p_var)
    dev = (rr - r) ** 2
    m_r2, se_r2 = _mean_se(dev)
    a_term = r * k
    b_term = k * k * (rr - r)
    prod = (a_term - np.mean(a_term)) * (b_term - np.mean(b_term))
    cov, cov_se = _mean_se(prod)
    return PoReport(
        mean_P=m_p,
        mean_P_se=se_p,
        analytic_mean_rK=r * ratio_mean(gspec),
        cov_cross=cov,
        cov_cross_se=cov_se,
        second_R=m_r2,
        second_R_se=se_r2,
        exact_second_R=r * r / alpha,
        # the closed-form penalty needs the fourth gain moment (alpha > 4)
        penalty=(po_variance_penalty(traj, p0, alpha, r, i)
                 if alpha > 4.0 else math.nan),
        replicates=n,
    )
