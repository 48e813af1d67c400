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

The per-step closed forms read tables built a trajectory at a time, and
nothing else: the first call for a (trajectory, inputs) pair evaluates one
array spec over every step and keeps the moments and the spec in an
8-entry functools.lru_cache, keyed on the trajectory's identity.  There is
no per-step spec: each element of a table's array spec evaluates as the
float spec of its coefficients would, bit for bit (see gamma_ratio).  A
step outside [0, n_steps] raises IndexError before any table is built or
looked up (ModelTrajectory.check_step, shared with the Monte Carlo kernels
and skf).  A NaN row raises DomainError naming the step and the coefficient
rule it breaks, or the moment's error for an alpha below its order; any
other NaN is returned as it is.

The Monte Carlo checks (mc_discrepancy_moments, po_mean_identity_check and
skf.skf_error_moments) reduce their samples with one function,
sample_moments, in a single centring pass: the deviations from the mean are
squared in place for the variance and squared once more for the fourth
central moment behind the variance's standard error.  Writing that moment
as (v - mean) ** 4 would send every replicate through libm pow, which numpy
skips only for the exponents 2, 0.5, 1, 0 and -1, at ten times the cost of
two multiplications.  Mean, mean SE and variance are bit-identical to
numpy's mean, std and var of the same sample.

The kernels work in place, with one replicate-sized buffer per live
quantity, because at 1e5 replicates and more each array outgrows the L2
cache and a fresh one per arithmetic step costs more than the arithmetic:

    mc_discrepancy_moments (3 buffers)
        x   the gamma draw X, then dx, then dx^2
        xu  X + u, then the centring scratch of every reduction
        dp  X r, times M_i^2/S_i, over X + u, minus the exact p_i: dp, then dp^2
    po_mean_identity_check (4 buffers)
        x   the gamma draw X, then K = (M_i^2/S_i) X / (X + r/S_i), then K^2 e
        rr  the gamma draw R, then e = R - r, then e^2, P = rK + K^2 e and
            the product of the centred terms, each in turn
        den X + r/S_i, then rK
        d   the centring scratch of every reduction

Each sample is reduced with the scratch buffer as sample_moments' out, so
it is still whole when a zero variance asks whether every replicate is the
same double (McMoments.constant, PoReport.constant).  Every element goes
through the same float operations, on the same operands and in the same
order, as the plain array expressions in the comments: only the operands of
a product are swapped, which is exact.  Nothing is re-associated, fused or
shared between dp and dx (there is no common X/(X + u)), so the outputs are
bit-identical to those expressions.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expint import DomainError
from .gamma_ratio import (
    GammaRatioSpec,
    ratio_fourth_moment,
    ratio_mean,
    ratio_second_moment,
)
from .propagators import InputError
from .rng import RngSpec

__all__ = [
    "PerturbedInputs",
    "expected_dp",
    "second_moment_dp",
    "expected_dx",
    "second_moment_dx",
    "McMoments",
    "sample_moments",
    "mc_discrepancy_moments",
    "po_gain_mean",
    "po_gain_fourth",
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


def _coefs(inp, inv_s, q, m_s, b_s):
    # (a, b) of dp_i and of dx_i and their shared (c, d), scaled by 1/S_i^2,
    # at every step, from the ledger's 1/S_i, M_i^2/S_i, M_i/S_i and B_i/S_i
    u = inp.r * inv_s
    c = inp.p0 + u
    a_dp = q * u * inp.r  # M^2 r^2 / S^2
    a_dx = inp.r * m_s * (b_s - inp.x0)
    b_dx = inp.r * m_s * (c * inp.x_tilde0 - b_s * inp.p0 - u * inp.x0)
    return (a_dp, -a_dp * inp.p0), (a_dx, b_dx), c, u * c


@functools.lru_cache(maxsize=8)
def _moment_table(traj, inp):
    # E[dp_i], E[dx_i], E[dp_i^2], E[dx_i^2] at every step of traj as lists
    # of floats, then their spec.  dp and dx share z, so one spec with a row
    # for each evaluates every order once.
    ledger = [np.array(s) for s in (traj.inv_S, traj.M2_over_S, traj.M_over_S, traj.B_over_S)]
    dp, dx, c, d = _coefs(inp, *ledger)
    spec = GammaRatioSpec(np.stack([dp[0], dx[0]]), np.stack([dp[1], dx[1]]), c, d,
                          inp.alpha, inp.p_tilde0)
    mean = ratio_mean(spec)
    second = ratio_second_moment(spec) if inp.alpha > 2.0 else np.full_like(mean, np.nan)
    # B_i/S_i == x_tilde0: dx_i is the constant k = a/c at any alpha
    const = ledger[3] == inp.x_tilde0
    k = dx[0][const] / c[const]
    mean[1, const] = k
    second[1, const] = k * k  # not k ** 2: pow may round x^2 one ulp off x * x
    return (*mean.tolist(), *second.tolist(), spec)


def _at(i, column, spec, row, name, moment):
    # column[i] at a step i that check_step passed; a NaN there raises the
    # rule step i breaks (element row + (i,) of spec), else the moment's own
    # error for an alpha below its order, else it is returned as it is
    v = column[i]
    if v == v:
        return v
    why = spec.refusal(row + (i,))
    if why:
        raise DomainError("step %d: %s: %s" % (i, name, why))
    return float(moment(spec)[row + (i,)])


def expected_dp(traj, inp, i):
    """E[dp_i], exact for alpha > 1."""
    i = traj.check_step(i)
    t = _moment_table(traj, inp)
    return _at(i, t[0], t[4], (0,), "dp", ratio_mean)


def second_moment_dp(traj, inp, i):
    """E[dp_i^2], exact for alpha > 2."""
    i = traj.check_step(i)
    t = _moment_table(traj, inp)
    return _at(i, t[2], t[4], (0,), "dp", ratio_second_moment)


def expected_dx(traj, inp, i):
    """E[dx_i], exact for alpha > 1."""
    i = traj.check_step(i)
    t = _moment_table(traj, inp)
    return _at(i, t[1], t[4], (1,), "dx", ratio_mean)


def second_moment_dx(traj, inp, i):
    """E[dx_i^2], exact for alpha > 2."""
    i = traj.check_step(i)
    t = _moment_table(traj, inp)
    return _at(i, t[3], t[4], (1,), "dx", ratio_second_moment)


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
    # the mean fields (of mean_dp, mean_dp2, mean_dx, mean_dx2) whose
    # sample is one double repeated, so that their standard error is 0
    constant: tuple = ()


def sample_moments(v, fourth=False, out=None):
    """Mean, its standard error, the ddof-1 variance and, with fourth=True,
    the variance's standard error (nan otherwise) of the sample v, from one
    centring pass: d = (v - mean)^2, squared in place again for the fourth
    central moment rather than raised to ** 4 (see the module docstring).

    The pass writes d into out (a new array when None), which may be v
    itself; the results do not depend on where d goes."""
    n = len(v)
    mean = float(np.mean(v))
    d = np.subtract(v, mean, out=out)
    d *= d
    var = float(np.sum(d)) / (n - 1)
    var_se = math.nan
    if fourth:
        d *= d
        var_se = math.sqrt(max(float(np.mean(d)) - var * var, 0.0) / n)
    return mean, math.sqrt(var) / math.sqrt(n), var, var_se


def _reduce(v, scratch, name, constant, fourth=False):
    # sample_moments of v centred in scratch, so v is still whole when a
    # zero variance leaves open whether every replicate is the same double
    # (then name joins constant) or the squared deviations underflowed
    res = sample_moments(v, fourth, scratch)
    if res[2] == 0.0 and v.min() == v.max():
        constant.append(name)
    return res


def _check_draws(x, param, mean, i):
    # gamma draws are nonnegative, so one max finds an inf (or a NaN)
    if not x.max() < math.inf:
        raise InputError(param, "step %d: a gamma draw of mean %g is not a finite double"
                         % (i, mean))


def mc_discrepancy_moments(traj, inp: PerturbedInputs, i, replicates,
                           spec: RngSpec):
    """Monte Carlo moments of (dp_i, dx_i) over the initial-variance draw.

    Independent route from the closed forms: samples X with the library
    gamma sampler and evaluates both filters' analysis formulas per draw.
    Raises InputError naming "phat0" when a draw of X is not a finite double,
    and IndexError for a step outside [0, n_steps].
    """
    i = traj.check_step(i)
    gen = spec.generator()
    n = int(replicates)
    x = gen.gamma(inp.alpha, inp.p_tilde0 / inp.alpha, n)
    _check_draws(x, "phat0", inp.p_tilde0, i)
    u = inp.r * traj.inv_S[i]
    m2s = traj.M2_over_S[i]
    ms = traj.M_over_S[i]
    mbs = traj.MB_over_S[i]
    r = inp.r
    xu = x + u

    # dp = r * x * m2s / xu - pa_exact
    pa_exact = r * inp.p0 * m2s / (inp.p0 + u)
    dp = np.multiply(x, r)
    dp *= m2s
    dp /= xu
    dp -= pa_exact

    # dx = (x * mbs + ms * r * x_tilde0) / xu - xa_exact, in x's buffer
    xa_exact = (inp.p0 * mbs + ms * r * inp.x0) / (inp.p0 + u)
    dx = x
    dx *= mbs
    dx += ms * r * inp.x_tilde0
    dx /= xu
    dx -= xa_exact

    # xu is spent: it takes every centring pass, and the squares reuse dp, dx
    constant = []
    m_dp, se_dp, v_dp, vse_dp = _reduce(dp, xu, "mean_dp", constant, fourth=True)
    dp *= dp
    m_dp2, se_dp2 = _reduce(dp, xu, "mean_dp2", constant)[:2]
    m_dx, se_dx, v_dx, vse_dx = _reduce(dx, xu, "mean_dx", constant, fourth=True)
    dx *= dx
    m_dx2, se_dx2 = _reduce(dx, xu, "mean_dx2", constant)[:2]
    return McMoments(m_dp, se_dp, m_dp2, se_dp2, v_dp, vse_dp,
                     m_dx, se_dx, m_dx2, se_dx2, v_dx, vse_dx, tuple(constant))


@functools.lru_cache(maxsize=8)
def _gain_table(traj, p0, alpha, r, n):
    # E[K_i^n] (n = 1 or 4) at every step of traj as a list of floats, and
    # the spec of K_i = M_i^2 X / (S_i X + r), rescaled by 1/S_i top and
    # bottom so the coefficients stay bounded
    spec = GammaRatioSpec(a=np.array(traj.M2_over_S), b=0.0, c=1.0,
                          d=r * np.array(traj.inv_S), alpha=alpha, p=float(p0))
    moments = (ratio_mean(spec) if n == 1 else ratio_fourth_moment(spec)).tolist()
    # once r/S_i underflows to 0, K_i = q_i X/(X + 0) is q_i to double
    # precision; a Python float ** rounds as the scalar q_i ** n does
    for i in np.flatnonzero(spec.d == 0.0).tolist():
        moments[i] = traj.M2_over_S[i] ** n
    return moments, spec


def po_gain_mean(traj, p0, alpha, r, i):
    """E[K_i], the mean of the propagated gain, exact for alpha > 1."""
    i = traj.check_step(i)
    moments, spec = _gain_table(traj, p0, float(alpha), float(r), 1)
    return _at(i, moments, spec, (), "K", ratio_mean)


def po_gain_fourth(traj, p0, alpha, r, i):
    """E[K_i^4], the fourth moment of the propagated gain, exact for alpha > 4."""
    i = traj.check_step(i)
    moments, spec = _gain_table(traj, p0, float(alpha), float(r), 4)
    return _at(i, moments, spec, (), "K", ratio_fourth_moment)


def po_variance_penalty(traj, p0, alpha, r, i):
    """Extra analysis-variance term E[K_i^4] r^2 / alpha contributed by
    perturbing observations with sampled variance R ~ Gamma(alpha, r/alpha).
    Exact for alpha > 4."""
    alpha, r = float(alpha), float(r)
    return po_gain_fourth(traj, p0, alpha, r, i) * r * r / alpha


@dataclass(frozen=True)
class PoReport:
    """Monte Carlo estimates, with standard errors, for the decomposition
    P = rK + K^2 (R - r): the mean of P, the covariance of rK and
    K^2 (R - r), and the mean of (R - r)^2.  No closed form: the caller
    holds them to r E[K] (po_gain_mean), 0 and r^2/alpha."""

    mean_P: float
    mean_P_se: float
    cov_cross: float
    cov_cross_se: float
    second_R: float
    second_R_se: float
    # the fields (of mean_P, cov_cross, second_R) whose sample is one
    # double repeated, so that their standard error is 0
    constant: tuple = ()


def po_mean_identity_check(traj, p0, alpha, r, i, replicates, spec: RngSpec):
    """PoReport at step i from draws X ~ Gamma(alpha, p0/alpha), then
    R ~ Gamma(alpha, r/alpha), of one stream: per replicate the gain
    K = (M_i^2/S_i) X / (X + r/S_i) and P = rK + K^2 (R - r).

    It reads the ledger at step i and no closed-form table.  Raises
    InputError naming "p0" or "obs_variance" when a draw of X or of R is not
    a finite double, and IndexError for a step outside [0, n_steps].
    """
    i = traj.check_step(i)
    gen = spec.generator()
    n = int(replicates)
    alpha, r = float(alpha), float(r)
    x = gen.gamma(alpha, p0 / alpha, n)
    rr = gen.gamma(alpha, r / alpha, n)
    _check_draws(x, "p0", p0, i)
    _check_draws(rr, "obs_variance", r, i)
    # k = M2_over_S * x / (x + r * inv_S), in x's buffer
    den = x + r * traj.inv_S[i]
    k = x
    k *= traj.M2_over_S[i]
    k /= den
    # e = rr - r, a_term = r * k, b_term = k * k * e
    e = rr
    e -= r
    a_term = np.multiply(k, r, out=den)
    b_term = k
    b_term *= k
    b_term *= e

    # e is spent: its buffer holds e * e, P and the cross product in turn,
    # and d takes every centring pass
    constant = []
    d = np.empty(n)
    e *= e
    m_r2, se_r2 = _reduce(e, d, "second_R", constant)[:2]
    p = np.add(a_term, b_term, out=e)
    m_p, se_p = _reduce(p, d, "mean_P", constant)[:2]
    # P has been reduced, so the terms are centred in place
    a_term -= np.mean(a_term)
    b_term -= np.mean(b_term)
    cross = np.multiply(a_term, b_term, out=e)
    cov, cov_se = _reduce(cross, d, "cov_cross", constant)[:2]
    return PoReport(m_p, se_p, cov, cov_se, m_r2, se_r2, tuple(constant))
