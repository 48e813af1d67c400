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

The per-step closed forms index tables built a trajectory at a time: the
first call for a (trajectory, inputs) pair evaluates one array spec over
every step and keeps the moments in an 8-entry functools.lru_cache, keyed
on the trajectory's identity.  A step the array spec leaves out (NaN) is
evaluated again through its own spec, so it raises what it raised alone and
no other step does.  Callers that fan steps out to threads evaluate one
step first, so that each table is built once.

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
    "sample_moments",
    "mc_discrepancy_moments",
    "po_gain_spec",
    "po_gain_mean",
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
    # from the ledger's 1/S_i, M_i^2/S_i, M_i/S_i and B_i/S_i: floats for one
    # step, arrays for every step
    u = inp.r * inv_s
    c = inp.p0 + u
    a_dp = q * u * inp.r  # M^2 r^2 / S^2
    a_dx = inp.r * m_s * (b_s - inp.x0)
    b_dx = inp.r * m_s * (c * inp.x_tilde0 - b_s * inp.p0 - u * inp.x0)
    return (a_dp, -a_dp * inp.p0), (a_dx, b_dx), c, u * c


def _step_coefs(traj, inp, i):
    return _coefs(inp, traj.inv_S(i), traj.M2_over_S(i), traj.M_over_S(i), traj.B_over_S(i))


def dp_spec(traj: ModelTrajectory, inp: PerturbedInputs, i):
    """Gamma-ratio spec of dp_i, scaled by 1/S_i^2 top and bottom."""
    (a, b), _, c, d = _step_coefs(traj, inp, i)
    return GammaRatioSpec(a, b, c, d, inp.alpha, inp.p_tilde0)


def dx_spec(traj: ModelTrajectory, inp: PerturbedInputs, i):
    """Gamma-ratio spec of dx_i, scaled by 1/S_i^2 top and bottom.

    Degenerates (a*d == b*c) exactly when B_i/S_i == x_tilde0, in which
    case dx_i is the constant a/c; that case raises ValueError, since the
    rounded a*d and b*c need not come out equal.  Callers should branch on it.
    """
    if traj.B_over_S(i) == inp.x_tilde0:
        raise ValueError("B_i/S_i == x_tilde0 makes dx_%d constant" % i)
    _, (a, b), c, d = _step_coefs(traj, inp, i)
    return GammaRatioSpec(a, b, c, d, inp.alpha, inp.p_tilde0)


@functools.lru_cache(maxsize=8)
def _moment_table(traj, inp):
    # E[dp_i], E[dx_i], E[dp_i^2], E[dx_i^2] at every step of traj, as lists
    # of floats; NaN marks a step the array spec leaves out.  dp and dx
    # share z, so one spec with a row for each evaluates every order once.
    ledger = [np.array(s) for s in (traj.inv_S_seq, traj.M2_over_S_seq,
                                    traj.M_over_S_seq, traj.B_over_S_seq)]
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
    return (*mean.tolist(), *second.tolist())


def expected_dp(traj, inp, i):
    """E[dp_i], exact for alpha > 1."""
    v = _moment_table(traj, inp)[0][i]
    return v if v == v else ratio_mean(dp_spec(traj, inp, i))


def second_moment_dp(traj, inp, i):
    """E[dp_i^2], exact for alpha > 2."""
    v = _moment_table(traj, inp)[2][i]
    return v if v == v else ratio_second_moment(dp_spec(traj, inp, i))


def expected_dx(traj, inp, i):
    """E[dx_i], exact for alpha > 1."""
    v = _moment_table(traj, inp)[1][i]
    # a step with B_i/S_i == x_tilde0 holds the constant dx_i, NaN or not
    if v == v or traj.B_over_S(i) == inp.x_tilde0:
        return v
    return ratio_mean(dx_spec(traj, inp, i))


def second_moment_dx(traj, inp, i):
    """E[dx_i^2], exact for alpha > 2."""
    v = _moment_table(traj, inp)[3][i]
    if v == v or traj.B_over_S(i) == inp.x_tilde0:
        return v
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
                     m_dx, se_dx, m_dx2, se_dx2, v_dx, vse_dx, n, tuple(constant))


def _gain_spec(q, inv_s, p0, alpha, r):
    return GammaRatioSpec(a=q, b=0.0, c=1.0, d=float(r) * inv_s,
                          alpha=float(alpha), p=float(p0))


def po_gain_spec(traj: ModelTrajectory, p0, alpha, r, i):
    """Gamma-ratio spec of the propagated gain K_i = M_i^2 X / (S_i X + r),
    rescaled by 1/S_i top and bottom so the coefficients stay bounded."""
    return _gain_spec(traj.M2_over_S(i), traj.inv_S(i), p0, alpha, r)


@functools.lru_cache(maxsize=8)
def _gain_table(traj, p0, alpha, r, n):
    # E[K_i^n] (n = 1 or 4) at every step of traj, as a list of floats
    spec = _gain_spec(np.array(traj.M2_over_S_seq), np.array(traj.inv_S_seq),
                      p0, alpha, r)
    if n == 1:
        return ratio_mean(spec).tolist()
    return (ratio_fourth_moment(spec) if alpha > 4.0 else np.full_like(spec.z, np.nan)).tolist()


def _po_gain_moment(traj, p0, alpha, r, i, n):
    # E[K_i^n] for n = 1 or 4, a NaN step through its own spec; once r/S_i
    # underflows to 0, K_i = q_i X/(X + 0) is q_i = M_i^2/S_i to double precision
    v = _gain_table(traj, p0, alpha, r, n)[i]
    if v == v:
        return v
    if r * traj.inv_S(i) == 0.0:
        return traj.M2_over_S(i) ** n
    spec = po_gain_spec(traj, p0, alpha, r, i)
    return ratio_mean(spec) if n == 1 else ratio_fourth_moment(spec)


def po_gain_mean(traj, p0, alpha, r, i):
    """E[K_i], the mean of the propagated gain, exact for alpha > 1."""
    return _po_gain_moment(traj, p0, float(alpha), float(r), i, 1)


def po_variance_penalty(traj, p0, alpha, r, i):
    """Extra analysis-variance term E[K_i^4] r^2 / alpha contributed by
    perturbing observations with sampled variance R ~ Gamma(alpha, r/alpha).
    Exact for alpha > 4."""
    alpha, r = float(alpha), float(r)
    return _po_gain_moment(traj, p0, alpha, r, i, 4) * r * r / alpha


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
    # the fields (of mean_P, cov_cross, second_R) whose sample is one
    # double repeated, so that their standard error is 0
    constant: tuple = ()


def po_mean_identity_check(traj, p0, alpha, r, i, replicates, spec: RngSpec):
    gen = spec.generator()
    n = int(replicates)
    alpha, r = float(alpha), float(r)
    x = gen.gamma(alpha, p0 / alpha, n)
    rr = gen.gamma(alpha, r / alpha, n)
    # k = M2_over_S * x / (x + r * inv_S), in x's buffer
    den = x + r * traj.inv_S(i)
    k = x
    k *= traj.M2_over_S(i)
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
    return PoReport(
        mean_P=m_p,
        mean_P_se=se_p,
        analytic_mean_rK=r * po_gain_mean(traj, p0, alpha, r, i),
        cov_cross=cov,
        cov_cross_se=cov_se,
        second_R=m_r2,
        second_R_se=se_r2,
        exact_second_R=r * r / alpha,
        # the closed-form penalty needs the fourth gain moment (alpha > 4)
        penalty=(po_variance_penalty(traj, p0, alpha, r, i)
                 if alpha > 4.0 else math.nan),
        replicates=n,
        constant=tuple(constant),
    )
