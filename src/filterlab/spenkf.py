"""Stochastically initialized scalar ensemble filter and its exact inflation.

The filter carries an N-member ensemble whose only stochasticity is the
initial draw: the analysis update rescales anomalies deterministically by
(pa/pf)^(1/2), so the sampled initial variance

    phat0 = (1/N) a.a  ~  Gamma(alpha, p0/alpha),  alpha = N/2

propagates through the same closed forms as the exact filter.  That makes
the optimal multiplicative inflation computable in closed form: theta_i
solves E[inflated analysis variance] = exact analysis variance, via the
inverse of the scaled exponential integral, and the sequential factors
(phi_i, psi_i) convert the one-shot theta_i into a per-step correction of
the forecast variance and mean.
"""

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .expint import expint_scaled_inverse_shifted, expint_scaled_inverse_shifted_array
from .propagators import ModelTrajectory, TrajectoryRangeError
from .rng import RngSpec, check_count, normal_polar
from .skf import PF_MIN, forecast_blame, run_filter

__all__ = [
    "EnsembleState",
    "InflationSchedule",
    "sample_initial_ensemble",
    "spenkf_start",
    "spenkf_step",
    "spenkf_run",
    "theta_star",
    "theta_step",
    "inflation_schedule",
]


@dataclass(frozen=True)
class EnsembleState:
    """Ensemble mean and anomalies after the analysis at a step.

    sampled_var is the divisor-N variance (1/N) a.a, matching the
    stochastic-initialization convention; gain is the gain of the analysis
    (nan for an initial ensemble, which no analysis has produced).
    """

    step: int
    mean: float
    anomalies: np.ndarray
    sampled_var: float
    gain: float = math.nan

    @classmethod
    def initial(cls, mean, anomalies):
        """Step-0 ensemble before its first analysis.

        Raises TrajectoryRangeError naming "phat0" when (1/N) a.a leaves
        [1e-300, inf).
        """
        return cls(0, float(mean), anomalies, _forecast_var(0, anomalies, None))


def _svar(anoms):
    return float(np.dot(anoms, anoms) / len(anoms))


def _forecast_var(step, anoms, r):
    # (1/N) a.a of a forecast ensemble, refused outside [PF_MIN, inf)
    with np.errstate(over="ignore"):
        pf = _svar(anoms)
    if not PF_MIN <= pf < math.inf:
        raise TrajectoryRangeError(forecast_blame(step, pf, r, "phat0"),
                                   "step %d: the sampled forecast variance %g leaves "
                                   "[%g, inf): degenerate ensemble" % (step, pf, PF_MIN))
    return pf


def _analyze(step, xf, anoms, pf, y, r):
    # gain from the sampled forecast variance, anomalies rescaled by (pa/pf)^(1/2)
    k = pf / (pf + r)
    anoms = anoms * math.sqrt(k * r / pf)
    return EnsembleState(step, xf + k * (y - xf), anoms, _svar(anoms), k)


def sample_initial_ensemble(n_members, p0, x0, spec: RngSpec):
    """Initial ensemble: anomalies i.i.d. N(0, p0).

    The sampled variance (not p0 itself) is what the filter propagates:
    phat0 = (1/N) a.a is exactly Gamma(N/2) scaled to mean p0.  The mean
    is carried separately, so the anomalies are not recentred; recentring
    would change the sampled-variance law to a chi-square with N-1 degrees
    of freedom.  Raises ValueError for a member count that is not an
    integer (an int or a numpy integer) or is below 3, and
    TrajectoryRangeError("phat0", ...) when phat0 leaves [1e-300, inf).
    """
    n = check_count(n_members, 3, "n_members")
    if not (p0 > 0.0):
        raise ValueError("p0 must be positive")
    anoms = math.sqrt(p0) * normal_polar(spec.generator(), n)
    return EnsembleState.initial(x0, anoms)


def spenkf_start(x0, anomalies, y0, r):
    """Step-0 analysis: the ensemble (x0, anomalies) is the forecast, and
    observation y0 is assimilated with the sampled gain.

    Raises TrajectoryRangeError naming "phat0" when (1/N) a.a leaves
    [1e-300, inf), as spenkf_step does for a later forecast.
    """
    return _analyze(0, float(x0), anomalies, _forecast_var(0, anomalies, r), y0, r)


def spenkf_step(prev: EnsembleState, m, y, r, phi=1.0, psi=0.0):
    """Forecast through multiplier m, then apply the variance inflation phi
    (anomalies scaled by sqrt(phi)) and the mean shift psi, in that order,
    and assimilate observation y.

    Raises TrajectoryRangeError when the sampled forecast variance leaves
    [1e-300, inf), naming the input skf.forecast_blame names.
    """
    if m == 0.0:
        raise ValueError("model multiplier must be nonzero")
    m, step = float(m), prev.step + 1
    with np.errstate(over="ignore"):
        xf = m * prev.mean + float(psi)
        anoms = prev.anomalies * (m * math.sqrt(phi))
    return _analyze(step, xf, anoms, _forecast_var(step, anoms, r), y, r)


def spenkf_run(traj: ModelTrajectory, initial: EnsembleState,
               inflation: "InflationSchedule | None" = None):
    """Run the filter along a trajectory; returns one analysis state per step.

    phi_0 scales the initial anomalies before the first analysis and
    (phi_i, psi_i) correct every later forecast; without a schedule they
    are ones and zeros, and scaling by 1 is exact.  Raises spenkf_step's
    TrajectoryRangeError at the first step whose sampled forecast variance
    leaves range.
    """
    def start(y0, r, phi0):
        return spenkf_start(initial.mean, initial.anomalies * math.sqrt(phi0), y0, r)

    return run_filter(traj, start, spenkf_step, inflation)


def theta_star(alpha):
    """Limit of the optimal inflation as r/(S_i p0) -> 0."""
    if not (alpha > 1.0):
        raise ValueError("need alpha > 1")
    return alpha / (alpha - 1.0)


def _thetas(alpha, p0, u, inverse):
    # u = r / S_i, a float or an array.  theta = alpha*r / (S_i p0 z*) with
    # z* the inverse of the scaled expint at order alpha+1 evaluated at
    # S_i p0 / (alpha (S_i p0 + r)).  The target sits near its z = 0 limit
    # 1/alpha for small u, so the inverse is driven by the shift
    # 1/alpha - y = u / (alpha (p0 + u)), formed here without cancellation.
    # theta depends on u / p0 alone: where alpha (p0 + u) overflows, both are
    # scaled by 2^-64, and a huge u gives a shift that rounds to 1/alpha and is
    # refused.  A subnormal shift is taken as 0: theta rounds to theta_star.
    with np.errstate(over="ignore"):
        big = np.isinf(alpha * (p0 + u))
    p0, u = np.where(big, p0 * 2.0 ** -64, p0), np.where(big, u * 2.0 ** -64, u)
    delta = u / (alpha * (p0 + u))
    delta = np.where(delta < sys.float_info.min, 0.0, delta)
    z = inverse(alpha, delta)
    ts = theta_star(alpha)
    # z == 0: delta underflowed and the u -> 0 limit applies
    zero = z == 0.0
    th = alpha * u / (p0 * np.where(zero, 1.0, z))
    # roundoff guard: theta lies in [1, theta_star] by monotonicity
    return np.where(zero, ts, np.clip(th, 1.0, ts))


def theta_step(alpha, S_i, p0, r):
    """One-shot optimal inflation theta_i from raw S_i (may overflow; prefer
    inflation_schedule, which uses the trajectory's ratio ledger)."""
    return float(_thetas(float(alpha), float(p0), float(r) / float(S_i),
                         expint_scaled_inverse_shifted))


@dataclass(frozen=True)
class InflationSchedule:
    """Per-step correction factors for an inflated run.

    theta[i] is the one-shot factor making the expected inflated analysis
    variance exact at step i; phi[i]/psi[i] are the sequential forecast
    corrections that realize theta[i] given theta[i-1] was realized, with
    phi[0] = theta[0] applied to the initial ensemble.  theta_star is the
    limit alpha/(alpha-1) of theta[i] as r/S_i -> 0.
    """

    theta_star: float
    theta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray

    def initial_theta(self):
        """The one-shot schedule: only the initial ensemble is inflated, by
        theta at the final step (an unbiased final analysis variance), so
        phi_0 = theta_n, every later phi_i = 1 and every psi_i = 0."""
        phi = np.ones_like(self.phi)
        phi[0] = self.theta[-1]
        return replace(self, phi=phi, psi=np.zeros_like(self.psi))


def inflation_schedule(traj: ModelTrajectory, alpha, p0, x_init):
    """Exact inflation schedule along a trajectory, for an ensemble of
    alpha = N/2 whose sampled prior variance has mean p0.

    x_init is the mean the filter is started from; the mean shifts psi are
    relative to it.  They depend on the realized observations through B_i,
    so the schedule is trajectory-specific, not just model-specific.
    """
    alpha, p0, x_init = float(alpha), float(p0), float(x_init)
    r = traj.obs_variance
    u = r * traj.array("inv_S")
    theta = _thetas(alpha, p0, u, expint_scaled_inverse_shifted_array)
    # phi and psi in v = u / p0, so no theta * p0 product can overflow
    th0, th1, v = theta[:-1], theta[1:], u[:-1] / p0
    phi = np.empty_like(theta)
    phi[0] = theta[0]
    phi[1:] = th1 * (th0 + v) / (th0 * (th1 + v))
    # M_{i+1}/S_i = m_i M_i/S_i and B_i/S_i from the ratio ledger
    m_next = traj.model.values * traj.array("M_over_S")[:-1]
    b = traj.array("B_over_S")[:-1]
    psi = np.zeros_like(theta)
    psi[1:] = (m_next * (b - x_init) * (th1 - th0) * (r / p0)
               / ((th1 + v) * (th0 + v)))
    return InflationSchedule(theta_star=theta_star(alpha), theta=theta, phi=phi, psi=psi)
