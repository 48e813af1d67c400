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
from dataclasses import dataclass

import numpy as np

from .expint import expint_scaled_inverse_shifted, expint_scaled_inverse_shifted_array
from .propagators import ModelTrajectory, TrajectoryRangeError
from .rng import RngSpec, normal_polar
from .skf import PF_MIN

__all__ = [
    "EnsembleState",
    "InflationSchedule",
    "sample_initial_ensemble",
    "spenkf_analyze",
    "spenkf_forecast",
    "spenkf_run",
    "theta_star",
    "theta_step",
    "inflation_schedule",
]


@dataclass(frozen=True)
class EnsembleState:
    """Ensemble mean and anomalies after a forecast or analysis.

    sampled_var is the divisor-N variance (1/N) a.a, matching the
    stochastic-initialization convention; phase is "forecast" or
    "analysis"; gain is the gain of the producing analysis (nan for
    forecast states).
    """

    step: int
    phase: str
    mean: float
    anomalies: np.ndarray
    sampled_var: float
    gain: float = math.nan

    @classmethod
    def forecast(cls, step, mean, anomalies, below="model"):
        """Forecast-phase state whose sampled variance an analysis accepts.

        Raises TrajectoryRangeError when (1/N) a.a leaves [1e-300, inf),
        naming "p0" at step 0, and at later steps the input named by below
        for a variance under 1e-300 and "model" for one that overflows.
        """
        with np.errstate(over="ignore"):
            pf = _svar(anomalies)
        if not PF_MIN <= pf < math.inf:
            raise TrajectoryRangeError("p0" if step == 0 else below if pf < PF_MIN else "model",
                                       "step %d: the sampled forecast variance %g leaves "
                                       "[%g, inf): degenerate ensemble" % (step, pf, PF_MIN))
        return cls(step=step, phase="forecast", mean=mean, anomalies=anomalies,
                   sampled_var=pf)

    @property
    def size(self):
        return len(self.anomalies)

    @property
    def alpha(self):
        return 0.5 * len(self.anomalies)


def _svar(anoms):
    return float(np.dot(anoms, anoms) / len(anoms))


def sample_initial_ensemble(n_members, p0, x0, spec: RngSpec):
    """Initial forecast-phase ensemble: anomalies i.i.d. N(0, p0).

    The sampled variance (not p0 itself) is what the filter propagates:
    phat0 = (1/N) a.a is exactly Gamma(N/2) scaled to mean p0.  The mean
    is carried separately, so the anomalies are not recentred; recentring
    would change the sampled-variance law to a chi-square with N-1 degrees
    of freedom.  Raises TrajectoryRangeError("p0", ...) when phat0 leaves
    [1e-300, inf).
    """
    n = int(n_members)
    if n < 3:
        raise ValueError("need at least 3 ensemble members")
    if not (p0 > 0.0):
        raise ValueError("p0 must be positive")
    anoms = math.sqrt(p0) * normal_polar(spec.generator(), n)
    return EnsembleState.forecast(0, float(x0), anoms)


def spenkf_analyze(state: EnsembleState, y, r):
    """Assimilate observation y: gain from the sampled forecast variance,
    anomalies rescaled by (pa/pf)^(1/2)."""
    if state.phase != "forecast":
        raise ValueError("can only analyze a forecast-phase state")
    pf = state.sampled_var
    if pf < PF_MIN:
        raise ValueError("degenerate ensemble: sampled variance underflowed")
    k = pf / (pf + r)
    pa = k * r
    anoms = state.anomalies * math.sqrt(pa / pf)
    return EnsembleState(
        step=state.step,
        phase="analysis",
        mean=state.mean + k * (y - state.mean),
        anomalies=anoms,
        sampled_var=_svar(anoms),
        gain=k,
    )


def spenkf_forecast(state: EnsembleState, m, phi=1.0, psi=0.0, below="model"):
    """Propagate through multiplier m, then apply the variance inflation phi
    (anomalies scaled by sqrt(phi)) and the mean shift psi, in that order,
    before the next analysis.  Raises EnsembleState.forecast's
    TrajectoryRangeError when the sampled forecast variance leaves
    [1e-300, inf)."""
    if state.phase != "analysis":
        raise ValueError("can only forecast from an analysis-phase state")
    if m == 0.0:
        raise ValueError("model multiplier must be nonzero")
    with np.errstate(over="ignore"):
        return EnsembleState.forecast(state.step + 1, m * state.mean + psi,
                                      state.anomalies * (m * math.sqrt(phi)), below)


def spenkf_run(traj: ModelTrajectory, initial: EnsembleState,
               inflation: "InflationSchedule | None" = None):
    """Run the filter along a trajectory; returns analysis states per step.

    With a schedule, phi_0 scales the initial anomalies before the first
    analysis and (phi_i, psi_i) correct every later forecast.  Raises
    EnsembleState.forecast's TrajectoryRangeError at the first step whose
    sampled forecast variance leaves range.
    """
    r = traj.obs_variance
    # every analysis variance is below r, so with r under the floor a
    # forecast variance under it is r's fault, not the model's
    below = "obs_variance" if r < PF_MIN else "model"
    state = initial
    if inflation is not None:
        state = EnsembleState.forecast(0, state.mean,
                                       state.anomalies * math.sqrt(inflation.phi[0]))
    states = [spenkf_analyze(state, traj.observations[0], r)]
    for i, m in enumerate(traj.model.values):
        fc = (spenkf_forecast(states[-1], m, below=below) if inflation is None else
              spenkf_forecast(states[-1], m, inflation.phi[i + 1], inflation.psi[i + 1], below))
        states.append(spenkf_analyze(fc, traj.observations[i + 1], r))
    return states


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
    # A huge p0 overflows the denominator to inf: delta = 0 is then the
    # exact u -> 0 limit, so the overflow is silent.
    with np.errstate(over="ignore"):
        delta = u / (alpha * (p0 + u))
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
    phi[0] = theta[0] applied to the initial ensemble.  x_init is the mean
    the filter was started from; the mean shifts psi are relative to it.
    r_over_S[i] is the ratio r / S_i each theta[i] was solved for.
    """

    alpha: float
    p0: float
    r: float
    x_init: float
    theta_star: float
    r_over_S: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray


def inflation_schedule(traj: ModelTrajectory, alpha, p0, x_init):
    """Exact inflation schedule along a trajectory.

    The mean shifts depend on the realized observations through B_i, so the
    schedule is trajectory-specific, not just model-specific.
    """
    alpha, p0, x_init = float(alpha), float(p0), float(x_init)
    r = traj.obs_variance
    u = r * np.array(traj.inv_S_seq)
    theta = _thetas(alpha, p0, u, expint_scaled_inverse_shifted_array)
    # phi and psi in v = u / p0, so no theta * p0 product can overflow
    th0, th1, v = theta[:-1], theta[1:], u[:-1] / p0
    phi = np.empty_like(theta)
    phi[0] = theta[0]
    phi[1:] = th1 * (th0 + v) / (th0 * (th1 + v))
    # M_{i+1}/S_i = m_i M_i/S_i and B_i/S_i from the ratio ledger
    m_next = traj.model.values * traj.M_over_S_seq[:-1]
    b = np.array(traj.B_over_S_seq[:-1])
    psi = np.zeros_like(theta)
    psi[1:] = (m_next * (b - x_init) * (th1 - th0) * (r / p0)
               / ((th1 + v) * (th0 + v)))
    return InflationSchedule(alpha=alpha, p0=p0, r=r, x_init=x_init,
                             theta_star=theta_star(alpha), r_over_S=u,
                             theta=theta, phi=phi, psi=psi)
