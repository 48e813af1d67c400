"""Scalar Kalman filter: recursion, per-step closed forms, and error moments.

With observation variance r, prior (x0, p0) and model multipliers m_i, the
analysis variance and mean at step i have the closed forms

    p_i = M_i^2 p0 r / (S_i p0 + r) = r k_i
    x_i = M_i (B_i p0 + r x0) / (S_i p0 + r)

which the recursion must reproduce exactly up to roundoff.  All closed
forms are evaluated through the ratio ledger of the trajectory, in Python
floats, so they do not degrade when M_i and S_i overflow: skf_closed_form
reads steps i and i - 1 of the ledger and keeps no table.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import sample_moments
from .propagators import ModelTrajectory, TrajectoryRangeError
from .rng import RngSpec, normal_polar

__all__ = [
    "SkfState",
    "ErrorMoments",
    "skf_start",
    "skf_step",
    "skf_run",
    "skf_closed_form",
    "skf_error_moments",
]


# smallest forecast variance an analysis accepts, here and in spenkf
PF_MIN = 1e-300


@dataclass(frozen=True)
class SkfState:
    step: int
    mean_forecast: float
    var_forecast: float
    gain: float
    mean_analysis: float
    var_analysis: float


def _analyze(step, xf, pf, y, r):
    k = pf / (pf + r)
    return SkfState(
        step=step,
        mean_forecast=xf,
        var_forecast=pf,
        gain=k,
        mean_analysis=xf + k * (y - xf),
        var_analysis=k * r,
    )


def skf_start(x0, p0, y0, r):
    """Step-0 state: forecast is the prior, followed by the first analysis.

    Raises TrajectoryRangeError naming "p0" when the prior variance leaves
    [PF_MIN, inf), as skf_step does for a later forecast variance.
    """
    if not PF_MIN <= p0 < math.inf:
        raise TrajectoryRangeError("p0", "step 0: the forecast variance %g leaves "
                                   "[%g, inf)" % (p0, PF_MIN))
    if not (r > 0.0):
        raise ValueError("the observation variance must be positive")
    return _analyze(0, float(x0), float(p0), float(y0), float(r))


def skf_step(prev: SkfState, m, y, r, phi=1.0, psi=0.0):
    """Forecast through multiplier m, then apply the variance inflation phi
    and the mean shift psi, in that order, and assimilate observation y.

    Raises TrajectoryRangeError when the forecast variance m^2 p_a phi
    leaves [PF_MIN, inf), naming "obs_variance" for one under the floor when
    r itself is under it (every analysis variance is below r) and "model"
    otherwise.
    """
    if m == 0.0:
        raise ValueError("model multiplier must be nonzero")
    # Python floats: an overflowing forecast gives inf without a warning
    m = float(m)
    xf = m * prev.mean_analysis + float(psi)
    pf = m * m * prev.var_analysis * float(phi)
    if not PF_MIN <= pf < math.inf:
        param = "obs_variance" if pf < PF_MIN and r < PF_MIN else "model"
        raise TrajectoryRangeError(param, "step %d: the forecast variance %g leaves "
                                   "[%g, inf)" % (prev.step + 1, pf, PF_MIN))
    return _analyze(prev.step + 1, xf, pf, float(y), float(r))


def skf_run(traj: ModelTrajectory, x0, p0, inflation=None):
    """The full recursion along a trajectory; returns one state per step.

    With an InflationSchedule, phi_0 multiplies p0 and (phi_i, psi_i)
    correct every later forecast: fed the sampled (x0, phat0) of an
    ensemble run, this is that run's mean and variance.  Raises skf_step's
    TrajectoryRangeError at the first step whose forecast variance leaves
    [PF_MIN, inf).
    """
    r = traj.obs_variance
    n = traj.n_steps
    phi = inflation.phi if inflation is not None else np.ones(n + 1)
    psi = inflation.psi if inflation is not None else np.zeros(n + 1)
    states = [skf_start(x0, p0 * phi[0], traj.observations[0], r)]
    for i, m in enumerate(traj.model.values):
        states.append(skf_step(states[-1], m, traj.observations[i + 1], r,
                               phi[i + 1], psi[i + 1]))
    return states


def _closed_analysis(traj, x0, p0, i):
    # closed-form analysis mean and variance at step i, from the ledger
    r = traj.obs_variance
    u = r * traj.inv_S_seq[i]
    pa = r * p0 * traj.M2_over_S_seq[i] / (p0 + u)
    xa = (p0 * traj.MB_over_S_seq[i] + traj.M_over_S_seq[i] * r * x0) / (p0 + u)
    return xa, pa


def skf_closed_form(traj: ModelTrajectory, x0, p0, i):
    """SkfState at step i straight from the closed forms (no recursion)."""
    i, x0, p0 = int(i), float(x0), float(p0)
    xa, pa = _closed_analysis(traj, x0, p0, i)
    if i == 0:
        xf, pf = x0, p0
    else:
        m = float(traj.model.values[i - 1])
        xm, pm = _closed_analysis(traj, x0, p0, i - 1)
        xf, pf = m * xm, m * m * pm
    return SkfState(step=i, mean_forecast=xf, var_forecast=pf, gain=pa / traj.obs_variance,
                    mean_analysis=xa, var_analysis=pa)


@dataclass(frozen=True)
class ErrorMoments:
    mean: float
    mean_se: float
    var: float
    var_se: float


def skf_error_moments(traj: ModelTrajectory, x0, p0, i, replicates, spec: RngSpec):
    """Monte Carlo moments of the analysis error x_i - truth_i at step i.

    Each replicate redraws the initial truth from the prior N(x0, p0) and
    the observation noise of every assimilated observation, so the sample
    variance is calibrated against the closed-form analysis variance.
    Returns sample mean/variance of the error with their standard errors.
    """
    i = int(i)
    r = traj.obs_variance
    u = traj.r_over_S(i)
    # weights v_l = M_i M_l / S_i on each observation replicate: |v_l| <= 1
    # where M_l overflows, so they come from log|M_l| anchored on the larger
    # of M_i^2/S_i and |M_i/S_i|; if both underflow, so does v_l^2 <= M_i^2/S_i
    m = traj.model.values[:i]
    log_M = np.concatenate(([0.0], np.cumsum(np.log(np.abs(m)))))
    sign = np.concatenate(([1.0], np.cumprod(np.sign(m))))
    q, mos = traj.M2_over_S(i), abs(traj.M_over_S(i))
    anchor, log_v = (q, log_M - log_M[i]) if q >= mos else (mos, log_M)
    v = sign[i] * sign * np.exp(log_v + math.log(anchor)) if anchor else np.zeros(i + 1)
    gen = spec.generator()
    nrep = int(replicates)
    errs = np.empty(nrep)
    chunk = max(1, min(nrep, 4_000_000 // (i + 2)))
    done = 0
    sq = math.sqrt(r)
    sp = math.sqrt(p0)
    mi_over_si = traj.M_over_S(i)
    while done < nrep:
        b = min(chunk, nrep - done)
        noise = normal_polar(gen, b * (i + 2)).reshape(b, i + 2)
        # error = [ (M_i/S_i) r (x0 - x0_truth) + p0 sqrt(r) v.n ] / (p0 + u)
        prior_dev = sp * noise[:, 0]
        obs_part = noise[:, 1:] @ v
        errs[done : done + b] = (
            -mi_over_si * r * prior_dev + p0 * sq * obs_part
        ) / (p0 + u)
        done += b
    return ErrorMoments(*sample_moments(errs, fourth=True, out=errs))
