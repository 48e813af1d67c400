"""Scalar Kalman filter: recursion, per-step closed forms, and error moments.

With observation variance r, prior (x0, p0) and model multipliers m_i, the
analysis variance and mean at step i have the closed forms

    p_i = M_i^2 p0 r / (S_i p0 + r) = r k_i
    x_i = M_i (B_i p0 + r x0) / (S_i p0 + r)

which the recursion must reproduce exactly up to roundoff.  All closed
forms are evaluated through the ratio ledger of the trajectory, in Python
floats, so they do not degrade when M_i and S_i overflow.  skf_closed_form
is a step check and a table read: the first call for a trajectory and a
prior (x0, p0) refuses the p0 that skf_start refuses, with its error, and
builds the SkfState of every step, each from steps i and i - 1 of the
ledger by the same float operations a single step would take.  It keeps the
list in the trajectory's tables dict under ("skf", x0, p0), x0 and p0 as
floats, for as long as the trajectory lives.

SkfState is a NamedTuple, an immutable record of its six fields in order:
it constructs in a third of a frozen dataclass's time (one
object.__setattr__ a field), which is most of a per-step closed form.
"""

import math
from typing import NamedTuple

import numpy as np

from .propagators import ModelTrajectory, TrajectoryRangeError, _check_finite
from .rng import RngSpec, normal_polar

__all__ = [
    "SkfState",
    "skf_start",
    "skf_step",
    "skf_run",
    "skf_closed_form",
    "skf_error_moments",
]


# smallest forecast variance an analysis accepts, here and in spenkf
PF_MIN = 1e-300


class SkfState(NamedTuple):
    step: int
    mean_forecast: float
    var_forecast: float
    gain: float
    mean_analysis: float
    var_analysis: float


def _analyze(step, xf, pf, y, r):
    k = pf / (pf + r)
    return SkfState(step, xf, pf, k, xf + k * (y - xf), k * r)


def forecast_blame(step, pf, r, start):
    """The input behind a forecast variance pf outside [PF_MIN, inf) at step.

    That is start, the input behind the step-0 forecast, at step 0;
    "obs_variance" for a variance under the floor when r itself is under it
    (every analysis variance is below r); and "model" otherwise.  Both
    filters call it on their error paths.
    """
    if step == 0:
        return start
    return "obs_variance" if pf < PF_MIN and r < PF_MIN else "model"


def skf_start(x0, p0, y0, r):
    """Step-0 state: forecast is the prior, followed by the first analysis.

    Raises TrajectoryRangeError naming "p0" when the prior variance leaves
    [PF_MIN, inf), as skf_step does for a later forecast variance.
    """
    if not PF_MIN <= p0 < math.inf:
        raise TrajectoryRangeError(forecast_blame(0, p0, r, "p0"), "step 0: the forecast "
                                   "variance %g leaves [%g, inf)" % (p0, PF_MIN))
    if not (r > 0.0):
        raise ValueError("the observation variance must be positive")
    return _analyze(0, float(x0), float(p0), float(y0), float(r))


def skf_step(prev: SkfState, m, y, r, phi=1.0, psi=0.0):
    """Forecast through multiplier m, then apply the variance inflation phi
    and the mean shift psi, in that order, and assimilate observation y.

    Raises TrajectoryRangeError when the forecast variance m^2 p_a phi
    leaves [PF_MIN, inf), naming the input forecast_blame names.
    """
    if m == 0.0:
        raise ValueError("model multiplier must be nonzero")
    # Python floats: an overflowing forecast gives inf without a warning
    m = float(m)
    xf = m * prev.mean_analysis + float(psi)
    pf = m * m * prev.var_analysis * float(phi)
    step = prev.step + 1
    if not PF_MIN <= pf < math.inf:
        raise TrajectoryRangeError(forecast_blame(step, pf, r, "p0"), "step %d: the forecast "
                                   "variance %g leaves [%g, inf)" % (step, pf, PF_MIN))
    return _analyze(step, xf, pf, float(y), float(r))


def run_filter(traj: ModelTrajectory, start, step, inflation):
    """One state per step of a scalar filter along a trajectory, here and
    in spenkf: start(y_0, r, phi_0), then step(prev, m_i, y_{i+1}, r,
    phi_{i+1}, psi_{i+1}); without an InflationSchedule phi and psi are
    ones and zeros."""
    r = traj.obs_variance
    n = traj.n_steps
    phi = inflation.phi if inflation is not None else np.ones(n + 1)
    psi = inflation.psi if inflation is not None else np.zeros(n + 1)
    states = [start(traj.observations[0], r, phi[0])]
    for i, m in enumerate(traj.model.values):
        states.append(step(states[-1], m, traj.observations[i + 1], r, phi[i + 1], psi[i + 1]))
    return states


def skf_run(traj: ModelTrajectory, x0, p0, inflation=None):
    """The full recursion along a trajectory; returns one state per step.

    With an InflationSchedule, phi_0 multiplies p0 and (phi_i, psi_i)
    correct every later forecast: fed the sampled (x0, phat0) of an
    ensemble run, this is that run's mean and variance.  Raises skf_step's
    TrajectoryRangeError at the first step whose forecast variance leaves
    [PF_MIN, inf).
    """
    return run_filter(traj, lambda y0, r, phi0: skf_start(x0, p0 * phi0, y0, r),
                      skf_step, inflation)


def _closed_analysis(traj, x0, p0, i):
    # closed-form analysis mean and variance at step i, from the ledger
    r = traj.obs_variance
    u = r * traj.inv_S[i]
    pa = r * p0 * traj.M2_over_S[i] / (p0 + u)
    xa = (p0 * traj.MB_over_S[i] + traj.M_over_S[i] * r * x0) / (p0 + u)
    return xa, pa


def _closed_table(traj, key):
    # SkfState at every step of traj from the closed forms: the analysis of
    # step i, and the forecast of step i from the analysis of step i - 1,
    # kept in traj.tables under key = ("skf", x0, p0), the key the entry
    # probed, and returned.  A prior that skf_start refuses is refused here,
    # with its message, and so is a mean that is not finite
    _, x0, p0 = key
    r = traj.obs_variance
    skf_start(x0, p0, 0.0, r)
    _check_finite(("x0", x0))
    analyses = [_closed_analysis(traj, x0, p0, i) for i in range(traj.n_steps + 1)]
    forecasts = [(x0, p0)] + [(m * xa, m * m * pa) for m, (xa, pa)
                              in zip(traj.model.values.tolist(), analyses)]
    return traj.tables.setdefault(key, [
        SkfState(i, xf, pf, pa / r, xa, pa)
        for i, ((xf, pf), (xa, pa)) in enumerate(zip(forecasts, analyses))])


def skf_closed_form(traj: ModelTrajectory, x0, p0, i):
    """SkfState at step i straight from the closed forms (no recursion);
    IndexError for a step outside [0, n_steps]."""
    i, key = traj.check_step(i), ("skf", float(x0), float(p0))
    return (traj.tables.get(key) or _closed_table(traj, key))[i]


def skf_error_moments(traj: ModelTrajectory, x0, p0, i, replicates, spec: RngSpec):
    """SampleMoments of the analysis error x_i - truth_i at step i.

    Each replicate redraws the initial truth from the prior N(x0, p0) and
    the observation noise of every assimilated observation, so the sample
    variance is calibrated against the closed-form analysis variance.  The
    error replays the recursion e <- (r/(p_f + r)) m e + k sqrt(r) n of
    skf_step's p_f and k from e = -sqrt(p0) n, one normal_polar draw a step.
    Raises IndexError for a step outside [0, n_steps] and ValueError for a
    replicate count check_replicates refuses.
    """
    # on the first call: importing skf loads no closed form
    from .discrepancy import check_replicates, sample_moments

    i, n = traj.check_step(i), check_replicates(replicates)
    r = traj.obs_variance
    gen = spec.generator()
    e = normal_polar(gen, n)
    e *= -math.sqrt(p0)
    state = skf_start(x0, p0, traj.observations[0], r)
    for j in range(i + 1):
        if j:
            m = traj.model.values[j - 1]
            state = skf_step(state, m, traj.observations[j], r)
            e *= m
        # r/(p_f + r), not 1 - k, which cancels once p_f >> r
        e *= r / (state.var_forecast + r)
        noise = normal_polar(gen, n)
        noise *= state.gain * math.sqrt(r)
        e += noise
    return sample_moments(e)
