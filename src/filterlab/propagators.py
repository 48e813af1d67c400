"""Model sequences, simulated truth/observations, and cumulative propagators.

For a scalar linear model x_{i+1} = m_i x_i observed with variance r, every
closed form consumes M_i = m_0 * ... * m_{i-1} (M_0 = 1), S_i = sum_{l<=i}
M_l^2 and B_i = sum_{l<=i} M_l y_l only through the bounded ratios 1/S_i,
M_i/S_i, q_i = M_i^2/S_i, B_i/S_i and M_i B_i/S_i.  M_i and S_i leave double
range within a few hundred steps of |m| != 1, so the ledger holds the ratios
and builds them by their own recursion from (1, 1, 1, y_0, y_0): with
g = S_{i+1}/S_i = 1 + m_i^2 q_i,

    1/S <- (1/S)/g,   M/S <- m_i (M/S)/g,   q <- m_i^2 q/g,
    B/S <- (B/S + m_i (M/S) y_{i+1})/g,   MB/S <- m_i (MB/S)/g + q y_{i+1},

with M/S on the right taken before the step and q after it.  M/S, q and
MB/S shrink with M_i and grow back when it recovers, so they are carried as
a mantissa and a binary exponent (math.frexp) and rounded to doubles only
for the ledger; 1/S_i never grows and B_i/S_i stays of the size of
x0_truth plus the noise, so both are plain doubles.  Each update rounds a
few bounded numbers, so the ratios keep their relative accuracy however far
M_i and S_i leave double range and come back.  The truth x0_truth * M_i is
multiplied out the same way.  ModelTrajectory holds each ratio as a tuple
of Python floats, read by index only: traj.inv_S[i], traj.M2_over_S[i], ...
"""

import math
from dataclasses import dataclass, field
from math import frexp, ldexp

import numpy as np

from .rng import RngSpec, normal_polar

__all__ = ["ModelSequence", "ModelTrajectory", "InputError",
           "TrajectoryRangeError", "build_trajectory"]


@dataclass(frozen=True)
class ModelSequence:
    """A finite sequence of nonzero scalar model multipliers m_0..m_{n-1}."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("model sequence must be a nonempty 1-d array")
        if not np.all(np.isfinite(vals)) or np.any(vals == 0.0):
            raise ValueError("model multipliers must be finite and nonzero")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    @classmethod
    def constant(cls, m, steps):
        return cls(np.full(int(steps), float(m)))

    @classmethod
    def random_loguniform(cls, steps, spec: RngSpec, low=0.5, high=2.0, signed=True):
        """i.i.d. multipliers with |m| log-uniform on [low, high], random sign."""
        gen = spec.generator()
        mag = np.exp(gen.uniform(math.log(low), math.log(high), int(steps)))
        if signed:
            sign = np.where(gen.random(int(steps)) < 0.5, -1.0, 1.0)
            mag = mag * sign
        return cls(mag)


@dataclass(eq=False)
class ModelTrajectory:
    """Truth, observations, and the cumulative propagator ledger.

    Arrays are indexed by step i = 0..n where n = len(model).  The ledger is
    the five ratio sequences of the module docstring as tuples of Python
    floats, read by index: 1/S_i is inv_S[i] and X/S_i is X_over_S[i] (r/S_i
    is obs_variance * inv_S[i]).  A trajectory compares and hashes by
    identity: the closed-form tables of discrepancy are keyed on it.
    """

    model: ModelSequence
    obs_variance: float
    truth: np.ndarray
    observations: np.ndarray
    inv_S: tuple = field(repr=False)
    M_over_S: tuple = field(repr=False)
    M2_over_S: tuple = field(repr=False)
    B_over_S: tuple = field(repr=False)
    MB_over_S: tuple = field(repr=False)

    @property
    def n_steps(self):
        """Index of the last step (arrays have n_steps + 1 entries)."""
        return len(self.model)

    def check_step(self, i):
        """Step i as an int; IndexError for a step outside [0, n_steps]."""
        if not 0 <= i < len(self.inv_S):
            raise IndexError("step %d is outside [0, %d]" % (i, self.n_steps))
        return int(i)


class InputError(ValueError):
    """An input a model or filter cannot use: param names the input at
    fault and detail says what is wrong with it."""

    def __init__(self, param, detail):
        super().__init__("%s: %s" % (param, detail))
        self.param, self.detail = param, detail


class TrajectoryRangeError(InputError):
    """A truth, observation, ratio or forecast variance of a trajectory that
    is not a finite double.

    param names the build_trajectory input at fault: "model", "x0_truth" or
    "obs_variance"; detail names the step and what left double range.
    """


def _add(a, ea, b, eb):
    """Mantissa and exponent of a 2^ea + b 2^eb, for a, b each 0 or within a
    few dozen binades of 1."""
    if b and (not a or eb > ea):
        a, ea, b, eb = b, eb, a, ea
    f, e = frexp(a + ldexp(b, eb - ea))
    return f, e + ea


def build_trajectory(model: ModelSequence, x0_truth, obs_variance, spec: RngSpec):
    """Simulate truth and noisy observations and build the ratio ledger.

    Observation noise is drawn with the polar normal transform from the
    given stream, so the trajectory is a pure function of (model, x0_truth,
    obs_variance, spec).  Raises TrajectoryRangeError naming the first step
    at which the truth, its observation or a ratio is not a finite double.
    """
    r = float(obs_variance)
    if not (r > 0.0):
        raise ValueError("obs_variance must be positive")
    x0 = float(x0_truth)
    if not math.isfinite(x0):
        raise TrajectoryRangeError("x0_truth", "not a finite number")
    mfs, mes = (a.tolist() for a in np.frexp(model.values))
    xf, xe = frexp(x0)
    truth_f, truth_e = [xf], [xe]
    for mf, me in zip(mfs, mes):
        xf, e = frexp(xf * mf)
        xe += me + e
        truth_f.append(xf)
        truth_e.append(xe)
    noise = math.sqrt(r) * normal_polar(spec.generator(), len(mfs) + 1)
    with np.errstate(over="ignore"):
        truth = np.ldexp(truth_f, truth_e)
        obs = truth + noise

    def range_error(i):
        if not math.isfinite(noise[i]):
            return TrajectoryRangeError(
                "obs_variance", "step %d: the observation noise is not finite" % i)
        # blame x0_truth when M_i = truth_i / x0_truth is itself a double
        f0, e0 = frexp(x0)
        with np.errstate(over="ignore"):
            m_ok = bool(x0) and np.isfinite(np.ldexp(truth_f[i] / f0, truth_e[i] - e0))
        if m_ok:
            return TrajectoryRangeError("x0_truth", "step %d: the truth x0_truth * "
                                        "M_i leaves double range" % i)
        return TrajectoryRangeError("model", "step %d: M_i leaves double range, "
                                    "and with it the truth x0_truth * M_i" % i)

    if not np.isfinite(obs).all():
        raise range_error(int(np.argmin(np.isfinite(obs))))

    yfs, yes = (a.tolist() for a in np.frexp(obs))
    # one row per step: 1/S, B/S, and M/S, q, MB/S as mantissa and exponent
    inv_s, b_s = 1.0, float(obs[0])
    qf, qe, uf, ue, wf, we = 0.5, 1, 0.5, 1, yfs[0], yes[0]
    rows = [(inv_s, b_s, uf, ue, qf, qe, wf, we)]
    try:
        for mf, me, yf, ye in zip(mfs, mes, yfs[1:], yes[1:]):
            # t = m^2 q = tf 2^te and g = 1 + t = gf 2^ge
            tf, te = mf * mf * qf, 2 * me + qe
            gf, ge = (tf, te) if te > 64 else (1.0 + ldexp(tf, te), 0)
            inv_s = ldexp(inv_s / gf, -ge)
            b_s = ldexp(b_s / gf, -ge) + ldexp(mf * uf * yf / gf, me + ue + ye - ge)
            qf, e = frexp(tf / gf)
            qe = te - ge + e
            uf, e = frexp(mf * uf / gf)
            ue += me - ge + e
            wf, we = _add(mf * wf / gf, me + we - ge, qf * yf, qe + ye)
            rows.append((inv_s, b_s, uf, ue, qf, qe, wf, we))
    except OverflowError:
        raise range_error(len(rows)) from None
    inv_ss, b_ss, u_f, u_e, q_f, q_e, w_f, w_e = zip(*rows)
    with np.errstate(over="ignore"):
        mb_s = np.ldexp(w_f, w_e)
    finite = np.isfinite(b_ss) & np.isfinite(mb_s)
    if not finite.all():
        raise range_error(int(np.argmin(finite)))
    return ModelTrajectory(model, r, truth, obs, inv_ss,
                           tuple(np.ldexp(u_f, u_e).tolist()),
                           tuple(np.ldexp(q_f, q_e).tolist()),
                           b_ss, tuple(mb_s.tolist()))
