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
M_i and S_i leave double range and come back.

While every input of a step (the five ratios, m_i, y_{i+1}) has magnitude in
[2^-k, 2^k], k = 128, the step runs in plain doubles with the same bits: its
products and quotients lie in [2^(-6k-1), 2^(3k+1)], normal for k <= 170,
where scaling by a power of two is exact; a sum that cancels below that
range is exact in both forms; and 1 + t = t once t > 2^64, where the
mantissa form takes g = t.  At the first step with an input outside the
window, frexp hands the state over exactly and the mantissa form finishes.
The truth x0_truth * M_i is a left fold, the same bits as the mantissa
product while every partial product is normal or x0_truth is 0, and is
otherwise multiplied out the same way.  ModelTrajectory holds each ratio as
a tuple of Python floats, read by index only: traj.inv_S[i], ...
"""

import math
import sys
from dataclasses import dataclass, field
from math import frexp, ldexp

import numpy as np

from .rng import RngSpec, normal_polar

_LO, _HI = 2.0 ** -128, 2.0 ** 128  # the plain-double window of the ledger

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


def _truth(x0, values):
    """x0 * M_i for i = 0..n, with its mantissas and exponents."""
    with np.errstate(over="ignore"):
        truth = np.multiply.accumulate(np.append(x0, values))
    if not x0 or np.isfinite(truth).all() and np.abs(truth).min() >= sys.float_info.min:
        return (truth, *np.frexp(truth))
    xf, xe = frexp(x0)
    truth_f, truth_e = [xf], [xe]
    for mf, me in zip(*(a.tolist() for a in np.frexp(values))):
        xf, e = frexp(xf * mf)
        xe += me + e
        truth_f.append(xf)
        truth_e.append(xe)
    with np.errstate(over="ignore"):
        return np.ldexp(truth_f, truth_e), truth_f, truth_e


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
    truth, truth_f, truth_e = _truth(x0, model.values)
    noise = math.sqrt(r) * normal_polar(spec.generator(), len(model) + 1)
    with np.errstate(over="ignore"):
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

    ms, ys = model.values.tolist(), obs.tolist()
    # rows of 1/S, B/S, M/S, q, MB/S: plain doubles while a step's inputs lie
    # in the window, then with M/S, q and MB/S as mantissa and exponent
    ins = np.abs(np.column_stack((model.values, obs[1:])))
    n_in = int(np.argmin(np.append(((ins >= _LO) & (ins <= _HI)).all(axis=1), False)))
    rows = [(1.0, ys[0], 1.0, 1.0, ys[0])]
    inv_s, b_s, u, q, w = rows[0]
    for m, y in zip(ms[:n_in], ys[1:]):
        if not (_LO <= q and _LO <= inv_s and _LO <= abs(u) <= _HI
                and _LO <= abs(b_s) <= _HI and _LO <= abs(w) <= _HI):
            break
        t = m * m * q
        g = 1.0 + t
        inv_s /= g
        b_s = b_s / g + m * u * y / g
        q = t / g
        u = m * u / g
        w = m * w / g + q * y
        rows.append((inv_s, b_s, u, q, w))
    n = len(rows)
    (uf, ue), (qf, qe), (wf, we) = frexp(u), frexp(q), frexp(w)
    mfs, mes, yfs, yes = (a.tolist() for a in (*np.frexp(ms[n - 1:]), *np.frexp(ys[n:])))
    tail = []
    try:
        for mf, me, yf, ye in zip(mfs, mes, yfs, yes):
            # t = m^2 q = tf 2^te and g = 1 + t = gf 2^ge
            tf, te = mf * mf * qf, 2 * me + qe
            gf, ge = (tf, te) if te > 64 else (1.0 + ldexp(tf, te), 0)
            inv_s = ldexp(inv_s / gf, -ge)
            b_s = ldexp(b_s / gf, -ge) + ldexp(mf * uf * yf / gf, me + ue + ye - ge)
            qf, e = frexp(tf / gf)
            qe = te - ge + e
            uf, e = frexp(mf * uf / gf)
            ue += me - ge + e
            # MB/S = a 2^ae + b 2^be, added at the larger exponent
            af, ae, bf, be = mf * wf / gf, me + we - ge, qf * yf, qe + ye
            if bf and (not af or be > ae):
                af, ae, bf, be = bf, be, af, ae
            wf, e = frexp(af + ldexp(bf, be - ae))
            we = ae + e
            tail.append((inv_s, b_s, uf, ue, qf, qe, wf, we))
    except OverflowError:
        raise range_error(n + len(tail)) from None
    if tail:
        inv_t, b_t, *fe = zip(*tail)
        with np.errstate(over="ignore"):
            rows += zip(inv_t, b_t, *np.ldexp(fe[0::2], fe[1::2]).tolist())
    inv_ss, b_ss, u_s, q_s, mb_s = zip(*rows)
    finite = np.isfinite(b_ss) & np.isfinite(mb_s)
    if not finite.all():
        raise range_error(int(np.argmin(finite)))
    return ModelTrajectory(model, r, truth, obs, inv_ss, u_s, q_s, b_ss, mb_s)
