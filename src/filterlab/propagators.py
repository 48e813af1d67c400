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

A step whose inputs (the five ratios, m_i, y_{i+1}) all have magnitude in
[2^-k, 2^k], k = 128, gives the same bits in plain doubles: its products
and quotients lie in [2^(-6k-1), 2^(3k+1)], normal for k <= 170, where
scaling by a power of two is exact; a sum that cancels below that range
is exact in both forms; and 1 + t = t once t > 2^64, where the mantissa
form takes g = t.  So the ledger runs in plain doubles up to the first
step with an input outside the window, where frexp hands the state over
exactly to the mantissa form, which runs to the last step.  The truth
x0_truth * M_i is a left fold, the same bits as the mantissa product while
every partial product is normal or x0_truth is 0, and is otherwise
multiplied out the same way.
Both forms append each step's five ratios to one flat list, which becomes
the ledger's read-only float64 arrays in one conversion: ModelTrajectory
holds each ratio as a row of one (5, n + 1) array, traj.inv_S, ..., which
array callers read whole and per-step readers read with .item(i), a
Python float.
"""

import math
import operator
import struct
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
    the five ratio sequences of the module docstring as read-only float64
    arrays: 1/S_i is inv_S[i] and X/S_i is X_over_S[i] (r/S_i is
    obs_variance * inv_S[i]); inv_S.item(i) reads one as a Python float.  A
    trajectory compares and hashes by identity.

    tables holds what is built from the ledger once and read many times:
    the closed-form tables of every step, under the key of their inputs (a
    discrepancy.PerturbedInputs for the dp and dx moments, ("gain", p0,
    alpha, r, n) for E[K_i^n], ("skf", x0, p0) for skf's states).  It lives
    as long as the trajectory and nothing else holds it; a trajectory made
    by dataclasses.replace starts with an empty one.
    """

    model: ModelSequence
    obs_variance: float
    truth: np.ndarray
    observations: np.ndarray
    inv_S: np.ndarray = field(repr=False)
    M_over_S: np.ndarray = field(repr=False)
    M2_over_S: np.ndarray = field(repr=False)
    B_over_S: np.ndarray = field(repr=False)
    MB_over_S: np.ndarray = field(repr=False)
    tables: dict = field(default_factory=dict, init=False, repr=False)
    _last: int = field(init=False, repr=False)  # n_steps, for check_step

    def __post_init__(self):
        self._last = len(self.inv_S) - 1

    @property
    def n_steps(self):
        """Index of the last step (arrays have n_steps + 1 entries)."""
        return len(self.model)

    def check_step(self, i):
        """Step i as an int; IndexError for a step that is not an integer
        (an int, a numpy integer or a bool) or lies outside [0, n_steps]."""
        if type(i) is not int:  # a plain int skips operator.index
            try:
                i = operator.index(i)
            except TypeError:
                raise IndexError("step %r is not an integer" % (i,)) from None
        if not 0 <= i <= self._last:
            raise IndexError("step %d is outside [0, %d]" % (i, self.n_steps))
        return i


class InputError(ValueError):
    """An input a model or filter cannot use: param names the input at
    fault and detail says what is wrong with it."""

    def __init__(self, param, detail):
        super().__init__("%s: %s" % (param, detail))
        self.param, self.detail = param, detail


def _check_finite(*inputs):
    """Raise InputError naming the first of the (name, value) pairs whose
    value is not a finite number.  The table builders check their key's
    inputs with it: a NaN key never equals itself, so it would build and
    keep a new table on every call."""
    for name, value in inputs:
        if not math.isfinite(value):
            raise InputError(name, "must be finite, got %r" % value)


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
    # the rows of 1/S, B/S, M/S, q, MB/S one after another: plain doubles up
    # to the first step with an input outside the window (a row in plain
    # doubles is finite, since the window bounds it), then to the end with
    # M/S, q and MB/S as mantissa and exponent
    ins = np.abs(np.column_stack((model.values, obs[1:])))
    n_in = int(np.argmin(np.append(((ins >= _LO) & (ins <= _HI)).all(axis=1), False)))
    flat = [1.0, ys[0], 1.0, 1.0, ys[0]]
    inv_s, b_s, u, q, w = flat
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
        flat += (inv_s, b_s, u, q, w)
    i = len(flat) // 5 - 1  # the last step in plain doubles
    if i < len(ms):
        (uf, ue), (qf, qe), (wf, we) = frexp(u), frexp(q), frexp(w)
        try:
            for mf, me, yf, ye in zip(*(a.tolist() for a in (*np.frexp(model.values[i:]),
                                                              *np.frexp(obs[i + 1:])))):
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
                flat += (inv_s, b_s, ldexp(uf, ue), ldexp(qf, qe), ldexp(wf, we))
        except OverflowError:
            raise range_error(len(flat) // 5) from None
    # a row per ratio, converted by struct.pack, which takes a list of floats
    # faster than np.fromiter does; only a sum in the mantissa form (B/S,
    # MB/S) can overflow without an OverflowError
    ledger = np.frombuffer(struct.pack("%dd" % len(flat), *flat)).reshape(-1, 5).T.copy()
    ledger.flags.writeable = False
    finite = np.isfinite(ledger).all(axis=0)
    if not finite.all():
        raise range_error(int(np.argmin(finite)))
    inv_ss, b_ss, u_s, q_s, mb_s = ledger
    return ModelTrajectory(model, r, truth, obs, inv_ss, u_s, q_s, b_ss, mb_s)
