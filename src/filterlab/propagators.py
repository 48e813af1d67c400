"""Model sequences, simulated truth/observations, and cumulative propagators.

For a scalar linear model x_{i+1} = m_i x_i observed with variance r, the
quantities every closed form consumes are the products and sums

    M_i = m_0 * ... * m_{i-1}          (M_0 = 1)
    S_i = sum_{l=0}^{i} M_l^2
    B_i = sum_{l=0}^{i} M_l y_l

M_i and S_i grow (or shrink) geometrically, so they are carried in the log
domain; B_i is carried as a signed log.  Downstream formulas only ever need
the bounded ratios 1/S_i, M_i/S_i, M_i^2/S_i, B_i/S_i and M_i B_i/S_i, which
stay finite long after M_i and S_i themselves have left double range.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .rng import RngSpec, normal_polar

__all__ = ["ModelSequence", "ModelTrajectory", "build_trajectory"]

_LOG_TINY = -1e308  # stand-in for log(0) that survives arithmetic
_Ratios = namedtuple("_Ratios", "inv_S M_over_S M2_over_S B_over_S MB_over_S")


def _exp_sat(lx):
    # exp that saturates to inf instead of raising OverflowError
    try:
        return math.exp(lx)
    except OverflowError:
        return math.inf


def _signed_logaddexp(la, sa, lb, sb):
    # (la, sa) + (lb, sb) where each pair encodes sa*exp(la)
    if sa == 0:
        return lb, sb
    if sb == 0:
        return la, sa
    if la < lb:
        la, sa, lb, sb = lb, sb, la, sa
    if sa == sb:
        return la + math.log1p(math.exp(lb - la)), sa
    d = math.exp(lb - la)
    if d == 1.0:
        return _LOG_TINY, 0
    return la + math.log1p(-d), sa


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


@dataclass
class ModelTrajectory:
    """Truth, observations, and the cumulative propagator ledger.

    Arrays are indexed by step i = 0..n where n = len(model).  The ledger
    holds log|M_i| with its sign, log S_i, and the signed log of B_i; the
    accessors expose only ratio-safe combinations, built once on first use.
    """

    model: ModelSequence
    obs_variance: float
    truth: np.ndarray
    observations: np.ndarray
    log_abs_M: np.ndarray
    sign_M: np.ndarray
    log_S: np.ndarray
    log_abs_B: np.ndarray = field(repr=False)
    sign_B: np.ndarray = field(repr=False)

    @property
    def n_steps(self):
        """Index of the last step (arrays have n_steps + 1 entries)."""
        return len(self.model)

    # -- raw values: may overflow to inf for long unstable models --

    def M(self, i):
        return self.sign_M[i] * _exp_sat(self.log_abs_M[i])

    def S(self, i):
        return _exp_sat(self.log_S[i])

    def B(self, i):
        return self.sign_B[i] * _exp_sat(self.log_abs_B[i])

    # -- ratio-safe accessors: bounded whenever |m| is bounded away from 0 --

    @functools.cached_property
    def _ratios(self):
        rows = zip(self.log_abs_M.tolist(), self.sign_M.tolist(), self.log_S.tolist(),
                   self.log_abs_B.tolist(), self.sign_B.tolist())
        return _Ratios(*map(list, zip(*[
            (math.exp(-ls), sm * math.exp(lm - ls), math.exp(2.0 * lm - ls),
             sb * math.exp(lb - ls), sm * sb * math.exp(lm + lb - ls))
            for lm, sm, ls, lb, sb in rows])))

    def inv_S(self, i):
        return self._ratios.inv_S[i]

    def r_over_S(self, i):
        return self.obs_variance * self._ratios.inv_S[i]

    def M_over_S(self, i):
        return self._ratios.M_over_S[i]

    def M2_over_S(self, i):
        return self._ratios.M2_over_S[i]

    def B_over_S(self, i):
        return self._ratios.B_over_S[i]

    def MB_over_S(self, i):
        return self._ratios.MB_over_S[i]

    def doubly_normalized_deviation(self, c, i):
        """M_i (B_i - c S_i) / S_i^2, bounded in probability uniformly in i."""
        return self.M_over_S(i) * (self.B_over_S(i) - c)


def build_trajectory(model: ModelSequence, x0_truth, obs_variance, spec: RngSpec):
    """Simulate truth and noisy observations, accumulating the ledger.

    Observation noise is drawn with the polar normal transform from the
    given stream, so the trajectory is a pure function of (model, x0_truth,
    obs_variance, spec).
    """
    r = float(obs_variance)
    if not (r > 0.0):
        raise ValueError("obs_variance must be positive")
    n = len(model)
    truth = np.empty(n + 1)
    truth[0] = float(x0_truth)
    for i, m in enumerate(model.values):
        truth[i + 1] = m * truth[i]
    noise = normal_polar(spec.generator(), n + 1)
    obs = truth + math.sqrt(r) * noise

    log_abs_M = np.zeros(n + 1)
    sign_M = np.ones(n + 1, dtype=int)
    log_S = np.zeros(n + 1)
    log_abs_B = np.empty(n + 1)
    sign_B = np.empty(n + 1, dtype=int)

    log_abs_M[0] = 0.0
    log_S[0] = 0.0
    if obs[0] == 0.0:
        log_abs_B[0], sign_B[0] = _LOG_TINY, 0
    else:
        log_abs_B[0] = math.log(abs(obs[0]))
        sign_B[0] = 1 if obs[0] > 0 else -1

    for i, m in enumerate(model.values):
        log_abs_M[i + 1] = log_abs_M[i] + math.log(abs(m))
        sign_M[i + 1] = sign_M[i] * (1 if m > 0 else -1)
        log_S[i + 1] = np.logaddexp(log_S[i], 2.0 * log_abs_M[i + 1])
        if obs[i + 1] == 0.0:
            lt, st = _LOG_TINY, 0
        else:
            lt = log_abs_M[i + 1] + math.log(abs(obs[i + 1]))
            st = sign_M[i + 1] * (1 if obs[i + 1] > 0 else -1)
        log_abs_B[i + 1], sign_B[i + 1] = _signed_logaddexp(
            log_abs_B[i], sign_B[i], lt, st
        )

    return ModelTrajectory(
        model=model,
        obs_variance=r,
        truth=truth,
        observations=obs,
        log_abs_M=log_abs_M,
        sign_M=sign_M,
        log_S=log_S,
        log_abs_B=log_abs_B,
        sign_B=sign_B,
    )
