"""Multivariate ensemble filtering for simultaneously diagonalizable models.

When every model matrix is Z diag(m_i) Z^(-1) for one fixed invertible Z,
and prior/observation covariances are diagonal in the same basis, the
n-dimensional filter splits exactly into n independent scalar filters in
the Z basis plus two basis changes.  This module runs that reduction;
the matrix-form filter it replaces, and the model matrices
Z diag(m_i) Z^(-1) it steps with, exist only in the test suite, as the
independent oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .propagators import InputError, ModelSequence, build_trajectory
from .rng import RngSpec, normal_polar
from .spenkf import (
    EnsembleState,
    InflationSchedule,
    inflation_schedule,
    spenkf_run,
)

__all__ = ["DiagonalizableModel", "MvRunResult", "mv_spenkf_run",
           "mv_inflation_schedule"]

_COND_CAP = 1e12


@dataclass(frozen=True)
class DiagonalizableModel:
    """Shared eigenbasis Z, per-step diagonal multipliers (steps x n), and
    basis-diagonal prior/observation variances."""

    Z: np.ndarray
    multipliers: np.ndarray
    p0_diag: np.ndarray
    r_diag: np.ndarray

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=float)
        mult = np.asarray(self.multipliers, dtype=float)
        p0 = np.asarray(self.p0_diag, dtype=float)
        r = np.asarray(self.r_diag, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise InputError("Z", "must be square")
        n = Z.shape[0]
        if mult.ndim != 2 or mult.shape[1] != n or mult.shape[0] == 0:
            raise InputError("multipliers", "must have shape (steps, n)")
        if np.any(mult == 0.0) or not np.all(np.isfinite(mult)):
            raise InputError("multipliers", "must be finite and nonzero")
        for name, var in (("p0_diag", p0), ("r_diag", r)):
            if var.shape != (n,):
                raise InputError(name, "must have shape (n,)")
            if not np.all((var > 0.0) & (var < np.inf)):
                raise InputError(name, "variances must be positive and finite")
        cond = np.linalg.cond(Z)
        if not (cond <= _COND_CAP):
            raise InputError("Z", "numerically singular: cond=%g" % cond)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "multipliers", mult)
        object.__setattr__(self, "p0_diag", p0)
        object.__setattr__(self, "r_diag", r)

    @property
    def dim(self):
        return self.Z.shape[0]

    @property
    def n_steps(self):
        return self.multipliers.shape[0]


@dataclass
class MvRunResult:
    """Component-wise run artifacts plus basis-mapped outputs.

    means_basis / means are (steps+1, n) analysis means in the Z basis and
    in the original coordinates; variances_basis are the sampled analysis
    variances per component.  trajectories and the initial anomaly matrix
    (n x N, basis rows) are retained so an independent matrix-form filter
    can replay the identical randomness.
    """

    model: DiagonalizableModel
    trajectories: list
    initial_anomalies: np.ndarray
    means_basis: np.ndarray
    means: np.ndarray
    variances_basis: np.ndarray


def mv_spenkf_run(model: DiagonalizableModel, x0, n_members, spec: RngSpec,
                  schedules: "list[InflationSchedule] | None" = None):
    """Run n independent scalar ensemble filters in the Z basis.

    x0 (original coordinates) doubles as truth start and filter prior mean.
    Streams: component j uses spec.stream(2*j) for its trajectory noise and
    spec.stream(2*j + 1) for its initial ensemble.  An InputError of
    component j is raised again with "basis component j, " before its detail.
    """
    n = model.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise InputError("x0", "must have shape (n,)")
    x0_basis = np.linalg.solve(model.Z, x0)
    steps = model.n_steps
    trajs = []
    anoms0 = np.empty((n, int(n_members)))
    means_basis = np.empty((steps + 1, n))
    variances = np.empty((steps + 1, n))
    for j in range(n):
        # i.i.d. anomalies, not recentred: keeps the per-component sampled
        # variance exactly Gamma(N/2), matching the scalar filter
        a0 = math.sqrt(model.p0_diag[j]) * normal_polar(
            spec.stream(2 * j + 1).generator(), int(n_members)
        )
        anoms0[j] = a0
        sched = schedules[j] if schedules is not None else None
        try:
            init = EnsembleState.forecast(0, x0_basis[j], a0)
            traj = build_trajectory(
                ModelSequence(model.multipliers[:, j]),
                x0_basis[j],
                model.r_diag[j],
                spec.stream(2 * j),
            )
            states = spenkf_run(traj, init, sched)
        except InputError as exc:
            raise type(exc)(exc.param, "basis component %d, %s" % (j, exc.detail)) from exc
        trajs.append(traj)
        means_basis[:, j] = [s.mean for s in states]
        variances[:, j] = [s.sampled_var for s in states]
    means = means_basis @ model.Z.T
    return MvRunResult(model=model, trajectories=trajs,
                       initial_anomalies=anoms0, means_basis=means_basis,
                       means=means, variances_basis=variances)


def mv_inflation_schedule(result: MvRunResult):
    """Component-wise exact inflation schedules for a completed run.

    Schedules depend on the realized basis observations through B_i, hence
    on a run, not just on the model.  The mean shifts are relative to the
    run's own initial basis mean, the truth start of each component.
    """
    model = result.model
    alpha = 0.5 * result.initial_anomalies.shape[1]
    return [
        inflation_schedule(t, alpha, model.p0_diag[j], t.truth[0])
        for j, t in enumerate(result.trajectories)
    ]
