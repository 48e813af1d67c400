"""filterlab: scalar and diagonalizable Kalman filtering laboratory.

Exact filters, stochastically initialized ensemble filters, closed-form
sampling-error moments, optimal variance inflation, and the real-order
exponential-integral machinery they are built on.
"""

from .expint import DomainError, expint_scaled, expint_scaled_inverse
from .rng import RngSpec, normal_polar
from .propagators import (InputError, ModelSequence, ModelTrajectory,
                          TrajectoryRangeError, build_trajectory)
from .skf import (
    SkfState,
    skf_closed_form,
    skf_error_moments,
    skf_run,
    skf_start,
    skf_step,
)
from .spenkf import (
    EnsembleState,
    InflationSchedule,
    inflation_schedule,
    sample_initial_ensemble,
    spenkf_run,
    spenkf_start,
    spenkf_step,
    theta_star,
    theta_step,
)
from .gamma_ratio import (
    GammaRatioSpec,
    ratio_fourth_moment,
    ratio_mean,
    ratio_second_moment,
)
from .discrepancy import (
    PerturbedInputs,
    expected_dp,
    expected_dx,
    mc_discrepancy_moments,
    po_mean_identity_check,
    po_variance_penalty,
    second_moment_dp,
    second_moment_dx,
)
from .mvspenkf import DiagonalizableModel, mv_inflation_schedule, mv_spenkf_run
from .config import ExperimentConfig

__version__ = "0.1.0"
