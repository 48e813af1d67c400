"""filterlab: scalar and diagonalizable Kalman filtering laboratory.

Exact filters, stochastically initialized ensemble filters, closed-form
sampling-error moments, optimal variance inflation, and the real-order
exponential-integral machinery they are built on.

The gamma-ratio moments (gamma_ratio) and the closed-form and Monte Carlo
discrepancy moments (discrepancy), those modules and their names, are
exported lazily (PEP 562): the first lookup of one, as filterlab.name or by
"from filterlab import name", imports its module and keeps the name here,
so "import filterlab" or "import filterlab.cli" compiles neither module
until a command that reads closed forms runs.  dir(filterlab) and
__all__ list them beside the eager names, so "from filterlab import *"
binds what it bound when every module was imported eagerly.  Any other name
that is not here raises AttributeError.
"""

from importlib import import_module as _import_module

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
from .mvspenkf import DiagonalizableModel, mv_inflation_schedule, mv_spenkf_run
from .config import ExperimentConfig

__version__ = "0.1.0"

# name -> the submodule that defines it (or is it), imported on the first
# lookup
_LAZY = {
    **dict.fromkeys(("gamma_ratio", "GammaRatioSpec", "ratio_fourth_moment",
                     "ratio_mean", "ratio_second_moment"), "gamma_ratio"),
    **dict.fromkeys(("discrepancy", "PerturbedInputs", "expected_dp", "expected_dx",
                     "mc_discrepancy_moments", "po_mean_identity_check",
                     "po_variance_penalty", "second_moment_dp", "second_moment_dx"),
                    "discrepancy"),
}

# what "from filterlab import *" binds: every public name above, submodules
# included, and the lazy ones, as when every module was imported eagerly
__all__ = sorted({name for name in globals() if not name.startswith("_")}.union(_LAZY))


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    mod = _import_module("." + module, __name__)  # which binds the module here
    value = mod if name == module else getattr(mod, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
