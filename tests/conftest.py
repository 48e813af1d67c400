import math

import numpy as np
import pytest

from filterlab import ModelSequence, RngSpec, build_trajectory


def make_trajectory(seed, steps, r=1.0, x0_truth=1.0, kind="random",
                    m=1.0, low=0.5, high=2.0, signed=True):
    spec = RngSpec(seed, 0)
    if kind == "random":
        model = ModelSequence.random_loguniform(steps, spec.stream(1),
                                                low=low, high=high,
                                                signed=signed)
    elif kind == "constant":
        model = ModelSequence.constant(m, steps)
    else:
        model = ModelSequence(np.asarray(kind, dtype=float))
    return build_trajectory(model, x0_truth, r, spec)


@pytest.fixture
def unit_traj():
    # constant m = 1, r = 1: S_i = i + 1
    return make_trajectory(2024, 20, kind="constant", m=1.0)


# The sample-moment expressions the Monte Carlo kernels were first written
# with, as the reference for their single-pass reduction: mean, mean SE and
# variance must agree bit for bit, the variance SE (fourth power by libm
# pow here) to one or two roundings.
VAR_SE_RTOL = 1e-15


def reference_mean_se(v):
    return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v)))


def reference_var_se(v):
    var = float(np.var(v, ddof=1))
    m4 = float(np.mean((v - np.mean(v)) ** 4))
    return var, math.sqrt(max(m4 - var * var, 0.0) / len(v))
