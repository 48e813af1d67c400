"""Monte Carlo sweep over ensemble size N.

Shows the finite-ensemble discrepancy moments of the analysis variance
shrinking as N grows on a fixed unit-model trajectory.  Output: CSV on
stdout, one row per N.
"""

import sys

from filterlab.discrepancy import PerturbedInputs, mc_discrepancy_moments
from filterlab.propagators import ModelSequence, build_trajectory
from filterlab.rng import RngSpec
from filterlab.skf import skf_closed_form

STEP = 6
REPLICATES = 400_000


def main():
    traj = build_trajectory(ModelSequence.constant(1.0, 10), 1.0, 1.0,
                            RngSpec(12, 0))
    p_a = skf_closed_form(traj, 0.0, 1.0, STEP).var_analysis
    print("N,alpha,mean_dp,mean_dp_se,var_dp,p_a")
    for k, n_members in enumerate((8, 16, 32, 64, 128, 256, 512)):
        inp = PerturbedInputs(p0=1.0, x0=0.0, p_tilde0=1.0, x_tilde0=0.0,
                              alpha=0.5 * n_members, r=1.0)
        dp, _ = mc_discrepancy_moments(traj, inp, STEP, REPLICATES,
                                       RngSpec(120, k))
        print("%d,%.17g,%.17g,%.17g,%.17g,%.17g"
              % (n_members, 0.5 * n_members, dp.mean, dp.mean_se, dp.var, p_a))
    return 0


if __name__ == "__main__":
    sys.exit(main())
