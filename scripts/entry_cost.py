"""Per-call cost of the closed-form per-step entries, with warm tables.

Builds one seeded 100-step trajectory in the moments benchmark's regime
(|m| log-uniform on [0.9, 1.1], p0 = 1.1, r = 0.8, alpha = 16), reads every
step of every entry once so each table is built, then times --calls calls
of each of the seven discrepancy per-step entries and skf_closed_form,
cycling over the steps, REPEATS times, the entries taking turns.  It
prints one "<entry>,<ns>" CSV row per entry, the median ns per call over
the repeats, loop included, and a last row "loop": the same loop calling a
function that does nothing, so an entry's own cost is its row minus that
one:

    python3 scripts/entry_cost.py [--calls N]
"""

import argparse
import statistics
import timeit

from filterlab import (
    ModelSequence,
    PerturbedInputs,
    RngSpec,
    build_trajectory,
    expected_dp,
    expected_dx,
    po_variance_penalty,
    second_moment_dp,
    second_moment_dx,
    skf_closed_form,
)
from filterlab.discrepancy import po_gain_fourth, po_gain_mean

STEPS = 100
P0, X0, R, ALPHA = 1.1, 0.2, 0.8, 16.0
REPEATS = 9  # timed passes over each entry


def nothing(*args):
    pass


# (name, function, the call it is timed in)
ENTRIES = [
    ("expected_dp", expected_dp, "f(traj, inp, i)"),
    ("second_moment_dp", second_moment_dp, "f(traj, inp, i)"),
    ("expected_dx", expected_dx, "f(traj, inp, i)"),
    ("second_moment_dx", second_moment_dx, "f(traj, inp, i)"),
    ("po_gain_mean", po_gain_mean, "f(traj, p0, alpha, r, i)"),
    ("po_gain_fourth", po_gain_fourth, "f(traj, p0, alpha, r, i)"),
    ("po_variance_penalty", po_variance_penalty, "f(traj, p0, alpha, r, i)"),
    ("skf_closed_form", skf_closed_form, "f(traj, x0, p0, i)"),
    ("loop", nothing, "f(traj, inp, i)"),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=101000, help="calls a repeat")
    args = parser.parse_args(argv)
    spec = RngSpec(2028, 0)
    model = ModelSequence.random_loguniform(STEPS, spec.stream(1), 0.9, 1.1)
    names = dict(traj=build_trajectory(model, 1.0, R, spec), p0=P0, x0=X0, r=R, alpha=ALPHA,
                 inp=PerturbedInputs(p0=P0, x0=X0, p_tilde0=P0, x_tilde0=X0, alpha=ALPHA, r=R),
                 steps=[k % (STEPS + 1) for k in range(args.calls)])
    timers = []
    for _, f, call in ENTRIES:
        env = dict(names, f=f)
        timeit.Timer("for i in range(%d): %s" % (STEPS + 1, call), globals=env).timeit(1)
        timers.append(timeit.Timer("for i in steps: " + call, globals=env))
    # the entries take turns within each repeat, so a slow spell of the
    # machine falls on all of them rather than on one
    times = [[timer.timeit(1) for timer in timers] for _ in range(REPEATS)]
    print("entry,ns_per_call")
    for (name, _, _), t in zip(ENTRIES, zip(*times)):
        print("%s,%.1f" % (name, statistics.median(t) * 1e9 / args.calls))


if __name__ == "__main__":
    main()
