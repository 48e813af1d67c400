"""Cost per value of the CSV writer against one "%.17g" per value.

Builds three seeded tables: an inflation-table of 1001 rows by 6 columns
(one 1000-step trajectory, |m| log-uniform on [0.5, 2], N = 15, the
schedule workload's shape), a 21 by 25 table of the mc-verify gate's
shape and a 26 by 10 table of po-penalty's (a step column, then values
of random sign and size 1e-6 to 10).  It checks that the writer,
filterlab._csvtext.csv_text on the float64 array, prints the same bytes
as "%.17g" per value on the rows as lists (the per-value rows are made
before timing).  Then it times CALLS writes by each, taking turns within
each of REPEATS passes, and prints one CSV row per table: the median ns
per value of each, and the writer's extra time per table in microseconds
(negative where it is faster):

    python3 scripts/csv_cost.py
"""

import statistics
import timeit

import numpy as np

from filterlab import ModelSequence, RngSpec, build_trajectory, inflation_schedule
from filterlab._csvtext import csv_text

REPEATS = 9  # timed passes over each table
CALLS = 20  # writes of each table a pass


def schedule_table():
    spec = RngSpec(2029, 0)
    model = ModelSequence.random_loguniform(1000, spec.stream(1), 0.5, 2.0)
    traj = build_trajectory(model, 1.0, 0.8, spec)
    sched = inflation_schedule(traj, 7.5, 1.1, 0.2)
    n = traj.n_steps + 1
    return np.column_stack([np.arange(n), traj.obs_variance * traj.inv_S,
                            sched.theta, sched.phi, sched.psi, np.full(n, sched.theta_star)])


def gate_table(rows, cols, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-6, 1, (rows, cols))
    table[:, 0] = np.arange(rows)
    return table


def per_value(rows, fmt):
    return "".join(fmt % tuple(row) + "\n" for row in rows)


def main():
    tables = [("schedule", schedule_table()), ("mc_verify", gate_table(21, 25, 1)),
              ("po_penalty", gate_table(26, 10, 2))]
    timers = []
    for name, table in tables:
        rows, fmt = table.tolist(), ",".join(["%.17g"] * table.shape[1])
        if csv_text(table) != per_value(rows, fmt):
            raise SystemExit("%s: the writer's bytes differ from per-value %%.17g" % name)
        timers.append((timeit.Timer(lambda table=table: csv_text(table)),
                       timeit.Timer(lambda rows=rows, fmt=fmt: per_value(rows, fmt))))
    # the tables and both writers take turns within each repeat, so a slow
    # spell of the machine falls on all of them rather than on one
    times = [[(w.timeit(CALLS), p.timeit(CALLS)) for w, p in timers]
             for _ in range(REPEATS)]
    print("table,rows,cols,writer_ns_per_value,per_value_ns_per_value,writer_extra_us")
    for (name, table), runs in zip(tables, zip(*times)):
        writer, reference = (statistics.median(t) / CALLS for t in zip(*runs))
        print("%s,%d,%d,%.1f,%.1f,%.1f" % (name, *table.shape, writer * 1e9 / table.size,
                                          reference * 1e9 / table.size,
                                          (writer - reference) * 1e6))


if __name__ == "__main__":
    main()
