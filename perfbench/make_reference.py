"""Write the reference outputs that the default seed's check compares with.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs the first `ref_jobs` jobs of each workload at the default seed,
untimed, checks their invariants and stores their numbers in
perfbench/reference/<workload>.npz.  Rerun only to accept a deliberate
change of results.
"""

import os
import sys

import numpy as np

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


def main(names):
    workloads.REFERENCE.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, references=False)
        arrays = {}
        for k in range(wl.ref_jobs):
            job = wl.job(k)
            out = wl.check(job, wl.run(job, False))
            arrays[str(k)] = out.table
            arrays[str(k) + ".header"] = np.array(out.header)
        np.savez_compressed(workloads.REFERENCE / ("%s.npz" % name), **arrays)
        print("%s: %d jobs" % (name, wl.ref_jobs))


if __name__ == "__main__":
    main(sys.argv[1:])
