"""False-alarm rate of the Monte Carlo gates across seeds.

Runs the mc-verify gate on configs/mc_verify_default.json and the
po-penalty gate on configs/inflated_spenkf.json, in process through
filterlab.cli.main, once for each seed 1..N (N from the command line, 2000
by default).  The closed forms are correct, so every FAIL is a false alarm
of the 4-SE bound.  For each gate it prints the FAIL count, the FAIL rate
with its 95% Wilson score interval, the count of runs refused (exit 2), and
the quartiles and maximum of each run's worst gap in SE units:

    python3 scripts/gate_false_alarms.py [N]
"""

import contextlib
import csv
import io
import math
import statistics
import sys
import tempfile
from pathlib import Path

from filterlab.cli import main as filterlab

CONFIGS = Path(__file__).resolve().parent / "configs"
GATES = [("mc-verify", "mc_verify_default.json"), ("po-penalty", "inflated_spenkf.json")]
Z95 = 1.959963984540054  # the two-sided 95% normal quantile


def run_gate(cmd, config, seed, out):
    """(exit code, worst gap in SE units) of one seeded run of a gate; the
    worst gap is NaN for a refused run and for a table holding a NaN gap."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = filterlab([cmd, "--config", str(CONFIGS / config), "--seed", str(seed),
                          "--out", str(out)])
    if code == 2:
        return code, math.nan
    with open(out, newline="", encoding="utf-8") as f:
        gaps = [float(row["max_gap_se"]) for row in csv.DictReader(f)]
    return code, math.nan if any(g != g for g in gaps) else max(gaps)


def wilson(k, n, z=Z95):
    """The Wilson score interval of the binomial rate k/n."""
    p, zz = k / n, z * z / n
    mid = (p + zz / 2.0) / (1.0 + zz)
    half = z * math.sqrt(p * (1.0 - p) / n + zz / (4.0 * n)) / (1.0 + zz)
    return max(mid - half, 0.0), min(mid + half, 1.0)


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 2000
    if n < 2:
        raise SystemExit("need at least 2 seeds")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table.csv"
        for cmd, config in GATES:
            runs = [run_gate(cmd, config, seed, out) for seed in range(1, n + 1)]
            fails = sum(code == 1 for code, _ in runs)
            refused = sum(code == 2 for code, _ in runs)
            gaps = [gap for _, gap in runs if gap == gap]
            lo, hi = wilson(fails, n)
            q1, q2, q3 = statistics.quantiles(gaps, n=4) if len(gaps) > 1 else [math.nan] * 3
            print("%s on %s: %d seeds, %d FAIL (%.2f%%, 95%% Wilson [%.2f%%, %.2f%%]), "
                  "%d refused; worst gap quartiles %.2f / %.2f / %.2f SE, max %.2f SE"
                  % (cmd, config, n, fails, 100.0 * fails / n, 100.0 * lo, 100.0 * hi,
                     refused, q1, q2, q3, max(gaps, default=math.nan)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
