"""filterlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop with one client: jobs
back to back in one process, each job's inputs generated from the workload
seed, every job's output checked.  The first round of jobs is warm-up.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones, measured with no
tracing.  With --trace 1 measured rounds alternate between untraced and
traced; the traced rounds give the per-layer metrics and the difference of
the two medians is the tracing overhead.  Every run writes its environment,
per-job records and (traced) spans under perfbench/.out/.

Before the jobs, set-up is measured in fresh interpreters: a child imports
numpy, then filterlab.cli, then loads the workload's first config, and
reports when each step ended on the system-wide monotonic clock.

On a shared virtual machine the speed of interpreted code drifts by up to
2x over seconds, which no run length averages away.  So a fixed pure-Python
probe that touches no filterlab code is timed right before and right after
each set-up launch and each job of a workload whose jobs run on the
benchmark's own thread (schedule, moments).  Those times are reported as
wall time multiplied by PROBE_NOMINAL_S over the mean of the two probes:
seconds on a machine where the probe takes PROBE_NOMINAL_S.  Jobs that run
on other CPUs (mc_verify's two threads, tables' child processes) are
reported in wall seconds, because the probe does not see those CPUs' speed
and scaling by it made their figures spread more, not less.  Raw wall
times and probe times go to the result file, and the traced run reports
both as per-layer metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_LAUNCHES = 9

# Median probe time on a 2-vCPU Intel Xeon virtual machine (Python 3.11,
# numpy 2.4), where the benchmark was tuned.
PROBE_NOMINAL_S = 1.8e-3
SETUP_CODE = """\
import sys, time
t = [time.perf_counter()]
import numpy
t.append(time.perf_counter())
import filterlab.cli
t.append(time.perf_counter())
from filterlab.config import ExperimentConfig
ExperimentConfig.from_json(sys.argv[1])
t.append(time.perf_counter())
print(*t)
"""

END_TO_END = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("items_per_s", "items/s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "1"),
]

LAYERS = ["config", "rng", "propagators", "skf", "expint", "gamma_ratio",
          "spenkf", "discrepancy", "mvspenkf", "cli"]

PER_LAYER = [(f"{layer}.{m}", u) for layer in LAYERS
             for m, u in (("calls", "count"), ("s", "s"), ("self_s", "s"),
                          ("errors", "count"))] + [
    ("expint.inverse.calls", "count"),
    ("expint.inverse.self_s", "s"),
    ("expint.inverse.us_per_call", "us"),
    ("expint.inverse.cf_share", "1"),
    ("expint.inverse.saturated_share", "1"),
    ("expint.forward.calls", "count"),
    ("expint.forward.self_s", "s"),
    ("expint.forward.us_per_call", "us"),
    ("expint.forward.cf_share", "1"),
    ("expint.forward.int_order_share", "1"),
    ("gamma_ratio.us_per_call", "us"),
    ("discrepancy.mc.self_s", "s"),
    ("discrepancy.mc.replicates_per_s", "1/s"),
    ("discrepancy.mc.parallelism", "1"),
    ("discrepancy.mc.bytes_per_array", "B"),
    ("discrepancy.gate_fail_frac", "1"),
    ("discrepancy.closed.calls", "count"),
    ("discrepancy.closed.self_s", "s"),
    ("skf.closed_form.calls", "count"),
    ("skf.closed_form.self_s", "s"),
    ("spenkf.inflation_schedule.self_s", "s"),
    ("propagators.build_trajectory.self_s", "s"),
    ("propagators.steps_per_s", "1/s"),
    ("spenkf.spenkf_run.self_s", "s"),
    ("skf.skf_run.self_s", "s"),
    ("mvspenkf.mv_spenkf_run.self_s", "s"),
    ("mvspenkf.mv_inflation_schedule.self_s", "s"),
    ("rng.normal_polar.self_s", "s"),
    ("rng.normal_polar.draws_per_s", "1/s"),
    ("cli.rows_per_s", "1/s"),
    ("process.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("cli.import_filterlab_s", "s"),
    ("config.load_s", "s"),
    ("trace.job_p50_s", "s"),
    ("trace.untraced_job_p50_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_frac", "1"),
    ("trace.dominant_share", "1"),
    ("trace.dominant_confirmed", "1"),
    ("bench.wall_job_p50_s", "s"),
    ("bench.probe_s", "s"),
]

# The layer each workload is predicted to spend most of its time in: span
# names, or a layer prefix ending in "." for every span of that layer.
# "process" is a tables job's time outside filterlab.cli.main: interpreter
# start, imports and exit.
PREDICTED = {
    "schedule": ("expint.inverse",),
    "mc_verify": ("discrepancy.mc",),
    "moments": ("expint.forward", "gamma_ratio."),
    "tables": ("process",),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe():
    """Seconds taken by a fixed pure-Python float loop, the speed reference."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 8000):
        acc += math.exp(-i * 1e-4) / (i + acc)
    return time.perf_counter() - start


def speed_scaled(fn, scaled=True):
    """Run fn, between two probes when scaled; returns (result, wall seconds,
    scale), where scale converts the wall time to nominal seconds."""
    before = probe() if scaled else None
    start = time.perf_counter()
    try:
        out = fn()
    finally:
        wall = time.perf_counter() - start
        after = probe() if scaled else None
    return out, wall, PROBE_NOMINAL_S / (0.5 * (before + after)) if scaled else 1.0


def measure_setup(cfg_path, env):
    """Median set-up time and its split over SETUP_LAUNCHES fresh children,
    in nominal seconds."""
    rows = []
    for _ in range(SETUP_LAUNCHES):
        launched = [0.0]

        def launch():
            launched[0] = time.perf_counter()
            return subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg_path)],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=120, check=True)

        proc, _, scale = speed_scaled(launch)
        start, numpy_done, filterlab_done, ready = map(float, proc.stdout.split())
        rows.append([scale * d for d in (ready - launched[0], start - launched[0],
                                         numpy_done - start, filterlab_done - numpy_done,
                                         ready - filterlab_done)] + [PROBE_NOMINAL_S / scale])
    med = [statistics.median(col) for col in zip(*rows)]
    return dict(zip(("setup_s", "cli.interpreter_s", "cli.import_numpy_s",
                     "cli.import_filterlab_s", "config.load_s", "bench.probe_s"), med))


def environment(wl):
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                level = "L%s" % (index / "level").read_text().strip()
                caches[level] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "cache_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": wl.threads,
        "child_processes": int(wl.name == "tables"),
        "probe_scaled_jobs": wl.scaled,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def input_properties(jobs):
    """Measured shares of the input properties the workloads vary."""
    alphas = [j.alpha for j in jobs if j.alpha is not None]
    props = {"jobs_per_class": dict(Counter(j.kind for j in jobs))}
    if alphas:
        props["integer_order_share"] = sum(float(a).is_integer() for a in alphas) / len(alphas)
    reps = sorted({j.params["replicates"] for j in jobs
                   if j.params and "replicates" in j.params})
    if reps:
        props["bytes_per_replicate_array"] = {str(r): 8 * r for r in reps}
    return props


def run_job(wl, job, tracer):
    """Time one job and check its output.

    Returns (wall seconds, scale to nominal seconds, output, error)."""
    err = out = raw = None
    if tracer is not None:
        tracer.begin_job()

    def call():
        if tracer is None:
            return wl.run(job, False)
        with tracer.root("process" if wl.name == "tables" else "bench"):
            return wl.run(job, True)

    try:
        raw, wall, scale = speed_scaled(call, wl.scaled)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        err, wall, scale = exc, math.nan, math.nan
    if err is None:
        try:
            out = wl.check(job, raw)
        except Exception as exc:
            err = exc
    if tracer is not None:
        tracer.end_job(wl.child_spans(raw))
        if out is not None and job.argv and job.kind != "selftest":
            tracer.counters["cli.rows"] += out.table.shape[0]
    return wall, scale, out, err


def round_throughput(records):
    """Items per second: the median over rounds of a round's items over its
    summed job time, so one job slowed by the machine moves one round."""
    rounds = {}
    for r in records:
        items, seconds = rounds.get(r["round"], (0, 0.0))
        rounds[r["round"]] = (items + r["items"], seconds + r["seconds"])
    return statistics.median(items / seconds for items, seconds in rounds.values())


def percentile(values, pct):
    import numpy
    return float(numpy.percentile(values, pct))


def layer_metrics(tracer, wl, records, setup):
    from spans import summarize
    per_name, per_layer, tot = summarize(tracer)
    jobs = max(tot["jobs"], 1)
    c = tracer.counters
    m = {}
    for layer in LAYERS:
        e = per_layer.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        m[f"{layer}.calls"] = e["calls"] / jobs
        m[f"{layer}.s"] = e["s"] / jobs
        m[f"{layer}.self_s"] = e["self_s"] / jobs
        m[f"{layer}.errors"] = e["errors"]

    def name(n):
        return per_name.get(n, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})

    def ratio(a, b):
        return a / b if b else 0.0

    for kind in ("inverse", "forward"):
        e = name(f"expint.{kind}")
        m[f"expint.{kind}.calls"] = e["calls"] / jobs
        m[f"expint.{kind}.self_s"] = e["self_s"] / jobs
        m[f"expint.{kind}.us_per_call"] = 1e6 * ratio(e["self_s"], e["calls"])
        m[f"expint.{kind}.cf_share"] = ratio(c[f"expint.{kind}.cf"], e["calls"])
    m["expint.inverse.saturated_share"] = ratio(c["expint.inverse.saturated"],
                                                name("expint.inverse")["calls"])
    m["expint.forward.int_order_share"] = ratio(c["expint.forward.int_order"],
                                                name("expint.forward")["calls"])
    gr = per_layer.get("gamma_ratio", {"calls": 0, "self_s": 0.0})
    m["gamma_ratio.us_per_call"] = 1e6 * ratio(gr["self_s"], gr["calls"])
    mc = name("discrepancy.mc")
    m["discrepancy.mc.self_s"] = mc["self_s"] / jobs
    m["discrepancy.mc.replicates_per_s"] = ratio(c["discrepancy.mc.replicates"], mc["s"])
    m["discrepancy.mc.parallelism"] = ratio(mc["s"], tot["wall_s"])
    m["discrepancy.mc.bytes_per_array"] = 8 * ratio(c["discrepancy.mc.replicates"], mc["calls"])
    m["discrepancy.gate_fail_frac"] = ratio(sum(r["gate_fail"] for r in records), len(records))
    for n in ("discrepancy.closed", "skf.closed_form"):
        m[f"{n}.calls"] = name(n)["calls"] / jobs
        m[f"{n}.self_s"] = name(n)["self_s"] / jobs
    for n in ("spenkf.inflation_schedule", "propagators.build_trajectory",
              "spenkf.spenkf_run", "skf.skf_run", "mvspenkf.mv_spenkf_run",
              "mvspenkf.mv_inflation_schedule", "rng.normal_polar", "process"):
        m[f"{n}.self_s"] = name(n)["self_s"] / jobs
    m["propagators.steps_per_s"] = ratio(c["propagators.steps"],
                                         name("propagators.build_trajectory")["s"])
    m["rng.normal_polar.draws_per_s"] = ratio(c["rng.normal_polar.draws"],
                                              name("rng.normal_polar")["s"])
    m["cli.rows_per_s"] = ratio(c["cli.rows"], name("cli")["self_s"])
    for key in ("cli.interpreter_s", "cli.import_numpy_s", "cli.import_filterlab_s",
                "config.load_s", "bench.probe_s"):
        m[key] = setup[key]

    ok = [r for r in records if r["measured"] and not r["failed"]]
    plain = [r for r in ok if not r["traced"]]
    m["trace.job_p50_s"] = statistics.median(r["seconds"] for r in ok if r["traced"])
    m["trace.untraced_job_p50_s"] = statistics.median(r["seconds"] for r in plain)
    m["bench.wall_job_p50_s"] = statistics.median(r["wall"] for r in plain)
    m["trace.overhead_s"] = m["trace.job_p50_s"] - m["trace.untraced_job_p50_s"]
    m["trace.self_sum_frac"] = ratio(tot["self_s"], tot["thread_s"])

    predicted = PREDICTED[wl.name]

    def is_predicted(n):
        return any(n == p or (p.endswith(".") and n.startswith(p)) for p in predicted)

    pred = sum(e["self_s"] for n, e in per_name.items() if is_predicted(n))
    others = sorted(((e["self_s"], n) for n, e in per_name.items()
                     if not is_predicted(n)), reverse=True)
    runner_up = others[0] if others else (0.0, "-")
    m["trace.dominant_share"] = ratio(pred, tot["thread_s"])
    m["trace.dominant_confirmed"] = float(pred > runner_up[0])
    print("trace: predicted dominant %s holds %.1f%% of job thread time, next %s %.1f%%: %s"
          % ("+".join(predicted), 100 * m["trace.dominant_share"], runner_up[1],
             100 * ratio(runner_up[0], tot["thread_s"]),
             "confirmed" if m["trace.dominant_confirmed"] else "refuted"))
    return m


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    if not (ROOT / "src" / "filterlab" / "cli.py").is_file():
        print("run.py: no filterlab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print("run.py: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup = measure_setup(wl.first_config(), workloads.child_env())
    tracer = Tracer() if args.trace else None

    records, jobs, errors = [], [], []
    k = rounds = 0
    measure_start = None
    while True:
        measured = rounds > 0
        traced = tracer is not None and measured and rounds % 2 == 0
        if traced:
            tracer.install()
        try:
            for _ in wl.round:
                job = wl.job(k)
                jobs.append(job)
                wall, scale, out, err = run_job(wl, job, tracer if traced else None)
                records.append({"job": k, "round": rounds, "kind": job.kind,
                                "seconds": wall * scale, "wall": wall, "scale": scale,
                                "items": job.items, "traced": traced,
                                "measured": measured, "failed": err is not None,
                                "gate_fail": bool(out is not None and out.gate_fail)})
                if err is not None:
                    errors.append("job %d (%s): %s: %s" % (k, job.kind,
                                                          type(err).__name__, err))
                k += 1
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        if measure_start is None:
            measure_start = time.perf_counter()
        elif (time.perf_counter() - measure_start >= args.seconds
              and (tracer is None or rounds >= 3)):
            break

    failed = sum(r["failed"] for r in records)
    for line in errors[:5]:
        print(line, file=sys.stderr)
    env = environment(wl)
    props = input_properties(jobs)
    # failed jobs count in ok_frac, not in the timings
    timed = [r for r in records if r["measured"] and not r["traced"] and not r["failed"]]
    if tracer is None:
        times = [r["seconds"] for r in timed]
        rss_who = resource.RUSAGE_CHILDREN if wl.name == "tables" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": setup["setup_s"],
            "job_p50_s": statistics.median(times),
            "job_tail_s": percentile(times, wl.tail_pct),
            "items_per_s": round_throughput(timed),
            "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / len(records),
        }
        units = dict(END_TO_END)
        beyond = sum(t > metrics["job_tail_s"] for t in times)
        print("%s: %d timed jobs, job_tail_s is p%g with %d beyond it; wall job p50 %.6g s, "
              "median set-up probe %.6g s" % (wl.name, len(times), wl.tail_pct, beyond,
                                              statistics.median(r["wall"] for r in timed),
                                              setup["bench.probe_s"]))
    else:
        metrics = layer_metrics(tracer, wl, records, setup)
        units = dict(PER_LAYER)
        tracer.save(workloads.OUT / ("spans-%s.npz" % wl.name))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    (workloads.OUT / ("result-%s-trace%d-seed%d.json" % (wl.name, args.trace, args.seed))
     ).write_text(json.dumps({"environment": env, "inputs": props, "setup": setup,
                              "jobs": records, "result": result}, indent=1))
    print(json.dumps({"environment": env, "inputs": props}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
