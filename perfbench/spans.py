"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install()` replaces each layer's public entry points with timing
wrappers at the names their callers look up (for example
`filterlab.spenkf.expint_scaled_inverse_shifted`, the name through which
`inflation_schedule` reaches the inverse), and `uninstall()` puts the
originals back.  Nothing under `src/` is edited.

A span is (name, start, end, parent, thread, error); spans of one job share
the job's index.  Worker-thread spans with no parent on their own thread
hang off the job's root span.  Counters read from arguments and return
values (branch taken, saturation, replicate counts, ...) are kept per
thread and summed at the end of each job.
"""

import contextlib
import importlib
import threading
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter

# Names of the ratio functions gamma_ratio exports to discrepancy.
_RATIO_FNS = ("ratio_mean", "ratio_second_moment", "ratio_fourth_moment")
_CLOSED_FNS = ("expected_dp", "second_moment_dp", "expected_dx",
               "second_moment_dx", "po_variance_penalty")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_inverse_shifted(c, args, kwargs, out):
    # expint_scaled_inverse_shifted(alpha, delta): saturated when delta == 0
    c["expint.inverse.saturated"] += _arg(args, kwargs, 1, "delta") == 0.0
    c["expint.inverse.cf"] += out >= 1.0


def _count_inverse(c, args, kwargs, out):
    # expint_scaled_inverse(alpha, y): the shift 1/alpha - y is zero
    alpha = _arg(args, kwargs, 0, "alpha")
    c["expint.inverse.saturated"] += 1.0 / alpha - _arg(args, kwargs, 1, "y") == 0.0
    c["expint.inverse.cf"] += out >= 1.0


def _count_forward(c, args, kwargs, out):
    nu = _arg(args, kwargs, 0, "nu")
    c["expint.forward.cf"] += _arg(args, kwargs, 1, "z") >= 1.0
    c["expint.forward.int_order"] += abs(nu - round(nu)) <= 1e-12


def _count_replicates(pos):
    def count(c, args, kwargs, out):
        c["discrepancy.mc.replicates"] += int(_arg(args, kwargs, pos, "replicates"))
    return count


def _count_draws(c, args, kwargs, out):
    c["rng.normal_polar.draws"] += int(_arg(args, kwargs, 1, "n"))


def _count_steps(c, args, kwargs, out):
    c["propagators.steps"] += len(_arg(args, kwargs, 0, "model"))


# (module, attribute, span name, counter).  One row per name a caller looks
# up, so a function imported into several modules appears once per module.
POINTS = [
    ("filterlab.cli", "main", "cli", None),
    ("filterlab.config", "ExperimentConfig.from_json", "config.load", None),
    ("filterlab.propagators", "normal_polar", "rng.normal_polar", _count_draws),
    ("filterlab.spenkf", "normal_polar", "rng.normal_polar", _count_draws),
    ("filterlab.mvspenkf", "normal_polar", "rng.normal_polar", _count_draws),
    ("filterlab.skf", "normal_polar", "rng.normal_polar", _count_draws),
    ("filterlab.cli", "build_trajectory", "propagators.build_trajectory", _count_steps),
    ("filterlab.mvspenkf", "build_trajectory", "propagators.build_trajectory", _count_steps),
    ("filterlab.propagators", "build_trajectory", "propagators.build_trajectory", _count_steps),
    ("filterlab.cli", "skf_run", "skf.skf_run", None),
    ("filterlab.cli", "skf_closed_form", "skf.closed_form", None),
    ("filterlab.skf", "skf_closed_form", "skf.closed_form", None),
    ("filterlab.spenkf", "expint_scaled_inverse_shifted", "expint.inverse",
     _count_inverse_shifted),
    ("filterlab.cli", "expint_scaled_inverse", "expint.inverse", _count_inverse),
    ("filterlab.gamma_ratio", "expint_scaled", "expint.forward", _count_forward),
    ("filterlab.cli", "expint_scaled", "expint.forward", _count_forward),
    *[("filterlab.discrepancy", fn, "gamma_ratio." + fn, None) for fn in _RATIO_FNS],
    ("filterlab.discrepancy", "mc_discrepancy_moments", "discrepancy.mc",
     _count_replicates(3)),
    ("filterlab.discrepancy", "po_mean_identity_check", "discrepancy.mc",
     _count_replicates(5)),
    *[("filterlab.discrepancy", fn, "discrepancy.closed", None) for fn in _CLOSED_FNS],
    ("filterlab.cli", "inflation_schedule", "spenkf.inflation_schedule", None),
    ("filterlab.mvspenkf", "inflation_schedule", "spenkf.inflation_schedule", None),
    ("filterlab.cli", "spenkf_run", "spenkf.spenkf_run", None),
    ("filterlab.mvspenkf", "spenkf_run", "spenkf.spenkf_run", None),
    ("filterlab.cli", "sample_initial_ensemble", "spenkf.sample_initial_ensemble", None),
    ("filterlab.cli", "mv_spenkf_run", "mvspenkf.mv_spenkf_run", None),
    ("filterlab.cli", "mv_inflation_schedule", "mvspenkf.mv_inflation_schedule", None),
]


class _ThreadBuffer:
    __slots__ = ("spans", "stack", "counters")

    def __init__(self):
        self.spans = []  # [name id, start, end, parent, error]
        self.stack = []
        self.counters = defaultdict(float)


class Tracer:
    """Spans and counters of traced jobs, kept in memory until the run ends."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._saved = []
        self.names = []
        self._ids = {}
        self.jobs = []  # one dict of span arrays per finished job
        self.counters = defaultdict(float)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, nid):
        buf = self._buffer()
        rec = [nid, 0.0, 0.0, buf.stack[-1] if buf.stack else -1, 0]
        buf.stack.append(len(buf.spans))
        buf.spans.append(rec)
        rec[1] = perf()
        return buf, rec

    def wrap(self, name, fn, count=None):
        nid = self.name_id(name)
        open_span = self._open

        def traced(*args, **kwargs):
            buf, rec = open_span(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = 1
                raise
            finally:
                rec[2] = perf()
                buf.stack.pop()
            if count is not None:
                count(buf.counters, args, kwargs, out)
            return out

        return traced

    def install(self):
        for module, attr, name, count in POINTS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._saved.append((owner, leaf, raw))
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, leaf, self.wrap(name, raw, count))

    def uninstall(self):
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)

    def begin_job(self):
        with self._lock:
            for buf in self._buffers:
                buf.spans.clear()
                buf.stack.clear()
                buf.counters.clear()

    @contextlib.contextmanager
    def root(self, name):
        """The job's root span, on the calling thread."""
        buf, rec = self._open(self.name_id(name))
        try:
            yield
        except BaseException:
            rec[4] = 1
            raise
        finally:
            rec[2] = perf()
            buf.stack.pop()

    def export(self):
        """The current job's spans and counters as plain lists.

        Spans are [name, start, end, parent, thread, error] with parent an
        index into the list.  The first span of the calling thread is the
        root (parent -1); a parentless span of another thread hangs off the
        innermost span of the calling thread that encloses it in time.
        """
        mine = self._buffer()
        with self._lock:
            bufs = [mine] + [b for b in self._buffers if b is not mine and b.spans]
        spans, counters, offset = [], defaultdict(float), 0
        for tid, buf in enumerate(bufs):
            for nid, start, end, par, err in buf.spans:
                if par >= 0:
                    par += offset
                elif spans:
                    par = _enclosing(bufs[0].spans, start, end)
                spans.append([self.names[nid], start, end, par, tid, err])
            offset += len(buf.spans)
            for key, val in buf.counters.items():
                counters[key] += val
        return spans, dict(counters)

    def end_job(self, child=None):
        """Close the current job.  `child` is another process's export(),
        whose root becomes a child of this job's root."""
        spans, counters = self.export()
        if child is not None:
            offset, threads = len(spans), 1 + max(s[4] for s in spans)
            for name, start, end, par, tid, err in child[0]:
                spans.append([name, start, end, par + offset if par >= 0 else 0,
                              tid + threads, err])
            for key, val in child[1].items():
                counters[key] = counters.get(key, 0.0) + val
        for key, val in counters.items():
            self.counters[key] += val
        cols = list(zip(*spans))
        self.jobs.append({
            "name": np.array([self.name_id(n) for n in cols[0]], dtype=np.int32),
            "t0": np.array(cols[1]), "t1": np.array(cols[2]),
            "parent": np.array(cols[3], dtype=np.int32),
            "thread": np.array(cols[4], dtype=np.int32),
            "error": np.array(cols[5], dtype=np.int8),
        })

    def save(self, path):
        """Write every span of every traced job to a compressed .npz file."""
        sizes = np.array([len(j["t0"]) for j in self.jobs], dtype=np.int64)
        cat = {k: (np.concatenate([j[k] for j in self.jobs]) if self.jobs else np.zeros(0))
               for k in ("name", "t0", "t1", "parent", "thread", "error")}
        np.savez_compressed(path, names=np.array(self.names), job_sizes=sizes, **cat)


def _enclosing(spans, start, end):
    """Index of the innermost span in `spans` (one thread's, properly
    nested) whose interval contains [start, end]; 0 when none does."""
    best, best_start = 0, None
    for j, (_, s, e, _, _) in enumerate(spans):
        if s <= start and end <= e and (best_start is None or s >= best_start):
            best, best_start = j, s
    return best


def _union(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def analyze_job(job):
    """Per-span self time plus the job's thread time.

    A span's self time is its duration minus the part of it covered by its
    direct children.  Thread time is the root's wall time plus, for every
    span, the time its children on different threads ran in parallel (their
    summed durations minus the length of their union).  On a single-threaded
    job thread time is the wall time, and on any job the self times of all
    spans sum to the thread time.
    """
    t0, t1, parent = job["t0"], job["t1"], job["parent"]
    dur = t1 - t0
    children = defaultdict(list)
    for j in range(1, len(t0)):
        children[int(parent[j])].append((t0[j], t1[j]))
    covered = np.zeros(len(t0))
    parallel = 0.0
    for p, iv in children.items():
        covered[p] = _union(iv)
        parallel += sum(e - s for s, e in iv) - covered[p]
    return dur - covered, float(dur[0]) + parallel


def summarize(tracer):
    """Totals over all traced jobs.

    Returns (per_name, per_layer, totals).  Each per-name and per-layer entry
    has calls, inclusive seconds `s`, `self_s` and `errors`; inclusive time
    counts a span only when no ancestor belongs to the same name (or layer),
    so recursion through a layer is not counted twice.  totals holds the
    number of jobs, their summed wall time, thread time and self time.
    """
    layer = [n.split(".")[0] for n in tracer.names]
    blank = lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0}
    per_name, per_layer = defaultdict(blank), defaultdict(blank)
    totals = {"jobs": len(tracer.jobs), "wall_s": 0.0, "thread_s": 0.0, "self_s": 0.0}
    for job in tracer.jobs:
        self_s, thread_s = analyze_job(job)
        names, parent, error = job["name"], job["parent"], job["error"]
        dur = job["t1"] - job["t0"]
        totals["wall_s"] += float(dur[0])
        totals["thread_s"] += thread_s
        totals["self_s"] += float(self_s.sum())
        for j in range(len(names)):
            nid = int(names[j])
            same_name = same_layer = False
            a = parent[j]
            while a >= 0:
                same_name = same_name or names[a] == nid
                same_layer = same_layer or layer[names[a]] == layer[nid]
                a = parent[a]
            for entry, nested in ((per_name[tracer.names[nid]], same_name),
                                  (per_layer[layer[nid]], same_layer)):
                entry["calls"] += 1
                entry["self_s"] += float(self_s[j])
                entry["errors"] += int(error[j])
                if not nested:
                    entry["s"] += float(dur[j])
    return per_name, per_layer, totals
