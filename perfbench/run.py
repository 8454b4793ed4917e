"""sqkit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload score --seed 1 --seconds 45 --trace 0

Inputs are generated from the seed before any timing. The run then times
the workload's set-up several times (median reported), and afterwards runs
items back to back for `--seconds`: each item starts when the previous one
has finished, cycling the workload's pool of items and taking the next
realization of each item's input on every pass. Every output is checked;
an execution that raises or fails its check counts as failed. Throughput
is correct executions per second of run time; the latencies are over all
executions. Every time it gates is rescaled to the speed of a reference
host by a kernel timed between items (see hostspeed.py); the raw figures
stay on the report line.

With `--trace 0` the last line of stdout carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics from spans (see tracing.py). In
a traced run every item runs twice, once traced and once not, in alternating
order, so the tracing overhead is measured on the same items. The line
before the last holds the full report: every metric with its unit, the
bases of each ratio, the environment and the first failures. Reports and
spans are also written under perfbench/out/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple, Optional

# One BLAS thread keeps runs comparable on a shared 2-core machine. It is set
# before hostspeed loads numpy, since OpenBLAS reads it when it starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import hostspeed  # noqa: E402
from tracing import Instrumentation, NullTracer, Tracer, layer_metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 9, 8.0
PROBE_EVERY_S = 0.1  # host-speed probes cost about 4% of a run
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sqkit; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"items_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def latency_summary(latencies):
    """Median and tail of item latencies in seconds (failed items as inf).

    The tail is the highest percentile that still has at least ten items
    beyond it: the value with exactly ten above it. With fewer than 21 items
    that would fall below the median, so the median stands in for it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    median = statistics.median(ordered)
    if n >= 21:
        tail, percentile = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, percentile = median, 50.0
    return {
        "p50_s": median,
        "tail_s": tail,
        "tail_percentile": percentile,
        "tail_items_beyond": sum(1 for v in ordered if v > tail),
        "items": n,
    }


class Record(NamedTuple):
    start: float  # perf_counter when the item started
    latency_s: float  # inf when the item raised
    problem: Optional[str]  # None when the output passed its check
    index: int  # position in the run; the pool index is index % len(items)
    recovered: Optional[bool]  # scale recovery, where the workload scores it
    traced_latency_s: Optional[float] = None


class Run(NamedTuple):
    records: list
    start: float  # perf_counter at the start and end of the loop
    end: float
    probes: list  # host-speed samples, (start, seconds), taken between items


def run_loop(items, cache, seconds, tracer=None, instrument=None):
    """Closed loop over `items` (cycled) for `seconds`; returns a Run.

    `items` holds the pool: each entry is a tuple of realizations, and pass
    p over the pool runs realization p of every item (cycling the
    realizations when a run makes more passes than there are). Between
    items, the host-speed kernel is timed every PROBE_EVERY_S. With a
    tracer, each item runs twice, traced under `instrument` and not,
    alternating which goes first; the record keeps both latencies and the
    traced run's check result.
    """
    untraced = NullTracer()
    records, probes = [], []
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start
    i = 0
    while (now := time.perf_counter()) < deadline:
        if now >= next_probe:
            probes += hostspeed.probe()
            next_probe = now + PROBE_EVERY_S
        realizations = items[i % len(items)]
        item = realizations[(i // len(items)) % len(realizations)]
        if tracer is None:
            records.append(_attempt(item, cache, untraced, None, i))
        else:
            runs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                runs[traced] = _attempt(item, cache, tracer if traced else untraced,
                                        instrument if traced else None, i)
            records.append(runs[True]._replace(latency_s=runs[False].latency_s,
                                               traced_latency_s=runs[True].latency_s))
        i += 1
    return Run(records, start, time.perf_counter(), probes)


def _attempt(item, cache, tracer, instrument, index):
    tracer.item = index
    t0 = time.perf_counter()
    try:
        if instrument is None:
            output = item.run(cache, tracer)
        else:
            with instrument, tracer.span("bench.item"):
                output = item.run(cache, tracer)
        latency = time.perf_counter() - t0
    except Exception as exc:  # an item that raises is a counted failure
        return Record(t0, float("inf"), f"{type(exc).__name__}: {exc}", index, None)
    finally:
        tracer.item = None
    try:
        problem = item.check(output)
        recovered = None
        if problem is None and item.recovered is not None:
            recovered = bool(item.recovered(output))
    except Exception as exc:
        return Record(t0, latency, f"check raised {type(exc).__name__}: {exc}", index, None)
    return Record(t0, latency, problem, index, recovered)


def timed_setup(workload, tracer=None, instrument=None):
    """Set-up time: sqkit import (fresh interpreter) plus building the caches.

    Sets up at least 3 times, and up to 9 while the repeats so far took under
    8 s. Each repeat is rescaled to reference speed by host-speed probes
    taken just before and after it. Returns (median scaled seconds, cache,
    details); the cache comes from the last repeat. A traced run sets up
    once, inside a span, and reports no time.
    """
    if tracer is not None:
        with instrument, tracer.span("bench.setup"):
            return None, workload.setup(), {}
    env = dict(os.environ, PYTHONPATH=SRC)
    totals, imports, caches, factors = [], [], [], []
    started = time.perf_counter()
    while len(totals) < SETUP_MIN_REPEATS or (
            len(totals) < SETUP_MAX_REPEATS and time.perf_counter() - started < SETUP_BUDGET_S):
        probes = hostspeed.probe()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        import_s = float(proc.stdout.strip())
        t0 = time.perf_counter()
        cache = workload.setup()
        cache_s = time.perf_counter() - t0
        factor = hostspeed.factor(probes + hostspeed.probe())
        imports.append(import_s)
        caches.append(cache_s)
        factors.append(factor)
        totals.append((import_s + cache_s) / factor)
    return statistics.median(totals), cache, {"import_s": imports, "cache_s": caches,
                                              "host_factor": factors}


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or the requested count."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(run, pool_size, setup_s):
    """End-to-end metrics {name: value}, and the bases and extra fractions.

    Times are at reference host speed (hostspeed.HostClock); the raw ones go
    to the detail.
    """
    records = run.records
    clock = hostspeed.HostClock(run.probes)
    # A failed execution misses any latency limit, so it ranks as infinitely slow.
    raw = [float("inf") if r.problem is not None else r.latency_s for r in records]
    scaled = [v if v == float("inf") else clock.scaled(r.start, r.start + v)
              for r, v in zip(records, raw)]
    failed = sum(1 for r in records if r.problem is not None)
    correct = len(records) - failed
    probe_s = sum(d for _, d in run.probes)
    run_s = clock.scaled(run.start, run.end) - sum(clock.scaled(t, t + d) for t, d in run.probes)
    lat, raw_lat = latency_summary(scaled), latency_summary(raw)
    metrics = {
        "items_per_s": correct / run_s,
        "latency_p50_ms": 1e3 * lat["p50_s"],
        "latency_tail_ms": 1e3 * lat["tail_s"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "failed_frac": {"value": failed / len(records), "unit": "ratio",
                        "failed": failed, "attempted": len(records)},
        "latency_tail_ms": {"percentile": lat["tail_percentile"],
                            "items_beyond": lat["tail_items_beyond"], "items": lat["items"]},
        "items_per_s": {"correct_executions": correct, "run_s": run_s},
        "raw": {"items_per_s": correct / (run.end - run.start - probe_s),
                "latency_p50_ms": 1e3 * raw_lat["p50_s"],
                "latency_tail_ms": 1e3 * raw_lat["tail_s"]},
        "host_factor": {"run": clock.overall, "samples": len(run.probes), "probe_s": probe_s},
    }
    # Scored on the first pass only, so the figure depends on the seed alone.
    scored = [r.recovered for r in records if r.index < pool_size and r.recovered is not None]
    if scored:
        extra["recovered_frac"] = {"value": sum(scored) / len(scored), "unit": "ratio",
                                   "recovered": sum(scored), "scored": len(scored)}
    return metrics, extra


def _finite_or_none(value):
    return value if value == value and abs(value) != float("inf") else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sqkit", "__init__.py")):
        print(f"run.py: sqkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sqkit
    import workloads

    if not os.path.abspath(sqkit.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported sqkit from {sqkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, workdir):
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = instrument = None
    if args.trace:
        tracer = Tracer()
        instrument = Instrumentation(tracer)
    setup_s, cache, setup_detail = timed_setup(workload, tracer, instrument)
    run = run_loop(workload.items, cache, args.seconds, tracer, instrument)
    records = run.records

    failed = [r for r in records if r.problem is not None]
    report = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
              "objects_in_pool": workload.objects, "items_in_pool": len(workload.items),
              "environment": environment(args.seed),
              "failures": [{"item": r.index, "problem": r.problem} for r in failed[:5]]}
    if args.trace:
        untraced = sum(r.latency_s for r in records)
        overhead = sum(r.traced_latency_s for r in records) / untraced - 1.0
        layer = layer_metrics(tracer.spans, overhead)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        tracer.write_jsonl(os.path.join(OUT, f"spans-{workload.name}-{args.seed}.jsonl"))
    else:
        values, extra = end_to_end(run, len(workload.items), setup_s)
        metrics = {name: {"value": _finite_or_none(v), "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
        report["detail"] = extra
        report["setup"] = setup_detail
    report["metrics"] = metrics
    with open(os.path.join(OUT, f"report-{workload.name}-{args.seed}-t{args.trace}.json"),
              "w", encoding="ascii") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
