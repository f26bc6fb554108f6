"""Run one workload of the hashdec benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload {train,serve,batch} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` sets up ``SETUP_REPEATS`` times, runs the workload's operation
in a closed loop for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs the loop untraced for half of ``--seconds``, then sets up
again and replays the same operations with the tracer installed, and reports
the per-layer metrics, with the untraced half's median and 99th percentile. Either way the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are human-readable detail.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from array import array
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# The bounded latency, op_low_ms, is the lowest percentile of the
# per-operation times that has LOW_COUNT operations at or below it, but at
# least the 1st and at most the 50th. On a shared host the processor
# alternates, in phases of seconds, between a fast speed and one about 1.8
# times slower, and the share of slow phases differs from run to run, so the
# median of short operations lands in either phase; their 1st percentile
# stays in the fast phase whenever 1% of them run there. Operations that last
# longer than a phase each average over phases, and a run has too few of them
# for a low percentile, so for them it is the median.
LOW_COUNT = 10
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "op_low_ms": "ms"}
# loop.op_p99_ms, reported unbounded by traced runs, is the median over
# consecutive blocks of this many operations of each block's 99th percentile;
# ten operations lie beyond each block's 99th percentile. Runs with fewer
# operations form one block.
P99_BLOCK = 1000
LOOP_UNITS = {"loop.op_p50_ms": "ms", "loop.op_p99_ms": "ms"}


def measure(workload, state, seconds=None, count=None, tracer=None, results=None):
    """Closed loop of timed operations, each checked right after its timing.

    Runs until ``seconds`` have passed (at least one operation) or, when
    ``count`` is given, exactly ``count`` operations. Appends each checked
    result to ``results`` when a list is given. Untraced runs keep none, so
    that memory does not grow with throughput. Returns the per-op wall times
    and the number of failed operations.
    """
    times, failed = array("d"), 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while (i < count) if count is not None else (i == 0 or time.perf_counter() < deadline):
        if tracer is not None:
            tracer.request_id = i + 1
        t0 = time.perf_counter()
        raw = workload.op(state, i)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.request_id = 0
        ok, result = workload.finish(state, i, raw)
        failed += not ok
        if results is not None:
            results.append(result)
        i += 1
    return times, failed


def per_layer_units():
    """Every per-layer metric: the tracer's, the loop's and the quality of ``train``."""
    from tracing import per_layer_metric_units
    from workloads import QUALITY_NAMES

    return {**per_layer_metric_units(), **LOOP_UNITS, **dict.fromkeys(QUALITY_NAMES, "fraction")}


def low_percentile(values):
    """The percentile reported as ``op_low_ms``; see ``LOW_COUNT``."""
    q = min(50.0, max(1.0, 100.0 * LOW_COUNT / len(values)))
    return float(np.percentile(values, q))


def block_p99(values):
    """Median of the 99th percentiles of consecutive ``P99_BLOCK`` blocks."""
    blocks = [values[i:i + P99_BLOCK] for i in range(0, len(values) - P99_BLOCK + 1, P99_BLOCK)]
    return float(np.median([np.percentile(b, 99) for b in blocks or [values]]))


def run_untraced(workload, seed, seconds):
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    try:
        extra_attempted, extra_failed = workload.extra_checks(state)
        times, failed = measure(workload, state, seconds=seconds)
    finally:
        workload.close(state)
    ms = 1e3 * np.array(times)
    metrics = {
        "setup_s": float(np.median(setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_low_ms": low_percentile(ms),
    }
    print(f"# {workload.name}: {len(ms)} ops, setups {['%.4f' % s for s in setups]}, "
          f"op p50 {np.median(ms):.4f} ms, block p99 {block_p99(ms):.4f} ms")
    return metrics, len(times) + extra_attempted, failed + extra_failed


def run_traced(workload, seed, seconds):
    from tracing import Tracer
    from workloads import QUALITY_NAMES

    plain_results, traced_results = [], []
    state = workload.setup(seed)
    try:
        extra_attempted, extra_failed = workload.extra_checks(state)
        plain_times, plain_failed = measure(workload, state, seconds=seconds / 2,
                                            results=plain_results)
    finally:
        workload.close(state)
    tracer = Tracer()
    with tracer:
        state = workload.setup(seed)
        try:
            traced_times, traced_failed = measure(workload, state, count=len(plain_times),
                                                  tracer=tracer, results=traced_results)
        finally:
            workload.close(state)
    # tracing must not change a single output bit or quality number
    mismatched = sum(a != b for a, b in zip(plain_results, traced_results))
    metrics = tracer.per_layer_metrics()
    # quality is measured by train only; the other workloads report 0
    metrics.update(dict.fromkeys(QUALITY_NAMES, 0.0))
    metrics.update(workload.quality(traced_results))
    metrics["trace.overhead_ratio"] = sum(traced_times) / sum(plain_times)
    plain_ms = 1e3 * np.array(plain_times)
    metrics["loop.op_p50_ms"] = float(np.median(plain_ms))
    metrics["loop.op_p99_ms"] = block_p99(plain_ms)
    per_request = np.bincount(np.frombuffer(tracer.request, dtype=np.int64))[1:]
    print(f"# {per_request.size} traced operations, median {np.median(per_request):.0f} spans each")
    for name, row in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"# span {name}: calls={row['calls']} self_s={row['self_s']:.6f} incl_s={row['incl_s']:.6f}")
    attempted = len(plain_times) + len(traced_times) + extra_attempted
    return metrics, attempted, plain_failed + traced_failed + mismatched + extra_failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "serve", "batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "hashdec" / "__init__.py").is_file():
        print(f"error: no hashdec sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    try:
        if args.trace:
            values, attempted, failed = run_traced(workload, args.seed, args.seconds)
            units = per_layer_units()
        else:
            values, attempted, failed = run_untraced(workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    report = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
