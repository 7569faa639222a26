"""hyperforest benchmark: one workload per process, seeded, self-checking.

    python3 perfbench/run.py --workload codec-large --seed 1 --seconds 30 --trace 0

Run from the repository root.  Setup imports the package from ``src/``
and writes the workload's inputs; the workload's fixed op list is then run
in passes until ``--seconds`` have gone by, and each op's time is the
median over the passes after the first, which is a warm-up.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics from a traced pass.
The last line of stdout is the result; the line before it holds the run
facts.  Exit status is 0, 1 when an output check failed, 2 when the
benchmark cannot run.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
# Median of calibrate() on a 2-CPU x86-64 VM with CPython 3.11.7.  Any
# constant works; it only fixes the unit of the reference seconds.
CALIBRATION_REF_S = 0.032


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work that does not touch the
    package: small objects shuffled, sorted and heaped, a JSON round trip,
    list shifting and a bigint multiply and divide.

    The machine's speed drifts by tens of percent over seconds to minutes,
    so every timed step is bracketed by this loop and reported in reference
    seconds: its time scaled by CALIBRATION_REF_S over the mean of the two
    calibrations around it.  The working set is a few megabytes, like the
    ops', so that the loop slows down with them when the cache is contended.
    """
    gc.collect()
    start = perf_counter()
    rng = random.Random(20111001)
    items = [(rng.getrandbits(20), i, (i, i + 1)) for i in range(10000)]
    rng.shuffle(items)
    items.sort()
    heap = [item[0] for item in items[:4000]]
    heapq.heapify(heap)
    while heap:
        heapq.heappop(heap)
    json.loads(json.dumps([list(item[2]) for item in items]))
    shifting = list(range(2000))
    while shifting:
        shifting.pop(0)
    x = 7 ** 20000
    (x * (x + 1)) // (3 ** 12000)
    return perf_counter() - start


def to_reference(before: float, after: float) -> float:
    """Factor from seconds to reference seconds, given the calibrations around a step."""
    return CALIBRATION_REF_S * 2 / (before + after)


def reference_seconds(step) -> float:
    """Run step() between two calibrations; its time in reference seconds."""
    before = calibrate()
    start = perf_counter()
    step()
    seconds = perf_counter() - start
    return seconds * to_reference(before, calibrate())


def import_seconds() -> float:
    """Median reference time to import the package and its CLI afresh."""
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "hyperforest" or m.startswith("hyperforest.")]:
            del sys.modules[name]
        times.append(reference_seconds(lambda: importlib.import_module("hyperforest.cli")))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(ops, tracer=None) -> list:
    """One pass over the op list; each outcome gets its reference seconds.

    The calibration after one op is the one before the next."""
    outcomes = []
    before = calibrate()
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        outcome = op.run()
        after = calibrate()
        outcome.ref_seconds = outcome.seconds * to_reference(before, after)
        outcome.label = op.label
        outcomes.append(outcome)
        before = after
    return outcomes


def counters(ops, outcomes) -> dict[str, int]:
    return {
        "vertices": sum(op.vertices for op in ops),
        "edges": sum(op.edges for op in ops),
        "bytes_in": sum(o.bytes_in for o in outcomes),
        "bytes_out": sum(o.bytes_out for o in outcomes),
        "ops_attempted": len(outcomes),
        "ops_failed": sum(1 for o in outcomes if o.failure),
        "result_digits": sum(o.digits for o in outcomes),
    }


def measure(workload, seconds: float, import_s: float) -> tuple[dict, dict, list, list]:
    """Untraced run: set up several times, then passes until the time is up.

    The first pass runs every op and is a warm-up: later passes repeat only
    the timed ones, and only they are timed; there is at least one.  An op
    counts against ok_ratio when any of its runs failed, so the ratio does
    not depend on how many passes fitted in.
    """
    setup_times = [reference_seconds(workload.setup) for _ in range(SETUP_REPEATS)]
    setup_rss_mb = peak_rss_mb()
    ops = workload.ops()
    timed = [op for op in ops if op.kind]
    deadline = perf_counter() + seconds
    first = run_pass(ops)
    # the first pass runs every op, so the peak after it does not depend on
    # how many more passes fit in
    rss_mb = peak_rss_mb()
    runs = {op.label: [o] for op, o in zip(ops, first)}
    passes = 1
    while passes == 1 or perf_counter() < deadline:
        for op, outcome in zip(timed, run_pass(timed)):
            runs[op.label].append(outcome)
        passes += 1
    median = {op.label: statistics.median(o.ref_seconds for o in runs[op.label][1:]) for op in timed}
    every = [o for outcomes in runs.values() for o in outcomes]
    failed_ops = sum(1 for outcomes in runs.values() if any(o.failure for o in outcomes))
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "ok_ratio": (1 - failed_ops / len(ops), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_s": (sum(median.values()), "s"),
    }
    facts = {
        "passes": passes,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "setup_peak_rss_mb": setup_rss_mb,
        "fail_ratio": failed_ops / len(ops),
        "breakdown": {k: {"value": v, "unit": u} for k, (v, u) in workload.breakdown(timed, median).items()},
        "counters": counters(ops, first),
        "op_median_s": median,
    }
    return metrics, facts, every, first


def trace(workload, tracing, workloads, hf, out: Path) -> tuple[dict, dict, list, list]:
    """Traced run: a warm-up pass, an untraced pass, a traced pass, then
    the nested calls timed one by one and the criterion-8 margin.

    The untraced pass comes first because the spans the traced pass keeps
    in memory slow down later garbage collections."""
    workload.setup()
    ops = workload.ops()
    tracer = tracing.Tracer()
    before = run_pass(ops)
    plain = run_pass(ops)
    with tracer.wrapping(hf.cli, tracing.CLI_SPANS), tracer.wrapping(workloads, tracing.OP_SPANS):
        traced = run_pass(ops, tracer)
    tracer.op = None
    workload.inner(tracer)
    gc.collect()
    values = {f"{name}_s": total for name, total in tracer.totals().items()}
    values["cli.decimal_refused"] = int(tracer.extra.get("cli.decimal_refused", 0))
    values.update(counters(ops, traced))
    values["trace.overhead_s"] = sum(o.ref_seconds for o in traced) - sum(o.ref_seconds for o in plain)
    values.update(tracing.criterion8_margin(hf))
    tracer.write(out)
    facts = {"spans": len(tracer.spans), "trace_file": str(out.relative_to(ROOT))}
    return values, facts, before + plain + traced, before


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    src = ROOT / "src"
    if not (src / "hyperforest" / "__init__.py").is_file():
        print(f"perfbench: no package at {src / 'hyperforest'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import_s = import_seconds()
    import hyperforest as hf
    import tracing
    import workloads

    if Path(hf.__file__).resolve().parent != src / "hyperforest":
        print(f"perfbench: imported {hf.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        if args.trace:
            out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            values, facts, outcomes, first = trace(workload, tracing, workloads, hf, out)
            wanted = spec["per_layer"]
            metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
        else:
            values, facts, outcomes, first = measure(workload, args.seconds, import_s)
            wanted = spec["end_to_end"]
            metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = sorted({o.failure for o in outcomes if o.failure})
    facts.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "int_max_str_digits": sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None,
        "failures": failures,
        "digest": workloads.digest("".join(o.digest for o in first).encode()),
    })
    correct = not any(o.mismatch for o in outcomes)
    print(json.dumps({"facts": facts}))
    # attempted and failed count the ops of the list, not their runs, so
    # they do not depend on how many passes fitted in
    print(json.dumps({
        "correct": correct,
        "attempted": len(first),
        "failed": len({o.label for o in outcomes if o.failure}),
        "metrics": metrics,
    }))
    if not correct:
        print("perfbench: output check failed: " + "; ".join(failures), file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
