"""The measured process.  It imports the package, the benchmark's input
generator and its reference loop and nothing heavier, runs one workload, and writes what it saw
(timings, peak RSS, program outputs) to `<out>/worker.json`.  Checking the
outputs against the extended-precision reference happens in the parent
process, so it costs neither time nor memory here.

    PYTHONPATH=src python3 benchmark/worker.py --workload point-queries \
        --seed 1 --seconds 10 --size full --out .bench_out/x [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import time
from array import array
from pathlib import Path

import reference
import workloads

import ellipbounds
import ellipbounds.cli
from ellipbounds.errors import EllipBoundsError

# Latency samples kept per run (reservoir sampling over all calls), so the
# worker's memory does not grow with the program's speed; at 240 kB (with
# each sample's block number) it adds little to the peak RSS, and 200
# samples lie beyond the p99.
RESERVOIR = 20_000
# point-queries runs the reference loop (0.1 s) between blocks of this length
BLOCK_S = 1.0
UNTRACED_REPS = 3
TRACED_REPS = 2

clock = time.perf_counter


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ellipbounds.cli.main(argv)
    return rc, buf.getvalue()


# --------------------------------------------------------------------------
# One operation of each workload.  Each returns a value that compares equal
# between two runs exactly when the program's output was byte-identical.


def verify_op(grid: int):
    os.environ["ELLIP_GRID_POINTS"] = str(grid)
    return lambda: _cli(["verify", "--suite", "all"])


def compare_op(plan, out: Path):
    def run():
        result = []
        for call in plan:
            path = out / f"compare-{call.spacing}.csv"
            rc, text = _cli(call.argv(str(path)))
            result.append((rc, text, workloads.sha256(path) if path.exists() else None))
        return result
    return run


# Calls are looked up on the package at call time, so the traced run sees
# the wrapped names.
CALLS = {
    "E": lambda r: ellipbounds.complete_e(r),
    "K": lambda r: ellipbounds.complete_k(r),
    "KE": lambda r: ellipbounds.elliptic_ke(r),
    "perimeter": lambda r: ellipbounds.ellipse_perimeter(r),
    "toader": lambda a, b: ellipbounds.toader_mean(a, b),
    "enclose_default": lambda r: ellipbounds.best_enclosure(r, ellipbounds.default_candidates()),
    "enclose_parsed": lambda r, specs: ellipbounds.best_enclosure(
        r, [ellipbounds.parse_bound_spec(s) for s in specs]),
}


def call_query(q):
    """Run one query; returns (value or None, error name or None)."""
    try:
        return CALLS[q.kind](*q.args), None
    except EllipBoundsError as exc:
        return None, type(exc).__name__
    except Exception as exc:  # an untyped error is a failure to report, not to stop on
        return None, f"untyped {type(exc).__name__}: {exc}"


def outcome(kind: str, value, err):
    """JSON-ready record of one query's result."""
    if err is not None:
        return {"error": err}
    if kind == "KE":
        return {"value": [value.k_val, value.e_val]}
    if kind.startswith("enclose"):
        return {"value": [value.lo, value.hi]}
    return {"value": value}


def queries_op(seed: int, count: int):
    def run():
        stream = workloads.query_stream(seed)
        out = []
        for _ in range(count):
            q = next(stream)
            out.append(outcome(q.kind, *call_query(q)))
        return out
    return run


# --------------------------------------------------------------------------
# Timed runs.


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(op, seconds: float) -> dict:
    """Closed loop: repeat op until `seconds` have passed (at least once),
    with the reference loop before the first pass and after every pass."""
    times, norm, refs = [], [], [reference.loop_seconds()]
    first = None
    differing = 0
    deadline = clock() + seconds
    while True:
        t0 = clock()
        result = op()
        t1 = clock()
        refs.append(reference.loop_seconds())
        times.append(t1 - t0)
        norm.append((t1 - t0) * reference.scale(refs[-2], refs[-1]))
        if first is None:
            first = result
        elif result != first:
            differing += 1
        if clock() >= deadline:
            break
    return {"times_s": times, "norm_s": norm, "ref_s": refs, "first": first,
            "differing_passes": differing, "peak_rss_mb": _peak_rss_mb()}


def timed_queries(seed: int, seconds: float, check_count: int) -> dict:
    """Closed loop over the endless query stream, in blocks of BLOCK_S with
    the reference loop between blocks.  Every call is timed on its own, the
    first `check_count` outcomes are kept for the checker, and every call's
    outcome kind (value or which typed error) is compared with the expected
    kind."""
    stream = workloads.query_stream(seed)
    sampler = random.Random(seed)
    lat = array("d", bytes(8 * RESERVOIR))
    lat_block = array("i", bytes(4 * RESERVOIR))
    factors = array("d")
    block_rates = []
    n = 0
    busy = 0.0
    kind_faults = 0
    examples = []
    checked = []
    refs = [reference.loop_seconds()]
    deadline = clock() + seconds
    while clock() < deadline:
        block = len(factors)
        block_calls, block_busy = n, busy
        block_end = clock() + BLOCK_S
        while clock() < block_end:
            for q in [next(stream) for _ in range(1024)]:
                t0 = clock()
                value, err = call_query(q)
                dt = clock() - t0
                busy += dt
                j = n if n < RESERVOIR else sampler.randrange(n + 1)
                if j < RESERVOIR:
                    lat[j] = dt
                    lat_block[j] = block
                if err != q.expect:
                    kind_faults += 1
                    if len(examples) < 5:
                        examples.append(f"#{n} {q.kind}{q.args!r}: expected {q.expect or 'a value'}, got {err or 'a value'}")
                if n < check_count:
                    checked.append(outcome(q.kind, value, err))
                n += 1
        refs.append(reference.loop_seconds())
        factors.append(reference.scale(refs[-2], refs[-1]))
        block_rates.append((n - block_calls) / ((busy - block_busy) * factors[-1]))
    # before the summary below allocates anything
    peak_rss_mb = _peak_rss_mb()
    kept = min(n, RESERVOIR)
    samples = sorted(lat[:kept])
    norm = sorted(lat[i] * factors[lat_block[i]] for i in range(kept))
    return {
        "peak_rss_mb": peak_rss_mb,
        "calls": n,
        "busy_s": busy,
        "blocks": len(factors),
        "ref_s": refs,
        "samples": kept,
        "p50_s": statistics.median(samples),
        "p99_s": _p99(samples),
        "norm_p50_s": statistics.median(norm),
        "norm_p99_s": _p99(norm),
        "norm_calls_per_s": statistics.median(block_rates),
        "kind_faults": kind_faults,
        "fault_examples": examples,
        "checked": checked,
    }


def _p99(ordered: list[float]) -> float:
    # nearest rank; with >= 1000 samples at least 10 lie beyond it
    return ordered[max(0, -(-99 * len(ordered) // 100) - 1)]


def traced_runs(op, out: Path) -> dict:
    """Run the fixed operation untraced, then traced; the traced output must
    equal the untraced one and the per-layer counts must repeat exactly."""
    import tracer

    untraced_times = []
    for _ in range(UNTRACED_REPS):
        t0 = clock()
        untraced = op()
        untraced_times.append(clock() - t0)

    rec = tracer.SpanRecorder()
    tracer.install(rec)
    traced_times, layer_sets, faults = [], [], []
    for _ in range(TRACED_REPS):
        rec.clear()
        t0 = clock()
        result = op()
        traced_times.append(clock() - t0)
        if result != untraced:
            faults.append("traced output differs from untraced output")
        layer_sets.append(tracer.layer_metrics(rec.aggregate(), len(rec.radii)))
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layer_sets]
    if any(c != counts[0] for c in counts):
        faults.append(f"per-layer counts differ between traced runs: {counts}")
    rec.write(out / "spans.bin")
    metrics = {k: statistics.median(m[k] for m in layer_sets) if k.endswith("_s") else v
               for k, v in layer_sets[0].items()}
    metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced_times)
    return {"first": untraced, "metrics": metrics, "faults": faults,
            "spans": len(rec.start), "untraced_s": untraced_times, "traced_s": traced_times}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    size = workloads.SIZES[args.size]
    out = args.out

    report: dict = {"package": ellipbounds.__file__}
    if args.workload == "verify-suite":
        grid = workloads.verify_grid(args.seed, size)
        op = verify_op(grid)
        report["grid"] = grid
    elif args.workload == "compare-table":
        op = compare_op(workloads.compare_plan(args.seed, size), out)
    elif args.workload == "point-queries":
        op = queries_op(args.seed, size.trace_queries)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    if args.trace:
        report.update(traced_runs(op, out))
    elif args.workload == "point-queries":
        report.update(timed_queries(args.seed, args.seconds, size.check_queries))
    else:
        report.update(timed_passes(op, args.seconds))
    (out / "worker.json").write_text(json.dumps(report))


if __name__ == "__main__":
    main()
