"""Benchmark of the ellipbounds package: one workload per run, from a seed.

    python3 benchmark/run.py --workload verify-suite --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  It measures set-up (importing
`ellipbounds.cli` in fresh interpreters), then starts one measured process
(`worker.py`) that runs the workload in a closed loop for `--seconds`, and
finally checks every output it kept against the 40-digit mpmath reference.
Every timing in the JSON line is scaled to the reference speed: it is
measured between runs of the fixed loop in `reference.py`, and divided by
that loop's time over its nominal 0.1 s, so that the machine's own changes
of speed cancel out.
`--trace 1` instead runs one fixed operation set untraced and traced and
reports the per-layer figures.  Human-readable lines come first; the last
line of standard output is one JSON object with the metrics named in
BENCHMARK.json.  See benchmark/README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 10  # before and again after the measured process
CHILD_TIMEOUT_S = 150  # on top of --seconds


def _layout_problem() -> str | None:
    for need in (SRC / "ellipbounds" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            return f"{need.relative_to(ROOT)} not found; run from the root of a full checkout"
    return None


def _child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("ELLIP_GRID_POINTS", None)
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def import_times(reps: int) -> list[tuple[float, float, float]]:
    """(seconds to import ellipbounds.cli, seconds of the reference loop run
    right after the import, rest of the interpreter's wall time) for `reps`
    fresh interpreters."""
    code = ("import sys, time\nt0 = time.perf_counter()\nimport ellipbounds.cli\n"
            "t1 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(BENCH)!r})\nimport reference\n"
            "print(repr(t1 - t0), repr(reference.loop_seconds()), ellipbounds.__file__)")
    out = []
    for _ in range(reps):
        w0 = time.perf_counter()
        proc = _child([sys.executable, "-c", code], timeout=60)
        wall = time.perf_counter() - w0
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()}")
        seconds, ref, path = proc.stdout.split()
        if not _from_src(path):
            raise RuntimeError(f"imported {path}, not the checkout's src/")
        out.append((float(seconds), float(ref), wall - float(seconds) - float(ref)))
    return out


# --------------------------------------------------------------------------
# Per-workload checking and metrics.  Each returns (attempted, failed,
# metrics for the JSON line, extra figures for the human-readable lines).


def verify_result(oracle, report: dict) -> tuple[int, int, dict, dict]:
    rc, text = report["first"]
    check = oracle.check_verify(rc, text, report["grid"])
    times = report.get("times_s", [])
    passes = max(1, len(times))
    differing = report.get("differing_passes", 0)
    attempted = check["checks"] * passes
    failed = check["failed"] * (passes - differing) + check["checks"] * differing
    extra = {"grid": report["grid"], "passes": passes, "notes": check["notes"]}
    if not times:
        return attempted, failed, {}, extra
    extra["verify_s"] = (statistics.median(times), "s")
    return attempted, failed, pass_metrics(report, report["grid"], extra), extra


def compare_result(oracle, report: dict, seed: int, size, out: Path) -> tuple[int, int, dict, dict]:
    plan = workloads.compare_plan(seed, size)
    times = report.get("times_s", [])
    passes = max(1, len(times))
    rows_per_pass = sum(call.points for call in plan)
    failed_rows = rows = missed = 0
    notes = []
    for call, (rc, _text, digest) in zip(plan, report["first"]):
        path = out / f"compare-{call.spacing}.csv"
        if rc != 0 or digest is None or not path.is_file() or workloads.sha256(path) != digest:
            failed_rows += call.points
            notes.append(f"compare {call.spacing}: exit code {rc}, output {'missing' if digest is None else 'changed'}")
            continue
        check = oracle.check_table(path, call)
        rows += check["rows"]
        failed_rows += check["failed"]
        missed += check["misses"]
        notes += check["notes"]
    differing = report.get("differing_passes", 0)
    attempted = rows_per_pass * passes
    failed = failed_rows * (passes - differing) + rows_per_pass * differing
    extra = {"passes": passes, "rows_per_pass": rows_per_pass, "notes": notes,
             "enclosure_miss_frac": (missed / rows if rows else 1.0, "1")}
    if not times:
        return attempted, failed, {}, extra
    extra["rows_per_s"] = (rows_per_pass / statistics.median(times), "1/s")
    return attempted, failed, pass_metrics(report, rows_per_pass, extra), extra


def pass_metrics(report: dict, items: int, extra: dict) -> dict:
    """The JSON timings of a pass workload: the median pass time scaled to
    the reference speed, and the items of one pass per scaled second."""
    norm_s = statistics.median(report["norm_s"])
    extra["ref_loop_s"] = (statistics.median(report["ref_s"]), "s")
    return {"op_p50_norm_ms": norm_s * 1e3, "items_per_norm_s": items / norm_s}


def queries_result(oracle, report: dict, seed: int, size) -> tuple[int, int, dict, dict]:
    traced = "calls" not in report
    outcomes = report["first"] if traced else report["checked"]
    stream = workloads.query_stream(seed)
    queries = [next(stream) for _ in outcomes]
    check = oracle.check_queries(queries, outcomes, size.check_queries)
    extra = {"notes": check["notes"], "checked_values": min(len(outcomes), size.check_queries),
             "enclosure_miss_frac": (check["misses"] / check["enclosures"] if check["enclosures"] else 1.0, "1"),
             "hostile_share": (sum(q.expect is not None for q in queries) / len(queries), "1")}
    if traced:
        return len(outcomes), check["kind_failures"] + check["value_failures"], {}, extra
    # the worker compared the outcome kind of every call, these included
    attempted = report["calls"]
    failed = report["kind_faults"] + check["value_failures"]
    extra["notes"] = report["fault_examples"] + extra["notes"]
    extra.update({"queries_per_s": (report["calls"] / report["busy_s"], "1/s"),
                  "query_p50_us": (report["p50_s"] * 1e6, "us"), "query_p99_us": (report["p99_s"] * 1e6, "us"),
                  "query_p99_norm_us": (report["norm_p99_s"] * 1e6, "us"),
                  "ref_loop_s": (statistics.median(report["ref_s"]), "s"),
                  "latency_samples": report["samples"], "blocks": report["blocks"]})
    return attempted, failed, {"op_p50_norm_ms": report["norm_p50_s"] * 1e3,
                               "items_per_norm_s": report["norm_calls_per_s"]}, extra


# --------------------------------------------------------------------------


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="'tiny' is for the benchmark's own smoke test")
    args = ap.parse_args()

    problem = _layout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    size = workloads.SIZES[args.size]
    # one run's files at a time: a traced verify run writes ~80 MB of spans
    shutil.rmtree(OUT, ignore_errors=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True)

    figures: dict[str, tuple[float, str]] = {}
    if not args.trace:
        import_times(1)  # writes the bytecode caches
        setup = import_times(SETUP_REPS)

    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
            "--out", str(out)] + (["--trace"] if args.trace else [])
    proc = _child(argv, timeout=args.seconds + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: measured process exited with {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return 1
    report = json.loads((out / "worker.json").read_text())
    if not _from_src(report["package"]):
        print(f"error: measured process imported {report['package']}", file=sys.stderr)
        return 1
    if not args.trace:
        # samples from both ends of the run, so one moment's machine load
        # does not set the median
        setup += import_times(SETUP_REPS)
        figures["setup_s"] = (statistics.median(t * reference.scale(ref, ref) for t, ref, _ in setup), "s")
        figures["setup_wall_s"] = (statistics.median(t for t, _, _ in setup), "s")
        figures["interpreter_start_exit_s"] = (statistics.median(r for _, _, r in setup), "s")

    sys.path.insert(0, str(ROOT / "tests"))
    import oracle

    if args.workload == "verify-suite":
        attempted, failed, e2e, extra = verify_result(oracle, report)
    elif args.workload == "compare-table":
        attempted, failed, e2e, extra = compare_result(oracle, report, args.seed, size, out)
    else:
        attempted, failed, e2e, extra = queries_result(oracle, report, args.seed, size)
    notes = extra.pop("notes") + report.get("faults", [])
    failed += len(report.get("faults", []))

    if args.trace:
        figures.update((k, (v, _unit(k))) for k, v in report["metrics"].items())
        extra["spans"] = report["spans"]
    else:
        figures["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
        figures["op_p50_norm_ms"] = (e2e["op_p50_norm_ms"], "ms")
        figures["items_per_norm_s"] = (e2e["items_per_norm_s"], "1/s")
    figures.update((k, v) for k, v in extra.items() if isinstance(v, tuple))
    figures["fail_frac"] = (failed / attempted, "1")

    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": figures[k][0], "unit": figures[k][1]} for k in names}}

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    for name, (value, unit) in figures.items():
        print(f"  {name:<32s} {value:.6g} {unit}")
    for name, value in extra.items():
        if not isinstance(value, tuple):
            print(f"  {name:<32s} {value}")
    if args.trace:
        print("  (no waiting time: one closed-loop caller on one thread, so every span is busy time)")
    for note in notes:
        print(f"  FAULT {note}")
    detail = {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "figures": figures, "extra": extra, "notes": notes}
    (out / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_calls", "_new")):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
