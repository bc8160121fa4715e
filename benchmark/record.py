"""Run the benchmark over several seeds and summarise it, optionally
appending the summary as one entry to a JSON list (the baseline record).

    python3 benchmark/record.py --seeds 1-10
    python3 benchmark/record.py --seeds 1-10 --append benchmark/baseline.json --label "parent abc1234"

Per workload and end-to-end metric it reports the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  Two traced runs of the
first seed give the per-layer figures and confirm that their counts repeat.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}" / "result.json").read_text())
    return result, detail


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--append", type=Path, help="JSON list file to append the summary to")
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    seeds = _seeds(args.seeds)
    workloads = [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    entry = {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version()},
        "src_lines": _src_lines(),
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        failed = sum(r["failed"] for r, _ in runs)
        e2e = {name: summarise([r["metrics"][name]["value"] for r, _ in runs]) for name in bounds}
        extra_names = [k for k, v in runs[0][1]["figures"].items() if k not in bounds]
        context = {name: summarise([d["figures"][name][0] for _, d in runs]) for name in extra_names}
        traced = [run_once(workload, seeds[0], seconds, 1) for _ in range(2)]
        layers = [t[1]["figures"] for t in traced]
        counts_repeat = all(
            layers[0][k] == layers[1][k] for k in layers[0] if not k.endswith("_s") and k != "fail_frac")
        entry["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r, _ in runs), "failed": failed,
            "end_to_end": e2e, "context": context,
            "per_layer": {k: v[0] for k, v in layers[0].items()},
            "per_layer_counts_repeat": counts_repeat,
            "traced_failed": sum(t[0]["failed"] for t in traced),
        }
        print(f"{workload}: {len(runs)} runs, failed {failed}, per-layer counts repeat: {counts_repeat}")
        for name, s in e2e.items():
            flag = "ok" if s["spread"] <= bounds[name] / 3 else ("WIDE" if s["spread"] > bounds[name] else "over 1/3 bound")
            print(f"  {name:<14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}  {flag}")
        sys.stdout.flush()

    if args.append:
        entries = json.loads(args.append.read_text()) if args.append.exists() else []
        entries.append(entry)
        args.append.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
