#!/usr/bin/env python3
"""Time one `run_suite(SUITE, GRID)` pass section by section, for two
checkouts, and print the comparison as JSON.

A pass is split into the sections below by wrapping the `ellipbounds.verify`
functions that do each one.  A section's time is exclusive: a nested
section's time is its own, not its caller's.  "grid table" is the building
of the cached grid tables (radii, complements, one AGM run per radius);
"derived columns" is the part of it that builds the cancelling columns
(`verify._table` inside a grid table), and a checkout without those reports
0 for it.  What no wrapped
function covers (the lemma 2.5 margins, the case sample, the suite loops)
is "other".

Each checkout runs in its own interpreters, with its `src/` on PYTHONPATH
and no bytecode written, so both sides are in the same bytecode-cache
state.  One interpreter runs one unmeasured pass, then PASSES passes with
no wrapper (the pass totals) and PASSES passes with the wrappers (the
sections).  Every pass is bracketed by the benchmark's reference loop and
scaled by it, as `benchmark/worker.py` scales a suite pass.  The two
checkouts alternate, the first checkout first on even pair indices, for
PAIRS pairs; the output gives each figure's median over the pairs and how
many pairs the second checkout won.

Usage: python3 scripts/bench_verify.py FIRST SECOND [--pairs 10] [--passes 5] [--grid 10000]
                                     [--suite all|lemmas|sharpness|remarks]
Standard library only; the reference loop is read from this checkout's
`benchmark/reference.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# (section, a verify function whose exclusive time counts towards it)
SECTIONS = [
    ("grid table", "_grid_table"),
    ("grid table", "_grid_columns"),
    ("derived columns", "_table"),
    ("sweeps", "sweep_monotone"),
    ("classification", "lemma26_classify"),
    ("validity", "run_sharpness_suite"),
    ("falsifiers", "search_violation"),
    ("remarks", "run_remarks_suite"),
]
# a section counted only inside another one: one-row tables outside the
# grid tables stay in the section that builds them
INSIDE = {"derived columns": "grid table"}


def _child(suite: str, grid: int, passes: int) -> dict:
    sys.path.insert(0, str(HERE / "benchmark"))
    import reference
    from ellipbounds import verify

    def scaled(run) -> float:
        # the ms of run() scaled by the reference loops on both sides of it
        ref0 = reference.loop_seconds()
        t0 = time.perf_counter()
        run()
        t1 = time.perf_counter()
        return (t1 - t0) * 1e3 * reference.scale(ref0, reference.loop_seconds())

    def one_pass() -> None:
        verify.run_suite(suite, grid)

    one_pass()
    totals = [scaled(one_pass) for _ in range(passes)]

    stack: list[str] = ["other"]
    spent: dict[str, float] = {}

    def wrap(section: str, fn):
        def timed(*args, **kwargs):
            if section in INSIDE and stack[-1] != INSIDE[section]:
                return fn(*args, **kwargs)
            stack.append(section)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                spent[section] = spent.get(section, 0.0) + dt
                spent[stack[-1]] = spent.get(stack[-1], 0.0) - dt
        if hasattr(fn, "cache_clear"):
            timed.cache_clear = fn.cache_clear
        return timed

    for section, name in SECTIONS:
        if hasattr(verify, name):
            setattr(verify, name, wrap(section, getattr(verify, name)))
    sections: dict[str, list[float]] = {}
    for _ in range(passes):
        spent.clear()
        ref0 = reference.loop_seconds()
        t0 = time.perf_counter()
        one_pass()
        spent["other"] = spent.get("other", 0.0) + time.perf_counter() - t0
        factor = reference.scale(ref0, reference.loop_seconds())
        for section, s in spent.items():
            sections.setdefault(section, []).append(s * 1e3 * factor)
    return {"pass_ms": statistics.median(totals),
            "sections_ms": {k: statistics.median(v) for k, v in sections.items()}}


def _run(root: Path, suite: str, grid: int, passes: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--suite", suite, "--grid", str(grid),
            "--passes", str(passes), str(root), str(root)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _quartiles(xs: list[float]) -> list[float]:
    return [round(q, 3) for q in statistics.quantiles(xs, n=4, method="inclusive")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=Path)
    ap.add_argument("second", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--grid", type=int, default=10_000)
    ap.add_argument("--suite", choices=("all", "lemmas", "sharpness", "remarks"), default="all")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(_child(args.suite, args.grid, args.passes)))
        return 0

    sides = ("first", "second")
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            runs[side].append(_run(getattr(args, side).resolve(), args.suite, args.grid, args.passes))

    names = list(dict.fromkeys(section for section, _ in SECTIONS)) + ["other"]
    section = {side: {name: [r["sections_ms"].get(name, 0.0) for r in runs[side]] for name in names}
               for side in sides}
    passes = {side: [r["pass_ms"] for r in runs[side]] for side in sides}
    result = {
        "suite": args.suite, "grid": args.grid, "pairs": args.pairs, "passes_per_interpreter": args.passes,
        "pass_ms": {
            **{side + "_quartiles": _quartiles(passes[side]) for side in sides},
            "second_better_pairs": sum(b < a for a, b in zip(passes["first"], passes["second"])),
        },
        "section_median_ms": {side: {name: round(statistics.median(section[side][name]), 3)
                                     for name in names} for side in sides},
        "section_second_better_pairs": {
            name: sum(b < a for a, b in zip(section["first"][name], section["second"][name]))
            for name in names},
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
