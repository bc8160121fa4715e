#!/usr/bin/env python3
"""Time one `run_suite(SUITE, GRID)` pass section by section, for two
checkouts, and print the comparison as JSON.

A pass is split into the sections below by wrapping the `ellipbounds.verify`
functions and `verify._Table` methods that do each one.  A section's time is
exclusive: a nested section's time is its own, not its caller's.  "tables"
is the building of every table, grid or one-row, and its columns r, r', K
and E (one AGM run per radius); "cancelling columns" is the building of the
five cancelling columns of every table.  Where a checkout builds its tables
is listed in SECTIONS: module functions for tables whose columns are all
built at once, and `_Table.__getattr__` for tables whose columns are built
on first read, where the column read decides the section.  What no wrapped
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

NAMES = ["tables", "cancelling columns", "sweeps", "classification", "validity", "falsifiers",
         "remarks", "other"]


def _column(table, name: str) -> str:
    # the section of a column built on first read
    return "tables" if name in ("r", "rc", "k", "e") else "cancelling columns"


# (section or a function of the call's arguments that names it, a verify
# function or "_Table.method" whose exclusive time counts towards it); a name
# the checkout does not define is skipped
SECTIONS = [
    # tables whose columns are all built at once, in the functions that build them
    ("tables", "_grid_table"),
    ("tables", "_grid_columns"),
    ("tables", "_radii"),
    ("tables", "_columns"),
    ("tables", "_one_row"),
    ("tables", "_row"),
    ("cancelling columns", "_table"),
    # tables whose columns are built on first read
    ("tables", "_Table.__init__"),
    (_column, "_Table.__getattr__"),
    ("sweeps", "sweep_monotone"),
    ("classification", "lemma26_classify"),
    ("validity", "run_sharpness_suite"),
    ("falsifiers", "search_violation"),
    ("remarks", "run_remarks_suite"),
]


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

    def wrap(section, fn):
        def timed(*args, **kwargs):
            stack.append(section(*args) if callable(section) else section)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                name = stack.pop()
                spent[name] = spent.get(name, 0.0) + dt
                spent[stack[-1]] = spent.get(stack[-1], 0.0) - dt
        if hasattr(fn, "cache_clear"):
            timed.cache_clear = fn.cache_clear
        return timed

    for section, path in SECTIONS:
        owner, _, name = path.rpartition(".")
        owner = getattr(verify, owner, None) if owner else verify
        # only what the module or class itself defines, not what a class inherits
        if owner is not None and name in vars(owner):
            setattr(owner, name, wrap(section, vars(owner)[name]))
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

    section = {side: {name: [r["sections_ms"].get(name, 0.0) for r in runs[side]] for name in NAMES}
               for side in sides}
    passes = {side: [r["pass_ms"] for r in runs[side]] for side in sides}
    result = {
        "suite": args.suite, "grid": args.grid, "pairs": args.pairs, "passes_per_interpreter": args.passes,
        "pass_ms": {
            **{side + "_quartiles": _quartiles(passes[side]) for side in sides},
            "second_better_pairs": sum(b < a for a, b in zip(passes["first"], passes["second"])),
        },
        "section_median_ms": {side: {name: round(statistics.median(section[side][name]), 3)
                                     for name in NAMES} for side in sides},
        "section_second_better_pairs": {
            name: sum(b < a for a, b in zip(section["first"][name], section["second"][name]))
            for name in NAMES},
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
