#!/usr/bin/env python3
"""Time one `run_suite(SUITE, GRID)` pass section by section, for two
checkouts, and print the comparison as JSON.

A pass is split into the sections below by wrapping the `ellipbounds.verify`
functions and `verify._Table` methods that do each one.  A section's time is
exclusive: a nested section's time is its own, not its caller's.  "tables"
is the building of every table, grid or one-row, and its columns r, r', K
and E (one AGM run per radius); "cancelling columns" is the building of the
five cancelling columns of every table.  SECTIONS lists where they are
built: `_grid_table` and `_row` (the one-row tables), and `_Table`, whose
columns are built on first read, where the column read decides the section.
What no wrapped function covers (the lemma 2.5 margins, the case sample,
the suite loops) is "other".

The pass totals time `run_suite(SUITE, GRID)` as the CLI runs it, which
for several suites may fork one child for the sharpness and remarks suites.
A wrapper cannot see into that child, so the sections time the same call
on its one-process path, with `_fork.cpus` pinning the checkout to one
usable CPU.  For `all` there is also FAN_OUT, from passes with
`run_suite` and the lemma suite time-stamped, `lemma26_classify` timed and
the caller's reads of frames timed through `verify.fork`:
  before the fork    from the entry of `run_suite` to the start of the lemma
                     suite: the main table's r and r', the pipe and the fork
                     (and K and E where the caller builds them before it)
  classification     the lemma suite's sign classifications, which run while
                     the child builds K and E where the checkout splits so
  wait for K and E   the caller's reads of a frame during the lemma suite:
                     the wait for the child's K and E, or their build here
                     where no child starts (0 where the caller builds them
                     before the lemma suite)
  rest of the lemma suite  the lemma suite less the two above
  child CPU          the child's CPU time, user and system: K and E where it
                     builds them, the sharpness and remarks suites and
                     sending their results (0 where the checkout does not
                     fork)
The child's CPU time is the work it does, where a wall-clock wait for it
would also measure how it was scheduled.

Both checkouts run as `_ab.py` sets out.  One interpreter runs one
unmeasured pass, then PASSES passes with no wrapper (the pass totals),
PASSES time-stamped passes (FAN_OUT) and PASSES passes with the wrappers
(the sections), and reports its own peak RSS and that of its largest child.
The output gives each figure's median over the PAIRS pairs and how many
pairs the second checkout won, and the pass totals' quartiles.

Usage: python3 scripts/bench_verify.py FIRST SECOND [--pairs 10] [--passes 5] [--grid 10000]
                                     [--suite all|lemmas|sharpness|remarks]
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import _ab

NAMES = ["tables", "cancelling columns", "sweeps", "classification", "validity", "falsifiers",
         "remarks", "other"]
FAN_OUT = ["before the fork", "classification", "wait for K and E", "rest of the lemma suite", "child CPU"]


def _column(table, name: str) -> str:
    # the section of a column built on first read
    return "tables" if name in ("r", "rc", "k", "e") else "cancelling columns"


# (section or a function of the call's arguments that names it, a verify
# function or "_Table.method" whose exclusive time counts towards it)
SECTIONS = [
    ("tables", "_grid_table"),
    ("tables", "_row"),
    ("tables", "_Table.__init__"),
    (_column, "_Table.__getattr__"),
    ("sweeps", "sweep_monotone"),
    ("classification", "lemma26_classify"),
    ("validity", "run_sharpness_suite"),
    ("falsifiers", "search_violation"),
    ("remarks", "run_remarks_suite"),
]


def _child(suite: str, grid: int, passes: int) -> dict:
    from ellipbounds import _fork, verify

    def one_pass() -> None:
        verify.run_suite(suite, grid)

    one_pass()
    totals = _ab.timed(passes, lambda: {"pass": _ab.seconds(one_pass)})

    fan_out: dict[str, float] = {}
    if suite == "all":
        stamps: dict[str, float] = {}
        # (start, duration) of each lemma26_classify call and of each read of a frame in the caller
        classified: list[tuple[float, float]] = []
        reads: list[tuple[float, float]] = []

        def stamped(name, fn):
            def timed(*args):
                stamps[name] = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    stamps[name + " end"] = time.perf_counter()
            return timed

        def logged(log, fn):
            def timed(*args):
                t0 = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    log.append((t0, time.perf_counter() - t0))
            return timed

        def fork(frames, caller, *rest):
            # rest is (what,), or (alone, what) in a checkout whose fork still takes a fallback
            return originals[2](frames, lambda recv: caller(logged(reads, recv)), *rest)

        def within_lemmas(log) -> float:
            return sum(dt for t0, dt in log if stamps["lemmas"] <= t0 <= stamps["lemmas end"])

        def fanned() -> dict[str, float]:
            classified.clear()
            reads.clear()
            cpu = _ab.children_cpu()
            one_pass()
            lemmas, sorting, waiting = (stamps["lemmas end"] - stamps["lemmas"], within_lemmas(classified),
                                        within_lemmas(reads))
            return dict(zip(FAN_OUT, (stamps["lemmas"] - stamps["fan"], sorting, waiting,
                                      lemmas - sorting - waiting, _ab.children_cpu() - cpu)))

        names = ("run_suite", "run_lemma_suite", "fork", "lemma26_classify")
        originals = [getattr(verify, name) for name in names]
        wrapped = [stamped("fan", originals[0]), stamped("lemmas", originals[1]), fork,
                   logged(classified, originals[3])]
        for name, fn in zip(names, wrapped):
            setattr(verify, name, fn)
        fan_out = _ab.timed(passes, fanned)
        for name, fn in zip(names, originals):
            setattr(verify, name, fn)

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

    _fork.cpus = lambda: 1
    for section, path in SECTIONS:
        owner, _, name = path.rpartition(".")
        owner = getattr(verify, owner) if owner else verify
        setattr(owner, name, wrap(section, vars(owner)[name]))

    def sectioned() -> dict[str, float]:
        spent.clear()
        total = _ab.seconds(one_pass)
        spent["other"] = spent.get("other", 0.0) + total
        return spent

    return {"pass_ms": totals["pass"], "sections_ms": _ab.timed(passes, sectioned), "fan_out_ms": fan_out,
            **_ab.peak_rss()}


def main() -> int:
    ap = _ab.parser(__doc__)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--grid", type=int, default=10_000)
    ap.add_argument("--suite", choices=("all", "lemmas", "sharpness", "remarks"), default="all")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(_child(args.suite, args.grid, args.passes)))
        return 0

    runs = _ab.pairs(args, args.pairs, lambda src: _ab.child(src, __file__, "--suite", args.suite, "--grid",
                                                             str(args.grid), "--passes", str(args.passes)))
    result = {"suite": args.suite, "grid": args.grid, "pairs": args.pairs, "passes_per_interpreter": args.passes,
              **_ab.sections(runs, NAMES, FAN_OUT)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
