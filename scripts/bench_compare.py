#!/usr/bin/env python3
"""Time one pass of the benchmark's compare-table plan section by section,
for two checkouts, and print the comparison as JSON.

A pass runs `ellipbounds.cli.main` in process on every call of the plan of
`benchmark/workloads.py` for one seed (the two tables of compare-table: a
uniform and a log-near-one grid of ~5,000 rows each, `--families all` plus
one thm11 and one thm12 spec), writing into a temporary directory with
stdout discarded.  The pass totals time it as the CLI runs it: where the
checkout's `compare` forks a child for every other chunk of rows, the
totals include that.

The sections are timed on the one-process path (a wrapper cannot see into
the child; `_fork.cpus` pins the checkout to one usable CPU), with
exclusive time per section:
"columns" is `cli._columns` (the AGM, the bound kernels and the combiner
over a chunk of radii), "writes" is every `write` to the output file, and
"row formatting" is the rest of the command: the `%.17g` rows above all,
and the argument parse, grid and spec set-up.

FAN_OUT comes from passes with `_fork.fork` time-stamped: "fork" from the
entry of `fork` to the start of the caller's loop (the usability test, the
pipe and the fork); "child CPU" the CPU time, user and system, of the
children that formatted every other chunk; "reap" from the end of the
caller's loop to the return of `fork` (closing the pipe and `waitpid`).
Tables too short to fork add nothing to these.  The children's CPU time is
the work they do, where a wall-clock wait for their frames would also
measure how they were scheduled.

Both checkouts run as `_ab.py` sets out.  One interpreter runs one
unmeasured pass, then PASSES passes with no wrapper (the pass totals),
reads its own peak RSS and that of its largest child, then runs PASSES
time-stamped passes (FAN_OUT) and PASSES passes with the wrappers (the
sections).  The output gives each figure's median over the PAIRS pairs and
how many pairs the second checkout won, and the pass totals' quartiles.

With --points N every table of the plan has N rows instead, which shows
where the fork starts to pay against a checkout that never forks.

Usage: python3 scripts/bench_compare.py FIRST SECOND [--pairs 10] [--passes 5] [--seed 301]
       [--points N]
Standard library only; the plan is read from this checkout's `benchmark/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time

import _ab

NAMES = ["columns", "row formatting", "writes"]
FAN_OUT = ["fork", "child CPU", "reap"]


class _TimedFile:
    # the output file, with the time of every write added to spent["writes"]
    def __init__(self, fh, spent: dict[str, float]) -> None:
        self._fh, self._spent = fh, spent

    def write(self, text: str) -> int:
        t0 = time.perf_counter()
        try:
            return self._fh.write(text)
        finally:
            self._spent["writes"] += time.perf_counter() - t0

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.__exit__(*exc)


def _child(plan: list[list[str]], passes: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return _passes([[os.path.join(tmp, a) if a == "OUTPUT" else a for a in argv] for argv in plan], passes)


def _passes(argvs: list[list[str]], passes: int) -> dict:
    import ellipbounds.cli as cli
    import ellipbounds._fork as forking

    def one_pass() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                if cli.main(argv) != 0:
                    raise SystemExit(f"compare failed: {argv}")

    one_pass()
    totals = _ab.timed(passes, lambda: {"pass": _ab.seconds(one_pass)})
    peak = _ab.peak_rss()

    fork, fan = forking.fork, dict.fromkeys(FAN_OUT, 0.0)

    def stamped(frames, caller, *rest):
        # rest is (what,), or (alone, what) in a checkout whose fork still takes a fallback
        t = [time.perf_counter()]

        def timed_caller(recv):
            fan["fork"] += time.perf_counter() - t[0]
            try:
                return caller(recv)
            finally:
                t[0] = time.perf_counter()

        out = fork(frames, timed_caller, *rest)
        fan["reap"] += time.perf_counter() - t[0]
        return out

    def fanned() -> dict[str, float]:
        fan.update(dict.fromkeys(FAN_OUT, 0.0))
        cpu = _ab.children_cpu()
        one_pass()
        fan["child CPU"] = _ab.children_cpu() - cpu
        return fan

    forking.fork = stamped
    fan_out = _ab.timed(passes, fanned)
    forking.fork = fork

    forking.cpus = lambda: 1
    spent = dict.fromkeys(NAMES, 0.0)
    columns, opener = cli._columns, open

    def timed_columns(*args):
        t0 = time.perf_counter()
        try:
            return columns(*args)
        finally:
            spent["columns"] += time.perf_counter() - t0

    def sectioned() -> dict[str, float]:
        spent.update(dict.fromkeys(NAMES, 0.0))
        total = _ab.seconds(one_pass)
        spent["row formatting"] = total - spent["columns"] - spent["writes"]
        return spent

    cli._columns = timed_columns
    cli.open = lambda *args, **kwargs: _TimedFile(opener(*args, **kwargs), spent)
    return {"pass_ms": totals["pass"], "sections_ms": _ab.timed(passes, sectioned), "fan_out_ms": fan_out, **peak}


def _plan(seed: int, points: int | None) -> list[list[str]]:
    # the benchmark's compare-table calls for seed, with OUTPUT for the file name
    # and, given points, that many rows in every table
    workloads = _ab.benchmark("workloads")
    plan = [call.argv("OUTPUT") for call in workloads.compare_plan(seed, workloads.SIZES["full"])]
    for argv in plan if points else ():
        argv[argv.index("--points") + 1] = str(points)
    return plan


def main() -> int:
    ap = _ab.parser(__doc__)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--seed", type=int, default=301)
    ap.add_argument("--points", type=int)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(_child(json.loads(args.child), args.passes)))
        return 0

    plan = _plan(args.seed, args.points)
    runs = _ab.pairs(args, args.pairs, lambda src: _ab.child(src, __file__, json.dumps(plan),
                                                             "--passes", str(args.passes)))
    result = {"seed": args.seed, "rows": [int(argv[argv.index("--points") + 1]) for argv in plan],
              "pairs": args.pairs, "passes_per_interpreter": args.passes, **_ab.sections(runs, NAMES, FAN_OUT)}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
