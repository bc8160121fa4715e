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
the child; a checkout with `ellipbounds._fork` is pinned to one usable CPU
through `_fork.cpus`), with exclusive time per section:
"columns" is `cli._columns` (the AGM, the bound kernels and the combiner
over a chunk of radii), "writes" is every `write` to the output file, and
"row formatting" is the rest of the command: the `%.17g` rows above all,
and the argument parse, grid and spec set-up.

A checkout with `ellipbounds._fork` also gets FAN_OUT, from passes with
`_fork.fork` time-stamped: "fork" from the entry of `fork` to the start of
the caller's loop (the usability test, the pipe and the fork); "waits for
frames" the time the caller spends in `recv`, blocked on the child's next
chunk and reading it; "reap" from the end of the caller's loop to the return
of `fork` (closing the pipe and `waitpid`).  Tables too short to fork add
nothing to these.

Each checkout runs in its own interpreters, with its `src/` on PYTHONPATH
and no bytecode written, so both sides are in the same bytecode-cache state.
One interpreter runs one unmeasured pass, then PASSES passes with no wrapper
(the pass totals), reads its own peak RSS and that of its largest child,
then runs PASSES time-stamped passes (FAN_OUT) and PASSES passes with the
wrappers (the sections).  Every pass is bracketed by the benchmark's
reference loop and scaled by it, as `benchmark/worker.py` scales a pass.
The two checkouts alternate, the first checkout first on even pair indices,
for PAIRS pairs; the output gives each figure's median over the pairs and
how many pairs the second checkout won.

With --points N every table of the plan has N rows instead, which shows
where the fork starts to pay against a checkout that never forks.

Usage: python3 scripts/bench_compare.py FIRST SECOND [--pairs 10] [--passes 5] [--seed 301]
       [--points N]
Standard library only; the plan and the reference loop are read from this
checkout's `benchmark/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_verify import _quartiles

HERE = Path(__file__).resolve().parent.parent

NAMES = ["columns", "row formatting", "writes"]
FAN_OUT = ["fork", "waits for frames", "reap"]


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
    tmp = tempfile.mkdtemp()
    try:
        return _passes([[os.path.join(tmp, a) if a == "OUTPUT" else a for a in argv] for argv in plan], passes)
    finally:
        shutil.rmtree(tmp)


def _passes(argvs: list[list[str]], passes: int) -> dict:
    sys.path.insert(0, str(HERE / "benchmark"))
    import reference
    import ellipbounds.cli as cli
    try:
        import ellipbounds._fork as forking
    except ImportError:
        forking = None

    def one_pass() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                if cli.main(argv) != 0:
                    raise SystemExit(f"compare failed: {argv}")

    def scaled(run) -> float:
        # the ms of run() scaled by the reference loops on both sides of it
        ref0 = reference.loop_seconds()
        t0 = time.perf_counter()
        run()
        t1 = time.perf_counter()
        return (t1 - t0) * 1e3 * reference.scale(ref0, reference.loop_seconds())

    one_pass()
    totals = [scaled(one_pass) for _ in range(passes)]
    peak = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}

    fan_out: dict[str, list[float]] = {}
    if forking is not None:
        fork = forking.fork
        spent = dict.fromkeys(FAN_OUT, 0.0)

        def stamped(child, caller, alone, what):
            t = [time.perf_counter()]

            def timed_recv(recv):
                def inner():
                    t0 = time.perf_counter()
                    try:
                        return recv()
                    finally:
                        spent["waits for frames"] += time.perf_counter() - t0
                return inner

            def timed_caller(recv):
                spent["fork"] += time.perf_counter() - t[0]
                try:
                    return caller(timed_recv(recv))
                finally:
                    t[0] = time.perf_counter()

            out = fork(child, timed_caller, alone, what)
            spent["reap"] += time.perf_counter() - t[0]
            return out

        forking.fork = stamped
        for _ in range(passes):
            spent.update(dict.fromkeys(FAN_OUT, 0.0))
            ref0 = reference.loop_seconds()
            one_pass()
            factor = reference.scale(ref0, reference.loop_seconds())
            for name in FAN_OUT:
                fan_out.setdefault(name, []).append(spent[name] * 1e3 * factor)
        forking.fork = fork

    if forking is not None:
        forking.cpus = lambda: 1
    spent = dict.fromkeys(NAMES, 0.0)
    columns, opener = cli._columns, open

    def timed_columns(*args):
        t0 = time.perf_counter()
        try:
            return columns(*args)
        finally:
            spent["columns"] += time.perf_counter() - t0

    cli._columns = timed_columns
    cli.open = lambda *args, **kwargs: _TimedFile(opener(*args, **kwargs), spent)
    sections: dict[str, list[float]] = {}
    for _ in range(passes):
        spent.update(dict.fromkeys(NAMES, 0.0))
        ref0 = reference.loop_seconds()
        t0 = time.perf_counter()
        one_pass()
        spent["row formatting"] = time.perf_counter() - t0 - spent["columns"] - spent["writes"]
        factor = reference.scale(ref0, reference.loop_seconds())
        for name in NAMES:
            sections.setdefault(name, []).append(spent[name] * 1e3 * factor)
    return {"pass_ms": statistics.median(totals),
            "sections_ms": {k: statistics.median(v) for k, v in sections.items()},
            "fan_out_ms": {k: statistics.median(v) for k, v in fan_out.items()},
            **peak}


def _plan(seed: int, points: int | None) -> list[list[str]]:
    # the benchmark's compare-table calls for seed, with OUTPUT for the file name
    # and, given points, that many rows in every table
    sys.path.insert(0, str(HERE / "benchmark"))
    import workloads
    plan = [call.argv("OUTPUT") for call in workloads.compare_plan(seed, workloads.SIZES["full"])]
    for argv in plan if points else ():
        argv[argv.index("--points") + 1] = str(points)
    return plan


def _run(root: Path, plan: list[list[str]], passes: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(plan),
            "--passes", str(passes), str(root), str(root)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=Path)
    ap.add_argument("second", type=Path)
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
    sides = ("first", "second")
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            runs[side].append(_run(getattr(args, side).resolve(), plan, args.passes))

    section = {side: {name: [r["sections_ms"][name] for r in runs[side]] for name in NAMES} for side in sides}
    passes = {side: [r["pass_ms"] for r in runs[side]] for side in sides}
    result = {
        "seed": args.seed, "rows": [int(argv[argv.index("--points") + 1]) for argv in plan],
        "pairs": args.pairs, "passes_per_interpreter": args.passes,
        "pass_ms": {
            **{side + "_quartiles": _quartiles(passes[side]) for side in sides},
            "second_better_pairs": sum(b < a for a, b in zip(passes["first"], passes["second"])),
        },
        "section_median_ms": {side: {name: round(statistics.median(section[side][name]), 3)
                                     for name in NAMES} for side in sides},
        "section_second_better_pairs": {
            name: sum(b < a for a, b in zip(section["first"][name], section["second"][name]))
            for name in NAMES},
        # the fan-out passes, where the checkout has them: medians over the pairs, ms
        "fan_out_median_ms": {side: {name: round(statistics.median(r["fan_out_ms"][name] for r in runs[side]), 3)
                                     for name in FAN_OUT} for side in sides if runs[side][0]["fan_out_ms"]},
        # this interpreter's peak RSS and that of its largest child (a fan-out child), MB,
        # read after the pass totals
        "peak_rss_mb": {side: {key: round(statistics.median(r[key] for r in runs[side]), 2)
                               for key in ("peak_rss_mb", "children_peak_rss_mb")} for side in sides},
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
