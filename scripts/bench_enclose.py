#!/usr/bin/env python3
"""Time the layers of one enclosure call, for two checkouts, and print the
comparison as JSON.

The cases are the steps a point-queries enclosure call makes: sorting the
13 default candidates into lower and upper (`bounds._split`), building a
spec, parsing a plain family name, an alias and a parametric text, and
`best_enclosure` itself on the 13 defaults (with the `default_candidates()`
copy the call makes) and on two specs parsed beforehand, and building the
value records an enclosure or an evaluation returns (`Enclosure`,
`EllipticValues`) or checks its arguments with (`MeanPair`).  `complete_e`
is the control: the change under test should leave it where it is.

Each case is timed as CALLS calls in a loop, and each such block is
bracketed by the benchmark's reference loop and scaled by it, as
`benchmark/worker.py` scales its operations, so a figure reads as the
microseconds per call at the reference speed.  One interpreter times every
case ROUNDS times, the cases interleaved, and reports each case's median.
Each checkout runs in its own interpreters, with its `src/` on PYTHONPATH
and no bytecode written.  The two checkouts alternate, the first checkout
first on even pair indices, for PAIRS pairs; the output gives each case's
median and quartiles over the pairs and how many pairs the second checkout
won.

Usage: python3 scripts/bench_enclose.py FIRST SECOND [--pairs 10] [--rounds 5] [--calls 10000]
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
R = 0.5


def _cases() -> dict:
    from ellipbounds import bounds, core

    defaults = bounds.default_candidates()
    parsed = [bounds.parse_bound_spec("thm12:t=0.51,p=1.3"), bounds.parse_bound_spec("alzer-qiu")]
    values = tuple(spec.evaluate(R) for spec in defaults)
    return {
        "_split(default_candidates())": lambda: bounds._split(defaults),
        "BoundSpec(Family.THM12, t=0.9, p=1.5)": lambda: bounds.BoundSpec(bounds.Family.THM12, t=0.9, p=1.5),
        "parse plain name 'vuorinen'": lambda: bounds.parse_bound_spec("vuorinen"),
        "parse alias 'thm11-lower'": lambda: bounds.parse_bound_spec("thm11-lower"),
        "parse 'thm12:t=0.51,p=1.3'": lambda: bounds.parse_bound_spec("thm12:t=0.51,p=1.3"),
        "best_enclosure(r, default_candidates())":
            lambda: bounds.best_enclosure(R, bounds.default_candidates()),
        "best_enclosure on two parsed specs": lambda: bounds.best_enclosure(R, parsed),
        "Enclosure(lo, hi, lo_source, hi_source, values)":
            lambda: bounds.Enclosure(1.25, 1.5, *parsed, values),
        "EllipticValues(k, e)": lambda: core.EllipticValues(1.6857503548125961, 1.4674622093394272),
        "MeanPair(a, b)": lambda: core.MeanPair(1.0, 2.0),
        "complete_e (control)": lambda: core.complete_e(R),
    }


def _child(rounds: int, calls: int) -> dict:
    sys.path.insert(0, str(HERE / "benchmark"))
    import reference

    cases = _cases()
    for fn in cases.values():  # one unmeasured call each
        fn()
    times: dict[str, list[float]] = {name: [] for name in cases}
    ref0 = reference.loop_seconds()
    for _ in range(rounds):
        for name, fn in cases.items():
            loop = range(calls)
            t0 = time.perf_counter()
            for _ in loop:
                fn()
            dt = time.perf_counter() - t0
            ref1 = reference.loop_seconds()
            times[name].append(dt / calls * 1e6 * reference.scale(ref0, ref1))
            ref0 = ref1
    return {name: statistics.median(v) for name, v in times.items()}


def _run(root: Path, rounds: int, calls: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--rounds", str(rounds),
            "--calls", str(calls), str(root), str(root)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _quartiles(xs: list[float]) -> list[float]:
    return [round(q, 3) for q in statistics.quantiles(xs, n=4, method="inclusive")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=Path)
    ap.add_argument("second", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--calls", type=int, default=10_000)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(_child(args.rounds, args.calls)))
        return 0

    sides = ("first", "second")
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            runs[side].append(_run(getattr(args, side).resolve(), args.rounds, args.calls))

    result = {"r": R, "pairs": args.pairs, "rounds_per_interpreter": args.rounds,
              "calls_per_block": args.calls, "us_per_call": {}}
    for name in runs["first"][0]:
        per = {side: [run[name] for run in runs[side]] for side in sides}
        result["us_per_call"][name] = {
            **{side + "_median": round(statistics.median(per[side]), 3) for side in sides},
            **{side + "_quartiles": _quartiles(per[side]) for side in sides},
            "second_better_pairs": sum(b < a for a, b in zip(per["first"], per["second"])),
        }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
