#!/usr/bin/env python3
"""Time the layers of the point calls, enclosures and evaluations, for two
checkouts, and print the comparison as JSON.

The cases are the steps of the point-queries calls: sorting the 13
default candidates into lower and upper (`bounds._split`), building a thm12
and a thm11 spec, parsing a plain family name, two aliases and two
parametric texts, and `best_enclosure` itself on the 13 defaults (with the
`default_candidates()` copy the call makes) and on two specs parsed
beforehand, building the value records an enclosure or an evaluation
returns (`Enclosure`, `EllipticValues`) or checks its arguments with
(`MeanPair`), the five scalar calls `complete_e`, `complete_k`,
`elliptic_ke`, `ellipse_perimeter` and `toader_mean`, and the fixed-constant
wrappers `vuorinen_lower` and `corollary31`.  `best_enclosure` on an equal,
rebuilt copy of the 13 defaults is the control: it takes the general path
(the fused plan is for the default specs themselves), and the change under
test should leave it where it is.

Both checkouts run as `_ab.py` sets out.  Each case is timed as CALLS
calls in a loop, one scaled block, so a figure reads as the microseconds per
call at the reference speed.  One interpreter times every case ROUNDS
times, the cases interleaved, and reports each case's median; the output
gives each case's median and quartiles over the PAIRS pairs and how many
pairs the second checkout won.

Usage: python3 scripts/bench_enclose.py FIRST SECOND [--pairs 10] [--rounds 5] [--calls 10000]
Standard library only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import _ab

R = 0.5


def _cases() -> dict:
    from ellipbounds import bounds, core

    defaults = bounds.default_candidates()
    parsed = [bounds.parse_bound_spec("thm12:t=0.51,p=1.3"), bounds.parse_bound_spec("alzer-qiu")]
    values = tuple(spec.evaluate(R) for spec in defaults)
    rebuilt = [bounds.BoundSpec(spec.family, q=spec.q, t=spec.t, p=spec.p) for spec in defaults]
    return {
        "_split(default_candidates())": lambda: bounds._split(defaults),
        "BoundSpec(Family.THM12, t=0.9, p=1.5)": lambda: bounds.BoundSpec(bounds.Family.THM12, t=0.9, p=1.5),
        "BoundSpec(Family.THM11, q=0.05)": lambda: bounds.BoundSpec(bounds.Family.THM11, q=0.05),
        "parse plain name 'vuorinen'": lambda: bounds.parse_bound_spec("vuorinen"),
        "parse alias 'thm11-lower'": lambda: bounds.parse_bound_spec("thm11-lower"),
        "parse alias 'thm11-upper'": lambda: bounds.parse_bound_spec("thm11-upper"),
        "parse 'thm11:q=0.05'": lambda: bounds.parse_bound_spec("thm11:q=0.05"),
        "parse 'thm12:t=0.51,p=1.3'": lambda: bounds.parse_bound_spec("thm12:t=0.51,p=1.3"),
        "best_enclosure(r, default_candidates())":
            lambda: bounds.best_enclosure(R, bounds.default_candidates()),
        "best_enclosure on two parsed specs": lambda: bounds.best_enclosure(R, parsed),
        "best_enclosure on rebuilt defaults (control)": lambda: bounds.best_enclosure(R, rebuilt),
        "Enclosure(lo, hi, lo_source, hi_source, values)":
            lambda: bounds.Enclosure(1.25, 1.5, *parsed, values),
        "EllipticValues(k, e)": lambda: core.EllipticValues(1.6857503548125961, 1.4674622093394272),
        "MeanPair(a, b)": lambda: core.MeanPair(1.0, 2.0),
        "complete_e(r)": lambda: core.complete_e(R),
        "complete_k(r)": lambda: core.complete_k(R),
        "elliptic_ke(r)": lambda: core.elliptic_ke(R),
        "ellipse_perimeter(r)": lambda: core.ellipse_perimeter(R),
        "toader_mean(1, 2)": lambda: core.toader_mean(1.0, 2.0),
        "vuorinen_lower(r)": lambda: bounds.vuorinen_lower(R),
        "corollary31(r)": lambda: bounds.corollary31(R),
    }


def _child(rounds: int, calls: int) -> dict:
    cases = _cases()
    for fn in cases.values():  # one unmeasured call each
        fn()
    blocks = itertools.cycle(cases.items())

    def block() -> dict[str, float]:
        name, fn = next(blocks)
        loop = range(calls)
        t0 = time.perf_counter()
        for _ in loop:
            fn()
        return {name: (time.perf_counter() - t0) / calls}

    return _ab.timed(rounds * len(cases), block, unit=1e6)


def main() -> int:
    ap = _ab.parser(__doc__)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--calls", type=int, default=10_000)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(_child(args.rounds, args.calls)))
        return 0

    runs = _ab.pairs(args, args.pairs, lambda src: _ab.child(src, __file__, "--rounds", str(args.rounds),
                                                             "--calls", str(args.calls)))
    result = {"r": R, "pairs": args.pairs, "rounds_per_interpreter": args.rounds, "calls_per_block": args.calls,
              "us_per_call": {name: _ab.summary({side: [run[name] for run in runs[side]] for side in _ab.SIDES})
                              for name in runs["first"][0]}}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
