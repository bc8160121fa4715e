#!/usr/bin/env python3
"""Time `import ellipbounds.cli` with `-X importtime` for two checkouts, and
print the comparison as JSON.

Both checkouts run as `_ab.py` sets out, each interpreter importing the
module once: with `--cache none` (the default) every interpreter compiles
the package; with `--cache warm` both copies are byte-compiled first.

For each module in MODULES the output gives the median cumulative import
time over the interpreters (0 where a module was not imported), and how many
interpreters imported it; for each side the modules with the largest median
self time; and for the whole import the median, the quartiles and how many
pairs the second checkout won.

Usage: python3 scripts/bench_import.py FIRST SECOND [--interpreters 30] [--cache none|warm]
Standard library only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import _ab

TARGET = "ellipbounds.cli"
MODULES = ["ellipbounds.cli", "ellipbounds", "ellipbounds.core", "ellipbounds.bounds", "ellipbounds.errors",
           "ellipbounds.verify", "dataclasses", "inspect", "ast", "dis", "tokenize", "enum", "argparse",
           "csv", "fractions"]
TOP_SELF = 15


def _import_once(src: Path) -> dict[str, tuple[float, float]]:
    # {module: (self ms, cumulative ms)} from one fresh interpreter's -X importtime report
    report = _ab.interpreter(src, "-X", "importtime", "-c", f"import {TARGET}").stderr
    times = {}
    for line in report.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        times[name.strip()] = (int(self_us) / 1000.0, int(cum_us) / 1000.0)
    if TARGET not in times:
        raise RuntimeError(f"{TARGET} missing from the import report of {src}:\n{report}")
    return times


def _summary(runs: list[dict[str, tuple[float, float]]]) -> dict:
    selfs = {name: statistics.median(run.get(name, (0.0, 0.0))[0] for run in runs)
             for name in set().union(*runs)}
    return {
        "cumulative_ms": {name: round(statistics.median(run.get(name, (0.0, 0.0))[1] for run in runs), 3)
                          for name in MODULES},
        "loaded_in_n_interpreters": {name: sum(name in run for run in runs) for name in MODULES},
        "top_self_ms": {name: round(ms, 3)
                        for name, ms in sorted(selfs.items(), key=lambda kv: -kv[1])[:TOP_SELF]},
    }


def main() -> int:
    ap = _ab.parser(__doc__)
    ap.add_argument("--interpreters", type=int, default=30, help="interpreters per checkout")
    ap.add_argument("--cache", choices=("none", "warm"), default="none")
    args = ap.parse_args()

    runs = _ab.pairs(args, args.interpreters, _import_once, warm=args.cache == "warm")
    result = {
        "command": f"python -X importtime -c 'import {TARGET}' with PYTHONPATH=<copy of the checkout's src>",
        "cache": args.cache,
        "interpreters_per_side": args.interpreters,
        "statistic": "median over interpreters, ms",
        "import_ms": _ab.summary({side: [run[TARGET][1] for run in runs[side]] for side in _ab.SIDES}),
        **{side: _summary(runs[side]) for side in _ab.SIDES},
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
