#!/usr/bin/env python3
"""Time `import ellipbounds.cli` with `-X importtime` for two checkouts, and
print the comparison as JSON.

Each interpreter is fresh and imports the module once; the two checkouts
alternate, the first checkout first on even indices.  Both run from copies
of their `src/` made for this run, so that they are in the same
bytecode-cache state whatever their own trees hold: with `--cache none`
(the default) the copies have no `__pycache__` and no bytecode is written,
so every interpreter compiles the package, as a fresh checkout under
PYTHONDONTWRITEBYTECODE=1 does; with `--cache warm` both copies are
byte-compiled first.  The standard library is imported as installed.

For each module in MODULES the output gives the median cumulative import
time over the interpreters (0 where a module was not imported), and how many
interpreters imported it; for each side the modules with the largest median
self time; and for the whole import the median, the quartiles and how many
pairs the second checkout won.

Usage: python3 scripts/bench_import.py FIRST SECOND [--interpreters 30] [--cache none|warm]
Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TARGET = "ellipbounds.cli"
MODULES = ["ellipbounds.cli", "ellipbounds", "ellipbounds.core", "ellipbounds.bounds", "ellipbounds.errors",
           "ellipbounds.verify", "dataclasses", "inspect", "ast", "dis", "tokenize", "enum", "argparse",
           "csv", "fractions"]
TOP_SELF = 15


def _import_once(src: Path) -> dict[str, tuple[float, float]]:
    # {module: (self ms, cumulative ms)} from one fresh interpreter's -X importtime report
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {TARGET}"],
                          env=env, capture_output=True, text=True, check=True)
    times = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        times[name.strip()] = (int(self_us) / 1000.0, int(cum_us) / 1000.0)
    if TARGET not in times:
        raise RuntimeError(f"{TARGET} missing from the import report of {src}:\n{proc.stderr}")
    return times


def _copy_src(root: Path, dest: Path, warm: bool) -> Path:
    src = dest / "src"
    shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if warm:
        compileall.compile_dir(src, quiet=1)
    return src


def _quartiles(xs: list[float]) -> list[float]:
    return [round(q, 3) for q in statistics.quantiles(xs, n=4, method="inclusive")]


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
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=Path)
    ap.add_argument("second", type=Path)
    ap.add_argument("--interpreters", type=int, default=30, help="interpreters per checkout")
    ap.add_argument("--cache", choices=("none", "warm"), default="none")
    args = ap.parse_args()

    sides = ("first", "second")
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {side: _copy_src(getattr(args, side).resolve(), Path(tmp) / side, args.cache == "warm")
                for side in sides}
        for i in range(args.interpreters):
            for side in (sides if i % 2 == 0 else sides[::-1]):
                runs[side].append(_import_once(srcs[side]))

    totals = {side: [run[TARGET][1] for run in runs[side]] for side in sides}
    result = {
        "command": f"python -X importtime -c 'import {TARGET}' with PYTHONPATH=<copy of the checkout's src>",
        "cache": args.cache,
        "interpreters_per_side": args.interpreters,
        "statistic": "median over interpreters, ms",
        "import_ms": {
            **{side + "_median": round(statistics.median(totals[side]), 3) for side in sides},
            **{side + "_quartiles": _quartiles(totals[side]) for side in sides},
            "second_better_pairs": sum(b < a for a, b in zip(totals["first"], totals["second"])),
        },
        **{side: _summary(runs[side]) for side in sides},
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
