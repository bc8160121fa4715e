"""The A/B driver that the bench harnesses in this directory share.

A harness times two checkouts, FIRST and SECOND, and prints the comparison
as JSON.  Each side runs from a copy of its checkout's `src/` made for the
run without any `__pycache__`, in fresh interpreters with that copy on
PYTHONPATH and no bytecode written, so both sides compile the package as a
fresh checkout does under PYTHONDONTWRITEBYTECODE=1, whatever their own
trees hold (`bench_import.py --cache warm` byte-compiles both copies first
instead).  The standard library is imported as installed.  The sides
alternate, the first side first on even indices.  In an interpreter, every
timed block is bracketed by the reference loop of this checkout's
`benchmark/reference.py` and scaled by it, as `benchmark/worker.py` scales
its operations, so a figure reads as a time at the reference speed;
consecutive blocks share the loop between them.  A figure is summarised per
side as its median and quartiles over the interpreters, with how many pairs
the second side won (took less time).

Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
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
from typing import Callable

SIDES = ("first", "second")


def parser(doc: str) -> argparse.ArgumentParser:
    """A harness's parser: the first paragraph of doc as its description, and the two checkouts."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    for side in SIDES:
        ap.add_argument(side, type=Path)
    return ap


def benchmark(name: str):
    """The module name of this checkout's `benchmark/`."""
    where = str(Path(__file__).resolve().parent.parent / "benchmark")
    if where not in sys.path:
        sys.path.append(where)
    return __import__(name)


def alternate(srcs: dict, n: int, run: Callable) -> dict[str, list]:
    """{side: [run(srcs[side]) n times]}, the sides alternating, the first side first on even indices."""
    runs: dict[str, list] = {side: [] for side in srcs}
    for i in range(n):
        for side in (srcs if i % 2 == 0 else reversed(srcs)):
            runs[side].append(run(srcs[side]))
    return runs


def pairs(args: argparse.Namespace, n: int, run: Callable[[Path], object], warm: bool = False) -> dict[str, list]:
    """alternate over copies of the `src/` of args.first and args.second, made for the call without
    `__pycache__` (byte-compiled first if warm) and removed when it returns."""
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {side: Path(tmp) / side / "src" for side in SIDES}
        for side in SIDES:
            shutil.copytree(getattr(args, side) / "src", srcs[side], ignore=shutil.ignore_patterns("__pycache__"))
            if warm:
                compileall.compile_dir(srcs[side], quiet=1)
        return alternate(srcs, n, run)


def interpreter(src: Path, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with args, src on PYTHONPATH and no bytecode written; raises if it fails."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def child(src: Path, script: str, *args: str) -> dict:
    """The JSON that `script --child ARGS` prints in a fresh interpreter on src."""
    return json.loads(interpreter(src, script, "--child", *args, str(src), str(src)).stdout)


def seconds(fn: Callable[[], object]) -> float:
    """The wall time of fn()."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def timed(n: int, run: Callable[[], dict[str, float]], unit: float = 1e3) -> dict[str, float]:
    """The median over n calls of each figure that run() returns in seconds, times unit (ms
    by default) and scaled by the reference loops on both sides of its call."""
    reference = benchmark("reference")
    figures: dict[str, list[float]] = {}
    before = reference.loop_seconds()
    for _ in range(n):
        got = run()
        after = reference.loop_seconds()
        for name, s in got.items():
            figures.setdefault(name, []).append(s * unit * reference.scale(before, after))
        before = after
    return {name: statistics.median(v) for name, v in figures.items()}


def children_cpu() -> float:
    """The CPU time, user and system, of every child of this interpreter reaped so far, s."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss() -> dict[str, float]:
    """This interpreter's peak RSS and that of its largest child, MB."""
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def won(per: dict[str, list[float]]) -> int:
    """How many pairs the second side took less than the first."""
    return sum(b < a for a, b in zip(per["first"], per["second"]))


def quartiles(xs: list[float]) -> list[float]:
    # one point's quartiles are the point itself
    return [round(q, 3) for q in statistics.quantiles(xs if len(xs) > 1 else xs * 2, n=4, method="inclusive")]


def summary(per: dict[str, list[float]]) -> dict:
    """A figure's median and quartiles per side, and the pairs the second side won."""
    return {**{side + "_median": round(statistics.median(per[side]), 3) for side in SIDES},
            **{side + "_quartiles": quartiles(per[side]) for side in SIDES},
            "second_better_pairs": won(per)}


def sections(runs: dict[str, list[dict]], names: list[str], fan_out: list[str]) -> dict:
    """The comparison of interpreters that report pass_ms, sections_ms, fan_out_ms and peak_rss()."""
    section = {side: {name: [r["sections_ms"].get(name, 0.0) for r in runs[side]] for name in names}
               for side in SIDES}
    return {
        "pass_ms": summary({side: [r["pass_ms"] for r in runs[side]] for side in SIDES}),
        "section_median_ms": {side: {name: round(statistics.median(section[side][name]), 3)
                                     for name in names} for side in SIDES},
        "section_second_better_pairs": {name: won({side: section[side][name] for side in SIDES})
                                        for name in names},
        # the fan-out passes, where the checkout has them: medians over the pairs, ms
        "fan_out_median_ms": {side: {name: round(statistics.median(r["fan_out_ms"][name] for r in runs[side]), 3)
                                     for name in fan_out} for side in SIDES if runs[side][0]["fan_out_ms"]},
        # the interpreter's peak RSS and that of its largest child (a fan-out child), MB
        "peak_rss_mb": {side: {key: round(statistics.median(r[key] for r in runs[side]), 2)
                               for key in ("peak_rss_mb", "children_peak_rss_mb")} for side in SIDES},
    }
