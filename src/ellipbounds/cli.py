"""Command-line surface: evaluation, enclosure, verification suites,
comparison tables, and crossover search.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 internal numerical error, 4 I/O error.  All commands are deterministic;
identical invocations produce identical bytes on stdout and in files.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from enum import Enum

from . import verify
from .bounds import BoundSpec, _columns, _split, best_enclosure, default_candidates, parse_bound_spec
from .core import _float, _radius, _record, _size, complete_e, complete_k, ellipse_perimeter, toader_mean
from .errors import (
    SUITE_NAMES,
    ConfigurationError,
    DivergenceError,
    DomainError,
    EllipBoundsError,
    InvalidBoundError,
    VerificationError,
)

__all__ = ["main", "entry", "GridSpec", "Spacing"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_IO = 4

_DEFAULT_GRID = 10_000
# compare rows per block of columns: bounds the table's memory at any grid size
_CHUNK = 256
# compare rows from which one forked child formats every other chunk: below three
# chunks the fork, the child's exit and the waits cost about what the child saves
_FORK_LEAST = 3 * _CHUNK
_GRID_ENV = "ELLIP_GRID_POINTS"


class Spacing(Enum):
    UNIFORM = "uniform"
    LOG_NEAR_ONE = "log-near-one"


@_record
class GridSpec:
    """Evaluation grid on [start, end]; log-near-one places the points
    geometrically in 1 - r between 1 - start and 1 - end."""

    start: float
    end: float
    points: int
    spacing: Spacing = Spacing.UNIFORM

    def __post_init__(self) -> None:
        start, end = _float(self.start), _float(self.end)
        if not (0.0 <= start < end <= 1.0):
            raise DomainError(f"need 0 <= start < end <= 1, got [{self.start!r}, {self.end!r}]")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "points", _size(self.points))
        if self.spacing is Spacing.LOG_NEAR_ONE and self.end >= 1.0:
            raise DomainError("log-near-one spacing needs end < 1")
        # 1 - start rounds to 1 there, and the first point would be r = 0
        if self.spacing is Spacing.LOG_NEAR_ONE and 0.0 < start and 1.0 - start == 1.0:
            raise DomainError(f"log-near-one spacing needs start > 2**-54, got {self.start!r}")

    def values(self) -> list[float]:
        n = self.points
        if self.spacing is Spacing.UNIFORM:
            step = (self.end - self.start) / (n - 1)
            return [self.start + i * step for i in range(n)]
        g0, g1 = 1.0 - self.start, 1.0 - self.end
        ratio = math.log(g1 / g0) / (n - 1)
        return [1.0 - g0 * math.exp(i * ratio) for i in range(n)]


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _grid_points_from_env() -> int:
    raw = os.environ.get(_GRID_ENV)
    if raw is None:
        return _DEFAULT_GRID
    try:
        n = int(raw)
    except ValueError:
        raise ConfigurationError(f"{_GRID_ENV} must be a positive integer, got {raw!r}") from None
    if n <= 0:
        raise ConfigurationError(f"{_GRID_ENV} must be a positive integer, got {raw!r}")
    return n


def _parse_families(items: list[str]) -> list[BoundSpec]:
    specs: list[BoundSpec] = []
    for item in items:
        if item.strip().lower() == "all":
            specs.extend(default_candidates())
        else:
            specs.append(parse_bound_spec(item))
    return specs


# --------------------------------------------------------------------------
# Subcommands.

def _cmd_eval(args: argparse.Namespace) -> int:
    if args.what == "toader":
        if args.a is None or args.b is None:
            raise ConfigurationError("--what toader needs --a and --b")
        value = toader_mean(args.a, args.b)
    else:
        if args.r is None:
            raise ConfigurationError(f"--what {args.what} needs --r")
        value = {"K": complete_k, "E": complete_e, "perimeter": ellipse_perimeter}[args.what](args.r)
    print(f"{value:.15f}")
    return EXIT_OK


def _cmd_enclose(args: argparse.Namespace) -> int:
    specs = _parse_families(args.families)
    enc = best_enclosure(args.r, specs)
    e_ref = complete_e(args.r)
    position = (e_ref - enc.lo) / enc.width if enc.width > 0.0 else math.nan
    print(f"r         {args.r:.17g}")
    print(f"lo        {enc.lo:.17g}  source={enc.lo_source.label}")
    print(f"hi        {enc.hi:.17g}  source={enc.hi_source.label}")
    print(f"e_ref     {e_ref:.17g}")
    print(f"width     {enc.width:.17g}")
    print(f"position  {position:.17g}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    grid = _grid_points_from_env()
    results = verify.run_suite(args.suite, grid_points=grid)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name:<48s}  {res.detail}")
    n_pass = sum(res.passed for res in results)
    print(f"{n_pass}/{len(results)} checks passed (suite={args.suite}, grid={grid})")
    return EXIT_OK if n_pass == len(results) else EXIT_VERIFY_FAIL


def _cmd_compare(args: argparse.Namespace) -> int:
    grid = GridSpec(start=args.start, end=args.end, points=args.points,
                    spacing=Spacing(args.spacing))
    specs = _parse_families(args.families)
    header = ["r", "e_ref"] + [s.label for s in specs] + ["best_lo", "best_hi"]
    rs = grid.values()
    # check every radius, then the candidates (best_enclosure's order on each
    # row), before the file is opened, so a usage error leaves it untouched
    for r in rs:
        if not 0.0 < r < 1.0:
            _radius(r, True)
    split = _split(specs)
    # labels may hold commas; no %.17g float (nan, inf too) needs quoting
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    starts = range(0, len(rs), _CHUNK)

    def text(i: int) -> str:
        # the CSV rows of the chunk from row i
        return "".join(map(row_fmt.__mod__, zip(*_columns(rs[i:i + _CHUNK], specs, split))))

    def odd(send) -> None:
        # in the child: every other chunk from the second, one frame each
        for i in starts[1::2]:
            send(text(i).encode("ascii"))

    try:
        with open(args.output, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)

            def alone() -> None:
                fh.writelines(map(text, starts))

            def both(recv) -> None:
                # here: the other chunks, and the child's between them, in row order
                for k, i in enumerate(starts):
                    fh.write(recv().decode("ascii") if k % 2 else text(i))

            if len(rs) < _FORK_LEAST:
                alone()
            else:
                from ._fork import fork
                fork(odd, both, alone, "compare")
    except OSError as exc:
        _err(f"cannot write {args.output!r}: {exc}")
        return EXIT_IO
    print(f"wrote {len(rs)} rows to {args.output}")
    return EXIT_OK


def _cmd_crossover(args: argparse.Namespace) -> int:
    spec_a = parse_bound_spec(args.a)
    spec_b = parse_bound_spec(args.b)
    result = verify.find_crossover(spec_a, spec_b)
    if isinstance(result, verify.CrossoverResult):
        print(f"crossover: r*={result.r_cross:.12f}  delta={result.delta:.12f}  "
              f"better near r=1: {result.better_near_one.label}")
    else:
        print(f"NO-CROSSOVER: {result.dominant.label} dominates on (0, 1)")
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser assembly and dispatch.

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipbounds",
        description="Certified enclosures and sharp bounds for the complete "
                    "elliptic integral of the second kind.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a reference quantity")
    p_eval.add_argument("--what", required=True, choices=["K", "E", "perimeter", "toader"])
    p_eval.add_argument("--r", type=float)
    p_eval.add_argument("--a", type=float)
    p_eval.add_argument("--b", type=float)
    p_eval.set_defaults(handler=_cmd_eval)

    p_enc = sub.add_parser("enclose", help="best enclosure of E(r) from bound families")
    p_enc.add_argument("--r", type=float, required=True)
    p_enc.add_argument("--families", nargs="+", required=True,
                       metavar="SPEC", help="family specs, or 'all'")
    p_enc.set_defaults(handler=_cmd_enclose)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p_ver.set_defaults(handler=_cmd_verify)

    p_cmp = sub.add_parser("compare", help="write a CSV comparison table")
    p_cmp.add_argument("--start", type=float, required=True)
    p_cmp.add_argument("--end", type=float, required=True)
    p_cmp.add_argument("--points", type=int, required=True)
    p_cmp.add_argument("--spacing", choices=[s.value for s in Spacing], default="uniform")
    p_cmp.add_argument("--families", nargs="+", required=True, metavar="SPEC")
    p_cmp.add_argument("--output", required=True)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_x = sub.add_parser("crossover", help="largest radius where two bounds trade places")
    p_x.add_argument("--a", required=True, metavar="SPEC")
    p_x.add_argument("--b", required=True, metavar="SPEC")
    p_x.set_defaults(handler=_cmd_crossover)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except DivergenceError as exc:
        _err(f"diverges: {exc}")
        return EXIT_USAGE
    except (DomainError, InvalidBoundError, ConfigurationError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    except VerificationError as exc:
        _err(f"verification failure: {exc}")
        return EXIT_VERIFY_FAIL
    except OSError as exc:
        _err(f"I/O failure: {exc}")
        return EXIT_IO
    except (EllipBoundsError, ArithmeticError) as exc:
        _err(f"internal numerical error: {exc}")
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
