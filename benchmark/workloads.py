"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of (workload seed, size).  The measured
process and the checking process both call it, so the checker can rebuild
every input and its expected outcome without the program telling it.  Only
the inputs reach the program; the expected outcomes stay on this side.
`sha256` is here too because both processes fingerprint the CSV files.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

# Sharp constants recomputed from their closed forms (see the package README),
# so input generation does not depend on the code being measured.
BETA_STAR = 0.5 - 2.0 * math.sqrt(2.0 * (math.pi ** 2 - 8.0)) / math.pi ** 2
ALPHA_STAR = 0.5 - math.sqrt(2.0) / 4.0


def thm12_lower_t(p: float) -> float:
    return 0.5 + math.sqrt(1.0 / (4.0 * p)) / 2.0


def thm12_upper_t(p: float) -> float:
    return 0.5 + math.sqrt((4.0 / math.pi) ** (1.0 / p) - 1.0) / 2.0


@dataclass(frozen=True)
class Size:
    """Work per operation.  `full` is what the benchmark measures; `tiny`
    exists only for the benchmark's own smoke test."""

    verify_grid: tuple[int, int]
    compare_points: tuple[int, int]
    trace_queries: int
    check_queries: int


SIZES = {
    # verify grid within 1% of the CLI default 10^4, so run-to-run figures
    # differ by the machine, not by the seed; compare rows ~10^4 per pass.
    "full": Size(verify_grid=(9_900, 10_100), compare_points=(4_950, 5_050),
                 trace_queries=20_000, check_queries=3_000),
    "tiny": Size(verify_grid=(1_000, 1_010), compare_points=(100, 110),
                 trace_queries=500, check_queries=300),
}


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --------------------------------------------------------------------------
# verify-suite


def verify_grid(seed: int, size: Size) -> int:
    lo, hi = size.verify_grid
    return _rng("verify-suite", seed).randint(lo, hi)


# --------------------------------------------------------------------------
# compare-table


def param_spec(rng: random.Random, family: str, side: str) -> str:
    """A thm11 or thm12 spec string with parameters drawn strictly inside the
    valid region for `side` ("lower" or "upper")."""
    if family == "thm11":
        q = (rng.uniform(0.01, BETA_STAR * 0.999) if side == "lower"
             else rng.uniform(ALPHA_STAR * 1.001, 0.5))
        return f"thm11:q={q!r}"
    p = rng.uniform(0.5, 2.0)
    t = (rng.uniform(0.5, thm12_lower_t(p) - 1e-6) if side == "lower"
         else rng.uniform(thm12_upper_t(p) + 1e-6, 1.0))
    return f"thm12:t={t!r},p={p!r}"


@dataclass(frozen=True)
class CompareCall:
    spacing: str
    start: float
    end: float
    points: int
    extra_specs: tuple[str, str]

    def argv(self, output: str) -> list[str]:
        return ["compare", "--start", repr(self.start), "--end", repr(self.end),
                "--points", str(self.points), "--spacing", self.spacing,
                "--families", "all", *self.extra_specs, "--output", output]


def compare_plan(seed: int, size: Size) -> list[CompareCall]:
    """One pass: a uniform table and a log-near-one table, each with the 13
    default families plus one thm11 and one thm12 spec parsed from text."""
    rng = _rng("compare-table", seed)
    lo, hi = size.compare_points
    specs = (param_spec(rng, "thm11", rng.choice(("lower", "upper"))),
             param_spec(rng, "thm12", rng.choice(("lower", "upper"))))
    uniform = CompareCall("uniform", rng.uniform(0.001, 0.01), rng.uniform(0.99, 0.999),
                          rng.randint(lo, hi), specs)
    near_one = CompareCall("log-near-one", rng.uniform(0.05, 0.5), 1.0 - 10.0 ** rng.uniform(-8.0, -6.0),
                           rng.randint(lo, hi), specs)
    return [uniform, near_one]


# --------------------------------------------------------------------------
# point-queries

# The repository holds no usage data, so the mix is an assumption, not a
# measurement: the seven call kinds are equally likely, so are the three r
# bands, and 4% of calls are hostile ("a few percent").
KINDS = ("E", "K", "KE", "perimeter", "toader", "enclose_default", "enclose_parsed")
HOSTILE_SHARE = 0.04

_LOWER_ALIASES = ("vuorinen", "cor31-lower", "thm11-lower")
_UPPER_ALIASES = ("barnard", "alzer-qiu", "cor31-upper", "thm11-upper")


@dataclass(frozen=True)
class Query:
    """One call: `kind` names the public function, `args` are its inputs and
    `expect` is None for a value or the name of the typed error it must raise."""

    kind: str
    args: tuple
    expect: str | None


def draw_r(rng: random.Random) -> float:
    """r from one of three equally likely bands: uniform on (0, 1),
    log-uniform on [1e-8, 0.2], and 1 - 10^U(-8, -1)."""
    band = rng.randrange(3)
    if band == 0:
        r = 0.0
        while r == 0.0:
            r = rng.random()
        return r
    if band == 1:
        return 10.0 ** rng.uniform(-8.0, math.log10(0.2))
    return 1.0 - 10.0 ** rng.uniform(-8.0, -1.0)


def _valid_query(rng: random.Random, kind: str) -> Query:
    if kind == "toader":
        a = 10.0 ** rng.uniform(-3.0, 3.0)
        b = a * draw_r(rng)
        return Query(kind, (a, b) if rng.random() < 0.5 else (b, a), None)
    r = draw_r(rng)
    if kind == "enclose_parsed":
        specs = tuple(
            param_spec(rng, rng.choice(("thm11", "thm12")), side) if rng.random() < 0.5
            else rng.choice(aliases)
            for side, aliases in (("lower", _LOWER_ALIASES), ("upper", _UPPER_ALIASES)))
        return Query(kind, (r, specs), None)
    return Query(kind, (r,), None)


_BAD_R = (math.nan, math.inf, -math.inf)


def _hostile_query(rng: random.Random, kind: str) -> Query:
    bad = rng.choice(_BAD_R + (-rng.uniform(1e-9, 1.0), 1.0 + rng.uniform(1e-9, 1.0)))
    if kind in ("K", "KE") and rng.random() < 0.4:
        return Query(kind, (1.0,), "DivergenceError")
    if kind == "toader":
        good = 10.0 ** rng.uniform(-3.0, 3.0)
        bad = rng.choice((math.nan, math.inf, -good, 0.0))
        return Query(kind, (good, bad) if rng.random() < 0.5 else (bad, good), "DomainError")
    if kind in ("perimeter", "enclose_default"):  # both need r in the open interval
        return Query(kind, (rng.choice((bad, 0.0, 1.0)),), "DomainError")
    if kind == "enclose_parsed":
        gap_q = rng.uniform(BETA_STAR * 1.001, ALPHA_STAR * 0.999)
        return Query(kind, (draw_r(rng), (f"thm11:q={gap_q!r}", rng.choice(_UPPER_ALIASES))),
                     "InvalidBoundError")
    return Query(kind, (bad,), "DomainError")


def query_stream(seed: int):
    """Endless seeded stream of single calls; about 4% are hostile inputs
    that must raise the documented typed error."""
    rng = _rng("point-queries", seed)
    while True:
        kind = rng.choice(KINDS)
        if rng.random() < HOSTILE_SHARE:
            yield _hostile_query(rng, kind)
        else:
            yield _valid_query(rng, kind)
