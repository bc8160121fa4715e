"""Numerical verification machinery: the monotone auxiliary functions behind
the bound proofs, grid sweeps with endpoint extrapolation, sign-case
classification, sharpness falsifiers, and crossover search between bounds.

A table over ascending radii r in (0, 1) builds each other column on its
first read: r', K and E (one AGM run per radius) and the cancelling
combinations K - E, E - r'^2 K, 2E - r'^2 K - pi/2, (K - E) - (E - r'^2 K)
and E^2 - r'^2 K^2.  Every auxiliary function is a column function, one list
comprehension over a table's columns, and a public function such as
lemma23_g(r) evaluates a one-row table through it.  The grid tables of the
last three sizes sit in one cache that run_suite empties on entry.

run_suite("all") may use a second process: on a host with two or more usable
CPUs it builds the main grid table's r', K and E columns, forks one child for
the sharpness and remarks suites and runs the lemma suite itself.  Results,
printed output and errors are those of the one-process run.

Near r = 0 these combinations cancel catastrophically (the first three vanish
like r^2, the last two like r^4), so each such column holds its Maclaurin
series in the rows below its cutoff, split off by bisection on the ascending
radii, and the direct formula at and above it.  The coefficients are
generated exactly from the hypergeometric series of K and E when the module
executes.
"""

from __future__ import annotations

import functools
import math
import numbers
from array import array
from enum import Enum
from fractions import Fraction
from bisect import bisect_left
from itertools import chain, islice
from operator import indexOf, sub
from typing import Callable, Iterable, Iterator, Sequence

from ._fork import fork
from .bounds import (
    ALPHA_STAR,
    BETA_STAR,
    MU_STAR,
    BoundSpec,
    Family,
    Side,
    _u_thresholds,
    _values,
    default_candidates,
    thm12_lower_threshold,
    thm12_upper_threshold,
)
from .core import HALF_PI, Modulus, _agm_ke, _complement, _param, _radius, _record, _row, _size
from .errors import SUITE_NAMES, ConfigurationError, VerificationError

__all__ = [
    "Direction",
    "SignCase",
    "MonotoneReport",
    "SignCaseReport",
    "CrossoverResult",
    "NoCrossover",
    "CheckResult",
    "lemma22_function",
    "lemma23_g",
    "lemma24_h",
    "lemma25_check",
    "lemma26_f",
    "lemma26_classify",
    "lemma26_expected_case",
    "lemma26_case_sample",
    "lemma27_F",
    "sweep_monotone",
    "sweep_ids",
    "find_crossover",
    "search_violation",
    "run_lemma_suite",
    "run_sharpness_suite",
    "run_remarks_suite",
    "run_suite",
    "SUITE_NAMES",
    "grid_open_unit",
]

_PI = math.pi
_PI2 = _PI * _PI
_GRID_EPS = 1e-6
# the fewest points a monotonicity sweep, and so the lemma suite, accepts
_SWEEP_LEAST = 1000
_MONOTONE_TOL = 1e-12
_VALIDITY_SLACK = 1e-13
_SIGN_TOL = 5e-15
# the exponents p at which the lemma suite sweeps h and samples the lemma 2.6 cases
_P_SAMPLE = (0.5, 0.75, 1.0, 1.5, 2.0)

# Series cutoffs: combinations with an r^2 leading term lose ~eps/r^2 of
# absolute accuracy when evaluated directly, combinations with an r^4 leading
# term lose ~eps/r^4.  The r^2 cutoff must also cover the zone where that
# noise exceeds the consecutive-grid-point signal of the quartically flat
# functions (parts (5) and h at p = 2), which pushes it to 0.02.
_CUT_R2 = 0.02
_CUT_R4 = 0.05


# --------------------------------------------------------------------------
# Maclaurin coefficients, exact, of the five cancelling combinations in
# x = r^2, in units of pi/2 ((pi/2)^2 for E^2 - r'^2 K^2).

def _build_series(nmax: int) -> list[list[float]]:
    c = [Fraction(1)]
    for n in range(1, nmax + 1):
        c.append(c[-1] * Fraction((2 * n - 1) ** 2, (2 * n) ** 2))
    e = [cn / (1 - 2 * n) for n, cn in enumerate(c)]
    zero = Fraction(0)
    kme = [zero] + [c[n] * Fraction(2 * n, 2 * n - 1) for n in range(1, nmax + 1)]
    emr = [zero] + [c[n - 1] - c[n] * Fraction(2 * n, 2 * n - 1) for n in range(1, nmax + 1)]
    wmh = [zero] + [e[n] + emr[n] for n in range(1, nmax + 1)]
    d2 = [kme[n] - emr[n] for n in range(nmax + 1)]

    def square(u: list[Fraction]) -> list[Fraction]:
        return [sum(u[i] * u[n - i] for i in range(n + 1)) for n in range(nmax + 1)]

    se2, sk2 = square(e), square(c)
    dd = [se2[n] - sk2[n] + (sk2[n - 1] if n else zero) for n in range(nmax + 1)]
    return [[float(x) for x in tbl] for tbl in (kme, emr, wmh, d2, dd)]


# (cutoff, unit, coefficients) of each cancelling column: K - E, E - r'^2 K and 2E - r'^2 K - pi/2
# vanish like r^2, (K - E) - (E - r'^2 K) and E^2 - r'^2 K^2 like r^4
_SERIES = dict(zip(("kme", "emr", "wmh", "d2", "dd"),
                   zip((_CUT_R2, _CUT_R2, _CUT_R2, _CUT_R4, _CUT_R4),
                       (HALF_PI, HALF_PI, HALF_PI, HALF_PI, HALF_PI * HALF_PI), _build_series(8))))


def _horner(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for cf in reversed(coeffs):
        acc = acc * x + cf
    return acc


# --------------------------------------------------------------------------
# Tables: columns over ascending radii, each built on its first read.

# each cancelling column's direct formula; d2 may read kme's and emr's series rows, as its cutoff covers theirs
_DIRECT = {
    "kme": lambda t: map(sub, t.k, t.e),
    "emr": lambda t: [e - rc * rc * k for rc, k, e in zip(t.rc, t.k, t.e)],
    "wmh": lambda t: [2.0 * e - rc * rc * k - HALF_PI for rc, k, e in zip(t.rc, t.k, t.e)],
    "d2": lambda t: map(sub, t.kme, t.emr),
    "dd": lambda t: [e * e - rc * rc * k * k for rc, k, e in zip(t.rc, t.k, t.e)],
}


class _Table:
    """Columns over ascending radii r in (0, 1), each an array("d"); the others,
    rc (r'), k and e (K and E, one AGM run per radius) and the cancelling
    columns named in _SERIES, are built on first read and kept in vars(self)."""

    def __init__(self, rs: Iterable[float]) -> None:
        self.r = array("d", rs)

    def __getattr__(self, name: str) -> array:
        # only for a column not built yet; no self.__dict__ read, which slows CPython 3.11's later reads
        if name == "rc":
            self.rc = col = array("d", map(_complement, self.r))
        elif name == "k" or name == "e":
            ks, es = array("d"), array("d")
            for k, e in map(_agm_ke, self.r, self.rc):
                ks.append(k)
                es.append(e)
            self.k, self.e = ks, es
            col = ks if name == "k" else es
        elif name in _SERIES:
            # the direct formula, then the series in the rows below the cutoff (r < cutoff exactly)
            cut, unit, coeffs = _SERIES[name]
            rs, col = self.r, array("d", _DIRECT[name](self))
            for i in range(bisect_left(rs, cut)):
                col[i] = unit * _horner(coeffs, rs[i] * rs[i])
            setattr(self, name, col)
        else:
            raise AttributeError(name)
        return col


# three entries: one "all" run scans three grids, its own, 256 and 1000 points
@functools.lru_cache(maxsize=3)
def _grid_table(n: int) -> _Table:
    """The table of the n-point grid_open_unit grid, for a grid size _size has checked."""
    return _Table(grid_open_unit(n))


# --------------------------------------------------------------------------
# The auxiliary functions themselves, as column functions: each flop in the
# order of the lemma's formula, whatever the table's length.

def _l22_1(t: _Table) -> list[float]:
    return [em / (r * r) for r, em in zip(t.r, t.emr)]


def _l22_2(t: _Table) -> list[float]:
    return [e / math.sqrt(rc) for rc, e in zip(t.rc, t.e)]


def _l22_3(t: _Table) -> list[float]:
    return [d / (r * r * k) for r, k, d in zip(t.r, t.k, t.kme)]


def _l22_4(t: _Table) -> list[float]:
    return [em / (r * r * k) for r, k, em in zip(t.r, t.k, t.emr)]


def _l22_5(t: _Table) -> list[float]:
    return [rc**0.75 * d / (r * r) for r, rc, d in zip(t.r, t.rc, t.kme)]


def _l22_6(t: _Table) -> list[float]:
    return [em * em / dd for em, dd in zip(t.emr, t.dd)]


def _l22_7(t: _Table) -> list[float]:
    return [4.0 * w * (w + _PI) / (r * r) for r, w in zip(t.r, t.wmh)]


def _l23_g(t: _Table) -> list[float]:
    return [(d * em + e * d2) / (em * em) for e, d, em, d2 in zip(t.e, t.kme, t.emr, t.d2)]


def _l24_h(t: _Table, p: float) -> list[float]:
    a, b = 2.0 * p - 1.0, 2.0 * p
    return [a * (r * r) + b * (r * r) * e / em for r, e, em in zip(t.r, t.e, t.emr)]


def _l26_f(t: _Table, u: float, p: float) -> list[float]:
    return [p * math.log1p(u * r * r) - math.log1p(w * 2.0 / _PI) for r, w in zip(t.r, t.wmh)]


def _l27_F(t: _Table) -> list[float]:
    # the bracket of F is 1 - J / pi^2 with J the lemma 2.2 part (7) function
    return [(w + HALF_PI) * (w + HALF_PI) * (1.0 - j / _PI2) for w, j in zip(t.wmh, _l22_7(t))]


# Below this radius r^2 < 1e-80, so every swept function equals its claimed
# r = 0+ limit to double precision, while r^2 and (E - r'^2 K)^2 in the
# column functions go subnormal and then 0 further down (below r ~ 1e-162 and 1e-81).
_LIMIT_R = 1e-40


def _public(fn: str, m: Modulus | float, **params: float) -> float:
    # the public scalar path of a swept function: validate, then one row, or
    # the claimed r = 0+ limit below _LIMIT_R
    sd = _SWEEPS[fn]
    r = _radius(m, True)
    params = sd.check(params)
    if r < _LIMIT_R:
        return sd.limits(params)[0]
    return sd.fn(_Table((r,)), **params)[0]


def lemma22_function(idx: int, m: Modulus | float) -> float:
    """Evaluate part (idx) of the seven-part monotonicity lemma, idx in 1..7."""
    if idx not in range(1, 8):
        raise ConfigurationError(f"lemma part index must be 1..7, got {idx!r}")
    return _public(f"lemma22_{int(idx)}", m)


def lemma23_g(m: Modulus | float) -> float:
    """g = [(K-E)(E-r'^2 K) + E((K-E) - (E-r'^2 K))] / (E-r'^2 K)^2,
    increasing from 3/2 to infinity."""
    return _public("lemma23_g", m)


def lemma24_h(m: Modulus | float, p: float) -> float:
    """h = (2p-1) r^2 + 2p r^2 E / (E - r'^2 K); decreasing from 4p to 4p-1
    exactly when p <= 2."""
    return _public("lemma24_h", m, p=p)


@_record
class Lemma25Margins:
    """Positive gaps of 1/(4p) < (4/pi)^(1/p) - 1 < 1/(4p-1)."""

    lower_margin: float
    upper_margin: float


def lemma25_check(p: float) -> Lemma25Margins:
    p = _param("p", p)
    lo, mid = _u_thresholds(p)
    return Lemma25Margins(lower_margin=mid - lo,
                          upper_margin=1.0 / (4.0 * p - 1.0) - mid)


def lemma26_f(m: Modulus | float, u: float, p: float) -> float:
    """f = p log(1 + u r^2) - log((2/pi)(2E - r'^2 K)); zero at r = 0+,
    p log(1+u) + log(pi/4) at r = 1-."""
    return _l26_f(_Table((_radius(m, True),)), _param("u", u), _param("p", p))[0]


def lemma27_F(m: Modulus | float) -> float:
    """F = (2E - r'^2 K)^2 [1 + (pi^2 - 4 (2E - r'^2 K)^2)/(pi^2 r^2)];
    increasing from pi^2/8 to 8 (pi^2 - 8)/pi^2."""
    return _public("lemma27_F", m)


# --------------------------------------------------------------------------
# Grid sweeps with endpoint extrapolation.

class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@_record
class MonotoneReport:
    """Outcome of one monotonicity sweep.

    worst_violation is the largest movement against the claimed direction in
    excess of the 1e-12 comparison tolerance (0.0 means the claim held at
    every consecutive pair).  left_limit/right_limit are the observed
    endpoint extrapolations; right_limit is +inf for claims with a divergent
    right end, which are reported rather than extrapolated.  argmax_r is where
    the worst movement against the claim starts, on a failed sweep (else None).
    """

    name: str
    direction: Direction
    left_limit: float
    right_limit: float
    worst_violation: float
    grid_size: int
    claimed_left: float
    claimed_right: float
    argmax_r: float | None = None

    @property
    def divergent_right(self) -> bool:
        return math.isinf(self.claimed_right)

    @property
    def left_error(self) -> float:
        return abs(self.left_limit - self.claimed_left)

    @property
    def right_error(self) -> float:
        if self.divergent_right:
            return math.nan
        return abs(self.right_limit - self.claimed_right)


def grid_open_unit(n: int) -> list[float]:
    """n uniformly spaced points from 1e-6 to 1 - 1e-6, n >= 2: the radii of
    every verify grid, all of them inside (0, 1)."""
    n = _size(n)
    step = (1.0 - 2.0 * _GRID_EPS) / (n - 1)
    return [_GRID_EPS + i * step for i in range(n)]


def _solve3(mat: list[list[float]], rhs: list[float]) -> list[float]:
    # Gaussian elimination with partial pivoting on a 3x3 system.
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(3):
        piv = max(range(col, 3), key=lambda k: abs(a[k][col]))
        a[col], a[piv] = a[piv], a[col]
        if a[col][col] == 0.0:
            raise VerificationError("singular extrapolation system")
        for k in range(col + 1, 3):
            factor = a[k][col] / a[col][col]
            for j in range(col, 4):
                a[k][j] -= factor * a[col][j]
    out = [0.0, 0.0, 0.0]
    for i in (2, 1, 0):
        s = a[i][3] - sum(a[i][j] * out[j] for j in range(i + 1, 3))
        out[i] = s / a[i][i]
    return out


def _extrapolate(model: str, rs: Sequence[float], ks: Sequence[float], fs: list[float]) -> float:
    # the constant of the fit {1, phi1, phi2} through three rows: the limit
    ws = [(1.0 - r) * (1.0 + r) for r in rs]
    if model == "r2":
        # every auxiliary function is smooth in r^2 at the left end
        basis = [(x, x * x) for x in (r * r for r in rs)]
    elif model == "rc2":
        basis = [(w, w * w) for w in ws]
    elif model == "invk":
        # limits approached like c / K(r) with an O(r'^2) prefactor drift:
        # fit {1, u, r'^2} in u = 1/K
        basis = [(1.0 / k, w) for k, w in zip(ks, ws)]
    elif model == "r34log":
        # r'^(3/4) (K - E) behaviour: basis {1, v, v log v} in v = r'^(3/4)
        basis = [(v, v * math.log(v)) for v in (w ** 0.375 for w in ws)]
    # the fit is linear in fs: past 2^500 (h at p near 2^1020) scale them by
    # a power of two, so that the elimination cannot overflow to inf - inf
    top = max(map(abs, fs))
    k = math.frexp(top)[1] if top > 2.0**500 else 0
    return math.ldexp(_solve3([[1.0, *phi] for phi in basis], [math.ldexp(f, -k) for f in fs])[0], k)


@_record
class _SweepDef:
    """A column function with its direction, claimed limits (numbers, or functions
    of the parameters that ``params`` validates), right-end model and tolerance."""

    fn: Callable[..., list[float]]
    direction: Direction
    left: float | Callable[..., float]
    right: float | Callable[..., float]
    right_model: str | None
    tol: float
    params: dict[str, Callable[[float], float]] = {}

    def check(self, params: dict) -> dict[str, float]:
        """The values of ``self.params``, validated and in that order."""
        return {name: check(params[name]) for name, check in self.params.items()}

    def limits(self, params: dict[str, float]) -> tuple[float, float]:
        """The claimed (left, right) limits at validated parameters."""
        return tuple(c(**params) if callable(c) else c for c in (self.left, self.right))


_SWEEPS: dict[str, _SweepDef] = {
    "lemma22_1": _SweepDef(_l22_1, Direction.INCREASING, _PI / 4.0, 1.0, "rc2", 1e-3),
    "lemma22_2": _SweepDef(_l22_2, Direction.INCREASING, HALF_PI, math.inf, None, 1e-3),
    "lemma22_3": _SweepDef(_l22_3, Direction.INCREASING, 0.5, 1.0, "invk", 1e-3),
    "lemma22_4": _SweepDef(_l22_4, Direction.DECREASING, 0.5, 0.0, "invk", 1e-3),
    "lemma22_5": _SweepDef(_l22_5, Direction.DECREASING, _PI / 4.0, 0.0, "r34log", 1e-2),
    "lemma22_6": _SweepDef(_l22_6, Direction.DECREASING, 2.0, 1.0, "rc2", 1e-3),
    "lemma22_7": _SweepDef(_l22_7, Direction.INCREASING, _PI2 / 2.0, 16.0 - _PI2, "rc2", 1e-3),
    "lemma23_g": _SweepDef(_l23_g, Direction.INCREASING, 1.5, math.inf, None, 1e-2),
    "lemma24_h": _SweepDef(_l24_h, Direction.DECREASING, lambda p: 4.0 * p, lambda p: 4.0 * p - 1.0,
                           "rc2", 1e-3, {"p": functools.partial(_param, "lemma 2.4 exponent p")}),
    "lemma27_F": _SweepDef(_l27_F, Direction.INCREASING,
                           _PI2 / 8.0, 8.0 * (_PI2 - 8.0) / _PI2, "rc2", 1e-3),
}


def sweep_ids() -> list[str]:
    return list(_SWEEPS)


def sweep_monotone(fn: str, grid: int = 10_000, params: dict | None = None) -> MonotoneReport:
    """Sweep one named auxiliary function over a uniform grid on
    (1e-6, 1 - 1e-6), recording the worst movement against its claimed
    direction and Richardson-style endpoint extrapolations from the three
    grid points nearest each endpoint."""
    if not isinstance(fn, str) or fn not in _SWEEPS:
        raise ConfigurationError(f"unknown sweep function {fn!r}; known: {sorted(_SWEEPS)}")
    sd = _SWEEPS[fn]
    n = _size(grid, _SWEEP_LEAST, "sweep grid must have")
    params = dict(params or {})
    if set(params) != set(sd.params):
        raise ConfigurationError(f"{fn} takes parameters {tuple(sd.params)}, got {sorted(params)}")
    params = sd.check(params)

    table = _grid_table(n)
    rs, ks, fs = table.r, table.k, sd.fn(table, **params)
    # movement against the claimed direction between consecutive grid points is a - b
    a, b = (fs, fs[1:]) if sd.direction is Direction.INCREASING else (fs[1:], fs)
    worst = max(0.0, max(chain((0.0,), map(sub, a, b))) - _MONOTONE_TOL)
    # a second pass, on failure only: the radius where the worst move starts
    argmax_r = rs[max(range(len(fs) - 1), key=lambda i: a[i] - b[i])] if worst > 0.0 else None

    left = _extrapolate("r2", rs[:3], ks[:3], fs[:3])
    claimed_left, claimed_right = sd.limits(params)
    right = math.inf if math.isinf(claimed_right) else _extrapolate(sd.right_model, rs[-3:], ks[-3:], fs[-3:])
    name = fn if not params else fn + " " + ",".join(f"{k}={v:g}" for k, v in params.items())
    return MonotoneReport(name=name, direction=sd.direction, left_limit=left, right_limit=right,
                          worst_violation=worst, grid_size=n, claimed_left=claimed_left,
                          claimed_right=claimed_right, argmax_r=argmax_r)


# --------------------------------------------------------------------------
# Sign-case classification for the log-ratio function of the blended-mean
# family.

class SignCase(Enum):
    ALL_NEGATIVE = "all-negative"
    ALL_POSITIVE = "all-positive"
    POSITIVE_THEN_NEGATIVE = "positive-then-negative"


@_record
class SignCaseReport:
    u: float
    p: float
    case_id: SignCase
    eta: float | None
    grid_size: int


def lemma26_expected_case(u: float, p: float) -> SignCase:
    """Which case the sharpness thresholds predict for (u, p)."""
    u, p = _param("u", u), _param("p", p)
    u1, u2 = _u_thresholds(p)
    if u <= u1:
        return SignCase.ALL_NEGATIVE
    if u >= u2:
        return SignCase.ALL_POSITIVE
    return SignCase.POSITIVE_THEN_NEGATIVE


def _sign_changes(rs: Iterable[float], fs: Iterable[float], floor: float) -> tuple[list, list]:
    # the samples (r, f) with |f| above floor, in grid order, and each
    # consecutive pair of them whose signs differ as (r0, r1, f(r0) > 0)
    solid = [(r, f) for r, f in zip(rs, fs) if abs(f) > floor]
    flips = [(r0, r1, f0 > 0) for (r0, f0), (r1, f1) in zip(solid, solid[1:]) if (f0 > 0) != (f1 > 0)]
    return solid, flips


def _bisect(keeps_lo: Callable[[float, float], bool], lo: float, hi: float, width: float) -> float:
    # halve [lo, hi] until at most width wide, moving lo to each midpoint
    # whose (r, r') keeps_lo holds for and hi to the others; the final midpoint
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if keeps_lo(mid, _complement(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lemma26_classify(u: float, p: float, grid: int = 256) -> SignCaseReport:
    """Sample the log-ratio function on a grid, classify its sign pattern,
    and locate the sign-change radius eta by bisection (to 1e-10) in the
    mixed case.  Samples within 5e-15 of zero are treated as indeterminate;
    any pattern other than all-negative, all-positive, or a single
    positive-to-negative flip raises VerificationError."""
    n = _size(grid, 100, "classification grid must have")
    uf, pf = _param("u", u), _param("p", p)
    table = _grid_table(n)
    solid, flips = _sign_changes(table.r, _l26_f(table, uf, pf), _SIGN_TOL)
    if not solid:
        raise VerificationError(f"all {n} samples of f(u={u}, p={p}) are below the sign floor")
    starts_positive, eta = solid[0][1] > 0, None
    if not flips:
        case = SignCase.ALL_POSITIVE if starts_positive else SignCase.ALL_NEGATIVE
    elif len(flips) == 1 and starts_positive:
        case = SignCase.POSITIVE_THEN_NEGATIVE
        eta = _bisect(lambda r, _: _l26_f(_Table((r,)), uf, pf)[0] > 0.0, *flips[0][:2], 1e-10)
    else:
        raise VerificationError(f"inconsistent sign pattern: {len(flips)} sign change(s), "
                                f"starting {'positive' if starts_positive else 'negative'}")
    return SignCaseReport(u=u, p=p, case_id=case, eta=eta, grid_size=n)


def lemma26_case_sample() -> list[tuple[float, float, SignCase]]:
    """A 20 x 5 (u, p) sample spanning all four proof-case regions,
    boundaries included."""
    out = []
    for p in _P_SAMPLE:
        u1, u2 = _u_thresholds(p)
        u3 = min(1.0, 1.0 / (4.0 * p - 1.0))
        us = [u1 * s for s in (0.05, 0.25, 0.5, 0.75, 0.9, 1.0)]
        us += [u1 + (u2 - u1) * s for s in (0.15, 0.35, 0.5, 0.65, 0.85)]
        us += [u2 + (u3 - u2) * s for s in (0.0, 0.3, 0.6, 0.9)]
        top = min(1.0, u3 * 1.5)
        us += [u3 + (top - u3) * s for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
        out.extend((u, p, lemma26_expected_case(u, p)) for u in us)
    return out


# --------------------------------------------------------------------------
# Crossover search and sharpness falsifiers.

@_record
class CrossoverResult:
    """The largest radius where two bounds trade places: they are equal at
    r = 1 - delta and better_near_one is the tighter one on (1 - delta, 1)."""

    delta: float
    r_cross: float
    bound_a: BoundSpec
    bound_b: BoundSpec
    better_near_one: BoundSpec


@_record
class NoCrossover:
    """No sign change of a - b on (0, 1): one bound dominates globally."""

    bound_a: BoundSpec
    bound_b: BoundSpec
    dominant: BoundSpec


_SOLID = 1e-12
_BLOCK = 1024


def _difference(a: BoundSpec, b: BoundSpec, t: _Table) -> Iterator[float]:
    # a - b at each radius of the table, from both column kernels over blocks of rows, so that
    # neither bound's whole column is held at once
    for i in range(0, len(t.r), _BLOCK):
        yield from map(sub, *_values((a, b), t.r[i:i + _BLOCK], t.rc[i:i + _BLOCK]))


def _closer_to_e(a: BoundSpec, b: BoundSpec, r: float) -> BoundSpec:
    r, rc, _, e = _row(r)
    return a if abs(e - a._at(r, rc)) <= abs(e - b._at(r, rc)) else b


def find_crossover(a: BoundSpec, b: BoundSpec, scan: int = 1000) -> CrossoverResult | NoCrossover:
    """Locate the largest root of a(r) - b(r) on (0, 1) by sign scan plus
    bisection to 1e-12.  Differences within 1e-12 of zero are treated as
    sign-less so that pairs which agree to machine precision near an
    endpoint do not produce noise crossovers; if no solid sign change
    exists, the globally dominant bound is reported instead."""
    if not (isinstance(a, BoundSpec) and isinstance(b, BoundSpec)):
        raise ConfigurationError(f"bounds must be BoundSpec instances, got {a!r} and {b!r}")
    table = _grid_table(_size(scan))
    solid, flips = _sign_changes(table.r, _difference(a, b, table), _SOLID)
    if not flips:
        if not solid:
            raise VerificationError("bounds agree to machine precision everywhere; no dominance order")
        return NoCrossover(bound_a=a, bound_b=b, dominant=_closer_to_e(a, b, 0.5))

    lo, hi, lo_positive = flips[-1]
    r_cross = _bisect(lambda r, rc: (a._at(r, rc) > b._at(r, rc)) == lo_positive, lo, hi, 1e-12)
    return CrossoverResult(delta=1.0 - r_cross, r_cross=r_cross, bound_a=a, bound_b=b,
                           better_near_one=_closer_to_e(a, b, 0.5 * (r_cross + 1.0)))


def _golden_max(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def _violation(at: Callable[[float, float], float], lower: bool, r: float) -> float:
    # a golden-section step: bound - E at r for a claimed lower bound, else E - bound
    r, rc, _, e = _row(r)
    return at(r, rc) - e if lower else e - at(r, rc)


def _worst_violation(spec: BoundSpec, side: Side, t: _Table) -> tuple[float, int]:
    # the largest violation of spec claimed as a side bound (bound - E for a lower bound,
    # E - bound for an upper one) on the table, and its first row, with no list of violations
    (bs,) = _values((spec,), t.r, t.rc)
    a, b = (bs, t.e) if side is Side.LOWER else (t.e, bs)
    worst = max(map(sub, a, b))
    return worst, indexOf(map(sub, a, b), worst)


def search_violation(spec: BoundSpec, claimed_side: Side, scan: int = 1000) -> tuple[float, float]:
    """Hunt for the largest violation of a claimed side: for a claimed lower
    bound the violation is bound - E, for an upper bound E - bound.  Coarse
    grid argmax followed by golden-section refinement; returns (r, violation)
    with violation > 0 meaning the claim fails at r."""
    if not isinstance(spec, BoundSpec):
        raise ConfigurationError(f"bound must be a BoundSpec, got {spec!r}")
    if claimed_side not in (Side.LOWER, Side.UPPER):
        raise ConfigurationError("claimed side must be LOWER or UPPER")
    table = _grid_table(_size(scan))
    rs, (_, i) = table.r, _worst_violation(spec, claimed_side, table)
    step = functools.partial(_violation, spec._at, claimed_side is Side.LOWER)
    return _golden_max(step, rs[max(i - 1, 0)], rs[min(i + 1, len(rs) - 1)])


# --------------------------------------------------------------------------
# Named verification suites (consumed by the CLI and the acceptance tests).

@_record(hidden="metrics")
class CheckResult:
    """One check of a suite: its printed detail line is rendered from the
    measured numbers in metrics, which take no part in equality."""

    name: str
    passed: bool
    detail: str
    metrics: dict = {}


def _check(name: str, passed: bool, template: str, **metrics) -> CheckResult:
    # the one constructor of a CheckResult: the detail line is the template
    # rendered from the numbers the check keeps
    return CheckResult(name, passed, template.format(**metrics), metrics)


# a sweep's detail line, by whether its claimed right end diverges
_LEFT = "dir={dir} worst_violation={worst_violation:.6g} left_err={left_err:.6g}(tol {tol:.6g}) "
_SWEEP = {True: _LEFT + "right=divergent grid={grid}",
          False: _LEFT + "right_err={right_err:.6g}(tol {tol:.6g}) grid={grid}"}


def run_lemma_suite(grid_points: int = 10_000) -> list[CheckResult]:
    """Monotonicity sweeps for every auxiliary function on one shared grid
    table, the two-sided threshold inequality on a p-grid, and the sign-case
    classification sample on one shared 256-point table."""
    out: list[CheckResult] = []
    # every sweep in table order, h once per sampled exponent p
    plan = [(fn, sd, dict.fromkeys(sd.params, p)) for fn, sd in _SWEEPS.items()
            for p in (_P_SAMPLE if sd.params else [None])]
    for fn, sd, params in plan:
        rep = sweep_monotone(fn, grid_points, params)
        tol, divergent = sd.tol, rep.divergent_right
        ok = rep.worst_violation == 0.0 and rep.left_error <= tol and (divergent or rep.right_error <= tol)
        right = {} if divergent else {"right_err": rep.right_error}
        # where the worst move starts, kept (not printed) when the sweep failed on it
        worst = {"argmax_r": rep.argmax_r} if rep.worst_violation > 0.0 else {}
        out.append(_check(rep.name, ok, _SWEEP[divergent], dir=rep.direction.value,
                          worst_violation=rep.worst_violation, left_err=rep.left_error, tol=tol,
                          grid=rep.grid_size, **right, **worst))

    margins = [lemma25_check(0.5 + 1.5 * i / 99.0) for i in range(100)]
    lo, hi = min(mg.lower_margin for mg in margins), min(mg.upper_margin for mg in margins)
    out.append(_check("lemma25 threshold gaps", lo > 0.0 and hi > 0.0,
                      "min lower_margin={lower_margin:.6g} min upper_margin={upper_margin:.6g} "
                      "over {p_values} p-values", lower_margin=lo, upper_margin=hi, p_values=len(margins)))

    sample = lemma26_case_sample()
    bad = []
    for u, p, expected in sample:
        rep = lemma26_classify(u, p, 256)
        if rep.case_id is not expected:
            bad.append((u, p, expected.value, rep.case_id.value))
        elif rep.case_id is SignCase.POSITIVE_THEN_NEGATIVE and not (0.0 < rep.eta < 1.0):
            bad.append((u, p, "eta in (0,1)", rep.eta))
    mismatch = {"first_mismatch": bad[0]} if bad else {}
    out.append(_check("lemma26 sign cases", not bad,
                      "{as_predicted}/{samples} (u,p) samples classified as predicted"
                      + ("; first mismatch {first_mismatch}" if bad else ""),
                      as_predicted=len(sample) - len(bad), samples=len(sample), **mismatch))
    return out


def _falsifier_plan() -> list[tuple[str, BoundSpec, Side]]:
    plan = [
        ("thm11 lower, q=beta_star+1e-3",
         BoundSpec(Family.THM11, q=BETA_STAR + 1e-3), Side.LOWER),
        ("thm11 upper, q=alpha_star-1e-3",
         BoundSpec(Family.THM11, q=ALPHA_STAR - 1e-3), Side.UPPER),
    ]
    for p in (0.5, 1.0, 2.0):
        plan.append((f"thm12 lower, p={p:g}, t=t1*+1e-3",
                     BoundSpec(Family.THM12, t=thm12_lower_threshold(p) + 1e-3, p=p), Side.LOWER))
        plan.append((f"thm12 upper, p={p:g}, t=t2*-1e-3",
                     BoundSpec(Family.THM12, t=thm12_upper_threshold(p) - 1e-3, p=p), Side.UPPER))
    return plan


def run_sharpness_suite(grid_points: int = 10_000) -> list[CheckResult]:
    """Validity of every sharp-constant family on one grid table, then the
    falsifiers on one shared 1000-point table: each sharp constant perturbed
    by 1e-3 into the invalid region must produce a located violation."""
    n = _size(grid_points)
    valid = _grid_table(n)
    out: list[CheckResult] = []
    # one scan per distinct (kernel, args, side): cor31-lower and cor31-upper repeat two thm12 specs
    found: dict[tuple, tuple[float, int]] = {}
    for spec in default_candidates():
        side = spec.side
        key = (spec._at.func, spec._at.args, side)
        if key not in found:
            found[key] = _worst_violation(spec, side, valid)
        worst, i = found[key]
        out.append(_check(f"valid {side.value} bound: {spec.label}", worst <= _VALIDITY_SLACK,
                          "max signed violation {violation:.6g} at r={r:.6g} (slack {slack:.6g}, grid={grid})",
                          violation=worst, r=valid.r[i], slack=_VALIDITY_SLACK, grid=n))
    for name, spec, side in _falsifier_plan():
        r, v = search_violation(spec, side, 1000)
        out.append(_check(f"falsify {name}", v > _SOLID, "violation {violation:.6g} located at r={r:.6g}",
                          violation=v, r=r))
    return out


def run_remarks_suite(grid_points: int = 10_000) -> list[CheckResult]:
    """The bound-comparison claims: the coincidence identity, the quadratic
    upper-bound identity, global dominance over the classical lower bound,
    and the two crossover radii."""
    table = _grid_table(_size(grid_points))
    aq, t11 = BoundSpec(Family.ALZER_QIU), BoundSpec(Family.THM11, q=ALPHA_STAR)
    coeff = 1.0 - 8.0 / _PI2
    worst42 = max(abs((1.0 + x * x) - ((MU_STAR + (1.0 - MU_STAR) * x) ** 2
                                       + ((1.0 - MU_STAR) + MU_STAR * x) ** 2) - coeff * (1.0 - x) ** 2)
                  for x in table.r)
    # each identity: check name, detail line, largest residual on the grid, tolerance
    out = [_check(name, worst < tol, template, max_residual=worst, tol=tol) for name, template, worst, tol in [
        ("remark 4.1 coincidence", "max |alzer_qiu - thm11(alpha_star)| = {max_residual:.6g} (tol {tol:.6g})",
         max(map(abs, _difference(aq, t11, table))), 1e-15),
        ("remark 4.2 identity", "max residual {max_residual:.6g} (tol {tol:.6g})", worst42, 1e-14),
    ]]

    vuo = BoundSpec(Family.VUORINEN)
    # the minima on r < 0.1 and on r >= 0.1, in one pass with no list of gaps
    gaps = _difference(BoundSpec(Family.COR31_LOWER), vuo, table)
    below = min(islice(gaps, bisect_left(table.r, 0.1)), default=math.inf)
    min_gap_mid = min(gaps, default=math.inf)
    min_gap = min(below, min_gap_mid)
    out.append(_check("remark 4.5 dominance", min_gap >= -_VALIDITY_SLACK and min_gap_mid > 0.0,
                      "min(cor31_lower - vuorinen) = {min_gap:.6g} on grid, {min_gap_mid:.6g} on r >= 0.1",
                      min_gap=min_gap, min_gap_mid=min_gap_mid))

    # each crossover: check name, detail line, and the pair (a, b) of which a
    # must be the tighter bound near r = 1
    for name, template, a, b in [
        ("remark 4.3 crossover (cor31-upper vs alzer-qiu)", "delta1={delta:.12g} r*={r_cross:.12g}",
         BoundSpec(Family.COR31_UPPER), BoundSpec(Family.ALZER_QIU)),
        ("remark 4.4 crossover (thm11 lower vs vuorinen)", "delta2={delta:.12g} r*={r_cross:.12g}",
         BoundSpec(Family.THM11, q=BETA_STAR), vuo),
    ]:
        cross = find_crossover(a, b)
        if isinstance(cross, CrossoverResult):
            out.append(_check(name, 0.0 < cross.delta < 1.0 and cross.better_near_one is a, template,
                              delta=cross.delta, r_cross=cross.r_cross))
        else:
            out.append(_check(name, False, "no crossover found"))
    return out


def run_suite(name: str, grid_points: int = 10_000) -> list[CheckResult]:
    """The results of the named suite, or of all three in suite order (lemmas,
    sharpness, remarks), on a fresh table cache.

    Several suites run in two processes where that can pay: os.fork exists,
    two or more CPUs are usable, only the main thread is alive and the grid is
    one the lemma suite accepts.  Then this process builds the main grid's
    r', K and E columns, forks one child for the other suites and runs the
    lemma suite, and the child is reaped before the call returns or raises;
    otherwise, or if no child starts, all run here, one after another.  Either
    way the results are the same, and so is the error raised: that of the
    first failing suite in suite order.  A child that ends without a result
    raises EllipBoundsError."""
    if name not in SUITE_NAMES:
        raise ConfigurationError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    _grid_table.cache_clear()
    runs = [run for suite, run in zip(SUITE_NAMES, (run_lemma_suite, run_sharpness_suite, run_remarks_suite))
            if name in (suite, "all")]

    def alone() -> list[CheckResult]:
        return [res for run in runs for res in run(grid_points)]

    if len(runs) == 1 or not (isinstance(grid_points, numbers.Integral) and grid_points >= _SWEEP_LEAST):
        return alone()
    _grid_table(int(grid_points)).e  # before the fork, so both processes share it

    def tail(send) -> None:
        import pickle
        send(pickle.dumps([res for run in runs[1:] for res in run(grid_points)]))

    def head(recv) -> list[CheckResult]:
        out = runs[0](grid_points)
        import pickle
        return out + pickle.loads(recv())

    return fork(tail, head, alone, "sharpness and remarks")
