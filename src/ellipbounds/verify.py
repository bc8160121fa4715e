"""Numerical verification machinery: the monotone auxiliary functions behind
the bound proofs, grid sweeps with endpoint extrapolation, sign-case
classification, sharpness falsifiers, and crossover search between bounds.

Near r = 0 the auxiliary functions combine K and E in ways that cancel
catastrophically (E - r'^2 K and K - E vanish like r^2, E^2 - r'^2 K^2 like
r^4).  Each such combination therefore switches to its Maclaurin series below
a cutoff; the coefficients are generated exactly from the hypergeometric
series of K and E at import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .bounds import (
    ALPHA_STAR,
    BETA_STAR,
    MU_STAR,
    BoundSpec,
    Family,
    Side,
    _param,
    alzer_qiu_upper,
    default_candidates,
    thm11_bound,
    thm12_lower_threshold,
    thm12_upper_threshold,
    vuorinen_lower,
)
from .core import HALF_PI, EllipticValues, Modulus, _open_modulus, complete_e, complete_k, elliptic_ke
from .errors import ConfigurationError, DomainError, VerificationError

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
_GRID_EPS = 1e-6
_MONOTONE_TOL = 1e-12
_VALIDITY_SLACK = 1e-13
_SIGN_TOL = 5e-15

# Series cutoffs: combinations with an r^2 leading term lose ~eps/r^2 of
# absolute accuracy when evaluated directly, combinations with an r^4 leading
# term lose ~eps/r^4.  The r^2 cutoff must also cover the zone where that
# noise exceeds the consecutive-grid-point signal of the quartically flat
# functions (parts (5) and h at p = 2), which pushes it to 0.02.
_CUT_R2 = 0.02
_CUT_R4 = 0.05


# --------------------------------------------------------------------------
# Maclaurin coefficients, exact.  All tables are in units of (pi/2) except
# _DD which is in units of (pi/2)^2; the variable is x = r^2.

def _build_series(nmax: int) -> dict[str, list[float]]:
    c = [Fraction(1)]
    for n in range(1, nmax + 1):
        c.append(c[-1] * Fraction((2 * n - 1) ** 2, (2 * n) ** 2))
    e = [cn / (1 - 2 * n) for n, cn in enumerate(c)]
    zero = Fraction(0)
    kme = [zero] + [c[n] * Fraction(2 * n, 2 * n - 1) for n in range(1, nmax + 1)]
    emr = [zero] + [c[n - 1] - c[n] * Fraction(2 * n, 2 * n - 1) for n in range(1, nmax + 1)]
    wmh = [zero] + [e[n] + emr[n] for n in range(1, nmax + 1)]
    d2 = [kme[n] - emr[n] for n in range(nmax + 1)]

    def conv(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
        out = [zero] * (nmax + 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                if i + j <= nmax:
                    out[i + j] += ui * vj
        return out

    se2, sk2 = conv(e, e), conv(c, c)
    dd = [se2[n] - sk2[n] + (sk2[n - 1] if n else zero) for n in range(nmax + 1)]
    return {name: [float(x) for x in tbl] for name, tbl in
            [("kme", kme), ("emr", emr), ("wmh", wmh), ("d2", d2), ("dd", dd)]}


_TBL = _build_series(8)


def _horner(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for cf in reversed(coeffs):
        acc = acc * x + cf
    return acc


def _kme(m: Modulus, ke: EllipticValues) -> float:
    # K - E, vanishes like (pi/4) r^2
    if m.r < _CUT_R2:
        return HALF_PI * _horner(_TBL["kme"], m.r * m.r)
    return ke.k_val - ke.e_val


def _emr(m: Modulus, ke: EllipticValues) -> float:
    # E - r'^2 K, vanishes like (pi/4) r^2
    if m.r < _CUT_R2:
        return HALF_PI * _horner(_TBL["emr"], m.r * m.r)
    return ke.e_val - m.r_comp * m.r_comp * ke.k_val


def _wmh(m: Modulus, ke: EllipticValues) -> float:
    # (2E - r'^2 K) - pi/2, vanishes like (pi/8) r^2
    if m.r < _CUT_R2:
        return HALF_PI * _horner(_TBL["wmh"], m.r * m.r)
    return 2.0 * ke.e_val - m.r_comp * m.r_comp * ke.k_val - HALF_PI


def _d2(m: Modulus, ke: EllipticValues) -> float:
    # (K - E) - (E - r'^2 K), vanishes like (pi/16) r^4
    if m.r < _CUT_R4:
        return HALF_PI * _horner(_TBL["d2"], m.r * m.r)
    return (ke.k_val - ke.e_val) - (ke.e_val - m.r_comp * m.r_comp * ke.k_val)


def _dd(m: Modulus, ke: EllipticValues) -> float:
    # E^2 - r'^2 K^2, vanishes like (pi/2)^2 r^4 / 8
    if m.r < _CUT_R4:
        return HALF_PI * HALF_PI * _horner(_TBL["dd"], m.r * m.r)
    return ke.e_val * ke.e_val - m.r_comp * m.r_comp * ke.k_val * ke.k_val


# --------------------------------------------------------------------------
# The auxiliary functions themselves.

def _l22_1(m: Modulus) -> float:
    ke = elliptic_ke(m)
    return _emr(m, ke) / (m.r * m.r)


def _l22_2(m: Modulus) -> float:
    ke = elliptic_ke(m)
    return ke.e_val / math.sqrt(m.r_comp)


def _l22_3(m: Modulus) -> float:
    ke = elliptic_ke(m)
    return _kme(m, ke) / (m.r * m.r * ke.k_val)


def _l22_4(m: Modulus) -> float:
    ke = elliptic_ke(m)
    return _emr(m, ke) / (m.r * m.r * ke.k_val)


def _l22_5(m: Modulus) -> float:
    ke = elliptic_ke(m)
    return m.r_comp**0.75 * _kme(m, ke) / (m.r * m.r)


def _l22_6(m: Modulus) -> float:
    ke = elliptic_ke(m)
    em = _emr(m, ke)
    return em * em / _dd(m, ke)


def _l22_7(m: Modulus) -> float:
    ke = elliptic_ke(m)
    w = _wmh(m, ke)
    return 4.0 * w * (w + _PI) / (m.r * m.r)


_LEMMA22 = {1: _l22_1, 2: _l22_2, 3: _l22_3, 4: _l22_4, 5: _l22_5, 6: _l22_6, 7: _l22_7}


def lemma22_function(idx: int, m: Modulus | float) -> float:
    """Evaluate part (idx) of the seven-part monotonicity lemma, idx in 1..7."""
    if idx not in _LEMMA22:
        raise ConfigurationError(f"lemma part index must be 1..7, got {idx!r}")
    return _LEMMA22[idx](_open_modulus(m))


def lemma23_g(m: Modulus | float) -> float:
    """g = [(K-E)(E-r'^2 K) + E((K-E) - (E-r'^2 K))] / (E-r'^2 K)^2,
    increasing from 3/2 to infinity."""
    m = _open_modulus(m)
    ke = elliptic_ke(m)
    em = _emr(m, ke)
    return (_kme(m, ke) * em + ke.e_val * _d2(m, ke)) / (em * em)


def lemma24_h(m: Modulus | float, p: float) -> float:
    """h = (2p-1) r^2 + 2p r^2 E / (E - r'^2 K); decreasing from 4p to 4p-1
    exactly when p <= 2."""
    m = _open_modulus(m)
    p = float(p)
    if not p >= 0.5:
        raise DomainError(f"p must be >= 1/2, got {p!r}")
    ke = elliptic_ke(m)
    r2 = m.r * m.r
    return (2.0 * p - 1.0) * r2 + 2.0 * p * r2 * ke.e_val / _emr(m, ke)


@dataclass(frozen=True)
class Lemma25Margins:
    """Positive gaps of 1/(4p) < (4/pi)^(1/p) - 1 < 1/(4p-1)."""

    lower_margin: float
    upper_margin: float


def lemma25_check(p: float) -> Lemma25Margins:
    p = _param("p", p)
    mid = (4.0 / _PI) ** (1.0 / p) - 1.0
    return Lemma25Margins(lower_margin=mid - 1.0 / (4.0 * p),
                          upper_margin=1.0 / (4.0 * p - 1.0) - mid)


def lemma26_f(m: Modulus | float, u: float, p: float) -> float:
    """f = p log(1 + u r^2) - log((2/pi)(2E - r'^2 K)); zero at r = 0+,
    p log(1+u) + log(pi/4) at r = 1-."""
    m = _open_modulus(m)
    u, p = _param("u", u), _param("p", p)
    ke = elliptic_ke(m)
    return p * math.log1p(u * m.r * m.r) - math.log1p(_wmh(m, ke) * 2.0 / _PI)


def lemma27_F(m: Modulus | float) -> float:
    """F = (2E - r'^2 K)^2 [1 + (pi^2 - 4 (2E - r'^2 K)^2)/(pi^2 r^2)];
    increasing from pi^2/8 to 8 (pi^2 - 8)/pi^2."""
    m = _open_modulus(m)
    ke = elliptic_ke(m)
    w = _wmh(m, ke)
    big_w = w + HALF_PI
    j = 4.0 * w * (w + _PI) / (m.r * m.r)
    return big_w * big_w * (1.0 - j / (_PI * _PI))


# --------------------------------------------------------------------------
# Grid sweeps with endpoint extrapolation.

class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


@dataclass(frozen=True)
class MonotoneReport:
    """Outcome of one monotonicity sweep.

    worst_violation is the largest movement against the claimed direction in
    excess of the 1e-12 comparison tolerance (0.0 means the claim held at
    every consecutive pair).  left_limit/right_limit are the observed
    endpoint extrapolations; right_limit is +inf for claims with a divergent
    right end, which are reported rather than extrapolated.
    """

    name: str
    direction: Direction
    left_limit: float
    right_limit: float
    worst_violation: float
    grid_size: int
    claimed_left: float
    claimed_right: float

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


def grid_open_unit(n: int, eps: float = _GRID_EPS) -> list[float]:
    """n uniformly spaced points on (eps, 1 - eps)."""
    if n < 2:
        raise ConfigurationError(f"grid needs at least 2 points, got {n!r}")
    step = (1.0 - 2.0 * eps) / (n - 1)
    return [eps + i * step for i in range(n)]


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


def _fit_constant(xs: list[float], fs: list[float], phi1, phi2) -> float:
    mat = [[1.0, phi1(x), phi2(x)] for x in xs]
    return _solve3(mat, fs)[0]


def _extrap_left(rs: list[float], fs: list[float]) -> float:
    # every auxiliary function is smooth in r^2 at the left end
    xs = [r * r for r in rs]
    return _fit_constant(xs, fs, lambda x: x, lambda x: x * x)


def _extrap_right(rs: list[float], fs: list[float], model: str) -> float:
    if model == "rc2":
        xs = [(1.0 - r) * (1.0 + r) for r in rs]
        return _fit_constant(xs, fs, lambda x: x, lambda x: x * x)
    if model == "invk":
        # limits approached like c / K(r) with an O(r'^2) prefactor drift:
        # fit {1, u, r'^2} in u = 1/K
        us = [1.0 / complete_k(r) for r in rs]
        ws = [(1.0 - r) * (1.0 + r) for r in rs]
        mat = [[1.0, u, w] for u, w in zip(us, ws)]
        return _solve3(mat, fs)[0]
    if model == "r34log":
        # r'^(3/4) (K - E) behaviour: basis {1, v, v log v} in v = r'^(3/4)
        xs = [((1.0 - r) * (1.0 + r)) ** 0.375 for r in rs]
        return _fit_constant(xs, fs, lambda v: v, lambda v: v * math.log(v))
    raise ConfigurationError(f"unknown extrapolation model {model!r}")


@dataclass(frozen=True)
class _SweepDef:
    fn: Callable[..., float]
    direction: Direction
    left: Callable[[dict], float]
    right: Callable[[dict], float]
    right_model: str | None
    left_tol: float
    right_tol: float | None
    param_names: tuple[str, ...] = ()


_SWEEPS: dict[str, _SweepDef] = {
    "lemma22_1": _SweepDef(_l22_1, Direction.INCREASING,
                           lambda _: _PI / 4.0, lambda _: 1.0, "rc2", 1e-3, 1e-3),
    "lemma22_2": _SweepDef(_l22_2, Direction.INCREASING,
                           lambda _: HALF_PI, lambda _: math.inf, None, 1e-3, None),
    "lemma22_3": _SweepDef(_l22_3, Direction.INCREASING,
                           lambda _: 0.5, lambda _: 1.0, "invk", 1e-3, 1e-3),
    "lemma22_4": _SweepDef(_l22_4, Direction.DECREASING,
                           lambda _: 0.5, lambda _: 0.0, "invk", 1e-3, 1e-3),
    "lemma22_5": _SweepDef(_l22_5, Direction.DECREASING,
                           lambda _: _PI / 4.0, lambda _: 0.0, "r34log", 1e-2, 1e-2),
    "lemma22_6": _SweepDef(_l22_6, Direction.DECREASING,
                           lambda _: 2.0, lambda _: 1.0, "rc2", 1e-3, 1e-3),
    "lemma22_7": _SweepDef(_l22_7, Direction.INCREASING,
                           lambda _: _PI * _PI / 2.0, lambda _: 16.0 - _PI * _PI, "rc2", 1e-3, 1e-3),
    "lemma23_g": _SweepDef(lambda m: lemma23_g(m), Direction.INCREASING,
                           lambda _: 1.5, lambda _: math.inf, None, 1e-2, None),
    "lemma24_h": _SweepDef(lambda m, p: lemma24_h(m, p), Direction.DECREASING,
                           lambda prm: 4.0 * prm["p"], lambda prm: 4.0 * prm["p"] - 1.0,
                           "rc2", 1e-3, 1e-3, ("p",)),
    "lemma27_F": _SweepDef(lambda m: lemma27_F(m), Direction.INCREASING,
                           lambda _: _PI * _PI / 8.0, lambda _: 8.0 * (_PI * _PI - 8.0) / (_PI * _PI),
                           "rc2", 1e-3, 1e-3),
}


def sweep_ids() -> list[str]:
    return list(_SWEEPS)


def sweep_monotone(fn: str, grid: int = 10_000, params: dict | None = None) -> MonotoneReport:
    """Sweep one named auxiliary function over a uniform grid on
    (1e-6, 1 - 1e-6), recording the worst movement against its claimed
    direction and Richardson-style endpoint extrapolations from the three
    grid points nearest each endpoint."""
    try:
        sd = _SWEEPS[fn]
    except KeyError:
        raise ConfigurationError(f"unknown sweep function {fn!r}; known: {sorted(_SWEEPS)}") from None
    if grid < 1000:
        raise ConfigurationError(f"sweep grid must have at least 1000 points, got {grid!r}")
    params = dict(params or {})
    if set(params) != set(sd.param_names):
        raise ConfigurationError(f"{fn} takes parameters {sd.param_names}, got {sorted(params)}")

    rs = grid_open_unit(grid)
    fs = [sd.fn(Modulus(r), **params) for r in rs]

    sign = 1.0 if sd.direction is Direction.INCREASING else -1.0
    worst = 0.0
    prev = fs[0]
    for val in fs[1:]:
        worst = max(worst, sign * (prev - val))
        prev = val
    worst = max(0.0, worst - _MONOTONE_TOL)

    left = _extrap_left(rs[:3], fs[:3])
    claimed_right = sd.right(params)
    if math.isinf(claimed_right):
        right = math.inf
    else:
        right = _extrap_right(rs[-3:], fs[-3:], sd.right_model)

    name = fn if not params else fn + " " + ",".join(f"{k}={params[k]:g}" for k in sd.param_names)
    return MonotoneReport(
        name=name,
        direction=sd.direction,
        left_limit=left,
        right_limit=right,
        worst_violation=worst,
        grid_size=grid,
        claimed_left=sd.left(params),
        claimed_right=claimed_right,
    )


# --------------------------------------------------------------------------
# Sign-case classification for the log-ratio function of the blended-mean
# family.

class SignCase(Enum):
    ALL_NEGATIVE = "all-negative"
    ALL_POSITIVE = "all-positive"
    POSITIVE_THEN_NEGATIVE = "positive-then-negative"


@dataclass(frozen=True)
class SignCaseReport:
    u: float
    p: float
    case_id: SignCase
    eta: float | None
    grid_size: int


def lemma26_expected_case(u: float, p: float) -> SignCase:
    """Which case the sharpness thresholds predict for (u, p)."""
    if u <= 1.0 / (4.0 * p):
        return SignCase.ALL_NEGATIVE
    if u >= (4.0 / _PI) ** (1.0 / p) - 1.0:
        return SignCase.ALL_POSITIVE
    return SignCase.POSITIVE_THEN_NEGATIVE


def _classify_sign_pattern(signs: list[int]) -> SignCase:
    # signs: nonzero entries in grid order
    if all(s < 0 for s in signs):
        return SignCase.ALL_NEGATIVE
    if all(s > 0 for s in signs):
        return SignCase.ALL_POSITIVE
    flips = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
    if len(flips) == 1 and signs[0] > 0:
        return SignCase.POSITIVE_THEN_NEGATIVE
    raise VerificationError(f"inconsistent sign pattern: {len(flips)} sign change(s), "
                            f"starting {'positive' if signs[0] > 0 else 'negative'}")


def lemma26_classify(u: float, p: float, grid: int = 256) -> SignCaseReport:
    """Sample the log-ratio function on a grid, classify its sign pattern,
    and locate the sign-change radius eta by bisection (to 1e-10) in the
    mixed case.  Samples within 5e-15 of zero are treated as indeterminate;
    any pattern other than all-negative, all-positive, or a single
    positive-to-negative flip raises VerificationError."""
    if grid < 100:
        raise ConfigurationError(f"classification grid must have at least 100 points, got {grid!r}")
    rs = grid_open_unit(grid)
    fs = [lemma26_f(r, u, p) for r in rs]
    keep = [(r, f) for r, f in zip(rs, fs) if abs(f) > _SIGN_TOL]
    if not keep:
        raise VerificationError(f"all {grid} samples of f(u={u}, p={p}) are below the sign floor")
    case = _classify_sign_pattern([1 if f > 0 else -1 for _, f in keep])

    eta = None
    if case is SignCase.POSITIVE_THEN_NEGATIVE:
        pos = max(r for r, f in keep if f > 0)
        neg = min(r for r, f in keep if f < 0 and r > pos)
        lo, hi = pos, neg
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if lemma26_f(mid, u, p) > 0.0:
                lo = mid
            else:
                hi = mid
        eta = 0.5 * (lo + hi)
    return SignCaseReport(u=u, p=p, case_id=case, eta=eta, grid_size=grid)


def lemma26_case_sample() -> list[tuple[float, float, SignCase]]:
    """A 20 x 5 (u, p) sample spanning all four proof-case regions,
    boundaries included."""
    out = []
    for p in (0.5, 0.75, 1.0, 1.5, 2.0):
        u1 = 1.0 / (4.0 * p)
        u2 = (4.0 / _PI) ** (1.0 / p) - 1.0
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

@dataclass(frozen=True)
class CrossoverResult:
    """The largest radius where two bounds trade places: they are equal at
    r = 1 - delta and better_near_one is the tighter one on (1 - delta, 1)."""

    delta: float
    r_cross: float
    bound_a: BoundSpec
    bound_b: BoundSpec
    better_near_one: BoundSpec


@dataclass(frozen=True)
class NoCrossover:
    """No sign change of a - b on (0, 1): one bound dominates globally."""

    bound_a: BoundSpec
    bound_b: BoundSpec
    dominant: BoundSpec


_SOLID = 1e-12


def _closer_to_e(a: BoundSpec, b: BoundSpec, r: float) -> BoundSpec:
    e = complete_e(r)
    return a if abs(e - a.evaluate(r)) <= abs(e - b.evaluate(r)) else b


def find_crossover(a: BoundSpec, b: BoundSpec, scan: int = 1000) -> CrossoverResult | NoCrossover:
    """Locate the largest root of a(r) - b(r) on (0, 1) by sign scan plus
    bisection to 1e-12.  Differences within 1e-12 of zero are treated as
    sign-less so that pairs which agree to machine precision near an
    endpoint do not produce noise crossovers; if no solid sign change
    exists, the globally dominant bound is reported instead."""
    rs = grid_open_unit(scan)
    ds = [a.evaluate(r) - b.evaluate(r) for r in rs]
    solid = [(r, d) for r, d in zip(rs, ds) if abs(d) > _SOLID]
    bracket = None
    for (r0, d0), (r1, d1) in zip(solid, solid[1:]):
        if (d0 > 0) != (d1 > 0):
            bracket = (r0, r1)
    if bracket is None:
        if not solid:
            raise VerificationError("bounds agree to machine precision everywhere; no dominance order")
        return NoCrossover(bound_a=a, bound_b=b, dominant=_closer_to_e(a, b, 0.5))

    lo, hi = bracket
    d_lo = a.evaluate(lo) - b.evaluate(lo)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        d_mid = a.evaluate(mid) - b.evaluate(mid)
        if (d_mid > 0) == (d_lo > 0):
            lo, d_lo = mid, d_mid
        else:
            hi = mid
    r_cross = 0.5 * (lo + hi)
    probe = 0.5 * (r_cross + 1.0)
    return CrossoverResult(
        delta=1.0 - r_cross,
        r_cross=r_cross,
        bound_a=a,
        bound_b=b,
        better_near_one=_closer_to_e(a, b, probe),
    )


def _golden_max(f: Callable[[float], float], a: float, b: float, iters: int = 60) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
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


def search_violation(spec: BoundSpec, claimed_side: Side, scan: int = 1000) -> tuple[float, float]:
    """Hunt for the largest violation of a claimed side: for a claimed lower
    bound the violation is bound - E, for an upper bound E - bound.  Coarse
    grid argmax followed by golden-section refinement; returns (r, violation)
    with violation > 0 meaning the claim fails at r."""
    if claimed_side is Side.LOWER:
        viol = lambda r: spec.evaluate(r) - complete_e(r)
    elif claimed_side is Side.UPPER:
        viol = lambda r: complete_e(r) - spec.evaluate(r)
    else:
        raise ConfigurationError("claimed side must be LOWER or UPPER")
    rs = grid_open_unit(scan)
    vs = [viol(r) for r in rs]
    i = max(range(len(rs)), key=lambda k: vs[k])
    lo = rs[i - 1] if i > 0 else rs[0]
    hi = rs[i + 1] if i + 1 < len(rs) else rs[-1]
    return _golden_max(viol, lo, hi)


# --------------------------------------------------------------------------
# Named verification suites (consumed by the CLI and the acceptance tests).

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def run_lemma_suite(grid_points: int = 10_000) -> list[CheckResult]:
    """Monotonicity sweeps for every auxiliary function, the two-sided
    threshold inequality on a p-grid, and the sign-case classification
    sample."""
    out: list[CheckResult] = []
    plan = [("lemma22_%d" % i, None) for i in range(1, 8)]
    plan.append(("lemma23_g", None))
    plan += [("lemma24_h", {"p": p}) for p in (0.5, 0.75, 1.0, 1.5, 2.0)]
    plan.append(("lemma27_F", None))
    for fn, params in plan:
        rep = sweep_monotone(fn, grid=grid_points, params=params)
        sd = _SWEEPS[fn]
        ok = rep.worst_violation == 0.0 and rep.left_error <= sd.left_tol
        if rep.divergent_right:
            right_txt = "right=divergent"
        else:
            ok = ok and rep.right_error <= sd.right_tol
            right_txt = f"right_err={_fmt(rep.right_error)}(tol {_fmt(sd.right_tol)})"
        out.append(CheckResult(
            name=rep.name,
            passed=ok,
            detail=(f"dir={rep.direction.value} worst_violation={_fmt(rep.worst_violation)} "
                    f"left_err={_fmt(rep.left_error)}(tol {_fmt(sd.left_tol)}) {right_txt} "
                    f"grid={rep.grid_size}"),
        ))

    margins = [lemma25_check(0.5 + 1.5 * i / 99.0) for i in range(100)]
    worst_lo = min(mg.lower_margin for mg in margins)
    worst_hi = min(mg.upper_margin for mg in margins)
    out.append(CheckResult(
        name="lemma25 threshold gaps",
        passed=worst_lo > 0.0 and worst_hi > 0.0,
        detail=f"min lower_margin={_fmt(worst_lo)} min upper_margin={_fmt(worst_hi)} over 100 p-values",
    ))

    sample = lemma26_case_sample()
    bad = []
    for u, p, expected in sample:
        rep = lemma26_classify(u, p)
        if rep.case_id is not expected:
            bad.append((u, p, expected.value, rep.case_id.value))
        elif rep.case_id is SignCase.POSITIVE_THEN_NEGATIVE and not (0.0 < rep.eta < 1.0):
            bad.append((u, p, "eta in (0,1)", rep.eta))
    out.append(CheckResult(
        name="lemma26 sign cases",
        passed=not bad,
        detail=f"{len(sample) - len(bad)}/{len(sample)} (u,p) samples classified as predicted"
               + (f"; first mismatch {bad[0]}" if bad else ""),
    ))
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
    """Validity of every sharp-constant family on the grid, then the
    falsifiers: each sharp constant perturbed by 1e-3 into the invalid
    region must produce a located violation."""
    out: list[CheckResult] = []
    rs = grid_open_unit(grid_points)
    es = [complete_e(r) for r in rs]
    for spec in default_candidates():
        side = spec.side
        worst = -math.inf
        at = rs[0]
        for r, e in zip(rs, es):
            v = spec.evaluate(r) - e if side is Side.LOWER else e - spec.evaluate(r)
            if v > worst:
                worst, at = v, r
        out.append(CheckResult(
            name=f"valid {side.value} bound: {spec.label}",
            passed=worst <= _VALIDITY_SLACK,
            detail=f"max signed violation {_fmt(worst)} at r={_fmt(at)} "
                   f"(slack {_fmt(_VALIDITY_SLACK)}, grid={grid_points})",
        ))
    for name, spec, side in _falsifier_plan():
        r, v = search_violation(spec, side)
        out.append(CheckResult(
            name=f"falsify {name}",
            passed=v > _SOLID,
            detail=f"violation {_fmt(v)} located at r={_fmt(r)}",
        ))
    return out


def run_remarks_suite(grid_points: int = 10_000) -> list[CheckResult]:
    """The bound-comparison claims: the coincidence identity, the quadratic
    upper-bound identity, global dominance over the classical lower bound,
    and the two crossover radii."""
    out: list[CheckResult] = []
    rs = grid_open_unit(grid_points)

    worst41 = max(abs(alzer_qiu_upper(r) - thm11_bound(r, ALPHA_STAR)) for r in rs)
    out.append(CheckResult(
        name="remark 4.1 coincidence",
        passed=worst41 < 1e-15,
        detail=f"max |alzer_qiu - thm11(alpha_star)| = {_fmt(worst41)} (tol 1e-15)",
    ))

    coeff = 1.0 - 8.0 / (_PI * _PI)
    worst42 = 0.0
    for x in rs:
        lhs = (1.0 + x * x) - ((MU_STAR + (1.0 - MU_STAR) * x) ** 2
                               + ((1.0 - MU_STAR) + MU_STAR * x) ** 2)
        worst42 = max(worst42, abs(lhs - coeff * (1.0 - x) ** 2))
    out.append(CheckResult(
        name="remark 4.2 identity",
        passed=worst42 < 1e-14,
        detail=f"max residual {_fmt(worst42)} (tol 1e-14)",
    ))

    cor_lo = BoundSpec(Family.COR31_LOWER)
    vuo = BoundSpec(Family.VUORINEN)
    min_gap = math.inf
    min_gap_mid = math.inf
    for r in rs:
        gap = cor_lo.evaluate(r) - vuorinen_lower(r)
        min_gap = min(min_gap, gap)
        if r >= 0.1:
            min_gap_mid = min(min_gap_mid, gap)
    out.append(CheckResult(
        name="remark 4.5 dominance",
        passed=min_gap >= -_VALIDITY_SLACK and min_gap_mid > 0.0,
        detail=f"min(cor31_lower - vuorinen) = {_fmt(min_gap)} on grid, "
               f"{_fmt(min_gap_mid)} on r >= 0.1",
    ))

    cross1 = find_crossover(BoundSpec(Family.COR31_UPPER), BoundSpec(Family.ALZER_QIU))
    ok1 = isinstance(cross1, CrossoverResult) and 0.0 < cross1.delta < 1.0 \
        and cross1.better_near_one.family is Family.COR31_UPPER
    out.append(CheckResult(
        name="remark 4.3 crossover (cor31-upper vs alzer-qiu)",
        passed=ok1,
        detail=(f"delta1={cross1.delta:.12g} r*={cross1.r_cross:.12g}"
                if isinstance(cross1, CrossoverResult) else "no crossover found"),
    ))

    cross2 = find_crossover(BoundSpec(Family.THM11, q=BETA_STAR), vuo)
    ok2 = isinstance(cross2, CrossoverResult) and 0.0 < cross2.delta < 1.0 \
        and cross2.better_near_one.family is Family.THM11
    out.append(CheckResult(
        name="remark 4.4 crossover (thm11 lower vs vuorinen)",
        passed=ok2,
        detail=(f"delta2={cross2.delta:.12g} r*={cross2.r_cross:.12g}"
                if isinstance(cross2, CrossoverResult) else "no crossover found"),
    ))
    return out


SUITE_NAMES = ("lemmas", "sharpness", "remarks", "all")


def run_suite(name: str, grid_points: int = 10_000) -> list[CheckResult]:
    if name == "lemmas":
        return run_lemma_suite(grid_points)
    if name == "sharpness":
        return run_sharpness_suite(grid_points)
    if name == "remarks":
        return run_remarks_suite(grid_points)
    if name == "all":
        return (run_lemma_suite(grid_points) + run_sharpness_suite(grid_points)
                + run_remarks_suite(grid_points))
    raise ConfigurationError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
