"""Complete elliptic integrals via the AGM, with the Toader mean and the
ellipse perimeter built on top.

Evaluation route: K(r) = pi / (2 agm(1, r')) and the defect-sum formula
E(r) = K(r) * (1 - sum_n 2^(n-1) c_n^2), where c_0 = r and c_n is half the
gap (a_{n-1} - b_{n-1}) / 2 of the AGM iteration.  The iteration converges
quadratically, so full double precision is reached in at most ~8 rounds for
any r in [0, 1).

Everything here is a pure function of its inputs; the value types are frozen
records (``_record``), so results can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
import sys

from .errors import ConfigurationError, DivergenceError, DomainError

__all__ = [
    "HALF_PI",
    "Modulus",
    "EllipticValues",
    "MeanPair",
    "DerivativeResiduals",
    "as_modulus",
    "agm",
    "elliptic_ke",
    "complete_k",
    "complete_e",
    "ellipse_perimeter",
    "toader_mean",
    "derivative_residuals",
    "landen_residual",
]

HALF_PI = math.pi / 2.0

_EPS = math.ulp(1.0)
_TINY = sys.float_info.min
_HUGE = sys.float_info.max
# Quadratic convergence makes 40 iterations unreachable for any r in [0, 1);
# the cap stops only a gap that never closes: r' = 0, or a nan or infinite one.
_AGM_MAX_ITER = 40
# the AGM stops once |a_n - b_n| <= _AGM_TOL a_n
_AGM_TOL = 4.0 * _EPS
# _agm_ke's weight 2^(n-3) before round n is below this for the first _AGM_MAX_ITER rounds
_AGM_W_CAP = 2.0 ** (_AGM_MAX_ITER - 2)


def _complement(r: float) -> float:
    return math.sqrt((1.0 - r) * (1.0 + r))


def _float(value: object) -> float:
    # float(value), or nan, which every range check rejects, for a non-number
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _radius(value: object, open_: bool = False) -> float:
    # the one range check on a radius: a float is its own r, a Modulus gives
    # its r, anything else goes through _float; open_ narrows [0, 1] to (0, 1)
    r = value if value.__class__ is float else value.r if isinstance(value, Modulus) else _float(value)
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"modulus must lie in [0, 1], got {value!r}")
    if open_ and not (0.0 < r < 1.0):
        raise DomainError(f"defined on the open interval (0, 1) only, got r={r!r}; "
                          "use the analytic limit values at the endpoints")
    return r


# (low, high, low end open, high end open) per parameter, keyed by the name its
# message starts with; the lemma 2.4 exponent stops at _HUGE / 8, up to which h
# (< 4.21 p on (0, 1)), 4p and 4p - 1 stay finite
_RANGES = {"q": (0.0, 0.5, True, False), "t": (0.5, 1.0, False, False), "p": (0.5, 2.0, False, False),
           "u": (0.0, 1.0, False, False), "lemma 2.4 exponent p": (0.5, _HUGE / 8.0, False, False),
           "ellipse aspect ratio": (0.0, 1.0, True, True), "step size": (0.0, 1e-3, True, False)}


def _param(name: str, value: object) -> float:
    # float(value), or DomainError if it lies outside the range of parameter name
    lo, hi, lo_open, hi_open = _RANGES[name]
    x = _float(value)
    if not ((lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi)):
        raise DomainError(f"{name} must lie in {'(' if lo_open else '['}{lo:.17g}, "
                          f"{hi:.17g}{')' if hi_open else ']'}, got {value!r}")
    return x


def _size(n: object, least: int = 2, what: str = "grid needs") -> int:
    # the one check on a grid size, made before any table lookup; what starts
    # the message for a size below least
    if not isinstance(n, numbers.Integral):
        raise ConfigurationError(f"grid size must be an integer, got {n!r}")
    if n < least:
        raise ConfigurationError(f"{what} at least {least} points, got {n!r}")
    return int(n)


def _frozen(self, name: str, *value: object) -> None:
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _record(cls: type | None = None, /, *, derived: str = "", hidden: str = "") -> type:
    """Make cls a frozen value class over its annotated fields, as dataclass(frozen=True)
    does, without importing dataclasses.  __init__ takes the fields not in derived, with
    their class defaults (a dict default is a fresh dict per call), and then calls
    __post_init__, which sets fields through object.__setattr__; __eq__ (same class only),
    __hash__ and __repr__ cover the fields not in hidden."""
    if cls is None:
        return lambda cls: _record(cls, derived=derived, hidden=hidden)
    init = [n for n in cls.__annotations__ if n not in derived.split()]
    shown = [n for n in cls.__annotations__ if n not in hidden.split()]
    ns = {f"_{n}": getattr(cls, n) for n in init if hasattr(cls, n)}
    ns["_object_setattr"] = object.__setattr__
    # a generated __init__, one store per field: a loop over the arguments is slower, and
    # a store into vars(self) would move the fields into a dict that every read then pays for
    params = [f"{n}=_{n}" if f"_{n}" in ns else n for n in init]
    values = [f"{n} if {n} is not _{n} else {{}}" if type(ns.get(f"_{n}")) is dict else n for n in init]
    sets = [f"_object_setattr(self, {n!r}, {v})" for n, v in zip(init, values)]
    post = ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    exec(f"def __init__(self, {', '.join(params)}):\n {'; '.join(sets + post)}\n"
         f"def key(self):\n return ({''.join(f'self.{n}, ' for n in shown)})", ns)
    key, fmt = ns["key"], ", ".join(f"{n}={{!r}}" for n in shown)
    cls.__init__, cls.__match_args__ = ns["__init__"], tuple(init)
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__eq__ = lambda self, other: (key(self) == key(other) if other.__class__ is self.__class__
                                      else NotImplemented)
    cls.__hash__ = lambda self: hash(key(self))
    cls.__repr__ = lambda self: f"{type(self).__qualname__}({fmt.format(*key(self))})"
    return cls


@_record(derived="r_comp")
class Modulus:
    """A modulus r in [0, 1] with its cached complement r' = sqrt(1 - r^2).

    The complement is evaluated as sqrt((1 - r) * (1 + r)), which avoids the
    cancellation in 1 - r^2 near r = 1 and keeps ~15 digits there.
    """

    r: float
    r_comp: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _radius(self.r))
        object.__setattr__(self, "r_comp", _complement(self.r))


@_record
class EllipticValues:
    """The pair (K(r), E(r)) produced by one reference evaluation."""

    k_val: float
    e_val: float


@_record
class MeanPair:
    """A pair of positive reals fed to a bivariate mean."""

    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = _float(self.a), _float(self.b)
        if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"mean arguments must be positive finite, got {self.a!r}, {self.b!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def as_modulus(value: Modulus | float) -> Modulus:
    """Coerce a float in [0, 1] (or pass through a Modulus)."""
    if isinstance(value, Modulus):
        return value
    return Modulus(value)


def agm(a: float, b: float) -> float:
    """Common limit of a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n).

    The result lies in [min(a, b), max(a, b)].  Iteration stops once
    |a_n - b_n| <= 4 eps a_n.
    """
    pair = MeanPair(a, b)
    x, y = pair.a, pair.b
    for _ in range(_AGM_MAX_ITER):
        if abs(x - y) <= _AGM_TOL * x:
            break
        # halves before the sum, and sqrt(x) sqrt(y) where x y leaves the
        # normal range: both equal the plain forms everywhere else
        xy = x * y
        root = math.sqrt(xy) if _TINY <= xy <= _HUGE else math.sqrt(x) * math.sqrt(y)
        x, y = 0.5 * x + 0.5 * y, root
    return x


def _agm_ke(r: float, r_comp: float) -> tuple[float, float]:
    # K and E from one AGM run; K diverges at r = 1.
    if r == 1.0:
        raise DivergenceError("K(r) diverges as r -> 1")
    sqrt, a, b = math.sqrt, 1.0, r_comp
    # round n adds 2^(n-1) c_n^2 as w d^2, w = 2^(n-3) and d the gap before it: the same bits, as d is 0
    # or far above the subnormals; "not <=" keeps a nan gap going, so a nan r' gives (nan, nan)
    csum, w, d = 0.5 * r * r, 0.25, a - b
    while not abs(d) <= _AGM_TOL * a and w < _AGM_W_CAP:
        csum += w * d * d
        w *= 2.0
        a, b = 0.5 * (a + b), sqrt(a * b)
        d = a - b
    k = HALF_PI / a  # pi / (2 a) to the last bit, as halving pi is exact
    return k, k * (1.0 - csum)


def _row(r: float) -> tuple[float, float, float, float]:
    # the row (r, r', K, E) of a radius already known to lie in [0, 1], for the
    # verify tables and the residual checks; a point call runs _agm_ke itself
    rc = _complement(r)
    return (r, rc, *_agm_ke(r, rc))


def elliptic_ke(m: Modulus | float) -> EllipticValues:
    """Evaluate K(r) and E(r) together from a single AGM run, r in [0, 1)."""
    r = _radius(m)
    return EllipticValues(*_agm_ke(r, _complement(r)))


def complete_k(m: Modulus | float) -> float:
    """Complete elliptic integral of the first kind, K(r) = pi/(2 agm(1, r')).

    Strictly increasing on [0, 1) with K(0) = pi/2.  r = 1 raises
    DivergenceError rather than returning an infinity, so enclosure code
    cannot silently propagate one.
    """
    r = _radius(m)
    return _agm_ke(r, _complement(r))[0]


def complete_e(m: Modulus | float) -> float:
    """Complete elliptic integral of the second kind, E(r).

    Strictly decreasing from E(0) = pi/2 to E(1) = 1; the endpoint r = 1 is
    returned exactly as 1.0.
    """
    r = _radius(m)
    # E(1) = 1 exactly; ellipse_perimeter's modulus rounds to 1 for aspect ratios below ~1e-8
    return 1.0 if r == 1.0 else _agm_ke(r, _complement(r))[1]


def ellipse_perimeter(r: float) -> float:
    """Arc length of the ellipse with semiaxes 1 and r, i.e. 4 E(sqrt(1-r^2)).

    Defined for r in (0, 1); the value decreases from 2 pi (circle, r -> 1)
    to 4 (degenerate segment, r -> 0).
    """
    return 4.0 * complete_e(_complement(_param("ellipse aspect ratio", r)))


def toader_mean(a: float, b: float) -> float:
    """Toader mean T(a, b) = (2/pi) integral of sqrt(a^2 cos^2 + b^2 sin^2).

    Computed through E: T(a, b) = 2 a E(sqrt(1 - (b/a)^2)) / pi for a > b,
    symmetrically for a < b, and T(a, a) = a.  Symmetric and homogeneous of
    degree one.
    """
    pair = MeanPair(a, b)
    x, y = pair.a, pair.b
    if x == y:
        return x
    if x < y:
        x, y = y, x
    inner = _complement(y / x)
    # homogeneous of degree one: scaling x to its mantissa keeps 2 x E finite
    frac, k = math.frexp(x)
    return math.ldexp(2.0 * frac * complete_e(inner) / math.pi, k)


@_record
class DerivativeResiduals:
    """Absolute gaps between central differences and the closed-form
    derivatives of K, E, E - r'^2 K, and K - E."""

    dk: float
    de: float
    d_e_minus_rc2k: float
    d_k_minus_e: float

    @property
    def worst(self) -> float:
        return max(self.dk, self.de, self.d_e_minus_rc2k, self.d_k_minus_e)


def derivative_residuals(m: Modulus | float, h: float = 1e-5) -> DerivativeResiduals:
    """Check the derivative identities dK/dr = (E - r'^2 K)/(r r'^2),
    dE/dr = (E - K)/r, d(E - r'^2 K)/dr = r K, d(K - E)/dr = r E / r'^2
    against central differences with step h.  Each residual is O(h^2).
    """
    r = _radius(m)
    h = _param("step size", h)
    inv2h = 1.0 / (2.0 * h)
    # a step below half an ulp of r leaves r +/- h at r, and one below
    # ~2.8e-309 overflows 1/(2h): the differences would be 0 * inf = nan
    if not (h < r < 1.0 - h and r - h < r < r + h and inv2h < math.inf):
        raise DomainError(f"stencil r +/- h must stay inside (0, 1) and move r; r={r!r}, h={h!r}")

    (_, rc_lo, k_lo, e_lo), (_, rc_hi, k_hi, e_hi) = _row(r - h), _row(r + h)
    _, rc, k, e = _row(r)
    rc2 = rc * rc
    dk_num = (k_hi - k_lo) * inv2h
    de_num = (e_hi - e_lo) * inv2h
    dem_num = ((e_hi - rc_hi * rc_hi * k_hi) - (e_lo - rc_lo * rc_lo * k_lo)) * inv2h
    dkme_num = ((k_hi - e_hi) - (k_lo - e_lo)) * inv2h

    return DerivativeResiduals(
        dk=abs(dk_num - (e - rc2 * k) / (r * rc2)),
        de=abs(de_num - (e - k) / r),
        d_e_minus_rc2k=abs(dem_num - r * k),
        d_k_minus_e=abs(dkme_num - r * e / rc2),
    )


def landen_residual(m: Modulus | float) -> float:
    """Residual |E(2 sqrt(r)/(1+r)) - (2E(r) - r'^2 K(r))/(1+r)| of the
    ascending Landen identity; stays below 1e-12 across (0, 1)."""
    r, rc, k, e = _row(_radius(m, True))
    rhs = (2.0 * e - rc * rc * k) / (1.0 + r)
    lifted = 2.0 * math.sqrt(r) / (1.0 + r)
    # near r = 1 the lifted modulus rounds to 1, where E(1) = 1
    lhs = _row(lifted)[3] if lifted < 1.0 else 1.0
    return abs(lhs - rhs)
