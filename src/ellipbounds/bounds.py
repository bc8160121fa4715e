"""Closed-form bound families for E(r) with their sharp constants, plus a
best-enclosure combiner.

Five families are implemented:

* ``vuorinen``  lower bound (pi/2) ((1 + r'^(3/2)) / 2)^(2/3)
* ``barnard``   upper bound (pi/2) ((1 + r'^2) / 2)^(1/2), which is ``thm11``
  at q = 1/2 (bit for bit in floating point)
* ``alzer-qiu`` upper bound (pi/4) (sqrt(1 - a r^2) + sqrt(1 - b r^2))
* ``thm11``     two-square-root family, parameter q in (0, 1/2]
* ``thm12``     blended contraharmonic/arithmetic family, parameters
  t in [1/2, 1] and p in [1/2, 2]; ``cor31-lower``/``cor31-upper`` are its
  fixed-constant instances (t, p) = (lambda*, 2) and (mu*, 1/2)

Each family is one row of ``_FAMILIES``: its kernel, parameter names, fixed
arguments and side rule.  A parametric family is a valid lower or upper
bound only on one side of its sharp constant; ``BoundSpec.side`` classifies
with the non-strict comparisons under which the constants are sharp.

Sharp constants (30-digit reference values, from scripts/print_sharp_constants.py):

=============  ==================================  ================================
name           closed form                         value
=============  ==================================  ================================
BETA_STAR      1/2 - 2 sqrt(2 (pi^2 - 8)) / pi^2   0.108149767335905848073816460112
ALPHA_STAR     1/2 - sqrt(2)/4                     0.146446609406726237799577818948
ALZER_BETA     1/2 + sqrt(2)/4                     0.853553390593273762200422181052
LAMBDA_STAR    1/2 + sqrt(2)/8                     0.676776695296636881100211090526
MU_STAR        1/2 + sqrt((4/pi)^2 - 1)/2          0.894061841046999989493157818631
=============  ==================================  ================================

``ALZER_ALPHA`` is another name for ``ALPHA_STAR``.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from operator import is_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import HALF_PI, MeanPair, Modulus, _agm_ke, _complement, _param, _radius, _record
from .errors import ConfigurationError, InvalidBoundError

__all__ = [
    "BETA_STAR",
    "ALPHA_STAR",
    "ALZER_ALPHA",
    "ALZER_BETA",
    "LAMBDA_STAR",
    "MU_STAR",
    "SharpConstants",
    "SHARP",
    "Side",
    "Family",
    "BoundSpec",
    "Enclosure",
    "thm12_lower_threshold",
    "thm12_upper_threshold",
    "vuorinen_lower",
    "barnard_upper",
    "alzer_qiu_upper",
    "thm11_bound",
    "thm12_bound",
    "corollary31",
    "q_mean",
    "best_enclosure",
    "default_candidates",
    "parse_bound_spec",
]

_PI = math.pi
_QUARTER_PI = _PI / 4.0
TWO_THIRDS = 2.0 / 3.0

BETA_STAR = 0.5 - 2.0 * math.sqrt(2.0 * (_PI * _PI - 8.0)) / (_PI * _PI)
ALPHA_STAR = 0.5 - math.sqrt(2.0) / 4.0
ALZER_ALPHA = ALPHA_STAR
ALZER_BETA = 0.5 + math.sqrt(2.0) / 4.0
LAMBDA_STAR = 0.5 + math.sqrt(2.0) / 8.0
MU_STAR = 0.5 + math.sqrt((4.0 / _PI) ** 2 - 1.0) / 2.0


@_record
class SharpConstants:
    """The named sharp constants, bundled for introspection."""

    beta_star: float = BETA_STAR
    alpha_star: float = ALPHA_STAR
    lambda_star: float = LAMBDA_STAR
    mu_star: float = MU_STAR
    alzer_alpha: float = ALZER_ALPHA
    alzer_beta: float = ALZER_BETA


SHARP = SharpConstants()

_SYMBOLIC = {
    "beta_star": BETA_STAR,
    "alpha_star": ALPHA_STAR,
    "lambda_star": LAMBDA_STAR,
    "mu_star": MU_STAR,
}


def _u_thresholds(p: float) -> tuple[float, float]:
    # the sharp u-thresholds 1/(4p) < (4/pi)^(1/p) - 1 of lemmas 2.5-2.6, p validated
    return 1.0 / (4.0 * p), (4.0 / _PI) ** (1.0 / p) - 1.0


def _t_thresholds(p: float) -> tuple[float, float]:
    # thm12's sharp t-thresholds 1/2 + sqrt(u)/2 at both u-thresholds, p validated
    u1, u2 = _u_thresholds(p)
    return 0.5 + math.sqrt(u1) / 2.0, 0.5 + math.sqrt(u2) / 2.0


def thm12_lower_threshold(p: float) -> float:
    """Largest t for which the t-parametrised family is a lower bound."""
    return _t_thresholds(_param("p", p))[0]


def thm12_upper_threshold(p: float) -> float:
    """Smallest t for which the t-parametrised family is an upper bound."""
    return _t_thresholds(_param("p", p))[1]


# Kernels: each distinct closed form as its parameters, the r-free arguments they give (name: expression)
# and one expression in those arguments, r and rc (r' with r in (0, 1) validated), compiled by one exec
# into name_args(*params), which BoundSpec calls once, at construction; the scalar kernel
# name(*args, r, rc), which BoundSpec._at binds to those; and the column kernel name_col(*args, rs, rcs),
# one list comprehension with no frame per value.  Each (x := ...) is a temporary, so both kernels make
# the same flops in the same order.  Every literal is exact in binary; a value that is not is a name.
_KERNELS = {
    "_vuorinen": ("", {}, "HALF_PI * ((1.0 + rc**1.5) / 2.0) ** TWO_THIRDS"),
    "_alzer_qiu": ("", {}, "_QUARTER_PI * (math.sqrt(1.0 - ALZER_ALPHA * (r2 := r * r))"
                           " + math.sqrt(1.0 - ALZER_BETA * r2))"),
    "_thm11": ("q", {"q": "q", "q1": "1.0 - q"},
               "_QUARTER_PI * (math.sqrt(q + q1 * (rc2 := rc * rc)) + math.sqrt(q1 + q * rc2))"),
    "_thm12": ("t, p", {"t": "t", "t1": "1.0 - t", "c": "2.0 ** (p - 2.0) * _PI", "e": "1.0 - 2.0 * p", "p": "p"},
               "c * (1.0 + rc) ** e * ((x := t + t1 * rc) * x + (y := t1 + t * rc) * y) ** p"),
}
# module attributes under their own names, so that a pickled BoundSpec._at finds its kernel
exec("".join(f"def {name}_args({params}):\n return [{', '.join(args.values())}]\n"
             f"def {name}({', '.join([*args, 'r, rc'])}):\n return {expr}\n"
             f"def {name}_col({', '.join([*args, 'rs, rcs'])}):\n return [{expr} for r, rc in zip(rs, rcs)]\n"
             for name, (params, args, expr) in _KERNELS.items()), globals())
_ARGS = {globals()[name]: globals()[name + "_args"] for name in _KERNELS}
_COLUMN = {globals()[name]: globals()[name + "_col"] for name in _KERNELS}


def vuorinen_lower(m: Modulus | float) -> float:
    """Lower bound (pi/2) ((1 + r'^(3/2)) / 2)^(2/3); tends to 2^(-5/3) pi
    as r -> 1."""
    return _NAMED["vuorinen"].evaluate(m)


def barnard_upper(m: Modulus | float) -> float:
    """Upper bound (pi/2) ((1 + r'^2) / 2)^(1/2), i.e. thm11 at q = 1/2."""
    return _NAMED["barnard"].evaluate(m)


def alzer_qiu_upper(m: Modulus | float) -> float:
    """Upper bound (pi/4) (sqrt(1 - a r^2) + sqrt(1 - b r^2)) with
    a = 1/2 - sqrt(2)/4 and b = 1/2 + sqrt(2)/4."""
    return _NAMED["alzer-qiu"].evaluate(m)


def thm11_bound(m: Modulus | float, q: float) -> float:
    """The two-square-root family
    (pi/4) (sqrt(q + (1-q) r'^2) + sqrt((1-q) + q r'^2)) for q in (0, 1/2].

    Lower bound of E iff q <= BETA_STAR, upper bound iff q >= ALPHA_STAR.
    """
    return BoundSpec(Family.THM11, q=q).evaluate(m)


def thm12_bound(m: Modulus | float, t: float, p: float) -> float:
    """The blended-mean family
    2^(p-2) pi (1 + r')^(1-2p) ([t + (1-t) r']^2 + [(1-t) + t r']^2)^p
    for t in [1/2, 1], p in [1/2, 2].

    Lower bound of E iff t <= thm12_lower_threshold(p), upper bound iff
    t >= thm12_upper_threshold(p).
    """
    return BoundSpec(Family.THM12, t=t, p=p).evaluate(m)


class Side(Enum):
    LOWER = "lower"
    UPPER = "upper"
    INVALID = "invalid"


class Family(Enum):
    __hash__ = object.__hash__  # members are singletons: identity agrees with equality, and hashes in C
    VUORINEN = "vuorinen"
    BARNARD = "barnard"
    ALZER_QIU = "alzer-qiu"
    THM11 = "thm11"
    THM12 = "thm12"
    COR31_LOWER = "cor31-lower"
    COR31_UPPER = "cor31-upper"


class _Row(NamedTuple):
    """One family: ``kernel(*args, r, r')`` with the args ``_ARGS[kernel]`` gives for the
    spec's ``params`` or else ``fixed``; a fixed ``side``, or else the first parameter classifies
    against ``thresholds(*other params)``, listed as defaults at ``sharp_at``."""

    kernel: Callable[..., float]
    params: tuple[str, ...] = ()
    fixed: tuple[float, ...] = ()
    side: Side | None = None
    thresholds: Callable[..., tuple[float, float]] | None = None
    threshold_names: tuple[str, str] = ("", "")
    sharp_at: tuple[tuple[float, ...], ...] = ()


# Parameter names are listed in BoundSpec field order (q, t, p).
_FAMILIES = {
    Family.VUORINEN: _Row(_vuorinen, side=Side.LOWER),
    Family.BARNARD: _Row(_thm11, fixed=(0.5,), side=Side.UPPER),
    Family.ALZER_QIU: _Row(_alzer_qiu, side=Side.UPPER),
    Family.THM11: _Row(_thm11, ("q",), thresholds=lambda: (BETA_STAR, ALPHA_STAR),
                       threshold_names=("beta_star", "alpha_star"), sharp_at=((),)),
    Family.THM12: _Row(_thm12, ("t", "p"), thresholds=_t_thresholds, sharp_at=((0.5,), (1.0,), (2.0,)),
                       threshold_names=("thm12_lower_threshold(p)", "thm12_upper_threshold(p)")),
    Family.COR31_LOWER: _Row(_thm12, fixed=(LAMBDA_STAR, 2.0), side=Side.LOWER),
    Family.COR31_UPPER: _Row(_thm12, fixed=(MU_STAR, 0.5), side=Side.UPPER),
}
# each fixed-constant family's kernel with its arguments bound, resolved once, at import
_FIXED_AT = {family: partial(row.kernel, *_ARGS[row.kernel](*row.fixed))
             for family, row in _FAMILIES.items() if not row.params}
# the names of the parameters a spec gives, in field order, keyed by which of q, t and p are not None
_GIVEN = {(q, t, p): ("q",) * q + ("t",) * t + ("p",) * p
          for q in (False, True) for t in (False, True) for p in (False, True)}
# the sides as globals for the per-call paths, where a global read costs a tenth of an enum attribute's
_LOWER, _UPPER, _INVALID = Side


@_record
class BoundSpec:
    """One bound family plus its parameters.

    ``side`` classifies against the sharp constants with the non-strict
    inequalities under which they are stated; parameters strictly between
    the two thresholds give Side.INVALID.  The kernel, its arguments and
    the side are resolved once, at construction, into ``_at``, ``_args``
    and ``_side``, which are not fields; ``_at(r, r')`` is the scalar kernel
    with its arguments bound (a ``functools.partial``, shared by every spec
    of a fixed-constant family and bound at import), and ``_values``
    hands ``_at.args`` to the matching column kernel for whole columns.
    """

    family: Family
    q: float | None = None
    t: float | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        row = _FAMILIES.get(self.family)
        if row is None:
            raise ConfigurationError(f"unknown bound family {self.family!r}")
        q, t, p = self.q, self.t, self.p
        given = _GIVEN[q is not None, t is not None, p is not None]
        if given != row.params:
            foreign = [n for n in given if n not in row.params]
            if foreign:
                raise ConfigurationError(f"{self.family.value} takes no parameter(s) {foreign}")
            missing = [n for n in row.params if n not in given]
            raise ConfigurationError(f"{self.family.value} needs parameter(s) {missing}")
        if given:
            # given is the row's parameters: (q,) for thm11 or (t, p) for thm12, each checked in its range
            args = (_param("q", q),) if q is not None else (_param("t", t), _param("p", p))
            lo, hi = row.thresholds(*args[1:])
            side = _LOWER if args[0] <= lo else _UPPER if args[0] >= hi else _INVALID
            at = partial(row.kernel, *_ARGS[row.kernel](*args))
        else:
            args, side, at = row.fixed, row.side, _FIXED_AT[self.family]
        object.__setattr__(self, "_at", at)
        object.__setattr__(self, "_args", args)
        object.__setattr__(self, "_side", side)

    @property
    def side(self) -> Side:
        return self._side

    @property
    def label(self) -> str:
        params = _FAMILIES[self.family].params
        if not params:
            return self.family.value
        return self.family.value + ":" + ",".join(f"{n}={v:.17g}" for n, v in zip(params, self._args))

    def evaluate(self, m: Modulus | float) -> float:
        r = _radius(m, True)
        return self._at(r, _complement(r))


@_record(hidden="values")
class Enclosure:
    """An interval lo <= E(r) <= hi in exact arithmetic, with the specs that
    produced each endpoint, and every candidate's value in candidate order.
    It is not yet certified: the float endpoints are not widened for
    rounding, so at ulp level they can miss E, or cross each other where both
    sides collapse onto E (r near 0)."""

    lo: float
    hi: float
    lo_source: BoundSpec
    hi_source: BoundSpec
    values: tuple[float, ...] = ()

    @property
    def width(self) -> float:
        return self.hi - self.lo


def corollary31(m: Modulus | float) -> Enclosure:
    """The fixed-constant enclosure: lower bound at (t, p) = (lambda*, 2),
    upper bound at (mu*, 1/2)."""
    return best_enclosure(m, [_NAMED["cor31-lower"], _NAMED["cor31-upper"]])


def q_mean(a: float, b: float, t: float, p: float) -> float:
    """The mean C^p(t a + (1-t) b, t b + (1-t) a) * A^(1-p)(a, b), with
    A the arithmetic and C the contraharmonic mean.

    Symmetric, homogeneous of degree one, equal to A at t = 1/2, and
    strictly increasing in t on [1/2, 1] for a != b.
    """
    pair = MeanPair(a, b)
    t, p = _param("t", t), _param("p", p)
    # homogeneous of degree one: outside [2^-400, 2^400] scale the arguments
    # by a power of two so that the squares below stay in the normal range
    top = max(pair.a, pair.b)
    k = 0 if 2.0**-400 <= top <= 2.0**400 else math.frexp(top)[1]
    a, b = math.ldexp(pair.a, -k), math.ldexp(pair.b, -k)
    x = t * a + (1.0 - t) * b
    y = t * b + (1.0 - t) * a
    arith = 0.5 * (a + b)
    contra = (x * x + y * y) / (x + y)
    try:
        return math.ldexp(contra**p * arith ** (1.0 - p), k)
    except OverflowError:  # for p > 1 the mean can exceed both arguments
        return math.inf


def _sharp_specs() -> Iterator[BoundSpec]:
    for family, row in _FAMILIES.items():
        if row.thresholds is None:
            yield BoundSpec(family)
        for rest in row.sharp_at:
            for x in row.thresholds(*rest):
                yield BoundSpec(family, **dict(zip(row.params, (x, *rest))))


_DEFAULTS = tuple(_sharp_specs())


def default_candidates() -> list[BoundSpec]:
    """Every family at its sharp constants: the three classical bounds,
    thm11 at both thresholds, thm12 at both thresholds for p in
    {1/2, 1, 2}, and the two fixed-constant instances.  Returns a new list
    on each call."""
    return list(_DEFAULTS)


def best_enclosure(m: Modulus | float, candidates: list[BoundSpec]) -> Enclosure:
    """Tightest enclosure over the candidate specs: max of the lower bounds,
    min of the upper bounds, with the winning spec recorded per side."""
    r = _radius(m, True)
    rc = _complement(r)
    # the default list itself, its specs checked by identity, takes one fused function; any other list,
    # equal ones included, the general path
    if candidates.__class__ is list and len(candidates) == len(_DEFAULTS) and all(map(is_, candidates, _DEFAULTS)):
        return _enclose_defaults(r, rc)
    lows, ups = _split(candidates)
    values = [spec._at(r, rc) for spec in candidates]
    # the first maximum (minimum) in candidate order, among that side only
    lo, hi = max(lows, key=values.__getitem__), min(ups, key=values.__getitem__)
    return Enclosure(values[lo], values[hi], candidates[lo], candidates[hi], tuple(values))


def _enclose_defaults(r: float, rc: float) -> Enclosure:
    # best_enclosure on the list of _DEFAULTS, compiled from _KERNELS on its first call into one function
    # that takes this one's place: it evaluates each distinct (kernel, args) once, as _values does, with the
    # arguments unpacked from the specs' own _at.args, then takes the first maximum of the lower and the
    # first minimum of the upper values in candidate order (_split(_DEFAULTS)) by the comparisons that
    # max and min make
    global _enclose_defaults
    keys = [(spec._at.func.__name__, spec._at.args) for spec in _DEFAULTS]
    slot = {key: f"v{j}" for j, key in enumerate(dict.fromkeys(keys))}
    code = [(f"{', '.join(_KERNELS[name][1])} = {s}_args; " if args else "") + f"{s} = {_KERNELS[name][2]}"
            for (name, args), s in slot.items()]
    v = [slot[key] for key in keys]
    (lo, *lows), (hi, *ups) = _split(_DEFAULTS)
    code.append(f"lo, hi, lo_at, hi_at = {v[lo]}, {v[hi]}, {lo}, {hi}")
    code += [f"if {v[i]} > lo: lo, lo_at = {v[i]}, {i}" for i in lows]
    code += [f"if {v[i]} < hi: hi, hi_at = {v[i]}, {i}" for i in ups]
    code.append(f"return Enclosure(lo, hi, _DEFAULTS[lo_at], _DEFAULTS[hi_at], ({', '.join(v)}))")
    namespace = {**globals(), **{f"{s}_args": args for (_, args), s in slot.items()}}
    exec("def _enclose_defaults(r, rc):\n " + "\n ".join(code), namespace)
    _enclose_defaults = namespace["_enclose_defaults"]
    return _enclose_defaults(r, rc)


def _split(candidates: list[BoundSpec]) -> tuple[list[int], ...]:
    # the indices of the lower and of the upper candidates, or the first
    # reason the list gives no enclosure
    if not isinstance(candidates, (list, tuple)):
        raise ConfigurationError(f"candidates must be a list or tuple of BoundSpec, got {candidates!r}")
    if not candidates:
        raise ConfigurationError("no candidate bounds given")
    lower, invalid = _LOWER, _INVALID
    split = lows, ups = [], []
    for i, spec in enumerate(candidates):
        try:
            side = spec._side
        except AttributeError:
            raise ConfigurationError(f"candidate {spec!r} is not a BoundSpec") from None
        if side is invalid:
            raise InvalidBoundError(f"{spec.label} lies on neither valid side of its sharp "
                                    "constants: " + _sharpness_hint(spec))
        (lows if side is lower else ups).append(i)
    for idx, side in zip(split, ("lower", "upper")):
        if not idx:
            raise ConfigurationError(f"candidate list has no {side} bound")
    return split


def _columns(rs: list[float], candidates: list[BoundSpec], split: tuple[list[int], ...]) -> list:
    # best_enclosure's rows as columns r, E, each candidate's value, lo and hi,
    # for radii already known to lie in (0, 1) and split = _split(candidates)
    rcs = list(map(_complement, rs))
    cols = _values(candidates, rs, rcs, {})
    # the first column repeated keeps max and min at two arguments or more
    lows, ups = ([cols[i] for i in (*idx, idx[0])] for idx in split)
    return [rs, [e for _, e in map(_agm_ke, rs, rcs)], *cols, list(map(max, *lows)), list(map(min, *ups))]


def _values(specs: Iterable[BoundSpec], rs: Sequence[float], rcs: Sequence[float], found: dict) -> list[list[float]]:
    # each spec's column kernel at each (r, r'), run only for a (kernel, args) not yet in found, which keeps
    # each column under that key: cor31-lower is thm12 at (t1*(2), 2) bit for bit, and cor31-upper thm12 at
    # (t2*(1/2), 1/2)
    keys = [(spec._at.func, spec._at.args) for spec in specs]
    for key in keys:
        if key not in found:
            found[key] = _COLUMN[key[0]](*key[1], rs, rcs)
    return [found[key] for key in keys]


_A_BOUND = {Side.LOWER: "a lower bound", Side.UPPER: "an upper bound"}


def _sharpness_hint(spec: BoundSpec) -> str:
    # what the classified parameter of a parametric spec gives, and the side rule
    row = _FAMILIES[spec.family]
    name, x, rest = row.params[0], spec._args[0], spec._args[1:]
    lo, hi = row.thresholds(*rest)
    lo_name, hi_name = row.threshold_names
    verdict = f"gives {_A_BOUND[spec._side]}" if spec._side in _A_BOUND else "is inside the gap"
    given = "".join(f" for {n}={v:.17g}" for n, v in zip(row.params[1:], rest))
    return (f"{name}={x:.17g} {verdict}{given}; {name} <= {lo_name}={lo:.17g} gives a lower "
            f"bound, {name} >= {hi_name}={hi:.17g} an upper bound")


def _parse_params(text: str, where: str) -> dict[str, float]:
    params: dict[str, float] = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigurationError(f"bad parameter {item!r} in {where!r}; expected name=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in params:
            raise ConfigurationError(f"repeated parameter {key!r} in {where!r}")
        if raw in _SYMBOLIC:
            params[key] = _SYMBOLIC[raw]
        else:
            try:
                params[key] = float(raw)
            except ValueError:
                raise ConfigurationError(f"bad value {raw!r} for {key!r} in {where!r}") from None
    return params


# Spec names: every family, plus name-lower/name-upper for each parametric one.
_NAMES: dict[str, tuple[Family, Side | None]] = {f.value: (f, None) for f in Family}
_NAMES.update({f"{f.value}-{s.value}": (f, s) for f, row in _FAMILIES.items()
               if row.thresholds is not None for s in (Side.LOWER, Side.UPPER)})
# The names that need no parameter, each mapped to its prebuilt spec: a fixed family, or the
# -lower/-upper alias of a one-parameter family, which defaults that parameter to its threshold.
_NAMED = {name: next(spec for spec in _DEFAULTS if spec.family is family and (want is None or spec._side is want))
          for name, (family, want) in _NAMES.items() if len(_FAMILIES[family].params) == (want is not None)}


def parse_bound_spec(text: str) -> BoundSpec:
    """Parse the family mini-grammar ``name[:param=value[,param=value]]``.

    Recognised names: vuorinen, barnard, alzer-qiu, thm11, thm11-lower,
    thm11-upper, thm12, thm12-lower, thm12-upper, cor31-lower, cor31-upper.
    Values may be numeric or one of the symbolic constants beta_star,
    alpha_star, lambda_star, mu_star.  A parameter may appear once, and only
    if the family takes it.  The -lower/-upper aliases default the missing
    parameter to the matching sharp constant and reject parameters that
    classify on the other side.  A name that needs no parameter (a fixed
    family, thm11-lower or thm11-upper) returns the shared prebuilt spec
    that default_candidates() lists, which is safe because specs are frozen.
    A text that is not a string raises ConfigurationError.
    """
    try:
        name, _, rest = text.strip().partition(":")
    except (AttributeError, TypeError):
        raise ConfigurationError(f"bound spec must be a string, got {text!r}") from None
    name = name.strip().lower()
    if not rest:
        spec = _NAMED.get(name)
        if spec is not None:
            return spec
    params = _parse_params(rest, text) if rest else {}
    try:
        family, want = _NAMES[name]
    except KeyError:
        raise ConfigurationError(f"unknown bound family {name!r}") from None
    unknown = sorted(set(params) - {"q", "t", "p"})
    if unknown:
        raise ConfigurationError(f"unknown parameter(s) {unknown} for {name!r}")
    row = _FAMILIES[family]
    if want is not None and row.params[0] not in params:
        missing = [n for n in row.params[1:] if n not in params]
        if missing:
            raise ConfigurationError(f"{name} needs parameter(s) {missing}")
        rest_args = [_param(n, params[n]) for n in row.params[1:]]
        params[row.params[0]] = row.thresholds(*rest_args)[0 if want is Side.LOWER else 1]
    spec = BoundSpec(family, **params)
    if want is not None and spec.side is not want:
        raise InvalidBoundError(f"{text!r} does not give {_A_BOUND[want]}: " + _sharpness_hint(spec))
    return spec
