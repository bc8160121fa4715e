"""An exact namespace for the expression tables: truncated Laurent series in r
with rational coefficients, graded by the power of pi.

A Value is a sum over grades g of pi^g times a Laurent series in r.  Each
series knows its coefficients below its precision, the exponent of its
O(r^prec) remainder (math.inf for a polynomial), and every operation keeps
only the precision it can vouch for, so cancellation shows up as a raised
valuation and never as a guessed coefficient.  The leaves are r, r' =
(1 - r^2)^(1/2), K and E from their hypergeometric coefficients, and pi/2, pi
and pi^2 as graded units; `math` is a shim with the sqrt and log1p the tables
call.  A table row runs here unchanged through `run`, and the constant term
of its value is its r -> 0+ limit, exactly.

Supported: + - * between values and exact floats, division by an exact
float or a value of one grade, rational powers of a series whose constant
term is 1, and log1p of a series with no constant term.  Anything else
raises.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count
from types import SimpleNamespace
from typing import Iterator

# the precision, in powers of r, of every series that is not a polynomial
ORDER = 24


class Laurent:
    """sum of c[n] r^n over the known powers n < prec, zero coefficients dropped."""

    def __init__(self, c: dict[int, Fraction], prec: float = math.inf) -> None:
        self.prec = prec
        self.c = {n: x for n, x in c.items() if x and n < prec}

    def val(self) -> float:
        return min(self.c, default=self.prec)

    def __add__(self, other: Laurent) -> Laurent:
        c = dict(self.c)
        for n, x in other.c.items():
            c[n] = c.get(n, 0) + x
        return Laurent(c, min(self.prec, other.prec))

    def __mul__(self, other: Laurent) -> Laurent:
        prec = min(self.prec + other.val(), other.prec + self.val())
        c: dict[int, Fraction] = {}
        for i, x in self.c.items():
            for j, y in other.c.items():
                if i + j < prec:
                    c[i + j] = c.get(i + j, 0) + x * y
        return Laurent(c, prec)

    def scale(self, f: Fraction) -> Laurent:
        return Laurent({n: x * f for n, x in self.c.items()}, self.prec)

    def inverse(self) -> Laurent:
        v = self.val()
        if v >= self.prec:
            raise ZeroDivisionError("division by a series with no known nonzero coefficient")
        lead = self.c[v]
        if len(self.c) == 1 and self.prec == math.inf:
            return Laurent({-v: 1 / lead})
        # 1 / (lead r^v (1 + d_1 r + ...)) to the relative precision self knows, ORDER for a polynomial
        rel = min(self.prec, v + ORDER) - v
        d = [self.c.get(v + k, 0) / lead for k in range(rel)]
        inv = [Fraction(1)]
        for k in range(1, rel):
            inv.append(-sum(d[j] * inv[k - j] for j in range(1, k + 1)))
        return Laurent({k - v: x / lead for k, x in enumerate(inv)}, rel - v)

    def _series(self, coeffs: Iterator[Fraction]) -> Laurent:
        # sum of a_n x^n over n >= 0 for the a_n of coeffs and x = self, which has no constant term;
        # a polynomial x counts as a series of the standard precision, as the sum has no last term
        x = Laurent(self.c, min(self.prec, ORDER))
        if x.val() < 1:
            raise ValueError("a power series needs an argument with no constant term")
        out, power = Laurent({}, x.prec), Laurent({0: Fraction(1)})
        while power.val() < out.prec:
            out, power = out + power.scale(next(coeffs)), power * x
        return out

    def power(self, q: Fraction) -> Laurent:
        if self.c.get(0) != 1:
            raise ValueError("a rational power needs a series with constant term 1")
        return Laurent({n: x for n, x in self.c.items() if n}, self.prec)._series(accumulate(
            count(), lambda b, n: b * (q - n) / (n + 1), initial=Fraction(1)))

    def log1p(self) -> Laurent:
        return self._series(Fraction((-1) ** (n + 1), n) if n else Fraction(0) for n in count())


class Value:
    """sum of pi^g times grades[g] over the grades g."""

    def __init__(self, grades: dict[int, Laurent]) -> None:
        self.grades = grades

    @staticmethod
    def of(x: Value | float) -> Value:
        # a float is exact in binary: the rational it equals, as a polynomial of grade 0
        return x if isinstance(x, Value) else Value({0: Laurent({0: Fraction(x)})})

    def one_grade(self) -> tuple[int, Laurent]:
        if len(self.grades) != 1:
            raise ValueError(f"expected a value of one grade, got grades {sorted(self.grades)}")
        return next(iter(self.grades.items()))

    def __add__(self, other: Value | float) -> Value:
        grades = dict(self.grades)
        for g, s in Value.of(other).grades.items():
            grades[g] = grades[g] + s if g in grades else s
        return Value(grades)

    __radd__ = __add__

    def __neg__(self) -> Value:
        return Value({g: s.scale(Fraction(-1)) for g, s in self.grades.items()})

    def __sub__(self, other: Value | float) -> Value:
        return self + -Value.of(other)

    def __rsub__(self, other: float) -> Value:
        return Value.of(other) + -self

    def __mul__(self, other: Value | float) -> Value:
        grades: dict[int, Laurent] = {}
        other = Value.of(other)
        for g, s in self.grades.items():
            for h, t in other.grades.items():
                grades[g + h] = grades[g + h] + s * t if g + h in grades else s * t
        return Value(grades)

    __rmul__ = __mul__

    def __truediv__(self, other: Value | float) -> Value:
        g, s = Value.of(other).one_grade()
        return self * Value({-g: s.inverse()})

    def __pow__(self, q: float) -> Value:
        g, s = self.one_grade()
        if g:
            raise ValueError("a rational power of a graded unit is not covered")
        return Value({0: s.power(Fraction(q))})

    def log1p(self) -> Value:
        g, s = self.one_grade()
        if g:
            raise ValueError("log1p of a graded unit is not covered")
        return Value({0: s.log1p()})


def _hypergeometric() -> list[Fraction]:
    # the coefficients ((1/2)_n / n!)^2 of 2K/pi in x = r^2, below the standard precision
    c = [Fraction(1)]
    for n in range(1, (ORDER + 1) // 2):
        c.append(c[-1] * Fraction((2 * n - 1) ** 2, (2 * n) ** 2))
    return c


R = Value({0: Laurent({1: Fraction(1)})})
RC = (1.0 - R * R) ** 0.5
K = Value({1: Laurent({2 * n: cn / 2 for n, cn in enumerate(_hypergeometric())}, ORDER)})
E = Value({1: Laurent({2 * n: cn / (2 - 4 * n) for n, cn in enumerate(_hypergeometric())}, ORDER)})

# the names the tables read besides their columns and parameters
NAMESPACE = {
    "math": SimpleNamespace(sqrt=lambda x: x**0.5, log1p=Value.log1p),
    "HALF_PI": Value({1: Laurent({0: Fraction(1, 2)})}),
    "_PI": Value({1: Laurent({0: Fraction(1)})}),
    "_PI2": Value({2: Laurent({0: Fraction(1)})}),
}


def run(row: tuple[str, dict[str, str], str], columns: dict[str, Value], **params: float) -> Value:
    """The value of one table row (params, {argument: expression}, body) at the given columns and
    parameters: its arguments in order, then its body, each expression evaluated unchanged."""
    names, args, body = row
    if set(params) != set(filter(None, names.split(", "))):
        raise ValueError(f"row takes parameters ({names}), got {sorted(params)}")
    ns = {**NAMESPACE, **columns, **params}
    for arg, expr in args.items():
        ns[arg] = eval(expr, ns)
    return eval(body, ns)


def constant_term(value: Value) -> dict[int, Fraction]:
    """The coefficient of r^0 at each grade, once no grade has a negative power of r
    and every grade knows its constant term; else ValueError."""
    for g, s in value.grades.items():
        if s.val() < 0 or s.prec <= 0:
            raise ValueError(f"grade {g} has valuation {s.val()} and precision {s.prec}")
    return {g: s.c.get(0, Fraction(0)) for g, s in value.grades.items()}
