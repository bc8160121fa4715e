"""verify's expression table run in exact series: every claimed r -> 0+ limit
is the constant term of its row's value, and every cancelling column's
Maclaurin coefficients are its row's."""

import math
from fractions import Fraction

import mpmath
import pytest

from ellipbounds.bounds import _u_thresholds
from ellipbounds.core import HALF_PI
from ellipbounds.verify import _EXPRESSIONS, _P_SAMPLE, _SERIES, _SWEEPS

import exact_series
from exact_series import E, K, R, RC, constant_term, run


def _columns():
    # the leaves, then each cancelling column from its row in table order, as _Table builds them
    columns = {"r": R, "rc": RC, "k": K, "e": E}
    for name in _SERIES:
        columns[name] = run(_EXPRESSIONS["_" + name], columns)
    return columns


COLUMNS = _columns()
# every sweep of the lemma suite, h once per sampled exponent p
SWEPT = [(fn, sd.check(dict.fromkeys(sd.params, p))) for fn, sd in _SWEEPS.items()
         for p in (_P_SAMPLE if sd.params else [None])]


@pytest.mark.parametrize("fn,params", SWEPT, ids=[fn + "".join(f"-{k}={v:g}" for k, v in params.items())
                                                  for fn, params in SWEPT])
def test_claimed_left_limit_is_the_constant_term(fn, params):
    # no negative power of r, and the constant term c pi^g within one ulp of the claimed limit
    sd = _SWEEPS[fn]
    value = run(_EXPRESSIONS[sd.fn.__name__], COLUMNS, **params)
    claimed = sd.limits(params)[0]
    with mpmath.workdps(50):
        exact = sum(mpmath.mpf(c.numerator) / c.denominator * mpmath.pi**g
                    for g, c in constant_term(value).items())
        assert abs(mpmath.mpf(claimed) - exact) <= math.ulp(claimed), (claimed, exact)


@pytest.mark.parametrize("p", _P_SAMPLE)
def test_log_ratio_vanishes_at_zero(p):
    # f of lemma 2.6 at both sharp u-thresholds of p
    for u in _u_thresholds(p):
        assert constant_term(run(_EXPRESSIONS["_l26_f"], COLUMNS, u=u, p=p)) == {0: 0}


@pytest.mark.parametrize("name", _SERIES)
def test_series_coefficients_are_the_rows(name):
    # the column's value is (pi/2)^g times a series in x = r^2 whose first coefficients are, exactly,
    # the ones the table evaluates below the cutoff
    _, unit, coeffs = _SERIES[name]
    g, s = COLUMNS[name].one_grade()
    assert unit == math.prod([HALF_PI] * g)
    assert s.prec >= 2 * len(coeffs) and all(n % 2 == 0 for n in s.c)
    assert [s.c.get(2 * n, Fraction(0)) * 2**g for n in range(len(coeffs))] == list(map(Fraction, coeffs))


def test_namespace_refuses_what_it_does_not_cover():
    with pytest.raises(ValueError):
        (R + 2.0) ** 0.5
    with pytest.raises(ValueError):
        exact_series.NAMESPACE["math"].log1p(R + 1.0)
    with pytest.raises(ValueError):
        R / (exact_series.NAMESPACE["_PI"] + 1.0)
    with pytest.raises(ZeroDivisionError):
        R / (K - K)
