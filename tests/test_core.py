import math
import re
import sys

import mpmath
import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipbounds import (
    DivergenceError,
    DomainError,
    EllipBoundsError,
    EllipticValues,
    Modulus,
    agm,
    complete_e,
    complete_k,
    derivative_residuals,
    ellipse_perimeter,
    elliptic_ke,
    landen_residual,
    lemma24_h,
    lemma26_f,
    thm11_bound,
    thm12_bound,
    thm12_lower_threshold,
    toader_mean,
)
from ellipbounds import core
from ellipbounds.core import _RANGES, _param, _radius, _row
from oracles import mp_agm, quad_e, quad_k

HALF_PI = math.pi / 2.0
EPS = math.ulp(1.0)


class TestAgm:
    def test_fixed_point(self):
        assert agm(1.0, 1.0) == 1.0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_identity_case(self, x):
        assert agm(x, x) == pytest.approx(x, rel=1e-15)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
    def test_between_and_symmetric(self, a, b):
        v = agm(a, b)
        assert min(a, b) <= v <= max(a, b)
        assert agm(b, a) == pytest.approx(v, rel=1e-15)

    def test_against_extended_precision_iteration(self):
        assert abs(agm(1.0, 0.5) - mp_agm(1.0, 0.5, iters=20)) < 1e-14

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0),
                                     (float("nan"), 1.0), (float("inf"), 1.0),
                                     (None, 1.0), ("x", 1.0)])
    def test_domain_errors(self, a, b):
        with pytest.raises(DomainError):
            agm(a, b)


class TestModulus:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_complement_invariant(self, r):
        m = Modulus(r)
        assert 0.0 <= m.r_comp <= 1.0
        assert abs(m.r * m.r + m.r_comp * m.r_comp - 1.0) <= math.ulp(1.0)

    def test_complement_near_one(self):
        # sqrt((1-r)(1+r)) keeps precision where 1 - r^2 cancels
        import mpmath
        m = Modulus(1.0 - 1e-12)
        with mpmath.workdps(40):
            exact = float(mpmath.sqrt((1 - mpmath.mpf(m.r)) * (1 + mpmath.mpf(m.r))))
        assert m.r_comp == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("r", [-0.1, 1.0000001, float("nan"), 2.0, None, "x"])
    def test_rejects_out_of_range(self, r):
        with pytest.raises(DomainError):
            Modulus(r)

    def test_modulus_of_a_modulus_is_the_same_modulus(self):
        # a Modulus is an accepted radius wherever a float is, Modulus() included
        assert Modulus(Modulus(0.5)) == Modulus(0.5)
        assert Modulus(Modulus(1.0)).r_comp == 0.0

    @pytest.mark.parametrize("value,message", [
        (1.5, "modulus must lie in [0, 1], got 1.5"),
        ("x", "modulus must lie in [0, 1], got 'x'"),
        (-0.0, "defined on the open interval (0, 1) only, got r=-0.0; "
               "use the analytic limit values at the endpoints"),
        (1, "defined on the open interval (0, 1) only, got r=1.0; "
            "use the analytic limit values at the endpoints"),
        (Modulus(0.0), "defined on the open interval (0, 1) only, got r=0.0; "
                       "use the analytic limit values at the endpoints"),
    ])
    def test_one_check_closed_then_open(self, value, message):
        # the [0, 1] message comes first and names the argument as given; a
        # function on (0, 1) then names the radius as a float
        with pytest.raises(DomainError) as exc:
            landen_residual(value)
        assert str(exc.value) == message


class TestCompleteK:
    def test_zero(self):
        assert complete_k(0.0) == HALF_PI

    def test_divergence_at_one(self):
        with pytest.raises(DivergenceError, match=r"^K\(r\) diverges as r -> 1$"):
            complete_k(1.0)

    def test_against_quadrature(self):
        assert complete_k(0.5) == pytest.approx(quad_k(0.5), abs=1e-12)

    def test_increasing(self):
        grid = [i / 1000 for i in range(0, 1000)]
        vals = [complete_k(r) for r in grid]
        assert all(b - a > -1e-13 for a, b in zip(vals, vals[1:]))
        assert all(v >= HALF_PI for v in vals)


class TestCompleteE:
    def test_zero(self):
        assert complete_e(0.0) == HALF_PI

    def test_one_exact(self):
        assert complete_e(1.0) == 1.0

    def test_against_quadrature(self):
        assert complete_e(0.5) == pytest.approx(quad_e(0.5), abs=1e-12)

    def test_decreasing_and_range(self):
        grid = [i / 1000 for i in range(0, 1001)]
        vals = [complete_e(r) for r in grid]
        assert all(a - b > -1e-13 for a, b in zip(vals, vals[1:]))
        assert all(1.0 <= v <= HALF_PI for v in vals)

    @pytest.mark.parametrize("r", [None, "x", [0.5]])
    def test_rejects_non_numbers(self, r):
        with pytest.raises(DomainError):
            complete_e(r)

    @given(st.floats(min_value=0.0, max_value=0.999999))
    @settings(max_examples=50)
    def test_pair_invariants(self, r):
        ke = elliptic_ke(r)
        assert 1.0 <= ke.e_val <= HALF_PI
        assert ke.k_val >= HALF_PI
        assert ke.k_val >= ke.e_val


def _agm_ke_loop(r, r_comp):
    # the AGM kernel as a for loop over 40 rounds that tests and halves a - b
    # separately, its stop tolerance 4 eps: the reference for core._agm_ke
    sqrt, tol = math.sqrt, 4.0 * EPS
    a, b = 1.0, r_comp
    c = r
    csum = 0.5 * c * c
    pow2 = 1.0
    for _ in range(40):
        if abs(a - b) <= tol * a:
            break
        a, b, c = 0.5 * (a + b), sqrt(a * b), 0.5 * (a - b)
        csum += pow2 * c * c
        pow2 *= 2.0
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - csum)


# (r, r') at radii at the ends of [0, 1) and of the float range, then direct calls:
# the 40-round cap (r' = 0), a nan r' (which must give (nan, nan), not stop at
# once), a nan r, an r' of 1e-300 and an infinite r'
AGM_CALLS = [(r, core._complement(r)) for r in (0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0 - 2.0**-53)]
AGM_CALLS += [(0.5, 0.0), (0.5, math.nan), (math.nan, 0.5), (0.3, 1e-300), (0.9, math.inf)]


def _kernel_bits(r, rc):
    # (K, E) as hex from core._agm_ke and from the loop form
    return [[x.hex() for x in kernel(r, rc)] for kernel in (core._agm_ke, _agm_ke_loop)]


class TestAgmKernel:
    @given(st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                     st.integers(1, 53).map(lambda n: 1.0 - 2.0**-n),
                     st.floats(min_value=-1074.0, max_value=-1.0).map(lambda x: 2.0**x)))
    @settings(max_examples=500)
    def test_matches_the_loop_form_bit_for_bit(self, r):
        new, loop = _kernel_bits(r, core._complement(r))
        assert new == loop

    @pytest.mark.parametrize("r, rc", AGM_CALLS, ids=repr)
    def test_edge_calls_match_the_loop_form_bit_for_bit(self, r, rc):
        new, loop = _kernel_bits(r, rc)
        assert new == loop

    def test_nan_complement_gives_nan(self):
        assert all(map(math.isnan, core._agm_ke(0.5, math.nan)))


# The point calls run _agm_ke themselves; the row tuple _row gives the reference.
def _row_e(m):
    r = _radius(m)
    return 1.0 if r == 1.0 else _row(r)[3]


ROW_PATH = {
    "complete_e": _row_e,
    "complete_k": lambda m: _row(_radius(m))[2],
    "elliptic_ke": lambda m: EllipticValues(*_row(_radius(m))[2:]),
}


class _Sub(float):
    pass


def _bits(call, *args):
    # the value(s) call returns as hex, which tells -0.0 from 0.0, or its typed error and message
    try:
        value = call(*args)
    except EllipBoundsError as exc:
        return type(exc), str(exc)
    return [x.hex() for x in ((value.k_val, value.e_val) if isinstance(value, EllipticValues) else (value,))]


SCALAR_ARGS = [5e-324, 1e-300, 1e-8, 0.5, 1.0 - 2.0**-53, 0.0, -0.0, 1.0,
               Modulus(0.5), Modulus(-0.0), True, _Sub(0.5), numpy.float64(1e-8)]


@pytest.mark.parametrize("x", SCALAR_ARGS, ids=repr)
def test_scalar_calls_are_the_row_path(x, monkeypatch):
    # bit for bit, sign of zero included: E, K and (K, E) directly, and the
    # perimeter and the Toader mean through complete_e
    calls = {"ellipse_perimeter": ellipse_perimeter, "toader_mean": lambda b: toader_mean(1.0, b),
             "toader_mean swapped": lambda b: toader_mean(b, 1.0)}
    direct = {name: _bits(getattr(core, name), x) for name in ROW_PATH}
    through_e = {name: _bits(call, x) for name, call in calls.items()}
    monkeypatch.setattr(core, "complete_e", ROW_PATH["complete_e"])
    assert direct == {name: _bits(ref, x) for name, ref in ROW_PATH.items()}
    assert through_e == {name: _bits(call, x) for name, call in calls.items()}


def test_ordering_on_grid():
    # 1 < E(r) < pi/2 < K(r) on a 10^4-point grid inside (0, 1)
    for i in range(10_000):
        r = 1e-6 + i * (1 - 2e-6) / 9999
        ke = elliptic_ke(r)
        assert 1.0 < ke.e_val < HALF_PI < ke.k_val


def test_legendre_relation():
    # E(r) K(r') + E(r') K(r) - K(r) K(r') = pi/2 over [0.01, 0.99]
    for i in range(99):
        r = 0.01 + i * (0.98 / 98)
        m = Modulus(r)
        mc = Modulus(m.r_comp)
        lhs = (complete_e(m) * complete_k(mc) + complete_e(mc) * complete_k(m)
               - complete_k(m) * complete_k(mc))
        assert lhs == pytest.approx(HALF_PI, abs=1e-12)


def test_rprime_power_times_k_decays_toward_zero():
    # r'^0.1 K(r) -> 0 as r -> 1, but only logarithmically: the product
    # peaks near r' = 4 exp(-10) and is still ~3.86 at r = 1 - 1e-12 (it
    # cannot cross 0.5 for any double input, since that would need
    # r' < exp(-46)).  Verify the decay past the peak and pin the value.
    def prod(r):
        m = Modulus(r)
        return m.r_comp**0.1 * complete_k(m)

    p8, p12 = prod(1 - 1e-8), prod(1 - 1e-12)
    assert p8 > p12 > 0.0
    assert p12 == pytest.approx(3.8631, abs=1e-3)


class TestEllipsePerimeter:
    def test_circle_limit(self):
        assert ellipse_perimeter(1 - 1e-12) == pytest.approx(2 * math.pi, abs=1e-9)

    def test_segment_limit(self):
        assert ellipse_perimeter(1e-12) == 4.0

    def test_against_quadrature_and_muir(self):
        per = ellipse_perimeter(0.5)
        assert per == pytest.approx(4.0 * quad_e(math.sqrt(0.75)), abs=1e-11)
        muir = 2.0 * math.pi * ((1.0 + 0.5**1.5) / 2.0) ** (2.0 / 3.0)
        assert abs(per - muir) / per < 0.01

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.5, 1.5])
    def test_open_domain(self, r):
        with pytest.raises(DomainError):
            ellipse_perimeter(r)


class TestToaderMean:
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_diagonal(self, x):
        assert toader_mean(x, x) == x

    def test_homogeneity(self):
        assert abs(toader_mean(2.0, 1.0) - 2.0 * toader_mean(1.0, 0.5)) < 1e-13

    @given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=100)
    def test_symmetry(self, a, b):
        assert toader_mean(a, b) == toader_mean(b, a)

    def test_identity_with_complete_e(self):
        # E(r) = pi T(1, r') / 2
        for i in range(1, 100):
            r = i / 100
            m = Modulus(r)
            assert toader_mean(1.0, m.r_comp) == pytest.approx(
                2.0 * complete_e(m) / math.pi, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            toader_mean(-1.0, 2.0)
        with pytest.raises(DomainError):
            toader_mean(1.0, 0.0)
        with pytest.raises(DomainError):
            toader_mean(None, 1.0)


POSITIVE_DOUBLES = st.floats(min_value=5e-324, max_value=sys.float_info.max)


def mp_toader(a: float, b: float) -> float:
    """T(a, b) = 2 x E(sqrt(1 - (y/x)^2)) / pi with x = max, y = min, at 40 digits."""
    with mpmath.workdps(40):
        x, y = max(mpmath.mpf(a), mpmath.mpf(b)), min(mpmath.mpf(a), mpmath.mpf(b))
        return float(2 * x * mpmath.ellipe(1 - (y / x) ** 2) / mpmath.pi)


class TestMeansAtExtremeScales:
    # x y and 2 x E leave the double range here, the means themselves do not
    @pytest.mark.parametrize("a,b", [(1e-200, 2e-200), (1e200, 2e200), (5e-324, 1e308)])
    def test_agm_against_extended_precision(self, a, b):
        with mpmath.workdps(40):
            ref = float(mpmath.agm(mpmath.mpf(a), mpmath.mpf(b)))
        assert agm(a, b) == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("a,b", [(1e308, 1.5e308), (sys.float_info.max, 1.0)])
    def test_toader_against_extended_precision(self, a, b):
        assert toader_mean(a, b) == pytest.approx(mp_toader(a, b), rel=1e-14, abs=0.0)

    @given(POSITIVE_DOUBLES, POSITIVE_DOUBLES)
    @settings(max_examples=300)
    def test_agm_finite_and_between(self, a, b):
        v = agm(a, b)
        assert math.isfinite(v)
        assert min(a, b) <= v <= max(a, b)

    @given(POSITIVE_DOUBLES, POSITIVE_DOUBLES)
    @settings(max_examples=300)
    def test_toader_finite_and_between(self, a, b):
        # can sit an ulp outside [min, max] at any scale, hence the relative bound
        v = toader_mean(a, b)
        assert math.isfinite(v)
        assert min(a, b) * (1.0 - 4 * EPS) <= v <= max(a, b) * (1.0 + 4 * EPS)


class TestDerivativeResiduals:
    def test_midpoint(self):
        res = derivative_residuals(0.5, h=1e-5)
        assert res.worst < 1e-9

    def test_near_one(self):
        # truncation is O(h^2 K''') and K''' grows like r'^-4; the computed
        # residual at r = 0.9 is 1.70e-8, frozen here with headroom
        res = derivative_residuals(0.9, h=1e-5)
        assert res.worst < 2.5e-8
        assert res.de < 1e-9
        assert res.d_e_minus_rc2k < 1e-9

    def test_de_vanishes_near_zero(self):
        # dE/dr = (E - K)/r -> 0; the residual stays at stencil-noise level
        res = derivative_residuals(1e-3, h=1e-5)
        assert res.de < 1e-9

    def test_across_grid(self):
        for i in range(18):
            r = 0.05 + i * (0.80 / 17)
            assert derivative_residuals(r, h=1e-5).worst < 1e-8

    def test_stencil_domain(self):
        with pytest.raises(DomainError):
            derivative_residuals(1e-6, h=1e-5)
        with pytest.raises(DomainError):
            derivative_residuals(0.5, h=0.0)
        with pytest.raises(DomainError):
            derivative_residuals(0.5, h=0.01)

    @pytest.mark.parametrize("r,h", [(0.5, 5e-324), (0.5, 2.0**-55), (1e-300, 1e-310)])
    def test_stencil_must_resolve(self, r, h):
        # r +/- h rounds to r, which gave residuals equal to the closed-form
        # derivatives, or 1/(2h) overflows, which gave four nan residuals
        with pytest.raises(DomainError, match="move r"):
            derivative_residuals(r, h=h)


# computed before the residual checks read their rows from core._row, and
# frozen bit for bit: (r, (dk, de, d_e_minus_rc2k, d_k_minus_e), landen)
RESIDUALS_AT = [
    (0.01, (3.6763144611873244e-12, 2.7977637567788705e-12, 1.758833009790628e-11,
            8.76156786011606e-13), 0.0),
    (0.5, (1.2223511092201989e-10, 1.6715462347605126e-11, 5.843214800904661e-11,
           1.3895096184768363e-10), 4.440892098500626e-16),
    (0.99, (1.6625252364121934e-05, 8.292067699144923e-08, 8.372665538658453e-08,
            1.670816194376812e-05), 2.220446049250313e-16),
]


@pytest.mark.parametrize("r,derivs,landen", RESIDUALS_AT)
def test_residuals_frozen(r, derivs, landen):
    res = derivative_residuals(r)
    assert (res.dk, res.de, res.d_e_minus_rc2k, res.d_k_minus_e) == derivs
    assert landen_residual(r) == landen


class TestLandenResidual:
    @pytest.mark.parametrize("r", [0.25, 0.81])
    def test_spec_points(self, r):
        assert landen_residual(r) < 1e-12

    def test_vanishes_near_zero(self):
        assert landen_residual(1e-9) < 1e-12

    def test_grid(self):
        for i in range(2000):
            r = 1e-6 + i * (1 - 2e-6) / 1999
            assert landen_residual(r) < 1e-12

    @pytest.mark.parametrize("r,frozen", [(1 - 1e-9, 8.881784197001252e-16),
                                          (1 - 2.0**-53, 2.220446049250313e-15)])
    def test_near_one(self, r, frozen):
        # at 1 - 1e-9 the lifted modulus 2 sqrt(r)/(1+r) rounds to 1, where E = 1
        assert landen_residual(r) == frozen

    def test_domain(self):
        with pytest.raises(DomainError):
            landen_residual(0.0)


# --------------------------------------------------------------------------
# core._param, the one check on a bounded real parameter: every row of
# core._RANGES, at its ends, one ulp outside them and at non-numbers.

def _rejected(name, value):
    """_param(name, value) raises a DomainError whose message states the
    row's interval exactly and the value as given."""
    lo, hi, lo_open, hi_open = _RANGES[name]
    with pytest.raises(DomainError) as exc:
        _param(name, value)
    m = re.fullmatch(r"(.+) must lie in ([\[(])(\S+), (\S+)([\])]), got (.+)", str(exc.value))
    assert m is not None, str(exc.value)
    assert m.group(1, 2, 5, 6) == (name, "(" if lo_open else "[", ")" if hi_open else "]", repr(value))
    assert (float(m.group(3)), float(m.group(4))) == (lo, hi)


@pytest.mark.parametrize("name", _RANGES)
def test_param_ends(name):
    lo, hi, lo_open, hi_open = _RANGES[name]
    for end, is_open, outward in ((lo, lo_open, -math.inf), (hi, hi_open, math.inf)):
        if is_open:
            _rejected(name, end)
        else:
            assert _param(name, end) == end
        _rejected(name, math.nextafter(end, outward))
    assert _param(name, math.nextafter(lo, hi)) == math.nextafter(lo, hi)
    assert _param(name, math.nextafter(hi, lo)) == math.nextafter(hi, lo)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "x"], ids=repr)
@pytest.mark.parametrize("name", _RANGES)
def test_param_rejects_non_finite_and_non_numbers(name, value):
    _rejected(name, value)


# each public call's message, as the user sees it; the step size and the
# lemma 2.4 exponent messages print the row's ends with %.17g
@pytest.mark.parametrize("call, message", [
    (lambda: derivative_residuals(0.5, h=0.1), "step size must lie in (0, 0.001], got 0.1"),
    (lambda: lemma24_h(0.5, 0.3),
     "lemma 2.4 exponent p must lie in [0.5, 2.2471164185778946e+307], got 0.3"),
    (lambda: ellipse_perimeter(1.5), "ellipse aspect ratio must lie in (0, 1), got 1.5"),
    (lambda: thm11_bound(0.5, 0.7), "q must lie in (0, 0.5], got 0.7"),
    (lambda: thm12_bound(0.5, 0.4, 1.0), "t must lie in [0.5, 1], got 0.4"),
    (lambda: thm12_lower_threshold(3), "p must lie in [0.5, 2], got 3"),
    (lambda: lemma26_f(0.5, 1.5, 1.0), "u must lie in [0, 1], got 1.5"),
], ids=["step", "lemma24 p", "aspect", "q", "t", "p", "u"])
def test_param_messages(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
