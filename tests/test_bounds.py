import ast
import copy
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipbounds import (
    ALPHA_STAR,
    ALZER_ALPHA,
    ALZER_BETA,
    BETA_STAR,
    LAMBDA_STAR,
    MU_STAR,
    SHARP,
    BoundSpec,
    ConfigurationError,
    DomainError,
    Enclosure,
    Family,
    InvalidBoundError,
    Modulus,
    Side,
    alzer_qiu_upper,
    barnard_upper,
    best_enclosure,
    complete_e,
    corollary31,
    default_candidates,
    parse_bound_spec,
    q_mean,
    thm11_bound,
    thm12_bound,
    thm12_lower_threshold,
    thm12_upper_threshold,
    toader_mean,
    vuorinen_lower,
)
from ellipbounds import bounds, verify
from ellipbounds.bounds import _columns, _split
from ellipbounds.cli import GridSpec, Spacing
from ellipbounds.core import _complement

HALF_PI = math.pi / 2.0

# first computation, frozen as regression values
COR31_WIDTH_AT_HALF = 0.00045510062711651145


def grid(n=1000, eps=1e-6):
    return [eps + i * (1 - 2 * eps) / (n - 1) for i in range(n)]


# radii for the exact identities that the family table relies on
IDENTITY_RADII = [1e-300, 1e-8, 0.5, 1 - 1e-12] + grid(2000)


class TestSharpConstants:
    def test_against_extended_precision(self):
        with mpmath.workdps(40):
            pi = mpmath.pi
            refs = {
                "beta_star": mpmath.mpf(1) / 2 - 2 * mpmath.sqrt(2 * (pi**2 - 8)) / pi**2,
                "alpha_star": mpmath.mpf(1) / 2 - mpmath.sqrt(2) / 4,
                "alzer_alpha": mpmath.mpf(1) / 2 - mpmath.sqrt(2) / 4,
                "alzer_beta": mpmath.mpf(1) / 2 + mpmath.sqrt(2) / 4,
                "lambda_star": mpmath.mpf(1) / 2 + mpmath.sqrt(2) / 8,
                "mu_star": mpmath.mpf(1) / 2 + mpmath.sqrt((4 / pi) ** 2 - 1) / 2,
            }
            for name, ref in refs.items():
                got = getattr(SHARP, name)
                assert abs(got - float(ref)) <= 2 * math.ulp(float(ref)), name

    def test_ordering(self):
        assert 0.0 < BETA_STAR < ALPHA_STAR < 0.5 < LAMBDA_STAR < 1.0
        assert 0.5 < MU_STAR < 1.0

    def test_alzer_pair_sums_to_one(self):
        assert ALZER_ALPHA + ALZER_BETA == pytest.approx(1.0, abs=2e-16)

    def test_thresholds_ordered(self):
        for p in (0.5, 0.8, 1.0, 1.7, 2.0):
            assert 0.5 < thm12_lower_threshold(p) < thm12_upper_threshold(p) <= 1.0

    def test_cor31_constants_are_thm12_thresholds(self):
        assert LAMBDA_STAR == pytest.approx(thm12_lower_threshold(2.0), abs=2e-16)
        assert MU_STAR == pytest.approx(thm12_upper_threshold(0.5), abs=2e-16)

    # p = 0 divided by zero and p < 0 took a square root of a negative number
    @pytest.mark.parametrize("threshold", [thm12_lower_threshold, thm12_upper_threshold])
    @pytest.mark.parametrize("p", [0.0, -1.0, 0.49, 2.01, math.nan])
    def test_threshold_domain(self, threshold, p):
        with pytest.raises(DomainError):
            threshold(p)


class TestVuorinen:
    def test_limit_at_zero(self):
        assert vuorinen_lower(1e-9) == pytest.approx(HALF_PI, abs=1e-12)

    def test_limit_at_one(self):
        # approach rate is ~0.66 r'^(3/2), i.e. 1.1e-9 at r = 1 - 1e-12
        assert vuorinen_lower(1 - 1e-12) == pytest.approx(2.0 ** (-5.0 / 3.0) * math.pi, abs=1e-8)

    def test_below_e_with_small_gap(self):
        v = vuorinen_lower(0.5)
        e = complete_e(0.5)
        assert v < e
        assert e - v < 0.01

    def test_open_domain(self):
        for r in (0.0, 1.0):
            with pytest.raises(DomainError):
                vuorinen_lower(r)


class TestBarnard:
    def test_limits(self):
        assert barnard_upper(1e-9) == pytest.approx(HALF_PI, abs=1e-12)
        assert barnard_upper(1 - 1e-12) == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-6)

    def test_above_e(self):
        assert barnard_upper(0.5) > complete_e(0.5)


class TestAlzerQiu:
    def test_limits(self):
        assert alzer_qiu_upper(1e-9) == pytest.approx(HALF_PI, abs=1e-12)
        limit = math.pi / 8 * (math.sqrt(2 + math.sqrt(2)) + math.sqrt(2 - math.sqrt(2)))
        assert alzer_qiu_upper(1 - 1e-9) == pytest.approx(limit, abs=1e-8)

    def test_above_e(self):
        assert alzer_qiu_upper(0.5) > complete_e(0.5)

    def test_coincides_with_thm11_at_alpha(self):
        # same bound written two algebraically different ways
        for r in grid(500):
            assert abs(alzer_qiu_upper(r) - thm11_bound(r, ALZER_ALPHA)) < 1e-15


class TestThm11:
    def test_q_half_is_barnard(self):
        for r in IDENTITY_RADII:
            assert barnard_upper(r) == thm11_bound(r, 0.5)

    def test_beta_star_limit_at_one(self):
        assert thm11_bound(1 - 1e-12, BETA_STAR) == pytest.approx(1.0, abs=1e-11)

    def test_q_above_alpha_star_is_upper(self):
        spec = BoundSpec(Family.THM11, q=0.3)
        assert spec.side is Side.UPPER
        for r in grid(1000):
            assert thm11_bound(r, 0.3) > complete_e(r) - 1e-13

    @pytest.mark.parametrize("q", [0.0, -0.1, 0.50001, 1.0, "x"])
    def test_q_domain(self, q):
        with pytest.raises(DomainError):
            thm11_bound(0.5, q)

    def test_observed_monotone_increasing_in_q(self):
        # not asserted by the theorems; recorded as an observation
        r = 0.37
        vals = [thm11_bound(r, 0.01 + 0.49 * i / 99) for i in range(100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestThm12:
    @given(st.floats(min_value=0.5, max_value=1.0), st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=50)
    def test_limit_at_zero(self, t, p):
        assert thm12_bound(1e-9, t, p) == pytest.approx(HALF_PI, abs=1e-12)

    def test_lambda_p2_matches_quartic_form(self):
        # pi (1 + r')^-3 ([l + (1-l) r']^2 + [(1-l) + l r']^2)^2
        for r in (0.2, 0.5, 0.8, 0.99):
            m = Modulus(r)
            rc = m.r_comp
            x = LAMBDA_STAR + (1 - LAMBDA_STAR) * rc
            y = (1 - LAMBDA_STAR) + LAMBDA_STAR * rc
            direct = math.pi / (1 + rc) ** 3 * (x * x + y * y) ** 2
            assert thm12_bound(r, LAMBDA_STAR, 2.0) == pytest.approx(direct, rel=1e-15)

    def test_t_half_p_one_reduces_to_quarter_pi_times(self):
        # t = 1/2, p = 1 collapses to (pi/4)(1 + r'), a lower bound
        r = 0.6
        m = Modulus(r)
        reduced = math.pi / 4.0 * (1.0 + m.r_comp)
        assert thm12_bound(r, 0.5, 1.0) == pytest.approx(reduced, rel=1e-15)
        assert thm12_bound(r, 0.5, 1.0) < complete_e(r)
        assert BoundSpec(Family.THM12, t=0.5, p=1.0).side is Side.LOWER

    @pytest.mark.parametrize("t,p", [(0.4, 1.0), (1.1, 1.0), (0.7, 0.4), (0.7, 2.1)])
    def test_parameter_domain(self, t, p):
        with pytest.raises(DomainError):
            thm12_bound(0.5, t, p)


class TestCorollary31:
    def test_upper_limit_at_one(self):
        enc = corollary31(1 - 1e-12)
        assert enc.hi == pytest.approx(1.0, abs=1e-5)
        assert enc.hi > 1.0

    def test_collapses_at_zero(self):
        enc = corollary31(1e-9)
        assert enc.lo == pytest.approx(HALF_PI, abs=1e-12)
        assert enc.hi == pytest.approx(HALF_PI, abs=1e-12)

    def test_width_at_half(self):
        enc = corollary31(0.5)
        e = complete_e(0.5)
        assert enc.lo < e < enc.hi
        assert enc.width < 0.02
        assert enc.width == pytest.approx(COR31_WIDTH_AT_HALF, abs=1e-12)

    def test_sources(self):
        enc = corollary31(0.5)
        assert enc.lo_source.family is Family.COR31_LOWER
        assert enc.hi_source.family is Family.COR31_UPPER
        # the prebuilt specs, not a pair built per call
        assert enc.lo_source is bounds._NAMED["cor31-lower"]
        assert enc.hi_source is bounds._NAMED["cor31-upper"]

    def test_wrappers_are_the_prebuilt_specs(self):
        wrappers = {"vuorinen": vuorinen_lower, "barnard": barnard_upper, "alzer-qiu": alzer_qiu_upper}
        pair = [BoundSpec(Family.COR31_LOWER), BoundSpec(Family.COR31_UPPER)]
        for r in [5e-324, 1e-300, 1e-8, 0.5, 1.0 - 2.0**-53, Modulus(0.25)]:
            for name, wrapper in wrappers.items():
                assert wrapper(r).hex() == BoundSpec(Family(name)).evaluate(r).hex()
            enc, fresh = corollary31(r), best_enclosure(r, pair)
            assert (enc.lo.hex(), enc.hi.hex()) == (fresh.lo.hex(), fresh.hi.hex())
            assert enc == fresh and enc.values == fresh.values

    def test_instances_of_thm12(self):
        lo_spec, hi_spec = BoundSpec(Family.COR31_LOWER), BoundSpec(Family.COR31_UPPER)
        for r in IDENTITY_RADII:
            assert lo_spec.evaluate(r) == thm12_bound(r, LAMBDA_STAR, 2.0)
            assert hi_spec.evaluate(r) == thm12_bound(r, MU_STAR, 0.5)


class TestQMean:
    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.5, max_value=1.0),
           st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=50)
    def test_diagonal(self, x, t, p):
        assert q_mean(x, x, t, p) == pytest.approx(x, rel=1e-14)

    def test_t_half_is_arithmetic_mean(self):
        assert q_mean(3.0, 1.0, 0.5, 1.7) == pytest.approx(2.0, rel=1e-15)

    @given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50)
    def test_symmetry_and_homogeneity(self, a, b):
        assert q_mean(a, b, 0.8, 1.5) == pytest.approx(q_mean(b, a, 0.8, 1.5), rel=1e-14)
        assert q_mean(2 * a, 2 * b, 0.8, 1.5) == pytest.approx(2 * q_mean(a, b, 0.8, 1.5), rel=1e-14)

    def test_strictly_increasing_in_t(self):
        for p in (0.5, 1.0, 2.0):
            vals = [q_mean(2.0, 1.0, 0.5 + 0.5 * i / 99, p) for i in range(100)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_brackets_toader_mean(self, p):
        # at the p = 2 lower threshold the gap is O(r^12): below one ulp for
        # small r, hence the rounding slack there and strictness from 0.4 up
        t1, t2 = thm12_lower_threshold(p), thm12_upper_threshold(p)
        for r in (0.1, 0.4, 0.7, 0.95):
            m = Modulus(r)
            tm = toader_mean(1.0, m.r_comp)
            assert q_mean(1.0, m.r_comp, t1, p) <= tm + 1e-13
            assert tm <= q_mean(1.0, m.r_comp, t2, p) + 1e-13
            if r >= 0.4:
                assert q_mean(1.0, m.r_comp, t1, p) < tm < q_mean(1.0, m.r_comp, t2, p)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_mean(-1.0, 1.0, 0.8, 1.0)
        with pytest.raises(DomainError):
            q_mean(1.0, 1.0, 0.2, 1.0)

    # the squares of these arguments leave the double range, the mean does not
    @pytest.mark.parametrize("a,b,t,p", [(1e-200, 2e-200, 0.6, 1.0), (1e200, 2e200, 0.6, 1.0),
                                         (1e-300, 3e-300, 0.9, 2.0), (1e300, 3e300, 0.9, 0.5)])
    def test_extreme_scales_against_extended_precision(self, a, b, t, p):
        with mpmath.workdps(40):
            a_, b_, t_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(t)
            x, y = t_ * a_ + (1 - t_) * b_, t_ * b_ + (1 - t_) * a_
            ref = float(((x * x + y * y) / (x + y)) ** p * ((a_ + b_) / 2) ** (1 - p))
        assert q_mean(a, b, t, p) == pytest.approx(ref, rel=1e-14, abs=0.0)

    @given(st.floats(min_value=5e-324, max_value=sys.float_info.max / 4),
           st.floats(min_value=5e-324, max_value=sys.float_info.max / 4),
           st.floats(min_value=0.5, max_value=1.0), st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=300)
    def test_finite_and_bracketed_at_every_scale(self, a, b, t, p):
        # C^p A^(1-p) lies in [A, max^p A^(1-p)] and A >= max/2, so it stays
        # below max * 2^(p-1) for p > 1; relative bounds allow for rounding
        v = q_mean(a, b, t, p)
        assert math.isfinite(v)
        assert min(a, b) * (1.0 - 1e-15) <= v <= max(a, b) * max(1.0, 2.0 ** (p - 1.0)) * (1.0 + 1e-15)

    def test_overflow_is_inf(self):
        # for p > 1 the mean exceeds max(a, b) by up to 2^(p-1): past the double range it is inf
        assert q_mean(1.7e308, 1e-300, 1.0, 2.0) == math.inf


class TestBoundSpecSide:
    def test_unknown_family(self):
        # families are Family members; their text is parsed by parse_bound_spec
        with pytest.raises(ConfigurationError, match="^unknown bound family 'thm11'$"):
            BoundSpec("thm11", q=0.1)

    def test_thm11_classification(self):
        assert BoundSpec(Family.THM11, q=BETA_STAR).side is Side.LOWER
        assert BoundSpec(Family.THM11, q=BETA_STAR + 1e-15).side is Side.INVALID
        assert BoundSpec(Family.THM11, q=0.13).side is Side.INVALID
        assert BoundSpec(Family.THM11, q=ALPHA_STAR).side is Side.UPPER
        assert BoundSpec(Family.THM11, q=0.01).side is Side.LOWER

    def test_thm12_classification(self):
        for p in (0.5, 1.0, 2.0):
            t1, t2 = thm12_lower_threshold(p), thm12_upper_threshold(p)
            assert BoundSpec(Family.THM12, t=t1, p=p).side is Side.LOWER
            assert BoundSpec(Family.THM12, t=t2, p=p).side is Side.UPPER
            assert BoundSpec(Family.THM12, t=0.5 * (t1 + t2), p=p).side is Side.INVALID

    def test_fixed_families(self):
        assert BoundSpec(Family.VUORINEN).side is Side.LOWER
        assert BoundSpec(Family.COR31_UPPER).side is Side.UPPER

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            BoundSpec(Family.THM11)
        with pytest.raises(ConfigurationError):
            thm11_bound(0.5, None)
        with pytest.raises(DomainError):
            BoundSpec(Family.THM11, q="x")
        with pytest.raises(ConfigurationError):
            BoundSpec(Family.VUORINEN, q=0.1)
        with pytest.raises(DomainError):
            BoundSpec(Family.THM12, t=0.3, p=1.0)
        # a foreign parameter is reported before a missing one
        for family, params, message in [
            (Family.THM11, {"t": 0.7}, "thm11 takes no parameter(s) ['t']"),
            (Family.THM11, {"q": 0.1, "t": 0.7}, "thm11 takes no parameter(s) ['t']"),
            (Family.THM12, {"t": 0.9}, "thm12 needs parameter(s) ['p']"),
            (Family.THM12, {"q": 0.1}, "thm12 takes no parameter(s) ['q']"),
            (Family.THM12, {"p": 1.0}, "thm12 needs parameter(s) ['t']"),
            (Family.VUORINEN, {"q": 0.1, "p": 1.0}, "vuorinen takes no parameter(s) ['q', 'p']"),
        ]:
            with pytest.raises(ConfigurationError) as info:
                BoundSpec(family, **params)
            assert str(info.value) == message

    def test_rejects_q_on_thm12(self):
        # accepted once, after which .side raised "unclassifiable spec"
        with pytest.raises(ConfigurationError):
            BoundSpec(Family.THM12, t=0.9, p=1.0, q=0.1)

    def test_rejects_t_on_thm11(self):
        # accepted once, with the label of the different spec thm11:q=0.1
        with pytest.raises(ConfigurationError):
            BoundSpec(Family.THM11, q=0.1, t=0.7)


# the kernel with its arguments bound is a private field outside equality, so
# a spec still compares, hashes, copies and pickles by family and parameters
VALUE_SPECS = default_candidates() + [BoundSpec(Family.THM11, q=0.05),
                                      BoundSpec(Family.THM12, t=0.95, p=1.5)]


class TestBoundSpecValueType:
    def test_equality_and_hash(self):
        for spec in VALUE_SPECS:
            twin = BoundSpec(spec.family, q=spec.q, t=spec.t, p=spec.p)
            assert twin == spec
            assert hash(twin) == hash(spec)
        assert len(set(VALUE_SPECS)) == len(VALUE_SPECS)
        assert BoundSpec(Family.THM11, q=0.05) != BoundSpec(Family.THM11, q=0.06)

    @pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["deepcopy", "pickle"])
    def test_round_trip(self, copy_of):
        for spec in VALUE_SPECS:
            twin = copy_of(spec)
            assert twin == spec
            assert hash(twin) == hash(spec)
            assert repr(twin) == repr(spec)
            assert twin.side is spec.side
            assert twin.label == spec.label
            assert twin.evaluate(0.3) == spec.evaluate(0.3)


def _closed_form(spec: BoundSpec, r: float, rc: float) -> float:
    # each family's closed form, written out with every factor computed per call
    pi = math.pi
    if spec.family is Family.VUORINEN:
        return pi / 2.0 * ((1.0 + rc**1.5) / 2.0) ** (2.0 / 3.0)
    if spec.family is Family.ALZER_QIU:
        r2 = r * r
        return pi / 4.0 * (math.sqrt(1.0 - ALZER_ALPHA * r2) + math.sqrt(1.0 - ALZER_BETA * r2))
    if spec.family in (Family.BARNARD, Family.THM11):
        q = 0.5 if spec.family is Family.BARNARD else spec.q
        rc2 = rc * rc
        return pi / 4.0 * (math.sqrt(q + (1.0 - q) * rc2) + math.sqrt((1.0 - q) + q * rc2))
    t, p = {Family.COR31_LOWER: (LAMBDA_STAR, 2.0),
            Family.COR31_UPPER: (MU_STAR, 0.5)}.get(spec.family, (spec.t, spec.p))
    x = t + (1.0 - t) * rc
    y = (1.0 - t) + t * rc
    return 2.0 ** (p - 2.0) * pi * (1.0 + rc) ** (1.0 - 2.0 * p) * (x * x + y * y) ** p


@pytest.mark.parametrize("spec", VALUE_SPECS, ids=lambda s: s.label)
@pytest.mark.parametrize("r", [1e-300, 1e-8, 0.5, 1.0 - 2.0**-53])
def test_bound_kernel_is_the_closed_form_bit_for_bit(spec, r):
    # the r-free factors bound once per spec round exactly as the closed form's
    rc = math.sqrt((1.0 - r) * (1.0 + r))
    assert spec._at(r, rc).hex() == _closed_form(spec, r, rc).hex()


# each argument derivation and closed form of the bound kernel table and of verify's expression table, by
# row and argument name
KERNEL_SOURCES = {f"{name}:{arg}" if arg else name: source
                  for name, (_, args, expr) in [*bounds._KERNELS.items(), *verify._EXPRESSIONS.items()]
                  for arg, source in [*args.items(), ("", expr)]}
# a verify parameter or argument named as a column would shadow that column in the compiled comprehension
assert not {n for params, args, _ in verify._EXPRESSIONS.values()
            for n in [*params.split(", "), *args]} & {*verify._COLUMNS}
# the coefficient list of each verify._SERIES row, as the source writes it
_VERIFY_SOURCE = Path(verify.__file__).read_text()
KERNEL_SOURCES.update({f"series:{key.value}": ast.get_source_segment(_VERIFY_SOURCE, row.elts[2])
                       for node in ast.parse(_VERIFY_SOURCE).body if isinstance(node, ast.Assign)
                       and [t.id for t in node.targets] == ["_SERIES"]
                       for key, row in zip(node.value.keys, node.value.values)})
assert [n for n in KERNEL_SOURCES if n.startswith("series:")] == [f"series:{n}" for n in verify._SERIES]


@pytest.mark.parametrize("source", KERNEL_SOURCES.values(), ids=KERNEL_SOURCES.keys())
def test_kernel_literals_are_exact(source):
    # every value the table's expressions see is a name or a literal equal to its binary value, and
    # no operation on literals alone rounds before an arithmetic other than the float one could see it:
    # the only such operation is a series coefficient n / d of two int literals, exact in binary
    for node in ast.walk(ast.parse(source, mode="eval")):
        if isinstance(node, (ast.BinOp, ast.UnaryOp)):
            operands = [node.operand] if isinstance(node, ast.UnaryOp) else [node.left, node.right]
            if all(isinstance(o, ast.Constant) for o in operands):
                text = ast.get_source_segment(source, node)
                assert isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div), text
                n, d = node.left.value, node.right.value
                assert type(n) is int and type(d) is int and Fraction(n, d) == Fraction(n / d), text
        if isinstance(node, ast.Constant):
            text = ast.get_source_segment(source, node)
            assert Fraction(text) == Fraction(node.value), text


class TestBestEnclosure:
    def test_singleton_per_side(self):
        enc = best_enclosure(0.5, [BoundSpec(Family.VUORINEN), BoundSpec(Family.BARNARD)])
        assert enc.lo == vuorinen_lower(0.5)
        assert enc.hi == barnard_upper(0.5)
        assert enc.lo_source.family is Family.VUORINEN

    def test_sources_near_one(self):
        enc = best_enclosure(0.99, default_candidates())
        lo_fam = enc.lo_source
        # the asymptotically precise families win near r = 1
        assert (lo_fam.family is Family.THM11 or lo_fam.family is Family.COR31_LOWER
                or (lo_fam.family is Family.THM12 and lo_fam.p == 2.0
                    and lo_fam.t == pytest.approx(LAMBDA_STAR, abs=1e-15)))
        enc999 = best_enclosure(0.999, default_candidates())
        assert enc999.lo_source.family is Family.THM11
        assert enc999.lo_source.q == pytest.approx(BETA_STAR, abs=1e-15)

    def test_tighter_than_any_pair(self):
        enc = best_enclosure(0.5, default_candidates())
        e = complete_e(0.5)
        for lo_spec in default_candidates():
            if lo_spec.side is not Side.LOWER:
                continue
            for hi_spec in default_candidates():
                if hi_spec.side is not Side.UPPER:
                    continue
                pair_width = (e - lo_spec.evaluate(0.5)) + (hi_spec.evaluate(0.5) - e)
                assert enc.width <= pair_width + 1e-16

    def test_contains_reference_on_grid(self):
        cands = default_candidates()
        for r in grid(300):
            enc = best_enclosure(r, cands)
            e = complete_e(r)
            # ulp-level inversions near r = 0 are absorbed by the rounding slack
            assert enc.lo <= e + 1e-13
            assert enc.hi >= e - 1e-13

    def test_strict_interval_mid_range(self):
        for r in (0.3, 0.5, 0.7, 0.9):
            enc = best_enclosure(r, default_candidates())
            e = complete_e(r)
            assert enc.lo < e < enc.hi

    def test_values_in_candidate_order(self):
        cands = default_candidates() + [BoundSpec(Family.THM11, q=0.05)]
        for r in (1e-8, 0.5, 1 - 1e-9):
            enc = best_enclosure(r, cands)
            assert enc.values == tuple(spec.evaluate(r) for spec in cands)
            assert enc.lo == max(v for v, s in zip(enc.values, cands) if s.side is Side.LOWER)
            assert enc.hi == min(v for v, s in zip(enc.values, cands) if s.side is Side.UPPER)
        # the values are a by-product: not part of equality or repr
        bare = Enclosure(lo=enc.lo, hi=enc.hi, lo_source=enc.lo_source, hi_source=enc.hi_source)
        assert bare == enc
        assert repr(bare) == repr(enc)

    def test_tie_goes_to_first_spec_of_its_side(self):
        # at r = 1e-300 every bound is pi/2; an upper spec listed first with
        # the same value must not become the lower source
        cands = [BoundSpec(Family.BARNARD), BoundSpec(Family.VUORINEN),
                 BoundSpec(Family.ALZER_QIU), BoundSpec(Family.COR31_LOWER)]
        enc = best_enclosure(1e-300, cands)
        assert set(enc.values) == {HALF_PI}
        assert enc.lo_source is cands[1]
        assert enc.hi_source is cands[0]

    def test_errors(self):
        # the radius first, then an empty list, the first spec on neither side
        # (before a missing side), no lower, no upper: each with its exact message
        gap, vuo, bar = BoundSpec(Family.THM11, q=0.13), BoundSpec(Family.VUORINEN), BoundSpec(Family.BARNARD)
        invalid = "thm11:q=0.13 lies on neither valid side of its sharp constants: "
        for r, cands, exc, message in [
            (1.5, [], DomainError, "modulus must lie in [0, 1], got 1.5"),
            # whatever the candidates are: the fused plan looks at them only after the radius
            (1.5, 5, DomainError, "modulus must lie in [0, 1], got 1.5"),
            (0.0, "vuorinen", DomainError, "defined on the open interval (0, 1) only, got r=0.0"),
            (1.0, default_candidates(), DomainError, "defined on the open interval (0, 1) only, got r=1.0"),
            (0.5, [], ConfigurationError, "no candidate bounds given"),
            (0.5, [gap, bar], InvalidBoundError, invalid),
            (0.5, [gap], InvalidBoundError, invalid),
            (0.5, [vuo, gap], InvalidBoundError, invalid),
            (0.5, [vuo, bar, BoundSpec(Family.THM11, q=0.12), gap], InvalidBoundError,
             "thm11:q=0.12 lies on neither valid side"),
            (0.5, [bar], ConfigurationError, "candidate list has no lower bound"),
            (0.5, [vuo], ConfigurationError, "candidate list has no upper bound"),
            # an argument that is not a list or tuple of specs, a str included
            (0.5, 5, ConfigurationError, "candidates must be a list or tuple of BoundSpec, got 5"),
            (0.5, "vuorinen", ConfigurationError,
             "candidates must be a list or tuple of BoundSpec, got 'vuorinen'"),
            (0.5, [vuo, "barnard"], ConfigurationError, "candidate 'barnard' is not a BoundSpec"),
        ]:
            with pytest.raises(exc) as info:
                best_enclosure(r, cands)
            assert type(info.value) is exc and str(info.value).startswith(message)
        assert best_enclosure(0.5, (vuo, bar)) == best_enclosure(0.5, [vuo, bar])


# the radii of the fused default plan's checks: the range's ends, and 10^4 seeded radii over the
# bands that point queries draw from, uniform, log-uniform near 0 and 1 - 10^U near 1
FUSED_RADII = [5e-324, 1e-300, 1e-8, 0.5, 1.0 - 2.0**-53]
_rng = random.Random(2801)
SEEDED_RADII = ([_rng.uniform(1e-12, 1.0 - 1e-12) for _ in range(3334)]
                + [10.0 ** _rng.uniform(-300.0, -1.0) for _ in range(3333)]
                + [1.0 - 10.0 ** _rng.uniform(-15.0, -1.0) for _ in range(3333)])


def per_spec_enclosure(r, specs):
    # the enclosure one spec at a time: each value from evaluate, and the first maximum of the
    # lower and the first minimum of the upper values in candidate order
    values = [spec.evaluate(r) for spec in specs]
    lo = max((i for i, s in enumerate(specs) if s.side is Side.LOWER), key=values.__getitem__)
    hi = min((i for i, s in enumerate(specs) if s.side is Side.UPPER), key=values.__getitem__)
    return values[lo], values[hi], specs[lo], specs[hi], values


def assert_same_enclosure(enc, expected):
    lo, hi, lo_source, hi_source, values = expected
    assert (enc.lo.hex(), enc.hi.hex()) == (lo.hex(), hi.hex())
    assert [v.hex() for v in enc.values] == [v.hex() for v in values]
    assert enc.lo_source is lo_source and enc.hi_source is hi_source


def rebuilt(specs):
    return [BoundSpec(s.family, q=s.q, t=s.t, p=s.p) for s in specs]


class TestFusedDefaults:
    # best_enclosure on the default list runs one function compiled from _KERNELS; every other
    # list takes the general path, and both give the same enclosure

    @pytest.mark.parametrize("radii", [FUSED_RADII, SEEDED_RADII], ids=["ends", "seeded"])
    def test_matches_the_per_spec_path(self, radii):
        defaults = default_candidates()
        for r in radii:
            expected = per_spec_enclosure(r, defaults)
            assert_same_enclosure(best_enclosure(r, defaults), expected)
            # a tuple of the same specs takes the general path
            assert_same_enclosure(best_enclosure(r, tuple(defaults)), expected)

    def test_each_distinct_kernel_once(self):
        # cor31-lower and cor31-upper repeat two thm12 specs: 13 values from 11 evaluations
        best_enclosure(0.5, default_candidates())
        code = bounds._enclose_defaults.__code__
        assert sorted(n for n in code.co_varnames if n[0] == "v") == sorted(f"v{j}" for j in range(11))
        assert len({(s._at.func, s._at.args) for s in bounds._DEFAULTS}) == 11

    def test_compiled_on_first_call(self):
        # import compiles nothing for the plan; the first call on the defaults does, once
        check = ("from ellipbounds import bounds as b\n"
                 "first = b._enclose_defaults\n"
                 "b.best_enclosure(0.5, [b.BoundSpec(b.Family.VUORINEN), b.BoundSpec(b.Family.BARNARD)])\n"
                 "assert b._enclose_defaults is first\n"
                 "enc = b.best_enclosure(0.5, b.default_candidates())\n"
                 "fused = b._enclose_defaults\n"
                 "assert fused is not first and b.best_enclosure(0.5, b.default_candidates()) == enc\n"
                 "assert b._enclose_defaults is fused\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("variant", [
        lambda d: rebuilt(d),
        lambda d: d[:5] + rebuilt(d[5:6]) + d[6:],
        lambda d: d[::-1],
        lambda d: d[1:] + d[:1],
        lambda d: d[:3] + [BoundSpec(Family.THM11, q=0.05)] + d[4:],
        lambda d: d + [BoundSpec(Family.THM11, q=0.05)],
        lambda d: d[:-1],
        lambda d: d + d,
        lambda d: tuple(d),
        lambda d: tuple(rebuilt(d)),
        lambda d: type("Specs", (list,), {})(d),
    ], ids=["rebuilt", "one rebuilt", "reversed", "rotated", "mutated", "extended", "shortened", "doubled",
            "tuple", "rebuilt tuple", "list subclass"])
    def test_other_lists_take_the_general_path(self, variant):
        defaults = default_candidates()
        specs = variant(defaults)
        for r in FUSED_RADII:
            enc = best_enclosure(r, specs)
            assert_same_enclosure(enc, per_spec_enclosure(r, list(specs)))
            if tuple(specs) == tuple(defaults):
                # equal specs give the enclosure of the defaults, with their own specs as sources
                assert enc == best_enclosure(r, defaults)

    def test_default_candidates_is_a_new_list(self):
        first, second = default_candidates(), default_candidates()
        assert first is not second and first == second
        first.pop()
        assert len(default_candidates()) == len(bounds._DEFAULTS) == 13


PARAMETERLESS = {"vuorinen", "barnard", "alzer-qiu", "cor31-lower", "cor31-upper", "thm11-lower", "thm11-upper"}


class TestParseBoundSpec:
    def test_plain_families(self):
        assert parse_bound_spec("vuorinen").family is Family.VUORINEN
        assert parse_bound_spec(" cor31-upper ").family is Family.COR31_UPPER

    def test_parametric(self):
        spec = parse_bound_spec("thm12:t=0.85,p=2")
        assert spec.family is Family.THM12
        assert spec.t == 0.85 and spec.p == 2.0
        assert parse_bound_spec("thm11:q=0.05").q == 0.05

    def test_symbolic_constants(self):
        assert parse_bound_spec("thm11:q=beta_star").q == BETA_STAR
        assert parse_bound_spec("thm11-lower").q == BETA_STAR
        assert parse_bound_spec("thm11-upper").q == ALPHA_STAR
        assert parse_bound_spec("thm12-lower:p=2").t == thm12_lower_threshold(2.0)
        assert parse_bound_spec("thm12-upper:p=0.5").t == thm12_upper_threshold(0.5)

    def test_side_alias_mismatch(self):
        with pytest.raises(InvalidBoundError):
            parse_bound_spec("thm11-lower:q=0.3")
        with pytest.raises(InvalidBoundError):
            parse_bound_spec("thm11-upper:q=0.01")

    @pytest.mark.parametrize("text,gives", [("thm12-lower:p=2,t=0.9", "gives an upper bound"),
                                            ("thm11-upper:q=0.01", "gives a lower bound")])
    def test_side_alias_mismatch_names_the_side_given(self, text, gives):
        with pytest.raises(InvalidBoundError) as exc:
            parse_bound_spec(text)
        msg = str(exc.value)
        assert gives in msg
        assert "inside the gap" not in msg and "a upper" not in msg

    @pytest.mark.parametrize("spelling", ["{}", "  {}\t", "{}:", " {}: "],
                             ids=["plain", "padded", "colon", "padded-colon"])
    @pytest.mark.parametrize("name", sorted(PARAMETERLESS))
    def test_named_specs_are_the_defaults(self, name, spelling, monkeypatch):
        # a name that needs no parameter returns its prebuilt default, equal to the spec the
        # general path builds for it, in any case
        texts = [spelling.format(name), spelling.format(name.upper())]
        default = bounds._NAMED[name]
        named = [parse_bound_spec(text) for text in texts]
        monkeypatch.setattr(bounds, "_NAMED", {})
        built = [parse_bound_spec(text) for text in texts]
        assert any(default is spec for spec in bounds._DEFAULTS)
        for spec, again in zip(named, built):
            assert spec is default and again is not default
            assert spec == again
            assert (spec.side, spec.label) == (again.side, again.label)

    def test_named_table_is_every_parameterless_name(self, monkeypatch):
        # the names the general path parses without a parameter, no more and no fewer
        assert set(bounds._NAMED) == PARAMETERLESS
        monkeypatch.setattr(bounds, "_NAMED", {})
        parses = set()
        for name in bounds._NAMES:
            try:
                parse_bound_spec(name)
            except ConfigurationError:
                continue
            parses.add(name)
        assert parses == PARAMETERLESS

    @pytest.mark.parametrize("text,message", [("thm11", "thm11 needs parameter(s) ['q']"),
                                              ("thm12", "thm12 needs parameter(s) ['t', 'p']"),
                                              (" THM12-Lower:", "thm12-lower needs parameter(s) ['p']"),
                                              ("thm12-upper", "thm12-upper needs parameter(s) ['p']")])
    def test_names_that_need_a_parameter(self, text, message):
        with pytest.raises(ConfigurationError) as exc:
            parse_bound_spec(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", [None, 0, 0.5, ["vuorinen"], b"vuorinen"], ids=repr)
    def test_text_that_is_not_a_string(self, text):
        with pytest.raises(ConfigurationError) as exc:
            parse_bound_spec(text)
        assert str(exc.value) == f"bound spec must be a string, got {text!r}"

    def test_parse_errors(self):
        for bad in ("bogus", "thm11", "thm11:q=abc", "thm12:t=0.8", "vuorinen:q=1",
                    "thm11:zz=1", "thm12-lower", "thm11:q=0.1,q=0.2", "thm12-upper:p=-1"):
            with pytest.raises((ConfigurationError, DomainError)):
                parse_bound_spec(bad)

    def test_default_candidates_fresh_list(self):
        first = default_candidates()
        expected = list(first)
        first.reverse()
        first.pop()
        assert default_candidates() == expected

    def test_labels_round_trip(self):
        for spec in default_candidates():
            again = parse_bound_spec(spec.label)
            assert again == spec


COLUMN_SPECS = default_candidates() + [parse_bound_spec("thm11:q=0.05"),
                                       parse_bound_spec("thm12:t=0.95,p=1.5")]


class TestColumns:
    # _columns is the combiner behind compare: its rows must be best_enclosure's
    @pytest.mark.parametrize("spacing", list(Spacing))
    @pytest.mark.parametrize("n", [2, 255, 256, 257, 20_000])
    def test_rows_are_best_enclosure(self, n, spacing):
        rs = GridSpec(1e-4, 0.9999999, n, spacing).values()
        r_col, e_col, *value_cols, lo_col, hi_col = _columns(rs, COLUMN_SPECS, _split(COLUMN_SPECS))
        assert r_col == rs
        for i, r in enumerate(rs):
            enc = best_enclosure(r, COLUMN_SPECS)
            assert e_col[i] == complete_e(r)
            assert tuple(col[i] for col in value_cols) == enc.values
            assert (lo_col[i], hi_col[i]) == (enc.lo, enc.hi)
            assert value_cols[COLUMN_SPECS.index(enc.lo_source)][i] == lo_col[i]
            assert value_cols[COLUMN_SPECS.index(enc.hi_source)][i] == hi_col[i]

    def test_one_spec_per_side(self):
        cands = [BoundSpec(Family.VUORINEN), BoundSpec(Family.BARNARD)]
        rs = grid(7)
        *_, lo_col, hi_col = _columns(rs, cands, _split(cands))
        assert lo_col == list(map(vuorinen_lower, rs))
        assert hi_col == list(map(barnard_upper, rs))

    def test_each_distinct_kernel_runs_once(self, monkeypatch):
        # cor31-lower is thm12-lower at p = 2 and cor31-upper thm12-upper at
        # p = 1/2, bit for bit; a repeated spec is the same kernel again
        runs = []

        def counting(kernel, column):
            def run(*args):
                runs.append((kernel, args[:-2]))
                return column(*args)
            return run

        for kernel, column in list(bounds._COLUMN.items()):
            monkeypatch.setitem(bounds._COLUMN, kernel, counting(kernel, column))
        cands = COLUMN_SPECS + [parse_bound_spec(s) for s in ("thm12-lower:p=2", "thm12-upper:p=0.5",
                                                               "thm11:q=0.05", "vuorinen")]
        cols = _columns(grid(7), cands, _split(cands))[2:-2]
        distinct = {(spec._at.func, spec._at.args) for spec in cands}
        assert len(distinct) == len(cands) - 6
        assert sorted(runs, key=repr) == sorted(distinct, key=repr)
        for spec, col in zip(cands, cols):
            assert col == list(map(spec._at, grid(7), map(_complement, grid(7))))
