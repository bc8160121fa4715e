import functools
import math
import mmap
import os
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy
import pytest

import ellipbounds._fork
import ellipbounds.cli
import ellipbounds.core
import ellipbounds.verify

from ellipbounds import (
    BETA_STAR,
    BoundSpec,
    ConfigurationError,
    CrossoverResult,
    EllipBoundsError,
    Direction,
    DomainError,
    Family,
    Modulus,
    NoCrossover,
    SignCase,
    find_crossover,
    Side,
    VerificationError,
    best_enclosure,
    complete_e,
    complete_k,
    corollary31,
    default_candidates,
    derivative_residuals,
    ellipse_perimeter,
    landen_residual,
    lemma22_function,
    lemma23_g,
    lemma24_h,
    lemma25_check,
    lemma26_classify,
    lemma26_f,
    lemma27_F,
    search_violation,
    sweep_monotone,
    toader_mean,
    vuorinen_lower,
)
from ellipbounds.bounds import _COLUMN
from ellipbounds.core import _row, elliptic_ke
from ellipbounds.verify import (
    _CUT_R2,
    _CUT_R4,
    _EXPRESSIONS,
    _LIMIT_TOL,
    _P_SAMPLE,
    _SERIES,
    _SWEEPS,
    _Table,
    _falsifier_plan,
    _grid_table,
    _horner,
    grid_open_unit,
    lemma26_case_sample,
    lemma26_expected_case,
    run_lemma_suite,
    run_remarks_suite,
    run_sharpness_suite,
    run_suite,
    sweep_ids,
)
import exact_series
from test_bounds import VALUE_SPECS

PI2 = math.pi * math.pi

# first computation, frozen as regression values
G_AT_ONE_MINUS_1E6 = 12.8951565668
DELTA_1 = 0.013622812986578747
DELTA_2 = 0.005666838688905607


# straddles the series cutoffs 0.02 and 0.08 and reaches both ends of the grid
AGREEMENT_RADII = [1e-6, 0.019, 0.021, 0.079, 0.081, 0.5, 1 - 1e-6]
PUBLIC = {**{f"lemma22_{i}": functools.partial(lemma22_function, i) for i in range(1, 8)},
          "lemma23_g": lemma23_g, "lemma24_h": lemma24_h, "lemma27_F": lemma27_F}
SWEEPS = [(fn, {}) for fn in sweep_ids() if fn != "lemma24_h"]
SWEEPS += [("lemma24_h", {"p": 0.5}), ("lemma24_h", {"p": 2.0})]
# every sweep of the lemma suite, h once per sampled exponent p
SUITE_SWEEPS = [(fn, dict.fromkeys(sd.params, p)) for fn, sd in _SWEEPS.items()
                for p in (_P_SAMPLE if sd.params else [None])]


# every column of a table: (r, r', K, E), then the cancelling columns
BASE = ("r", "rc", "k", "e")
COLUMNS = BASE + tuple(_SERIES)


def table_of(rs):
    # the table of the ascending radii rs, built as a grid's table is
    return _Table(rs)


@pytest.mark.parametrize("fn,params", SWEEPS)
def test_table_path_matches_public_path(fn, params):
    # a sweep reads grid-table rows, which hold _row of their radius exactly;
    # the public function evaluates a one-row table of its own
    table = _grid_table(7)
    assert list(zip(table.r, table.rc, table.k, table.e)) == [_row(r) for r in table.r]
    swept = _SWEEPS[fn].fn(table_of(AGREEMENT_RADII), **params)
    assert swept == [PUBLIC[fn](r, **params) for r in AGREEMENT_RADII]


@pytest.mark.parametrize("r", [1e-20, 1e-80, 1e-161, 1e-200, 5e-324])
@pytest.mark.parametrize("fn,params", SWEEPS)
def test_public_path_reaches_left_limit(fn, params, r):
    # r^2 and (E - r'^2 K)^2 underflow below r ~ 1e-162 and 1e-81; the value
    # must still be the claimed r = 0+ limit to double precision
    left = _SWEEPS[fn].left
    claimed = left(**params) if callable(left) else left
    assert PUBLIC[fn](r, **params) == pytest.approx(claimed, rel=1e-15)


def mp_blocks(r):
    with mpmath.workdps(40):
        rr = mpmath.mpf(r)
        K, E = mpmath.ellipk(rr**2), mpmath.ellipe(rr**2)
        rc2 = 1 - rr**2
        return (K - E, E - rc2 * K, 2 * E - rc2 * K - mpmath.pi / 2,
                (K - E) - (E - rc2 * K), E**2 - rc2 * K**2)


# straddles both cutoffs; 0.0510… and 0.0516… missed 5e-10 while the r^4 cutoff was 0.05
SERIES_RADII = [1e-6, 1e-4, 0.019, 0.02, 0.021, 0.049, 0.05, 0.051, 0.05104534844948316,
                0.05160586862287429, 0.079, 0.08, 0.081, 0.2, 0.7]


@pytest.mark.parametrize("r", SERIES_RADII)
def test_series_blocks_match_extended_precision(r):
    # the series/direct switchover must be seamless on both sides; the five
    # cancelling columns of one table that holds every radius
    table = table_of(SERIES_RADII)
    i = SERIES_RADII.index(r)
    mine = [getattr(table, name)[i] for name in _SERIES]
    for got, ref in zip(mine, mp_blocks(r)):
        assert got == pytest.approx(float(ref), rel=5e-10)


# each claimed right limit that is finite, exactly
MP_RIGHT = {"lemma22_1": lambda: 1, "lemma22_3": lambda: 1, "lemma22_4": lambda: 0, "lemma22_5": lambda: 0,
            "lemma22_6": lambda: 1, "lemma22_7": lambda: 16 - mpmath.pi**2, "lemma24_h": lambda p: 4 * p - 1,
            "lemma27_F": lambda: 8 * (mpmath.pi**2 - 8) / mpmath.pi**2}


def mp_row(fn, rc, **params):
    # (f, x = r'^2, K) at r' = rc in the working precision: the cancelling
    # columns' rows, then f's, run unchanged with mpmath in place of the
    # series namespace's names
    x = mpmath.mpf(rc) ** 2
    cols = {"math": SimpleNamespace(sqrt=mpmath.sqrt, log1p=mpmath.log1p), "_PI": mpmath.pi,
            "_PI2": mpmath.pi**2, "HALF_PI": mpmath.pi / 2, "r": mpmath.sqrt(1 - x), "rc": mpmath.mpf(rc),
            "k": mpmath.ellipk(1 - x), "e": mpmath.ellipe(1 - x)}
    for name in _SERIES:
        cols[name] = exact_series.run(_EXPRESSIONS["_" + name], cols)
    return exact_series.run(_EXPRESSIONS[_SWEEPS[fn].fn.__name__], cols, **params), x, cols["k"]


@pytest.mark.parametrize("fn,params", [(fn, params) for fn, params in SUITE_SWEEPS if _SWEEPS[fn].lead])
def test_lead_is_the_r_prime_squared_term(fn, params):
    # f - claimed right limit - lead(x, K) is O(r'^4 K^4): a wrong coefficient in
    # a lead leaves O(r'^2 K), which 2 r'^4 K^4 does not hold from r' = 1e-5 down
    sd = _SWEEPS[fn]
    with mpmath.workdps(80):
        claimed = MP_RIGHT[fn](**params)
        assert sd.limits(params)[1] == pytest.approx(float(claimed), rel=1e-15)
        for rc in (1e-3, 1e-5, 1e-7, 1e-9):
            f, x, k = mp_row(fn, rc, **params)
            assert abs(f - claimed - sd.lead(x, k, **params)) <= 2 * x * x * k**4, rc


def _ulps(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]


def test_derived_columns_switch_at_the_cutoffs():
    # a grid through each cutoff and one ulp either side: every derived
    # column equals the one-row path at every row, and holds the series
    # exactly where r < cutoff and the direct formula at and above it
    rs = sorted({*grid_open_unit(1000), *_ulps(_CUT_R2), *_ulps(_CUT_R4)})
    table = table_of(rs)
    for i, r in enumerate(rs):
        one_row = _Table((r,))
        assert [getattr(table, c)[i] for c in COLUMNS] == [getattr(one_row, c)[0] for c in COLUMNS], r
    direct = {"K - E": lambda r, rc, k, e: k - e,
              "E - r'^2 K": lambda r, rc, k, e: e - rc * rc * k,
              "2E - r'^2 K - pi/2": lambda r, rc, k, e: 2.0 * e - rc * rc * k - math.pi / 2.0,
              "(K - E) - (E - r'^2 K)": lambda r, rc, k, e: (k - e) - (e - rc * rc * k),
              "E^2 - r'^2 K^2": lambda r, rc, k, e: e * e - rc * rc * k * k}
    for (name, formula), (column, (cut, unit, coeffs)) in zip(direct.items(), _SERIES.items()):
        for r in _ulps(_CUT_R2) + _ulps(_CUT_R4):
            i = rs.index(r)
            series, value = unit * _horner(coeffs, r * r), formula(*(getattr(table, c)[i] for c in BASE))
            # the two forms differ in the last bits here, so the column shows which one it holds
            assert series != value and getattr(table, column)[i] == (series if r < cut else value), (name, r)


class TestLemma22:
    def test_part1_endpoints(self):
        assert lemma22_function(1, 1e-7) == pytest.approx(math.pi / 4, abs=1e-12)
        assert lemma22_function(1, 1 - 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_part6_endpoints(self):
        assert lemma22_function(6, 1e-7) == pytest.approx(2.0, abs=1e-12)
        assert lemma22_function(6, 1 - 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_part7_endpoints(self):
        assert lemma22_function(7, 1e-7) == pytest.approx(PI2 / 2, abs=1e-10)
        assert lemma22_function(7, 1 - 1e-9) == pytest.approx(16.0 - PI2, abs=1e-7)

    def test_part2_grows_without_bound(self):
        assert lemma22_function(2, 1e-7) == pytest.approx(math.pi / 2, abs=1e-12)
        assert lemma22_function(2, 1 - 1e-9) > 20.0

    def test_bad_index(self):
        with pytest.raises(ConfigurationError):
            lemma22_function(8, 0.5)

    def test_open_domain(self):
        with pytest.raises(DomainError):
            lemma22_function(1, 0.0)


class TestLemma23:
    def test_left_value(self):
        assert lemma23_g(1e-3) == pytest.approx(1.5, abs=1e-5)

    def test_growth_near_one(self):
        # divergence is logarithmic (~2 K(r)); value frozen from first run
        assert lemma23_g(1 - 1e-6) == pytest.approx(G_AT_ONE_MINUS_1E6, abs=1e-6)

    def test_strictly_between_grid_points(self):
        assert 1.5 < lemma23_g(0.4) < lemma23_g(0.5)


class TestLemma24:
    def test_limits_p1(self):
        assert lemma24_h(1e-7, 1.0) == pytest.approx(4.0, abs=1e-10)
        assert lemma24_h(1 - 1e-9, 1.0) == pytest.approx(3.0, abs=1e-6)

    def test_left_limit_p_half(self):
        assert lemma24_h(1e-7, 0.5) == pytest.approx(2.0, abs=1e-10)

    def test_monotone_fails_above_two(self):
        rep = sweep_monotone("lemma24_h", grid=2000, params={"p": 2.5})
        assert rep.worst_violation > 0.0
        # the largest rise of h, from the public path, starts at argmax_r
        rs = grid_open_unit(2000)
        hs = [lemma24_h(r, 2.5) for r in rs]
        rises = [b - a for a, b in zip(hs, hs[1:])]
        assert (rep.argmax_r, rep.worst_violation) == (rs[rises.index(max(rises))], max(rises) - 1e-12)

    @pytest.mark.parametrize("grid", [1000, 10_000])
    def test_right_limit_at_huge_p(self, grid):
        # h ~ 4p ~ 2^1022: the lead multiplies x = r'^2 into p first, so it stays finite
        rep = sweep_monotone("lemma24_h", grid=grid, params={"p": 2.0**1020})
        assert math.isfinite(rep.right_limit)
        assert rep.right_error <= _LIMIT_TOL * rep.claimed_right

    def test_p_domain(self):
        with pytest.raises(DomainError):
            lemma24_h(0.5, 0.3)

    @pytest.mark.parametrize("p", [math.inf, math.nan, None])
    def test_p_must_be_finite(self, p):
        with pytest.raises(DomainError):
            lemma24_h(0.5, p)
        with pytest.raises(DomainError):
            sweep_monotone("lemma24_h", grid=1000, params={"p": p})


class TestLemma25:
    def test_p2_constants(self):
        # the proof hinges on (9/8)^2 = 81/64 < 4/pi < 64/49 = (8/7)^2
        f1 = ((4 * 2 + 1) / (4 * 2.0)) ** 2
        f2 = (4 * 2 / (4 * 2.0 - 1)) ** 2
        assert f1 == 81.0 / 64.0 == 1.265625
        assert f2 == pytest.approx(64.0 / 49.0, rel=1e-16)
        assert f1 < 4.0 / math.pi < f2
        margins = lemma25_check(2.0)
        assert margins.lower_margin == pytest.approx((4.0 / math.pi) ** 0.5 - 1.0 - 1.0 / 8.0,
                                                     rel=1e-13)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_margins_positive(self, p):
        margins = lemma25_check(p)
        assert margins.lower_margin > 0.0
        assert margins.upper_margin > 0.0

    def test_p1_values(self):
        margins = lemma25_check(1.0)
        assert margins.lower_margin == pytest.approx(4.0 / math.pi - 1.0 - 0.25, rel=1e-13)
        assert margins.upper_margin == pytest.approx(1.0 / 3.0 - (4.0 / math.pi - 1.0), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma25_check(2.5)


class TestLemma26:
    def test_vanishes_at_zero(self):
        assert abs(lemma26_f(1e-7, 0.3, 1.0)) < 1e-13

    def test_right_limit_u_zero(self):
        assert lemma26_f(1 - 1e-9, 0.0, 1.0) == pytest.approx(math.log(math.pi / 4), abs=1e-7)

    def test_right_limit_threshold_u(self):
        # u = (4/pi)^(1/p) - 1 makes p log(1+u) + log(pi/4) vanish
        p = 1.3
        u = (4.0 / math.pi) ** (1.0 / p) - 1.0
        assert abs(lemma26_f(1 - 1e-9, u, p)) < 1e-7

    def test_classify_all_negative_at_quarter(self):
        rep = lemma26_classify(0.25, 1.0)
        assert rep.case_id is SignCase.ALL_NEGATIVE
        assert rep.eta is None

    def test_classify_all_positive_at_third(self):
        rep = lemma26_classify(1.0 / 3.0, 1.0)
        assert rep.case_id is SignCase.ALL_POSITIVE

    def test_classify_mixed(self):
        rep = lemma26_classify(0.26, 1.0)
        assert rep.case_id is SignCase.POSITIVE_THEN_NEGATIVE
        assert 0.0 < rep.eta < 1.0
        assert abs(lemma26_f(rep.eta, 0.26, 1.0)) < 1e-8

    def test_eta_stable_under_refinement(self):
        a = lemma26_classify(0.26, 1.0, grid=200).eta
        b = lemma26_classify(0.26, 1.0, grid=2000).eta
        assert abs(a - b) < 1e-9

    # p = 0 divided by zero and p < 0 classified as all-positive
    @pytest.mark.parametrize("u,p", [(0.5, 0.0), (0.5, -1.0), (0.5, 2.5), (-0.1, 1.0), (1.5, 1.0),
                                     (None, 1.0), (0.5, "x")])
    def test_expected_case_domain(self, u, p):
        with pytest.raises(DomainError):
            lemma26_expected_case(u, p)
        with pytest.raises(DomainError):
            lemma26_f(0.5, u, p)

    def test_expected_case_thresholds(self):
        assert lemma26_expected_case(0.25, 1.0) is SignCase.ALL_NEGATIVE
        assert lemma26_expected_case(4.0 / math.pi - 1.0, 1.0) is SignCase.ALL_POSITIVE
        assert lemma26_expected_case(0.26, 1.0) is SignCase.POSITIVE_THEN_NEGATIVE

    def test_sample_covers_all_cases(self):
        sample = lemma26_case_sample()
        assert len(sample) == 100
        cases = {c for _, _, c in sample}
        assert cases == {SignCase.ALL_NEGATIVE, SignCase.ALL_POSITIVE,
                         SignCase.POSITIVE_THEN_NEGATIVE}

    def test_inconsistent_pattern_rejected(self, monkeypatch):
        # f as a step function of r: negative then positive, and positive,
        # negative, positive again
        for positive, message in [(lambda r: r > 0.5, "1 sign change(s), starting negative"),
                                  (lambda r: not 0.3 < r < 0.7, "2 sign change(s), starting positive")]:
            monkeypatch.setattr(ellipbounds.verify, "_l26_f",
                                lambda t, u, p, positive=positive: [1.0 if positive(r) else -1.0 for r in t.r])
            with pytest.raises(VerificationError) as exc:
                lemma26_classify(0.3, 1.0)
            assert str(exc.value) == "inconsistent sign pattern: " + message

    def test_grid_minimum(self):
        with pytest.raises(ConfigurationError):
            lemma26_classify(0.3, 1.0, grid=50)

    def test_grid_size_is_the_checked_int(self):
        rep = lemma26_classify(0.3, 1.0, numpy.int64(256))
        assert (type(rep.grid_size), rep.grid_size) == (int, 256)

    def test_report_holds_the_checked_floats(self):
        # u and p as the classification read them, whatever type they were given as
        for u, p in [("0.3", "1.0"), (True, 1), (numpy.float64(0.3), numpy.int64(1))]:
            rep = lemma26_classify(u, p)
            assert [(type(x), x) for x in (rep.u, rep.p)] == [(float, float(u)), (float, float(p))]


class TestLemma27:
    def test_endpoints(self):
        assert lemma27_F(1e-7) == pytest.approx(PI2 / 8.0, abs=1e-10)
        assert lemma27_F(1 - 1e-9) == pytest.approx(8.0 * (PI2 - 8.0) / PI2, abs=1e-7)

    def test_midpoint_between_endpoints(self):
        assert PI2 / 8.0 < lemma27_F(0.5) < 8.0 * (PI2 - 8.0) / PI2


class TestSweepMonotone:
    def test_unknown_identifier(self):
        with pytest.raises(ConfigurationError):
            sweep_monotone("lemma99", grid=1000)

    def test_rejects_small_grid(self):
        with pytest.raises(ConfigurationError):
            sweep_monotone("lemma22_1", grid=50)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            sweep_monotone("lemma22_1", grid=1000, params={"p": 1.0})
        with pytest.raises(ConfigurationError):
            sweep_monotone("lemma24_h", grid=1000)

    # params that are no dict, or a dict whose keys do not sort together
    @pytest.mark.parametrize("params", ["p", [("p", 1, 2)], [("p", 2.0)], 5, 0, {1: 2, "p": 1}, {1: 2}],
                             ids=repr)
    def test_rejects_params_that_are_no_parameter_dict(self, params):
        with pytest.raises(ConfigurationError, match="^lemma24_h takes parameters"):
            sweep_monotone("lemma24_h", grid=1000, params=params)

    def test_lemma22_3_report(self):
        rep = sweep_monotone("lemma22_3", grid=2000)
        assert rep.direction is Direction.INCREASING
        assert rep.worst_violation == 0.0
        assert rep.left_limit == pytest.approx(0.5, abs=1e-3)
        assert rep.right_limit == pytest.approx(1.0, abs=1e-3)
        assert rep.grid_size == 2000
        assert rep.argmax_r is None

    def test_grid_size_is_the_checked_int(self):
        # any integral size is accepted, and the report keeps the int it checked
        rep = sweep_monotone("lemma22_1", numpy.int64(1000))
        assert (type(rep.grid_size), rep.grid_size) == (int, 1000)

    def test_lemma24_h_report(self):
        rep = sweep_monotone("lemma24_h", grid=2000, params={"p": 1.0})
        assert rep.direction is Direction.DECREASING
        assert rep.left_limit == pytest.approx(4.0, abs=1e-3)
        assert rep.right_limit == pytest.approx(3.0, abs=1e-3)
        assert rep.worst_violation == 0.0

    def test_lemma23_g_report(self):
        rep = sweep_monotone("lemma23_g", grid=2000)
        assert rep.left_limit == pytest.approx(1.5, abs=1e-4)
        assert rep.divergent_right
        assert math.isinf(rep.right_limit)
        assert rep.worst_violation == 0.0

    @pytest.mark.parametrize("fn,params", SUITE_SWEEPS)
    def test_left_limit_is_the_first_row(self, fn, params):
        # every lemma-suite sweep reads its left limit at r = 1e-6, r^2 = 1e-12 from the limit
        rep = sweep_monotone(fn, 1000, params)
        assert rep.left_limit == PUBLIC[fn](1e-6, **params)
        assert rep.left_error <= 1e-12

    @pytest.mark.parametrize("fn,params", SUITE_SWEEPS)
    def test_right_limit_is_the_last_row_less_its_lead(self, fn, params):
        # the last grid row lies within an ulp of 1 - 1e-6 (0.9999990000000001 at 1000 points)
        r, rc, k, _ = _row(grid_open_unit(1000)[-1])
        rep, lead = sweep_monotone(fn, 1000, params), _SWEEPS[fn].lead
        if lead is None:
            assert rep.divergent_right and rep.right_limit == math.inf
        else:
            assert rep.right_limit == PUBLIC[fn](r, **params) - lead(rc * rc, k, **params)
            assert rep.right_error <= 2e-8


class TestFindCrossover:
    def test_cor31_upper_vs_alzer_qiu(self):
        cross = find_crossover(BoundSpec(Family.COR31_UPPER), BoundSpec(Family.ALZER_QIU))
        assert isinstance(cross, CrossoverResult)
        assert 0.0 < cross.delta < 1.0
        assert cross.better_near_one.family is Family.COR31_UPPER
        assert cross.delta == pytest.approx(DELTA_1, abs=1e-9)

    def test_thm11_lower_vs_vuorinen(self):
        cross = find_crossover(BoundSpec(Family.THM11, q=BETA_STAR), BoundSpec(Family.VUORINEN))
        assert isinstance(cross, CrossoverResult)
        assert cross.better_near_one.family is Family.THM11
        assert cross.delta == pytest.approx(DELTA_2, abs=1e-9)

    def test_global_dominance_reported(self):
        res = find_crossover(BoundSpec(Family.COR31_LOWER), BoundSpec(Family.VUORINEN))
        assert isinstance(res, NoCrossover)
        assert res.dominant.family is Family.COR31_LOWER


class TestSearchViolation:
    def test_perturbed_lower_is_falsified(self):
        spec = BoundSpec(Family.THM11, q=BETA_STAR + 1e-3)
        r, v = search_violation(spec, Side.LOWER)
        assert v > 1e-12
        assert 0.0 < r < 1.0

    def test_sharp_lower_is_not_falsified(self):
        spec = BoundSpec(Family.THM11, q=BETA_STAR)
        _, v = search_violation(spec, Side.LOWER)
        assert v <= 1e-13

    def test_requires_side(self):
        with pytest.raises(ConfigurationError):
            search_violation(BoundSpec(Family.THM11, q=0.13), Side.INVALID)


# the refinement steps (lemma 2.6 bisection, golden-section search, crossover
# bisection), computed before they evaluated (r, r', K, E) from floats instead
# of a Modulus per point, and frozen bit for bit.  Eta per mixed-case (u, p)
# of lemma26_case_sample, in sample order:
FROZEN_ETAS = [
    0.4330763187479982,
    0.6465508610425306,
    0.7589133799682091,
    0.8489126625457573,
    0.9442273967146677,
    0.4408267452284111,
    0.6560093461291596,
    0.7678505503171291,
    0.8562189584091777,
    0.9479214314225342,
    0.459293153164189,
    0.6755627313526296,
    0.7844870916045006,
    0.8684469844888771,
    0.953220928109554,
    0.5329375648727863,
    0.738238555464388,
    0.8314220746582781,
    0.8993351633653215,
    0.964916385123709,
    0.6858390787680972,
    0.8254379645395487,
    0.887138833745166,
    0.9321321587073046,
    0.9760297233042936,
]
# (r, violation) per _falsifier_plan spec, in plan order
FROZEN_FALSIFIERS = [
    (0.9999989999999999, 0.0007701862499089884),
    (0.5608925939120178, 9.197076326961096e-06),
    (0.6203037275939559, 1.4885651266727251e-05),
    (0.999999, 0.0006444782252130743),
    (0.793944147664649, 7.965461999637213e-05),
    (0.999999, 0.0014375918927294062),
    (0.9771986815190301, 0.0008620187919861078),
    (0.999999, 0.002397458344255088),
]
# r_cross of the remark 4.3 and 4.4 pairs
FROZEN_R_CROSS = [0.9863771870134213, 0.9943331613110944]


class TestRefinementsFrozen:
    def test_lemma26_eta(self):
        mixed = [(u, p) for u, p, case in lemma26_case_sample()
                 if case is SignCase.POSITIVE_THEN_NEGATIVE]
        assert [lemma26_classify(u, p).eta for u, p in mixed] == FROZEN_ETAS

    def test_falsifier_search(self):
        found = [search_violation(spec, side) for _, spec, side in _falsifier_plan()]
        assert found == FROZEN_FALSIFIERS

    def test_crossover_radii(self):
        pairs = [(BoundSpec(Family.COR31_UPPER), BoundSpec(Family.ALZER_QIU)),
                 (BoundSpec(Family.THM11, q=BETA_STAR), BoundSpec(Family.VUORINEN))]
        assert [find_crossover(a, b).r_cross for a, b in pairs] == FROZEN_R_CROSS


# each call with a grid size that is not an integer
NON_INTEGER_GRIDS = {
    "grid_open_unit": lambda: grid_open_unit(3.5),
    "sweep_monotone": lambda: sweep_monotone("lemma22_1", 1000.0),
    "lemma26_classify": lambda: lemma26_classify(0.5, 1.0, 100.5),
    "search_violation": lambda: search_violation(BoundSpec(Family.THM11, q=0.1), Side.LOWER, 10.5),
    "find_crossover": lambda: find_crossover(BoundSpec(Family.COR31_UPPER),
                                             BoundSpec(Family.ALZER_QIU), 10.5),
    # the size is checked before the parameters
    "sweep_monotone nan p": lambda: sweep_monotone("lemma24_h", 1000.5, {"p": math.nan}),
    "lemma26_classify nan u": lambda: lemma26_classify(math.nan, 1.0, None),
    "run_remarks_suite": lambda: run_remarks_suite("x"),
    # the radii are cached by size: the check comes first, even when an equal size is cached
    "find_crossover [1000]": lambda: find_crossover(BoundSpec(Family.VUORINEN), BoundSpec(Family.BARNARD),
                                                    [1000]),
    "find_crossover 1000.0, cached": lambda: [find_crossover(BoundSpec(Family.COR31_UPPER),
                                                             BoundSpec(Family.ALZER_QIU), n)
                                              for n in (1000, 1000.0)],
    "run_remarks_suite 1000.0, cached": lambda: [run_remarks_suite(n) for n in (1000, 1000.0)],
}


@pytest.mark.parametrize("call", NON_INTEGER_GRIDS.values(), ids=NON_INTEGER_GRIDS.keys())
def test_non_integer_grid_is_a_configuration_error(call):
    with pytest.raises(ConfigurationError, match="^grid size must be an integer, got "):
        call()


# a size below the caller's minimum keeps each caller's message
@pytest.mark.parametrize("call, message", [
    (lambda: sweep_monotone("lemma22_1", 999), "sweep grid must have at least 1000 points, got 999"),
    (lambda: lemma26_classify(0.3, 1.0, 50), "classification grid must have at least 100 points, got 50"),
    (lambda: grid_open_unit(1), "grid needs at least 2 points, got 1"),
    (lambda: run_remarks_suite(True), "grid needs at least 2 points, got True"),
], ids=["sweep", "classify", "grid", "bool"])
def test_grid_below_minimum(call, message):
    with pytest.raises(ConfigurationError) as exc:
        call()
    assert str(exc.value) == message


@pytest.fixture
def modulus_count(monkeypatch):
    """Counts the Modulus objects built while the test runs."""
    count = [0]
    post_init = Modulus.__post_init__

    def counting(self):
        count[0] += 1
        post_init(self)

    monkeypatch.setattr(Modulus, "__post_init__", counting)
    return count


def _bits(x):
    # x with every float written as its hex, so that equal means bit-identical
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    if isinstance(x, BoundSpec):
        return x.label
    if hasattr(type(x), "__match_args__"):  # a record: every field is in its instance dict
        return tuple(map(_bits, vars(x).values()))
    return x


def _replace(record, **changes):
    # record rebuilt through its __init__ fields with some of them changed
    return type(record)(**{**{name: getattr(record, name) for name in record.__match_args__}, **changes})


def test_walkers_reach_every_field():
    # _bits reaches every field of a record, r_comp included; _replace rebuilds one
    residuals = derivative_residuals(0.5)
    assert [list(vars(x)) for x in (Modulus(0.5), elliptic_ke(0.5), residuals)] == [
        ["r", "r_comp"], ["k_val", "e_val"], ["dk", "de", "d_e_minus_rc2k", "d_k_minus_e"]]
    assert _bits(Modulus(0.5)) == ((0.5).hex(), Modulus(0.5).r_comp.hex())
    rebuilt = _replace(residuals, de=1.0)
    assert type(rebuilt) is type(residuals) and vars(rebuilt) == {**vars(residuals), "de": 1.0}


# every public scalar call that takes a radius (or a Modulus) as its first argument
RADIUS_CALLS = {
    "complete_e": complete_e,
    "complete_k": complete_k,
    "elliptic_ke": elliptic_ke,
    "derivative_residuals": derivative_residuals,
    "landen_residual": landen_residual,
    "BoundSpec.evaluate": BoundSpec(Family.THM12, t=0.95, p=1.5).evaluate,
    "vuorinen_lower": vuorinen_lower,
    "best_enclosure": lambda m: best_enclosure(m, default_candidates()),
    "corollary31": corollary31,
    **{f"lemma22_function {i}": functools.partial(lemma22_function, i) for i in range(1, 8)},
    "lemma23_g": lemma23_g,
    "lemma24_h": lambda m: lemma24_h(m, 1.5),
    "lemma26_f": lambda m: lemma26_f(m, 0.3, 1.0),
    "lemma27_F": lemma27_F,
}
# and the two that take a float only
FLOAT_CALLS = {**RADIUS_CALLS, "ellipse_perimeter": ellipse_perimeter,
               "toader_mean": lambda r: toader_mean(1.0, r)}


class TestValidatedOnce:
    # a radius is checked once, by the public call that receives it, and as
    # a float: the package builds no Modulus, neither there nor below
    def test_enclosure_builds_one_modulus(self, modulus_count):
        best_enclosure(0.5, default_candidates())
        assert modulus_count[0] == 0

    @pytest.mark.parametrize("r", [1e-3, 0.5, 0.999])
    @pytest.mark.parametrize("name", FLOAT_CALLS)
    def test_public_call_builds_no_modulus(self, modulus_count, name, r):
        FLOAT_CALLS[name](r)
        assert modulus_count[0] == 0

    @pytest.mark.parametrize("r", [1e-300, 1e-3, 0.5, 0.999, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("name", RADIUS_CALLS)
    def test_modulus_argument_is_its_float(self, name, r):
        # a Modulus gives the same bits as its r, or the same error
        results = []
        for m in (r, Modulus(r)):
            try:
                results.append(_bits(RADIUS_CALLS[name](m)))
            except DomainError as exc:
                results.append(str(exc))
        assert results[0] == results[1]

    def test_sharpness_suite(self, modulus_count):
        run_sharpness_suite(grid_points=2000)
        assert modulus_count[0] <= 2000 + 2000

    def test_remarks_suite(self, modulus_count):
        run_remarks_suite(grid_points=2000)
        assert modulus_count[0] <= 2000 + 2500

    def test_all_suites_build_no_modulus(self, modulus_count):
        # every radius of a suite run is made by the package inside (0, 1):
        # grid points, bisection midpoints and golden-section probes
        run_suite("all", grid_points=2000)
        assert modulus_count[0] == 0


class TestColumnScans:
    # the scans map bound kernels and row functions over the columns of one
    # grid table per run_suite call
    def test_column_map_is_the_scalar_path(self):
        # the scalar kernel is the public path, and the column kernel the scalar kernel, bit for bit
        rs = [1e-300, 1e-8, 0.5, 1 - 1e-12, 1 - 2**-53] + grid_open_unit(1000)
        rcs = [Modulus(r).r_comp for r in rs]
        for spec in default_candidates() + [spec for _, spec, _ in _falsifier_plan()] + VALUE_SPECS:
            scalar = [x.hex() for x in map(spec._at, rs, rcs)]
            assert scalar == [spec.evaluate(r).hex() for r in rs], spec.label
            column = _COLUMN[spec._at.func](*spec._at.args, rs, rcs)
            assert [x.hex() for x in column] == scalar, spec.label

    def test_all_is_the_three_suites(self):
        assert run_suite("all", grid_points=2000) == (run_lemma_suite(grid_points=2000)
                                                      + run_sharpness_suite(grid_points=2000)
                                                      + run_remarks_suite(grid_points=2000))

    def test_all_builds_the_grid_table_once(self, monkeypatch):
        # one counter per process in shared memory, so the runs of a forked child count too
        counts = memoryview(mmap.mmap(-1, 16)).cast("q")
        caller = os.getpid()
        agm_ke = ellipbounds.core._agm_ke

        def counting(r, rc):
            counts[os.getpid() != caller] += 1
            return agm_ke(r, rc)

        # standalone scans leave their tables cached; run_suite empties the
        # cache, so a warm run does the same work as a cold one
        sweep_monotone("lemma22_1", 2000)
        lemma26_classify(0.3, 1.0)
        search_violation(_falsifier_plan()[0][1], Side.LOWER)
        for module in (ellipbounds.core, ellipbounds.verify):
            monkeypatch.setattr(module, "_agm_ke", counting)
        for _ in range(2):
            counts[0] = counts[1] = 0
            run_suite("all", grid_points=2000)
            # one run per radius of the 2000-, 256- and 1000-point tables, plus
            # the bisection and golden-section steps
            assert 2000 + 256 + 1000 <= counts[0] + counts[1] <= 2000 + 2500

    @pytest.mark.parametrize("suite, built", [("sharpness", BASE), ("remarks", ("r", "rc"))])
    def test_suite_builds_only_the_columns_it_reads(self, suite, built):
        # the bound scans read (r, r', K, E), the remark and crossover scans (r, r')
        run_suite(suite, grid_points=2000)
        columns = vars(_grid_table(2000))
        assert sorted(columns) == sorted(built)
        assert all(type(col) is array and col.typecode == "d" for col in columns.values())

    def test_bisection_step_builds_only_the_column_it_reads(self, monkeypatch):
        # each bisection step of a mixed-case classification is a one-row
        # table that builds 2E - r'^2 K - pi/2 and the columns under it
        tables = []

        class Recorded(_Table):
            def __init__(self, rs):
                super().__init__(rs)
                tables.append(self)

        monkeypatch.setattr(ellipbounds.verify, "_Table", Recorded)
        u, p, _ = next(s for s in lemma26_case_sample() if s[2] is SignCase.POSITIVE_THEN_NEGATIVE)
        assert lemma26_classify(u, p).case_id is SignCase.POSITIVE_THEN_NEGATIVE
        steps = [vars(t) for t in tables if len(t.r) == 1]
        assert len(steps) > 20
        assert all(sorted(step) == sorted(BASE + ("wmh",)) for step in steps)


class TestSuites:
    def test_lemma_suite_passes(self):
        results = run_lemma_suite(grid_points=1000)
        assert len(results) == 16
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]

    def test_sharpness_suite_passes(self):
        results = run_sharpness_suite(grid_points=1000)
        assert len(results) == 21
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]

    def test_remarks_suite_passes(self):
        results = run_remarks_suite(grid_points=1000)
        assert len(results) == 5
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]

    def test_lemma_suite_sweeps_every_id(self, monkeypatch):
        swept, real = [], ellipbounds.verify.sweep_monotone
        monkeypatch.setattr(ellipbounds.verify, "sweep_monotone",
                            lambda fn, *args: swept.append(fn) or real(fn, *args))
        run_lemma_suite(1000)
        assert sorted(set(swept)) == sorted(sweep_ids())

    def test_falsifier_plan_covers_every_sharp_constant(self):
        # one falsifier per parametric default: same family and other
        # parameters, the sharp constant moved 1e-3 into the gap, same claimed side
        into_gap = {Side.LOWER: 1e-3, Side.UPPER: -1e-3}
        expected = sorted((s.family.value, s._args[0] + into_gap[s.side], s._args[1:], s.side.value)
                          for s in default_candidates() if s.q is not None or s.t is not None)
        plan = sorted((spec.family.value, spec._args[0], spec._args[1:], side.value)
                      for _, spec, side in _falsifier_plan())
        assert plan == expected
        assert all(spec.side is Side.INVALID for _, spec, _ in _falsifier_plan())

    def test_run_suite_dispatch(self):
        assert len(run_suite("all", grid_points=1000)) == 42
        with pytest.raises(ConfigurationError):
            run_suite("everything")


class TestFailureLines:
    # each failure branch of the suites, forced by replacing one scan, with the
    # exact detail line the suites print for it
    @pytest.fixture
    def flawed_sweeps(self, monkeypatch):
        # exact left limits, a nan right limit, and a worst violation
        # of 2.5e-7 on lemma22_2 (whose right end diverges)
        sweep = ellipbounds.verify.sweep_monotone

        def flawed(fn, grid, params=None):
            rep = sweep(fn, grid, params)
            return _replace(rep, left_limit=rep.claimed_left, right_limit=math.nan,
                            worst_violation=2.5e-7 if fn == "lemma22_2" else 0.0)

        monkeypatch.setattr(ellipbounds.verify, "sweep_monotone", flawed)
        return run_lemma_suite(1000)

    def test_sweep_with_nan_right_limit_fails(self, flawed_sweeps):
        res = flawed_sweeps[0]
        assert (res.name, res.passed) == ("lemma22_1", False)
        assert res.detail == ("dir=increasing worst_violation=0 left_err=0(tol 0.001) "
                              "right_err=nan(tol 0.001) grid=1000")

    def test_sweep_with_positive_violation_fails(self, flawed_sweeps):
        res = flawed_sweeps[1]
        assert (res.name, res.passed) == ("lemma22_2", False)
        assert res.detail == ("dir=increasing worst_violation=2.5e-07 left_err=0(tol 0.001) "
                              "right=divergent grid=1000")

    def test_failed_sweep_keeps_where_the_worst_move_starts(self, monkeypatch):
        # lemma22_1 lowered by 1e-3 at the 401st grid point: the largest move
        # against its increase starts one point earlier, and the detail line
        # does not print where
        sd, rs = ellipbounds.verify._SWEEPS["lemma22_1"], grid_open_unit(1000)

        def dipped(t):
            return [f - 1e-3 if r == rs[400] else f for r, f in zip(t.r, sd.fn(t))]

        monkeypatch.setitem(ellipbounds.verify._SWEEPS, "lemma22_1", _replace(sd, fn=dipped))
        res = run_lemma_suite(1000)[0]
        assert (res.name, res.passed, res.metrics["argmax_r"]) == ("lemma22_1", False, rs[399])
        assert res.detail == ("dir=increasing worst_violation=0.000910618 left_err=9.81437e-14(tol 0.001) "
                              "right_err=1.12212e-11(tol 0.001) grid=1000")

    @pytest.mark.parametrize("flaw, detail", [
        ({"case_id": SignCase.ALL_POSITIVE},
         "45/100 (u,p) samples classified as predicted; "
         "first mismatch (0.025, 0.5, 'all-negative', 'all-positive')"),
        ({"eta": 1.5},
         "75/100 (u,p) samples classified as predicted; "
         "first mismatch (0.5181708407416107, 0.5, 'eta in (0,1)', 1.5)"),
    ], ids=["case", "eta"])
    def test_sign_case_mismatch(self, monkeypatch, flaw, detail):
        classify = ellipbounds.verify.lemma26_classify

        def flawed(u, p, grid=256):
            rep = classify(u, p, grid)
            if "eta" in flaw and rep.case_id is not SignCase.POSITIVE_THEN_NEGATIVE:
                return rep  # only the mixed case has an eta
            return _replace(rep, **flaw)

        monkeypatch.setattr(ellipbounds.verify, "lemma26_classify", flawed)
        res = run_lemma_suite(1000)[-1]
        assert (res.name, res.passed, res.detail) == ("lemma26 sign cases", False, detail)

    def test_validity_over_slack_fails(self, monkeypatch):
        monkeypatch.setattr(ellipbounds.verify, "_VALIDITY_SLACK", -0.5)
        res = run_sharpness_suite(1000)[0]
        assert (res.name, res.passed) == ("valid lower bound: vuorinen", False)
        assert res.detail == "max signed violation 2.22045e-16 at r=0.003004 (slack -0.5, grid=1000)"

    def test_falsifier_without_violation_fails(self, monkeypatch):
        monkeypatch.setattr(ellipbounds.verify, "_falsifier_plan",
                            lambda: [("vuorinen as lower", BoundSpec(Family.VUORINEN), Side.LOWER)])
        res = run_sharpness_suite(1000)[-1]
        assert (res.name, res.passed) == ("falsify vuorinen as lower", False)
        assert res.detail == "violation 4.44089e-16 located at r=0.00305978"

    def test_missing_crossover_fails(self, monkeypatch):
        monkeypatch.setattr(ellipbounds.verify, "find_crossover",
                            lambda a, b, scan=1000: NoCrossover(a, b, a))
        results = run_remarks_suite(1000)[-2:]
        assert [(res.passed, res.detail) for res in results] == [(False, "no crossover found")] * 2


class TestMetrics:
    # every check is built by verify._check: its detail line is its template
    # rendered from the metrics it keeps, and the metrics are finite numbers
    # that take no part in equality, hashing or repr
    def test_detail_is_the_rendered_metrics(self, monkeypatch):
        made = []
        check = ellipbounds.verify._check

        def recording(name, passed, template, **metrics):
            made.append((template, check(name, passed, template, **metrics)))
            return made[-1][1]

        monkeypatch.setattr(ellipbounds.verify, "_check", recording)
        # one process, so that every check is made here; the sharpness and remarks checks come back
        # through marshal as frames made here, so each result is the check made here bit for bit
        monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: 1)
        results = run_suite("all", grid_points=1000)
        assert len(results) == len(made) == 42
        assert _result_bits(results) == _result_bits([made_res for _, made_res in made])
        for res, (template, made_res) in zip(results, made):
            assert res.detail == template.format(**res.metrics)
            floats = [v for v in res.metrics.values() if isinstance(v, float)]
            assert all(map(math.isfinite, floats)), res

    def test_metric_keys(self):
        keys = {frozenset(res.metrics) for res in run_suite("all", grid_points=1000)}
        sweep = {"dir", "worst_violation", "left_err", "tol", "grid"}
        assert keys == {frozenset(k) for k in [
            sweep, sweep | {"right_err"},
            {"lower_margin", "upper_margin", "p_values"},
            {"as_predicted", "samples"},
            {"violation", "r", "slack", "grid"},
            {"violation", "r"},
            {"max_residual", "tol"},
            {"min_gap", "min_gap_mid"},
            {"delta", "r_cross"},
        ]}

    def test_metrics_take_no_part_in_equality(self):
        res = run_remarks_suite(1000)[0]
        bare = _replace(res, metrics={})
        assert res.metrics and bare == res and hash(bare) == hash(res)
        assert "metrics" not in repr(res)


def _result_bits(results):
    # every field of every check bit for bit, its metrics (a failed sweep's argmax_r too) included
    return [_bits(res) + (_bits(tuple(res.metrics.items())),) for res in results]


def _fails(message):
    def run(grid_points):
        raise VerificationError(message)
    return run


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fan-out needs os.fork")
class TestFanOut:
    # run_suite("all") with two usable CPUs: the lemma suite here, the
    # sharpness and remarks suites in one forked child, with the results and
    # errors of the one-process run and no process left behind
    @pytest.fixture
    def forks(self, monkeypatch):
        # two usable CPUs, whatever the host, and the children forked, counted here
        made, fork = [], os.fork
        monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: made.append(os.getpid()) or fork())
        return made

    @pytest.mark.parametrize("flawed", [False, True], ids=["passing", "failing"])
    @pytest.mark.parametrize("grid", [1000, 2000])
    def test_same_results_as_one_process(self, monkeypatch, forks, grid, flawed):
        if flawed:
            # lemma22_1 lowered at one grid point, and a slack that fails the 13
            # validity checks and remark 4.5
            sd, dip = _SWEEPS["lemma22_1"], grid_open_unit(grid)[400]
            monkeypatch.setitem(_SWEEPS, "lemma22_1", _replace(
                sd, fn=lambda t: [f - 1e-3 if r == dip else f for r, f in zip(t.r, sd.fn(t))]))
            monkeypatch.setattr(ellipbounds.verify, "_VALIDITY_SLACK", -0.5)
        fanned = run_suite("all", grid)
        assert len(forks) == 1
        monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: 1)
        alone = run_suite("all", grid)
        assert len(forks) == 1
        assert _result_bits(fanned) == _result_bits(alone)
        assert sum(not res.passed for res in fanned) == (15 if flawed else 0)
        assert ("argmax_r" in fanned[0].metrics) is flawed
        _assert_no_children()

    def test_child_error_reaches_the_caller(self, monkeypatch, capsys, forks):
        monkeypatch.setattr(ellipbounds.verify, "run_remarks_suite", _fails("remarks broke at r=0.5"))
        with pytest.raises(VerificationError) as exc:
            run_suite("all", 1000)
        assert (type(exc.value), str(exc.value)) == (VerificationError, "remarks broke at r=0.5")
        assert len(forks) == 1
        _assert_no_children()
        monkeypatch.setenv("ELLIP_GRID_POINTS", "1000")
        assert ellipbounds.cli.main(["verify", "--suite", "all"]) == 1
        assert capsys.readouterr() == ("", "error: verification failure: remarks broke at r=0.5\n")
        _assert_no_children()

    def test_lemma_error_wins(self, monkeypatch, forks):
        # the first failing suite in suite order, as in one process
        for suite in ("run_lemma_suite", "run_sharpness_suite", "run_remarks_suite"):
            monkeypatch.setattr(ellipbounds.verify, suite, _fails(suite))
        with pytest.raises(VerificationError, match="^run_lemma_suite$"):
            run_suite("all", 1000)
        monkeypatch.setattr(ellipbounds.verify, "run_lemma_suite", run_lemma_suite)
        with pytest.raises(VerificationError, match="^run_sharpness_suite$"):
            run_suite("all", 1000)
        assert len(forks) == 2
        _assert_no_children()

    def test_error_here_kills_the_child(self, monkeypatch, forks):
        # the child is stopped, not waited out, and still reaped
        monkeypatch.setattr(ellipbounds.verify, "run_sharpness_suite", lambda grid_points: time.sleep(60))
        monkeypatch.setattr(ellipbounds.verify, "run_lemma_suite", _fails("lemmas broke"))
        t0 = time.monotonic()
        with pytest.raises(VerificationError, match="^lemmas broke$"):
            run_suite("all", 1000)
        assert time.monotonic() - t0 < 30
        _assert_no_children()

    def test_child_without_a_result(self, monkeypatch, capsys, forks):
        caller = os.getpid()

        def dies(grid_points):
            # ends a forked child at once; in this process it only fails
            if os.getpid() != caller:
                os._exit(5)
            raise AssertionError("the sharpness suite ran in the caller")

        monkeypatch.setattr(ellipbounds.verify, "run_sharpness_suite", dies)
        with pytest.raises(EllipBoundsError) as exc:
            run_suite("all", 1000)
        message = "the sharpness and remarks child ended without a result (exit status 5)"
        assert (type(exc.value), str(exc.value)) == (EllipBoundsError, message)
        _assert_no_children()
        monkeypatch.setenv("ELLIP_GRID_POINTS", "1000")
        assert ellipbounds.cli.main(["verify", "--suite", "all"]) == 3
        assert capsys.readouterr() == ("", f"error: internal numerical error: {message}\n")
        _assert_no_children()

    def test_one_usable_cpu_never_forks(self, monkeypatch, forks):
        monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: 1)
        assert len(run_suite("all", 1000)) == 42
        assert forks == []

    def test_one_suite_or_a_second_thread_never_forks(self, forks):
        assert len(run_suite("sharpness", 1000)) == 21
        alive = threading.Event()
        thread = threading.Thread(target=alive.wait)
        thread.start()
        try:
            assert len(run_suite("all", 1000)) == 42
        finally:
            alive.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and forks == []

    @pytest.mark.parametrize("grid", [1, 999, 1000.0, [1000]], ids=repr)
    def test_grid_the_lemma_suite_rejects_never_forks(self, forks, grid):
        with pytest.raises(ConfigurationError):
            run_suite("all", grid)
        assert forks == []

    def test_failed_fork_runs_here(self, monkeypatch, forks):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        results = run_suite("all", 1000)
        monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: 1)
        assert _result_bits(results) == _result_bits(run_suite("all", 1000))

    def test_results_come_back_without_pickle(self):
        # the child's results travel as marshal data: a fresh interpreter that forks never loads pickle
        code = ("import sys; import ellipbounds._fork as f, ellipbounds.verify as v; f.cpus = lambda: 2; "
                "print(len(v.run_suite('all', 1000)), 'pickle' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "42 False\n", "")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fan-out needs os.fork")
class TestSplitTableBuild:
    # run_suite("all") forks right after r and r': the child builds the main grid's K and E and sends
    # them as its first frame, and in both processes the scans share the main grid's bound columns
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_main_grid_bound_column_is_built_once(self, monkeypatch, cpus):
        # one counter per distinct (kernel, args) in shared memory, so the runs of a forked child count too
        keys = list(dict.fromkeys((spec._at.func, spec._at.args) for spec in default_candidates()))
        counts = memoryview(mmap.mmap(-1, 8 * len(keys))).cast("q")

        def counting(kernel, column):
            def run(*args):
                *params, rs, rcs = args
                if len(rs) == 2000:
                    counts[keys.index((kernel, tuple(params)))] += 1
                return column(*args)
            return run

        for kernel, column in list(_COLUMN.items()):
            monkeypatch.setitem(_COLUMN, kernel, counting(kernel, column))
        made, fork = [], os.fork
        monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
        for _ in range(2):
            counts[:] = array("q", [0] * len(keys))
            assert len(run_suite("all", 2000)) == 42
            assert counts.tolist() == [1] * len(keys)
        assert len(made) == (2 if cpus == 2 else 0)
        _assert_no_children()

    def test_caller_takes_k_and_e_from_the_child(self, monkeypatch):
        # bit for bit those of a table built here, and none of the main grid's AGM runs made here:
        # this process runs the AGM as often as a lemma suite on a table with K and E built
        caller, runs_here, agm_ke = os.getpid(), [0], ellipbounds.verify._agm_ke

        def counting(r, rc):
            runs_here[-1] += os.getpid() == caller
            return agm_ke(r, rc)

        monkeypatch.setattr(ellipbounds.verify, "_agm_ke", counting)
        monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: 2)
        assert len(run_suite("all", 2000)) == 42
        main = _grid_table(2000)
        _grid_table.cache_clear()
        runs_here.append(0)
        _grid_table(2000).e
        runs_here.append(0)
        run_lemma_suite(2000)
        assert runs_here[0] == runs_here[2] > 0 and runs_here[1] == 2000
        monkeypatch.undo()
        fresh = _Table(grid_open_unit(2000))
        assert (main.k.tobytes(), main.e.tobytes()) == (fresh.k.tobytes(), fresh.e.tobytes())
        assert main.frame is None
        _assert_no_children()
