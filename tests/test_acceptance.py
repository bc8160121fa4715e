"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Tolerances are pinned here, not configurable.
"""

import contextlib
import filecmp
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from ellipbounds import (
    BETA_STAR,
    BoundSpec,
    Family,
    NoCrossover,
    Side,
    SignCase,
    complete_e,
    complete_k,
    default_candidates,
    derivative_residuals,
    find_crossover,
    landen_residual,
    search_violation,
    sweep_monotone,
    thm11_bound,
    alzer_qiu_upper,
    vuorinen_lower,
)
from ellipbounds.bounds import ALPHA_STAR, MU_STAR
from ellipbounds.cli import main as cli_main
from ellipbounds.verify import (
    _falsifier_plan,
    grid_open_unit,
    lemma26_case_sample,
    lemma26_classify,
)
from oracles import quad_e, quad_k

# delta values are not in the source material; frozen after first computation
FROZEN_DELTA_1 = 0.013622812986578747
FROZEN_DELTA_2 = 0.005666838688905607


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def truncate6(x: float) -> float:
    return math.floor(x * 1e6) / 1e6


def test_criterion_1_reference_accuracy():
    with criterion(1, "AGM route matches the quadrature oracle to 1e-12 "
                      "relative on 1000 points in under 1 s"):
        start = time.perf_counter()
        worst = 0.0
        for i in range(1000):
            r = 0.01 + i * (0.98 / 999)
            qe, qk = quad_e(r), quad_k(r)
            worst = max(worst,
                        abs(complete_e(r) - qe) / qe,
                        abs(complete_k(r) - qk) / qk)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-12, f"worst relative error {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_paper_limit_values():
    with criterion(2, "printed limit constants reproduced to their stated digits"):
        # upper-bound limit at r -> 1: (pi/8)(sqrt(2+sqrt2) + sqrt(2-sqrt2))
        assert truncate6(alzer_qiu_upper(1 - 1e-12)) == 1.026172
        # classical lower-bound limit at r -> 1: 2^(-5/3) pi
        assert truncate6(vuorinen_lower(1 - 1e-12)) == 0.989539
        # threshold-inequality endpoint constants at p = 2
        f1 = (9.0 / 8.0) ** 2
        f2 = (8.0 / 7.0) ** 2
        assert f1 == 1.265625
        assert truncate6(f2) == 1.306122
        assert f1 < 4.0 / math.pi < f2
        # the quotient function's endpoint limits from its sweep
        rep = sweep_monotone("lemma22_7", grid=10_000)
        assert rep.left_error <= 1e-3
        assert rep.right_error <= 1e-3
        assert rep.claimed_left == math.pi**2 / 2
        assert rep.claimed_right == 16 - math.pi**2


def test_criterion_3_bound_validity_sweep():
    with criterion(3, "every sharp-constant family holds strictly on 10^4 "
                      "points at 1e-13 slack in under 10 s"):
        start = time.perf_counter()
        rs = grid_open_unit(10_000)
        es = [complete_e(r) for r in rs]
        specs = default_candidates()
        assert len(specs) == 13
        for spec in specs:
            side = spec.side
            assert side in (Side.LOWER, Side.UPPER)
            for r, e in zip(rs, es):
                v = spec.evaluate(r)
                if side is Side.LOWER:
                    assert v <= e + 1e-13, f"{spec.label} at r={r}"
                else:
                    assert v >= e - 1e-13, f"{spec.label} at r={r}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_4_sharpness_falsification():
    with criterion(4, "each sharp constant perturbed by 1e-3 is falsified "
                      "in under 1 s per search"):
        plan = _falsifier_plan()
        assert len(plan) == 8
        for name, spec, side in plan:
            start = time.perf_counter()
            r, v = search_violation(spec, side)
            elapsed = time.perf_counter() - start
            assert v > 1e-12, f"{name}: no violation found"
            assert 0.0 < r < 1.0
            assert elapsed < 1.0, f"{name}: took {elapsed:.2f}s"


def test_criterion_5_monotonicity_suite():
    with criterion(5, "all monotonicity sweeps report worst_violation = 0 at "
                      "grid 10^4 and the 20x5 sign-case sample classifies as "
                      "predicted"):
        plan = [(f"lemma22_{i}", None) for i in range(1, 8)]
        plan.append(("lemma23_g", None))
        plan += [("lemma24_h", {"p": p}) for p in (0.5, 0.75, 1.0, 1.5, 2.0)]
        plan.append(("lemma27_F", None))
        for fn, params in plan:
            rep = sweep_monotone(fn, grid=10_000, params=params)
            assert rep.worst_violation == 0.0, rep.name
        sample = lemma26_case_sample()
        assert len(sample) == 100
        seen = set()
        for u, p, expected in sample:
            rep = lemma26_classify(u, p)
            assert rep.case_id is expected, (u, p)
            seen.add(expected)
            if expected is SignCase.POSITIVE_THEN_NEGATIVE:
                assert 0.0 < rep.eta < 1.0
        assert seen == {SignCase.ALL_NEGATIVE, SignCase.ALL_POSITIVE,
                        SignCase.POSITIVE_THEN_NEGATIVE}


def test_criterion_6_identity_checks():
    with criterion(6, "coincidence within 1e-15, quadratic identity within "
                      "1e-14, Landen and derivative residuals within stated "
                      "tolerances"):
        rs = grid_open_unit(10_000)
        for r in rs:
            assert abs(alzer_qiu_upper(r) - thm11_bound(r, ALPHA_STAR)) < 1e-15
        coeff = 1.0 - 8.0 / math.pi**2
        for x in rs:
            lhs = (1.0 + x * x) - ((MU_STAR + (1 - MU_STAR) * x) ** 2
                                   + ((1 - MU_STAR) + MU_STAR * x) ** 2)
            assert abs(lhs - coeff * (1.0 - x) ** 2) < 1e-14
        for r in rs[::5]:
            assert landen_residual(r) < 1e-12
        assert derivative_residuals(0.5, h=1e-5).worst < 1e-9
        for i in range(18):
            r = 0.05 + i * (0.80 / 17)
            assert derivative_residuals(r, h=1e-5).worst < 1e-8
        # at r = 0.9 the stencil truncation reaches 1.70e-8 (frozen value)
        assert derivative_residuals(0.9, h=1e-5).worst < 2.5e-8


def test_criterion_7_crossover_reproduction():
    with criterion(7, "both crossover radii are stable under 10x grid "
                      "refinement and global dominance is detected"):
        a1, b1 = BoundSpec(Family.COR31_UPPER), BoundSpec(Family.ALZER_QIU)
        c1 = find_crossover(a1, b1, scan=1000)
        c1_fine = find_crossover(a1, b1, scan=10_000)
        assert abs(c1.delta - c1_fine.delta) < 1e-10
        assert c1.delta == pytest.approx(FROZEN_DELTA_1, abs=1e-9)
        assert c1.better_near_one.family is Family.COR31_UPPER

        a2, b2 = BoundSpec(Family.THM11, q=BETA_STAR), BoundSpec(Family.VUORINEN)
        c2 = find_crossover(a2, b2, scan=1000)
        c2_fine = find_crossover(a2, b2, scan=10_000)
        assert abs(c2.delta - c2_fine.delta) < 1e-10
        assert c2.delta == pytest.approx(FROZEN_DELTA_2, abs=1e-9)
        assert c2.better_near_one.family is Family.THM11

        dom = find_crossover(BoundSpec(Family.COR31_LOWER), BoundSpec(Family.VUORINEN))
        assert isinstance(dom, NoCrossover)
        assert dom.dominant.family is Family.COR31_LOWER


def test_criterion_8_determinism(tmp_path, capsys):
    with criterion(8, "two identical compare invocations produce "
                      "byte-identical CSV files"):
        args = ["compare", "--start", "0.01", "--end", "0.99", "--points", "99",
                "--families", "all"]
        # in-process, back to back
        p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli_main(args + ["--output", str(p1)]) == 0
        assert cli_main(args + ["--output", str(p2)]) == 0
        capsys.readouterr()
        assert filecmp.cmp(p1, p2, shallow=False)
        # and across separate interpreter processes
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        p3, p4 = tmp_path / "run3.csv", tmp_path / "run4.csv"
        for path in (p3, p4):
            proc = subprocess.run(
                [sys.executable, "-m", "ellipbounds.cli"] + args + ["--output", str(path)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0
        assert p3.read_bytes() == p4.read_bytes() == p1.read_bytes()
