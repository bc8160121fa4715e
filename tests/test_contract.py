"""Input contract: every public function, fed hostile input in any one of its
numeric slots, either returns finite values or raises an EllipBoundsError
subclass, and every CLI subcommand exits with the code the library outcome
of the same input documents (0 finite, 1 verification failure, 2 usage or
domain error).  The one documented infinity is q_mean's overflow for p > 1;
a sweep's right limit is +inf by definition when the claim diverges there.
"""

import functools
import math
import sys
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellipbounds as eb
from ellipbounds import BETA_STAR, BoundSpec, Family, Side
from ellipbounds.cli import GridSpec, Spacing, main
from ellipbounds.verify import (
    grid_open_unit,
    lemma26_expected_case,
    run_lemma_suite,
    run_remarks_suite,
    run_sharpness_suite,
)

TINY = math.nextafter(0.0, 1.0)  # the smallest subnormal, 5e-324
BELOW_ONE = math.nextafter(1.0, 0.0)  # K(BELOW_ONE) is about 19.4
HOSTILE = [math.nan, math.inf, -math.inf, TINY, -TINY, 1e-310, BELOW_ONE, 0, 1, 0.0, 1.0,
           -1.0, 2.0, 1e308, sys.float_info.max, True, False, None, "x", [0.5]]
# grid sizes: too small, 2 points, non-integral, and non-numbers
GRIDS = [2, 3, 0, 1, -5, 2.5, 1000.0, 1000.5, math.nan, math.inf, True, None, "x", [1000]]

SPEC = BoundSpec(Family.THM11, q=BETA_STAR)
FALSIFIED = BoundSpec(Family.THM11, q=BETA_STAR + 1e-3)
REMARK_PAIR = (BoundSpec(Family.COR31_UPPER), BoundSpec(Family.ALZER_QIU))

# one call per public function and numeric slot: the hostile value goes in x
R_CALLS = {
    "Modulus": eb.Modulus,
    "as_modulus": eb.as_modulus,
    "elliptic_ke": eb.elliptic_ke,
    "complete_k": eb.complete_k,
    "complete_e": eb.complete_e,
    "ellipse_perimeter": eb.ellipse_perimeter,
    "derivative_residuals": eb.derivative_residuals,
    "landen_residual": eb.landen_residual,
    "vuorinen_lower": eb.vuorinen_lower,
    "barnard_upper": eb.barnard_upper,
    "alzer_qiu_upper": eb.alzer_qiu_upper,
    "thm11_bound": lambda x: eb.thm11_bound(x, BETA_STAR),
    "thm12_bound": lambda x: eb.thm12_bound(x, 0.75, 1.0),
    "corollary31": eb.corollary31,
    "best_enclosure": lambda x: eb.best_enclosure(x, eb.default_candidates()),
    "BoundSpec.evaluate": SPEC.evaluate,
    "lemma22_function": lambda x: eb.lemma22_function(6, x),
    "lemma23_g": eb.lemma23_g,
    "lemma24_h": lambda x: eb.lemma24_h(x, 2.0),
    "lemma26_f": lambda x: eb.lemma26_f(x, 0.5, 1.0),
    "lemma27_F": eb.lemma27_F,
}
CALLS = {
    **R_CALLS,
    "derivative_residuals h": lambda x: eb.derivative_residuals(0.5, h=x),
    "agm a": lambda x: eb.agm(x, 1.0),
    "agm b": lambda x: eb.agm(1.0, x),
    "MeanPair": lambda x: eb.MeanPair(2.0, x),
    "toader_mean a": lambda x: eb.toader_mean(x, 1.0),
    "toader_mean b": lambda x: eb.toader_mean(2.0, x),
    "q_mean a": lambda x: eb.q_mean(x, 1.0, 0.75, 1.5),
    "q_mean t": lambda x: eb.q_mean(2.0, 1.0, x, 1.5),
    "q_mean p": lambda x: eb.q_mean(2.0, 1.0, 0.75, x),
    "thm11_bound q": lambda x: eb.thm11_bound(0.5, x),
    "thm12_bound t": lambda x: eb.thm12_bound(0.5, x, 1.0),
    "thm12_bound p": lambda x: eb.thm12_bound(0.5, 1.0, x),
    "BoundSpec q": lambda x: BoundSpec(Family.THM11, q=x),
    "BoundSpec t": lambda x: BoundSpec(Family.THM12, t=x, p=1.0),
    "BoundSpec p": lambda x: BoundSpec(Family.THM12, t=1.0, p=x),
    "parse_bound_spec": lambda x: eb.parse_bound_spec(f"thm12-lower:p={x}"),
    "parse_bound_spec text": eb.parse_bound_spec,
    "thm12_lower_threshold": eb.thm12_lower_threshold,
    "thm12_upper_threshold": eb.thm12_upper_threshold,
    "lemma22_function idx": lambda x: eb.lemma22_function(x, 0.5),
    "lemma24_h p": lambda x: eb.lemma24_h(0.5, x),
    "lemma25_check": eb.lemma25_check,
    "lemma26_f u": lambda x: eb.lemma26_f(0.5, x, 1.0),
    "lemma26_f p": lambda x: eb.lemma26_f(0.5, 0.5, x),
    "lemma26_expected_case u": lambda x: lemma26_expected_case(x, 1.0),
    "lemma26_expected_case p": lambda x: lemma26_expected_case(0.5, x),
    "lemma26_classify u": lambda x: eb.lemma26_classify(x, 1.0, 100),
    "lemma26_classify p": lambda x: eb.lemma26_classify(0.3, x, 100),
    "sweep_monotone p": lambda x: eb.sweep_monotone("lemma24_h", 1000, {"p": x}),
    "sweep_monotone fn": lambda x: eb.sweep_monotone(x, 1000),
    "sweep_monotone params": lambda x: eb.sweep_monotone("lemma24_h", 1000, x),
    "best_enclosure candidate": lambda x: eb.best_enclosure(0.5, [x, *eb.default_candidates()]),
    "find_crossover a": lambda x: eb.find_crossover(x, REMARK_PAIR[1]),
    "find_crossover b": lambda x: eb.find_crossover(REMARK_PAIR[0], x),
    "search_violation spec": lambda x: eb.search_violation(x, Side.LOWER),
    "GridSpec start": lambda x: GridSpec(x, 0.5, 11).values(),
    "GridSpec end": lambda x: GridSpec(0.1, x, 11).values(),
}
GRID_CALLS = {
    "grid_open_unit": grid_open_unit,
    "sweep_monotone": lambda n: eb.sweep_monotone("lemma22_1", n),
    "lemma26_classify": lambda n: eb.lemma26_classify(0.3, 1.0, n),
    "search_violation": lambda n: eb.search_violation(FALSIFIED, Side.LOWER, n),
    "find_crossover": lambda n: eb.find_crossover(*REMARK_PAIR, n),
    "run_lemma_suite": run_lemma_suite,
    "run_sharpness_suite": run_sharpness_suite,
    "run_remarks_suite": run_remarks_suite,
    "run_suite all": lambda n: eb.run_suite("all", n),
    "GridSpec points": lambda n: GridSpec(0.1, 0.5, n).values(),
}


def finite(value) -> bool:
    """Every float reachable from value through sequences, dict values and
    the fields of the package's records (a check's metrics included) is
    finite; a divergent sweep's right limit is exempt.  Any leaf that is not
    a type the package returns fails."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(map(finite, value))
    if isinstance(value, dict):
        return all(map(finite, value.values()))
    if hasattr(type(value), "__match_args__"):
        # a record: its instance dict holds every attribute, derived and uncompared ones too
        exempt = ("right_limit", "claimed_right") if getattr(value, "divergent_right", False) else ()
        return all(finite(v) for name, v in vars(value).items() if name not in exempt)
    # str, int and bool, None, Family/Side/Direction/SignCase members, BoundSpec._at
    return value is None or isinstance(value, (str, int, Enum, functools.partial))


def test_finite_walks_every_record_field():
    # finite() reaches every field of a record: derived, uncompared and private ones too
    enc = eb.best_enclosure(0.5, [BoundSpec(Family.VUORINEN), *REMARK_PAIR])
    check = eb.CheckResult("c", True, "d", {"r": 0.5})
    assert [list(vars(x)) for x in (eb.Modulus(0.5), SPEC, enc, check)] == [
        ["r", "r_comp"],
        ["family", "q", "t", "p", "_at", "_args", "_side"],
        ["lo", "hi", "lo_source", "hi_source", "values"],
        ["name", "passed", "detail", "metrics"],
    ]
    assert finite(enc) and finite(check)
    assert not finite(eb.Enclosure(enc.lo, enc.hi, *REMARK_PAIR, (math.nan,)))
    assert not finite(eb.CheckResult("c", True, "d", {"r": math.nan}))


@pytest.mark.parametrize("leaf", [object(), 1j, b"x", {0.5}, range(2), lambda: 0.5],
                         ids=["object", "complex", "bytes", "set", "range", "function"])
def test_finite_rejects_unknown_leaves(leaf):
    # a type finite() does not know is a failure, not a pass, also inside a record
    assert not finite(leaf)
    assert not finite(eb.CheckResult("c", True, "d", {"x": leaf}))


def outcome(call, passed=lambda result: True) -> int:
    """The exit code documented for what call() does: 0 for a finite result
    that passed, 1 for one that did not or a VerificationError, 2 for a
    usage or domain error.  Anything else fails the test."""
    try:
        result = call()
    except eb.VerificationError:
        return 1
    except (eb.DomainError, eb.InvalidBoundError, eb.ConfigurationError):
        return 2
    assert finite(result), result
    return 0 if passed(result) else 1


@pytest.mark.parametrize("x", HOSTILE, ids=repr)
@pytest.mark.parametrize("name", CALLS)
def test_hostile_value(name, x):
    call = CALLS[name]
    if name.startswith("q_mean"):
        try:  # for p > 1 the mean may overflow to inf, as documented
            if call(x) == math.inf:
                return
        except eb.EllipBoundsError:
            pass
    outcome(lambda: call(x))


@pytest.mark.parametrize("n", GRIDS, ids=repr)
@pytest.mark.parametrize("name", GRID_CALLS)
def test_hostile_grid(name, n):
    outcome(lambda: GRID_CALLS[name](n))


@pytest.mark.parametrize("bad", [{"start": "a"}, {"end": None}], ids=repr)
def test_grid_spec_raises_domain_error(bad):
    with pytest.raises(eb.DomainError):
        GridSpec(**{"start": 0.1, "end": 0.5, "points": 11, **bad})


# GridSpec checks its size with core._size, as every verify grid does
@pytest.mark.parametrize("points, message", [
    (2.5, "grid size must be an integer, got 2.5"),
    (None, "grid size must be an integer, got None"),
    (True, "grid needs at least 2 points, got True"),
], ids=["2.5", "None", "True"])
def test_grid_spec_points_raise_configuration_error(points, message):
    with pytest.raises(eb.ConfigurationError) as exc:
        GridSpec(0.1, 0.5, points)
    assert str(exc.value) == message


@given(st.one_of(st.floats(), st.integers(-3, 3), st.booleans(), st.none(), st.text(max_size=3)))
@settings(max_examples=100, deadline=None)
def test_any_radius(x):
    for call in R_CALLS.values():
        outcome(lambda: call(x))


# --------------------------------------------------------------------------
# The CLI, in process: each case with its library equivalent, or None where
# argparse itself rejects the text (exit 2).

def as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


R_TEXTS = ["nan", "inf", "-inf", repr(TINY), "1e-310", repr(BELOW_ONE), "0", "1", "-0.0", "2",
           "1e308", "x", "None", "True"]
EVAL = {"K": eb.complete_k, "E": eb.complete_e, "perimeter": eb.ellipse_perimeter}


def cli_cases():
    for text in R_TEXTS:
        r = as_float(text)
        for what, fn in EVAL.items():
            yield (f"eval {what} r={text}", ["eval", "--what", what, "--r", text], {},
                   None if r is None else (lambda fn=fn, r=r: fn(r)))
        yield (f"eval toader a={text}", ["eval", "--what", "toader", "--a", text, "--b", "1"], {},
               None if r is None else (lambda r=r: eb.toader_mean(r, 1.0)))
        yield (f"enclose r={text}", ["enclose", "--r", text, "--families", "all"], {},
               None if r is None else (lambda r=r: (eb.best_enclosure(r, eb.default_candidates()),
                                                     eb.complete_e(r))))
    yield ("enclose no families", ["enclose", "--r", "0.5", "--families"], {},
           lambda: eb.best_enclosure(0.5, []))
    for raw in ["1", "2", "0", "-3", "x", "nan", "2.5", ""]:
        for suite in ("all", "remarks"):
            n = int(raw) if raw.lstrip("-").isdigit() and int(raw) > 0 else None
            yield (f"verify {suite} grid={raw!r}", ["verify", "--suite", suite],
                   {"ELLIP_GRID_POINTS": raw},
                   None if n is None else (lambda s=suite, n=n: eb.run_suite(s, n)))
    for start, end, points, spacing in [("0", "0.5", "11", "uniform"), ("0.5", "1", "11", "uniform"),
                                        ("nan", "0.5", "11", "uniform"),
                                        (repr(TINY), repr(BELOW_ONE), "2", "uniform"),
                                        ("0.1", "0.2", "1", "uniform"), ("0.1", "0.2", "2.5", "uniform"),
                                        ("0.1", "1", "5", "log-near-one"),
                                        ("0.1", repr(BELOW_ONE), "5", "log-near-one")]:
        grid = (as_float(start), as_float(end), int(points) if points.isdigit() else None)
        yield (f"compare {start} {end} {points} {spacing}",
               ["compare", "--start", start, "--end", end, "--points", points, "--spacing", spacing,
                "--families", "all", "--output", "OUT"], {},
               None if None in grid else (
                   lambda g=grid, sp=spacing: [eb.best_enclosure(r, eb.default_candidates())
                                               for r in GridSpec(*g, Spacing(sp)).values()]))
    for a, b in [("vuorinen", "vuorinen"), ("thm11:q=0.12", "vuorinen"), ("thm11:q=nan", "vuorinen"),
                 ("thm11:q=x", "vuorinen"), ("thm12:t=1,p=inf", "vuorinen"), ("bogus", "vuorinen")]:
        yield (f"crossover {a} {b}", ["crossover", "--a", a, "--b", b], {},
               lambda a=a, b=b: eb.find_crossover(eb.parse_bound_spec(a), eb.parse_bound_spec(b)))


CLI_CASES = {name: case for name, *case in cli_cases()}


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_exit_matches_library(name, monkeypatch, capsys, tmp_path):
    argv, env, library = CLI_CASES[name]
    monkeypatch.delenv("ELLIP_GRID_POINTS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [str(tmp_path / "table.csv") if a == "OUT" else a for a in argv]
    if library is None:
        expected = 2
    elif argv[0] == "verify":
        expected = outcome(library, passed=lambda results: all(c.passed for c in results))
    else:
        expected = outcome(library)
    assert main(argv) == expected
    capsys.readouterr()
