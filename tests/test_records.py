"""The contract of the public value classes: frozen records with a repr,
equality and hash over their compared fields, construction by position or
keyword, and pickle and deepcopy round trips."""

import copy
import math
import pickle

import pytest

from ellipbounds import BoundSpec, Enclosure, Family, Modulus, SharpConstants
from ellipbounds.cli import GridSpec, Spacing
from ellipbounds.core import DerivativeResiduals, EllipticValues, MeanPair, _complement
from ellipbounds.verify import (
    CheckResult,
    CrossoverResult,
    Direction,
    Lemma25Margins,
    MonotoneReport,
    NoCrossover,
    SignCase,
    SignCaseReport,
)

T12 = BoundSpec(Family.THM12, t=0.9, p=1.5)
VUO = BoundSpec(Family.VUORINEN)
T12_REPR = "BoundSpec(family=<Family.THM12: 'thm12'>, q=None, t=0.9, p=1.5)"
VUO_REPR = "BoundSpec(family=<Family.VUORINEN: 'vuorinen'>, q=None, t=None, p=None)"
SHARP_REPR = ("SharpConstants(beta_star=0.10814976733590587, alpha_star={}, "
              "lambda_star=0.6767766952966369, mu_star=0.894061841047, "
              "alzer_alpha=0.1464466094067262, alzer_beta=0.8535533905932737)")

MONOTONE_FIELDS = ("name", "direction", "left_limit", "right_limit", "worst_violation", "grid_size",
                   "claimed_left", "claimed_right", "argmax_r")

# (class, positional arguments, the names of every __init__ parameter in
# order, how many of them are required, the repr); every record built here
# differs from every other
RECORDS = [
    (Modulus, (0.5,), ("r",), 1, "Modulus(r=0.5, r_comp=0.8660254037844386)"),
    (Modulus, (0.25,), ("r",), 1, "Modulus(r=0.25, r_comp=0.9682458365518543)"),
    (EllipticValues, (1.5, 1.25), ("k_val", "e_val"), 2, "EllipticValues(k_val=1.5, e_val=1.25)"),
    (EllipticValues, (1, 2), ("k_val", "e_val"), 2, "EllipticValues(k_val=1, e_val=2)"),
    (MeanPair, (1, 2), ("a", "b"), 2, "MeanPair(a=1.0, b=2.0)"),
    (MeanPair, (2.0, 1.0), ("a", "b"), 2, "MeanPair(a=2.0, b=1.0)"),
    (DerivativeResiduals, (1e-10, 2e-10, 3e-10, 4e-10), ("dk", "de", "d_e_minus_rc2k", "d_k_minus_e"), 4,
     "DerivativeResiduals(dk=1e-10, de=2e-10, d_e_minus_rc2k=3e-10, d_k_minus_e=4e-10)"),
    (SharpConstants, (), ("beta_star", "alpha_star", "lambda_star", "mu_star", "alzer_alpha", "alzer_beta"), 0,
     SHARP_REPR.format("0.1464466094067262")),
    (SharpConstants, (math.nextafter(0.10814976733590587, 1.0), 0.125),
     ("beta_star", "alpha_star", "lambda_star", "mu_star", "alzer_alpha", "alzer_beta"), 0,
     SHARP_REPR.format("0.125").replace("0.10814976733590587", "0.10814976733590588")),
    (BoundSpec, (Family.THM12, None, 0.9, 1.5), ("family", "q", "t", "p"), 1, T12_REPR),
    (BoundSpec, (Family.VUORINEN,), ("family", "q", "t", "p"), 1, VUO_REPR),
    (BoundSpec, (Family.THM11, 0.125), ("family", "q", "t", "p"), 1,
     "BoundSpec(family=<Family.THM11: 'thm11'>, q=0.125, t=None, p=None)"),
    (Enclosure, (1.25, 1.5, VUO, T12, (1.25, 1.5)), ("lo", "hi", "lo_source", "hi_source", "values"), 4,
     f"Enclosure(lo=1.25, hi=1.5, lo_source={VUO_REPR}, hi_source={T12_REPR})"),
    (GridSpec, (0.125, 0.875, 5), ("start", "end", "points", "spacing"), 3,
     "GridSpec(start=0.125, end=0.875, points=5, spacing=<Spacing.UNIFORM: 'uniform'>)"),
    (GridSpec, (0, 0.5, 3, Spacing.LOG_NEAR_ONE), ("start", "end", "points", "spacing"), 3,
     "GridSpec(start=0.0, end=0.5, points=3, spacing=<Spacing.LOG_NEAR_ONE: 'log-near-one'>)"),
    (Lemma25Margins, (0.25, 0.5), ("lower_margin", "upper_margin"), 2,
     "Lemma25Margins(lower_margin=0.25, upper_margin=0.5)"),
    (MonotoneReport, ("lemma22_1", Direction.INCREASING, 0.5, 1.5, 0.0, 100, 0.5, 1.5),
     MONOTONE_FIELDS, 8,
     "MonotoneReport(name='lemma22_1', direction=<Direction.INCREASING: 'increasing'>, left_limit=0.5, "
     "right_limit=1.5, worst_violation=0.0, grid_size=100, claimed_left=0.5, claimed_right=1.5, "
     "argmax_r=None)"),
    (MonotoneReport, ("lemma22_2", Direction.DECREASING, 0.5, 1.5, 0.25, 100, 0.5, math.inf, 0.75),
     MONOTONE_FIELDS, 8,
     "MonotoneReport(name='lemma22_2', direction=<Direction.DECREASING: 'decreasing'>, left_limit=0.5, "
     "right_limit=1.5, worst_violation=0.25, grid_size=100, claimed_left=0.5, claimed_right=inf, "
     "argmax_r=0.75)"),
    (SignCaseReport, (0.25, 1.5, SignCase.POSITIVE_THEN_NEGATIVE, 0.5, 256),
     ("u", "p", "case_id", "eta", "grid_size"), 5,
     "SignCaseReport(u=0.25, p=1.5, case_id=<SignCase.POSITIVE_THEN_NEGATIVE: 'positive-then-negative'>, "
     "eta=0.5, grid_size=256)"),
    (CrossoverResult, (0.125, 0.875, T12, VUO, VUO),
     ("delta", "r_cross", "bound_a", "bound_b", "better_near_one"), 5,
     f"CrossoverResult(delta=0.125, r_cross=0.875, bound_a={T12_REPR}, bound_b={VUO_REPR}, "
     f"better_near_one={VUO_REPR})"),
    (NoCrossover, (T12, VUO, T12), ("bound_a", "bound_b", "dominant"), 3,
     f"NoCrossover(bound_a={T12_REPR}, bound_b={VUO_REPR}, dominant={T12_REPR})"),
    (CheckResult, ("lemma22_1", True, "ok", {"grid": 100}), ("name", "passed", "detail", "metrics"), 3,
     "CheckResult(name='lemma22_1', passed=True, detail='ok')"),
]
IDS = [f"{i}-{rec[0].__name__}" for i, rec in enumerate(RECORDS)]
# fields that take no part in equality, hash or repr, with another value for each
UNCOMPARED = {Enclosure: ("values", ()), CheckResult: ("metrics", {"grid": 7})}


def build(record):
    cls, args = record[:2]
    return cls(*args)


def attributes(x):
    # every attribute an instance holds, each as its repr
    return {name: repr(value) for name, value in vars(x).items()}


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
class TestRecord:
    def test_repr(self, record):
        assert repr(build(record)) == record[4]

    def test_positional_and_keyword_construction_agree(self, record):
        cls, args, names = record[:3]
        assert cls.__match_args__ == names
        by_keyword = cls(**dict(zip(names, args)))
        assert by_keyword == build(record) and attributes(by_keyword) == attributes(build(record))

    def test_missing_or_unknown_argument(self, record):
        cls, args, names, required = record[:4]
        with pytest.raises(TypeError):
            cls(*args, bogus=1)
        with pytest.raises(TypeError):
            cls(*args, *[0.5] * (len(names) - len(args) + 1))
        if required:
            with pytest.raises(TypeError):
                cls(*args[:required - 1])

    def test_equality_and_hash(self, record):
        x, y = build(record), build(record)
        assert x is not y and x == y and not x != y and hash(x) == hash(y)
        for other in RECORDS:
            if other is not record:
                assert build(other) != x

    def test_frozen(self, record):
        x = build(record)
        before = attributes(x)
        for name in (*vars(x), "bogus"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0.5)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert attributes(x) == before

    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_round_trip(self, record, clone):
        x = build(record)
        y = clone(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(x)
        assert attributes(y) == attributes(x)


@pytest.mark.parametrize("record", [rec for rec in RECORDS if rec[0] in UNCOMPARED],
                         ids=lambda rec: rec[0].__name__)
def test_uncompared_field_takes_no_part(record):
    cls, args, names = record[:3]
    name, value = UNCOMPARED[cls]
    x = build(record)
    y = cls(**{**dict(zip(names, args)), name: value})
    assert getattr(x, name) != getattr(y, name)
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert name not in repr(x)


def test_modulus_derives_its_complement():
    m = Modulus(0.6)
    assert list(vars(m)) == ["r", "r_comp"] and m.r_comp == _complement(0.6)
    assert m != Modulus(0.6000000000000001)
    with pytest.raises(TypeError):
        Modulus(0.6, r_comp=0.8)
    with pytest.raises(AttributeError):
        m.r_comp = 0.5


def test_pairs_of_different_classes_differ():
    assert MeanPair(1, 2) != EllipticValues(1, 2)
    assert EllipticValues(1.0, 2.0) != MeanPair(1, 2)
    assert EllipticValues(1.0, 2.0) != (1.0, 2.0)


def test_a_default_dict_is_fresh_per_instance():
    a, b = CheckResult("x", True, "d"), CheckResult("x", True, "d")
    assert a.metrics == {} and a.metrics is not b.metrics
    assert a == b


def test_spec_round_trip_keeps_its_kernel():
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        spec = clone(T12)
        assert (spec.side, spec.label, spec.evaluate(0.5)) == (T12.side, T12.label, T12.evaluate(0.5))
