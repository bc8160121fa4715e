"""Certified enclosures and sharp bounds for the complete elliptic integral
of the second kind E(r), the ellipse perimeter, and the Toader mean.

`ellipbounds.verify`, the harness that checks the paper's lemmas and
sharpness claims, executes on first use, not on `import ellipbounds`: its
public names here are served from it on first access, so computing values
and enclosures never compiles or runs it."""

import sys as _sys
from importlib import util as _util

from .bounds import (
    ALPHA_STAR,
    ALZER_ALPHA,
    ALZER_BETA,
    BETA_STAR,
    LAMBDA_STAR,
    MU_STAR,
    SHARP,
    BoundSpec,
    Enclosure,
    Family,
    SharpConstants,
    Side,
    alzer_qiu_upper,
    barnard_upper,
    best_enclosure,
    corollary31,
    default_candidates,
    parse_bound_spec,
    q_mean,
    thm11_bound,
    thm12_bound,
    thm12_lower_threshold,
    thm12_upper_threshold,
    vuorinen_lower,
)
from .core import (
    EllipticValues,
    MeanPair,
    Modulus,
    agm,
    as_modulus,
    complete_e,
    complete_k,
    derivative_residuals,
    ellipse_perimeter,
    elliptic_ke,
    landen_residual,
    toader_mean,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    EllipBoundsError,
    InvalidBoundError,
    VerificationError,
)

# LazyLoader puts the module in sys.modules now (a reload keeps the one there),
# so every import and lookup finds it, and it runs on the first attribute access.
verify = _sys.modules.get(f"{__name__}.verify")
if verify is None:
    _spec = _util.find_spec(f"{__name__}.verify")
    _spec.loader = _util.LazyLoader(_spec.loader)
    verify = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(verify)

_VERIFY_NAMES = (
    "CheckResult", "CrossoverResult", "Direction", "MonotoneReport", "NoCrossover", "SignCase",
    "SignCaseReport", "find_crossover", "lemma22_function", "lemma23_g", "lemma24_h",
    "lemma25_check", "lemma26_classify", "lemma26_f", "lemma27_F", "run_suite",
    "search_violation", "sweep_monotone",
)


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_VERIFY_NAMES])


__version__ = "0.1.0"

# so that `from ellipbounds import *` binds the lazily served names too
__all__ = [name for name in __dir__() if not name.startswith("_")]
