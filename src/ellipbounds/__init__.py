"""Enclosures and sharp bounds for the complete elliptic integral of the
second kind E(r), the ellipse perimeter, and the Toader mean.  The enclosures
are not yet certified: their float endpoints are not widened for rounding, so
at ulp level they can miss E or cross each other.

The package serves every name in the `__all__` of `core`, `bounds`, `errors`
and `verify`. `ellipbounds.verify`, the harness that checks the paper's lemmas
and sharpness claims, executes on first use, not on `import ellipbounds`: its
names are served from it on first access, so computing values and enclosures
never compiles or runs it. `dir()` and a star import execute it."""

import sys as _sys
from importlib import util as _util

from .bounds import *
from .core import *
from .errors import *

# LazyLoader puts the module in sys.modules now (a reload keeps the one there),
# so every import and lookup finds it, and it runs on the first attribute access.
verify = _sys.modules.get(f"{__name__}.verify")
if verify is None:
    _spec = _util.find_spec(f"{__name__}.verify")
    _spec.loader = _util.LazyLoader(_spec.loader)
    verify = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(verify)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "__all__":
        return [n for n in __dir__() if not n.startswith("_")]
    if not name.startswith("_") and name in verify.__all__:
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *verify.__all__})
