"""Span recorder for the traced benchmark run.

The package is not edited: `install` replaces every public function of
`ellipbounds.core`, `.bounds`, `.verify` and `.cli` (each module's
`__all__`) with a recording wrapper in every package namespace that binds
it, and wraps the working methods of the public classes on the class itself,
so `isinstance(x, Modulus)` keeps working.  Calls between private helpers
are not spans; their time is part of the enclosing public call's self time.

Spans live in flat arrays (name id, parent id, start, end) and are written
out once at the end.  The load is one thread, so a plain stack gives each
span its parent, and no span contains waiting time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("core", "bounds", "verify", "cli")

# Public classes whose methods do work (validation, evaluation); the other
# public classes are value types or enums.
_METHODS = {
    ("core", "Modulus"): ("__init__",),
    ("core", "MeanPair"): ("__init__",),
    ("bounds", "BoundSpec"): ("__init__", "evaluate", "side"),
    ("cli", "GridSpec"): ("__init__", "values"),
}

# Calls that run the AGM; their first argument is the radius.
KE_NAMES = ("core.complete_e", "core.complete_k", "core.elliptic_ke")


class SpanRecorder:
    """In-memory spans: parallel arrays indexed by span id, plus per-name
    call counts, inclusive time and self time accumulated as spans close."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.clear()

    def clear(self) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.calls[:] = [0] * len(self.names)
        self.total_s[:] = self.self_s[:] = [0.0] * len(self.names)
        # open spans as [span id, time covered by closed children]
        self.stack = [[-1, 0.0]]
        self.radii: set[float] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn, radius_of=None):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if radius_of is not None and args:
                rec.radii.add(radius_of(args[0]))
            stack = rec.stack
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1][0])
            end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[sid] = t1
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                rec.calls[nid] += 1
                rec.total_s[nid] += dur
                rec.self_s[nid] += dur - frame[1]

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds,
        where self time is a span's duration minus its children's."""
        return {name: {"calls": self.calls[i], "total_s": self.total_s[i], "self_s": self.self_s[i]}
                for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as four arrays in native byte order (H name id, i parent,
        d start, d end) in `path`, with the names and count in `path`.json."""
        with open(path, "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {"count": len(self.start), "names": self.names, "byteorder": sys.byteorder,
                "layout": ["name_id:u16", "parent:i32", "start_s:f64", "end_s:f64"]}
        Path(str(path) + ".json").write_text(json.dumps(meta, indent=1) + "\n")


def _radius(modulus_class):
    def radius_of(arg) -> float:
        if isinstance(arg, modulus_class):
            return arg.r
        try:
            return float(arg)
        except (TypeError, ValueError):
            return float("nan")
    return radius_of


def install(rec: SpanRecorder) -> None:
    """Wrap the public names of the four layer modules wherever bound."""
    from ellipbounds import core

    modules = [m for name, m in sys.modules.items()
               if name == "ellipbounds" or name.startswith("ellipbounds.")]
    replace: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"ellipbounds.{layer}"]
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and id(obj) not in replace:
                name = f"{layer}.{attr}"
                radius_of = _radius(core.Modulus) if name in KE_NAMES else None
                replace[id(obj)] = rec.wrap(name, obj, radius_of)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replace:
                setattr(mod, attr, replace[id(obj)])
    for (layer, cls_name), methods in _METHODS.items():
        cls = getattr(sys.modules[f"ellipbounds.{layer}"], cls_name)
        for meth in methods:
            name = f"{layer}.{cls_name}.{meth}"
            orig = cls.__dict__[meth]
            if isinstance(orig, property):
                setattr(cls, meth, property(rec.wrap(name, orig.fget)))
            else:
                setattr(cls, meth, rec.wrap(name, orig))


def layer_metrics(agg: dict[str, dict[str, float]], radii: int) -> dict[str, float]:
    """The per-layer figures named in the benchmark README, from one traced
    operation set."""
    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    ke_calls = sum(calls(n) for n in KE_NAMES)
    evaluate_calls = calls("bounds.BoundSpec.evaluate")
    validations = calls("core.as_modulus") + calls("core.Modulus.__init__")
    rows = calls("bounds.best_enclosure")
    return {
        "core.ke_calls": ke_calls,
        "core.ke_self_s": sum(self_s(n) for n in KE_NAMES),
        "core.ke_per_point": ke_calls / radii if radii else 0.0,
        "core.as_modulus_calls": calls("core.as_modulus"),
        "core.modulus_new": calls("core.Modulus.__init__"),
        "core.modulus_s": self_s("core.as_modulus") + self_s("core.Modulus.__init__"),
        "core.validations_per_call": (validations / (ke_calls + evaluate_calls)
                                      if ke_calls + evaluate_calls else 0.0),
        "bounds.evaluate_calls": evaluate_calls,
        "bounds.evaluate_s": total("bounds.BoundSpec.evaluate"),
        "bounds.side_calls": calls("bounds.BoundSpec.side"),
        "bounds.best_enclosure_calls": rows,
        "bounds.best_enclosure_self_s": self_s("bounds.best_enclosure"),
        "bounds.evaluate_per_row": evaluate_calls / rows if rows else 0.0,
        "verify.lemmas_s": total("verify.run_lemma_suite"),
        "verify.sharpness_s": total("verify.run_sharpness_suite"),
        "verify.remarks_s": total("verify.run_remarks_suite"),
        "verify.sweep_self_s": self_s("verify.sweep_monotone"),
        "verify.classify_self_s": self_s("verify.lemma26_classify"),
        "verify.lemma26_f_calls": calls("verify.lemma26_f"),
        "verify.crossover_self_s": self_s("verify.find_crossover"),
        "verify.falsify_self_s": self_s("verify.search_violation"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": sum(v["self_s"] for k, v in agg.items() if k.startswith("cli.")),
    }
