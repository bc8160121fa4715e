"""Correctness checks of the program's outputs, run in the parent process
after the measured process has exited.

Reference values come from `tests/oracles.mp_ke` (40-digit mpmath).  That
helper rounds to double, which is enough for the 1e-12 relative value check
but not for a zero-slack enclosure test, where an endpoint equal to the
rounded reference may still exclude the true value.  Enclosures are
therefore compared with the 40-digit value of E itself.
"""

from __future__ import annotations

import csv
import math
import re

import mpmath
from oracles import mp_ke

REL_TOL = 1e-12  # the package's documented reference accuracy
DPS = 40
VERIFY_CHECKS = 42  # 14 sweeps + 2 lemma checks, 13 validity + 8 falsifiers, 5 remarks
# The CLI prints crossover radii to 12 significant digits after bisecting to
# 1e-12; the double-precision bound difference moves the root by ~1e-16.
CROSSOVER_TOL = 1e-11


def _mpf_e(m) -> mpmath.mpf:
    with mpmath.workdps(DPS):
        return mpmath.ellipe(m)


def e_true(r: float) -> mpmath.mpf:
    """E(r) to 40 digits, as an mpf."""
    with mpmath.workdps(DPS):
        return _mpf_e(mpmath.mpf(r) ** 2)


def misses(lo: float, hi: float, r: float) -> bool:
    """Zero slack: the enclosure misses when lo > E(r) or hi < E(r)."""
    e = e_true(r)
    return mpmath.mpf(lo) > e or mpmath.mpf(hi) < e


def close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * abs(ref)


def _perimeter(r: float) -> float:
    with mpmath.workdps(DPS):
        return float(4 * _mpf_e(1 - mpmath.mpf(r) ** 2))


def _toader(a: float, b: float) -> float:
    x, y = max(a, b), min(a, b)
    with mpmath.workdps(DPS):
        ratio = mpmath.mpf(y) / mpmath.mpf(x)
        return float(2 * mpmath.mpf(x) * _mpf_e(1 - ratio ** 2) / mpmath.pi)


# --------------------------------------------------------------------------
# point-queries


def check_queries(queries, outcomes, value_count: int) -> dict:
    """Each outcome must be the expected kind (a value, or exactly the
    documented typed error).  For the first `value_count` outcomes, each
    value must also match the reference to 1e-12 relative, and each
    enclosure is tested for a zero-slack miss."""
    kind_failures = value_failures = enclosures = missed = 0
    notes = []
    for i, (q, rec) in enumerate(zip(queries, outcomes)):
        got = rec.get("error")
        if got != q.expect:
            kind_failures += 1
            if len(notes) < 5:
                notes.append(f"#{i} {q.kind}{q.args!r}: expected {q.expect or 'a value'}, got {got or 'a value'}")
            continue
        if q.expect is not None or i >= value_count:
            continue
        value = rec["value"]
        if q.kind in ("enclose_default", "enclose_parsed"):
            enclosures += 1
            missed += misses(value[0], value[1], q.args[0])
            continue
        if q.kind == "toader":
            ok = close(value, _toader(*q.args))
        elif q.kind == "perimeter":
            ok = close(value, _perimeter(q.args[0]))
        else:
            k, e = mp_ke(q.args[0])
            ok = {"E": lambda: close(value, e), "K": lambda: close(value, k),
                  "KE": lambda: close(value[0], k) and close(value[1], e)}[q.kind]()
        if not ok:
            value_failures += 1
            if len(notes) < 5:
                notes.append(f"#{i} {q.kind}{q.args!r}: {value!r} is off the reference by more than {REL_TOL:g}")
    return {"kind_failures": kind_failures, "value_failures": value_failures,
            "enclosures": enclosures, "misses": missed, "notes": notes}


# --------------------------------------------------------------------------
# compare-table


def check_table(path, call) -> dict:
    """Rows of one `compare` CSV: header shape, row count, radii inside the
    requested range and increasing, e_ref against the reference, and a
    zero-slack miss test of [best_lo, best_hi]."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    notes = []
    failed = missed = 0
    if len(body) != call.points:
        notes.append(f"{path.name}: {len(body)} rows, expected {call.points}")
        failed += abs(len(body) - call.points)
    prev = -math.inf
    for row in body:
        r, e_ref, lo, hi = float(row[0]), float(row[1]), float(row[-2]), float(row[-1])
        ok = prev < r and call.start - 1e-12 <= r <= call.end + 1e-12 and close(e_ref, mp_ke(r)[1])
        prev = r
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{path.name}: bad row r={r!r} e_ref={e_ref!r}")
        missed += misses(lo, hi, r)
    expected_cols = 2 + 13 + len(call.extra_specs) + 2
    if header[:2] != ["r", "e_ref"] or header[-2:] != ["best_lo", "best_hi"] or len(header) != expected_cols:
        notes.append(f"{path.name}: unexpected header {header!r}")
        failed = max(len(body), call.points)
    return {"rows": len(body), "failed": min(failed, max(len(body), call.points)), "misses": missed, "notes": notes}


# --------------------------------------------------------------------------
# verify-suite


def _crossover_pairs():
    pi = mpmath.pi
    half = mpmath.mpf(1) / 2
    mu = half + mpmath.sqrt((4 / pi) ** 2 - 1) / 2
    beta = half - 2 * mpmath.sqrt(2 * (pi ** 2 - 8)) / pi ** 2
    a, b = half - mpmath.sqrt(2) / 4, half + mpmath.sqrt(2) / 4

    def cor31_upper(r):  # thm12 at (t, p) = (mu_star, 1/2)
        c = mpmath.sqrt(1 - r * r)
        return pi / (2 * mpmath.sqrt(2)) * mpmath.sqrt((mu + (1 - mu) * c) ** 2 + ((1 - mu) + mu * c) ** 2)

    def alzer_qiu(r):
        return pi / 4 * (mpmath.sqrt(1 - a * r * r) + mpmath.sqrt(1 - b * r * r))

    def thm11_beta(r):
        c2 = 1 - r * r
        return pi / 4 * (mpmath.sqrt(beta + (1 - beta) * c2) + mpmath.sqrt((1 - beta) + beta * c2))

    def vuorinen(r):
        return pi / 2 * ((1 + mpmath.sqrt(1 - r * r) ** mpmath.mpf(1.5)) / 2) ** (mpmath.mpf(2) / 3)

    return {"remark 4.3": (cor31_upper, alzer_qiu), "remark 4.4": (thm11_beta, vuorinen)}


def check_verify(rc: int, text: str, grid: int) -> dict:
    """All 42 checks PASS, the summary line matches, exit code 0, and the two
    crossover radii agree with roots of the closed forms found in mpmath."""
    lines = text.splitlines()
    checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    notes = [ln for ln in checks if ln.startswith("FAIL ")][:5]
    failed = sum(ln.startswith("FAIL ") for ln in checks) + abs(VERIFY_CHECKS - len(checks))
    summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed (suite=all, grid={grid})"
    if not lines or lines[-1] != summary:
        notes.append(f"summary line {lines[-1] if lines else ''!r}, expected {summary!r}")
        failed = max(failed, 1)
    with mpmath.workdps(DPS):
        for label, (f, g) in _crossover_pairs().items():
            line = next((ln for ln in checks if label in ln), "")
            found = re.search(r"r\*=([0-9.eE+-]+)", line)
            if not found:
                continue  # already counted: the check line is missing or failed
            printed = float(found.group(1))
            root = mpmath.findroot(lambda r: f(r) - g(r), (printed - 1e-4, printed + 1e-4), solver="anderson")
            if abs(printed - root) > CROSSOVER_TOL:
                failed += 1
                notes.append(f"{label}: r*={printed!r} but the closed forms cross at {mpmath.nstr(root, 15)}")
    if rc != 0:
        failed = VERIFY_CHECKS
        notes.append(f"exit code {rc}")
    return {"checks": VERIFY_CHECKS, "failed": min(failed, VERIFY_CHECKS), "notes": notes}
