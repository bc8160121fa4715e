#!/usr/bin/env python3
"""Print the sha256 of the deterministic outputs that must stay byte-identical
across refactors.

`OUTPUTS` below is the list: each entry is a name, the environment it adds,
the CLI arguments, and what is hashed.  `stdout` hashes what the command
prints, `csv` the table a `compare` writes (both require exit 0), and
`streams` hashes stdout, stderr and the exit code together, for the runs
whose messages and failures must stay the same.  The script prints each
entry's name next to its hash.  An entry named in ONE_CPU runs in an
interpreter whose affinity is set to one CPU (where os.sched_setaffinity
exists), so `verify --suite all` and a `compare` of 768 rows or more take
their one-process paths; each pair in EQUAL must hash the same in every root,
or the exit code is 1.

Each ROOT is a checkout; its `src/` is put on PYTHONPATH and the CLI runs in
a fresh interpreter.  With two or more roots the hashes are printed side by
side and the exit code is 1 if any output differs.  Standard library only.

Usage: python3 scripts/output_hashes.py [ROOT ...]   (default: this checkout)
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FAMILIES = ["all", "thm11:q=0.05", "thm12:t=0.95,p=1.5", "thm12-upper:p=0.75",
            "thm11-lower", "barnard"]

# (name, extra environment, CLI arguments, what to hash)
OUTPUTS = [
    ("verify all, grid 2000", {"ELLIP_GRID_POINTS": "2000"}, ["verify", "--suite", "all"], "stdout"),
    ("verify all, default grid", {}, ["verify", "--suite", "all"], "stdout"),
    ("compare uniform 20000", {},
     ["compare", "--start", "1e-6", "--end", "0.999999", "--points", "20000",
      "--families", *FAMILIES, "--output", "table.csv"], "csv"),
    ("compare log-near-one 5000", {},
     ["compare", "--start", "1e-4", "--end", "0.9999999", "--points", "5000",
      "--spacing", "log-near-one", "--families", *FAMILIES, "--output", "table.csv"], "csv"),
    *((f"verify {suite}, grid 2000", {"ELLIP_GRID_POINTS": "2000"}, ["verify", "--suite", suite],
       "stdout") for suite in ("lemmas", "sharpness", "remarks")),
    ("verify all, grid 1000", {"ELLIP_GRID_POINTS": "1000"}, ["verify", "--suite", "all"], "stdout"),
    ("verify all, grid 2000, one CPU", {"ELLIP_GRID_POINTS": "2000"}, ["verify", "--suite", "all"],
     "stdout"),
    *((f"enclose all, r={r}", {}, ["enclose", "--r", r, "--families", "all"], "streams")
      for r in ("0.5", "1e-300", repr(1.0 - 2.0**-53))),
    *((f"crossover {a} {b}", {}, ["crossover", "--a", a, "--b", b], "streams")
      for a, b in (("cor31-upper", "alzer-qiu"), ("thm11-lower", "vuorinen"),
                   ("cor31-lower", "vuorinen"))),
    ("eval perimeter", {}, ["eval", "--what", "perimeter", "--r", "0.5"], "streams"),
    ("eval toader", {}, ["eval", "--what", "toader", "--a", "2", "--b", "1"], "streams"),
    ("compare from r=0 (exit 2)", {},
     ["compare", "--start", "0", "--end", "0.5", "--points", "11", "--families", "all",
      "--output", "table.csv"], "streams"),
    ("verify all, grid 1 (exit 2)", {"ELLIP_GRID_POINTS": "1"}, ["verify", "--suite", "all"],
     "streams"),
    *((f"crossover {a} {b}", {}, ["crossover", "--a", a, "--b", b], "streams")
      for a, b in (("vuorinen", "vuorinen"), ("thm11:q=0.12", "vuorinen"))),
    *((f"compare uniform {n}", {},
       ["compare", "--start", "1e-6", "--end", "0.999999", "--points", n,
        "--families", *FAMILIES, "--output", "table.csv"], "csv") for n in ("2", "513")),
    # each distinct kernel runs once per chunk: a repeated spec, and the cor31 specs beside the thm12
    # specs they equal bit for bit
    ("compare repeated kernels 3000", {},
     ["compare", "--start", "1e-6", "--end", "0.999999", "--points", "3000", "--families", "cor31-lower",
      "thm12-lower:p=2", "cor31-upper", "thm12-upper:p=0.5", "vuorinen", "thm11:q=0.05", "vuorinen",
      "--output", "table.csv"], "csv"),
    ("compare extreme radii 257", {},
     ["compare", "--start", "5e-324", "--end", repr(1.0 - 2.0**-53), "--points", "257",
      "--families", *FAMILIES, "--output", "table.csv"], "csv"),
    *((f"eval {what} r={r}", {}, ["eval", "--what", what, "--r", r], "streams")
      for what, r in (("E", "1"), ("K", "1"), ("E", "1.5"))),
    ("enclose all, r=1 (exit 2)", {}, ["enclose", "--r", "1", "--families", "all"], "streams"),
    ("eval perimeter r=1e-300", {}, ["eval", "--what", "perimeter", "--r", "1e-300"], "streams"),
    ("eval toader b=1e-300", {}, ["eval", "--what", "toader", "--a", "1", "--b", "1e-300"],
     "streams"),
    ("--help", {}, ["--help"], "streams"),
    ("verify --help", {}, ["verify", "--help"], "streams"),
    ("verify --suite bogus (exit 2)", {}, ["verify", "--suite", "bogus"], "streams"),
    ("eval toader, no --b (exit 2)", {}, ["eval", "--what", "toader", "--a", "2"], "streams"),
    ("eval E, no --r (exit 2)", {}, ["eval", "--what", "E"], "streams"),
    ("eval perimeter r=1.5 (exit 2)", {}, ["eval", "--what", "perimeter", "--r", "1.5"], "streams"),
    ("enclose thm11 q=0.7 (exit 2)", {}, ["enclose", "--r", "0.5", "--families", "thm11:q=0.7"],
     "streams"),
    ("crossover thm12 p=3 (exit 2)", {}, ["crossover", "--a", "thm12:t=0.95,p=3", "--b", "vuorinen"],
     "streams"),
    # the enclosure's errors in their order (an invalid spec before a missing side), and a success
    *((f"enclose {' '.join(families)}", {}, ["enclose", "--r", "0.5", "--families", *families], "streams")
      for families in (["thm11:q=0.13", "barnard"], ["barnard"], ["vuorinen", "thm11:q=0.13"],
                       ["thm12:t=0.51,p=1.3", "alzer-qiu", "thm11-lower"])),
    # the default list takes best_enclosure's fused plan, at the ends of the range too; a longer list
    # that holds the defaults takes the general path
    *((f"enclose all, r={r}", {}, ["enclose", "--r", r, "--families", "all"], "streams")
      for r in ("5e-324", "1e-8")),
    ("enclose all thm11:q=0.05, r=1e-8", {}, ["enclose", "--r", "1e-8", "--families", "all", "thm11:q=0.05"],
     "streams"),
    # seven chunks of 256 rows: the calling process writes the last one
    ("compare uniform 1700", {},
     ["compare", "--start", "1e-6", "--end", "0.999999", "--points", "1700",
      "--families", *FAMILIES, "--output", "table.csv"], "csv"),
]
# the compare entries that fork a child on two CPUs
FANNED = ("compare uniform 20000", "compare log-near-one 5000", "compare uniform 1700")
OUTPUTS += [(f"{name}, one CPU", *rest) for name, *rest in OUTPUTS if name in FANNED]
# entries run on one CPU, and pairs of entries whose outputs must be the same
ONE_CPU = {"verify all, grid 2000, one CPU", *(f"{name}, one CPU" for name in FANNED)}
EQUAL = [("verify all, grid 2000", "verify all, grid 2000, one CPU"),
         *((name, f"{name}, one CPU") for name in FANNED)]


def _one_cpu() -> None:
    # run in the started interpreter before it executes: one CPU of those it may use
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def output_hash(root: Path, extra_env: dict[str, str], args: list[str], what: str,
                one_cpu: bool = False) -> str:
    env = {k: v for k, v in os.environ.items() if k != "ELLIP_GRID_POINTS"}
    env.update(extra_env, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, "-m", "ellipbounds.cli", *args]
        proc = subprocess.run(cmd, env=env, cwd=tmp, capture_output=True, check=False,
                              preexec_fn=_one_cpu if one_cpu else None)
        if what == "streams":
            data = b"\0".join([proc.stdout, proc.stderr, str(proc.returncode).encode()])
        elif proc.returncode != 0:
            sys.exit(f"{root}: {' '.join(args[:1])} exited {proc.returncode}:\n"
                     + proc.stderr.decode(errors="replace"))
        else:
            data = (Path(tmp) / "table.csv").read_bytes() if what == "csv" else proc.stdout
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    roots = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parent.parent]
    differ = False
    seen = {}
    for name, extra_env, args, what in OUTPUTS:
        seen[name] = hashes = [output_hash(root, extra_env, args, what, name in ONE_CPU) for root in roots]
        differ = differ or len(set(hashes)) > 1
        print(f"{name:38s} " + "  ".join(hashes))
    if len(roots) > 1:
        print(("DIFFERENT" if differ else "IDENTICAL") + f" ({len(OUTPUTS)} outputs)")
    for a, b in EQUAL:
        same = seen[a] == seen[b]
        differ = differ or not same
        print(f"{'EQUAL' if same else 'NOT EQUAL'}: {a!r} and {b!r}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
