#!/usr/bin/env python3
"""Print the sha256 of the four deterministic outputs that must stay
byte-identical across refactors: `verify --suite all` stdout at
ELLIP_GRID_POINTS=2000 and at the default grid, and two `compare` CSVs
(uniform and log-near-one spacing) over the same family list.

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

# (name, extra environment, CLI arguments, hash the CSV file instead of stdout)
OUTPUTS = [
    ("verify all, grid 2000", {"ELLIP_GRID_POINTS": "2000"}, ["verify", "--suite", "all"], False),
    ("verify all, default grid", {}, ["verify", "--suite", "all"], False),
    ("compare uniform 20000", {},
     ["compare", "--start", "1e-6", "--end", "0.999999", "--points", "20000",
      "--families", *FAMILIES], True),
    ("compare log-near-one 5000", {},
     ["compare", "--start", "1e-4", "--end", "0.9999999", "--points", "5000",
      "--spacing", "log-near-one", "--families", *FAMILIES], True),
]


def output_hash(root: Path, extra_env: dict[str, str], args: list[str], csv_out: bool) -> str:
    env = {k: v for k, v in os.environ.items() if k != "ELLIP_GRID_POINTS"}
    env.update(extra_env, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out_csv = Path(tmp) / "table.csv"
        cmd = [sys.executable, "-m", "ellipbounds.cli", *args]
        if csv_out:
            cmd += ["--output", str(out_csv)]
        proc = subprocess.run(cmd, env=env, cwd=tmp, capture_output=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"{root}: {' '.join(args[:1])} exited {proc.returncode}:\n"
                     + proc.stderr.decode(errors="replace"))
        data = out_csv.read_bytes() if csv_out else proc.stdout
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    roots = [Path(a).resolve() for a in argv] or [Path(__file__).resolve().parent.parent]
    differ = False
    for name, extra_env, args, csv_out in OUTPUTS:
        hashes = [output_hash(root, extra_env, args, csv_out) for root in roots]
        differ = differ or len(set(hashes)) > 1
        print(f"{name:28s} " + "  ".join(hashes))
    if len(roots) > 1:
        print("DIFFERENT" if differ else "IDENTICAL")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
