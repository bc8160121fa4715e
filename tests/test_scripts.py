import argparse
import compileall
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# the keys bench_enclose.py prints: the run's settings, and per case a figure per side
ENCLOSE_KEYS = {"r", "pairs", "rounds_per_interpreter", "calls_per_block", "us_per_call"}
FIGURE_KEYS = {"first_median", "second_median", "first_quartiles", "second_quartiles", "second_better_pairs"}
# the keys bench_verify.py and bench_compare.py print besides their settings
SECTIONS_KEYS = {"pass_ms", "section_median_ms", "section_second_better_pairs", "fan_out_median_ms", "peak_rss_mb"}


@pytest.fixture
def ab(monkeypatch):
    # the bench harnesses' shared driver, imported as they import it
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import _ab
    return _ab


def test_sides_alternate(ab):
    order = []
    runs = ab.alternate({"first": "a", "second": "b"}, 3, lambda src: order.append(src) or len(order))
    assert order == ["a", "b", "b", "a", "a", "b"]
    assert runs == {"first": [1, 4, 5], "second": [2, 3, 6]}


def test_copies_are_free_of_bytecode(ab, monkeypatch, tmp_path):
    # a checkout whose src/ holds a bytecode cache: its copies hold none, and a run writes none
    # even where the environment lets an interpreter write bytecode
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    compileall.compile_dir(checkout / "src", quiet=1)
    assert list((checkout / "src").rglob("*.pyc"))

    def run(src):
        assert src.is_dir() and not list(src.rglob("__pycache__"))
        ab.interpreter(src, "-c", "import ellipbounds.cli, ellipbounds._fork; ellipbounds.verify.run_suite")
        assert not list(src.rglob("*.pyc"))
        return src

    runs = ab.pairs(argparse.Namespace(first=checkout, second=checkout), 1, run)
    assert runs["first"] != runs["second"]
    assert not any(src.exists() for src in runs["first"] + runs["second"])


def test_enclose_harness_end_to_end():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench_enclose.py"), ".", ".", "--pairs", "1",
                           "--rounds", "1", "--calls", "10"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result) == ENCLOSE_KEYS
    assert len(result["us_per_call"]) == 21
    for figure in result["us_per_call"].values():
        assert set(figure) == FIGURE_KEYS
        assert figure["first_median"] > 0.0 and figure["first_quartiles"] == [figure["first_median"]] * 3


@pytest.mark.parametrize("script, args, settings, fan_out", [
    ("bench_verify.py", ["--grid", "1000"], {"suite", "grid"},
     ["before the fork", "classification", "wait for K and E", "rest of the lemma suite", "child CPU"]),
    ("bench_compare.py", ["--points", "800"], {"seed", "rows"}, ["fork", "child CPU", "reap"]),
], ids=["verify", "compare"])
def test_section_harness_end_to_end(script, args, settings, fan_out):
    # the least verify grid, and compare tables just long enough to fork: both report the child's CPU time
    argv = [sys.executable, str(SCRIPTS / script), ".", ".", "--pairs", "1", "--passes", "1", *args]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result) == settings | {"pairs", "passes_per_interpreter"} | SECTIONS_KEYS
    assert set(result["pass_ms"]) == FIGURE_KEYS
    for side in ("first", "second"):
        figures = result["fan_out_median_ms"][side]
        assert list(figures) == fan_out
        assert figures["child CPU"] >= 0.0
