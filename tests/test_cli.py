import argparse
import csv
import importlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ellipbounds._fork
import ellipbounds.cli
from ellipbounds import (
    DomainError,
    EllipBoundsError,
    VerificationError,
    best_enclosure,
    complete_e,
    default_candidates,
    parse_bound_spec,
    toader_mean,
)
from ellipbounds.cli import _CHUNK, _FORK_LEAST, GridSpec, Spacing, _cmd_compare, main
from oracles import quad_e

SRC = str(Path(__file__).resolve().parent.parent / "src")

# two parametric specs parsed from text, next to --families all
EXTRA_SPECS = ["thm11:q=0.05", "thm12:t=0.95,p=1.5"]

# the spec list of scripts/output_hashes.py whose kernels repeat: a repeated spec, and the
# cor31 specs beside the thm12 specs they equal bit for bit
REPEATED_KERNELS = ["cor31-lower", "thm12-lower:p=2", "cor31-upper", "thm12-upper:p=0.5", "vuorinen",
                    "thm11:q=0.05", "vuorinen"]

# first computation, frozen as regression value
ENCLOSE_WIDTH_0P999 = 0.0039102788995069027


def run(capsys, argv, env=None):
    old = {k: os.environ.get(k) for k in (env or {})}
    if env:
        os.environ.update(env)
    try:
        code = main(argv)
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_e_at_zero(self, capsys):
        code, out, _ = run(capsys, ["eval", "--what", "E", "--r", "0"])
        assert code == 0
        assert out == "1.570796326794897\n"

    def test_e_at_one(self, capsys):
        code, out, _ = run(capsys, ["eval", "--what", "E", "--r", "1"])
        assert code == 0
        assert out == "1.000000000000000\n"

    def test_e_matches_quadrature(self, capsys):
        code, out, _ = run(capsys, ["eval", "--what", "E", "--r", "0.5"])
        assert code == 0
        assert float(out) == pytest.approx(quad_e(0.5), abs=1e-12)

    def test_k_diverges_at_one(self, capsys):
        code, _, err = run(capsys, ["eval", "--what", "K", "--r", "1"])
        assert code == 2
        assert "diverges" in err

    def test_domain_error_names_constraint(self, capsys):
        code, _, err = run(capsys, ["eval", "--what", "E", "--r", "1.5"])
        assert code == 2
        assert "[0, 1]" in err

    def test_perimeter(self, capsys):
        code, out, _ = run(capsys, ["eval", "--what", "perimeter", "--r", "0.5"])
        assert code == 0
        assert float(out) == pytest.approx(4 * quad_e(math.sqrt(0.75)), abs=1e-11)

    def test_toader(self, capsys):
        code, out, _ = run(capsys, ["eval", "--what", "toader", "--a", "2", "--b", "1"])
        assert code == 0
        assert float(out) == pytest.approx(2 * toader_mean(1.0, 0.5), abs=1e-13)

    def test_toader_needs_a_b(self, capsys):
        code, _, err = run(capsys, ["eval", "--what", "toader", "--r", "0.5"])
        assert code == 2
        assert "--a" in err

    @pytest.mark.parametrize("argv,message", [
        (["--what", "toader", "--a", "2"], "--what toader needs --a and --b"),
        (["--what", "E"], "--what E needs --r"),
    ])
    def test_missing_argument_message(self, capsys, argv, message):
        code, out, err = run(capsys, ["eval", *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # the last two rows of main's exit-code table, which no shipped input reaches
    @pytest.mark.parametrize("exc,err,code", [
        (OSError("disk gone"), "error: I/O failure: disk gone\n", 4),
        (ArithmeticError("nan"), "error: internal numerical error: nan\n", 3),
        (EllipBoundsError("bare"), "error: internal numerical error: bare\n", 3),
    ], ids=["OSError", "ArithmeticError", "EllipBoundsError"])
    def test_unexpected_error_exit_codes(self, monkeypatch, capsys, exc, err, code):
        def fail(r):
            raise exc

        monkeypatch.setattr("ellipbounds.cli.complete_e", fail)
        assert run(capsys, ["eval", "--what", "E", "--r", "0.5"]) == (code, "", err)


class TestEnclose:
    def test_all_families_contains_reference(self, capsys):
        code, out, _ = run(capsys, ["enclose", "--r", "0.5", "--families", "all"])
        assert code == 0
        fields = {line.split()[0]: line.split()[1] for line in out.strip().splitlines()}
        lo, hi, e_ref = float(fields["lo"]), float(fields["hi"]), float(fields["e_ref"])
        assert lo < e_ref < hi
        assert e_ref == pytest.approx(complete_e(0.5), abs=1e-15)
        assert 0.0 <= float(fields["position"]) <= 1.0

    def test_invalid_gap_parameter(self, capsys):
        code, _, err = run(capsys, ["enclose", "--r", "0.5", "--families", "thm11:q=0.13"])
        assert code == 2
        assert "beta_star" in err and "alpha_star" in err

    def test_width_near_one(self, capsys):
        code, out, _ = run(capsys, ["enclose", "--r", "0.999", "--families", "all"])
        assert code == 0
        fields = {line.split()[0]: line.split()[1] for line in out.strip().splitlines()}
        assert float(fields["width"]) == pytest.approx(ENCLOSE_WIDTH_0P999, rel=1e-9)
        assert float(fields["width"]) < 0.02
        # the asymptotically precise lower family wins near r = 1
        assert "thm11" in out

    def test_missing_side(self, capsys):
        code, _, err = run(capsys, ["enclose", "--r", "0.5", "--families", "vuorinen"])
        assert code == 2
        assert "upper" in err


class TestVerifyCommand:
    def test_lemmas_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "lemmas"],
                           env={"ELLIP_GRID_POINTS": "1000"})
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 17  # 16 checks + summary
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "16/16 checks passed (suite=lemmas, grid=1000)"

    def test_sharpness_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "sharpness"],
                           env={"ELLIP_GRID_POINTS": "1000"})
        assert code == 0
        assert "21/21 checks passed" in out

    def test_remarks_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "remarks"],
                           env={"ELLIP_GRID_POINTS": "1000"})
        assert code == 0
        assert "5/5 checks passed" in out
        assert "delta1=" in out and "delta2=" in out

    def test_env_grid_override_visible(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "remarks"],
                           env={"ELLIP_GRID_POINTS": "1500"})
        assert code == 0
        assert "grid=1500" in out

    def test_bad_env_value(self, capsys):
        code, _, err = run(capsys, ["verify", "--suite", "lemmas"],
                           env={"ELLIP_GRID_POINTS": "zero"})
        assert code == 2
        assert "ELLIP_GRID_POINTS" in err

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, ["verify", "--suite", "nonsense"])
        assert code == 2

    def test_verification_error_on_stderr(self, monkeypatch, capsys):
        import ellipbounds.verify

        def fail(name, grid_points):
            raise VerificationError("x")

        monkeypatch.setattr(ellipbounds.verify, "run_suite", fail)
        code, out, err = run(capsys, ["verify", "--suite", "all"])
        assert (code, out, err) == (1, "", "error: verification failure: x\n")


class TestCompare:
    def test_uniform_grid_rows(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, out, _ = run(capsys, ["compare", "--start", "0.01", "--end", "0.99",
                                    "--points", "99", "--families", "all",
                                    "--output", str(out_path)])
        assert code == 0
        assert "99 rows" in out
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header[:2] == ["r", "e_ref"]
        assert header[-2:] == ["best_lo", "best_hi"]
        assert len(data) == 99
        for row in data:
            r, e_ref = float(row[0]), float(row[1])
            best_lo, best_hi = float(row[-2]), float(row[-1])
            assert best_lo <= e_ref + 1e-13
            assert best_hi >= e_ref - 1e-13
            assert e_ref == pytest.approx(complete_e(r), abs=1e-15)

    def test_round_trip_matches_in_memory(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        run(capsys, ["compare", "--start", "0.1", "--end", "0.9", "--points", "9",
                     "--families", "vuorinen", "barnard", "--output", str(out_path)])
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cands = [c for c in default_candidates()
                 if c.family.value in ("vuorinen", "barnard")]
        for row in rows:
            r = float(row[0])
            enc = best_enclosure(r, cands)
            assert float(row[-2]) == enc.lo
            assert float(row[-1]) == enc.hi
            assert float(row[1]) == complete_e(r)

    def test_log_near_one_limit_column(self, tmp_path, capsys):
        out_path = tmp_path / "near1.csv"
        code, _, _ = run(capsys, ["compare", "--start", "0.9", "--end", str(1 - 1e-8),
                                  "--points", "25", "--spacing", "log-near-one",
                                  "--families", "thm11:q=beta_star", "barnard",
                                  "--output", str(out_path)])
        assert code == 0
        with open(out_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        col = header.index("thm11:q=" + repr(__import__("ellipbounds").BETA_STAR))
        values = [float(row[col]) for row in rows]
        # geometric spacing in 1 - r, ascending in r; the column tends to 1
        assert abs(values[-1] - 1.0) < 1e-6
        one_minus = [1.0 - float(row[0]) for row in rows]
        ratios = [a / b for a, b in zip(one_minus, one_minus[1:])]
        assert all(abs(q - ratios[0]) < 1e-6 * ratios[0] for q in ratios)

    def test_empty_families_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["compare", "--start", "0.1", "--end", "0.9",
                                  "--points", "5", "--families",
                                  "--output", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, ["compare", "--start", "0.1", "--end", "0.9",
                                    "--points", "5", "--families", "all",
                                    "--output", "/nonexistent-dir/x.csv"])
        assert code == 4
        assert "cannot write" in err

    @pytest.mark.parametrize("start,end", [("0", "0.5"), ("0.5", "1")])
    def test_endpoint_radius_leaves_existing_output(self, tmp_path, capsys, start, end):
        # r = 0 or 1 is a usage error, raised before the file is opened
        out_path = tmp_path / "table.csv"
        out_path.write_text("earlier contents\n")
        code, _, err = run(capsys, ["compare", "--start", start, "--end", end,
                                    "--points", "5", "--families", "all",
                                    "--output", str(out_path)])
        assert code == 2
        assert "open interval" in err
        assert out_path.read_text() == "earlier contents\n"

    def test_radii_checked_before_candidates(self, tmp_path, capsys):
        # as best_enclosure does on the row r = 1: the radius fails before the spec
        with pytest.raises(DomainError) as exc:
            best_enclosure(1.0, [parse_bound_spec("thm11:q=0.12")])
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, ["compare", "--start", "0.5", "--end", "1", "--points", "3",
                                      "--families", "thm11:q=0.12", "--output", str(out_path)])
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("start", ["5e-324", "1e-300", repr(2.0**-54)])
    def test_log_near_one_start_lost_in_one_minus_start(self, tmp_path, capsys, start):
        # 1 - start rounds to 1, which would make the first grid point r = 0:
        # the grid names the start the user gave, before the file is opened
        out_path = tmp_path / "table.csv"
        out_path.write_text("earlier contents\n")
        code, _, err = run(capsys, ["compare", "--start", start, "--end", "0.9999999999999999",
                                    "--points", "257", "--spacing", "log-near-one",
                                    "--families", "all", "--output", str(out_path)])
        assert code == 2
        assert err == f"error: log-near-one spacing needs start > 2**-54, got {float(start)!r}\n"
        assert out_path.read_text() == "earlier contents\n"

    def test_log_near_one_smallest_start_kept(self):
        # the next double above 2**-54 still moves 1 - start off 1
        rs = GridSpec(math.nextafter(2.0**-54, 1.0), 0.5, 3, Spacing.LOG_NEAR_ONE).values()
        assert 0.0 < rs[0] < rs[1] < rs[2]

    def _peak(self, tmp_path, capsys, families):
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, ["compare", "--start", "1e-6", "--end", "0.999999",
                                      "--points", "20000", "--families", *families,
                                      "--output", str(tmp_path / "table.csv")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_rows_are_streamed(self, tmp_path, capsys):
        # a table held in memory peaks above 10 MB at this size
        assert self._peak(tmp_path, capsys, ["vuorinen", "barnard"]) < 2_000_000

    def test_rows_are_streamed_all_families(self, tmp_path, capsys):
        # 19 columns, written a fixed chunk of rows at a time
        assert self._peak(tmp_path, capsys, ["all", *EXTRA_SPECS]) < 2_000_000

    @pytest.mark.parametrize("points", [2, 255, 256, 257, 513])
    def test_rows_across_chunks_are_best_enclosure(self, tmp_path, capsys, points):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, ["compare", "--start", "1e-6", "--end", "0.999999",
                                  "--points", str(points), "--families", "all", *EXTRA_SPECS,
                                  "--output", str(out_path)])
        assert code == 0
        self._assert_rows_are_best_enclosure(out_path, points)

    @staticmethod
    def _assert_rows_are_best_enclosure(out_path, points):
        specs = default_candidates() + [parse_bound_spec(s) for s in EXTRA_SPECS]
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == points
        for row in rows:
            r = float(row.split(",")[0])
            enc = best_enclosure(r, specs)
            assert row == ",".join(f"{v:.17g}" for v in (r, complete_e(r), *enc.values, enc.lo, enc.hi))

    @pytest.mark.parametrize("start,points,spacing", [
        ("5e-324", 3, "uniform"),
        ("5e-324", 257, "uniform"),
        ("1e-8", 257, "log-near-one"),
    ])
    def test_extreme_radius_rows_are_best_enclosure(self, tmp_path, capsys, start, points, spacing):
        # a subnormal first radius and the largest double below 1 as the last
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, ["compare", "--start", start, "--end", repr(1.0 - 2.0**-53),
                                  "--points", str(points), "--spacing", spacing,
                                  "--families", "all", *EXTRA_SPECS, "--output", str(out_path)])
        assert code == 0
        rs = [float(row.split(",")[0]) for row in out_path.read_text().splitlines()[1:]]
        assert rs == GridSpec(float(start), 1.0 - 2.0**-53, points, Spacing(spacing)).values()
        assert rs[-1] == 1.0 - 2.0**-53
        assert spacing != "uniform" or rs[0] == 5e-324
        self._assert_rows_are_best_enclosure(out_path, points)

    def test_header_round_trips_through_csv(self, tmp_path, capsys):
        # a thm12 label holds a comma, so the header quotes it
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, ["compare", "--start", "0.1", "--end", "0.9", "--points", "2",
                                  "--families", "all", *EXTRA_SPECS, "--output", str(out_path)])
        assert code == 0
        specs = default_candidates() + [parse_bound_spec(s) for s in EXTRA_SPECS]
        labels = [s.label for s in specs]
        assert "thm12:t=0.94999999999999996,p=1.5" in labels
        with open(out_path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["r", "e_ref", *labels, "best_lo", "best_hi"]
        assert '"thm12:t=0.94999999999999996,p=1.5"' in out_path.read_text().splitlines()[0]

    @pytest.mark.parametrize("start,families", [
        ("0", ["all"]),
        ("0.1", []),
        ("0.1", ["thm11:q=0.13", "barnard"]),
        ("0.1", ["vuorinen", "cor31-lower"]),
        ("0.1", ["barnard", "alzer-qiu"]),
    ], ids=["radius", "empty", "invalid", "lowers-only", "uppers-only"])
    def test_errors_are_best_enclosures(self, tmp_path, start, families):
        args = argparse.Namespace(start=float(start), end=0.9, points=5, spacing="uniform",
                                  families=families, output=str(tmp_path / "x.csv"))
        with pytest.raises(EllipBoundsError) as cmp_exc:
            _cmd_compare(args)
        with pytest.raises(EllipBoundsError) as enc_exc:
            best_enclosure(float(start), [parse_bound_spec(f) for f in families if f != "all"]
                           + (default_candidates() if "all" in families else []))
        assert type(cmp_exc.value) is type(enc_exc.value)
        assert str(cmp_exc.value) == str(enc_exc.value)
        assert not (tmp_path / "x.csv").exists()

    def test_bad_grid(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["compare", "--start", "0.9", "--end", "0.1",
                                  "--points", "5", "--families", "all",
                                  "--output", str(tmp_path / "x.csv")])
        assert code == 2


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fan-out needs os.fork")
class TestCompareFanOut:
    # compare with two usable CPUs: from _FORK_LEAST rows one forked child formats every
    # other chunk, with the bytes, messages and exit codes of the one-process run and no
    # process left behind
    UNIFORM = ["--start", "1e-6", "--end", "0.999999", "--spacing", "uniform"]
    NEAR_ONE = ["--start", "1e-4", "--end", "0.9999999", "--spacing", "log-near-one"]

    @pytest.fixture
    def forks(self, monkeypatch):
        # two usable CPUs, whatever the host, and the children forked, counted here
        made, fork = [], os.fork
        monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: made.append(os.getpid()) or fork())
        return made

    @staticmethod
    def _compare(capsys, path, grid, points, families):
        return run(capsys, ["compare", *grid, "--points", str(points), "--families", *families,
                            "--output", str(path)])

    def _both_ways(self, monkeypatch, capsys, path, grid, points, families):
        # (exit code, stdout, stderr, file bytes) with two usable CPUs, then with one
        out = []
        for cpus in (2, 1):
            monkeypatch.setattr(ellipbounds._fork, "cpus", lambda: cpus)
            out.append((*self._compare(capsys, path, grid, points, families),
                        path.read_bytes() if path.is_file() else None))
            _assert_no_children()
        return out

    # one process below _FORK_LEAST; _FORK_LEAST and 6 * _CHUNK + 100 rows make an odd count of
    # chunks (3 and 7), the last one the caller's, and short at 6 * _CHUNK + 100
    @pytest.mark.parametrize("points", [2, _FORK_LEAST - 1, _FORK_LEAST, _FORK_LEAST + 1,
                                        6 * _CHUNK + 100, 5000])
    @pytest.mark.parametrize("grid", ["uniform", "near-one"])
    def test_same_bytes_as_one_process(self, monkeypatch, tmp_path, capsys, forks, grid, points):
        grid = self.UNIFORM if grid == "uniform" else self.NEAR_ONE
        fanned, alone = self._both_ways(monkeypatch, capsys, tmp_path / "table.csv", grid, points,
                                        ["all", *EXTRA_SPECS])
        assert len(forks) == (points >= _FORK_LEAST)
        assert fanned[0] == 0 and fanned[3].count(b"\n") == points + 1
        assert fanned == alone

    def test_rows_are_streamed(self, tmp_path, capsys, forks):
        # the caller holds a chunk of its own and one of the child's, not the table
        assert TestCompare()._peak(tmp_path, capsys, ["all", *EXTRA_SPECS]) < 2_000_000
        assert len(forks) == 1

    @pytest.mark.parametrize("points", [_FORK_LEAST + 1, 3000])
    def test_repeated_kernels_same_bytes(self, monkeypatch, tmp_path, capsys, forks, points):
        fanned, alone = self._both_ways(monkeypatch, capsys, tmp_path / "table.csv", self.UNIFORM, points,
                                        REPEATED_KERNELS)
        assert len(forks) == 1 and fanned[0] == 0
        assert fanned == alone

    @pytest.mark.parametrize("argv,message", [
        (["--start", "0", "--end", "0.5"], "open interval"),
        (["--start", "0.1", "--end", "0.9", "--families", "thm11:q=0.7"], "q must lie in"),
    ], ids=["radius", "spec"])
    def test_usage_error_starts_no_child(self, tmp_path, capsys, forks, argv, message):
        path = tmp_path / "table.csv"
        path.write_text("earlier contents\n")
        families = [] if "--families" in argv else ["--families", "all"]
        code, _, err = run(capsys, ["compare", *argv, "--points", "5000", *families,
                                    "--output", str(path)])
        assert code == 2 and message in err
        assert path.read_text() == "earlier contents\n"
        assert forks == []
        _assert_no_children()

    def test_unopenable_output_starts_no_child(self, capsys, forks):
        code, _, err = self._compare(capsys, "/nonexistent-dir/x.csv", self.UNIFORM, 5000, ["all"])
        assert code == 4 and "cannot write" in err
        assert forks == []
        _assert_no_children()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_error_kills_the_child(self, monkeypatch, capsys, forks):
        # every write to /dev/full fails, the first one on the caller's first chunk
        fanned, alone = self._both_ways(monkeypatch, capsys, Path("/dev/full"), self.UNIFORM, 5000, ["all"])
        assert len(forks) == 1
        assert fanned == alone
        assert fanned[:2] == (4, "") and fanned[2].startswith("error: cannot write '/dev/full': ")

    @staticmethod
    def _breaks_on_chunk(monkeypatch, chunk, act):
        # _columns runs act() on the given chunk of the uniform grid at 5000 points
        first = GridSpec(1e-6, 0.999999, 5000).values()[chunk * _CHUNK]
        columns = ellipbounds.cli._columns

        def patched(rs, specs, split):
            if rs[0] == first:
                act()
            return columns(rs, specs, split)

        monkeypatch.setattr(ellipbounds.cli, "_columns", patched)

    @pytest.mark.parametrize("exc,code,line", [
        (DomainError("chunk 3 broke"), 2, "error: chunk 3 broke"),
        (ZeroDivisionError("chunk 3 divided"), 3, "error: internal numerical error: chunk 3 divided"),
    ], ids=["domain", "arithmetic"])
    def test_child_error_reaches_the_caller(self, monkeypatch, tmp_path, capsys, forks, exc, code, line):
        def raises():
            raise exc

        self._breaks_on_chunk(monkeypatch, 3, raises)
        fanned, alone = self._both_ways(monkeypatch, capsys, tmp_path / "table.csv", self.UNIFORM, 5000,
                                        ["all"])
        assert len(forks) == 1
        assert fanned == alone and fanned[:3] == (code, "", line + "\n")

    def test_child_dying_mid_stream(self, monkeypatch, tmp_path, capsys, forks):
        caller = os.getpid()

        def dies():
            # ends a forked child at once; in this process it only fails
            if os.getpid() != caller:
                os._exit(5)
            raise AssertionError("the child's chunk ran in the caller")

        self._breaks_on_chunk(monkeypatch, 3, dies)
        code, out, err = self._compare(capsys, tmp_path / "x.csv", self.UNIFORM, 5000, ["all"])
        assert (code, out) == (3, "")
        assert err == ("error: internal numerical error: the compare child ended without a result "
                       "(exit status 5)\n")
        assert len(forks) == 1
        _assert_no_children()


class TestCrossover:
    def test_cor31_upper_vs_alzer_qiu(self, capsys):
        code, out, _ = run(capsys, ["crossover", "--a", "cor31-upper", "--b", "alzer-qiu"])
        assert code == 0
        assert "better near r=1: cor31-upper" in out
        delta = float(out.split("delta=")[1].split()[0])
        assert 0.0 < delta < 1.0

    def test_thm11_lower_vs_vuorinen(self, capsys):
        code, out, _ = run(capsys, ["crossover", "--a", "thm11-lower:q=beta_star",
                                    "--b", "vuorinen"])
        assert code == 0
        assert "thm11" in out.split("better near r=1:")[1]

    def test_no_crossover(self, capsys):
        code, out, _ = run(capsys, ["crossover", "--a", "cor31-lower", "--b", "vuorinen"])
        assert code == 0
        assert out.startswith("NO-CROSSOVER")
        assert "cor31-lower" in out

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, ["crossover", "--a", "bogus", "--b", "vuorinen"])
        assert code == 2
        assert "unknown bound family" in err


def test_console_module_invocation():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "ellipbounds.cli",
                           "eval", "--what", "E", "--r", "0.5"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "1.467462209339427\n"


# the public names the package serves from ellipbounds.verify
VERIFY_NAMES = ["CheckResult", "CrossoverResult", "Direction", "MonotoneReport", "NoCrossover",
                "SignCase", "SignCaseReport", "find_crossover", "lemma22_function", "lemma23_g",
                "lemma24_h", "lemma25_check", "lemma26_classify", "lemma26_f", "lemma27_F",
                "run_suite", "search_violation", "sweep_monotone"]

# true while ellipbounds.verify is registered but its code has not run
UNEXECUTED = ('type(sys.modules["ellipbounds.verify"]) is not types.ModuleType'
              ' and "fractions" not in sys.modules')


def run_fresh(code, env=None):
    """Run `code` in a fresh interpreter on this checkout's src/; its stdout."""
    full_env = {k: v for k, v in os.environ.items() if k != "ELLIP_GRID_POINTS"}
    full_env.update(env or {}, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=full_env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyVerify:
    def test_computing_leaves_verify_unexecuted(self, tmp_path):
        table = str(tmp_path / "table.csv")
        out = run_fresh(f"""
import contextlib, io, sys, types
import ellipbounds.cli
states = [{UNEXECUTED}]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv, code in [(["eval", "--what", "E", "--r", "0.5"], 0),
                       (["enclose", "--r", "0.5", "--families", "all"], 0),
                       (["compare", "--start", "0.1", "--end", "0.9", "--points", "5",
                         "--families", "all", "--output", {table!r}], 0),
                       (["verify", "--suite", "bogus"], 2)]:
        states.append(ellipbounds.cli.main(argv) == code and {UNEXECUTED})
print(states)
""")
        assert out == "[True, True, True, True, True]\n"

    def test_compare_fan_out_leaves_verify_unexecuted_and_pickle_unloaded(self, tmp_path):
        # reading verify, or importing pickle, would raise the peak RSS of every compare
        table = str(tmp_path / "table.csv")
        out = run_fresh(f"""
import contextlib, io, os, sys, types
import ellipbounds._fork, ellipbounds.cli
ellipbounds._fork.cpus = lambda: 2
made, fork = [], os.fork
os.fork = lambda: made.append(1) or fork()
with contextlib.redirect_stdout(io.StringIO()):
    code = ellipbounds.cli.main(["compare", "--start", "0.1", "--end", "0.9", "--points", "5000",
                                 "--families", "all", "--output", {table!r}])
print(code, len(made), {UNEXECUTED}, "pickle" not in sys.modules, "signal" not in sys.modules)
""")
        assert out == "0 1 True True True\n"

    def test_import_and_short_compare_leave_fork_helper_unloaded(self, tmp_path):
        # the fork helper is compiled only by a command that may fork, never at import
        table = str(tmp_path / "table.csv")
        out = run_fresh(f"""
import contextlib, io, sys
import ellipbounds.cli
states = ["ellipbounds._fork" not in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = ellipbounds.cli.main(["compare", "--start", "0.1", "--end", "0.9",
                                 "--points", str(ellipbounds.cli._FORK_LEAST - 1),
                                 "--families", "all", "--output", {table!r}])
print(code, states + ["ellipbounds._fork" not in sys.modules])
""")
        assert out == "0 [True, True]\n"

    def test_one_process_verify_leaves_pickle_unloaded(self):
        # pickle carries the child's results, so a run with no child never imports it
        out = run_fresh("""
import sys
import ellipbounds, ellipbounds._fork
ellipbounds._fork.cpus = lambda: 1
print(len(ellipbounds.run_suite("all", 1000)), "pickle" not in sys.modules)
""")
        assert out == "42 True\n"

    @pytest.mark.parametrize("touch", [
        "ellipbounds.run_suite",
        # grid 1 is below every scan's minimum: run_suite raises, the command exits 2
        'ellipbounds.cli.main(["verify", "--suite", "all"])',
    ])
    def test_first_use_executes_verify(self, touch):
        out = run_fresh(f"""
import sys, types
import ellipbounds.cli
before = {UNEXECUTED}
{touch}
after = {UNEXECUTED}
import ellipbounds.verify as verify
same = [getattr(ellipbounds, name) is getattr(verify, name) for name in {VERIFY_NAMES!r}]
print(before, after, type(verify) is types.ModuleType, all(same), len(same))
""", env={"ELLIP_GRID_POINTS": "1"})
        assert out == "True False True True 18\n"

    def test_reload_keeps_one_verify(self):
        # a reload before first use and one after it; each keeps the one module
        out = run_fresh(f"""
import importlib, sys, types
import ellipbounds, ellipbounds.cli
first = sys.modules["ellipbounds.verify"]
states = []
for _ in range(2):
    importlib.reload(ellipbounds)
    states.append({UNEXECUTED})
    states += [sys.modules["ellipbounds.verify"] is first, ellipbounds.cli.verify is first,
               ellipbounds.verify is first,
               ellipbounds.CheckResult is first.CheckResult is ellipbounds.cli.verify.CheckResult]
print(states)
""")
        assert out == "[True, True, True, True, True, False, True, True, True, True]\n"

    def test_dir_star_import_and_missing_names(self):
        import ellipbounds
        assert set(VERIFY_NAMES) <= set(dir(ellipbounds))
        star = {}
        exec("from ellipbounds import *", star)
        assert set(VERIFY_NAMES) <= set(star)
        with pytest.raises(AttributeError, match="^module 'ellipbounds' has no attribute 'nope'$"):
            ellipbounds.nope

    def test_patched_run_suite_is_seen(self, monkeypatch, capsys):
        import ellipbounds.verify
        from ellipbounds.verify import CheckResult

        def fake(name, grid_points):
            return [CheckResult("patched", True, f"suite={name}")]

        monkeypatch.setattr(ellipbounds.verify, "run_suite", fake)
        code, out, _ = run(capsys, ["verify", "--suite", "all"], env={"ELLIP_GRID_POINTS": "1000"})
        assert code == 0
        assert out.splitlines()[0].split() == ["PASS", "patched", "suite=all"]
        assert out.splitlines()[1] == "1/1 checks passed (suite=all, grid=1000)"


class TestPackageRoot:
    @pytest.mark.parametrize("module", ["core", "bounds", "errors", "verify"])
    def test_serves_every_public_name(self, module):
        import ellipbounds
        mod = importlib.import_module(f"ellipbounds.{module}")
        public, listed = set(ellipbounds.__all__), set(dir(ellipbounds))
        for name in mod.__all__:
            assert name in public and name in listed, name
            assert getattr(ellipbounds, name) is getattr(mod, name), name

    def test_probes_leave_verify_unexecuted(self):
        # dunder and private probes answer at once; a missing public name
        # looks in verify.__all__, which executes verify, and then fails
        out = run_fresh(f"""
import sys, types
import ellipbounds
states = [getattr(ellipbounds, "__wrapped__", None) is None, {UNEXECUTED},
          hasattr(ellipbounds, "_private"), {UNEXECUTED}]
try:
    ellipbounds.nope
except AttributeError as exc:
    states += [str(exc), {UNEXECUTED}]
print(states)
""")
        assert out == "[True, True, False, True, \"module 'ellipbounds' has no attribute 'nope'\", False]\n"


class TestImportLean:
    # the value classes are built without dataclasses, so no command loads it or inspect
    def test_commands_leave_dataclasses_and_inspect_unloaded(self, tmp_path):
        table = str(tmp_path / "table.csv")
        out = run_fresh(f"""
import contextlib, io, sys
import ellipbounds.cli
UNLOADED = lambda: "dataclasses" not in sys.modules and "inspect" not in sys.modules
states = [UNLOADED()]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["eval", "--what", "E", "--r", "0.5"],
                 ["enclose", "--r", "0.5", "--families", "all"],
                 ["compare", "--start", "0.1", "--end", "0.9", "--points", "5",
                  "--families", "all", "--output", {table!r}],
                 ["verify", "--suite", "remarks"]):
        states.append(ellipbounds.cli.main(argv) == 0 and UNLOADED())
print(states)
""", env={"ELLIP_GRID_POINTS": "1000"})
        assert out == "[True, True, True, True, True]\n"
