import contextlib
import dataclasses
import errno
import functools
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distchar as dc
from distchar import verification
from distchar.cli import _COMMANDS, _emit_json, main, run
from distchar.errors import DomainError
from distchar.fixtures import fixture_path
from distchar.io import distance_matrix_dict

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
SUBCOMMANDS = ("distmat", "near", "rob-plus", "rob-minus", "concord", "corr", "adversarial",
               "explore-near", "mc-nn", "delta-cf", "verify")

EX6 = "2,50\n5,20\n1,10\n"
EX8_Y = "1,1\n2,0\n3,0\n"
# p2 distances 1.0000000006, 1.0 and 1.0000000015: under the default tolerance
# rows 1 and 2 tie their other two rows and row 3 does not (total 5 = n(n-1) - 1)
TOLERANCE_TRIANGLE = "0,0\n0.49999999910000015,0.8660254049968742\n1,0\n"


@pytest.fixture
def csv_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def csv_text(x) -> str:
    """CSV text that parses back to the float matrix ``x`` exactly."""
    return "\n".join(",".join(map(repr, row)) for row in np.asarray(x).tolist())


def run_json(capsys, argv):
    status = run(argv)
    captured = capsys.readouterr()
    assert status == 0, captured.err
    return json.loads(captured.out)


class TestDistmat:
    def test_text_output_is_csv(self, capsys, csv_file):
        path = csv_file("x.csv", "0\n3\n")
        assert run(["distmat", "--c", "p2", "--x", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["0,3", "3,0"]

    def test_json_output(self, capsys, csv_file):
        path = csv_file("x.csv", EX6)
        payload = run_json(capsys, ["distmat", "--c", "pinf", "--x", path, "--format", "json"])
        assert payload["order"] == 3
        assert payload["entries"] == [[0, 30, 40], [30, 0, 10], [40, 10, 0]]

    def test_bundled_fixture(self, capsys):
        path = str(fixture_path("ex4"))
        assert run(["distmat", "--c", "p2", "--x", path]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "0,2,2,2"

    @pytest.mark.parametrize("c", ["L", "p1"])
    def test_json_bytes_equal_one_shot_dump(self, capsys, csv_file, c):
        # the benchmark's bulk-gauss shape
        x = np.random.default_rng(19).standard_normal((300, 16))
        path = csv_file("gauss.csv", csv_text(x))
        assert run(["distmat", "--c", c, "--x", path, "--format", "json"]) == 0
        d = dc.build(dc.parse_coefficient(c), x)
        want = json.dumps(distance_matrix_dict(d), sort_keys=True, separators=(",", ":"))
        assert capsys.readouterr().out.encode() == (want + "\n").encode()

    def test_json_is_written_a_row_at_a_time(self, csv_file):
        class Stdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        x = np.random.default_rng(0).standard_normal((40, 3))
        path = csv_file("x.csv", csv_text(x))
        d = dc.build(dc.PNorm(2), x)
        want = {"json": json.dumps(distance_matrix_dict(d), sort_keys=True, separators=(",", ":")),
                "text": "\n".join(",".join(f"{v:.9g}" for v in row) for row in d.tolist())}
        # print writes each line and its line end apart
        for fmt, most in [("json", len(x) + 2), ("text", 2 * len(x))]:
            out = Stdout()
            with contextlib.redirect_stdout(out):
                assert run(["distmat", "--c", "p2", "--x", path, "--format", fmt]) == 0
            assert 0 < out.writes <= most
            assert out.getvalue() == want[fmt] + "\n"

    def test_asymmetric_matrix_writes_nothing(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(DomainError, match="symmetric"):
            _emit_json(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert out.getvalue() == ""


class TestNear:
    def test_one_based_sets(self, capsys, csv_file):
        path = csv_file("x.csv", "2\n5\n1\n")
        payload = run_json(capsys, ["near", "--c", "p1", "--x", path, "--format", "json"])
        assert payload == {"sets": [[3], [1], [1]], "total": 3}

    def test_positive_only_flag(self, capsys, csv_file):
        path = csv_file("x.csv", "0,0\n0,0\n0,0\n")
        payload = run_json(
            capsys,
            ["near", "--c", "p1", "--x", path, "--positive-only", "--format", "json"],
        )
        assert payload == {"sets": [[], [], []], "total": 0}

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_domain_error(self, capsys, csv_file, flag, value):
        path = csv_file("dup.csv", "1,2\n1,2\n3,0\n")
        assert run(["near", "--c", "p2", "--x", path, flag, value]) == 1
        err = capsys.readouterr().err
        assert err == "error: tie tolerances must be finite and nonnegative\n"


class TestRobustness:
    def test_rob_plus_zero(self, capsys, csv_file):
        x = csv_file("x.csv", "2\n5\n1\n")
        xp = csv_file("xp.csv", EX6)
        for p in ("p1", "p2", "p7", "pinf"):
            payload = run_json(
                capsys, ["rob-plus", "--c", p, "--x", x, "--xp", xp, "--format", "json"]
            )
            assert payload == {"num": 0, "den": 3, "value": 0.0}

    def test_rob_minus(self, capsys, csv_file):
        path = csv_file("z.csv", "1,0\n0,0\n0,1\n")
        payload = run_json(
            capsys,
            ["rob-minus", "--c", "p1", "--x", path, "--positive-only", "--format", "json"],
        )
        assert payload == {"num": 0, "den": 6, "value": 0.0}

    def test_rob_minus_single_column_is_domain_error(self, capsys, csv_file):
        path = csv_file("x.csv", "1\n2\n")
        assert run(["rob-minus", "--c", "p1", "--x", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestAssociation:
    def test_corr_documented_invocation(self, capsys, csv_file):
        path = csv_file("ex8_y.csv", EX8_Y)
        payload = run_json(
            capsys,
            ["corr", "--m", "p1", "--l", "L", "--x", path, "--conv", "grid", "--format", "json"],
        )
        assert payload["rho"] == pytest.approx(14 / math.sqrt(213), abs=1e-6)
        assert payload["convention"] == "grid"

    def test_corr_undefined_is_null(self, capsys, csv_file):
        path = csv_file("flat.csv", "1,2\n1,2\n")
        payload = run_json(
            capsys, ["corr", "--m", "p1", "--n", "p2", "--x", path, "--format", "json"]
        )
        assert payload["rho"] is None

    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_corr_overflow_is_domain_error(self, capsys, csv_file, scale):
        x = scale * np.random.default_rng(45).standard_normal((5, 2))
        path = csv_file("big.csv", "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in x))
        argv = ["corr", "--m", "p1", "--n", "p2", "--x", path, "--format", "json"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: distance-matrix moments overflow; rescale the data\n"

    def test_concord(self, capsys, csv_file):
        path = csv_file("tri.csv", "2,0\n-1,1.7320508075688772\n-1,-1.7320508075688772\n")
        payload = run_json(
            capsys, ["concord", "--m", "p1", "--n", "p2", "--x", path, "--format", "json"]
        )
        assert payload == {"num": 1, "den": 3, "value": pytest.approx(1 / 3)}


class TestToleranceTies:
    """A tolerance decides each row on its own, so the tie relation need not
    be symmetric and a total of n(n-1) - 1 is valid."""

    @pytest.mark.parametrize("argv, expected", [
        (["near", "--c", "p2"], "row 1: 2 3\nrow 2: 1 3\nrow 3: 1\ntotal = 5\n"),
        (["rob-minus", "--c", "p2"], "robustness = 2/6 = 0.333333333\n"),
        (["concord", "--m", "p1", "--n", "p2"], "concordance = 1/3 = 0.333333333\n"),
    ])
    def test_scores(self, capsys, csv_file, argv, expected):
        assert run([*argv, "--x", csv_file("x.csv", TOLERANCE_TRIANGLE)]) == 0
        assert capsys.readouterr().out == expected

    def test_rob_plus(self, capsys, csv_file):
        x = csv_file("x.csv", TOLERANCE_TRIANGLE)
        rows = TOLERANCE_TRIANGLE.splitlines()
        xp = csv_file("xp.csv", "".join(f"{r},{v}\n" for r, v in zip(rows, (0, 1, 5))))
        assert run(["rob-plus", "--c", "p2", "--x", x, "--xp", xp]) == 0
        assert capsys.readouterr().out == "robustness = 2/5 = 0.4\n"


class TestAdversarial:
    def test_json_payload(self, capsys, csv_file):
        path = csv_file("x.csv", "0,0\n0,0\n0,0\n")
        payload = run_json(
            capsys, ["adversarial", "--c", "p1", "--x", path, "--format", "json"]
        )
        assert payload["achieved_near_total"] == 3
        assert payload["spacing"] == [1, 2, 4]
        assert payload["column"] == [v * payload["t"] for v in payload["spacing"]]
        augmented = np.array(payload["augmented"])
        assert augmented.shape == (3, 3)
        assert np.array_equal(augmented[:, :2], np.zeros((3, 2)))

    def test_squared_euclidean_rejected(self, capsys, csv_file):
        path = csv_file("x.csv", "0\n1\n")
        assert run(["adversarial", "--c", "L", "--x", path]) == 1

    def test_wide_column_found_by_doubling(self, capsys, csv_file):
        # no halving of t separates the neighbors at this spacing; t = 4 does
        path = csv_file("wide.csv", "0\n1e5\n2e5\n")
        payload = run_json(capsys, ["adversarial", "--c", "p2", "--x", path, "--format", "json"])
        assert payload["t"] == 4.0
        assert payload["achieved_near_total"] == 3


class TestSearchAndAsymptotics:
    def test_explore_near(self, capsys):
        payload = run_json(
            capsys,
            ["explore-near", "--rows", "3", "--c", "p1", "--seed", "4", "--format", "json"],
        )
        assert payload == {"rows": 3, "totals": [3, 4, 6]}

    def test_mc_nn_reports_conjecture(self, capsys):
        payload = run_json(
            capsys,
            ["mc-nn", "--points", "3", "--length", "1", "--samples", "20000",
             "--seed", "42", "--format", "json"],
        )
        assert payload["conjectured"] == 0.25
        assert abs(payload["mean"] - 0.25) <= 3 * payload["standard_error"]
        assert payload["samples"] == 20000

    def test_mc_nn_text_labels_the_exact_value(self, capsys):
        assert run(["mc-nn", "--points", "5", "--samples", "100", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "exact L/(n+1) = 0.166666667  (a theorem for every n)" in out
        assert "guess" not in out

    def test_mc_nn_single_sample_is_domain_error(self, capsys):
        assert run(["mc-nn", "--points", "2", "--samples", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least two samples for a standard error\n"

    @pytest.mark.parametrize("length", ["1e307", "1e308"], ids=["sum", "range"])
    def test_mc_nn_overflow_is_domain_error(self, capsys, length):
        # at scale L the squared minima (1e307) or the range 2L (1e308) overflow
        payload = run_json(capsys, ["mc-nn", "--points", "2", "--length", length,
                                    "--samples", "10", "--format", "json"])
        assert 0 < payload["standard_error"] < payload["mean"] < math.inf
        assert abs(payload["mean"] - payload["conjectured"]) <= 5 * payload["standard_error"]

    def test_mc_nn_tiny_length_prints_nonzero_stderr(self, capsys):
        # at scale L the squared minima flush to 0
        assert run(["mc-nn", "--points", "2", "--length", "1e-300", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        stderr = float(out.split("(stderr ", 1)[1].split(",", 1)[0])
        assert stderr > 0

    def test_mc_nn_underflowing_length_is_domain_error(self, capsys):
        assert run(["mc-nn", "--points", "2", "--length", "5e-324", "--samples", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: estimate at length 5e-324 is outside the normal "
                                "float range (got 0.0)\n")

    @pytest.mark.parametrize("flag, value", [
        ("--grid-extent", "-1"), ("--random-samples", "-5"), ("--random-cols", "0")])
    def test_explore_near_bad_budget_is_domain_error(self, capsys, flag, value):
        assert run(["explore-near", "--rows", "3", "--c", "p1", flag, value]) == 1
        assert capsys.readouterr().err.startswith("error: search budget needs")

    def test_explore_near_beyond_the_probe_bound_is_one_error_line(self):
        # in a child process, so that a leaked numpy warning would reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "distchar.cli", "explore-near", "--rows", "1026", "--c", "p1"],
            capture_output=True, env=SUBPROCESS_ENV, text=True, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: the search's probes need n <= 1024 rows")
        assert proc.stderr.count("\n") == 1

    def test_explore_near_beyond_the_L_probe_bound_is_one_error_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "distchar.cli", "explore-near", "--rows", "513", "--c", "L",
             "--random-samples", "0", "--grid-extent", "0"],
            capture_output=True, env=SUBPROCESS_ENV, text=True, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: the search's probes need n <= 512 rows, got 513\n"

    @pytest.mark.parametrize("argv", [["mc-nn", "--points", "2", "--samples", "10"],
                                      ["explore-near", "--rows", "3", "--c", "p2"]])
    def test_negative_seed_is_domain_error(self, capsys, argv):
        assert run([*argv, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n"

    def test_delta_cf(self, capsys):
        payload = run_json(
            capsys, ["delta-cf", "--digits", "20", "--max-q", "10000000", "--format", "json"]
        )
        assert payload["delta"] == "0.57037600167502303696"
        assert payload["truncated"] is False
        assert {"p": 3070111, "q": 5382609} in payload["convergents"]


EXACT_DISTANCE_CHECKS = {
    "ex2-single-column", "ex6-distance-first-column", "ex6-distance-second-column",
    "ex6-distance-max-norm", "ex7-distance-matrices", "ex8-hadamard-square", "ex8-expectation"}


class TestVerify:
    def test_all_golden_checks_pass(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_raising_check_fails_alone(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise DomainError("boom")

        monkeypatch.setattr(verification, "correlation", boom)
        assert run(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 23
        failed = [line for line in lines if line.startswith("FAIL")]
        assert failed == [f"FAIL {name}  (DomainError: boom)" for name in
                          ("ex8-column-correlation", "ex8-matrix-correlations",
                           "ex9-correlations")]
        assert sum(line.startswith("PASS ") for line in lines) == 19
        assert lines[-1] == "19/22 checks passed"

    def test_wrong_value_shows_got_and_want(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "delta_constant", lambda digits: "0.5")
        assert run(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL delta-constant-15-digits  (got 0.5, want 0.570376001675023)"]
        assert lines[-1] == "21/22 checks passed"

    @pytest.mark.parametrize("scale, failing", [
        (1 + 1e-14, EXACT_DISTANCE_CHECKS), (1 + 1e-9, EXACT_DISTANCE_CHECKS | {
            "ex1-two-row-matrix", "ex3-rank-one-scaling", "ex4-distance-euclidean",
            "ex5-distance-euclidean", "ex9-expectation"})])
    def test_distance_tolerances(self, monkeypatch, scale, failing):
        # exact checks see a 1e-14 relative error, the 1e-12 relative ones only 1e-9
        real = verification.build
        monkeypatch.setattr(verification, "build", lambda c, x: real(c, x) * scale)
        assert {c.name for c in verification.run_golden_checks() if not c.passed} == failing

    @pytest.mark.parametrize("shift, failing", [
        (5e-7, set()), (2e-6, {"ex8-column-correlation", "ex8-matrix-correlations"}),
        (2e-5, {"ex8-column-correlation", "ex8-matrix-correlations", "ex9-correlations"})])
    def test_correlation_tolerances(self, monkeypatch, shift, failing):
        # ex8 compares rho at 1e-6 absolute, ex9 at 1e-5 absolute
        real = verification.correlation
        monkeypatch.setattr(verification, "correlation", lambda *args: dataclasses.replace(
            real(*args), rho=real(*args).rho + shift))
        assert {c.name for c in verification.run_golden_checks() if not c.passed} == failing

    def test_undefined_rho_is_a_fail(self, capsys, monkeypatch):
        real = verification.correlation
        monkeypatch.setattr(verification, "correlation",
                            lambda *args: dataclasses.replace(real(*args), rho=None))
        assert run(["verify"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert failed[0].startswith("FAIL ex8-column-correlation  (got None, want 0.94387")
        assert len(failed) == 3


class TestContract:
    def test_json_output_is_deterministic(self, capsys, csv_file):
        path = csv_file("x.csv", EX8_Y)
        argv = ["corr", "--m", "p2", "--n", "L", "--x", path, "--format", "json"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_seeded_commands_are_deterministic(self, capsys):
        argv = ["mc-nn", "--points", "2", "--samples", "5000", "--seed", "7",
                "--format", "json"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert first == capsys.readouterr().out

    def test_malformed_csv_names_line_and_column(self, capsys, csv_file):
        path = csv_file("bad.csv", "1,2\n3,oops\n")
        assert run(["distmat", "--c", "p1", "--x", path]) == 1
        err = capsys.readouterr().err
        assert "line 2, column 2" in err
        assert "Traceback" not in err

    def test_non_utf8_csv_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes("1,2\n3,4\n".encode("utf-16"))  # starts with ff fe
        assert run(["near", "--c", "p2", "--x", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: not UTF-8 text at byte offset 0 "
                                "(invalid start byte)\n")

    def test_utf8_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # spreadsheet programs start a UTF-8 CSV with the mark ef bb bf
        outputs = []
        for name, prefix in (("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")):
            (tmp_path / name).write_bytes(prefix + b"0,0\n1,1\n")
            assert run(["near", "--c", "p2", "--x", str(tmp_path / name)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[1].err == ""

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        assert run(["distmat", "--c", "p1", "--x", str(tmp_path / "nope.csv")]) == 1

    def test_unknown_coefficient_is_domain_error(self, capsys, csv_file):
        path = csv_file("x.csv", "1\n2\n")
        assert run(["distmat", "--c", "q9", "--x", path]) == 1

    @pytest.mark.parametrize("argv, err", [
        # p2 distances of over.csv overflow, so a build would be reported instead
        (["near", "--c", "p2", "--x", "{over}", "--rel-tol", "-1"],
         "tie tolerances must be finite and nonnegative"),
        (["explore-near", "--rows", "3", "--c", "p0", "--random-samples", "-1"],
         "p-norm requires p >= 1 or p = inf, got 0.0"),
        (["rob-plus", "--c", "p0", "--x", "{over}", "--xp", "{missing}"],
         "p-norm requires p >= 1 or p = inf, got 0.0"),
    ], ids=["tolerance-before-build", "coefficient-before-budget", "coefficient-before-files"])
    def test_first_bad_flag_is_reported_before_any_computation(
            self, capsys, monkeypatch, csv_file, tmp_path, argv, err):
        paths = {"over": csv_file("over.csv", "1e308,0\n-1e308,0\n"),
                 "missing": str(tmp_path / "missing.csv")}
        build, builds = dc.build, []
        monkeypatch.setattr("distchar.distance.build", lambda *a: builds.append(a) or build(*a))
        assert run([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert builds == []

    def test_usage_error_exits_two(self, capsys, csv_file):
        with pytest.raises(SystemExit) as excinfo:
            run(["distmat", "--nonsense"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([])
        assert excinfo.value.code == 2

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], *([sub, "--help"] for sub in SUBCOMMANDS)):
            with pytest.raises(SystemExit) as excinfo:
                run(argv)
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: distchar")
            # a subcommand adds its flags when it parses: its help names each
            if argv[0] in _COMMANDS:
                assert all(flag in out for flag in (*_COMMANDS[argv[0]].options, "--format"))

    @pytest.mark.parametrize("command, status", [
        ("near --c p2 --x {ex5}", 0),
        ("distmat --c q9 --x {ex5}", 1),
        ("distmat --nonsense", 2),
    ], ids=["success", "domain-error", "usage-error"])
    def test_module_entry_point_matches_run(self, capsys, command, status):
        argv = command.format(ex5=fixture_path("ex5")).split()
        try:
            assert run(argv) == status
        except SystemExit as exc:
            assert exc.code == status
        expected = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "distchar.cli", *argv],
                              capture_output=True, env=SUBPROCESS_ENV, check=False)
        assert proc.returncode == status
        assert (proc.stdout, proc.stderr) == (expected.out.encode(), expected.err.encode())


class TestProcess:
    """What ``main()`` adds to ``run()`` in a ``distchar`` process."""

    NEAR = ("near", "--c", "p2", "--x", str(fixture_path("ex5")))

    @pytest.mark.parametrize("argv", [NEAR, ("distmat", "--c", "q9"), ("--help",)],
                             ids=["success", "usage-error", "help"])
    def test_main_freezes_the_collector(self, argv):
        probe = ("import gc\nfrom distchar.cli import main\nbefore = gc.get_freeze_count()\n"
                 "try:\n    main()\nexcept SystemExit:\n    pass\n"
                 "print(before, gc.get_freeze_count())")
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                              env=SUBPROCESS_ENV, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        before, after = map(int, proc.stdout.splitlines()[-1].split())
        assert before == 0
        assert after > 0

    def test_run_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        assert run(list(self.NEAR)) == 0
        assert gc.get_freeze_count() == before

    @staticmethod
    def assert_write_error(argv, stdout, unbuffered, code):
        env = {**SUBPROCESS_ENV, "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.run([sys.executable, "-m", "distchar.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE, env=env, check=False)
        expected = f"error: cannot write output: {os.strerror(code)}\n"
        assert (proc.returncode, proc.stderr.decode()) == (1, expected)

    # (argv, PYTHONUNBUFFERED); the help texts are written by print_help,
    # which in argparse itself swallows a failed write
    WRITES = pytest.mark.parametrize("argv, unbuffered", [
        pytest.param(argv, unbuffered, id=prefix + mode)
        for prefix, argv in [("", NEAR), ("help-", ("--help",)),
                             ("near-help-", ("near", "--help"))]
        for mode, unbuffered in [("buffered", ""), ("unbuffered", "1")]])

    @WRITES
    def test_closed_pipe_is_one_error_line(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            self.assert_write_error(argv, write_end, unbuffered, errno.EPIPE)
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("fmt, head, unbuffered", [
        pytest.param(fmt, head, unbuffered, id=prefix + mode)
        for prefix, fmt, head in [("", "json", b'{"entries":[[0.0,'), ("text-", "text", b"0,")]
        for mode, unbuffered in [("buffered", ""), ("unbuffered", "1")]])
    def test_pipe_closed_mid_stream_is_one_error_line(self, tmp_path, fmt, head, unbuffered):
        # about 0.7 MB of JSON or 0.4 MB of text: the writer fills the 64 KiB
        # pipe buffer and blocks, then the reader goes away with most rows
        # still to write
        x = np.random.default_rng(0).standard_normal((200, 2))
        path = tmp_path / "x.csv"
        path.write_text(csv_text(x))
        env = {**SUBPROCESS_ENV, "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "distchar.cli", "distmat", "--c", "p2", "--x", str(path),
             "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(100).startswith(head)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert err == f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @WRITES
    def test_full_device_is_one_error_line(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            self.assert_write_error(argv, full, unbuffered, errno.ENOSPC)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          env=SUBPROCESS_ENV, cwd=ROOT, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


# Small CSV inputs for the golden byte tests, written to a temporary directory.
GOLDEN_CSV = {
    "col": "2\n5\n1\n",
    "pair": EX6,
    "flat": "1,2\n1,2\n",
    "same": "0,0\n0,0\n0,0\n",
    "tri": "2,0\n-1,1.7320508075688772\n-1,-1.7320508075688772\n",
    "bad": "1,2\n3,oops\n",
    "one": "1\n2\n",
}

# (argv, exit status, exact stdout, exact stderr); "{name}" stands for the path
# of a bundled fixture (ex4 .. ex9) or of a GOLDEN_CSV file.
GOLDEN = [
    ('distmat --c p2 --x {ex4}', 0,
     '0,2,2,2\n'
     '2,0,3.46410162,3.46410162\n'
     '2,3.46410162,0,3.46410162\n'
     '2,3.46410162,3.46410162,0\n',
     ''),
    ('distmat --c p2 --x {ex4} --format json', 0,
     '{"entries":[[0.0,2.0,2.0,2.0],[2.0,0.0,3.4641016151377544,3.4641016151377544],'
     '[2.0,3.4641016151377544,0.0,3.4641016151377544],[2.0,3.4641016151377544,'
     '3.4641016151377544,0.0]],"order":4}\n',
     ''),
    ('near --c p2 --x {ex5}', 0,
     'row 1: 2 3 4 5\n'
     'row 2: 1\n'
     'row 3: 1\n'
     'row 4: 1\n'
     'row 5: 1\n'
     'total = 8\n',
     ''),
    ('near --c p2 --x {ex5} --format json', 0,
     '{"sets":[[2,3,4,5],[1],[1],[1],[1]],"total":8}\n',
     ''),
    ('near --c p1 --x {same} --positive-only', 0,
     'row 1: -\n'
     'row 2: -\n'
     'row 3: -\n'
     'total = 0\n',
     ''),
    ('near --c p1 --x {same} --positive-only --format json', 0,
     '{"sets":[[],[],[]],"total":0}\n',
     ''),
    ('rob-plus --c p2 --x {col} --xp {pair} --positive-only', 0,
     'robustness = 0/3 = 0\n',
     ''),
    ('rob-plus --c p2 --x {col} --xp {pair} --positive-only --format json', 0,
     '{"den":3,"num":0,"value":0.0}\n',
     ''),
    ('rob-minus --c pinf --x {ex7} --positive-only', 0,
     'robustness = 2/6 = 0.333333333\n',
     ''),
    ('rob-minus --c pinf --x {ex7} --positive-only --format json', 0,
     '{"den":6,"num":2,"value":0.3333333333333333}\n',
     ''),
    ('concord --m p1 --l p2 --x {tri}', 0,
     'concordance = 1/3 = 0.333333333\n',
     ''),
    ('concord --m p1 --l p2 --x {tri} --format json', 0,
     '{"den":3,"num":1,"value":0.3333333333333333}\n',
     ''),
    ('corr --m p1 --n L --x {ex8}', 0,
     'rho = 0.959264194\n'
     'cov = 2.07407407\n'
     'var = 1.33333333, 3.50617284\n',
     ''),
    ('corr --m p1 --n L --x {ex8} --format json', 0,
     '{"convention":"grid","cov":2.0740740740740744,"rho":0.9592641937585443,'
     '"var_m":1.3333333333333335,"var_n":3.5061728395061733}\n',
     ''),
    ('corr --m p1 --l pinf --x {ex9} --conv upper', 0,
     'rho = -1\n'
     'cov = -0.130768282\n'
     'var = 0.35726559, 0.0478645131\n',
     ''),
    ('corr --m p1 --l pinf --x {ex9} --conv upper --format json', 0,
     '{"convention":"upper","cov":-0.13076828180442113,"rho":-0.9999999999999998,'
     '"var_m":0.3572655899081634,"var_n":0.04786451314966052}\n',
     ''),
    ('corr --m p1 --n p2 --x {flat}', 0,
     'rho = undefined\n'
     'cov = 0\n'
     'var = 0, 0\n',
     ''),
    ('corr --m p1 --n p2 --x {flat} --format json', 0,
     '{"convention":"grid","cov":0.0,"rho":null,"var_m":0.0,"var_n":0.0}\n',
     ''),
    ('adversarial --c p1 --x {ex8}', 0,
     't = 0.5\n'
     'column = 0.5 1 2\n'
     'achieved neighbor total = 3\n',
     ''),
    ('adversarial --c p1 --x {ex8} --format json', 0,
     '{"achieved_near_total":3,"augmented":[[1.0,1.0,0.5],[2.0,0.0,1.0],[3.0,0.0,2.0]],'
     '"column":[0.5,1.0,2.0],"spacing":[1,2,4],"t":0.5}\n',
     ''),
    ('explore-near --rows 3 --c p1 --seed 4', 0,
     'observed totals: 3 4 6\n',
     ''),
    ('explore-near --rows 3 --c p1 --seed 4 --format json', 0,
     '{"rows":3,"totals":[3,4,6]}\n',
     ''),
    ('mc-nn --points 3 --samples 2000 --seed 42', 0,
     'mean = 0.254303657 (stderr 0.00446440431, 2000 samples, seed 42)\n'
     'exact L/(n+1) = 0.25  (a theorem for every n)\n',
     ''),
    ('mc-nn --points 3 --samples 2000 --seed 42 --format json', 0,
     '{"conjectured":0.25,"mean":0.25430365685275913,"samples":2000,"seed":42,'
     '"standard_error":0.004464404305708001}\n',
     ''),
    ('delta-cf', 0,
     'delta = 0.57037600167502303696\n'
     '  0/1\n'
     '  1/1\n'
     '  1/2\n'
     '  4/7\n'
     '  77/135\n'
     '  697/1222\n'
     '  774/1357\n'
     '  2245/3936\n'
     '  9754/17101\n'
     '  119293/209148\n'
     '  248340/435397\n'
     '  367633/644545\n'
     '  1351239/2369032\n'
     '  3070111/5382609\n'
     '  93454569/163847302\n'
     '  96524680/169229911\n',
     ''),
    ('delta-cf --format json', 0,
     '{"convergents":[{"p":0,"q":1},{"p":1,"q":1},{"p":1,"q":2},{"p":4,"q":7},{"p":77,'
     '"q":135},{"p":697,"q":1222},{"p":774,"q":1357},{"p":2245,"q":3936},{"p":9754,'
     '"q":17101},{"p":119293,"q":209148},{"p":248340,"q":435397},{"p":367633,'
     '"q":644545},{"p":1351239,"q":2369032},{"p":3070111,"q":5382609},{"p":93454569,'
     '"q":163847302},{"p":96524680,"q":169229911}],"delta":"0.57037600167502303696",'
     '"digits":20,"truncated":false}\n',
     ''),
    ('delta-cf --digits 12', 0,
     'delta = 0.570376001675\n'
     '  0/1\n'
     '  1/1\n'
     '  1/2\n'
     '  4/7\n'
     '  77/135\n'
     '  697/1222\n'
     '  774/1357\n'
     '  2245/3936\n'
     '  9754/17101\n'
     '  119293/209148\n'
     '  248340/435397\n'
     '  367633/644545\n'
     '  ... truncated: input precision exhausted\n',
     ''),
    ('delta-cf --digits 12 --format json', 0,
     '{"convergents":[{"p":0,"q":1},{"p":1,"q":1},{"p":1,"q":2},{"p":4,"q":7},{"p":77,'
     '"q":135},{"p":697,"q":1222},{"p":774,"q":1357},{"p":2245,"q":3936},{"p":9754,'
     '"q":17101},{"p":119293,"q":209148},{"p":248340,"q":435397},{"p":367633,'
     '"q":644545}],"delta":"0.570376001675","digits":12,"truncated":true}\n',
     ''),
    ('delta-cf --max-q 1000', 0,
     'delta = 0.57037600167502303696\n'
     '  0/1\n'
     '  1/1\n'
     '  1/2\n'
     '  4/7\n'
     '  77/135\n',
     ''),
    ('delta-cf --max-q 1000 --format json', 0,
     '{"convergents":[{"p":0,"q":1},{"p":1,"q":1},{"p":1,"q":2},{"p":4,"q":7},{"p":77,'
     '"q":135}],"delta":"0.57037600167502303696","digits":20,"truncated":false}\n',
     ''),
    ('distmat --c p1 --x {bad}', 1,
     '',
     "error: {bad}: line 2, column 2: not a number: 'oops'\n"),
    ('distmat --c p1 --x {bad} --format json', 1,
     '',
     "error: {bad}: line 2, column 2: not a number: 'oops'\n"),
    ('rob-minus --c p1 --x {one}', 1,
     '',
     'error: leave-one-column-out robustness needs k > 1\n'),
    ('rob-minus --c p1 --x {one} --format json', 1,
     '',
     'error: leave-one-column-out robustness needs k > 1\n'),
    ('verify', 0,
     'PASS ex1-two-row-matrix\n'
     'PASS ex2-single-column\n'
     'PASS ex3-rank-one-scaling\n'
     'PASS ex4-distance-euclidean\n'
     'PASS ex5-distance-euclidean\n'
     'PASS ex6-distance-first-column\n'
     'PASS ex6-distance-second-column\n'
     'PASS ex6-distance-max-norm\n'
     'PASS ex6-neighbor-positions\n'
     'PASS ex6-augmentation-robustness-zero\n'
     'PASS ex7-distance-matrices\n'
     'PASS ex7-column-removal-robustness\n'
     'PASS triangle-column-removal-robustness\n'
     'PASS triangle-all-ties-euclidean\n'
     'PASS ex8-hadamard-square\n'
     'PASS ex8-expectation\n'
     'PASS ex8-column-correlation\n'
     'PASS ex8-matrix-correlations\n'
     'PASS ex9-expectation\n'
     'PASS ex9-correlations\n'
     'PASS concordance-golden-values\n'
     'PASS delta-constant-15-digits\n'
     '22/22 checks passed\n',
     ''),
]


def run_main(monkeypatch, argv) -> int:
    """``main()`` in this process, with ``sys.argv`` set; its exit status.
    The objects it freezes out of the collector are unfrozen."""
    monkeypatch.setattr(sys, "argv", ["distchar", *argv])
    try:
        main()
    except SystemExit as exc:
        return exc.code
    finally:
        gc.unfreeze()
    raise AssertionError("main() returned without exiting")


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "command, status, out, err", GOLDEN, ids=[case[0] for case in GOLDEN]
    )
    def test_exact_output(self, capsys, monkeypatch, tmp_path, command, status, out, err):
        """Both entries, ``run(argv)`` (the array path) and the process's
        ``main()`` (the list path first), print the same bytes."""
        paths = {f"ex{i}": str(fixture_path(f"ex{i}")) for i in range(4, 10)}
        for name, text in GOLDEN_CSV.items():
            paths[name] = str(tmp_path / f"{name}.csv")
            (tmp_path / f"{name}.csv").write_text(text)
        argv = [token.format(**paths) for token in command.split()]
        for entry in (run, functools.partial(run_main, monkeypatch)):
            assert entry(argv) == status
            captured = capsys.readouterr()
            assert captured.out == out
            assert captured.err == err.format(**paths)
