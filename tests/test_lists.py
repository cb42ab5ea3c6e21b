"""The list path against the array path: ``main()`` runs small ``near``,
``distmat``, ``rob-plus``, ``rob-minus`` and ``concord`` jobs on lists
(``distchar._lists``), and ``run()`` on arrays; both print the same bytes,
the same errors and the same exit status.  A job the list path does not
cover goes to the array path, which then reports its error itself."""

import contextlib
import gc
import io
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distchar import _lists, cli, coefficient_name, parse_coefficient
from distchar import io as dcio
from distchar.errors import DomainError

COEFFICIENTS = ("p1", "p2", "pinf", "L")
TIES = {
    "default": [],
    "exact": ["--rel-tol", "0", "--abs-tol", "0"],
    "relative-1": ["--rel-tol", "1"],
    "positive-only": ["--positive-only"],
}
# each subcommand's tie settings: distmat has no tie flags, concord no --positive-only
SETTINGS = {"distmat": ["default"], "concord": ["default", "exact", "relative-1"],
            "near": [*TIES], "rob-plus": [*TIES], "rob-minus": [*TIES]}
TOKENS = {"lattice": st.integers(0, 3).map(str),
          "one-decimal": st.integers(-30, 30).map(lambda i: str(i / 10))}


def captured(entry, argv) -> tuple[str, str, int]:
    """(stdout, stderr, exit status) of ``entry(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = entry(argv)
    return out.getvalue(), err.getvalue(), status


def main(argv) -> int:
    """``cli.main()`` in this process, with ``sys.argv`` set; its exit status."""
    with mock.patch.object(sys, "argv", ["distchar", *argv]):
        try:
            cli.main()
        except SystemExit as exc:
            return exc.code
        finally:
            gc.unfreeze()
    raise AssertionError("main() returned without exiting")


def covered(argv) -> bool:
    """Whether the list path takes the job of ``argv``."""
    try:
        _lists.payload(cli.build_parser().parse_args(argv), dcio._load_rows)
    except DomainError:
        return False
    return True


def both_entries(argv) -> tuple[str, str, int]:
    """The output of ``main()``, asserted equal to that of ``run()``."""
    expected = captured(cli.run, argv)
    assert captured(main, argv) == expected
    return expected


def write(path, rows) -> str:
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return str(path)


@st.composite
def jobs(draw, command, c):
    """Rows of {0..3} or one-decimal tokens, n = 1..6, k = 1..5, drawn from a
    pool of at most n distinct rows (so duplicates are common), a column to
    append for rob-plus's --xp, and the flags other than the files."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    token = TOKENS[draw(st.sampled_from(sorted(TOKENS)))]
    pool = draw(st.lists(st.lists(token, min_size=k, max_size=k), min_size=1, max_size=n))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    column = draw(st.lists(token, min_size=n, max_size=n))
    coefficients = ["--m", c, "--n", draw(st.sampled_from(COEFFICIENTS))] \
        if command == "concord" else ["--c", c]
    flags = [*coefficients, *TIES[draw(st.sampled_from(SETTINGS[command]))],
             "--format", draw(st.sampled_from(["text", "json"]))]
    return rows, column, flags


@pytest.mark.parametrize("c", COEFFICIENTS)
@pytest.mark.parametrize("command", SETTINGS)
def test_list_path_prints_what_the_array_path_prints(tmp_path, command, c):
    @given(job=jobs(command, c))
    @settings(max_examples=60, deadline=None)
    def check(job):
        rows, column, flags = job
        argv = [command, *flags, "--x", write(tmp_path / "x.csv", rows)]
        if command == "rob-plus":
            xp = [[*row, v] for row, v in zip(rows, column)]
            argv += ["--xp", write(tmp_path / "xp.csv", xp)]
        _, err, status = both_entries(argv)
        # on these small finite inputs the list path takes exactly the jobs
        # the array path completes
        assert covered(argv) == (status == 0), err
        assert (status, err == "") in [(0, True), (1, False)]

    check()


def rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.split()]


EX = rows("0,0 2,1 2,1 -1,3")
DISAGREEING_XP = rows("0,0,1 2,1,0 2,2,0 -1,3,2")
# (argv without --x, the rows of --x, exit status, stderr); {xp} stands for
# an --xp file that disagrees with --x
DECLINED = [
    (["near", "--c", "p3.5"], EX, 0, ""),
    (["near", "--c", "P2"], EX, 0, ""),
    (["near", "--c", "p2.0"], EX, 0, ""),
    (["near", "--c", "pinfinity"], EX, 0, ""),
    (["concord", "--m", "p1", "--n", "p3.5"], EX, 0, ""),
    (["near", "--c", "p2", "--rel-tol", "nan"], EX, 1,
     "error: tie tolerances must be finite and nonnegative\n"),
    (["rob-minus", "--c", "p1", "--abs-tol", "-1"], EX, 1,
     "error: tie tolerances must be finite and nonnegative\n"),
    (["rob-plus", "--c", "p1", "--xp", "{xp}"], EX, 1,
     "error: augmented matrix must agree with x on its first columns\n"),
    (["rob-minus", "--c", "p2"], rows("1 2 4"), 1,
     "error: leave-one-column-out robustness needs k > 1\n"),
    *((["distmat", "--c", c], rows("1e308,0 -1e308,0"), 1,
       "error: coefficient value overflows the float range\n") for c in COEFFICIENTS),
    (["concord", "--m", "p1", "--n", "L"], rows("0,1e200 1,-1e200 2,0"), 1,
     "error: coefficient value overflows the float range\n"),
]


@pytest.mark.parametrize("argv, x, status, err", DECLINED,
                         ids=[" ".join(case[0]) for case in DECLINED])
def test_declined_job_ends_in_the_array_path(tmp_path, argv, x, status, err):
    xp = write(tmp_path / "xp.csv", DISAGREEING_XP)
    argv = [arg.format(xp=xp) for arg in argv] + ["--x", write(tmp_path / "x.csv", x)]
    assert not covered(argv)
    expected = captured(cli.run, argv)
    assert expected[1:] == (err, status)
    with mock.patch.object(cli, "_run", wraps=cli._run) as array_path:
        assert captured(main, argv) == expected
    array_path.assert_called_once()


@pytest.mark.parametrize("command", SETTINGS)
def test_the_size_threshold_changes_speed_only(tmp_path, command):
    # the largest n x 2 job of the command at or below the list path's size,
    # and one row more; pair-terms are n(n-1)/2 times a command's factor
    factor = {"near": 2, "distmat": 2, "rob-plus": 5, "rob-minus": 4, "concord": 4}[command]
    n = max(n for n in range(2, 400) if n * (n - 1) // 2 * factor <= _lists._MAX_TERMS)
    for size, expected in [(n, True), (n + 1, False)]:
        x = [[str(i % 7), str(i * i % 11)] for i in range(size)]
        flags = {"concord": ["--m", "p1", "--n", "L"],
                 "rob-plus": ["--c", "p2", "--xp", write(tmp_path / "xp.csv",
                                                         [[*r, "1"] for r in x])]}
        argv = [command, *flags.get(command, ["--c", "p2"]), "--format", "json",
                "--x", write(tmp_path / "x.csv", x)]
        assert covered(argv) is expected
        assert both_entries(argv)[1:] == ("", 0)


@pytest.mark.parametrize("spelling", sorted(_lists._KERNELS))
def test_each_list_spelling_parses_to_the_coefficient_its_kernel_computes(spelling):
    assert coefficient_name(parse_coefficient(spelling)) == spelling


def test_main_offers_the_list_path_exactly_its_subcommands():
    assert set(cli._LISTS) == set(_lists._JOBS)
