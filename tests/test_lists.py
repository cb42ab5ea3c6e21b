"""The list path against the array path: ``main()`` runs small ``near``,
``distmat``, ``rob-plus``, ``rob-minus``, ``concord``, ``corr``,
``adversarial`` and ``explore-near`` jobs on lists (``distchar._lists``),
and ``run()`` on arrays; both print the same bytes, the same errors and the
same exit status.  A job the list path does not cover goes to the array
path, which then reports its error itself."""

import contextlib
import gc
import io
import itertools
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distchar import PNorm, _lists, _pcg64, cli, coefficient_name, parse_coefficient, robustness
from distchar import io as dcio
from distchar.errors import DomainError, ladder, update_bound
from distchar.neighbors import EXACT_TIES, TiePolicy, near_mask

COEFFICIENTS = ("p1", "p2", "pinf", "L")
# general p: p-norms other than p1, p2 and pinf, which take the list path's
# libm-power kernel (_lists._power)
GENERAL = ("p1.5", "p3.5", "p7")
TIES = {
    "default": [],
    "exact": ["--rel-tol", "0", "--abs-tol", "0"],
    "relative-1": ["--rel-tol", "1"],
    "absolute": ["--abs-tol", "0.5"],
    "positive-only": ["--positive-only"],
}
# each subcommand's tie settings: distmat and corr have no tie flags,
# concord and adversarial no --positive-only
WITHOUT_POSITIVE_ONLY = [tie for tie in TIES if tie != "positive-only"]
SETTINGS = {"distmat": ["default"], "corr": ["default"], "concord": WITHOUT_POSITIVE_ONLY,
            "adversarial": WITHOUT_POSITIVE_ONLY,
            "near": [*TIES], "rob-plus": [*TIES], "rob-minus": [*TIES]}
# the coefficients each subcommand's --c or --m takes on the list path
FIRST = {command: COEFFICIENTS for command in SETTINGS} | {"adversarial": ("p1", "p2", "pinf")}
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
        cli._list_payload(cli.build_parser().parse_args(argv), dcio._load_rows)
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
    pool of at most n distinct rows (so duplicates, and constant distance
    matrices, are common), a column to append for rob-plus's --xp, and the
    flags other than the files."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    token = TOKENS[draw(st.sampled_from(sorted(TOKENS)))]
    pool = draw(st.lists(st.lists(token, min_size=k, max_size=k), min_size=1, max_size=n))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    column = draw(st.lists(token, min_size=n, max_size=n))
    coefficients = ["--m", c, "--n", draw(st.sampled_from(COEFFICIENTS + GENERAL))] \
        if command in ("concord", "corr") else ["--c", c]
    conv = ["--conv", draw(st.sampled_from(["grid", "upper"]))] if command == "corr" else []
    flags = [*coefficients, *conv, *TIES[draw(st.sampled_from(SETTINGS[command]))],
             "--format", draw(st.sampled_from(["text", "json"]))]
    return rows, column, flags


@pytest.mark.parametrize("command, c", [(command, c) for command in SETTINGS
                                        for c in FIRST[command] + GENERAL])
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
    (["near", "--c", "P3.5"], EX, 0, ""),
    (["near", "--c", "P2"], EX, 0, ""),
    (["near", "--c", "p2.0"], EX, 0, ""),
    (["near", "--c", "pinfinity"], EX, 0, ""),
    (["concord", "--m", "p1", "--n", "P3.5"], EX, 0, ""),
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
    # integer-valued, with a column span above the float range: enough rows
    # for the integer route's p1 and pinf, which leave it to the sorted kernel
    *((["distmat", "--c", c], rows("1e308,0 -1e308,0" + " 0,0" * 10), 1,
       "error: coefficient value overflows the float range\n") for c in ("p1", "pinf")),
    (["corr", "--m", "P3.5", "--n", "p1"], EX, 0, ""),
    (["corr", "--m", "p1", "--n", "p2", "--conv", "upper"], rows("1,2"), 1,
     "error: upper-triangle expectation needs n >= 2\n"),
    (["corr", "--m", "p1", "--n", "p2"], rows("0 1e200 -1e200"), 1,
     "error: distance-matrix moments overflow; rescale the data\n"),
    (["corr", "--m", "p1", "--n", "p2"], rows("0 1e-170 3e-170"), 1,
     "error: distance-matrix moments underflow; rescale the data\n"),
    (["adversarial", "--c", "P3.5"], EX, 0, ""),
    (["adversarial", "--c", "L"], EX, 1,
     "error: the tie-breaking augmentation is defined for p-norms only\n"),
    (["adversarial", "--c", "p2"], rows("1,2"), 1,
     "error: augmentation needs n > 1 so that neighbors exist\n"),
    # ladders past the list path's size: t = 1024 at the 211th rung (16 x 2,
    # 360 pair-terms a rung), and no t at all (20 x 1, 380 a rung)
    (["adversarial", "--c", "p1"], [[f"{a}e12", f"{b}e12"] for a in range(4) for b in range(4)],
     0, ""),
    (["adversarial", "--c", "p1", "--rel-tol", "1"], [[str(i)] for i in range(20)], 1,
     "error: no scale t found: every t tried left a tie or overflowed\n"),
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


# each command's largest n x k job its plan admits, by coefficient (concord
# and corr: --m p1 --n L) and k, on the integer rows of threshold_job; under
# the default tolerance rob-minus's one-column updates are charged as
# updates, exact (p1) or guarded (p2)
EDGES = {
    "near": {"p2": {1: 316, 2: 293, 12: 188, 500: 34}},
    "distmat": {"p2": {1: 316, 2: 293, 12: 188, 500: 34}},
    "rob-plus": {"p1": {1: 215, 2: 200, 12: 131, 500: 24},
                 "pinf": {1: 215, 2: 200, 12: 131, 500: 24},
                 "p2": {1: 215, 2: 200, 12: 131, 500: 24}},
    "rob-minus": {"p1": {2: 234, 12: 121, 500: 20}, "p2": {2: 234, 12: 121, 500: 20}},
    "concord": {"p1": {1: 224, 2: 207, 12: 133, 500: 24}},
    "corr": {"p1": {1: 224, 2: 207, 12: 133, 500: 24}},
    "adversarial": {"p2": {1: 224, 2: 183, 12: 88, 500: 14}},
}


def threshold_job(tmp_path, command, c, n, k) -> list[str]:
    """The argv of an n x k job of integer rows (with a column of ones
    appended for rob-plus's --xp) under the coefficient ``c``."""
    x = [[str((i * (j + 1) + i * i) % 7) for j in range(k)] for i in range(n)]
    flags = {"concord": ["--m", c, "--n", "L"], "corr": ["--m", c, "--n", "L"],
             "rob-plus": ["--c", c, "--xp", write(tmp_path / "xp.csv", [[*r, "1"] for r in x])]}
    return [command, *flags.get(command, ["--c", c]), "--format", "json",
            "--x", write(tmp_path / "x.csv", x)]


@pytest.mark.parametrize("command", SETTINGS)
def test_the_size_threshold_changes_speed_only(tmp_path, command):
    for c, edges in EDGES[command].items():
        for k, n in edges.items():
            for size, expected in [(n, True), (n + 1, False)]:
                argv = threshold_job(tmp_path, command, c, size, k)
                assert covered(argv) is expected, (c, k, size)
                assert both_entries(argv)[1:] == ("", 0)


@pytest.mark.parametrize("command", SETTINGS)
def test_the_one_build_precheck_declines_only_what_the_plan_declines(tmp_path, command):
    # the fewest rows whose one build of X is above the bound: the plan, given
    # them without cli's pre-check, declines before it builds anything
    for c in EDGES[command]:
        for k in (1, 2, 12, 500):
            n = next(n for n in range(2, 1000)
                     if n * (n - 1) // 2 * (k + cli._PAIR_COST) > cli._MAX_TERMS)
            args = cli.build_parser().parse_args(threshold_job(tmp_path, command, c, n, k))
            with mock.patch.object(_lists, "_distances") as distances:
                with pytest.raises(DomainError):
                    _lists.payload(args, dcio._load_rows)
            assert distances.call_count == 0, (c, k)


def test_a_declined_ladder_is_no_longer_than_under_the_flat_cap(tmp_path):
    # the 16 x 2 ladder of DECLINED (t = 1024 at its 211th rung): a rung holds
    # 120 * 3 = 360 pair-terms, and the list path gives up after the 138
    # rungs that 50 000 pair-terms hold, as under a flat 50 000 pair-term cap
    x = [[f"{a}e12", f"{b}e12"] for a in range(4) for b in range(4)]
    argv = ["adversarial", "--c", "p1", "--x", write(tmp_path / "x.csv", x)]
    with mock.patch.object(_lists, "_near_sets", wraps=_lists._near_sets) as near_sets:
        assert not covered(argv)
    assert near_sets.call_count == 50_000 // 360 == 138


def scale_inputs(tmp_path) -> dict[str, tuple[str, str]]:
    """A seeded 120 x 12 {0..3} lattice (heavy ties) and a 40 x 16 Gaussian,
    each with a one-column extension: name -> (x path, xp path)."""
    rng = np.random.default_rng(28)
    lattice = rng.integers(0, 4, (120, 13)).astype(str).tolist()
    gauss = [[repr(v) for v in row] for row in rng.standard_normal((40, 17)).tolist()]
    return {name: (write(tmp_path / f"{name}.csv", [row[:-1] for row in rows]),
                   write(tmp_path / f"{name}_ext.csv", rows))
            for name, rows in (("lattice", lattice), ("gauss", gauss))}


# the list-path subcommands the bound admits on each matrix of scale_inputs,
# each with the coefficients it admits: on the lattice, rob-minus's one-column
# updates under every coefficient, and no adversarial job
ADMITTED = {"lattice": {command: FIRST[command]
                        for command in ("near", "distmat", "rob-plus", "concord", "corr",
                                        "rob-minus")},
            "gauss": FIRST}


@pytest.mark.parametrize("matrix, command, c", [
    (matrix, command, c) for matrix, commands in ADMITTED.items()
    for command, coefficients in commands.items() for c in coefficients])
def test_list_path_at_the_admitted_scale_prints_what_the_array_path_prints(
        tmp_path, matrix, command, c):
    x, xp = scale_inputs(tmp_path)[matrix]
    other = COEFFICIENTS[(COEFFICIENTS.index(c) + 1) % len(COEFFICIENTS)]
    flags = {"concord": ["--m", c, "--n", other],
             "corr": ["--m", c, "--n", other, "--conv", "grid" if matrix == "lattice" else "upper"],
             "rob-plus": ["--c", c, "--xp", xp]}
    argv = [command, *flags.get(command, ["--c", c]), "--format", "json", "--x", x]
    assert covered(argv)
    assert both_entries(argv)[1:] == ("", 0)


@pytest.mark.parametrize("c", ["p1", "pinf", "L"])
def test_list_rob_plus_builds_both_matrices(tmp_path, c):
    # X's matrix and the extension's are each built, as rob_plus builds
    # them, also where the extension is an exact one-column update of X's
    x, xp = scale_inputs(tmp_path)["lattice"]
    assert update_bound(c, zip(*dcio._load_rows(xp))) is None
    argv = ["rob-plus", "--c", c, "--xp", xp, "--format", "json", "--x", x]
    with mock.patch.object(_lists, "_distances", wraps=_lists._distances) as distances, \
            mock.patch.object(_lists, "update_bound", wraps=update_bound) as asked:
        assert covered(argv)
    assert distances.call_count == 2
    asked.assert_not_called()


def test_list_rob_minus_builds_pinf_by_the_integer_route(tmp_path):
    # X's matrix is built through _distances under every coefficient, as
    # rob_minus builds it: under pinf on the 120 x 12 {0..3} lattice by the
    # exact integer route, and each pair's second largest term (_drops) from
    # the same route's codes
    argv = ["rob-minus", "--c", "pinf", "--format", "json",
            "--x", scale_inputs(tmp_path)["lattice"][0]]
    route, taken = _lists._codes, []

    def recorded(kernel, x):
        codes = route(kernel, x)
        taken.append((kernel, codes is not None))
        return codes

    with mock.patch.object(_lists, "_codes", recorded):
        assert covered(argv)
        assert both_entries(argv)[1:] == ("", 0)
    assert taken == [(max, True)] * 4  # the build, then _drops, in covered() and in main()


def test_list_rob_minus_reads_pinf_second_terms_from_each_pair(tmp_path):
    # on the 40 x 16 Gaussian the integer route declines: X's matrix is the
    # one build, and _drops reads each pair's second largest term from its
    # own terms, building no matrix of them
    argv = ["rob-minus", "--c", "pinf", "--format", "json",
            "--x", scale_inputs(tmp_path)["gauss"][0]]
    with mock.patch.object(_lists, "_distances", wraps=_lists._distances) as distances:
        assert covered(argv)
    assert distances.call_args_list == [mock.call(max, mock.ANY)]


@pytest.mark.parametrize("c", ["p1", "pinf", "L"])
def test_exact_list_rob_minus_forms_no_leave_one_out_matrix(tmp_path, c):
    # the updates on the 120 x 12 lattice are exact, so each row is walked:
    # no leave-one-out matrix (_without) and no recomputed row (_row); L's
    # sorted kernel runs for X's own rows only
    argv = ["rob-minus", "--c", c, "--format", "json",
            "--x", scale_inputs(tmp_path)["lattice"][0]]
    with mock.patch.object(_lists, "_without") as without, \
            mock.patch.object(_lists, "_row", wraps=_lists._row) as row:
        assert covered(argv)
    without.assert_not_called()
    assert row.call_count == (120 if c == "L" else 0)
    assert all(len(call.args[1]) == 12 for call in row.call_args_list)


@pytest.mark.parametrize("c, finite", [("p2", True), ("pinf", False)])
def test_both_adversarial_paths_iterate_one_ladder(tmp_path, c, finite):
    argv = ["adversarial", "--c", c, "--format", "json",
            "--x", write(tmp_path / "x.csv", [["0"], ["1"], ["3"]])]
    with mock.patch.object(_lists, "ladder", wraps=ladder) as on_lists, \
            mock.patch.object(robustness, "ladder", wraps=ladder) as on_arrays:
        assert both_entries(argv)[1:] == ("", 0)
    on_lists.assert_called_once_with(3, finite)
    on_arrays.assert_called_once_with(3, finite)


@pytest.mark.parametrize("job", ["rob-minus p2 lattice exact ties", "corr 200x8"])
def test_a_job_its_plan_declines_builds_nothing_on_lists(tmp_path, job):
    # one build of X is within the bound, so the list module is asked, but
    # the plan is not: k rebuilds (under zero slack p2's guarded updates
    # decide few rows, so they are charged as rebuilds), or corr's two
    # builds of a 200 x 8 matrix (2 * 258 700 pair-terms)
    if job == "corr 200x8":
        gauss = np.random.default_rng(30).standard_normal((200, 8)).tolist()
        argv = ["corr", "--m", "p1", "--n", "p2", "--format", "json",
                "--x", write(tmp_path / "x.csv", [[repr(v) for v in row] for row in gauss])]
    else:
        argv = ["rob-minus", "--c", "p2", "--rel-tol", "0", "--format", "json",
                "--x", scale_inputs(tmp_path)["lattice"][0]]
    with mock.patch.object(_lists, "payload", wraps=_lists.payload) as payload, \
            mock.patch.object(_lists, "_distances") as distances:
        assert both_entries(argv)[1:] == ("", 0)
        assert not covered(argv)
    assert payload.call_count == 2
    assert distances.call_count == 0


@pytest.mark.parametrize("spelling", sorted(_lists._KERNELS) + list(GENERAL))
def test_each_list_spelling_parses_to_the_coefficient_its_kernel_computes(spelling):
    assert coefficient_name(parse_coefficient(spelling)) == spelling


def test_every_subcommand_taking_x_and_explore_near_have_a_list_job():
    assert {name for name, command in cli._COMMANDS.items()
            if "--x" in command.options} | {"explore-near"} == set(_lists._JOBS)


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 5, 2**130, 2**200 + 12345])
def test_the_stream_is_numpys_uniform_doubles_bit_for_bit(seed):
    # 2^130 and 2^200 + 12345 have five and seven 32-bit words: SeedSequence
    # mixes the words past its pool of four into it
    want = np.random.default_rng(seed).random(3000)
    got = np.array(list(itertools.islice(_pcg64.doubles(seed), 3000)))
    assert got.tobytes() == want.tobytes()


# the search budgets of test_neighbors.SEARCH_BUDGETS that the CLI spells
# (it has no flag for include_probes=False)
SEARCH_FLAGS = [[], ["--random-cols", "3"], ["--grid-extent", "0"], ["--grid-extent", "2"],
                ["--random-samples", "0"], ["--random-cols", "1"]]


@pytest.mark.parametrize("flags", SEARCH_FLAGS, ids=" ".join)
@pytest.mark.parametrize("c", [*COEFFICIENTS, "p3.5", "p1.0000001"])
def test_list_explore_near_prints_what_the_array_path_prints(c, flags):
    for n, seed, form in itertools.product(range(2, 8), range(3), ("text", "json")):
        argv = ["explore-near", "--rows", str(n), "--c", c, "--seed", str(seed), *flags,
                "--format", form]
        assert covered(argv)
        out, err, status = both_entries(argv)
        assert (err, status) == ("", 0)
        assert out.startswith("observed totals: " if form == "text" else "{")


@pytest.mark.parametrize("argv, err", [
    (["--rows", "3", "--c", "p1", "--seed", "-1"],
     "error: seed must be a nonnegative integer, got -1\n"),
    (["--rows", "3", "--c", "p1", "--random-samples", "-1"],
     "error: search budget needs random_samples >= 0, random_cols >= 1, grid_extent >= 0 "
     "and grid_limit >= 0\n"),
    (["--rows", "3", "--c", "p0"], "error: p-norm requires p >= 1 or p = inf, got 0.0\n"),
    (["--rows", "513", "--c", "L"], "error: the search's probes need n <= 512 rows, got 513\n"),
    (["--rows", "1026", "--c", "p1"],
     "error: the search's probes need n <= 1024 rows, got 1026\n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_a_declined_explore_near_ends_in_the_array_path(argv, err):
    argv = ["explore-near", *argv]
    assert not covered(argv)
    assert captured(cli.run, argv) == ("", err, 1)
    with mock.patch.object(cli, "_run", wraps=cli._run) as array_path:
        assert captured(main, argv) == ("", err, 1)
    array_path.assert_called_once()


def test_explore_near_above_its_plan_draws_nothing_on_lists():
    # CI's smoke case: 200 draws of 3 x 20000 doubles are 12 M draws
    argv = ["explore-near", "--rows", "3", "--c", "p1", "--random-cols", "20000",
            "--grid-extent", "0"]
    with mock.patch.object(_pcg64, "doubles") as doubles:
        assert not covered(argv)
    doubles.assert_not_called()


@given(p=st.floats(1, 1e300) | st.sampled_from([1.5, 2.0, 3.5, 7.0, 2.0**53 + 2]),
       text=st.text("pP0123456789.e+-_ Linfty", max_size=8))
# p whose six significant digits ({:g}) are p1e+06 and p1, not its name
@example(p=999999.5, text="")
@example(p=1.0000001, text="")
@settings(max_examples=300, deadline=None)
def test_cli_gates_on_exactly_the_list_spellings(p, text):
    # the list path takes L and every p-norm as coefficient_name spells it;
    # every other spelling (P3.5, p3.50, p2.0, pinfinity, ...) runs on arrays
    name = coefficient_name(PNorm(p))
    assert cli._list_p(name) == parse_coefficient(name).p
    for spelling in (text, "p" + text, name + text, text + name):
        try:
            printed = coefficient_name(parse_coefficient(spelling)) == spelling
        except DomainError:
            printed = False
        assert (spelling == "L" or cli._list_p(spelling) is not None) == printed, spelling
    assert all(s == "L" or cli._list_p(s) for s in _lists._KERNELS)


# (rows, whether rho is defined on the grid); under upper each matrix here
# is constant, and one row has no upper triangle
CONSTANT = {"one row": (rows("1,2"), False), "one repeated row": (rows("1,2 1,2 1,2"), False),
            "equidistant rows": (rows("1,0,0 0,1,0 0,0,1"), True)}


@pytest.mark.parametrize("conv", ["grid", "upper"])
@pytest.mark.parametrize("case", CONSTANT)
def test_corr_of_a_constant_matrix(tmp_path, conv, case):
    x, defined_on_grid = CONSTANT[case]
    argv = ["corr", "--m", "p1", "--n", "L", "--conv", conv, "--format", "json",
            "--x", write(tmp_path / "x.csv", x)]
    out, _, status = both_entries(argv)
    if conv == "upper" and len(x) == 1:
        assert not covered(argv) and status == 1
    else:
        assert covered(argv) and status == 0
        assert (json.loads(out)["rho"] is not None) == (defined_on_grid and conv == "grid")


def numpy_sum_cases():
    """(label, values): every size 0..300 and 4950, three more draws at the
    sizes where numpy's pairwise sum changes its method, from log-uniform
    magnitudes in 1e-150..1e150 with random signs and from cancelling
    mixtures of huge, unit, tiny and signed-zero values."""
    rng = np.random.default_rng(27)
    mixture = np.array([1e150, -1e150, 1e16, -1e16, 1.0, -1.0, 1e-150, 0.0, -0.0])
    sizes = [*range(301), 4950, *[n for n in (7, 8, 9, 127, 128, 129, 255, 256, 257)
                                  for _ in range(3)]]
    for i, n in enumerate(sizes):
        spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)
        yield f"spread-{n}-{i}", spread
        yield f"mixture-{n}-{i}", rng.choice(mixture, n)
    for n in (1, 7, 8, 129):
        yield f"negative-zeros-{n}", np.full(n, -0.0)


def test_list_sum_is_numpys_sum_bit_for_bit():
    for label, values in numpy_sum_cases():
        expected = float(np.add.reduce(values))
        assert _lists._sum(values.tolist()).hex() == expected.hex(), label
        assert float(values.sum()).hex() == expected.hex(), label


@pytest.mark.parametrize("argv", [["near", "--c", "L"], ["distmat", "--c", "L"],
                                  ["corr", "--m", "p2", "--n", "L"]])
def test_an_underflowing_L_is_refused_on_both_paths(tmp_path, argv):
    # at scale 1e-170 every squared difference rounds to 0, so L would read
    # distinct rows as duplicates (a near total of n(n-1), a rho of null)
    x = 1e-170 * np.random.default_rng(0).standard_normal((5, 2))
    argv = [*argv, "--x", write(tmp_path / "x.csv", [[repr(v) for v in row] for row in x.tolist()])]
    assert not covered(argv)
    assert both_entries(argv)[1:] == ("error: coefficient value underflows the float range\n", 1)


INTEGER_KERNELS = {"p1": _lists._p1, "pinf": max}


def sorted_kernel(kernel, x) -> list[list[float]]:
    """The distance matrix of the rows ``x``, the kernel applied to every
    ordered pair's terms: the integer route's reference."""
    return [[kernel([abs(u - v) for u, v in zip(a, b)]) for b in x] for a in x]


@st.composite
def integer_lattices(draw, c):
    """(rows, spans): n integer-valued rows, n from the route's fewest rows to
    six more, of k <= 5 columns, each column an offset (0, -7, or +-2^52)
    plus entries 0..span, the span reached; some zeros as -0.0.  The spans
    are small, or put one column at the unary bound (p1: n - 5, pinf: 3) or
    one above it."""
    kernel = INTEGER_KERNELS[c]
    n = draw(st.integers(_lists._ROUTE_ROWS[kernel], _lists._ROUTE_ROWS[kernel] + 6))
    k = draw(st.integers(1, 5))
    spans = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["small", "at bound", "above bound"]))
    if kind != "small":
        spans[0] = (n - 5 if c == "p1" else 3) + (kind == "above bound")
    columns = []
    for span in spans:
        offset = draw(st.sampled_from([0, -7, 2**52, -2**52]))
        inner = draw(st.lists(st.integers(0, span), min_size=n - 2, max_size=n - 2))
        column = draw(st.permutations([0, span, *inner]))
        columns.append([float(offset + v) for v in column])
    rows = [list(row) for row in zip(*columns)]
    for row in rows:
        for j, v in enumerate(row):
            if v == 0 and draw(st.booleans()):
                row[j] = -0.0
    return rows, spans


@pytest.mark.parametrize("c", INTEGER_KERNELS)
def test_integer_route_is_the_sorted_kernel(c):
    kernel = INTEGER_KERNELS[c]

    @given(lattice=integer_lattices(c), data=st.data())
    @settings(max_examples=150, deadline=None)
    def check(lattice, data):
        x, spans = lattice
        D, tails = _lists._distances(kernel, x), _lists._integer_tails(kernel, x)
        bound = {"p1": len(x) - 5, "pinf": 3}[c]
        assert (tails is not None) == (max(spans) <= bound)
        assert repr(D) == repr(sorted_kernel(kernel, x))
        # one integer vector added to every row, or the columns permuted,
        # give the same bits, on the route and off it
        shift = data.draw(st.lists(st.integers(-9, 9), min_size=len(spans), max_size=len(spans)))
        perm = data.draw(st.permutations(range(len(spans))))
        for moved in ([[v + t for v, t in zip(row, shift)] for row in x],
                      [[row[j] for j in perm] for row in x]):
            assert repr(_lists._distances(kernel, moved)) == repr(D)

    check()


@pytest.mark.parametrize("c", [*INTEGER_KERNELS, "p2", "L"])
def test_the_lattice_takes_the_integer_route_and_the_gaussian_does_not(tmp_path, c):
    for matrix, taken in [("lattice", c in INTEGER_KERNELS), ("gauss", False)]:
        argv = ["near", "--c", c, "--format", "json", "--x", scale_inputs(tmp_path)[matrix][0]]
        real, results = _lists._integer_tails, []

        def route(*args):
            results.append(real(*args))
            return results[-1]

        with mock.patch.object(_lists, "_integer_tails", side_effect=route):
            assert covered(argv)
        assert len(results) == 1 and (results[0] is not None) == taken, matrix


GUARD_TIES = [(TiePolicy(), False), (EXACT_TIES, False), (TiePolicy(relative_tolerance=1.0), False),
              (TiePolicy(relative_tolerance=0.0, absolute_tolerance=0.05), False),
              (TiePolicy(), True), (EXACT_TIES, True)]


@st.composite
def guarded_stacks(draw):
    """(U, (a, b, lo), tie, positive_only): a (B, n, n) stack of symmetric
    matrices with zero diagonals, B <= 3 and 2 <= n <= 6, whose entries are
    near-ties of 1 (and 0, 0.5, 2), with a pair of duplicate rows or a zero
    row, scaled by 1, 1e-150 or 1e150; and per-row errors a, b and lo
    around the gaps between those entries."""
    B, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150]))
    levels = [0.0, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52, 1 + 1e-9, 1 + 1e-9 + 2**-52, 1.05, 2.0]
    U = np.zeros((B, n, n))
    for s in range(B):
        for i in range(n):
            for j in range(i + 1, n):
                U[s, i, j] = U[s, j, i] = draw(st.sampled_from(levels)) * scale
        kind = draw(st.sampled_from(["plain", "duplicate", "zero row"]))
        i, j = draw(st.permutations(range(n)))[:2]
        if kind == "duplicate":  # row j a copy of row i
            U[s, j], U[s, :, j] = U[s, i], U[s, i]
            U[s, i, j] = U[s, j, i] = U[s, j, j] = 0.0
        elif kind == "zero row":
            U[s, i], U[s, :, i] = 0.0, 0.0
    errors = st.sampled_from([0.0, 2**-53, 1e-16, 1e-9, 0.01, 0.3])
    a = [draw(errors) * scale if draw(st.integers(0, 9)) else math.inf for _ in range(n)]
    b = [draw(errors) * scale * scale for _ in range(n)]
    lo = [draw(st.sampled_from([0.0, 2.0**-480, 0.5 * scale])) for _ in range(n)]
    return U, (np.array(a), np.array(b), np.array(lo)), *draw(st.sampled_from(GUARD_TIES))


@given(stack=guarded_stacks())
@settings(max_examples=500, deadline=None)
def test_both_backends_take_the_same_guarded_decision(stack):
    # near_mask with a bound and _near_sets with errors decide each row
    # alike, and leave the same rows undecided (None on lists)
    U, bound, tie, positive_only = stack
    mask, decided = near_mask(U, tie, positive_only, bound)
    errors = list(zip(*(v.tolist() for v in bound)))
    rule = (tie.relative_tolerance, tie.absolute_tolerance)
    for s, D in enumerate(U.tolist()):
        expected = [np.flatnonzero(row).tolist() if sure else None
                    for row, sure in zip(mask[s], decided[s])]
        assert _lists._near_sets(D, rule, positive_only, errors) == expected


@pytest.mark.parametrize("tie, positive_only", GUARD_TIES)
def test_a_zero_bound_decides_every_row_as_the_plain_decision(tie, positive_only):
    # a = b = 0 and lo below every entry: the guarded mask is near_mask's
    rng = np.random.default_rng(7)
    U = rng.integers(1, 4, (5, 6, 6)).astype(float)
    U = np.triu(U, 1) + np.transpose(np.triu(U, 1), (0, 2, 1))
    zero = np.zeros(6)
    mask, decided = near_mask(U, tie, positive_only, (zero, zero, -1.0))
    assert (mask == near_mask(U, tie, positive_only)).all() and decided.all()
