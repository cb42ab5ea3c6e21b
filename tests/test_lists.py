"""The list path against the array path: ``main()`` runs small ``near``,
``distmat``, ``rob-plus``, ``rob-minus``, ``concord``, ``corr`` and
``adversarial`` jobs on lists (``distchar._lists``), and ``run()`` on
arrays; both print the same bytes, the same errors and the same exit
status.  A job the list path does not cover goes to the array path, which
then reports its error itself."""

import contextlib
import gc
import io
import json
import sys
from unittest import mock

import numpy as np
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
    coefficients = ["--m", c, "--n", draw(st.sampled_from(COEFFICIENTS))] \
        if command in ("concord", "corr") else ["--c", c]
    conv = ["--conv", draw(st.sampled_from(["grid", "upper"]))] if command == "corr" else []
    flags = [*coefficients, *conv, *TIES[draw(st.sampled_from(SETTINGS[command]))],
             "--format", draw(st.sampled_from(["text", "json"]))]
    return rows, column, flags


@pytest.mark.parametrize("command, c", [(command, c) for command in SETTINGS
                                        for c in FIRST[command]])
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
    # integer-valued, with a column span above the float range: enough rows
    # for the integer route's p1 and pinf, which leave it to the sorted kernel
    *((["distmat", "--c", c], rows("1e308,0 -1e308,0" + " 0,0" * 10), 1,
       "error: coefficient value overflows the float range\n") for c in ("p1", "pinf")),
    (["corr", "--m", "p3.5", "--n", "p1"], EX, 0, ""),
    (["corr", "--m", "p1", "--n", "p2", "--conv", "upper"], rows("1,2"), 1,
     "error: upper-triangle expectation needs n >= 2\n"),
    (["corr", "--m", "p1", "--n", "p2"], rows("0 1e200 -1e200"), 1,
     "error: distance-matrix moments overflow; rescale the data\n"),
    (["corr", "--m", "p1", "--n", "p2"], rows("0 1e-170 3e-170"), 1,
     "error: distance-matrix moments underflow; rescale the data\n"),
    (["adversarial", "--c", "p3.5"], EX, 0, ""),
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
# and corr: --m p1 --n L) and k, on the integer rows of threshold_job; where
# one-column updates are exact (rob-minus under p1, rob-plus under p1 and
# pinf) they are charged as updates, and p2 rebuilds
EDGES = {
    "near": {"p2": {1: 316, 2: 293, 12: 188, 500: 34}},
    "distmat": {"p2": {1: 316, 2: 293, 12: 188, 500: 34}},
    "rob-plus": {"p1": {1: 274, 2: 258, 12: 178, 500: 34},
                 "pinf": {1: 274, 2: 258, 12: 178, 500: 34},
                 "p2": {1: 215, 2: 200, 12: 131, 500: 24}},
    "rob-minus": {"p1": {2: 234, 12: 121, 500: 20}, "p2": {2: 178, 12: 54, 500: 2}},
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
            with mock.patch.object(_lists, "_distances") as distances, \
                    mock.patch.object(_lists, "_top_two") as top_two:
                with pytest.raises(DomainError):
                    _lists.payload(args, dcio._load_rows)
            assert distances.call_count == top_two.call_count == 0, (c, k)


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
# updates (p1, pinf, L) but not its p2 rebuilds, and no adversarial job
ADMITTED = {"lattice": {command: FIRST[command]
                        for command in ("near", "distmat", "rob-plus", "concord", "corr")}
            | {"rob-minus": ("p1", "pinf", "L")},
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


@pytest.mark.parametrize("job", ["rob-minus p2 lattice", "corr 200x8"])
def test_a_job_its_plan_declines_builds_nothing_on_lists(tmp_path, job):
    # one build of X is within the bound, so the list module is asked, but
    # the plan is not: k rebuilds (p2 has no exact one-column update), or
    # corr's two builds of a 200 x 8 matrix (2 * 258 700 pair-terms)
    if job == "corr 200x8":
        gauss = np.random.default_rng(30).standard_normal((200, 8)).tolist()
        argv = ["corr", "--m", "p1", "--n", "p2", "--format", "json",
                "--x", write(tmp_path / "x.csv", [[repr(v) for v in row] for row in gauss])]
    else:
        argv = ["rob-minus", "--c", "p2", "--format", "json",
                "--x", scale_inputs(tmp_path)["lattice"][0]]
    with mock.patch.object(_lists, "payload", wraps=_lists.payload) as payload, \
            mock.patch.object(_lists, "_distances") as distances, \
            mock.patch.object(_lists, "_top_two") as top_two:
        assert both_entries(argv)[1:] == ("", 0)
        assert not covered(argv)
    assert payload.call_count == 2
    assert distances.call_count == top_two.call_count == 0


@pytest.mark.parametrize("spelling", sorted(_lists._KERNELS))
def test_each_list_spelling_parses_to_the_coefficient_its_kernel_computes(spelling):
    assert coefficient_name(parse_coefficient(spelling)) == spelling


def test_every_subcommand_taking_x_has_a_list_job():
    assert {name for name, command in cli._COMMANDS.items()
            if "--x" in command.options} == set(_lists._JOBS)


def test_cli_gates_on_exactly_the_list_spellings():
    assert cli._LIST_SPELLINGS == set(_lists._KERNELS)


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
