import functools
import json
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distchar import (
    DomainError,
    PNorm,
    SquaredEuclidean,
    build,
    coefficient_name,
    evaluate,
    is_true_norm,
    parse_coefficient,
)
from distchar import _lists
from distchar.cli import run
from distchar.coefficients import row_values
from distchar.distance import build_many

SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
P_VALUES = [1.0, 1.5, 2.0, 3.0, 7.0, math.inf]

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
vectors = st.lists(finite_floats, min_size=1, max_size=8)


def ulps_from(p: float, steps: int) -> float:
    """The float ``steps`` ulps above p (below it where ``steps`` < 0)."""
    for _ in range(abs(steps)):
        p = math.nextafter(p, math.copysign(math.inf, steps))
    return p


class TestConstruction:
    def test_p_below_one_rejected(self):
        with pytest.raises(DomainError):
            PNorm(0.5)

    def test_nan_p_rejected(self):
        with pytest.raises(DomainError):
            PNorm(math.nan)

    def test_p_stored_as_float(self):
        assert isinstance(PNorm(2).p, float)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("p1", PNorm(1)),
            ("P2", PNorm(2)),
            ("pinf", PNorm(math.inf)),
            ("PINF", PNorm(math.inf)),
            ("p3.5", PNorm(3.5)),
            ("L", SquaredEuclidean()),
            ("l", SquaredEuclidean()),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_coefficient(text) == expected

    @pytest.mark.parametrize("text", ["", "q2", "p", "p0.5", "pnan", "2", "pinfinity!",
                                      "p1_0", "p 2"])
    def test_parse_rejects(self, text):
        with pytest.raises(DomainError):
            parse_coefficient(text)

    @pytest.mark.parametrize("text", ["p1", "p2", "p1.5", "p3.5", "p7", "pinf", "L"])
    def test_name_round_trip(self, text):
        assert coefficient_name(parse_coefficient(text)) == text

    @given(p=st.floats(1, 1e300) | st.just(math.inf)
           | st.builds(ulps_from, st.just(1.0), st.integers(0, 4))
           | st.builds(ulps_from, st.just(2.0), st.integers(-4, 4)))
    # p whose six significant digits ({:g}) are p1e+06, p3.14159 and p1
    @example(p=999999.5)
    @example(p=3.14159265)
    @example(p=1.0000001)
    @settings(max_examples=300, deadline=None)
    def test_every_p_norm_name_reads_back_as_its_coefficient(self, p):
        assert parse_coefficient(coefficient_name(PNorm(p))) == PNorm(p)


class TestEvaluate:
    def test_max_norm(self):
        assert evaluate(PNorm(math.inf), [3, -30]) == 30

    def test_zero_vector(self):
        assert evaluate(PNorm(1), [0, 0, 0]) == 0

    def test_euclidean_irrational(self):
        got = evaluate(PNorm(2), [-3, math.sqrt(3)])
        assert got == pytest.approx(2 * math.sqrt(3), rel=1e-12)

    def test_one_norm_integer_exact(self):
        assert evaluate(PNorm(1), [3, -30]) == 33

    def test_squared_euclidean(self):
        assert evaluate(SquaredEuclidean(), [1, -2, 3]) == 14

    def test_empty_vector_rejected(self):
        with pytest.raises(DomainError):
            evaluate(PNorm(2), [])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            evaluate(PNorm(2), [1.0, math.nan])
        with pytest.raises(DomainError):
            evaluate(PNorm(2), [1.0, math.inf])
        for v in ([3 + 4j, 0], ["3", "4"], np.array([3, 4], dtype="datetime64[D]")):
            with pytest.raises(DomainError, match="must be real numbers, got dtype"):
                evaluate(PNorm(2), v)

    def test_matrix_argument_rejected(self):
        with pytest.raises(DomainError):
            evaluate(PNorm(2), [[1.0, 2.0]])

    def test_large_entries_no_overflow(self):
        # the scaled form keeps |w|^p out of the computation
        got = evaluate(PNorm(600), [1e300, -1e300])
        assert math.isfinite(got)
        assert got == pytest.approx(1e300 * 2 ** (1 / 600), rel=1e-12)

    def test_exact_rational_entries(self):
        v = [Fraction(1, 3), Fraction(-1, 6)]
        assert evaluate(PNorm(1), np.array(v, dtype=object)) == Fraction(1, 2)
        assert evaluate(PNorm(math.inf), np.array(v, dtype=object)) == Fraction(1, 3)
        assert evaluate(SquaredEuclidean(), np.array(v, dtype=object)) == Fraction(5, 36)

    def test_exact_mode_needs_p1_or_pinf(self):
        v = np.array([Fraction(1, 3)], dtype=object)
        with pytest.raises(DomainError):
            evaluate(PNorm(2), v)


class TestNormhood:
    def test_every_pnorm_is_a_norm(self):
        for p in P_VALUES:
            assert is_true_norm(PNorm(p))

    def test_squared_euclidean_is_not(self):
        assert not is_true_norm(SquaredEuclidean())

    def test_rejects_what_is_not_a_coefficient(self):
        with pytest.raises(DomainError, match="not a coefficient"):
            is_true_norm("p2")

    def test_evaluate_rejects_what_is_not_a_coefficient(self):
        with pytest.raises(DomainError, match="not a coefficient: None"):
            evaluate(None, [1.0])

    def test_squared_euclidean_breaks_homogeneity(self):
        # L(2v) = 4 L(v), not 2 L(v)
        v = [1.0, 2.0]
        assert evaluate(SquaredEuclidean(), [2 * x for x in v]) == 4 * evaluate(
            SquaredEuclidean(), v
        )


@pytest.mark.parametrize("p", P_VALUES)
class TestNormAxioms:
    @given(v=vectors)
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_zero_vector(self, p, v):
        value = evaluate(PNorm(p), v)
        if any(x != 0 for x in v):
            assert value > 0
        else:
            assert value == 0

    @given(v=vectors, s=st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, p, v, s):
        lhs = evaluate(PNorm(p), [s * x for x in v])
        rhs = abs(s) * evaluate(PNorm(p), v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(
        vw=st.integers(min_value=1, max_value=8).flatmap(
            lambda k: st.tuples(
                st.lists(finite_floats, min_size=k, max_size=k),
                st.lists(finite_floats, min_size=k, max_size=k),
            )
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, p, vw):
        v, w = vw
        lhs = evaluate(PNorm(p), [a + b for a, b in zip(v, w)])
        rhs = evaluate(PNorm(p), v) + evaluate(PNorm(p), w)
        assert lhs <= rhs * (1 + 1e-12) + 1e-300

    @given(v=vectors, positions=st.sets(st.integers(min_value=0, max_value=20)))
    @settings(max_examples=50, deadline=None)
    def test_zero_entries_do_not_matter(self, p, v, positions):
        if all(x == 0 for x in v):
            v = v + [1.0]
        padded = list(v)
        for pos in sorted(positions):
            padded.insert(min(pos, len(padded)), 0.0)
        assert evaluate(PNorm(p), padded) == evaluate(PNorm(p), v)

    def test_unit_singleton(self, p):
        assert evaluate(PNorm(p), [1.0]) == 1.0


@given(v=vectors)
@settings(max_examples=100, deadline=None)
def test_monotone_in_p(v):
    values = [evaluate(PNorm(p), v) for p in P_VALUES]
    for smaller_p, larger_p in zip(values, values[1:]):
        assert larger_p <= smaller_p * (1 + 1e-12) + 1e-300


@given(v=vectors)
@settings(max_examples=100, deadline=None)
def test_squared_euclidean_is_squared_two_norm(v):
    if any(v) and all(t * t == 0 for t in v):
        # every square underflows: L would read 0 for a nonzero vector, so
        # the array and list kernels raise
        for value in (lambda: evaluate(SquaredEuclidean(), v),
                      lambda: _lists._squared([abs(t) for t in v])):
            with pytest.raises(DomainError, match="underflows"):
                value()
        return
    lhs = evaluate(SquaredEuclidean(), v)
    rhs = evaluate(PNorm(2), v) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def cli_distances(tmp_path, capsys, c: str, x) -> list[float]:
    """Entry (1, 2) of ``distmat --c c --format json`` on the rows ``x``, as
    ``run()`` and a ``distchar`` process (``main()``) print it."""
    path = tmp_path / "x.csv"
    path.write_text("\n".join(",".join(map(repr, row)) for row in x))
    argv = ["distmat", "--c", c, "--x", str(path), "--format", "json"]
    assert run(argv) == 0
    process = subprocess.run([sys.executable, "-m", "distchar.cli", *argv], check=True,
                             capture_output=True, text=True, env=SUBPROCESS_ENV)
    return [json.loads(out)["entries"][0][1] for out in (capsys.readouterr().out, process.stdout)]


@pytest.mark.parametrize("k", [1000, 20_000, 100_000])
@pytest.mark.parametrize("c, term", [(PNorm(1), 0.1), (SquaredEuclidean(), 0.1 * 0.1)])
def test_terms_are_summed_one_after_another(tmp_path, capsys, c, term, k):
    # np.add.reduce sums pairwise and would give another value; evaluate is
    # the one-row case of the row kernel, build's 2 x k matrix the same row,
    # and a stack of three such matrices has it in every one; the list
    # kernel adds the same way, and both CLI entries print it, on the list
    # path (k <= 20000) and on the array path
    v = np.full(k, 0.1)
    sequential = functools.reduce(operator.add, [term] * k)
    assert sequential != np.sum(np.full(k, term))
    assert evaluate(c, v) == sequential
    d = build(c, np.vstack([np.zeros(k), v]))
    assert d[0, 1] == d[1, 0] == sequential
    stack = next(build_many(c, [np.vstack([np.zeros(k), v])] * 3))
    assert stack.shape[0] == 3
    assert (stack[:, 0, 1] == sequential).all() and (stack[:, 1, 0] == sequential).all()
    assert _lists._KERNELS[coefficient_name(c)](v.tolist()) == sequential
    assert cli_distances(tmp_path, capsys, coefficient_name(c), [[0.0] * k, [0.1] * k]) == \
        [sequential] * 2


def test_terms_are_not_summed_compensated(tmp_path, capsys):
    # math.fsum, and sum() of floats from Python 3.12, round the exact sum
    # once and give 0.6
    v = [0.1, 0.2, 0.3]
    assert math.fsum(v) == 0.6
    assert evaluate(PNorm(1), v) == _lists._KERNELS["p1"](v) == 0.6000000000000001
    assert cli_distances(tmp_path, capsys, "p1", [[0.0] * 3, v]) == [0.6000000000000001] * 2


@pytest.mark.parametrize("v, raises", [([1e-170, 0.0], True), ([1e-170, -3e-170], True),
                                       ([1e-160], False), ([5e-324, 1.0], False)],
                         ids=["one-tiny", "two-tiny", "subnormal-square", "tiny-and-unit"])
def test_squared_euclidean_refuses_an_underflow_to_zero(v, raises):
    # a nonzero vector whose squares all round to 0 would get L = 0; a
    # subnormal square, or a tiny term beside a unit one, is no such case
    values = (lambda: evaluate(SquaredEuclidean(), v), lambda: _lists._squared(np.abs(v).tolist()),
              lambda: build(SquaredEuclidean(), [[0.0] * len(v), v])[0, 1])
    for value in values:
        if raises:
            with pytest.raises(DomainError, match="coefficient value underflows the float range"):
                value()
        else:
            assert value() == math.fsum(t * t for t in v) > 0


def test_a_thousand_tenths_sum_sequentially():
    v = np.full(1000, 0.1)
    assert (evaluate(PNorm(1), v), np.sum(v)) == (99.9999999999986, 100.00000000000001)


def test_builds_do_not_depend_on_the_simd_level(tmp_path):
    # README, evaluate and the list path's byte equality rest on p1, p2,
    # pinf, L and general p (p3.5, p7: libm's pow through np.float_power)
    # giving the same bits whichever dispatch targets numpy uses: a child
    # with every enabled target disabled must build the same bytes.
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not enabled:
        pytest.skip("numpy dispatches to no target above its baseline on this host")
    names = ["p1", "p2", "pinf", "L", "p3.5", "p7"]
    x = np.random.default_rng(3).standard_normal((200, 16))
    np.save(tmp_path / "x.npy", x)
    probe = ("import sys; import numpy as np; from distchar import build, parse_coefficient\n"
             "x = np.load(sys.argv[1])\n"
             "for c in sys.argv[2:]:\n"
             "    sys.stdout.buffer.write(build(parse_coefficient(c), x).tobytes())")
    env = {**SUBPROCESS_ENV, "NPY_DISABLE_CPU_FEATURES": " ".join(enabled)}
    child = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "x.npy"), *names],
                           check=True, capture_output=True, env=env)
    assert child.stderr == b""
    assert child.stdout == b"".join(build(parse_coefficient(c), x).tobytes() for c in names)


# data entries for the general-p kernel: zeros of both signs, repeated
# levels, and magnitudes whose quotients t/m underflow to subnormals or to 0
LEVELS = [0.0, -0.0, 1.0, -1.0, 0.1, 3.0, 1e-10, 1e-20, 1e-300, -1e-300, 1e300, -1e300, 5e-324]


@given(p=st.sampled_from([1.01, 1.5, 3.0, 3.5, 7.0, 100.0]) | st.floats(1, 300).filter(
           lambda p: p not in (1.0, 2.0)),
       rows=st.integers(1, 8).flatmap(lambda k: st.lists(
           st.lists(st.sampled_from(LEVELS) | st.floats(-1e6, 1e6), min_size=k, max_size=k),
           min_size=2, max_size=6)))
@settings(max_examples=400, deadline=None)
def test_general_p_list_kernel_is_row_values_bit_for_bit(p, rows):
    # _lists._power on each pair's terms |u - v| against row_values' float_power
    # route, one row at a time (R = 1) and all pairs in one array
    kernel = _lists._power(p)
    terms = [[abs(u - v) for u, v in zip(a, b)] for a in rows for b in rows]
    listed = [kernel(t).hex() for t in terms]
    assert listed == [row_values(PNorm(p), np.array([t])).item().hex() for t in terms]
    assert listed == [v.hex() for v in row_values(PNorm(p), np.array(terms)).tolist()]


def test_pinf_reduction_is_the_sorts_last_term():
    # pinf on float tiles selects each row's largest term by np.maximum,
    # bitwise the sorted row's last term, on ties, zeros and 1e+-300
    rng = np.random.default_rng(38)
    levels = np.array([0.0, 1.0, 2.0, 1e-300, 1e300, 5e-324, 0.5])
    for shape in [(1, 1), (1, 16), (7, 1), (1024, 16), (300, 3)]:
        a = np.abs(rng.choice(levels, shape) * rng.choice([1.0, -1.0], shape))
        assert row_values(PNorm(math.inf), a).tobytes() == np.sort(a, axis=1)[:, -1].tobytes()
    # ints and Fractions keep the stable sort's pick of two equal objects
    for pair in ([Fraction(1), 1], [1, Fraction(1)]):
        assert type(row_values(PNorm(math.inf), np.array([pair], dtype=object))[0]) is type(pair[1])
    with pytest.raises(DomainError, match="overflows"):
        row_values(PNorm(math.inf), np.array([[1.0, math.inf]]))
