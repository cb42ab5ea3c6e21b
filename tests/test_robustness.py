import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distchar import (
    DomainError,
    PNorm,
    RationalScore,
    SquaredEuclidean,
    TiePolicy,
    _lists,
    adversarial_augment,
    as_data_matrix,
    augment_constant_columns,
    build,
    cli,
    coefficient_name,
    distance,
    nearest_sets,
    parse_coefficient,
    rob_minus,
    rob_plus,
    robustness,
    spacing_values,
)
from distchar import io as dcio
from distchar.errors import ladder, update_bound
from distchar.neighbors import EXACT_TIES, near_mask

P1, P2, PINF = PNorm(1), PNorm(2), PNorm(math.inf)
SQRT3 = math.sqrt(3)

EX6_X = np.array([[2.0], [5.0], [1.0]])
EX6_PAIR = np.array([[2.0, 50.0], [5.0, 20.0], [1.0, 10.0]])
EX7_Z = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
TRIANGLE = np.array([[2, 0], [-1, SQRT3], [-1, -SQRT3]])


def brute_rob_plus(coefficient, x, x_aug):
    """Independent recomputation: per-row argmin sets of both matrices."""

    def sets_of(m):
        d = build(coefficient, m)
        n = d.shape[0]
        out = []
        for i in range(n):
            vals = [(j, d[i, j]) for j in range(n) if j != i]
            least = min(v for _, v in vals)
            out.append({j for j, v in vals if v <= least * (1 + 1e-9)})
        return out

    base, aug = sets_of(x), sets_of(x_aug)
    return Fraction(
        sum(len(b & a) for b, a in zip(base, aug)),
        sum(len(b) for b in base),
    )


def reference_rob_minus(coefficient, x, tie=TiePolicy(), positive_only=False):
    """rob_minus as one ``build`` per leave-one-out matrix."""
    X = as_data_matrix(x)
    n, k = X.shape
    if n < 2:
        raise DomainError("robustness needs n > 1 so that neighbors exist")
    if k < 2:
        raise DomainError("leave-one-column-out robustness needs k > 1")
    base = near_mask(build(coefficient, X), tie, positive_only)
    changed = 0
    for j in range(k):
        reduced = near_mask(build(coefficient, np.delete(X, j, axis=1)), tie, positive_only)
        changed += int((reduced != base).any(axis=1).sum())
    return RationalScore(n * k - changed, n * k)


def outcome(score, *args):
    """(numerator, denominator) of a score, or the message of its DomainError."""
    try:
        result = score(*args)
    except DomainError as error:
        return str(error)
    return result.numerator, result.denominator


class TestRationalScore:
    def test_value_and_fraction(self):
        score = RationalScore(2, 6)
        assert score.value == pytest.approx(1 / 3)
        assert score.as_fraction() == Fraction(1, 3)

    def test_denominator_is_not_reduced(self):
        assert RationalScore(2, 6).denominator == 6

    def test_range_enforced(self):
        with pytest.raises(DomainError):
            RationalScore(7, 6)
        with pytest.raises(DomainError):
            RationalScore(-1, 6)
        with pytest.raises(DomainError):
            RationalScore(0, 0)


class TestRobPlus:
    @pytest.mark.parametrize("p", [1.0, 2.0, 7.0, math.inf])
    def test_ex6_augmentation_destroys_all_neighbors(self, p):
        score = rob_plus(PNorm(p), EX6_X, EX6_PAIR)
        assert (score.numerator, score.denominator) == (0, 3)

    def test_ex6_power_inequality_chain(self):
        for p in (1.0, 2.0, 7.0):
            assert 4**p + 10**p < 3**p + 30**p < 1 + 40**p

    def test_constant_column_preserves_everything(self):
        rng = np.random.default_rng(31)
        for c in (P1, P2, PINF, SquaredEuclidean()):
            x = rng.standard_normal((4, 2))
            extended = augment_constant_columns(x, [3.25])
            score = rob_plus(c, x, extended)
            assert score.numerator == score.denominator
            assert score.as_fraction() == 1

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            x = rng.standard_normal((4, 2))
            extended = np.hstack([x, rng.standard_normal((4, 1))])
            got = rob_plus(P1, x, extended).as_fraction()
            assert got == brute_rob_plus(P1, x, extended)

    def test_score_is_a_fraction_over_near_total(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = rng.standard_normal((5, 2))
            extended = np.hstack([x, rng.standard_normal((5, 1))])
            score = rob_plus(P2, x, extended)
            assert score.denominator == nearest_sets(build(P2, x)).total
            assert 0 <= score.numerator <= score.denominator

    def test_preconditions(self):
        with pytest.raises(DomainError):
            rob_plus(P1, [[1.0]], [[1.0, 2.0]])  # n = 1
        with pytest.raises(DomainError):
            rob_plus(P1, EX6_X, EX6_X)  # not one column longer
        wrong = EX6_PAIR.copy()
        wrong[0, 0] = 99.0
        with pytest.raises(DomainError):
            rob_plus(P1, EX6_X, wrong)  # first columns differ


class TestRobMinus:
    def test_ex7_under_positive_only_convention(self):
        # the worked example's numbers: 0 for finite p, 1/3 for the max norm
        assert rob_minus(P1, EX7_Z, positive_only=True).as_fraction() == 0
        assert rob_minus(P2, EX7_Z, positive_only=True).as_fraction() == 0
        assert rob_minus(PINF, EX7_Z, positive_only=True).as_fraction() == Fraction(1, 3)

    def test_ex7_under_default_convention(self):
        # with duplicate rows counting as neighbors, row 1's set {2} survives
        # the first-column removal and row 3's survives the second, so 4 of
        # the 6 (row, column) incidents change for every p
        for p in (P1, P2, PINF):
            assert rob_minus(p, EX7_Z).as_fraction() == Fraction(1, 3)

    def test_triangle_one_and_max_norms(self):
        assert rob_minus(P1, TRIANGLE).as_fraction() == Fraction(2, 3)
        assert rob_minus(PINF, TRIANGLE).as_fraction() == Fraction(2, 3)

    def test_triangle_euclidean_has_an_exact_tie(self):
        # rows 2 and 3 of the Euclidean matrix tie at 2*sqrt(3) (the distance
        # to row 1 equals the distance between them), so removing either
        # column changes rows 2 and 3: 4 changes out of 6, not 2
        d = build(P2, TRIANGLE)
        assert d[1, 0] == pytest.approx(d[1, 2], rel=1e-15)
        assert rob_minus(P2, TRIANGLE).as_fraction() == Fraction(1, 3)

    def test_identical_rows_score_one(self):
        x = np.ones((4, 3))
        for c in (P1, P2, PINF, SquaredEuclidean()):
            assert rob_minus(c, x).as_fraction() == 1

    def test_denominator_is_nk(self):
        score = rob_minus(P1, EX7_Z)
        assert score.denominator == 6

    def test_preconditions(self):
        with pytest.raises(DomainError):
            rob_minus(P1, [[1.0], [2.0]])  # k = 1
        with pytest.raises(DomainError):
            rob_minus(P1, [[1.0, 2.0]])  # n = 1


@st.composite
def lattice_cases(draw):
    """A tie-heavy {0..3} lattice with n <= 8 rows and k <= 8 columns, as
    floats at some scale or as exact ints or Fractions, with a coefficient
    that accepts its dtype."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 4, (n, k))
    kind = draw(st.sampled_from(["float", "int", "Fraction"]))
    if kind == "float":
        # 5e307 overflows p1 and p3.5 sums, 1e154 overflows L, 1e-300 underflows L (both raise)
        x = x * draw(st.sampled_from([1.0, 1e-300, 1e154, 5e307]))
        c = draw(st.sampled_from([P1, P2, PINF, SquaredEuclidean(), PNorm(3.5)]))
    else:
        x = np.array([[int(v) if kind == "int" else Fraction(int(v), 3) for v in row]
                      for row in x], dtype=object)
        c = draw(st.sampled_from([P1, PINF, SquaredEuclidean()]))
    return c, x


class TestRobMinusInStacks:
    @given(case=lattice_cases(),
           rule=st.sampled_from([(TiePolicy(), False), (EXACT_TIES, False),
                                 (TiePolicy(relative_tolerance=1.0), False),
                                 (TiePolicy(), True)]),
           per_stack=st.integers(1, 3), tile_terms=st.sampled_from([1, 7, 2**14]))
    @settings(max_examples=300, deadline=None)
    def test_equals_one_build_per_column(self, case, rule, per_stack, tile_terms):
        c, x = case
        n, k = x.shape
        with pytest.MonkeyPatch.context() as patch:
            # per_stack leave-one-out matrices per stack, so k of them span
            # several, and tiles of tile_terms terms, so pinf's second
            # largest terms span several too
            patch.setattr(distance, "_STACK_ENTRIES", per_stack * n * max(n, k - 1))
            patch.setattr(distance, "_TILE_TERMS", tile_terms)
            got = outcome(rob_minus, c, x, *rule)
        assert got == outcome(reference_rob_minus, c, x, *rule)

    @pytest.mark.parametrize("c", [P1, PINF, SquaredEuclidean()])
    @pytest.mark.parametrize("kind", ["int", "Fraction"])
    @pytest.mark.parametrize("rule", [(TiePolicy(), False), (EXACT_TIES, True)])
    def test_exact_input_takes_the_exact_updates(self, c, kind, rule):
        # ints and Fractions are updated exactly, as exact floats are: one
        # build of X, no stack of rebuilds and no row recomputed
        x = np.random.default_rng(12).integers(0, 4, (12, 6))
        x = np.array([[int(v) if kind == "int" else Fraction(int(v), 3) for v in row]
                      for row in x], dtype=object)
        with mock.patch.object(robustness, "build", wraps=build) as builds, \
                mock.patch.object(robustness, "build_many") as stacks, \
                mock.patch.object(robustness, "row_values") as rows:
            score = rob_minus(c, x, *rule)
        assert (builds.call_count, stacks.call_count, rows.call_count) == (1, 0, 0)
        assert score == reference_rob_minus(c, x, *rule)

    def test_pinf_on_a_gaussian_builds_once(self):
        # pinf's updates are exact on any data, and its second largest terms
        # come from the tiles, not from a build or a recomputed row
        x = np.random.default_rng(40).standard_normal((40, 16))
        with mock.patch.object(robustness, "build", wraps=build) as builds, \
                mock.patch.object(robustness, "build_many") as stacks, \
                mock.patch.object(robustness, "row_values") as rows:
            score = rob_minus(PINF, x)
        assert (builds.call_count, stacks.call_count, rows.call_count) == (1, 0, 0)
        assert score == reference_rob_minus(PINF, x)

    @given(rows=st.integers(2, 6).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, 1e300]) | st.floats(-1e6, 1e6),
                 min_size=k, max_size=k), min_size=1, max_size=8)))
    @settings(max_examples=200, deadline=None)
    def test_second_terms_are_the_list_paths(self, rows):
        # the array path's row function over its tiles selects the bits the
        # list path's _drops reads from each pair's terms (n <= 8: the
        # integer route never applies); where a pair's largest term repeats,
        # its second is its distance.  The few drawn levels repeat a pair's
        # largest term and sign its zeros
        X = as_data_matrix(rows)
        got = distance._tiled(robustness._second, X[None])[0]
        expected = _lists._distances(max, rows)
        for i, columns in enumerate(_lists._drops(rows, expected)):
            for drops in columns.values():
                for l, s in drops.items():
                    expected[i][l] = s
        assert got.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()


def list_outcome(c, x, tie, positive_only, x_aug=None):
    """(numerator, denominator) of the list path's rob-minus of ``x``, or its
    rob-plus against ``x_aug``, under ``c`` (a list-path spelling), or
    "error" where it raises DomainError."""
    rows = {"x": x.tolist(), "xp": None if x_aug is None else x_aug.tolist()}
    args = argparse.Namespace(command="rob-minus" if x_aug is None else "rob-plus",
                              c=coefficient_name(c), x="x", xp="xp", positive_only=positive_only,
                              rel_tol=tie.relative_tolerance, abs_tol=tie.absolute_tolerance)
    try:
        result = _lists.payload(args, rows.get)
    except DomainError:
        return "error"
    return result["num"], result["den"]


def column_with_span(draw, n, span):
    """n integer-valued floats whose max - min is ``span`` <= 2^53: a low
    end, the high end, then entries between them, all exact floats."""
    low = draw(st.integers(-3, 0))
    inner = draw(st.lists(st.integers(0, 3), min_size=n - 2, max_size=n - 2))
    return [float(low), float(low + span), *(float(low + min(span, t)) for t in inner)]


@st.composite
def update_cases(draw):
    """(kind, coefficient, x, x with one more column): an integer-valued
    float matrix, n <= 7 and k <= 6, of one of these kinds, the appended
    column of its kind (for the span kinds, a column of ones):

    * ``lattice``: entries in -3..3, with -0.0 for some zeros;
    * ``repeated-max``: entries 0 or 2, so that most pairs' largest term
      under pinf is repeated;
    * ``span-2^53`` and ``span-2^53+2``: column spans (under L, squared)
      summing to 2^53 or 2^53 + 2, with the drawn coefficient p1 or L;
    * ``1e300``: a lattice with some columns of +-1e300 multiples, constant
      (span 0) or not.
    """
    kind = draw(st.sampled_from(["lattice", "repeated-max", "span-2^53", "span-2^53+2",
                                 "1e300"]))
    n, k = draw(st.integers(2, 7)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    c = draw(st.sampled_from([P1, PINF, SquaredEuclidean()]))
    if kind.startswith("span"):
        c = draw(st.sampled_from([P1, SquaredEuclidean()]))
        total = 2**53 + (2 if kind.endswith("+2") else 0)
        if c == P1:  # k spans: k - 1 small ones, then the rest
            small = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))[1:]
            spans = [*small, total - sum(small)]
        else:  # 2^53 = 2 * (2^26)^2, and 2^53 + 2 adds two spans of 1
            spans = [2**26, 2**26, *([1, 1] if kind.endswith("+2") else [])]
        x = np.array([column_with_span(draw, n, s) for s in spans]).T
        x = x[:, rng.permutation(len(spans))]
        return kind, c, x, np.hstack([x, np.ones((n, 1))])

    levels = [0, 2] if kind == "repeated-max" else [-3, -2, -1, 0, 1, 2, 3]
    x = rng.choice(np.array(levels, dtype=float), (n, k + 1))
    if kind == "lattice":
        x[(x == 0) & (rng.random((n, k + 1)) < 0.5)] = -0.0
    elif kind == "1e300":
        for j in range(k + 1):
            if rng.random() < 0.5:  # constant, or +-1e300 multiples
                x[:, j] = 1e300 if rng.random() < 0.5 else x[:, j] * 1e300
    return kind, c, x[:, :-1], x


TIE_RULES = [(TiePolicy(), False), (EXACT_TIES, False),
             (TiePolicy(relative_tolerance=1.0), False), (TiePolicy(), True)]


class TestRobMinusByUpdates:
    """One-column updates where they are exact (``update_bound`` is None),
    on the array path (``rob_minus``) and on the list path (``_lists``),
    against one build per leave-one-out matrix."""

    @given(case=update_cases(), rule=st.sampled_from(TIE_RULES))
    @settings(max_examples=400, deadline=None)
    def test_equals_one_build_per_column(self, case, rule):
        kind, c, x, x_aug = case
        expected = outcome(reference_rob_minus, c, x, *rule)
        assert outcome(rob_minus, c, x, *rule) == expected
        assert list_outcome(c, x, *rule) == (expected if isinstance(expected, tuple)
                                             else "error")
        if kind.startswith("span"):  # the boundary: 2^53 updates, 2^53 + 2 rebuilds
            assert (update_bound(coefficient_name(c), x.T.tolist()) is None) == (
                kind == "span-2^53")

    @given(case=update_cases(), rule=st.sampled_from(TIE_RULES))
    @settings(max_examples=200, deadline=None)
    def test_list_rob_plus_equals_the_array_path(self, case, rule):
        _, c, x, x_aug = case
        try:
            score = rob_plus(c, x, x_aug, *rule)
            expected = score.numerator, score.denominator
        except DomainError:
            expected = "error"
        assert list_outcome(c, x, *rule, x_aug=x_aug) == expected

    def test_list_rob_plus_update_overflow_is_refused(self):
        # the appended column's difference overflows: the extension's pinf
        # distance would be inf, and both paths raise
        x, x_aug = np.zeros((2, 1)), np.array([[0.0, 1e308], [0.0, -1e308]])
        with pytest.raises(DomainError, match="overflows"):
            rob_plus(PINF, x, x_aug)
        assert list_outcome(PINF, x, TiePolicy(), False, x_aug=x_aug) == "error"

    @given(case=update_cases(), rule=st.sampled_from(TIE_RULES))
    @settings(max_examples=100, deadline=None)
    def test_list_and_array_paths_take_the_same_decision(self, case, rule):
        # each path asks update_bound once, on its own representation of x
        _, c, x, _ = case
        answers = {robustness: [], _lists: []}
        for module, run in [(robustness, lambda: outcome(rob_minus, c, x, *rule)),
                            (_lists, lambda: list_outcome(c, x, *rule))]:
            def asked(*args, answers=answers[module]):
                answers.append(update_bound(*args))
                return answers[-1]

            with mock.patch.object(module, "update_bound", side_effect=asked):
                run()
        # k = 1 is refused before the question
        assert len(answers[robustness]) == (x.shape[1] > 1)
        assert answers[robustness] == answers[_lists]


@pytest.mark.parametrize("name", ["p3.5", "p1.5", "p7", "P2", "l", "p2.0", "pinfinity",
                                  "p1.0000001", "p2.0000000000000004"])
def test_update_bound_refuses_a_name_without_updates(name):
    # only p1, p2, pinf and L have one-column updates; any other name used
    # to get p1's answer
    with pytest.raises(DomainError, match="no one-column update"):
        update_bound(name, [[0.0, 1.0], [2.0, 3.0]])


# p beside p1 and p2, whose names once rounded to theirs, so that rob_minus
# took their one-column updates on a matrix built at the true p
BESIDE_UPDATED = (1.0000001, 1.999999, 2.0000001, math.nextafter(1, 2), math.nextafter(2, 1),
                  math.nextafter(2, 3))


@st.composite
def general_p_cases(draw):
    """(coefficient, x): general p (p1.5, p3.5, p7 or one of
    ``BESIDE_UPDATED``) on an n x k matrix, n <= 7 and k <= 5, of lattice
    entries in -3..3 with some -0.0, standard normal entries, or either
    with copies of rows planted."""
    c = PNorm(draw(st.sampled_from([1.5, 3.5, 7.0, *BESIDE_UPDATED])))
    n, k = draw(st.integers(2, 7)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.integers(-3, 4, (n, k)).astype(float)
        x[(x == 0) & (rng.random((n, k)) < 0.5)] = -0.0
    else:
        x = rng.standard_normal((n, k))
    for i in rng.integers(0, n, draw(st.integers(0, n // 2))):
        x[i] = x[rng.integers(n)]
    return c, x


@given(case=general_p_cases(), rule=st.sampled_from(TIE_RULES))
@settings(max_examples=200, deadline=None)
def test_list_rob_minus_under_general_p_builds_each_leave_one_out_matrix(case, rule):
    # no update is asked for: X and each of its k leave-one-out matrices
    # are built, as on arrays, and the score is one build per column's, in
    # the library, on the list path, and printed by main() and run()
    c, x = case
    expected = outcome(reference_rob_minus, c, x, *rule)
    assert outcome(rob_minus, c, x, *rule) == expected
    with mock.patch.object(_lists, "update_bound") as asked, \
            mock.patch.object(_lists, "_distances", wraps=_lists._distances) as builds:
        assert list_outcome(c, x, *rule) == (expected if isinstance(expected, tuple)
                                             else "error")
    asked.assert_not_called()
    assert builds.call_count == (x.shape[1] + 1 if isinstance(expected, tuple) else 0)
    _, (run, main) = cli_outputs(c, x, *rule)
    assert main == run
    assert run[1:] == (("", 0) if isinstance(expected, tuple) else (f"error: {expected}\n", 1))
    if isinstance(expected, tuple):
        printed = json.loads(run[0])
        assert (printed["num"], printed["den"]) == expected


@pytest.mark.parametrize("p, num", [(1.0000001, 848), (1.999999, 892), (2.0000001, 915)])
def test_rob_minus_beside_p1_and_p2_on_a_lattice(p, num):
    # CI's 120 x 12 {0..3} lattice (random.Random(0)): rounded to p1 or p2,
    # the names gave 718, 1014 and 901 of 1440
    rng = random.Random(0)
    x = np.array([[rng.randrange(4) for _ in range(12)] for _ in range(120)], dtype=float)
    assert reference_rob_minus(PNorm(p), x) == rob_minus(PNorm(p), x) == RationalScore(num, 1440)
    _, (run, main) = cli_outputs(PNorm(p), x, TiePolicy(), False)
    assert main == run == (f'{{"den":1440,"num":{num},"value":{num / 1440!r}}}\n', "", 0)


WALK_RULES = [*TIE_RULES, (TiePolicy(relative_tolerance=0.0, absolute_tolerance=1.0), False),
              (TiePolicy(relative_tolerance=5.0), True), (EXACT_TIES, True)]


@st.composite
def walk_cases(draw):
    """(coefficient, x): an n x k {0..S} lattice, S = 1..6 (on both sides of
    pinf's integer-route span cap of 3 and p1's of n - 5), n on both sides of
    ``_lists._ROUTE_ROWS``' edges, with planted copies of rows, some changed
    in one column, and for some draws only the levels 0 and S, so that most
    pairs repeat their largest term.  Under pinf, whose updates are exact on
    any data, half the draws are not integer-valued, so that ``_drops``
    reads each pair's terms: the levels are scaled by 0.1, 1e-150 or 1e150
    (integer-valued, but with spans past the route's), and for half of those
    the entries are standard normal, the scaled levels only planted in
    changed rows."""
    c = draw(st.sampled_from([P1, PINF, SquaredEuclidean()]))
    n, k, S = draw(st.sampled_from([2, 3, 7, 8, 11, 12, 13])), draw(st.integers(2, 6)), \
        draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = np.array([0, S] if draw(st.booleans()) else range(S + 1), dtype=float)
    gauss = False
    if c == PINF and draw(st.booleans()):
        levels *= draw(st.sampled_from([0.1, 1e-150, 1e150]))
        gauss = draw(st.booleans())
    x = rng.standard_normal((n, k)) if gauss else rng.choice(levels, (n, k))
    for i in rng.integers(0, n, draw(st.integers(0, n // 2))):
        x[i] = x[rng.integers(n)]
        if rng.random() < 0.5:
            x[i, rng.integers(k)] = rng.choice(levels)
    return c, x


class TestRobMinusByWalks:
    """The list path decides each row of an exact leave-one-out matrix by a
    pruned walk over its candidates (``_lists._changes``)."""

    @given(case=walk_cases(), rule=st.sampled_from(WALK_RULES))
    @settings(max_examples=400, deadline=None)
    def test_equals_one_build_per_column(self, case, rule):
        c, x = case
        assert update_bound(coefficient_name(c), x.T.tolist()) is None
        assert list_outcome(c, x, *rule) == outcome(reference_rob_minus, c, x, *rule)


GUARD_RULES = [(TiePolicy(), False), (EXACT_TIES, False),
               (TiePolicy(relative_tolerance=0.0, absolute_tolerance=0.05), False),
               (TiePolicy(), True), (EXACT_TIES, True)]


@st.composite
def guard_cases(draw):
    """(coefficient, x, (tie, positive_only)): a float matrix, 3 <= n <= 8
    and 2 <= k <= 6, under p1, p2 or L, whose one-column updates are not
    exact (``update_bound`` is not None), of one of these kinds:

    * ``gauss``: standard normal entries;
    * ``lattice``: multiples of 0.1 in -0.5..0.5, with many ties;
    * ``duplicates``: normal rows, some of them copies of row 0;
    * ``boundary``: row 1 at distance d from row 0 and row 2 at the tie
      bound of d times 1 + s * 1e-15 (|s| <= 3), both in column 0; the other
      columns are constant on rows 0..2 or differ there by about 1e-8, and
      the other rows lie farther away;
    * ``mixed``: normal columns and columns of about 1e-170, which under L
      underflow where the normal ones are left out;

    scaled by 1, 1e-150 or 1e150, or by 1e-165 or 1e155, where L underflows
    or overflows."""
    kind = draw(st.sampled_from(["gauss", "lattice", "duplicates", "boundary", "mixed"]))
    c = draw(st.sampled_from([P1, P2, SquaredEuclidean()]))
    rule = draw(st.sampled_from(GUARD_RULES))
    n, k = draw(st.integers(3, 8)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-5, 6, (n, k)) / 10 if kind == "lattice" else rng.standard_normal((n, k))
    if kind == "duplicates":
        x[rng.integers(1, n, n // 2)] = x[0]
    elif kind == "mixed":
        x[:, rng.random(k) < 0.5] *= 1e-170
    elif kind == "boundary":
        tie = rule[0]
        d = 1 + rng.random()
        near = d * d if c == SquaredEuclidean() else d
        bound = near + max(tie.absolute_tolerance, tie.relative_tolerance * near)
        at = math.sqrt(bound) if c == SquaredEuclidean() else bound
        x[:3, 0] = 0.0, d, at * (1 + draw(st.integers(-3, 3)) * 1e-15)
        x[:3, 1:] = 0.25 + rng.standard_normal((1, k - 1)) * 1e-8 * (rng.random((3, k - 1)) < 0.5)
        x[3:] += 10
    return c, x * draw(st.sampled_from([1.0, 1e-150, 1e150, 1e-165, 1e155])), rule


def cli_outputs(c, x, tie, positive_only):
    """The list path's payload of rob-minus on ``x`` (written as a CSV), or
    None where it declines, and the (stdout, stderr, status) of ``cli.run``
    and of ``cli.main``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        with open(path, "w") as f:
            f.writelines(",".join(map(repr, row)) + "\n" for row in x.tolist())
        argv = ["rob-minus", "--c", coefficient_name(c), "--x", path, "--format", "json",
                "--rel-tol", repr(tie.relative_tolerance), "--abs-tol",
                repr(tie.absolute_tolerance), *(["--positive-only"] * positive_only)]
        try:
            payload = cli._list_payload(cli.build_parser().parse_args(argv), dcio._load_rows)
        except DomainError:
            payload = None
        outputs = []
        for entry in (cli.run, cli.main):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    mock.patch.object(sys, "argv", ["distchar", *argv]):
                try:
                    status = entry(argv) if entry is cli.run else entry()
                except SystemExit as exc:
                    status = exc.code
                finally:
                    gc.unfreeze()
            outputs.append((out.getvalue(), err.getvalue(), status))
    return payload, outputs


class TestRobMinusGuard:
    """Guarded one-column updates, where ``update_bound`` is not None,
    against one build per leave-one-out matrix: ``rob_minus``, the list
    path, and ``main()`` against ``run()``."""

    @given(case=guard_cases())
    @settings(max_examples=400, deadline=None)
    def test_equals_one_build_per_column(self, case):
        c, x, rule = case
        assume(update_bound(coefficient_name(c), x.T.tolist()) is not None)  # all 0 at 1e-335
        expected = outcome(reference_rob_minus, c, x, *rule)
        assert outcome(rob_minus, c, x, *rule) == expected
        assert list_outcome(c, x, *rule) == (expected if isinstance(expected, tuple)
                                             else "error")

    @given(case=guard_cases())
    @settings(max_examples=100, deadline=None)
    def test_main_prints_what_run_prints(self, case):
        c, x, rule = case
        expected = outcome(reference_rob_minus, c, x, *rule)
        payload, (run, main) = cli_outputs(c, x, *rule)
        assert main == run
        if isinstance(expected, str):  # refused: the list path declines, the array path reports
            assert payload is None
            assert run == ("", f"error: {expected}\n", 1)
        else:
            assert (payload["num"], payload["den"]) == expected
            assert run == (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
                           "", 0)

    @pytest.mark.parametrize("c", ["p1", "p2", "L"])
    def test_a_generic_gaussian_needs_no_recomputation(self, c):
        # the guard decides every row of a 40 x 16 Gaussian's leave-one-out
        # matrices under the default tolerance: the kernel runs for X's
        # matrix only, on both paths
        x = np.random.default_rng(40).standard_normal((40, 16))
        coefficient = parse_coefficient(c)
        with mock.patch.object(robustness, "build", wraps=build) as builds, \
                mock.patch.object(robustness, "row_values") as row_values:
            score = rob_minus(coefficient, x)
        assert (builds.call_count, row_values.call_count) == (1, 0)
        kernel, calls = _lists._KERNELS[c], []

        def counted(terms):
            calls.append(terms)
            return kernel(terms)

        with mock.patch.dict(_lists._KERNELS, {c: counted}), \
                mock.patch.object(_lists, kernel.__name__, counted):
            assert list_outcome(coefficient, x, TiePolicy(), False) == (score.numerator,
                                                                         score.denominator)
        assert len(calls) == 40 * 39 // 2

    def test_recomputed_rows_are_tiled(self):
        # the rows of each duplicate pair are at risk (m = 0) in every
        # leave-one-out matrix: its six rows are recomputed in calls of at
        # most _TILE_TERMS terms, here two rows of 20 x 3 terms each
        x = np.random.default_rng(35).standard_normal((20, 4))
        x[[1, 5, 9]] = x[[0, 4, 8]]
        kernel, calls = robustness.row_values, []

        def counted(coefficient, a):
            calls.append(a.size)
            return kernel(coefficient, a)

        with mock.patch.object(distance, "_TILE_TERMS", 2 * 20 * 3), \
                mock.patch.object(robustness, "row_values", counted):
            score = rob_minus(P2, x)
        assert calls == [2 * 20 * 3] * 3 * 4
        assert score == reference_rob_minus(P2, x)


class TestSpacingValues:
    def test_smallest_case(self):
        u = spacing_values(2)
        assert u[0, 1] == 2  # |2^2 - 2^1|

    def test_four_rows(self):
        u = spacing_values(4)
        upper = {u[i, j] for i in range(4) for j in range(i + 1, 4)}
        assert upper == {2, 6, 14, 4, 12, 8}

    def test_ten_rows_all_distinct(self):
        u = spacing_values(10)
        values = [u[i, j] for i in range(10) for j in range(i + 1, 10)]
        assert len(values) == 45
        assert len(set(values)) == 45

    def test_symmetric_zero_diagonal(self):
        u = spacing_values(5)
        assert (u == u.T).all()
        assert all(u[i, i] == 0 for i in range(5))

    def test_requires_two(self):
        with pytest.raises(DomainError):
            spacing_values(1)

    def test_requires_an_integer(self):
        with pytest.raises(DomainError, match="n must be an integer, got 3.0"):
            spacing_values(3.0)


class TestAdversarialAugment:
    def test_triangle_euclidean(self):
        # all six distances tie, so the neighbor total starts at 6 = n(n-1)
        assert nearest_sets(build(P2, TRIANGLE)).total == 6
        result = adversarial_augment(P2, TRIANGLE)
        assert result.achieved_near_total == 3
        assert rob_plus(P2, TRIANGLE, result.augmented).as_fraction() <= Fraction(3, 6)
        assert np.array_equal(result.augmented[:, :2], TRIANGLE)
        assert result.spacing == (1, 2, 4)

    def test_max_norm_dominant_column_follows_spacing(self):
        result = adversarial_augment(PINF, EX6_X)
        assert result.achieved_near_total == 3
        # once t is large the appended column decides everything: each row's
        # unique neighbor minimizes |2^(j-1) - 2^(i-1)|
        y = np.array(result.spacing, dtype=float)
        gaps = np.abs(y[:, None] - y[None, :])
        np.fill_diagonal(gaps, np.inf)
        expected = [frozenset({int(np.argmin(gaps[i]))}) for i in range(3)]
        d = build(PINF, result.augmented)
        if result.t * gaps[gaps < np.inf].min() > build(PINF, EX6_X).max():
            assert list(nearest_sets(d).sets) == expected

    def test_identical_rows_all_ties_broken(self):
        x = np.zeros((3, 2))
        assert nearest_sets(build(P1, x)).total == 6
        result = adversarial_augment(P1, x)
        assert result.achieved_near_total == 3
        assert rob_plus(P1, x, result.augmented).as_fraction() <= Fraction(3, 6)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_random_matrices(self, p):
        rng = np.random.default_rng(34)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            x = rng.standard_normal((n, 2))
            result = adversarial_augment(PNorm(p), x)
            assert result.achieved_near_total == n
            near = nearest_sets(build(PNorm(p), x)).total
            assert rob_plus(PNorm(p), x, result.augmented).as_fraction() <= Fraction(n, near)

    @pytest.mark.parametrize("p, spacing, t", [
        (2.0, 1e5, 4.0), (3.5, 1e3, 2.0),
        (1.0, 1e70, 2.0**203), (2.0, 1e70, 2.0**218), (math.inf, 1e70, 2.0**232)])
    def test_large_data_scale_doubles_after_halving(self, p, spacing, t):
        # the column must dominate the data here: halving t never succeeds, and
        # at 1e70 doubling goes past 2^199
        x = np.array([[0.0], [spacing], [2 * spacing]])
        result = adversarial_augment(PNorm(p), x)
        assert result.t == t
        assert result.achieved_near_total == 3

    @pytest.mark.parametrize("n", [63, 200])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_many_rows(self, n, p):
        # 2^(n-1) is an exact float far beyond 62 rows
        x = np.random.default_rng(n).integers(0, 4, (n, 3)).astype(float)
        result = adversarial_augment(PNorm(p), x)
        assert result.achieved_near_total == n
        assert nearest_sets(build(PNorm(p), result.augmented)).total == n

    def test_row_bound(self):
        # at 1025 rows the largest column entry, 2^1024, overflows
        with pytest.raises(DomainError, match=r"n <= 1024"):
            adversarial_augment(P2, np.zeros((1025, 1)))
        assert adversarial_augment(P2, np.zeros((1024, 1))).t == 1.0

    @pytest.mark.parametrize("x", [
        [[0.0], [1.0], [3.0]],  # every t on the ladder leaves row 1 tied
        [[0.0], [9e307], [1.7e308]]])  # the distances overflow first
    def test_no_scale_found(self, x):
        # a relative tolerance of 1 ties any two distances within a factor 2
        with pytest.raises(DomainError, match="no scale t found"):
            adversarial_augment(P1, x, TiePolicy(relative_tolerance=1.0))

    def test_exact_input_gives_float_column(self):
        x = np.array([[Fraction(0)], [Fraction(1, 3)], [Fraction(2, 3)]], dtype=object)
        result = adversarial_augment(P1, x)
        assert result.augmented.dtype == np.float64
        assert result.augmented[:, 0].tolist() == [0.0, 1 / 3, 2 / 3]
        assert result.achieved_near_total == 3

    @pytest.mark.parametrize("scale, ts", [(1e6, [1.0, 16.0, 131072.0]), (1, [1.0, 1.0, 2.0])])
    def test_ladder_scales_on_a_lattice(self, scale, ts):
        # pins the scale each p-norm's search settles on, at two data scales
        x = np.random.default_rng(0).integers(0, 4, (60, 3)) * scale
        assert [adversarial_augment(c, x).t for c in (P1, P2, PINF)] == ts

    @pytest.mark.parametrize("n", [2, 3, 60, 1024])
    def test_ladder(self, n):
        # halvings to 2^-199 under finite p, then doublings to 2^(1024 - n),
        # where the largest column entry t * 2^(n-1) is 2^1023
        halvings = [math.ldexp(1.0, -i) for i in range(200)]
        doublings = [math.ldexp(1.0, i) for i in range(1, 1025 - n)]
        assert ladder(n, True) == halvings + doublings
        assert ladder(n, False) == [1.0, *doublings]
        assert ladder(n, False)[-1] * 2.0 ** (n - 1) == 2.0**1023

    @pytest.mark.parametrize("c", [P2, PINF])
    def test_ladder_exhausted_on_gaussian_rows(self, c):
        x = np.random.default_rng(0).standard_normal((100, 3))
        with pytest.raises(DomainError, match="no scale t found"):
            adversarial_augment(c, x, TiePolicy(relative_tolerance=1.0))

    @pytest.mark.parametrize("entry", [10**400, Fraction(1, 10**400)], ids=["huge", "tiny"])
    def test_exact_entry_outside_the_float_range(self, entry):
        # float() of a huge entry overflows; of a tiny nonzero one it gives 0.0
        x = np.array([[0], [entry], [3]], dtype=object)
        with pytest.raises(DomainError, match="data has an exact entry outside the float range"):
            adversarial_augment(P1, x)

    def test_rejects_squared_euclidean(self):
        with pytest.raises(DomainError):
            adversarial_augment(SquaredEuclidean(), TRIANGLE)

    def test_rejects_single_row(self):
        with pytest.raises(DomainError):
            adversarial_augment(P1, [[1.0, 2.0]])


def test_rob_plus_invariant_under_constant_column_padding():
    # padding X with constant columns changes neither neighbor structure, so
    # the score against a correspondingly padded extension is unchanged
    rng = np.random.default_rng(35)
    for _ in range(10):
        x = rng.standard_normal((4, 2))
        new_col = rng.standard_normal((4, 1))
        padded = augment_constant_columns(x, [1.5, -2.0])
        base = rob_plus(P2, x, np.hstack([x, new_col]))
        shifted = rob_plus(P2, padded, np.hstack([padded, new_col]))
        assert base.as_fraction() == shifted.as_fraction()
        assert base.denominator == shifted.denominator
