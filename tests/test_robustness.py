import argparse
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
    coefficient_name,
    distance,
    nearest_sets,
    rob_minus,
    rob_plus,
    robustness,
    spacing_values,
)
from distchar.errors import exact_updates
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
           per_stack=st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_equals_one_build_per_column(self, case, rule, per_stack):
        c, x = case
        n, k = x.shape
        with pytest.MonkeyPatch.context() as patch:
            # per_stack leave-one-out matrices per stack, so k of them span several
            patch.setattr(distance, "_STACK_ENTRIES", per_stack * n * max(n, k - 1))
            got = outcome(rob_minus, c, x, *rule)
        assert got == outcome(reference_rob_minus, c, x, *rule)


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
    """One-column updates where ``exact_updates`` holds, on the array path
    (``rob_minus``) and on the list path (``_lists``), against one build per
    leave-one-out matrix."""

    @given(case=update_cases(), rule=st.sampled_from(TIE_RULES))
    @settings(max_examples=400, deadline=None)
    def test_equals_one_build_per_column(self, case, rule):
        kind, c, x, x_aug = case
        expected = outcome(reference_rob_minus, c, x, *rule)
        assert outcome(rob_minus, c, x, *rule) == expected
        assert list_outcome(c, x, *rule) == (expected if isinstance(expected, tuple)
                                             else "error")
        if kind.startswith("span"):  # the boundary: 2^53 updates, 2^53 + 2 rebuilds
            assert exact_updates(coefficient_name(c), x.T.tolist()) == (kind == "span-2^53")

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
        # the appended column's difference overflows: pinf's update, a
        # maximum, would hold inf where the rebuild raises
        x, x_aug = np.zeros((2, 1)), np.array([[0.0, 1e308], [0.0, -1e308]])
        with pytest.raises(DomainError, match="overflows"):
            rob_plus(PINF, x, x_aug)
        assert list_outcome(PINF, x, TiePolicy(), False, x_aug=x_aug) == "error"

    @given(case=update_cases(), rule=st.sampled_from(TIE_RULES))
    @settings(max_examples=100, deadline=None)
    def test_list_and_array_paths_take_the_same_decision(self, case, rule):
        # each path asks exact_updates once, on its own representation of x
        _, c, x, _ = case
        answers = {robustness: [], _lists: []}
        for module, run in [(robustness, lambda: outcome(rob_minus, c, x, *rule)),
                            (_lists, lambda: list_outcome(c, x, *rule))]:
            def asked(*args, answers=answers[module]):
                answers.append(exact_updates(*args))
                return answers[-1]

            with mock.patch.object(module, "exact_updates", side_effect=asked):
                run()
        # k = 1 is refused before the question
        assert len(answers[robustness]) == (x.shape[1] > 1)
        assert answers[robustness] == answers[_lists]


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
