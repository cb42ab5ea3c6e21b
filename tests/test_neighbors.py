import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distchar import (
    DomainError,
    PNorm,
    RationalScore,
    SearchBudget,
    SquaredEuclidean,
    TiePolicy,
    achievable_near_totals,
    build,
    concordance,
    near_total,
    nearest_sets,
    permute_rows,
    rob_minus,
    rob_plus,
)
from distchar import distance, neighbors, robustness
from distchar.distance import build_many
from distchar.neighbors import EXACT_TIES, NeighborSets, near_mask

P1, P2 = PNorm(1), PNorm(2)
SQRT3 = math.sqrt(3)
COEFFICIENTS = [P1, P2, PNorm(math.inf), SquaredEuclidean(), PNorm(3.5)]
# p2 distances 1.0000000006 (rows 1, 2), 1.0 (rows 1, 3) and 1.0000000015
# (rows 2, 3): under the default relative tolerance 1e-9 rows 1 and 2 tie
# their other two rows and row 3 does not, so the total is 5 = n(n-1) - 1
TOLERANCE_TRIANGLE = np.array([[0.0, 0.0], [0.49999999910000015, 0.8660254049968742],
                               [1.0, 0.0]])


@st.composite
def tie_heavy_or_gaussian(draw, min_cols=1, max_cols=4):
    """An n x k matrix, 2 <= n <= 8, from the grid {0..3} or Gaussian."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(min_cols, max_cols))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        return rng.integers(0, 4, (n, k)).astype(float)
    return rng.standard_normal((n, k))


def brute_force_sets(d, positive_only=False):
    """Independent per-row argmin-set oracle (exact comparisons)."""
    d = np.asarray(d)
    n = d.shape[0]
    out = []
    for i in range(n):
        pairs = [(j, d[i, j]) for j in range(n) if j != i]
        if positive_only:
            pairs = [(j, v) for j, v in pairs if v > 0]
        if not pairs:
            out.append(frozenset())
            continue
        m = min(v for _, v in pairs)
        out.append(frozenset(j for j, v in pairs if v == m))
    return out


class TestNearestSets:
    def test_collinear_spacing(self):
        # rows on a line at 1, 3, 4: row 2 is nearest to row 1 but not vice versa
        d = 2.5 * np.array([[0, 2, 3], [2, 0, 1], [3, 1, 0]], dtype=float)
        ns = nearest_sets(d)
        assert [sorted(s) for s in ns.sets] == [[1], [2], [1]]
        assert ns.total == 3

    def test_duplicate_rows_are_neighbors(self):
        ns = nearest_sets(np.zeros((3, 3)))
        assert [sorted(s) for s in ns.sets] == [[1, 2], [0, 2], [0, 1]]
        assert ns.total == 6

    def test_interior_tie(self):
        ns = nearest_sets(np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float))
        assert [sorted(s) for s in ns.sets] == [[1], [0, 2], [1]]
        assert ns.total == 4

    def test_ex6_positions(self):
        ns = nearest_sets(build(P1, [[2.0], [5.0], [1.0]]))
        assert [sorted(s) for s in ns.sets] == [[2], [0], [0]]
        assert ns.total == 3

    def test_single_row(self):
        ns = nearest_sets(np.zeros((1, 1)))
        assert ns.sets == (frozenset(),)
        assert ns.total == 0
        assert near_total(ns) == 0

    def test_algebraic_tie_recognized_across_float_routes(self):
        # all six distances equal 2*sqrt(3), computed via different routes
        triangle = np.array([[2, 0], [-1, SQRT3], [-1, -SQRT3]])
        ns = nearest_sets(build(P2, triangle))
        assert ns.total == 6

    def test_positive_only_mode(self):
        ns = nearest_sets(np.zeros((3, 3)), positive_only=True)
        assert ns.sets == (frozenset(), frozenset(), frozenset())
        assert ns.total == 0
        d = build(P1, [[0.0], [0.0], [1.0]])
        ns = nearest_sets(d, positive_only=True)
        assert [sorted(s) for s in ns.sets] == [[2], [2], [0, 1]]

    def test_matches_brute_force_on_exact_integer_distances(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            x = rng.integers(0, 5, size=(n, 2)).astype(float)
            d = build(P1, x)  # integer-valued, exact in floats
            for mode in (False, True):
                got = nearest_sets(d, EXACT_TIES, positive_only=mode).sets
                assert list(got) == brute_force_sets(d, positive_only=mode)

    def test_matches_brute_force_in_exact_rational_mode(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            x = np.array(
                [[Fraction(int(a), int(b))] for a, b in
                 zip(rng.integers(-9, 10, n), rng.integers(1, 7, n))],
                dtype=object,
            )
            d = build(P1, x)
            got = nearest_sets(d, EXACT_TIES).sets
            assert list(got) == brute_force_sets(d)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        tol=st.sampled_from([(0.0, 0.0), (1e-9, 0.0), (0.0, 0.5), (0.05, 0.1)]),
        positive_only=st.booleans(),
        exact=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_row_tie_rule(self, seed, n, tol, positive_only, exact):
        # d <= m + max(abs_tol, rel_tol * m), m the smallest candidate of row i
        rng = np.random.default_rng(seed)
        ints = rng.integers(0, 4, size=(n, 2))
        if exact:
            x = np.array(ints.tolist(), dtype=object) * [Fraction(1), Fraction(11, 10)]
        else:
            x = ints * [1.0, 1.1]
        d = build(P1, x)
        policy = TiePolicy(*tol)
        want = []
        for i in range(n):
            row = [(j, d[i, j]) for j in range(n) if j != i and (d[i, j] > 0 or not positive_only)]
            if not row:
                want.append(frozenset())
                continue
            m = min(v for _, v in row)
            slack = max(policy.absolute_tolerance, policy.relative_tolerance * m)
            bound = m if slack == 0 else m + slack
            want.append(frozenset(j for j, v in row if v <= bound))
        assert list(nearest_sets(d, policy, positive_only).sets) == want

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            x = rng.integers(0, 4, size=(n, 2)).astype(float)
            perm = rng.permutation(n)
            base = nearest_sets(build(P1, x), EXACT_TIES).sets
            shuffled = nearest_sets(build(P1, permute_rows(x, perm)), EXACT_TIES).sets
            inverse = np.argsort(perm)
            for i in range(n):
                assert shuffled[i] == frozenset(int(inverse[j]) for j in base[perm[i]])

    def test_thin_set_heuristic_random_matrices(self):
        # matrices without special relations give each row a unique neighbor
        rng = np.random.default_rng(24)
        for _ in range(50):
            ns = nearest_sets(build(P2, rng.standard_normal((5, 3))))
            assert ns.total == 5


class TestTiePolicy:
    def test_negative_tolerances_rejected(self):
        with pytest.raises(DomainError):
            TiePolicy(relative_tolerance=-1e-9)
        with pytest.raises(DomainError):
            TiePolicy(absolute_tolerance=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                TiePolicy(relative_tolerance=bad)
            with pytest.raises(DomainError, match="finite"):
                TiePolicy(absolute_tolerance=bad)

    @pytest.mark.parametrize("field, value", [
        ("relative_tolerance", "a"), ("absolute_tolerance", None)])
    def test_tolerances_that_are_not_reals_rejected(self, field, value):
        with pytest.raises(DomainError, match="tie tolerances"):
            TiePolicy(**{field: value})

    def test_absolute_tolerance_merges(self):
        d = np.array([[0, 1.0, 1.05], [1.0, 0, 2], [1.05, 2, 0]])
        strict = nearest_sets(d, TiePolicy(0.0, 0.0))
        loose = nearest_sets(d, TiePolicy(0.0, 0.1))
        assert sorted(strict.sets[0]) == [1]
        assert sorted(loose.sets[0]) == [1, 2]

    def test_huge_relative_tolerance_ties_everything(self):
        # the slack overflows to inf, which ties every candidate without a warning
        d = build(P1, np.array([[0.0], [1.0], [3.0], [7.0]]))
        ns = nearest_sets(d, TiePolicy(relative_tolerance=1e308))
        assert ns.sets == tuple(frozenset(set(range(4)) - {i}) for i in range(4))

    def test_relative_tolerance_scales_with_magnitude(self):
        d = np.array([[0, 1e6, 1e6 * (1 + 1e-10)], [1e6, 0, 1], [1e6 * (1 + 1e-10), 1, 0]])
        d = (d + d.T) / 2
        ns = nearest_sets(d, TiePolicy(relative_tolerance=1e-9))
        assert sorted(ns.sets[0]) == [1, 2]


class TestInvariantEnforcement:
    def test_bounds_checked_on_construction(self):
        with pytest.raises(DomainError):
            NeighborSets(order=2, sets=(frozenset(), frozenset()))  # empty rows
        with pytest.raises(DomainError):
            NeighborSets(order=2, sets=(frozenset({0}), frozenset({1})))  # self loops
        with pytest.raises(DomainError, match="one neighbor set per row"):
            NeighborSets(order=2, sets=(frozenset({1}),))

    def test_near_total_excludes_n_squared_minus_n_minus_one(self):
        # only exact ties exclude a total of 5 for 3 rows: a tolerance decides
        # each row on its own, so these sets are valid and construct
        sets = (frozenset({1, 2}), frozenset({0, 2}), frozenset({0}))
        assert NeighborSets(order=3, sets=sets).total == 5
        d = build(P2, TOLERANCE_TRIANGLE)
        assert nearest_sets(d).sets == sets
        assert nearest_sets(d, EXACT_TIES).total == 3

    @given(x=tie_heavy_or_gaussian(), c=st.sampled_from(COEFFICIENTS),
           positive_only=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_exact_ties_never_total_n_squared_minus_n_minus_one(self, x, c, positive_only):
        # row i missing only j, with rows j and k full, would force
        # d(i, j) = d(j, k) = d(k, i) = d(i, k) = m_i by symmetry
        n = x.shape[0]
        assert nearest_sets(build(c, x), EXACT_TIES, positive_only).total != n * (n - 1) - 1


def assert_same_score(library, definition):
    """``library()`` returns the score ``definition()`` gives, or raises the
    same DomainError."""
    try:
        want = definition()
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            library()
        return
    got = library()
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


class TestScoresFromSets:
    """Every score equals its definition over the frozensets of nearest_sets."""

    @given(xp=tie_heavy_or_gaussian(min_cols=2, max_cols=5), c=st.sampled_from(COEFFICIENTS),
           other=st.sampled_from(COEFFICIENTS), rel_tol=st.sampled_from([0.0, 1e-9, 0.1]),
           positive_only=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_scores_equal_set_definitions(self, xp, c, other, rel_tol, positive_only):
        tie = TiePolicy(relative_tolerance=rel_tol)
        x = xp[:, :-1]
        n, k = xp.shape

        def sets(coefficient, data):
            return nearest_sets(build(coefficient, data), tie, positive_only).sets

        base, aug = sets(c, x), sets(c, xp)
        assert_same_score(
            lambda: rob_plus(c, x, xp, tie, positive_only),
            lambda: RationalScore(sum(len(b & a) for b, a in zip(base, aug)),
                                  sum(len(b) for b in base)))
        changed = sum(b != r for j in range(k)
                      for b, r in zip(aug, sets(c, np.delete(xp, j, axis=1))))
        assert_same_score(lambda: rob_minus(c, xp, tie, positive_only),
                          lambda: RationalScore(n * k - changed, n * k))
        assert_same_score(
            lambda: concordance(other, c, x, tie, positive_only),
            lambda: RationalScore(sum(a == b for a, b in zip(sets(other, x), base)), n))


NEAR_RULES = [(TiePolicy(), False), (EXACT_TIES, False),
              (TiePolicy(relative_tolerance=1.0), False), (TiePolicy(), True)]


@st.composite
def distance_stacks(draw):
    """A (B, n, n) stack from ``build_many`` on tie-heavy or Gaussian data,
    some of whose matrices have duplicate rows or are all zero."""
    size, n, k = draw(st.integers(1, 6)), draw(st.integers(2, 8)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.integers(0, 4, (size, n, k)) if draw(st.booleans()) else rng.standard_normal(
        (size, n, k))
    duplicates = rng.random((size, n)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    xs[duplicates] = xs[:, :1].repeat(n, axis=1)[duplicates]
    exact = draw(st.booleans()) and xs.dtype != float
    xs = np.array(xs.tolist(), dtype=object) if exact else xs.astype(float)
    return next(build_many(
        draw(st.sampled_from([P1, PNorm(math.inf)] if exact else COEFFICIENTS)), xs))


class TestNearMaskOnStacks:
    @given(D=distance_stacks(), rule=st.sampled_from(NEAR_RULES))
    @settings(max_examples=200, deadline=None)
    def test_stack_equals_per_matrix(self, D, rule):
        tie, positive_only = rule
        got = near_mask(D, tie, positive_only)
        assert np.array_equal(got, np.stack([near_mask(d, tie, positive_only) for d in D]))

    @pytest.mark.parametrize("tie", [TiePolicy(), EXACT_TIES])
    def test_all_zero_rows_have_no_positive_candidates(self, tie):
        D = next(build_many(P2, np.array([[[1.0], [1.0], [1.0]], [[0.0], [1.0], [1.0]]])))
        mask = near_mask(D, tie, positive_only=True)
        assert mask.sum(axis=(1, 2)).tolist() == [0, 4]
        assert mask[1, 0].tolist() == [False, True, True]
        assert near_mask(D, tie).sum(axis=(1, 2)).tolist() == [6, 4]


@st.composite
def lattices_or_decimals(draw):
    """An n x k matrix, 2 <= n <= 12, 1 <= k <= 4, from the lattice {0..3} or
    of reals in [-10, 10] with three decimals."""
    n, k = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    entries = (st.integers(0, 3) if draw(st.booleans())
               else st.integers(-10_000, 10_000).map(lambda v: v / 1000))
    rows = st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n)
    return np.array(draw(rows), dtype=float)


def normal_scales(c, x):
    """The range of s for which every nonzero entry, difference and distance
    of ``ldexp(x, s)``, and under L every squared difference, is a normal
    finite float.  A value v = m 2^e (0.5 <= m < 1) times 2^t is one exactly
    when -1021 <= e + t <= 1024; under L distances scale by 2^(2s)."""
    differences = np.abs(x[:, None] - x[None]).ravel()
    degree = 2 if isinstance(c, SquaredEuclidean) else 1
    groups = [(np.abs(x).ravel(), 1), (differences, 1), (build(c, x).ravel(), degree)]
    if degree == 2:
        groups.append((differences * differences, 2))
    lo, hi = -1100, 1100  # an all-zero x scales to itself
    for values, power in groups:
        values = values[values > 0]
        if values.size:
            lo = max(lo, -((1021 + math.frexp(values.min())[1]) // power))
            hi = min(hi, (1024 - math.frexp(values.max())[1]) // power)
    return lo, hi


@given(x=lattices_or_decimals(), c=st.sampled_from(COEFFICIENTS),
       tie=st.sampled_from([TiePolicy(), EXACT_TIES]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_near_mask_is_invariant_under_power_of_two_scaling(x, c, tie, data):
    # x -> 2^s x scales every difference and distance by 2^s (2^2s under L)
    # without rounding while they stay normal
    s = data.draw(st.integers(*normal_scales(c, x)), label="s")
    assert np.array_equal(near_mask(build(c, np.ldexp(x, s)), tie), near_mask(build(c, x), tie))


def reference_matrices(n, budget=SearchBudget(), seed=0):
    """The matrices of the search, one at a time, in the order and from the
    seeded stream that ``achievable_near_totals`` used before it evaluated
    each family in stacks: its random family is uniform doubles of
    ``default_rng(seed).random``."""
    rng = np.random.default_rng(seed)
    if budget.include_probes:
        yield np.zeros((n, 1))
        yield np.arange(n, dtype=float).reshape(n, 1)
        yield np.cumsum([0.0] + [2.0**i for i in range(n - 1)]).reshape(n, 1)
    if budget.grid_extent >= 1 and (budget.grid_extent + 1) ** n <= budget.grid_limit:
        for values in itertools.combinations_with_replacement(
                range(budget.grid_extent + 1), n):
            yield np.array(values, dtype=float).reshape(n, 1)
    for _ in range(budget.random_samples):
        yield rng.random((n, budget.random_cols))


def reference_totals(n, coefficient, budget=SearchBudget(), seed=0):
    """The search as one build per matrix."""
    return {int(near_mask(build(coefficient, x)).sum())
            for x in reference_matrices(n, budget, seed)}


# random_cols=1: the draws share the probes' and grids' shape, so one run holds all
SEARCH_BUDGETS = [SearchBudget(), SearchBudget(random_cols=3), SearchBudget(grid_extent=0),
                  SearchBudget(grid_extent=2), SearchBudget(include_probes=False),
                  SearchBudget(random_samples=0), SearchBudget(random_cols=1)]


class TestSearchInStacks:
    @pytest.mark.parametrize("budget", SEARCH_BUDGETS)
    @pytest.mark.parametrize("c", COEFFICIENTS)
    def test_equals_one_build_per_matrix(self, c, budget):
        for n in range(2, 8):
            for seed in range(3):
                assert achievable_near_totals(n, c, budget, seed) == reference_totals(
                    n, c, budget, seed), (n, seed)

    @pytest.mark.parametrize("c", COEFFICIENTS)
    def test_every_family_across_several_stacks(self, monkeypatch, c):
        # at most two matrices per stack: probes, grids and draws all split
        budget = SearchBudget(random_samples=25)
        for n in range(2, 8):
            monkeypatch.setattr(distance, "_STACK_ENTRIES", 2 * n * n + 1)
            for seed in range(3):
                assert achievable_near_totals(n, c, budget, seed) == reference_totals(
                    n, c, budget, seed), (n, seed)

    # the real stack size, and three 5-row matrices per stack
    @pytest.mark.parametrize("stack_entries", [distance._STACK_ENTRIES, 3 * 25 + 1])
    def test_evaluates_the_reference_matrices_in_order(self, monkeypatch, stack_entries):
        seen = []

        def recording(coefficient, matrices):
            yield from build_many(coefficient, (seen.append(x) or x for x in matrices))

        monkeypatch.setattr(neighbors, "build_many", recording)
        monkeypatch.setattr(distance, "_STACK_ENTRIES", stack_entries)
        for budget in [*SEARCH_BUDGETS, SearchBudget(random_samples=7, random_cols=2)]:
            for seed in range(3):
                seen.clear()
                achievable_near_totals(5, P2, budget, seed)
                want = list(reference_matrices(5, budget, seed))
                assert [(x.shape, x.tobytes()) for x in seen] == [
                    (x.shape, x.tobytes()) for x in want]

    def test_random_draws_across_stacks_at_full_stack_size(self):
        # 300 rows: 11 matrices per stack, so 40 draws span four stacks
        budget = SearchBudget(random_samples=40, grid_extent=0, include_probes=False)
        assert distance._STACK_ENTRIES // 300**2 < 40
        for c in (P2, SquaredEuclidean()):
            assert achievable_near_totals(300, c, budget, 2) == reference_totals(300, c, budget, 2)

    def test_large_n_memory_stays_bounded(self):
        budget = SearchBudget(random_samples=20, grid_extent=0)
        tracemalloc.start()
        try:
            achievable_near_totals(400, P2, budget, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestStackBound:
    """Every stack ``build_many`` yields to the search or to ``rob_minus``
    holds at most ``_STACK_ENTRIES`` distances (B n^2) and row-pass terms
    (B n k), or one matrix: a bound on n^2 alone lets wide matrices fill
    memory.  So does every block of ``rob_minus``' one-column updates."""

    @pytest.fixture
    def shapes(self, monkeypatch):
        """(B, n, k) of every yielded stack, k read from the matrices it holds."""
        recorded, inputs = [], []

        def recording(coefficient, matrices):
            for D in build_many(coefficient, (inputs.append(x.shape) or x for x in matrices)):
                done = sum(b for b, _, _ in recorded)
                (n, k), = set(inputs[done:done + len(D)])
                assert D.shape == (len(D), n, n)
                recorded.append((len(D), n, k))
                yield D

        monkeypatch.setattr(neighbors, "build_many", recording)
        monkeypatch.setattr(robustness, "build_many", recording)
        return recorded

    @staticmethod
    def assert_bounded(shapes, stack_entries):
        for b, n, k in shapes:
            assert b == 1 or b * n * max(n, k) <= stack_entries, (b, n, k)

    @pytest.mark.parametrize("stack_entries", [1, 40, 100, 1000])
    def test_rob_minus(self, monkeypatch, shapes, stack_entries):
        monkeypatch.setattr(distance, "_STACK_ENTRIES", stack_entries)
        x = np.random.default_rng(0).integers(0, 4, (3, 12)).astype(float)
        rob_minus(PNorm(3.5), x)  # general p rebuilds: it has no one-column update
        assert sum(b for b, _, _ in shapes) == 12
        assert {(n, k) for _, n, k in shapes} == {(3, 11)}
        self.assert_bounded(shapes, stack_entries)

    @pytest.mark.parametrize("stack_entries", [1, 40, 100, 1000])
    def test_rob_minus_update_blocks(self, monkeypatch, stack_entries):
        x = np.random.default_rng(0).standard_normal((3, 12))
        expected = rob_minus(P2, x)  # in one block of 12
        monkeypatch.setattr(distance, "_STACK_ENTRIES", stack_entries)
        blocks = []
        updates = robustness._updates

        def recording(*args):
            U = updates(*args)
            blocks.append(U.shape)
            return U

        monkeypatch.setattr(robustness, "_updates", recording)
        assert rob_minus(P2, x) == expected
        assert sum(b for b, _, _ in blocks) == 12
        assert all(b == 1 or b * n * n <= stack_entries for b, n, _ in blocks)

    @pytest.mark.parametrize("stack_entries", [1, 40, 100, 1000])
    def test_search(self, monkeypatch, shapes, stack_entries):
        monkeypatch.setattr(distance, "_STACK_ENTRIES", stack_entries)
        achievable_near_totals(3, P1, SearchBudget(random_samples=30, random_cols=12))
        assert sum(b for b, _, k in shapes if k == 12) == 30
        self.assert_bounded(shapes, stack_entries)


class TestAchievableTotals:
    def test_two_rows_always_mutual(self):
        for c in (P1, P2, PNorm(math.inf)):
            assert achievable_near_totals(2, c, seed=3) == {2}

    def test_three_rows_one_norm_grid(self):
        assert achievable_near_totals(3, P1, seed=4) == {3, 4, 6}

    def test_four_rows_euclidean_includes_extremes(self):
        totals = achievable_near_totals(4, P2, seed=5)
        assert {4, 12} <= totals
        allowed = set(range(4, 13)) - {11}
        assert totals <= allowed

    def test_deterministic_per_seed(self):
        budget = SearchBudget(random_samples=50)
        a = achievable_near_totals(5, P2, budget, seed=11)
        b = achievable_near_totals(5, P2, budget, seed=11)
        assert a == b

    def test_requires_two_rows(self):
        with pytest.raises(DomainError):
            achievable_near_totals(1, P1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_rejects_seeds_that_are_not_nonnegative_integers(self, seed):
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            achievable_near_totals(3, P1, seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("random_samples", -5), ("random_cols", 0), ("grid_extent", -1), ("grid_limit", -1)])
    def test_rejects_bad_budgets(self, field, value):
        with pytest.raises(DomainError, match="search budget"):
            SearchBudget(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("random_samples", 2.5), ("random_cols", 1.5), ("grid_extent", 2.0),
        ("grid_limit", 100.0)])
    def test_rejects_budgets_that_are_not_integers(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            SearchBudget(**{field: value})

    def test_rejects_a_row_count_that_is_not_an_integer(self):
        with pytest.raises(DomainError, match="n must be an integer, got 4.0"):
            achievable_near_totals(4.0, P2)

    @pytest.mark.parametrize("c", [P1, P2, PNorm(math.inf), SquaredEuclidean(), PNorm(3.5)])
    def test_grid_totals_match_the_full_product(self, c):
        # one grid per multiset of values sees every total the ordered grids see
        budget = SearchBudget(random_samples=0, include_probes=False)
        for n in range(2, 7):
            ordered = {nearest_sets(build(c, np.array(v, dtype=float).reshape(n, 1))).total
                       for v in itertools.product(range(budget.grid_extent + 1), repeat=n)}
            assert achievable_near_totals(n, c, budget) == ordered

    @pytest.mark.parametrize("n", [1025, 1026])
    def test_probes_need_at_most_1024_rows(self, monkeypatch, n):
        # rejected before any build: the growing-gaps probe would end at
        # 2^(n-1) - 1, which is not a finite float
        built = []
        monkeypatch.setattr(neighbors, "build_many", lambda *args: built.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="n <= 1024"):
                achievable_near_totals(n, P1, SearchBudget(random_samples=0, grid_extent=0))
        assert built == []

    def test_probes_at_1024_rows(self):
        budget = SearchBudget(random_samples=0, grid_extent=0)
        assert achievable_near_totals(1024, P1, budget) == {1024, 2046, 1024 * 1023}

    def test_probes_under_L_need_at_most_512_rows(self, monkeypatch):
        # rejected before any build: L squares the growing-gaps probe's
        # largest gap, 2^511 at 513 rows, which overflows
        built = []
        monkeypatch.setattr(neighbors, "build_many", lambda *args: built.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="n <= 512"):
                achievable_near_totals(513, SquaredEuclidean(),
                                       SearchBudget(random_samples=0, grid_extent=0))
        assert built == []

    def test_probes_at_512_rows_under_L(self):
        budget = SearchBudget(random_samples=0, grid_extent=0)
        assert achievable_near_totals(512, SquaredEuclidean(), budget) == {512, 1022, 512 * 511}

    def test_no_L_row_bound_without_probes(self):
        budget = SearchBudget(random_samples=1, grid_extent=0, include_probes=False)
        assert achievable_near_totals(513, SquaredEuclidean(), budget) == {513}

    def test_no_row_bound_without_probes(self):
        budget = SearchBudget(random_samples=1, grid_extent=0, include_probes=False)
        assert achievable_near_totals(1100, P1, budget) == {1100}

    def test_accepts_empty_budget(self):
        budget = SearchBudget(random_samples=0, random_cols=1, grid_extent=0, grid_limit=0)
        assert achievable_near_totals(3, P1, budget) == {3, 4, 6}
