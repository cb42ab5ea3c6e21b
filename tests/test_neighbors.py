import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distchar import (
    DomainError,
    PNorm,
    SearchBudget,
    TiePolicy,
    achievable_near_totals,
    build,
    near_total,
    nearest_sets,
    permute_rows,
)
from distchar.neighbors import EXACT_TIES, NeighborSets

P1, P2 = PNorm(1), PNorm(2)
SQRT3 = math.sqrt(3)


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

    def test_absolute_tolerance_merges(self):
        d = np.array([[0, 1.0, 1.05], [1.0, 0, 2], [1.05, 2, 0]])
        strict = nearest_sets(d, TiePolicy(0.0, 0.0))
        loose = nearest_sets(d, TiePolicy(0.0, 0.1))
        assert sorted(strict.sets[0]) == [1]
        assert sorted(loose.sets[0]) == [1, 2]

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

    def test_near_total_excludes_n_squared_minus_n_minus_one(self):
        # totals of 3 rows can be 3, 4 or 6 but never 5
        with pytest.raises(DomainError):
            NeighborSets(
                order=3,
                sets=(frozenset({1, 2}), frozenset({0, 2}), frozenset({0})),
            )


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
