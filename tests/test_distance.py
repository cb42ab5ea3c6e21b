import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from distchar import (
    DomainError,
    PNorm,
    SquaredEuclidean,
    augment_constant_columns,
    build,
    evaluate,
    nearest_sets,
    permute_rows,
    remove_column,
    remove_row,
    validate_distance_matrix,
)
from distchar.neighbors import EXACT_TIES

SQRT3 = math.sqrt(3)
P1, P2, PINF = PNorm(1), PNorm(2), PNorm(math.inf)

EX4 = np.array([[0, 0], [2, 0], [-1, SQRT3], [-1, -SQRT3]], dtype=float)
EX6_PAIR = np.array([[2, 50], [5, 20], [1, 10]], dtype=float)
EX7 = np.array([[1, 0], [0, 0], [0, 1]], dtype=float)

ALL_COEFFS = [P1, PNorm(1.5), P2, PNorm(3), PINF, SquaredEuclidean()]


def random_matrix(rng, n=None, k=None):
    n = n or rng.integers(2, 7)
    k = k or rng.integers(1, 5)
    return rng.standard_normal((int(n), int(k)))


class TestGoldenMatrices:
    def test_ex4_euclidean(self):
        s = 2 * SQRT3
        want = np.array(
            [[0, 2, 2, 2], [2, 0, s, s], [2, s, 0, s], [2, s, s, 0]]
        )
        got = build(P2, EX4)
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        # integer entries are reproduced exactly
        assert got[0, 1] == 2.0

    def test_single_row(self):
        for c in ALL_COEFFS:
            assert np.array_equal(build(c, [[4.0, 7.0]]), [[0.0]])

    def test_ex6_one_norm_exact(self):
        want = [[0, 3, 1], [3, 0, 4], [1, 4, 0]]
        assert np.array_equal(build(P1, EX6_PAIR[:, :1]), want)

    def test_ex6_max_norm_exact(self):
        want = [[0, 30, 40], [30, 0, 10], [40, 10, 0]]
        assert np.array_equal(build(PINF, EX6_PAIR), want)

    def test_ex7_matrices(self):
        q = 2 ** 0.5
        assert np.allclose(
            build(P2, EX7), [[0, 1, q], [1, 0, 1], [q, 1, 0]], rtol=1e-12, atol=0
        )
        assert np.array_equal(build(P1, EX7), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


class TestStructuralInvariants:
    def test_symmetry_zero_diagonal_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_matrix(rng)
            for c in ALL_COEFFS:
                d = build(c, x)
                assert np.array_equal(d, d.T)
                assert np.all(np.diag(d) == 0)
                assert np.all(d >= 0)
                validate_distance_matrix(d)

    def test_triangle_inequality_for_norms(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = random_matrix(rng, n=5)
            for c in (P1, PNorm(1.5), P2, PNorm(3), PINF):
                d = build(c, x)
                n = d.shape[0]
                for i in range(n):
                    for j in range(n):
                        for m in range(n):
                            assert d[i, j] <= (d[i, m] + d[m, j]) * (1 + 1e-12)

    def test_squared_euclidean_can_break_triangle(self):
        # collinear points at 0, 1, 2: L gives 1, 1, 4
        d = build(SquaredEuclidean(), [[0.0], [1.0], [2.0]])
        assert d[0, 2] > d[0, 1] + d[1, 2]

    def test_rank_one_scaling_law(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.standard_normal(4)
            w = rng.standard_normal(3)
            gaps = np.abs(a[:, None] - a[None, :])
            for c in ALL_COEFFS:
                if isinstance(c, SquaredEuclidean):
                    continue  # the scaling law needs homogeneity
                got = build(c, np.outer(a, w))
                assert np.allclose(got, evaluate(c, w) * gaps, rtol=1e-12, atol=1e-300)


class TestAugmentation:
    def test_empty_augmentation_is_identity(self):
        out = augment_constant_columns(EX4, [])
        assert np.array_equal(out, EX4)
        assert out is not EX4

    def test_shapes_and_contents(self):
        out = augment_constant_columns(EX6_PAIR[:, :1], [0.0, 7.5])
        assert out.shape == (3, 3)
        assert np.array_equal(out[:, 0], EX6_PAIR[:, 0])
        assert np.all(out[:, 1] == 0.0)
        assert np.all(out[:, 2] == 7.5)

    def test_distance_matrix_exactly_unchanged(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            x = random_matrix(rng)
            constants = rng.standard_normal(rng.integers(1, 4)).tolist()
            augmented = augment_constant_columns(x, constants)
            for c in ALL_COEFFS:
                assert np.array_equal(build(c, augmented), build(c, x))

    def test_ex8_column_augmented_by_sevens(self):
        x = np.array([[1.0], [2.0], [3.0]])
        augmented = augment_constant_columns(x, [7.0, 7.0])
        assert augmented.shape == (3, 3)
        assert np.array_equal(build(P2, augmented), build(P2, x))

    def test_non_finite_constant_rejected(self):
        with pytest.raises(DomainError):
            augment_constant_columns(EX4, [math.inf])

    def test_non_finite_constant_rejected_for_exact_input(self):
        exact = np.array([[Fraction(1, 2)], [Fraction(3)]], dtype=object)
        with pytest.raises(DomainError, match="finite"):
            augment_constant_columns(exact, [math.nan])
        padded = augment_constant_columns(exact, [Fraction(7)])
        assert padded.dtype == object and padded[1, 1] == 7


class TestRowAndColumnRemoval:
    def test_ex4_minus_origin_is_the_triangle(self):
        triangle = remove_row(EX4, 0)
        assert np.array_equal(triangle, EX4[1:])
        want = [[0, 3 + SQRT3, 3 + SQRT3], [3 + SQRT3, 0, 2 * SQRT3], [3 + SQRT3, 2 * SQRT3, 0]]
        assert np.allclose(build(P1, triangle), want, rtol=1e-12, atol=0)

    def test_two_rows_reduce_to_trivial(self):
        out = remove_row(np.array([[1.0], [5.0]]), 1)
        assert np.array_equal(build(P2, out), [[0.0]])

    def test_removal_commutes_with_build(self):
        rng = np.random.default_rng(11)
        x = random_matrix(rng, n=5, k=3)
        for i in range(5):
            reduced = build(P2, remove_row(x, i))
            sliced = np.delete(np.delete(build(P2, x), i, axis=0), i, axis=1)
            assert np.array_equal(reduced, sliced)

    def test_row_removal_errors(self):
        with pytest.raises(DomainError):
            remove_row([[1.0, 2.0]], 0)
        with pytest.raises(DomainError):
            remove_row(EX4, 4)

    @pytest.mark.parametrize("index", [1.5, np.float64(1.0)])
    def test_non_integer_row_index_rejected(self, index):
        with pytest.raises(DomainError, match="row index must be an integer"):
            remove_row(EX7, index)

    def test_non_integer_column_index_rejected(self):
        with pytest.raises(DomainError, match="column index must be an integer, got 0.5"):
            remove_column(EX7, 0.5)

    def test_bool_index_is_an_integer(self):
        assert np.array_equal(remove_row(EX7, True), EX7[[0, 2]])

    def test_ex7_columns(self):
        x = remove_column(EX7, 1)
        assert np.array_equal(build(P2, x), [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        y = remove_column(EX7, 0)
        assert np.array_equal(build(P2, y), [[0, 0, 1], [0, 0, 1], [1, 1, 0]])

    def test_column_removal_errors(self):
        with pytest.raises(DomainError):
            remove_column([[1.0], [2.0]], 0)
        with pytest.raises(DomainError):
            remove_column(EX7, 2)


class TestPermutation:
    def test_identity(self):
        assert np.array_equal(permute_rows(EX4, [0, 1, 2, 3]), EX4)

    def test_ex6_swap_first_two(self):
        swapped = permute_rows(EX6_PAIR[:, :1], [1, 0, 2])
        want = [[0, 3, 4], [3, 0, 1], [4, 1, 0]]
        assert np.array_equal(build(P1, swapped), want)

    def test_conjugation_identity_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            x = random_matrix(rng)
            n = x.shape[0]
            perm = rng.permutation(n)
            for c in (P1, P2, PINF, PNorm(2.5)):
                d = build(c, x)
                assert np.array_equal(build(c, permute_rows(x, perm)), d[np.ix_(perm, perm)])

    def test_non_bijection_rejected(self):
        with pytest.raises(DomainError):
            permute_rows(EX4, [0, 0, 1, 2])
        with pytest.raises(DomainError):
            permute_rows(EX4, [0, 1, 2])

    def test_non_integer_entries_rejected(self):
        with pytest.raises(DomainError, match="not a permutation of 0..2"):
            permute_rows(EX7, [0.7, 1.2, 2.9])


class TestExactRationalMode:
    def test_one_norm_fractions(self):
        x = np.array(
            [[Fraction(1, 3)], [Fraction(1, 2)], [Fraction(0)]], dtype=object
        )
        d = build(P1, x)
        assert d[0, 1] == Fraction(1, 6)
        assert d[0, 2] == Fraction(1, 3)
        assert d[1, 2] == Fraction(1, 2)

    def test_max_norm_fractions(self):
        x = np.array(
            [[Fraction(0), Fraction(1, 7)], [Fraction(1, 5), Fraction(0)]], dtype=object
        )
        assert build(PINF, x)[0, 1] == Fraction(1, 5)

    def test_exact_ties_seen_by_neighbors(self):
        x = np.array([[Fraction(0)], [Fraction(1, 3)], [Fraction(2, 3)]], dtype=object)
        ns = nearest_sets(build(P1, x), EXACT_TIES)
        assert [sorted(s) for s in ns.sets] == [[1], [0, 2], [1]]

    def test_general_p_rejected_in_exact_mode(self):
        x = np.array([[Fraction(1)], [Fraction(2)]], dtype=object)
        with pytest.raises(DomainError):
            build(PNorm(3), x)


class TestValidation:
    def test_rejects_non_2d(self):
        with pytest.raises(DomainError):
            build(P1, [1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            build(P1, [[1.0], [math.nan]])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            build(P1, np.empty((0, 2)))

    def test_distance_matrix_validation(self):
        with pytest.raises(DomainError):
            validate_distance_matrix([[0, 1], [2, 0]])  # asymmetric
        with pytest.raises(DomainError):
            validate_distance_matrix([[1, 1], [1, 0]])  # nonzero diagonal
        with pytest.raises(DomainError):
            validate_distance_matrix([[0, -1], [-1, 0]])  # negative entry
        with pytest.raises(DomainError, match="square"):
            validate_distance_matrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_distance_matrix_entries_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            validate_distance_matrix([[0.0, bad], [bad, 0.0]])
        with pytest.raises(DomainError, match="finite"):
            nearest_sets(np.array([[0, 1.0, bad], [1.0, 0, 2.0], [bad, 2.0, 0]]))

    def test_exact_distance_matrix_entries_checked(self):
        d = np.array([[0, Fraction(1, 3)], [Fraction(1, 3), 0]], dtype=object)
        assert validate_distance_matrix(d) is d
        with pytest.raises(DomainError, match="finite"):
            validate_distance_matrix(np.array([[0, math.inf], [math.inf, 0]], dtype=object))
        with pytest.raises(DomainError, match="non-numeric"):
            validate_distance_matrix(np.array([[0, "1"], ["1", 0]], dtype=object))


# --- the row kernel at sizes beyond the hand examples ----------------------

KERNEL_COEFFS = [P1, PNorm(1.5), P2, PNorm(3.5), PNorm(7), PINF, SquaredEuclidean()]

# (coefficient, cdist metric, cdist options, extra ulps).  cdist sums left to
# right in column order and the kernel in ascending order, so each side of a
# k-term sum carries at most k - 1 roundings: 2k + 4 ulps covers both plus
# the scaling and root.  scipy's minkowski root is itself a few ulps off (up
# to 10 ulps at k = 1, where the kernel is exact), hence 12 more for p = 3.5.
CDIST_CASES = [
    (P1, "cityblock", {}, 0),
    (P2, "euclidean", {}, 0),
    (PINF, "chebyshev", {}, 0),
    (SquaredEuclidean(), "sqeuclidean", {}, 0),
    (PNorm(3.5), "minkowski", {"p": 3.5}, 12),
]


def ulp_bound(k, extra=0):
    return 2 * k + 4 + extra


def matrices(elements):
    """n x k float matrices, n <= 40 and k <= 20, with small integers mixed
    in so that exact ties occur."""
    shapes = st.tuples(st.integers(1, 40), st.integers(1, 20))
    values = elements | st.integers(-3, 3).map(float)
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=values))


data_matrices = matrices(st.floats(-1e6, 1e6))
# cdist squares or powers raw differences, which underflow for tiny ones
moderate_matrices = matrices(st.floats(-1e6, 1e6).map(lambda v: 0.0 if abs(v) < 1e-6 else v))


class TestRowKernel:
    @given(x=moderate_matrices, case=st.sampled_from(CDIST_CASES))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_cdist(self, x, case):
        c, metric, options, extra = case
        got = build(c, x)
        ref = cdist(x, x, metric, **options)
        scale = np.spacing(np.maximum(got, ref))
        assert np.all(np.abs(got - ref) <= ulp_bound(x.shape[1], extra) * scale)

    @given(x=data_matrices, c=st.sampled_from(KERNEL_COEFFS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_column_permutation_is_bitwise(self, x, c, data):
        perm = data.draw(st.permutations(range(x.shape[1])))
        assert np.array_equal(build(c, x[:, perm]), build(c, x))

    @given(x=data_matrices, c=st.sampled_from(KERNEL_COEFFS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_constant_columns_anywhere_are_bitwise(self, x, c, data):
        k = x.shape[1]
        positions = data.draw(st.lists(st.integers(0, k), min_size=1, max_size=12))
        values = data.draw(
            st.lists(
                st.floats(-1e6, 1e6), min_size=len(positions), max_size=len(positions)
            )
        )
        widened = np.insert(x, positions, values, axis=1)
        assert np.array_equal(build(c, widened), build(c, x))

    @given(x=data_matrices, c=st.sampled_from(KERNEL_COEFFS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_permutation_conjugates_bitwise(self, x, c, data):
        perm = data.draw(st.permutations(range(x.shape[0])))
        d = build(c, x)
        assert np.array_equal(build(c, permute_rows(x, perm)), d[np.ix_(perm, perm)])

    @given(x=data_matrices, c=st.sampled_from(KERNEL_COEFFS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_deletion_commutes_bitwise(self, x, c, data):
        if x.shape[0] < 2:
            return
        i = data.draw(st.integers(0, x.shape[0] - 1))
        sliced = np.delete(np.delete(build(c, x), i, axis=0), i, axis=1)
        assert np.array_equal(build(c, remove_row(x, i)), sliced)

    @given(x=data_matrices, c=st.sampled_from(KERNEL_COEFFS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_evaluate_matches_build_entry_bitwise(self, x, c, data):
        n = x.shape[0]
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        d = build(c, x)
        assert evaluate(c, x[j] - x[i]) == d[i, j]
        assert np.array_equal(d, d.T)
        assert not np.diagonal(d).any()

    @pytest.mark.parametrize("c", KERNEL_COEFFS)
    def test_overflowing_differences_rejected(self, c):
        with pytest.raises(DomainError):
            build(c, [[1e308], [-1e308]])
        with pytest.raises(DomainError):
            build(c, [[1.7e308, -1.7e308], [-1e308, 1e308]])

    def test_overflowing_distances_rejected(self):
        x = 1e160 * np.array([[0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(DomainError):
            build(SquaredEuclidean(), x)
        with pytest.raises(DomainError):
            evaluate(SquaredEuclidean(), x[1])
        with pytest.raises(DomainError):
            build(P1, [[1.7e308, 1.7e308], [0.0, 0.0]])
        # the scaled form keeps large finite distances finite
        assert math.isfinite(build(P2, x)[0, 1])
