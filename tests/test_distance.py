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
    concordance,
    correlation,
    evaluate,
    expectation,
    hadamard,
    matrix_correlation,
    nearest_sets,
    permute_rows,
    remove_column,
    remove_row,
    rob_minus,
    rob_plus,
    validate_distance_matrix,
)
from distchar import _lists, distance
from distchar.coefficients import row_values
from distchar.distance import build_many
from distchar.io import distance_matrix_csv, distance_matrix_json
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

    @pytest.mark.parametrize("constants", [5, "ab"])
    def test_constants_that_are_not_reals_rejected(self, constants):
        with pytest.raises(DomainError, match="constants must be an iterable of reals"):
            augment_constant_columns([[1.0]], constants)

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

    def test_non_iterable_rejected(self):
        with pytest.raises(DomainError, match="not a permutation of 0..2: 5"):
            permute_rows(EX7, 5)


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


class TestExactInput:
    """An object array is exact only when every entry is an int or a Fraction;
    one with a float entry is the float64 array it converts to."""

    @pytest.mark.parametrize("c", [P1, P2, PINF, SquaredEuclidean(), PNorm(3.5)])
    def test_object_floats_give_the_float64_results_bitwise(self, c):
        rng = np.random.default_rng(24)
        for x in (rng.standard_normal((6, 3)), rng.integers(0, 8, (7, 2)) / 2):
            # a mix of floats and ints, as json or hand-built lists give
            mixed = np.array([int(v) if v.is_integer() else v for v in x.ravel().tolist()],
                             dtype=object).reshape(x.shape)
            assert float in {type(v) for v in mixed.flat}
            aug = np.hstack([x, x[:, :1] * 2])
            mixed_aug = np.hstack([mixed, mixed[:, :1] * 2])
            for obj, want in ((x.astype(object), x), (mixed, x)):
                d = build(c, want)
                assert_bitwise_equal(build(c, obj), d)
                assert_bitwise_equal(validate_distance_matrix(d.astype(object)), d)
                assert evaluate(c, obj[1] - obj[0]) == d[0, 1]
                assert nearest_sets(d.astype(object)) == nearest_sets(d)
                assert rob_minus(c, obj) == rob_minus(c, want)
                assert rob_plus(c, obj, mixed_aug) == rob_plus(c, want, aug)
                assert concordance(c, P1, obj) == concordance(c, P1, want)
                assert correlation(c, P1, obj) == correlation(c, P1, want)

    def test_object_floats_overflow_as_floats_do(self):
        overflow = "coefficient value overflows the float range"
        with pytest.raises(DomainError, match=overflow):
            build(SquaredEuclidean(), np.array([[0.0], [1e200]], dtype=object))
        with pytest.raises(DomainError, match=overflow):
            evaluate(SquaredEuclidean(), np.array([1e200], dtype=object))
        with pytest.raises(DomainError, match=overflow):
            rob_minus(P1, np.array([[0, 0], [1e308, 1e308], [1, 1]], dtype=object))

    @pytest.mark.parametrize("entry", [10**400, Fraction(1, 10**400)], ids=["huge", "tiny"])
    def test_exact_entry_beside_a_float_must_fit_a_float(self, entry):
        with pytest.raises(DomainError, match="data has an exact entry outside the float range"):
            build(P1, np.array([[0.5], [entry]], dtype=object))

    @pytest.mark.parametrize("c", [P1, PINF, SquaredEuclidean()])
    def test_float_constants_keep_exact_input_exact(self, c):
        x = np.array([[0, 1], [Fraction(1, 3), 2], [5, Fraction(-7, 2)]], dtype=object)
        padded = augment_constant_columns(x, [0.5, 3])
        assert padded.dtype == object
        assert padded[0, 2] == Fraction(1, 2) and padded[2, 3] == 3
        assert (build(c, padded) == build(c, x)).all()


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

    def test_rejects_a_coefficient_name(self):
        with pytest.raises(DomainError, match="not a coefficient: 'p2'"):
            build("p2", EX7)

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
        # complex, string and datetime arrays are not cast to float
        for d in ([[0, 1j], [1j, 0]], [["0", "1"], ["1", "0"]],
                  np.array([[0, 1], [1, 0]], dtype="datetime64[s]")):
            for check in (validate_distance_matrix, nearest_sets, lambda x: build(P1, x),
                          distance_matrix_json, distance_matrix_csv, expectation,
                          lambda d: hadamard(d, d), lambda d: matrix_correlation(d, d)):
                with pytest.raises(DomainError, match="must be real numbers, got dtype"):
                    check(d)


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


def built(c, x):
    """``build(c, x)``, or None where an L value underflows to 0 (the drawn
    floats include subnormals): then the list kernel raises too."""
    try:
        return build(c, x)
    except DomainError as exc:
        assert (c, str(exc)) == (SquaredEuclidean(), "coefficient value underflows the float range")
        with pytest.raises(DomainError, match="underflows"):
            _lists._distances(_lists._squared, x.tolist())
        return None


def same_bits(a, b) -> bool:
    """Both matrices equal, or both builds refused (None)."""
    return a is b is None or (a is not None and b is not None and np.array_equal(a, b))


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
        assert same_bits(built(c, x[:, perm]), built(c, x))

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
        assert same_bits(built(c, widened), built(c, x))

    @given(x=data_matrices, c=st.sampled_from(KERNEL_COEFFS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_permutation_conjugates_bitwise(self, x, c, data):
        perm = data.draw(st.permutations(range(x.shape[0])))
        d = built(c, x)
        assert same_bits(built(c, permute_rows(x, perm)), None if d is None else d[np.ix_(perm, perm)])

    @given(x=data_matrices, c=st.sampled_from(KERNEL_COEFFS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_deletion_commutes_bitwise(self, x, c, data):
        if x.shape[0] < 2:
            return
        i = data.draw(st.integers(0, x.shape[0] - 1))
        d = built(c, x)
        if d is None:  # the pair that underflows may be gone with row i
            return
        sliced = np.delete(np.delete(d, i, axis=0), i, axis=1)
        assert np.array_equal(build(c, remove_row(x, i)), sliced)

    @given(x=data_matrices, c=st.sampled_from(KERNEL_COEFFS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_evaluate_matches_build_entry_bitwise(self, x, c, data):
        n = x.shape[0]
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        d = built(c, x)
        if d is None:  # the drawn pair itself may not underflow
            return
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


# --- the stacked kernel: build is build_many on one matrix -------------------

STACK_COEFFS = [P1, P2, PINF, SquaredEuclidean(), PNorm(3.5)]
EXACT_COEFFS = [P1, PINF, SquaredEuclidean()]


def as_exact(values, kind):
    """The integer array ``values`` as an object array of ints or Fractions."""
    if kind == "int":
        return np.array(values.tolist(), dtype=object).reshape(values.shape)
    fractions = [Fraction(int(v), 3) for v in values.flat]
    return np.array(fractions, dtype=object).reshape(values.shape)


@st.composite
def stacks(draw, kinds=("float",)):
    """A (B, n, k) stack of up to 8 small matrices from the grid {-3..3} or
    Gaussian, with duplicate rows and zero columns mixed in."""
    size, n, k = draw(st.integers(1, 8)), draw(st.integers(1, 10)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind == "float" and draw(st.booleans()):
        xs = rng.standard_normal((size, n, k))
    else:
        xs = rng.integers(-3, 4, (size, n, k))
    duplicates = rng.random((size, n)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    xs[duplicates] = xs[:, :1].repeat(n, axis=1)[duplicates]
    xs[:, :, rng.random(k) < 0.3] = 0
    return xs.astype(float) if kind == "float" else as_exact(xs, kind)


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    if got.dtype == object:
        assert [(type(v), v) for v in got.flat] == [(type(v), v) for v in want.flat]
    else:
        assert got.tobytes() == want.tobytes()


def entrywise(c, x):
    """Reference distance matrix: one ``evaluate`` call per entry."""
    n = len(x)
    return np.array([[evaluate(c, x[j] - x[i]) for j in range(n)] for i in range(n)],
                    dtype=x.dtype)


# the stacks drawn above fit in one default tile; 1 and 7 cross tile boundaries
TILE_TERMS = [1, 7, distance._TILE_TERMS]


def build_stacked(c, xs):
    """``build_many`` on the matrices of a (B, n, k) array, its stacks joined."""
    stacks = list(build_many(c, xs))
    assert all(D.flags.c_contiguous for D in stacks)
    return np.concatenate(stacks)


def build_tiled(c, xs, tile_terms):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance, "_TILE_TERMS", tile_terms)
        return build_stacked(c, xs)


def record_row_passes(monkeypatch):
    """The shape of every row block ``build_many`` hands to ``row_values``."""
    shapes = []

    def recording(coefficient, a):
        shapes.append(a.shape)
        return row_values(coefficient, a)

    monkeypatch.setattr(distance, "row_values", recording)
    return shapes


class TestStackedKernel:
    @given(xs=stacks(), c=st.sampled_from(STACK_COEFFS))
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_stacked_builds_bitwise(self, xs, c):
        got = build_stacked(c, xs)
        assert_bitwise_equal(got, np.stack([build(c, x) for x in xs]))
        assert_bitwise_equal(got, np.stack([entrywise(c, x) for x in xs]))

    @given(xs=stacks(kinds=("int", "fraction")), c=st.sampled_from(EXACT_COEFFS))
    @settings(max_examples=60, deadline=None)
    def test_exact_stack_equals_stacked_builds(self, xs, c):
        got = build_stacked(c, xs)
        assert_bitwise_equal(got, np.stack([build(c, x) for x in xs]))
        assert_bitwise_equal(got, np.stack([entrywise(c, x) for x in xs]))

    @pytest.mark.parametrize("c", STACK_COEFFS)
    def test_stack_larger_than_a_search_stack(self, c):
        # one more 100-row matrix than one stack holds
        size = distance._STACK_ENTRIES // 100**2 + 1
        xs = np.random.default_rng(13).integers(0, 3, (size, 100, 2)).astype(float)
        assert [len(D) for D in build_many(c, xs)] == [size - 1, 1]
        assert_bitwise_equal(build_stacked(c, xs), np.stack([build(c, x) for x in xs]))

    @pytest.mark.parametrize("c", STACK_COEFFS)
    def test_mixed_stream_is_stacked_by_runs_of_one_shape(self, c):
        rng = np.random.default_rng(8)
        xs = [rng.integers(0, 3, (6, k)).astype(float) for k in (1, 1, 2, 1)]
        stacks = list(build_many(c, xs))
        assert [D.shape for D in stacks] == [(2, 6, 6), (1, 6, 6), (1, 6, 6)]
        for D, want in zip(stacks, [xs[:2], xs[2:3], xs[3:]]):
            assert D.flags.c_contiguous
            assert_bitwise_equal(D, np.stack([build(c, x) for x in want]))

    @pytest.mark.parametrize("shape, stack_entries, sizes", [
        ((4, 3), 2 * 4 * 4 + 1, [2, 2, 2, 1]), ((3, 10), 3 * 3 * 10, [3, 3, 1]),
        ((3, 10), 1, [1] * 7)])
    def test_a_run_splits_within_the_stack_bound(self, monkeypatch, shape, stack_entries,
                                                  sizes):
        monkeypatch.setattr(distance, "_STACK_ENTRIES", stack_entries)
        xs = np.random.default_rng(9).standard_normal((7, *shape))
        stacks = list(build_many(P2, xs))
        assert [len(D) for D in stacks] == sizes
        assert_bitwise_equal(np.concatenate(stacks), np.stack([build(P2, x) for x in xs]))

    def test_empty_stream_yields_nothing(self):
        assert list(build_many(P2, [])) == []
        assert list(build_many(P2, iter(()))) == []

    @pytest.mark.parametrize("tile_terms", TILE_TERMS)
    @given(case=st.tuples(stacks(), st.sampled_from(STACK_COEFFS))
           | st.tuples(stacks(kinds=("int", "fraction")), st.sampled_from(EXACT_COEFFS)))
    @settings(max_examples=90, deadline=None)
    def test_tiles_of_any_size_are_bitwise(self, tile_terms, case):
        xs, c = case
        got = build_tiled(c, xs, tile_terms)
        assert_bitwise_equal(got, np.stack([build(c, x) for x in xs]))
        assert_bitwise_equal(got, np.stack([entrywise(c, x) for x in xs]))

    @pytest.mark.parametrize("c", STACK_COEFFS)
    @pytest.mark.parametrize("tile_terms", TILE_TERMS)
    def test_overflow_in_the_last_tile_raises(self, monkeypatch, c, tile_terms):
        monkeypatch.setattr(distance, "_TILE_TERMS", tile_terms)
        xs = np.random.default_rng(3).standard_normal((2, 60, 4))
        calls = record_row_passes(monkeypatch)
        build_stacked(c, xs)
        # rows n - 2 and n - 1 first meet in the tile that holds row n - 2; at
        # most one tile follows it: row n - 1 alone, one 1 x 1 block per matrix
        tiles = len(calls) - (calls[-1][0] == len(xs))
        calls.clear()
        big = 1e154 if c == SquaredEuclidean() else 1.7e308  # overflows this pair only
        xs[1, -2:, 0] = [big, -big]
        with pytest.raises(DomainError, match="overflows"):
            build_stacked(c, xs)
        assert len(calls) == tiles > 1

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 7, 2), (1, 300, 16), (12, 120, 11),
                                       (105, 100, 2), (2, 50, 400)])
    def test_each_unordered_pair_is_evaluated_once(self, monkeypatch, shape):
        B, n, k = shape
        xs = np.random.default_rng(5).standard_normal(shape)
        calls = record_row_passes(monkeypatch)
        default = build_stacked(P2, xs)
        assert max(rows * width for rows, width in calls) <= max(distance._TILE_TERMS, B * n * k)
        calls.clear()
        monkeypatch.setattr(distance, "_TILE_TERMS", 1)
        assert_bitwise_equal(build_stacked(P2, xs), default)
        assert sum(rows for rows, _ in calls) == B * n * (n + 1) // 2
