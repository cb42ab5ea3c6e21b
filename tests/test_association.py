import math
from fractions import Fraction

import numpy as np
import pytest

from distchar import (
    CorrelationResult,
    DomainError,
    PNorm,
    SampleSpace,
    SquaredEuclidean,
    augment_constant_columns,
    build,
    concordance,
    correlation,
    expectation,
    hadamard,
    matrix_correlation,
)
from distchar.association import VARIANCE_FLOOR

P1, P2, PINF = PNorm(1), PNorm(2), PNorm(math.inf)
L = SquaredEuclidean()
SQRT3 = math.sqrt(3)

EX8_X = np.array([[1.0], [2.0], [3.0]])
EX8_Y = np.array([[1.0, 1.0], [2.0, 0.0], [3.0, 0.0]])
TRIANGLE = np.array([[2, 0], [-1, SQRT3], [-1, -SQRT3]])


def flat_pearson(a, b, convention):
    """Independent oracle: plain Pearson over the flattened sample space."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if convention is SampleSpace.FULL_GRID:
        u, v = a.ravel(), b.ravel()
    else:
        iu = np.triu_indices(a.shape[0], k=1)
        u, v = a[iu], b[iu]
    return np.corrcoef(u, v)[0, 1]


class TestExpectation:
    def test_ex8_grid(self):
        d = build(P2, EX8_X)
        assert expectation(d) == 8 / 9

    def test_ex9_grid(self):
        d = build(P1, TRIANGLE)
        assert expectation(d) == pytest.approx(2 / 9 * (6 + 4 * SQRT3), rel=1e-12)

    def test_zero_matrix(self):
        for conv in SampleSpace:
            assert expectation(np.zeros((3, 3)), conv) == 0.0

    def test_upper_triangle_rescales(self):
        d = build(P2, EX8_X)
        grid = expectation(d, SampleSpace.FULL_GRID)
        upper = expectation(d, SampleSpace.UPPER_TRIANGLE)
        assert upper == pytest.approx(grid * 3 / 2, rel=1e-12)

    def test_upper_triangle_needs_two_rows(self):
        with pytest.raises(DomainError):
            expectation(np.zeros((1, 1)), SampleSpace.UPPER_TRIANGLE)

    @pytest.mark.parametrize("conv", list(SampleSpace))
    def test_overflowing_sum_raises(self, conv):
        # the entries are finite, but 2S is not
        d = np.full((3, 3), 1e308)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(DomainError, match="finite"):
            expectation(d, conv)
        with pytest.raises(DomainError, match="finite"):
            expectation(d.astype(object), conv)

    def test_exact_input_stays_exact(self):
        d = np.array([[0, Fraction(1, 3)], [Fraction(1, 3), 0]], dtype=object)
        assert expectation(d) == Fraction(1, 6)
        assert expectation(d, SampleSpace.UPPER_TRIANGLE) == Fraction(1, 3)

    def test_integer_input_stays_exact(self):
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=object)
        assert expectation(d) == Fraction(8, 9)
        assert expectation(d, SampleSpace.UPPER_TRIANGLE) == Fraction(4, 3)


class TestConventionIsASampleSpace:
    @pytest.mark.parametrize("convention", ["grid", "upper", None, 0])
    def test_expectation(self, convention):
        with pytest.raises(DomainError, match="SampleSpace member"):
            expectation(build(P1, EX8_Y), convention)

    @pytest.mark.parametrize("convention", ["grid", "upper", None, 0])
    def test_matrix_correlation(self, convention):
        with pytest.raises(DomainError, match="SampleSpace member"):
            matrix_correlation(build(P1, EX8_Y), build(P2, EX8_Y), convention)

    @pytest.mark.parametrize("convention", ["grid", "upper", None, 0])
    def test_correlation(self, convention):
        with pytest.raises(DomainError, match="SampleSpace member"):
            correlation(P1, P2, EX8_Y, convention)


class TestHadamard:
    def test_ex8_square(self):
        d = build(P2, EX8_X)
        assert np.array_equal(hadamard(d, d), [[0, 1, 4], [1, 0, 1], [4, 1, 0]])
        assert np.array_equal(hadamard(d, d), build(L, EX8_X))

    def test_zero_annihilates(self):
        d = build(P2, EX8_X)
        assert np.array_equal(hadamard(d, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_commutes(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4, 2))
        a, b = build(P1, x), build(P2, x)
        assert np.array_equal(hadamard(a, b), hadamard(b, a))

    def test_order_mismatch(self):
        with pytest.raises(DomainError):
            hadamard(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_overflowing_product_raises(self):
        # finite entries whose products overflow
        d = np.array([[0.0, 1e200], [1e200, 0.0]])
        with pytest.raises(DomainError, match="finite"):
            hadamard(d, d)
        with pytest.raises(DomainError, match="finite"):
            hadamard(d.astype(object), d.astype(object))

    def test_exact_input_stays_exact(self):
        big = Fraction(10**200, 3)
        d = np.array([[0, big], [big, 0]], dtype=object)
        product = hadamard(d, d)
        assert product.dtype == object and product[0, 1] == big * big


class TestCorrelation:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, 7.0, math.inf])
    def test_ex8_single_column_any_p(self, p):
        result = correlation(PNorm(p), L, EX8_X)
        assert result.rho == pytest.approx(7 / math.sqrt(55), abs=1e-6)

    def test_ex8_two_columns(self):
        assert correlation(P1, L, EX8_Y).rho == pytest.approx(
            14 / math.sqrt(213), abs=1e-6
        )
        assert correlation(PINF, L, EX8_Y).rho == pytest.approx(
            53 / (2 * math.sqrt(781)), abs=1e-6
        )

    def test_ex9_triangle(self):
        assert correlation(P1, P2, TRIANGLE).rho == pytest.approx(0.972335, abs=1e-5)
        assert correlation(P1, PINF, TRIANGLE).rho == pytest.approx(0.9375373, abs=1e-5)
        assert correlation(P2, PINF, TRIANGLE).rho == pytest.approx(0.9928629, abs=1e-5)

    def test_proportional_matrices_correlate_perfectly(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        result = correlation(P1, P2, x)  # n = 2: matrices are scalar multiples
        assert result.rho == pytest.approx(1.0, abs=1e-12)

    def test_single_column_matrices_correlate_perfectly(self):
        result = correlation(P1, PINF, EX8_X)
        assert result.rho == pytest.approx(1.0, abs=1e-12)

    def test_order_mismatch(self):
        with pytest.raises(DomainError, match="order mismatch"):
            matrix_correlation(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_result_rejects_rho_outside_unit_interval(self):
        with pytest.raises(DomainError, match="outside"):
            CorrelationResult(rho=1.5, covariance=0.0, variances=(1.0, 1.0),
                              convention=SampleSpace.FULL_GRID)

    def test_undefined_for_single_row(self):
        result = correlation(P1, P2, np.array([[1.0, 2.0]]))
        assert result.rho is None
        assert not result.defined

    def test_undefined_for_duplicate_rows(self):
        result = correlation(P1, P2, np.ones((3, 2)))
        assert result.rho is None
        assert result.variances == (0.0, 0.0)

    @pytest.mark.parametrize("scale", [1000, 1e5])
    def test_undefined_for_equidistant_rows_on_the_upper_triangle(self, scale):
        # one distinct upper-triangle entry per matrix, though the one-pass
        # variance leaves rounding above VARIANCE_FLOOR
        x = scale * np.eye(5)
        result = correlation(P2, PNorm(3.5), x, SampleSpace.UPPER_TRIANGLE)
        assert result.rho is None
        assert min(result.variances) > VARIANCE_FLOOR
        # the grid averages the zero diagonal too, so there the matrices vary
        assert correlation(P2, PNorm(3.5), x).rho == pytest.approx(1.0)

    def test_symmetry_is_bitwise(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.standard_normal((rng.integers(2, 6), rng.integers(1, 4)))
            ab = correlation(P1, PINF, x)
            ba = correlation(PINF, P1, x)
            assert ab.rho == ba.rho

    def test_scale_invariance(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((5, 3))
        a, b = build(P1, x), build(P2, x)
        base = matrix_correlation(a, b).rho
        for s in (1e-6, 0.5, 3.0, 1e6):
            scaled = matrix_correlation(s * a, b).rho
            assert scaled == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("convention", list(SampleSpace))
    def test_against_flat_pearson_oracle(self, convention):
        rng = np.random.default_rng(44)
        for _ in range(15):
            x = rng.standard_normal((int(rng.integers(3, 7)), 2))
            a, b = build(P1, x), build(PINF, x)
            got = matrix_correlation(a, b, convention).rho
            want = flat_pearson(a, b, convention)
            assert got == pytest.approx(want, rel=1e-12)
            assert abs(got) <= 1 + 1e-12

    def test_conventions_differ_in_general(self):
        a, b = build(P1, EX8_Y), build(L, EX8_Y)
        grid = matrix_correlation(a, b, SampleSpace.FULL_GRID).rho
        upper = matrix_correlation(a, b, SampleSpace.UPPER_TRIANGLE).rho
        assert grid != upper

    def test_constant_columns_change_nothing(self):
        padded = augment_constant_columns(EX8_Y, [5.0, 5.0])
        assert correlation(P1, L, padded).rho == correlation(P1, L, EX8_Y).rho

    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_overflowing_moments_raise(self, scale):
        # at 1e150 var_m * var_n overflows (rho used to print as 0.0);
        # at 1e160 the entrywise products overflow (rho used to be NaN)
        x = scale * np.random.default_rng(45).standard_normal((5, 2))
        with pytest.raises(DomainError, match="overflow"):
            correlation(P1, P2, x)
        with pytest.raises(DomainError, match="overflow"):
            matrix_correlation(build(P2, x), build(P1, x), SampleSpace.UPPER_TRIANGLE)

    def test_power_of_two_scaling_is_bitwise_below_overflow(self):
        x = np.random.default_rng(45).standard_normal((5, 2))
        base = correlation(P1, P2, x)
        # (downward scaling soon meets the absolute VARIANCE_FLOOR instead)
        for s in (-20, 100, 200, 250):
            scaled = correlation(P1, P2, 2.0**s * x)
            assert scaled.rho == base.rho
            assert scaled.covariance == 2.0 ** (2 * s) * base.covariance


# float() of the first overflows, and of the second, a nonzero, gives 0.0
OUTSIDE_FLOATS = pytest.mark.parametrize(
    "entry", [10**400, Fraction(1, 10**400)], ids=["huge", "tiny"])


@OUTSIDE_FLOATS
def test_matrix_correlation_refuses_exact_entries_outside_floats(entry):
    d = np.array([[0, entry], [entry, 0]], dtype=object)
    with pytest.raises(DomainError, match="exact entry outside the float range"):
        matrix_correlation(d, d)


@OUTSIDE_FLOATS
def test_correlation_refuses_exact_distances_outside_floats(entry):
    x = np.array([[0], [entry], [3]], dtype=object)
    with pytest.raises(DomainError, match="exact entry outside the float range"):
        correlation(P1, PINF, x)


class TestConcordance:
    def test_single_row(self):
        assert concordance(P1, P2, np.array([[1.0, 2.0]])).as_fraction() == 1

    def test_two_rows(self):
        assert concordance(P1, PINF, np.array([[0.0, 1.0], [2.0, 5.0]])).as_fraction() == 1

    def test_single_column(self):
        score = concordance(P2, L, EX8_X)
        assert (score.numerator, score.denominator) == (3, 3)

    def test_triangle_disagreement(self):
        score = concordance(P1, P2, TRIANGLE)
        assert (score.numerator, score.denominator) == (1, 3)

    def test_symmetric_in_coefficients(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            x = rng.standard_normal((4, 2))
            ab = concordance(P1, PINF, x)
            ba = concordance(PINF, P1, x)
            assert (ab.numerator, ab.denominator) == (ba.numerator, ba.denominator)

    def test_constant_columns_change_nothing(self):
        padded = augment_constant_columns(TRIANGLE, [9.0])
        assert concordance(P1, P2, padded).as_fraction() == Fraction(1, 3)
