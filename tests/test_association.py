import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

P1, P2, PINF = PNorm(1), PNorm(2), PNorm(math.inf)
L = SquaredEuclidean()
SQRT3 = math.sqrt(3)

EX8_X = np.array([[1.0], [2.0], [3.0]])
EX8_Y = np.array([[1.0, 1.0], [2.0, 0.0], [3.0, 0.0]])
TRIANGLE = np.array([[2, 0], [-1, SQRT3], [-1, -SQRT3]])


def flat(d, convention):
    """The entries of ``d`` over the sample space, one per pair."""
    d = np.asarray(d, dtype=float)
    if convention is SampleSpace.FULL_GRID:
        return d.ravel()
    return d[np.triu_indices(d.shape[0], k=1)]


def flat_pearson(a, b, convention):
    """Independent oracle: plain Pearson over the flattened sample space."""
    return np.corrcoef(flat(a, convention), flat(b, convention))[0, 1]


def fsum_two_pass(a, b, convention):
    """Pearson over the flattened sample space: two passes, each sum exact."""
    u, v = flat(a, convention), flat(b, convention)
    du, dv = u - math.fsum(u) / u.size, v - math.fsum(v) / v.size
    return math.fsum(du * dv) / math.sqrt(math.fsum(du * du) * math.fsum(dv * dv))


def exact_rho(a, b, convention):
    """rho of the float matrices in Fraction arithmetic, rounded once; None
    when either is constant over the sample space."""
    u, v = ([Fraction(e) for e in flat(d, convention)] for d in (a, b))
    mu, mv = sum(u) / len(u), sum(v) / len(v)
    cov = sum((p - mu) * (q - mv) for p, q in zip(u, v))
    var_u, var_v = sum((p - mu) ** 2 for p in u), sum((q - mv) ** 2 for q in v)
    if var_u == 0 or var_v == 0:
        return None
    return math.copysign(math.sqrt(cov * cov / (var_u * var_v)), cov)


def one_pass_grid(a, b):
    """Grid rho, covariance and variances in one pass, with E(D) =
    2 sum(triu(D, 1)) / n^2 and var(D) = E(D o D) - E(D)^2."""
    n = a.shape[0]

    def mean(d):
        return 2 * np.triu(d, 1).sum() / (n * n)

    e_a, e_b = mean(a), mean(b)
    cov = mean(a * b) - e_a * e_b
    var_a, var_b = mean(a * a) - e_a * e_a, mean(b * b) - e_b * e_b
    return cov / math.sqrt(var_a * var_b), cov, (var_a, var_b)


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

    @pytest.mark.parametrize("conv", list(SampleSpace))
    def test_underflowing_mean_raises(self, conv):
        # the one nonzero pair is the smallest subnormal: its mean rounds to 0
        d = np.zeros((10, 10))
        d[0, 1] = d[1, 0] = 5e-324
        with pytest.raises(DomainError, match="expectation underflows to 0; rescale the data"):
            expectation(d, conv)

    def test_empty_matrix_raises(self):
        for conv in SampleSpace:
            with pytest.raises(DomainError, match="at least one row"):
                expectation(np.zeros((0, 0)), conv)
            with pytest.raises(DomainError, match="at least one row"):
                matrix_correlation(np.zeros((0, 0)), np.zeros((0, 0)), conv)

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

    def test_underflowing_product_raises(self):
        # nonzero entries whose products round to 0
        d = build(P2, 1e-170 * EX8_X)
        with pytest.raises(DomainError, match="underflow"):
            hadamard(d, d)
        with pytest.raises(DomainError, match="underflow"):
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
        # one distinct upper-triangle entry per matrix: taken about that entry,
        # every moment is exactly 0, where a one-pass variance leaves rounding
        x = scale * np.eye(5)
        result = correlation(P2, PNorm(3.5), x, SampleSpace.UPPER_TRIANGLE)
        assert result.rho is None
        assert result.variances == (0.0, 0.0)
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
        for convention in SampleSpace:
            base = correlation(P1, P2, x, convention)
            for s in (-200, -100, -20, 100, 200, 250):
                scaled = correlation(P1, P2, 2.0**s * x, convention)
                assert scaled.rho == base.rho
                assert scaled.covariance == 2.0 ** (2 * s) * base.covariance

    @pytest.mark.parametrize("scale", [1e5, 1e7])
    def test_far_apart_rows_keep_their_correlation(self, scale):
        # the distances are about scale * 2^(1/p) and vary by about 0.01, which
        # a one-pass var = E(D^2) - E(D)^2 loses to cancellation
        x = scale * np.eye(30) + 0.01 * np.random.default_rng(0).standard_normal((30, 30))
        a, b = build(P1, x), build(P2, x)
        got = matrix_correlation(a, b, SampleSpace.UPPER_TRIANGLE).rho
        want = fsum_two_pass(a, b, SampleSpace.UPPER_TRIANGLE)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("convention", list(SampleSpace))
    def test_tiny_distances_keep_their_correlation(self, convention):
        # variances near 1e-26 are the data's, not rounding; only a variance
        # product below the smallest normal float is refused
        x = np.random.default_rng(26).standard_normal((5, 2))
        base = correlation(P1, P2, x, convention).rho
        assert correlation(P1, P2, 1e-13 * x, convention).rho == pytest.approx(base, abs=1e-12)
        with pytest.raises(DomainError, match="underflow"):
            correlation(P1, P2, 1e-100 * x, convention)

    def test_integer_grid_moments_are_the_one_pass_moments_bitwise(self):
        # integer sums are exact in any grouping, so summing the upper triangle
        # once about the diagonal's 0 gives the one-pass formula's every bit
        rng = np.random.default_rng(46)
        for _ in range(40):
            x = rng.integers(0, 50, (int(rng.integers(2, 9)), int(rng.integers(1, 4))))
            for m, n in [(P1, PINF), (P1, L), (PINF, L)]:
                a, b = build(m, x), build(n, x)
                if not (a.any() and b.any()):
                    continue
                got = matrix_correlation(a, b)
                assert (got.rho, got.covariance, got.variances) == one_pass_grid(a, b)


LATTICE = st.integers(0, 3).map(float)
REALS = st.floats(-1e3, 1e3, allow_subnormal=False).filter(lambda v: v == 0 or abs(v) >= 1e-6)


@st.composite
def data_matrices(draw):
    n, k = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    entries = draw(st.sampled_from([LATTICE, REALS]))
    rows = st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n)
    return np.array(draw(rows))


@given(x=data_matrices(), coefficients=st.sampled_from([(P1, P2), (P1, PINF), (P2, L)]),
       convention=st.sampled_from(list(SampleSpace)))
@settings(max_examples=200, deadline=None)
def test_rho_is_the_exact_rho_of_the_matrices(x, coefficients, convention):
    a, b = (build(c, x) for c in coefficients)
    got = matrix_correlation(a, b, convention).rho
    want = exact_rho(a, b, convention)
    constant = any(len(set(flat(d, convention))) == 1 for d in (a, b))
    assert (got is None) == (want is None) == constant
    if want is not None:
        assert got == pytest.approx(want, abs=1e-12)


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
