import dataclasses
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from distchar import (
    Convergent,
    DomainError,
    MonteCarloEstimate,
    conjectured_expected_nn,
    continued_fraction_convergents,
    delta_constant,
    expected_nn_distance,
    nn_distance_density,
    scaled_volume,
    uniform_interval_expected_nn,
    volume_at_expected,
)
from distchar.asymptotics import EULER_MASCHERONI_22


def euclid_convergents(r: Fraction) -> list[tuple[int, int]]:
    """Convergents (p, q) of an exact rational by Euclid's algorithm."""
    num, den = r.numerator, r.denominator
    p_prev, q_prev, p, q = 0, 1, 1, 0
    out = []
    while den:
        a, rem = divmod(num, den)
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        out.append((p, q))
        num, den = den, rem
    return out


def reference_estimate(n, length, samples, seed):
    """The Monte Carlo estimate as first written: one numpy uniform draw and
    one row minimum per chunk, each chunk summed with numpy's sum."""
    rng = np.random.default_rng(seed)
    chunk = max(1, min(samples, 1_000_000 // n))
    s1 = s2 = 0.0
    for done in range(0, samples, chunk):
        m = min(chunk, samples - done)
        mins = np.abs(rng.uniform(-1.0, 1.0, size=(m, n))).min(axis=1)
        s1 += float(mins.sum())
        s2 += float((mins * mins).sum())
    mean = s1 / samples
    variance = max(0.0, (s2 - samples * mean * mean) / (samples - 1))
    return length * mean, length * math.sqrt(variance / samples)


def integration_cutoff(k, lam, v0):
    # beyond R the remaining mass is exp(-lam*v0*R^k) < 1e-14
    return (37.0 / (lam * v0)) ** (1.0 / k)


class TestScaledVolume:
    def test_identity_scaling(self):
        assert scaled_volume(1.0, 1.0, 5) == 1.0

    def test_direct_formula(self):
        assert scaled_volume(2.0, 3.0, 2) == 18.0

    def test_disk_area_against_monte_carlo(self):
        # area of the radius-2 disk, estimated by rejection sampling
        want = scaled_volume(math.pi, 2.0, 2)
        assert want == pytest.approx(4 * math.pi, rel=1e-15)
        rng = np.random.default_rng(52)
        pts = rng.uniform(-2, 2, size=(200_000, 2))
        inside = (pts**2).sum(axis=1) <= 4.0
        estimate = 16.0 * inside.mean()
        stderr = 16.0 * inside.std(ddof=1) / math.sqrt(len(inside))
        assert abs(estimate - want) <= 3 * stderr

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            scaled_volume(0.0, 1.0, 2)
        with pytest.raises(DomainError):
            scaled_volume(1.0, 1.0, 0)


class TestExpectedDistance:
    def test_one_dimension_unit(self):
        assert expected_nn_distance(1, 1.0, 1.0) == 1.0  # Gamma(2) = 1

    def test_two_dimensions(self):
        assert expected_nn_distance(2, 1.0, 1.0) == pytest.approx(
            math.sqrt(math.pi) / 2, rel=1e-12
        )

    def test_three_dimensions_scaled(self):
        assert expected_nn_distance(3, 2.0, 5.0) == pytest.approx(
            math.gamma(4 / 3) / 10 ** (1 / 3), rel=1e-12
        )

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("lam,v0", [(0.1, 1.0), (1.0, 1.0), (2.0, 5.0)])
    def test_against_quadrature(self, k, lam, v0):
        cutoff = integration_cutoff(k, lam, v0)
        mean, _ = integrate.quad(
            lambda r: r * nn_distance_density(r, k, lam, v0), 0.0, cutoff, limit=200
        )
        assert expected_nn_distance(k, lam, v0) == pytest.approx(mean, rel=1e-8)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_density_normalized(self, k):
        lam, v0 = 1.5, 0.8
        cutoff = integration_cutoff(k, lam, v0)
        mass, _ = integrate.quad(
            lambda r: nn_distance_density(r, k, lam, v0), 0.0, cutoff, limit=200
        )
        assert mass == pytest.approx(1.0, rel=1e-8)

    def test_density_zero_for_negative_radius(self):
        assert nn_distance_density(-1.0, 2, 1.0, 1.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            expected_nn_distance(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            expected_nn_distance(2, -1.0, 1.0)


class TestVolumeAtExpected:
    def test_one_dimension(self):
        assert volume_at_expected(1, 1.0) == 1.0

    def test_two_dimensions_quarter_pi(self):
        assert volume_at_expected(2, 1.0) == pytest.approx(math.pi / 4, rel=1e-12)

    @pytest.mark.parametrize("v0", [0.5, 1.0, 7.0])
    def test_reference_volume_cancels(self, v0):
        k, lam = 4, 3.0
        via_expectation = scaled_volume(v0, expected_nn_distance(k, lam, v0), k)
        assert via_expectation == pytest.approx(volume_at_expected(k, lam), rel=1e-12)


class TestExtremeScales:
    # each closed form returns the right value or raises DomainError

    def test_expected_distance_at_huge_intensity(self):
        want = math.gamma(1.5) / 1e200
        assert expected_nn_distance(2, 1e200, 1e200) == pytest.approx(want, rel=1e-12, abs=0)

    def test_expected_distance_at_tiny_intensity(self):
        want = math.gamma(1.5) * 1e200
        assert expected_nn_distance(2, 1e-200, 1e-200) == pytest.approx(want, rel=1e-12, abs=0)

    def test_overflowing_scaled_volume_raises(self):
        with pytest.raises(DomainError, match="r\\^k"):
            scaled_volume(1.0, 1e200, 3)

    def test_density_far_out_underflows_to_zero(self):
        assert nn_distance_density(1e200, 3, 1.0, 1.0) == 0.0

    def test_overflowing_density_raises(self):
        with pytest.raises(DomainError, match="density at r = 0.0 overflows"):
            nn_distance_density(0.0, 1, 1e200, 1e109)

    def test_overflowing_volume_at_expected_raises(self):
        with pytest.raises(DomainError, match="volume at the expected radius"):
            volume_at_expected(2, 1e-320)

    def test_underflowing_exact_value_raises(self):
        with pytest.raises(DomainError, match="L/\\(n\\+1\\)"):
            conjectured_expected_nn(3, 5e-324)


class TestIntervalMonteCarlo:
    @pytest.mark.parametrize("n,want", [(1, 0.5), (2, 1 / 3), (3, 0.25)])
    def test_small_cases(self, n, want):
        estimate = uniform_interval_expected_nn(n, 1.0, 200_000, seed=42)
        assert abs(estimate.mean - want) <= 3 * estimate.standard_error

    def test_deterministic_per_seed(self):
        a = uniform_interval_expected_nn(4, 2.0, 10_000, seed=9)
        b = uniform_interval_expected_nn(4, 2.0, 10_000, seed=9)
        assert a == b

    def test_scales_linearly_in_length(self):
        small = uniform_interval_expected_nn(3, 1.0, 200_000, seed=1)
        large = uniform_interval_expected_nn(3, 2.0, 200_000, seed=2)
        combined = math.hypot(2 * small.standard_error, large.standard_error)
        assert abs(large.mean - 2 * small.mean) <= 3 * combined

    def test_single_sample(self):
        # one draw has no standard error
        with pytest.raises(DomainError, match="two samples"):
            uniform_interval_expected_nn(2, 1.0, 1, seed=0)

    # drawn at scale L, these lengths overflow the squared minima or the range 2L
    @pytest.mark.parametrize("length, overflowed", [
        (1e307, "moments overflow"), (8.99e307, "2L"), (1e308, "2L")])
    def test_overflow_raises(self, length, overflowed):
        estimate = uniform_interval_expected_nn(2, length, 10, seed=0)
        assert 0 < estimate.standard_error < estimate.mean < math.inf, overflowed
        error = abs(estimate.mean - conjectured_expected_nn(2, length))
        assert error <= 5 * estimate.standard_error

    @pytest.mark.parametrize("length", [3.0, 1e-300, 1e307, 1e308, 2.0**-60, 2.0**500])
    def test_every_field_is_length_times_unit_estimate(self, length):
        unit = uniform_interval_expected_nn(3, 1.0, 1000, seed=5)
        estimate = uniform_interval_expected_nn(3, length, 1000, seed=5)
        assert estimate == dataclasses.replace(
            unit, mean=length * unit.mean, standard_error=length * unit.standard_error)

    def test_underflowing_estimate_raises(self):
        with pytest.raises(DomainError, match="estimate at length 5e-324"):
            uniform_interval_expected_nn(2, 5e-324, 10, seed=0)

    def test_large_finite_length(self):
        estimate = uniform_interval_expected_nn(2, 1e150, 10, seed=0)
        assert math.isfinite(estimate.mean) and estimate.standard_error > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            uniform_interval_expected_nn(0, 1.0, 10, seed=0)
        with pytest.raises(DomainError):
            uniform_interval_expected_nn(1, -1.0, 10, seed=0)
        with pytest.raises(DomainError):
            uniform_interval_expected_nn(1, 1.0, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_rejects_seeds_that_are_not_nonnegative_integers(self, seed):
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            uniform_interval_expected_nn(2, 1.0, 10, seed=seed)

    @pytest.mark.parametrize("args, name", [
        ((2.5, 1.0, 10, 0), "n"), ((2, 1.0, 10.0, 0), "samples")])
    def test_rejects_counts_that_are_not_integers(self, args, name):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            uniform_interval_expected_nn(*args)

    # captured from the numpy-uniform formula in reference_estimate; each case
    # crosses a 64K-draw block or a chunk boundary, the last has 1-row chunks
    @pytest.mark.parametrize("n, length, samples, seed, want", [
        (1, 1.0, 1_000_003, 4, ("0x1.00258c94073bep-1", "0x1.2e85a4309d223p-12")),
        (3, 1.0, 400_001, 7, ("0x1.003dc4b148ceep-2", "0x1.4125305d41e7bp-12")),
        (7, 1.0, 123_457, 5, ("0x1.ff0f269691333p-4", "0x1.47a9ad3b04cdap-12")),
        (50, 1.0, 99_999, 3, ("0x1.4151754efbed6p-6", "0x1.fe0bc3e01d3bfp-15")),
        (1_000_001, 1.0, 3, 2, ("0x1.6b6e763000000p-22", "0x1.5250ba2545711p-23")),
    ])
    def test_pinned_bits_across_blocks_and_chunks(self, n, length, samples, seed, want):
        estimate = uniform_interval_expected_nn(n, length, samples, seed)
        assert (estimate.mean.hex(), estimate.standard_error.hex()) == want

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), samples=st.integers(2, 50_000),
           seed=st.integers(0, 2**64), length=st.sampled_from([1.0, 3.0, 1e-300]))
    def test_bitwise_equal_to_the_numpy_uniform_formula(self, n, samples, seed, length):
        estimate = uniform_interval_expected_nn(n, length, samples, seed)
        assert (estimate.mean, estimate.standard_error) == reference_estimate(
            n, length, samples, seed)

    @pytest.mark.parametrize("samples, standard_error", [(0, 0.1), (10, -0.1)])
    def test_estimate_rejects_impossible_fields(self, samples, standard_error):
        with pytest.raises(DomainError):
            MonteCarloEstimate(mean=1.0, standard_error=standard_error, samples=samples, seed=0)


class TestConjecturedValue:
    def test_proved_cases(self):
        assert conjectured_expected_nn(1, 2.0) == 1.0
        assert conjectured_expected_nn(3, 4.0) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 40])
    def test_monte_carlo_matches_exact_moments(self, n):
        # min |x_i| has P(min > r) = (1 - r/L)^n: mean L/(n+1),
        # variance n L^2 / ((n+1)^2 (n+2))
        length, samples = 3.0, 40_000
        estimate = uniform_interval_expected_nn(n, length, samples, seed=n)
        variance = n * length**2 / ((n + 1) ** 2 * (n + 2))
        stderr = math.sqrt(variance / samples)
        assert estimate.standard_error == pytest.approx(stderr, rel=0.05)
        assert abs(estimate.mean - conjectured_expected_nn(n, length)) <= 5 * stderr

    def test_against_monte_carlo(self):
        # the exact value against a large simulation at n = 9
        estimate = uniform_interval_expected_nn(9, 1.0, 200_000, seed=13)
        assert abs(estimate.mean - conjectured_expected_nn(9, 1.0)) <= 3 * estimate.standard_error

    def test_grows_with_length(self):
        assert conjectured_expected_nn(5, 60.0) == 10.0

    def test_needs_a_point(self):
        with pytest.raises(DomainError, match="at least one point"):
            conjectured_expected_nn(0, 1.0)

    def test_rejects_a_count_that_is_not_an_integer(self):
        with pytest.raises(DomainError, match="n must be an integer, got 2.5"):
            conjectured_expected_nn(2.5, 1.0)


class TestDeltaConstant:
    def test_fifteen_digits(self):
        assert str(delta_constant(15)) == "0.570376001675023"

    def test_one_digit(self):
        assert delta_constant(1) == decimal.Decimal("0.6")

    def test_twenty_digit_prefix_consistency(self):
        assert str(delta_constant(20)).startswith(str(delta_constant(15)))

    def test_precision_limits(self):
        with pytest.raises(DomainError):
            delta_constant(0)
        with pytest.raises(DomainError):
            delta_constant(21)

    def test_rejects_digits_that_are_not_an_integer(self):
        with pytest.raises(DomainError, match="digits must be an integer, got 5.0"):
            delta_constant(5.0)

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for digits in range(1, 21):
            with mpmath.workdps(digits + 15):
                value = mpmath.exp(-mpmath.exp(-mpmath.mpf(EULER_MASCHERONI_22)))
                text = mpmath.nstr(value, digits + 10, strip_zeros=False)
            want = decimal.Decimal(text).quantize(
                decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN
            )
            assert delta_constant(digits) == want
            assert str(delta_constant(digits)) == str(want)


class TestContinuedFraction:
    def test_exact_half(self):
        run = continued_fraction_convergents(Fraction(1, 2), 10**6)
        assert [(c.p, c.q) for c in run] == [(0, 1), (1, 2)]
        assert not run.truncated

    def test_decimal_half_is_honestly_vague(self):
        # "0.5" rounded to one place could be anything in [0.45, 0.55]
        run = continued_fraction_convergents(decimal.Decimal("0.5"), 10**6)
        assert [(c.p, c.q) for c in run] == [(0, 1)]
        assert run.truncated

    def test_delta_reaches_the_published_denominator(self):
        run = continued_fraction_convergents(delta_constant(20), 10**7)
        assert 5382609 in run.denominators()
        assert not run.truncated

    def test_delta_next_denominators(self):
        run = continued_fraction_convergents(delta_constant(20), 2 * 10**8)
        qs = run.denominators()
        assert qs[qs.index(5382609) + 1] == 163847302
        assert qs[-1] == 169229911
        assert not run.truncated  # the next convergent is certain and exceeds max_q

    def test_low_precision_is_flagged_not_wrong(self):
        run = continued_fraction_convergents(delta_constant(8), 10**7)
        assert run.truncated
        assert 5382609 not in run.denominators()

    def test_determinant_identity(self):
        run = continued_fraction_convergents(delta_constant(20), 10**9)
        pairs = list(run)
        assert len(pairs) >= 10
        for a, b in zip(pairs, pairs[1:]):
            assert abs(a.p * b.q - b.p * a.q) == 1

    def test_convergents_alternate_around_the_value(self):
        x = Fraction(delta_constant(20))
        run = continued_fraction_convergents(delta_constant(20), 10**7)
        signs = [1 if c.as_fraction() < x else -1 for c in run]
        assert all(a != b for a, b in zip(signs, signs[1:]))

    def test_explicit_uncertainty_overrides(self):
        run = continued_fraction_convergents(
            Fraction(1, 2), 10**6, uncertainty=Fraction(1, 10)
        )
        assert run.truncated

    def test_float_is_its_exact_dyadic_value(self):
        # 0.1 is 3602879701896397/2^55: certain quotients, none truncated
        run = continued_fraction_convergents(0.1, 1000)
        assert [(c.p, c.q) for c in run] == [(0, 1), (1, 9), (1, 10)]
        assert not run.truncated

    def test_one_exhausted_endpoint_truncates(self):
        # [2/5, 1/2]: the upper endpoint ends at 1/2, the lower one goes on
        run = continued_fraction_convergents(Fraction(9, 20), 1000, uncertainty=Fraction(1, 20))
        assert [(c.p, c.q) for c in run] == [(0, 1), (1, 2)]
        assert run.truncated

    @given(x=st.fractions(min_value=0, max_value=1, max_denominator=10**12),
           uncertainty=st.fractions(min_value=0, max_value=Fraction(1, 10),
                                    max_denominator=10**15),
           max_q=st.integers(1, 10**15))
    @settings(max_examples=300, deadline=None)
    def test_every_convergent_belongs_to_both_endpoints(self, x, uncertainty, max_q):
        assume(0 < x < 1)
        run = continued_fraction_convergents(x, max_q, uncertainty)
        emitted = [(c.p, c.q) for c in run]
        for endpoint in (x - uncertainty, x + uncertainty):
            assert emitted == euclid_convergents(endpoint)[:len(emitted)]
        assert all(q <= max_q for _, q in emitted)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, value):
        with pytest.raises(DomainError, match="not a finite number"):
            continued_fraction_convergents(value, 10)

    @pytest.mark.parametrize("max_q", [math.nan, 10.0])
    def test_max_q_must_be_an_integer(self, max_q):
        with pytest.raises(DomainError, match="max_q must be an integer"):
            continued_fraction_convergents("0.570376001675023", max_q)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            continued_fraction_convergents(Fraction(3, 2), 10**6)  # outside (0, 1)
        with pytest.raises(DomainError):
            continued_fraction_convergents(Fraction(1, 2), 0)
        with pytest.raises(DomainError):
            continued_fraction_convergents(Fraction(1, 2), 10, uncertainty=-1)
        with pytest.raises(DomainError, match="not a finite decimal"):
            continued_fraction_convergents(decimal.Decimal("NaN"), 10)
        with pytest.raises(DomainError, match="unsupported value type"):
            continued_fraction_convergents([0.5], 10)
        with pytest.raises(DomainError, match="denominator must be positive"):
            Convergent(1, 0)
