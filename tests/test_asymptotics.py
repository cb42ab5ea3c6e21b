import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from distchar import (
    DomainError,
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
        estimate = uniform_interval_expected_nn(2, 1.0, 1, seed=0)
        assert estimate.standard_error == 0.0
        assert 0.0 <= estimate.mean <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            uniform_interval_expected_nn(0, 1.0, 10, seed=0)
        with pytest.raises(DomainError):
            uniform_interval_expected_nn(1, -1.0, 10, seed=0)
        with pytest.raises(DomainError):
            uniform_interval_expected_nn(1, 1.0, 0, seed=0)


class TestConjecturedValue:
    def test_proved_cases(self):
        assert conjectured_expected_nn(1, 2.0) == 1.0
        assert conjectured_expected_nn(3, 4.0) == 1.0

    def test_against_monte_carlo(self):
        # unproved for n = 9; the simulation is the only check offered
        estimate = uniform_interval_expected_nn(9, 1.0, 200_000, seed=13)
        assert abs(estimate.mean - conjectured_expected_nn(9, 1.0)) <= 3 * estimate.standard_error

    def test_grows_with_length(self):
        assert conjectured_expected_nn(5, 60.0) == 10.0


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

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            continued_fraction_convergents(Fraction(3, 2), 10**6)  # outside (0, 1)
        with pytest.raises(DomainError):
            continued_fraction_convergents(Fraction(1, 2), 0)
        with pytest.raises(DomainError):
            continued_fraction_convergents(Fraction(1, 2), 10, uncertainty=-1)
