"""Algebraic invariants of the scores on tie-heavy integer lattices.

Entries in {0..3} make exact ties common, at sizes (up to 30
rows, 5 columns) well beyond the hand-worked examples; every coefficient kind
is drawn, under both the default tie policy and exact comparison.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from distchar import (
    DomainError,
    PNorm,
    SampleSpace,
    SquaredEuclidean,
    TiePolicy,
    build,
    concordance,
    correlation,
    nearest_sets,
    rob_minus,
    rob_plus,
)
from distchar.neighbors import EXACT_TIES

COEFFICIENTS = st.sampled_from(
    [PNorm(1), PNorm(2), PNorm(math.inf), SquaredEuclidean(), PNorm(3.5)])
TIES = st.sampled_from([TiePolicy(), EXACT_TIES])
# p1, p2, pinf and L, whose bits do not depend on the host, and four pairs
NAMED = [PNorm(1), PNorm(2), PNorm(math.inf), SquaredEuclidean()]
NAMED_PAIRS = [(NAMED[0], NAMED[1]), (NAMED[0], NAMED[2]), (NAMED[1], NAMED[3]),
               (NAMED[2], NAMED[3])]


@st.composite
def lattices(draw, extra_cols=0):
    """An n x (k + extra_cols) matrix with entries in {0..3}, 2 <= n <= 30,
    2 <= k <= 5: every entry drawn, or (hypothesis's default fill) most
    entries one value, which makes duplicate rows common."""
    n, k = draw(st.integers(2, 30)), draw(st.integers(2, 5))
    fill = st.nothing() if draw(st.booleans()) else None
    return draw(arrays(np.float64, (n, k + extra_cols), elements=st.integers(0, 3), fill=fill))


def outcome(call):
    """A score's numerator and denominator, rho's bits (None when rho is
    undefined), or the message of the DomainError the call raises."""
    try:
        result = call()
    except DomainError as exc:
        return str(exc)
    if hasattr(result, "numerator"):
        return result.numerator, result.denominator
    return None if result.rho is None else np.float64(result.rho).tobytes()


@given(x_aug=lattices(extra_cols=1), m=COEFFICIENTS, n=COEFFICIENTS, tie=TIES,
       positive_only=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_scores_commute_with_row_permutation(x_aug, m, n, tie, positive_only, data):
    perm = data.draw(st.permutations(range(x_aug.shape[0])))

    def scores(x_aug):
        x = x_aug[:, :-1]
        return (outcome(lambda: rob_plus(m, x, x_aug, tie, positive_only)),
                outcome(lambda: rob_minus(m, x, tie, positive_only)),
                outcome(lambda: concordance(m, n, x, tie, positive_only)))

    assert scores(x_aug[perm]) == scores(x_aug)


@given(x=lattices(), m=COEFFICIENTS, n=COEFFICIENTS, tie=TIES,
       convention=st.sampled_from(list(SampleSpace)))
@settings(max_examples=150, deadline=None)
def test_concordance_and_rho_are_symmetric(x, m, n, tie, convention):
    assert outcome(lambda: concordance(m, n, x, tie)) == outcome(lambda: concordance(n, m, x, tie))
    assert (outcome(lambda: correlation(m, n, x, convention))
            == outcome(lambda: correlation(n, m, x, convention)))


@given(x_aug=lattices(extra_cols=1), m=COEFFICIENTS, n=COEFFICIENTS, tie=TIES,
       positive_only=st.booleans(), s=st.integers(-250, 250))
@settings(max_examples=150, deadline=None)
def test_scores_are_invariant_under_power_of_two_scaling(x_aug, m, n, tie, positive_only, s):
    # x -> 2^s x scales every distance by 2^s (2^2s under L) without rounding,
    # and a relative tie tolerance scales with it
    def scores(x_aug):
        x = x_aug[:, :-1]
        return (nearest_sets(build(m, x), tie, positive_only).sets,
                outcome(lambda: rob_plus(m, x, x_aug, tie, positive_only)),
                outcome(lambda: rob_minus(m, x, tie, positive_only)),
                outcome(lambda: concordance(m, n, x, tie, positive_only)))

    assert scores(np.ldexp(x_aug, s)) == scores(x_aug)


@given(x=lattices(), shift=st.lists(st.integers(-2**40, 2**40), min_size=5, max_size=5),
       convention=st.sampled_from(list(SampleSpace)))
@settings(max_examples=150, deadline=None)
def test_an_integer_translation_leaves_integer_builds_and_rho_unchanged(x, shift, convention):
    # every difference of translated entries is the same exact integer
    moved = x + np.array(shift[:x.shape[1]], dtype=float)
    for c in NAMED:
        assert build(c, moved).tobytes() == build(c, x).tobytes()
    for m, n in NAMED_PAIRS:
        assert (outcome(lambda: correlation(m, n, moved, convention))
                == outcome(lambda: correlation(m, n, x, convention)))


def test_a_translation_within_100_scales_moves_gaussian_rho_by_at_most_1e_12():
    # translating by t rounds each difference (x_i + t) - (x_l + t) anew, an
    # error of about 2^-53 |t| against a distance of about the data's scale.
    # Here rho moves by at most 3.2e-14; with t up to 1e4 scales it moved by
    # 4.0e-12 and up to 1e6 scales by 5.7e-10, so the bound needs the limit
    rng = np.random.default_rng(32)
    for _ in range(300):
        n, k = rng.integers(3, 31), rng.integers(1, 9)
        scale = 10.0 ** rng.uniform(-3, 3)
        x = scale * rng.standard_normal((n, k))
        moved = x + 100 * scale * rng.uniform(-1, 1, k)
        for m, other in NAMED_PAIRS:
            for convention in SampleSpace:
                before = correlation(m, other, x, convention).rho
                after = correlation(m, other, moved, convention).rho
                assert abs(after - before) <= 1e-12, (n, k, m, other, convention)
