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
