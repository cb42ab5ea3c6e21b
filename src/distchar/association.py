"""Agreement measures for two distance matrices built from the same data:
concordance of nearest-neighbor sets, and the correlation coefficient of the
matrices viewed as random variables over an index sample space.

Two sample-space conventions exist: all n^2 index pairs with weight 1/n^2
each ("grid", the default), or the strictly-upper-triangle pairs with weight
2/(n(n-1)) each ("upper").  Expectations under the two differ by the factor
n/(n-1), and the correlation differs as well; both are exposed.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _EXPORTS
from .coefficients import Coefficient, as_floats, checked_entries
from .distance import build, validate_distance_matrix
from .errors import DomainError
from .neighbors import TiePolicy, near_mask
from .robustness import RationalScore

__all__ = [*_EXPORTS["association"], "VARIANCE_FLOOR"]

# Variances at or below this are treated as exactly degenerate geometry
# (duplicate rows / n = 1), not as rounding noise.
VARIANCE_FLOOR = 1e-24


class SampleSpace(enum.Enum):
    """Index sample space for distance-matrix expectations."""

    FULL_GRID = "grid"
    UPPER_TRIANGLE = "upper"


def expectation(d, convention: SampleSpace = SampleSpace.FULL_GRID):
    """Expectation of a distance matrix over the chosen sample space.

    With S the sum of the strictly-upper-triangle entries this is 2S/n^2 on
    the full grid and 2S/(n(n-1)) on the upper triangle (n >= 2 required).
    Raises DomainError when the sum overflows.
    """
    with np.errstate(over="ignore"):
        mean = _mean(validate_distance_matrix(d), convention)
    checked_entries(np.asarray(mean), "distance-matrix expectation")
    return mean


def _mean(D: np.ndarray, convention: SampleSpace):
    if not isinstance(convention, SampleSpace):
        raise DomainError(f"convention must be a SampleSpace member, got {convention!r}")
    n = D.shape[0]
    s = np.triu(D, 1).sum()
    if isinstance(s, numbers.Integral):
        s = Fraction(s)  # int / int would be float division
    if convention is SampleSpace.FULL_GRID:
        return 2 * s / (n * n)
    if n < 2:
        raise DomainError("upper-triangle expectation needs n >= 2")
    return 2 * s / (n * (n - 1))


def _checked_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    A, B = validate_distance_matrix(a), validate_distance_matrix(b)
    if A.shape != B.shape:
        raise DomainError(f"order mismatch: {A.shape[0]} vs {B.shape[0]}")
    return A, B


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two distance matrices of the same order; exact
    for exact input.  Raises DomainError when a product overflows."""
    A, B = _checked_pair(a, b)
    with np.errstate(over="ignore"):
        return checked_entries(A * B, "Hadamard product")


@dataclass(frozen=True)
class CorrelationResult:
    """Correlation of two distance matrices; ``rho`` is None when either is
    degenerate: constant over the sample space, or of variance <= VARIANCE_FLOOR."""

    rho: float | None
    covariance: float
    variances: tuple[float, float]
    convention: SampleSpace

    def __post_init__(self) -> None:
        if self.rho is not None and abs(self.rho) > 1 + 1e-12:
            raise DomainError(f"correlation {self.rho} outside [-1, 1]")

    @property
    def defined(self) -> bool:
        return self.rho is not None


def matrix_correlation(
    a, b, convention: SampleSpace = SampleSpace.FULL_GRID
) -> CorrelationResult:
    """Pearson correlation of two distance matrices over the index space.

    rho = [E(A o B) - E(A)E(B)] / sqrt(var(A) var(B)) with
    var(D) = E(D o D) - E(D)^2 and o the entrywise product.  The formula is
    evaluated symmetrically in A and B, so swapping the arguments gives a
    bitwise-identical result.  Raises DomainError when the covariance, a
    variance or their product overflows (distances beyond about 1e77).
    """
    A, B = (as_floats(D, "distance matrix") for D in _checked_pair(a, b))
    with np.errstate(over="ignore", invalid="ignore"):
        e_a = _mean(A, convention)
        e_b = _mean(B, convention)
        cov = _mean(A * B, convention) - e_a * e_b
        var_a = _mean(A * A, convention) - e_a * e_a
        var_b = _mean(B * B, convention) - e_b * e_b
        var_ab = var_a * var_b
    if not np.isfinite([cov, var_a, var_b, var_ab]).all():
        raise DomainError("distance-matrix moments overflow; rescale the data")
    if var_a <= VARIANCE_FLOOR or var_b <= VARIANCE_FLOOR or _constant(convention, A, B):
        rho = None
    else:
        rho = cov / math.sqrt(var_ab)
    return CorrelationResult(
        rho=rho, covariance=cov, variances=(var_a, var_b), convention=convention
    )


def _constant(convention: SampleSpace, *matrices: np.ndarray) -> bool:
    """Whether one of ``matrices`` is one value over the entries ``convention`` averages."""
    if convention is SampleSpace.UPPER_TRIANGLE:
        return any(not np.triu(D != D[0, 1], 1).any() for D in matrices)
    return not all(map(np.any, matrices))  # on the grid, the diagonal's 0


def correlation(
    m: Coefficient,
    n: Coefficient,
    x,
    convention: SampleSpace = SampleSpace.FULL_GRID,
) -> CorrelationResult:
    """Correlation of the two distance matrices of ``x`` under ``m`` and ``n``."""
    return matrix_correlation(build(m, x), build(n, x), convention)


def concordance(
    m: Coefficient,
    n: Coefficient,
    x,
    tie: TiePolicy = TiePolicy(),
    positive_only: bool = False,
) -> RationalScore:
    """Fraction of rows whose nearest-neighbor sets agree under ``m`` and ``n``.

    Both neighbor structures are computed under the same tie policy, so the
    comparison is symmetric in the two coefficients.  A 1-row matrix scores
    1/1 (both neighbor sets are empty).
    """
    near_m = near_mask(build(m, x), tie, positive_only)
    near_n = near_mask(build(n, x), tie, positive_only)
    return RationalScore(int((near_m == near_n).all(axis=1).sum()), len(near_m))
