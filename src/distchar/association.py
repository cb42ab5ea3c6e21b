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
from dataclasses import dataclass

import numpy as np

from .coefficients import Coefficient
from .distance import as_data_matrix, build, validate_distance_matrix
from .errors import DomainError
from .neighbors import TiePolicy, nearest_sets
from .robustness import RationalScore

__all__ = [
    "CorrelationResult",
    "SampleSpace",
    "VARIANCE_FLOOR",
    "concordance",
    "correlation",
    "expectation",
    "hadamard",
    "matrix_correlation",
]

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
    """
    return _mean(validate_distance_matrix(d), convention)


def _mean(D: np.ndarray, convention: SampleSpace):
    n = D.shape[0]
    s = np.triu(D, 1).sum()
    if convention is SampleSpace.FULL_GRID:
        return 2 * s / (n * n)
    if n < 2:
        raise DomainError("upper-triangle expectation needs n >= 2")
    return 2 * s / (n * (n - 1))


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two distance matrices of the same order."""
    A = validate_distance_matrix(a)
    B = validate_distance_matrix(b)
    if A.shape != B.shape:
        raise DomainError(f"order mismatch: {A.shape[0]} vs {B.shape[0]}")
    return A * B


@dataclass(frozen=True)
class CorrelationResult:
    """Correlation of two distance matrices; ``rho`` is None when either
    variance is degenerate (all entries equal, e.g. n = 1 or duplicate rows)."""

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
    bitwise-identical result.
    """
    A = np.asarray(validate_distance_matrix(a), dtype=float)
    B = np.asarray(validate_distance_matrix(b), dtype=float)
    if A.shape != B.shape:
        raise DomainError(f"order mismatch: {A.shape[0]} vs {B.shape[0]}")
    e_a = _mean(A, convention)
    e_b = _mean(B, convention)
    cov = _mean(A * B, convention) - e_a * e_b
    var_a = _mean(A * A, convention) - e_a * e_a
    var_b = _mean(B * B, convention) - e_b * e_b
    if var_a <= VARIANCE_FLOOR or var_b <= VARIANCE_FLOOR:
        rho = None
    else:
        rho = cov / math.sqrt(var_a * var_b)
    return CorrelationResult(
        rho=rho, covariance=cov, variances=(var_a, var_b), convention=convention
    )


def correlation(
    m: Coefficient,
    n: Coefficient,
    x,
    convention: SampleSpace = SampleSpace.FULL_GRID,
) -> CorrelationResult:
    """Correlation of the two distance matrices of ``x`` under ``m`` and ``n``."""
    X = as_data_matrix(x)
    return matrix_correlation(build(m, X), build(n, X), convention)


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
    X = as_data_matrix(x)
    sets_m = nearest_sets(build(m, X), tie, positive_only)
    sets_n = nearest_sets(build(n, X), tie, positive_only)
    agree = sum(1 for a, b in zip(sets_m.sets, sets_n.sets) if a == b)
    return RationalScore(agree, X.shape[0])
