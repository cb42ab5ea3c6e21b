"""Agreement measures for two distance matrices built from the same data:
concordance of nearest-neighbor sets, and the correlation coefficient of the
matrices viewed as random variables over an index sample space.

Two sample-space conventions exist: all n^2 index pairs with weight 1/n^2
each ("grid", the default), or the strictly-upper-triangle pairs with weight
2/(n(n-1)) each ("upper").  Expectations under the two differ by the factor
n/(n-1), and the correlation differs as well; both are exposed.  Moments are
taken about an entry of the sample space, so rounding moves rho by O(N*u)
over N pairs, and rho is undefined only for a constant matrix.
"""

from __future__ import annotations

import enum
import math
import sys
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

# An absolute variance floor, kept as a public name.  No code reads it: rho
# is None only for a matrix that takes one value over its sample space.
VARIANCE_FLOOR = 1e-24


class SampleSpace(enum.Enum):
    """Index sample space for distance-matrix expectations."""

    FULL_GRID = "grid"
    UPPER_TRIANGLE = "upper"


def expectation(d, convention: SampleSpace = SampleSpace.FULL_GRID):
    """Expectation of a distance matrix over the chosen sample space.

    With S the sum of the strictly-upper-triangle entries this is 2S/n^2 on
    the full grid and 2S/(n(n-1)) on the upper triangle (n >= 2 required).
    Ints and Fractions stay exact.  Raises DomainError when the sum overflows.
    """
    values, weight = _sample(validate_distance_matrix(d), convention)
    with np.errstate(over="ignore"):
        mean = values.sum() / weight
    checked_entries(np.asarray(mean), "distance-matrix expectation")
    return mean


def _sample(D: np.ndarray, convention: SampleSpace) -> tuple[np.ndarray, Fraction]:
    """D's strict-upper-triangle entries, row by row, and their total weight:
    n^2/2 on the grid, whose n diagonal zeros add nothing, or n(n-1)/2."""
    if not isinstance(convention, SampleSpace):
        raise DomainError(f"convention must be a SampleSpace member, got {convention!r}")
    n = D.shape[0]
    grid = convention is SampleSpace.FULL_GRID
    if not grid and n < 2:
        raise DomainError("upper-triangle expectation needs n >= 2")
    return D[~np.tri(n, dtype=bool)], Fraction(n * (n if grid else n - 1), 2)


def _checked_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    A, B = validate_distance_matrix(a), validate_distance_matrix(b)
    if A.shape != B.shape:
        raise DomainError(f"order mismatch: {A.shape[0]} vs {B.shape[0]}")
    return A, B


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two distance matrices of the same order; exact
    for exact input.  Raises DomainError when a product overflows, or when
    the product of two nonzero entries underflows to 0."""
    A, B = _checked_pair(a, b)
    with np.errstate(over="ignore"):
        product = checked_entries(A * B, "Hadamard product")
    if ((product == 0) & (A != 0) & (B != 0)).any():
        raise DomainError("Hadamard product underflows to 0; rescale the data")
    return product


@dataclass(frozen=True)
class CorrelationResult:
    """Correlation of two distance matrices: ``rho`` is within O(N*u) of the
    exact value over N pairs, or None when either matrix is constant on them."""

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

    rho = cov(A, B) / sqrt(var(A) var(B)), with moments about an entry of
    the sample space (Chan, Golub & LeVeque 1983): the grid's diagonal 0 or
    the first upper-triangle entry.  rho is None exactly when a shifted
    matrix is all zeros, i.e. constant; otherwise var >= E(D^2)/N (Cauchy-
    Schwarz; N the sample size, n on the grid), so rounding moves rho by
    O(N*u), u = 2^-53.  Swapping A and B gives a bitwise equal result.
    Raises DomainError when a moment overflows or the variance product
    underflows (distances beyond about 1e77 or below about 1e-77).
    """
    (x, weight), (y, _) = (
        _sample(as_floats(D, "distance matrix"), convention) for D in _checked_pair(a, b)
    )
    if convention is SampleSpace.UPPER_TRIANGLE:
        x -= x[0]
        y -= y[0]
    with np.errstate(over="ignore", invalid="ignore"):
        e_x, e_y = x.sum() / weight, y.sum() / weight
        cov = (x * y).sum() / weight - e_x * e_y
        var_x = (x * x).sum() / weight - e_x * e_x
        var_y = (y * y).sum() / weight - e_y * e_y
        var_xy = var_x * var_y
    if not np.isfinite([cov, var_x, var_y, var_xy]).all():
        raise DomainError("distance-matrix moments overflow; rescale the data")
    if not (x.any() and y.any()):
        rho = None
    elif var_xy < sys.float_info.min:
        raise DomainError("distance-matrix moments underflow; rescale the data")
    else:
        rho = cov / math.sqrt(var_xy)
    return CorrelationResult(
        rho=rho, covariance=cov, variances=(var_x, var_y), convention=convention
    )


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
