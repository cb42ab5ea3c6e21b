"""Robustness of nearest-neighbor structure under column changes.

Two scores, both exact fractions:

* ``rob_plus``: one column is appended.  The score is the fraction of
  nearest-neighbor relations of X that survive in the extended matrix,
  with denominator the neighbor total of X.
* ``rob_minus``: leave-one-column-out.  The score is 1 minus the fraction of
  (row, removed column) pairs whose neighbor set changes, with denominator
  n*k.

``adversarial_augment`` realizes the guarantee that a single appended column
of the form t * (1, 2, 4, ..., 2^(n-1)) can always force every row down to a
unique nearest neighbor, certifying rob_plus <= n / near_total(X).  The
power-of-two spacing makes all pairwise gaps |2^j - 2^i| distinct, which is
what breaks every tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _EXPORTS
from .coefficients import Coefficient, PNorm
from .distance import as_data_matrix, build
from .errors import DomainError, require_integers
from .neighbors import TiePolicy, near_mask

__all__ = list(_EXPORTS["robustness"])


@dataclass(frozen=True)
class RationalScore:
    """An exact score numerator/denominator in [0, 1].

    The denominator is the defining count (neighbor total of X for rob_plus,
    n*k for rob_minus, row count for concordance) and is not reduced; use
    ``as_fraction`` for normalized comparisons.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise DomainError("score denominator must be positive")
        if not 0 <= self.numerator <= self.denominator:
            raise DomainError(
                f"score {self.numerator}/{self.denominator} outside [0, 1]"
            )

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def _one_column_extension(x, x_aug) -> tuple[np.ndarray, np.ndarray]:
    X = as_data_matrix(x)
    Xp = as_data_matrix(x_aug)
    n, k = X.shape
    if n < 2:
        raise DomainError("robustness needs n > 1 so that neighbors exist")
    if Xp.shape != (n, k + 1):
        raise DomainError(
            f"augmented matrix must be {n}x{k + 1}, got {Xp.shape[0]}x{Xp.shape[1]}"
        )
    if not (Xp[:, :k] == X).all():
        raise DomainError("augmented matrix must agree with x on its first columns")
    return X, Xp


def rob_plus(
    coefficient: Coefficient,
    x,
    x_aug,
    tie: TiePolicy = TiePolicy(),
    positive_only: bool = False,
) -> RationalScore:
    """Fraction of neighbor relations of ``x`` preserved in ``x_aug``.

    ``x_aug`` must be ``x`` with exactly one appended column.  The numerator
    counts, over rows i, the indices that are nearest neighbors of i in both
    matrices; the denominator is the neighbor total of ``x``.
    """
    X, Xp = _one_column_extension(x, x_aug)
    base = near_mask(build(coefficient, X), tie, positive_only)
    aug = near_mask(build(coefficient, Xp), tie, positive_only)
    return RationalScore(int((base & aug).sum()), int(base.sum()))


def rob_minus(
    coefficient: Coefficient,
    x,
    tie: TiePolicy = TiePolicy(),
    positive_only: bool = False,
) -> RationalScore:
    """Leave-one-column-out robustness 1 - (sum of change counts)/(n*k).

    For each column j, count the rows whose nearest-neighbor set changes when
    column j is removed.  Requires n > 1 and k > 1.
    """
    X = as_data_matrix(x)
    n, k = X.shape
    if n < 2:
        raise DomainError("robustness needs n > 1 so that neighbors exist")
    if k < 2:
        raise DomainError("leave-one-column-out robustness needs k > 1")
    base = near_mask(build(coefficient, X), tie, positive_only)
    changed = 0
    for j in range(k):
        reduced = near_mask(build(coefficient, np.delete(X, j, axis=1)), tie, positive_only)
        changed += int((reduced != base).any(axis=1).sum())
    return RationalScore(n * k - changed, n * k)


def spacing_values(n: int) -> np.ndarray:
    """The spacing matrix u with u[i, j] = |2^(j+1) - 2^(i+1)| (0-based).

    All off-diagonal values over unordered pairs are pairwise distinct: two
    equal values would share both their lowest and highest powers of two.
    These are twice the gaps of the column ``adversarial_augment`` appends,
    whose entries are 2^i rather than 2^(i+1).  Python integers are
    arbitrary precision, so any n is exact.
    """
    require_integers(n=n)
    if n < 2:
        raise DomainError("spacing values need n >= 2")
    powers = np.array([2 ** (i + 1) for i in range(n)], dtype=object)
    return np.abs(powers[None, :] - powers[:, None])


@dataclass(frozen=True)
class AdversarialResult:
    """Outcome of the tie-breaking augmentation.

    ``augmented`` agrees with the input on its first k columns and appends
    the column t * spacing; ``achieved_near_total`` equals the row count n,
    i.e. every row ends up with a unique nearest neighbor.
    """

    augmented: np.ndarray
    t: float
    spacing: tuple[int, ...]
    achieved_near_total: int


def adversarial_augment(
    coefficient: Coefficient,
    x,
    tie: TiePolicy = TiePolicy(),
) -> AdversarialResult:
    """Append a column t * (1, 2, 4, ...) that gives every row a unique neighbor.

    Defined for p-norms and 2 <= n <= 1024 rows.  The scale t is found by
    verified search: start at t = 1 and double (p = inf, where the new column
    must dominate), or for finite p first halve down to 2^-199 (a small
    column merely breaks ties) and then double (a large column dominates,
    which always works), until the recomputed neighbor total equals n.
    Doubling stops where the largest column entry t * 2^(n-1) or a distance
    would overflow.  That certifies rob_plus(x, augmented) <=
    n / near_total(x) by counting: with b_i, a_i the neighbor sets of row i
    before and after, the kept relations sum |b_i & a_i| <= sum |a_i| = n.
    """
    if not isinstance(coefficient, PNorm):
        raise DomainError("the tie-breaking augmentation is defined for p-norms only")
    X = as_data_matrix(x)
    if X.dtype == object:
        X = X.astype(float)
    n, _ = X.shape
    if n < 2:
        raise DomainError("augmentation needs n > 1 so that neighbors exist")
    if n > 1024:
        raise DomainError("augmentation needs n <= 1024: the largest column entry, "
                          "2^(n-1), must be a finite float")

    spacing = tuple(2**i for i in range(n))
    column = np.array(spacing, dtype=float)
    scales = [2.0**i for i in range(1025 - n)]  # t * 2^(n-1) <= 2^1023, a finite float
    if not math.isinf(coefficient.p):
        scales = [2.0**-i for i in range(200)] + scales[1:]
    for t in scales:
        candidate = np.hstack([X, (t * column).reshape(n, 1)])
        try:
            D = build(coefficient, candidate)
        except DomainError:  # the distances overflow, as they would at any larger t
            break
        if near_mask(D, tie).sum() == n:
            return AdversarialResult(candidate, t, spacing, achieved_near_total=n)
    raise DomainError("no scale t found: every t tried left a tie or overflowed")
