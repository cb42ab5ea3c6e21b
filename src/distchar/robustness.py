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
from . import distance
from .coefficients import Coefficient, PNorm, as_floats, coefficient_name, row_values
from .distance import as_data_matrix, build, build_many
from .errors import UPDATED, DomainError, ladder, require_integers, update_bound
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
    column j is removed.  Requires n > 1 and k > 1.  X is built once.  Under
    p1, p2, pinf and L each leave-one-out matrix is derived from X's matrix
    D by an O(n^2) update u (``_updates``): D - t under p1 and L, t being
    column j's term |d| or d*d (d = x_ij - x_lj), sqrt(D*D - d*d) under p2,
    and under pinf a pair's second largest term where column j's is its
    largest.  Its neighbor sets are decided from u within a bound e >= |u -
    r|, r being the sorted kernel's rebuilt value, so that every mask, score
    and error is the rebuild's.  With h = 2^-53 and g(m) = m h / (1 - m h):

    * Where ``errors.update_bound`` is None (pinf always, its second terms
      selected by ``_second`` in one more ``distance._tiled`` pass; p1 and L
      on integer-valued data whose column spans, or their squares, sum to at
      most 2^53), every term and partial sum is exact or a selected term:
      e = 0.  So it is on exact input (ints and Fractions, under p1, pinf
      and L), whose arithmetic is exact; ``update_bound`` is not asked.
    * p1 and L elsewhere.  D and r are recursive sums of the same float terms
      (|d|, or the rounded d*d), k and k - 1 of them, so with S and S_j their
      exact sums, |D - S| <= g(k-1) S and |r - S_j| <= g(k-2) S_j (Higham,
      *Accuracy and Stability of Numerical Algorithms*, 2nd ed., eq. 4.4); a
      subnormal sum is exact, so this holds without underflow.  As S - t =
      S_j, and the subtraction rounds once on |D - t| <= D, |u - r| <= 2k h D
      / (1 - 2k h).
    * p2.  On m <= k terms of largest term M the kernel rounds each t / M
      and its square once, sums them (g(m - 1)), and rounds the square root
      and the product by M once each: its relative error is at most eps =
      (k/2 + 4) h / (1 - k h), as the sum is at least 1 and quotients below
      2^-1022 change it by less than 2^-1070.  With R^2 = D's exact square
      less d*d, v = fl(fl(D*D) - fl(d*d)) is within E = 3 (eps + h) D^2 of
      R^2 while D*D is finite and at least 2^-960, so u = fl(sqrt v) > 0
      has |u - r| <= (1 + 2h) ((h + eps) u + (1 + eps) E / u); then R
      exceeds u - e, and r is a normal float where u - e > 2^-480.

    Elsewhere ``errors.update_bound`` gives e for a whole row: a + b / m, a =
    c1 t and b = c2 t^2, where t is the row's largest distance and m its
    least off-diagonal update (under p2 each u <= t (1 + 2h) and u >= m);
    the factor 1.01 in c1 and c2 covers the rounding of e itself.  Where c1
    t rounds to 0 under p1 and L, t is below 2^-1023, and every partial sum,
    below 2^-1021, is exact, as is u.  ``neighbors.near_mask`` decides each
    row from the intervals [u - e, u + e], which hold r as computed too:
    rounding is monotone and r is a float.  The row's minimum lies in [m -
    e, m + e] and the tie bound (``neighbors.tie_bound``) is nondecreasing
    in it, so a candidate is in if u + e <= bound(m - e) and out if u - e >
    bound(m + e); the one candidate whose interval lies below every other's
    is the minimum, and in.  A row is at risk where m - e <= lo (0, or
    2^-480 under p2), which covers a rebuilt 0 (L's underflow, and
    positivity under ``positive_only``) and a negative v, or where t >=
    2^1022 (2^511 under p2), where the rebuild or D*D may overflow.  A row
    at risk or left undecided is recomputed by the kernel, in calls of at
    most ``distance._TILE_TERMS`` terms or one row, whose error, if it
    raises, is the rebuild's, and whose values replace the row's updates; a
    matrix with more than half its rows so is rebuilt.  Other p go through
    ``build_many`` in bounded stacks.
    """
    X = as_data_matrix(x)
    n, k = X.shape
    if n < 2:
        raise DomainError("robustness needs n > 1 so that neighbors exist")
    if k < 2:
        raise DomainError("leave-one-column-out robustness needs k > 1")
    name = coefficient_name(coefficient)
    updated = name in UPDATED
    bound = update_bound(name, X.T.tolist()) if updated and X.dtype != object else None
    D = build(coefficient, X)
    base = near_mask(D, tie, positive_only)
    if updated:
        masks = _leave_one_out_masks(coefficient, name, X, D, bound, tie, positive_only)
    else:
        matrices = build_many(coefficient, (np.delete(X, j, axis=1) for j in range(k)))
        masks = (near_mask(M, tie, positive_only) for M in matrices)
    changed = sum(int((mask != base).any(axis=-1).sum()) for mask in masks)
    return RationalScore(n * k - changed, n * k)


def _leave_one_out_masks(coefficient: Coefficient, name: str, X: np.ndarray, D: np.ndarray,
                         bound, tie: TiePolicy, positive_only: bool):
    """The near masks of X without column j, for each j, from X's matrix D
    under ``name`` (in ``errors.UPDATED``), in (b, n, n) blocks of at most
    ``distance._STACK_ENTRIES`` entries: each block's updates (``_updates``)
    decided by ``near_mask`` within ``bound`` (``update_bound``'s, or None
    where they are exact), its undecided rows recomputed or its matrix
    rebuilt as ``rob_minus`` says."""
    n, k = X.shape
    if bound is not None:
        c1, c2, lo, hi = bound
        top = D.max(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.where(top < hi, c1 * top, np.inf), c2 * top * top, lo
    per_block = max(1, distance._STACK_ENTRIES // (n * n))
    per_call = max(1, distance._TILE_TERMS // (n * (k - 1)))  # rows per recompute
    second = distance._tiled(_second, X[None])[0] if name == "pinf" else None
    for j in range(0, k, per_block):
        U = _updates(name, D, second, X[:, j:j + per_block].T)
        if bound is None:
            yield near_mask(U, tie, positive_only)
            continue
        mask, decided = near_mask(U, tie, positive_only, bound)
        for b in np.flatnonzero(~decided.all(axis=1)):
            rows = np.flatnonzero(~decided[b])
            Xj = np.delete(X, j + b, axis=1)
            if 2 * len(rows) > n:
                mask[b] = near_mask(build(coefficient, Xj), tie, positive_only)
                continue
            try:
                with np.errstate(over="ignore"):  # an infinite difference makes it raise
                    for part in np.split(rows, range(per_call, len(rows), per_call)):
                        U[b, part] = row_values(coefficient, np.abs(
                            Xj[part, None] - Xj).reshape(-1, k - 1)).reshape(len(part), n)
            except DomainError:
                build(coefficient, Xj)  # raises the rebuild's own error
                raise
            mask[b, rows] = near_mask(U[b], tie, positive_only)[rows]
        yield mask


def _second(terms: np.ndarray) -> np.ndarray:
    """Each row's second largest of its k >= 2 terms: pinf's update where the
    column's term is the row's largest (its distance)."""
    return np.sort(terms, axis=1)[:, -2]


def _updates(name: str, D: np.ndarray, second, columns: np.ndarray) -> np.ndarray:
    """The updates of D without each of the (b, n) ``columns`` (see
    ``rob_minus``); NaN under p2 where D*D - d*d is negative or overflows."""
    T = np.abs(columns[:, :, None] - columns[:, None, :])
    with np.errstate(over="ignore", invalid="ignore"):
        if name == "pinf":
            return np.where(T == D, second, D)
        if name == "p2":
            return np.sqrt(D * D - T * T)
        return D - (T * T if name == "L" else T)


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
    verified search over ``errors.ladder``: start at t = 1 and double (p =
    inf, where the new column must dominate), or for finite p first halve
    down to 2^-199 (a small column merely breaks ties) and then double (a
    large column dominates, which always works), until the recomputed
    neighbor total equals n.  Doubling stops where the largest column entry
    t * 2^(n-1) or a distance would overflow.  That certifies rob_plus(x,
    augmented) <= n / near_total(x) by counting: with b_i, a_i the neighbor
    sets of row i before and after, the kept relations sum |b_i & a_i| <=
    sum |a_i| = n.
    """
    if not isinstance(coefficient, PNorm):
        raise DomainError("the tie-breaking augmentation is defined for p-norms only")
    X = as_floats(as_data_matrix(x), "data")
    n, _ = X.shape
    if n < 2:
        raise DomainError("augmentation needs n > 1 so that neighbors exist")
    if n > 1024:
        raise DomainError("augmentation needs n <= 1024: the largest column entry, "
                          "2^(n-1), must be a finite float")

    spacing = tuple(2**i for i in range(n))
    column = np.array(spacing, dtype=float)
    for t in ladder(n, not math.isinf(coefficient.p)):
        candidate = np.hstack([X, (t * column).reshape(n, 1)])
        try:
            D = build(coefficient, candidate)
        except DomainError:  # the distances overflow, as they would at any larger t
            break
        if near_mask(D, tie).sum() == n:
            return AdversarialResult(candidate, t, spacing, achieved_near_total=n)
    raise DomainError("no scale t found: every t tried left a tie or overflowed")
