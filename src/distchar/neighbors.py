"""Nearest-neighbor sets of a distance matrix, with explicit tie handling.

For n > 1, row j is a nearest neighbor of row i when d(i, j) equals the
smallest off-diagonal entry of row i.  Exact arithmetic has exact ties;
floating point needs a tolerance, supplied by ``TiePolicy``.  Duplicate rows
(distance 0) count as nearest neighbors by default; ``positive_only=True``
switches to the "smallest positive entry" variant, under which a row all of
whose distances are zero has no neighbors at all.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .coefficients import Coefficient, SquaredEuclidean
from .distance import build_many, validate_distance_matrix
from .errors import DomainError, require_integers

__all__ = [*_EXPORTS["neighbors"], "EXACT_TIES"]


@dataclass(frozen=True)
class TiePolicy:
    """Tolerance for recognizing tied distances.

    A distance d in row i ties the row minimum m when
    d <= m + max(absolute_tolerance, relative_tolerance * m).
    The default relative 1e-9 recognizes algebraically equal values computed
    by different float routes while keeping generic distinct values apart.
    Both tolerances zero gives exact comparison (use with rational builds).
    """

    relative_tolerance: float = 1e-9
    absolute_tolerance: float = 0.0

    def __post_init__(self) -> None:
        tolerances = (self.relative_tolerance, self.absolute_tolerance)
        if not all(isinstance(t, numbers.Real) and math.isfinite(t) and t >= 0
                   for t in tolerances):
            raise DomainError("tie tolerances must be finite and nonnegative")


EXACT_TIES = TiePolicy(relative_tolerance=0.0, absolute_tolerance=0.0)

@dataclass(frozen=True)
class NeighborSets:
    """Per-row nearest-neighbor index sets (0-based) plus their total count.

    Invariants checked on construction: each row's set lies in 0..n-1 minus
    the row and, with the default convention, is nonempty when n > 1 (hence
    n <= total <= n(n-1)).
    """

    order: int
    sets: tuple[frozenset[int], ...]
    positive_only: bool = False

    def __post_init__(self) -> None:
        n = self.order
        if len(self.sets) != n:
            raise DomainError("one neighbor set per row required")
        for i, s in enumerate(self.sets):
            if i in s or not all(0 <= j < n for j in s):
                raise DomainError(f"invalid neighbor set for row {i}: {sorted(s)}")
            if not self.positive_only and n > 1 and not s:
                raise DomainError(f"row {i} must have at least one neighbor")

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.sets)


def near_mask(D, tie: TiePolicy = TiePolicy(), positive_only: bool = False, bound=None):
    """Boolean mask, True at (..., i, j) when j is a nearest neighbor of row i.

    The one tie decision behind every neighbor set and score.  ``D`` is an
    n x n distance matrix, such as ``build`` returns, or a (..., n, n) stack
    of them, such as ``build_many`` yields; each row is decided on its own
    and the matrices are not re-checked.

    ``bound`` is for values known only within an error (``rob_minus``'s
    updates): (a, b, lo), per row, puts each entry within e = a + b / m of
    the true value, m being the row's least off-diagonal entry.  Then a
    candidate is in if D + e <= tie_bound(m' - e) and out if D - e >
    tie_bound(m' + e), m' being the row's least candidate, and the one
    candidate whose interval lies below every other's is in.  It returns
    that mask and which rows it decides: those with m - e > lo and every
    candidate in or out.
    """
    n = D.shape[-1]
    off = ~np.eye(n, dtype=bool)
    candidate = off & (D > 0) if positive_only else off
    if bound is None:
        # a row without candidates gets the largest entry; its mask stays empty
        m = D.min(axis=-1, where=candidate, initial=D.max(initial=0))
        return candidate & (D <= tie_bound(m, tie)[..., None])
    a, b, lo = bound
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = D.min(axis=-1, where=candidate, initial=np.inf)
        least = D.min(axis=-1, where=off, initial=np.inf) if positive_only else m
        e = a + b / least
        sure = candidate & (D + e[..., None] <= tie_bound(m - e, tie)[..., None])
        maybe = candidate & (D - e[..., None] <= tie_bound(m + e, tie)[..., None])
        first = candidate & (D - e[..., None] <= (m + e)[..., None])
        sure |= first & (first.sum(axis=-1) == 1)[..., None]
        return sure, (least - e > lo) & (sure == maybe).all(axis=-1)  # False where NaN


def tie_bound(m, tie: TiePolicy):
    """The tie bound of row minima ``m``: m + max(absolute_tolerance,
    relative_tolerance * m), or m where that slack is 0.  It is
    nondecreasing in m, also as computed: float rounding is monotone."""
    with np.errstate(over="ignore"):  # an infinite slack ties every candidate, as it should
        slack = np.maximum(tie.absolute_tolerance, tie.relative_tolerance * m)
        return np.where(slack == 0, m, m + slack)  # keep exact types exact


def nearest_sets(d, tie: TiePolicy = TiePolicy(), positive_only: bool = False) -> NeighborSets:
    """Nearest-neighbor sets of a distance matrix.

    ``positive_only=True`` restricts candidates to strictly positive
    distances, the variant in which duplicate rows are not neighbors.
    """
    near = near_mask(validate_distance_matrix(d), tie, positive_only)
    sets = tuple(frozenset(row.nonzero()[0].tolist()) for row in near)
    return NeighborSets(order=len(sets), sets=sets, positive_only=positive_only)


def near_total(sets: NeighborSets) -> int:
    """Sum of the per-row nearest-neighbor counts."""
    return sets.total


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the empirical search over n-row data matrices."""

    random_samples: int = 200
    random_cols: int = 2
    grid_extent: int = 3
    grid_limit: int = 20000
    include_probes: bool = True

    def __post_init__(self) -> None:
        require_integers(random_samples=self.random_samples, random_cols=self.random_cols,
                         grid_extent=self.grid_extent, grid_limit=self.grid_limit)
        if (self.random_samples < 0 or self.random_cols < 1 or self.grid_extent < 0
                or self.grid_limit < 0):
            raise DomainError("search budget needs random_samples >= 0, random_cols >= 1, "
                              "grid_extent >= 0 and grid_limit >= 0")


def achievable_near_totals(
    n: int,
    coefficient: Coefficient,
    budget: SearchBudget = SearchBudget(),
    seed: int = 0,
) -> set[int]:
    """Neighbor totals observed over a searched family of n-row matrices.

    This is an empirical search, not a characterization: the result is the
    set of distinct totals seen across random matrices, small 1-D integer
    grids, and structured probes (duplicate rows, evenly spaced points, and
    points with strictly growing gaps).  Probes and grids, then one seeded
    draw of uniform doubles in [0, 1) per random matrix,
    ``default_rng(seed).random((n, random_cols))``, go through ``build_many``
    as one stream: the result depends only on the arguments.  The draws are
    uniform rather than normal so that the CLI's list path reads the same
    doubles without numpy (``_pcg64``): numpy's normals come from its own
    ziggurat tables.  Every observed
    value lies in {n, ..., n(n-1)}.  With probes, n is at most 1024 (512 under L): the
    growing-gaps probe ends at 2^(n-1) - 1, and its distances must be finite.
    """
    require_integers(n=n)
    if n < 2:
        raise DomainError("search requires n >= 2")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    rows = 512 if isinstance(coefficient, SquaredEuclidean) else 1024
    if budget.include_probes and n > rows:
        raise DomainError(f"the search's probes need n <= {rows} rows, got {n}")
    rng = np.random.default_rng(seed)
    columns = []  # zeros, arange, integer grids, uniform draws: all finite
    if budget.include_probes:
        # all rows equal (total n(n-1)), evenly spaced, strictly growing gaps (total n)
        columns = [np.zeros(n), np.arange(n), np.cumsum([0.0] + [2.0**i for i in range(n - 1)])]
    if budget.grid_extent >= 1 and (budget.grid_extent + 1) ** n <= budget.grid_limit:
        # the total is invariant under row permutations: one grid per multiset
        columns = itertools.chain(columns, itertools.combinations_with_replacement(
            range(budget.grid_extent + 1), n))
    columns = (np.array(c, dtype=float).reshape(n, 1) for c in columns)
    draws = (rng.random((n, budget.random_cols)) for _ in range(budget.random_samples))
    return {total for D in build_many(coefficient, itertools.chain(columns, draws))
            for total in near_mask(D).sum(axis=(1, 2)).tolist()}
