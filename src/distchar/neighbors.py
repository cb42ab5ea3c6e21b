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
from .coefficients import Coefficient
from .distance import build, validate_distance_matrix
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
        if not all(math.isfinite(t) and t >= 0 for t in tolerances):
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


def near_mask(D, tie: TiePolicy = TiePolicy(), positive_only: bool = False) -> np.ndarray:
    """Boolean n x n mask, True at (i, j) when j is a nearest neighbor of row i.

    The one tie decision behind every neighbor set and score.  ``D`` must be
    a valid distance matrix, such as ``build`` returns; it is not re-checked.
    """
    n = D.shape[0]
    candidate = ~np.eye(n, dtype=bool)
    if positive_only:
        candidate &= D > 0
    # a row without candidates gets the matrix maximum; its mask stays empty
    m = D.min(axis=1, where=candidate, initial=D.max(initial=0))
    with np.errstate(over="ignore"):  # an infinite slack ties every candidate, as it should
        slack = np.maximum(tie.absolute_tolerance, tie.relative_tolerance * m)
        bound = np.where(slack == 0, m, m + slack)  # keep exact types exact
    return candidate & (D <= bound[:, None])


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
    points with strictly growing gaps).  Deterministic for a given seed.
    Every observed value lies in {n, ..., n(n-1)}.
    """
    require_integers(n=n)
    if n < 2:
        raise DomainError("search requires n >= 2")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    totals: set[int] = set()

    def observe(x) -> None:
        totals.add(int(near_mask(build(coefficient, x)).sum()))

    if budget.include_probes:
        observe(np.zeros((n, 1)))          # all rows equal: total n(n-1)
        observe(np.arange(n, dtype=float).reshape(n, 1))
        spaced = np.cumsum([0.0] + [2.0**i for i in range(n - 1)])
        observe(spaced.reshape(n, 1))      # strictly growing gaps: total n

    if budget.grid_extent >= 1 and (budget.grid_extent + 1) ** n <= budget.grid_limit:
        # the total is invariant under row permutations: one grid per multiset
        for values in itertools.combinations_with_replacement(
                range(budget.grid_extent + 1), n):
            observe(np.array(values, dtype=float).reshape(n, 1))

    for _ in range(budget.random_samples):
        observe(rng.standard_normal((n, budget.random_cols)))

    return totals
