"""Distance matrices and the data-matrix manipulations their invariances
rest on: constant-column augmentation, row removal, column removal, and row
permutation.

The distance matrix of an n x k data matrix X under a coefficient N has
entry (i, j) equal to N(x(j) - x(i)).  It is symmetric with zero diagonal and
nonnegative entries.  Symmetry is exact: each pair is evaluated once, and
``evaluate`` agrees, as |a - b| = |b - a| and every row is sorted before summing.
"""

from __future__ import annotations

import itertools
import numbers

import numpy as np

from . import _EXPORTS
from .coefficients import Coefficient, checked_entries, row_values
from .errors import DomainError, require_integers

__all__ = list(_EXPORTS["distance"])

# build_many's bounds.  A stack of B (n, k) matrices holds at most
# _STACK_ENTRIES distances (B n^2) and row-pass terms (B n k), or one matrix.
# A tile of it holds at most _TILE_TERMS terms, or one row of every matrix: a
# process's first 300x16 p2 build took 13, 12 and 19 ms at tiles of 2**13,
# 2**14 and 2**15 terms, and 25 ms at one whole row per call
_STACK_ENTRIES = 2**20
_TILE_TERMS = 2**14


def as_data_matrix(x) -> np.ndarray:
    """Validate and return a data matrix: 2-D, n >= 1, k >= 1, finite entries.

    Object-dtype input (rows of ints / fractions.Fraction) is passed through
    for exact-arithmetic builds; everything else becomes float64.
    """
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise DomainError(f"data matrix must be 2-D, got shape {arr.shape}")
    n, k = arr.shape
    if n < 1 or k < 1:
        raise DomainError(f"data matrix needs at least one row and one column, got {n}x{k}")
    return checked_entries(arr, "data")


def build(coefficient: Coefficient, x) -> np.ndarray:
    """Distance matrix of ``x`` under ``coefficient``: ``build_many`` on one
    matrix.  Entry (i, j) is bitwise ``evaluate(coefficient, x(j) - x(i))``,
    so symmetry, the zero diagonal and invariance under column order and
    constant columns are exact; object-dtype (rational) input is exact for
    p = 1, inf and L.  An overflowing difference or distance raises DomainError.
    """
    return next(build_many(coefficient, [as_data_matrix(x)]))[0]


def build_many(coefficient: Coefficient, matrices):
    """C-contiguous (B, n, n) distance matrices of an iterable of valid data
    matrices (not re-checked), in order: the one pairwise kernel, ``_tiled``
    with the row function ``row_values`` (looked up at each call), on runs of
    one shape stacked as one array up to the ``_STACK_ENTRIES`` bound."""
    for (n, k), run in itertools.groupby(matrices, key=np.shape):
        per_stack = max(1, _STACK_ENTRIES // (n * max(n, k)))
        for first in run:  # no stack is held while the next one is stacked
            yield _tiled(lambda terms: row_values(coefficient, terms),
                         np.array([first, *itertools.islice(run, per_stack - 1)]))


def _tiled(values, xs: np.ndarray) -> np.ndarray:
    """The (B, n, n) values of every pair of rows of a (B, n, k) stack: the
    row function ``values`` maps (m, k) terms |x_lc - x_ic| to m values, one
    call per tile, in row order.  A tile is rows i..i+r-1 of every matrix
    against columns i..n-1: at most ``_TILE_TERMS`` terms, or one row; the
    part right of its diagonal block is mirrored below it, so each pair is
    evaluated once, bitwise: IEEE subtraction is exactly antisymmetric and
    ints and Fractions exact.  The diagonal is evaluated: zeros keep their
    type.  ``row_values`` refuses the infinite term of an overflowing
    difference; ``robustness._second`` never sees one: X's pinf build raises."""
    B, n, k = xs.shape
    D = np.empty((B, n, n), dtype=xs.dtype)
    i = 0
    with np.errstate(over="ignore"):
        while i < n:
            r = min(n - i, max(1, _TILE_TERMS // (B * (n - i) * k)))
            terms = np.abs(xs[:, None, i:] - xs[:, i:i + r, None]).reshape(-1, k)
            D[:, i:i + r, i:] = values(terms).reshape(B, r, n - i)
            D[:, i + r:, i:i + r] = D[:, i:i + r, i + r:].transpose(0, 2, 1)
            i += r
    return D


def validate_distance_matrix(d) -> np.ndarray:
    """Square with at least one row, exactly symmetric (floats bit for bit, as
    ``build`` mirrors them), zero diagonal, finite nonnegative real entries,
    or DomainError."""
    arr = checked_entries(np.asarray(d), "distance matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"distance matrix must be square, got shape {arr.shape}")
    if arr.size == 0:
        raise DomainError("distance matrix needs at least one row")
    bits = arr if arr.dtype == object else arr.view(np.uint64)
    if not (bits == bits.T).all():
        raise DomainError("distance matrix must be symmetric")
    if not (np.diagonal(arr) == 0).all():
        raise DomainError("distance matrix must have a zero diagonal")
    if not (arr >= 0).all():
        raise DomainError("distance matrix entries must be nonnegative")
    return arr


def augment_constant_columns(x, constants) -> np.ndarray:
    """Append one constant column per entry of ``constants``.

    Appending constant columns never changes the distance matrix: the
    within-column differences are zero and zero entries never contribute.
    An exact ``x`` stays exact: float constants enter as Fractions.
    """
    X = as_data_matrix(x)
    try:
        row = np.array(list(constants), dtype=X.dtype)
    except (TypeError, ValueError, OverflowError):  # not iterable, or not all numbers
        raise DomainError(f"constants must be an iterable of reals, got {constants!r}") from None
    row = checked_entries(row, "constant-column")
    if row.dtype != X.dtype:  # float constants for an exact x
        from fractions import Fraction  # not imported by the CLI's matrix paths

        row = np.array([Fraction(v) for v in row.tolist()], dtype=object)
    return np.hstack([X, np.tile(row, (X.shape[0], 1))])


def remove_row(x, i: int) -> np.ndarray:
    """Data matrix without row ``i`` (0-based).  Requires n >= 2.

    Building a distance matrix commutes with this: the result's distance
    matrix is the original with row and column ``i`` deleted.
    """
    return _remove(x, i, axis=0)


def remove_column(x, j: int) -> np.ndarray:
    """Data matrix without column ``j`` (0-based).  Requires k >= 2."""
    return _remove(x, j, axis=1)


def _remove(x, index: int, axis: int) -> np.ndarray:
    X = as_data_matrix(x)
    what, size = ("row", "column")[axis], X.shape[axis]
    if size < 2:
        raise DomainError(f"cannot remove the only {what}")
    require_integers(**{f"{what} index": index})
    if not 0 <= index < size:
        raise DomainError(f"{what} index {index} out of range for {size} {what}s")
    return np.delete(X, int(index), axis=axis)


def permute_rows(x, perm) -> np.ndarray:
    """Reorder rows so that row i of the result is row perm[i] of ``x``.

    ``perm`` must be a bijection on 0..n-1.  Distance matrices transform by
    conjugation: build(c, permute_rows(x, s)) = P build(c, x) P^T.
    """
    X = as_data_matrix(x)
    n = X.shape[0]
    order = list(perm) if np.iterable(perm) else [None]  # [None] fails the check below
    if not all(isinstance(p, numbers.Integral) for p in order) or sorted(order) != list(range(n)):
        raise DomainError(f"not a permutation of 0..{n - 1}: {perm!r}")
    return X[[int(p) for p in order]]
