"""Distance matrices and the data-matrix manipulations their invariances
rest on: constant-column augmentation, row removal, column removal, and row
permutation.

The distance matrix of an n x k data matrix X under a coefficient N has
entry (i, j) equal to N(x(j) - x(i)).  It is symmetric with zero diagonal and
nonnegative entries; symmetry is exact in floating point because
|a - b| = |b - a| and the coefficient kernel sorts each row before summing.
"""

from __future__ import annotations

import numpy as np

from .coefficients import Coefficient, checked_entries, row_values
from .errors import DomainError

__all__ = [
    "as_data_matrix",
    "augment_constant_columns",
    "build",
    "permute_rows",
    "remove_column",
    "remove_row",
    "validate_distance_matrix",
]


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
    """Distance matrix of ``x`` under ``coefficient``, one row at a time.

    Entry (i, j) is bitwise ``evaluate(coefficient, x(j) - x(i))`` (sorted
    ascending, summed left to right), so symmetry, the zero diagonal and
    invariance under column order and constant columns are exact.  With
    object-dtype (rational) input the entries are exact for p = 1, p = inf
    and L.  An overflowing difference or distance raises DomainError.
    """
    X = as_data_matrix(x)
    n = X.shape[0]
    D = np.empty((n, n), dtype=X.dtype)
    with np.errstate(over="ignore"):  # an infinite difference makes row_values raise
        for i in range(n):
            D[i] = row_values(coefficient, np.abs(X - X[i]))
    return D


def validate_distance_matrix(d) -> np.ndarray:
    """Check the distance-matrix invariants: square, symmetric (exactly),
    zero diagonal, finite nonnegative entries."""
    arr = checked_entries(np.asarray(d), "distance matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"distance matrix must be square, got shape {arr.shape}")
    if not (arr == arr.T).all():
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
    """
    X = as_data_matrix(x)
    row = checked_entries(np.array(list(constants), dtype=X.dtype), "constant-column")
    return np.hstack([X, np.tile(row, (X.shape[0], 1))])


def remove_row(x, i: int) -> np.ndarray:
    """Data matrix without row ``i`` (0-based).  Requires n >= 2.

    Building a distance matrix commutes with this: the result's distance
    matrix is the original with row and column ``i`` deleted.
    """
    X = as_data_matrix(x)
    n = X.shape[0]
    if n < 2:
        raise DomainError("cannot remove the only row")
    if not 0 <= i < n:
        raise DomainError(f"row index {i} out of range for {n} rows")
    return np.delete(X, i, axis=0)


def remove_column(x, j: int) -> np.ndarray:
    """Data matrix without column ``j`` (0-based).  Requires k >= 2."""
    X = as_data_matrix(x)
    k = X.shape[1]
    if k < 2:
        raise DomainError("cannot remove the only column")
    if not 0 <= j < k:
        raise DomainError(f"column index {j} out of range for {k} columns")
    return np.delete(X, j, axis=1)


def permute_rows(x, perm) -> np.ndarray:
    """Reorder rows so that row i of the result is row perm[i] of ``x``.

    ``perm`` must be a bijection on 0..n-1.  Distance matrices transform by
    conjugation: build(c, permute_rows(x, s)) = P build(c, x) P^T.
    """
    X = as_data_matrix(x)
    n = X.shape[0]
    order = [int(p) for p in perm]
    if sorted(order) != list(range(n)):
        raise DomainError(f"not a permutation of 0..{n - 1}: {list(perm)!r}")
    return X[order]
