"""The coefficient family: p-norms for p in [1, inf] and the squared-Euclidean
pseudo-coefficient L.

A coefficient assigns a nonnegative size to a row vector.  Every ``PNorm`` is
a true norm (homogeneous, subadditive, zero only at zero, insensitive to zero
entries, and normalized so that a single 1 has size 1).  ``SquaredEuclidean``
is L(v) = sum(v_i^2) = N_2(v)^2; it violates homogeneity and the triangle
inequality but is accepted everywhere a coefficient is, because distance
matrices and correlations built from it are still well defined.  Every
value comes from one row kernel, ``row_values``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import DomainError, p_norm_name

__all__ = list(_EXPORTS["coefficients"])


@dataclass(frozen=True)
class PNorm:
    """The p-norm N_p; ``p`` is a float in [1, inf], with ``math.inf`` allowed.

    p = inf is the genuine IEEE infinity, not a large float, so the max-norm
    code path is selected exactly.
    """

    p: float

    def __post_init__(self) -> None:
        p = self.p
        if not isinstance(p, numbers.Real) or math.isnan(p) or p < 1:
            raise DomainError(f"p-norm requires p >= 1 or p = inf, got {p!r}")
        object.__setattr__(self, "p", float(p))


@dataclass(frozen=True)
class SquaredEuclidean:
    """The pseudo-coefficient L(v) = sum(v_i^2).  Not a norm."""


Coefficient = PNorm | SquaredEuclidean


def is_true_norm(coefficient: Coefficient) -> bool:
    """True iff the coefficient satisfies all norm axioms (every p-norm does)."""
    if isinstance(coefficient, PNorm):
        return True
    if isinstance(coefficient, SquaredEuclidean):
        return False
    raise DomainError(f"not a coefficient: {coefficient!r}")


def parse_coefficient(text: str) -> Coefficient:
    """Parse the textual coefficient syntax: "L", or "p" and a float ("p3.5", "pinf").

    Case-insensitive, and blind to surrounding whitespace.  Raises DomainError
    on anything else, such as "p1_0" and "p 2", which ``float`` would read.
    """
    s = text.strip().lower()
    if s == "l":
        return SquaredEuclidean()
    try:
        p = float(s[1:]) if s.startswith("p") and "_" not in s and s.split() == [s] else math.nan
    except ValueError:
        p = math.nan
    if math.isnan(p):
        raise DomainError(f"unrecognized coefficient syntax: {text!r}")
    return PNorm(p)


def coefficient_name(coefficient: Coefficient) -> str:
    """Inverse of parse_coefficient, for reports and JSON provenance: "L" or
    ``errors.p_norm_name(p)``, each of which parse_coefficient reads back."""
    if isinstance(coefficient, SquaredEuclidean):
        return "L"
    return p_norm_name(coefficient.p)


def checked_entries(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` with every entry checked to be a finite real: the one test of
    exactness.  An object array of ints and Fractions passes through as exact;
    one with any other real entry, and bool/int/float arrays, become float64
    (an exact entry must fit a float, see ``as_floats``); others raise."""
    if arr.dtype == object:
        for entry in arr.flat:
            if not isinstance(entry, numbers.Real):
                raise DomainError(f"non-numeric entry {entry!r}")
        if all(isinstance(entry, numbers.Rational) for entry in arr.flat):
            return arr
        arr = as_floats(arr, what)
    elif arr.dtype.kind not in "biuf":
        raise DomainError(f"{what} entries must be real numbers, got dtype {arr.dtype}")
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    return arr


def as_floats(arr: np.ndarray, what: str) -> np.ndarray:
    """An array of real entries as float64; an exact entry must fit a float."""
    try:
        out = np.asarray(arr, dtype=float)
        if arr.dtype == object and ((out == 0) != (arr == 0)).any():
            raise OverflowError  # a nonzero entry rounded to 0.0
    except OverflowError:  # or an int or Fraction beyond the largest float
        raise DomainError(f"{what} has an exact entry outside the float range") from None
    return out


def _left_sum(terms: np.ndarray) -> np.ndarray:
    # not np.sum: its pairwise blocks would regroup terms after prepended zeros.
    # Reducing the outer axis of a C-ordered (k, R) array adds its rows in
    # order, but at R = 1 numpy would sum the one row pairwise.
    if terms.shape[0] == 1:
        return np.cumsum(terms, axis=1)[:, -1]
    return np.add.reduce(np.ascontiguousarray(terms.T), axis=0)


def row_values(coefficient: Coefficient, a: np.ndarray) -> np.ndarray:
    """The coefficient of every row of ``a``, a 2-D array of absolute values.

    Rows are sorted ascending and summed left to right, so results are
    bitwise independent of column order and of zero entries (they sort to
    the front and add exactly 0).  Object dtype is exact for p = 1, inf, L.
    A float value that overflows, or an L value that underflows to 0 from a
    nonzero term, raises DomainError.
    """
    exact = a.dtype == object
    pinf = is_true_norm(coefficient) and math.isinf(coefficient.p)
    if exact or not pinf:
        a = np.sort(a, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf -> NaN, raised below
        if not is_true_norm(coefficient):
            out = _left_sum(a * a)
        elif pinf:  # a selection: on floats one reduction gives the sort's bits, but
            # np.maximum may pick the other of two equal objects (Fraction(1), 1)
            out = a[:, -1] if exact else np.maximum.reduce(np.ascontiguousarray(a.T), axis=0)
        elif coefficient.p == 1.0:
            out = _left_sum(a)
        elif exact:
            raise DomainError("exact evaluation supports only p = 1, p = inf, and L")
        else:
            p = coefficient.p
            m = a[:, -1]
            scale = np.where(m > 0, m, 1.0)  # an all-zero row stays 0, not 0/0
            q = a / scale[:, None]
            if p == 2.0:  # numpy's ** takes 2 as square and 1/2 as sqrt
                out = m * _left_sum(q**p) ** (1.0 / p)
            else:  # libm's pow, with no SIMD dispatch, as Python's float ** calls it
                out = m * np.float_power(_left_sum(np.float_power(q, p)), 1.0 / p)
    if not exact and not np.isfinite(out).all():
        raise DomainError("coefficient value overflows the float range")
    if not exact and not is_true_norm(coefficient) and ((out == 0) & (a[:, -1] > 0)).any():
        raise DomainError("coefficient value underflows the float range")
    return out


def evaluate(coefficient: Coefficient, v) -> float:
    """Evaluate the coefficient on a row vector.

    Accepts any 1-D array-like of finite reals.  An object-dtype vector of
    ints and ``fractions.Fraction`` is evaluated in exact arithmetic, which
    is possible for p = 1, p = inf and L; other p require floats.

    Finite p > 1 uses the scaled form m * (sum((|w_i|/m)^p))^(1/p) with
    m = max|w_i|, so large entries and large p cannot overflow.  Terms are
    sorted ascending and summed left to right, so the result is bitwise
    independent of entry order and of zero entries, and bitwise equal to the
    matching ``build`` entry.  p = inf is exact; for k entries, p = 1, 2 and L
    are within 2k + 4 ulp of scipy's cdist, p = 3.5 within 2k + 16 (tested).
    General p (other than 1, 2 and inf) takes both powers, (t/m)^p and the
    root, from libm's ``pow`` through ``np.float_power``, a plain loop with
    no SIMD dispatch, as Python's float ``**`` does.  So no value depends
    on the SIMD level numpy dispatches to (tested under
    ``NPY_DISABLE_CPU_FEATURES``); general p's last bits are libm's.
    An overflowing value, or an L value whose nonzero terms all underflow
    to 0, raises DomainError.
    """
    arr = np.asarray(v)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("coefficient argument must be a nonempty 1-D vector")
    arr = checked_entries(arr, "vector")
    return row_values(coefficient, np.abs(arr)[None]).tolist()[0]
