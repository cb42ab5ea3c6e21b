"""The exception type and the checks shared across the package: of integer
arguments, and of leave-one-out updates, exact or within an error bound;
p-norm names; and the scale ladder both tie-breaking augmentations iterate."""

import math
import numbers

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class DomainError(ValueError):
    """An operation was invoked outside its mathematical domain.

    Raised for malformed inputs (empty vectors, non-finite entries, shape
    mismatches) and for parameter values the underlying definitions do not
    cover (p < 1, removing the only column, and so on).
    """


def require_integers(**named) -> None:
    """Raise DomainError unless every named value is an integer (a count)."""
    for name, value in named.items():
        if not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")


def p_norm_name(p: float) -> str:
    """N_p's one name: "pinf", "p" and the integer for an integer p, else "p"
    and ``repr(p)``, the shortest decimal that ``float`` reads back as p."""
    return "pinf" if p == math.inf else f"p{int(p) if p == int(p) else p!r}"


UPDATED = ("p1", "p2", "pinf", "L")  # the names with one-column updates


def update_bound(name: str, columns) -> tuple[float, float, float, float] | None:
    """The error bound of leave-one-out updates of a distance matrix under
    the coefficient named ``name`` (``coefficient_name``'s exact spelling,
    one of ``UPDATED``), for the data matrix whose float ``columns`` are
    given: None where the updates are bitwise the rebuild, else (c1, c2,
    lo, hi), proved in ``robustness.rob_minus``.

    An update derives the matrix without column j from the matrix at hand:
    removing column j's terms, |x_ij - x_lj| under p1 and (x_ij - x_lj)^2
    under L, sqrt(D*D - (x_ij - x_lj)^2) under p2, or under pinf taking a
    pair's second largest term where column j's is its largest.  pinf is
    always exact: its values are terms, selected exactly.  p1 and L are
    exact when every entry is integer-valued and the column spans, span_j =
    max - min of column j, satisfy sum(span_j) <= 2^53 under p1 or
    sum(span_j^2) <= 2^53 under L.  Then each term and each partial sum of
    a pair's terms, in any order, is an integer of at most 2^53, which is a
    float: every difference, product, sum and update is exact, as is the
    rebuild's sorted sum.  p2 never is.

    Elsewhere, in a row whose distances peak at t < hi, each update of an
    n x k matrix is within e = a + b / m of the rebuilt value, a = c1 * t
    and b = c2 * t * t, m being the row's least off-diagonal update, unless
    m - e <= lo; then, or where t >= hi, the row is at risk.  Beyond k =
    2^33 every row is at risk.  Any other name raises DomainError: general
    p (p1.0000001 too) has no one-column update.
    """
    if name not in UPDATED:
        raise DomainError(f"no one-column update under {name!r}")
    if name == "pinf":
        return None
    columns = list(columns)
    if name != "p2":
        total = 0
        for column in columns:
            if not all(map(float.is_integer, column)):
                break
            span = int(max(column)) - int(min(column))  # exact: no float rounding
            total += span if name == "p1" else span * span
        else:  # every column integer-valued
            if total <= 2**53:
                return None
    k, h = len(columns), 2.0**-53
    if k * h > 2.0**-20:
        return math.inf, math.inf, 0.0, 0.0
    if name == "p2":
        eps = (k / 2 + 4) * h / (1 - k * h)
        return 1.01 * (h + eps), 3.03 * (1 + eps) * (eps + h), 2.0**-480, 2.0**511
    return 1.01 * 2 * k * h / (1 - 2 * k * h), 0.0, 0.0, 2.0**1022


def ladder(n: int, finite: bool) -> list[float]:
    """The scales t that the tie-breaking augmentation of n rows (2 <= n <=
    1024) tries, in order: under a finite p (``finite``) 1, 1/2, ..., 2^-199,
    then 2, 4, ... up to 2^(1024 - n); under p = inf the doublings from 1
    alone.  The largest column entry, t * 2^(n-1), is then at most 2^1023, a
    finite float."""
    doublings = [2.0**i for i in range(1025 - n)]
    return [2.0**-i for i in range(200)] + doublings[1:] if finite else doublings
