"""The list path: the CLI's small ``near``, ``distmat``, ``rob-plus``,
``rob-minus``, ``concord``, ``corr`` and ``adversarial`` jobs computed on
Python lists, so that the process never imports numpy.

Every value is bitwise the array path's.  ``_KERNELS`` gives
``coefficients.row_values``' bits for p1, p2, pinf and L: terms sorted
ascending and added one after another (never ``sum()``, which compensates
from Python 3.12), p2 as m * sqrt(sum((t/m) * (t/m))).  ``_near_sets`` is
``neighbors.near_mask``'s rule.  ``_sum`` is numpy's ``x.sum()`` of a
float64 vector, which ``matrix_correlation`` takes of every moment.  General
p keeps the array path: its powers go through numpy's ``**``, whose bits
depend on the SIMD level numpy dispatches to.  An L value whose nonzero
terms all underflow to 0 raises, as ``row_values`` does.

``_distances`` is the one entry for a build.  Under p1 and pinf on
integer-valued rows it takes an exact route (``_integer_tails``) where that
is the faster one (the table above ``_ROUTE_ROWS``): each row becomes one
Python int, its thermometer code (``_unary``), and a pair's distance is read
from the XOR of two codes.  There every term and partial sum of the sorted
kernel is an exact integer, so the sort changes no bit and the route gives
the sorted kernel's values.  p2, L and other data keep the sorted kernels.

``rob-minus`` and ``rob-plus`` derive a matrix one column away from X's by
an O(n^2) update (``_without``, ``_with``) where ``errors.exact_updates``
holds: always under pinf, whose values are terms selected exactly, and under
p1 and L on integer-valued data whose column spans (L: their squares) sum to
at most 2^53, where every term and partial sum is an exact integer, so that
adding or subtracting a column's terms gives the rebuild's bits.  p2, and
p1 and L on other data, rebuild each matrix.

Each job charges its plan before it builds anything (``_Job.charge``), in
pair-terms per pair of rows: a build of k columns costs k + c, c being
``cli._PAIR_COST``, and a one-column update ``_UPDATE_COST``.  ``near`` and
``distmat`` make one build, ``concord`` and ``corr`` two; ``rob-minus`` one
and k updates where ``exact_updates`` holds, else one and k builds of k - 1
columns; ``rob-plus`` one and an update where it holds for the extension,
else one and a build of k + 1; ``adversarial`` rungs of k + 1 one-column
builds while they sum to at most ``_LADDER_TERMS``.  A plan above
``cli._MAX_TERMS`` declines.  ``cli`` checks the coefficient spellings and
one build of X, a lower bound of every plan, before this module loads.
``payload`` covers the job or raises ``DomainError``: then the caller runs
the array path, which computes the job or reports its error itself.
"""

import math
import operator
import sys
from functools import reduce
from itertools import chain

from .cli import _MAX_TERMS, _PAIR_COST
from .errors import DomainError, exact_updates

# _UPDATE_COST is one column's update of an n x n matrix and its neighbor
# scan, per pair, in terms.  It is fitted as cli's bound is (the table above
# cli._MAX_TERMS), to `rob-minus --c p1` on {0..3} lattices against the array
# path, which updates too:
#
#      k   admitted n: cost   list / array ms   declined n: cost   list / array ms
#      2   234: 299 871       141 / 190         300: 493 350       124 / 126
#      4   188: 298 826       103 / 150         240: 487 560       138 / 150
#     12   121: 297 660       120 / 158         180: 660 510       196 / 194
#     32    77: 295 526       129 / 186         100: 499 950       163 / 173
#    128    39: 288 249       134 / 168          50: 476 525       144 / 161
#   2000    10: 270 225       170 / 223          13: 468 390       223 / 230
#  20000     3: 180 015       418 / 827           5: 600 050       490 / 666
#
# Each declined row, at 468 000 to 660 000, is at or below the break-even;
# the bound sits under all of them.  The benchmark's 120 x 12 lattice
# rob-minus (292 740) is admitted under p1 (list / array 120 / 158 ms at 121
# rows), pinf (151 / 197) and L (144 / 195), and so is CI's 8 x 2000 lattice
# (168 140; 174 / 238); under p2, which rebuilds (1 492 260), it is not.
# rob-plus where it updates, one build and one update, at its largest
# admitted n on {0..3} lattices (list / array ms, timed the same way):
#
#      k   admitted n: cost   p1 list / array   pinf list / array
#      2   258: 298 377       182 / 237         132 / 171
#     12   178: 299 307       116 / 174         110 / 159
#    128    67: 298 485       127 / 185         111 / 195
_UPDATE_COST = 2
# an adversarial rung of k + 1 columns is charged as k + 1 one-column builds,
# so its ladder holds at most this many pair-terms (50 000): a ladder given
# up on, which the array path then repeats, wastes little
_LADDER_TERMS = _MAX_TERMS // (1 + _PAIR_COST)


def _build(k: int) -> int:
    """A build's cost per pair of rows at k columns."""
    return k + _PAIR_COST


def _p1(terms: list[float]) -> float:
    total = 0.0
    for t in sorted(terms):
        total += t
    return total


def _p2(terms: list[float]) -> float:
    terms = sorted(terms)
    m = terms[-1]
    if m == 0:
        return 0.0
    total = 0.0
    for t in terms:
        q = t / m
        total += q * q
    return m * math.sqrt(total)


def _squared(terms: list[float]) -> float:
    total = 0.0
    for t in sorted(terms):
        total += t * t
    if total == 0 and any(terms):
        raise DomainError("coefficient value underflows the float range")
    return total


# the spellings the list path takes: each is the coefficient_name of the
# coefficient its kernel computes
_KERNELS = {"p1": _p1, "p2": _p2, "pinf": max, "L": _squared}

# The integer route (``_integer_tails``) takes a build of n rows whose
# largest column span is S where n >= _ROUTE_ROWS[kernel], and S <= n - 5
# under p1 (a row's S planes are encoded once for its n - 1 pairs) or S <= 3
# under pinf (a pair's loop takes up to S steps).  Fitted to in-process
# builds of n x k {0..S} lattices, sorted kernel / route in ms, best of 3
# alternating runs (2-vCPU VM, CPython 3.11):
#
#         n, S    k = 1          k = 12         k = 128        k = 2000
#  p1     8, 3    0.025 / 0.023  0.055 / 0.044  0.448 / 0.235  6.89 / 2.95
#  p1    12, 7    0.054 / 0.035  0.116 / 0.074                 27.3 / 7.16
#  p1    20, 15   0.149 / 0.085  0.332 / 0.130
#  pinf  12, 3    0.045 / 0.042  0.098 / 0.078  0.591 / 0.316  8.25 / 4.73
#
# Wide spans, at the bound and within the list path's size: p1 at (n, S, k)
# = (200, 195, 1) 17.2 / 6.28, (300, 255, 1) 39.6 / 13.7, (120, 115, 12)
# 15.6 / 3.72, (60, 55, 50) 14.6 / 2.08, (60, 55, 150) 44.4 / 4.97, (30, 25,
# 300) 23.6 / 4.14 and (20, 15, 1500) 52.2 / 7.54: the route's lead grows
# with S and k.  Just outside the bounds it is near or past the break-even
# (runs spread by about 10 %): p1 at 6 rows, S = 3 (0.028 / 0.035, 0.058 /
# 0.059); pinf at 8 rows (0.021 / 0.026, 0.040 / 0.045) and at 12 rows, S =
# 7 (0.044 / 0.046, 0.095 / 0.099).  The benchmark's 120 x 12 {0..3}
# lattice builds in 13.2 / 1.38 (p1) and 9.93 / 2.82 (pinf).  L keeps its
# sorted kernel: an integer form, s_i + s_l - 2 * y_i . y_l, built the 120 x
# 12 lattice in 4.89 ms against 13.6, but no benchmark job builds such a
# matrix under L, and no end-to-end time showed a gain.
_ROUTE_ROWS = {_p1: 8, max: 12}


def _sum(values: list[float]) -> float:
    """numpy's ``x.sum()`` of the float64 vector ``values``, bit for bit,
    signed zero included: 0.0 plus numpy's pairwise sum (``_pairwise``)."""
    return 0.0 + _pairwise(values)


def _pairwise(a: list[float]) -> float:
    """numpy's pairwise sum: below 8 entries, 0.0 and each entry in turn;
    up to 128, eight accumulators, accumulator j adding entries j, j + 8,
    ... of the longest multiple-of-8 head in turn, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest of the
    entries added in turn; above 128, the sum of both halves, split after
    n//2 - (n//2) % 8 entries."""
    n = len(a)
    if n < 8:
        return reduce(operator.add, a, 0.0)
    if n <= 128:
        head = n - n % 8
        r = [reduce(operator.add, a[j:head:8]) for j in range(8)]
        return reduce(operator.add, a[head:],
                      ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise(a[:half]) + _pairwise(a[half:])


def _distances(kernel, x: list[list[float]]) -> list[list[float]]:
    """The distance matrix of the rows ``x``, each pair evaluated once: from
    ``_integer_tails`` where it applies, else by ``kernel``."""
    tails = _integer_tails(kernel, x)
    if tails is not None:
        D: list[list[float]] = []
        for i, tail in enumerate(tails):
            D.append([row[i] for row in D] + [0.0] + tail)
        return D
    n = len(x)
    D = [[0.0] * n for _ in range(n)]
    for i, a in enumerate(x):
        for j in range(i + 1, n):
            d = kernel([abs(u - v) for u, v in zip(a, x[j])])
            if not math.isfinite(d):
                raise DomainError("coefficient value overflows the float range")
            D[i][j] = D[j][i] = d
    return D


def _integer_tails(kernel, x: list[list[float]]) -> list[list[float]] | None:
    """Each row's p1 or pinf distances to the rows after it, computed on
    Python ints, where ``x`` is integer-valued and the route's bounds hold
    (see the table above ``_ROUTE_ROWS``); else None.  Each value is the
    exact integer distance, which is the sorted kernel's: there every term
    and partial sum is an integer below 2^53.

    Both read the thermometer codes U of ``_unary``: p1 is the number of set
    bits of U_i ^ U_l, and pinf the longest run of them one plane (k bits)
    apart (``_longest_run``)."""
    n = len(x)
    if n < _ROUTE_ROWS.get(kernel, math.inf):  # p2 and L have no integer route
        return None
    codes = _unary(x, n - 5 if kernel is _p1 else 3)
    if codes is None:
        return None
    if kernel is _p1:
        return [[float((a ^ b).bit_count()) for b in codes[i + 1:]] for i, a in enumerate(codes)]
    k = len(x[0])
    return [[float(_longest_run(a ^ b, k)) for b in codes[i + 1:]] for i, a in enumerate(codes)]


def _unary(x: list[list[float]], bound: int) -> list[int] | None:
    """The rows of ``x`` as thermometer codes, where every entry is
    integer-valued and every column's span (max - min) is at most ``bound``;
    else None.  Row i's code holds one k-bit plane per threshold t = 0 ..
    S - 1, S the largest span: bit j of plane t is set iff y_ij > t, y_ij
    being x_ij less column j's minimum.  So |x_ij - x_lj| is the number of
    planes in which bit j of U_i ^ U_l is set, and those planes are
    consecutive (Wendt, Coyle & Gallagher's threshold decomposition).  Each
    plane is one ``bytes.translate`` of the row's y as bytes."""
    if not all(map(float.is_integer, chain.from_iterable(x))):
        return None
    mins = list(map(min, *x))
    try:  # a span above 255 is no byte, and one above the float range no int
        y = [bytes(map(int, map(operator.sub, row, mins))) for row in x]
    except (ValueError, OverflowError):
        return None
    span = max(map(max, y))
    if span > bound:
        return None
    # plane t maps each byte value v to b"1" if v > t, else b"0"
    planes = [b"0" * (t + 1) + b"1" * (255 - t) for t in range(span)]
    return [int(b"".join([r.translate(p) for p in planes]) or b"0", 2) for r in y]


def _longest_run(v: int, k: int) -> int:
    """The longest run of set bits of ``v`` at positions p, p + k, p + 2k,
    ...: each step keeps the bits whose neighbor k above is set too."""
    run = 0
    while v:
        v &= v >> k
        run += 1
    return run


def _near_sets(D, tie, positive_only: bool) -> list[list[int]]:
    """Each row's nearest neighbors (0-based, ascending): the candidates j != i
    (with D[i][j] > 0 under ``positive_only``) with D[i][j] <= bound, where
    m is the row's least candidate, slack = max(abs_tol, rel_tol * m) and
    bound is m when slack is 0, else m + slack.  As distances are
    nonnegative, the positive candidates are the nonzero entries, and the
    zero diagonal is at most every bound."""
    rel, absolute = tie
    sets = []
    for i, row in enumerate(D):
        m = min(filter(None, row) if positive_only else row[:i] + row[i + 1:], default=None)
        if m is None:  # n = 1, or no positive candidate
            sets.append([])
            continue
        slack = max(absolute, rel * m)
        bound = m if slack == 0 else m + slack
        if positive_only:
            sets.append([j for j, d in enumerate(row) if 0 < d <= bound])
        else:
            near = [j for j, d in enumerate(row) if d <= bound]
            near.remove(i)
            sets.append(near)
    return sets


def _top_two(x: list[list[float]]) -> tuple[list[list[float]], list[list[float]]]:
    """pinf's distance matrix of the rows ``x`` (k >= 2) and the matrix of
    each pair's second largest term, in one pass over the pairs."""
    n = len(x)
    D, S = [[0.0] * n for _ in range(n)], [[0.0] * n for _ in range(n)]
    for i, a in enumerate(x):
        for j in range(i + 1, n):
            *_, s, d = sorted([abs(u - v) for u, v in zip(a, x[j])])
            if not math.isfinite(d):
                raise DomainError("coefficient value overflows the float range")
            D[i][j] = D[j][i] = d
            S[i][j] = S[j][i] = s
    return D, S


def _without(kernel, D, S, column) -> list[list[float]]:
    """The distance matrix of the rows of ``D`` without ``column``: its terms
    subtracted under p1 and L; under pinf (``max``), a pair's second largest
    term (``S``) where the column's term is its largest, which then is the
    column's unless that largest is repeated, and ``S`` holds it too."""
    if kernel is max:
        return [[s if abs(a - b) == d else d for d, s, b in zip(row, second, column)]
                for row, second, a in zip(D, S, column)]
    if kernel is _p1:
        return [[d - abs(a - b) for d, b in zip(row, column)] for row, a in zip(D, column)]
    return [[d - (a - b) * (a - b) for d, b in zip(row, column)] for row, a in zip(D, column)]


def _with(kernel, D, column) -> list[list[float]]:
    """The distance matrix of the rows of ``D`` with ``column`` appended: its
    terms added under p1 and L, taken as a maximum under pinf."""
    if kernel is max:
        D = [[max(d, abs(a - b)) for d, b in zip(row, column)] for row, a in zip(D, column)]
        if any(math.inf in row for row in D):
            raise DomainError("coefficient value overflows the float range")
        return D
    if kernel is _p1:
        return [[d + abs(a - b) for d, b in zip(row, column)] for row, a in zip(D, column)]
    return [[d + (a - b) * (a - b) for d, b in zip(row, column)] for row, a in zip(D, column)]


class _Job:
    """A job's flags (``args``), CSV loader and rows ``x``, and its kernels
    (one per coefficient flag, in flag order)."""

    def __init__(self, args, load):
        self.args, self.load = args, load
        self.kernels = [_KERNELS[getattr(args, a)] for a in ("c", "m", "n") if hasattr(args, a)]
        self.tie = (getattr(args, "rel_tol", 0.0), getattr(args, "abs_tol", 0.0))
        if not all(math.isfinite(t) and t >= 0 for t in self.tie):
            raise DomainError("tie tolerances must be finite and nonnegative")
        self.x = load(args.x)

    def charge(self, per_pair: int) -> None:
        """Decline the job if n(n-1)/2 * ``per_pair`` exceeds ``_MAX_TERMS``."""
        n = len(self.x)
        if n * (n - 1) // 2 * per_pair > _MAX_TERMS:
            raise DomainError("job above the list path's size")

    def sets(self, kernel, rows: list[list[float]]) -> list[list[int]]:
        return self.near(_distances(kernel, rows))

    def near(self, D) -> list[list[int]]:
        return _near_sets(D, self.tie, getattr(self.args, "positive_only", False))


def _score(num: int, den: int) -> dict:
    return {"num": num, "den": den, "value": num / den}


def _near(job) -> dict:
    job.charge(_build(len(job.x[0])))
    near = job.sets(*job.kernels, job.x)
    return {"sets": [[j + 1 for j in s] for s in near], "total": sum(map(len, near))}


def _distmat(job) -> list[list[float]]:
    """Row i's entries i..n-1, as ``io._rows`` walks them."""
    job.charge(_build(len(job.x[0])))
    return [row[i:] for i, row in enumerate(_distances(*job.kernels, job.x))]


def _rob_plus(job) -> dict:
    """X's matrix, extended by the new column's update where ``exact_updates``
    holds for the extension, else rebuilt from it."""
    x, xp, (kernel,) = job.x, job.load(job.args.xp), job.kernels
    k = len(x[0])
    if len(x) < 2 or len(xp) != len(x) or len(xp[0]) != k + 1:
        raise DomainError("not a one-column extension of at least two rows")
    if any(row[:k] != base for row, base in zip(xp, x)):
        raise DomainError("extension disagrees with x")
    exact = exact_updates(job.args.c, zip(*xp))
    job.charge(_build(k) + (_UPDATE_COST if exact else _build(k + 1)))
    D = _distances(kernel, x)
    base = job.near(D)
    aug = job.near(_with(kernel, D, [row[k] for row in xp]) if exact
                   else _distances(kernel, xp))
    den = sum(map(len, base))
    if den == 0:
        raise DomainError("score denominator must be positive")
    return _score(sum(len(set(b).intersection(a)) for b, a in zip(base, aug)), den)


def _rob_minus(job) -> dict:
    """X's matrix, then each leave-one-out matrix by one column's update
    (``_without``) where ``exact_updates`` holds, else rebuilt."""
    x, (kernel,) = job.x, job.kernels
    n, k = len(x), len(x[0])
    if n < 2 or k < 2:
        raise DomainError("leave-one-column-out robustness needs n > 1 and k > 1")
    exact = exact_updates(job.args.c, zip(*x))
    job.charge(_build(k) + k * (_UPDATE_COST if exact else _build(k - 1)))
    if exact:
        D, S = _top_two(x) if kernel is max else (_distances(kernel, x), None)
        matrices = (_without(kernel, D, S, column) for column in zip(*x))
    else:
        D = _distances(kernel, x)
        matrices = (_distances(kernel, [row[:j] + row[j + 1:] for row in x]) for j in range(k))
    base = job.near(D)
    changed = sum(s != b for M in matrices for s, b in zip(job.near(M), base))
    return _score(n * k - changed, n * k)


def _concord(job) -> dict:
    job.charge(2 * _build(len(job.x[0])))
    near_m, near_n = (job.sets(c, job.x) for c in job.kernels)
    return _score(sum(a == b for a, b in zip(near_m, near_n)), len(job.x))


def _corr(job) -> dict:
    """``matrix_correlation``'s moments in its order: both strict upper
    triangles, row by row, each shifted by its first entry under ``upper``;
    each moment summed by ``_sum`` and divided by the float of the weight
    (n^2/2 or n(n-1)/2).  Declines where it raises."""
    n, conv = len(job.x), job.args.conv
    if conv == "upper" and n < 2:
        raise DomainError("upper-triangle expectation needs n >= 2")
    job.charge(2 * _build(len(job.x[0])))
    a, b = ([d for i, row in enumerate(_distances(c, job.x)) for d in row[i + 1:]]
            for c in job.kernels)
    if conv == "upper":
        a, b = [v - a[0] for v in a], [v - b[0] for v in b]
    weight = n * (n if conv == "grid" else n - 1) / 2
    e_a, e_b = _sum(a) / weight, _sum(b) / weight
    cov = _sum([u * v for u, v in zip(a, b)]) / weight - e_a * e_b
    var_a = _sum([v * v for v in a]) / weight - e_a * e_a
    var_b = _sum([v * v for v in b]) / weight - e_b * e_b
    var_ab = var_a * var_b
    if not all(map(math.isfinite, (cov, var_a, var_b, var_ab))):
        raise DomainError("distance-matrix moments overflow")
    if not (any(a) and any(b)):
        rho = None
    elif var_ab < sys.float_info.min:
        raise DomainError("distance-matrix moments underflow")
    else:
        rho = cov / math.sqrt(var_ab)
        if abs(rho) > 1 + 1e-12:
            raise DomainError("correlation outside [-1, 1]")
    return {"rho": rho, "cov": cov, "var_m": var_a, "var_n": var_b, "convention": conv}


def _adversarial(job) -> dict:
    """``adversarial_augment``'s ladder: the scales t in its order, each rung
    appending the column t * 2^i and deciding with ``_near_sets``.  A rung
    builds n(n-1)/2 * (k+1) pair-terms, and the rungs run while their sum is
    at most ``_LADDER_TERMS``: a longer ladder declines."""
    x, (kernel,) = job.x, job.kernels
    n = len(x)
    if kernel is _squared or not 2 <= n <= 1024:
        raise DomainError("the augmentation needs a p-norm and 2 <= n <= 1024")
    scales = [2.0**i for i in range(1025 - n)]
    if kernel is not max:
        scales = [2.0**-i for i in range(200)] + scales[1:]
    for t in scales[:_LADDER_TERMS // (n * (n - 1) // 2 * (len(x[0]) + 1))]:
        augmented = [[*row, t * 2.0**i] for i, row in enumerate(x)]
        if sum(map(len, job.sets(kernel, augmented))) == n:
            return {"t": t, "spacing": [2**i for i in range(n)],
                    "column": [row[-1] for row in augmented],
                    "achieved_near_total": n, "augmented": augmented}
    raise DomainError("no scale t found within the list path's size")


_JOBS = {"near": _near, "distmat": _distmat, "rob-plus": _rob_plus, "rob-minus": _rob_minus,
         "concord": _concord, "corr": _corr, "adversarial": _adversarial}


def payload(args, load):
    """The payload of ``args``' job, as the array path's ``cli._COMMANDS`` row
    gives it (for ``distmat``, the rows of ``_distmat``); ``load(path)``
    gives a CSV's rows.  ``args`` holds the parsed flags, unconverted, and
    its coefficients are spelled as keys of ``_KERNELS``.

    Raises DomainError where the list path declines: a tolerance
    ``TiePolicy`` refuses, a CSV ``load`` refuses, a plan above
    ``_MAX_TERMS`` or a ladder above ``_LADDER_TERMS`` pair-terms, a
    non-finite distance, or a shape, score or moment the array path refuses.
    """
    return _JOBS[args.command](_Job(args, load))
