"""The list path: the CLI's small ``near``, ``distmat``, ``rob-plus``,
``rob-minus``, ``concord``, ``corr``, ``adversarial`` and ``explore-near``
jobs computed on Python lists, so that the process never imports numpy.

Every value is bitwise the array path's.  ``_KERNELS`` gives
``coefficients.row_values``' bits for p1, p2, pinf and L, and ``_power``
for every other p that ``cli._list_p`` takes (p1.0000001 too): terms sorted
ascending and added one after another (never ``sum()``, which compensates
from Python 3.12), p2 as m * sqrt(sum((t/m) * (t/m))) and general p as m *
sum((t/m) ** p) ** (1/p).  General p's powers are libm's ``pow``, which
Python's float ``**`` calls and ``np.float_power`` loops over, so its bits
do not depend on the SIMD level numpy dispatches to.  ``_near_sets`` is
``neighbors.near_mask``'s rule.  ``_sum`` is numpy's ``x.sum()`` of a
float64 vector, which ``matrix_correlation`` takes of every moment.  An L
value whose nonzero terms all underflow to 0 raises, as ``row_values``
does.

``_distances`` is the one entry for a build, and ``_row`` the one
sorted-kernel loop over pairs: a build's rows come from it wherever the
exact route declines, and so do rob-minus's recomputed rows.  On
integer-valued rows a build takes an exact route (``_integer_tails``) where
that is the faster one (the table above ``_ROUTE_ROWS``): each row becomes
one Python int, its thermometer code (``_unary``), and a pair's distance is
read from the XOR of two codes.  Under p1 and pinf it is an exact integer,
and so is every term and partial sum of the sorted kernel, so the sort
changes no bit.  Under p2, L and general p, with column spans of at most 3,
three popcounts of the XOR fix the multiset of the pair's terms, and the
kernel runs once per distinct multiset, on those terms
(``_Multisets``).  Either way the route gives the sorted kernel's values.
Other data keep the sorted kernels.

``rob-minus`` builds X's matrix through ``_distances`` under every coefficient,
as ``robustness.rob_minus`` does through ``build``.  Under a name outside
``errors.UPDATED`` (general p) it then builds each leave-one-out matrix, as
``build_many`` does on arrays.  Under those in it ``errors.update_bound`` says
whether one-column updates of X's matrix are exact (pinf; p1 and L on
integer-valued data whose column spans, or their squares, sum to at most 2^53)
or gives their error bound.
Exact updates form no leave-one-out matrix: ``_changes`` sorts each row's
candidates by X's distances once and decides the row without each column by
a pruned walk, which stops where no value left can reach the tie bound;
under pinf only ``_drops``' values change, each pair's second largest term
where its largest is the removed column's alone, read from the integer
route's codes where it applies.  Guarded updates derive each leave-one-out
matrix from X's in O(n^2) (``_without``), within a bound that
``robustness.rob_minus`` proves: each row's updates lie within
e = a + b / m of the rebuilt values, and ``_near_sets`` decides each row
from those intervals as ``neighbors.near_mask`` does; ``_row`` recomputes a
row it cannot decide, and a matrix where most rows are is rebuilt.

Which jobs come here, and what each costs, is ``cli._plan``'s: it declines
a job above the list path's bound before this module loads, so this module
only computes.  ``adversarial`` alone gives up on its own, after rungs
that sum to ``_LADDER_TERMS`` pair-terms.
``explore-near`` is ``achievable_near_totals`` on lists: the probes, the
grid multisets and the random family, each matrix built by ``_distances``
and decided by ``_near_sets``.  Its random family reads numpy's
``default_rng(seed).random()`` doubles from ``_pcg64``, which only this job
loads.
``payload`` covers the job or raises ``DomainError``: then the caller runs
the array path, which computes the job or reports its error itself.
"""

import math
import operator
import sys
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, chain, combinations_with_replacement

from .errors import GRID_LIMIT, UPDATED, DomainError, ladder, update_bound

# adversarial's own give-up rule: its rungs, each n(n-1)/2 * (k + 1) terms,
# run while they sum to at most this many, the list path's bound of 300 000
# pair-terms with each term charged as a one-column build (1 + 5): a ladder
# given up on, which the array path then repeats, wastes little
_LADDER_TERMS = 50_000


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


def _power(p: float):
    """General p's kernel (1 < p < inf, p != 2): m * sum((t/m) ** p) ** (1/p)
    over the sorted terms, m the largest; 0.0 for an all-zero row.  Each
    ``**`` is libm's ``pow``, as ``np.float_power`` takes it."""
    root = 1.0 / p

    def kernel(terms: list[float]) -> float:
        terms = sorted(terms)
        m = terms[-1]
        if m == 0:
            return 0.0
        total = 0.0
        for t in terms:
            total += (t / m) ** p
        return m * total ** root

    return kernel


_KERNELS = {"p1": _p1, "p2": _p2, "pinf": max, "L": _squared}


def _kernel(spelling: str):
    """The kernel of L or of a p-norm as ``errors.p_norm_name`` spells it;
    general p's is ``_power``."""
    return _KERNELS.get(spelling) or _power(float(spelling[1:]))


# The integer route (``_integer_tails``) takes a build of n rows whose
# largest column span is S where n >= _ROUTE_ROWS[kernel] (general p's
# kernels, made by ``_power``, under its key), and S <= n - 5 under p1 (a
# row's S planes are encoded once for its n - 1 pairs) or S <= 3 otherwise
# (pinf's loop takes up to S steps; p2, L and general p read S counts per
# pair).  Fitted to in-process builds of n x k {0..S} lattices, sorted
# kernel / route in ms, best of 3 alternating runs (2-vCPU VM, CPython 3.11;
# p2, L and p3.5 best of 7):
#
#         n, S    k = 1          k = 12         k = 128        k = 2000
#  p1     8, 3    0.025 / 0.023  0.055 / 0.044  0.448 / 0.235  6.89 / 2.95
#  p1    12, 7    0.054 / 0.035  0.116 / 0.074                 27.3 / 7.16
#  p1    20, 15   0.149 / 0.085  0.332 / 0.130
#  pinf  12, 3    0.045 / 0.042  0.098 / 0.078  0.591 / 0.316  8.25 / 4.73
#  p2    18, 3    0.128 / 0.076  0.314 / 0.310  2.77 / 1.73
#  L     18, 3    0.119 / 0.072  0.278 / 0.288  2.36 / 1.42
#  p3.5  18, 3    0.124 / 0.070  0.348 / 0.333  2.97 / 1.97
#
# Wide spans, at the bound and within the list path's size: p1 at (n, S, k)
# = (200, 195, 1) 17.2 / 6.28, (300, 255, 1) 39.6 / 13.7, (120, 115, 12)
# 15.6 / 3.72, (60, 55, 50) 14.6 / 2.08, (60, 55, 150) 44.4 / 4.97, (30, 25,
# 300) 23.6 / 4.14 and (20, 15, 1500) 52.2 / 7.54: the route's lead grows
# with S and k.  Just outside the bounds it is near or past the break-even
# (runs spread by about 10 %): p1 at 6 rows, S = 3 (0.028 / 0.035, 0.058 /
# 0.059); pinf at 8 rows (0.021 / 0.026, 0.040 / 0.045) and at 12 rows, S =
# 7 (0.044 / 0.046, 0.095 / 0.099).  p2, L and general p run their kernel
# once per distinct multiset of terms, of which k 0..3 terms have C(k + 3,
# 3): the route wins once the pairs repeat them, and the row count is the
# break-even at the worst k, about 12 to 16 (at 16 rows and k = 12: 0.250 /
# 0.284, 0.217 / 0.261 and 0.271 / 0.305; with 12 rows it won from k = 128
# and lost up to 1.2x at k = 12).  18 rows of 2000 columns are above the
# list path's size; at 16 they built in 32.6 / 18.9 (p2).  A key of 7
# counts for S = 7 lost to the sorted kernel (p2: 19.4 / 22.0 at 120 x 12,
# 1.73 / 3.16 at 40 x 12).  The benchmark's 120 x 12 {0..3} lattice builds
# in 13.2 / 1.38 (p1), 9.93 / 2.82 (pinf), 15.0 / 3.06 (p2), 13.0 / 2.88
# (L) and 16.7 / 3.27 (p3.5).
_ROUTE_ROWS = {_p1: 8, max: 12, _p2: 18, _squared: 18, _power: 18}


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
    ``_integer_tails`` where it applies, else by ``_row``."""
    tails = _integer_tails(kernel, x)
    if tails is None:
        tails = [_row(kernel, a, x[i + 1:]) for i, a in enumerate(x)]
    D: list[list[float]] = []
    for i, tail in enumerate(tails):
        D.append([row[i] for row in D] + [0.0] + tail)
    return D


def _row(kernel, a: list[float], rows: list[list[float]]) -> list[float]:
    """``kernel``'s values of the row ``a`` against each of ``rows``: the list
    path's one sorted-kernel loop over pairs.  Raises DomainError where a
    value overflows."""
    return _finite([kernel([abs(u - v) for u, v in zip(a, b)]) for b in rows])


def _finite(values: list[float]) -> list[float]:
    """``values``, where each is finite; else raises DomainError."""
    if not all(map(math.isfinite, values)):
        raise DomainError("coefficient value overflows the float range")
    return values


def _integer_tails(kernel, x: list[list[float]]) -> list[list[float]] | None:
    """Each row's distances to the rows after it, read from Python ints,
    where ``x`` is integer-valued and the route's bounds hold (see the table
    above ``_ROUTE_ROWS``); else None.  Each value is the sorted kernel's.

    All read the thermometer codes U of ``_unary``, where V = U_i ^ U_l
    sets bit j in |x_ij - x_lj| consecutive planes.  p1 is the number of set
    bits of V, and pinf the longest run of them one plane (k bits) apart
    (``_longest_run``): there every term and partial sum of the sorted
    kernel is an integer below 2^53, so the exact integer distance is its
    value.  Under p2, L and general p the spans are at most 3, and the
    counts T1 = pop(V), T2 = pop(W) and T3 = pop(W & W >> k), W = V & V >> k,
    fix the multiset of the pair's terms (``_Multisets``): the kernel runs
    once per distinct multiset, on its terms, and every other pair with it
    takes that value."""
    codes = _codes(kernel, x)
    if codes is None:
        return None
    k = len(x[0])
    if kernel is _p1:
        return [[float((a ^ b).bit_count()) for b in codes[i + 1:]] for i, a in enumerate(codes)]
    if kernel is max:
        return [[float(_longest_run(a ^ b, k)) for b in codes[i + 1:]] for i, a in enumerate(codes)]
    memo = _Multisets(kernel, k)
    return [[memo[(v := a ^ b).bit_count(), (w := v & v >> k).bit_count(), (w & w >> k).bit_count()]
             for b in codes[i + 1:]] for i, a in enumerate(codes)]


class _Multisets(dict):
    """``kernel``'s values of k terms in 0..3 by their multiset, each computed
    on first use.  A key (T1, T2, T3) holds the sums of t, max(t - 1, 0) and
    max(t - 2, 0) over the terms t, which ``_integer_tails`` reads as
    popcounts of a pair's XOR code; it fixes c3 = T3 terms of 3, c2 = T2 - 2
    * T3 of 2, c1 = T1 - 2 * T2 + T3 of 1 and the rest 0.  The kernel sorts
    its terms first, and these are the pair's terms, exact small integers:
    the value is bitwise the sorted kernel's, and is checked as ``_row``
    checks it."""

    def __init__(self, kernel, k: int):
        self.kernel, self.k = kernel, k

    def __missing__(self, key: tuple[int, int, int]) -> float:
        t1, t2, t3 = key
        c1, c2 = t1 - 2 * t2 + t3, t2 - 2 * t3
        terms = [0.0] * (self.k - c1 - c2 - t3) + [1.0] * c1 + [2.0] * c2 + [3.0] * t3
        self[key], = _finite([self.kernel(terms)])
        return self[key]


def _codes(kernel, x: list[list[float]]) -> list[int] | None:
    """``x``'s codes where the route takes ``kernel``'s build of it, else None."""
    n = len(x)
    if n < _ROUTE_ROWS.get(kernel, _ROUTE_ROWS[_power]):
        return None
    return _unary(x, n - 5 if kernel is _p1 else 3)


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


def _near_sets(D, tie, positive_only: bool, errors=None, rows=None) -> list:
    """Each row's nearest neighbors (0-based, ascending): the candidates j != i
    (with D[i][j] > 0 under ``positive_only``) with D[i][j] <= bound, where
    m is the row's least candidate, slack = max(abs_tol, rel_tol * m) and
    bound is m when slack is 0, else m + slack.  As distances are
    nonnegative, the positive candidates are the nonzero entries, and the
    zero diagonal is at most every bound.  ``rows`` picks the rows decided.

    ``errors`` gives rows of updates, each within a + b / m of the rebuilt
    value, by each row's (a, b, lo): a row is decided from those intervals
    as ``neighbors.near_mask`` decides it within that bound, and is None
    where it is not."""
    sets = []
    for i, row in enumerate(D) if rows is None else ((i, D[i]) for i in rows):
        if errors:  # at risk unless every off-diagonal interval lies above lo
            a, b, lo = errors[i]
            m = min(row[:i] + row[i + 1:])
            if not (m > lo and m - (e := a + b / m) > lo):
                sets.append(None)
                continue
        else:
            e = 0.0
            m = min(filter(None, row) if positive_only else row[:i] + row[i + 1:], default=None)
            if m is None:  # n = 1, or no positive candidate
                sets.append([])
                continue
        low = high = _tie_bound(m - e, tie)
        if e:  # each in, out, or the one candidate below every other
            high = _tie_bound(m + e, tie)
            maybe = [j for j, d in enumerate(row) if d - e <= high and j != i]
            first = [j for j in maybe if row[j] - e <= m + e]
            sure = [j for j in maybe if row[j] + e <= low or first == [j]]
            sets.append(sure if len(sure) == len(maybe) else None)
        elif positive_only:
            sets.append([j for j, d in enumerate(row) if 0 < d <= high])
        else:
            near = [j for j, d in enumerate(row) if d <= high]
            near.remove(i)
            sets.append(near)
    return sets


def _tie_bound(m: float, tie) -> float:
    """``neighbors.tie_bound`` of a row's least candidate m: m + slack, or m
    where slack = max(abs_tol, rel_tol * m) is 0; nondecreasing in m."""
    slack = max(tie[1], tie[0] * m)
    return m if slack == 0 else m + slack


def _without(kernel, D, column) -> list[list[float]]:
    """The guarded updates of the rows of ``D`` without ``column``: its
    terms subtracted under p1 and L, sqrt(D*D - d*d) under p2 (0 where D*D -
    d*d is not positive).  Exact updates are walked instead (``_changes``)."""
    if kernel is _p1:
        return [[d - abs(a - b) for d, b in zip(row, column)] for row, a in zip(D, column)]
    if kernel is _p2:
        return [[math.sqrt(v) if (v := d * d - (a - b) * (a - b)) > 0 else 0.0
                 for d, b in zip(row, column)] for row, a in zip(D, column)]
    return [[d - (a - b) * (a - b) for d, b in zip(row, column)] for row, a in zip(D, column)]


def _drops(x, D) -> list[dict[int, dict[int, float]]]:
    """pinf's exact updates: ``drops[i][j]`` maps each l whose pair with row i
    has its largest term in column j alone to the pair's second largest
    term, its value without column j; every other value is D's.  From
    ``_codes`` where the integer route takes the build: the run loop's last
    nonzero value holds one bit per column that attains the largest term,
    and the longest run without that column's bits is the second.  Else
    from the pair's terms, read once: j holds the first equal to D's value
    and no later one is, and the largest of the others is the second."""
    n, k = len(x), len(x[0])
    drops = [{} for _ in range(n)]
    codes = _codes(max, x)
    if codes is not None:  # column j's bits in the (at most 3) planes of a code
        other = [~int(("0" * j + "1" + "0" * (k - 1 - j)) * 3, 2) for j in range(k)]
    for i in range(n):
        for l in range(i + 1, n):
            if codes is None:
                terms = [abs(u - v) for u, v in zip(x[i], x[l])]
                j = terms.index(d := D[i][l])
                if d in terms[j + 1:]:  # a repeated largest term, or all zero
                    continue
                s = max(terms[:j] + terms[j + 1:])
            else:
                v = last = codes[i] ^ codes[l]
                while v:
                    last, v = v, v & v >> k
                if last & (last - 1) or not last:  # a repeated largest term, or none
                    continue
                j = k - 1 - (last.bit_length() - 1) % k  # bit p is column k - 1 - p % k
                s = float(_longest_run((codes[i] ^ codes[l]) & other[j], k))
            drops[i].setdefault(j, {})[l] = drops[l].setdefault(j, {})[i] = s
    return drops


def _changes(job, D) -> int:
    """The rows whose near set changes without each column, where the updates
    are exact (``update_bound`` is None), each decided by a pruned walk
    (Friedman, Baskett & Shustek 1975) by ``_near_sets``' rule.  Row i's
    candidates are sorted by D once, which also gives its near set in X.
    Under p1 and L no value falls below D - lift, lift being the largest
    column span (under L its square): the walk takes the candidates up to
    tie_bound(w) + lift, w being one candidate's largest value without a
    column, at least the row's least value without any; every member is
    among them.  Under pinf only ``_drops``' values change: they and the
    candidates up to the tie bound of the least value are taken."""
    x, (kernel,), tie, positive = job.x, job.kernels, job.tie, job.args.positive_only
    floor = 0.0 if positive else -math.inf  # a candidate's value lies above it
    if kernel is max:
        drops = _drops(x, D)
    else:
        lift = max(map(operator.sub, map(max, *x), map(min, *x)))
        lift = lift * lift if kernel is _squared else lift
    changed = 0
    for i, (row, a) in enumerate(zip(D, x)):
        order = sorted(range(len(x)), key=row.__getitem__)
        order.remove(i)
        ds = [row[l] for l in order]
        z = bisect_right(ds, floor)
        near = order[z:bisect_right(ds, _tie_bound(ds[z], tie))] if z < len(ds) else []
        if kernel is max:
            near, rest = set(near), list(zip(order[z:], ds[z:]))
            for low in drops[i].values():
                m = min(filter(None, low.values()) if positive else low.values(), default=math.inf)
                high = _tie_bound(min(m, next((d for l, d in rest if l not in low), m)), tie)
                changed += near != {l for l in order[z:bisect_right(ds, high)] if l not in low}.union(
                    l for l, s in low.items() if floor < s <= high)
            continue
        rows = [x[l] for l in order]
        z, c = bisect_right(ds, lift) if positive else 0, len(ds)
        if z < c:  # every value of candidate z lies above floor
            t = min(abs(u - v) for u, v in zip(a, rows[z]))
            c = bisect_right(ds, _tie_bound(ds[z] - (t * t if kernel is _squared else t), tie) + lift)
        ds = ds[:c]
        for j, aj in enumerate(a):
            if kernel is _p1:
                values = [d - abs(aj - r[j]) for d, r in zip(ds, rows)]
            else:
                values = [d - (aj - r[j]) * (aj - r[j]) for d, r in zip(ds, rows)]
            high = _tie_bound(min(filter(None, values) if positive else values, default=math.inf), tie)
            changed += near != [l for l, v in zip(order, values) if floor < v <= high]
    return changed


class _Job:
    """A job's flags (``args``), CSV loader and rows ``x``, and its kernels
    (one per coefficient flag, in flag order)."""

    def __init__(self, args, load):
        self.args, self.load = args, load
        self.kernels = [_kernel(getattr(args, a)) for a in ("c", "m", "n") if hasattr(args, a)]
        # a job without tie flags decides at TiePolicy()'s
        self.tie = (getattr(args, "rel_tol", 1e-9), getattr(args, "abs_tol", 0.0))
        self.x = load(args.x) if hasattr(args, "x") else None

    def sets(self, kernel, rows: list[list[float]]) -> list[list[int]]:
        return self.near(_distances(kernel, rows))

    def near(self, D, errors=None, rows=None) -> list:
        return _near_sets(D, self.tie, getattr(self.args, "positive_only", False), errors, rows)


def _score(num: int, den: int) -> dict:
    return {"num": num, "den": den, "value": num / den}


def _near(job) -> dict:
    near = job.sets(*job.kernels, job.x)
    return {"sets": [[j + 1 for j in s] for s in near], "total": sum(map(len, near))}


def _distmat(job) -> list[list[float]]:
    """Row i's entries i..n-1, as ``io._rows`` walks them."""
    return [row[i:] for i, row in enumerate(_distances(*job.kernels, job.x))]


def _rob_plus(job) -> dict:
    """X's matrix and the extension's, each built, as ``rob_plus`` does."""
    x, xp, (kernel,) = job.x, job.load(job.args.xp), job.kernels
    k = len(x[0])
    if len(x) < 2 or len(xp) != len(x) or len(xp[0]) != k + 1:
        raise DomainError("not a one-column extension of at least two rows")
    if any(row[:k] != base for row, base in zip(xp, x)):
        raise DomainError("extension disagrees with x")
    base, aug = job.sets(kernel, x), job.sets(kernel, xp)
    den = sum(map(len, base))
    if den == 0:
        raise DomainError("score denominator must be positive")
    return _score(sum(len(set(b).intersection(a)) for b, a in zip(base, aug)), den)


def _rob_minus(job) -> dict:
    """X's matrix, then the rows that change without each column: under
    general p from each leave-one-out matrix built; else by pruned walks
    where the updates are exact (``_changes``), else from each leave-one-out
    matrix's guarded update (``_without``), decided where its bound allows
    (``_near_sets``), its other rows recomputed, or the matrix rebuilt where
    most are."""
    x, (kernel,) = job.x, job.kernels
    n, k = len(x), len(x[0])
    if n < 2 or k < 2:
        raise DomainError("leave-one-column-out robustness needs n > 1 and k > 1")
    if job.args.c not in UPDATED:
        base = job.sets(kernel, x)
        changed = sum(s != b for j in range(k)
                      for s, b in zip(job.sets(kernel, [row[:j] + row[j + 1:] for row in x]), base))
        return _score(n * k - changed, n * k)
    bound = update_bound(job.args.c, zip(*x))
    D = _distances(kernel, x)
    if bound is None:
        return _score(n * k - _changes(job, D), n * k)
    base = job.near(D)
    c1, c2, lo, hi = bound
    errors = [(c1 * t if t < hi else math.inf, c2 * t * t, lo) for t in map(max, D)]
    changed = 0
    for j, column in enumerate(zip(*x)):
        M = _without(kernel, D, column)
        sets = job.near(M, errors)
        if None in sets:
            undecided = [i for i, s in enumerate(sets) if s is None]
            rows = [row[:j] + row[j + 1:] for row in x]
            if 2 * len(undecided) > n:
                sets = job.sets(kernel, rows)
            else:
                for i in undecided:
                    M[i] = _row(kernel, rows[i], rows)
                for i, near in zip(undecided, job.near(M, rows=undecided)):
                    sets[i] = near
        changed += sum(s != b for s, b in zip(sets, base))
    return _score(n * k - changed, n * k)


def _concord(job) -> dict:
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
    """``adversarial_augment``'s search: the scales t of ``errors.ladder``,
    each rung appending the column t * 2^i and deciding with ``_near_sets``.
    A rung builds n(n-1)/2 * (k+1) pair-terms, and the rungs run while their
    sum is at most ``_LADDER_TERMS``: a longer ladder declines."""
    x, (kernel,) = job.x, job.kernels
    n = len(x)
    if kernel is _squared or not 2 <= n <= 1024:
        raise DomainError("the augmentation needs a p-norm and 2 <= n <= 1024")
    rungs = _LADDER_TERMS // (n * (n - 1) // 2 * (len(x[0]) + 1))
    for t in ladder(n, kernel is not max)[:rungs]:
        augmented = [[*row, t * 2.0**i] for i, row in enumerate(x)]
        if sum(map(len, job.sets(kernel, augmented))) == n:
            return {"t": t, "spacing": [2**i for i in range(n)],
                    "column": [row[-1] for row in augmented],
                    "achieved_near_total": n, "augmented": augmented}
    raise DomainError("no scale t found within the list path's size")


def _explore_near(job) -> dict:
    """``achievable_near_totals`` at the flags' ``SearchBudget``: the three
    probes, a column per grid multiset, then each ``--rows`` x
    ``--random-cols`` matrix of ``_pcg64.doubles(seed)``, row by row, each
    built by ``_distances`` and decided by ``_near_sets`` at ``TiePolicy()``.
    The flags are a search the array path takes (``cli._plan`` checks them)."""
    a, (kernel,) = job.args, job.kernels
    n, samples, k, extent = a.rows, a.random_samples, a.random_cols, a.grid_extent
    from ._pcg64 import doubles

    gaps = list(accumulate([0.0] + [2.0**i for i in range(n - 1)]))  # np.cumsum's order
    grid = (combinations_with_replacement(map(float, range(extent + 1)), n)
            if extent >= 1 and (extent + 1) ** n <= GRID_LIMIT else ())
    columns = chain([[0.0] * n, list(map(float, range(n))), gaps], grid)
    draws = doubles(a.seed)
    xs = chain(([[v] for v in column] for column in columns),
               ([[next(draws) for _ in range(k)] for _ in range(n)] for _ in range(samples)))
    return {"rows": n, "totals": sorted({sum(map(len, job.sets(kernel, x))) for x in xs})}


_JOBS = {"near": _near, "distmat": _distmat, "rob-plus": _rob_plus, "rob-minus": _rob_minus,
         "concord": _concord, "corr": _corr, "adversarial": _adversarial,
         "explore-near": _explore_near}


def payload(args, load):
    """The payload of ``args``' job, as the array path's ``cli._COMMANDS`` row
    gives it (for ``distmat``, the rows of ``_distmat``); ``load(path)``
    gives a CSV's rows.  ``args`` holds the parsed flags, unconverted, and
    its coefficients are "L" or ``errors.p_norm_name``'s exact names; its
    tie tolerances and search flags are ones ``cli._plan`` takes.

    Raises DomainError where computing declines: a CSV ``load`` refuses, an
    ``--xp`` that is not a one-column extension, a non-finite distance or
    moment, a zero score denominator, a ladder above ``_LADDER_TERMS``
    pair-terms, or another shape or moment the array path refuses.
    """
    return _JOBS[args.command](_Job(args, load))
