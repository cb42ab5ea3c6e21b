"""The list path: the CLI's small ``near``, ``distmat``, ``rob-plus``,
``rob-minus`` and ``concord`` jobs computed on Python lists, so that the
process never imports numpy.

Every value is bitwise the array path's.  ``_KERNELS`` gives
``coefficients.row_values``' bits for p1, p2, pinf and L: terms sorted
ascending and added one after another (never ``sum()``, which compensates
from Python 3.12), p2 as m * sqrt(sum((t/m) * (t/m))).  ``_near_sets`` is
``neighbors.near_mask``'s rule.  General p keeps the array path: its powers
go through numpy's ``**``, whose bits depend on the SIMD level numpy
dispatches to.

``payload`` covers a job or raises ``DomainError``: then the caller runs
the array path, which computes the job or reports its error itself.
"""

import math

from .errors import DomainError

# The largest job that runs here, in pair-terms: n(n-1)/2 * k summed over
# the job's builds.  The worst case is k = 1, where the n^2 neighbor scan
# and output, which pair-terms do not count, weigh most.  There, on a 2-vCPU
# VM (CPython 3.11, numpy 2.4; median of 9 alternating process runs),
# `near --c p2` on a 316 x 1 matrix (49770 pair-terms) took 121 ms on this
# path and 150 ms on the array path, whose numpy import alone is ~100 ms;
# `concord --m p1 --n p2` on 130 x 3 (50310) took 81 against 157 ms.
_MAX_TERMS = 50_000


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
    return total


# the spellings the list path takes: each is the coefficient_name of the
# coefficient its kernel computes
_KERNELS = {"p1": _p1, "p2": _p2, "pinf": max, "L": _squared}


def _distances(kernel, x: list[list[float]]) -> list[list[float]]:
    """The distance matrix of the rows ``x``, each pair evaluated once."""
    n = len(x)
    D = [[0.0] * n for _ in range(n)]
    for i, a in enumerate(x):
        for j in range(i + 1, n):
            d = kernel([abs(u - v) for u, v in zip(a, x[j])])
            if not math.isfinite(d):
                raise DomainError("coefficient value overflows the float range")
            D[i][j] = D[j][i] = d
    return D


def _near_sets(D, tie, positive_only: bool) -> list[list[int]]:
    """Each row's nearest neighbors (0-based, ascending): the candidates j != i
    (with D[i][j] > 0 under ``positive_only``) with D[i][j] <= bound, where
    m is the row's least candidate, slack = max(abs_tol, rel_tol * m) and
    bound is m when slack is 0, else m + slack."""
    rel, absolute = tie
    sets = []
    for i, row in enumerate(D):
        candidates = [j for j, d in enumerate(row) if j != i and (d > 0 or not positive_only)]
        if candidates:
            m = min(row[j] for j in candidates)
            slack = max(absolute, rel * m)
            bound = m if slack == 0 else m + slack
            candidates = [j for j in candidates if row[j] <= bound]
        sets.append(candidates)
    return sets


def _score(num: int, den: int) -> dict:
    return {"num": num, "den": den, "value": num / den}


def _near(sets, kernels, x, xp) -> dict:
    near = sets(*kernels, x)
    return {"sets": [[j + 1 for j in s] for s in near], "total": sum(map(len, near))}


def _distmat(sets, kernels, x, xp) -> list[list[float]]:
    """Row i's entries i..n-1, as ``io._rows`` walks them."""
    return [row[i:] for i, row in enumerate(_distances(*kernels, x))]


def _rob_plus(sets, kernels, x, xp) -> dict:
    k = len(x[0])
    if len(x) < 2 or len(xp) != len(x) or len(xp[0]) != k + 1:
        raise DomainError("not a one-column extension of at least two rows")
    if any(row[:k] != base for row, base in zip(xp, x)):
        raise DomainError("extension disagrees with x")
    base, aug = sets(*kernels, x), sets(*kernels, xp)
    den = sum(map(len, base))
    if den == 0:
        raise DomainError("score denominator must be positive")
    return _score(sum(len(set(b).intersection(a)) for b, a in zip(base, aug)), den)


def _rob_minus(sets, kernels, x, xp) -> dict:
    n, k = len(x), len(x[0])
    if n < 2 or k < 2:
        raise DomainError("leave-one-column-out robustness needs n > 1 and k > 1")
    base = sets(*kernels, x)
    changed = sum(s != b for j in range(k)
                  for s, b in zip(sets(*kernels, [row[:j] + row[j + 1:] for row in x]), base))
    return _score(n * k - changed, n * k)


def _concord(sets, kernels, x, xp) -> dict:
    near_m, near_n = (sets(c, x) for c in kernels)
    return _score(sum(a == b for a, b in zip(near_m, near_n)), len(x))


# command -> (its payload, its builds' pair-terms per pair of rows, given k)
_JOBS = {
    "near": (_near, lambda k: k),
    "distmat": (_distmat, lambda k: k),
    "rob-plus": (_rob_plus, lambda k: 2 * k + 1),
    "rob-minus": (_rob_minus, lambda k: k * k),
    "concord": (_concord, lambda k: 2 * k),
}


def payload(args, load):
    """The payload of ``args``' job, as the array path's ``cli._COMMANDS`` row
    gives it (for ``distmat``, the rows of ``_distmat``); ``load(path)``
    gives a CSV's rows.  ``args`` holds the parsed flags, unconverted.

    Raises DomainError where the list path declines: a coefficient spelling
    other than those of ``_KERNELS``, a tolerance ``TiePolicy`` refuses, a
    CSV ``load`` refuses, a job above ``_MAX_TERMS``, a non-finite distance,
    or a shape or score the array path refuses.
    """
    job, terms = _JOBS[args.command]
    spellings = (args.m, args.n) if args.command == "concord" else (args.c,)
    if not all(s in _KERNELS for s in spellings):
        raise DomainError("the list path covers p1, p2, pinf and L")
    tie = (getattr(args, "rel_tol", 0.0), getattr(args, "abs_tol", 0.0))
    if not all(math.isfinite(t) and t >= 0 for t in tie):
        raise DomainError("tie tolerances must be finite and nonnegative")
    x = load(args.x)
    n, k = len(x), len(x[0])
    if n * (n - 1) // 2 * terms(k) > _MAX_TERMS:
        raise DomainError("job above the list path's size")
    positive_only = getattr(args, "positive_only", False)

    def sets(kernel, rows):
        return _near_sets(_distances(kernel, rows), tie, positive_only)

    xp = load(args.xp) if args.command == "rob-plus" else None
    return job(sets, [_KERNELS[s] for s in spellings], x, xp)
