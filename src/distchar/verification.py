"""Built-in golden checks over the bundled examples.

Each check recomputes a published hand-worked value (a distance matrix,
neighbor positions, a robustness fraction, a concordance, a correlation, or
the delta constant) from the bundled data and compares at the appropriate
tolerance: exact for integer and rational results, 1e-12 relative for
algebraic entries, 1e-6 / 1e-5 for printed correlation decimals.

``CHECKS`` has one row (name, tolerance, thunk) per check.  The thunk maps the
run's example loader (``ex("ex4")`` parses ex4 on first use, once per run) to
(computed, expected) pairs, a pair may carry its own tolerance third, and
library functions are looked up by module-global name at call time.  A check
passes when every pair agrees; one that raises fails alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .association import concordance, correlation, expectation, hadamard
from .asymptotics import delta_constant
from .coefficients import PNorm, SquaredEuclidean, evaluate
from .distance import build, remove_row
from .fixtures import load_example
from .io import neighbor_sets_dict
from .neighbors import nearest_sets
from .robustness import rob_minus, rob_plus

__all__ = ["GoldenCheck", "run_golden_checks"]

P1, P2, PINF, L = PNorm(1), PNorm(2), PNorm(math.inf), SquaredEuclidean()
NORMS = (P1, P2, PINF)
R2 = math.sqrt(2)  # == 2 ** (1 / 2)

# A tolerance is EXACT (np.array_equal) or (relative, absolute) for np.allclose.
EXACT = None
REL = (1e-12, 0.0)
ABS6 = (0.0, 1e-6)
ABS5 = (0.0, 1e-5)

EX1 = np.array([[1.0, 4.0], [4.0, 0.0]])
RANK1_A = np.array([1.0, 3.0, 4.0])
RANK1_W = np.array([0.5, -2.0, 1.25])
COL = np.array([[2.0], [5.0], [1.0]])
COL_GAPS = [[0, 3, 1], [3, 0, 4], [1, 4, 0]]
EX6_Y = [[0, 30, 40], [30, 0, 10], [40, 10, 0]]
T = 2 * math.sqrt(3)  # side of the ex4 triangle
EX4 = [[0, 2, 2, 2], [2, 0, T, T], [2, T, 0, T], [2, T, T, 0]]
EX5 = [[0, R2, R2, R2, R2], [R2, 0, 2, 2 * R2, 2], [R2, 2, 0, 2, 2 * R2],
       [R2, 2 * R2, 2, 0, 2], [R2, 2, 2 * R2, 2, 0]]


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    passed: bool
    detail: str = ""


def _ex6_augmentation(ex):
    # appending the second column destroys every neighbor relation
    chains = [(4**p + 10**p < 3**p + 30**p < 1 + 40**p, True) for p in (1.0, 2.0, 7.0)]
    norms = (*map(PNorm, (1.0, 2.0, 7.0)), PINF)
    scores = [rob_plus(c, ex("ex6")[:, :1], ex("ex6")) for c in norms]
    return chains + [((r.numerator, r.denominator), (0, 3)) for r in scores]


def _ex8_hadamard(ex):
    d8 = build(P2, ex("ex8")[:, :1])
    return [(hadamard(d8, d8), build(L, ex("ex8")[:, :1]))]


CHECKS = (
    ("ex1-two-row-matrix", REL,  # always [[0, c], [c, 0]]
     lambda ex: [(build(P1, EX1), evaluate(P1, EX1[1] - EX1[0]) * (1 - np.eye(2)))]),
    ("ex2-single-column", EXACT, lambda ex: [(build(c, COL), COL_GAPS) for c in NORMS]),
    ("ex3-rank-one-scaling", REL, lambda ex: [
        (build(c, np.outer(RANK1_A, RANK1_W)),
         evaluate(c, RANK1_W) * np.abs(RANK1_A[:, None] - RANK1_A[None, :])) for c in NORMS]),
    ("ex4-distance-euclidean", REL, lambda ex: [(build(P2, ex("ex4")), EX4)]),
    ("ex5-distance-euclidean", REL, lambda ex: [(build(P2, ex("ex5")), EX5)]),
    ("ex6-distance-first-column", EXACT, lambda ex: [(build(P1, ex("ex6")[:, :1]), COL_GAPS)]),
    ("ex6-distance-second-column", EXACT, lambda ex: [(build(P1, ex("ex6")[:, 1:]), EX6_Y)]),
    ("ex6-distance-max-norm", EXACT, lambda ex: [(build(PINF, ex("ex6")), EX6_Y)]),
    ("ex6-neighbor-positions", EXACT,
     lambda ex: [(neighbor_sets_dict(nearest_sets(build(P1, ex("ex6")[:, :1]))),
                  {"sets": [[3], [1], [1]], "total": 3})]),
    ("ex6-augmentation-robustness-zero", EXACT, _ex6_augmentation),
    ("ex7-distance-matrices", EXACT, lambda ex: [  # p = 2; the full matrix at 1e-12
        (build(P2, ex("ex7")), [[0, 1, R2], [1, 0, 1], [R2, 1, 0]], REL),
        (build(P2, ex("ex7")[:, 1:]), [[0, 0, 1], [0, 0, 1], [1, 1, 0]]),
        (build(P2, ex("ex7")[:, :1]), [[0, 1, 1], [1, 0, 0], [1, 0, 0]])]),
    ("ex7-column-removal-robustness", EXACT, lambda ex: [  # smallest-positive convention
        (rob_minus(c, ex("ex7"), positive_only=True).as_fraction(), w)
        for c, w in ((P1, Fraction(0)), (P2, Fraction(0)), (PINF, Fraction(1, 3)))]),
    ("triangle-column-removal-robustness", EXACT, lambda ex: [  # 1/3 at p = 2: a tie breaks
        (rob_minus(c, remove_row(ex("ex4"), 0)).as_fraction(), w)
        for c, w in ((P1, Fraction(2, 3)), (P2, Fraction(1, 3)), (PINF, Fraction(2, 3)))]),
    ("triangle-all-ties-euclidean", EXACT,  # every off-diagonal distance is 2*sqrt(3)
     lambda ex: [(nearest_sets(build(P2, remove_row(ex("ex4"), 0))).total, 6)]),
    ("ex8-hadamard-square", EXACT, _ex8_hadamard),
    ("ex8-expectation", EXACT, lambda ex: [(expectation(build(P2, ex("ex8")[:, :1])), 8 / 9)]),
    ("ex8-column-correlation", ABS6, lambda ex: [
        (correlation(m, L, ex("ex8")[:, :1]).rho, 7 / math.sqrt(55)) for m in (P1, P2)]),
    ("ex8-matrix-correlations", ABS6, lambda ex: [
        (correlation(m, L, ex("ex8")).rho, w)
        for m, w in ((P1, 14 / math.sqrt(213)), (PINF, 53 / (2 * math.sqrt(781))))]),
    ("ex9-expectation", REL,
     lambda ex: [(expectation(build(P1, ex("ex9"))), 2 / 9 * (6 + 4 * math.sqrt(3)))]),
    ("ex9-correlations", ABS5, lambda ex: [
        (correlation(m, n, ex("ex9")).rho, w)
        for m, n, w in ((P1, P2, 0.972335), (P1, PINF, 0.9375373), (P2, PINF, 0.9928629))]),
    ("concordance-golden-values", EXACT, lambda ex: [  # forced agreement; the triangle's 1/3
        (concordance(P1, P2, np.array([[3.0, 1.0]])).as_fraction(), 1),
        (concordance(P1, PINF, np.array([[0.0, 0.0], [1.0, 2.0]])).as_fraction(), 1),
        (concordance(P2, PINF, COL).as_fraction(), 1),
        (concordance(P1, P2, remove_row(ex("ex4"), 0)).as_fraction(), Fraction(1, 3))]),
    ("delta-constant-15-digits", EXACT,
     lambda ex: [(str(delta_constant(15)), "0.570376001675023")]),
)


def _agree(got, want, tolerance) -> bool:
    """The one comparison: exact equality, or allclose at (relative, absolute)."""
    if tolerance is EXACT:
        return bool(np.array_equal(got, want))
    rel, abs_ = tolerance
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)  # None -> nan
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=rel, atol=abs_))


def _run(name: str, tolerance, thunk, examples) -> GoldenCheck:
    try:
        for got, want, *own in thunk(examples):
            if not _agree(got, want, own[0] if own else tolerance):
                shown = [np.asarray(v).tolist() for v in (got, want)]  # one line each
                return GoldenCheck(name, False, "got {}, want {}".format(*shown))
    except Exception as exc:  # a raising check fails alone; the others still run
        return GoldenCheck(name, False, f"{type(exc).__name__}: {exc}")
    return GoldenCheck(name, True)


def run_golden_checks() -> list[GoldenCheck]:
    examples = functools.cache(load_example)
    return [_run(*row, examples) for row in CHECKS]
