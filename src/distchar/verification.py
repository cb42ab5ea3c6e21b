"""Built-in golden checks over the bundled examples.

Each check recomputes a published hand-worked value (a distance matrix,
neighbor positions, a robustness fraction, a concordance, a correlation, or
the delta constant) from the bundled data and compares at the appropriate
tolerance: exact for integer and rational results, 1e-12 relative for
algebraic entries, 1e-6 / 1e-5 for printed correlation decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .association import SampleSpace, concordance, correlation, expectation, hadamard
from .asymptotics import delta_constant
from .coefficients import PNorm, SquaredEuclidean, evaluate
from .distance import build, remove_row
from .fixtures import load_example
from .io import neighbor_sets_dict
from .neighbors import nearest_sets
from .robustness import rob_minus, rob_plus

__all__ = ["GoldenCheck", "run_golden_checks"]

P1 = PNorm(1)
P2 = PNorm(2)
PINF = PNorm(math.inf)
L = SquaredEuclidean()

SQRT3 = math.sqrt(3)


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    passed: bool
    detail: str = ""


def _close(a, b, rel=1e-12) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.allclose(a, b, rtol=rel, atol=0.0))


def run_golden_checks() -> list[GoldenCheck]:
    checks: list[GoldenCheck] = []

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(GoldenCheck(name=name, passed=bool(passed), detail=detail))

    # ex1: a 2-row matrix always gives [[0, c], [c, 0]]
    x = np.array([[1.0, 4.0], [4.0, 0.0]])
    c = evaluate(P1, x[1] - x[0])
    add("ex1-two-row-matrix", _close(build(P1, x), [[0, c], [c, 0]]))

    # ex2: a single column gives absolute differences, for every coefficient
    col = np.array([[2.0], [5.0], [1.0]])
    expected = [[0, 3, 1], [3, 0, 4], [1, 4, 0]]
    ok = all(np.array_equal(build(cf, col), expected) for cf in (P1, P2, PINF))
    add("ex2-single-column", ok)

    # ex3: rank-one data, distance matrix is a scaled gap matrix
    a = np.array([1.0, 3.0, 4.0])
    w = np.array([0.5, -2.0, 1.25])
    gaps = np.abs(a[:, None] - a[None, :])
    ok = all(
        _close(build(cf, np.outer(a, w)), evaluate(cf, w) * gaps) for cf in (P1, P2, PINF)
    )
    add("ex3-rank-one-scaling", ok)

    # ex4: origin + equilateral triangle, Euclidean
    s = SQRT3
    ex4 = load_example("ex4")
    want4 = [
        [0, 2, 2, 2],
        [2, 0, 2 * s, 2 * s],
        [2, 2 * s, 0, 2 * s],
        [2, 2 * s, 2 * s, 0],
    ]
    add("ex4-distance-euclidean", _close(build(P2, ex4), want4))

    # ex5: origin + square vertices, Euclidean
    r = math.sqrt(2)
    ex5 = load_example("ex5")
    want5 = [
        [0, r, r, r, r],
        [r, 0, 2, 2 * r, 2],
        [r, 2, 0, 2, 2 * r],
        [r, 2 * r, 2, 0, 2],
        [r, 2, 2 * r, 2, 0],
    ]
    add("ex5-distance-euclidean", _close(build(P2, ex5), want5))

    # ex6: the two columns and the max-norm distance matrix of the pair
    ex6 = load_example("ex6")
    x6 = ex6[:, :1]
    y6 = ex6[:, 1:]
    add("ex6-distance-first-column", np.array_equal(build(P1, x6), expected))
    want_y = [[0, 30, 40], [30, 0, 10], [40, 10, 0]]
    add("ex6-distance-second-column", np.array_equal(build(P1, y6), want_y))
    add("ex6-distance-max-norm", np.array_equal(build(PINF, ex6), want_y))

    sets6 = neighbor_sets_dict(nearest_sets(build(P1, x6)))
    add("ex6-neighbor-positions", sets6 == {"sets": [[3], [1], [1]], "total": 3})

    # ex6: appending the second column destroys every neighbor relation
    ok = True
    details = []
    for p in (1.0, 2.0, 7.0):
        chain = 4**p + 10**p < 3**p + 30**p < 1 + 40**p
        score = rob_plus(PNorm(p), x6, ex6)
        ok = ok and chain and (score.numerator, score.denominator) == (0, 3)
        details.append(f"p={p:g}: {score.numerator}/{score.denominator}")
    score = rob_plus(PINF, x6, ex6)
    ok = ok and (score.numerator, score.denominator) == (0, 3)
    add("ex6-augmentation-robustness-zero", ok, "; ".join(details))

    # ex7: distance matrices of the basis-row matrix and its columns (p = 2)
    ex7 = load_example("ex7")
    q = 2 ** (1 / 2)
    add(
        "ex7-distance-matrices",
        _close(build(P2, ex7), [[0, 1, q], [1, 0, 1], [q, 1, 0]])
        and np.array_equal(build(P2, ex7[:, 1:]), [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        and np.array_equal(build(P2, ex7[:, :1]), [[0, 1, 1], [1, 0, 0], [1, 0, 0]]),
    )

    # ex7: leave-one-column-out robustness, under the smallest-positive-
    # distance convention used by the worked example
    ok = True
    for p, want in ((P1, Fraction(0)), (P2, Fraction(0)), (PINF, Fraction(1, 3))):
        got = rob_minus(p, ex7, positive_only=True).as_fraction()
        ok = ok and got == want
    add("ex7-column-removal-robustness", ok)

    # triangle rows (ex4 without the origin): robustness 2/3 at p = 1, inf;
    # 1/3 at p = 2, where removing a column breaks the all-pairs tie in 2 rows
    tri = remove_row(ex4, 0)
    want = ((P1, Fraction(2, 3)), (P2, Fraction(1, 3)), (PINF, Fraction(2, 3)))
    ok = all(rob_minus(p, tri).as_fraction() == w for p, w in want)
    add("triangle-column-removal-robustness", ok)

    # triangle at p = 2: every off-diagonal distance ties at 2*sqrt(3)
    add("triangle-all-ties-euclidean", nearest_sets(build(P2, tri)).total == 6)

    # ex8: squared-Euclidean interplay on the bundled 3x2 matrix
    ex8 = load_example("ex8")
    x8 = ex8[:, :1]
    d8 = build(P2, x8)
    add("ex8-hadamard-square", np.array_equal(hadamard(d8, d8), build(L, x8)))
    add("ex8-expectation", expectation(d8) == 8 / 9)
    ok = True
    for m, want in ((P1, 7 / math.sqrt(55)), (P2, 7 / math.sqrt(55))):
        got = correlation(m, L, x8).rho
        ok = ok and got is not None and abs(got - want) <= 1e-6
    add("ex8-column-correlation", ok)
    ok = (
        abs(correlation(P1, L, ex8).rho - 14 / math.sqrt(213)) <= 1e-6
        and abs(correlation(PINF, L, ex8).rho - 53 / (2 * math.sqrt(781))) <= 1e-6
    )
    add("ex8-matrix-correlations", ok)

    # ex9: the triangle's expectations and printed correlations
    ex9 = load_example("ex9")
    add(
        "ex9-expectation",
        _close(expectation(build(P1, ex9)), 2 / 9 * (6 + 4 * SQRT3)),
    )
    ok = (
        abs(correlation(P1, P2, ex9).rho - 0.972335) <= 1e-5
        and abs(correlation(P1, PINF, ex9).rho - 0.9375373) <= 1e-5
        and abs(correlation(P2, PINF, ex9).rho - 0.9928629) <= 1e-5
    )
    add("ex9-correlations", ok)

    # concordance: the forced-agreement cases and the triangle's 1/3
    one_row = np.array([[3.0, 1.0]])
    two_rows = np.array([[0.0, 0.0], [1.0, 2.0]])
    ok = (
        concordance(P1, P2, one_row).as_fraction() == 1
        and concordance(P1, PINF, two_rows).as_fraction() == 1
        and concordance(P2, PINF, col).as_fraction() == 1
        and concordance(P1, P2, tri).as_fraction() == Fraction(1, 3)
    )
    add("concordance-golden-values", ok)

    # the candidate limiting constant to 15 places
    add(
        "delta-constant-15-digits",
        str(delta_constant(15)) == "0.570376001675023",
    )

    return checks
