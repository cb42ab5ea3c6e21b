"""Built-in golden checks over the bundled examples.

Each check recomputes a published hand-worked value (a distance matrix,
neighbor positions, a robustness fraction, a concordance, a correlation, or
the delta constant) from the bundled data and compares at the appropriate
tolerance: exact for integer and rational results, 1e-12 relative for
algebraic entries, 1e-6 / 1e-5 for printed correlation decimals.

``CHECKS`` has one row (name, tolerance, thunk) per check, its inputs plain
lists and its coefficients spellings.  The thunk maps an ops object, made
once per run, to (computed, expected) pairs; a pair may carry its own
tolerance third.  A check passes when every pair agrees (``_agree``); one
that raises fails alone.  Two ops classes compute the rows:

* ``Arrays``, the reference: the library's functions, looked up in their
  home modules at call time (numpy loads on the first call), directly or
  through the payloads of ``cli._COMMANDS``.  ``run_golden_checks()`` and
  ``cli.run(["verify"])`` take it.
* ``Lists``: ``_lists``' kernels and payloads on the examples' rows, their
  values bit for bit the library's.  The ``distchar verify`` process takes
  it and imports no numpy; a check that fails there is reported as failed.

This module imports no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import distchar as dc

from . import _lists, asymptotics, cli
from . import io as dcio
from .fixtures import fixture_path, load_example

__all__ = ["Arrays", "GoldenCheck", "Lists", "report", "run_golden_checks"]

P1, P2, PINF, L = "p1", "p2", "pinf", "L"
NORMS = (P1, P2, PINF)
R2 = math.sqrt(2)  # == 2 ** (1 / 2)
FIRST, REST = slice(0, 1), slice(1, None)  # ex(..., cols=FIRST): the first column

# A tolerance is EXACT (==) or (relative, absolute), numpy's allclose rule.
EXACT = None
REL = (1e-12, 0.0)
ABS6 = (0.0, 1e-6)
ABS5 = (0.0, 1e-5)

EX1 = [[1.0, 4.0], [4.0, 0.0]]
RANK1_A = [1.0, 3.0, 4.0]
RANK1_W = [0.5, -2.0, 1.25]
COL = [[2.0], [5.0], [1.0]]
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


class _Ops:
    """What both ops classes share.  Coefficients are spellings, as
    ``coefficient_name`` prints them; ``ex`` parses an example once per
    object; neighbor sets, scores and rho are the CLI's payloads."""

    def __init__(self):
        self._examples = {}

    def payload(self, command: str, x, **flags) -> dict:
        """``command``'s payload on the data ``x`` (and ``xp``) at the CLI's
        default flags, else ``flags``: as its process computes it on
        ``Lists``, as ``cli.run()`` does on ``Arrays``."""
        rows = {"x": x, "xp": flags.pop("xp", None)}
        args = {flag[2:].replace("-", "_"): cli._OPTIONS[flag].get("default", False)
                for flag in ("--positive-only", *cli._TIES, "--conv")} | flags
        return self._payload(SimpleNamespace(command=command, x="x", xp="xp", **args), rows)

    def near(self, c, x) -> dict:
        return self.payload("near", x, c=c)

    def rob_plus(self, c, x, xp) -> tuple[int, int]:
        score = self.payload("rob-plus", x, c=c, xp=xp)
        return score["num"], score["den"]

    def rob_minus(self, c, x, positive_only=False) -> Fraction:
        score = self.payload("rob-minus", x, c=c, positive_only=positive_only)
        return Fraction(score["num"], score["den"])

    def concordance(self, m, n, x) -> Fraction:
        score = self.payload("concord", x, m=m, n=n)
        return Fraction(score["num"], score["den"])

    def rho(self, m, n, x) -> float | None:
        return self.payload("corr", x, m=m, n=n)["rho"]

    def delta_constant(self, digits: int):
        return asymptotics.delta_constant(digits)


class Arrays(_Ops):
    """The library's values, the reference: payloads from its ``cli._COMMANDS``
    row, on the library values ``cli._library_values`` gives the flags."""

    def ex(self, name: str, rows=slice(None), cols=slice(None)):
        if name not in self._examples:
            self._examples[name] = load_example(name)
        return self._examples[name][rows, cols]

    def _payload(self, args, rows: dict) -> dict:
        cli._library_values(args, rows)
        return cli._COMMANDS[args.command].payload(args)

    def build(self, c, x):
        return dc.build(dc.parse_coefficient(c), x)

    def evaluate(self, c, v) -> float:
        return dc.evaluate(dc.parse_coefficient(c), v)

    def hadamard(self, a, b):
        return dc.hadamard(a, b)

    def expectation(self, d) -> float:
        return dc.expectation(d)


class Lists(_Ops):
    """``_lists``' values on the examples' rows: payloads from
    ``_lists.payload``, distances from ``_distances``, and an expectation
    from ``_sum``."""

    def ex(self, name: str, rows=slice(None), cols=slice(None)):
        if name not in self._examples:
            self._examples[name] = dcio._parse_rows(fixture_path(name).read_text(), f"{name}.csv")
        return [row[cols] for row in self._examples[name][rows]]

    def _payload(self, args, rows: dict) -> dict:
        return _lists.payload(args, rows.__getitem__)

    def build(self, c, x):
        return _lists._distances(_lists._kernel(c), x)

    def evaluate(self, c, v) -> float:
        return _lists._kernel(c)(list(map(abs, v)))

    def hadamard(self, a, b):
        return [[u * v for u, v in zip(r, s)] for r, s in zip(a, b)]

    def expectation(self, d) -> float:
        """The grid expectation: the strict upper triangle, row by row,
        summed as numpy sums it and divided by n^2/2."""
        return _lists._sum([v for i, row in enumerate(d) for v in row[i + 1:]]) / (len(d) ** 2 / 2)


def _ex6_augmentation(o):
    # appending the second column destroys every neighbor relation
    chains = [(4**p + 10**p < 3**p + 30**p < 1 + 40**p, True) for p in (1.0, 2.0, 7.0)]
    scores = [o.rob_plus(c, o.ex("ex6", cols=FIRST), o.ex("ex6")) for c in (P1, P2, "p7", PINF)]
    return chains + [(score, (0, 3)) for score in scores]


def _ex8_hadamard(o):
    d8 = o.build(P2, o.ex("ex8", cols=FIRST))
    return [(o.hadamard(d8, d8), o.build(L, o.ex("ex8", cols=FIRST)))]


def _gaps(a: list[float], scale: float) -> list[list[float]]:
    return [[scale * abs(u - v) for v in a] for u in a]


CHECKS = (
    ("ex1-two-row-matrix", REL,  # always [[0, c], [c, 0]]
     lambda o: [(o.build(P1, EX1), [[0.0, c := o.evaluate(P1, [3.0, -4.0])], [c, 0.0]])]),
    ("ex2-single-column", EXACT, lambda o: [(o.build(c, COL), COL_GAPS) for c in NORMS]),
    ("ex3-rank-one-scaling", REL, lambda o: [
        (o.build(c, [[a * w for w in RANK1_W] for a in RANK1_A]),
         _gaps(RANK1_A, o.evaluate(c, RANK1_W))) for c in NORMS]),
    ("ex4-distance-euclidean", REL, lambda o: [(o.build(P2, o.ex("ex4")), EX4)]),
    ("ex5-distance-euclidean", REL, lambda o: [(o.build(P2, o.ex("ex5")), EX5)]),
    ("ex6-distance-first-column", EXACT,
     lambda o: [(o.build(P1, o.ex("ex6", cols=FIRST)), COL_GAPS)]),
    ("ex6-distance-second-column", EXACT,
     lambda o: [(o.build(P1, o.ex("ex6", cols=REST)), EX6_Y)]),
    ("ex6-distance-max-norm", EXACT, lambda o: [(o.build(PINF, o.ex("ex6")), EX6_Y)]),
    ("ex6-neighbor-positions", EXACT, lambda o: [
        (o.near(P1, o.ex("ex6", cols=FIRST)), {"sets": [[3], [1], [1]], "total": 3})]),
    ("ex6-augmentation-robustness-zero", EXACT, _ex6_augmentation),
    ("ex7-distance-matrices", EXACT, lambda o: [  # p = 2; the full matrix at 1e-12
        (o.build(P2, o.ex("ex7")), [[0, 1, R2], [1, 0, 1], [R2, 1, 0]], REL),
        (o.build(P2, o.ex("ex7", cols=REST)), [[0, 0, 1], [0, 0, 1], [1, 1, 0]]),
        (o.build(P2, o.ex("ex7", cols=FIRST)), [[0, 1, 1], [1, 0, 0], [1, 0, 0]])]),
    ("ex7-column-removal-robustness", EXACT, lambda o: [  # smallest-positive convention
        (o.rob_minus(c, o.ex("ex7"), positive_only=True), w)
        for c, w in ((P1, Fraction(0)), (P2, Fraction(0)), (PINF, Fraction(1, 3)))]),
    ("triangle-column-removal-robustness", EXACT, lambda o: [  # 1/3 at p = 2: a tie breaks
        (o.rob_minus(c, o.ex("ex4", rows=REST)), w)
        for c, w in ((P1, Fraction(2, 3)), (P2, Fraction(1, 3)), (PINF, Fraction(2, 3)))]),
    ("triangle-all-ties-euclidean", EXACT,  # every off-diagonal distance is 2*sqrt(3)
     lambda o: [(o.near(P2, o.ex("ex4", rows=REST))["total"], 6)]),
    ("ex8-hadamard-square", EXACT, _ex8_hadamard),
    ("ex8-expectation", EXACT,
     lambda o: [(o.expectation(o.build(P2, o.ex("ex8", cols=FIRST))), 8 / 9)]),
    ("ex8-column-correlation", ABS6, lambda o: [
        (o.rho(m, L, o.ex("ex8", cols=FIRST)), 7 / math.sqrt(55)) for m in (P1, P2)]),
    ("ex8-matrix-correlations", ABS6, lambda o: [
        (o.rho(m, L, o.ex("ex8")), w)
        for m, w in ((P1, 14 / math.sqrt(213)), (PINF, 53 / (2 * math.sqrt(781))))]),
    ("ex9-expectation", REL,
     lambda o: [(o.expectation(o.build(P1, o.ex("ex9"))), 2 / 9 * (6 + 4 * math.sqrt(3)))]),
    ("ex9-correlations", ABS5, lambda o: [
        (o.rho(m, n, o.ex("ex9")), w)
        for m, n, w in ((P1, P2, 0.972335), (P1, PINF, 0.9375373), (P2, PINF, 0.9928629))]),
    ("concordance-golden-values", EXACT, lambda o: [  # forced agreement; the triangle's 1/3
        (o.concordance(P1, P2, [[3.0, 1.0]]), 1),
        (o.concordance(P1, PINF, [[0.0, 0.0], [1.0, 2.0]]), 1),
        (o.concordance(P2, PINF, COL), 1),
        (o.concordance(P1, P2, o.ex("ex4", rows=REST)), Fraction(1, 3))]),
    ("delta-constant-15-digits", EXACT,
     lambda o: [(str(o.delta_constant(15)), "0.570376001675023")]),
)


def _plain(value):
    """``value`` with arrays and numpy scalars as Python lists and numbers
    (their ``tolist``), and tuples as lists: what ``_agree`` compares and a
    detail prints."""
    value = value.tolist() if hasattr(value, "tolist") else value
    return [_plain(v) for v in value] if isinstance(value, (list, tuple)) else value


def _agree(got, want, tolerance) -> bool:
    """The one comparison, of ``_plain`` values: exact equality, or numpy's
    allclose rule |got - want| <= absolute + relative * |want| entry by
    entry, where shapes must match and None fails."""
    if tolerance is EXACT:
        return got == want
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_agree(g, w, tolerance) for g, w in zip(got, want)))
    rel, abs_ = tolerance
    return (got is not None and not isinstance(got, list)
            and (got == want or abs(got - want) <= abs_ + rel * abs(want)))


def _run(name: str, tolerance, thunk, ops) -> GoldenCheck:
    try:
        for got, want, *own in thunk(ops):
            got, want = _plain(got), _plain(want)
            if not _agree(got, want, own[0] if own else tolerance):
                return GoldenCheck(name, False, f"got {got}, want {want}")
    except Exception as exc:  # a raising check fails alone; the others still run
        return GoldenCheck(name, False, f"{type(exc).__name__}: {exc}")
    return GoldenCheck(name, True)


def run_golden_checks(ops: type[_Ops] = Arrays) -> list[GoldenCheck]:
    """Every check of ``CHECKS``, computed by one new ``ops`` object."""
    o = ops()
    return [_run(*row, o) for row in CHECKS]


def report(ops: type[_Ops]) -> int:
    """Print a PASS or FAIL line per check (with a failure's detail) and the
    tally; the exit status, 0 when every check passes."""
    checks = run_golden_checks(ops)
    for check in checks:
        suffix = f"  ({check.detail})" if check.detail and not check.passed else ""
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}{suffix}")
    passed = sum(check.passed for check in checks)
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1
