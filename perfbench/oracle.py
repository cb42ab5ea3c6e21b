"""Independent checks of `distchar` outputs.

Distances come from ``scipy.spatial.distance.cdist``, never from the
program.  Stated bounds:

* Each cdist entry is within ``ulp_bound(k) = 2k + 4`` ulps of the
  program's entry for a k-column input (cdist sums left to right; the
  program sums exactly and rounds once).  ``distmat`` must meet this bound.
* A neighbor decision is recomputed with the ``TiePolicy`` rule
  d <= m + max(abs_tol, rel_tol * m).  A decision that the ulp bound could
  flip is *ambiguous*: it is accepted either way and counted, and any score
  that depends on it is not compared.  Scores with no ambiguous decision
  (``rob-plus``, ``rob-minus``, ``concord``) must match num/den exactly.
* ``rho`` must lie within ``RHO_TOL`` of a two-pass centred computation.
* ``mc-nn`` must lie within 5 standard errors of L/(n+1), which is proved
  for n <= 3 only; larger n is rejected.
* ``delta-cf`` is recomputed with stdlib ``Decimal`` and ``Fraction``.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import cdist

EPS = np.finfo(float).eps
REL_TOL = 1e-9  # the CLI's default --rel-tol; the jobs never change it
RHO_TOL = 1e-9
MC_SIGMAS = 5
GAMMA_22 = "0.5772156649015328606065"  # Euler-Mascheroni to 22 places
VERIFY_CHECKS = 22

_METRICS = {
    "p1": ("cityblock", {}),
    "p2": ("euclidean", {}),
    "pinf": ("chebyshev", {}),
    "l": ("sqeuclidean", {}),
    "p3.5": ("minkowski", {"p": 3.5}),
}


class Rejected(Exception):
    """The output disagrees with the oracle."""


def ulp_bound(k: int) -> int:
    return 2 * k + 4


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise Rejected(why)


def _options(args) -> dict:
    opts, it = {}, iter(args)
    for key in it:
        opts[key.lstrip("-")] = next(it)
    return opts


class Oracle:
    """Checks job outputs; caches parsed inputs and verdicts per output."""

    def __init__(self) -> None:
        self._inputs: dict[str, np.ndarray] = {}
        self._verdicts: dict[tuple, tuple[bool, str]] = {}
        self.ambiguous = 0

    def _load(self, path: str) -> np.ndarray:
        if path not in self._inputs:
            self._inputs[path] = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        return self._inputs[path]

    def check(self, job, returncode: int, stdout: bytes) -> tuple[bool, str]:
        """Return (accepted, reason).  Identical outputs of one job reuse the
        first verdict, so ambiguous decisions are counted once per distinct
        output."""
        key = (job.label, returncode, hashlib.sha256(stdout).digest())
        if key not in self._verdicts:
            try:
                _require(returncode == 0, f"exit status {returncode}")
                text = stdout.decode()
                getattr(self, "_" + job.sub.replace("-", "_"))(_options(job.args), text)
                verdict = (True, "")
            except Rejected as exc:
                verdict = (False, str(exc))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                verdict = (False, f"malformed output: {exc!r}")
            self._verdicts[key] = verdict
        return self._verdicts[key]

    # --- neighbor sets ------------------------------------------------------

    def _reference(self, x: np.ndarray, coef: str) -> np.ndarray:
        metric, kw = _METRICS[coef.lower()]
        return cdist(x, x, metric, **kw)

    def _sets(self, x: np.ndarray, coef: str):
        """Reference neighbor sets as (certain members, ambiguous members)."""
        d = self._reference(x, coef)
        n = d.shape[0]
        delta = ulp_bound(x.shape[1]) * EPS
        off = d + np.diag(np.full(n, np.inf))
        m = off.min(axis=1, keepdims=True)
        edge_lo = m * (1 - delta) * (1 + REL_TOL)
        edge_hi = m * (1 + delta) * (1 + REL_TOL)
        sure_in = off * (1 + delta) <= edge_lo
        maybe = ~sure_in & (off * (1 - delta) <= edge_hi)
        certain = [frozenset(np.flatnonzero(row).tolist()) for row in sure_in]
        unsure = [frozenset(np.flatnonzero(row).tolist()) for row in maybe]
        self.ambiguous += sum(len(u) for u in unsure)
        return certain, unsure

    def _exact_sets(self, x: np.ndarray, coef: str):
        """Reference sets when no decision is ambiguous, else None."""
        certain, unsure = self._sets(x, coef)
        return None if any(unsure) else certain

    def _near(self, o, text):
        out = json.loads(text)
        x = self._load(o["x"])
        certain, unsure = self._sets(x, o["c"])
        _require(len(out["sets"]) == x.shape[0], "wrong number of neighbor sets")
        for i, (got, sure, maybe) in enumerate(zip(out["sets"], certain, unsure)):
            got0 = frozenset(j - 1 for j in got)
            _require(got == sorted(set(got)), f"row {i + 1}: set not sorted and distinct")
            _require(sure <= got0 <= sure | maybe, f"row {i + 1}: neighbor set {got}")
        _require(out["total"] == sum(len(s) for s in out["sets"]), "total != sum of set sizes")

    def _score(self, text, num, den):
        out = json.loads(text)
        _require((out["num"], out["den"]) == (num, den),
                 f"score {out['num']}/{out['den']}, oracle {num}/{den}")
        _require(out["value"] == num / den, "value != num/den")

    def _rob_plus(self, o, text):
        base = self._exact_sets(self._load(o["x"]), o["c"])
        aug = self._exact_sets(self._load(o["xp"]), o["c"])
        if base is None or aug is None:
            return
        kept = sum(len(b & a) for b, a in zip(base, aug))
        self._score(text, kept, sum(len(b) for b in base))

    def _rob_minus(self, o, text):
        x = self._load(o["x"])
        n, k = x.shape
        base = self._exact_sets(x, o["c"])
        reduced = [self._exact_sets(np.delete(x, j, axis=1), o["c"]) for j in range(k)]
        if base is None or any(r is None for r in reduced):
            return
        changed = sum(b != r for red in reduced for b, r in zip(base, red))
        self._score(text, n * k - changed, n * k)

    def _concord(self, o, text):
        x = self._load(o["x"])
        sm, sn = self._exact_sets(x, o["m"]), self._exact_sets(x, o["n"])
        if sm is None or sn is None:
            return
        self._score(text, sum(a == b for a, b in zip(sm, sn)), x.shape[0])

    def _adversarial(self, o, text):
        out = json.loads(text)
        x = self._load(o["x"])
        n, k = x.shape
        aug = np.array(out["augmented"], dtype=float)
        t = out["t"]
        _require(aug.shape == (n, k + 1), "augmented shape")
        _require(np.array_equal(aug[:, :k], x), "augmented matrix changes x")
        _require(out["spacing"] == [2**i for i in range(n)], "spacing != 2^i")
        _require(out["column"] == aug[:, k].tolist(), "column != last augmented column")
        _require(all(c == t * 2**i for i, c in enumerate(out["column"])), "column != t*2^i")
        _require(out["achieved_near_total"] == n, "achieved total != n")
        base, unsure_base = self._sets(x, o["c"])
        after, unsure_after = self._sets(aug, o["c"])
        if any(unsure_base) or any(unsure_after):
            return
        _require(sum(map(len, after)) == n, "oracle total of augmented matrix != n")
        kept = sum(len(b & a) for b, a in zip(base, after))
        # rob_plus = kept / total(x) must not exceed n / total(x)
        _require(kept <= n, "rob_plus bound n/near_total violated")

    # --- matrices and association -------------------------------------------

    def _distmat(self, o, text):
        out = json.loads(text)
        x = self._load(o["x"])
        got = np.array(out["entries"], dtype=float)
        ref = self._reference(x, o["c"])
        _require(out["order"] == x.shape[0] and got.shape == ref.shape, "order")
        _require(np.array_equal(got, got.T), "not exactly symmetric")
        _require(not np.diag(got).any(), "nonzero diagonal")
        scale = np.spacing(np.maximum(np.abs(got), np.abs(ref)))
        worst = float((np.abs(got - ref) / scale).max())
        _require(worst <= ulp_bound(x.shape[1]), f"entry off by {worst:.0f} ulps")

    def _corr(self, o, text):
        out = json.loads(text)
        x = self._load(o["x"])
        conv = o.get("conv", "grid")
        a, b = self._reference(x, o["m"]), self._reference(x, o["n"])
        if conv == "upper":
            iu = np.triu_indices(x.shape[0], 1)
            a, b = a[iu], b[iu]
        a, b = a.ravel() - a.mean(), b.ravel() - b.mean()
        saa, sbb = float(a @ a), float(b @ b)
        _require(out["convention"] == conv, "convention")
        if saa == 0.0 or sbb == 0.0:
            _require(out["rho"] is None, "rho defined for a degenerate matrix")
            return
        rho = float(a @ b) / math.sqrt(saa * sbb)
        _require(out["rho"] is not None and abs(out["rho"] - rho) <= RHO_TOL,
                 f"rho {out['rho']}, oracle {rho}")

    # --- searches and constants ----------------------------------------------

    def _explore_near(self, o, text):
        out = json.loads(text)
        n = int(o["rows"])
        totals = out["totals"]
        _require(out["rows"] == n, "rows")
        _require(totals == sorted(set(totals)), "totals not sorted and distinct")
        _require(all(n <= t <= n * (n - 1) and t != n * (n - 1) - 1 for t in totals),
                 f"impossible total in {totals}")
        _require(n in totals and n * (n - 1) in totals, "missing n or n(n-1)")

    def _mc_nn(self, o, text):
        out = json.loads(text)
        n, length = int(o["points"]), float(o.get("length", 1.0))
        _require(n <= 3, "L/(n+1) is proved only for n <= 3")
        _require(out["samples"] == int(o["samples"]) and out["seed"] == int(o["seed"]),
                 "samples or seed")
        _require(out["conjectured"] == length / (n + 1), "conjectured value")
        se = out["standard_error"]
        _require(0 < se and abs(out["mean"] - length / (n + 1)) <= MC_SIGMAS * se,
                 f"mean {out['mean']} more than {MC_SIGMAS} stderr from L/(n+1)")

    def _delta_cf(self, o, text):
        out = json.loads(text)
        digits = int(o.get("digits", 20))
        max_q = int(o.get("max-q", 10**9))
        with decimal.localcontext() as ctx:
            ctx.prec = digits + 15
            value = (-(-decimal.Decimal(GAMMA_22)).exp()).exp()
        delta = value.quantize(decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN)
        _require(out["delta"] == str(delta) and out["digits"] == digits,
                 f"delta {out['delta']}, oracle {delta}")
        half = Fraction(1, 2 * 10**digits)
        expected, truncated = _certified_convergents(Fraction(delta) - half,
                                                     Fraction(delta) + half, max_q)
        got = [(c["p"], c["q"]) for c in out["convergents"]]
        _require(got == expected and out["truncated"] == truncated,
                 f"convergents {got} truncated={out['truncated']}, "
                 f"oracle {expected} truncated={truncated}")

    def _verify(self, o, text):
        lines = text.splitlines()
        _require(lines[-1] == f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed",
                 f"verify summary {lines[-1]!r}")
        _require(sum(line.startswith("PASS ") for line in lines) == VERIFY_CHECKS,
                 "PASS lines")


def _quotients(x: Fraction) -> list[int]:
    out = []
    while True:
        a = x.numerator // x.denominator
        out.append(a)
        if x == a:
            return out
        x = 1 / (x - a)


def _certified_convergents(lo: Fraction, hi: Fraction, max_q: int):
    """Convergents shared by every number in [lo, hi], with q <= max_q, and
    whether the listing stopped because the endpoints disagree."""
    ql, qh = _quotients(lo), _quotients(hi)
    p0, q0, p1, q1 = 0, 1, 1, 0
    out = []
    for i in range(min(len(ql), len(qh))):
        if ql[i] != qh[i]:
            return out, True
        p0, q0, p1, q1 = p1, q1, ql[i] * p1 + p0, ql[i] * q1 + q0
        if q1 > max_q:
            return out, False
        out.append((p1, q1))
    return out, len(ql) != len(qh)
