"""Expected nearest-neighbor distances and the candidate limiting constant
exp(-exp(-gamma)).

Three strands:

* closed forms for a point process of intensity lambda per unit volume in
  k dimensions: the density of the distance to the nearest point, its
  expectation Gamma(1 + 1/k) / (lambda V0)^(1/k), and the volume swept at
  that expected radius, Gamma(1 + 1/k)^k / lambda, which is independent of
  the reference volume V0;
* the finite picture on an interval: the expected distance from the origin
  to the closest of n i.i.d. uniform points on [-L, L], estimated by seeded
  Monte Carlo, next to the conjectured closed form L/(n+1) (elementary for
  n = 1, 2, 3) which grows without bound in L;
* high-precision evaluation of delta = exp(-exp(-gamma)) and certified
  continued-fraction convergents, used to bound the denominator of any
  rational number with delta's printed digits.
"""

from __future__ import annotations

import decimal
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "Convergent",
    "ConvergentSequence",
    "EULER_MASCHERONI_22",
    "MonteCarloEstimate",
    "conjectured_expected_nn",
    "continued_fraction_convergents",
    "delta_constant",
    "expected_nn_distance",
    "nn_distance_density",
    "scaled_volume",
    "uniform_interval_expected_nn",
    "volume_at_expected",
]

# Euler-Mascheroni constant to 22 decimal places.  delta is derived from this
# fixed literal, so the claimable precision of delta is bounded explicitly.
EULER_MASCHERONI_22 = "0.5772156649015328606065"

_MAX_DELTA_DIGITS = 20  # gamma above carries 22; keep 2 guard digits


def scaled_volume(v0: float, r: float, k: int) -> float:
    """Volume of a k-dimensional set of volume ``v0`` scaled by factor ``r``."""
    _require_positive(v0=v0, r=r)
    k = _require_dimension(k)
    return v0 * r**k


def nn_distance_density(r: float, k: int, lam: float, v0: float) -> float:
    """Density of the nearest-point distance: k*lam*v0*r^(k-1)*exp(-lam*v0*r^k).

    This is -d/dr of the void probability exp(-lam*v0*r^k); it integrates to
    1 over (0, inf).
    """
    _require_positive(lam=lam, v0=v0)
    k = _require_dimension(k)
    if r < 0:
        return 0.0
    return k * lam * v0 * r ** (k - 1) * math.exp(-lam * v0 * r**k)


def expected_nn_distance(k: int, lam: float, v0: float) -> float:
    """Mean of the nearest-point distance: Gamma(1 + 1/k) / (lam*v0)^(1/k)."""
    _require_positive(lam=lam, v0=v0)
    k = _require_dimension(k)
    return math.gamma(1 + 1 / k) / (lam * v0) ** (1 / k)


def volume_at_expected(k: int, lam: float) -> float:
    """Volume swept at the expected radius: Gamma(1 + 1/k)^k / lam.

    Independent of the reference volume v0:
    scaled_volume(v0, expected_nn_distance(k, lam, v0), k) equals this for
    every v0.
    """
    _require_positive(lam=lam)
    k = _require_dimension(k)
    return math.gamma(1 + 1 / k) ** k / lam


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    standard_error: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise DomainError("estimate needs at least one sample")
        if self.standard_error < 0:
            raise DomainError("standard error must be nonnegative")


def uniform_interval_expected_nn(
    n: int, length: float, samples: int, seed: int
) -> MonteCarloEstimate:
    """Monte Carlo estimate of E[min(|x_1|, ..., |x_n|)] for x_i ~ U[-L, L].

    The estimate scales linearly in L (substitute x -> x/L), so it grows
    without bound as L does.  Deterministic for a given seed.
    """
    if n < 1:
        raise DomainError("need at least one point")
    if samples < 1:
        raise DomainError("need at least one sample")
    _require_positive(length=length)
    rng = np.random.default_rng(seed)
    chunk = max(1, min(samples, 1_000_000 // n))
    done = 0
    s1 = 0.0
    s2 = 0.0
    while done < samples:
        m = min(chunk, samples - done)
        mins = np.abs(rng.uniform(-length, length, size=(m, n))).min(axis=1)
        s1 += float(mins.sum())
        s2 += float((mins * mins).sum())
        done += m
    mean = s1 / samples
    if samples < 2:
        stderr = 0.0
    else:
        variance = max(0.0, (s2 - samples * mean * mean) / (samples - 1))
        stderr = math.sqrt(variance / samples)
    return MonteCarloEstimate(mean=mean, standard_error=stderr, samples=samples, seed=seed)


def conjectured_expected_nn(n: int, length: float) -> float:
    """The conjectured closed form L/(n+1) for the expectation above.

    Elementary integration confirms it for n = 1, 2, 3; for general n it is
    an unproved guess and should be quoted as such, paired with the Monte
    Carlo estimate.
    """
    if n < 1:
        raise DomainError("need at least one point")
    _require_positive(length=length)
    return length / (n + 1)


def delta_constant(digits: int) -> decimal.Decimal:
    """exp(-exp(-gamma)) rounded to ``digits`` decimal places (1..20).

    gamma is the fixed 22-digit literal above; the working precision carries
    at least ten guard digits, so every returned digit is correct for that
    gamma.  Requests beyond 20 digits would pretend to precision the stored
    gamma cannot support and are rejected.
    """
    if not 1 <= digits <= _MAX_DELTA_DIGITS:
        raise DomainError(f"digits must be in 1..{_MAX_DELTA_DIGITS}")
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 15
        value = (-(-decimal.Decimal(EULER_MASCHERONI_22)).exp()).exp()
    return value.quantize(
        decimal.Decimal(1).scaleb(-digits), rounding=decimal.ROUND_HALF_EVEN
    )


@dataclass(frozen=True)
class Convergent:
    """A continued-fraction convergent p/q in lowest terms."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise DomainError("convergent denominator must be positive")

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class ConvergentSequence:
    """Certified convergents plus a flag recording why emission stopped.

    ``truncated`` is True when the input's uncertainty interval no longer
    pins down the next partial quotient: the listed convergents are certain,
    and nothing beyond them is claimed.  False means the expansion either
    terminated (exact rational) or ran past the requested denominator bound.
    """

    convergents: tuple[Convergent, ...]
    truncated: bool

    def denominators(self) -> tuple[int, ...]:
        return tuple(c.q for c in self.convergents)

    def __iter__(self):
        return iter(self.convergents)

    def __len__(self) -> int:
        return len(self.convergents)


def _to_fraction_with_uncertainty(x) -> tuple[Fraction, Fraction]:
    """Interpret the input as an exact rational plus a half-ulp uncertainty.

    Decimal and str inputs are taken to be correctly rounded at their last
    printed place; Fraction and int-ratio inputs are exact; float inputs are
    exact dyadic rationals.
    """
    if isinstance(x, Fraction):
        return x, Fraction(0)
    if isinstance(x, decimal.Decimal) or isinstance(x, str):
        d = decimal.Decimal(x)
        exponent = d.as_tuple().exponent
        if not isinstance(exponent, int):
            raise DomainError(f"not a finite decimal: {x!r}")
        places = max(0, -exponent)
        unc = Fraction(1, 2 * 10**places) if places else Fraction(1, 2)
        return Fraction(d), unc
    if isinstance(x, float):
        return Fraction(x), Fraction(0)
    if isinstance(x, numbers.Rational):
        return Fraction(x), Fraction(0)
    raise DomainError(f"unsupported value type for continued fractions: {type(x)!r}")


def continued_fraction_convergents(
    x, max_q: int, uncertainty=None
) -> ConvergentSequence:
    """Certified continued-fraction convergents of x with denominators <= max_q.

    ``x`` must lie in (0, 1).  Its uncertainty (inferred from the decimal
    representation, or given explicitly) is propagated as an exact interval:
    a partial quotient is emitted only while both interval endpoints agree on
    it, so no convergent can be silently wrong.  When the interval stops
    determining the next quotient the sequence is cut and flagged truncated.
    """
    if max_q < 1:
        raise DomainError("max_q must be positive")
    x0, inferred = _to_fraction_with_uncertainty(x)
    unc = inferred if uncertainty is None else Fraction(uncertainty)
    if unc < 0:
        raise DomainError("uncertainty must be nonnegative")
    if not 0 < x0 < 1:
        raise DomainError(f"value must lie strictly between 0 and 1, got {x0}")

    lo, hi = x0 - unc, x0 + unc
    p_prev, q_prev = 1, 0
    p_prev2, q_prev2 = 0, 1
    out: list[Convergent] = []
    truncated = False
    while True:
        a_lo = lo.numerator // lo.denominator
        a_hi = hi.numerator // hi.denominator
        if a_lo != a_hi:
            truncated = True
            break
        a = a_lo
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        if q > max_q:
            break
        out.append(Convergent(p, q))
        rem_lo, rem_hi = lo - a, hi - a
        if rem_lo == 0 and rem_hi == 0:
            break  # exact rational: expansion complete
        if rem_lo == 0 or rem_hi == 0:
            truncated = True  # one endpoint exhausted; next quotient unbounded
            break
        lo, hi = 1 / rem_hi, 1 / rem_lo
        p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, p, q
    return ConvergentSequence(convergents=tuple(out), truncated=truncated)


def _require_positive(**named: float) -> None:
    for name, value in named.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be a positive finite real, got {value!r}")


def _require_dimension(k) -> int:
    if not isinstance(k, numbers.Integral) or k < 1:
        raise DomainError(f"dimension k must be a positive integer, got {k!r}")
    return int(k)
