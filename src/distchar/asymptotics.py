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
  Monte Carlo, next to its exact value L/(n+1), which grows without bound
  in L (each |x_i| is uniform on [0, L], so P(min > r) = (1 - r/L)^n);
* high-precision evaluation of delta = exp(-exp(-gamma)) and certified
  continued-fraction convergents, used to bound the denominator of any
  rational number with delta's printed digits.
"""

from __future__ import annotations

import decimal
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import _EXPORTS
from .errors import DomainError, require_integers

__all__ = [*_EXPORTS["asymptotics"], "EULER_MASCHERONI_22"]

# Euler-Mascheroni constant to 22 decimal places.  delta is derived from this
# fixed literal, so the claimable precision of delta is bounded explicitly.
EULER_MASCHERONI_22 = "0.5772156649015328606065"

_MAX_DELTA_DIGITS = 20  # gamma above carries 22; keep 2 guard digits


def scaled_volume(v0: float, r: float, k: int) -> float:
    """Volume of a k-dimensional set of volume ``v0`` scaled by factor ``r``."""
    _require_positive(v0=v0, r=r)
    k = _require_dimension(k)
    try:
        power = r**k
    except OverflowError:
        power = math.inf
    return _normal(v0 * _normal(power, f"r^k = {r!r}^{k}"), "scaled volume")


def nn_distance_density(r: float, k: int, lam: float, v0: float) -> float:
    """Density of the nearest-point distance: k*lam*v0*r^(k-1)*exp(-lam*v0*r^k).

    This is -d/dr of the void probability exp(-lam*v0*r^k); it integrates to
    1 over (0, inf).  Evaluated in logarithms, so a density that underflows
    comes out as 0.0 and one that overflows raises DomainError.
    """
    _require_positive(lam=lam, v0=v0)
    k = _require_dimension(k)
    if r < 0 or r == math.inf or (r == 0 and k > 1):
        return 0.0
    log_density = math.log(k) + math.log(lam) + math.log(v0)
    if r > 0:
        log_void = math.log(lam) + math.log(v0) + k * math.log(r)
        void = math.exp(log_void) if log_void < 709.0 else math.inf  # exp(-void) = 0 anyway
        log_density += (k - 1) * math.log(r) - void
    try:
        return math.exp(log_density)
    except OverflowError:
        raise DomainError(f"density at r = {r!r} overflows the float range") from None


def expected_nn_distance(k: int, lam: float, v0: float) -> float:
    """Mean of the nearest-point distance: Gamma(1 + 1/k) / (lam*v0)^(1/k)."""
    _require_positive(lam=lam, v0=v0)
    k = _require_dimension(k)
    scale = lam ** (1 / k) * v0 ** (1 / k)  # (lam*v0)^(1/k) without forming lam*v0
    return _normal(math.gamma(1 + 1 / k) / scale, "expected nearest-neighbor distance")


def volume_at_expected(k: int, lam: float) -> float:
    """Volume swept at the expected radius: Gamma(1 + 1/k)^k / lam.

    Independent of the reference volume v0:
    scaled_volume(v0, expected_nn_distance(k, lam, v0), k) equals this for
    every v0.
    """
    _require_positive(lam=lam)
    k = _require_dimension(k)
    return _normal(math.gamma(1 + 1 / k) ** k / lam, "volume at the expected radius")


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

    Simulated at L = 1 and scaled by L (substitute x -> x/L), so the
    reported values are exactly L times the unit-scale ones.  Deterministic
    for a given seed, which must be a nonnegative integer.  Raises DomainError
    when a reported value underflows.

    Determinism contract: the PCG64 stream of ``default_rng(seed)`` is read
    in row-major (sample, point) order, one double per point, and each draw
    u becomes |2u - 1|, bitwise numpy's ``abs(uniform(-1, 1))``.  The sample
    minima are summed per chunk of max(1, min(samples, 1_000_000 // n))
    samples with numpy's ``sum``, and the chunk sums are added in order, so
    the estimate depends on nothing but the arguments.  The working set is
    fixed, whatever the sample count: one chunk of minima (at most 8 MB)
    plus a reused block of max(n, 65536) draws.
    """
    require_integers(n=n, samples=samples)
    if n < 1:
        raise DomainError("need at least one point")
    if samples < 2:
        raise DomainError("need at least two samples for a standard error")
    _require_positive(length=length)
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    import numpy as np  # the only numpy user here: delta and its convergents run without it

    rng = np.random.default_rng(seed)
    chunk = max(1, min(samples, 1_000_000 // n))
    rows = min(chunk, max(1, 65536 // n))
    block = np.empty((rows, n))
    mins = np.empty(chunk)
    s1 = 0.0
    s2 = 0.0
    for done in range(0, samples, chunk):
        m = min(chunk, samples - done)
        for start in range(0, m, rows):
            u = block[: min(rows, m - start)]
            rng.random(out=u)
            u *= 2.0
            u -= 1.0
            np.abs(u, out=u)
            width = n
            while width > 1:  # fold the row minimum into column 0; min is exact
                half = width // 2
                np.minimum(u[:, :half], u[:, width - half:width], out=u[:, :half])
                width -= half
            mins[start:start + len(u)] = u[:, 0]
        part = mins[:m]
        s1 += float(part.sum())
        part *= part
        s2 += float(part.sum())
    mean = s1 / samples
    variance = max(0.0, (s2 - samples * mean * mean) / (samples - 1))
    mean, stderr = length * mean, length * math.sqrt(variance / samples)
    _normal(min(mean, stderr), f"estimate at length {length!r}")
    return MonteCarloEstimate(mean=mean, standard_error=stderr, samples=samples, seed=seed)


def conjectured_expected_nn(n: int, length: float) -> float:
    """The exact value L/(n+1) of the expectation above, for every n >= 1.

    Each |x_i| is uniform on [0, L], so P(min > r) = (1 - r/L)^n, the mean is
    the integral of that over [0, L], L/(n+1), and the variance is
    n L^2 / ((n+1)^2 (n+2)).  The name predates the proof and is kept.
    """
    require_integers(n=n)
    if n < 1:
        raise DomainError("need at least one point")
    _require_positive(length=length)
    return _normal(length / (n + 1), f"L/(n+1) at length {length!r}")


def delta_constant(digits: int) -> decimal.Decimal:
    """exp(-exp(-gamma)) rounded to ``digits`` decimal places (1..20).

    gamma is the fixed 22-digit literal above; the working precision carries
    at least ten guard digits, so every returned digit is correct for that
    gamma.  Requests beyond 20 digits would pretend to precision the stored
    gamma cannot support and are rejected.
    """
    require_integers(digits=digits)
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
    if isinstance(x, (decimal.Decimal, str)):
        d = decimal.Decimal(x)
        exponent = d.as_tuple().exponent
        if not isinstance(exponent, int):
            raise DomainError(f"not a finite decimal: {x!r}")
        places = max(0, -exponent)
        unc = Fraction(1, 2 * 10**places) if places else Fraction(1, 2)
        return Fraction(d), unc
    if isinstance(x, (float, numbers.Rational)):
        try:
            return Fraction(x), Fraction(0)
        except (ValueError, OverflowError):  # nan, inf
            raise DomainError(f"not a finite number: {x!r}") from None
    raise DomainError(f"unsupported value type for continued fractions: {type(x)!r}")


def _quotients(x: Fraction):
    """The partial quotients of the exact rational x, until its expansion ends."""
    while True:
        a = math.floor(x)
        yield a
        if x == a:
            return
        x = 1 / (x - a)


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
    require_integers(max_q=max_q)
    if max_q < 1:
        raise DomainError("max_q must be positive")
    x0, inferred = _to_fraction_with_uncertainty(x)
    try:
        unc = inferred if uncertainty is None else Fraction(uncertainty)
    except (TypeError, ValueError, OverflowError):  # nan, inf, not a number
        raise DomainError(f"uncertainty must be a finite real, got {uncertainty!r}") from None
    if unc < 0:
        raise DomainError("uncertainty must be nonnegative")
    if not 0 < x0 < 1:
        raise DomainError(f"value must lie strictly between 0 and 1, got {x0}")

    p_prev, q_prev, p_prev2, q_prev2 = 1, 0, 0, 1
    out: list[Convergent] = []
    for a, a_hi in itertools.zip_longest(_quotients(x0 - unc), _quotients(x0 + unc)):
        if a != a_hi:  # the endpoints disagree, or only one expansion has ended
            return ConvergentSequence(convergents=tuple(out), truncated=True)
        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        if q > max_q:
            break
        out.append(Convergent(p, q))
        p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, p, q
    return ConvergentSequence(convergents=tuple(out), truncated=False)


def _normal(value: float, what: str) -> float:
    # every value checked here is positive: 0, a subnormal or inf means that
    # the true value left the float range
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise DomainError(f"{what} is outside the normal float range (got {value!r})")
    return value


def _require_positive(**named: float) -> None:
    for name, value in named.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be a positive finite real, got {value!r}")


def _require_dimension(k) -> int:
    if not isinstance(k, numbers.Integral) or k < 1:
        raise DomainError(f"dimension k must be a positive integer, got {k!r}")
    return int(k)
