"""Expected nearest-neighbor distances, and the constant exp(-exp(-gamma)).

For a process of intensity lam per unit volume in k dimensions the distance
to the nearest point has a closed-form mean; the volume swept at that mean
does not depend on the reference volume at all.  On a finite interval the
picture is different: the expectation grows linearly with the interval.
"""

from distchar import (
    conjectured_expected_nn,
    continued_fraction_convergents,
    delta_constant,
    expected_nn_distance,
    scaled_volume,
    uniform_interval_expected_nn,
    volume_at_expected,
)

# closed form vs the volume identity
for k in (1, 2, 3):
    mean = expected_nn_distance(k, lam=1.0, v0=1.0)
    print(f"k={k}: E(distance) = {mean:.6f}, volume at that radius = "
          f"{volume_at_expected(k, lam=1.0):.6f}")
for v0 in (0.5, 1.0, 7.0):
    assert abs(scaled_volume(v0, expected_nn_distance(2, 1.0, v0), 2)
               - volume_at_expected(2, 1.0)) < 1e-12

# n uniform points on [-L, L]: simulated mean against the exact L/(n+1)
print("\nnearest of n uniform points on [-1, 1]:")
for n in (1, 2, 3, 9):
    est = uniform_interval_expected_nn(n, 1.0, samples=400_000, seed=42)
    print(f"  n={n}: simulated {est.mean:.5f} +- {est.standard_error:.5f}, "
          f"exact L/(n+1) = {conjectured_expected_nn(n, 1.0):.5f}")
est1 = uniform_interval_expected_nn(3, 1.0, samples=200_000, seed=1)
est2 = uniform_interval_expected_nn(3, 2.0, samples=200_000, seed=2)
print(f"  doubling L doubles the mean: {est1.mean:.5f} -> {est2.mean:.5f}")

# delta = exp(-exp(-gamma)) and its certified continued fraction
delta = delta_constant(20)
print(f"\ndelta = {delta}")
run = continued_fraction_convergents(delta, max_q=2 * 10**8)
qs = run.denominators()
print("convergent denominators:", qs)
print("truncated:", run.truncated)
print(f"a rational number with these 20 digits needs a denominator > {qs[-1]}")
