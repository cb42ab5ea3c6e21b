"""Nearest-neighbor sets, ties, and which neighbor totals are reachable.

The neighbor total of an n-row matrix always lies in {n, ..., n(n-1)}.
Under exact ties it can never equal n(n-1) - 1; a tolerance decides each
row on its own, so there it can.  Beyond that, the reachable values are an
open question which `achievable_near_totals` probes empirically.
"""

import math

import numpy as np

from distchar import (
    PNorm,
    SearchBudget,
    TiePolicy,
    achievable_near_totals,
    build,
    nearest_sets,
)

p1, p2 = PNorm(1), PNorm(2)

# points on a line at 1, 3, 4: being someone's neighbor is not mutual
line = np.array([[1.0], [3.0], [4.0]])
ns = nearest_sets(build(p2, line))
print("line at 1, 3, 4:")
for i, s in enumerate(ns.sets):
    print(f"  row {i + 1} -> rows {sorted(j + 1 for j in s)}")
print(f"  total = {ns.total}")

# duplicate rows sit at distance zero, which counts by default
dup = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
print("\nwith a duplicated row:", [sorted(j + 1 for j in s)
                                   for s in nearest_sets(build(p2, dup)).sets])
print("positive-only variant:", [sorted(j + 1 for j in s)
                                 for s in nearest_sets(build(p2, dup), positive_only=True).sets])

# an exact tie computed by two float routes is still a tie: all six
# distances of the equilateral triangle equal 2*sqrt(3)
s = math.sqrt(3)
triangle = np.array([[2, 0], [-1, s], [-1, -s]])
print("\ntriangle neighbor total:", nearest_sets(build(p2, triangle)).total, "= n(n-1)")

# a hair-thin gap is merged or kept depending on the tie policy
d = build(p2, np.array([[0.0], [1.0], [-1.0 - 1e-12]]))
strict = nearest_sets(d, TiePolicy(relative_tolerance=0.0))
lenient = nearest_sets(d, TiePolicy(relative_tolerance=1e-9))
print("strict ties:", strict.total, " lenient ties:", lenient.total)

# which totals appear for 4-row matrices under the Euclidean norm?
totals = achievable_near_totals(4, p2, SearchBudget(random_samples=300), seed=0)
print("\nobserved neighbor totals for n=4:", sorted(totals))
print("(11 = n(n-1) - 1 needs a tie that the tolerance grants to one row only)")
