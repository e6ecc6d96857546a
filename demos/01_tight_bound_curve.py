#!/usr/bin/env python3
"""How good can a scheduler be, as a function of the migration budget?

Two hierarchical machines, the optimal makespan known in advance and
scaled to 1.  When a job of size p arrives, previously placed jobs of
total size up to m * p may switch machines.  Four regimes emerge, and the
tight competitive ratio is exact in every one of them:

    m >= 5/2        ->  (2m+5)/(2m+3), sliding toward 1
    3/4 <= m < 5/2  ->  5/4
    1/2 <= m < 3/4  ->  2 - m
    m < 1/2         ->  3/2, migration is useless here
"""
from fractions import Fraction

from hierstretch.core import ratio_bound

grid = [
    Fraction(v)
    for v in ("0", "1/4", "1/2", "3/5", "2/3", "7/10", "3/4", "1", "3/2",
              "2", "5/2", "3", "5", "10", "100", "1000")
]

print("tight competitive ratio by migration factor")
print(f"{'m':>8}  {'regime':<6}  {'bound':>10}  {'decimal':>10}")
for row in map(ratio_bound, grid):
    print(
        f"{str(row.m):>8}  {row.regime.value:<6}  {str(row.bound):>10}  "
        f"{float(row.bound):>10.6f}"
    )

print()
print("the curve is continuous at every regime boundary:")
for m in ("1/2", "3/4", "5/2"):
    b = ratio_bound(m)
    print(f"  at m = {m}: bound = {b.bound}")

print()
print("and the excess over 1 vanishes as the budget grows:")
for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
    m = 1 / eps
    excess = ratio_bound(m).bound - 1
    print(f"  m = {m}: bound - 1 = {excess} < {eps}")
