"""Branching roots, run-time bound bases, and repeat counts.

Run from the repository root after installing the package:

    python3 demos/bound_tables.py
"""

import math

from kcsp import (
    bound_table,
    char_root,
    dpll_bound_base,
    ppsz_bound_base,
    repeat_count,
    success_lower_bound,
)

# The branching solver visits O*(lambda^n) nodes where lambda is the
# positive root of lambda^k = (d-1)(lambda^{k-1} + ... + 1).  For d=2
# these are the golden ratio, the tribonacci constant, and so on.
print("roots of the branching recurrence, d=2:")
for k in range(2, 6):
    result = char_root(2, k)
    print(f"  k={k}: lambda={result.lambda_:.12f}  "
          f"residual={result.residual_g:.1e}")

# Side-by-side per-variable bases: lambda for branching, and
# d((d-1)/d)^{1/k} for the randomized assigner.  Smaller is better.
print("\nbase comparison (runtime is about base^n):")
print("  d  k  branching  randomized  smaller")
for row in bound_table(range(2, 6), range(2, 5)):
    print(f"  {row.d}  {row.k}  {row.char_root:9.6f}  {row.ppsz_base:10.6f}  {row.smaller}")

# How many restarts make the failure odds at most about 1/e:
# the ceiling of ((n(n+1))^k d^{n(k-1)} (d-1)^n)^{1/k}, taken in exact
# integer arithmetic so boundary cases land on the right side.
print("\nrepeat counts (exact integer k-th roots):")
for n, d, k in [(3, 2, 3), (6, 3, 2), (10, 2, 2), (12, 3, 2)]:
    print(f"  n={n:2d} d={d} k={k}: repeats={repeat_count(n, d, k)}  "
          f"per-iteration floor={success_lower_bound(n, d, k):.3e}")

# With domains that grow like n^alpha (the regime hard random models
# live in), compare the natural-log run-time exponents n ln(base).
n, alpha, k = 50, 1.0, 2
d = n**alpha
print("\nln of run-time bound, domain size n^alpha:")
print(f"  n={n}, alpha={alpha}, k={k}:")
print(f"    branching : {n * math.log(dpll_bound_base(d, k)):.2f}")
print(f"    randomized: {n * math.log(ppsz_bound_base(d, k)):.2f}")
print(f"    trivial n^(alpha n) would be {n * math.log(d):.2f}")
