"""Measured node growth and per-iteration success rates.

Run from the repository root after installing the package:

    python3 demos/growth_and_success.py
"""

import math

from kcsp import estimate_iteration_success, gen_coloring, node_growth_experiment

# Backtracking node counts on an UNSAT-rich random family.  The fitted
# slope of ln(median nodes) against n should stay below ln(lambda).
result = node_growth_experiment(
    d=2, k=2, m_per_n=4.0, n_values=range(8, 15), instances_per_n=20, seed=3
)

print("node growth on gen_uniform(n, 2, 2, 4n), 20 instances per n:")
medians = {int(n): median for n, median in result.stats["medians"].items()}
for n in sorted(medians):
    print(f"  n={n:2d}  median UNSAT nodes={medians[n]:6.1f}  "
          f"ln={math.log(medians[n]):.3f}")
print(f"fitted slope {result.stats['slope']:.4f} vs "
      f"threshold {result.stats['threshold']:.4f} -> {result.verdict}")

# One pass of the randomized assigner succeeds with probability at
# least 1/((n+1) base^n); estimate the real rate by Monte Carlo.
triangle = gen_coloring([(1, 2), (2, 3), (1, 3)], num_vertices=3, d=3)
result = estimate_iteration_success(triangle, trials=20000, seed=11)
stats = result.stats
print("\ntriangle 3-coloring, 20000 seeded iterations:")
print(f"  p_hat={stats['p_hat']:.4f}  analytic floor={stats['bound']:.4f}")
print(f"  99% CI [{stats['ci99'][0]:.4f}, {stats['ci99'][1]:.4f}]  -> {result.verdict}")
print("  (narrowing never dead-ends on this instance, so every pass lands"
      " on a proper coloring)")
