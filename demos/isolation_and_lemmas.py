"""Isolation degrees, the subset inequality, and narrow-choice averages.

Run from the repository root after installing the package:

    python3 demos/isolation_and_lemmas.py
"""

import random
from fractions import Fraction

from kcsp import (
    CspInstance,
    avg_narrow_count,
    enumerate_solutions,
    gen_coloring,
    gen_nqueens,
    verify_lemma2,
)

# A solution X is isolated in dimension i when some single change of
# coordinate i leaves the solution set; those i are the critical points
# of X and J(X) counts them.
triangle = gen_coloring([(1, 2), (2, 3), (1, 3)], num_vertices=3, d=3)
solutions = enumerate_solutions(triangle)
print("triangle 3-coloring solutions and their isolation degrees:")
for point, dims in zip(solutions.solutions, solutions.critical_dims):
    print(f"  X={point}  critical dims={sorted(dims)}  J={len(dims)}")

# queens-4 has two placements; each is isolated in every dimension.
board = gen_nqueens(4)
solutions = enumerate_solutions(board)
print("\n4-queens:", [tuple(x) for x in solutions.solutions],
      "isolation:", list(solutions.isolation))

# The subset inequality: for ANY nonempty S inside {0..d-1}^n,
# sum over x in S of d^{J(x)} >= d^n.  Exercise it on random subsets
# of the full 3^4 cube using exact integers.
rng = random.Random(1)
space = [(a, b, c, e) for a in range(3) for b in range(3) for c in range(3) for e in range(3)]
print("\nrandom subsets of {0,1,2}^4, exact check of sum d^J >= d^n = 81:")
for trial in range(5):
    subset = rng.sample(space, rng.randint(1, 12))
    holds, lhs = verify_lemma2(subset, n=4, d=3)
    print(f"  |S|={len(subset):2d}  lhs={lhs:6d}  holds={holds}")

# Narrow choices: running through the variables in random order, a
# variable is narrowly chosen when some nogood already forbids one of
# its values.  Averaged over all orders, the count is at least J/k.
forcing = CspInstance(2, 2, [[(1, 0)], [(1, 1), (2, 0)]])
result = avg_narrow_count(forcing, (1, 1))
print("\nforcing instance, solution (1,1):")
print(f"  exact average narrow count = {result.average} over {result.orders} orders")
print(f"  lower bound J/k = {Fraction(result.j, forcing.k_max)}")
