"""Reference checks for the benchmark, written from the definitions.

Nothing here calls into kcsp: an instance is read as plain data, a
`Plain(n, d, nogoods)` with each nogood a tuple of (variable, value) pairs.
The code favours obviousness over speed, and every check runs outside the
timed region of a pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

import numpy as np

# p_hat is compared with the exact success probability at this many
# standard errors.  A 99% interval (z = 2.58) would fail about one honest
# check in a hundred; a benchmark comparison makes thousands of them.
PROBABILITY_Z = 5.0


class Plain(NamedTuple):
    n: int
    d: int
    nogoods: tuple


def plain(instance) -> Plain:
    return Plain(instance.n, instance.d, tuple(ng.pairs for ng in instance.nogoods))


def read_instance_text(text: str) -> Plain:
    """The documented file format, parsed without the package's parser."""
    n = d = None
    nogoods = []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "p":
            n, d = int(tokens[2]), int(tokens[3])
            continue
        arity = int(tokens[1])
        ints = [int(t) for t in tokens[2:]]
        if len(ints) != 2 * arity:
            raise ValueError(f"bad nogood line {raw!r}")
        nogoods.append(tuple(zip(ints[0::2], ints[1::2])))
    if n is None:
        raise ValueError("missing header")
    return Plain(n, d, tuple(nogoods))


def satisfies(inst: Plain, point) -> bool:
    if point is None or len(point) != inst.n or any(not 0 <= a < inst.d for a in point):
        return False
    return not any(all(point[v - 1] == a for v, a in pairs) for pairs in inst.nogoods)


def solution_mask(inst: Plain) -> np.ndarray:
    """Boolean over all d^n points in lexicographic order: True where no nogood matches."""
    digits = np.indices((inst.d,) * inst.n, dtype=np.int8).reshape(inst.n, -1)
    ok = np.ones(digits.shape[1], dtype=bool)
    for pairs in inst.nogoods:
        hit = np.ones(digits.shape[1], dtype=bool)
        for v, a in pairs:
            hit &= digits[v - 1] == a
        ok &= ~hit
    return ok


def points_of(mask: np.ndarray, n: int, d: int) -> list[tuple]:
    codes = np.flatnonzero(mask)
    return [tuple(int(x) for x in np.unravel_index(c, (d,) * n)) for c in codes]


def isolation_by_definition(points, n: int, d: int) -> list[int]:
    """Per point, the dimensions where some single-value change leaves the set."""
    members = {tuple(p) for p in points}
    degrees = []
    for p in points:
        p = tuple(p)
        degree = 0
        for i in range(n):
            if any((*p[:i], a, *p[i + 1 :]) not in members for a in range(d) if a != p[i]):
                degree += 1
        degrees.append(degree)
    return degrees


def isolation_from_mask(mask: np.ndarray, n: int, d: int) -> np.ndarray:
    """Isolation degree of every solution, in lexicographic order (d^n fits int64)."""
    codes = np.flatnonzero(mask)
    degree = np.zeros(len(codes), dtype=np.int64)
    for i in range(n):
        power = d ** (n - 1 - i)
        digit = (codes // power) % d
        critical = np.zeros(len(codes), dtype=bool)
        for a in range(d):
            other = codes + (a - digit) * power
            critical |= (digit != a) & ~mask[other]
        degree += critical
    return degree


def search(inst: Plain):
    """Backtracking search; a satisfying point or None.

    Each node scans every nogood: a matched one fails the node, one with a
    single unset pair forbids that value, and the branching variable is the
    one with the fewest values left, else an unset variable of the shortest
    open nogood.  Only forbidden values are skipped, and a point is returned
    only after a full scan finds no nogood matched.
    """
    n, d = inst.n, inst.d
    values = [None] * (n + 1)

    def walk(depth):
        forbidden = {}
        shortest_open = None
        for pairs in inst.nogoods:
            unset = []
            for v, a in pairs:
                if values[v] is None:
                    unset.append((v, a))
                elif values[v] != a:
                    break
            else:
                if not unset:
                    return None
                if len(unset) == 1:
                    forbidden.setdefault(unset[0][0], set()).add(unset[0][1])
                elif shortest_open is None or len(unset) < len(shortest_open):
                    shortest_open = unset
        if depth == n:
            return tuple(values[1:])
        if forbidden:
            y = max(forbidden, key=lambda v: len(forbidden[v]))
            choices = [a for a in range(d) if a not in forbidden[y]]
        else:
            y = shortest_open[0][0] if shortest_open else values.index(None, 1)
            choices = range(d)
        for a in choices:
            values[y] = a
            found = walk(depth + 1)
            if found is not None:
                return found
        values[y] = None
        return None

    return walk(0)


def pigeonhole_unsat(inst: Plain) -> bool:
    """True when the instance is exactly 'n pigeons, d holes, no shared hole'
    with n > d: unsatisfiable by counting."""
    expected = {
        ((i, a), (j, a))
        for i in range(1, inst.n + 1)
        for j in range(i + 1, inst.n + 1)
        for a in range(inst.d)
    }
    return inst.n > inst.d and set(inst.nogoods) == expected


def node_ceiling(n: int, d: int, k: int) -> int:
    """T(n) with T(0) = 1 and T(m) = 1 + (d-1) * sum_{i=1..min(k,m)} T(m-i)."""
    T = [1]
    for m in range(1, n + 1):
        T.append(1 + (d - 1) * sum(T[m - i] for i in range(1, min(k, m) + 1)))
    return T[n]


def k_max(inst: Plain) -> int:
    return max((len(pairs) for pairs in inst.nogoods), default=0)


def _forbidden(inst_by_var, values, y):
    out = set()
    for pairs in inst_by_var[y]:
        if all(values.get(v) == a for v, a in pairs if v != y):
            out.add(dict(pairs)[y])
    return out


def exact_iteration_success(inst: Plain) -> Fraction:
    """Probability that one randomized pass (uniform variable order, uniform
    value from each narrowed domain) ends in a satisfying assignment.

    The narrowed domain depends only on which values are set, not on the
    order they were set in, and the next variable of a uniform order is
    uniform over the unset ones; so the probability is a function of the
    partial assignment alone and is memoised on it.
    """
    if any(len(pairs) == 0 for pairs in inst.nogoods):
        return Fraction(0)
    n, d = inst.n, inst.d
    by_var = [[] for _ in range(n + 1)]
    for pairs in inst.nogoods:
        for v, _ in pairs:
            by_var[v].append(pairs)
    memo = {}

    def prob(key):
        if key in memo:
            return memo[key]
        values = {v: a for v, a in enumerate(key, start=1) if a is not None}
        unset = [v for v in range(1, n + 1) if key[v - 1] is None]
        if not unset:
            result = Fraction(int(satisfies(inst, key)))
        else:
            result = Fraction(0)
            for y in unset:
                choices = [a for a in range(d) if a not in _forbidden(by_var, values, y)]
                if not choices:
                    continue
                part = sum(prob(key[: y - 1] + (a,) + key[y:]) for a in choices)
                result += part / len(choices)
            result /= len(unset)
        memo[key] = result
        return result

    return prob((None,) * n)


def narrow_average(inst: Plain, X) -> Fraction:
    """Average over all n! orders of the variables narrowed when reached,
    assigning X's values along the order."""
    by_var = [[] for _ in range(inst.n + 1)]
    for pairs in inst.nogoods:
        for v, _ in pairs:
            by_var[v].append(pairs)
    empty = any(len(pairs) == 0 for pairs in inst.nogoods)
    total = orders = 0
    for order in permutations(range(1, inst.n + 1)):
        values = {}
        for y in order:
            total += empty or bool(_forbidden(by_var, values, y))
            values[y] = X[y - 1]
        orders += 1
    return Fraction(total, orders)


def probability_close(p_hat: float, exact: Fraction, trials: int) -> bool:
    p = float(exact)
    return abs(p_hat - p) <= PROBABILITY_Z * math.sqrt(p * (1 - p) / trials) + 1e-12


def g_poly(x: Fraction, d: int, k: int) -> Fraction:
    return x ** (k + 1) - d * x**k + (d - 1)


def root_row_ok(d: int, k: int, root: float) -> bool:
    """The reported dominant root of x^{k+1} - d x^k + (d-1) is a root to
    printed precision, and the exact sandwich d - 1/d^(k-1) < root <
    d - (d-1)/d^k holds.  g increases past dk/(k+1), so a sign change
    across the sandwich puts the true root strictly inside it."""
    lower = d - Fraction(1, d ** (k - 1))
    upper = d - Fraction(d - 1, d**k)
    if not (Fraction(d * k, k + 1) < lower and g_poly(lower, d, k) < 0 < g_poly(upper, d, k)):
        return False
    r = Fraction(root)
    slack = r * Fraction(1, 10**10)
    return (
        g_poly(r - slack, d, k) < 0 < g_poly(r + slack, d, k)
        and lower - slack < r < upper + slack
    )


def least_squares_slope(xs, ys) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
