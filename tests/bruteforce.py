"""Independent reference implementations used to cross-check the package.

Everything here is coded straight from the definitions with plain loops
and exact arithmetic, no numpy and no calls into the package's solvers
or oracles (instances are only read as data).  Slow on purpose.
"""

from fractions import Fraction
from itertools import permutations, product


def _pair_lists(instance):
    return [ng.pairs for ng in instance.nogoods]


def matches(pairs, point) -> bool:
    return all(point[v - 1] == a for v, a in pairs)


def brute_is_satisfying(instance, point) -> bool:
    return not any(matches(pairs, point) for pairs in _pair_lists(instance))


def brute_solutions(instance) -> list:
    return [
        point
        for point in product(range(instance.d), repeat=instance.n)
        if brute_is_satisfying(instance, point)
    ]


def brute_narrowed_domain(instance, assigned: dict, y: int) -> set:
    """Values open to y: drop a when some nogood holds (y, a) and all its
    other pairs are assigned and agree; an arity-0 nogood drops everything."""
    domain = set(range(instance.d))
    for pairs in _pair_lists(instance):
        if not pairs:
            return set()
        for v, a in pairs:
            if v != y:
                continue
            others_agree = all(
                assigned.get(w) == b for w, b in pairs if w != y
            )
            if others_agree:
                domain.discard(a)
    return domain


def brute_critical_dims(X, solutions, n: int, d: int) -> set:
    """1-indexed dimensions where some single-coordinate change leaves S."""
    S = set(solutions)
    X = tuple(X)
    dims = set()
    for i in range(n):
        for a in range(d):
            if a != X[i] and (*X[:i], a, *X[i + 1 :]) not in S:
                dims.add(i + 1)
                break
    return dims


def brute_avg_narrow(instance, X) -> Fraction:
    """Exact average, over all n! orders, of variables whose domain is
    narrowed at the moment they get assigned X's value."""
    n = instance.n
    total = 0
    orders = 0
    for order in permutations(range(1, n + 1)):
        assigned = {}
        for y in order:
            if len(brute_narrowed_domain(instance, assigned, y)) < instance.d:
                total += 1
            assigned[y] = X[y - 1]
        orders += 1
    return Fraction(total, orders)


def exact_iteration_success(instance) -> Fraction:
    """Exact probability that one randomized pass (uniform variable order,
    uniform value from each narrowed domain) ends in a satisfying total
    assignment.  Exponential cost; only for tiny instances.

    In a uniform order, the next variable is uniform over the unassigned
    ones whatever came before, so the chance of success from a partial
    assignment depends on that assignment alone and is memoized on it.
    """
    n = instance.n
    memo = {}

    def expect(assigned: dict) -> Fraction:
        if len(assigned) == n:
            point = tuple(assigned[v] for v in range(1, n + 1))
            return Fraction(int(brute_is_satisfying(instance, point)))
        key = frozenset(assigned.items())
        if key not in memo:
            free = [y for y in range(1, n + 1) if y not in assigned]
            total = Fraction(0)
            for y in free:
                domain = sorted(brute_narrowed_domain(instance, assigned, y))
                for a in domain:
                    assigned[y] = a
                    total += expect(assigned) / len(domain)
                    del assigned[y]
            memo[key] = total / len(free)
        return memo[key]

    return expect({})
