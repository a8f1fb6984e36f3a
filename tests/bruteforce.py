"""Reference implementations the tests need and `bench/checks.py` lacks.

The definitions that `bench/checks.py` already codes come from there, one
copy for the tests and the benchmark: the solution set (`solution_mask`
and `points_of`, wrapped as `brute_solutions` below), satisfaction
(`satisfies`), isolation degree (`isolation_by_definition`), the narrow
average (`narrow_average`), the recurrence ceiling T(n) (`node_ceiling`),
the z = 5 probability check (`probability_close`) and g (`g_poly`).

What stays here, with why:

- `matches`, `brute_narrowed_domain` and `brute_critical_dims`: one
  nogood's match, one variable's narrowed domain and one point's critical
  dimensions as sets; `bench/checks.py` has no per-variable domain and
  counts critical dimensions without naming them.
- `exact_iteration_success`: the same probability as
  `checks.exact_iteration_success`, memoised on the set of assigned
  values, in 0.9-1.3 s against 3.6-4.6 s on the 17 instances of
  `test_estimates_match_exact_probability` (2 vCPU, Python 3.11).
- `CounterState` keeps each nogood's status as counters, the plain form
  of `NogoodState`'s bitset levels, and `reference_dpll` is the solver's
  search as a plain loop on it; `checks.search` is a different search.

The code written here uses plain loops and exact arithmetic, and none of
it calls into the package's solvers or oracles (instances are only read
as data).
"""

from fractions import Fraction

from conftest import checks


def _pair_lists(instance):
    return [ng.pairs for ng in instance.nogoods]


def matches(pairs, point) -> bool:
    return all(point[v - 1] == a for v, a in pairs)


def brute_solutions(instance) -> list:
    """The solutions in lexicographic order, read off `checks.solution_mask`.
    Its digits are int8 and it takes one array axis per variable, so it
    needs d <= 127 and n <= 63; past that a test lists its candidates."""
    if instance.d > 127:
        raise ValueError(f"d = {instance.d}: int8 digits would wrap and miss nogoods")
    mask = checks.solution_mask(checks.plain(instance))
    return checks.points_of(mask, instance.n, instance.d)


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


def exact_iteration_success(instance) -> Fraction:
    """Exact probability that one randomized pass (uniform variable order,
    uniform value from each narrowed domain) ends in a satisfying total
    assignment.  Exponential cost; only for tiny instances.

    In a uniform order, the next variable is uniform over the unassigned
    ones whatever came before, so the chance of success from a partial
    assignment depends on that assignment alone and is memoized on it.
    """
    n = instance.n
    plain = checks.plain(instance)
    memo = {}

    def expect(assigned: dict) -> Fraction:
        if len(assigned) == n:
            point = tuple(assigned[v] for v in range(1, n + 1))
            return Fraction(int(checks.satisfies(plain, point)))
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


class CounterState:
    """Nogood status kept as per-nogood counters, NogoodState's interface.

    For nogood j, `left[j]` counts its unassigned pairs and `bad[j]` its
    assigned pairs that disagree with it: it is killed when bad[j] > 0,
    matched when left[j] == bad[j] == 0, and live otherwise.  `matched`
    counts matched nogoods, arity-0 ones from the start.  `assign` and
    `unassign` are exact inverses, in any order; each walks every
    (nogood, value) occurrence of the variable.
    """

    def __init__(self, instance):
        self.by_var = [[] for _ in range(instance.n + 1)]
        for j, pairs in enumerate(_pair_lists(instance)):
            for v, a in pairs:
                self.by_var[v].append((j, a))
        self.left = [len(pairs) for pairs in _pair_lists(instance)]
        self.bad = [0] * len(self.left)
        self.matched = self.left.count(0)
        self.values = [None] * (instance.n + 1)

    def assign(self, var, value):
        self.values[var] = value
        for j, a in self.by_var[var]:
            self.left[j] -= 1
            if a != value:
                self.bad[j] += 1
            elif self.left[j] == 0 and self.bad[j] == 0:
                self.matched += 1

    def unassign(self, var):
        value = self.values[var]
        self.values[var] = None
        for j, a in self.by_var[var]:
            if a != value:
                self.bad[j] -= 1
            elif self.left[j] == 0 and self.bad[j] == 0:
                self.matched -= 1
            self.left[j] += 1

    def forbidden(self, y):
        return {a for j, a in self.by_var[y] if self.left[j] == 1 and self.bad[j] == 0}


def reference_dpll(instance):
    """The solver's search as a plain loop on CounterState: branch on the
    live nogood with fewest unassigned pairs (ties: lowest index), and
    assign, search and unassign every child, including those that fail at
    once.  Returns (status, assignment, nodes, max_depth)."""
    state = CounterState(instance)
    pair_lists = _pair_lists(instance)
    nodes = max_depth = 0

    def select():
        live = [
            (state.left[j], j)
            for j in range(len(pair_lists))
            if state.left[j] > 0 and state.bad[j] == 0
        ]
        return min(live)[1] if live else -1

    def run(depth):
        nonlocal nodes, max_depth
        nodes += 1
        max_depth = max(max_depth, depth)
        if state.matched > 0:
            return None
        chosen = select()
        if chosen < 0:
            return tuple(v if v is not None else 0 for v in state.values[1:])
        pairs = [(v, a) for v, a in pair_lists[chosen] if state.values[v] is None]
        for u, a in pairs:
            for value in range(instance.d):
                if value == a:
                    continue
                state.assign(u, value)
                result = run(depth + 1)
                if result is not None:
                    return result
                state.unassign(u)
            state.assign(u, a)
        for u, _ in reversed(pairs):
            state.unassign(u)
        return None

    assignment = run(0)
    status = "UNSAT" if assignment is None else "SAT"
    return status, assignment, nodes, max_depth
