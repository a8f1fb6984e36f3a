import hashlib
import math
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import product

import pytest

import kcsp.dpll as dpll
from kcsp import (
    CspInstance,
    char_root,
    gen_nqueens,
    is_satisfying,
    solve_dpll,
)
from kcsp.generators import gen_coloring, gen_model_rb, gen_uniform
from kcsp.harness import corpus

from bruteforce import CounterState, brute_solutions, reference_dpll
from conftest import checks, random_instance, src_env, uniform_sample_500


def pigeonhole(pigeons: int, holes: int) -> CspInstance:
    """PHP(p, h): pigeon i sits in hole x_i, and no two pigeons share a hole."""
    nogoods = [
        [(i, a), (j, a)]
        for i in range(1, pigeons + 1)
        for j in range(i + 1, pigeons + 1)
        for a in range(holes)
    ]
    return CspInstance(pigeons, holes, nogoods)


def chain_plus_core(n: int, d: int, k: int) -> CspInstance:
    """The chain nogoods ((i, 0), ..., (i+k-1, 0)) for i = 1..n-k, in that
    order, then all d^k nogoods on the last k variables: UNSAT, and the
    solver takes exactly T(n) nodes on it."""
    chain = [[(i + j, 0) for j in range(k)] for i in range(1, n - k + 1)]
    core = [list(zip(range(n - k + 1, n + 1), values)) for values in product(range(d), repeat=k)]
    return CspInstance(n, d, chain + core)


def one_variable_dpll(instance):
    """A weaker branching rule, for contrast: pick the nogood as the solver
    does, but branch its first unassigned variable over all d values.
    Returns (status, nodes)."""
    state = CounterState(instance)
    pair_lists = [ng.pairs for ng in instance.nogoods]
    nodes = 0

    def run():
        nonlocal nodes
        nodes += 1
        if state.matched:
            return False
        live = [
            (state.left[j], j)
            for j in range(len(pair_lists))
            if state.left[j] > 0 and state.bad[j] == 0
        ]
        if not live:
            return True
        u = next(v for v, _ in pair_lists[min(live)[1]] if state.values[v] is None)
        for value in range(instance.d):
            state.assign(u, value)
            found = run()
            state.unassign(u)
            if found:
                return True
        return False

    return ("SAT" if run() else "UNSAT"), nodes


def growth_slope(ns, nodes) -> float:
    """Least-squares slope of ln(nodes) against n."""
    mean_n = sum(ns) / len(ns)
    logs = [math.log(x) for x in nodes]
    mean_log = sum(logs) / len(logs)
    return sum((n - mean_n) * (y - mean_log) for n, y in zip(ns, logs)) / sum(
        (n - mean_n) ** 2 for n in ns
    )


CHAIN_GRID = [(2, 2, 20), (3, 2, 11), (4, 2, 8), (2, 3, 17), (3, 3, 9)]


def fuzz_instances(count: int = 300) -> list[CspInstance]:
    """Seeded small instances, sparse and dense; every tenth has d = 1 and
    every tenth other one an arity-0 nogood."""
    rng = random.Random(324)
    instances = []
    for i in range(count):
        if i % 2:
            n, d, k = rng.randint(4, 8), rng.randint(2, 4), rng.randint(2, 3)
            inst = gen_uniform(n, d, k, rng.randint(n, 5 * n), seed=i)
        else:
            inst = random_instance(rng, max_n=6, max_d=4)
        if i % 10 == 3:
            unary_domain = [[(v, 0) for v, _ in ng.pairs] for ng in inst.nogoods[:2]]
            inst = CspInstance(inst.n, 1, unary_domain)
        elif i % 10 == 7:
            inst = CspInstance(inst.n, inst.d, [*(ng.pairs for ng in inst.nogoods), []])
        instances.append(inst)
    return instances


class TestVerdicts:
    def test_triangle_two_colors_unsat(self):
        stats = solve_dpll(gen_coloring([(1, 2), (2, 3), (1, 3)], 3, 2))
        assert stats.status == "UNSAT" and stats.assignment is None

    def test_triangle_three_colors_sat(self):
        inst = gen_coloring([(1, 2), (2, 3), (1, 3)], 3, 3)
        stats = solve_dpll(inst)
        assert stats.status == "SAT"
        assert is_satisfying(inst, stats.assignment)

    def test_empty_instance_one_node(self):
        stats = solve_dpll(CspInstance(5, 3))
        assert stats.status == "SAT"
        assert stats.assignment == (0, 0, 0, 0, 0)
        assert stats.nodes == 1 and stats.max_depth == 0

    def test_arity_zero_one_node(self):
        stats = solve_dpll(CspInstance(2, 2, [[]]))
        assert stats.status == "UNSAT" and stats.nodes == 1

    def test_matches_reference_on_corpus(self):
        for name, inst in corpus():
            stats = solve_dpll(inst)
            assert (stats.status == "SAT") == bool(brute_solutions(inst)), name
            if stats.status == "SAT":
                assert is_satisfying(inst, stats.assignment)

    def test_matches_reference_on_fuzz(self):
        rng = random.Random(321)
        for _ in range(250):
            inst = random_instance(rng)
            stats = solve_dpll(inst)
            solutions = brute_solutions(inst)
            assert (stats.status == "SAT") == bool(solutions)
            if stats.status == "SAT":
                assert tuple(stats.assignment) in set(solutions)

    def test_depth_does_not_depend_on_the_caller_stack(self):
        # 700 levels under 300 frames of the caller's: more than the
        # interpreter's default 1,000 frames together
        inst = CspInstance(700, 2, [[(v, 0)] for v in range(1, 701)])

        def nested(frames):
            return nested(frames - 1) if frames else solve_dpll(inst)

        stats = nested(300)
        assert (stats.status, stats.assignment) == ("SAT", (1,) * 700)
        assert (stats.nodes, stats.max_depth) == (701, 700)

    def test_safety_check_survives_optimize_flag(self):
        # python -O strips assert statements; with the check patched to
        # reject every assignment, the solver must refuse, not answer SAT
        script = (
            "import kcsp.dpll as dpll\n"
            "dpll.is_satisfying = lambda instance, values: False\n"
            "try:\n"
            "    print(dpll.solve_dpll(dpll.CspInstance(2, 2)).status)\n"
            "except RuntimeError:\n"
            "    print('refused')\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_env()
        )
        assert (run.returncode, run.stdout) == (0, "refused\n"), run.stderr


class TestNodeCounts:
    def test_determinism(self):
        inst = gen_uniform(7, 2, 3, 14, seed=5)
        assert solve_dpll(inst) == solve_dpll(inst)

    @pytest.mark.parametrize(
        "name,status,nodes,max_depth",
        [
            pytest.param(*case, id=f"{case[0]}-{case[2]}")
            for case in [
                ("pair-forcing", "SAT", 3, 2),
                ("unary-chain", "SAT", 4, 3),
                ("zero-arity", "UNSAT", 1, 0),
                ("empty-2-2", "SAT", 1, 0),
                ("all-pairs-3-2", "UNSAT", 4, 2),
                ("queens-2", "UNSAT", 4, 2),
                ("queens-3", "UNSAT", 13, 3),
                ("pigeon-4-3", "UNSAT", 33, 4),
                ("php-5-4", "UNSAT", 196, 5),
                ("php-6-5", "UNSAT", 1305, 6),
                ("php-7-6", "UNSAT", 9786, 7),
                ("queens-8", "SAT", 170, 8),
                ("queens-10", "SAT", 992, 10),
            ]
        ],
    )
    def test_frozen_counts(self, name, status, nodes, max_depth):
        # regression freeze: the branching order is part of the contract
        named = dict(corpus())
        if name in named:
            inst = named[name]
        elif name.startswith("php-"):
            inst = pigeonhole(*map(int, name.split("-")[1:]))
        else:
            inst = gen_nqueens(int(name.split("-")[1]))
        stats = solve_dpll(inst)
        assert (stats.status, stats.nodes, stats.max_depth) == (status, nodes, max_depth)

    def test_all_pairs_instance_within_recurrence(self):
        inst = gen_uniform(3, 2, 2, 12, seed=7)
        assert solve_dpll(inst).status == "UNSAT"
        assert solve_dpll(inst).nodes <= checks.node_ceiling(3, 2, 2)

    @pytest.mark.parametrize("d,k,n_max", CHAIN_GRID)
    def test_recurrence_attained_on_chain_plus_core(self, d, k, n_max):
        # the bound T(n) is tight for this solver, not only an upper bound
        for n in range(k, n_max + 1):
            stats = solve_dpll(chain_plus_core(n, d, k))
            assert (stats.status, stats.nodes) == ("UNSAT", checks.node_ceiling(n, d, k)), n

    @pytest.mark.parametrize("d,k,n_max", CHAIN_GRID)
    def test_growth_on_chain_plus_core_is_the_char_root(self, d, k, n_max):
        # ln(nodes) against n over the upper half of the grid's range lands
        # within 0.001 of ln char_root(d, k); it reads 1e-4 to 2e-4 off (the
        # whole range reads up to 0.0073 off, from T(n)'s lower-order terms)
        ns = list(range(k, n_max + 1))[(n_max - k + 1) // 2:]
        nodes = [solve_dpll(chain_plus_core(n, d, k)).nodes for n in ns]
        slope = growth_slope(ns, nodes)
        assert abs(slope - math.log(char_root(d, k).lambda_)) <= 1e-3, slope

    @pytest.mark.parametrize("d,k,n_max", CHAIN_GRID)
    def test_weaker_branching_misses_the_recurrence(self, d, k, n_max):
        # the gate above bites: branching one variable over all d values is
        # still a complete solver, with the same growth but more nodes
        for n in range(k, k + 4):
            status, nodes = one_variable_dpll(chain_plus_core(n, d, k))
            assert status == "UNSAT"
            assert nodes > checks.node_ceiling(n, d, k), n

    def test_recurrence_bound_on_fuzz(self):
        rng = random.Random(322)
        fuzz = [random_instance(rng, max_n=5, max_d=3) for _ in range(150)]
        for inst in fuzz + fuzz_instances():
            assert solve_dpll(inst).nodes <= checks.node_ceiling(inst.n, inst.d, inst.k_max)

    def test_recurrence_bound_on_corpus_and_criterion_1_sample(self):
        instances = [inst for _, inst in corpus()] + uniform_sample_500()
        for i, inst in enumerate(instances):
            nodes = solve_dpll(inst).nodes
            assert nodes <= checks.node_ceiling(inst.n, inst.d, inst.k_max), i

    def test_nodes_at_least_one_and_depth_bounded(self):
        rng = random.Random(323)
        for _ in range(80):
            inst = random_instance(rng)
            stats = solve_dpll(inst)
            assert stats.nodes >= 1
            assert 0 <= stats.max_depth <= inst.n


class TestBlockedChildren:
    """A child whose value `forbidden(u)` names is counted, never searched."""

    def parity_set(self):
        yield from (inst for _, inst in corpus())
        yield from fuzz_instances()
        yield from (pigeonhole(p, p - 1) for p in range(4, 8))
        yield from (gen_nqueens(size) for size in range(4, 11))

    def test_same_tree_as_the_plain_loop(self):
        checked = 0
        for inst in self.parity_set():
            stats = solve_dpll(inst)
            got = (stats.status, stats.assignment, stats.nodes, stats.max_depth)
            assert got == reference_dpll(inst), checked
            checked += 1
        assert checked == len(corpus()) + 300 + 4 + 7

    def test_depth_read_off_blocked_children_alone(self):
        # for v < n, x_v branches over 1 and 2, both searched; at depth
        # n - 1 the two children of x_n are blocked by the unary nogoods
        # (n, 1) and (n, 2), so only blocked children reach depth n
        for n in range(1, 8):
            inst = CspInstance(n, 3, [*([(v, 0)] for v in range(1, n)), *([(n, a)] for a in range(3))])
            stats = solve_dpll(inst)
            got = (stats.status, stats.assignment, stats.nodes, stats.max_depth)
            assert got == reference_dpll(inst) == ("UNSAT", None, 2 ** (n + 1) - 1, n), n

    def test_last_walk_ends_on_blocked_children(self):
        # the root branches on (1, 0): x1 := 1 is searched, and its walk
        # ends on the d - 1 blocked children of x2; then x1 := 2..d-1,
        # blocked by the unary nogoods (1, a), end the root's walk, the
        # last one of the search
        for d in range(3, 7):
            unary = [[(1, 0)], *([(1, a)] for a in range(2, d))]
            inst = CspInstance(2, d, [*unary, *([(1, 1), (2, a)] for a in range(d))])
            stats = solve_dpll(inst)
            got = (stats.status, stats.assignment, stats.nodes, stats.max_depth)
            assert got == reference_dpll(inst) == ("UNSAT", None, 2 * d - 1, 2), d

    def test_blocked_children_are_not_assigned(self, monkeypatch):
        # every assignment the walk makes, searched child or pin, is one
        # call of the move it shares with NogoodState.assign
        calls = 0
        step = dpll._step

        def counting(levels, keep, match):
            nonlocal calls
            calls += 1
            return step(levels, keep, match)

        monkeypatch.setattr(dpll, "_step", counting)
        stats = solve_dpll(pigeonhole(6, 5))
        # reference_dpll's plain loop assigns 1,630 times for these 1,305
        # nodes; skipping the blocked children and the last pin leaves 325
        assert (stats.nodes, calls) == (1305, 325)


class TestDomainEdges:
    """The value walk at the domain sizes it must not slow down or break
    on: d = 2^20, d = 1 and d = 300, each outcome pinned."""

    def test_huge_domain_one_unary_nogood(self):
        # the root branches x1 over 1..d-1 and its first child is SAT: the
        # walk must not build anything of size d (or d^2) up front
        inst = CspInstance(1, 1 << 20, [[(1, 0)]])
        inst.by_var  # built before the trace, as every solve shares it
        started = time.perf_counter()
        tracemalloc.start()
        try:
            stats = solve_dpll(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - started
        got = (stats.status, stats.assignment, stats.nodes, stats.max_depth)
        assert got == ("SAT", (1,), 2, 1)
        assert peak < 64 * 1024, peak
        assert elapsed < 0.25, elapsed

    def test_unit_domain(self):
        # d = 1: no child has another value, so only pins are made; any
        # nogood is matched by the one total assignment
        inst = CspInstance(4, 1, [[(1, 0), (3, 0)], [(2, 0), (3, 0), (4, 0)]])
        stats = solve_dpll(inst)
        got = (stats.status, stats.assignment, stats.nodes, stats.max_depth)
        assert got == reference_dpll(inst) == ("UNSAT", None, 1, 0)
        stats = solve_dpll(CspInstance(3, 1))
        assert (stats.status, stats.assignment, stats.nodes, stats.max_depth) == (
            "SAT", (0, 0, 0), 1, 0
        )

    def test_domain_of_300(self):
        # unary nogoods leave x1..x4 the values 7, 107 and 207, and the
        # binary ones ask for four different values among them (K4 in three
        # colors): UNSAT, and SAT once one binary nogood is dropped
        unary = [[(v, a)] for v in range(1, 5) for a in range(300) if a % 100 != 7]
        edges = [[(u, a), (v, a)] for u in range(1, 5) for v in range(u + 1, 5) for a in (7, 107, 207)]
        for nogoods, expected in [
            (edges + unary, ("UNSAT", None, 4785, 4)),
            (unary + edges[:-1], ("SAT", (7, 107, 207, 207), 529, 4)),
        ]:
            inst = CspInstance(4, 300, nogoods)
            stats = solve_dpll(inst)
            got = (stats.status, stats.assignment, stats.nodes, stats.max_depth)
            assert got == reference_dpll(inst) == expected


class TestPinnedTrees:
    # sha256 over the instances, in order, of repr((status, assignment,
    # nodes, max_depth)), recorded with the per-nogood counter kernel
    DIGEST = "d4b3db8053cbe09e7f210767f22acd48f7f17959aaa4870650e207d4c3c41b46"

    def pinned_set(self):
        """corpus(), PHP(p, p-1) for p = 4..8, queens 4..12, and 24 seeded
        uniforms of dpll-refute's two shapes, at tier-1 sizes."""
        yield from (inst for _, inst in corpus())
        yield from (pigeonhole(p, p - 1) for p in range(4, 9))
        yield from (gen_nqueens(size) for size in range(4, 13))
        yield from (gen_uniform(n, 3, 2, round(8.5 * n), seed=n) for n in range(12, 23))
        yield from (gen_uniform(n, 2, 3, round(5.2 * n), seed=n) for n in range(20, 46, 2))

    def test_trees_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        count = 0
        for inst in self.pinned_set():
            stats = solve_dpll(inst)
            tree = (stats.status, stats.assignment, stats.nodes, stats.max_depth)
            digest.update(repr(tree).encode())
            count += 1
        assert count == len(corpus()) + 5 + 9 + 24
        assert digest.hexdigest() == self.DIGEST

    # the same digest over wide_set(), recorded with the walk that read
    # NogoodState's methods for every node
    WIDE_DIGEST = "20ff76db39574e3f13c94674e0bc5a8841ad47b7559f20ecd62fbe8e0bf40cde"

    def wide_set(self):
        """Seeded model RB instances at d = 4..16 (k = 2), 4..10 (k = 3) and
        4..7 (k = 4), and random graph colorings at d = 4..16 in steps of 3:
        SAT and UNSAT, with nogoods of arity 2 to 4 over wide domains."""

        def model_rb(n, d, k, seed):
            # alpha puts round(n^alpha) at d; r = 1, p = 0.5 at k >= 3
            return gen_model_rb(n, math.log(d) / math.log(n), 1.0, 0.45 if k == 2 else 0.5, k, seed)

        def coloring(d, seed):
            rng = random.Random(seed)
            vertices = range(1, d + 5)
            edges = [(u, v) for u in vertices for v in vertices if u < v and rng.random() < 0.8]
            return gen_coloring(edges, d + 4, d)

        yield from (model_rb(11, d, 2, seed=d) for d in range(4, 17))
        yield from (model_rb(6, d, 3, seed=d) for d in range(4, 11))
        yield from (model_rb(6, d, 4, seed=d) for d in range(4, 8))
        yield from (coloring(d, seed=d) for d in range(4, 17, 3))

    def test_wide_domain_trees_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        domains = []
        for inst in self.wide_set():
            stats = solve_dpll(inst)
            tree = (stats.status, stats.assignment, stats.nodes, stats.max_depth)
            digest.update(repr(tree).encode())
            domains.append(inst.d)
        assert domains == [*range(4, 17), *range(4, 11), *range(4, 8), *range(4, 17, 3)]
        assert digest.hexdigest() == self.WIDE_DIGEST
