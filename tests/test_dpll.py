import dataclasses
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from kcsp import (
    CspInstance,
    Nogood,
    is_satisfying,
    solve_dpll,
)
from kcsp.generators import gen_coloring, gen_uniform
from kcsp.harness import corpus

from bruteforce import brute_solutions
from conftest import random_instance


def recurrence_bound(n: int, d: int, k: int) -> int:
    """U(j) = 1 + (d-1) * sum_{i=1..k} U(j-i), U(j<=0) = 1: a full-tree
    node-count ceiling for any instance with max arity k."""

    @lru_cache(maxsize=None)
    def U(j: int) -> int:
        if j <= 0:
            return 1
        return 1 + (d - 1) * sum(U(j - i) for i in range(1, k + 1))

    return U(n)


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
        stats = solve_dpll(CspInstance(2, 2, [Nogood([])]))
        assert stats.status == "UNSAT" and stats.nodes == 1

    def test_matches_reference_on_corpus(self):
        for name, inst in corpus():
            expected = bool(brute_solutions(inst)) if inst.d**inst.n <= 1 << 16 else None
            stats = solve_dpll(inst)
            if expected is not None:
                assert (stats.status == "SAT") == expected, name
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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert (run.returncode, run.stdout) == (0, "refused\n"), run.stderr


class TestNodeCounts:
    def test_determinism(self):
        inst = gen_uniform(7, 2, 3, 14, seed=5)
        first, second = solve_dpll(inst), solve_dpll(inst)
        for field in dataclasses.fields(first):
            if field.name != "elapsed_s":
                assert getattr(first, field.name) == getattr(second, field.name), field.name

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("pair-forcing", 3),
            ("unary-chain", 4),
            ("zero-arity", 1),
            ("empty-2-2", 1),
            ("all-pairs-3-2", 4),
            ("queens-2", 4),
            ("queens-3", 13),
            ("pigeon-4-3", 33),
        ],
    )
    def test_frozen_counts(self, name, expected):
        # regression freeze: the branching order is part of the contract
        inst = dict(corpus())[name]
        assert solve_dpll(inst).nodes == expected

    def test_all_pairs_instance_within_recurrence(self):
        inst = gen_uniform(3, 2, 2, 12, seed=7)
        assert solve_dpll(inst).status == "UNSAT"
        assert solve_dpll(inst).nodes <= recurrence_bound(3, 2, 2)

    def test_recurrence_bound_on_fuzz(self):
        rng = random.Random(322)
        for _ in range(150):
            inst = random_instance(rng, max_n=5, max_d=3)
            if inst.k_max == 0:
                assert solve_dpll(inst).nodes == 1
            else:
                assert solve_dpll(inst).nodes <= recurrence_bound(
                    inst.n, inst.d, inst.k_max
                )

    def test_nodes_at_least_one_and_depth_bounded(self):
        rng = random.Random(323)
        for _ in range(80):
            inst = random_instance(rng)
            stats = solve_dpll(inst)
            assert stats.nodes >= 1
            assert 0 <= stats.max_depth <= inst.n
