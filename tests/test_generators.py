import math

import pytest

from kcsp import (
    CspInstance,
    gen_coloring,
    gen_latin,
    gen_model_rb,
    gen_nqueens,
    gen_uniform,
)

from bruteforce import brute_solutions


class TestGenUniform:
    def test_shape_and_determinism(self):
        inst = gen_uniform(6, 3, 2, 10, seed=42)
        assert (inst.n, inst.d, inst.k_max) == (6, 3, 2)
        assert len(inst.nogoods) == 10
        assert len(set(ng.pairs for ng in inst.nogoods)) == 10
        for ng in inst.nogoods:
            assert ng.arity == 2
            assert all(1 <= v <= 6 and 0 <= a < 3 for v, a in ng.pairs)
        assert gen_uniform(6, 3, 2, 10, seed=42) == inst
        assert gen_uniform(6, 3, 2, 10, seed=43) != inst

    def test_can_exhaust_the_whole_space(self):
        # C(3,2) * 2^2 = 12 distinct nogoods; asking for all of them works
        inst = gen_uniform(3, 2, 2, 12, seed=0)
        assert len(inst.nogoods) == 12
        assert brute_solutions(inst) == []

    @pytest.mark.parametrize(
        "args",
        [(3, 2, 2, 13, 0), (2, 2, 3, 1, 0), (3, 1, 2, 1, 0), (3, 2, 2, -1, 0)],
    )
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            gen_uniform(*args)


class TestGenModelRb:
    def test_domain_grows_with_n(self):
        inst = gen_model_rb(9, alpha=0.8, r=0.6, p=0.25, k=2, seed=1)
        assert inst.n == 9
        assert inst.d == round(9**0.8)  # 5.8 -> 6
        assert inst.k_max == 2
        assert gen_model_rb(9, alpha=0.8, r=0.6, p=0.25, k=2, seed=1) == inst

    def test_constraint_count_formula(self):
        n, r, p, k = 8, 0.7, 0.25, 2
        inst = gen_model_rb(n, alpha=0.5, r=r, p=p, k=k, seed=3)
        d = math.floor(n**0.5 + 0.5)
        constraints = math.floor(r * n * math.log(n) + 0.5)
        per_scope = math.floor(p * d**k + 0.5)
        expected = constraints * per_scope
        assert len(inst.nogoods) <= expected
        assert len(inst.nogoods) >= expected - 3  # dedup may merge a few

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=4, alpha=0.1, r=1.0, p=0.3, k=2, seed=0),  # d = round(4^0.1) = 1
            dict(n=9, alpha=0.5, r=1.0, p=0.01, k=2, seed=0),  # 0 nogoods per scope
            dict(n=9, alpha=0.5, r=1.0, p=1.0, k=2, seed=0),
            dict(n=2, alpha=1.0, r=1.0, p=0.3, k=3, seed=0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            gen_model_rb(**kwargs)


class TestGenColoring:
    def test_triangle_three_colors(self):
        inst = gen_coloring([(1, 2), (2, 3), (1, 3)], 3, 3)
        assert len(inst.nogoods) == 9
        solutions = brute_solutions(inst)
        assert len(solutions) == 6
        assert all(len(set(s)) == 3 for s in solutions)

    def test_triangle_two_colors_unsat(self):
        assert brute_solutions(gen_coloring([(1, 2), (2, 3), (1, 3)], 3, 2)) == []

    def test_rejects_self_loop_and_bad_vertex(self):
        with pytest.raises(ValueError, match="self-loop"):
            gen_coloring([(1, 1)], 2, 2)
        with pytest.raises(ValueError, match="out of range"):
            gen_coloring([(1, 3)], 2, 2)


class TestGenLatin:
    def test_order_one_is_trivial(self):
        inst = gen_latin(1)
        assert (inst.n, inst.d) == (1, 1)
        assert brute_solutions(inst) == [(0,)]

    def test_order_two(self):
        inst = gen_latin(2)
        assert (inst.n, inst.d) == (4, 2)
        solutions = brute_solutions(inst)
        assert sorted(solutions) == [(0, 1, 1, 0), (1, 0, 0, 1)]

    def test_order_three_square_count(self):
        # 12 Latin squares of order 3
        from kcsp import enumerate_solutions

        assert len(enumerate_solutions(gen_latin(3))) == 12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_latin(0)


def reference_nqueens(N: int) -> CspInstance:
    """gen_nqueens by testing every column pair (a, b) of every row pair."""
    nogoods = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            for a in range(N):
                for b in range(N):
                    if a == b or abs(a - b) == j - i:
                        nogoods.append(((i, a), (j, b)))
    return CspInstance(N, N, nogoods)


class TestGenNQueens:
    @pytest.mark.parametrize("N,count", [(1, 1), (2, 0), (3, 0), (4, 2), (5, 10), (6, 4)])
    def test_classic_solution_counts(self, N, count):
        assert len(brute_solutions(gen_nqueens(N))) == count

    def test_matches_all_pairs_reference(self):
        # same nogoods in the same order, so files and solver runs are unchanged
        for N in range(1, 15):
            assert gen_nqueens(N) == reference_nqueens(N), N

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_nqueens(0)

