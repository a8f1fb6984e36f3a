import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from kcsp import (
    CspInstance,
    Nogood,
    avg_narrow_count,
    enumerate_solutions,
    isolation_degrees,
    verify_lemma2,
)
from kcsp import oracle
from kcsp.generators import gen_coloring, gen_nqueens, gen_uniform
from kcsp.harness import corpus

from bruteforce import brute_avg_narrow, brute_critical_dims, brute_solutions
from conftest import random_instance


def triangle(d=3):
    return gen_coloring([(1, 2), (2, 3), (1, 3)], 3, d)


def pair_forcing():
    return CspInstance(2, 2, [Nogood([(1, 0)]), Nogood([(1, 1), (2, 0)])])


def assert_matches_reference(inst):
    sols = enumerate_solutions(inst)
    expected = brute_solutions(inst)
    assert sols.solutions == tuple(expected)
    dims = [tuple(sorted(brute_critical_dims(X, expected, inst.n, inst.d))) for X in expected]
    assert sols.critical_dims == tuple(dims)
    assert sols.isolation == tuple(len(c) for c in dims)


class TestEnumerateSolutions:
    def test_triangle_d3(self):
        sols = enumerate_solutions(triangle())
        assert len(sols) == 6
        assert all(j == 3 for j in sols.isolation)
        assert all(dims == (1, 2, 3) for dims in sols.critical_dims)

    def test_triangle_d2_empty(self):
        assert len(enumerate_solutions(triangle(2))) == 0

    def test_empty_instance_all_solutions(self):
        sols = enumerate_solutions(CspInstance(2, 2))
        assert sols.solutions == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert sols.isolation == (0, 0, 0, 0)

    def test_lexicographic_order(self):
        sols = enumerate_solutions(CspInstance(3, 2, [Nogood([(1, 0)])]))
        assert sols.solutions == ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))

    def test_arity_zero_kills_everything(self):
        for nogoods in ([Nogood([])], [Nogood([(2, 1)]), Nogood([])]):
            inst = CspInstance(3, 2, nogoods)
            assert len(enumerate_solutions(inst)) == 0
            assert_matches_reference(inst)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_solutions(CspInstance(10, 2), cap=512)

    def test_matches_reference_on_corpus(self):
        for name, inst in corpus():
            if inst.d**inst.n > 1 << 16:
                continue
            assert enumerate_solutions(inst).solutions == tuple(
                brute_solutions(inst)
            ), name

    def test_matches_reference_on_fuzz(self):
        rng = random.Random(555)
        for _ in range(200):
            assert_matches_reference(random_instance(rng, max_d=4))

    def test_cap_enforced_before_allocating(self):
        # 2^30 points is under the cap but over the mask's point limit
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limit"):
                enumerate_solutions(CspInstance(30, 2), cap=10**10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_all_fields_match_reference_on_large_space(self):
        # 3^11 = 177,147 points, past the 2^16 the corpus test stops at
        inst = gen_uniform(11, 3, 2, 40, 2024)
        assert_matches_reference(inst)

    def test_decode_crosses_row_blocks(self):
        # 104,976 solutions: one full block of 2^16 rows and a partial one
        inst = CspInstance(11, 3, [Nogood([(1, 0), (5, 2)]), Nogood([(11, 1)])])
        sols = enumerate_solutions(inst)
        expected = brute_solutions(inst)
        assert len(expected) == 104_976
        assert sols.solutions == tuple(expected)
        for row in (0, 65_535, 65_536, 65_537, len(expected) - 1):
            dims = brute_critical_dims(expected[row], expected, 11, 3)
            assert sols.critical_dims[row] == tuple(sorted(dims))

    def test_unit_domain_past_64_variables(self):
        sols = enumerate_solutions(CspInstance(70, 1))
        assert sols.solutions == ((0,) * 70,)
        assert sols.critical_dims == ((),) and sols.isolation == (0,)
        # the second nogood fixes every other variable: 140 mask axes if
        # axes of length 1 were kept
        for nogood in (Nogood([(64, 0), (65, 0)]), Nogood([(v, 0) for v in range(1, 141, 2)])):
            assert_matches_reference(CspInstance(140, 1, [nogood]))


def with_solutions(points, n, d):
    """An instance whose solution set is exactly `points`: one nogood on all
    n variables for every other point of D^n."""
    keep = set(points)
    others = [X for X in itertools.product(range(d), repeat=n) if X not in keep]
    return CspInstance(n, d, [Nogood(list(enumerate(X, start=1))) for X in others])


class TestCriticalPoints:
    """Critical dimensions by the mask (enumerate_solutions), by the points
    themselves (isolation_degrees) and by the reference copy in bruteforce."""

    def test_singleton_fully_critical(self):
        sols = enumerate_solutions(with_solutions({(0, 1, 0)}, 3, 2))
        assert sols.solutions == ((0, 1, 0),) and sols.critical_dims == ((1, 2, 3),)
        assert isolation_degrees([(0, 1, 0)], 3, 2) == [3]

    def test_full_space_has_no_critical_dims(self):
        sols = enumerate_solutions(CspInstance(2, 2))
        assert sols.critical_dims == ((),) * 4
        assert isolation_degrees(sols.solutions, 2, 2) == [0] * 4

    def test_two_point_example(self):
        sols = enumerate_solutions(CspInstance(2, 2, [Nogood([(1, 1)])]))
        assert sols.solutions == ((0, 0), (0, 1)) and sols.critical_dims == ((1,), (1,))
        assert isolation_degrees(sols.solutions, 2, 2) == [1, 1]
        assert isolation_degrees(iter(sols.solutions), 2, 2) == [1, 1]

    def test_outside_point_rejected(self):
        # a value outside 0..d-1 or not an integer, or a point of the wrong length
        for points in ([(0, 5)], [(0, -1)], [(0, 0.5)], [(0,)], [(0, 0, 0)], [(0, 0), (1, 2)]):
            with pytest.raises(ValueError, match=r"is not 2 values in 0\.\.1"):
                isolation_degrees(points, 2, 2)

    def test_three_routes_agree_on_fuzz(self):
        rng = random.Random(556)
        for _ in range(120):
            n = rng.randint(1, 4)
            d = rng.randint(2, 3)
            universe = list(itertools.product(range(d), repeat=n))
            size = rng.randint(1, min(len(universe), 10))
            points = rng.sample(universe, size)
            sols = enumerate_solutions(with_solutions(points, n, d))
            assert sols.solutions == tuple(sorted(points))
            reference = [brute_critical_dims(X, points, n, d) for X in sols.solutions]
            assert [set(dims) for dims in sols.critical_dims] == reference
            # unsorted input keeps its order
            degrees = isolation_degrees(points, n, d)
            assert degrees == [len(brute_critical_dims(X, points, n, d)) for X in points]

    def test_solution_set_routes_agree_on_corpus(self):
        for name, inst in corpus():
            sols = enumerate_solutions(inst)
            for X, dims in zip(sols.solutions, sols.critical_dims):
                assert set(dims) == brute_critical_dims(X, sols.solutions, inst.n, inst.d), name

    def test_isolation_degrees_match_the_mask_on_corpus(self):
        for name, inst in corpus():
            sols = enumerate_solutions(inst)
            assert isolation_degrees(sols.solutions, inst.n, inst.d) == list(sols.isolation), name


class TestIsolationPastInt64:
    """Spaces of more than 2^63 points, where an int64 point code would wrap."""

    @pytest.mark.parametrize("n, d", [(40, 3), (64, 2), (63, 2), (62, 2)])
    def test_last_coordinate_free(self, n, d):
        points = [(d - 1,) * (n - 1) + (a,) for a in range(d)]
        assert isolation_degrees(points, n, d) == [n - 1] * d
        assert all(brute_critical_dims(X, points, n, d) == set(range(1, n)) for X in points)

    def test_lemma2_sum_exact(self):
        # each point has J = 39, so the sum is 3 * 3^39 = 3^40 exactly
        points = [(2,) * 39 + (a,) for a in range(3)]
        assert verify_lemma2(points, n=40, d=3) == (True, 3**40)

    def test_unsorted_input_keeps_order(self):
        points = [(1,) * 63 + (0,), (0,) * 64, (1,) * 64]
        assert isolation_degrees(points, 64, 2) == [63, 64, 63]


class TestVerifyLemma2:
    def test_singleton_equality(self):
        holds, lhs = verify_lemma2({(1, 0, 1)}, 3, 2)
        assert holds and lhs == 8

    def test_full_space_equality(self):
        points = set(itertools.product(range(2), repeat=2))
        holds, lhs = verify_lemma2(points, 2, 2)
        assert holds and lhs == 4

    def test_triangle_solution_set(self):
        sols = enumerate_solutions(triangle())
        holds, lhs = verify_lemma2(sols.solutions, sols.n, sols.d)
        assert holds and lhs == 6 * 27

    def test_bare_collection_needs_n_and_d(self):
        # each point has J = 1 (only its first coordinate is critical)
        holds, lhs = verify_lemma2([(0, 0), (0, 1)], n=2, d=2)
        assert holds and lhs == 2 + 2
        with pytest.raises(TypeError):
            verify_lemma2([(0, 0)])

    def test_repeated_points_count_once(self):
        # S is a set: (0, 0) twice is still the two-point set above, and a
        # list and a tuple of the same values are one point (J = 2), not two
        assert verify_lemma2([(0, 0), (0, 1), (0, 0)], 2, 2) == (True, 4)
        assert verify_lemma2([[0, 1], (0, 1)], 2, 2) == (True, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            verify_lemma2([], 2, 2)
        for points in ([(0, 5)], [(0, -1)], [(0, 0.5)], [(0,)], [(0, 0, 0)], [(0, 0), (1, 2)]):
            with pytest.raises(ValueError, match=r"is not 2 values in 0\.\.1"):
                verify_lemma2(points, 2, 2)

    def test_holds_on_fuzz(self):
        rng = random.Random(557)
        for _ in range(300):
            n = rng.randint(1, 4)
            d = rng.randint(2, 4)
            universe = list(itertools.product(range(d), repeat=n))
            points = rng.sample(universe, rng.randint(1, min(len(universe), 12)))
            holds, lhs = verify_lemma2(points, n, d)
            assert holds and lhs >= d**n


class TestAvgNarrowCount:
    def test_pair_forcing_exact_average(self):
        result = avg_narrow_count(pair_forcing(), (1, 1))
        assert result.average == Fraction(3, 2)
        assert result.j == 2
        assert result.orders == 2
        assert result.average >= Fraction(result.j, 2)

    def test_empty_instance_zero(self):
        result = avg_narrow_count(CspInstance(3, 2), (0, 1, 0))
        assert result.average == 0 and result.j == 0

    def test_triangle_bound(self):
        inst = triangle()
        for X in enumerate_solutions(inst).solutions:
            result = avg_narrow_count(inst, X)
            assert result.average >= Fraction(result.j, inst.k_max)

    def test_matches_reference_on_fuzz(self):
        rng = random.Random(559)
        checked = 0
        while checked < 40:
            inst = random_instance(rng, max_n=4)
            solutions = brute_solutions(inst)
            if not solutions:
                continue
            X = rng.choice(solutions)
            result = avg_narrow_count(inst, X)
            assert result.average == brute_avg_narrow(inst, X)
            assert result.j == len(brute_critical_dims(X, solutions, inst.n, inst.d))
            checked += 1

    @pytest.mark.parametrize("m", [5, 10])
    def test_tight_family_meets_bound_exactly(self, m):
        # nogood i disagrees with X = 0...0 only at 2i-1, which is narrowly
        # chosen exactly when 2i comes first: half the orders
        inst = CspInstance(2 * m, 2, [((2 * i - 1, 1), (2 * i, 0)) for i in range(1, m + 1)])
        result = avg_narrow_count(inst, (0,) * (2 * m))
        assert result.j == m and result.orders == math.factorial(2 * m)
        assert result.average == Fraction(m, 2) == Fraction(result.j, inst.k_max)

    def test_rejects_non_solution_and_large_n(self, monkeypatch):
        with pytest.raises(ValueError, match="satisfy"):
            avg_narrow_count(pair_forcing(), (0, 0))
        with pytest.raises(ValueError, match="satisfy"):
            avg_narrow_count(CspInstance(2, 2), (0, 2))
        # n = 9 has no limit of its own
        assert avg_narrow_count(CspInstance(9, 2), (0,) * 9).orders == math.factorial(9)
        # the widest accepted sum: one nogood over 21 variables, so y = 1 is
        # narrowly chosen only after the other 20, in 1 of 21 relative orders
        inst = CspInstance(21, 2, [[(1, 1)] + [(v, 0) for v in range(2, 22)]])
        result = avg_narrow_count(inst, (0,) * 21)
        assert (result.average, result.j) == (Fraction(1, 21), 1)
        # variable 1 shares binary nogoods with 21 others: refused before
        # any sum, so numpy is never reached
        inst = CspInstance(22, 2, [((1, 1), (v, 0)) for v in range(2, 23)])
        monkeypatch.setattr(oracle, "np", None)
        with pytest.raises(ValueError, match="variable 1 shares nogoods with 21 others"):
            avg_narrow_count(inst, (0,) * 22)


class TestQueensIsolation:
    def test_queens_4_solutions_fully_isolated(self):
        # moving any single queen in a 4-queens solution breaks it
        sols = enumerate_solutions(gen_nqueens(4))
        assert len(sols) == 2
        assert all(j == 4 for j in sols.isolation)
