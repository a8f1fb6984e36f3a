import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kcsp import (
    CspInstance,
    SolutionSet,
    avg_narrow_count,
    enumerate_solutions,
    isolation_degrees,
    verify_lemma2,
)
from kcsp import oracle
from kcsp.generators import gen_coloring, gen_nqueens, gen_uniform
from kcsp.harness import corpus

from bruteforce import brute_critical_dims, brute_solutions
from conftest import checks, random_instance


def triangle(d=3):
    return gen_coloring([(1, 2), (2, 3), (1, 3)], 3, d)


def pair_forcing():
    return CspInstance(2, 2, [[(1, 0)], [(1, 1), (2, 0)]])


def two_pass_decode(codes, n, d):
    """Reference decode: the points with the given codes, 2^16 rows at a
    time, through one list of ints per digit column."""
    points = []
    for lo in range(0, len(codes), 1 << 16):
        rest = codes[lo : lo + (1 << 16)]
        columns = []
        for _ in range(n):
            rest, digit = np.divmod(rest, d)
            columns.append(digit.tolist())
        points += zip(*reversed(columns))
    return tuple(points)


def two_pass_critical_dims(ok, codes, n, d):
    """Reference critical dimensions: each point's, read off the mask for
    all codes at once, with divisions of their own."""
    keys = np.zeros(len(codes), dtype=np.int64)
    if d > 1:
        rest = codes
        for i in range(n - 1, -1, -1):
            rest, digit = np.divmod(rest, d)
            power = d ** (n - 1 - i)
            base = codes - digit * power
            stays = ok[base]
            for a in range(1, d):
                stays &= ok[base + a * power]
            keys[~stays] |= 1 << i
    keys = keys.tolist()
    shared = {key: tuple(i + 1 for i in range(n) if key >> i & 1) for key in set(keys)}
    return tuple(map(shared.__getitem__, keys))


def two_pass_solutions(inst, cap=oracle.DEFAULT_CAP):
    """The solution set from the two reference passes over the mask."""
    ok = oracle._solution_mask(inst, cap)
    codes = np.flatnonzero(ok)
    dims = two_pass_critical_dims(ok, codes, inst.n, inst.d)
    points = two_pass_decode(codes, inst.n, inst.d)
    return SolutionSet(inst.n, inst.d, points, dims, tuple(map(len, dims)))


def assert_same_as_two_pass(inst, cap=oracle.DEFAULT_CAP):
    sols = enumerate_solutions(inst, cap)
    assert sols == two_pass_solutions(inst, cap)
    # plain ints throughout, as JSON and the exact checks need
    values = itertools.chain(itertools.chain.from_iterable(sols.solutions), sols.isolation,
                             itertools.chain.from_iterable(sols.critical_dims))
    assert {type(x) for x in values} <= {int}
    return sols


def restricted(n, d, allowed, nogoods=()):
    """An instance whose variable v takes only the values in allowed[v - 1],
    by one unary nogood per other value, plus the given nogoods."""
    unary = [[(v, a)] for v, values in enumerate(allowed, start=1) for a in range(d)
             if a not in values]
    return CspInstance(n, d, unary + list(nogoods))


def assert_matches_reference(inst):
    sols = assert_same_as_two_pass(inst)
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
        sols = enumerate_solutions(CspInstance(3, 2, [[(1, 0)]]))
        assert sols.solutions == ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))

    def test_arity_zero_kills_everything(self):
        for nogoods in ([[]], [[(2, 1)], []]):
            inst = CspInstance(3, 2, nogoods)
            assert len(enumerate_solutions(inst)) == 0
            assert_matches_reference(inst)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_solutions(CspInstance(10, 2), cap=512)

    def test_matches_reference_on_corpus(self):
        for _, inst in corpus():
            assert_matches_reference(inst)

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
        inst = CspInstance(11, 3, [[(1, 0), (5, 2)], [(11, 1)]])
        sols = assert_same_as_two_pass(inst)
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
        for nogood in ([(64, 0), (65, 0)], [(v, 0) for v in range(1, 141, 2)]):
            inst = CspInstance(140, 1, [nogood])
            sols = assert_same_as_two_pass(inst)
            plain = checks.plain(inst)
            candidates = itertools.product(range(1), repeat=140)
            expected = [X for X in candidates if checks.satisfies(plain, X)]
            assert sols.solutions == tuple(expected) == ()


class TestFusedPass:
    """Wide digits, the memory the blocks bound, and the first solution
    read off the mask."""

    def test_wide_digits_two_variables(self):
        # digits up to 299 do not fit in a byte
        inst = CspInstance(2, 300, [[(1, 256)], [(2, 299)], [(1, 3), (2, 257)], [(1, 299), (2, 0)]])
        sols = assert_same_as_two_pass(inst)
        plain = checks.plain(inst)
        candidates = itertools.product(range(300), repeat=2)
        expected = [X for X in candidates if checks.satisfies(plain, X)]
        assert sols.solutions == tuple(expected) and len(expected) == 299 * 299 - 2
        for row in (0, 1, 2 * 299 + 256, len(expected) - 1):
            X = expected[row]
            assert set(sols.critical_dims[row]) == brute_critical_dims(X, expected, 2, 300)
        assert sols.solutions[-1] == (299, 298)

    def test_wide_digits_three_variables(self):
        # 300^3 points, past the default cap; values on both sides of 256
        allowed = [{0, 7, 255, 299}, {0, 256, 299}, {1, 255, 256, 257, 299}]
        inst = restricted(3, 300, allowed, [[(1, 299), (3, 256)], [(2, 256), (3, 1)]])
        sols = assert_same_as_two_pass(inst, cap=300**3)
        plain = checks.plain(inst)
        candidates = itertools.product(*map(sorted, allowed))
        expected = [X for X in candidates if checks.satisfies(plain, X)]
        assert sols.solutions == tuple(expected) and len(expected) == 4 * 3 * 5 - 3 - 4
        for X, dims in zip(expected, sols.critical_dims):
            assert set(dims) == brute_critical_dims(X, expected, 3, 300)

    def test_traced_peak_bounded_by_blocks(self):
        # 2^20 solutions of 20 variables: beyond the returned tuples, the
        # pass holds one list of S pointers beside its tuple at a time and
        # one block's digit matrix and temporaries
        tracemalloc.start()
        try:
            sols = enumerate_solutions(CspInstance(20, 2))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sols) == 1 << 20 and sols.solutions[-1] == (1,) * 20
        assert peak - held < 16 << 20, (held, peak)

    def test_first_solution_read_off_the_mask(self):
        rng = random.Random(561)
        instances = [inst for _, inst in corpus()] + [CspInstance(70, 1), CspInstance(3, 1, [[]])]
        instances += [random_instance(rng, max_d=4) for _ in range(200)]
        for inst in instances:
            solutions = enumerate_solutions(inst).solutions
            assert oracle._first_solution(inst) == (solutions[0] if solutions else None)
        assert oracle._first_solution(CspInstance(1 << 20, 1)) == (0,) * (1 << 20)
        with pytest.raises(ValueError, match="^search space d\\^n = 2\\^25 exceeds cap 16777216$"):
            oracle._first_solution(CspInstance(25, 2))


def with_solutions(points, n, d):
    """An instance whose solution set is exactly `points`: one nogood on all
    n variables for every other point of D^n."""
    keep = set(points)
    others = [X for X in itertools.product(range(d), repeat=n) if X not in keep]
    return CspInstance(n, d, [list(enumerate(X, start=1)) for X in others])


class TestSearchSpaceCap:
    @pytest.mark.parametrize("d,n", [(2, 24), (4, 12), (3, 15), (10**9, 2), (2, 200)])
    def test_exact_at_the_cap(self, d, n):
        assert not oracle._exceeds(d, n, d**n)
        assert oracle._exceeds(d, n, d**n - 1)  # d^n = cap + 1

    def test_domain_of_size_one(self):
        assert not oracle._exceeds(1, 1 << 20, 1)
        assert oracle._solution_mask(CspInstance(1 << 20, 1), cap=1).tolist() == [True]
        # the one point matches every nogood, here on more variables than numpy has axes
        one_nogood = CspInstance(1 << 20, 1, [[(7, 0), (1 << 19, 0)]])
        assert oracle._solution_mask(one_nogood, cap=1).tolist() == [False]

    def test_huge_power_not_computed(self):
        # 10^9^(2^20) has some 31 million bits; the comparison returns at once
        start = time.perf_counter()
        assert oracle._exceeds(10**9, 1 << 20, oracle.DEFAULT_CAP)
        assert time.perf_counter() - start < 0.1


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
        sols = enumerate_solutions(CspInstance(2, 2, [[(1, 1)]]))
        assert sols.solutions == ((0, 0), (0, 1)) and sols.critical_dims == ((1,), (1,))
        assert isolation_degrees(sols.solutions, 2, 2) == [1, 1]
        assert isolation_degrees(iter(sols.solutions), 2, 2) == [1, 1]

    def test_outside_point_rejected(self):
        # a value outside 0..d-1 or not an integer, or a point of the wrong length
        for points in ([(0, 5)], [(0, -1)], [(0, 0.5)], [(0,)], [(0, 0, 0)], [(0, 0), (1, 2)]):
            with pytest.raises(ValueError, match=r"is not 2 values in 0\.\.1"):
                isolation_degrees(points, 2, 2)

    def test_entries_read_as_exact_integers(self):
        # a float or a string that equals an int is not an integer value
        for entry in (1.0, np.float64(1.0), "1", Fraction(1)):
            with pytest.raises(ValueError, match=r"point \(.+\) is not 2 values in 0\.\.1"):
                isolation_degrees([(entry, 0)], 2, 2)
            with pytest.raises(ValueError, match=r"is not 2 values in 0\.\.1"):
                verify_lemma2([(entry, 0)], 2, 2)
        # numpy integers, bools and numpy bools are integer values
        for one in (np.int64(1), np.uint8(1), True, np.True_):
            assert isolation_degrees([(one, 0), (0, 0)], 2, 2) == [1, 1]
            assert verify_lemma2([(one, 0)], 2, 2) == (True, 4)
        rows = np.array([[True, False], [False, False]])
        assert isolation_degrees(rows, 2, 2) == [1, 1]

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
            assert degrees == checks.isolation_by_definition(points, n, d)

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
            assert result.average == checks.narrow_average(checks.plain(inst), X)
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
