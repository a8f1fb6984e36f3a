import math
import random
from fractions import Fraction

import pytest

from kcsp import (
    CspInstance,
    Nogood,
    bound_variable_domain_ppsz,
    is_satisfying,
    repeat_count,
    solve_ppsz,
    success_lower_bound,
)
from kcsp.core import NogoodState
from kcsp.harness import corpus
from kcsp.ppsz import _iterate, _splitmix64, derive_seed

from bruteforce import brute_narrowed_domain, exact_iteration_success
from conftest import random_instance


def pair_forcing():
    return CspInstance(2, 2, [Nogood([(1, 0)]), Nogood([(1, 1), (2, 0)])])


def run_iteration(instance, rng):
    """One engine pass; the assignment or None."""
    return _iterate(instance, NogoodState(instance), rng)[0]


def naive_iteration(instance, rng):
    """Reference pass built on bruteforce.brute_narrowed_domain, mirroring
    the engine's randomness discipline call for call."""
    n, d = instance.n, instance.d
    if any(ng.arity == 0 for ng in instance.nogoods):
        return None, 1
    order = list(range(1, n + 1))
    rng.shuffle(order)
    assigned = {}
    narrow = 0
    for y in order:
        domain = brute_narrowed_domain(instance, assigned, y)
        if len(domain) < d:
            narrow += 1
            if not domain:
                return None, narrow
            choices = sorted(domain)
            value = choices[rng.randrange(len(choices))]
        else:
            value = rng.randrange(d)
        assigned[y] = value
    return tuple(assigned[v] for v in range(1, n + 1)), narrow


class TestRunIteration:
    def test_forced_singleton(self):
        inst = CspInstance(1, 2, [Nogood([(1, 0)])])
        for seed in range(20):
            assert run_iteration(inst, random.Random(seed)) == (1,)

    def test_empty_instance_spreads_over_the_cube(self):
        inst = CspInstance(2, 2)
        seen = {run_iteration(inst, random.Random(seed)) for seed in range(60)}
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_arity_zero_always_aborts(self):
        # aborts before drawing anything, with one narrowed variable
        nogood_lists = [[Nogood([])], [Nogood([(1, 0)]), Nogood([])]]
        for inst in (CspInstance(3, 2, nogoods) for nogoods in nogood_lists):
            rng = random.Random(0)
            state = rng.getstate()
            assert _iterate(inst, NogoodState(inst), rng) == (None, 1)
            assert rng.getstate() == state
            stats = solve_ppsz(inst, max_repeats=5, seed=0)
            assert stats.status == "FAILURE" and stats.narrow_histogram == {1: 5}

    def test_completed_iterations_always_satisfy(self):
        # narrowing removes exactly the values that would finish a nogood,
        # so a pass that never aborts cannot have matched anything
        rng = random.Random(808)
        for _ in range(300):
            inst = random_instance(rng)
            result = run_iteration(inst, random.Random(rng.randrange(2**32)))
            if result is not None:
                assert is_satisfying(inst, result)

    def test_engine_matches_reference_pass(self):
        rng = random.Random(809)
        for _ in range(200):
            inst = random_instance(rng)
            seed = rng.randrange(2**32)
            engine = _iterate(inst, NogoodState(inst), random.Random(seed))
            reference = naive_iteration(inst, random.Random(seed))
            assert engine == reference


class TestExactSuccessProbability:
    def test_triangle_never_aborts(self):
        inst = dict(corpus())["triangle-3col"]
        assert exact_iteration_success(inst) == 1

    def test_pair_forcing_exact_value(self):
        assert exact_iteration_success(pair_forcing()) == Fraction(3, 4)

    def test_unsat_instances_never_succeed(self):
        named = dict(corpus())
        assert exact_iteration_success(named["queens-2"]) == 0
        assert exact_iteration_success(named["zero-arity"]) == 0

    def test_empirical_rate_matches_exact(self):
        inst = pair_forcing()
        trials = 20000
        hits = 0
        for t in range(trials):
            if run_iteration(inst, random.Random(derive_seed(99, t))) is not None:
                hits += 1
        exact = 0.75
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(hits / trials - exact) <= 4 * se

    def test_exact_value_at_least_analytic_bound_on_small_instances(self):
        rng = random.Random(810)
        checked = 0
        while checked < 25:
            inst = random_instance(rng, max_n=3, max_d=3)
            if inst.k_max == 0:
                continue
            probability = exact_iteration_success(inst)
            if probability == 0:
                continue  # unsatisfiable: the bound does not apply
            bound = success_lower_bound(inst.n, inst.d, inst.k_max)
            assert float(probability) >= bound - 1e-12
            checked += 1


class TestSolvePpsz:
    def test_sat_on_satisfiable_corpus(self):
        for name, inst in corpus():
            if name in ("latin-3",):  # n=9 keeps default repeats large; skip for speed
                continue
            stats = solve_ppsz(inst, seed=2024)
            if stats.status == "SAT":
                assert is_satisfying(inst, stats.assignment)
                assert stats.iterations_used <= stats.max_repeats

    def test_failure_on_unsat(self):
        named = dict(corpus())
        for name in ("queens-2", "queens-3", "pigeon-4-3", "all-pairs-3-2", "zero-arity"):
            stats = solve_ppsz(named[name], seed=1)
            assert stats.status == "FAILURE", name
            assert stats.assignment is None
            assert stats.iterations_used == stats.max_repeats

    def test_determinism_and_histogram_accounting(self):
        inst = dict(corpus())["uniform-2"]
        first = solve_ppsz(inst, seed=77)
        second = solve_ppsz(inst, seed=77)
        assert first.status == second.status
        assert first.assignment == second.assignment
        assert first.iterations_used == second.iterations_used
        assert first.narrow_histogram == second.narrow_histogram
        assert sum(first.narrow_histogram.values()) == first.iterations_used

    def test_max_repeats_override(self):
        inst = dict(corpus())["queens-2"]
        stats = solve_ppsz(inst, max_repeats=3, seed=0)
        assert stats.status == "FAILURE" and stats.max_repeats == 3
        with pytest.raises(ValueError):
            solve_ppsz(inst, max_repeats=0, seed=0)

    def test_forced_instance_first_iteration(self):
        stats = solve_ppsz(CspInstance(1, 2, [Nogood([(1, 0)])]), seed=5)
        assert stats.status == "SAT"
        assert stats.assignment == (1,)
        assert stats.iterations_used == 1

    def test_domain_of_size_one(self):
        stats = solve_ppsz(CspInstance(2, 1), seed=0)
        assert stats.status == "SAT" and stats.assignment == (0, 0)
        assert stats.max_repeats == 1


class TestRepeatCount:
    @pytest.mark.parametrize(
        "n,d,k,expected",
        [(3, 2, 3, 48), (6, 3, 2, 9072), (1, 2, 1, 2), (4, 2, 2, 80)],
    )
    def test_exact_anchors(self, n, d, k, expected):
        assert repeat_count(n, d, k) == expected

    def test_matches_float_formula_when_not_integral(self):
        for n, d, k in [(5, 2, 2), (7, 3, 2), (4, 4, 3), (9, 2, 3)]:
            base = d * ((d - 1) / d) ** (1 / k)
            approx = n * (n + 1) * base**n
            exact = repeat_count(n, d, k)
            assert exact >= approx - 1e-6
            assert exact <= approx + 1.5

    @pytest.mark.parametrize("args", [(0, 2, 2), (3, 1, 2), (3, 2, 0)])
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            repeat_count(*args)

    def test_overflow_reports_escape_hatch(self):
        with pytest.raises(OverflowError, match="max_repeats"):
            repeat_count(200, 4, 2)


class TestBounds:
    def test_success_lower_bound_anchors(self):
        assert success_lower_bound(6, 3, 2) == pytest.approx(1 / 1512, rel=1e-12)
        assert success_lower_bound(3, 2, 3) == pytest.approx(1 / 16, rel=1e-12)
        assert success_lower_bound(1, 2, 1) == pytest.approx(0.5, rel=1e-12)
        assert success_lower_bound(3, 3, 2) == pytest.approx(1 / (4 * 6**1.5), rel=1e-12)

    def test_bound_variable_domain_anchor(self):
        value = bound_variable_domain_ppsz(2, 1.0, 2)
        assert value == pytest.approx(2 * math.log(2) * (1 - 1 / (4 * math.log(2))), rel=1e-12)
        assert round(value, 4) == 0.8863

    def test_bound_below_trivial_exponent(self):
        for n, alpha, k in [(4, 0.5, 2), (10, 1.0, 3), (50, 2.0, 2)]:
            assert bound_variable_domain_ppsz(n, alpha, k) < alpha * n * math.log(n)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            bound_variable_domain_ppsz(1, 1.0, 2)
        with pytest.raises(ValueError):
            bound_variable_domain_ppsz(4, 0.0, 2)
        with pytest.raises(ValueError):
            success_lower_bound(3, 1, 2)


class TestSeedDerivation:
    def test_splitmix_known_vector(self):
        # first output of the splitmix64 stream from state 0
        assert _splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derived_seeds_distinct_and_stable(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(12345, 17) == derive_seed(12345, 17)
        assert derive_seed(12345, 17) != derive_seed(12346, 17)
