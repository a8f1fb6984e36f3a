import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import kcsp.ppsz as ppsz

from kcsp import (
    CspInstance,
    estimate_iteration_success,
    is_satisfying,
    ppsz_bound_base,
    repeat_count,
    solve_ppsz,
    success_lower_bound,
)
from kcsp.harness import corpus
from kcsp.ppsz import _iterate, _splitmix64, derive_seed, iteration_successes

from bruteforce import (
    CounterState,
    brute_narrowed_domain,
    brute_solutions,
    exact_iteration_success,
    matches,
)
from conftest import checks, random_instance, src_env


def pair_forcing():
    return CspInstance(2, 2, [[(1, 0)], [(1, 1), (2, 0)]])


def run_iteration(instance, seed, index=1):
    """Engine iteration `index` of `seed`: (assignment or None, narrow count)."""
    return _iterate(instance, derive_seed(seed, index))


class TestRunIteration:
    def test_forced_singleton(self):
        inst = CspInstance(1, 2, [[(1, 0)]])
        for seed in range(20):
            assert run_iteration(inst, seed) == ((1,), 1)

    def test_empty_instance_spreads_over_the_cube(self):
        inst = CspInstance(2, 2)
        seen = {run_iteration(inst, seed)[0] for seed in range(60)}
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_arity_zero_always_aborts(self, monkeypatch):
        # aborts before reading any word, with one narrowed variable
        streams = []
        stream = ppsz._stream
        monkeypatch.setattr(ppsz, "_stream", lambda s, count: streams.append(s) or stream(s, count))
        nogood_lists = [[[]], [[(1, 0)], []]]
        for inst in (CspInstance(3, 2, nogoods) for nogoods in nogood_lists):
            assert _iterate(inst, 0) == (None, 1)
            assert streams == []
            stats = solve_ppsz(inst, max_repeats=5, seed=0)
            assert stats.status == "FAILURE" and stats.narrow_histogram == {1: 5}
            streams.clear()

    def test_huge_domain_is_never_listed(self):
        # a narrowed variable picks its value without a list of all d values
        inst = CspInstance(2, 10**9, [[(1, 5)], [(1, 0), (2, 7)]])
        tracemalloc.start()
        try:
            stats = solve_ppsz(inst, max_repeats=20, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.status == "SAT" and is_satisfying(inst, stats.assignment)
        assert sum(stats.narrow_histogram.values()) == stats.iterations_used
        assert peak < 1 << 20

    def test_memory_bounded_on_a_long_chain(self):
        # nogood (v: 0) for every v: one iteration makes 20,000 assignments,
        # and keeps no levels list past the next one
        n = 20_000
        inst = CspInstance(n, 2, [[(v, 0)] for v in range(1, n + 1)])
        inst.by_var  # cached on the instance, outside the trace
        tracemalloc.start()
        try:
            stats = solve_ppsz(inst, max_repeats=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (stats.status, stats.assignment) == ("SAT", (1,) * n)
        assert peak < 8 * 2**20, peak

    def test_completed_iterations_always_satisfy(self):
        # narrowing removes exactly the values that would finish a nogood,
        # so a pass that never aborts cannot have matched anything
        rng = random.Random(808)
        for _ in range(300):
            inst = random_instance(rng)
            result = run_iteration(inst, rng.randrange(2**32))[0]
            if result is not None:
                assert is_satisfying(inst, result)

    def test_engine_matches_reference_pass(self):
        rng = random.Random(809)
        for _ in range(200):
            inst = random_instance(rng)
            seed, index = rng.randrange(2**32), rng.randrange(1, 100)
            assert run_iteration(inst, seed, index) == reference_block_iteration(inst, seed, index)


GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's state increment


def reference_block_iteration(instance, seed, index):
    """Iteration `index` replayed in plain Python: words t of the
    splitmix64 stream from derive_seed(seed, index) are
    _splitmix64(s + t * GOLDEN); words 1..n-1 drive a Fisher-Yates shuffle
    and word n+t picks the value at position t among the sorted narrowed
    domain.  (The assignment or None on an abort, the number of variables
    whose domain was narrowed.)"""
    n = instance.n
    s = derive_seed(seed, index)
    words = [_splitmix64((s + t * GOLDEN) % 2**64) for t in range(2 * n)]
    order = list(range(1, n + 1))
    for t in range(n - 1, 0, -1):
        j = words[t] % (t + 1)
        order[t], order[j] = order[j], order[t]
    assigned = {}
    narrow = 0
    for t, y in enumerate(order):
        domain = sorted(brute_narrowed_domain(instance, assigned, y))
        if len(domain) < instance.d:
            narrow += 1
        if not domain:
            return None, narrow
        assigned[y] = domain[words[n + t] % len(domain)]
    return tuple(assigned[v] for v in range(1, n + 1)), narrow


def replay_instances():
    """corpus(), 200 fuzz instances, and arity-0, d = 1 and UNSAT extras."""
    rng = random.Random(811)
    instances = [inst for _, inst in corpus()]
    instances += [random_instance(rng) for _ in range(200)]
    instances += [
        CspInstance(3, 2, [[(1, 0)], []]),
        CspInstance(4, 1),
        CspInstance(3, 1, [[(2, 0), (3, 0)]]),
        CspInstance(2, 2, [[(1, a), (2, b)] for a in range(2) for b in range(2)]),
    ]
    return instances


def word_edge_instances():
    """m = 63, 64, 65, 128 and 129 nogoods, on both sides of a 64-bit word
    edge: random ternary nogoods, then the unary (1, 0) last, so that the
    highest bit forbids a value in every row.  And a d = 300 instance
    whose nogoods name sparse values: variables 1 and 2 keep three values
    each, and binary nogoods over them and variables 3 and 4 forbid values
    far apart, and every value of variable 2 once variable 1 is 5."""
    rng = random.Random(814)
    instances = []
    for m in (63, 64, 65, 128, 129):
        nogoods = {}
        while len(nogoods) < m - 1:
            pairs = ((v, rng.randrange(3)) for v in rng.sample(range(1, 11), 3))
            nogoods[tuple(sorted(pairs))] = None
        instances.append(CspInstance(10, 3, [*nogoods, [(1, 0)]]))
    keep = {1: (5, 17, 299), 2: (0, 150, 298)}
    nogoods = [[(v, a)] for v, kept in keep.items() for a in range(300) if a not in kept]
    nogoods += [[(1, 5), (2, b)] for b in keep[2]]
    nogoods += [[(1, 17), (3, 64)], [(2, 150), (3, 0)], [(2, 298), (3, 299)]]
    nogoods += [[(3, c), (4, 200 - c)] for c in range(0, 200, 9)]
    instances.append(CspInstance(4, 300, nogoods))
    return instances


def assert_replays_reference(monkeypatch, instances, count=30):
    """iteration_successes on each instance, at 7 rows per block so that
    blocks end part full, against reference_block_iteration row by row:
    the outcomes, and the completed rows' assignments, read where the
    kernel's own safety check sees them.  Returns the outcome lists."""
    completed = []
    rows_matching = ppsz._rows_matching

    def recording(values, ng_vars, ng_vals):
        completed.extend(tuple(row[1:]) for row in values.tolist())
        return rows_matching(values, ng_vars, ng_vals)

    monkeypatch.setattr(ppsz, "_rows_matching", recording)
    monkeypatch.setattr(ppsz, "_BLOCK_ROWS", 7)
    runs = []
    for number, inst in enumerate(instances):
        seed = 1000 + number
        completed.clear()
        outcomes = iteration_successes(inst, seed, count)
        reference = [reference_block_iteration(inst, seed, i)[0] for i in range(1, count + 1)]
        assert outcomes == [int(point is not None) for point in reference], number
        assert completed == [point for point in reference if point is not None], number
        plain = checks.plain(inst)
        assert all(checks.satisfies(plain, point) for point in completed)
        runs.append(outcomes)
    return runs


class TestIterationBlocks:
    def test_replays_reference_row_by_row(self, monkeypatch):
        instances = replay_instances()
        kinds = set()
        for inst, outcomes in zip(instances, assert_replays_reference(monkeypatch, instances)):
            kinds.add("sat" if any(outcomes) else "no success")
            kinds.add("abort" if not all(outcomes) else "all complete")
            if inst.by_var[2][0]:
                kinds.add("arity 0")
            if inst.d == 1:
                kinds.add("d = 1")
        assert kinds == {"sat", "no success", "abort", "all complete", "arity 0", "d = 1"}

    def test_replays_reference_across_word_edges(self, monkeypatch):
        instances = word_edge_instances()
        widths = [ppsz._block_tables(inst).levels.shape[1] for inst in instances]
        assert widths == [1, 1, 2, 2, 3, 10]
        for outcomes in assert_replays_reference(monkeypatch, instances, count=40):
            assert 0 < sum(outcomes) < len(outcomes)

    def test_solver_stops_at_the_first_block_success(self):
        # one stream: solve_ppsz's iteration i is the block's row i
        kinds = set()
        for number, inst in enumerate(replay_instances()):
            seed, count = 1000 + number, 30
            stats = solve_ppsz(inst, max_repeats=count, seed=seed)
            outcomes = iteration_successes(inst, seed, count)
            first = outcomes.index(1) + 1 if 1 in outcomes else count
            reference = [reference_block_iteration(inst, seed, i) for i in range(1, first + 1)]
            assert stats.iterations_used == first, number
            assert stats.assignment == reference[-1][0], number
            assert stats.narrow_histogram == Counter(narrow for _, narrow in reference), number
            kinds.add((stats.status, first > 1))
        assert kinds == {("SAT", False), ("SAT", True), ("FAILURE", True)}

    @pytest.mark.parametrize(
        "name", ["pair-forcing", "k3-d2", "queens-4", "queens-6", "uniform-4", "zero-arity"]
    )
    def test_records_do_not_depend_on_block_size(self, monkeypatch, name):
        # the last run keeps _BLOCK_ROWS and lets a small byte budget cap
        # the block, as a large instance's arrays would at the default one
        inst = dict(corpus())[name]
        tables = ppsz._block_tables(inst)
        default_rows, default_budget = ppsz._BLOCK_ROWS, ppsz._BLOCK_BYTES
        capped = 50 * ppsz._row_bytes(inst, tables) + 1
        records = []
        for rows, budget in ((1, default_budget), (7, default_budget),
                             (default_rows, default_budget), (default_rows, capped)):
            monkeypatch.setattr(ppsz, "_BLOCK_ROWS", rows)
            monkeypatch.setattr(ppsz, "_BLOCK_BYTES", budget)
            if budget == capped:
                assert ppsz._block_rows(inst, tables) == 50
            records.append(estimate_iteration_success(inst, trials=300, seed=12).records)
        first, *rest = records
        assert all(other == first for other in rest)
        assert len(first) == 300 and set(first) <= {0, 1}

    def test_estimates_match_exact_probability(self):
        # z = 5, the benchmark's: with dozens of checks per run, a 99%
        # interval would fail an honest one about once in a hundred
        trials, checked = 20_000, 0
        for name, inst in corpus():
            if inst.n > 6 or not brute_solutions(inst):
                continue
            p = exact_iteration_success(inst)
            result = estimate_iteration_success(inst, trials=trials, seed=31)
            assert checks.probability_close(result.stats["p_hat"], p, trials), name
            checked += 1
        assert checked == 17

    def test_rows_matching_follows_the_definition(self):
        rng = random.Random(812)
        for _ in range(100):
            inst = random_instance(rng)
            tables = ppsz._block_tables(inst)
            points = [tuple(rng.randrange(inst.d) for _ in range(inst.n)) for _ in range(6)]
            values = np.array([(0, *point) for point in points])
            expected = [any(matches(ng.pairs, point) for ng in inst.nogoods) for point in points]
            assert ppsz._rows_matching(values, tables.ng_vars, tables.ng_vals).tolist() == expected

    def test_safety_check_does_not_read_the_masks(self, monkeypatch):
        # with every mask zeroed no value is ever forbidden, so rows complete
        # on nogood matches; the check reads the nogood table and refuses
        block_tables = ppsz._block_tables

        def maskless(instance):
            tables = block_tables(instance)
            return tables._replace(match=np.zeros_like(tables.match))

        monkeypatch.setattr(ppsz, "_block_tables", maskless)
        with pytest.raises(RuntimeError, match="matches a nogood"):
            iteration_successes(pair_forcing(), seed=0, count=50)

    def test_numpy_random_is_never_imported(self):
        script = (
            "import sys\n"
            "import kcsp\n"
            "inst = dict(kcsp.corpus())['k3-d2']\n"
            "kcsp.estimate_iteration_success(inst, trials=2000, seed=1)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=src_env()
        )
        assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr

    def test_memory_bounded_on_many_nogoods(self):
        # 24,000 ternary nogoods: 1,024 rows would need a 24 MB status array
        rng = random.Random(813)
        nogoods = set()
        while len(nogoods) < 24_000:
            u, v, w = rng.sample(range(1, 41), 3)
            pairs = ((u, rng.randrange(1, 3)), (v, rng.randrange(3)), (w, rng.randrange(3)))
            nogoods.add(tuple(sorted(pairs)))
        inst = CspInstance(40, 3, nogoods)
        tracemalloc.start()
        try:
            outcomes = iteration_successes(inst, 0, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(outcomes) == 200
        assert peak < 6 * 2**20, peak

    def test_memory_bounded_on_a_wide_domain(self):
        # d = 2^13: no block array has a column per value (1,024 rows of
        # d + 1 entries each would take over 100 MiB)
        inst = CspInstance(1, 1 << 13, [[(1, 0)]])
        tracemalloc.start()
        try:
            result = estimate_iteration_success(inst, trials=1024, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.records == [1] * 1024
        assert peak < 6 * 2**20, peak


class TestSafetyChecks:
    def test_both_paths_refuse_under_optimize_flag(self):
        # python -O strips assert statements; with each check patched to
        # report a nogood match, both paths must raise, not report success
        script = (
            "import numpy as np\n"
            "import kcsp.ppsz as ppsz\n"
            "from kcsp import CspInstance, estimate_iteration_success\n"
            "real = ppsz.is_satisfying\n"
            "ppsz.is_satisfying = lambda instance, values: False\n"
            "try:\n"
            "    print(ppsz.solve_ppsz(CspInstance(2, 2), seed=0).status)\n"
            "except RuntimeError:\n"
            "    print('refused')\n"
            "ppsz.is_satisfying = real\n"
            "ppsz._rows_matching = lambda values, *table: np.ones(len(values), dtype=bool)\n"
            "try:\n"
            "    print(estimate_iteration_success(CspInstance(2, 2), trials=5, seed=0).verdict)\n"
            "except RuntimeError:\n"
            "    print('refused')\n"
        )
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_env()
        )
        assert (run.returncode, run.stdout) == (0, "refused\nrefused\n"), run.stderr


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
        stats = solve_ppsz(CspInstance(1, 2, [[(1, 0)]]), seed=5)
        assert stats.status == "SAT"
        assert stats.assignment == (1,)
        assert stats.iterations_used == 1

    def test_domain_of_size_one(self):
        stats = solve_ppsz(CspInstance(2, 1), seed=0)
        assert stats.status == "SAT" and stats.assignment == (0, 0)
        assert stats.max_repeats == 1

    def test_same_runs_on_the_counter_kernel(self, monkeypatch):
        # both kernels read the same stream, so every run makes the same
        # iterations and ends with the same assignment and histogram
        rng = random.Random(809)
        cases = [inst for _, inst in corpus()] + [random_instance(rng) for _ in range(200)]
        seeds = [rng.randrange(2**32) for _ in cases]

        def runs():
            return [
                (stats.status, stats.iterations_used, stats.assignment, stats.narrow_histogram)
                for stats in (solve_ppsz(inst, max_repeats=64, seed=seed)
                              for inst, seed in zip(cases, seeds))
            ]

        bitset = runs()
        monkeypatch.setattr(ppsz, "NogoodState", CounterState)
        assert runs() == bitset
        assert {status for status, *_ in bitset} == {"SAT", "FAILURE"}

    def test_iterations_read_the_derived_seeds(self, monkeypatch):
        # the master seed is mixed once per call, to the same per-iteration seeds
        inst = dict(corpus())["queens-3"]
        seen = []
        iterate = ppsz._iterate
        monkeypatch.setattr(ppsz, "_iterate", lambda inst, s: seen.append(s) or iterate(inst, s))
        for seed in (0, 1, 2**64 - 1, 2**64 + 5, 987654321):
            seen.clear()
            stats = solve_ppsz(inst, max_repeats=40, seed=seed)
            assert stats.status == "FAILURE" and stats.iterations_used == 40
            assert seen == [derive_seed(seed, i) for i in range(1, 41)]


class TestRepeatCount:
    @pytest.mark.parametrize(
        "n,d,k,expected",
        [(3, 2, 3, 48), (6, 3, 2, 9072), (1, 2, 1, 2), (4, 2, 2, 80)],
    )
    def test_exact_anchors(self, n, d, k, expected):
        assert repeat_count(n, d, k) == expected
        # the default budget reads the same value, cached by (n, d, k)
        inst = CspInstance(n, d, [[(v, 0) for v in range(1, k + 1)]])
        assert [ppsz.default_max_repeats(inst) for _ in range(2)] == [expected, expected]

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
        # the cache keeps no exception: the default budget raises on every call
        inst = CspInstance(200, 4, [[(1, 0), (2, 0)]])
        for _ in range(3):
            with pytest.raises(OverflowError, match="max_repeats"):
                ppsz.default_max_repeats(inst)
            with pytest.raises(OverflowError, match="max_repeats"):
                solve_ppsz(inst, seed=0)


class TestBounds:
    def test_success_lower_bound_anchors(self):
        assert success_lower_bound(6, 3, 2) == pytest.approx(1 / 1512, rel=1e-12)
        assert success_lower_bound(3, 2, 3) == pytest.approx(1 / 16, rel=1e-12)
        assert success_lower_bound(1, 2, 1) == pytest.approx(0.5, rel=1e-12)
        assert success_lower_bound(3, 3, 2) == pytest.approx(1 / (4 * 6**1.5), rel=1e-12)

    def test_bound_variable_domain_anchor(self):
        # n ln of the base at d = n^alpha: 2 ln(2 (1/2)^(1/2)) = ln 2
        value = 2 * math.log(ppsz_bound_base(2**1.0, 2))
        assert value == pytest.approx(math.log(2), rel=1e-12)

    def test_bound_below_trivial_exponent(self):
        for n, alpha, k in [(4, 0.5, 2), (10, 1.0, 3), (50, 2.0, 2)]:
            assert n * math.log(ppsz_bound_base(n**alpha, k)) < alpha * n * math.log(n)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            success_lower_bound(3, 1, 2)


class TestSeedDerivation:
    def test_splitmix_known_vector(self):
        # first output of the splitmix64 stream from state 0
        assert _splitmix64(0) == 0xE220A8397B1DCDAF

    def test_packed_stream_is_the_word_list(self):
        # 16 words per packed int: counts 0-70 cross the chunk edges 15/16/17,
        # 31/32/33 and 47/48/49; the s values include the lane additions'
        # wrap past 2^64
        rng = random.Random(810)
        starts = [0, 1, 2**64 - 1, 2**64 - GOLDEN] + [rng.getrandbits(64) for _ in range(6)]
        for s in starts:
            for count in [*range(71), 2000]:
                expected = [_splitmix64(s + t * GOLDEN) for t in range(count)]
                assert ppsz._stream(s, count) == expected, (s, count)

    def test_derived_seeds_distinct_and_stable(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(12345, 17) == derive_seed(12345, 17)
        assert derive_seed(12345, 17) != derive_seed(12346, 17)
