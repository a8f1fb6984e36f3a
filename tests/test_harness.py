import json
import tracemalloc
from fractions import Fraction

import pytest

from kcsp import (
    CspInstance,
    Nogood,
    corpus,
    enumerate_solutions,
    estimate_iteration_success,
    node_growth_experiment,
    verify_campaign,
)

from bruteforce import brute_solutions


class TestCorpus:
    def test_names_unique_and_instances_valid(self):
        entries = corpus()
        names = [name for name, _ in entries]
        assert len(names) == len(set(names))
        for name, inst in entries:
            assert inst.n >= 1 and inst.d >= 1

    def test_required_structured_members_present(self):
        names = {name for name, _ in corpus()}
        for required in (
            "triangle-3col",
            "k4-3col",
            "latin-1",
            "latin-2",
            "latin-3",
            "queens-1",
            "queens-2",
            "queens-3",
            "queens-4",
            "queens-5",
            "queens-6",
        ):
            assert required in names

    def test_known_verdicts(self):
        named = dict(corpus())
        assert brute_solutions(named["pair-forcing"]) == [(1, 1)]
        assert brute_solutions(named["pigeon-4-3"]) == []
        assert brute_solutions(named["k4-3col"]) == []
        assert len(brute_solutions(named["triangle-3col"])) == 6


class TestEstimateIterationSuccess:
    def test_triangle_passes(self):
        named = dict(corpus())
        result = estimate_iteration_success(named["triangle-3col"], trials=2000, seed=6)
        assert result.verdict == "pass"
        assert result.stats["p_hat"] == 1.0  # narrowing never dead-ends here
        assert result.stats["successes"] == 2000

    def test_forced_unary_instance(self):
        inst = CspInstance(1, 2, [Nogood([(1, 0)])])
        result = estimate_iteration_success(inst, trials=500, seed=6)
        assert result.stats["p_hat"] == 1.0
        assert result.stats["bound"] == pytest.approx(0.5, rel=1e-12)
        assert result.verdict == "pass"

    def test_unsat_is_not_applicable(self):
        named = dict(corpus())
        result = estimate_iteration_success(named["queens-2"], trials=200, seed=6)
        assert result.verdict == "not-applicable"
        assert result.stats["p_hat"] == 0.0

    def test_aggregates_recomputable_from_records(self):
        named = dict(corpus())
        result = estimate_iteration_success(named["uniform-2"], trials=400, seed=9)
        assert sum(result.records) == result.stats["successes"]
        assert result.stats["p_hat"] == result.stats["successes"] / 400
        low, high = result.stats["ci99"]
        assert 0.0 <= low <= result.stats["p_hat"] <= high <= 1.0

    def test_deterministic_given_seed(self):
        named = dict(corpus())
        a = estimate_iteration_success(named["uniform-1"], trials=300, seed=4)
        b = estimate_iteration_success(named["uniform-1"], trials=300, seed=4)
        assert a == b

    def test_rejects_zero_trials_and_uncheckable_instances(self):
        with pytest.raises(ValueError):
            estimate_iteration_success(CspInstance(2, 2), trials=0, seed=0)
        big = CspInstance(40, 3)
        with pytest.raises(ValueError, match=r"d\^n = 3\^40 exceeds the oracle cap 1048576"):
            estimate_iteration_success(big, trials=10, seed=0, cap=1 << 20)
        result = estimate_iteration_success(
            big, trials=10, seed=0, cap=1 << 20, assume_satisfiable=True
        )
        assert result.verdict == "pass"  # no nogoods: every iteration succeeds


    def test_existence_precheck_allocates_only_the_mask(self):
        # 2^20 points and as many solutions: one byte each, no tuples
        tracemalloc.start()
        try:
            result = estimate_iteration_success(CspInstance(20, 2), trials=10, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.params["satisfiable"] is True and result.verdict == "pass"
        assert result.records == [1] * 10
        assert peak < 4 * 2**20, peak

    def test_precheck_refuses_past_the_point_limit_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="enumeration limit"):
                estimate_iteration_success(CspInstance(30, 2), trials=1, seed=0, cap=1 << 31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


class TestNodeGrowthExperiment:
    def test_uniform_sweep_passes(self):
        result = node_growth_experiment(2, 2, 4.0, range(8, 13), 8, seed=31)
        assert result.verdict == "pass"
        assert result.stats["slope"] <= result.stats["threshold"]
        assert len(result.records) == 5 * 8

    def test_single_n_inconclusive(self):
        result = node_growth_experiment(2, 2, 4.0, [8], 5, seed=31)
        assert result.verdict == "inconclusive"
        assert result.stats["slope"] is None

    def test_all_sat_family_inconclusive(self):
        result = node_growth_experiment(2, 2, 0.0, range(8, 11), 3, seed=31)
        assert result.verdict == "inconclusive"


class TestVerifyCampaign:
    def test_lemma2_small_grid(self):
        result = verify_campaign("lemma2", seed=8, subsets_per_cell=40)
        assert result.verdict == "pass"
        assert result.stats == {"checked": 9 * 40, "failures": 0}
        for record in result.records:
            assert record["holds"]
            assert int(record["lhs"]) >= record["d"] ** record["n"]

    def test_lemma1_small_corpus(self):
        result = verify_campaign("lemma1", seed=0, max_n=4)
        assert result.verdict == "pass"
        assert result.stats["failures"] == 0
        for record in result.records:
            if record["k"]:
                assert Fraction(record["average"]) >= Fraction(record["j"], record["k"])

    def test_lemma1_whole_corpus(self):
        result = verify_campaign("lemma1", seed=0, max_n=9)
        assert result.verdict == "pass"
        named = dict(corpus())
        assert result.params["instances"] == list(named)
        # j read off each solution's nogoods agrees with the enumeration
        isolation = {}
        for name, instance in named.items():
            sols = enumerate_solutions(instance)
            for X, j in zip(sols.solutions, sols.isolation):
                isolation[name, X] = j
        assert len(result.records) == len(isolation)
        for record in result.records:
            assert record["j"] == isolation[record["instance"], tuple(record["solution"])]
        latin = [r for r in result.records if r["instance"] == "latin-3"]
        assert len(latin) == 12
        margin = min(Fraction(r["average"]) - Fraction(r["bound"]) for r in latin)
        assert margin == Fraction(27, 10)

    def test_lemma1_covers_known_exact_case(self):
        result = verify_campaign("lemma1", seed=0, max_n=2)
        (record,) = [r for r in result.records if r["instance"] == "pair-forcing"]
        assert Fraction(record["average"]) == Fraction(3, 2)
        assert record["j"] == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown verification kind"):
            verify_campaign("lemma3", seed=0)

    def test_refuses_campaigns_of_zero_checks(self):
        with pytest.raises(ValueError, match="got 0"):
            verify_campaign("lemma1", max_n=0)
        with pytest.raises(ValueError, match="got 0"):
            verify_campaign("lemma2", subsets_per_cell=0)
        # each kind reads only its own keyword
        assert verify_campaign("lemma1", max_n=1, subsets_per_cell=0).stats["checked"] > 0

    def test_misspelt_keyword_raises(self):
        with pytest.raises(TypeError, match="max_N"):
            verify_campaign("lemma1", max_N=9)

    def test_deterministic_given_seed(self):
        a = verify_campaign("lemma2", seed=5, subsets_per_cell=25)
        b = verify_campaign("lemma2", seed=5, subsets_per_cell=25)
        assert a == b


class TestExperimentResult:
    def test_json_round_trip(self):
        result = verify_campaign("lemma2", seed=2, subsets_per_cell=10)
        payload = result.to_json_dict()
        text = json.dumps(payload)
        parsed = json.loads(text)
        assert parsed["experiment"] == "verify-lemma2"
        assert parsed["verdict"] == "pass"
        assert parsed["seed"] == 2
        assert len(parsed["records"]) == 9 * 10

    def test_solution_count_vs_corpus_expectation(self):
        named = dict(corpus())
        assert len(enumerate_solutions(named["latin-2"])) == 2
