"""Acceptance battery.

Each test covers one release criterion, prints a single PASS/FAIL line
(visible even without -v), and enforces the stated runtime budget.
"""

import json
import math
import random
import time
from fractions import Fraction

from kcsp import (
    char_root,
    corpus,
    estimate_iteration_success,
    gen_uniform,
    is_satisfying,
    node_growth_experiment,
    ppsz_bound_base,
    repeat_count,
    solve_dpll,
    solve_ppsz,
    verify_campaign,
)
from kcsp.cli import cli_dispatch

from conftest import checks, uniform_sample_500


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_dpll_matches_oracle(capsys):
    start = time.perf_counter()
    checked = 0
    for instance in uniform_sample_500() + [inst for _, inst in corpus()]:
        has_solution = checks.solution_mask(checks.plain(instance)).any()
        stats = solve_dpll(instance)
        expected = "SAT" if has_solution else "UNSAT"
        assert stats.status == expected, f"verdict mismatch on instance {checked}"
        if stats.status == "SAT":
            assert is_satisfying(instance, stats.assignment)
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        capsys, "criterion 1", elapsed < 60.0,
        f"dpll verdict == oracle on {checked}/{checked} instances in {elapsed:.1f}s "
        "(budget 60s)",
    )


def test_criterion_2_lemma2_exact(capsys):
    start = time.perf_counter()
    result = verify_campaign("lemma2", seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        result.verdict == "pass"
        and result.stats == {"checked": 9000, "failures": 0}
        and all(
            record["holds"] and int(record["lhs"]) >= record["d"] ** record["n"]
            for record in result.records
        )
        and elapsed < 30.0
    )
    _report(
        capsys, "criterion 2", ok,
        f"sum d^J >= d^n on {result.stats['checked']} subsets, "
        f"{result.stats['failures']} failures, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_3_lemma1_exact(capsys):
    start = time.perf_counter()
    result = verify_campaign("lemma1", seed=0, max_n=7)
    elapsed = time.perf_counter() - start
    ok = result.verdict == "pass" and result.stats["failures"] == 0
    for record in result.records:
        if record["k"]:
            ok = ok and Fraction(record["average"]) >= Fraction(record["j"], record["k"])
    _report(
        capsys, "criterion 3", ok,
        f"exhaustive narrow-choice average >= j/k for {result.stats['checked']} "
        f"solutions across corpus instances with n <= 7, "
        f"{result.stats['failures']} failures, {elapsed:.1f}s",
    )


def test_criterion_4_iteration_success_floor(capsys):
    start = time.perf_counter()
    named = dict(corpus())
    cases = [("triangle-3col", named["triangle-3col"])]
    rng = random.Random(777)
    attempt = 0
    while len(cases) < 21:
        n = rng.randint(4, 8)
        d = rng.choice([2, 3])
        k = rng.choice([2, 3])
        m = rng.randint(n, 3 * n)
        candidate = gen_uniform(n, d, k, m, seed=5000 + attempt)
        attempt += 1
        if checks.solution_mask(checks.plain(candidate)).any():
            cases.append((f"uniform-sat-{len(cases)}", candidate))
    worst = math.inf
    for index, (name, instance) in enumerate(cases):
        result = estimate_iteration_success(instance, trials=100_000, seed=4242 + index)
        stats = result.stats
        margin = stats["p_hat"] - (stats["bound"] - 3 * stats["se"])
        worst = min(worst, margin)
        assert result.verdict == "pass", f"{name}: p_hat {stats['p_hat']} below floor"
    elapsed = time.perf_counter() - start
    _report(
        capsys, "criterion 4", elapsed < 30.0,
        f"p_hat >= bound - 3*se on triangle + 20 satisfiable uniforms at 1e5 "
        f"iterations each (worst margin {worst:.4f}) in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_5_ppsz_end_to_end(capsys):
    named = dict(corpus())
    triangle = named["triangle-3col"]
    solved = sum(
        solve_ppsz(triangle, seed=seed).status == "SAT" for seed in range(1000)
    )
    unsat_names = [
        name for name, inst in corpus() if not checks.solution_mask(checks.plain(inst)).any()
    ]
    sound = all(solve_ppsz(named[name], seed=1).status == "FAILURE" for name in unsat_names)
    _report(
        capsys, "criterion 5", solved >= 999 and sound,
        f"triangle solved in {solved}/1000 seeded runs; FAILURE on all "
        f"{len(unsat_names)} unsatisfiable corpus instances",
    )


def test_criterion_6_characteristic_roots(capsys):
    golden = char_root(2, 2)
    tribonacci = char_root(2, 3)
    ok = (
        abs(golden.lambda_ - 1.6180339887) <= 1e-9
        and abs(tribonacci.lambda_ - 1.8392867552) <= 1e-9
    )
    for d in range(2, 11):
        for k in range(2, 11):
            result = char_root(d, k)
            ok = ok and result.lower_exact < result.root_exact < result.upper_exact
    _report(
        capsys, "criterion 6", ok,
        "char_root(2,2) and (2,3) within 1e-9 of golden/tribonacci ratios; "
        "d - 1/d^(k-1) < root < d - (d-1)/d^k on the full d,k in 2..10 grid",
    )


def test_criterion_7_closed_form_anchors(capsys):
    ok = repeat_count(3, 2, 3) == 48 and repeat_count(6, 3, 2) == 9072
    for k in range(1, 7):
        ok = ok and abs(ppsz_bound_base(2, k) - 2 ** (1 - 1 / k)) <= 1e-12
    _report(
        capsys, "criterion 7", ok,
        "repeat_count(3,2,3) == 48, repeat_count(6,3,2) == 9072 exactly; "
        "ppsz_bound_base(2,k) == 2^(1-1/k) for k in 1..6 within 1e-12",
    )


def test_criterion_8_node_growth_slope(capsys):
    start = time.perf_counter()
    result = node_growth_experiment(2, 2, 4.0, range(8, 15), 30, seed=0)
    elapsed = time.perf_counter() - start
    slope = result.stats["slope"]
    threshold = result.stats["threshold"]
    ok = result.verdict == "pass" and slope is not None and slope <= threshold
    ok = ok and abs(threshold - (math.log(char_root(2, 2).lambda_) + 0.05)) < 1e-12
    _report(
        capsys, "criterion 8", ok and elapsed < 120.0,
        f"ln(median nodes) slope {slope:.4f} <= {threshold:.4f} on "
        f"gen_uniform(n,2,2,4n), n in 8..14, 30 per n, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_9_byte_identical_reruns(capsys, tmp_path):
    instance_path = tmp_path / "seed.csp"
    assert cli_dispatch(
        ["gen", "uniform", "--n", "8", "--d", "2", "--k", "2", "--m", "20",
         "--seed", "5", "--out", str(instance_path)]
    ) == 0
    command_specs = {
        "gen.csp": ["gen", "uniform", "--n", "8", "--d", "2", "--k", "2",
                    "--m", "20", "--seed", "5", "--out"],
        "dpll.json": ["solve", "--alg", "dpll", str(instance_path), "--stats"],
        "ppsz.json": ["solve", "--alg", "ppsz", "--seed", "9", str(instance_path),
                      "--stats"],
        "oracle.json": ["oracle", str(instance_path), "--out"],
        "lemma1.json": ["verify", "lemma1", "--max-n", "4", "--out"],
        "lemma2.json": ["verify", "lemma2", "--subsets", "5", "--seed", "3", "--out"],
        "table.csv": ["analyze", "--d", "2..3", "--k", "2..3", "--out"],
        "prob.json": ["bench", "prob", "--trials", "100", "--seed", "2", "--out"],
        "growth.json": ["bench", "growth", "--n", "8..9", "--per-n", "2",
                        "--seed", "2", "--out"],
    }
    mismatched = []
    for run_dir in ("first", "second"):
        (tmp_path / run_dir).mkdir()
        for filename, argv in command_specs.items():
            code = cli_dispatch(argv + [str(tmp_path / run_dir / filename)])
            assert code in (0, 1), f"{filename}: unexpected exit code {code}"
    capsys.readouterr()
    for filename in command_specs:
        first = (tmp_path / "first" / filename).read_bytes()
        second = (tmp_path / "second" / filename).read_bytes()
        if first != second:
            mismatched.append(filename)
        json_like = filename.endswith(".json")
        assert not (json_like and b"elapsed_ms" in first), f"{filename} embeds timing"
    _report(
        capsys, "criterion 9", not mismatched,
        f"{len(command_specs)} output files byte-identical across reruns "
        f"(all subcommands); mismatches: {mismatched or 'none'}",
    )
