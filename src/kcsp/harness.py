"""Repeatable experiments: iteration success-rate estimates against the
analytic bound, branching-tree growth fits, and randomized verification
campaigns for the isolation-degree inequalities.

Every experiment takes a master seed and derives one child stream per
trial, so results are reproducible run to run and insensitive to trial
order.  Verdicts are "pass" / "fail" plus "not-applicable" (bound does
not apply, e.g. unsatisfiable input) and "inconclusive" (not enough
usable data points).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import CspInstance, _LimitExceeded
from .generators import gen_coloring, gen_latin, gen_nqueens, gen_uniform
from .oracle import (
    DEFAULT_CAP,
    _exceeds,
    _isolation_probe,
    _solution_mask,
    avg_narrow_count,
    enumerate_solutions,
)
from .ppsz import derive_seed, iteration_successes, success_lower_bound
from .dpll import solve_dpll
from .analysis import char_root
from .version import __version__

_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment: per-trial records plus the aggregates derived from them."""

    experiment: str
    seed: int
    params: dict
    records: list
    stats: dict
    verdict: str  # "pass" | "fail" | "not-applicable" | "inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "tool_version": __version__,
            "experiment": self.experiment,
            "seed": self.seed,
            "params": self.params,
            "stats": self.stats,
            "verdict": self.verdict,
            "records": self.records,
        }


@functools.cache
def corpus() -> tuple:
    """Named instances with hand-checkable structure, reused across tests,
    verification campaigns, and the command-line tools.  Built once per
    process: every call returns the same tuple of immutable entries."""
    entries = []

    def add(name, instance):
        entries.append((name, instance))

    add("empty-2-2", CspInstance(2, 2, []))
    add("empty-5-3", CspInstance(5, 3, []))
    add("zero-arity", CspInstance(2, 2, [[]]))
    add("pair-forcing", CspInstance(2, 2, [[(1, 0)], [(1, 1), (2, 0)]]))
    add("unary-chain", CspInstance(3, 2, [[(1, 0)], [(2, 1)], [(3, 0)]]))
    k3_d2 = [
        [(1, 0), (2, 0), (3, 0)],
        [(1, 1), (2, 1), (4, 1)],
        [(2, 0), (3, 1), (4, 0)],
        [(1, 0), (3, 1), (4, 1)],
        [(2, 1), (3, 0), (4, 0)],
    ]
    add("k3-d2", CspInstance(4, 2, k3_d2))
    k3_d3 = [
        [(1, 0), (2, 0), (3, 0)],
        [(1, 1), (2, 2), (4, 0)],
        [(2, 1), (3, 2), (4, 2)],
        [(1, 2), (3, 1), (4, 1)],
    ]
    add("k3-d3", CspInstance(4, 3, k3_d3))
    # 4 pigeons, 3 holes: vars are pigeons, values holes, no shared hole
    pigeon = [[(i, a), (j, a)] for i in range(1, 5) for j in range(i + 1, 5) for a in range(3)]
    add("pigeon-4-3", CspInstance(4, 3, pigeon))
    add("all-pairs-3-2", gen_uniform(3, 2, 2, 12, seed=7))
    add("triangle-3col", gen_coloring([(1, 2), (2, 3), (1, 3)], 3, 3))
    k4_edges = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    add("k4-3col", gen_coloring(k4_edges, 4, 3))
    for size in (1, 2, 3):
        add(f"latin-{size}", gen_latin(size))
    for size in (1, 2, 3, 4, 5, 6):
        add(f"queens-{size}", gen_nqueens(size))
    uniform_specs = [
        (4, 3, 2, 9, 101),
        (5, 2, 2, 8, 102),
        (6, 2, 2, 12, 103),
        (6, 2, 3, 10, 104),
        (5, 3, 2, 12, 105),
        (7, 2, 2, 18, 106),
    ]
    for idx, (n, d, k, m, seed) in enumerate(uniform_specs, start=1):
        add(f"uniform-{idx}", gen_uniform(n, d, k, m, seed=seed))
    return tuple(entries)


def estimate_iteration_success(instance: CspInstance, trials: int, seed: int) -> ExperimentResult:
    """Monte Carlo estimate of per-iteration success probability vs the bound.

    Pass requires p_hat >= bound - 3*se where se is the binomial standard
    error, so a true probability at or above the bound fails spuriously
    with probability under 0.2%.  Unsatisfiable input gets "not-applicable"
    (the bound only speaks to satisfiable instances).

    Satisfiability is read off the exact oracle, so an instance with d^n
    above the oracle's DEFAULT_CAP is refused with _LimitExceeded (a
    ValueError) before any iteration runs.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if _exceeds(instance.d, instance.n, DEFAULT_CAP):
        raise _LimitExceeded(
            f"d^n = {instance.d}^{instance.n} exceeds the oracle cap {DEFAULT_CAP}, "
            "so satisfiability cannot be checked"
        )
    satisfiable = bool(_solution_mask(instance, DEFAULT_CAP).any())
    outcomes = iteration_successes(instance, seed, trials)
    successes = sum(outcomes)
    p_hat = successes / trials
    se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    k_eff = max(instance.k_max, 1)
    bound = 0.0 if instance.d < 2 else success_lower_bound(instance.n, instance.d, k_eff)
    if not satisfiable:
        verdict = "not-applicable"
    else:
        verdict = "pass" if p_hat >= bound - 3.0 * se else "fail"
    return ExperimentResult(
        experiment="iteration-success",
        seed=seed,
        params={
            "n": instance.n,
            "d": instance.d,
            "k": k_eff,
            "trials": trials,
            "satisfiable": satisfiable,
        },
        records=outcomes,
        stats={
            "successes": successes,
            "p_hat": p_hat,
            "se": se,
            "ci99": [max(0.0, p_hat - _Z99 * se), min(1.0, p_hat + _Z99 * se)],
            "bound": bound,
            "margin": p_hat - (bound - 3.0 * se),
        },
        verdict=verdict,
    )


def node_growth_experiment(
    d: int, k: int, m_per_n: float, n_values, instances_per_n: int, seed: int
) -> ExperimentResult:
    """Fit ln(median UNSAT node count) against n and compare the slope to
    ln(char_root(d, k)) + 0.05.  Each n in n_values gets instances_per_n
    instances gen_uniform(n, d, k, round(m_per_n * n)), each on its own
    seed derived from (seed, n, index).  k < 2, with no char_root, is refused first."""
    if k < 2:
        raise ValueError(f"need k >= 2 for char_root(d, k), got {k}")
    n_values = list(n_values)
    if not n_values or instances_per_n < 1:
        raise ValueError("need at least one n value and one instance per n")
    records = []
    unsat_nodes: dict[int, list[int]] = {n: [] for n in n_values}
    for n in n_values:
        m = int(round(m_per_n * n))
        for idx in range(instances_per_n):
            inst_seed = derive_seed(derive_seed(seed, n), idx)
            instance = gen_uniform(n, d, k, m, seed=inst_seed)
            stats = solve_dpll(instance)
            records.append(
                {"n": n, "m": m, "seed": inst_seed, "status": stats.status, "nodes": stats.nodes}
            )
            if stats.status == "UNSAT":
                unsat_nodes[n].append(stats.nodes)
    medians = {n: statistics.median(v) for n, v in unsat_nodes.items() if v}
    threshold = math.log(char_root(d, k).lambda_) + 0.05
    if len(medians) < 2:
        slope = None
        verdict = "inconclusive"
    else:
        xs = np.array(sorted(medians), dtype=float)
        ys = np.log(np.array([medians[n] for n in sorted(medians)], dtype=float))
        slope = float(np.polyfit(xs, ys, 1)[0])
        verdict = "pass" if slope <= threshold else "fail"
    return ExperimentResult(
        experiment="node-growth",
        seed=seed,
        params={
            "family": "uniform",
            "d": d,
            "k": k,
            "m_per_n": m_per_n,
            "n_values": n_values,
            "instances_per_n": instances_per_n,
        },
        records=records,
        stats={
            "medians": {str(n): medians[n] for n in sorted(medians)},
            "unsat_counts": {str(n): len(unsat_nodes[n]) for n in n_values},
            "slope": slope,
            "threshold": threshold,
        },
        verdict=verdict,
    )


def _random_subset(rng: random.Random, n: int, d: int) -> list[int]:
    """A random nonempty S in [0,d)^n, kept as the point codes sum X_i d^(n-1-i)
    that `rng.sample` returns: size uniform on [1, min(d^n, 64)], points
    sampled without replacement, none decoded into a tuple."""
    universe = d**n
    size = 1 + rng.randrange(min(universe, 64))
    return rng.sample(range(universe), size)


def verify_campaign(
    kind: str, seed: int = 0, *, max_n: int = 7, subsets_per_cell: int = 1000
) -> ExperimentResult:
    """Randomized or exhaustive check of the isolation-degree inequalities.

    kind "lemma2": for subsets_per_cell random nonempty S in [0,d)^n per
    (n, d) with n, d in {2, 3, 4}, sum over X in S of d^J(X) is at least
    d^n (exact integers), the sum `verify_lemma2` checks.  Each S stays
    the point codes `_random_subset` drew, and its degrees come from
    `oracle._isolation_probe`, the probe `isolation_degrees` runs once it
    has checked and encoded its points.  kind "lemma1": for every solution
    X of each corpus() instance with n <= max_n, the order-averaged
    narrowed-variable count is at least J(X)/k_max (exact rationals, all
    n! orders).  Each kind reads only its own keyword and refuses a value
    below 1.
    """
    if kind == "lemma2":
        if subsets_per_cell < 1:
            raise ValueError(f"need at least 1 subset per (n, d) cell, got {subsets_per_cell}")
        grid = [(n, d) for n in (2, 3, 4) for d in (2, 3, 4)]
        records = []
        failures = 0
        for cell_index, (n, d) in enumerate(grid):
            rng = random.Random(derive_seed(seed, cell_index))
            # the digits of every code of the cell, variable 1 first
            digits = list(itertools.product(range(d), repeat=n))
            powers = [d ** (n - 1 - i) for i in range(n)]
            for _ in range(subsets_per_cell):
                codes = _random_subset(rng, n, d)
                degrees = _isolation_probe(codes, map(digits.__getitem__, codes), powers, d)
                lhs = sum(d**j for j in degrees)
                holds = lhs >= d**n
                failures += not holds
                records.append(
                    {"n": n, "d": d, "size": len(codes), "lhs": str(lhs), "holds": holds}
                )
        return ExperimentResult(
            experiment="verify-lemma2",
            seed=seed,
            params={"grid": [list(cell) for cell in grid], "subsets_per_cell": subsets_per_cell},
            records=records,
            stats={"checked": len(records), "failures": failures},
            verdict="pass" if failures == 0 else "fail",
        )
    if kind == "lemma1":
        if max_n < 1:
            raise ValueError(f"need a corpus cutoff n >= 1, got {max_n}")
        instances = [(name, inst) for name, inst in corpus() if inst.n <= max_n]
        records = []
        failures = 0
        for name, instance in instances:
            solutions = enumerate_solutions(instance)
            k_eff = instance.k_max
            for X in solutions.solutions:
                result = avg_narrow_count(instance, X)
                bound = Fraction(result.j, k_eff) if k_eff else Fraction(0)
                holds = result.average >= bound
                failures += not holds
                records.append(
                    {
                        "instance": name,
                        "solution": list(X),
                        "j": result.j,
                        "k": k_eff,
                        "average": str(result.average),
                        "bound": str(bound),
                        "holds": holds,
                    }
                )
        return ExperimentResult(
            experiment="verify-lemma1",
            seed=seed,
            params={"max_n": max_n, "instances": [name for name, _ in instances]},
            records=records,
            stats={"checked": len(records), "failures": failures},
            verdict="pass" if failures == 0 else "fail",
        )
    raise ValueError(f"unknown verification kind: {kind!r}")
