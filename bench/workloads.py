"""The four benchmark workloads.

A workload turns the benchmark seed into inputs in two steps: `plan`
makes the seeded choices (untimed; it may reject candidates with the
reference search), and `build` makes the instances and files (timed as
set-up).  `operations` lists the calls of one pass; every call looks its
kcsp function up at call time, so it goes through the tracing wrappers
when they are installed.  `check` judges one operation's output with the
reference code in checks.py, as soon as the operation returns, so a pass
never holds more than one output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
from collections import Counter
from fractions import Fraction
from itertools import chain

import numpy as np

import kcsp
import kcsp.cli

import checks
from checks import plain


def _built(instance):
    instance.by_var  # first by_var access belongs to construction
    return instance


def _pigeonhole(pigeons: int, holes: int):
    nogoods = [
        ((i, a), (j, a))
        for i in range(1, pigeons + 1)
        for j in range(i + 1, pigeons + 1)
        for a in range(holes)
    ]
    return kcsp.CspInstance(pigeons, holes, nogoods)


class Workload:
    name = ""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def plan(self, seed: int):
        raise NotImplementedError

    def build(self, plan):
        raise NotImplementedError

    def operations(self, inputs) -> list:
        raise NotImplementedError

    def check(self, inputs, index: int, output) -> str | None:
        """The problem with operation `index`'s output, or None.  Operations
        are checked in order, once each, in the first pass."""
        raise NotImplementedError

    def units(self, inputs, index: int, output) -> int:
        """Work units of operation `index`, counted when its output passed."""
        return 1

    def known_faults(self, inputs) -> frozenset:
        """Operations that fail on every run because of a known program fault."""
        return frozenset()

    def close(self) -> None:
        """Remove the files the workload wrote."""
        shutil.rmtree(self.workdir, ignore_errors=True)


def _check_solution_set(inst, solution_set) -> str | None:
    """Solutions, isolation degrees and critical dimensions against brute force."""
    p = plain(inst)
    mask = checks.solution_mask(p)
    codes = np.flatnonzero(mask)
    if len(solution_set) != len(codes):
        return f"{len(solution_set)} solutions listed, brute force finds {len(codes)}"
    if len(codes) == 0:
        return None
    listed = np.ravel_multi_index(np.array(solution_set.solutions).T, (p.d,) * p.n)
    if not np.array_equal(listed, codes):
        return "listed solutions differ from the brute-force set"
    degrees = checks.isolation_from_mask(mask, p.n, p.d)
    if list(solution_set.isolation) != degrees.tolist():
        return "isolation degrees differ from the definition"
    dims = solution_set.critical_dims
    lengths = np.fromiter(map(len, dims), dtype=np.int64, count=len(dims))
    if not np.array_equal(lengths, degrees):
        return "critical_dims sizes differ from the isolation degrees"
    flat = np.fromiter(chain.from_iterable(dims), dtype=np.int64, count=int(lengths.sum()))
    rows = np.repeat(np.arange(len(dims)), lengths)
    stride = np.array([p.d ** (p.n - 1 - i) for i in range(p.n)], dtype=np.int64)
    digit = (codes[rows] // stride[flat - 1]) % p.d
    # a listed dimension must be critical: some other value there leaves the set
    leaves = np.zeros(len(rows), dtype=bool)
    for a in range(p.d):
        other = codes[rows] + (a - digit) * stride[flat - 1]
        leaves |= (digit != a) & ~mask[other]
    if not leaves.all():
        return "a listed critical dimension is not critical"
    weights = Counter(solution_set.isolation)
    if sum(count * p.d**j for j, count in weights.items()) < p.d**p.n:
        return "isolation weights violate sum d^J >= d^n"
    return None


class OracleAgree(Workload):
    """Enumeration oracle and DPLL on every instance, verdicts compared."""

    name = "oracle-agree"

    def plan(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        specs = []
        for d in (2, 3, 4):
            for n in range(4, 13):
                if d**n > 1 << 16:
                    continue
                for k in (2, 3):
                    for ratio in (2, 3, 4):
                        m = min(ratio * n, math.comb(n, k) * d**k)
                        specs.append((n, d, k, m, rng.getrandbits(32)))
        return specs

    def build(self, specs):
        instances = [kcsp.gen_uniform(*spec) for spec in specs]
        instances += [instance for _, instance in kcsp.corpus()]
        return [_built(instance) for instance in instances]

    def operations(self, instances):
        return [
            lambda inst=inst: (kcsp.enumerate_solutions(inst), kcsp.solve_dpll(inst))
            for inst in instances
        ]

    def check(self, instances, index, output):
        inst, (solution_set, stats) = instances[index], output
        problem = _check_solution_set(inst, solution_set)
        expected = "SAT" if len(solution_set) else "UNSAT"
        if problem is None and stats.status != expected:
            problem = f"dpll says {stats.status}, oracle says {expected}"
        if problem is None and expected == "SAT" and not checks.satisfies(plain(inst), stats.assignment):
            problem = "dpll assignment violates a nogood"
        return problem


# (n, d, k, m): satisfiable uniforms small enough for the exact success DP
PPSZ_SHAPES = [
    (6, 2, 2, 6), (7, 2, 2, 9), (8, 2, 2, 10), (6, 2, 3, 10), (7, 2, 3, 14),
    (4, 3, 2, 6), (5, 3, 2, 8), (5, 3, 2, 10), (5, 3, 3, 16), (4, 4, 2, 10),
]
PPSZ_TRIALS = 2000
PPSZ_SOLVES = 8


def _ppsz_bound(n: int, d: int, k: int) -> float:
    return 1.0 / ((n + 1) * (d * ((d - 1) / d) ** (1.0 / k)) ** n)


class PpszFloor(Workload):
    """Success-rate estimates at a fixed trial count, and seeded solves."""

    name = "ppsz-floor"

    def plan(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        specs = []
        for n, d, k, m in PPSZ_SHAPES:
            while True:
                inst_seed = rng.getrandbits(32)
                if checks.search(plain(kcsp.gen_uniform(n, d, k, m, inst_seed))) is not None:
                    break
            specs.append((n, d, k, m, inst_seed))
        seeds = [[rng.getrandbits(32) for _ in range(PPSZ_SOLVES + 1)] for _ in range(len(specs) + 2)]
        return specs, seeds

    def build(self, plan):
        specs, seeds = plan
        named = dict(kcsp.corpus())
        instances = [named["triangle-3col"], named["pair-forcing"]]
        instances += [kcsp.gen_uniform(*spec) for spec in specs]
        return [_built(instance) for instance in instances], seeds

    def operations(self, inputs):
        instances, seeds = inputs
        ops = []
        for inst, (estimate_seed, *solve_seeds) in zip(instances, seeds):
            ops.append(
                lambda inst=inst, s=estimate_seed: kcsp.estimate_iteration_success(
                    inst, trials=PPSZ_TRIALS, seed=s
                )
            )
            ops += [lambda inst=inst, s=s: kcsp.solve_ppsz(inst, seed=s) for s in solve_seeds]
        return ops

    def check(self, inputs, index, out):
        instance_index, op = divmod(index, PPSZ_SOLVES + 1)
        p = plain(inputs[0][instance_index])
        if op:
            if out.status != "SAT" or not checks.satisfies(p, out.assignment):
                return f"solve returned {out.status} without a valid assignment"
            if not 1 <= out.iterations_used <= out.max_repeats:
                return "iterations_used outside 1..max_repeats"
            return None
        exact = checks.exact_iteration_success(p)
        # the two corpus instances have closed-form success probabilities
        closed_form = {0: Fraction(1), 1: Fraction(3, 4)}.get(instance_index, exact)
        stats = out.stats
        trials = out.params["trials"]
        p_hat = stats["p_hat"]
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        floor = _ppsz_bound(p.n, p.d, max(checks.k_max(p), 1)) - 3 * se
        if exact != closed_form:
            return "reference success probability wrong for triangle-3col / pair-forcing"
        if stats["successes"] != sum(out.records) or p_hat != stats["successes"] / trials:
            return "p_hat disagrees with the trial records"
        if out.verdict != "pass" or p_hat < floor:
            return f"p_hat {p_hat} below the floor {floor}"
        if not checks.probability_close(p_hat, exact, trials):
            return f"p_hat {p_hat} far from the exact {float(exact):.6f}"
        return None

    def units(self, inputs, index, out):
        return out.iterations_used if index % (PPSZ_SOLVES + 1) else out.params["trials"]


class DpllRefute(Workload):
    """DPLL on near-threshold random instances, pigeonhole and n-queens."""

    name = "dpll-refute"

    def plan(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        specs = []
        for n in (12, 14, 16, 18, 20, 22):
            specs += [(n, 3, 2, round(8.5 * n), rng.getrandbits(32)) for _ in range(12)]
        for n in (20, 25, 30, 35, 40, 45):
            specs += [(n, 2, 3, round(5.2 * n), rng.getrandbits(32)) for _ in range(12)]
        return specs

    def build(self, specs):
        instances = [kcsp.gen_uniform(*spec) for spec in specs]
        instances += [_pigeonhole(p, p - 1) for p in range(4, 9)]
        instances += [kcsp.gen_nqueens(size) for size in range(4, 13)]
        return [_built(instance) for instance in instances]

    def operations(self, instances):
        return [lambda inst=inst: kcsp.solve_dpll(inst) for inst in instances]

    def check(self, instances, index, stats):
        p = plain(instances[index])
        ceiling = checks.node_ceiling(p.n, p.d, checks.k_max(p))
        if stats.nodes > ceiling:
            return f"{stats.nodes} nodes above the ceiling T(n) = {ceiling}"
        if stats.status == "SAT":
            return None if checks.satisfies(p, stats.assignment) else "SAT assignment violates a nogood"
        if checks.pigeonhole_unsat(p) or checks.search(p) is None:
            return None
        return "UNSAT verdict, but the reference search finds a solution"


def _run_cli(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = kcsp.cli.cli_dispatch(argv)
    with open(argv[-1], "rb") as handle:
        return code, handle.read()


GOLDEN = (1 + math.sqrt(5)) / 2
TRIBONACCI = 1.839286755214161


class CliVerify(Workload):
    """The documented commands, each run twice, plus isolation on large n."""

    name = "cli-verify"
    # isolation_degrees packs points into int64 codes, which wrap once
    # d^n >= 2^63: (n=40, d=3) comes out wrong and (n=64, d=2) overflows.
    KNOWN_FAULT_SETS = [(40, 3), (64, 2)]

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self._first_run = None  # (output, problem) of the last first run of a command

    def plan(self, seed):
        rng = random.Random(f"{self.name}:{seed}")

        def pick(n, d, k, m, want_sat):
            while True:
                s = rng.getrandbits(32)
                if (checks.search(plain(kcsp.gen_uniform(n, d, k, m, s))) is not None) == want_sat:
                    return (n, d, k, m, s)

        def edges(vertices, count):
            pairs = [(u, v) for u in range(1, vertices + 1) for v in range(u + 1, vertices + 1)]
            return sorted(rng.sample(pairs, count))

        # point clusters just below the int64 limit: d^n < 2^63 for each (n, d)
        isolation_sets = []
        for n, d in ((62, 2), (39, 3), (31, 4), (27, 5), (24, 6), (22, 7), (20, 8), (19, 9), (18, 10), (16, 12)):
            for centers, changes in ((2, 1), (4, 2)):
                middles = [[rng.randrange(d) for _ in range(n)] for _ in range(centers)]
                points = set()
                for _ in range(100):
                    point = list(rng.choice(middles))
                    for i in rng.sample(range(n), rng.randint(0, changes)):
                        point[i] = rng.randrange(d)
                    points.add(tuple(point))
                isolation_sets.append((sorted(points), n, d))
        for n, d in self.KNOWN_FAULT_SETS:
            isolation_sets.append(([(d - 1,) * (n - 1) + (a,) for a in range(d)], n, d))
        return {
            "seed": rng.getrandbits(31),
            "uniform": pick(9, 3, 2, 18, True),
            "unsat": pick(8, 2, 2, 32, False),
            "small": pick(6, 2, 3, 10, True),
            "coloring": edges(10, 15),
            "gen_edges": edges(12, 20),
            "isolation": isolation_sets,
        }

    def build(self, plan):
        files = {
            "uniform": kcsp.gen_uniform(*plan["uniform"]),
            "unsat": kcsp.gen_uniform(*plan["unsat"]),
            "small": kcsp.gen_uniform(*plan["small"]),
            "coloring": kcsp.gen_coloring(plan["coloring"], 10, 3),
            "php": _pigeonhole(6, 5),
            "queens": kcsp.gen_nqueens(10),
        }
        for run in ("a", "b"):
            os.makedirs(os.path.join(self.workdir, run), exist_ok=True)
        paths = {}
        for key, instance in files.items():
            paths[key] = os.path.join(self.workdir, f"{key}.csp")
            kcsp.save_instance(instance, paths[key])
        return {"plan": plan, "paths": paths, "commands": self._commands(plan, paths)}

    def _commands(self, plan, paths):
        s = str(plan["seed"])
        edges = ",".join(f"{u}-{v}" for u, v in plan["gen_edges"])
        return [
            ("gen-uniform", ["gen", "uniform", "--n", "14", "--d", "3", "--k", "2", "--m", "60",
                             "--seed", s, "--out"]),
            ("gen-coloring", ["gen", "coloring", "--edges", edges, "--vertices", "12", "--d", "3",
                              "--out"]),
            ("gen-latin", ["gen", "latin", "--size", "7", "--out"]),
            ("gen-nqueens", ["gen", "nqueens", "--size", "20", "--out"]),
            ("gen-model-rb", ["gen", "model-rb", "--n", "12", "--alpha", "0.8", "--r", "3.0",
                              "--p", "0.2", "--k", "2", "--seed", s, "--out"]),
            ("solve-dpll-uniform", ["solve", "--alg", "dpll", paths["uniform"], "--stats"]),
            ("solve-dpll-php", ["solve", "--alg", "dpll", paths["php"], "--stats"]),
            ("solve-dpll-queens", ["solve", "--alg", "dpll", paths["queens"], "--stats"]),
            ("solve-ppsz-uniform", ["solve", "--alg", "ppsz", "--seed", s, paths["uniform"],
                                    "--stats"]),
            ("solve-brute-unsat", ["solve", "--alg", "brute", paths["unsat"], "--stats"]),
            ("solve-dpll-unsat", ["solve", "--alg", "dpll", paths["unsat"], "--stats"]),
            ("solve-dpll-small", ["solve", "--alg", "dpll", paths["small"], "--stats"]),
            ("solve-ppsz-small", ["solve", "--alg", "ppsz", "--seed", s, paths["small"], "--stats"]),
            ("solve-brute-small", ["solve", "--alg", "brute", paths["small"], "--stats"]),
            ("oracle-uniform", ["oracle", paths["uniform"], "--out"]),
            ("oracle-coloring", ["oracle", paths["coloring"], "--out"]),
            ("oracle-small", ["oracle", paths["small"], "--out"]),
            ("oracle-unsat", ["oracle", paths["unsat"], "--out"]),
            ("verify-lemma1", ["verify", "lemma1", "--max-n", "4", "--out"]),
            ("verify-lemma2", ["verify", "lemma2", "--subsets", "20", "--seed", s, "--out"]),
            ("analyze", ["analyze", "--d", "2..10", "--k", "2..10", "--out"]),
            ("bench-prob-triangle", ["bench", "prob", "--trials", "2000", "--seed", s, "--out"]),
            ("bench-prob-small", ["bench", "prob", "--trials", "2000", "--seed", s,
                                  "--instance", paths["small"], "--out"]),
            ("bench-growth", ["bench", "growth", "--n", "8..10", "--per-n", "4", "--seed", s,
                              "--out"]),
        ]

    def operations(self, inputs):
        """Two runs of each command (operations 2c and 2c+1), then the isolation sets."""
        ops = []
        for name, argv in inputs["commands"]:
            for run in ("a", "b"):
                out = os.path.join(self.workdir, run, name)
                ops.append(lambda argv=argv + [out]: _run_cli(argv))
        for points, n, d in inputs["plan"]["isolation"]:
            ops.append(lambda points=points, n=n, d=d: kcsp.isolation_degrees(points, n, d))
        return ops

    def known_faults(self, inputs):
        end = 2 * len(inputs["commands"]) + len(inputs["plan"]["isolation"])
        return frozenset(range(end - len(self.KNOWN_FAULT_SETS), end))

    def check(self, inputs, index, out):
        commands = inputs["commands"]
        if index >= 2 * len(commands):
            points, n, d = inputs["plan"]["isolation"][index - 2 * len(commands)]
            if out != checks.isolation_by_definition(points, n, d):
                return f"isolation_degrees on n={n}, d={d}: {str(out)[:60]}"
            return None
        name = commands[index // 2][0]
        if index % 2:  # the rerun must repeat the first run byte for byte
            first, problem = self._first_run
            return problem if out == first else f"{name}: reruns differ in exit code or output bytes"
        code, data = out
        if b"elapsed_ms" in data:
            problem = "output file carries timing"
        else:
            problem = self._check_command(name, code, data, inputs)
        problem = problem and f"{name}: {problem}"
        self._first_run = (out, problem)
        return problem

    def units(self, inputs, index, out):
        return int(index < 2 * len(inputs["commands"]))

    def _check_command(self, name, code, data, inputs):
        plan, paths = inputs["plan"], inputs["paths"]

        def read(key):
            with open(paths[key], encoding="utf-8") as handle:
                return checks.read_instance_text(handle.read())

        if name.startswith("gen-"):
            if code != 0:
                return f"exit {code}"
            return _check_generated(name, checks.read_instance_text(data.decode()), plan)
        if name == "analyze":
            return _check_table(data.decode()) if code == 0 else f"exit {code}"
        payload = json.loads(data)
        if name.startswith("solve-"):
            inst = read(name.rsplit("-", 1)[1])
            sat = payload["result"] == "SAT"
            if code != (0 if sat else 1):
                return f"exit {code} for {payload['result']}"
            if sat and not checks.satisfies(inst, tuple(payload["assignment"])):
                return "assignment violates a nogood"
            if "nodes" in payload and payload["nodes"] > checks.node_ceiling(inst.n, inst.d, checks.k_max(inst)):
                return "node count above the ceiling T(n)"
            if not sat:
                refuted = checks.pigeonhole_unsat(inst) if name.endswith("-php") else not checks.solution_mask(inst).any()
                return None if refuted else f"{payload['result']} reported, but the instance has a solution"
            if name.startswith("solve-ppsz") and (
                payload["seed"] != plan["seed"]
                or sum(payload["narrow_histogram"].values()) != payload["iterations_used"]
            ):
                return "ppsz payload inconsistent"
            return None
        if name.startswith("oracle-"):
            return _check_oracle_payload(read(name.split("-", 1)[1]), payload, code)
        if name == "verify-lemma1":
            return _check_lemma1(payload, code)
        if name == "verify-lemma2":
            return _check_lemma2(payload, code)
        if name.startswith("bench-prob"):
            inst = read("small") if name.endswith("small") else plain(dict(kcsp.corpus())["triangle-3col"])
            return _check_prob(inst, payload, code)
        if name == "bench-growth":
            return _check_growth(payload, code)
        return "no check for this command"


def _check_generated(name, inst, plan):
    n, d, nogoods = inst
    if name == "gen-uniform":
        ok = (n, d, len(nogoods)) == (14, 3, 60) and len(set(nogoods)) == 60
        ok = ok and all(len(pairs) == 2 and pairs[0][0] < pairs[1][0] for pairs in nogoods)
    elif name == "gen-coloring":
        expected = {((u, c), (v, c)) for u, v in plan["gen_edges"] for c in range(3)}
        ok = (n, d) == (12, 3) and len(nogoods) == len(expected) and set(nogoods) == expected
    elif name == "gen-latin":
        size = 7
        cell = lambda i, j: (i - 1) * size + j
        lines = [[cell(i, j) for j in range(1, size + 1)] for i in range(1, size + 1)]
        lines += [[cell(i, j) for i in range(1, size + 1)] for j in range(1, size + 1)]
        expected = {
            ((u, c), (v, c)) for line in lines for u in line for v in line if u < v for c in range(size)
        }
        ok = (n, d) == (size * size, size) and len(nogoods) == len(expected) and set(nogoods) == expected
    elif name == "gen-nqueens":
        size = 20
        expected = {
            ((i, a), (j, b))
            for i in range(1, size + 1)
            for j in range(i + 1, size + 1)
            for a in range(size)
            for b in range(size)
            if a == b or abs(a - b) == j - i
        }
        ok = (n, d) == (size, size) and len(nogoods) == len(expected) and set(nogoods) == expected
    else:  # model-rb: d = round(12^0.8), 89 constraints of round(0.2 * d^2) nogoods each
        ok = (n, d) == (12, 7) and 0 < len(nogoods) <= 89 * 10 and len(set(nogoods)) == len(nogoods)
        ok = ok and all(len(pairs) == 2 and pairs[0][0] < pairs[1][0] for pairs in nogoods)
    return None if ok else "generated instance differs from the definition"


def _check_oracle_payload(inst, payload, code):
    mask = checks.solution_mask(inst)
    points = checks.points_of(mask, inst.n, inst.d)
    if code != (0 if points else 1) or payload["result"] != ("SAT" if points else "UNSAT"):
        return f"exit {code} for {len(points)} solutions"
    if payload["solution_count"] != len(points) or [tuple(p) for p in payload["solutions"]] != points:
        return "solutions differ from brute force"
    degrees = checks.isolation_from_mask(mask, inst.n, inst.d).tolist() if points else []
    if payload["isolation"] != degrees or [len(c) for c in payload["critical_dims"]] != degrees:
        return "isolation differs from the definition"
    return None


def _check_lemma1(payload, code):
    named = dict(kcsp.corpus())
    records = payload["records"]
    expected_rows = 0
    for name in payload["params"]["instances"]:
        inst = plain(named[name])
        mask = checks.solution_mask(inst)
        points = checks.points_of(mask, inst.n, inst.d)
        expected_rows += len(points)
        degrees = dict(zip(points, checks.isolation_from_mask(mask, inst.n, inst.d).tolist()))
        for record in (r for r in records if r["instance"] == name):
            X = tuple(record["solution"])
            k = checks.k_max(inst)
            average = checks.narrow_average(inst, X)
            bound = Fraction(degrees[X], k) if k else Fraction(0)
            if (record["j"], Fraction(record["average"])) != (degrees[X], average):
                return f"{name} {X}: record disagrees with the recomputed j / average"
            if not (record["holds"] and average >= bound):
                return f"{name} {X}: average below j/k"
    if len(records) != expected_rows or payload["verdict"] != "pass" or code != 0:
        return f"{len(records)} records for {expected_rows} solutions, verdict {payload['verdict']}"
    return None


def _check_lemma2(payload, code):
    records = payload["records"]
    ok = payload["stats"] == {"checked": len(records), "failures": 0} and len(records) == 9 * 20
    ok = ok and all(
        r["holds"] and r["d"] ** r["n"] <= int(r["lhs"]) <= r["size"] * r["d"] ** r["n"] for r in records
    )
    return None if ok and payload["verdict"] == "pass" and code == 0 else "lemma 2 records fail"


def _check_table(text):
    lines = text.splitlines()
    if lines[0] != "d,k,char_root,dpll_bound_base,ppsz_bound_base,smaller" or len(lines) != 82:
        return "unexpected table shape"
    for line in lines[1:]:
        d, k, root, dpll, ppsz, smaller = line.split(",")
        d, k, root, dpll, ppsz = int(d), int(k), float(root), float(dpll), float(ppsz)
        if not checks.root_row_ok(d, k, root):
            return f"root for d={d}, k={k} outside its sandwich"
        if not (math.isclose(dpll, d - (d - 1) / d**k, rel_tol=1e-11)
                and math.isclose(ppsz, d * ((d - 1) / d) ** (1 / k), rel_tol=1e-11)):
            return f"bound bases wrong for d={d}, k={k}"
        if smaller != ("ppsz" if ppsz <= dpll else "dpll"):
            return f"winner wrong for d={d}, k={k}"
        anchor = {(2, 2): GOLDEN, (2, 3): TRIBONACCI}.get((d, k))
        if anchor is not None and abs(root - anchor) > 1e-9:
            return f"root for d={d}, k={k} misses its closed form"
    return None


def _check_prob(inst, payload, code):
    stats = payload["stats"]
    trials = payload["params"]["trials"]
    p_hat = stats["p_hat"]
    se = math.sqrt(p_hat * (1 - p_hat) / trials)
    floor = _ppsz_bound(inst.n, inst.d, max(checks.k_max(inst), 1)) - 3 * se
    exact = checks.exact_iteration_success(inst)
    if payload["verdict"] != "pass" or code != 0 or p_hat < floor:
        return f"verdict {payload['verdict']}, exit {code}, p_hat {p_hat} vs floor {floor}"
    if not checks.probability_close(p_hat, exact, trials):
        return f"p_hat {p_hat} far from the exact {float(exact):.6f}"
    return None


def _check_growth(payload, code):
    records = payload["records"]
    unsat = {}
    for r in records:
        inst = plain(kcsp.gen_uniform(r["n"], 2, 2, r["m"], r["seed"]))
        status = "SAT" if checks.solution_mask(inst).any() else "UNSAT"
        if r["status"] != status or r["nodes"] > checks.node_ceiling(r["n"], 2, 2):
            return f"growth record n={r['n']} seed={r['seed']} wrong"
        if status == "UNSAT":
            unsat.setdefault(r["n"], []).append(r["nodes"])
    if len(records) != 3 * 4:
        return "wrong record count"
    threshold = math.log(GOLDEN) + 0.05
    if len(unsat) < 2:
        verdict, slope = "inconclusive", None
    else:
        xs = sorted(unsat)
        slope = checks.least_squares_slope(xs, [math.log(statistics.median(unsat[n])) for n in xs])
        verdict = "pass" if slope <= threshold else "fail"
        if abs(payload["stats"]["slope"] - slope) > 1e-9:
            return f"slope {payload['stats']['slope']} differs from the recomputed {slope}"
    if payload["verdict"] != verdict or code != (1 if verdict == "fail" else 0):
        return f"verdict {payload['verdict']} / exit {code}, expected {verdict}"
    if abs(payload["stats"]["threshold"] - threshold) > 1e-12:
        return "threshold differs from ln(golden ratio) + 0.05"
    return None


WORKLOADS = {w.name: w for w in (OracleAgree, PpszFloor, DpllRefute, CliVerify)}
