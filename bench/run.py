"""kcsp benchmark: seeded workloads through the public API, checked against
reference code, with end-to-end metrics or (with --trace 1) per-layer ones.

    python3 bench/run.py --workload oracle-agree --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

A run builds its inputs several times, then repeats whole passes over the
workload's operations, building the inputs again between passes, until
builds and passes add up to --seconds (to the nearest whole pass).  Set-up
time is the median build; a pass's time is the mean over the passes.  The
first pass is checked in full; later passes must reproduce its outputs
exactly.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs each
workload in its own process and prints a table.

Run from the repository root; the program is imported from ./src.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, is_dataclass, replace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.5
# between two passes the inputs are built afresh, for this share of the
# last pass's time, so set-up is sampled over the whole run like the passes
SETUP_SHARE = 0.15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "generators.gen_ms": "ms",
    "core.build_ms": "ms",
    "core.parse_ms": "ms",
    "core.serialize_ms": "ms",
    "core.nogoods": "count",
    "oracle.enumerate_ms": "ms",
    "oracle.points": "count",
    "oracle.points_per_s": "1/s",
    "oracle.solutions": "count",
    "oracle.isolation_ms": "ms",
    "oracle.narrow_avg_ms": "ms",
    "oracle.orders": "count",
    "dpll.solve_ms": "ms",
    "dpll.nodes": "count",
    "dpll.nodes_per_s": "1/s",
    "ppsz.iterations": "count",
    "ppsz.iter_us": "us",
    "ppsz.success_ratio": "ratio",
    "ppsz.solve_ms": "ms",
    "harness.estimate_ms": "ms",
    "harness.campaign_ms": "ms",
    "analysis.char_root_ms": "ms",
    "cli.dispatch_ms": "ms",
    "cli.gen_ms": "ms",
    "cli.solve_ms": "ms",
    "cli.oracle_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.analyze_ms": "ms",
    "cli.bench_ms": "ms",
    "trace.overhead_s": "s",
}


def import_program():
    """Import kcsp from ./src of this checkout, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    try:
        import kcsp
    except ImportError as exc:
        sys.exit(f"bench: cannot import kcsp from {src}: {exc}")
    if not os.path.abspath(kcsp.__file__).startswith(src + os.sep):
        sys.exit(f"bench: kcsp imported from {kcsp.__file__}, not from {src}")


def tail_percentile(ops_per_pass: int) -> int:
    """Highest of p99/p95/p90/p75 that leaves at least ten operations of one
    pass beyond it."""
    for p in (99, 95, 90, 75):
        if ops_per_pass * (100 - p) >= 1000:
            return p
    return 50


def _stable(value):
    if isinstance(value, tuple):
        return tuple(_stable(v) for v in value)
    if is_dataclass(value) and hasattr(value, "elapsed_s"):
        return replace(value, elapsed_s=0.0)
    return value


def fingerprint(value):
    """Cheap identity of an output within one process: its hash, or a digest
    of its repr when it holds unhashable parts."""
    value = _stable(value)
    try:
        return hash(value)
    except TypeError:
        return hashlib.sha256(repr(value).encode()).hexdigest()


@dataclass(frozen=True)
class Raised:
    """The output of an operation that raised."""

    text: str


class Passes:
    """Repeated whole passes over one workload's operations, with checks."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.ops = workload.operations(inputs)
        self.known = workload.known_faults(inputs)
        self.walls = []
        self.latencies = []
        self.failed = 0
        self.unexpected = {}
        self.prints = None
        self.problems = {}
        self.units = 0

    def run(self, seconds: float, tracer=None, between=None) -> None:
        """Whole passes until another would end nearer past `seconds` than short of it.
        `between(wall)` runs after each pass but the last, given that pass's
        time, and returns the seconds it took, which count against `seconds`.

        A pass's time is the sum of its operations' times.  Between two
        operations, untimed and untraced, the output just returned is
        fingerprinted (and, in the first pass, checked) and then dropped,
        so the process never holds more than one output."""
        budget = seconds
        while not self.walls or budget > statistics.median(self.walls) / 2:
            if self.walls and between is not None:
                budget -= between(self.walls[-1])
            first = self.prints is None
            prints, lat = [], []
            gc.collect()
            for index, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.bucket = "pass"
                t0 = time.perf_counter()
                try:
                    out = op()
                except Exception as exc:  # a failing operation is counted, not fatal
                    out = Raised(f"{type(exc).__name__}: {exc}")
                lat.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.bucket = None
                prints.append(fingerprint(out))
                if first:
                    self._check(index, out)
                del out
            if tracer is not None:
                tracer.rounds["pass"] += 1
            self.walls.append(sum(lat))
            self.latencies += lat
            budget -= self.walls[-1]
            self._judge(prints)

    def _check(self, index, out) -> None:
        if isinstance(out, Raised):
            problem = out.text
        else:
            try:
                problem = self.workload.check(self.inputs, index, out)
                if problem is None:
                    self.units += self.workload.units(self.inputs, index, out)
            except Exception as exc:  # an output the check cannot read is a failure too
                problem = f"check failed: {type(exc).__name__}: {exc}"
        if problem:
            self.problems[index] = problem

    def _judge(self, prints) -> None:
        if self.prints is None:
            self.prints = prints
        problems = dict(self.problems)
        for i, (a, b) in enumerate(zip(self.prints, prints)):
            if a != b:
                problems[i] = "output differs from the first pass"
        self.failed += len(problems)
        for i, problem in problems.items():
            if i not in self.known:
                self.unexpected.setdefault(i, problem)

    @property
    def attempted(self) -> int:
        return len(self.ops) * len(self.walls)


def end_to_end(setup_times, passes: Passes) -> dict:
    # the mean, not the median: a run that the host slowed for part of its
    # passes reads in between, rather than wholly fast or wholly slow
    wall = statistics.fmean(passes.walls)
    lat = sorted(passes.latencies)
    p = tail_percentile(len(passes.ops))
    tail = statistics.quantiles(lat, n=100, method="inclusive")[p - 1]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "items_per_s": passes.units / wall,
        "call_p50_ms": statistics.median(lat) * 1e3,
        "call_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(tracer, untraced: Passes, traced: Passes) -> dict:
    s = lambda layer: tracer.per_round(tracer.self_s, layer)
    total = lambda layer: tracer.per_round(tracer.total_s, layer)
    count = lambda name: tracer.per_round(tracer.counts, name)
    ratio = lambda a, b: a / b if b else 0.0
    iterations = count("ppsz.iterations")
    iteration_s = s("harness.estimate") + s("ppsz.solve")
    values = {
        "generators.gen_ms": s("generators.gen") * 1e3,
        "core.build_ms": s("core.build") * 1e3,
        "core.parse_ms": s("core.parse") * 1e3,
        "core.serialize_ms": s("core.serialize") * 1e3,
        "core.nogoods": count("core.nogoods"),
        "oracle.enumerate_ms": s("oracle.enumerate") * 1e3,
        "oracle.points": count("oracle.points"),
        "oracle.points_per_s": ratio(count("oracle.points"), s("oracle.enumerate")),
        "oracle.solutions": count("oracle.solutions"),
        "oracle.isolation_ms": s("oracle.isolation") * 1e3,
        "oracle.narrow_avg_ms": s("oracle.narrow_avg") * 1e3,
        "oracle.orders": count("oracle.orders"),
        "dpll.solve_ms": s("dpll.solve") * 1e3,
        "dpll.nodes": count("dpll.nodes"),
        "dpll.nodes_per_s": ratio(count("dpll.nodes"), s("dpll.solve")),
        "ppsz.iterations": iterations,
        "ppsz.iter_us": ratio(iteration_s, iterations) * 1e6,
        "ppsz.success_ratio": ratio(count("ppsz.successes"), iterations),
        "ppsz.solve_ms": s("ppsz.solve") * 1e3,
        "harness.estimate_ms": s("harness.estimate") * 1e3,
        "harness.campaign_ms": s("harness.campaign") * 1e3,
        "analysis.char_root_ms": s("analysis.char_root") * 1e3,
        "cli.dispatch_ms": s("cli.dispatch") * 1e3,
        "cli.gen_ms": total("cli.gen") * 1e3,
        "cli.solve_ms": total("cli.solve") * 1e3,
        "cli.oracle_ms": total("cli.oracle") * 1e3,
        "cli.verify_ms": total("cli.verify") * 1e3,
        "cli.analyze_ms": total("cli.analyze") * 1e3,
        "cli.bench_ms": total("cli.bench") * 1e3,
        "trace.overhead_s": statistics.fmean(traced.walls) - statistics.fmean(untraced.walls),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def timed_setups(workload, plan, seconds, repeats, tracer=None):
    """Build the inputs at least `repeats` times and for at least `seconds`,
    counting the collection before each build."""
    times, inputs = [], None
    began = time.perf_counter()
    while len(times) < repeats or time.perf_counter() - began < seconds:
        inputs = None  # at most one copy of the inputs lives at a time
        gc.collect()
        if tracer is not None:
            tracer.bucket = "setup"
        start = time.perf_counter()
        inputs = workload.build(plan)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.bucket = None
            tracer.rounds["setup"] += 1
    return times, inputs


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name](os.path.join(OUT_DIR, f"work-{os.getpid()}"))
    plan = workload.plan(seed)
    try:
        if not trace:
            setup_times, inputs = timed_setups(workload, plan, SETUP_MIN_SECONDS, SETUP_MIN_REPEATS)
            passes = Passes(workload, inputs)
            del inputs

            def rebuild(wall):
                began = time.perf_counter()
                passes.inputs = passes.ops = None
                times, passes.inputs = timed_setups(workload, plan, SETUP_SHARE * wall, 1)
                passes.ops = workload.operations(passes.inputs)
                setup_times.extend(times)
                return time.perf_counter() - began

            passes.run(seconds - sum(setup_times), between=rebuild)
            metrics = end_to_end(setup_times, passes)
            runs = [passes]
        else:
            inputs = workload.build(plan)
            untraced = Passes(workload, inputs)
            untraced.run(seconds / 2)
            tracer = Tracer()
            tracer.install()
            _, inputs = timed_setups(workload, plan, SETUP_MIN_SECONDS, SETUP_MIN_REPEATS, tracer)
            traced = Passes(workload, inputs)
            traced.run(seconds / 2, tracer)
            metrics = per_layer(tracer, untraced, traced)
            runs = [untraced, traced]
            _write_trace(name, seed, tracer, metrics)
    finally:
        workload.close()
    for passes in runs:
        for index, problem in sorted(passes.unexpected.items()):
            print(f"bench: {name} operation {index}: {problem}", file=sys.stderr)
    return {
        "correct": not any(passes.unexpected for passes in runs),
        "attempted": sum(passes.attempted for passes in runs),
        "failed": sum(passes.failed for passes in runs),
        "metrics": metrics,
    }


def _write_trace(name, seed, tracer, metrics) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "rounds": tracer.rounds,
                "metrics": metrics,
                "span_fields": ["id", "parent", "layer", "bucket", "start_s", "end_s"],
                "spans": tracer.spans,
            },
            handle,
        )


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process; a table of every metric."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:24s} {entry['value']:>16.6g} {entry['unit']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"results-seed{seed}-trace{trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    import workloads

    if args.workload not in (*workloads.WORKLOADS, "all"):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds), args.trace)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
