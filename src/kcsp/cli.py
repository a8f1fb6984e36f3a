"""Command-line front end.

Exit codes: 0 for success (SAT, or a passing verdict), 1 for UNSAT /
FAILURE / failing verdicts, 2 for usage problems, 3 for runtime limits.
Only cli_dispatch maps an error to a code, printing one `error:` line: a
runtime limit (the enumeration cap, the nogood limit, search depth,
overflow, a failed certification: _LimitExceeded, ArithmeticError,
RecursionError) exits 3, and every other ValueError (a bad flag value, a
malformed or non-UTF-8 file) or OSError exits 2.

JSON payloads use a fixed key order and omit absent fields; elapsed_ms
appears on stdout only, never in --out/--stats files, so rerunning a
command with the same seed reproduces those files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import generators
from .analysis import bound_table, bound_variable_domain_dpll
from .core import _LimitExceeded, load_instance, serialize_instance
from .harness import corpus, estimate_iteration_success, node_growth_experiment, verify_campaign
from .oracle import DEFAULT_CAP, enumerate_solutions
from .dpll import solve_dpll
from .ppsz import bound_variable_domain_ppsz, solve_ppsz
from .version import __version__


_MAX_RANGE = 1000


def _parse_range(text: str) -> list[int]:
    """"2..4" -> [2, 3, 4]; "3" -> [3]; at most _MAX_RANGE values."""
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or lo..hi, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    if hi - lo >= _MAX_RANGE:
        raise argparse.ArgumentTypeError(f"range {text!r} has more than {_MAX_RANGE} values")
    return list(range(lo, hi + 1))


def _at_least_one(text: str) -> int:
    """An integer of 1 or more, checked at parse time so that it is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    """A float other than nan and +-inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_edges(text: str) -> list[tuple[int, int]]:
    """"1-2,2-3" -> [(1, 2), (2, 3)]."""
    edges = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, _, right = chunk.partition("-")
        try:
            edges.append((int(left), int(right)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad edge {chunk!r}, expected u-v") from None
    if not edges:
        raise argparse.ArgumentTypeError("no edges given")
    return edges


def _dump_json(payload: dict, path: str | None) -> None:
    _write_text(json.dumps(payload, indent=2) + "\n", path)


def _report(result, path: str | None) -> int:
    """Write an experiment's JSON (and its verdict line, if to a file); exit 1 on "fail"."""
    _dump_json(result.to_json_dict(), path)
    if path is not None:
        print(f"{result.experiment}: {result.verdict}")
    return 1 if result.verdict == "fail" else 0


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# family -> (generator in kcsp.generators, {its parameter: the flag that supplies it}), looked
# up by name at call time so that a wrapper on the module attribute (bench/tracing.py) sees it
_GEN_FLAGS = {
    "uniform": ("gen_uniform", {"n": "n", "d": "d", "k": "k", "m": "m", "seed": "seed"}),
    "model-rb": ("gen_model_rb", {"n": "n", "alpha": "alpha", "r": "r", "p": "p", "k": "k",
                                  "seed": "seed"}),
    "coloring": ("gen_coloring", {"edges": "edges", "num_vertices": "vertices", "d": "d"}),
    "latin": ("gen_latin", {"N": "size"}),
    "nqueens": ("gen_nqueens", {"N": "size"}),
}


def _cmd_gen(args) -> int:
    name, flags = _GEN_FLAGS[args.family]
    missing = [flag for flag in flags.values() if getattr(args, flag) is None]
    if missing:
        print(f"error: gen {args.family} requires --{' --'.join(missing)}", file=sys.stderr)
        return 2
    params = {param: getattr(args, flag) for param, flag in flags.items()}
    instance = getattr(generators, name)(**params)
    _write_text(serialize_instance(instance), args.out)
    return 0


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    start = time.perf_counter()
    if args.alg == "dpll":
        stats = solve_dpll(instance)
        fields = {"result": stats.status, "assignment": stats.assignment, "nodes": stats.nodes}
    elif args.alg == "ppsz":
        stats = solve_ppsz(instance, max_repeats=args.max_repeats, seed=args.seed)
        histogram = sorted(stats.narrow_histogram.items())
        fields = {"seed": args.seed, "result": stats.status, "assignment": stats.assignment,
                  "iterations_used": stats.iterations_used,
                  "narrow_histogram": {str(key): count for key, count in histogram}}
    else:
        solutions = enumerate_solutions(instance).solutions
        fields = {"result": "SAT" if solutions else "UNSAT",
                  "assignment": solutions[0] if solutions else None}
    elapsed = time.perf_counter() - start
    payload = {"tool_version": __version__, "subcommand": "solve"}
    payload.update((key, value) for key, value in fields.items() if value is not None)
    if args.stats:
        _dump_json(payload, args.stats)
    payload["elapsed_ms"] = int(round(elapsed * 1000))
    _dump_json(payload, None)
    return 0 if fields["result"] == "SAT" else 1


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    solutions = enumerate_solutions(instance, cap=args.cap)
    payload = {
        "tool_version": __version__,
        "subcommand": "oracle",
        "result": "SAT" if len(solutions) > 0 else "UNSAT",
        "solution_count": len(solutions),
        "solutions": [list(point) for point in solutions.solutions],
        "isolation": list(solutions.isolation),
        "critical_dims": [sorted(dims) for dims in solutions.critical_dims],
    }
    _dump_json(payload, args.out)
    return 0 if len(solutions) > 0 else 1


def _cmd_verify(args) -> int:
    result = verify_campaign(args.kind, args.seed, max_n=args.max_n, subsets_per_cell=args.subsets)
    return _report(result, args.out)


def _cmd_analyze(args) -> int:
    header = ["d", "k", "char_root", "dpll_bound_base", "ppsz_bound_base", "smaller"]
    vardom = args.alpha is not None and args.n is not None
    if vardom:
        header += ["ln_dpll_bound_vardom", "ln_ppsz_bound_vardom"]
    lines = [",".join(header)]
    for row in bound_table(args.d, args.k):
        cells = [
            str(row.d),
            str(row.k),
            format(row.char_root, ".12g"),
            format(row.dpll_base, ".12g"),
            format(row.ppsz_base, ".12g"),
            row.smaller,
        ]
        if vardom:
            cells.append(format(bound_variable_domain_dpll(args.n, args.alpha, args.epsilon), ".12g"))
            cells.append(format(bound_variable_domain_ppsz(args.n, args.alpha, row.k), ".12g"))
        lines.append(",".join(cells))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bench(args) -> int:
    if args.mode == "prob":
        if args.instance is None:
            instance = dict(corpus())["triangle-3col"]
        else:
            instance = load_instance(args.instance)
        result = estimate_iteration_success(instance, trials=args.trials, seed=args.seed)
    else:
        result = node_growth_experiment(args.d, args.k, args.m_per_n, args.n, args.per_n, args.seed)
    return _report(result, args.out)


# Built once per process.  A subcommand's `handler` default is the name of its
# _cmd_* function, looked up by cli_dispatch at call time (like _GEN_FLAGS), so a
# wrapper on the module attribute (bench/tracing.py) is what a later call runs.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcsp",
        description="Finite-domain CSP solvers over nogood lists, with exact "
        "verification oracles and growth-rate analysis.",
    )
    parser.add_argument("--version", action="version", version=f"kcsp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("family", choices=list(_GEN_FLAGS))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--d", type=int, default=None)
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--m", type=int, default=None)
    gen.add_argument("--alpha", type=_finite_float, default=None)
    gen.add_argument("--r", type=_finite_float, default=None)
    gen.add_argument("--p", type=_finite_float, default=None)
    gen.add_argument("--edges", type=_parse_edges, default=None, help='e.g. "1-2,2-3"')
    gen.add_argument("--vertices", type=int, default=None)
    gen.add_argument("--size", type=int, default=None, help="board/square size for latin, nqueens")
    gen.set_defaults(handler="_cmd_gen")

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--alg", choices=["dpll", "ppsz", "brute"], required=True)
    solve.add_argument("--seed", type=int, default=0, help="ppsz only")
    solve.add_argument("--max-repeats", type=_at_least_one, default=None, help="ppsz only")
    solve.add_argument("--stats", default=None, help="also write the JSON payload here")
    solve.add_argument("instance")
    solve.set_defaults(handler="_cmd_solve")

    oracle = sub.add_parser("oracle", help="enumerate solutions and isolation degrees")
    oracle.add_argument("--cap", type=_at_least_one, default=DEFAULT_CAP)
    oracle.add_argument("--out", default=None)
    oracle.add_argument("instance")
    oracle.set_defaults(handler="_cmd_oracle")

    verify = sub.add_parser("verify", help="run a verification campaign")
    verify.add_argument("kind", choices=["lemma1", "lemma2"])
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None)
    verify.add_argument("--max-n", type=int, default=7, help="lemma1 corpus cutoff")
    verify.add_argument("--subsets", type=int, default=1000, help="lemma2 subsets per (n, d)")
    verify.set_defaults(handler="_cmd_verify")

    analyze = sub.add_parser("analyze", help="tabulate roots and bound bases as CSV")
    analyze.add_argument("--d", type=_parse_range, required=True, help='e.g. "2..4"')
    analyze.add_argument("--k", type=_parse_range, required=True, help='e.g. "2..3"')
    analyze.add_argument("--alpha", type=_finite_float, default=None)
    analyze.add_argument("--epsilon", type=_finite_float, default=0.01)
    analyze.add_argument("--n", type=int, default=None)
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(handler="_cmd_analyze")

    bench = sub.add_parser("bench", help="run a canned experiment")
    bench.add_argument("mode", choices=["prob", "growth"])
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None)
    bench.add_argument("--trials", type=int, default=20000, help="prob mode")
    bench.add_argument("--instance", default=None, help="prob mode: instance file")
    bench.add_argument("--n", type=_parse_range, default=tuple(range(8, 13)), help="growth mode")
    bench.add_argument("--per-n", type=int, default=20, help="growth mode")
    bench.add_argument("--d", type=int, default=2, help="growth mode")
    bench.add_argument("--k", type=int, default=2, help="growth mode")
    bench.add_argument("--m-per-n", type=_finite_float, default=4.0, help="growth mode")
    bench.set_defaults(handler="_cmd_bench")
    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[args.handler](args)
    except (_LimitExceeded, ArithmeticError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
