"""Command-line front end.

Exit codes: 0 for success (SAT, or a passing verdict), 1 for UNSAT /
FAILURE / failing verdicts, 2 for usage problems (bad or missing flags,
unreadable or malformed files), 3 for runtime limits (enumeration cap,
overflow).

JSON payloads use a fixed key order and omit absent fields; elapsed_ms
appears on stdout only, never in --out/--stats files, so rerunning a
command with the same seed reproduces those files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .analysis import bound_table, bound_variable_domain_dpll
from .core import ParseError, load_instance, serialize_instance
from .generators import GenSpec
from .harness import corpus, estimate_iteration_success, node_growth_experiment, verify_campaign
from .oracle import DEFAULT_CAP, enumerate_solutions
from .dpll import solve_dpll
from .ppsz import bound_variable_domain_ppsz, solve_ppsz
from .version import __version__


def _parse_range(text: str) -> list[int]:
    """"2..4" -> [2, 3, 4]; "3" -> [3]."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range: {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_edges(text: str) -> list[tuple[int, int]]:
    """"1-2,2-3" -> [(1, 2), (2, 3)]."""
    edges = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition("-")
        if not sep:
            raise argparse.ArgumentTypeError(f"bad edge {chunk!r}, expected u-v")
        edges.append((int(left), int(right)))
    if not edges:
        raise argparse.ArgumentTypeError("no edges given")
    return edges


def _dump_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# family -> {GenSpec parameter: the flag that supplies it}
_GEN_FLAGS = {
    "uniform": {"n": "n", "d": "d", "k": "k", "m": "m"},
    "model-rb": {"n": "n", "alpha": "alpha", "r": "r", "p": "p", "k": "k"},
    "coloring": {"edges": "edges", "num_vertices": "vertices", "d": "d"},
    "latin": {"N": "size"},
    "nqueens": {"N": "size"},
}


def _cmd_gen(args) -> int:
    flags = _GEN_FLAGS[args.family]
    missing = [flag for flag in flags.values() if getattr(args, flag) is None]
    if missing:
        print(f"error: gen {args.family} requires --{' --'.join(missing)}", file=sys.stderr)
        return 2
    params = {param: getattr(args, flag) for param, flag in flags.items()}
    try:
        instance = GenSpec(args.family, params, args.seed).build()
    except ValueError as exc:  # the generators check their own ranges: a bad flag
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_text(serialize_instance(instance), args.out)
    return 0


def _solve_payload_brute(instance):
    start = time.perf_counter()
    solutions = enumerate_solutions(instance)
    elapsed = time.perf_counter() - start
    if len(solutions) > 0:
        return "SAT", solutions.solutions[0], {}, elapsed
    return "UNSAT", None, {}, elapsed


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    payload = {"tool_version": __version__, "subcommand": "solve"}
    if args.alg == "dpll":
        stats = solve_dpll(instance)
        result, assignment, elapsed = stats.status, stats.assignment, stats.elapsed_s
        extra = {"nodes": stats.nodes}
    elif args.alg == "ppsz":
        stats = solve_ppsz(instance, max_repeats=args.max_repeats, seed=args.seed)
        payload["seed"] = args.seed
        result, assignment, elapsed = stats.status, stats.assignment, stats.elapsed_s
        extra = {
            "iterations_used": stats.iterations_used,
            "narrow_histogram": {str(key): stats.narrow_histogram[key]
                                 for key in sorted(stats.narrow_histogram)},
        }
    else:
        result, assignment, extra, elapsed = _solve_payload_brute(instance)
    payload["result"] = result
    if assignment is not None:
        payload["assignment"] = list(assignment)
    if "nodes" in extra:
        payload["nodes"] = extra["nodes"]
    if "iterations_used" in extra:
        payload["iterations_used"] = extra["iterations_used"]
        payload["narrow_histogram"] = extra["narrow_histogram"]
    if args.stats:
        _dump_json(payload, args.stats)
    payload["elapsed_ms"] = int(round(elapsed * 1000))
    _dump_json(payload, None)
    return 0 if result == "SAT" else 1


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
    if args.kind == "lemma1":
        result = verify_campaign("lemma1", seed=args.seed, max_n=args.max_n)
    else:
        result = verify_campaign("lemma2", seed=args.seed, subsets_per_cell=args.subsets)
    _dump_json(result.to_json_dict(), args.out)
    if args.out is not None:
        print(f"{result.experiment}: {result.verdict}")
    return 0 if result.verdict == "pass" else 1


def _analyze_lines(args) -> list[str]:
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
    return lines


def _cmd_analyze(args) -> int:
    try:
        lines = _analyze_lines(args)
    except ValueError as exc:  # the analysis functions check their own ranges: a bad flag
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        spec = GenSpec("uniform", {"d": args.d, "k": args.k, "m_per_n": args.m_per_n}, args.seed)
        result = node_growth_experiment(
            spec, n_values=args.n, instances_per_n=args.per_n, seed=args.seed
        )
    _dump_json(result.to_json_dict(), args.out)
    if args.out is not None:
        print(f"{result.experiment}: {result.verdict}")
    return 1 if result.verdict == "fail" else 0


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
    gen.add_argument("--alpha", type=float, default=None)
    gen.add_argument("--r", type=float, default=None)
    gen.add_argument("--p", type=float, default=None)
    gen.add_argument("--edges", type=_parse_edges, default=None, help='e.g. "1-2,2-3"')
    gen.add_argument("--vertices", type=int, default=None)
    gen.add_argument("--size", type=int, default=None, help="board/square size for latin, nqueens")
    gen.set_defaults(handler=_cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--alg", choices=["dpll", "ppsz", "brute"], required=True)
    solve.add_argument("--seed", type=int, default=0, help="ppsz only")
    solve.add_argument("--max-repeats", type=int, default=None, help="ppsz only")
    solve.add_argument("--stats", default=None, help="also write the JSON payload here")
    solve.add_argument("instance")
    solve.set_defaults(handler=_cmd_solve)

    oracle = sub.add_parser("oracle", help="enumerate solutions and isolation degrees")
    oracle.add_argument("--cap", type=int, default=DEFAULT_CAP)
    oracle.add_argument("--out", default=None)
    oracle.add_argument("instance")
    oracle.set_defaults(handler=_cmd_oracle)

    verify = sub.add_parser("verify", help="run a verification campaign")
    verify.add_argument("kind", choices=["lemma1", "lemma2"])
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None)
    verify.add_argument("--max-n", type=int, default=7, help="lemma1 corpus cutoff")
    verify.add_argument("--subsets", type=int, default=1000, help="lemma2 subsets per (n, d)")
    verify.set_defaults(handler=_cmd_verify)

    analyze = sub.add_parser("analyze", help="tabulate roots and bound bases as CSV")
    analyze.add_argument("--d", type=_parse_range, required=True, help='e.g. "2..4"')
    analyze.add_argument("--k", type=_parse_range, required=True, help='e.g. "2..3"')
    analyze.add_argument("--alpha", type=float, default=None)
    analyze.add_argument("--epsilon", type=float, default=0.01)
    analyze.add_argument("--n", type=int, default=None)
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(handler=_cmd_analyze)

    bench = sub.add_parser("bench", help="run a canned experiment")
    bench.add_argument("mode", choices=["prob", "growth"])
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None)
    bench.add_argument("--trials", type=int, default=20000, help="prob mode")
    bench.add_argument("--instance", default=None, help="prob mode: instance file")
    bench.add_argument("--n", type=_parse_range, default=list(range(8, 13)), help="growth mode")
    bench.add_argument("--per-n", type=int, default=20, help="growth mode")
    bench.add_argument("--d", type=int, default=2, help="growth mode")
    bench.add_argument("--k", type=int, default=2, help="growth mode")
    bench.add_argument("--m-per-n", type=float, default=4.0, help="growth mode")
    bench.set_defaults(handler=_cmd_bench)
    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
