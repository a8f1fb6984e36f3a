"""The package's public surface, pinned: adding or removing an export shows
up as a reviewed change to this list."""

import functools
import importlib
import inspect
import re
from pathlib import Path

import kcsp

from conftest import ROOT, checks, load_bench_module

PUBLIC = [
    "BoundRow",
    "CspInstance",
    "DpllStats",
    "ExperimentResult",
    "ParseError",
    "PpszStats",
    "RootResult",
    "SolutionSet",
    "__version__",
    "avg_narrow_count",
    "bound_table",
    "char_root",
    "corpus",
    "dpll_bound_base",
    "enumerate_solutions",
    "estimate_iteration_success",
    "gen_coloring",
    "gen_latin",
    "gen_model_rb",
    "gen_nqueens",
    "gen_uniform",
    "is_satisfying",
    "isolation_degrees",
    "load_instance",
    "node_growth_experiment",
    "parse_instance",
    "ppsz_bound_base",
    "repeat_count",
    "save_instance",
    "serialize_instance",
    "solve_dpll",
    "solve_ppsz",
    "success_lower_bound",
    "verify_campaign",
    "verify_lemma2",
]


def test_public_list_is_sorted_and_unique():
    assert PUBLIC == sorted(set(PUBLIC))


def test_all_is_pinned():
    assert sorted(kcsp.__all__) == PUBLIC
    assert len(kcsp.__all__) == len(set(kcsp.__all__))


def test_every_name_imports():
    namespace = {}
    exec(f"from kcsp import {', '.join(PUBLIC)}", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(kcsp, name)


def test_every_public_function_has_a_caller_outside_the_tests():
    # a public function stays only while the package, the benchmark or a demo
    # calls it: its name must appear (whole word) in some file other than
    # its own module and the package's __init__.py; only classes and
    # non-callables are exempt, and a wrapper (functools.cache) is unwrapped
    sources = [
        path for folder in ("src/kcsp", "bench", "demos") for path in (ROOT / folder).rglob("*.py")
    ]
    texts = {path.resolve(): path.read_text(encoding="utf-8") for path in sources}
    init = Path(kcsp.__file__).resolve()
    for name in PUBLIC:
        obj = inspect.unwrap(getattr(kcsp, name))
        if inspect.isclass(obj) or not callable(obj):
            continue
        own = Path(inspect.getfile(obj)).resolve()
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        callers = [path for path, text in texts.items()
                   if path not in (own, init) and pattern.search(text)]
        assert callers, f"{name} has no caller outside the tests"


def test_tracer_targets_resolve():
    # bench/tracing.py wraps these names by (module, attribute) and patches
    # CspInstance.by_var's cached_property; a rename would silently untrace them
    tracing = load_bench_module("tracing")
    for module_name, attr, _, _ in tracing.TARGETS:
        assert module_name.startswith("kcsp.")
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            module_name, attr
        )
    assert isinstance(vars(kcsp.CspInstance)["by_var"], functools.cached_property)


def test_bench_reads_canonical_pairs():
    # bench/checks.py reads every instance through plain(), which takes
    # ng.pairs of each item of instance.nogoods
    plain = checks.plain
    instance = dict(kcsp.corpus())["k3-d3"]
    assert plain(instance) == (4, 3, tuple(ng.pairs for ng in instance.nogoods))
    assert plain(instance).nogoods[1] == ((1, 1), (2, 2), (4, 0))
    unsorted = kcsp.CspInstance(3, 2, [[(3, 1), (1, 0)], [(2, 1)], [(1, 0), (3, 1)], []])
    assert plain(unsorted).nogoods == (((1, 0), (3, 1)), ((2, 1),), ())
