"""The package's public surface, pinned: adding or removing an export shows
up as a reviewed change to this list."""

import functools
import importlib
import importlib.util
from pathlib import Path

import kcsp

PUBLIC = [
    "BoundRow",
    "CspInstance",
    "DpllStats",
    "ExperimentResult",
    "Nogood",
    "ParseError",
    "PointSet",
    "PpszStats",
    "RootResult",
    "SolutionSet",
    "__version__",
    "avg_narrow_count",
    "bound_table",
    "bound_variable_domain_dpll",
    "bound_variable_domain_ppsz",
    "char_root",
    "corpus",
    "critical_points",
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


def test_tracer_targets_resolve():
    # bench/tracing.py wraps these names by (module, attribute) and patches
    # CspInstance.by_var's cached_property; a rename would silently untrace them
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("kcsp_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _, _ in tracing.TARGETS:
        assert module_name.startswith("kcsp.")
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            module_name, attr
        )
    assert isinstance(vars(kcsp.CspInstance)["by_var"], functools.cached_property)
