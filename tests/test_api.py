"""The package's public surface, pinned: adding or removing an export shows
up as a reviewed change to this list."""

import kcsp

PUBLIC = [
    "BoundRow",
    "CspInstance",
    "DpllStats",
    "ExperimentResult",
    "GenSpec",
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
