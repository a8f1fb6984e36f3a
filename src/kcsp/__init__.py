"""Exact finite-domain constraint solving over nogood lists.

A problem instance is n variables over the domain {0, ..., d-1} plus a
list of nogoods (forbidden partial assignments); a total assignment
satisfies the instance when it matches no nogood.  The package bundles a
deterministic branching solver, a randomized permutation solver, exact
enumeration oracles for the structural quantities both solvers rely on
(critical points, isolation degree, narrow-choice counts), growth-rate
analysis of the node-count bounds, instance generators, and a harness
for reproducible experiments.
"""

from .version import __version__
from .core import (
    CspInstance,
    ParseError,
    is_satisfying,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .generators import gen_coloring, gen_latin, gen_model_rb, gen_nqueens, gen_uniform
from .oracle import (
    SolutionSet,
    avg_narrow_count,
    enumerate_solutions,
    isolation_degrees,
    verify_lemma2,
)
from .dpll import DpllStats, solve_dpll
from .ppsz import (
    PpszStats,
    repeat_count,
    solve_ppsz,
    success_lower_bound,
)
from .analysis import (
    BoundRow,
    RootResult,
    bound_table,
    char_root,
    dpll_bound_base,
    ppsz_bound_base,
)
from .harness import (
    ExperimentResult,
    corpus,
    estimate_iteration_success,
    node_growth_experiment,
    verify_campaign,
)

__all__ = [
    "__version__",
    "CspInstance",
    "ParseError",
    "is_satisfying",
    "load_instance",
    "parse_instance",
    "save_instance",
    "serialize_instance",
    "gen_coloring",
    "gen_latin",
    "gen_model_rb",
    "gen_nqueens",
    "gen_uniform",
    "SolutionSet",
    "avg_narrow_count",
    "enumerate_solutions",
    "isolation_degrees",
    "verify_lemma2",
    "DpllStats",
    "solve_dpll",
    "PpszStats",
    "repeat_count",
    "solve_ppsz",
    "success_lower_bound",
    "BoundRow",
    "RootResult",
    "bound_table",
    "char_root",
    "dpll_bound_base",
    "ppsz_bound_base",
    "ExperimentResult",
    "corpus",
    "estimate_iteration_success",
    "node_growth_experiment",
    "verify_campaign",
]
