"""Deterministic branching solver driven by nogood selection.

At each node the solver picks the live nogood with fewest unassigned pairs
(ties: lowest index), read off `NogoodState.select` as the lowest set bit
of the first non-empty level, and walks its unassigned pairs
(u1:a1), ..., (ut:at) in canonical order: for each position i it first
branches u_i over every value other than a_i (with u_1..u_{i-1} pinned to
the nogood's own values), then pins u_i := a_i and moves to position i+1.
Once every pair is pinned the nogood is matched, so the node fails.  This
yields at most t*(d-1) child branches per node.

A child whose value `NogoodState.forbidden(u)` names would complete a live
nogood and fail at once, so it is counted as a visited node (at depth + 1)
without being assigned and unwound.  The tree and every node count are
those of the plain assign-recurse-unassign loop.  The search undoes its
assignments in the reverse order of making them, as the kernel requires.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .core import CspInstance, NogoodState, _LimitExceeded, is_satisfying


@dataclass(frozen=True)
class DpllStats:
    """Outcome of one deterministic solve; nodes counts branching-point visits."""

    status: str  # "SAT" | "UNSAT"
    assignment: tuple | None
    nodes: int
    max_depth: int


class _Search:
    def __init__(self, instance: CspInstance):
        self.instance = instance
        self.state = NogoodState(instance)
        self.pair_lists = [ng.pairs for ng in instance.nogoods]
        self.nodes = 0
        self.max_depth = 0

    def run(self, depth: int):
        self.nodes += 1
        if depth > self.max_depth:
            self.max_depth = depth
        state = self.state
        if state.matched:
            return None
        chosen = state.select()
        values = state.values
        if chosen < 0:
            # every nogood killed: any completion satisfies; take zeros
            completion = tuple(v if v is not None else 0 for v in values[1:])
            if not is_satisfying(self.instance, completion):
                raise RuntimeError(f"DPLL completion {completion} matches a nogood")
            return completion
        pairs = [(v, a) for v, a in self.pair_lists[chosen] if values[v] is None]
        d = self.instance.d
        assign, unassign = state.assign, state.unassign
        for u, a in pairs:
            blocked = state.forbidden(u)
            for value in range(d):
                if value == a:
                    continue
                if value in blocked:
                    # the child matches a nogood: count it, skip its search
                    self.nodes += 1
                    if depth >= self.max_depth:
                        self.max_depth = depth + 1
                    continue
                assign(u, value)
                result = self.run(depth + 1)
                if result is not None:
                    return result
                unassign(u)
            assign(u, a)
        for u, _ in reversed(pairs):
            unassign(u)
        return None


def solve_dpll(instance: CspInstance) -> DpllStats:
    """Complete and sound: SAT with a satisfying assignment iff one exists.

    The search recurses once per branching level, so it can go n levels
    deep.  A search that reaches the interpreter's recursion limit
    (sys.getrecursionlimit(), 1,000 frames by default, the caller's frames
    included) is refused with _LimitExceeded (a ValueError).
    """
    search = _Search(instance)
    try:
        assignment = search.run(0)
    except RecursionError:
        raise _LimitExceeded(
            f"DPLL search depth exceeds the recursion limit of {sys.getrecursionlimit()} "
            f"frames (n = {instance.n})"
        ) from None
    if assignment is None:
        return DpllStats("UNSAT", None, search.nodes, search.max_depth)
    return DpllStats("SAT", assignment, search.nodes, search.max_depth)

