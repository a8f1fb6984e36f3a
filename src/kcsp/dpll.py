"""Deterministic branching solver driven by nogood selection.

The search keeps the nogood state's levels (level c holds the live
nogoods with c unassigned pairs, as one bitset; see `core._step`) and
reads `CspInstance.by_var`'s tables itself, bound once per solve.  At
each node it picks the live nogood with fewest unassigned pairs (ties:
lowest index), the lowest set bit of the first non-empty level, and walks
its unassigned pairs (u1:a1), ..., (ut:at) in canonical order: for each
position i it first branches u_i over every value other than a_i (with
u_1..u_{i-1} pinned to the nogood's own values), then pins u_i := a_i and
moves to position i+1.  Once every pair is pinned the nogood is matched,
so the node fails.  This yields at most t*(d-1) child branches per node.
Every child and pin is made by `core._step`, the one move, which PPSZ's
`_iterate` makes as well.

A child whose value would complete a live nogood is blocked: it fails at
once, so it is counted as a visited node (at depth + 1) without being
assigned.  The walk reads which values those are off level 1 and u's
masks, once per pair, tests a value only when some live nogood has u as
its one unassigned variable, and hands a run of blocked children to
`solve_dpll` as one count.  The last pin, which would match the chosen
nogood, is not made, so no node the search enters is matched.  The tree
and every node count are those of the plain loop that assigns, searches
and undoes every child, blocked ones included.

The search keeps an explicit stack, one `_children` generator per open
node, and never recurses, so its depth does not depend on the caller's
stack.  Each open node keeps the levels lists it goes back to, so a path
of depth D holds about D * (k_max + 1) * m / 8 bytes of them; a search
whose path would pass _MAX_PATH_BYTES is refused with _LimitExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CspInstance, _LimitExceeded, _step, is_satisfying

# Largest undo state a search path may hold, as depth x levels x (m // 8 + 1) bytes.
_MAX_PATH_BYTES = 1 << 30


@dataclass(frozen=True)
class DpllStats:
    """Outcome of one deterministic solve; nodes counts branching-point visits."""

    status: str  # "SAT" | "UNSAT"
    assignment: tuple | None
    nodes: int
    max_depth: int


def _children(holder: list, values: list, touch: list, match: list, pairs: tuple, d: int):
    """Walk the children of one node that branches on the unassigned pairs
    of the nogood `pairs`; `touch` and `match` are `CspInstance.by_var`'s,
    `holder[0]` is the current levels list and `values` the assignment.

    Yields r >= 0 once r blocked children have passed and the next child
    is assigned, its levels in `holder[0]`, to be searched before the walk
    resumes, and -r for r blocked children at the end of the walk.  Each
    child and pin is made by `_step` from the levels list read for its
    pair, so a searched child needs no undo but its value; once exhausted,
    the walk has unassigned its pins as well.  A pair whose variable is
    assigned when the walk reaches it is skipped; every child has undone
    its own assignments by then, so that reads the node's own.
    """
    step = _step
    pinned = []
    run = 0
    for u, a in pairs:
        if values[u] is not None:
            continue
        levels = holder[0]
        touched = touch[u]
        live = levels[1] & touched
        keep = ~touched
        get = match[u].get
        for value in range(d):
            if value == a:
                continue
            mask = get(value, 0)
            if live and live & mask:
                run += 1
                continue
            holder[0] = step(levels, keep, mask)
            values[u] = value
            yield run
            run = 0
        mask = get(a, 0)
        if live & mask:
            # pinning u := a would complete a match, which only the last
            # pin does (an earlier one would need a live nogood with fewer
            # unassigned pairs than the chosen one): the walk is over
            values[u] = None
            break
        holder[0] = step(levels, keep, mask)
        values[u] = a
        pinned.append(u)
    if run:
        yield -run
    for u in pinned:
        values[u] = None


def solve_dpll(instance: CspInstance) -> DpllStats:
    """Complete and sound: SAT with a satisfying assignment iff one exists.

    A search whose path would hold more than _MAX_PATH_BYTES of levels
    lists (depth x len(levels) x (m // 8 + 1) bytes, 1 GiB) is refused with
    _LimitExceeded (a ValueError); the rule reads only the instance and the
    depth.
    """
    touch, match, levels = instance.by_var
    holder = [levels]
    values: list[int | None] = [None] * (instance.n + 1)
    pair_lists = [ng.pairs for ng in instance.nogoods]
    d = instance.d
    m = len(pair_lists)
    max_open = _MAX_PATH_BYTES // (len(levels) * (m // 8 + 1))
    stack: list = []
    nodes, max_depth = 1, 0  # the root
    if levels[0]:  # an arity-0 nogood
        return DpllStats("UNSAT", None, nodes, max_depth)
    while True:
        # the live nogood with fewest unassigned pairs (ties: lowest index);
        # level 0 stays empty once the arity-0 check has passed, because no
        # node the search enters is matched, so the scan may start there
        for level in holder[0]:
            if level:
                break
        else:
            # every nogood killed: any completion satisfies; take zeros
            completion = tuple(v if v is not None else 0 for v in values[1:])
            if not is_satisfying(instance, completion):
                raise RuntimeError(f"DPLL completion {completion} matches a nogood")
            return DpllStats("SAT", completion, nodes, max_depth)
        if len(stack) > max_open:
            raise _LimitExceeded(
                f"DPLL search depth {len(stack)} would hold more than {_MAX_PATH_BYTES} "
                f"bytes of undo levels (n = {instance.n}, m = {m})"
            )
        chosen = (level & -level).bit_length() - 1
        stack.append(_children(holder, values, touch, match, pair_lists[chosen], d))
        while stack:
            run = next(stack[-1], None)
            if run is None:
                stack.pop()
                continue
            if len(stack) > max_depth:
                max_depth = len(stack)
            if run >= 0:
                nodes += run + 1
                break
            nodes -= run
        else:
            return DpllStats("UNSAT", None, nodes, max_depth)
