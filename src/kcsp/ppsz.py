"""Randomized solver: permute the variables, then assign each a uniform
value from its narrowed domain (full domain unless some nogood pins it).

An iteration aborts when a variable's narrowed domain comes up empty;
a completed iteration can never match a nogood, because the last pair of
any would-be match is always forbidden at assignment time.  Success is
therefore a race against aborts, and the repeat count from the success
probability bound makes overall failure unlikely on satisfiable input.

Iteration i reads 2n counter-based splitmix64 words from
`derive_seed(seed, i)`, so its outcome depends on (seed, i) alone.
`iteration_successes` runs many iterations as one numpy block;
`solve_ppsz` runs them one at a time in plain Python, since it usually
stops after one to three, and reads the same words, so its iteration i
is the block's row i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import ppsz_bound_base
from .core import CspInstance, NogoodState, is_satisfying

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Rows per block of `iteration_successes`, fewer when a block's status
# array (m+1 per row) or stream words (2n per row) would pass _BLOCK_CELLS
# entries; outcomes do not depend on either.
_BLOCK_ROWS = 1024
_BLOCK_CELLS = 1 << 18


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """`_splitmix64` of each entry of a uint64 array (array arithmetic wraps
    mod 2^64, as the masks do above)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def derive_seed(master: int, index: int) -> int:
    """Stable 64-bit per-iteration seed; changing either input scrambles it."""
    return _splitmix64(_splitmix64(master & _MASK64) ^ _splitmix64(index & _MASK64))


def _stream_words(seed: int, first: int, rows: int, count: int) -> np.ndarray:
    """(rows, count) uint64: row r holds words 0..count-1 of the splitmix64
    stream seeded by s = derive_seed(seed, first + r), word t being
    _splitmix64(s + t * golden)."""
    index = np.arange(first, first + rows, dtype=np.uint64)
    starts = _splitmix64_array(np.uint64(_splitmix64(seed & _MASK64)) ^ _splitmix64_array(index))
    steps = np.arange(count, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _splitmix64_array(starts[:, None] + steps)


@dataclass(frozen=True)
class PpszStats:
    """Outcome of one randomized solve across up to max_repeats iterations."""

    status: str  # "SAT" | "FAILURE"
    assignment: tuple | None
    iterations_used: int
    max_repeats: int
    seed: int
    narrow_histogram: dict = field(default_factory=dict)


def _iterate(instance: CspInstance, state: NogoodState, s: int):
    """One pass on the stream of s = derive_seed(seed, i), read as
    `_run_block` reads row i; returns (assignment or None, number of
    narrowed variables)."""
    n, d = instance.n, instance.d
    state.reset()
    if state.matched:
        return None, 1  # an arity-0 nogood empties every domain
    words = [_splitmix64(s + t * _GOLDEN) for t in range(2 * n)]
    order = list(range(1, n + 1))
    for t in range(n - 1, 0, -1):
        j = words[t] % (t + 1)
        order[t], order[j] = order[j], order[t]
    narrow = 0
    for t, y in enumerate(order):
        forbidden = state.forbidden(y)
        if forbidden:
            narrow += 1
            if len(forbidden) == d:
                return None, narrow
            # the (w mod c)-th smallest of the c allowed values, found
            # without listing the domain
            value = words[n + t] % (d - len(forbidden))
            for a in sorted(forbidden):
                if a > value:
                    break
                value += 1
        else:
            value = words[n + t] % d
        state.assign(y, value)
    return tuple(state.values[1:]), narrow


def _block_tables(instance: CspInstance) -> tuple:
    """Per-instance tables for `_run_block`, each row padded to a common width.

    occ_j[y], occ_a[y]: the (nogood, value) pairs naming variable y, padded
    with (m, -1), a column of the status array that stays dead and a value
    never drawn.  ng_vars[j], ng_vals[j]: nogood j's pairs, padded with
    (0, 0), which every row's unused column 0 agrees with.
    """
    n, m = instance.n, len(instance.nogoods)
    width = max(1, max(map(len, instance.by_var)))
    occ_j = np.full((n + 1, width), m, dtype=np.intp)
    occ_a = np.full((n + 1, width), -1, dtype=np.intp)
    for y, entries in enumerate(instance.by_var):
        for p, (j, a) in enumerate(entries):
            occ_j[y, p], occ_a[y, p] = j, a
    ng_vars = np.zeros((m, instance.k_max), dtype=np.intp)
    ng_vals = np.zeros((m, instance.k_max), dtype=np.intp)
    for j, ng in enumerate(instance.nogoods):
        for p, (v, a) in enumerate(ng.pairs):
            ng_vars[j, p], ng_vals[j, p] = v, a
    return occ_j, occ_a, ng_vars, ng_vals


def _rows_matching(values: np.ndarray, ng_vars: np.ndarray, ng_vals: np.ndarray) -> np.ndarray:
    """Whether each row of `values` (variable v's value in column v) matches
    some nogood in full, read off the nogood table alone, one pair
    position at a time so that no temporary exceeds rows x m."""
    hit = np.ones((len(values), len(ng_vars)), dtype=bool)
    for p in range(ng_vars.shape[1]):
        hit &= values[:, ng_vars[:, p]] == ng_vals[:, p]
    return hit.any(axis=1)


def _run_block(instance: CspInstance, tables: tuple, words: np.ndarray) -> np.ndarray:
    """Run one iteration per row of `words` ((rows, 2n) uint64); return
    whether each completes.

    Row r shuffles the variables by Fisher-Yates (step t swaps position t
    with position words[r, t] mod (t+1), for t = n-1..1), then gives the
    variable at position t the (words[r, n+t] mod c)-th smallest of its c
    allowed values, aborting when c = 0.  status[r, j] folds NogoodState's
    counts into one integer: nogood j's unassigned pairs while it is live,
    `killed` once an assigned pair disagrees, so a live nogood with one
    pair left, the only kind that forbids a value, reads exactly 1.
    """
    n, d, m = instance.n, instance.d, len(instance.nogoods)
    occ_j, occ_a, ng_vars, ng_vals = tables
    rows = len(words)
    if 0 in instance.arities:
        return np.zeros(rows, dtype=bool)  # an arity-0 nogood empties every domain
    # above any live count, and no later decrements bring it down to 1
    killed = max(instance.k_max, 1) + 1
    dtype = np.min_scalar_type(max(d, killed))
    row = np.arange(rows)
    order = np.tile(np.arange(1, n + 1), (rows, 1))
    for t in range(n - 1, 0, -1):
        swap = (words[:, t] % np.uint64(t + 1)).astype(np.intp)
        picked = order[row, swap]
        order[row, swap] = order[:, t]
        order[:, t] = picked
    status = np.empty((rows, m + 1), dtype=dtype)
    status[:, :m] = instance.arities
    status[:, m] = killed
    status = status.ravel()
    status_base = (row * (m + 1))[:, None]
    forbid_base = (row * (d + 1))[:, None]
    values = np.zeros((rows, n + 1), dtype=dtype)
    alive = np.ones(rows, dtype=bool)
    for t in range(n):
        y = order[:, t]
        cells = status_base + occ_j[y]
        a = occ_a[y]
        left = status[cells]
        forbidden = np.zeros(rows * (d + 1), dtype=bool)
        forbidden[forbid_base + np.where(left == 1, a, d)] = True
        rank = (~forbidden.reshape(rows, d + 1)[:, :d]).cumsum(axis=1)
        count = rank[:, -1]
        alive &= count > 0
        if not alive.any():
            return alive
        pick = words[:, n + t] % np.maximum(count, 1).astype(np.uint64)
        # the pick-th allowed value (d in a row that has just aborted)
        value = (rank <= pick.astype(np.intp)[:, None]).sum(axis=1)
        values[row, y] = value
        status[cells] = np.where(a == value[:, None], left - 1, killed)
    if _rows_matching(values[alive], ng_vars, ng_vals).any():
        raise RuntimeError("a completed PPSZ iteration matches a nogood")
    return alive


def iteration_successes(instance: CspInstance, seed: int, count: int) -> list[int]:
    """1 or 0 for each of iterations 1..count: whether it ends in a
    satisfying assignment.  Iteration i reads 2n words of the splitmix64
    stream seeded by derive_seed(seed, i), so its outcome depends on
    (seed, i) alone, whatever the block size."""
    tables = _block_tables(instance)
    span = max(len(instance.nogoods) + 1, 2 * instance.n)
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // span))
    outcomes: list[int] = []
    for first in range(1, count + 1, rows):
        words = _stream_words(seed, first, min(rows, count + 1 - first), 2 * instance.n)
        outcomes += _run_block(instance, tables, words).astype(int).tolist()
    return outcomes


def _ceil_root(x: int, k: int) -> int:
    """Smallest integer r with r**k >= x, for x >= 1 (exact, integer Newton)."""
    if k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)  # >= floor root
    while True:
        step = ((k - 1) * r + x // r ** (k - 1)) // k
        if step >= r:
            break
        r = step
    while r**k > x:
        r -= 1
    while r**k < x:
        r += 1
    return r


def repeat_count(n: int, d: int, k: int) -> int:
    """ceil(n*(n+1) * (d*((d-1)/d)^(1/k))^n), computed exactly.

    The value equals the k-th root of (n(n+1))^k * d^(n(k-1)) * (d-1)^n,
    rounded up, so integer arithmetic avoids the off-by-one a float power
    can introduce when the true value is an integer.
    """
    if n < 1 or d < 2 or k < 1:
        raise ValueError("repeat_count requires n >= 1, d >= 2, k >= 1")
    coeff = n * (n + 1)
    estimate = math.log2(coeff) + n * (math.log2(d) + (math.log2(d - 1) - math.log2(d)) / k)
    if estimate > 64.5:
        raise OverflowError(
            "repeat count exceeds 2**64 - 1; pass an explicit max_repeats instead"
        )
    result = _ceil_root(coeff**k * d ** (n * (k - 1)) * (d - 1) ** n, k)
    if result > _MASK64:
        raise OverflowError(
            "repeat count exceeds 2**64 - 1; pass an explicit max_repeats instead"
        )
    return result


def success_lower_bound(n: int, d: int, k: int) -> float:
    """Per-iteration success probability bound 1/((n+1) * base^n) on
    satisfiable input, with base = d*((d-1)/d)^(1/k)."""
    if n < 1 or d < 2 or k < 1:
        raise ValueError("success_lower_bound requires n >= 1, d >= 2, k >= 1")
    return math.exp(-(math.log(n + 1) + n * math.log(ppsz_bound_base(d, k))))


def bound_variable_domain_ppsz(n: int, alpha: float, k: int) -> float:
    """Natural log of the iteration bound when d = n^alpha:
    alpha*n*ln(n) * (1 - 1/(k * n^alpha * ln n))."""
    if n < 2:
        raise ValueError("need n >= 2")
    if alpha <= 0 or k < 1:
        raise ValueError("need alpha > 0 and k >= 1")
    log_n = math.log(n)
    return alpha * n * log_n * (1.0 - 1.0 / (k * n**alpha * log_n))


def default_max_repeats(instance: CspInstance) -> int:
    """Repeat budget from the bound; arity-0 nogoods still count as k = 1,
    and a one-value domain needs only a single deterministic pass."""
    if instance.d < 2:
        return 1
    return repeat_count(instance.n, instance.d, max(instance.k_max, 1))


def solve_ppsz(instance: CspInstance, max_repeats: int | None = None, seed: int = 0) -> PpszStats:
    """Run iterations until one satisfies the instance or the budget runs out.

    One-sided: SAT answers are always correct (checked before returning);
    FAILURE may be wrong with probability at most ~exp(-n) at the default
    budget.  Iteration i reads the words that `iteration_successes` reads
    for it, so it succeeds exactly when that function's entry i is 1.
    """
    if max_repeats is None:
        max_repeats = default_max_repeats(instance)
    if max_repeats < 1:
        raise ValueError("max_repeats must be at least 1")
    state = NogoodState(instance)
    histogram: dict[int, int] = {}
    for iteration in range(1, max_repeats + 1):
        assignment, narrow = _iterate(instance, state, derive_seed(seed, iteration))
        histogram[narrow] = histogram.get(narrow, 0) + 1
        if assignment is not None:
            if not is_satisfying(instance, assignment):
                raise RuntimeError(f"PPSZ iteration {iteration} completed on a nogood match")
            break
    return PpszStats(
        status="FAILURE" if assignment is None else "SAT",
        assignment=assignment,
        iterations_used=iteration,
        max_repeats=max_repeats,
        seed=seed,
        narrow_histogram=histogram,
    )
