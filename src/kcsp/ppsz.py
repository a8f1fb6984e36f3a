"""Randomized solver: permute the variables, then assign each a uniform
value from its narrowed domain (full domain unless some nogood pins it).

An iteration aborts when a variable's narrowed domain comes up empty;
a completed iteration can never match a nogood, because the last pair of
any would-be match is always forbidden at assignment time.  Success is
therefore a race against aborts, and the repeat count from the success
probability bound makes overall failure unlikely on satisfiable input.

Iteration i reads 2n counter-based splitmix64 words from
`derive_seed(seed, i)`, so its outcome depends on (seed, i) alone.
`_iterate` reads them from `_stream`, which computes them 16 at a time,
each word in its own 128-bit lane of one Python int, so splitmix64's
three mixing rounds run once per 16 words; word t is still
`_splitmix64(s + t * golden)`, so the stream is unchanged.
`solve_ppsz` runs iterations one at a time, each from the empty
assignment's levels (`CspInstance.by_var`) moved by `core._step`, since
it usually stops after one to three.  `iteration_successes` runs many as
one numpy block, each row holding, as 64-bit words, the bitsets of the
nogoods by their count of pairs not yet matched.  The block never kills
a nogood, as `_step` does once one of its variables takes another
value: such a nogood keeps that unmatched pair for good, so while
another of its pairs is open it has two or more unmatched pairs, and
once none is, it names no variable left to assign.  It forbids no value
either way.  Both read the same words, so the solver's iteration i
is the block's row i, with the same outcome.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import ppsz_bound_base
from .core import CspInstance, _step, _value_dtype, is_satisfying

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Rows per block of `iteration_successes`, fewer when a block's arrays
# would pass _BLOCK_BYTES (see `_block_rows`); outcomes depend on neither.
_BLOCK_ROWS = 2048
_BLOCK_BYTES = 1 << 21
# `_stream`'s packed form: word t of a chunk of _LANES sits in bits
# 128t..128t+63 of one int, lane t starting at (s + (t+1) * golden) mod 2^64.
# The upper 64 bits of a lane take the carries, the products' high halves
# and the bits shifted in from the next lane; clearing them with _LANE_MASK
# before each shift and each multiply keeps every 64-bit product in its lane.
_LANES = 16
_LANE_ONES = sum(1 << (128 * t) for t in range(_LANES))
_LANE_MASK = _MASK64 * _LANE_ONES
_LANE_STEPS = sum((((t + 1) * _GOLDEN) & _MASK64) << (128 * t) for t in range(_LANES))
_CHUNK_STEP = (_LANES * _GOLDEN) & _MASK64
_UNPACK_LANES = struct.Struct("<" + "Q8x" * _LANES).unpack


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """`_splitmix64` of each entry of a uint64 array (array arithmetic wraps
    mod 2^64, as the masks do above), in a new array."""
    x = x + np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _stream(s: int, count: int) -> list[int]:
    """Words 0..count-1 of the splitmix64 stream from s, word t being
    _splitmix64(s + t * golden), mixed _LANES at a time in one int."""
    s &= _MASK64
    words: list[int] = []
    while len(words) < count:
        x = (s * _LANE_ONES + _LANE_STEPS) & _LANE_MASK
        x ^= x >> 30
        x = ((x & _LANE_MASK) * 0xBF58476D1CE4E5B9) & _LANE_MASK
        x ^= x >> 27
        x = ((x & _LANE_MASK) * 0x94D049BB133111EB) & _LANE_MASK
        x ^= x >> 31
        words += _UNPACK_LANES(x.to_bytes(16 * _LANES, "little"))
        s = (s + _CHUNK_STEP) & _MASK64
    del words[count:]
    return words


def _seed(mixed: int, index: int) -> int:
    """derive_seed(master, index), given mixed = _splitmix64(master & _MASK64)."""
    return _splitmix64(mixed ^ _splitmix64(index & _MASK64))


def derive_seed(master: int, index: int) -> int:
    """Stable 64-bit per-iteration seed; changing either input scrambles it."""
    return _seed(_splitmix64(master & _MASK64), index)


def _stream_words(seed: int, first: int, rows: int, count: int) -> np.ndarray:
    """(count, rows) uint64: column r holds words 0..count-1 of the
    splitmix64 stream seeded by s = derive_seed(seed, first + r), word t
    being _splitmix64(s + t * golden)."""
    index = np.arange(first, first + rows, dtype=np.uint64)
    starts = _splitmix64_array(np.uint64(_splitmix64(seed & _MASK64)) ^ _splitmix64_array(index))
    steps = np.arange(count, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _splitmix64_array(steps[:, None] + starts)


@dataclass(frozen=True)
class PpszStats:
    """Outcome of one randomized solve across up to max_repeats iterations."""

    status: str  # "SAT" | "FAILURE"
    assignment: tuple | None
    iterations_used: int
    max_repeats: int
    narrow_histogram: dict


def _iterate(instance: CspInstance, s: int):
    """One pass, from the empty assignment, on the stream of
    s = derive_seed(seed, i), read as `_run_block` reads row i; returns
    (assignment or None, number of narrowed variables).  The levels move
    by `_step`, whose docstring gives the forbidden values' rule."""
    n, d = instance.n, instance.d
    touch, match, levels = instance.by_var
    if levels[0]:
        return None, 1  # an arity-0 nogood empties every domain
    words = _stream(s, 2 * n)
    order = list(range(1, n + 1))
    for t in range(n - 1, 0, -1):
        j = words[t] % (t + 1)
        order[t], order[j] = order[j], order[t]
    values = [0] * n
    narrow = 0
    for t, y in enumerate(order):
        touched = touch[y]
        live = levels[1] & touched
        if live:
            forbidden = sorted(a for a, mask in match[y].items() if live & mask)
            narrow += 1
            if len(forbidden) == d:
                return None, narrow
            # the (w mod c)-th smallest of the c allowed values, found
            # without listing the domain
            value = words[n + t] % (d - len(forbidden))
            for a in forbidden:
                if a > value:
                    break
                value += 1
        else:
            value = words[n + t] % d
        values[y - 1] = value
        if touched:
            levels = _step(levels, ~touched, match[y].get(value, 0))
    return tuple(values), narrow


class _BlockTables(NamedTuple):
    """The nogood state's masks (`CspInstance.by_var`) as numpy arrays for
    `_run_block`, each mask as W = ceil(m/64) uint64 words, nogood j at bit
    j % 64 of word j // 64.

    vals[i, y] is the i-th smallest value named with variable y (uint64,
    as the values drawn from the stream words are), and match[i, :, y] the
    mask of the nogoods naming that pair; entries past y's values hold the
    value d and an empty mask.  levels[c - 1, :] is the initial level c,
    for c = 1..max(k_max, 1).  ng_vars[j], ng_vals[j]: nogood j's pairs,
    padded with (0, 0), which every row's unused column 0 agrees with;
    ng_vals has `_value_dtype(d)`, as the value matrix it is compared
    with.  Only the safety check reads them, so it does not rest on the
    masks it checks.
    """

    match: np.ndarray
    vals: np.ndarray
    levels: np.ndarray
    ng_vars: np.ndarray
    ng_vals: np.ndarray


def _words(masks, width: int) -> np.ndarray:
    """(len(masks), width) uint64: each int mask as `width` words, low first."""
    raw = b"".join([mask.to_bytes(8 * width, "little") for mask in masks])
    return np.frombuffer(raw, dtype="<u8").reshape(-1, width)


def _block_tables(instance: CspInstance) -> _BlockTables:
    """The tables `_run_block` reads, built once per `iteration_successes` call."""
    n, d, m = instance.n, instance.d, len(instance.nogoods)
    _, match, initial = instance.by_var
    width = max(1, -(-m // 64))
    columns = max(1, max(map(len, match)))
    vals = np.full((columns, n + 1), d, dtype=np.uint64)
    masks = [[0] * (n + 1) for _ in range(columns)]
    for y, named in enumerate(match):
        for i, (a, mask) in enumerate(sorted(named.items())):
            vals[i, y] = a
            masks[i][y] = mask
    words = np.empty((columns, width, n + 1), dtype=np.uint64)
    for i, column in enumerate(masks):
        words[i] = _words(column, width).T
    ng_vars = np.zeros((m, instance.k_max), dtype=np.intp)
    ng_vals = np.zeros((m, instance.k_max), dtype=_value_dtype(d))
    for j, ng in enumerate(instance.nogoods):
        for p, (v, a) in enumerate(ng.pairs):
            ng_vars[j, p], ng_vals[j, p] = v, a
    return _BlockTables(
        match=words,
        vals=vals,
        levels=_words(initial[1:], width),
        ng_vars=ng_vars,
        ng_vals=ng_vals,
    )


def _rows_matching(values: np.ndarray, ng_vars: np.ndarray, ng_vals: np.ndarray) -> np.ndarray:
    """Whether each row of `values` (variable v's value in column v) matches
    some nogood in full, read off the nogood table alone, one pair
    position at a time so that no temporary exceeds rows x m."""
    columns = np.ascontiguousarray(values.T)
    hit = np.ones((len(ng_vars), len(values)), dtype=bool)
    for p in range(ng_vars.shape[1]):
        hit &= columns[ng_vars[:, p]] == ng_vals[:, p, None]
    return hit.any(axis=0)


def _run_block(instance: CspInstance, tables: _BlockTables, words: np.ndarray) -> np.ndarray:
    """Run one iteration for each row of the block, that is, for each
    column r of `words` ((2n, rows) uint64); return whether each completes.

    Row r shuffles the variables by Fisher-Yates (step t swaps position t
    with position words[t, r] mod (t+1), for t = n-1..1), then gives the
    variable y at position t the (words[n+t, r] mod c)-th smallest of its c
    allowed values, aborting when c = 0.

    Every array keeps the rows on its last axis.  Each row carries levels
    1..K, as a (K, W, rows) array with level c at index c - 1 holding the
    nogoods with c pairs not yet matched.  Value a of y is forbidden iff
    levels[1] & match[y][a] is nonzero, and assigning a moves
    levels[c+1] & match[y][a] down to level c; in a row still alive,
    levels[1] holds none of match[y][a], as a was allowed.  Unlike
    `core._step`, a step kills no nogood that names y with another value:
    such a nogood forbids nothing (see the module docstring), so every
    row's outcome is `_iterate`'s.  Level 0 is not kept: it would
    only gain levels[1] & match[y][a], which is zero unless a was
    forbidden, that is, unless the row has aborted.  The last step moves
    no level, as nothing reads them after it.  The picks are scattered
    into a value matrix of `tables.ng_vals`' dtype, which the safety check
    reads on the completed rows alone.
    """
    n, d = instance.n, instance.d
    rows = words.shape[1]
    if instance.by_var[2][0]:  # initial level 0: an arity-0 nogood empties every domain
        return np.zeros(rows, dtype=bool)
    row = np.arange(rows)
    order = np.tile(np.arange(1, n + 1)[:, None], rows)
    # each row's swap partner as an index into the flattened order, so
    # that a step is one 1-d gather and scatter
    cells = order.reshape(-1)
    swaps = (words[1:n] % np.arange(2, n + 1, dtype=np.uint64)[:, None]).astype(np.intp)
    swaps *= rows
    swaps += row
    for t in range(n - 1, 0, -1):
        swap = swaps[t - 1]
        picked = cells[swap]
        cells[swap] = order[t]
        order[t] = picked
    levels = np.repeat(tables.levels[:, :, None], rows, axis=2)
    picks = np.empty((n, rows), dtype=tables.ng_vals.dtype)
    alive = np.ones(rows, dtype=bool)
    for t in range(n):
        y = order[t]
        match = tables.match.take(y, axis=2)
        vals = tables.vals.take(y, axis=1)
        hit = (match & levels[0]).any(axis=1)
        count = d - hit.sum(axis=0, dtype=np.uint64)
        alive &= count > 0
        if not alive.any():
            return alive
        value = words[n + t] % np.maximum(count, 1)
        # the forbidden values in ascending order, each one at or below
        # the value so far moving it up by one (the other entries read d,
        # above any value of a row still alive)
        for forbidden in np.where(hit, vals, d):
            value += forbidden <= value
        picks[t] = value
        if t < n - 1:
            chosen = np.bitwise_or.reduce(match * (vals == value)[:, None, :], axis=0)
            lower = levels[1:] & chosen
            levels[1:] ^= lower
            levels[:-1] |= lower
    values = np.zeros((n + 1, rows), dtype=picks.dtype)
    values.reshape(-1)[(order * rows + row).reshape(-1)] = picks.reshape(-1)
    if _rows_matching(values[:, alive].T, tables.ng_vars, tables.ng_vals).any():
        raise RuntimeError("a completed PPSZ iteration matches a nogood")
    return alive


def _row_bytes(instance: CspInstance, tables: _BlockTables) -> int:
    """Bytes that one row of a block takes, arrays and temporaries, counted
    high: 2n stream words (two copies while they are hashed), n positions,
    and n swaps and scatter slots (two copies each while they are computed);
    the K levels and as many mask temporaries again, plus two, of W words
    each; y's V gathered value masks of W words, twice; a few V-entry
    columns; n picks, and the value matrix and its copy of the completed
    rows, n + 1 entries each; and the safety check's m-entry gather and
    comparisons.  A value takes one byte when d <= 256 and eight
    otherwise.  No array has a column per value, so d enters only through
    V <= d and a value's size."""
    n, m = instance.n, len(instance.nogoods)
    levels, width = tables.levels.shape
    named = len(tables.vals)
    words = 9 * n + (2 * levels + 2) * width + 2 * named * width + 6 * named
    return 8 * words + tables.ng_vals.itemsize * (3 * n + 2 + m) + 2 * m


def _block_rows(instance: CspInstance, tables: _BlockTables) -> int:
    """Rows per block: _BLOCK_ROWS, fewer when they would take more than
    _BLOCK_BYTES, but at least one."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // _row_bytes(instance, tables)))


def iteration_successes(instance: CspInstance, seed: int, count: int) -> list[int]:
    """1 or 0 for each of iterations 1..count: whether it ends in a
    satisfying assignment.  Iteration i reads 2n words of the splitmix64
    stream seeded by derive_seed(seed, i), so its outcome depends on
    (seed, i) alone, whatever the block size."""
    tables = _block_tables(instance)
    rows = _block_rows(instance, tables)
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


# repeat_count by (n, d, k), once per process; an OverflowError is not
# stored, so it is raised again on every call
_repeat_budget = functools.cache(repeat_count)


def default_max_repeats(instance: CspInstance) -> int:
    """Repeat budget from the bound; arity-0 nogoods still count as k = 1,
    and a one-value domain needs only a single deterministic pass.  The
    budget is computed once per (n, d, k) in a process."""
    if instance.d < 2:
        return 1
    return _repeat_budget(instance.n, instance.d, max(instance.k_max, 1))


def solve_ppsz(instance: CspInstance, max_repeats: int | None = None, seed: int = 0) -> PpszStats:
    """Run iterations until one satisfies the instance or the budget runs out.

    One-sided: SAT answers are always correct (checked before returning);
    FAILURE may be wrong with probability at most ~exp(-n) at the default
    budget.  Iteration i reads the words that `iteration_successes` reads
    for it, so it succeeds exactly when that function's entry i is 1.  The
    default budget is computed once per (n, d, k) in a process, and the
    seed is mixed once per call.
    """
    if max_repeats is None:
        max_repeats = default_max_repeats(instance)
    if max_repeats < 1:
        raise ValueError("max_repeats must be at least 1")
    mixed = _splitmix64(seed & _MASK64)
    histogram: dict[int, int] = {}
    for iteration in range(1, max_repeats + 1):
        assignment, narrow = _iterate(instance, _seed(mixed, iteration))
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
        narrow_histogram=histogram,
    )
