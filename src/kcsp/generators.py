"""Instance generators: seeded random families and classic structured problems."""

from __future__ import annotations

import math
import random

from .core import CspInstance


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def gen_uniform(n: int, d: int, k: int, m: int, seed: int) -> CspInstance:
    """m distinct nogoods, each over k distinct uniform variables with uniform values.

    Duplicates are rejection-resampled, so the result is deterministic in
    (arguments, seed).  Raises ValueError if m exceeds the number of
    distinct nogoods C(n,k) * d^k.
    """
    if not (n >= k >= 1):
        raise ValueError(f"need n >= k >= 1, got n={n} k={k}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    limit = math.comb(n, k) * d**k
    if m > limit:
        raise ValueError(f"m={m} exceeds the {limit} distinct nogoods over (n={n}, k={k}, d={d})")
    rng = random.Random(seed)
    nogoods: list[tuple[tuple[int, int], ...]] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    while len(nogoods) < m:
        variables = rng.sample(range(1, n + 1), k)
        pairs = tuple(sorted((v, rng.randrange(d)) for v in variables))
        if pairs not in seen:
            seen.add(pairs)
            nogoods.append(pairs)
    return CspInstance(n, d, nogoods)


def gen_model_rb(n: int, alpha: float, r: float, p: float, k: int, seed: int) -> CspInstance:
    """Random instance with domain size growing as n^alpha.

    Draws round(r * n * ln n) constraints, each over k distinct random
    variables, each contributing round(p * d^k) distinct uniform nogoods
    over its scope; the per-constraint nogood lists are flattened (and the
    instance deduplicates across constraints).  Rounding is half-up.
    """
    if alpha <= 0 or r <= 0 or not 0 < p < 1 or k < 2:
        raise ValueError("need alpha > 0, r > 0, 0 < p < 1, k >= 2")
    if n < k:
        raise ValueError(f"need n >= k, got n={n} k={k}")
    d = _round_half_up(n**alpha)
    if d < 2:
        raise ValueError(f"domain size round(n^alpha) = {d} is below 2")
    nogoods_per_constraint = _round_half_up(p * d**k)
    if nogoods_per_constraint < 1:
        raise ValueError(f"round(p * d^k) = {nogoods_per_constraint} leaves constraints empty")
    m_constraints = _round_half_up(r * n * math.log(n))
    rng = random.Random(seed)
    nogoods: list[tuple[tuple[int, int], ...]] = []
    for _ in range(m_constraints):
        scope = sorted(rng.sample(range(1, n + 1), k))
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < nogoods_per_constraint:
            values = tuple(rng.randrange(d) for _ in scope)
            if values not in chosen:
                chosen.add(values)
                nogoods.append(tuple(zip(scope, values)))
    return CspInstance(n, d, nogoods)


def gen_coloring(edges, num_vertices: int, d: int) -> CspInstance:
    """Graph d-coloring: per edge (u, v) and color c, one nogood (u:c, v:c)."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    nogoods = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        for w in (u, v):
            if not 1 <= w <= num_vertices:
                raise ValueError(f"vertex {w} out of range 1..{num_vertices}")
        for c in range(d):
            nogoods.append(((u, c), (v, c)))
    return CspInstance(num_vertices, d, nogoods)


def gen_latin(N: int) -> CspInstance:
    """Latin square of order N: cell (i, j) is variable (i-1)*N + j, domain size N.

    Every two distinct cells sharing a row or column get one binary nogood
    per value forbidding that value on both.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    cell = lambda i, j: (i - 1) * N + j
    nogoods = []
    for i in range(1, N + 1):
        for j1 in range(1, N + 1):
            for j2 in range(j1 + 1, N + 1):
                for c in range(N):
                    nogoods.append(((cell(i, j1), c), (cell(i, j2), c)))  # same row
                    nogoods.append(((cell(j1, i), c), (cell(j2, i), c)))  # same column
    return CspInstance(N * N, N, nogoods)


def gen_nqueens(N: int) -> CspInstance:
    """N queens, one variable per row holding the queen's column (0-indexed)."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    nogoods = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            t = j - i
            for a in range(N):
                # the columns of row j that a queen at (i, a) attacks, in increasing order
                for b in (a - t, a, a + t):
                    if 0 <= b < N:
                        nogoods.append(((i, a), (j, b)))
    return CspInstance(N, N, nogoods)

