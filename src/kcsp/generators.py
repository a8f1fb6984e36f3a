"""Instance generators: seeded random families and classic structured problems.

Each generator counts its nogoods from its arguments and refuses more
than _MAX_NOGOODS with _LimitExceeded (a ValueError) before building
anything.

gen_uniform and gen_model_rb draw from random.Random(seed) through
_draws, kcsp's own reading of getrandbits: it gives the same stream, and
so the same instances, as drawing each scope with rng.sample and each
value with rng.randrange, without their per-call overhead.  Every
generator but gen_coloring, whose vertices come from the caller, builds
its nogoods sorted and in range and hands them to CspInstance as a
_CanonicalNogoods list, which is not checked again.
"""

from __future__ import annotations

import math
import random
from itertools import chain

from .core import CspInstance, _CanonicalNogoods, _LimitExceeded

# Peak memory per nogood built (tracemalloc, CPython 3.11): 150-195 bytes
# for gen_latin, gen_nqueens and gen_coloring, whose nogoods share their
# pairs; 360-560 for gen_uniform at k = 2 or 3 and 640-790 at k = 5 (the
# high ends where few pairs repeat), and 280-470 for gen_model_rb at
# k = 2 to 5.  So the limit holds a build to roughly 0.8 GB.
_MAX_NOGOODS = 1 << 20


def _check_count(count: int) -> None:
    """Refuse, before anything is built, an instance of more than _MAX_NOGOODS nogoods."""
    if count > _MAX_NOGOODS:
        raise _LimitExceeded(f"{_short(count)} nogoods exceed the limit of {_MAX_NOGOODS}")


def _short(count: int) -> str:
    """count in full below 10^15, else as "about 1.23e+45", rounded half up
    in integers, so that no int overflows a float."""
    if count < 10**15:
        return str(count)
    exponent = (count.bit_length() - 1) * 30102 // 100000  # at most floor(log10(count))
    while 10 ** (exponent + 1) <= count:
        exponent += 1
    digits = (count // 10 ** (exponent - 3) + 5) // 10  # three significant digits
    if digits == 1000:
        digits, exponent = 100, exponent + 1
    return f"about {digits // 100}.{digits % 100:02d}e+{exponent}"


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _draws(seed: int, n: int, k: int, d: int):
    """The stream of random.Random(seed), read as (scope, values): scope()
    returns what rng.sample(range(1, n + 1), k) would and values() what
    [rng.randrange(d) for _ in range(k)] would, in whatever interleaving
    they are called.

    Both read getrandbits as CPython's sample and _randbelow do (as of
    3.11; tests/test_generators.py holds them to it).  A value below b is
    drawn on b.bit_length() bits, and redrawn while it is b or more.
    sample keeps a pool of the values not yet picked, the i-th pick below
    n - i, when n is at most setsize (21, plus 4^ceil(log4(3k)) when
    k > 5); otherwise every pick is below n, and a value picked before is
    redrawn.
    """
    getrandbits = random.Random(seed).getrandbits
    range_k = range(k)
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        population = list(range(1, n + 1))
        bounds = [(size, size.bit_length()) for size in range(n, n - k, -1)]

        def scope() -> list[int]:
            pool = population.copy()
            picked = []
            for size, bits in bounds:
                j = getrandbits(bits)
                while j >= size:
                    j = getrandbits(bits)
                picked.append(pool[j])
                pool[j] = pool[size - 1]
            return picked

    else:
        n_bits = n.bit_length()

        def scope() -> list[int]:
            picked = []
            seen = set()
            for _ in range_k:
                j = getrandbits(n_bits)
                while j >= n or j in seen:
                    j = getrandbits(n_bits)
                seen.add(j)
                picked.append(j + 1)
            return picked

    d_bits = d.bit_length()

    def values() -> list[int]:
        drawn = []
        for _ in range_k:
            a = getrandbits(d_bits)
            while a >= d:
                a = getrandbits(d_bits)
            drawn.append(a)
        return drawn

    return scope, values


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
    _check_count(m)
    scope, values = _draws(seed, n, k, d)
    nogoods = _CanonicalNogoods()
    seen: set[tuple[tuple[int, int], ...]] = set()
    while len(nogoods) < m:
        pairs = tuple(sorted(zip(scope(), values())))
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
    try:
        d = _round_half_up(n**alpha)
    except OverflowError:
        raise OverflowError(
            f"n^alpha is too large for a float, got n = {n}, alpha = {alpha}"
        ) from None
    if d < 2:
        raise ValueError(f"domain size round(n^alpha) = {d} is below 2")
    try:
        nogoods_per_constraint = _round_half_up(p * d**k)
    except OverflowError:
        raise _LimitExceeded(f"p * d^k nogoods exceed the limit of {_MAX_NOGOODS}") from None
    if nogoods_per_constraint < 1:
        raise ValueError(f"round(p * d^k) = {nogoods_per_constraint} leaves constraints empty")
    m_constraints = _round_half_up(r * n * math.log(n))
    _check_count(m_constraints * nogoods_per_constraint)
    draw_scope, values = _draws(seed, n, k, d)
    nogoods = _CanonicalNogoods()
    for _ in range(m_constraints):
        scope = sorted(draw_scope())
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < nogoods_per_constraint:
            drawn = tuple(values())
            if drawn not in chosen:
                chosen.add(drawn)
                nogoods.append(tuple(zip(scope, drawn)))
    return CspInstance(n, d, nogoods)


def gen_coloring(edges, num_vertices: int, d: int) -> CspInstance:
    """Graph d-coloring: per edge (u, v) and color c, one nogood (u:c, v:c)."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    edges = list(edges)
    _check_count(len(edges) * d)
    # per vertex w, its pairs (w, c), built once and shared by every nogood naming them
    pairs: dict[int, list[tuple[int, int]]] = {}
    nogoods = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        for w in (u, v):
            if not 1 <= w <= num_vertices:
                raise ValueError(f"vertex {w} out of range 1..{num_vertices}")
            if w not in pairs:
                pairs[w] = [(w, c) for c in range(d)]
        if u > v:  # pairs in variable order, as the instance keeps them
            u, v = v, u
        nogoods.extend(zip(pairs[u], pairs[v]))
    return CspInstance(num_vertices, d, nogoods)


def gen_latin(N: int) -> CspInstance:
    """Latin square of order N: cell (i, j) is variable (i-1)*N + j, domain size N.

    Every two distinct cells sharing a row or column get one binary nogood
    per value forbidding that value on both.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    _check_count(N**3 * (N - 1))
    # pairs[v][c] is the pair (v, c), built once and shared by every nogood naming it
    pairs = [None] + [[(v, c) for c in range(N)] for v in range(1, N * N + 1)]
    cell = lambda i, j: pairs[(i - 1) * N + j]
    nogoods = _CanonicalNogoods()
    for i in range(1, N + 1):
        for j1 in range(1, N + 1):
            for j2 in range(j1 + 1, N + 1):
                same_row = zip(cell(i, j1), cell(i, j2))
                same_column = zip(cell(j1, i), cell(j2, i))
                # per value, the same-row nogood, then the same-column one
                nogoods.extend(chain.from_iterable(zip(same_row, same_column)))
    return CspInstance(N * N, N, nogoods)


def gen_nqueens(N: int) -> CspInstance:
    """N queens, one variable per row holding the queen's column (0-indexed)."""
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    # per row pair, N same-column nogoods; per distance t, 2(N - t)^2 diagonal ones
    _check_count(N * math.comb(N, 2) + N * (N - 1) * (2 * N - 1) // 3)
    # attacks[t]: for rows t apart, the columns (a, b) of a queen attacking
    # one, in nogood order (increasing a, then increasing b), as a column
    # list for the upper row and one for the lower row
    attacks = [None]
    for t in range(1, N):
        cols = [(a, b) for a in range(N) for b in (a - t, a, a + t) if 0 <= b < N]
        attacks.append(tuple(zip(*cols)))
    # pairs[v][a] is the pair (v, a), built once and shared by every nogood naming it
    pairs = [None] + [[(v, a) for a in range(N)] for v in range(1, N + 1)]
    nogoods = _CanonicalNogoods()
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            upper, lower = attacks[j - i]
            nogoods.extend(zip(map(pairs[i].__getitem__, upper), map(pairs[j].__getitem__, lower)))
    return CspInstance(N, N, nogoods)
