"""Randomized solver: permute the variables, then assign each a uniform
value from its narrowed domain (full domain unless some nogood pins it).

An iteration aborts when a variable's narrowed domain comes up empty;
a completed iteration can never match a nogood, because the last pair of
any would-be match is always forbidden at assignment time.  Success is
therefore a race against aborts, and the repeat count from the success
probability bound makes overall failure unlikely on satisfiable input.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .analysis import ppsz_bound_base
from .core import CspInstance, NogoodState, is_satisfying

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, index: int) -> int:
    """Stable 64-bit per-iteration seed; changing either input scrambles it."""
    return _splitmix64(_splitmix64(master & _MASK64) ^ _splitmix64(index & _MASK64))


@dataclass(frozen=True)
class PpszStats:
    """Outcome of one randomized solve across up to max_repeats iterations."""

    status: str  # "SAT" | "FAILURE"
    assignment: tuple | None
    iterations_used: int
    max_repeats: int
    seed: int
    narrow_histogram: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    prng: str = "random.Random (Mersenne Twister), one stream per iteration"


def _iterate(instance: CspInstance, state: NogoodState, rng: random.Random):
    """One pass; returns (assignment or None, number of narrowed variables)."""
    n, d = instance.n, instance.d
    state.reset()
    if state.matched:
        return None, 1  # an arity-0 nogood empties every domain
    order = list(range(1, n + 1))
    rng.shuffle(order)
    narrow = 0
    for y in order:
        forbidden = state.forbidden(y)
        if forbidden:
            narrow += 1
            choices = [a for a in range(d) if a not in forbidden]
            if not choices:
                return None, narrow
            value = choices[rng.randrange(len(choices))]
        else:
            value = rng.randrange(d)
        state.assign(y, value)
    return tuple(state.values[1:]), narrow


def iterations(instance: CspInstance, seed: int, count: int):
    """Run iterations 1..count, each on its own stream derive_seed(seed, i),
    and yield (satisfying assignment or None, narrowed variables) for each."""
    state = NogoodState(instance)
    for iteration in range(1, count + 1):
        assignment, narrow = _iterate(instance, state, random.Random(derive_seed(seed, iteration)))
        if assignment is not None and not is_satisfying(instance, assignment):
            assignment = None
        yield assignment, narrow


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
    budget.  Each iteration draws from its own seed-derived stream, so a
    given (instance, seed) pair always replays the same trajectory.
    """
    start = time.perf_counter()
    if max_repeats is None:
        max_repeats = default_max_repeats(instance)
    if max_repeats < 1:
        raise ValueError("max_repeats must be at least 1")
    histogram: dict[int, int] = {}
    for iteration, (assignment, narrow) in enumerate(iterations(instance, seed, max_repeats), 1):
        histogram[narrow] = histogram.get(narrow, 0) + 1
        if assignment is not None:
            return PpszStats(
                status="SAT",
                assignment=assignment,
                iterations_used=iteration,
                max_repeats=max_repeats,
                seed=seed,
                narrow_histogram=histogram,
                elapsed_s=time.perf_counter() - start,
            )
    return PpszStats(
        status="FAILURE",
        assignment=None,
        iterations_used=max_repeats,
        max_repeats=max_repeats,
        seed=seed,
        narrow_histogram=histogram,
        elapsed_s=time.perf_counter() - start,
    )
