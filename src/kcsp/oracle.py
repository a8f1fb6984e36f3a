"""Ground truth: exhaustive enumeration and isolation degrees, an exact
integer check of the isolation-weight inequality, and the exact
narrow-choice average, summed per variable from a solution's own nogoods.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import CspInstance, _LimitExceeded, _value_dtype, is_satisfying

DEFAULT_CAP = 1 << 24
# enumerate_solutions refuses larger spaces whatever the cap: its mask
# takes one byte per point.
_MAX_POINTS = 1 << 28
_BLOCK_ROWS = 1 << 16  # rows per block of enumerate_solutions
_MAX_SHARED = 20  # avg_narrow_count's largest u


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of an instance, with per-solution isolation data.

    `critical_dims[i]` holds the dimensions (1-indexed, ascending) in which
    flipping `solutions[i]` to some other single value leaves the solution
    set; `isolation[i]` is its size.
    """

    n: int
    d: int
    solutions: tuple
    critical_dims: tuple
    isolation: tuple

    def __len__(self) -> int:
        return len(self.solutions)


def isolation_degrees(points, n: int, d: int) -> list[int]:
    """Isolation degree of each point with respect to the given set itself.

    One degree per input point, in input order, repeats included.  Each
    distinct point is coded as the Python int sum X_i d^(n-1-i), so its
    neighbour with X_i changed to a is code + (a - X_i) d^(n-1-i) and is
    probed in the set of codes without building a tuple.  Python ints do
    not wrap, so the codes are exact for any d^n.  Raises ValueError if
    some point is not n integer values in 0..d-1.
    """
    rows = [tuple(X) for X in points]
    digits_of = {}
    for X in dict.fromkeys(rows):
        digits = tuple(map(int, X))  # numpy scalars would wrap in the code arithmetic
        if len(digits) != n or digits != X or (n and not 0 <= min(digits) <= max(digits) < d):
            raise ValueError(f"point {X} is not {n} values in 0..{d - 1}")
        digits_of[X] = digits
    powers = [d ** (n - 1 - i) for i in range(n)]
    codes = [sum(map(operator.mul, digits, powers)) for digits in digits_of.values()]
    S = set(codes)
    values = range(d)
    degrees = []
    for code, digits in zip(codes, digits_of.values()):
        degree = 0
        for x, power in zip(digits, powers):
            base = code - x * power
            for a in values:
                if a != x and base + a * power not in S:
                    degree += 1
                    break
        degrees.append(degree)
    degree_of = dict(zip(digits_of, degrees))
    return [degree_of[X] for X in rows]


def _exceeds(d: int, n: int, cap: int) -> bool:
    """Whether d^n > cap, exactly, without computing a huge d^n: for d >= 2
    and n >= cap.bit_length(), d^n >= 2^n > cap."""
    if d >= 2 and n >= cap.bit_length():
        return True
    return d**n > cap


def _solution_mask(instance: CspInstance, cap: int) -> np.ndarray:
    """ok[c] is true iff the point with mixed-radix code c (variable 1 most
    significant, so numeric order is lexicographic order) is a solution.

    A space of more than `cap` points, or of more than 2^28 points (a
    256 MiB mask) whatever the cap, is refused with _LimitExceeded (a
    ValueError) before anything is allocated.
    """
    n, d = instance.n, instance.d
    if _exceeds(d, n, cap):
        raise _LimitExceeded(f"search space d^n = {d}^{n} exceeds cap {cap}")
    if _exceeds(d, n, _MAX_POINTS):
        raise _LimitExceeded(
            f"search space d^n = {d}^{n} exceeds the enumeration limit of {_MAX_POINTS} points"
        )
    if d == 1:
        # the one point matches every nogood
        return np.array([not instance.nogoods])
    ok = np.ones(d**n, dtype=bool)
    # one axis per variable (the point limit keeps n <= 28 here), so each
    # nogood clears the block of points it matches in one strided write
    grid = ok.reshape((d,) * n)
    for ng in instance.nogoods:
        index = [slice(None)] * n
        for v, a in ng.pairs:
            index[v - 1] = a
        grid[tuple(index)] = False
    return ok


def _decode_block(ok: np.ndarray, block: np.ndarray, n: int, d: int):
    """The digit matrix, the critical keys and the isolation counts of a
    block of solution codes.

    Row r of the matrix holds the digits of block[r], variable 1 first
    (uint8, or int64 when d > 256).  Per dimension one divmod peels off
    the digit, which fills a column and also locates the point's
    neighbours in the mask: bit i of a point's key (a list of ints) marks
    dimension i+1 as critical, that is ok[X + (a - X_i) d^(n-1-i)] is false
    for some value a, and count[r] counts those dimensions.  With
    d = 1 the one point's digits are all 0 and it has no neighbours; with
    d >= 2 the point limit keeps n <= 28, so the keys fit in an int64.
    """
    digits = np.zeros((len(block), n), dtype=_value_dtype(d))
    keys = np.zeros(len(block), dtype=np.int64)
    count = np.zeros(len(block), dtype=np.uint8)
    if d > 1:
        rest = block
        for i in range(n - 1, -1, -1):
            rest, digit = np.divmod(rest, d)
            digits[:, i] = digit
            power = d ** (n - 1 - i)
            base = block - digit * power
            stays = ok[base]
            for a in range(1, d):
                stays &= ok[base + a * power]
            leaves = ~stays
            np.bitwise_or(keys, 1 << i, out=keys, where=leaves)
            count += leaves
    return digits, keys.tolist(), count


def enumerate_solutions(instance: CspInstance, cap: int = DEFAULT_CAP) -> SolutionSet:
    """Exhaustively list all satisfying total assignments, in lexicographic order.

    One pass over the solution codes, 2^16 at a time (`_decode_block`):
    the solution tuples are unpacked from each block's digit matrix by
    `struct`, and points with equal critical keys share one tuple of
    dimensions.

    Memory: a mask of one byte per point of D^n; per solution an int64
    code, a one-byte isolation count, a list slot and the returned tuples;
    per solution of the current block, one uint8 digit row, not a list
    (int64 when d > 256, and then n <= 3), an int64 key and a few int64
    temporaries.  Nothing else grows with d^n.  A space of more than `cap`
    points, or of more than 2^28 points (a 256 MiB mask) whatever the cap,
    is refused with ValueError before anything is allocated; the CLI
    reports that with exit code 3.
    """
    n, d = instance.n, instance.d
    ok = _solution_mask(instance, cap)
    codes = np.flatnonzero(ok)
    shared: dict[int, tuple] = {}
    solutions, critical_dims = [], []
    isolation = np.zeros(len(codes), dtype=np.uint8)
    for lo in range(0, len(codes), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        digits, keys, count = _decode_block(ok, codes[lo:hi], n, d)
        isolation[lo:hi] = count
        for key in set(keys).difference(shared):
            shared[key] = tuple(i + 1 for i in range(key.bit_length()) if key >> i & 1)
        critical_dims += map(shared.__getitem__, keys)
        # numpy's type character is struct's native code for the same C type
        solutions += struct.iter_unpack(f"{n}{digits.dtype.char}", digits)
    # free the codes, then turn one list at a time into a tuple, so that no
    # two lists of S pointers sit beside a tuple; iterating bytes gives ints
    del codes
    solutions = tuple(solutions)
    critical_dims = tuple(critical_dims)
    return SolutionSet(n, d, solutions, critical_dims, tuple(isolation.tobytes()))


def _first_solution(instance: CspInstance) -> tuple | None:
    """`enumerate_solutions(instance).solutions[0]`, or None when there is
    no solution, read off the mask without listing the others."""
    ok = _solution_mask(instance, DEFAULT_CAP)
    code = int(ok.argmax())  # the first true point, or 0 when none is
    if not ok[code]:
        return None
    digits = []
    for _ in range(instance.n):
        code, digit = divmod(code, instance.d)
        digits.append(digit)
    return tuple(reversed(digits))


def verify_lemma2(points, n: int, d: int) -> tuple[bool, int]:
    """Exact-integer check that sum over S of d^J(x) is at least d^n.

    Equivalent to the isolation-weight inequality sum (1/d)^(n-J) >= 1, but
    carried out in big integers so no rounding can produce a false alarm.
    S is the set of the given points, so a repeated point counts once; an
    empty S, or a point that is not n values in 0..d-1, raises ValueError.
    Returns (holds, the integer sum); `holds` false indicates a bug.
    """
    S = {tuple(X) for X in points}
    if not S:
        raise ValueError("point set must be nonempty")
    lhs = sum(d**j for j in isolation_degrees(S, n, d))
    return lhs >= d**n, lhs


@dataclass(frozen=True)
class NarrowCountResult:
    """Exact average number of narrowly chosen variables over all n! orders."""

    average: Fraction
    j: int
    orders: int


def avg_narrow_count(instance: CspInstance, X) -> NarrowCountResult:
    """Exact average narrow-choice count over the n! variable orders that
    assign solution X, and X's isolation degree j.

    A nogood that disagrees with X only at y forces y exactly when its
    other variables come before y.  Changing X_y to a leaves the solution
    set iff such a nogood holds (y, a), so j counts the variables that have
    one, with no enumeration.  For each, the set T of U (the union of those
    nogoods' other variables, u = |U|) placed before y has probability
    |T|! (u - |T|)! / (u + 1)!; the sum runs over all 2^u sets T, and
    _LimitExceeded (a ValueError) is raised before any sum if some u
    exceeds 20.
    """
    X = tuple(X)
    if not is_satisfying(instance, X):
        raise ValueError(f"{X} does not satisfy the instance")
    # y -> the other-variable sets of the nogoods that disagree with X only at y
    others: dict[int, list[set]] = {}
    for ng in instance.nogoods:
        off = [v for v, a in ng.pairs if X[v - 1] != a]
        if len(off) == 1:
            others.setdefault(off[0], []).append({v for v, _ in ng.pairs if v != off[0]})
    shared = {y: sorted(set().union(*sets)) for y, sets in others.items()}
    for y, U in shared.items():
        if len(U) > _MAX_SHARED:
            raise _LimitExceeded(
                f"variable {y} shares nogoods with {len(U)} others; max {_MAX_SHARED}"
            )
    orders = math.factorial(instance.n)
    total = 0
    for y, U in shared.items():
        u = len(U)
        size = np.zeros(1, dtype=np.int64)  # size[T] = |T|
        for _ in U:
            size = np.concatenate([size, size + 1])
        T = np.arange(1 << u)  # bit i set: U[i] is placed before y
        covered = np.zeros(1 << u, dtype=bool)
        for vs in others[y]:
            need = sum(1 << U.index(v) for v in vs)
            covered |= (T & need) == need
        by_size = np.bincount(size[covered], minlength=u + 1).tolist()
        ways = sum(c * math.factorial(s) * math.factorial(u - s) for s, c in enumerate(by_size))
        total += orders // math.factorial(u + 1) * ways
    return NarrowCountResult(Fraction(total, orders), len(others), orders)
