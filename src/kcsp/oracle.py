"""Ground truth: exhaustive enumeration and isolation degrees, an exact
integer check of the isolation-weight inequality, and the exact
narrow-choice average, summed per variable from a solution's own nogoods.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import CspInstance, _LimitExceeded, is_satisfying

DEFAULT_CAP = 1 << 24
# enumerate_solutions refuses larger spaces whatever the cap: its mask
# takes one byte per point.
_MAX_POINTS = 1 << 28
_DECODE_ROWS = 1 << 16
_MAX_SHARED = 20  # avg_narrow_count's largest u


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of an instance, with per-solution isolation data.

    `critical_dims[i]` holds the dimensions (1-indexed) in which flipping
    `solutions[i]` to some other single value leaves the solution set;
    `isolation[i]` is its size.
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


def _matching_block(pairs, n: int, d: int) -> tuple[list[int], tuple]:
    """A shape for the flat point mask and a basic index into it that selects
    exactly the points matching `pairs`.

    Each fixed variable gets an axis and each run of free ones shares one,
    so no shape has more axes than n, which the point limit keeps at 28 or
    less when d >= 2; axes of length 1 (d = 1) are dropped, since their
    only index is 0.
    """
    shape, index = [], []
    covered = 0
    for v, a in pairs:
        if v > covered + 1:
            shape.append(d ** (v - 1 - covered))
            index.append(slice(None))
        shape.append(d)
        index.append(a)
        covered = v
    if n > covered:
        shape.append(d ** (n - covered))
        index.append(slice(None))
    kept = [axis for axis, size in enumerate(shape) if size > 1]
    return [shape[axis] for axis in kept], tuple(index[axis] for axis in kept)


def _critical_dims_of_mask(ok: np.ndarray, codes: np.ndarray, n: int, d: int) -> tuple:
    """The critical dimensions of each point in `codes`, read off the mask.

    Bit i of a point's key marks dimension i+1: for X in the mask,
    ok[X + (a - X_i) d^(n-1-i)] is false for some value a.  With d = 1 no
    point has a neighbour; with d >= 2 the point limit keeps n <= 28, so
    the bits fit in an int64.  Points with equal keys share one tuple.
    """
    keys = np.zeros(len(codes), dtype=np.int64)
    if d > 1:
        rest = codes
        for i in range(n - 1, -1, -1):
            rest, digit = np.divmod(rest, d)
            power = d ** (n - 1 - i)
            base = codes - digit * power
            stays = ok[base]
            for a in range(1, d):
                stays &= ok[base + a * power]
            keys[~stays] |= 1 << i
    keys = keys.tolist()
    shared = {key: tuple(i + 1 for i in range(n) if key >> i & 1) for key in set(keys)}
    return tuple(map(shared.__getitem__, keys))


def _decode(codes: np.ndarray, n: int, d: int) -> tuple:
    """The points with the given codes, as tuples of ints.

    Decoded a block of rows at a time, so that one block's digit lists,
    not every row's, sit beside the tuples.
    """
    points = []
    for lo in range(0, len(codes), _DECODE_ROWS):
        rest = codes[lo : lo + _DECODE_ROWS]
        columns = []
        for _ in range(n):
            rest, digit = np.divmod(rest, d)
            columns.append(digit.tolist())
        points += zip(*reversed(columns))
    return tuple(points)


def _solution_mask(instance: CspInstance, cap: int) -> np.ndarray:
    """ok[c] is true iff the point with mixed-radix code c (variable 1 most
    significant, so numeric order is lexicographic order) is a solution.

    A space of more than `cap` points, or of more than 2^28 points (a
    256 MiB mask) whatever the cap, is refused with _LimitExceeded (a
    ValueError) before anything is allocated.
    """
    n, d = instance.n, instance.d
    total = d**n
    if total > cap:
        raise _LimitExceeded(f"search space d^n = {d}^{n} exceeds cap {cap}")
    if total > _MAX_POINTS:
        raise _LimitExceeded(
            f"search space d^n = {d}^{n} exceeds the enumeration limit of {_MAX_POINTS} points"
        )
    # each nogood clears the block of points it matches in one strided write
    ok = np.ones(total, dtype=bool)
    for ng in instance.nogoods:
        shape, index = _matching_block(ng.pairs, n, d)
        ok.reshape(shape)[index] = False
    return ok


def enumerate_solutions(instance: CspInstance, cap: int = DEFAULT_CAP) -> SolutionSet:
    """Exhaustively list all satisfying total assignments, in lexicographic order.

    Memory: a mask of one byte per point of D^n; per solution, an int64
    code, an int64 key of its critical dimensions and a few int64
    temporaries for one dimension at a time; then the returned tuples,
    whose digits are decoded 2^16 rows at a time.  Nothing else grows with
    d^n.  A space of more than `cap` points, or of more than 2^28 points (a
    256 MiB mask) whatever the cap, is refused with ValueError before
    anything is allocated; the CLI reports that with exit code 3.
    """
    n, d = instance.n, instance.d
    ok = _solution_mask(instance, cap)
    codes = np.flatnonzero(ok)

    critical_dims = _critical_dims_of_mask(ok, codes, n, d)
    isolation = tuple(map(len, critical_dims))
    solutions = _decode(codes, n, d)
    return SolutionSet(n, d, solutions, critical_dims, isolation)


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
            others.setdefault(off[0], []).append(set(ng.variables) - set(off))
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
