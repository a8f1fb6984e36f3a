"""Growth-rate constants for the two solvers.

The branching solver's node recurrence has characteristic polynomial
f(x) = x^k - (d-1)(x^{k-1} + ... + x + 1); multiplying by (x - 1) gives
g(x) = x^{k+1} - d*x^k + (d-1), which is strictly increasing past
d*k/(k+1) and keeps the same dominant root.  That root lies strictly
between d - 1/d^{k-1} and d - (d-1)/d^k, so the branching bound base
d - (d-1)/d^k is safe, and the randomized solver's base
d*((d-1)/d)^{1/k} is the smaller of the two for every d, k >= 2.

The root is the midpoint of the cell that bisection on the dyadic grid
d*N/((k+1)*2^s) would end in: the one N with g < 0 at d*N/((k+1)*2^s) and
g >= 0 one grid step up.  g is convex and increasing there, so exact
integer Newton steps from above reach that cell in a few steps where
bisection takes s, and since the cell is the same, so is every field of
the result.  Every sign test, the bracket, the sandwich and the residual
included, runs on exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _scaled_g(d: int, k: int, q: int):
    """The sign test of g at the points p/q: p -> q^{k+1} g(p/q), which is
    p^k (p - d q) + (d-1) q^{k+1}, an exact integer with g's sign."""
    dq = d * q
    tail = (d - 1) * q ** (k + 1)
    return lambda p: p**k * (p - dq) + tail


def _float_ratio(d: int, k: int) -> float:
    """A float estimate of root/d, from Newton steps down from 1 on
    h(u) = g(d*u)/(d^{k+1} u^k) = u - 1 + c/u^k with c = (d-1)/d^{k+1}.
    h is convex and increasing from root/d on, so each step lands between
    root/d and the last iterate; once rounding stops the iterate from
    decreasing, the last one is kept.  No float of d or of a power of it
    is taken: c is one correctly rounded int division, 0.0 once d^{k+1}
    passes the float range."""
    c = (d - 1) / d ** (k + 1)
    u = 1.0
    while True:
        t = c * u**-k
        nxt = u - (u - 1 + t) / (1 - k * t / u)
        if not nxt < u:
            return u
        u = nxt


@dataclass(frozen=True)
class RootResult:
    """Dominant root of f, bracketed and certified in exact arithmetic.

    `lambda_` is the root as a float and `residual_g` is |g(root)|.  The
    sandwich d - 1/d^{k-1} < root < d - (d-1)/d^k is held only as exact
    Fractions: near d = k = 10 the gap between the root and its upper bound
    drops below float64 resolution, so containment is checked on these.
    """

    d: int
    k: int
    lambda_: float
    residual_g: float
    root_exact: Fraction
    lower_exact: Fraction
    upper_exact: Fraction


def char_root(d: int, k: int) -> RootResult:
    """The root of g in (d*k/(k+1), d), certified d - 1/d^{k-1} < root < d - (d-1)/d^k.

    The root reported is the midpoint of the cell that bisection of that
    bracket would end in.  The bracket is d/(k+1) wide and halves s times,
    for the s the tolerance asks for, so every bisection iterate is d*N/den
    with den = (k+1)*2^s and N an integer, and bisection ends in the unique
    cell [d*N/den, d*(N+1)/den] with G(N) < 0 <= G(N+1), where G(N) =
    den^{k+1} g(d*N/den) is an exact integer.  g is convex and increasing
    on the bracket, so a Newton step on G lands at or above the root from
    either side, and rounded up onto the grid it stays there: after at most
    one step from below, every step comes from above.  The steps start from
    a float estimate rounded up onto the grid in exact integers (den itself
    passes the float range once s > 1024), and stop at the first N + 1
    whose Newton step is under one cell and whose left neighbour has
    G(N) < 0.  So the cell, and every `RootResult` field, is the
    bisection's, reached in a few steps where bisection takes s.  The
    bracket, the sandwich and the residual are read off exact integers and
    the final containment off exact Fractions; the cell is narrow enough
    that |g| <= 1e-10 at its midpoint and the certified bracket cannot be
    crossed by it.
    """
    if d < 2 or k < 2:
        raise ValueError("char_root requires d >= 2 and k >= 2")
    if not (_scaled_g(d, k, k + 1)(d * k) < 0 < _scaled_g(d, k, 1)(d)):
        raise ArithmeticError("bisection bracket does not straddle the root")
    # lower = d - 1/d^{k-1} and upper = d - (d-1)/d^k over q = d^{k-1} and d^k
    q_lower, q_upper = d ** (k - 1), d**k
    g_lower = _scaled_g(d, k, q_lower)(d * q_lower - 1)
    g_upper = _scaled_g(d, k, q_upper)(d * q_upper - (d - 1))
    if not (g_lower < 0 < g_upper):
        raise ArithmeticError("sandwich bounds do not bracket the root")
    lower = Fraction(d * q_lower - 1, q_lower)
    upper = Fraction(d * q_upper - (d - 1), q_upper)
    # |g'| <= (2k+1)*d^k on [0, d]; keep the midpoint's residual below 1e-10
    # and keep the cell narrower than the root's exact distance to either
    # sandwich bound, which is at least |g(bound)| / slope_cap.  Each cap
    # a/b on the width d/((k+1)*2^s) asks for 2^s >= d*b/((k+1)*a).
    slope_cap = (2 * k + 1) * d**k
    caps = [
        (1, 10**13),
        (1, 10**10 * slope_cap),
        (-g_lower, 2 * slope_cap * q_lower ** (k + 1)),
        (g_upper, 2 * slope_cap * q_upper ** (k + 1)),
    ]
    s = (max(-(-d * b // ((k + 1) * a)) for a, b in caps) - 1).bit_length()
    den = (k + 1) << s
    d_den = d * den
    G = _scaled_g(d, k, den)  # G(d*N) is den^{k+1} g(d*N/den)
    # the float estimate rounded up onto the grid (N = den*root/d), kept inside
    # the bracket, where G's slope d*x^{k-1}*((k+1)*x - k*d*den) at x = d*N is positive
    a, b = _float_ratio(d, k).as_integer_ratio()
    top = min(max(-(-a * den // b), (k << s) + 1), (k + 1) << s)
    while True:
        x = d * top
        # the Newton step rounded up onto the grid: above the root from either side
        step = G(x) // (d * x ** (k - 1) * ((k + 1) * x - k * d_den))
        if step:
            top -= step
        elif G(x - d) < 0:
            break  # G(N) < 0 <= G(N+1) at N = top - 1: the bisection's cell
        else:
            top -= 1  # a step under one cell, but N = top - 1 is not below the root
    root = Fraction(d * (2 * top - 1), 2 * den)
    if not (lower < root < upper):
        raise ArithmeticError("bisection result escaped the certified sandwich")
    residual = _scaled_g(d, k, 2 * den)(d * (2 * top - 1))
    return RootResult(
        d=d,
        k=k,
        lambda_=float(root),
        residual_g=abs(residual) / (2 * den) ** (k + 1),
        root_exact=root,
        lower_exact=lower,
        upper_exact=upper,
    )


def dpll_bound_base(d: float, k: int) -> float:
    """Base of the branching solver's node bound, d - (d-1)/d^k.

    d may be a float, such as a domain of n^alpha values: d^-k underflows
    to 0 where a float d^k would overflow.
    """
    if d < 2 or k < 1:
        raise ValueError("dpll_bound_base requires d >= 2 and k >= 1")
    return d - (d - 1) * d**-k


def ppsz_bound_base(d: float, k: int) -> float:
    """Base of the randomized solver's time bound, d*((d-1)/d)^(1/k); d may be a float."""
    if d < 2 or k < 1:
        raise ValueError("ppsz_bound_base requires d >= 2 and k >= 1")
    return d * ((d - 1) / d) ** (1.0 / k)


@dataclass(frozen=True)
class BoundRow:
    d: int
    k: int
    char_root: float
    dpll_base: float
    ppsz_base: float
    smaller: str


def bound_table(d_values, k_values) -> list[BoundRow]:
    """Per-(d, k) bases with the winner flagged; rows ordered by (d, k)."""
    rows = []
    for d in d_values:
        for k in k_values:
            root = char_root(d, k)
            dpll = dpll_bound_base(d, k)
            ppsz = ppsz_bound_base(d, k)
            rows.append(
                BoundRow(
                    d=d,
                    k=k,
                    char_root=root.lambda_,
                    dpll_base=dpll,
                    ppsz_base=ppsz,
                    smaller="ppsz" if ppsz <= dpll else "dpll",
                )
            )
    return rows
