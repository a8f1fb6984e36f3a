"""Growth-rate constants for the two solvers.

The branching solver's node recurrence has characteristic polynomial
f(x) = x^k - (d-1)(x^{k-1} + ... + x + 1); multiplying by (x - 1) gives
g(x) = x^{k+1} - d*x^k + (d-1), which is strictly increasing past
d*k/(k+1) and keeps the same dominant root.  That root lies strictly
between d - 1/d^{k-1} and d - (d-1)/d^k, so the branching bound base
d - (d-1)/d^k is safe, and the randomized solver's base
d*((d-1)/d)^{1/k} is the smaller of the two for every d, k >= 2.

The root is found by bisection on dyadic rationals d*N/((k+1)*2^s), whose
sign tests run on exact integers; every inequality it reports is checked
on exact Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _g(x: Fraction, d: int, k: int) -> Fraction:
    return x ** (k + 1) - d * x**k + (d - 1)


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
    """Bisect g on (d*k/(k+1), d) and certify d - 1/d^{k-1} < root < d - (d-1)/d^k.

    The interval starts d/(k+1) wide and halves each step, so after the s
    steps the tolerance asks for, every iterate is d*N/den with den =
    (k+1)*2^s and N an integer.  The loop bisects N and reads the sign of
    g(d*N/den)*den^{k+1}, an exact integer, so it visits the same iterates
    an exact rational bisection would.  The bracket, the sandwich, the
    residual and the final containment are checked on exact Fractions;
    the final interval is narrow enough that |g| <= 1e-10 and the certified
    bracket cannot be crossed by the reported midpoint.
    """
    if d < 2 or k < 2:
        raise ValueError("char_root requires d >= 2 and k >= 2")
    lo = Fraction(d * k, k + 1)
    hi = Fraction(d)
    if not (_g(lo, d, k) < 0 < _g(hi, d, k)):
        raise ArithmeticError("bisection bracket does not straddle the root")
    lower = d - Fraction(1, d ** (k - 1))
    upper = d - Fraction(d - 1, d**k)
    g_lower = _g(lower, d, k)
    g_upper = _g(upper, d, k)
    if not (g_lower < 0 < g_upper):
        raise ArithmeticError("sandwich bounds do not bracket the root")
    # |g'| <= (2k+1)*d^k on [0, d]; keep the midpoint's residual below 1e-10
    # and keep the interval narrower than the root's exact distance to either
    # sandwich bound, which is at least |g(bound)| / slope_cap.
    slope_cap = (2 * k + 1) * d**k
    tol = min(
        Fraction(1, 10**13),
        Fraction(1, 10**10 * slope_cap),
        -g_lower / (2 * slope_cap),
        g_upper / (2 * slope_cap),
    )
    # the least s with d/((k+1)*2^s) <= tol: where halving from width d/(k+1) stops
    s = (math.ceil(Fraction(d, k + 1) / tol) - 1).bit_length()
    den = (k + 1) << s
    lo_n, hi_n = k << s, (k + 1) << s
    d_den = d * den
    offset = (d - 1) * den ** (k + 1)
    for _ in range(s):
        mid_n = (lo_n + hi_n) >> 1
        x = d * mid_n
        if x**k * (x - d_den) + offset < 0:
            lo_n = mid_n
        else:
            hi_n = mid_n
    root = Fraction(d * (lo_n + hi_n), 2 * den)
    if not (lower < root < upper):
        raise ArithmeticError("bisection result escaped the certified sandwich")
    return RootResult(
        d=d,
        k=k,
        lambda_=float(root),
        residual_g=float(abs(_g(root, d, k))),
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
