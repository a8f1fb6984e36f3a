import math
from fractions import Fraction

import pytest

from kcsp import (
    RootResult,
    bound_table,
    char_root,
    dpll_bound_base,
    ppsz_bound_base,
)

from conftest import checks

# g(x) = x^{k+1} - d x^k + (d-1), the benchmark's copy, not the one char_root uses
g = checks.g_poly

GRID = [(d, k) for d in range(2, 11) for k in range(2, 11)]


def _f(x: Fraction, d: int, k: int) -> Fraction:
    """The recurrence's characteristic polynomial x^k - (d-1)(x^{k-1} + ... + 1)."""
    return x**k - (d - 1) * sum(x**i for i in range(k))


def _tolerance(d: int, k: int) -> Fraction:
    """The width at which char_root's bisection stops."""
    lower = d - Fraction(1, d ** (k - 1))
    upper = d - Fraction(d - 1, d**k)
    slope_cap = (2 * k + 1) * d**k
    return min(
        Fraction(1, 10**13),
        Fraction(1, 10**10 * slope_cap),
        -g(lower, d, k) / (2 * slope_cap),
        g(upper, d, k) / (2 * slope_cap),
    )


def reference_char_root(d: int, k: int) -> RootResult:
    """char_root's bisection with every iterate a Fraction: halve (dk/(k+1), d)
    until it is at most tol wide, testing the sign of g at each midpoint."""
    lo, hi = Fraction(d * k, k + 1), Fraction(d)
    lower = d - Fraction(1, d ** (k - 1))
    upper = d - Fraction(d - 1, d**k)
    tol = _tolerance(d, k)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if g(mid, d, k) < 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    return RootResult(
        d=d,
        k=k,
        lambda_=float(root),
        residual_g=float(abs(g(root, d, k))),
        root_exact=root,
        lower_exact=lower,
        upper_exact=upper,
    )


class TestCharRoot:
    def test_golden_ratio_anchor(self):
        assert char_root(2, 2).lambda_ == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)

    def test_tribonacci_anchor(self):
        assert char_root(2, 3).lambda_ == pytest.approx(1.8392867552141611, abs=1e-12)

    def test_quadratic_anchor(self):
        # k=2: f = x^2 - (d-1)(x+1), root (d-1+sqrt((d-1)(d+3)))/2
        for d in range(2, 8):
            expected = ((d - 1) + math.sqrt((d - 1) * (d + 3))) / 2
            assert char_root(d, 2).lambda_ == pytest.approx(expected, abs=1e-12)

    def test_residuals_tiny_on_grid(self):
        for d, k in GRID:
            result = char_root(d, k)
            assert abs(float(_f(result.root_exact, d, k))) <= 1e-9, (d, k)
            assert abs(result.residual_g) <= 1e-9, (d, k)

    def test_sandwich_strict_in_exact_arithmetic(self):
        for d, k in GRID:
            result = char_root(d, k)
            assert result.lower_exact < result.root_exact < result.upper_exact, (d, k)
            # the exact bracket really straddles the root of g
            assert g(result.lower_exact, d, k) < 0 < g(result.upper_exact, d, k)

    def test_sandwich_at_float_precision_with_margin(self):
        for d, k in GRID:
            result = char_root(d, k)
            assert float(result.lower_exact) < result.lambda_ + 1e-12
            assert result.lambda_ < float(result.upper_exact) + 1e-12

    def test_monotone_in_d_and_k(self):
        roots = {(d, k): char_root(d, k).root_exact for d, k in GRID}
        for d, k in GRID:
            if (d + 1, k) in roots:
                assert roots[d, k] < roots[d + 1, k]
            if (d, k + 1) in roots:
                assert roots[d, k] < roots[d, k + 1]

    def test_reported_root_nearly_zeroes_f(self):
        result = char_root(5, 4)
        x = result.root_exact
        assert abs(float(_f(x, 5, 4))) <= 1e-9
        assert g(x, 5, 4) == (x - 1) * _f(x, 5, 4)

    def test_matches_fraction_bisection(self):
        # the integer sign test visits the same iterates: every field is equal
        for d in range(2, 17):
            for k in range(2, 17):
                assert char_root(d, k) == reference_char_root(d, k), (d, k)

    @pytest.mark.parametrize("d, k", [(2, 200), (1000, 40), (50, 100)])
    def test_root_is_the_bisection_cell_midpoint(self, d, k):
        # bisection from width d/(k+1) down to the tolerance ends in a cell
        # [d*N/den, d*(N+1)/den], den = (k+1)*2^s, with g < 0 at its left end
        # and g >= 0 at its right end; (50, 100) has s > 1024, so den is past
        # the float range.  The cell is checked, not bisected to.
        tol, width, s = _tolerance(d, k), Fraction(d, k + 1), 0
        while width > tol:
            width, s = width / 2, s + 1
        den = (k + 1) << s
        result = char_root(d, k)
        twice_n_plus_1 = result.root_exact * 2 * den / d
        assert twice_n_plus_1.denominator == 1 and twice_n_plus_1.numerator % 2 == 1
        N = twice_n_plus_1.numerator // 2
        assert k << s <= N < (k + 1) << s
        assert g(Fraction(d * N, den), d, k) < 0 <= g(Fraction(d * (N + 1), den), d, k)
        assert result.lambda_ == float(result.root_exact)
        assert result.residual_g == float(abs(g(result.root_exact, d, k)))
        assert result.lower_exact < result.root_exact < result.upper_exact

    @pytest.mark.parametrize("d, k", [(2, 2), (3, 5), (10, 10), (5, 20)])
    def test_same_cell_from_any_start(self, monkeypatch, d, k):
        # Newton steps reach the cell from a start below the root, far below
        # it (clamped to the bracket), or at the bracket's top
        expected = char_root(d, k)
        ratio = expected.lambda_ / d
        for start in (ratio * (1 - 1e-12), ratio * (1 - 1e-3), k / (k + 1), 0.0, 1.0):
            monkeypatch.setattr("kcsp.analysis._float_ratio", lambda d, k: start)
            assert char_root(d, k) == expected, start

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            char_root(1, 2)
        with pytest.raises(ValueError):
            char_root(2, 1)


class TestBoundBases:
    def test_dpll_base_values(self):
        assert dpll_bound_base(2, 2) == 1.75
        assert dpll_bound_base(2, 3) == 1.875
        assert dpll_bound_base(3, 2) == pytest.approx(25 / 9, rel=1e-15)

    def test_ppsz_base_values(self):
        assert ppsz_bound_base(2, 3) == pytest.approx(2 ** (2 / 3), rel=1e-15)
        assert ppsz_bound_base(3, 2) == pytest.approx(math.sqrt(6), rel=1e-15)
        for d in range(2, 6):
            assert ppsz_bound_base(d, 1) == pytest.approx(d - 1, rel=1e-12)

    def test_ppsz_base_binary_domain_identity(self):
        for k in range(1, 7):
            assert ppsz_bound_base(2, k) == pytest.approx(2 ** (1 - 1 / k), rel=1e-12)

    def test_root_below_dpll_base_exactly(self):
        for d, k in GRID:
            result = char_root(d, k)
            assert result.root_exact < d - Fraction(d - 1, d**k), (d, k)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            dpll_bound_base(1, 2)
        with pytest.raises(ValueError):
            ppsz_bound_base(2, 0)


class TestVariableDomainBound:
    """The bounds' logs at a domain of d = n^alpha values, n ln(base(n^alpha, k)),
    as `kcsp analyze --alpha A --n N` prints them; d is a float here."""

    def test_small_alpha_one_anchor(self):
        assert 3 * math.log(dpll_bound_base(3**1.0, 2)) == pytest.approx(
            3 * math.log(25 / 9), rel=1e-12
        )

    def test_below_trivial_bound(self):
        for n, alpha in [(3, 1.0), (20, 0.5), (100, 2.0)]:
            for k in (2, 3):
                assert n * math.log(dpll_bound_base(n**alpha, k)) < alpha * n * math.log(n)

    def test_large_domain_and_arity_stay_finite(self):
        # a float d^k would overflow at d = 10^9, k = 200: d^-k underflows instead
        assert dpll_bound_base(1e9, 200) == 1e9
        assert 0 < ppsz_bound_base(1e9, 200) < 1e9

    def test_rejects_bad_parameters(self):
        for d in (1.9, 1.0, -4.0):
            with pytest.raises(ValueError):
                dpll_bound_base(d, 2)
            with pytest.raises(ValueError):
                ppsz_bound_base(d, 2)


class TestBoundTable:
    def test_rows_and_ordering(self):
        rows = bound_table(range(2, 5), range(2, 5))
        assert len(rows) == 9
        assert [(r.d, r.k) for r in rows] == [(d, k) for d in (2, 3, 4) for k in (2, 3, 4)]

    def test_known_rows(self):
        rows = {(r.d, r.k): r for r in bound_table([2], [2, 3])}
        assert rows[2, 2].char_root == pytest.approx(1.6180339887, abs=1e-9)
        assert rows[2, 2].dpll_base == 1.75
        assert rows[2, 2].ppsz_base == pytest.approx(math.sqrt(2), rel=1e-12)
        assert rows[2, 3].smaller == "ppsz"

    def test_root_beats_dpll_base_in_every_row(self):
        for row in bound_table(range(2, 7), range(2, 7)):
            assert row.char_root < row.dpll_base + 1e-12
            assert row.smaller in ("dpll", "ppsz")

    def test_ppsz_smaller_throughout_grid(self):
        assert all(row.smaller == "ppsz" for row in bound_table(range(2, 11), range(2, 11)))
