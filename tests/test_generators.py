import math
import random
import re
import tracemalloc

import pytest

from kcsp import core, generators
from kcsp.core import ParseError, _LimitExceeded, parse_instance
from kcsp import (
    CspInstance,
    gen_coloring,
    gen_latin,
    gen_model_rb,
    gen_nqueens,
    gen_uniform,
)

from bruteforce import brute_solutions


class TestGenUniform:
    def test_shape_and_determinism(self):
        inst = gen_uniform(6, 3, 2, 10, seed=42)
        assert (inst.n, inst.d, inst.k_max) == (6, 3, 2)
        assert len(inst.nogoods) == 10
        assert len(set(ng.pairs for ng in inst.nogoods)) == 10
        for ng in inst.nogoods:
            assert len(ng.pairs) == 2
            assert all(1 <= v <= 6 and 0 <= a < 3 for v, a in ng.pairs)
        assert gen_uniform(6, 3, 2, 10, seed=42) == inst
        assert gen_uniform(6, 3, 2, 10, seed=43) != inst

    def test_can_exhaust_the_whole_space(self):
        # C(3,2) * 2^2 = 12 distinct nogoods; asking for all of them works
        inst = gen_uniform(3, 2, 2, 12, seed=0)
        assert len(inst.nogoods) == 12
        assert brute_solutions(inst) == []

    @pytest.mark.parametrize(
        "args",
        [(3, 2, 2, 13, 0), (2, 2, 3, 1, 0), (3, 1, 2, 1, 0), (3, 2, 2, -1, 0)],
    )
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            gen_uniform(*args)


class TestGenModelRb:
    def test_domain_grows_with_n(self):
        inst = gen_model_rb(9, alpha=0.8, r=0.6, p=0.25, k=2, seed=1)
        assert inst.n == 9
        assert inst.d == round(9**0.8)  # 5.8 -> 6
        assert inst.k_max == 2
        assert gen_model_rb(9, alpha=0.8, r=0.6, p=0.25, k=2, seed=1) == inst

    def test_constraint_count_formula(self):
        n, r, p, k = 8, 0.7, 0.25, 2
        inst = gen_model_rb(n, alpha=0.5, r=r, p=p, k=k, seed=3)
        d = math.floor(n**0.5 + 0.5)
        constraints = math.floor(r * n * math.log(n) + 0.5)
        per_scope = math.floor(p * d**k + 0.5)
        expected = constraints * per_scope
        assert len(inst.nogoods) <= expected
        assert len(inst.nogoods) >= expected - 3  # dedup may merge a few

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=4, alpha=0.1, r=1.0, p=0.3, k=2, seed=0),  # d = round(4^0.1) = 1
            dict(n=9, alpha=0.5, r=1.0, p=0.01, k=2, seed=0),  # 0 nogoods per scope
            dict(n=9, alpha=0.5, r=1.0, p=1.0, k=2, seed=0),
            dict(n=2, alpha=1.0, r=1.0, p=0.3, k=3, seed=0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            gen_model_rb(**kwargs)


class TestGenColoring:
    def test_triangle_three_colors(self):
        inst = gen_coloring([(1, 2), (2, 3), (1, 3)], 3, 3)
        assert len(inst.nogoods) == 9
        solutions = brute_solutions(inst)
        assert len(solutions) == 6
        assert all(len(set(s)) == 3 for s in solutions)

    def test_triangle_two_colors_unsat(self):
        assert brute_solutions(gen_coloring([(1, 2), (2, 3), (1, 3)], 3, 2)) == []

    def test_edge_orientation_irrelevant(self):
        edges = [(1, 2), (3, 2), (4, 1), (2, 4), (2, 3)]  # the last repeats (3, 2)
        inst = gen_coloring(edges, 4, 3)
        assert inst == gen_coloring([(v, u) for u, v in edges], 4, 3)
        expected = [((min(e), c), (max(e), c)) for e in edges[:4] for c in range(3)]
        assert [ng.pairs for ng in inst.nogoods] == expected

    def test_rejects_self_loop_and_bad_vertex(self):
        with pytest.raises(ValueError, match="self-loop"):
            gen_coloring([(1, 1)], 2, 2)
        with pytest.raises(ValueError, match="out of range"):
            gen_coloring([(1, 3)], 2, 2)


class TestGenLatin:
    def test_order_one_is_trivial(self):
        inst = gen_latin(1)
        assert (inst.n, inst.d) == (1, 1)
        assert brute_solutions(inst) == [(0,)]

    def test_order_two(self):
        inst = gen_latin(2)
        assert (inst.n, inst.d) == (4, 2)
        solutions = brute_solutions(inst)
        assert sorted(solutions) == [(0, 1, 1, 0), (1, 0, 0, 1)]

    def test_order_three_square_count(self):
        # 12 Latin squares of order 3
        from kcsp import enumerate_solutions

        assert len(enumerate_solutions(gen_latin(3))) == 12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_latin(0)

    def test_matches_all_pairs_reference(self):
        # same nogoods in the same order, so files and solver runs are unchanged
        for N in range(1, 9):
            assert gen_latin(N) == reference_latin(N), N

    def test_peak_memory_per_nogood(self):
        # about 175 bytes a nogood at peak (CPython 3.11), with each (v, a) pair
        # one shared tuple; 451 when every nogood built two pairs of its own
        tracemalloc.start()
        try:
            inst = gen_latin(16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(inst.nogoods) == 61_440
        assert peak / len(inst.nogoods) < 260


def reference_latin(N: int) -> CspInstance:
    """gen_latin by testing every two cells for a shared row or column.  The
    nogoods are ordered by the shared line's index, the two cells' positions
    along it, the value, and a row before a column."""
    cells = [(r, c) for r in range(1, N + 1) for c in range(1, N + 1)]
    keyed = []
    for r1, c1 in cells:
        for r2, c2 in cells:
            if (r1, c1) < (r2, c2) and (r1 == r2 or c1 == c2):
                line, first, second, kind = (r1, c1, c2, 0) if r1 == r2 else (c1, r1, r2, 1)
                u, w = (r1 - 1) * N + c1, (r2 - 1) * N + c2
                for a in range(N):
                    keyed.append(((line, first, second, a, kind), ((u, a), (w, a))))
    keyed.sort()
    return CspInstance(N * N, N, [ng for _, ng in keyed])


def reference_nqueens(N: int) -> CspInstance:
    """gen_nqueens by testing every column pair (a, b) of every row pair."""
    nogoods = []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            for a in range(N):
                for b in range(N):
                    if a == b or abs(a - b) == j - i:
                        nogoods.append(((i, a), (j, b)))
    return CspInstance(N, N, nogoods)


class TestGenNQueens:
    @pytest.mark.parametrize("N,count", [(1, 1), (2, 0), (3, 0), (4, 2), (5, 10), (6, 4)])
    def test_classic_solution_counts(self, N, count):
        assert len(brute_solutions(gen_nqueens(N))) == count

    def test_matches_all_pairs_reference(self):
        # same nogoods in the same order, so files and solver runs are unchanged
        for N in range(1, 15):
            assert gen_nqueens(N) == reference_nqueens(N), N

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen_nqueens(0)


@pytest.mark.parametrize(
    "instance",
    [gen_latin(5), gen_nqueens(8), gen_coloring([(1, 2), (3, 2), (4, 1), (2, 4)], 4, 3)],
    ids=["latin", "nqueens", "coloring"],
)
def test_structured_generators_share_pairs(instance):
    # one tuple per distinct (v, a) pair, kept by the instance as the generator built it
    pairs = [pair for ng in instance.nogoods for pair in ng.pairs]
    assert len({id(pair) for pair in pairs}) == len(set(pairs))


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("gen_uniform", dict(n=6, d=3, k=2, m=20, seed=1)),
        ("gen_model_rb", dict(n=6, alpha=0.8, r=0.5, p=0.3, k=2, seed=1)),
        ("gen_coloring", dict(edges=[(1, 2), (2, 3), (1, 3), (1, 2)], num_vertices=3, d=3)),
        ("gen_latin", dict(N=4)),
        ("gen_nqueens", dict(N=7)),
    ],
)
def test_nogood_limit_counts_the_list_built(monkeypatch, name, kwargs):
    # the count checked up front is exactly the length of the list the generator builds
    built = []
    monkeypatch.setattr(generators, "CspInstance", lambda n, d, nogoods: built.append(len(nogoods)))
    generate = getattr(generators, name)
    generate(**kwargs)
    count = built[0]
    monkeypatch.setattr(generators, "_MAX_NOGOODS", count)
    generate(**kwargs)
    monkeypatch.setattr(generators, "_MAX_NOGOODS", count - 1)
    with pytest.raises(_LimitExceeded, match=f"^{count} nogoods exceed the limit of {count - 1}$"):
        generate(**kwargs)
    assert built == [count, count]


@pytest.mark.parametrize(
    "count, short",
    [
        (10**15 - 1, "999999999999999"),
        (10**15, "about 1.00e+15"),
        (1_234_999_999_999_999, "about 1.23e+15"),
        (1_235 * 10**12, "about 1.24e+15"),
        (9_995 * 10**20, "about 1.00e+24"),
        (10**400 - 1, "about 1.00e+400"),
        (2**5000, "about 1.41e+1505"),
    ],
)
def test_long_counts_print_short(count, short):
    # rounded half up to three digits in integers: 10^400 and 2^5000 overflow a float
    assert generators._short(count) == short


def reference_uniform(n: int, d: int, k: int, m: int, seed: int) -> CspInstance:
    """gen_uniform drawn with rng.sample and rng.randrange, as it once was."""
    rng = random.Random(seed)
    nogoods = []
    seen = set()
    while len(nogoods) < m:
        variables = rng.sample(range(1, n + 1), k)
        pairs = tuple(sorted((v, rng.randrange(d)) for v in variables))
        if pairs not in seen:
            seen.add(pairs)
            nogoods.append(pairs)
    return CspInstance(n, d, nogoods)


def reference_model_rb(n: int, alpha: float, r: float, p: float, k: int, seed: int) -> CspInstance:
    """gen_model_rb drawn with rng.sample and rng.randrange, as it once was."""
    d = math.floor(n**alpha + 0.5)
    per_constraint = math.floor(p * d**k + 0.5)
    rng = random.Random(seed)
    nogoods = []
    for _ in range(math.floor(r * n * math.log(n) + 0.5)):
        scope = sorted(rng.sample(range(1, n + 1), k))
        chosen = set()
        while len(chosen) < per_constraint:
            values = tuple(rng.randrange(d) for _ in scope)
            if values not in chosen:
                chosen.add(values)
                nogoods.append(tuple(zip(scope, values)))
    return CspInstance(n, d, nogoods)


class TestStreams:
    """The generators' own draw on getrandbits gives the stream of
    random.sample and randrange, so every seeded instance stays the same:
    sample's pool method up to n = 21 and its set method past it (past
    21 + 64 once k > 5), and value draws for d a power of two or not.  A
    Python release that changes how sample or randrange read the
    generator fails here."""

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in (6, 20, 21, 22, 23, 40) for k in (1, 2, 3, 6, 7) if k <= n]
    )
    def test_uniform_matches_sample_and_randrange(self, n, k):
        for d in (2, 3, 4, 8, 300):
            m = min(math.comb(n, k) * d**k, 60)
            for seed in (0, 20261020):
                assert gen_uniform(n, d, k, m, seed) == reference_uniform(n, d, k, m, seed)

    def test_uniform_set_method_past_a_grown_setsize(self):
        # k = 6 grows setsize to 85: n = 85 keeps the pool, n = 86 the set
        for n in (85, 86):
            assert gen_uniform(n, 3, 6, 40, seed=n) == reference_uniform(n, 3, 6, 40, n)

    @pytest.mark.parametrize(
        "args",
        [
            (9, 0.8, 0.6, 0.25, 2, 1),  # d = 6, pool scopes, 108 nogoods drawn, 106 kept
            (21, 0.5, 0.4, 0.2, 3, 2),  # d = 5, the last pool n
            (30, 0.5, 0.5, 0.3, 3, 3),  # d = 5, set scopes
            (25, 1.0, 0.1, 0.02, 2, 4),  # d = 25
            (16, 0.25, 0.3, 0.5, 6, 5),  # d = 2, k past 5
            (90, 0.16, 0.1, 0.1, 6, 6),  # d = 2, set scopes past a grown setsize
        ],
    )
    def test_model_rb_matches_sample_and_randrange(self, args):
        assert gen_model_rb(*args) == reference_model_rb(*args)


CANONICAL_BUILDS = [
    ("gen_uniform", dict(n=23, d=3, k=3, m=200, seed=1)),
    ("gen_model_rb", dict(n=9, alpha=0.8, r=0.6, p=0.25, k=2, seed=1)),  # repeats dropped
    ("gen_latin", dict(N=5)),
    ("gen_nqueens", dict(N=9)),
]


@pytest.mark.parametrize("name, kwargs", CANONICAL_BUILDS, ids=[name for name, _ in CANONICAL_BUILDS])
def test_canonical_generators_skip_the_recheck(monkeypatch, name, kwargs):
    # their nogoods are sorted and in range as built: the instance takes them
    # without calling _canonical (the streams above show it still drops repeats)
    generate = getattr(generators, name)
    expected = generate(**kwargs)

    def refuse(*args):
        raise AssertionError(f"_canonical called on {args[0]!r}")

    monkeypatch.setattr(core, "_canonical", refuse)
    assert generate(**kwargs) == expected


def test_other_inputs_still_checked(monkeypatch):
    # gen_coloring's nogoods, plain nogood lists and parsed lines still go
    # through _canonical, and it refuses with its messages
    calls = []
    canonical = core._canonical
    monkeypatch.setattr(core, "_canonical", lambda *args: calls.append(args) or canonical(*args))
    gen_coloring([(1, 2)], 2, 3)
    assert len(calls) == 3
    for build, message in [
        (lambda: gen_coloring([(1.0, 2)], 2, 3), "entry 1.0 is not an integer"),
        (lambda: CspInstance(2, 2, [((1, 0), (3, 1))]), "variable 3 out of range 1..2"),
        (lambda: CspInstance(2, 2, [[(2, 0), (2, 1)]]), "variable 2 repeated within nogood"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    with pytest.raises(ParseError, match="^line 3: variable 3 out of range 1..2$"):
        parse_instance("p csp 2 2\nn 1 1 0\nn 2 3 1 1 0\n")
    assert len(calls) == 3 + 3 + 2
