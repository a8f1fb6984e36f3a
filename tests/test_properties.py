"""Hypothesis properties: the instance text format round-trips, a nogood
in any form is canonicalized as `_canonical`'s docstring says, DPLL
agrees with the oracle and with the reference search on the counter
kernel, isolation degrees match the definition on point sets with
n <= 64, and the CLI answers any flag values and any instance file with a
documented exit code, at most one error line and no traceback.  Draws are
bounded (n <= 12, at most 12 nogoods or 8 edges, or 109 nogoods for the
DPLL property's threshold instances, small sweeps) so that no example
builds a large instance; derandomize keeps every run on the same
examples."""

import contextlib
import io
import math
import operator
import os
import tempfile
import warnings
from collections.abc import Iterable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kcsp import (
    CspInstance,
    enumerate_solutions,
    gen_coloring,
    isolation_degrees,
    parse_instance,
    save_instance,
    serialize_instance,
    solve_dpll,
)
from kcsp.cli import _parse_range, cli_dispatch

from bruteforce import reference_dpll
from conftest import checks

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(1, n), st.integers(0, d - 1))
    nogood = st.lists(pair, max_size=4, unique_by=lambda p: p[0])
    return CspInstance(n, d, draw(st.lists(nogood, max_size=8)))


@SETTINGS
@given(instances())
def test_parse_inverts_serialize(instance):
    assert parse_instance(serialize_instance(instance)) == instance


def reference_canonical(pairs, n, d):
    """`_canonical` as its docstring defines it, without the pass-through:
    the nogood must be iterable, and each item in the order given is checked
    for being two entries, then for integer entries, its variable in 1..n,
    its value in 0..d-1 and a variable named before; then the pairs are
    sorted by variable."""
    if not isinstance(pairs, Iterable):
        raise ValueError(f"nogood {pairs!r} is not an iterable of pairs")
    seen, canonical = set(), []
    for pair in pairs:
        if not isinstance(pair, Iterable) or len(list(pair)) != 2:
            raise ValueError(f"pair {pair!r} is not a (variable, value) pair")
        v, a = pair
        for entry in (v, a):
            try:
                operator.index(entry)
            except TypeError:
                raise ValueError(f"entry {entry!r} is not an integer") from None
        v, a = operator.index(v), operator.index(a)
        if not 1 <= v <= n:
            raise ValueError(f"variable {v} out of range 1..{n}")
        if not 0 <= a < d:
            raise ValueError(f"value {a} out of range 0..{d - 1}")
        if v in seen:
            raise ValueError(f"variable {v} repeated within nogood")
        seen.add(v)
        canonical.append((v, a))
    return tuple(sorted(canonical))


ENTRY_TYPES = [int, int, bool, np.int64, np.int32, float]


@st.composite
def raw_nogoods(draw):
    """One nogood over n <= 6 variables and d <= 4 values as a caller might
    give it: a tuple or a list of tuple or list pairs, sorted or not, its
    variables from 0..n+1 (repeats allowed), its values from -1..d, and each
    entry an int, a bool (for 0 and 1), a numpy int or a float.  Half the
    draws are tuples of tuples of exact ints, the form the pass-through
    takes, so that there only the order and the ranges decide; of the rest,
    one in eight holds an item of one or three entries or a bare int, or
    is the int 5 in place of a nogood."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    variables = draw(st.lists(st.integers(0, n + 1), max_size=4, unique=draw(st.booleans())))
    if draw(st.booleans()):
        variables.sort()
    exact = draw(st.booleans())

    def entry(x):
        kind = int if exact else draw(st.sampled_from(ENTRY_TYPES))
        return kind(x) if kind is not bool or x in (0, 1) else x

    container = st.just(tuple) if exact else st.sampled_from([tuple, tuple, list])
    pairs = [draw(container)((entry(v), entry(draw(st.integers(-1, d))))) for v in variables]
    if not exact and draw(st.integers(0, 7)) == 0:
        # one draw in sixteen has an item that is not a pair, or is no nogood at all
        malformed = draw(st.sampled_from([(1,), (1, 0, 1), [1, 0, 1], 1, None]))
        if malformed is None:
            return n, d, 5
        pairs.insert(draw(st.integers(0, len(pairs))), malformed)
    return n, d, draw(container)(pairs)


@settings(SETTINGS, max_examples=400)
@given(raw_nogoods())
def test_nogoods_canonicalized_as_documented(case):
    n, d, nogood = case
    try:
        expected = reference_canonical(nogood, n, d)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            CspInstance(n, d, [nogood])
        assert str(info.value) == str(exc)
        return
    pairs = CspInstance(n, d, [nogood]).nogoods[0].pairs
    assert pairs == expected
    assert type(pairs) is tuple and {type(p) for p in pairs} <= {tuple}
    assert {type(x) for p in pairs for x in p} <= {int}
    # a nogood given in canonical form is kept as the same object
    canonical_form = type(nogood) is tuple and all(
        type(p) is tuple and type(p[0]) is int and type(p[1]) is int for p in nogood
    )
    assert (pairs is nogood) == (canonical_form and nogood == expected)


@st.composite
def search_instances(draw):
    """Half the draws: n <= 8, d <= 4, at most 11 nogoods of arity 1..4.
    The other half: 6 <= n <= 12 and (d, k) one of (2, 2), (2, 3), (3, 2),
    with half to one and a half times the nogoods per variable near which
    such instances turn unsatisfiable, so that some searches visit tens of
    nodes.  One instance in eight also has an arity-0 nogood."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        d = draw(st.integers(1, 4))
        pair = st.tuples(st.integers(1, n), st.integers(0, d - 1))
        nogood = st.lists(pair, min_size=1, max_size=4, unique_by=lambda p: p[0])
        count = draw(st.integers(0, 11))
        nogoods = draw(st.lists(nogood, min_size=count, max_size=count))
    else:
        d, k, per_variable = draw(st.sampled_from([(2, 2, 1.0), (2, 3, 4.3), (3, 2, 6.0)]))
        n = draw(st.integers(6, 12))
        count = draw(st.integers(int(n * per_variable / 2), int(n * per_variable * 1.5)))
        # k pair codes (v - 1) * d + a per nogood; a repeated variable keeps
        # its first value, so a few nogoods are narrower than k
        codes = draw(st.lists(st.integers(0, n * d - 1), min_size=count * k, max_size=count * k))
        nogoods = []
        for first in range(0, len(codes), k):
            pairs = {}
            for code in codes[first : first + k]:
                pairs.setdefault(1 + code // d, code % d)
            nogoods.append(list(pairs.items()))
    if draw(st.integers(0, 7)) == 7:
        nogoods.insert(draw(st.integers(0, len(nogoods))), [])
    return CspInstance(n, d, nogoods)


@settings(SETTINGS, max_examples=200)
@given(search_instances())
def test_dpll_agrees_with_the_oracle_and_the_counter_kernel_search(instance):
    stats = solve_dpll(instance)
    assert (stats.status == "SAT") == (len(enumerate_solutions(instance)) > 0)
    got = (stats.status, stats.assignment, stats.nodes, stats.max_depth)
    assert got == reference_dpll(instance)

@st.composite
def point_lists(draw):
    """Up to 24 points in {0..d-1}^n, n <= 64 and d <= 12, each at most two
    coordinates from one of up to three centres, then every value of one or
    two coordinates of a centre (so that some dimensions are not critical),
    then up to four repeats, shuffled."""
    n = draw(st.integers(1, 64))
    d = draw(st.integers(1, 12))
    value = st.integers(0, d - 1)
    centres = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=3))
    points = []
    for _ in range(draw(st.integers(1, 24))):
        point = list(draw(st.sampled_from(centres)))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
            point[i] = draw(value)
        points.append(tuple(point))
    centre = draw(st.sampled_from(centres))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        points += [(*centre[:i], a, *centre[i + 1 :]) for a in range(d)]
    points += draw(st.lists(st.sampled_from(points), max_size=4))
    return draw(st.permutations(points)), n, d


@SETTINGS
@given(point_lists(), st.booleans())
def test_isolation_degrees_match_the_definition(case, as_iterator):
    points, n, d = case
    expected = checks.isolation_by_definition(points, n, d)
    assert isolation_degrees(iter(points) if as_iterator else points, n, d) == expected


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
@pytest.mark.parametrize("n, d", [(40, 3), (41, 3), (64, 2)])
def test_isolation_degrees_on_numpy_rows_past_int64(n, d, dtype):
    # d^n >= 2^63: numpy scalars in the code arithmetic would wrap or raise
    rng = np.random.default_rng(n * d)
    centre = rng.integers(0, d, n)
    rows = [centre.copy() for _ in range(12)]
    for row in rows[1:]:
        row[rng.integers(0, n, 2)] = rng.integers(0, d, 2)
    for i in (0, n // 2, n - 1):
        for a in range(d):
            rows.append(centre.copy())
            rows[-1][i] = a
    rows = np.array(rows, dtype=dtype)
    points = [tuple(map(int, row)) for row in rows]
    expected = checks.isolation_by_definition(points, n, d)
    assert isolation_degrees(points, n, d) == expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert isolation_degrees(rows, n, d) == expected
        assert isolation_degrees(list(rows), n, d) == expected


def _flag(name, values, always=False):
    """["--name=value"], or one time in eight nothing: a missing flag.  The
    "=" lets a value such as "-inf" reach the flag's own parser."""
    present = st.just(True) if always else st.integers(0, 7).map(bool)
    return st.tuples(present, values).map(
        lambda draw: [f"--{name}={draw[1]}"] if draw[0] else []
    )


def _argv(*parts):
    return st.tuples(*parts).map(lambda chunks: [word for chunk in chunks for word in chunk])


# each range holds mostly valid values and one or two past the edge
small = st.integers(0, 12)
fraction = st.floats(-0.1, 1.1, allow_nan=False).map(lambda x: round(x, 3))


@st.composite
def coloring_flags(draw):
    vertices = draw(small)
    # endpoints 1..vertices, plus one past each end
    edge = st.tuples(st.integers(0, vertices + 1), st.integers(0, vertices + 1))
    edges = draw(st.lists(edge, min_size=1, max_size=8))
    return ["--vertices", str(vertices), "--edges", ",".join(f"{u}-{v}" for u, v in edges)]


gen_argv = st.one_of(
    _argv(st.just(["gen", "uniform"]), _flag("n", small), _flag("d", st.integers(1, 8)),
          _flag("k", st.integers(0, 4)), _flag("m", st.integers(-1, 40)),
          _flag("seed", st.integers(0, 2**64))),
    _argv(st.just(["gen", "model-rb"]), _flag("n", small), _flag("alpha", fraction),
          _flag("r", fraction), _flag("p", fraction), _flag("k", st.integers(1, 2)),
          _flag("seed", st.integers(0, 99))),
    _argv(st.just(["gen", "coloring"]), coloring_flags(), _flag("d", st.integers(1, 8))),
    _argv(st.sampled_from([["gen", "latin"], ["gen", "nqueens"]]),
          _flag("size", st.integers(-1, 8))),
)
n_range = st.tuples(small, st.integers(0, 3)).map(lambda r: f"{r[0]}..{r[0] + r[1]}")
growth_argv = _argv(
    # --n and --per-n always: their defaults sweep 100 instances up to n = 12
    st.just(["bench", "growth"]), _flag("n", n_range, always=True),
    _flag("per-n", st.integers(0, 3), always=True),
    _flag("d", st.integers(1, 4)), _flag("k", st.integers(1, 4)),
    _flag("m-per-n", st.one_of(st.floats(-1, 6, allow_nan=False).map(lambda x: round(x, 2)),
                               st.sampled_from([math.nan, math.inf, -math.inf]))),
    _flag("seed", st.integers(0, 99)),
)
verify_argv = st.one_of(
    _argv(st.just(["verify", "lemma1"]), _flag("max-n", st.integers(-1, 4))),
    # --subsets always: its default is 1,000 subsets per cell
    _argv(st.just(["verify", "lemma2"]), _flag("subsets", st.integers(-1, 8), always=True),
          _flag("seed", st.integers(0, 99))),
)


def _check_documented_answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    assert code in (0, 1, 2, 3), code
    lines = err.getvalue().splitlines()
    assert sum("error:" in line for line in lines) <= 1, lines
    assert not any("Traceback" in line for line in lines), lines
    if code in (0, 1):
        assert lines == []
    return code, out.getvalue()


@SETTINGS
@given(gen_argv)
def test_gen_answers_any_flag_values_with_a_documented_code(argv):
    _check_documented_answer(argv)


@SETTINGS
@given(growth_argv)
def test_bench_growth_answers_any_flag_values_with_a_documented_code(argv):
    _check_documented_answer(argv)


@SETTINGS
@given(verify_argv)
def test_verify_answers_any_flag_values_with_a_documented_code(argv):
    _check_documented_answer(argv)


float_values = st.one_of(st.floats(-1, 3, allow_nan=False).map(lambda x: round(x, 3)),
                         st.sampled_from([math.nan, math.inf, -math.inf]))
file_argv = st.one_of(
    _argv(st.just(["solve"]), _flag("alg", st.sampled_from(["dpll", "ppsz", "brute", "walk"])),
          _flag("seed", st.integers(-1, 2**64)), _flag("max-repeats", st.integers(-2, 8))),
    _argv(st.just(["oracle"]), _flag("cap", st.integers(-3, 36))),
)
analyze_argv = _argv(
    st.just(["analyze"]), _flag("d", n_range), _flag("k", n_range),
    _flag("alpha", float_values), _flag("n", st.integers(-1, 12)),
)


def _value(argv, flag):
    """The text given as --flag=text in argv, or None."""
    for word in argv:
        if word.startswith(f"--{flag}="):
            return word.partition("=")[2]
    return None


@pytest.fixture(scope="module")
def small_instances(tmp_path_factory):
    """The triangle 3-coloring (SAT, 3^3 points) and an UNSAT 3-variable
    instance, as files."""
    folder = tmp_path_factory.mktemp("instances")
    paths = {}
    for name, instance in [
        ("sat", gen_coloring([(1, 2), (2, 3), (1, 3)], 3, 3)),
        ("unsat", CspInstance(3, 2, [[(1, 0), (2, 0)], [(1, 1)], [(2, 1), (3, 0)], [(3, 1)]])),
    ]:
        paths[name] = str(folder / f"{name}.csp")
        save_instance(instance, paths[name])
    return paths


@SETTINGS
@given(file_argv, st.sampled_from(["sat", "unsat"]))
def test_solve_and_oracle_answer_any_flag_values_with_a_documented_code(
    small_instances, argv, name
):
    code, _ = _check_documented_answer(argv + [small_instances[name]])
    if any(value is not None and int(value) < 1
           for value in (_value(argv, "cap"), _value(argv, "max-repeats"))):
        assert code == 2, argv


@SETTINGS
@given(analyze_argv)
def test_analyze_answers_any_flag_values_with_a_documented_code(argv):
    code, out = _check_documented_answer(argv)
    d, k, alpha, n = (_value(argv, flag) for flag in ("d", "k", "alpha", "n"))
    if alpha is not None and not math.isfinite(float(alpha)):
        assert code == 2, argv
    elif (alpha is None) != (n is None):
        assert code == 2, argv
    elif alpha is not None and (int(n) < 2 or int(n) ** float(alpha) < 2):
        assert code == 2, argv
    elif d is not None and k is not None and min(_parse_range(d) + _parse_range(k)) >= 2:
        assert code == 0, argv
        for line in out.splitlines()[1:]:
            cells = line.split(",")[6:]
            assert len(cells) == (2 if alpha is not None else 0), line
            assert all(math.isfinite(float(cell)) for cell in cells), line


@st.composite
def near_grammar_files(draw):
    """A well-formed instance file, then up to two of its tokens replaced by
    a number past the edge of its range, another variable, a word, an empty
    token (which shifts the pairs) or a byte that is not UTF-8; one file in
    eight has its header last.  d^n <= 4096, so the oracle answers at once."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, max(m for m in range(1, 13) if d**m <= 4096)))
    lines = [[b"p", b"csp", str(n).encode(), str(d).encode()]]
    for _ in range(draw(st.integers(0, 8))):
        variables = draw(st.lists(st.integers(1, n), max_size=4, unique=True))
        words = [b"n", str(len(variables)).encode()]
        for v in variables:
            words += [str(v).encode(), str(draw(st.integers(0, d - 1))).encode()]
        lines.append(words)
    swaps = [b"0", b"-1", b"1", str(n + 1).encode(), str(d).encode(), b"x", b"1.5", b"",
             b"\xff", b"\xc3"]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        words = draw(st.sampled_from(lines))
        words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(swaps))
    text = [b" ".join(words) for words in lines]
    text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from([b"", b"# c", b"  "])))
    if draw(st.sampled_from(range(8))) == 7:
        text.reverse()
    return draw(st.sampled_from([b"\n", b"\r\n"])).join(text)


instance_files = st.one_of(
    near_grammar_files(),
    near_grammar_files(),
    st.binary(max_size=64),
    st.binary(max_size=16).map(lambda tail: b"p csp 3 2\n" + tail),
)
file_commands = st.sampled_from([
    ["solve", "--alg", "dpll"],
    ["solve", "--alg", "ppsz", "--max-repeats", "4"],
    ["solve", "--alg", "brute"],
    ["oracle"],
])


@settings(SETTINGS, max_examples=100)
@given(file_commands, instance_files)
def test_instance_files_get_exit_2_exactly_when_the_parser_refuses_them(command, data):
    try:
        parse_instance(data)
        refused = False
    except ValueError:
        refused = True
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.csp")
        with open(path, "wb") as handle:
            handle.write(data)
        code, _ = _check_documented_answer(command + [path])
    # a file the parser accepts is small here: solved or refuted, never a limit
    assert code == 2 if refused else code in (0, 1), (code, data)
