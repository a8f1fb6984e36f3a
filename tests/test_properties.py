"""Hypothesis properties: the instance text format round-trips, and the CLI
answers any flag values with a documented exit code, at most one error line
and no traceback.  Draws are bounded (n <= 12, at most 8 nogoods or edges,
small sweeps) so that no example builds a large instance; derandomize keeps
every run on the same examples."""

import contextlib
import io
import math

from hypothesis import given, settings, strategies as st

from kcsp import CspInstance, parse_instance, serialize_instance
from kcsp.cli import cli_dispatch

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
