import hashlib
import json
import math
import time
import tracemalloc

import pytest

import kcsp.cli
import kcsp.dpll
from kcsp import (
    CspInstance,
    dpll_bound_base,
    enumerate_solutions,
    parse_instance,
    ppsz_bound_base,
    save_instance,
)
from kcsp.cli import _parse_range, build_parser, cli_dispatch
from kcsp.harness import corpus
from kcsp.version import __version__


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_flag_refused(code, out, err, flag):
    """argparse's answer to a bad flag value: exit 2, nothing on stdout, and
    a usage block with one error line that names the flag."""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert (code, out) == (2, "")
    assert len(errors) == 1 and f"argument {flag}:" in errors[0], err


@pytest.fixture()
def triangle_path(tmp_path):
    path = tmp_path / "triangle.csp"
    code = cli_dispatch(
        ["gen", "coloring", "--edges", "1-2,2-3,1-3", "--vertices", "3", "--d", "3",
         "--out", str(path)]
    )
    assert code == 0
    return str(path)


@pytest.fixture()
def unsat_path(tmp_path):
    path = tmp_path / "unsat.csp"
    save_instance(
        CspInstance(1, 2, [[(1, 0)], [(1, 1)]]), path
    )
    return str(path)


class TestDispatch:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_handler_looked_up_at_call_time(self, capsys, monkeypatch, triangle_path):
        # a wrapper put on the module attribute after the parser exists, as
        # bench/tracing.py installs one, is what the next dispatch runs
        assert run(capsys, "solve", "--alg", "dpll", triangle_path)[0] == 0
        seen = []
        monkeypatch.setattr(kcsp.cli, "_cmd_solve", lambda args: seen.append(args.alg) or 7)
        assert run(capsys, "solve", "--alg", "brute", triangle_path)[0] == 7
        assert seen == ["brute"]

    def test_defaults_are_immutable(self):
        # every dispatch shares the cached parser's default objects
        args = build_parser().parse_args(["bench", "growth"])
        assert args.n == (8, 9, 10, 11, 12)


def json_payload(text):
    """The payload of a JSON output, after checking its layout: a `{` line,
    one line per top-level key, in the payload's key order, and a `}` line."""
    lines = text.split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""], text
    body = lines[1:-2]
    assert all(line.startswith('  "') for line in body)
    assert [line.endswith(",") for line in body] == [True] * (len(body) - 1) + [False]
    entries = [json.loads("{" + line.removesuffix(",") + "}") for line in body]
    payload = json.loads(text)
    assert [key for entry in entries for key in entry] == list(payload)
    return payload


@pytest.fixture()
def c_encoder_only(monkeypatch):
    """Make json's pure-Python encoder raise, as an `indent` would call it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a JSON write fell back to the pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)


class TestJsonOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--alg", "ppsz", "--seed", "3", "--stats", "OUT", "TRIANGLE"],
            ["solve", "--alg", "dpll", "--stats", "OUT", "TRIANGLE"],
            ["oracle", "--out", "OUT", "TRIANGLE"],
            ["verify", "lemma1", "--max-n", "4", "--out", "OUT"],
            ["verify", "lemma2", "--subsets", "5", "--out", "OUT"],
            ["bench", "prob", "--trials", "200", "--out", "OUT"],
            ["bench", "growth", "--n", "8..10", "--per-n", "4", "--seed", "2", "--out", "OUT"],
        ],
        ids=["solve-ppsz", "solve-dpll", "oracle", "lemma1", "lemma2", "prob", "growth"],
    )
    def test_every_write_uses_the_c_encoder(self, capsys, tmp_path, triangle_path,
                                            c_encoder_only, argv):
        path = tmp_path / "out.json"
        argv = [{"OUT": str(path), "TRIANGLE": triangle_path}.get(arg, arg) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        payload = json_payload(path.read_text())
        if argv[0] == "solve":
            assert json_payload(out) == {**payload, "elapsed_ms": json.loads(out)["elapsed_ms"]}
        elif argv[0] != "oracle":
            assert out == f"{payload['experiment']}: {payload['verdict']}\n"

    def test_oracle_file_bytes_pinned(self, capsys, tmp_path):
        instance_path = tmp_path / "one.csp"
        instance_path.write_text("p csp 2 2\nn 1 1 0\nn 2 1 1 2 0\n")
        path = tmp_path / "oracle.json"
        assert run(capsys, "oracle", "--out", str(path), str(instance_path))[0] == 0
        assert path.read_bytes() == (
            "{\n"
            f'  "tool_version": "{__version__}",\n'
            '  "subcommand": "oracle",\n'
            '  "result": "SAT",\n'
            '  "solution_count": 1,\n'
            '  "solutions": [[1, 1]],\n'
            '  "isolation": [2],\n'
            '  "critical_dims": [[1, 2]]\n'
            "}\n"
        ).encode()


class TestGen:
    def test_deterministic_output(self, capsys, tmp_path):
        paths = [tmp_path / "a.csp", tmp_path / "b.csp"]
        for path in paths:
            code, _, _ = run(
                capsys, "gen", "uniform", "--n", "6", "--d", "3", "--k", "2",
                "--m", "9", "--seed", "12", "--out", str(path)
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stdout_parses(self, capsys):
        code, out, _ = run(capsys, "gen", "latin", "--size", "2")
        assert code == 0
        instance = parse_instance(out)
        assert (instance.n, instance.d) == (4, 2)

    def test_nqueens_size_param(self, capsys):
        code, out, _ = run(capsys, "gen", "nqueens", "--size", "4")
        assert code == 0
        instance = parse_instance(out)
        assert (instance.n, instance.d) == (4, 4)

    def test_missing_params_fail(self, capsys):
        # a missing flag is a usage problem: one error line, exit 2
        code, _, err = run(capsys, "gen", "uniform", "--n", "4")
        assert code == 2
        assert err == "error: gen uniform requires --d --k --m\n"
        for family, flags in [
            ("model-rb", "--n --alpha --r --p --k"),
            ("coloring", "--edges --vertices --d"),
            ("latin", "--size"),
            ("nqueens", "--size"),
        ]:
            code, _, err = run(capsys, "gen", family)
            assert (code, err) == (2, f"error: gen {family} requires {flags}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["nqueens", "--size", "200"], "9273400 nogoods exceed the limit of 1048576"),
            (["latin", "--size", "33"], "1149984 nogoods exceed the limit of 1048576"),
            # the domain size n^alpha, or p * d^k, is past a float's range
            (
                ["model-rb", "--n", "12", "--alpha", "300", "--r", "3", "--p", "0.2", "--k", "2"],
                "n^alpha is too large for a float, got n = 12, alpha = 300.0",
            ),
            (
                ["model-rb", "--n", "12", "--alpha", "250", "--r", "3", "--p", "0.2", "--k", "2"],
                "p * d^k nogoods exceed the limit of 1048576",
            ),
            # p * d^k fits a float, but the count has 218 digits
            (
                ["model-rb", "--n", "12", "--alpha", "100", "--r", "3", "--p", "0.2", "--k", "2"],
                "about 1.22e+217 nogoods exceed the limit of 1048576",
            ),
        ],
        ids=[
            "nqueens-200-9273400",
            "latin-33-1149984",
            "model-rb-alpha-300",
            "model-rb-alpha-250",
            "model-rb-alpha-100",
        ],
    )
    def test_past_the_nogood_limit(self, capsys, monkeypatch, argv, message):
        # refused from the arguments alone: no instance is built
        def build(*_):
            raise AssertionError("CspInstance called")

        monkeypatch.setattr("kcsp.generators.CspInstance", build)
        code, out, err = run(capsys, "gen", *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_latin_32_is_within_the_nogood_limit(self, capsys, monkeypatch):
        # the 1,015,808 nogoods are listed and handed on; a stub builds the instance
        built = []

        def build(n, d, nogoods):
            built.append(len(nogoods))
            return CspInstance(1, 1)

        monkeypatch.setattr("kcsp.generators.CspInstance", build)
        code, _, _ = run(capsys, "gen", "latin", "--size", "32")
        assert (code, built) == (0, [1_015_808])


class TestSolve:
    def test_dpll_sat_payload(self, capsys, tmp_path, triangle_path):
        stats_path = tmp_path / "stats.json"
        code, out, _ = run(
            capsys, "solve", "--alg", "dpll", "--stats", str(stats_path), triangle_path
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "tool_version", "subcommand", "result", "assignment", "nodes", "elapsed_ms",
        ]
        assert payload["tool_version"] == __version__
        assert payload["result"] == "SAT"
        on_disk = json.loads(stats_path.read_text())
        assert "elapsed_ms" not in on_disk
        payload.pop("elapsed_ms")
        assert on_disk == payload

    def test_dpll_unsat_exit_code(self, capsys, unsat_path):
        code, out, _ = run(capsys, "solve", "--alg", "dpll", unsat_path)
        assert code == 1
        payload = json.loads(out)
        assert payload["result"] == "UNSAT"
        assert "assignment" not in payload

    def test_ppsz_payload(self, capsys, triangle_path):
        code, out, _ = run(capsys, "solve", "--alg", "ppsz", "--seed", "5", triangle_path)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "tool_version", "subcommand", "seed", "result", "assignment",
            "iterations_used", "narrow_histogram", "elapsed_ms",
        ]
        assert payload["seed"] == 5
        assert payload["result"] == "SAT"
        assert sum(payload["narrow_histogram"].values()) == payload["iterations_used"]
        assert all(isinstance(key, str) for key in payload["narrow_histogram"])

    def test_ppsz_failure_on_unsat(self, capsys, unsat_path):
        code, out, _ = run(
            capsys, "solve", "--alg", "ppsz", "--max-repeats", "8", unsat_path
        )
        assert code == 1
        assert json.loads(out)["result"] == "FAILURE"

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_repeats_below_one_refused(self, capsys, tmp_path, triangle_path, value):
        path = tmp_path / "stats.json"
        code, out, err = run(
            capsys, "solve", "--alg", "ppsz", "--max-repeats", value, "--stats", str(path),
            triangle_path
        )
        assert_flag_refused(code, out, err, "--max-repeats")
        assert not path.exists()

    @staticmethod
    def _unary_chain(tmp_path, n):
        # nogood (v: 0) for every v: SAT, and the search goes n levels deep
        path = tmp_path / f"chain-{n}.csp"
        path.write_text(f"p csp {n} 2\n" + "".join(f"n 1 {v} 0\n" for v in range(1, n + 1)))
        return str(path)

    def test_dpll_depth_past_the_recursion_limit(self, capsys, tmp_path):
        # 3,000 levels, past the interpreter's 1,000 frames: the search keeps
        # its own stack
        code, out, _ = run(capsys, "solve", "--alg", "dpll", self._unary_chain(tmp_path, 3000))
        assert code == 0
        payload = json.loads(out)
        assert payload["assignment"] == [1] * 3000 and payload["nodes"] == 3001

    def test_dpll_path_limit_refused(self, capsys, monkeypatch, tmp_path):
        # 3,000 nogoods in two levels: 752 bytes per open node, so depth 14
        # is the first past 10,000 bytes
        monkeypatch.setattr(kcsp.dpll, "_MAX_PATH_BYTES", 10_000)
        path = self._unary_chain(tmp_path, 3000)
        first = run(capsys, "solve", "--alg", "dpll", path)
        assert first == (
            3,
            "",
            "error: DPLL search depth 14 would hold more than 10000 bytes of undo levels "
            "(n = 3000, m = 3000)\n",
        )
        assert run(capsys, "solve", "--alg", "dpll", path) == first

    def test_dpll_deep_chain_within_the_limit(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve", "--alg", "dpll", self._unary_chain(tmp_path, 500))
        assert code == 0
        assert json.loads(out)["assignment"] == [1] * 500

    def test_brute_agrees_with_dpll(self, capsys, triangle_path):
        code, out, _ = run(capsys, "solve", "--alg", "brute", triangle_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "SAT"
        assert "nodes" not in payload

    def test_stats_file_reproducible(self, capsys, tmp_path, triangle_path):
        files = [tmp_path / "one.json", tmp_path / "two.json"]
        for path in files:
            code, _, _ = run(
                capsys, "solve", "--alg", "ppsz", "--seed", "3",
                "--stats", str(path), triangle_path
            )
            assert code == 0
        assert files[0].read_bytes() == files[1].read_bytes()


class TestSolveBrute:
    """`solve --alg brute` reads its verdict and assignment off the mask."""

    @pytest.fixture()
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve --alg brute listed every solution")

        monkeypatch.setattr(kcsp.cli, "enumerate_solutions", refuse)

    def test_first_solution_on_corpus(self, capsys, tmp_path, no_enumeration):
        for name, inst in corpus():
            path = tmp_path / f"{name}.csp"
            save_instance(inst, path)
            solutions = enumerate_solutions(inst).solutions
            code, out, err = run(capsys, "solve", "--alg", "brute", str(path))
            payload = json_payload(out)
            assert (code, err) == ((0, "") if solutions else (1, "")), name
            assert payload["result"] == ("SAT" if solutions else "UNSAT"), name
            if solutions:
                assert payload["assignment"] == list(solutions[0]), name
            else:
                assert "assignment" not in payload, name

    def test_stats_file_bytes_pinned(self, capsys, tmp_path, triangle_path, no_enumeration):
        path = tmp_path / "brute.json"
        assert run(capsys, "solve", "--alg", "brute", "--stats", str(path), triangle_path)[0] == 0
        assert path.read_text() == (
            f'{{\n  "tool_version": "{__version__}",\n  "subcommand": "solve",\n'
            '  "result": "SAT",\n  "assignment": [0, 1, 2]\n}\n'
        )

    def test_unit_domain_past_the_axis_limit(self, capsys, tmp_path, no_enumeration):
        path = tmp_path / "unit.csp"
        path.write_text("p csp 100000 1\n")
        code, out, _ = run(capsys, "solve", "--alg", "brute", str(path))
        assert code == 0 and json.loads(out)["assignment"] == [0] * 100_000

    def test_cap_exceeded(self, capsys, tmp_path, no_enumeration):
        path = tmp_path / "wide.csp"
        path.write_text("p csp 25 2\nn 1 1 0\n")
        with pytest.raises(ValueError) as info:
            enumerate_solutions(parse_instance(path.read_text()))
        assert str(info.value) == "search space d^n = 2^25 exceeds cap 16777216"
        assert run(capsys, "solve", "--alg", "brute", str(path)) == (3, "", f"error: {info.value}\n")


class TestOracle:
    def test_sat_counts(self, capsys, triangle_path):
        code, out, _ = run(capsys, "oracle", triangle_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "SAT"
        assert payload["solution_count"] == 6
        assert payload["isolation"] == [3] * 6
        assert payload["critical_dims"] == [[1, 2, 3]] * 6

    def test_unsat_exit_code(self, capsys, unsat_path):
        code, out, _ = run(capsys, "oracle", unsat_path)
        assert code == 1
        assert json.loads(out)["solution_count"] == 0

    def test_cap_exceeded(self, capsys, triangle_path):
        code, _, err = run(capsys, "oracle", "--cap", "2", triangle_path)
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_cap_below_one_refused(self, capsys, tmp_path, triangle_path, value):
        path = tmp_path / "oracle.json"
        code, out, err = run(capsys, "oracle", "--cap", value, "--out", str(path), triangle_path)
        assert_flag_refused(code, out, err, "--cap")
        assert not path.exists()

    @pytest.mark.parametrize("n", [40, 30])
    def test_oversized_cap_refused_before_allocating(self, capsys, tmp_path, n):
        # 2^40 points is over the cap; 2^30 is under it but over the point limit
        path = tmp_path / "wide.csp"
        path.write_text(f"p csp {n} 2\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "oracle", "--cap", "10000000000", str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert peak < 1 << 22


class TestVerify:
    def test_lemma2_tiny(self, capsys, tmp_path):
        out_path = tmp_path / "lemma2.json"
        code, out, _ = run(
            capsys, "verify", "lemma2", "--subsets", "5", "--out", str(out_path)
        )
        assert code == 0
        assert out.strip() == "verify-lemma2: pass"
        payload = json.loads(out_path.read_text())
        assert payload["verdict"] == "pass"
        assert payload["stats"]["checked"] == 45

    def test_lemma1_tiny_stdout(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma1", "--max-n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "verify-lemma1"
        assert payload["verdict"] == "pass"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lemma1", "--max-n", "0"], "need a corpus cutoff n >= 1, got 0"),
            (["lemma2", "--subsets", "0"], "need at least 1 subset per (n, d) cell, got 0"),
        ],
        ids=["max-n-0", "subsets-0"],
    )
    def test_zero_checks_refused(self, capsys, tmp_path, argv, message):
        # a campaign of no checks would pass whatever the code does: a bad flag, exit 2
        path = tmp_path / "verify.json"
        code, out, err = run(capsys, "verify", *argv, "--out", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not path.exists()


class TestAnalyze:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "analyze", "--d", "2..4", "--k", "2..4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d,k,char_root,dpll_bound_base,ppsz_bound_base,smaller"
        assert len(lines) == 1 + 9
        first = lines[1].split(",")
        assert first[:2] == ["2", "2"]
        assert float(first[2]) == pytest.approx(1.618033988749895, abs=1e-9)

    def test_vardom_columns(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--d", "2", "--k", "2", "--alpha", "1.0", "--n", "16"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].endswith("ln_dpll_bound_vardom,ln_ppsz_bound_vardom")
        cells = lines[1].split(",")
        assert len(cells) == 8

    @pytest.mark.parametrize(
        "d,k,n,alpha", [(4, 2, 16, 0.5), (3, 3, 9, 0.5), (10, 2, 100, 0.5), (5, 2, 5, 1.0)]
    )
    def test_vardom_cells_are_n_ln_of_the_row_bases(self, capsys, d, k, n, alpha):
        # n^alpha = d: the row's own bases, raised to the n-th power, in logs
        code, out, _ = run(
            capsys, "analyze", "--d", str(d), "--k", str(k), "--n", str(n), "--alpha", str(alpha)
        )
        assert code == 0
        cells = out.splitlines()[1].split(",")
        # printed to 12 significant digits: equal to the last digit printed
        expected = [n * math.log(dpll_bound_base(d, k)), n * math.log(ppsz_bound_base(d, k))]
        assert cells[6:] == [format(value, ".12g") for value in expected]
        assert float(cells[6]) == pytest.approx(n * math.log(float(cells[3])), rel=1e-11)
        assert float(cells[7]) == pytest.approx(n * math.log(float(cells[4])), rel=1e-11)
        assert (float(cells[7]) <= float(cells[6])) == (cells[5] == "ppsz")

    def test_vardom_large_domain_and_arity_stay_finite(self, capsys):
        # n^alpha = 10^9 and k = 200: a float d^k would overflow
        code, out, err = run(
            capsys, "analyze", "--d", "2", "--k", "200", "--n", "1000", "--alpha", "3"
        )
        assert (code, err) == (0, "")
        cells = out.splitlines()[1].split(",")
        assert all(math.isfinite(float(cell)) for cell in cells[6:])
        assert cells[6] == format(1000 * math.log(1e9), ".12g")

    def test_written_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "analyze", "--d", "2..3", "--k", "2", "--out", str(path))
        assert code == 0
        _, out, _ = run(capsys, "analyze", "--d", "2..3", "--k", "2")
        assert path.read_text() == out

    def test_grid_bytes_pinned(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "analyze", "--d", "2..10", "--k", "2..10", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6b1a963e6c1cf1a3e9235366310c747f0c0bae8a99581915ad4e01d4a063b870"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--d", "1", "--k", "2"], "char_root requires d >= 2 and k >= 2"),
            (["--d", "2", "--k", "1"], "char_root requires d >= 2 and k >= 2"),
            (["--d", "2", "--k", "2", "--alpha", "0", "--n", "5"],
             "need n >= 2 and n^alpha >= 2, got n = 5, alpha = 0.0"),
            (["--d", "2", "--k", "2", "--alpha", "1", "--n", "1"],
             "need n >= 2 and n^alpha >= 2, got n = 1, alpha = 1.0"),
            (["--d", "2", "--k", "2", "--alpha", "0.5", "--n", "-4"],
             "need n >= 2 and n^alpha >= 2, got n = -4, alpha = 0.5"),
            (["--d", "2", "--k", "2", "--alpha", "1"], "--alpha and --n must be given together"),
            (["--d", "2", "--k", "2", "--n", "16"], "--alpha and --n must be given together"),
        ],
        ids=["d-1", "k-1", "alpha-0", "n-1", "n-negative", "alpha-alone", "n-alone"],
    )
    def test_value_out_of_range(self, capsys, tmp_path, argv, message):
        # a flag value out of range is a usage problem: one error line, exit 2, no file
        path = tmp_path / "table.csv"
        code, out, err = run(capsys, "analyze", *argv, "--out", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "n,alpha",
        [("2", "5000"), ("1" + "0" * 400, "0.5")],
        ids=["power-overflows", "n-past-float"],
    )
    def test_vardom_power_past_float(self, capsys, tmp_path, n, alpha):
        # n^alpha is past a float's range: a runtime limit, exit 3, one line naming it
        path = tmp_path / "table.csv"
        code, out, err = run(
            capsys, "analyze", "--d", "2", "--k", "2", "--n", n, "--alpha", alpha,
            "--out", str(path),
        )
        assert (code, out) == (3, "")
        assert err == (
            f"error: n^alpha is too large for a float, got n = {n}, alpha = {float(alpha)}\n"
        )
        assert not path.exists()

    def test_vardom_log_past_float(self, capsys, tmp_path):
        # n^alpha fits a float but n ln(base) does not: exit 3, one line naming
        # it, where the cells used to read inf
        n = "9" * 308
        path = tmp_path / "table.csv"
        code, out, err = run(
            capsys, "analyze", "--d", "2", "--k", "2", "--n", n, "--alpha", "1",
            "--out", str(path),
        )
        assert (code, out) == (3, "")
        assert err == f"error: n ln(base) is too large for a float, got n = {n}, alpha = 1.0\n"
        assert not path.exists()

    def test_failed_certification_is_a_runtime_error(self, capsys, monkeypatch):
        # a sign test that never changes sign fails char_root's bracket check: exit 3, not 2
        monkeypatch.setattr("kcsp.analysis._scaled_g", lambda d, k, q: lambda p: 1)
        code, out, err = run(capsys, "analyze", "--d", "2", "--k", "2")
        assert (code, out, err) == (3, "", "error: bisection bracket does not straddle the root\n")


class TestBench:
    def test_prob_default_instance(self, capsys, tmp_path):
        out_path = tmp_path / "prob.json"
        code, out, _ = run(
            capsys, "bench", "prob", "--trials", "200", "--out", str(out_path)
        )
        assert code == 0
        assert out.strip() == "iteration-success: pass"
        payload = json.loads(out_path.read_text())
        assert payload["stats"]["successes"] == 200

    def test_prob_explicit_instance(self, capsys, unsat_path):
        code, out, _ = run(
            capsys, "bench", "prob", "--trials", "50", "--instance", unsat_path
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "not-applicable"

    def test_prob_instance_past_the_oracle_cap(self, capsys, tmp_path):
        # the message states the limit; it names no library keyword
        path = tmp_path / "wide.csp"
        path.write_text("p csp 30 2\n")
        code, out, err = run(capsys, "bench", "prob", "--instance", str(path))
        assert (code, out) == (3, "")
        assert err == (
            "error: d^n = 2^30 exceeds the oracle cap 16777216, "
            "so satisfiability cannot be checked\n"
        )

    def test_growth_tiny(self, capsys):
        code, out, _ = run(
            capsys, "bench", "growth", "--n", "8..10", "--per-n", "4", "--seed", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "node-growth"
        assert payload["verdict"] in ("pass", "inconclusive")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["growth", "--d", "1"], "need d >= 2, got 1"),
            (["growth", "--k", "9", "--n", "3..4"], "need n >= k >= 1, got n=3 k=9"),
            (["growth", "--k", "1"], "need k >= 2 for char_root(d, k), got 1"),
            (["growth", "--per-n", "0"], "need at least one n value and one instance per n"),
            (["growth", "--m-per-n", "-1"], "need m >= 0, got -8"),
            (["prob", "--trials", "0"], "trials must be at least 1"),
        ],
        ids=["d-1", "k-past-n", "k-1", "per-n-0", "m-per-n-negative", "trials-0"],
    )
    def test_value_out_of_range(self, capsys, tmp_path, argv, message):
        # the experiment's own range check refuses the flag: one error line, exit 2, no file
        path = tmp_path / "bench.json"
        code, out, err = run(capsys, "bench", *argv, "--out", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not path.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_m_per_n_must_be_finite(self, capsys, tmp_path, value):
        # "=" keeps argparse from reading "-inf" as a flag of its own
        path = tmp_path / "growth.json"
        code, out, err = run(capsys, "bench", "growth", f"--m-per-n={value}", "--out", str(path))
        assert_flag_refused(code, out, err, "--m-per-n")
        assert not path.exists()


class TestErrors:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gen", "model-rb", "--n", "12", "--r", "3", "--p", "0.2", "--k", "2"], "--alpha"),
            (["gen", "model-rb", "--n", "12", "--alpha", "0.8", "--p", "0.2", "--k", "2"], "--r"),
            (["gen", "model-rb", "--n", "12", "--alpha", "0.8", "--r", "3", "--k", "2"], "--p"),
            (["analyze", "--d", "2", "--k", "2", "--n", "5"], "--alpha"),
        ],
        ids=["gen-alpha", "gen-r", "gen-p", "analyze-alpha"],
    )
    def test_float_flag_must_be_finite(self, capsys, tmp_path, argv, flag, value):
        # "=" keeps argparse from reading "-inf" as a flag of its own
        path = tmp_path / "out"
        code, out, err = run(capsys, *argv, f"{flag}={value}", "--out", str(path))
        assert_flag_refused(code, out, err, flag)
        assert not path.exists()

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_bad_alg_choice(self, capsys, triangle_path):
        code, _, _ = run(capsys, "solve", "--alg", "magic", triangle_path)
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--alg", "dpll", "/nonexistent/path.csp")
        assert code == 2
        assert "error:" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.csp"
        path.write_text("p csp oops 2\n")
        code, _, err = run(capsys, "solve", "--alg", "dpll", str(path))
        assert code == 2
        assert "line 1" in err

    def test_gen_too_many_nogoods(self, capsys):
        code, _, err = run(
            capsys, "gen", "uniform", "--n", "2", "--d", "2", "--k", "2", "--m", "100"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["uniform", "--n", "2", "--d", "1", "--k", "2", "--m", "1"], "need d >= 2, got 1"),
            (["nqueens", "--size", "0"], "need N >= 1, got 0"),
        ],
        ids=["d-1", "size-0"],
    )
    def test_gen_value_out_of_range(self, capsys, argv, message):
        # a flag value out of range is a usage problem: one error line, exit 2
        code, out, err = run(capsys, "gen", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_non_utf8_file(self, capsys, tmp_path):
        # a UnicodeDecodeError is a malformed file, not a runtime limit
        path = tmp_path / "latin1.csp"
        path.write_bytes(b"p csp 2 2\nn 1 1 \xff\n")
        code, out, err = run(capsys, "solve", "--alg", "dpll", str(path))
        assert (code, out, err) == (2, "", "error: line 2: byte 0xff is not UTF-8\n")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["analyze", "--k", "2", "--d", "x"], "expected an integer or lo..hi, got 'x'"),
            (["analyze", "--k", "2", "--d", "3..x"], "expected an integer or lo..hi, got '3..x'"),
            (["gen", "coloring", "--vertices", "2", "--d", "2", "--edges", "1-x"],
             "bad edge '1-x', expected u-v"),
        ],
        ids=["x", "3..x", "1-x"],
    )
    def test_flag_parser_says_what_it_expected(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        flag = argv[-2]
        assert_flag_refused(code, out, err, flag)
        assert err.splitlines()[-1].endswith(f"argument {flag}: {expected}")

    @pytest.mark.parametrize(
        "command,message",
        [
            (["oracle"], "search space d^n = 1000000000^1048576 exceeds cap 16777216"),
            (
                ["bench", "prob", "--instance"],
                "d^n = 1000000000^1048576 exceeds the oracle cap 16777216, "
                "so satisfiability cannot be checked",
            ),
        ],
        ids=["oracle", "bench-prob"],
    )
    def test_huge_search_space_refused_at_once(self, capsys, tmp_path, command, message):
        # d^n would take some 31 million bits: the cap check never computes it
        path = tmp_path / "huge.csp"
        path.write_text("p csp 1048576 1000000000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, *command, str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command", [["solve", "--alg", "dpll"], ["solve", "--alg", "ppsz"], ["oracle"]],
        ids=["dpll", "ppsz", "oracle"],
    )
    def test_variable_count_past_the_limit(self, capsys, tmp_path, command):
        # refused when the instance is built, before any per-variable table
        path = tmp_path / "huge.csp"
        path.write_text("p csp 1000000000 2\nn 1 1 0\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *command, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == "error: 1000000000 variables exceed the limit of 1048576\n"
        assert peak < 1 << 22

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--k", "2", "--d", "2..200000000"],
            ["analyze", "--d", "2", "--k", "2..1002"],
            ["bench", "growth", "--per-n", "1", "--n", "1..100000"],
        ],
        ids=["analyze-d", "analyze-k-1001", "growth-n"],
    )
    def test_range_of_more_than_1000_values_refused(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        flag = argv[-2]
        assert_flag_refused(code, out, err, flag)
        expected = f"argument {flag}: range {argv[-1]!r} has more than 1000 values"
        assert err.splitlines()[-1].endswith(expected)
        assert peak < 1 << 22

    def test_range_of_1000_values_accepted(self):
        assert _parse_range("2..1001") == list(range(2, 1002))

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert __version__ in out
