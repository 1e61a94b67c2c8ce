import argparse
import contextlib
import gc
import importlib
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from laurent_eulerian import cli, experiments, laurent
from laurent_eulerian.algebra import QQ, PrimeField
from laurent_eulerian.cli import main
from laurent_eulerian.deadline import NO_DEADLINE
from conftest import degenerate_seeds


def run_json(capsys, argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def fields(record):
    """A json record as --format text prints its fields."""
    return ", ".join(f"{k}={v}" for k, v in record.items())


@pytest.fixture
def digit_limit():
    """Python's default int-to-str digit limit during the test, the old one after.

    None where Python has no such limit (before 3.10.7).
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(old)


class TestCommands:
    def test_eulerian(self, capsys):
        code, rep = run_json(capsys, ["eulerian", "--n", "4", "--k", "1"])
        assert code == 0
        assert rep == {"command": "eulerian", "inputs": {"n": 4, "k": 1}, "result": 11}

    def test_gen_eulerian(self, capsys):
        code, rep = run_json(capsys, ["gen-eulerian", "--k", "4", "--l", "1", "--d", "5"])
        assert code == 0 and rep["result"] == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_eulerian_past_the_str_digit_limit(self, capsys, fmt, digit_limit):
        # <n,1> = 2^n - n - 1 has 4516 digits at n = 15000, past Python's
        # default limit of 4300 digits on int-to-str conversion
        code = main(["--format", fmt, "eulerian", "--n", "15000", "--k", "1"])
        out = capsys.readouterr().out
        assert code == 0
        if digit_limit is not None:  # main lifts the limit only while it runs
            sys.set_int_max_str_digits(0)
        assert str(2**15000 - 15001) in out

    def test_runs_where_python_has_no_digit_limit(self, capsys, monkeypatch):
        # Python before 3.10.7 has no set_int_max_str_digits: main runs as is
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        assert main(["eulerian", "--n", "5", "--k", "2"]) == 0
        assert capsys.readouterr().out == "inputs: n=5, k=2\nresult: 66\n"

    def test_worpitzky(self, capsys):
        code, rep = run_json(capsys, ["worpitzky", "--k", "6"])
        assert code == 0 and rep["agreement"] is True

    def test_mobius(self, capsys):
        code, rep = run_json(capsys, ["mobius", "--n", "30"])
        assert code == 0 and rep["result"] == -1

    def test_orbits(self, capsys):
        code, rep = run_json(capsys, ["orbits", "--size", "5", "--ascents", "2"])
        assert code == 0
        assert rep["result"]["orbit_sizes"] == [1, 5, 5]
        assert "0 3 1 4 2" in rep["result"]["representatives"]
        assert rep["agreement"] is True

    def test_orbits_golden(self, capsys):
        # sorted by orbit size, then by minimum member
        code, rep = run_json(capsys, ["orbits", "--size", "6", "--ascents", "3"])
        assert code == 0
        assert rep["result"]["orbit_sizes"] == [3, 3] + [6] * 10
        assert rep["result"]["representatives"] == [
            "0 1 5 3 4 2", "0 2 1 3 5 4",
            "0 1 2 5 4 3", "0 1 3 2 5 4", "0 1 3 5 4 2", "0 1 4 2 5 3",
            "0 1 4 3 5 2", "0 1 4 5 3 2", "0 1 5 2 4 3", "0 1 5 3 2 4",
            "0 2 4 1 5 3", "0 2 5 1 4 3",
        ]
        assert rep["result"]["total"] == 66 and rep["agreement"] is True

    def test_const_terms_symbolic(self, capsys):
        code, rep = run_json(capsys, ["const-terms", "--m", "1", "--n", "1", "--power", "2"])
        assert code == 0
        assert rep["agreement"] is True
        assert rep["inputs"]["field"] == "QQ"

    def test_const_terms_compares_every_power(self, capsys, monkeypatch):
        # a multinomial route wrong at power 1 only: ct(f^3) still agrees
        real = laurent.constant_term_multinomial

        def wrong_at_one(m, n, field, i):
            ct = real(m, n, field, i)
            return ct + ct if i == 1 else ct

        monkeypatch.setattr(laurent, "constant_term_multinomial", wrong_at_one)
        code, rep = run_json(capsys, ["const-terms", "--m", "1", "--n", "1", "--power", "3"])
        assert code == 1 and rep["agreement"] is False

    def test_groebner(self, capsys):
        code, rep = run_json(capsys, ["groebner", "--m", "2", "--n", "2"])
        assert code == 0
        assert isinstance(rep["result"], list) and rep["result"]

    def test_degree(self, capsys):
        code, rep = run_json(capsys, ["degree", "--m", "2", "--n", "3"])
        assert code == 0
        assert rep["result"] == {"m": 2, "n": 3, "eulerian": 11, "groebner_degree": 11,
                                 "intersection_degree": 11, "unit_ideal": None,
                                 "status": "ok"}
        assert rep["agreement"] is True

    def test_degree_prints_a_theorem_matrix_row(self, capsys):
        # the same cell, in the same shape; only the grid runs the unit check
        _, degree = run_json(capsys, ["degree", "--m", "2", "--n", "3"])
        _, grid = run_json(capsys, ["theorem-matrix", "--max-total", "5"])
        row, = [c for c in grid["result"] if (c["m"], c["n"]) == (2, 3)]
        assert list(degree["result"]) == list(row)
        assert {**degree["result"], "unit_ideal": True} == row

    def test_field_spellings_agree(self, capsys):
        reports = [run_json(capsys, ["degree", "--m", "2", "--n", "3", "--field", f])
                   for f in ("32003", "qq", "Q")]
        assert [code for code, _ in reports] == [0, 0, 0]
        assert [rep["inputs"]["field"] for _, rep in reports] == ["GF(32003)", "QQ", "QQ"]
        assert all(rep["result"] == reports[0][1]["result"] for _, rep in reports)

    def test_groebner_over_a_prime_field(self, capsys):
        code, rep = run_json(capsys, ["groebner", "--m", "2", "--n", "2", "--field", "7"])
        assert code == 0
        assert rep["inputs"]["field"] == "GF(7)"
        assert rep["result"] == ["x_0", "1 + x_-1*x_1", "x_1^2 + x_-1^2", "x_1^3 + 6*x_-1"]

    def test_conjecture_check(self, capsys):
        code, rep = run_json(capsys, ["conjecture-check", "--m", "2", "--n", "2"])
        assert code == 0 and rep["result"] is True
        assert "evidence" in rep["note"]

    def test_chow_expand(self, capsys):
        code, rep = run_json(capsys, ["chow-expand", "--m", "2", "--n", "3", "--k", "4"])
        assert code == 0
        assert rep["result"] == {"D_(-2,3)": 11}

    def test_ci_degree(self, capsys):
        code, rep = run_json(capsys, ["ci-degree", "--m", "3", "--n", "3"])
        assert code == 0 and rep["result"] == 66

    def test_rationals_print_as_integers_or_quotients(self):
        # a Fraction prints as its integer when integral, else as "p/q"; an
        # int, a bool and a numpy integer pass through unchanged
        values = [Fraction(11), Fraction(-3, 2), 7, True, np.int64(5)]
        out = cli._jsonable(values)
        assert out == [11, "-3/2", 7, True, 5]
        assert [type(v) for v in out] == [int, str, int, bool, np.int64]

    def test_sparse_degree(self, capsys):
        code, rep = run_json(capsys, ["sparse-degree", "--m", "2", "--n", "2", "--d", "2"])
        assert code == 0 and rep["result"] == "empty"

    def test_decomposition(self, capsys):
        code, rep = run_json(capsys, ["decomposition", "--m", "2", "--n", "3"])
        assert code == 0
        assert rep["result"]["total"] == rep["result"]["expected"] == 11
        assert rep["agreement"] is True

    def test_decomposition_golden(self, capsys):
        # (5, 5) enumerates the 9! circular permutations of 10 elements
        code, rep = run_json(capsys, ["decomposition", "--m", "5", "--n", "5"])
        assert code == 0
        rows = rep["result"]["rows"]
        assert {r["d"]: r["orbit_count"] for r in rows} == {1: 15596, 2: 46, 5: 0, 10: 0}
        assert {r["d"]: r["deg_circle"] for r in rows} == {1: 155960, 2: 230, 5: 0, 10: 0}
        assert rep["result"]["total"] == rep["result"]["expected"] == 156190
        assert rep["agreement"] is True

    @pytest.mark.parametrize("argv, block", [
        (["theorem-matrix", "--max-total", "3"],
         lambda result: ["result:", *("  " + fields(r) for r in result)]),
        (["decomposition", "--m", "2", "--n", "2"],
         lambda result: ["result:", "  rows:", *("    " + fields(r) for r in result["rows"]),
                         f"  total: {result['total']}", f"  expected: {result['expected']}"]),
    ], ids=["theorem-matrix", "decomposition"])
    def test_text_sets_each_record_off(self, capsys, argv, block):
        # each record of a list prints on its own line, field for field as in
        # json, indented under the key that holds the list
        _, rep = run_json(capsys, argv)
        assert main(["--format", "text", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"inputs: {fields(rep['inputs'])}", *block(rep["result"]),
                         "agreement: True"]
        assert sum(line.startswith("  m=") or line.startswith("    d=")
                   for line in lines) == 3

    def test_hilbert_slices(self, capsys):
        code, rep = run_json(
            capsys, ["hilbert-slices", "--m", "2", "--n", "2", "--seed", "0"]
        )
        assert code == 0
        assert rep["result"]["total"] == 4
        assert rep["agreement"] is True

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_truncated_hilbert_profile_has_no_agreement(self, capsys, fmt):
        # slices 0..3 of (2, 3) total 4 of the 11 the full profile reaches
        argv = ["hilbert-slices", "--m", "2", "--n", "3", "--seed", "3", "--j-max", "3"]
        code = main(["--format", fmt, *argv])
        out = capsys.readouterr().out
        assert code == 0
        if fmt == "json":
            rep = json.loads(out)
            assert rep["result"]["dims"] == [1, 0, 1, 2]
            assert rep["agreement"] is None
        else:
            assert "agreement: None" in out

    def test_every_seed_degenerate_is_a_disagreement(self, capsys, monkeypatch):
        # zero forms leave open (null) every slice whose span has rows and
        # columns, so the profile has no total
        degenerate_seeds(monkeypatch, range(10))
        argv = ["hilbert-slices", "--m", "2", "--n", "3"]
        code, rep = run_json(capsys, argv)
        assert code == 1
        assert rep["result"]["seeds_tried"] == [0, 1, 2, 3, 4]
        sizes = [len(experiments.slice_monomials(2, 3, j, 10)) for j in range(10)]
        open_ = [bool(size) and any(sizes[j - i] for i in range(2, min(5, j) + 1))
                 for j, size in enumerate(sizes)]
        assert any(open_)
        assert rep["result"]["dims"] == [None if o else size
                                         for o, size in zip(open_, sizes)]
        assert rep["result"]["total"] is None
        assert rep["agreement"] is False
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "dims=[1, 0, None" in out and "total=None" in out

    def test_full_hilbert_profile_keeps_its_agreement(self, capsys):
        code, rep = run_json(
            capsys, ["hilbert-slices", "--m", "2", "--n", "3", "--seed", "3", "--j-max", "9"]
        )
        assert code == 0
        assert rep["result"]["total"] == 11
        assert rep["agreement"] is True

    def test_low_slices_of_a_large_window(self, capsys):
        # slices 0..2 use g_1 and g_2 only; (7, 7) has 14 forms
        code, rep = run_json(
            capsys, ["hilbert-slices", "--m", "7", "--n", "7", "--j-max", "2"]
        )
        assert code == 0
        assert rep["result"]["dims"] == [1, 0, 6]
        assert rep["agreement"] is None

    def test_degree_reports_the_degree_cell(self, capsys, monkeypatch):
        def cell(m, n, field, deadline=NO_DEADLINE):
            return experiments.TheoremCell(m, n, 11, "infinite", 11, None)

        monkeypatch.setattr(experiments, "degree_cell", cell)
        code, rep = run_json(capsys, ["degree", "--m", "2", "--n", "3"])
        assert code == 1
        assert rep["result"] == {"m": 2, "n": 3, "eulerian": 11,
                                 "groebner_degree": "infinite", "intersection_degree": 11,
                                 "unit_ideal": None, "status": "ok"}
        assert rep["agreement"] is False

    def test_theorem_matrix(self, capsys):
        code, rep = run_json(capsys, ["theorem-matrix", "--max-total", "4"])
        assert code == 0
        assert rep["agreement"] is True
        assert {c["status"] for c in rep["result"]} == {"ok"}


class TestEntryPoints:
    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        # pyproject's script calls its target with no argv
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["laurent-eulerian"]
        module, _, name = target.partition(":")
        script = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["laurent-eulerian", "--format", "json",
                                          "eulerian", "--n", "4", "--k", "1"])
        assert script() == 0
        assert json.loads(capsys.readouterr().out) == {
            "command": "eulerian", "inputs": {"n": 4, "k": 1}, "result": 11}

    def test_module_runs_as_a_script(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "laurent_eulerian.cli", "--format", "json",
                              "degree", "--m", "2", "--n", "3"],
                             capture_output=True, text=True, env=env)
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads(run.stdout)["result"]["groebner_degree"] == 11


# one cheap argv per subcommand; some options given, some left to their default
INPUT_ARGVS = {
    "eulerian": ["--k", "1", "--n", "4"],
    "gen-eulerian": ["--k", "5", "--l", "2", "--d", "2"],
    "worpitzky": ["--k", "3"],
    "mobius": ["--n", "30"],
    "orbits": ["--size", "5", "--ascents", "2"],
    "const-terms": ["--m", "1", "--n", "2", "--power", "2", "--field", "7"],
    "groebner": ["--m", "1", "--n", "2", "--order", "lex", "--field", "32003"],
    "degree": ["--m", "1", "--n", "2"],
    "conjecture-check": ["--m", "1", "--n", "2"],
    "chow-expand": ["--m", "2", "--n", "3", "--k", "2"],
    "ci-degree": ["--m", "2", "--n", "2"],
    "sparse-degree": ["--m", "2", "--n", "3", "--d", "5"],
    "decomposition": ["--m", "2", "--n", "2", "--orbit-cap", "5"],
    "hilbert-slices": ["--m", "2", "--n", "2", "--seed", "1"],
    "theorem-matrix": ["--max-total", "3"],
}
BUDGETED = sorted(name for name, (_, arguments, _) in cli.COMMANDS.items()
                  if "--budget-seconds" in dict(arguments))


def declared_inputs(name, argv):
    """(dest, value) of every argument the subcommand declares, in declaration
    order, as a parser of those arguments alone parses argv; a field by its name."""
    parser = argparse.ArgumentParser()
    dests = [parser.add_argument(flag, **kwargs).dest
             for flag, kwargs in cli.COMMANDS[name][1]]
    parsed = vars(parser.parse_args(argv))
    return [(d, repr(parsed[d]) if d == "field" else parsed[d]) for d in dests]


class TestInputs:
    """A report's inputs are the subcommand's declared arguments, as parsed."""

    def test_every_subcommand_is_covered(self):
        assert sorted(INPUT_ARGVS) == sorted(cli.COMMANDS)

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_inputs_are_the_declared_arguments(self, capsys, name):
        argv = INPUT_ARGVS[name]
        want = declared_inputs(name, argv)
        _, rep = run_json(capsys, [name, *argv])
        assert list(rep["inputs"].items()) == want
        assert set(rep) <= {"command", "inputs", "note", "result", "agreement"}
        main([name, *argv])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "inputs: " + ", ".join(f"{d}={v}" for d, v in want)

    @pytest.mark.parametrize("name", BUDGETED)
    def test_timeout_report_keeps_its_inputs(self, capsys, name):
        argv = [*INPUT_ARGVS[name], "--budget-seconds", "0"]
        _, rep = run_json(capsys, [name, *argv])
        assert list(rep["inputs"].items()) == declared_inputs(name, argv)
        assert rep["inputs"]["budget_seconds"] == 0
        if name == "theorem-matrix":
            assert {c["status"] for c in rep["result"]} == {"timeout"}
        else:
            assert rep["result"] == "timeout"


class TestExitCodes:
    def test_domain_error_is_2(self, capsys):
        assert main(["gen-eulerian", "--k", "4", "--l", "1", "--d", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_text_format_default(self, capsys):
        assert main(["eulerian", "--n", "4", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "result: 11" in out

    def test_budget_timeout_reported(self, capsys):
        code, rep = run_json(
            capsys,
            ["hilbert-slices", "--m", "3", "--n", "3", "--budget-seconds", "0.05"],
        )
        assert code == 0
        assert rep["result"] == "timeout"

    def test_budget_covers_drawing_the_forms(self, capsys):
        # g_1..g_12 of (8, 8) take minutes to draw; the budget must cut them
        code, rep = run_json(
            capsys,
            ["hilbert-slices", "--m", "8", "--n", "8", "--j-max", "12",
             "--budget-seconds", "0.2"],
        )
        assert code == 0
        assert rep["result"] == "timeout"

    @pytest.mark.parametrize("command", ["groebner", "degree", "conjecture-check"])
    def test_budget_timeout_groebner_commands(self, capsys, command):
        code, rep = run_json(
            capsys, [command, "--m", "3", "--n", "4", "--budget-seconds", "0.05"]
        )
        assert code == 0
        assert rep["command"] == command
        assert rep["result"] == "timeout"

    @pytest.mark.parametrize(
        "argv, budget",
        [pytest.param(["groebner", "--m", "2", "--n", "2"], b, id=b)
         for b in ("nan", "-1", "inf", "abc")]
        + [pytest.param(["theorem-matrix", "--max-total", "4"], b, id=f"theorem-matrix-{b}")
           for b in ("nan", "-1", "inf", "abc")],
    )
    def test_budget_must_be_finite_and_non_negative(self, capsys, argv, budget):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--budget-seconds", budget])
        assert exc.value.code == 2
        assert "non-negative number of seconds" in capsys.readouterr().err

    # 318665857834031151167461 is a strong pseudoprime to every Miller-Rabin base
    @pytest.mark.parametrize("field", ["4", "0", "abc", "318665857834031151167461"])
    def test_bad_field_is_a_usage_error(self, capsys, field):
        with pytest.raises(SystemExit) as exc:
            main(["groebner", "--m", "2", "--n", "2", "--field", field])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --field: expected QQ or a prime, got '{field}'" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_grid_that_checked_nothing_has_no_agreement(self, capsys, fmt):
        # every cell cut by the budget: not a pass, and not a disagreement
        code = main(["--format", fmt, "theorem-matrix", "--max-total", "3",
                     "--budget-seconds", "0"])
        out = capsys.readouterr().out
        assert code == 0
        if fmt == "json":
            rep = json.loads(out)
            assert {c["status"] for c in rep["result"]} == {"timeout"}
            assert rep["agreement"] is None
        else:
            assert "agreement: None" in out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "argv, flag",
        [pytest.param(["hilbert-slices", "--m", "2", "--n", "3", "--j-max", "-1"],
                      "--j-max", id="j-max--1"),
         pytest.param(["theorem-matrix", "--max-total", "1"], "--max-total",
                      id="max-total-1")],
    )
    def test_bound_that_checks_nothing_is_a_usage_error(self, capsys, fmt, argv, flag):
        # an empty profile or grid would otherwise read as a pass
        with pytest.raises(SystemExit) as exc:
            main(["--format", fmt, *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be at least" in captured.err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "argv, message",
        [pytest.param(["sparse-degree", "--m", "2", "--n", "3", "--d", "0"],
                      "d must be a positive integer", id="sparse-degree-d-0"),
         pytest.param(["sparse-degree", "--m", "0", "--n", "3", "--d", "1"],
                      "m and n must be positive", id="sparse-degree-m-0"),
         pytest.param(["hilbert-slices", "--m", "0", "--n", "2"],
                      "m and n must be positive", id="hilbert-slices-m-0"),
         pytest.param(["const-terms", "--m", "0", "--n", "1", "--power", "1"],
                      "m and n must be positive", id="const-terms-m-0"),
         pytest.param(["groebner", "--m", "0", "--n", "2"],
                      "m and n must be positive", id="groebner-m-0"),
         pytest.param(["degree", "--m", "0", "--n", "2"],
                      "m and n must be positive", id="degree-m-0"),
         pytest.param(["chow-expand", "--m", "0", "--n", "3", "--k", "1"],
                      "m and n must be positive", id="chow-expand-m-0"),
         # the codimension is checked before k! is taken
         pytest.param(["chow-expand", "--m", "2", "--n", "3", "--k", "-1"],
                      "codimension -1 outside [1, 4]", id="chow-expand-k--1"),
         pytest.param(["hilbert-slices", "--m", "-1", "--n", "2"],
                      "m and n must be positive", id="hilbert-slices-m--1"),
         pytest.param(["hilbert-slices", "--m", "7", "--n", "7"],
                      "slice keys in base 91 over 15 variables overflow int64",
                      id="hilbert-slices-key-overflow"),
         # the key width is checked before a zero budget can expire
         pytest.param(["hilbert-slices", "--m", "7", "--n", "7", "--budget-seconds", "0"],
                      "slice keys in base 91 over 15 variables overflow int64",
                      id="hilbert-slices-key-overflow-zero-budget")],
    )
    def test_bad_window_or_step_is_a_usage_error(self, capsys, fmt, argv, message):
        # not a crash (exit 3), a silent 0, or a disagreement (exit 1)
        assert main(["--format", fmt, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [pytest.param(["charp-scan", "--p", "2", "--poly", "z^-1 + z"],
                      "invalid choice: 'charp-scan'", id="charp-scan"),
         pytest.param(["const-terms", "--poly", "z^-1 + z", "--m", "1", "--n", "1",
                       "--power", "2"],
                      "unrecognized arguments: --poly", id="const-terms-poly"),
         pytest.param(["const-terms", "--power", "2"],
                      "the following arguments are required: --m, --n",
                      id="const-terms-without-window")],
    )
    def test_numeric_polynomials_are_usage_errors(self, capsys, argv, message):
        # constant terms are computed for the generic window polynomial only
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_budget_timeout_off_main_thread(self, capsys):
        # (3,4) takes seconds, so it cannot finish inside the budget; (3,3)
        # warm could, and the test would flake
        argv = ["--format", "json", "hilbert-slices", "--m", "3", "--n", "4",
                "--budget-seconds", "0.05"]
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        captured = capsys.readouterr()
        assert codes == [0], captured.err
        assert json.loads(captured.out)["result"] == "timeout"

    @pytest.mark.parametrize("error", [RuntimeError, RecursionError])
    def test_unexpected_error_is_3(self, capsys, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("broken layer")

        monkeypatch.setattr(experiments, "decomposition_report", broken)
        assert main(["decomposition", "--m", "2", "--n", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err
        assert f"{error.__name__}: broken layer" in captured.err

    def test_json_schema_keys(self, capsys):
        _, rep = run_json(capsys, ["degree", "--m", "1", "--n", "2"])
        assert set(rep) == {"command", "inputs", "result", "agreement"}


def argparse_oracle():
    """An argparse parser of the same declarations as `cli.parse_args`: every
    subcommand's parser built up front, abbreviations off, and a type's
    ValueError reported by its message."""
    def typed(parse):
        def convert(text):
            try:
                return parse(text)
            except ValueError as err:
                raise argparse.ArgumentTypeError(str(err)) from None
        return convert

    def add(parser, flag, kwargs):
        if "type" in kwargs:
            kwargs = {**kwargs, "type": typed(kwargs["type"])}
        parser.add_argument(flag, **kwargs)

    oracle = argparse.ArgumentParser(prog=cli.PROG, allow_abbrev=False)
    add(oracle, *cli.FORMAT)
    sub = oracle.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in cli.COMMANDS.items():
        parser = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, kwargs in arguments:
            add(parser, flag, kwargs)
    return oracle


def parsed(parse, capsys, argv):
    """The namespace as a dict, or the exit code; the error line; stdout."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, [line for line in captured.err.splitlines() if ": error: " in line], \
        captured.out


# flag values that argparse reads, and usage errors it reports
ORACLE_ARGVS = [
    [], ["no-such-command"], ["--format", "xml", "mobius", "--n", "6"],
    ["--format=json", "mobius", "--n", "6"], ["--format"],
    ["eulerian", "--n", "x", "--k", "1"],
    ["degree", "--m", "2", "--n", "3", "--field", "4"],
    ["groebner", "--m", "2", "--n", "2", "--order", "grevlex"],
    ["groebner", "--m", "2", "--n", "2", "--budget-seconds", "nan"],
    ["eulerian", "--n", "4", "--k", "1", "--poly", "z^-1 + z"],
    ["--bogus", "eulerian", "--n", "4", "--k", "1"],
    ["eulerian", "--n"], ["eulerian", "--n", "--k", "1"],
    ["eulerian", "--n", "4", "--n", "5", "--k", "1"],
    ["degree", "--m=2", "--n", "3"], ["degree", "--m=", "--n", "3"],
    ["eulerian", "--n", "4", "--k", "1", "--format", "json"],
    ["eulerian", "--n", "-4", "--k", "-1"], ["eulerian", "--n", "-"],
    ["eulerian", "--n", "-1 + z"],
    ["hilbert-slices", "--m", "2", "--n", "3", "--j-max", "-1"],
    ["theorem-matrix", "--max", "3"], ["theorem-matrix", "--max-total", "3", "stray"],
    ["eulerian", "--help=x"],
]


class TestSharedParser:
    """`main` parses every argv from the one command table, with no state
    carried from one call to the next."""

    @pytest.mark.parametrize("argv", [
        *ORACLE_ARGVS,
        *([name] for name in cli.COMMANDS),
        *([name, *[a for flag, _ in arguments for a in (flag, "2")]]
          for name, (_, arguments, _) in cli.COMMANDS.items()),
    ], ids=" ".join)
    def test_parse_args_agrees_with_argparse(self, capsys, argv):
        # the same namespace, or the same exit code and error line
        want, want_errors, _ = parsed(argparse_oracle().parse_args, capsys, argv)
        got, errors, out = parsed(cli.parse_args, capsys, argv)
        assert (got, errors) == (want, want_errors)
        assert out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--format", "json", "-h"],
                                      *([name, "--help"] for name in cli.COMMANDS)],
                             ids=" ".join)
    def test_help_names_every_command_and_flag(self, capsys, argv):
        code, errors, out = parsed(cli.parse_args, capsys, argv)
        assert (code, errors) == (0, [])
        assert parsed(argparse_oracle().parse_args, capsys, argv)[0] == 0
        if argv[0] in cli.COMMANDS:
            names = ["-h, --help", *(flag for flag, _ in cli.COMMANDS[argv[0]][1])]
        else:
            names = ["-h, --help", "--format", *cli.COMMANDS]
        assert [name for name in names if name not in out] == []

    @pytest.mark.parametrize("argv", [["eulerian", "--n", "5", "--k", "2"],
                                      ["theorem-matrix", "--max-total", "4"],
                                      ["hilbert-slices", "--m", "2", "--n", "3"]],
                             ids=["eulerian", "theorem-matrix", "hilbert-slices"])
    def test_warm_call_leaves_little_cyclic_garbage(self, capsys, argv):
        # an argparse parser built per call left about 600 unreachable
        # objects per call for the cyclic collector;
        # a self-referencing recursive closure in weight_zero_exponents left 80
        main(argv)
        gc.collect()
        gc.disable()
        try:
            main(argv)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable < 50

    ARGVS = [
        ["degree", "--m", "2", "--n", "3", "--field", "32003"],
        ["degree", "--m", "2", "--n", "3"],  # the --field default is QQ again
        ["groebner", "--m", "1", "--n", "2", "--budget-seconds", "0"],
        ["groebner", "--m", "1", "--n", "2"],  # no budget again
        ["eulerian", "--n", "x", "--k", "1"],
        ["no-such-command"],
        ["--help"],
        ["degree", "--help"],
    ]

    def test_shared_parser_carries_no_state(self, capsys):
        forwards = [parsed(cli.parse_args, capsys, argv) for argv in self.ARGVS]
        backwards = [parsed(cli.parse_args, capsys, argv) for argv in reversed(self.ARGVS)]
        assert forwards == backwards[::-1]
        results = [result for result, _, _ in forwards]
        assert results[4:] == [2, 2, 0, 0]
        assert results[0]["field"] == PrimeField(32003) and results[1]["field"] is QQ
        assert results[2]["budget_seconds"] == 0 and results[3]["budget_seconds"] is None

    @pytest.mark.parametrize("argv", [["eulerian", "--n", "15000", "--k", "1"],
                                      ["eulerian", "--n", "x", "--k", "1"]],
                             ids=["answer", "usage-error"])
    def test_main_restores_the_str_digit_limit(self, capsys, digit_limit, argv):
        if digit_limit is None:
            pytest.skip("this Python has no int-to-str digit limit")
        with contextlib.suppress(SystemExit):
            main(argv)
        assert sys.get_int_max_str_digits() == digit_limit
