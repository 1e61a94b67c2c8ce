import json
import threading
from fractions import Fraction

import pytest

from laurent_eulerian.cli import (
    ParseError,
    main,
    parse_laurent,
    parse_laurent_terms,
)


class TestParser:
    def test_symmetric_window(self):
        spec = parse_laurent("z^-1 + z")
        assert (spec.m, spec.n) == (1, 1)
        assert spec.coefficients == {-1: Fraction(1), 1: Fraction(1)}

    def test_rational_coefficients_and_gaps(self):
        spec = parse_laurent("2/3*z^-2 + z + z^3")
        assert (spec.m, spec.n) == (2, 3)
        assert spec.coefficients == {
            -2: Fraction(2, 3),
            1: Fraction(1),
            3: Fraction(1),
        }
        assert spec.support == frozenset({-2, 1, 3})

    def test_constant_terms_and_cancellation(self):
        terms = parse_laurent_terms("3 + z - z + 2*z^2")
        assert terms == {0: Fraction(3), 2: Fraction(2)}

    def test_whitespace_and_case(self):
        assert parse_laurent_terms("Z^- 1+Z") == parse_laurent_terms("z^-1 + z")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_laurent_terms("z^")
        assert exc.value.position == 2

    def test_rejects_unknown_character(self):
        with pytest.raises(ParseError):
            parse_laurent_terms("z + w")

    def test_rejects_one_sided(self):
        with pytest.raises(ParseError):
            parse_laurent("z + z^2")
        with pytest.raises(ParseError):
            parse_laurent("z^-1 + 1")

    def test_rejects_zero(self):
        with pytest.raises(ParseError):
            parse_laurent("z - z")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_laurent_terms("1/0*z")


def run_json(capsys, argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCommands:
    def test_eulerian(self, capsys):
        code, rep = run_json(capsys, ["eulerian", "--n", "4", "--k", "1"])
        assert code == 0
        assert rep == {"command": "eulerian", "inputs": {"n": 4, "k": 1}, "result": 11}

    def test_gen_eulerian(self, capsys):
        code, rep = run_json(capsys, ["gen-eulerian", "--k", "4", "--l", "1", "--d", "5"])
        assert code == 0 and rep["result"] == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_eulerian_past_the_str_digit_limit(self, capsys, fmt):
        # <n,1> = 2^n - n - 1 has 4516 digits at n = 15000, past Python's
        # default limit of 4300 digits on int-to-str conversion
        code = main(["--format", fmt, "eulerian", "--n", "15000", "--k", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert str(2**15000 - 15001) in out

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

    def test_const_terms_symbolic(self, capsys):
        code, rep = run_json(capsys, ["const-terms", "--m", "1", "--n", "1", "--power", "2"])
        assert code == 0
        assert rep["agreement"] is True
        assert rep["inputs"]["field"] == "QQ"

    def test_const_terms_numeric(self, capsys):
        code, rep = run_json(
            capsys, ["const-terms", "--poly", "z^-1 + z", "--power", "4"]
        )
        assert code == 0
        assert rep["result"] == 6  # central binomial C(4, 2)

    def test_charp_scan(self, capsys):
        code, rep = run_json(
            capsys, ["charp-scan", "--p", "2", "--poly", "z^-1 + z", "--max", "32"]
        )
        assert code == 0 and rep["result"] == "none"

    def test_groebner(self, capsys):
        code, rep = run_json(capsys, ["groebner", "--m", "2", "--n", "2"])
        assert code == 0
        assert isinstance(rep["result"], list) and rep["result"]

    def test_degree(self, capsys):
        code, rep = run_json(capsys, ["degree", "--m", "2", "--n", "3"])
        assert code == 0
        assert rep["result"] == {
            "groebner_degree": 11,
            "intersection_degree": 11,
            "eulerian": 11,
        }
        assert rep["agreement"] is True

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

    def test_sparse_degree(self, capsys):
        code, rep = run_json(capsys, ["sparse-degree", "--m", "2", "--n", "2", "--d", "2"])
        assert code == 0 and rep["result"] == "empty"

    def test_decomposition(self, capsys):
        code, rep = run_json(capsys, ["decomposition", "--m", "2", "--n", "3"])
        assert code == 0
        assert rep["result"]["total"] == rep["result"]["expected"] == 11
        assert rep["agreement"] is True

    def test_hilbert_slices(self, capsys):
        code, rep = run_json(
            capsys, ["hilbert-slices", "--m", "2", "--n", "2", "--seed", "0"]
        )
        assert code == 0
        assert rep["result"]["total"] == 4
        assert rep["agreement"] is True

    def test_theorem_matrix(self, capsys):
        code, rep = run_json(capsys, ["theorem-matrix", "--max-total", "4"])
        assert code == 0
        assert rep["agreement"] is True
        assert {c["status"] for c in rep["result"]} == {"ok"}


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        assert main(["const-terms", "--poly", "z^", "--power", "2"]) == 2
        assert "offset 2" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["groebner", "degree", "conjecture-check"])
    def test_budget_timeout_groebner_commands(self, capsys, command):
        code, rep = run_json(
            capsys, [command, "--m", "3", "--n", "3", "--budget-seconds", "0.05"]
        )
        assert code == 0
        assert rep["command"] == command
        assert rep["result"] == "timeout"

    @pytest.mark.parametrize("budget", ["nan", "-1", "inf"])
    def test_budget_must_be_finite_and_non_negative(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main(["groebner", "--m", "2", "--n", "2", "--budget-seconds", budget])
        assert exc.value.code == 2
        assert "seconds" in capsys.readouterr().err

    def test_budget_timeout_off_main_thread(self, capsys):
        argv = ["--format", "json", "hilbert-slices", "--m", "3", "--n", "3",
                "--budget-seconds", "0.05"]
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        captured = capsys.readouterr()
        assert codes == [0], captured.err
        assert json.loads(captured.out)["result"] == "timeout"

    def test_json_schema_keys(self, capsys):
        _, rep = run_json(capsys, ["degree", "--m", "1", "--n", "2"])
        assert set(rep) == {"command", "inputs", "result", "agreement"}
