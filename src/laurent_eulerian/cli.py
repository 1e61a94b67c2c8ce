"""Command-line surface: every operation behind a subcommand, JSON or text output.

Exit codes: 0 success, 1 verification mismatch, 2 usage error or bad input,
3 an unexpected error (a bug; the traceback goes to stderr).

Every `--budget-seconds` (groebner, degree, conjecture-check, hilbert-slices,
theorem-matrix) is the same cooperative `Deadline`, checked where the
`deadline` module lists; without the option the run gets one that never
expires.  A run that exceeds it reports ``result: timeout`` and exits 0;
theorem-matrix instead marks the cell it cut and every later cell
``status: timeout``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from fractions import Fraction

from . import chow, experiments, groebner as gb, laurent
from .eulerian import (
    ORBIT_CAP,
    eulerian,
    gen_eulerian,
    mobius,
    orbit_decomposition,
    worpitzky_check,
)
from .algebra import QQ, PrimeField
from .deadline import Deadline, DeadlineExceeded, valid_seconds
from .laurent import LaurentSpec


def _field_arg(text: str):
    if text.lower() in ("q", "qq", "rational"):
        return QQ
    try:
        return PrimeField(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected QQ or a prime, got {text!r}") from None


def _seconds_arg(text: str) -> float:
    """A budget in seconds: finite and non-negative (NaN would never expire)."""
    value = float(text)
    if not valid_seconds(value):
        raise argparse.ArgumentTypeError(
            f"not a non-negative number of seconds: {text!r}"
        )
    return value


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _jsonable(v):
    if isinstance(v, tuple) and hasattr(v, "_asdict"):  # a NamedTuple record
        return _jsonable(v._asdict())
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else v.numerator
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


def _emit(report: dict, fmt: str) -> int:
    report = _jsonable(report)
    if fmt == "json":
        print(json.dumps(report, indent=2, default=str))
    else:
        for key, value in report.items():
            if key == "command":
                continue
            print(f"{key}: {_render_text(value)}")
    agreement = report.get("agreement")
    return 1 if agreement is False else 0


def _render_text(v):
    """A _jsonable value as text: its containers are dicts and lists, and each
    record of a list is set off in braces."""
    if isinstance(v, dict):
        return ", ".join(f"{k}={_render_text(x)}" for k, x in v.items())
    if isinstance(v, list):
        return "[" + ", ".join("{%s}" % _render_text(x) if isinstance(x, dict)
                               else _render_text(x) for x in v) + "]"
    return str(v)


# Subcommand name -> (help, arguments, run).  An argument is (flag, keyword
# arguments of add_argument); run(args, report) fills the report after the
# "command" and "inputs" keys that dispatch writes.  A run function calls the
# layer functions through module globals or module attributes, looked up when
# it runs, so code that rebinds those names (a tracer, a test's monkeypatch)
# reaches every subcommand.
COMMANDS: dict = {}

_INT = {"type": int, "required": True}
WINDOW = (("--m", _INT), ("--n", _INT))
FIELD = ("--field", {"type": _field_arg, "default": QQ})
BUDGET = ("--budget-seconds", {"type": _seconds_arg})


def _command(name: str, help_text: str, *arguments):
    def register(run):
        COMMANDS[name] = (help_text, arguments, run)
        return run
    return register


@_command("eulerian", "Eulerian number <n, k>", ("--n", _INT), ("--k", _INT))
def _eulerian(args, report):
    report["result"] = eulerian(args.n, args.k)


@_command("gen-eulerian", "generalized Eulerian number with step d",
          ("--k", _INT), ("--l", _INT), ("--d", _INT))
def _gen_eulerian(args, report):
    report["result"] = gen_eulerian(args.k, args.l, args.d)


@_command("worpitzky", "exact polynomial identity check", ("--k", _INT))
def _worpitzky(args, report):
    report["result"] = report["agreement"] = worpitzky_check(args.k)


@_command("mobius", "classical Moebius function", ("--n", _INT))
def _mobius(args, report):
    report["result"] = mobius(args.n)


@_command("orbits", "add-1 orbits of circular permutations",
          ("--size", _INT), ("--ascents", _INT),
          ("--cap", {"type": int, "default": ORBIT_CAP}))
def _orbits(args, report):
    dec = orbit_decomposition(args.size, args.ascents, cap=args.cap)
    expected = eulerian(args.size - 1, args.ascents - 1)
    report["result"] = {
        "orbit_sizes": dec.sizes,
        "representatives": [" ".join(map(str, r.elements)) for r in dec.representatives],
        "total": dec.total,
    }
    report["agreement"] = dec.total == expected


@_command("const-terms",
          "constant term of f^power; both algorithms compared on every power up to it",
          *WINDOW, FIELD, ("--power", _INT))
def _const_terms(args, report):
    spec = LaurentSpec(args.m, args.n, field=args.field)
    a = laurent.constant_term_iterative(spec, args.power)
    b = [laurent.constant_term_multinomial(spec, i) for i in range(1, args.power + 1)]
    report["result"] = str(a[-1])
    report["agreement"] = a == b


@_command("groebner", "reduced basis of the constant-term ideal",
          *WINDOW, FIELD,
          ("--order", {"choices": ("degrevlex", "lex"), "default": "degrevlex"}),
          ("--max-power", {"type": int}), BUDGET)
def _groebner(args, report):
    spec = gb.IdealSpec(args.m, args.n, max_power=args.max_power, field=args.field)
    basis = gb.groebner_of_ideal(spec, gb.TermOrder(args.order),
                                 deadline=Deadline(args.budget_seconds))
    report["result"] = [str(g) for g in basis]


@_command("degree", "ideal degree vs intersection number vs Eulerian",
          *WINDOW, FIELD, BUDGET)
def _degree(args, report):
    cell = experiments.degree_cell(args.m, args.n, field=args.field,
                                   deadline=Deadline(args.budget_seconds))
    report["result"] = cell
    report["agreement"] = cell.agrees


@_command("conjecture-check", "unit-ideal evidence for powers 1..m+n", *WINDOW, BUDGET)
def _conjecture_check(args, report):
    report["note"] = "finite evidence only; the conjecture itself is open"
    value = gb.conjecture_unit_check(args.m, args.n, deadline=Deadline(args.budget_seconds))
    report["result"] = report["agreement"] = value


@_command("chow-expand", "basis coordinates of k! D_0^k", *WINDOW, ("--k", _INT))
def _chow_expand(args, report):
    coords = chow.ChowRing(args.m, args.n).d0_power_expansion(args.k)
    report["result"] = {f"D_(-{i},{j})": v for (i, j), v in coords.items()}
    report["agreement"] = all(
        v == chow.expected_d0_coefficient(args.m, args.n, args.k, i)
        for (i, j), v in coords.items()
    )


@_command("ci-degree", "degree of the generic complete intersection", *WINDOW)
def _ci_degree(args, report):
    v = chow.generic_ci_degree(args.m, args.n)
    ev = eulerian(args.m + args.n - 1, args.m - 1)
    report["result"] = v
    report["agreement"] = v == ev


@_command("sparse-degree", "degree of the sparse complete intersection",
          *WINDOW, ("--d", _INT))
def _sparse_degree(args, report):
    sd = chow.sparse_ci_degree(args.m, args.n, args.d)
    report["result"] = "empty" if sd.empty else sd.value


@_command("decomposition", "divisor decomposition of the Eulerian number",
          *WINDOW, ("--orbit-cap", {"type": int, "default": ORBIT_CAP}))
def _decomposition(args, report):
    rep = experiments.decomposition_report(args.m, args.n, orbit_cap=args.orbit_cap)
    report["result"] = {"rows": rep.rows, "total": rep.total, "expected": rep.expected_total}
    report["agreement"] = rep.agrees


@_command("hilbert-slices", "graded quotient dimensions for generic forms",
          *WINDOW, ("--seed", {"type": int, "default": 0}),
          ("--j-max", {"type": _int_at_least(0)}), BUDGET)
def _hilbert_slices(args, report):
    value = experiments.graded_quotient_dims(
        args.m, args.n, seed=args.seed, j_max=args.j_max,
        deadline=Deadline(args.budget_seconds),
    )
    report["result"] = {"dims": value.dims, "total": value.total,
                        "seeds_tried": value.seeds_tried}
    # a profile cut below the top slice has no total to compare
    full = args.j_max is None or args.j_max >= experiments.default_j_max(args.m, args.n)
    ev = eulerian(args.m + args.n - 1, args.m - 1)
    report["agreement"] = value.total == ev if full else None


@_command("theorem-matrix", "degree-agreement grid over all m+n <= bound",
          ("--max-total", {"type": _int_at_least(2), "required": True}), BUDGET)
def _theorem_matrix(args, report):
    rep = experiments.theorem_matrix(args.max_total, Deadline(args.budget_seconds))
    report["result"] = rep.cells
    report["agreement"] = rep.agrees


class _Subparser:
    """A subcommand's parser, built the first time argparse reads from it.

    `build_parser` keeps its parser for the life of the process.  With every
    subcommand's parser built up front that is about 70 KB, which a run of
    one subcommand would hold through its whole computation.  argparse lists
    the subcommands and their help from `add_parser` alone, and reads a
    subcommand's parser only to parse that subcommand's arguments.
    """

    def __init__(self, arguments, **kwargs):
        self._arguments = arguments
        self._kwargs = kwargs

    @functools.cached_property
    def _parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(**self._kwargs)
        for flag, kwargs in self._arguments:
            parser.add_argument(flag, **kwargs)
        return parser

    def __getattr__(self, name):
        return getattr(self._parser, name)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.

    It depends only on `COMMANDS`, and `parse_args` leaves it unchanged, so
    `main` may reuse it for each argv.  Each subcommand's own parser is built
    on first use (`_Subparser`).
    """
    ap = argparse.ArgumentParser(
        prog="laurent-eulerian",
        description="Exact constant-term, Groebner, Chow, and Eulerian computations",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Subparser)
    for name, (help_text, arguments, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text, arguments=arguments)
    return ap


def dispatch(args) -> dict:
    """The subcommand's report, with every declared argument as parsed for
    its inputs; a run that outlives its budget reports a timeout."""
    _, arguments, run = COMMANDS[args.command]
    dests = [flag[2:].replace("-", "_") for flag, _ in arguments]  # argparse's dest
    report = {"command": args.command, "inputs": {d: getattr(args, d) for d in dests}}
    try:
        run(args, report)
    except DeadlineExceeded:
        report["result"] = "timeout"
    return report


def main(argv=None) -> int:
    # answers are exact integers: print them in full, past Python's default
    # 4300-digit limit on int-to-str conversion (<1600, 800> already has more);
    # the caller's limit comes back on the way out
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = dispatch(args)
    except (ValueError, TypeError) as err:  # bad input
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a disagreement: keep it off exit code 1
        traceback.print_exc()
        return 3
    return _emit(report, args.format)


if __name__ == "__main__":
    sys.exit(main())
