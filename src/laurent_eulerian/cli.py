"""Command-line surface: every operation behind a subcommand, JSON or text output.

The command line is `[--format text|json] COMMAND [--flag VALUE]...`;
`parse_args` reads it against the subcommand table `COMMANDS`.

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

import json
import numbers
import re
import sys
import types

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


# An argument's type turns its text into its value, or raises ValueError
# with the message the usage error prints after "argument --flag: ".
def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _field_arg(text: str):
    if text.lower() in ("q", "qq", "rational"):
        return QQ
    try:
        return PrimeField(int(text))
    except ValueError:
        raise ValueError(f"expected QQ or a prime, got {text!r}") from None


def _seconds_arg(text: str) -> float:
    """A budget in seconds: finite and non-negative (NaN would never expire)."""
    try:
        value = float(text)
        if valid_seconds(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"not a non-negative number of seconds: {text!r}")


def _int_at_least(low: int):
    """An integer type no smaller than low."""
    def parse(text: str) -> int:
        value = _int_arg(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return parse


def _jsonable(v):
    if isinstance(v, tuple) and hasattr(v, "_asdict"):  # a NamedTuple record
        return _jsonable(v._asdict())
    if isinstance(v, numbers.Rational) and not isinstance(v, numbers.Integral):
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
            if key != "command":
                print("\n".join(_text_lines(key, value)))
    agreement = report.get("agreement")
    return 1 if agreement is False else 0


def _has_records(v) -> bool:
    """Whether a _jsonable value is, or holds in a dict, a list of records."""
    if isinstance(v, dict):
        return any(_has_records(x) for x in v.values())
    return isinstance(v, list) and any(isinstance(x, dict) for x in v)


def _text_lines(key, value, indent=""):
    """`key: value`; a value that holds a list of records opens a block
    instead, indented under `key:`, with one line per record."""
    if not _has_records(value):
        yield f"{indent}{key}: {_render_text(value)}"
        return
    yield f"{indent}{key}:"
    indent += "  "
    if isinstance(value, dict):
        for k, x in value.items():
            yield from _text_lines(k, x, indent)
    else:
        for record in value:
            yield indent + _render_text(record)


def _render_text(v):
    """A _jsonable value as text: a dict as `k=v, ...` and a list in brackets.
    _text_lines gives each list of records a block, so no list here holds one."""
    if isinstance(v, dict):
        return ", ".join(f"{k}={_render_text(x)}" for k, x in v.items())
    if isinstance(v, list):
        return "[" + ", ".join(map(_render_text, v)) + "]"
    return str(v)


# Subcommand name -> (help, arguments, run).  An argument is (flag, options):
# a "--flag" that takes one value, with any of the options "type", "choices",
# "default" and "required" (argparse's meanings).  run(args, report) fills the
# report after the "command" and "inputs" keys that dispatch writes.  A run
# function calls the layer functions through module globals or module
# attributes, looked up when it runs, so code that rebinds those names (a
# tracer, a test's monkeypatch) reaches every subcommand.
COMMANDS: dict = {}

_INT = {"type": _int_arg, "required": True}
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
          ("--cap", {"type": _int_arg, "default": ORBIT_CAP}))
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
          ("--max-power", {"type": _int_arg}), BUDGET)
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
          *WINDOW, ("--orbit-cap", {"type": _int_arg, "default": ORBIT_CAP}))
def _decomposition(args, report):
    rep = experiments.decomposition_report(args.m, args.n, orbit_cap=args.orbit_cap)
    report["result"] = {"rows": rep.rows, "total": rep.total, "expected": rep.expected_total}
    report["agreement"] = rep.agrees


@_command("hilbert-slices", "graded quotient dimensions for generic forms",
          *WINDOW, ("--seed", {"type": _int_arg, "default": 0}),
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


PROG = "laurent-eulerian"
DESCRIPTION = "Exact constant-term, Groebner, Chow, and Eulerian computations"
FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
HELP = ("-h", "--help")
# a token that starts with "-" and still reads as a value: no declared flag
# looks like a negative number, so argparse reads "-1" as one
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _UsageError(Exception):
    """A command line outside the grammar; the message follows "error: "."""


def _dest(flag: str) -> str:
    """The namespace attribute of a --flag: argparse's name for it."""
    return flag[2:].replace("-", "_")


def _metavar(flag: str, kwargs: dict) -> str:
    choices = kwargs.get("choices")
    return "{%s}" % ",".join(choices) if choices else _dest(flag).upper()


def _usage(prog: str, arguments) -> str:
    parts = ["usage:", prog, "[-h]"]
    for flag, kwargs in arguments:
        part = f"{flag} {_metavar(flag, kwargs)}"
        parts.append(part if kwargs.get("required") else f"[{part}]")
    if prog == PROG:
        parts.append("COMMAND [--flag VALUE | --flag=VALUE]...")
    return " ".join(parts)


def _help(prog: str, arguments, description: str) -> str:
    rows = [("-h, --help", "show this help message and exit")]
    for flag, kwargs in arguments:
        default = kwargs.get("default")
        rows.append((f"{flag} {_metavar(flag, kwargs)}",
                     "required" if kwargs.get("required")
                     else "optional" if default is None else f"default: {default}"))
    lines = [_usage(prog, arguments), "", description, ""]
    if prog == PROG:
        lines += ["commands:", *(f"  {name:<18} {help_text}"
                                 for name, (help_text, _, _) in COMMANDS.items()), ""]
    width = max(len(spec) for spec, _ in rows)
    lines += ["options:", *(f"  {spec:<{width}}  {note}" for spec, note in rows)]
    return "\n".join(lines)


def _is_value(token: str, options: dict) -> bool:
    """Whether argparse reads token as a value rather than as an option."""
    if token.partition("=")[0] in options:
        return False
    return (not token.startswith("-") or token == "-" or " " in token
            or _NEGATIVE_NUMBER.match(token) is not None)


def _choice(name: str, value, choices):
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    return value


def _read_options(argv, i, prog, arguments, description, args, extras) -> int:
    """Set args from the options in argv[i:], one parser level (the top level
    when prog is PROG) as argparse reads it; return the index of the command,
    or len(argv).  A token no option takes goes to extras, and below the top
    level so does every value."""
    options = {**dict.fromkeys(HELP), **dict(arguments)}
    while i < len(argv):
        token = argv[i]
        flag, eq, text = token.partition("=")
        if flag not in options:
            if prog == PROG and _is_value(token, options):
                return i
            extras.append(token)
        elif flag in HELP:
            if eq:
                raise _UsageError(f"argument -h/--help: ignored explicit argument {text!r}")
            print(_help(prog, arguments, description))
            raise SystemExit(0)
        else:
            if not eq:
                if i + 1 == len(argv) or not _is_value(argv[i + 1], options):
                    raise _UsageError(f"argument {flag}: expected one argument")
                i += 1
                text = argv[i]
            kwargs = options[flag]
            value = text
            if "type" in kwargs:
                try:
                    value = kwargs["type"](text)
                except ValueError as err:
                    raise _UsageError(f"argument {flag}: {err}") from None
            if "choices" in kwargs:
                _choice(flag, value, kwargs["choices"])
            setattr(args, _dest(flag), value)
        i += 1
    return i


def parse_args(argv=None) -> types.SimpleNamespace:
    """argv (default: sys.argv[1:]) read as `[--format text|json] COMMAND
    [--flag VALUE | --flag=VALUE]...` against `COMMANDS`.

    The namespace holds format, command and every argument COMMAND declares,
    at its default or None where it was not given; a repeated flag keeps its
    last value.  It reads argv as argparse would with the same declarations,
    except that a flag must be spelled in full.  -h/--help, at either level,
    prints help and exits 0; a usage error prints to stderr and exits 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    prog, arguments = PROG, (FORMAT,)
    args = types.SimpleNamespace(format=FORMAT[1]["default"])
    extras = []
    try:
        i = _read_options(argv, 0, prog, arguments, DESCRIPTION, args, extras)
        if i == len(argv):
            raise _UsageError("the following arguments are required: command")
        args.command = _choice("command", argv[i], COMMANDS)
        description, arguments, _ = COMMANDS[args.command]
        prog = f"{PROG} {args.command}"
        for flag, kwargs in arguments:
            setattr(args, _dest(flag), kwargs.get("default"))
        _read_options(argv, i + 1, prog, arguments, description, args, extras)
        missing = [flag for flag, kwargs in arguments
                   if kwargs.get("required") and getattr(args, _dest(flag)) is None]
        if missing:
            raise _UsageError("the following arguments are required: " + ", ".join(missing))
        if extras:  # reported, as argparse does, by the top level
            prog, arguments = PROG, (FORMAT,)
            raise _UsageError("unrecognized arguments: " + " ".join(extras))
    except _UsageError as err:
        print(_usage(prog, arguments), file=sys.stderr)
        print(f"{prog}: error: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    return args


def dispatch(args) -> dict:
    """The subcommand's report, with every declared argument as parsed for
    its inputs; a run that outlives its budget reports a timeout."""
    _, arguments, run = COMMANDS[args.command]
    report = {"command": args.command,
              "inputs": {_dest(flag): getattr(args, _dest(flag)) for flag, _ in arguments}}
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
    args = parse_args(argv)
    try:
        report = dispatch(args)
    except (ValueError, TypeError) as err:  # bad input
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a disagreement: keep it off exit code 1
        import traceback  # only this path prints one: about 0.15 MB of a run
        traceback.print_exc()
        return 3
    return _emit(report, args.format)


if __name__ == "__main__":
    sys.exit(main())
