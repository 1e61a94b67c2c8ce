"""Command-line surface: every operation behind a subcommand, JSON or text output.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error.

`--budget-seconds` on groebner, degree, conjecture-check and hilbert-slices is
a cooperative deadline, checked between Buchberger pairs, Hilbert slices and
pivot columns.  A run that exceeds it reports ``result: timeout`` and exits 0.
Nothing interrupts the computation from outside, so the budget holds on any
thread and any OS.  theorem-matrix keeps a soft budget: it only stops cells
from starting.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import chow, experiments, groebner as gb, laurent
from .eulerian import (
    eulerian,
    gen_eulerian,
    mobius,
    orbit_decomposition,
    worpitzky_check,
)
from .algebra import QQ, PrimeField
from .deadline import Deadline, DeadlineExceeded
from .laurent import LaurentSpec


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<op>[zZ^*/+-]))")


def _tokenize(s: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            stripped = s[pos:].lstrip()
            at = len(s) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("int") is not None:
            out.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("op"):
            op = m.group("op").lower()
            out.append((op, op, m.start("op")))
        pos = m.end()
    return out


def parse_laurent_terms(s: str) -> dict:
    """Exponent -> rational coefficient, per the term grammar.

    term ::= [coeff '*'] 'z' ['^' signed-int] | coeff
    poly ::= term (('+'|'-') term)*
    coeff ::= integer | integer '/' integer
    """
    tokens = _tokenize(s)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    pos = 0

    def peek(kind):
        return pos < len(tokens) and tokens[pos][0] == kind

    def expect(kind, what):
        nonlocal pos
        if not peek(kind):
            at = tokens[pos][2] if pos < len(tokens) else len(s)
            raise ParseError(f"expected {what}", at)
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_coeff() -> Fraction:
        nonlocal pos
        num = expect("int", "integer")[1]
        if peek("/"):
            pos += 1
            den = expect("int", "denominator")[1]
            if den == 0:
                raise ParseError("zero denominator", tokens[pos - 1][2])
            return Fraction(num, den)
        return Fraction(num)

    def parse_term():
        nonlocal pos
        if peek("int"):
            c = parse_coeff()
            if peek("*"):
                pos += 1
                expect("z", "'z'")
                return c, parse_exponent()
            return c, 0
        expect("z", "'z' or coefficient")
        return Fraction(1), parse_exponent()

    def parse_exponent() -> int:
        nonlocal pos
        if not peek("^"):
            return 1
        pos += 1
        sign = 1
        if peek("-"):
            sign = -1
            pos += 1
        elif peek("+"):
            pos += 1
        at = tokens[pos][2] if pos < len(tokens) else len(s)
        if not peek("int"):
            raise ParseError("expected exponent", at)
        return sign * expect("int", "exponent")[1]

    terms: dict = {}

    def absorb(sign):
        c, e = parse_term()
        terms[e] = terms.get(e, Fraction(0)) + sign * c

    absorb(1)
    while pos < len(tokens):
        kind, _, at = tokens[pos]
        if kind == "+":
            pos += 1
            absorb(1)
        elif kind == "-":
            pos += 1
            absorb(-1)
        else:
            raise ParseError("expected '+' or '-'", at)
    return {e: c for e, c in terms.items() if c}


def parse_laurent(s: str, field=QQ) -> LaurentSpec:
    """Numeric LaurentSpec with m = -(min exponent) and n = max exponent."""
    terms = parse_laurent_terms(s)
    if not terms:
        raise ParseError("polynomial is zero", 0)
    lo, hi = min(terms), max(terms)
    if lo >= 0 or hi <= 0:
        raise ParseError(
            "window polynomial needs a negative and a positive power of z", 0
        )
    m, n = -lo, hi
    coeffs = {j: field.coerce(c) for j, c in terms.items()}
    return LaurentSpec(m, n, frozenset(coeffs), field, coeffs)


def _field_arg(text: str):
    if text.lower() in ("q", "qq", "rational"):
        return QQ
    return PrimeField(int(text))


def _seconds_arg(text: str) -> float:
    """A budget in seconds: finite and non-negative (NaN would never expire)."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"not a non-negative number of seconds: {text!r}"
        )
    return value


def _deadline(args):
    """The run's Deadline from --budget-seconds, or None without a budget."""
    if args.budget_seconds is None:
        return None
    return Deadline(args.budget_seconds)


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else v.numerator
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return v


def _emit(report: dict, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(_jsonable(report), indent=2, default=str))
    else:
        for key, value in report.items():
            if key == "command":
                continue
            print(f"{key}: {_render_text(value)}")
    agreement = report.get("agreement")
    return 1 if agreement is False else 0


def _render_text(v):
    if isinstance(v, dict):
        return ", ".join(f"{k}={_render_text(x)}" for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_render_text(x) for x in v) + "]"
    return str(v)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="laurent-eulerian",
        description="Exact constant-term, Groebner, Chow, and Eulerian computations",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        return p

    p = cmd("eulerian", help="Eulerian number <n, k>")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = cmd("gen-eulerian", help="generalized Eulerian number with step d")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = cmd("worpitzky", help="exact polynomial identity check")
    p.add_argument("--k", type=int, required=True)

    p = cmd("mobius", help="classical Moebius function")
    p.add_argument("--n", type=int, required=True)

    p = cmd("orbits", help="add-1 orbits of circular permutations")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--ascents", type=int, required=True)
    p.add_argument("--cap", type=int, default=11)

    p = cmd("const-terms", help="constant terms of powers, both algorithms")
    p.add_argument("--poly", help="numeric window Laurent polynomial, e.g. 'z^-1 + z'")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--field", type=_field_arg, default=QQ)
    p.add_argument("--power", type=int, required=True)

    p = cmd("charp-scan", help="first power with nonzero constant term over GF(p)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--max", type=int, default=64)

    p = cmd("groebner", help="reduced basis of the constant-term ideal")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", type=_field_arg, default=QQ)
    p.add_argument("--order", choices=("degrevlex", "lex"), default="degrevlex")
    p.add_argument("--max-power", type=int)
    p.add_argument("--budget-seconds", type=_seconds_arg)

    p = cmd("degree", help="ideal degree vs intersection number vs Eulerian")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", type=_field_arg, default=QQ)
    p.add_argument("--budget-seconds", type=_seconds_arg)

    p = cmd("conjecture-check", help="unit-ideal evidence for powers 1..m+n")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget-seconds", type=_seconds_arg)

    p = cmd("chow-expand", help="basis coordinates of k! D_0^k")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = cmd("ci-degree", help="degree of the generic complete intersection")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = cmd("sparse-degree", help="degree of the sparse complete intersection")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = cmd("decomposition", help="divisor decomposition of the Eulerian number")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orbit-cap", type=int, default=11)

    p = cmd("hilbert-slices", help="graded quotient dimensions for generic forms")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--j-max", type=int)
    p.add_argument("--budget-seconds", type=_seconds_arg)

    p = cmd("theorem-matrix", help="degree-agreement grid over all m+n <= bound")
    p.add_argument("--max-total", type=int, required=True)
    p.add_argument("--budget-seconds", type=_seconds_arg)
    return ap


def _poly_str(p) -> str:
    return str(p)


def dispatch(args) -> dict:
    cmd = args.command
    if cmd == "eulerian":
        return {
            "command": cmd,
            "inputs": {"n": args.n, "k": args.k},
            "result": eulerian(args.n, args.k),
        }
    if cmd == "gen-eulerian":
        return {
            "command": cmd,
            "inputs": {"k": args.k, "l": args.l, "d": args.d},
            "result": gen_eulerian(args.k, args.l, args.d),
        }
    if cmd == "worpitzky":
        ok = worpitzky_check(args.k)
        return {
            "command": cmd,
            "inputs": {"k": args.k},
            "result": ok,
            "agreement": ok,
        }
    if cmd == "mobius":
        return {"command": cmd, "inputs": {"n": args.n}, "result": mobius(args.n)}
    if cmd == "orbits":
        dec = orbit_decomposition(args.size, args.ascents, cap=args.cap)
        expected = eulerian(args.size - 1, args.ascents - 1)
        return {
            "command": cmd,
            "inputs": {"size": args.size, "ascents": args.ascents},
            "result": {
                "orbit_sizes": dec.sizes,
                "representatives": [
                    " ".join(map(str, r.elements)) for r in dec.representatives
                ],
                "total": dec.total,
            },
            "agreement": dec.total == expected,
        }
    if cmd == "const-terms":
        if args.poly is not None:
            spec = parse_laurent(args.poly, args.field)
        else:
            if args.m is None or args.n is None:
                raise SystemExit(2)
            spec = LaurentSpec(args.m, args.n, field=args.field)
        a = laurent.constant_term_iterative(spec, args.power).value
        b = laurent.constant_term_multinomial(spec, args.power).value
        return {
            "command": cmd,
            "inputs": {
                "poly": args.poly,
                "m": spec.m,
                "n": spec.n,
                "power": args.power,
                "field": laurent.field_name(spec.field),
            },
            "result": _poly_str(a) if spec.symbolic else _jsonable(a),
            "agreement": a == b,
        }
    if cmd == "charp-scan":
        spec = parse_laurent(args.poly, PrimeField(args.p))
        hit = laurent.charp_scan(spec, args.max)
        return {
            "command": cmd,
            "inputs": {"p": args.p, "poly": args.poly, "max": args.max},
            "result": "none" if hit is None else hit,
        }
    if cmd == "groebner":
        spec = gb.IdealSpec(args.m, args.n, max_power=args.max_power, field=args.field)
        order = gb.TermOrder(args.order)
        report = {
            "command": cmd,
            "inputs": {
                "m": args.m,
                "n": args.n,
                "order": args.order,
                "field": laurent.field_name(args.field),
            },
        }
        try:
            basis = gb.groebner_of_ideal(spec, order, deadline=_deadline(args))
        except DeadlineExceeded:
            report["result"] = "timeout"
            return report
        report["result"] = [str(g) for g in basis]
        return report
    if cmd == "degree":
        ev = eulerian(args.m + args.n - 1, args.m - 1)
        report = {
            "command": cmd,
            "inputs": {"m": args.m, "n": args.n, "field": laurent.field_name(args.field)},
        }
        try:
            g = gb.ideal_quotient_dimension(
                args.m, args.n, field=args.field, deadline=_deadline(args)
            )
        except DeadlineExceeded:
            report["result"] = "timeout"
            return report
        c = chow.generic_ci_degree(args.m, args.n) if args.m + args.n > 2 else None
        agreement = g == ev and (c is None or c == ev)
        report["result"] = {
            "groebner_degree": g,
            "intersection_degree": _jsonable(c) if c is not None else None,
            "eulerian": ev,
        }
        report["agreement"] = agreement
        return report
    if cmd == "conjecture-check":
        report = {
            "command": cmd,
            "inputs": {"m": args.m, "n": args.n},
            "note": "finite evidence only; the conjecture itself is open",
        }
        try:
            value = gb.conjecture_unit_check(args.m, args.n, deadline=_deadline(args))
        except DeadlineExceeded:
            report["result"] = "timeout"
            return report
        report["result"] = value
        report["agreement"] = value
        return report
    if cmd == "chow-expand":
        ring = chow.ChowRing(args.m, args.n)
        coords = ring.d0_power_expansion(args.k)
        agreement = all(
            v == chow.expected_d0_coefficient(args.m, args.n, args.k, i)
            for (i, j), v in coords.items()
        )
        return {
            "command": cmd,
            "inputs": {"m": args.m, "n": args.n, "k": args.k},
            "result": {f"D_(-{i},{j})": _jsonable(v) for (i, j), v in coords.items()},
            "agreement": agreement,
        }
    if cmd == "ci-degree":
        v = chow.generic_ci_degree(args.m, args.n)
        ev = eulerian(args.m + args.n - 1, args.m - 1)
        return {
            "command": cmd,
            "inputs": {"m": args.m, "n": args.n},
            "result": _jsonable(v),
            "agreement": v == ev,
        }
    if cmd == "sparse-degree":
        sd = chow.sparse_ci_degree(args.m, args.n, args.d)
        return {
            "command": cmd,
            "inputs": {"m": args.m, "n": args.n, "d": args.d},
            "result": "empty" if sd.empty else sd.value,
        }
    if cmd == "decomposition":
        rep = experiments.decomposition_report(args.m, args.n, orbit_cap=args.orbit_cap)
        return {
            "command": cmd,
            "inputs": {"m": args.m, "n": args.n},
            "result": {
                "rows": [
                    {
                        "d": r.d,
                        "gen_eulerian": r.gen_eulerian_value,
                        "empty": r.empty,
                        "deg_circle": r.deg_circle,
                        "orbit_count": r.orbit_count,
                    }
                    for r in rep.rows
                ],
                "total": rep.total,
                "expected": rep.expected_total,
            },
            "agreement": rep.agrees,
        }
    if cmd == "hilbert-slices":
        report = {
            "command": cmd,
            "inputs": {"m": args.m, "n": args.n, "j_max": args.j_max},
            "seed": args.seed,
        }
        try:
            value = experiments.graded_quotient_dims(
                args.m, args.n, seed=args.seed, j_max=args.j_max,
                deadline=_deadline(args),
            )
        except DeadlineExceeded:
            report["result"] = "timeout"
            return report
        report["result"] = {
            "dims": list(value.dims),
            "total": value.total,
            "seeds_tried": list(value.seeds_tried),
        }
        report["agreement"] = value.total == eulerian(
            args.m + args.n - 1, args.m - 1
        )
        return report
    if cmd == "theorem-matrix":
        rep = experiments.theorem_matrix(args.max_total, args.budget_seconds)
        return {
            "command": cmd,
            "inputs": {"max_total": args.max_total},
            "result": [
                {
                    "m": c.m,
                    "n": c.n,
                    "eulerian": c.eulerian_value,
                    "groebner_degree": c.groebner_degree,
                    "intersection_degree": c.chow_degree,
                    "unit_ideal": c.unit_ideal,
                    "status": "timeout" if c.timeout else "ok",
                }
                for c in rep.cells
            ],
            "agreement": rep.agrees,
        }
    raise SystemExit(2)


def main(argv=None) -> int:
    # answers are exact integers: print them in full, past Python's default
    # 4300-digit limit on int-to-str conversion (<1600, 800> already has more)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        report = dispatch(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return _emit(report, args.format)


if __name__ == "__main__":
    sys.exit(main())
