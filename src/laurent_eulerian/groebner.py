"""Buchberger's algorithm, staircase dimension counts, and the constant-term ideals."""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import QQ, FieldMismatchError, MultiPoly
from .deadline import NO_DEADLINE, Deadline
from .laurent import LaurentSpec, constant_term_iterative


@dataclass(frozen=True)
class TermOrder:
    """Monomial order on exponent tuples, degrevlex or lex, with the variables
    in position order: x_{offset} > x_{offset+1} > ..."""

    kind: str = "degrevlex"

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown order kind {self.kind!r}")

    def key(self):
        if self.kind == "lex":
            return lambda e: e
        return lambda e: (sum(e), tuple(-u for u in reversed(e)))


def _monomial_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monomial_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _make_primitive(p: MultiPoly) -> MultiPoly:
    """Over QQ, scale to integer coefficients with content 1 and positive lead."""
    if p.field != QQ or p.is_zero:
        return p
    den = 1
    for c in p.terms.values():
        den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
    num = 0
    for c in p.terms.values():
        num = math.gcd(num, abs(Fraction(c).numerator * (den // Fraction(c).denominator)))
    scale = Fraction(den, num)
    return p.scale(scale)


class GroebnerBasis:
    """Reduced Groebner basis: monic, interreduced, deterministic element order."""

    def __init__(self, elements: Sequence[MultiPoly], order: TermOrder, nvars: int, offset: int, field):
        self.order = order
        self.nvars = nvars
        self.offset = offset
        self.field = field
        self._key = order.key()
        self.elements = list(elements)
        self.leading = [self._lm(g) for g in self.elements]

    def _lm(self, p: MultiPoly) -> tuple:
        return max(p.terms, key=self._key)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def is_unit(self) -> bool:
        return len(self.elements) == 1 and self.leading[0] == (0,) * self.nvars


def leading_term(p: MultiPoly, order: TermOrder):
    if p.is_zero:
        raise ValueError("zero polynomial has no leading term")
    key = order.key()
    e = max(p.terms, key=key)
    return e, p.terms[e]


def _reduce(p: MultiPoly, reducers, lms, order_key, field,
            deadline: Deadline = NO_DEADLINE) -> MultiPoly:
    """Full normal form of p modulo the reducers (tail reduction included).

    A deadline is checked once per popped work term.
    """
    nvars, offset = p.nvars, p.offset
    remainder: dict = {}
    work = dict(p.terms)
    sub, mul, div = field.sub, field.mul, field.div
    while work:
        deadline.check()
        e = max(work, key=order_key)
        c = work.pop(e)
        for g, lm in zip(reducers, lms):
            if _monomial_divides(lm, e):
                shift = _monomial_sub(e, lm)
                factor = div(c, g.terms[lm])
                for ge, gc in g.terms.items():
                    if ge == lm:
                        continue
                    te = tuple(x + y for x, y in zip(ge, shift))
                    v = mul(factor, gc)
                    if te in work:
                        s = sub(work[te], v)
                        if s:
                            work[te] = s
                        else:
                            del work[te]
                    else:
                        nv = field.neg(v)
                        if nv:
                            work[te] = nv
                break
        else:
            remainder[e] = c
    return MultiPoly(remainder, nvars, offset, field)


def normal_form(p: MultiPoly, G: GroebnerBasis) -> MultiPoly:
    """Remainder of p on division by G; zero iff p lies in the ideal of G."""
    if p.field != G.field:
        raise FieldMismatchError(f"polynomial over {p.field!r}, basis over {G.field!r}")
    if (p.nvars, p.offset) != (G.nvars, G.offset):
        raise ValueError("variable window mismatch")
    if p.is_zero:
        return p
    return _reduce(p, G.elements, G.leading, G._key, G.field)


def s_polynomial(f: MultiPoly, g: MultiPoly, order: TermOrder) -> MultiPoly:
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm = _monomial_lcm(ef, eg)
    fld = f.field
    mf = MultiPoly({_monomial_sub(lcm, ef): fld.inv(cf)}, f.nvars, f.offset, fld)
    mg = MultiPoly({_monomial_sub(lcm, eg): fld.inv(cg)}, f.nvars, f.offset, fld)
    return mf * f - mg * g


def buchberger(generators: Sequence[MultiPoly], order: TermOrder = TermOrder(),
               deadline: Deadline = NO_DEADLINE) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    Normal (degree-minimal) pair selection with the product and chain criteria;
    ties broken by generator index, so the result is deterministic.  Leading
    monomials never change, so each pair's rank is fixed when it is queued and
    a heap pops pairs in exactly the order of a full rescan.  A deadline
    is checked once per popped pair, once per element interreduced, and inside
    every reduction (see _reduce).
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    nvars, offset, field = gens[0].nvars, gens[0].offset, gens[0].field
    for g in gens:
        if g.field != field:
            raise FieldMismatchError("generators over mixed fields")
        if (g.nvars, g.offset) != (nvars, offset):
            raise ValueError("generators over mixed variable windows")
    key = order.key()

    basis = [_make_primitive(g) for g in gens]
    lms = [max(g.terms, key=key) for g in basis]
    done = set()

    def pair_rank(i, j):
        lcm = _monomial_lcm(lms[i], lms[j])
        return (sum(lcm), key(lcm), i, j)

    pairs = [pair_rank(i, j) for i, j in itertools.combinations(range(len(basis)), 2)]
    heapq.heapify(pairs)
    while pairs:
        deadline.check()
        *_, i, j = heapq.heappop(pairs)
        done.add((i, j))
        li, lj = lms[i], lms[j]
        lcm = _monomial_lcm(li, lj)
        # product criterion: coprime leading monomials
        if all(a + b == c for a, b, c in zip(li, lj, lcm)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _monomial_divides(lms[k], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        r = _reduce(s, basis, lms, key, field, deadline) if not s.is_zero else s
        if r.is_zero:
            continue
        r = _make_primitive(r)
        t = len(basis)
        basis.append(r)
        lms.append(max(r.terms, key=key))
        for u in range(t):
            heapq.heappush(pairs, pair_rank(u, t))

    # minimalize: drop elements whose leading monomial is divisible by another's
    keep = []
    for i in range(len(basis)):
        if not any(
            k != i
            and _monomial_divides(lms[k], lms[i])
            and (lms[k] != lms[i] or k < i)
            for k in range(len(basis))
        ):
            keep.append(i)
    # interreduce tails and make monic, in leading-monomial order; no kept
    # leading monomial divides another, so lms[i] stays the leading monomial
    reduced = []
    for i in sorted(keep, key=lambda i: key(lms[i])):
        deadline.check()
        others = [k for k in keep if k != i]
        r = _reduce(basis[i], [basis[k] for k in others], [lms[k] for k in others],
                    key, field, deadline) if others else basis[i]
        reduced.append(r.scale(field.inv(r.terms[lms[i]])))
    return GroebnerBasis(reduced, order, nvars, offset, field)


INFINITE = "infinite"


def quotient_dimension(G: GroebnerBasis):
    """Vector-space dimension of the quotient ring: the staircase count.

    Returns the exact natural number, or the string "infinite" when some
    variable has no pure power among the leading monomials.
    """
    try:
        return len(staircase_monomials(G))
    except ValueError:
        return INFINITE


def staircase_monomials(G: GroebnerBasis) -> list:
    """The monomials outside the leading-term ideal, in lexicographic order.

    Raises ValueError when the quotient is infinite-dimensional: some variable
    has no pure power among the leading monomials.
    """
    lms = G.leading
    bounds = []
    for v in range(G.nvars):
        pure = [e[v] for e in lms if sum(e) == e[v]]
        if not pure:
            raise ValueError("quotient is infinite-dimensional")
        bounds.append(min(pure))
    return [
        mono
        for mono in itertools.product(*(range(b) for b in bounds))
        if not any(_monomial_divides(lm, mono) for lm in lms)
    ]


@dataclass(frozen=True)
class IdealSpec:
    """The constant-term ideal data: window, power range and field."""

    m: int
    n: int
    max_power: Optional[int] = None  # default m+n-1; use m+n for the unit-ideal system
    field: object = QQ

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if self.max_power is None:
            object.__setattr__(self, "max_power", self.m + self.n - 1)
        if self.max_power < 1:
            raise ValueError("max_power must be positive")


def build_ideal(spec: IdealSpec) -> list:
    """Generators: constant terms of the powers 1..max_power with the endpoint
    variables set to 1 (the dehomogenized window)."""
    lspec = LaurentSpec(spec.m, spec.n, field=spec.field)
    # Setting x_{-m} = x_n = 1 drops their exponents, and no two terms merge:
    # a term's degree i and weight 0 fix its x_{-m} and x_n exponents from the
    # others, because that 2x2 system has determinant m+n.
    return [
        MultiPoly({e[1:-1]: c for e, c in constant_term_iterative(lspec, i).terms.items()},
                  spec.m + spec.n - 1, -spec.m + 1, spec.field)
        for i in range(1, spec.max_power + 1)
    ]


def groebner_of_ideal(spec: IdealSpec, order: TermOrder = TermOrder(),
                      deadline: Deadline = NO_DEADLINE) -> GroebnerBasis:
    return buchberger(build_ideal(spec), order, deadline=deadline)


def ideal_quotient_dimension(m: int, n: int, field=QQ,
                             deadline: Deadline = NO_DEADLINE):
    """Degree of the constant-term ideal with powers 1..m+n-1."""
    return quotient_dimension(
        groebner_of_ideal(IdealSpec(m, n, field=field), deadline=deadline)
    )


def conjecture_unit_check(m: int, n: int, deadline: Deadline = NO_DEADLINE) -> bool:
    """Finite evidence only: whether powers 1..m+n generate the unit ideal over QQ."""
    spec = IdealSpec(m, n, max_power=m + n)
    return groebner_of_ideal(spec, deadline=deadline).is_unit
