"""Buchberger's algorithm, staircase dimension counts, and the constant-term ideals.

buchberger and normal_form run on packed monomials behind one boundary,
_on_packing, which checks fields and windows, packs, widens the fields on
overflow and unpacks.  One term update, _subtract, takes a multiple of a
shifted element off a packed polynomial: each reduction step is one call,
and each s-polynomial two.  Every element of a basis, generator or
s-polynomial remainder, enters fully reduced and primitive.  Over QQ the
reduction is fraction-free: the elements are primitive integer polynomials,
a step scales by field.cancel instead of dividing, and only reading a monic
basis or an exact normal form divides.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import NamedTuple, Optional, Sequence

from .algebra import QQ, MultiPoly
from .deadline import NO_DEADLINE, Deadline
from .eulerian import check_window
from .laurent import constant_term_iterative


# the term orders by name, the variables in position order: x_{offset} >
# x_{offset+1} > ...  lex compares the exponent tuples from the first
# exponent.  degrevlex compares total degrees, and of two monomials of one
# degree the larger has the smaller exponent at the last position where they
# differ.  Packing encodes the order.
ORDERS = ("degrevlex", "lex")


class ExponentOverflow(OverflowError):
    """A monomial has a field that does not fit its packing's width."""


class Packing:
    """Exponent vectors packed into single integers (Monagan & Pearce 2007).

    Every field is `width` value bits under one guard bit, and the guard bits
    of a packed monomial are zero.  The low fields hold the exponents.  For
    degrevlex the fields above them hold the prefix sums a_0 + ... + a_k,
    k = 0..nvars-1, so that read from the top they are deg, deg - a_{n-1},
    deg - a_{n-1} - a_{n-2}, ...: the degree first, then the smaller last
    differing exponent wins, which is degrevlex.  For lex the exponents are
    the only fields, x_0's on top.  Every field is linear in the exponents, so

    - comparing two packed integers compares the monomials in the term order;
    - a + b packs the product, and b - a the quotient when a divides b;
    - a divides b iff b - a sets no guard bit, since the lowest field that
      borrows sets its own;
    - a product overflows iff it sets a guard bit: each field of a sum of two
      packed monomials is below 2**(width + 1).
    """

    def __init__(self, order: str, nvars: int, width: int):
        step = width + 1
        self.width = width
        self._field = (1 << width) - 1
        if order == "degrevlex":
            nfields = 2 * nvars
            self._shifts = [step * i for i in range(nvars)]
            # the exponent fields times _sums put a_0 + ... + a_k in field nvars + k
            self._sums = sum(1 << step * (nvars + k) for k in range(nvars))
            self._largest = sum
        elif order == "lex":
            nfields = nvars
            self._shifts = [step * (nvars - 1 - i) for i in range(nvars)]
            self._sums = 0
            self._largest = max
        else:
            raise ValueError(f"unknown term order {order!r}")
        self._sums_mask = sum(self._field << step * f for f in range(nvars, nfields))
        self.guards = sum(1 << step * f + width for f in range(nfields))
        self._exponents = sum(self._field << s for s in self._shifts)
        self._exponent_guards = sum(1 << s + width for s in self._shifts)

    def _with_sums(self, x: int) -> int:
        """The packed monomial whose exponent fields are x's."""
        return x + (x * self._sums & self._sums_mask)

    def pack(self, e: tuple) -> int:
        if self._largest(e) > self._field:
            raise ExponentOverflow(f"{e} does not fit {self.width}-bit fields")
        return self._with_sums(sum(a << s for a, s in zip(e, self._shifts)))

    def unpack(self, p: int) -> tuple:
        return tuple(p >> s & self._field for s in self._shifts)

    def _ge_mask(self, a: int, b: int, guards: int) -> int:
        """All value bits of each field (among those guards marks) where a's
        field is at least b's: (a | guards) - b borrows across no field."""
        t = ((a | guards) - b) & guards
        return t - (t >> self.width)

    def lcm(self, a: int, b: int) -> int:
        """lcm(a, b) = a + b - gcd(a, b); raises ExponentOverflow if it does not fit."""
        ge = self._ge_mask(a, b, self._exponent_guards)
        gcd = b & ge | a & (self._exponents ^ ge)
        lcm = a + b - self._with_sums(gcd)
        if lcm & self.guards:
            raise ExponentOverflow("an lcm does not fit the fields")
        return lcm

    def top(self, monomials) -> int:
        """The fieldwise maximum of the monomials: top + s sets a guard bit
        iff m + s does for some monomial m."""
        top = 0
        for p in monomials:
            ge = self._ge_mask(top, p, self.guards)
            top = top & ge | p & ~ge
        return top


def _on_packing(order: str, polys: Sequence[MultiPoly], run) -> list:
    """The packed boundary: run(packing, packed) on the polynomials packed,
    with fields wide enough for four times their largest degree and twice as
    wide each time a monomial overflows.  run returns packed polynomials,
    unpacked here over the polynomials' window and field, which must agree."""
    first = polys[0]
    for p in polys:
        first._check_compatible(p)
    degree = max(sum(e) for p in polys for e in p.terms)
    width = max(4 * degree, 1).bit_length()
    while True:
        packing = Packing(order, first.nvars, width)
        try:
            result = run(packing, [{packing.pack(e): c for e, c in p.terms.items()}
                                   for p in polys])
            break
        except ExponentOverflow:
            width *= 2
    return [MultiPoly({packing.unpack(e): c for e, c in r.items()},
                      first.nvars, first.offset, first.field) for r in result]


def _primitive(terms: dict, field) -> dict:
    """The terms times one positive scalar (field.primitive): over QQ,
    coprime integer coefficients."""
    return dict(zip(terms, field.primitive(list(terms.values()))))


def _element(terms: dict, packing: Packing) -> tuple:
    """A packed polynomial as (lm, lc, tail, top): its leading monomial and
    coefficient, its other terms as (monomial, coefficient) pairs, and the
    fieldwise maximum of its monomials."""
    lm = max(terms)
    tail = [(e, c) for e, c in terms.items() if e != lm]
    return lm, terms[lm], tail, packing.top(terms)


class GroebnerBasis:
    """Reduced Groebner basis: interreduced, in increasing order of the
    leading monomials, which `leading` lists as exponent tuples.

    `primitive` holds each element as the engine leaves it, a nonzero scalar
    multiple of the monic one; over QQ it has coprime integer coefficients.
    `leading`, `len` and `is_unit` read no coefficient.  `elements`, and
    iteration, give the monic elements: each is divided by its leading
    coefficient on the first read of `elements`, so over QQ only a basis
    that is read term by term can make a Fraction.
    """

    def __init__(self, primitive: Sequence[MultiPoly], leading: Sequence[tuple],
                 order: str):
        self.primitive = list(primitive)
        self.leading = list(leading)
        self.order = order
        self.nvars = self.primitive[0].nvars
        self.field = self.primitive[0].field

    @functools.cached_property
    def elements(self) -> list:
        div = self.field.div
        monic = []
        for g, lm in zip(self.primitive, self.leading):
            lc = g.terms[lm]
            monic.append(MultiPoly({e: div(c, lc) for e, c in g.terms.items()},
                                   g.nvars, g.offset, g.field))
        return monic

    def __len__(self):
        return len(self.primitive)

    def __iter__(self):
        return iter(self.elements)

    @property
    def is_unit(self) -> bool:
        return len(self.primitive) == 1 and self.leading[0] == (0,) * self.nvars


def _subtract(work: dict, element: tuple, shift: int, factor, field, guards: int) -> None:
    """work -= factor x^shift tail(element), in place, for an _element; raises
    ExponentOverflow if a shifted monomial does not fit the fields."""
    _, _, tail, top = element
    if (top + shift) & guards:
        raise ExponentOverflow("a shifted element does not fit the fields")
    sub, mul = field.sub, field.mul
    for e, c in tail:
        e += shift
        v = mul(factor, c)
        if e in work:
            d = sub(work[e], v)
            if d:
                work[e] = d
            else:
                del work[e]
        else:  # factor, c nonzero, so v is too
            work[e] = field.neg(v)


# once the product of a reduction's scales passes this many bits, and again
# each time what is left of it doubles, _reduce divides out the part of it
# that all coefficients share
_CONTENT_BITS = 64


def _reduce(work: dict, reducers, field, guards: int,
            deadline: Deadline = NO_DEADLINE) -> dict:
    """Full normal form (tail reduction included) of the packed polynomial
    work, which is consumed, modulo the reducers, each an _element; up to a
    nonzero scalar over QQ.

    The first reducer whose leading monomial divides a popped term reduces
    it.  The step is fraction-free: for the popped c x^e and a reducer with
    leading coefficient a, field.cancel gives (scale, factor), work and the
    remainder are multiplied by scale, and factor x^shift tail is taken off
    work.  Over QQ, with integer work and reducers, everything stays an
    integer, and the remainder is a positive multiple of the true one.  The
    part of the scales' product that divides every coefficient of work and
    the remainder is divided out (see _CONTENT_BITS).  Over a prime field
    the scale is 1.  A deadline is checked once per popped work term.
    """
    remainder = {}
    grown, limit = 1, _CONTENT_BITS  # the scales' product not divided out
    while work:
        deadline.check()
        e = max(work)
        c = work.pop(e)
        for h in reducers:
            shift = e - h[0]
            if not shift & guards:
                scale, factor = field.cancel(c, h[1])
                if scale != 1:  # over QQ only, so on ints
                    work = {k: v * scale for k, v in work.items()}
                    remainder = {k: v * scale for k, v in remainder.items()}
                    grown *= scale
                _subtract(work, h, shift, factor, field, guards)
                if grown.bit_length() > limit:
                    # grown first: a gcd with it is short, and math.gcd
                    # skips the gcds left once it reaches 1
                    content = math.gcd(grown, *work.values(), *remainder.values())
                    if content > 1:
                        work = {k: v // content for k, v in work.items()}
                        remainder = {k: v // content for k, v in remainder.items()}
                        grown //= content
                    limit = max(_CONTENT_BITS, 2 * grown.bit_length())
                break
        else:
            remainder[e] = c
    return remainder


# a key below every packed monomial that no monomial divides: a term there
# rides through _reduce untouched but for the scales and the content removal,
# so its final coefficient is what the remainder was multiplied by
_SCALE_KEY = -1


def normal_form(p: MultiPoly, G: GroebnerBasis) -> MultiPoly:
    """Remainder of p on division by G; zero iff p lies in the ideal of G.

    The division runs on G's primitive elements.  Over QQ it runs in
    integers: p's denominators are cleared on entry, and the remainder is
    divided by the accumulated scale once, at the end.
    """
    field = p.field

    def run(packing, packed):
        reducers = [_element(g, packing) for g in packed[1:]]
        work = _primitive({**packed[0], _SCALE_KEY: field.one}, field)
        remainder = _reduce(work, reducers, field, packing.guards)
        scale = remainder.pop(_SCALE_KEY)
        return [{e: field.div(c, scale) for e, c in remainder.items()}]

    return _on_packing(G.order, [p, *G.primitive], run)[0]


def _s_polynomial(f: tuple, g: tuple, lcm: int, field, guards: int) -> dict:
    """scale (lcm / lm(f)) f - factor (lcm / lm(g)) g for two _elements, with
    (scale, factor) = field.cancel(lc(f), lc(g)); the leading terms cancel
    and are left out."""
    scale, factor = field.cancel(f[1], g[1])
    s = {}
    _subtract(s, f, lcm - f[0], field.neg(scale), field, guards)
    _subtract(s, g, lcm - g[0], factor, field, guards)
    return s


def _buchberger(gens: list, packing: Packing, field, deadline: Deadline) -> list:
    """The reduced Groebner basis of the packed generators, which are
    consumed, as primitive packed polynomials in increasing leading-monomial
    order, each with its leading monomial first."""
    guards = packing.guards
    elements = []  # every _element added, the generators' remainders first
    active = []  # indices of the elements whose leading monomial no later one divides
    pairs = []  # ascending (degree of the lcm, lcm, i, j), i < j

    def add(terms: dict) -> None:
        """The Gebauer-Moeller update (Gebauer & Moeller 1988) for a new element."""
        h = _element(terms, packing)
        t, lm = len(elements), h[0]
        lcms = [packing.lcm(g[0], lm) for g in elements]
        # criterion B: lm(h) divides the lcm of an old pair and the lcms
        # with h of both its elements differ from it
        pairs[:] = [p for p in pairs
                    if (p[1] - lm) & guards or p[1] == lcms[p[2]] or p[1] == lcms[p[3]]]
        # criteria M and F: a new pair goes when another one's lcm divides its
        # lcm; pairs are taken from the highest index down, so that of equal
        # lcms the lowest index stays.  Coprime pairs stay here to drop others,
        # then the product criterion drops them too.
        waiting, kept = active[:], []
        while waiting:
            i = waiting.pop()
            lcm = lcms[i]
            coprime = lcm == elements[i][0] + lm
            if coprime or all((lcm - lcms[k]) & guards for k in itertools.chain(waiting, kept)):
                kept.append(i)
                if not coprime:
                    bisect.insort(pairs, (sum(packing.unpack(lcm)), lcm, i, t))
        elements.append(h)
        active[:] = [i for i in active if (elements[i][0] - lm) & guards] + [t]

    def enter(work: dict) -> None:
        """Add the primitive work's remainder by the active elements, made
        primitive, unless zero."""
        r = _reduce(work, [elements[i] for i in active], field, guards, deadline)
        if r:
            add(_primitive(r, field))

    while gens:  # a packed generator is freed once it has entered
        enter(_primitive(gens.pop(0), field))
    while pairs:
        deadline.check()
        _, lcm, i, j = pairs.pop(0)
        enter(_s_polynomial(elements[i], elements[j], lcm, field, guards))

    # interreduce: no active leading monomial divides another, so each
    # element's leading term is the first of its remainder
    basis = []
    for i in sorted(active, key=lambda i: elements[i][0]):
        deadline.check()
        lm, lc, tail, _ = elements[i]
        r = _reduce({lm: lc, **dict(tail)}, [elements[k] for k in active if k != i],
                    field, guards, deadline)
        basis.append(_primitive(r, field))
    return basis


def buchberger(generators: Sequence[MultiPoly], order: str = "degrevlex",
               deadline: Deadline = NO_DEADLINE) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm on packed monomials.

    Every element, generator or s-polynomial remainder, enters fully reduced
    and primitive by the Gebauer-Moeller update: only its pairs that survive
    criteria M and F and the product criterion are queued, and criterion B
    drops the old pairs it makes redundant.  The reducers, the elements whose
    leading monomial no later one's divides, are the basis once interreduced.
    Pairs pop by least lcm degree, then lcm, then indices.  A deadline is
    checked per popped pair, per element interreduced, and in every reduction.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    field = gens[0].field

    def run(packing, packed):
        return _buchberger(packed, packing, field, deadline)

    elements = _on_packing(order, gens, run)
    # each basis dict, and so each element, holds its leading monomial first
    return GroebnerBasis(elements, [next(iter(g.terms)) for g in elements], order)


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
        if not any(all(map(int.__le__, lm, mono)) for lm in lms)
    ]


class _IdealSpec(NamedTuple):
    m: int
    n: int
    max_power: int
    field: object


class IdealSpec(_IdealSpec):
    """The constant-term ideal data: window, power range and field."""

    __slots__ = ()

    # max_power defaults to m+n-1; use m+n for the unit-ideal system
    def __new__(cls, m: int, n: int, max_power: Optional[int] = None, field=QQ):
        check_window(m, n)
        if max_power is None:
            max_power = m + n - 1
        if max_power < 1:
            raise ValueError("max_power must be positive")
        return super().__new__(cls, m, n, max_power, field)


def build_ideal(spec: IdealSpec) -> list:
    """Generators: constant terms of the powers 1..max_power, all from one
    pass of constant_term_iterative, with the endpoint variables set to 1
    (the dehomogenized window)."""
    # Setting x_{-m} = x_n = 1 drops their exponents, and no two terms merge:
    # a term's degree i and weight 0 fix its x_{-m} and x_n exponents from the
    # others, because that 2x2 system has determinant m+n.
    return [
        MultiPoly({e[1:-1]: c for e, c in ct.terms.items()},
                  spec.m + spec.n - 1, -spec.m + 1, spec.field)
        for ct in constant_term_iterative(spec.m, spec.n, spec.field, spec.max_power)
    ]


def groebner_of_ideal(spec: IdealSpec, order: str = "degrevlex",
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
