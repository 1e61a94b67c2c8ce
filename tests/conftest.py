import random

import numpy as np
from sympy.polys.orderings import grevlex, lex

from laurent_eulerian.algebra import MultiPoly
from laurent_eulerian.deadline import NO_DEADLINE
from laurent_eulerian.experiments import GenericFormSet
from laurent_eulerian.groebner import TermOrder

# each term order as a sort key on exponent tuples, by sympy's definitions,
# independent of the packed encoding the Groebner engine compares by
ORDER_KEYS = {"lex": lex, "degrevlex": grevlex}


def variable(j: int, nvars: int, offset: int, field) -> MultiPoly:
    """x_j among the variables x_offset, ..., x_{offset+nvars-1}."""
    return MultiPoly({tuple(int(t == j - offset) for t in range(nvars)): 1}, nvars, offset, field)


def random_poly(rng: random.Random, nvars: int, offset: int, field,
                max_terms: int = 4, max_exp: int = 3, coeff_range: int = 20) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        c = rng.randint(-coeff_range, coeff_range)
        terms[exps] = terms.get(exps, 0) + c
    return MultiPoly(terms, nvars, offset, field)


def leading_term(p: MultiPoly, order: TermOrder) -> tuple:
    """The leading exponent tuple of p in the order, and its coefficient."""
    if p.is_zero:
        raise ValueError("zero polynomial has no leading term")
    e = max(p.terms, key=ORDER_KEYS[order.kind])
    return e, p.terms[e]


def s_polynomial(f: MultiPoly, g: MultiPoly, order: TermOrder) -> MultiPoly:
    """(lcm / lt(f)) f - (lcm / lt(g)) g, lcm the leading monomials' lcm,
    by MultiPoly arithmetic on exponent tuples."""
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm = tuple(map(max, ef, eg))
    fld = f.field
    mf = MultiPoly({tuple(a - b for a, b in zip(lcm, ef)): fld.inv(cf)}, f.nvars, f.offset, fld)
    mg = MultiPoly({tuple(a - b for a, b in zip(lcm, eg)): fld.inv(cg)}, f.nvars, f.offset, fld)
    return mf * f - mg * g


def degenerate_seeds(monkeypatch, bad) -> None:
    """Stub GenericFormSet.generate so that every seed in bad gets zero forms."""
    real = GenericFormSet.generate

    def generate(seed, sizes, deadline=NO_DEADLINE):
        if seed not in bad:
            return real(seed, sizes, deadline)
        return GenericFormSet(seed, tuple(np.zeros(size, dtype=np.int32) for size in sizes))

    monkeypatch.setattr(GenericFormSet, "generate", generate)

