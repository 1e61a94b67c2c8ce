import random
from fractions import Fraction

import numpy as np
from sympy.polys.orderings import grevlex, lex

from laurent_eulerian.algebra import MultiPoly
from laurent_eulerian.deadline import NO_DEADLINE
from laurent_eulerian.experiments import GenericFormSet

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


def leading_term(p: MultiPoly, order: str) -> tuple:
    """The leading exponent tuple of p in the order, and its coefficient."""
    if p.is_zero:
        raise ValueError("zero polynomial has no leading term")
    e = max(p.terms, key=ORDER_KEYS[order])
    return e, p.terms[e]


def s_polynomial(f: MultiPoly, g: MultiPoly, order: str) -> MultiPoly:
    """(lcm / lt(f)) f - (lcm / lt(g)) g, lcm the leading monomials' lcm,
    by MultiPoly arithmetic on exponent tuples."""
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm = tuple(map(max, ef, eg))
    fld = f.field
    mf = MultiPoly({tuple(a - b for a, b in zip(lcm, ef)): fld.inv(cf)}, f.nvars, f.offset, fld)
    mg = MultiPoly({tuple(a - b for a, b in zip(lcm, eg)): fld.inv(cg)}, f.nvars, f.offset, fld)
    return mf * f - mg * g


def fraction_remainder(p: MultiPoly, divisors, order: str) -> MultiPoly:
    """The remainder of p on division by the divisors, by Fraction arithmetic
    on exponent tuples: the largest term left is divided by the first divisor
    whose leading monomial divides it, or else moved to the remainder."""
    key = ORDER_KEYS[order]
    leads = [leading_term(g, order) for g in divisors]
    work = {e: Fraction(c) for e, c in p.terms.items()}
    remainder = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for g, (lm, lc) in zip(divisors, leads):
            if all(a >= b for a, b in zip(e, lm)):
                factor = c / Fraction(lc)
                for t, d in g.terms.items():
                    if t != lm:
                        t = tuple(a + b - u for a, b, u in zip(t, e, lm))
                        v = work.get(t, 0) - factor * d
                        if v:
                            work[t] = v
                        else:
                            work.pop(t, None)
                break
        else:
            remainder[e] = c
    return MultiPoly(remainder, p.nvars, p.offset, p.field)


def fraction_solve(rows: list, rhs: list):
    """A solution of rows x = rhs by Gauss-Jordan elimination on Fractions,
    with the free columns zero, or None if the system is inconsistent."""
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    pivots = []
    for c in range(ncols + 1):
        r = len(pivots)
        pr = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pr is None:
            continue
        if c == ncols:
            return None
        aug[r], aug[pr] = aug[pr], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                aug[i] = [a - aug[i][c] * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = aug[r][ncols]
    return x


def degenerate_seeds(monkeypatch, bad) -> None:
    """Stub GenericFormSet.generate so that every seed in bad gets zero forms."""
    real = GenericFormSet.generate

    def generate(seed, sizes, deadline=NO_DEADLINE):
        if seed not in bad:
            return real(seed, sizes, deadline)
        return GenericFormSet(seed, tuple(np.zeros(size, dtype=np.int32) for size in sizes))

    monkeypatch.setattr(GenericFormSet, "generate", generate)

