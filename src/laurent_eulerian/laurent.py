"""Constant terms of powers of window Laurent polynomials.

Two independent algorithms compute the z^0 coefficients of the powers of

    x_{-m} z^{-m} + x_{-m+1} z^{-m+1} + ... + x_{n-1} z^{n-1} + x_n z^n

whose coefficient of z^j is the variable x_j: one pass of repeated
multiplication in z, counting over the integers, gives every power up to a
top; direct multinomial summation over weight-zero exponent vectors gives one
power by formula.
"""

from __future__ import annotations

import math

from .algebra import MultiPoly
from .deadline import NO_DEADLINE, Deadline
from .eulerian import check_window


def _check(m: int, n: int, i: int):
    """Raise ValueError unless the window is valid and the power positive."""
    check_window(m, n)
    if i < 1:
        raise ValueError("power must be a positive integer (powers are 1-indexed)")


def constant_term_iterative(m: int, n: int, field, top: int) -> list:
    """[z^0 coefficient of the i-th power for i = 1..top] over field, for
    the window {-m, ..., n}, in one pass of repeated multiplication by the
    window polynomial over the integers.

    The pass holds a power as z-exponent -> {exponent vector: count}, and
    the term x_j z^j adds one to the exponent of x_j.  At power s it keeps only
    the z-exponents in [-n*(top-s), m*(top-s)], which the remaining factors
    can still bring back to zero; each kept count is exact, because the next
    power's kept coefficients read only kept ones.  The counts reduce into
    the field at the end: the integers map onto any prime field as a ring,
    and MultiPoly drops the terms that vanish there.
    """
    _check(m, n, top)
    nvars = m + n + 1
    current = {0: {(0,) * nvars: 1}}
    out = []
    for s in range(1, top + 1):
        lo, hi = -n * (top - s), m * (top - s)
        following: dict = {}
        for e, counts in current.items():
            for j in range(max(-m, lo - e), min(n, hi - e) + 1):
                t = j + m
                bucket = following.setdefault(e + j, {})
                for u, c in counts.items():
                    v = u[:t] + (u[t] + 1,) + u[t + 1:]
                    bucket[v] = bucket.get(v, 0) + c
        current = following
        out.append(MultiPoly(current.get(0, {}), nvars, -m, field))
    return out


def weight_zero_exponents(m: int, n: int, degree: int):
    """Exponent vectors u on {-m, ..., n} with |u| = degree and sum_j j*u_j = 0,
    as full (m+n+1)-tuples indexed by x_{-m}..x_n, in descending lex order:
    the digits of weight_zero_numerals in base degree + 1, above every
    exponent."""
    base, nvars = degree + 1, m + n + 1
    for numeral in weight_zero_numerals(m, n, degree, base, False):
        u = [0] * nvars
        for t in range(nvars - 1, -1, -1):
            numeral, u[t] = divmod(numeral, base)
        yield tuple(u)


def weight_zero_numerals(m: int, n: int, degree: int, base: int, x0_free: bool,
                         deadline: Deadline = NO_DEADLINE) -> list:
    """The exponent vectors u on {-m, ..., n} with |u| = degree and
    sum_j j*u_j = 0, only those with u_0 = 0 when x0_free, each as the
    base-`base` numeral sum_j u_j * base**(n-j), in descending lex order of u;
    a deadline is checked before the first and after each.

    The numerals keep their digits, and descend with u, while every exponent
    stays below base.  The walk goes position by position, x_{-m} first,
    prunes on the remaining degree and weight, and builds no vector: each
    monomial is one int in one list.
    """
    indices = [j for j in range(-m, n + 1) if j or not x0_free]
    places = [base ** (n - j) for j in indices]
    out = []
    deadline.check()
    _weight_zero_walk(indices, places, 0, degree, 0, 0, out, deadline)
    return out


def _weight_zero_walk(indices: list, places: list, pos: int, remaining: int, weight: int,
                      numeral: int, out: list, deadline: Deadline) -> None:
    """weight_zero_numerals from position pos on; numeral holds the digits
    chosen before pos, weight their weight, remaining the degree they leave.

    Exponents u at pos are tried in descending order.  After u, with weight w
    and r degrees left, the later positions (weights in [lo, hi], since the
    indices ascend) reach a total weight in [w + r*lo, w + r*hi], which must
    hold zero; both bounds are linear in u, so the u worth trying form one
    range, from top down to bottom.
    """
    j, lo, hi = indices[pos], indices[pos + 1], indices[-1]
    top = min(remaining, (weight + remaining * hi) // (hi - j))
    bottom = max(0, -((weight + remaining * lo) // (j - lo)))
    place = places[pos]
    if pos + 2 == len(indices):
        # the last position takes the remaining degree (here lo = hi, so
        # the range holds at most one u)
        for u in range(top, bottom - 1, -1):
            out.append(numeral + u * place + (remaining - u) * places[-1])
            deadline.check()
        return
    for u in range(top, bottom - 1, -1):
        _weight_zero_walk(indices, places, pos + 1, remaining - u, weight + j * u,
                          numeral + u * place, out, deadline)


def multinomial(i: int, exps) -> int:
    """i! / prod(u!), by incremental exact binomials."""
    total = 0
    out = 1
    for u in exps:
        total += u
        out *= math.comb(total, u)
    if total != i:
        raise ValueError("exponents do not sum to the power")
    return out


def constant_term_multinomial(m: int, n: int, field, i: int) -> MultiPoly:
    """z^0 coefficient of the i-th power, by direct multinomial summation."""
    _check(m, n, i)
    terms = {u: multinomial(i, u) for u in weight_zero_exponents(m, n, i)}
    return MultiPoly(terms, m + n + 1, -m, field)
