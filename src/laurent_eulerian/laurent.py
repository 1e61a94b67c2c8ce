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
from typing import NamedTuple

from .algebra import QQ, MultiPoly
from .eulerian import check_window


class _LaurentSpec(NamedTuple):
    m: int
    n: int
    field: object


class LaurentSpec(_LaurentSpec):
    """The generic window Laurent polynomial on {-m, ..., n} over a field."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, field=QQ):
        check_window(m, n)
        return super().__new__(cls, m, n, field)


def _check_power(i: int):
    if i < 1:
        raise ValueError("power must be a positive integer (powers are 1-indexed)")


def constant_term_iterative(spec: LaurentSpec, top: int) -> list:
    """[z^0 coefficient of the i-th power for i = 1..top], in one pass of
    repeated multiplication by the window polynomial over the integers.

    The pass holds a power as z-exponent -> {exponent vector: count}, and
    the term x_j z^j adds one to the exponent of x_j.  At power s it keeps only
    the z-exponents in [-n*(top-s), m*(top-s)], which the remaining factors
    can still bring back to zero; each kept count is exact, because the next
    power's kept coefficients read only kept ones.  The counts reduce into
    the field at the end: the integers map onto any prime field as a ring,
    and MultiPoly drops the terms that vanish there.
    """
    _check_power(top)
    m, n = spec.m, spec.n
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
        out.append(MultiPoly(current.get(0, {}), nvars, -m, spec.field))
    return out


def weight_zero_exponents(m: int, n: int, degree: int, x0_free: bool = False):
    """Exponent vectors u on {-m, ..., n} with |u| = degree and sum_j j*u_j = 0,
    only those with u_0 = 0 when x0_free.

    Deterministic lexicographic enumeration (by exponent of x_{-m}, then
    x_{-m+1}, ...) with branch-and-bound pruning on the achievable weight.
    Yields full (m+n+1)-tuples indexed by x_{-m}..x_n.
    """
    indices = [j for j in range(-m, n + 1) if j or not x0_free]
    yield from _weight_zero_rec(indices, [0] * (m + n + 1), m, 0, degree, 0)


def _weight_zero_rec(indices: list, out: list, m: int, pos: int, remaining: int,
                     weight: int):
    """weight_zero_exponents from position pos on, out holding the exponents
    chosen before it; a module-level generator, so no call leaves a
    self-referencing closure for the cyclic collector."""
    if pos == len(indices):
        if remaining == 0 and weight == 0:
            yield tuple(out)
        return
    j = indices[pos]
    rest = indices[pos + 1 :]
    lo = min(rest) if rest else 0
    hi = max(rest) if rest else 0
    for u in range(remaining, -1, -1):
        w = weight + j * u
        r = remaining - u
        if pos + 1 == len(indices):
            if r != 0:
                continue
        # remaining factors contribute weight in [r*lo, r*hi]
        if w + r * lo > 0 or w + r * hi < 0:
            continue
        out[j + m] = u
        yield from _weight_zero_rec(indices, out, m, pos + 1, r, w)
    out[j + m] = 0


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


def constant_term_multinomial(spec: LaurentSpec, i: int) -> MultiPoly:
    """z^0 coefficient of the i-th power, by direct multinomial summation."""
    _check_power(i)
    terms = {u: multinomial(i, u) for u in weight_zero_exponents(spec.m, spec.n, i)}
    return MultiPoly(terms, spec.m + spec.n + 1, -spec.m, spec.field)
