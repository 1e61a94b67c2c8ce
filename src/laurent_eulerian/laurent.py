"""Constant terms of powers of window Laurent polynomials.

Two independent algorithms compute the z^0 coefficient of the i-th power of

    x_{-m} z^{-m} + x_{-m+1} z^{-m+1} + ... + x_{n-1} z^{n-1} + x_n z^n

whose coefficient of z^j is the variable x_j: repeated convolution in z, and
direct multinomial summation over weight-zero exponent vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import QQ, MultiPoly


@dataclass(frozen=True)
class LaurentSpec:
    """The generic window Laurent polynomial on {-m, ..., n} over a field."""

    m: int
    n: int
    field: object = QQ

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("window requires m >= 1 and n >= 1")

    def z_coefficients(self) -> dict:
        """Mapping z-exponent j -> the variable x_j."""
        nvars = self.m + self.n + 1
        return {
            j: MultiPoly.variable(j, nvars, -self.m, self.field)
            for j in range(-self.m, self.n + 1)
        }


def _check_power(i: int):
    if i < 1:
        raise ValueError("power must be a positive integer (powers are 1-indexed)")


def _times_base(current: dict, base: dict, lo: int, hi: int) -> dict:
    """current * base as exponent -> coefficient, keeping exponents in [lo, hi].

    Coefficients that cancel are dropped.  No product is tested for zero: the
    coefficients are nonzero polynomials over a field.
    """
    out: dict = {}
    for e1, c1 in current.items():
        for e2, c2 in base.items():
            e = e1 + e2
            if not lo <= e <= hi:
                continue
            c = c1 * c2
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
    return out


def constant_term_iterative(spec: LaurentSpec, i: int) -> MultiPoly:
    """z^0 coefficient of the i-th power, by repeated convolution in z.

    Exponents that cannot return to zero with the remaining factors are pruned.
    """
    _check_power(i)
    base = spec.z_coefficients()
    current = dict(base)
    for step in range(2, i + 1):
        # what is left must still be cancellable by i - step more factors
        remaining = i - step
        current = _times_base(current, base, -spec.n * remaining, spec.m * remaining)
    if 0 in current:
        return current[0]
    return MultiPoly.zero(spec.m + spec.n + 1, -spec.m, spec.field)


def weight_zero_exponents(m: int, n: int, degree: int, x0_free: bool = False):
    """Exponent vectors u on {-m, ..., n} with |u| = degree and sum_j j*u_j = 0,
    only those with u_0 = 0 when x0_free.

    Deterministic lexicographic enumeration (by exponent of x_{-m}, then
    x_{-m+1}, ...) with branch-and-bound pruning on the achievable weight.
    Yields full (m+n+1)-tuples indexed by x_{-m}..x_n.
    """
    indices = [j for j in range(-m, n + 1) if j or not x0_free]
    out_template = [0] * (m + n + 1)

    def rec(pos: int, remaining: int, weight: int):
        if pos == len(indices):
            if remaining == 0 and weight == 0:
                yield tuple(out_template)
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
            out_template[j + m] = u
            yield from rec(pos + 1, r, w)
        out_template[j + m] = 0

    yield from rec(0, degree, 0)


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
