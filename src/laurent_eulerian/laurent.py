"""Constant terms of powers of window Laurent polynomials.

Two independent algorithms compute the z^0 coefficient of the i-th power of

    x_{-m} z^{-m} + x_{-m+1} z^{-m+1} + ... + x_{n-1} z^{n-1} + x_n z^n

restricted to a support set: repeated convolution in z, and direct
multinomial summation over weight-zero exponent vectors.  In symbolic mode
the coefficient of z^j is the variable x_j; in numeric mode it is a scalar.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Optional

from .algebra import QQ, MultiPoly


@dataclass(frozen=True)
class LaurentSpec:
    """A window Laurent polynomial with support inside {-m, ..., n}."""

    m: int
    n: int
    support: Optional[frozenset] = None  # None means the whole window
    field: object = QQ
    coefficients: Optional[Mapping[int, object]] = None  # None means symbolic

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("window requires m >= 1 and n >= 1")
        if self.support is None:
            object.__setattr__(
                self, "support", frozenset(range(-self.m, self.n + 1))
            )
        else:
            object.__setattr__(self, "support", frozenset(self.support))
        if not {-self.m, self.n} <= self.support:
            raise ValueError("support must contain both endpoints -m and n")
        if not all(-self.m <= j <= self.n for j in self.support):
            raise ValueError("support outside the window")
        if self.coefficients is not None:
            coeffs = {j: self.field.coerce(c) for j, c in self.coefficients.items()}
            if not set(coeffs) <= self.support:
                raise ValueError("numeric coefficients outside the support")
            object.__setattr__(self, "coefficients", coeffs)

    @property
    def symbolic(self) -> bool:
        return self.coefficients is None

    def z_coefficients(self):
        """Mapping z-exponent -> coefficient (MultiPoly if symbolic, scalar if numeric)."""
        nvars = self.m + self.n + 1
        if self.symbolic:
            return {
                j: MultiPoly.variable(j, nvars, -self.m, self.field)
                for j in sorted(self.support)
            }
        return {
            j: c for j in sorted(self.support) if (c := self.coefficients.get(j, self.field.zero))
        }


def _check_power(i: int):
    if i < 1:
        raise ValueError("power must be a positive integer (powers are 1-indexed)")


def _times_base(current: dict, base: dict, add, mul, lo: int, hi: int) -> dict:
    """current * base as exponent -> coefficient, keeping exponents in [lo, hi].

    Coefficients that cancel are dropped.  No product is tested for zero: the
    coefficients are nonzero elements of a field (or polynomials over one).
    """
    out: dict = {}
    for e1, c1 in current.items():
        for e2, c2 in base.items():
            e = e1 + e2
            if not lo <= e <= hi:
                continue
            c = mul(c1, c2)
            if e in out:
                s = add(out[e], c)
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
    return out


def constant_term_iterative(spec: LaurentSpec, i: int):
    """z^0 coefficient of the i-th power, by repeated convolution in z: a
    MultiPoly in symbolic mode, a scalar otherwise.

    Exponents that cannot return to zero with the remaining factors are pruned.
    """
    _check_power(i)
    base = spec.z_coefficients()
    if spec.symbolic:
        add, mul = operator.add, operator.mul
    else:
        add, mul = spec.field.add, spec.field.mul
    current = dict(base)
    for step in range(2, i + 1):
        # what is left must still be cancellable by i - step more factors
        remaining = i - step
        current = _times_base(current, base, add, mul,
                              -spec.n * remaining, spec.m * remaining)
    if 0 in current:
        return current[0]
    if spec.symbolic:
        return MultiPoly.zero(spec.m + spec.n + 1, -spec.m, spec.field)
    return spec.field.zero


def weight_zero_exponents(m: int, n: int, degree: int, support=None):
    """Exponent vectors u on the support with |u| = degree and sum_j j*u_j = 0.

    Deterministic lexicographic enumeration (by exponent of x_{-m}, then
    x_{-m+1}, ...) with branch-and-bound pruning on the achievable weight.
    Yields full (m+n+1)-tuples indexed by x_{-m}..x_n.
    """
    if support is None:
        support = range(-m, n + 1)
    indices = sorted(support)
    nvars = m + n + 1
    out_template = [0] * nvars

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


def constant_term_multinomial(spec: LaurentSpec, i: int):
    """z^0 coefficient of the i-th power, by direct multinomial summation."""
    _check_power(i)
    fld = spec.field
    nvars = spec.m + spec.n + 1
    if spec.symbolic:
        terms = {}
        for u in weight_zero_exponents(spec.m, spec.n, i, spec.support):
            terms[u] = multinomial(i, u)
        return MultiPoly(terms, nvars, -spec.m, fld)
    coeffs = {j: spec.coefficients.get(j, fld.zero) for j in spec.support}
    total = fld.zero
    for u in weight_zero_exponents(spec.m, spec.n, i, spec.support):
        c = fld.coerce(multinomial(i, u))
        for j in spec.support:
            e = u[j + spec.m]
            if e:
                c = fld.mul(c, fld.coerce(coeffs[j] ** e))
            if not c:
                break
        total = fld.add(total, c)
    return total


def charp_scan(spec: LaurentSpec, i_max: int) -> Optional[int]:
    """Smallest 1 <= i <= i_max whose power has nonzero constant term, else None.

    Works over any field; the interesting case is numeric coefficients in F_p.
    """
    if spec.symbolic:
        raise ValueError("charp_scan requires numeric coefficients")
    if i_max < 1:
        raise ValueError("i_max must be positive")
    base = spec.z_coefficients()
    current = dict(base)
    for i in range(1, i_max + 1):
        if i > 1:
            # only exponents that can still return to zero by power i_max
            remaining = i_max - i
            current = _times_base(current, base, spec.field.add, spec.field.mul,
                                  -spec.n * remaining, spec.m * remaining)
        if current.get(0):
            return i
    return None

