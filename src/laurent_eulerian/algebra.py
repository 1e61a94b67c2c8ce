"""Exact coefficient fields, sparse multivariate polynomials, and exact linear algebra.

Everything here is immutable after construction and all arithmetic is exact:
rationals are arbitrary-precision, prime-field residues are reduced ints.
"""

from __future__ import annotations

import functools
import sys
from typing import Mapping, Sequence


class FieldMismatchError(TypeError):
    """Operands live over different coefficient fields."""


class ZeroPolynomialError(ValueError):
    """The operation requires a nonzero polynomial."""


def _is_prime(p: int) -> bool:
    # deterministic Miller-Rabin, valid below 2^64 (the first composite that
    # passes all twelve bases is 318665857834031151167461, about 3.2e23)
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _is_fraction(v) -> bool:
    """Whether v is a fractions.Fraction, without importing fractions: if no
    code has imported it, no Fraction exists."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(v, fractions.Fraction)


@functools.cache
def _fraction_one():
    """Fraction(1), the numerator of every QQ inverse.

    fractions is imported here, at the first QQ division, and not at the top:
    it imports decimal, about 0.4 MB and 2 ms of every run, and most runs
    never divide over QQ.  Fractions are immutable, so one is shared.
    """
    from fractions import Fraction
    return Fraction(1)


class RationalField:
    """The rationals, with values stored as ints or Fractions in lowest terms.

    A value stays an int until a division makes it a Fraction, so fractions
    is imported only by a run that divides over QQ (see _fraction_one).
    """

    zero = 0
    one = 1

    def coerce(self, v):
        if isinstance(v, int) or _is_fraction(v):
            return v
        raise TypeError(f"cannot coerce {v!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return _fraction_one() / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """Integers modulo a word-sized prime, residues kept in [0, p-1]."""

    def __init__(self, p: int):
        if p >= 2**64:  # _is_prime is a proof only below 2^64
            raise ValueError(f"expected a prime below 2^64, got {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.p
        if _is_fraction(v):
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {v} vanishes mod {self.p}")
            return v.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {v!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _check_same_field(fa, fb):
    if fa != fb:
        raise FieldMismatchError(f"mixed fields {fa!r} and {fb!r}")


class MultiPoly:
    """Sparse multivariate polynomial over an exact field.

    Variables are x_{offset}, ..., x_{offset+nvars-1}; an exponent vector is a
    tuple of nvars naturals, position t holding the exponent of x_{offset+t}.
    The window-index grading assigns deg(x_j) = (1, j), so a monomial with
    exponents u has bidegree (|u|, sum_j j*u_j).
    """

    __slots__ = ("terms", "nvars", "offset", "field")

    def __init__(self, terms: Mapping[tuple, object], nvars: int, offset: int, field):
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length (want {nvars})")
            c = field.coerce(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean
        self.nvars = nvars
        self.offset = offset
        self.field = field

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check_compatible(self, other: "MultiPoly"):
        _check_same_field(self.field, other.field)
        if (self.nvars, self.offset) != (other.nvars, other.offset):
            raise ValueError(
                f"incompatible variable windows {(self.offset, self.nvars)} vs "
                f"{(other.offset, other.nvars)}"
            )

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        add = self.field.add
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                s = add(out[exps], c)
                if s:
                    out[exps] = s
                else:
                    del out[exps]
            else:
                out[exps] = c
        p = MultiPoly.__new__(MultiPoly)
        p.terms, p.nvars, p.offset, p.field = out, self.nvars, self.offset, self.field
        return p

    def __neg__(self):
        neg = self.field.neg
        out = {e: neg(c) for e, c in self.terms.items()}
        p = MultiPoly.__new__(MultiPoly)
        p.terms, p.nvars, p.offset, p.field = out, self.nvars, self.offset, self.field
        return p

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        add, mul = self.field.add, self.field.mul
        out: dict = {}
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = mul(c1, c2)
                if e in out:
                    s = add(out[e], c)
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                else:  # c1, c2 nonzero, so c is too
                    out[e] = c
        p = MultiPoly.__new__(MultiPoly)
        p.terms, p.nvars, p.offset, p.field = out, self.nvars, self.offset, self.field
        return p

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and (self.nvars, self.offset) == (other.nvars, other.offset)
            and self.terms == other.terms
        )

    def sorted_terms(self) -> list:
        """Terms sorted by exponent vector; the canonical iteration order."""
        return sorted(self.terms.items())

    def graded_degree(self):
        """Bidegree (total, weight) if homogeneous for deg(x_j) = (1, j), else None."""
        if not self.terms:
            raise ZeroPolynomialError("graded degree of the zero polynomial")
        weights = range(self.offset, self.offset + self.nvars)
        deg = None
        for exps in self.terms:
            d = (sum(exps), sum(w * u for w, u in zip(weights, exps)))
            if deg is None:
                deg = d
            elif d != deg:
                return None
        return deg

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"x_{self.offset + t}" + (f"^{u}" if u > 1 else "")
                for t, u in enumerate(exps)
                if u
            )
            if not mono:
                parts.append(str(c))
            elif c == self.field.one:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self}, window=[{self.offset}, {self.offset + self.nvars - 1}], {self.field!r})"


class ExactMatrix:
    """Dense matrix over an exact field; rank and solve by Gaussian elimination."""

    def __init__(self, rows: Sequence[Sequence[object]], field):
        self.rows = [[field.coerce(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")
        self.field = field

    def rank(self) -> int:
        """Rank by elimination."""
        _, pivots = self._echelon([list(row) for row in self.rows])
        return len(pivots)

    def solve(self, rhs: Sequence[object]):
        """A solution of A x = rhs, or None if inconsistent.

        Free columns are set to zero; the solution is deterministic.
        """
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        aug = [row + [self.field.coerce(v)] for row, v in zip(self.rows, rhs)]
        rows, pivots = self._echelon(aug)
        n = self.ncols
        if any(col == n for _, col in pivots):
            return None
        # RREF with free columns set to zero: each pivot row reads off directly
        x = [self.field.zero] * n
        for row, col in pivots:
            x[col] = rows[row][n]
        return x

    def _echelon(self, rows):
        """Reduced row echelon form in place; returns (rows, [(row, pivot_col)])."""
        fld = self.field
        ncols = len(rows[0]) if rows else 0
        pivots = []
        r = 0
        for c in range(ncols):
            pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = fld.inv(rows[r][c])
            rows[r] = [fld.mul(v, inv) for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [
                        fld.sub(a, fld.mul(f, b)) for a, b in zip(rows[i], rows[r])
                    ]
            pivots.append((r, c))
            r += 1
            if r == len(rows):
                break
        return rows, pivots

