"""Rational Chow calculus for the toric compactification of window Laurent polynomials.

The ring is presented on torus-invariant divisors D_{-m}, ..., D_n modulo a
monomial ideal (two products of consecutive divisors) and the linear relations
read off the ray matrix.  Those relations make every class affine in its
index, D_j = (1-j)*D_0 + j*D_1 (Fulton, Introduction to Toric Varieties,
section 3.3), and each graded piece is handled by exact linear algebra in the
two-variable polynomial ring QQ[D_0, D_1].  The classes are built from ints;
Fractions appear only where the QQ solve divides.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from .algebra import QQ, ExactMatrix
from .eulerian import _unipoly_mul, check_window, check_window_divisor, eulerian, gen_eulerian


def ray_matrix(m: int, n: int) -> list:
    """Rows of the (m+n-1) x (m+n+1) ray matrix, columns indexed by -m..n.

    Column -m is (1, 2, ..., m+n-1), column -m+1 is (-2, -3, ..., -m-n), and
    the remaining columns are the standard basis vectors.
    """
    size = m + n - 1
    rows = []
    for r in range(1, size + 1):
        row = [0] * (m + n + 1)
        row[0] = r
        row[1] = -(r + 1)
        row[1 + r] = 1
        rows.append(row)
    return rows


def _linear_form(j: int) -> list:
    """The class D_j as [a, b], meaning a*D_0 + b*D_1.

    Ray row r reads r*D_{-m} - (r+1)*D_{-m+1} + D_{-m+1+r} = 0, so the classes
    are affine in their index: D_j = (1-j)*D_0 + j*D_1.
    """
    return [1 - j, j]


def _product(lo: int, hi: int) -> list:
    """The class D_lo * ... * D_{hi-1} as its coefficients on D_0^(d-t) D_1^t,
    t = 0..d, where d = hi - lo."""
    out = [1]
    for ell in range(lo, hi):
        out = _unipoly_mul(out, _linear_form(ell))
    return out


class ChowRing:
    """Exact intersection calculus for the window (m, n); requires m+n > 2."""

    def __init__(self, m: int, n: int):
        check_window(m, n)
        if m + n <= 2:
            raise ValueError("the toric compactification requires m+n > 2")
        self.m = m
        self.n = n

    def _check_codimension(self, k: int) -> None:
        if not 1 <= k <= self.m + self.n - 1:
            raise ValueError(f"codimension {k} outside [1, {self.m + self.n - 1}]")

    def basis_pairs(self, k: int) -> list:
        """Index pairs (i, j) of the codimension-k basis classes, i+j-1 = k."""
        self._check_codimension(k)
        return [
            (i, k + 1 - i)
            for i in range(1, self.m + 1)
            if 0 <= k + 1 - i <= self.n
        ]

    def reduce_to_basis(self, coeffs, k: int) -> dict:
        """Coordinates of a degree-k form sum_t coeffs[t] D_0^(k-t) D_1^t.

        Solves the form as a combination of the basis classes plus degree-k
        multiples of the two monomial-relation products; the basis coordinates
        are uniquely determined; each is an int or a Fraction.
        """
        coeffs = list(coeffs)
        if len(coeffs) != k + 1:
            raise ValueError("expected k+1 homogeneous coefficients")
        pairs = self.basis_pairs(k)
        columns = [_product(-i + 1, j) for i, j in pairs]
        # the monomial relations D_{-m}...D_{-1} = 0 and D_0...D_n = 0
        for lo, hi in ((-self.m, 0), (0, self.n + 1)):
            deg = hi - lo
            if k >= deg:
                base = _product(lo, hi)
                for t in range(k - deg + 1):
                    col = [0] * (k + 1)
                    for s, v in enumerate(base):
                        col[s + t] += v
                    columns.append(col)
        A = ExactMatrix(
            [[columns[c][r] for c in range(len(columns))] for r in range(k + 1)], QQ
        )
        x = A.solve(coeffs)
        if x is None:
            raise RuntimeError("graded reduction is inconsistent")  # cannot happen
        return {pair: x[t] for t, pair in enumerate(pairs)}

    def d0_power_expansion(self, k: int) -> dict:
        """Coordinates of k! * D_0^k; equals the windowed Eulerian coefficients."""
        self._check_codimension(k)  # before k! can fail on a negative k
        coeffs = [0] * (k + 1)
        coeffs[0] = math.factorial(k)
        return self.reduce_to_basis(coeffs, k)

    def generic_ci_degree(self) -> numbers.Rational:
        """Coefficient of the top basis class in prod_{j=1}^{m+n-1} (j * D_0);
        an int or a Fraction."""
        k = self.m + self.n - 1
        return self.d0_power_expansion(k)[(self.m, self.n)]


def generic_ci_degree(m: int, n: int) -> numbers.Rational:
    return ChowRing(m, n).generic_ci_degree()


class SparseDegree(NamedTuple):
    """Degree of the sparse complete intersection; empty means the scheme is empty."""

    value: int
    empty: bool


def sparse_ci_degree(m: int, n: int, d: int) -> SparseDegree:
    """Generalized Eulerian degree when gcd(d, n) = 1, else the empty marker."""
    check_window_divisor(m, n, d)
    if math.gcd(d, n) != 1:
        return SparseDegree(0, True)
    return SparseDegree(gen_eulerian(m + n - 1, m - 1, d), False)


def expected_d0_coefficient(m: int, n: int, k: int, i: int) -> int:
    """Windowed Eulerian coefficient of the basis class (i, k-i+1)."""
    j = k - i + 1
    if 1 <= i <= m and 0 <= j <= n:
        return eulerian(k, i - 1)
    return 0
