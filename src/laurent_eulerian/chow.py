"""Rational Chow calculus for the toric compactification of window Laurent polynomials.

The ring is presented on torus-invariant divisors D_{-m}, ..., D_n modulo a
monomial ideal (two products of consecutive divisors) and the linear relations
read off the ray matrix.  Every divisor class reduces to a form a*D_0 + b*D_1,
and each graded piece is handled by exact linear algebra in the two-variable
polynomial ring QQ[D_0, D_1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import QQ, ExactMatrix
from .eulerian import _unipoly_mul, check_window_divisor, eulerian, gen_eulerian


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


@dataclass(frozen=True)
class DivisorForm:
    """A divisor class written as a*D_0 + b*D_1."""

    a: Fraction
    b: Fraction


class ChowRing:
    """Exact intersection calculus for the window (m, n); requires m+n > 2."""

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive")
        if m + n <= 2:
            raise ValueError("the toric compactification requires m+n > 2")
        self.m = m
        self.n = n
        self._forms = self._solve_divisor_forms()

    # -- linear relations ----------------------------------------------

    def _solve_divisor_forms(self) -> dict:
        """Express every D_j in the (D_0, D_1) basis, mechanically from the rays.

        Each matrix row gives the relation sum_j row[j] * D_j = 0; together with
        D_0 = (1, 0) and D_1 = (0, 1) the system determines every class.
        """
        m, n = self.m, self.n
        ncols = m + n + 1
        rows = [list(r) for r in ray_matrix(m, n)]
        unit0 = [0] * ncols
        unit0[m] = 1  # column of D_0
        unit1 = [0] * ncols
        unit1[m + 1] = 1  # column of D_1
        A = ExactMatrix(rows + [unit0, unit1], QQ)
        zero = [Fraction(0)] * len(rows)
        xa = A.solve(zero + [Fraction(1), Fraction(0)])
        xb = A.solve(zero + [Fraction(0), Fraction(1)])
        if xa is None or xb is None:
            raise RuntimeError("ray relations are inconsistent")  # cannot happen
        # A has full column rank, so the solutions are unique
        if A.rank() != ncols:
            raise RuntimeError("ray relations do not determine the divisor classes")
        return {
            j: DivisorForm(Fraction(xa[j + m]), Fraction(xb[j + m]))
            for j in range(-m, n + 1)
        }

    def divisor_class(self, j: int) -> DivisorForm:
        if not -self.m <= j <= self.n:
            raise ValueError(f"divisor index {j} outside [-{self.m}, {self.n}]")
        return self._forms[j]

    def _linear_form(self, j: int) -> list:
        f = self.divisor_class(j)
        return [f.a, f.b]

    # -- graded reduction ----------------------------------------------

    def basis_pairs(self, k: int) -> list:
        """Index pairs (i, j) of the codimension-k basis classes, i+j-1 = k."""
        if not 1 <= k <= self.m + self.n - 1:
            raise ValueError(f"codimension {k} outside [1, {self.m + self.n - 1}]")
        return [
            (i, k + 1 - i)
            for i in range(1, self.m + 1)
            if 0 <= k + 1 - i <= self.n
        ]

    def _basis_poly(self, i: int, j: int) -> tuple:
        """The basis class D_{-i+1} ... D_{j-1} as a bivariate form of degree i+j-1."""
        out = [Fraction(1)]
        for ell in range(-i + 1, j):
            out = _unipoly_mul(out, self._linear_form(ell))
        return tuple(out)

    def _relation_product(self, which: str) -> tuple:
        if which == "neg":
            rng = range(-self.m, 0)
        else:
            rng = range(0, self.n + 1)
        out = [Fraction(1)]
        for ell in rng:
            out = _unipoly_mul(out, self._linear_form(ell))
        return tuple(out)

    def reduce_to_basis(self, coeffs, k: int) -> dict:
        """Coordinates of a degree-k form sum_t coeffs[t] D_0^(k-t) D_1^t.

        Solves the form as a combination of the basis classes plus degree-k
        multiples of the two monomial-relation products; the basis coordinates
        are uniquely determined.
        """
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != k + 1:
            raise ValueError("expected k+1 homogeneous coefficients")
        pairs = self.basis_pairs(k)
        columns = [list(self._basis_poly(i, j)) for i, j in pairs]
        for which, deg in (("neg", self.m), ("pos", self.n + 1)):
            if k >= deg:
                base = list(self._relation_product(which))
                for t in range(k - deg + 1):
                    col = [Fraction(0)] * (k + 1)
                    for s, v in enumerate(base):
                        col[s + t] += v
                    columns.append(col)
        A = ExactMatrix(
            [[columns[c][r] for c in range(len(columns))] for r in range(k + 1)], QQ
        )
        x = A.solve(coeffs)
        if x is None:
            raise RuntimeError("graded reduction is inconsistent")  # cannot happen
        return {pair: Fraction(x[t]) for t, pair in enumerate(pairs)}

    def d0_power_expansion(self, k: int) -> dict:
        """Coordinates of k! * D_0^k; equals the windowed Eulerian coefficients."""
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[0] = Fraction(math.factorial(k))
        return self.reduce_to_basis(coeffs, k)

    def generic_ci_degree(self) -> Fraction:
        """Coefficient of the top basis class in prod_{j=1}^{m+n-1} (j * D_0)."""
        k = self.m + self.n - 1
        return self.d0_power_expansion(k)[(self.m, self.n)]


def generic_ci_degree(m: int, n: int) -> Fraction:
    return ChowRing(m, n).generic_ci_degree()


@dataclass(frozen=True)
class SparseDegree:
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
