"""Cross-module experiments: degree agreement, the divisor decomposition of the
Eulerian number, and the graded Hilbert-slice computation with generic forms."""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple, Optional

import numpy as np

from .algebra import QQ
from .chow import generic_ci_degree, sparse_ci_degree
from .deadline import NO_DEADLINE, Deadline, DeadlineExceeded
from .eulerian import (ORBIT_CAP, check_window, divisors, eulerian, deg_Z_circle,
                       orbit_decomposition)
from .groebner import conjecture_unit_check, ideal_quotient_dimension
from .laurent import weight_zero_numerals

# generic form coefficients are drawn uniformly from [-_COEFF_BOUND, _COEFF_BOUND]
_COEFF_BOUND = 10**6
# seeds tried by graded_quotient_dims before it reports a degenerate profile
_MAX_SEEDS = 5


def slice_monomials(m: int, n: int, j: int, base: int,
                    deadline: Deadline = NO_DEADLINE) -> np.ndarray:
    """Keys of the x_0-free monomials of bidegree (j, 0), ascending; a deadline
    is checked before the first monomial and after each one.

    The key of u is minus u read as a base-`base` numeral (weight_zero_numerals),
    so keys increase along the descending lex order of the monomials, and
    key(u + v) = key(u) + key(v) while every entry of u + v stays below base.
    The caller keeps every exponent below base (base > j does) and
    base**(m+n+1) within 2**63 (see graded_quotient_dims), so no key leaves
    int64.
    """
    check_window(m, n)
    if j < 0:
        raise ValueError("degree must be a natural number")
    keys = np.array(weight_zero_numerals(m, n, j, base, True, deadline), dtype=np.int64)
    return np.negative(keys, out=keys)


class GenericFormSet(NamedTuple):
    """Seeded random forms g_1, g_2, ...; g_j is an int32 vector of coefficients
    over the x_0-free slice j, in the ascending order of its slice_monomials
    keys (arrays: no field-wise ==)."""

    seed: int
    forms: tuple

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @classmethod
    def generate(cls, seed: int, sizes, deadline: Deadline = NO_DEADLINE) -> "GenericFormSet":
        """The first len(sizes) forms of the seed's draw, g_j with sizes[j-1]
        coefficients, checking the deadline before each: g_j is the same
        whatever sizes follow."""
        rng = random.Random(seed)
        forms = []
        for size in sizes:
            deadline.check()
            forms.append(np.array([rng.randint(-_COEFF_BOUND, _COEFF_BOUND)
                                   for _ in range(size)], dtype=np.int32))
        return cls(seed, tuple(forms))


class GradedDims(NamedTuple):
    m: int
    n: int
    seeds_tried: tuple
    dims: tuple

    @property
    def seed(self) -> int:
        """The seed whose profile this is: the last one tried."""
        return self.seeds_tried[-1]

    @property
    def total(self) -> Optional[int]:
        """Sum of the slice dimensions; None when any slice is open (None)."""
        return None if None in self.dims else sum(self.dims)


def default_j_max(m: int, n: int) -> int:
    return (m + n + 1) * (m + n - 2) // 2


# the largest prime below 2**15, the bound _rank_mod_p requires
_RANK_PRIME = 32749


def _rank_mod_p(A: np.ndarray, p: int, deadline: Deadline = NO_DEADLINE) -> np.ndarray:
    """Pivot rows of an integer matrix modulo a prime p < 2**15, eliminated in place.

    A (int16 residues, or a wider integer dtype) is left overwritten with
    residues, not in row-echelon form: pivot columns are never cleared, and
    pivot rows are never rescaled, since each row's factor takes the pivot's
    inverse instead.  Each pivot column is scanned once: after the swap, the
    rows below the pivot that it found nonzero are exactly the rows to update.
    Products are taken in int32, which holds (p-1)**2 < 2**30, and written back
    reduced mod p; a larger p is refused (ValueError).  Returns the original
    indices of the pivot rows: they are linearly independent mod p, every other
    row lies in their span, and their number is the rank mod p.
    """
    if p >= 2**15:
        raise ValueError(f"prime {p} is not below 2**15: int32 products could wrap")
    np.mod(A, p, out=A)
    nrows, ncols = A.shape
    perm = np.arange(nrows)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        deadline.check()
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            # the old row r is zero in column c, so no row of nz[1:] moves
            A[[r, pr]] = A[[pr, r]]
            perm[[r, pr]] = perm[[pr, r]]
        rows = r + nz[1:]
        if rows.size:
            # no later step reads column c or the pivot row's scale; the
            # temporaries scale with the pivot row's support right of c, not
            # the matrix width
            inv = pow(int(A[r, c]), -1, p)
            factors = np.multiply(A[rows, c], inv, dtype=np.int32) % p
            cols = c + 1 + np.nonzero(A[r, c + 1 :])[0]
            at = np.ix_(rows, cols)
            buf = np.multiply(factors[:, None], A[r, cols], dtype=np.int32)
            np.subtract(A[at], buf, out=buf)
            A[at] = np.mod(buf, p, out=buf)
        r += 1
    return perm[:r]


def _form_degrees(forms, j: int) -> range:
    """Degrees i of the forms g_i whose multiples span the ideal in slice j.

    x_0 is the only weight-zero monomial of degree 1, so g_1 = x_0 up to a
    scalar; graded_quotient_dims quotients it out, and the x_0-free slice 1 it
    leaves is empty, so g_1 spans no row and the span starts at g_2.
    """
    return range(2, min(len(forms), j) + 1)


def _positions(index, a: int, b: int) -> np.ndarray:
    """Position in slice a+b of q*u, for q in slice a (rows) and u in slice b;
    index[t] holds the slice_monomials keys of slice t."""
    return np.searchsorted(index[a + b], index[a][:, None] + index[b])


def _span_matrix(forms, index, j: int, deadline: Deadline = NO_DEADLINE) -> np.ndarray:
    """Span matrix of slice j: row (i, t) holds q*g_i for i >= 2 (see
    _form_degrees) and the t-th monomial q of slice j-i, rows ordered by i
    then t, columns indexed by slice j in ascending lex order (column
    ncols-1-s holds the s-th key of slice_monomials).  The rank does not
    depend on the column order, and ascending lex order keeps the fill of
    _rank_mod_p low: about half the entry updates of descending order at (3,3),
    a quarter at (3,4).

    The forms and the matrix hold int16 residues mod p: q*u is injective in
    u, so every entry is one coefficient.
    """
    degrees = _form_degrees(forms, j)
    ncols = len(index[j])
    A = np.zeros((sum(len(index[j - i]) for i in degrees), ncols), dtype=np.int16)
    r = 0
    for i in degrees:
        deadline.check()
        at = _positions(index, j - i, i)
        A[r + np.arange(len(at))[:, None], ncols - 1 - at] = forms[i - 1]
        r += len(at)
    return A


def _exact_slice_rank(residues, index, j: int,
                      deadline: Deadline = NO_DEADLINE) -> Optional[int]:
    """Certified exact QQ-rank of the degree-j ideal-slice span A, or None
    when the certificate stays open; residues are the forms mod p =
    _RANK_PRIME, as int16.

    Let P be the pivot rows of A mod p, r_low = |P|, and N the other rows.
    Lower bound: the pivot rows hold a minor that is nonzero mod p, hence
    nonzero over QQ, so rank_QQ(A) >= r_low.  When r_low equals
    min(nrows, ncols) the rank is pinned by size.  Upper bound: the Koszul
    relations g_k*(q*g_i) - g_i*(q*g_k) = 0 give a matrix S of exact left-null
    vectors of A, so rank_QQ(A) <= nrows - rank_QQ(S).  Only the columns of S
    in N are built, as S_N; a column submatrix has no larger rank, and a mod-p
    rank no larger than the QQ rank, so rank_QQ(S) >= rank_QQ(S_N) >=
    rank_p(S_N).  If rank_p(S_N) = |N| = nrows - r_low, then rank_QQ(A) <= r_low
    and the rank is pinned.  Both bounds read only A mod p and S mod p, which
    the residues give exactly, so the pinned number is the QQ rank of the raw
    int32 forms' span; they use only rank_p <= rank_QQ, true for every prime,
    so an unlucky prime can only leave the slice open.  Each matrix is
    overwritten by its elimination.
    """
    A = _span_matrix(residues, index, j, deadline)
    nrows = len(A)
    pivots = _rank_mod_p(A, _RANK_PRIME, deadline)
    r_low = len(pivots)
    if r_low == min(nrows, len(index[j])):
        return r_low
    free = np.ones(nrows, dtype=bool)
    free[pivots] = False
    cols = np.where(free, np.cumsum(free) - 1, -1)
    S = _koszul_syzygies(residues, index, j, cols, deadline)
    if len(_rank_mod_p(S, _RANK_PRIME, deadline)) == nrows - r_low:
        return r_low
    return None


def _koszul_syzygies(forms, index, j: int, cols: np.ndarray,
                     deadline: Deadline = NO_DEADLINE) -> np.ndarray:
    """Koszul syzygy rows, one per (i < k, monomial q of slice j-i-k) over the
    _form_degrees, restricted to the span rows that cols maps to a column
    (-1: left out).

    The g_k block lands in span rows (i, .) and the g_i block in rows (k, .),
    so, as in the span matrix, every entry is one int16 residue; for
    x < p < 2**15 the sign -x fits too.
    """
    degrees = _form_degrees(forms, j)
    start = dict(zip(degrees, np.cumsum([0] + [len(index[j - i]) for i in degrees])))
    pairs = [(i, k) for i, k in itertools.combinations(degrees, 2) if i + k <= j]
    S = np.zeros((sum(len(index[j - i - k]) for i, k in pairs), np.count_nonzero(cols >= 0)),
                 dtype=np.int16)
    r = 0
    for i, k in pairs:
        deadline.check()
        for row_block, g, sign in ((i, k, 1), (k, i, -1)):
            at = cols[start[row_block] + _positions(index, j - i - k, g)]
            t, u = np.nonzero(at >= 0)
            S[r + t, at[t, u]] = sign * forms[g - 1][u]
        r += len(index[j - i - k])
    return S


def graded_quotient_dims(m: int, n: int, seed: int = 0, j_max: Optional[int] = None,
                         deadline: Deadline = NO_DEADLINE) -> GradedDims:
    """Dimension of each bidegree-(j, 0) slice of the quotient by m+n generic forms.

    Slice j of the ideal is spanned by q * g_i with q running over slice j-i;
    the quotient dimension is the slice dimension minus the exact rank of that
    span.  A generic g_1 is a nonzero multiple of x_0, the only weight-zero
    monomial of degree 1, and R_0 is a polynomial ring in x_0 over its x_0-free
    part R_0', so the quotient is R_0'/(g_2', ..., g_N') with g_i' = g_i mod
    x_0.  Generic residues are as generic as generic forms, so each g_i' is
    drawn directly over the x_0-free slice i, and each slice is ranked on its
    x_0-free monomials.

    Each x_0-free slice is enumerated once, before any seed, and kept as its
    keys; each seed's forms are reduced mod _RANK_PRIME once.  A slice whose
    rank certificate stays open has dimension None.  A degenerate seed (a
    slice open, or the total above the Eulerian bound) is retried with the
    next seed, up to _MAX_SEEDS seeds, and all tried seeds are reported; when
    every seed is degenerate, the last one's profile is returned.  A key
    width past int64 is rejected (ValueError) before any slice is enumerated.
    A deadline is checked before and after each enumerated monomial, once per
    drawn form, once per slice, and once per pivot column of every
    elimination.
    """
    check_window(m, n)
    if j_max is None:
        j_max = default_j_max(m, n)
    # index[t] holds the keys of the x_0-free monomials of slice t; no
    # exponent in slices 0..j_max exceeds j_max, so the keys are read in base
    # j_max + 1 over the m + n + 1 variables x_{-m}..x_n
    base, nvars = j_max + 1, m + n + 1
    if base**nvars > 2**63:
        raise ValueError(f"slice keys in base {base} over {nvars} variables overflow int64")
    bound = eulerian(m + n - 1, m - 1)
    tried = []
    result = None
    index = [slice_monomials(m, n, t, base, deadline) for t in range(j_max + 1)]
    # only g_1'..g_{j_max}' reach slices 0..j_max
    sizes = [len(keys) for keys in index[1 : min(m + n, j_max) + 1]]
    for attempt in range(_MAX_SEEDS):
        s = seed + attempt
        tried.append(s)
        residues = [(f % _RANK_PRIME).astype(np.int16)
                    for f in GenericFormSet.generate(s, sizes, deadline).forms]
        dims = []
        for j in range(j_max + 1):
            deadline.check()
            rank = _exact_slice_rank(residues, index, j, deadline)
            dims.append(None if rank is None else len(index[j]) - rank)
        result = GradedDims(m, n, tuple(tried), tuple(dims))
        if result.total is not None and result.total <= bound:
            return result
    return result


class DecompositionRow(NamedTuple):
    d: int
    gen_eulerian: int
    empty: bool
    deg_circle: int
    orbit_count: Optional[int]  # orbits of size (m+n)/d, when enumerated
    orbit_agrees: Optional[bool]


class DecompositionReport(NamedTuple):
    """Per-divisor strata degrees summing to the Eulerian number."""

    m: int
    n: int
    rows: tuple
    expected_total: int

    @property
    def total(self) -> int:
        return sum(r.deg_circle for r in self.rows)

    @property
    def agrees(self) -> bool:
        ok = self.total == self.expected_total
        return ok and all(r.orbit_agrees is not False for r in self.rows)


def decomposition_report(m: int, n: int, orbit_cap: int = ORBIT_CAP) -> DecompositionReport:
    N = m + n
    counts = orbit_decomposition(N, m, cap=orbit_cap).counts if N <= orbit_cap else None
    rows = []
    for d in divisors(N):
        sd = sparse_ci_degree(m, n, d)
        deg = deg_Z_circle(m, n, d)
        orbit_count = orbit_agrees = None
        if counts is not None:
            orbit_count = counts.get(N // d, 0)
            orbit_agrees = deg == (N // d) * orbit_count
        rows.append(
            DecompositionRow(d, sd.value, sd.empty, deg, orbit_count, orbit_agrees)
        )
    return DecompositionReport(m, n, tuple(rows), eulerian(N - 1, m - 1))


class TheoremCell(NamedTuple):
    m: int
    n: int
    eulerian: int
    groebner_degree: Optional[object]  # int, "infinite", or None if skipped
    intersection_degree: Optional[int]
    unit_ideal: Optional[bool]
    status: str = "ok"  # or "timeout": the deadline cut the cell

    @property
    def agrees(self) -> Optional[bool]:
        if self.status == "timeout":
            return None
        checks = []
        if self.groebner_degree is not None:
            checks.append(self.groebner_degree == self.eulerian)
        if self.intersection_degree is not None:
            checks.append(self.intersection_degree == self.eulerian)
        if self.unit_ideal is not None:
            checks.append(self.unit_ideal)
        return all(checks) if checks else None


class TheoremMatrixReport(NamedTuple):
    max_total: int
    cells: tuple

    @property
    def agrees(self) -> Optional[bool]:
        """None when no cell checked anything, else whether no cell disagreed."""
        verdicts = {c.agrees for c in self.cells}
        return None if verdicts <= {None} else False not in verdicts


def degree_cell(m: int, n: int, field=QQ,
                deadline: Deadline = NO_DEADLINE) -> TheoremCell:
    """The degree of I_{m,n} three ways: Groebner staircase, intersection
    number and Eulerian number; the unit-ideal check is left out (None)."""
    ev = eulerian(m + n - 1, m - 1)
    gdeg = ideal_quotient_dimension(m, n, field=field, deadline=deadline)
    cdeg = None
    if m + n > 2:
        v = generic_ci_degree(m, n)
        if v.denominator != 1:
            raise RuntimeError(f"non-integral intersection number {v}")
        cdeg = int(v)
    return TheoremCell(m, n, ev, gdeg, cdeg, None)


def theorem_matrix(max_total: int,
                   deadline: Deadline = NO_DEADLINE) -> TheoremMatrixReport:
    """Degree agreement grid: Groebner staircase vs intersection number vs
    Eulerian, plus the unit-ideal check, for every window with m+n <= max_total.

    The deadline is shared by all cells.  The cell it cuts and every later
    cell are recorded as timeouts, with no partial results, not as failures.
    """
    cells = []
    expired = False
    for total in range(2, max_total + 1):
        for m in range(1, total):
            n = total - m
            if not expired:
                try:
                    cell = degree_cell(m, n, deadline=deadline)
                    unit = conjecture_unit_check(m, n, deadline=deadline)
                    cells.append(cell._replace(unit_ideal=unit))
                    continue
                except DeadlineExceeded:
                    expired = True
            ev = eulerian(total - 1, m - 1)
            cells.append(TheoremCell(m, n, ev, None, None, None, status="timeout"))
    return TheoremMatrixReport(max_total, tuple(cells))
