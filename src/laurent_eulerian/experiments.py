"""Cross-module experiments: degree agreement, the divisor decomposition of the
Eulerian number, and the graded Hilbert-slice computation with generic forms."""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import QQ, ExactMatrix, MultiPoly
from .chow import generic_ci_degree, sparse_ci_degree
from .deadline import Deadline
from .eulerian import divisors, eulerian, deg_Z_circle, orbit_decomposition
from .groebner import (
    INFINITE,
    IdealSpec,
    conjecture_unit_check,
    ideal_quotient_dimension,
)
from .laurent import weight_zero_exponents


@dataclass(frozen=True)
class SliceBasis:
    """Monomials of bidegree (j, 0) on the chosen support, in lexicographic order."""

    m: int
    n: int
    j: int
    monomials: tuple


def slice_monomials(m: int, n: int, j: int, support=None) -> SliceBasis:
    if j < 0:
        raise ValueError("degree must be a natural number")
    monos = tuple(weight_zero_exponents(m, n, j, support))
    return SliceBasis(m, n, j, monos)


@dataclass(frozen=True)
class GenericFormSet:
    """Seeded random forms g_1..g_count, g_j supported on the degree-(j,0) slice."""

    m: int
    n: int
    seed: int
    forms: tuple

    @classmethod
    def generate(cls, m: int, n: int, seed: int, count: Optional[int] = None,
                 support=None, coeff_bound: int = 10**6) -> "GenericFormSet":
        if count is None:
            count = m + n
        rng = random.Random(seed)
        nvars = m + n + 1
        forms = []
        for j in range(1, count + 1):
            terms = {}
            for u in weight_zero_exponents(m, n, j, support):
                terms[u] = rng.randint(-coeff_bound, coeff_bound)
            forms.append(MultiPoly(terms, nvars, -m, QQ))
        return cls(m, n, seed, tuple(forms))


@dataclass(frozen=True)
class GradedDims:
    m: int
    n: int
    seed: int
    seeds_tried: tuple
    dims: tuple

    @property
    def total(self) -> int:
        return sum(self.dims)


def default_j_max(m: int, n: int) -> int:
    return (m + n + 1) * (m + n - 2) // 2


_RANK_PRIMES = (2147483629, 2147482801, 2147482583)


def _rank_mod_p(M: np.ndarray, p: int, deadline: Optional[Deadline] = None) -> int:
    """Row-echelon rank of an int64 matrix modulo a 31-bit prime."""
    A = np.mod(M, p, dtype=np.int64)
    nrows, ncols = A.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        if deadline is not None:
            deadline.check()
        col = A[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r, c:] = A[r, c:] * inv % p
        below = A[r + 1 :, c]
        mask = below != 0
        if mask.any():
            rows = np.nonzero(mask)[0] + r + 1
            A[rows, c:] = (A[rows, c:] - below[mask, None] * A[r, c:]) % p
        r += 1
    return r


def _exact_slice_rank(forms, slices, index, j: int, deadline: Optional[Deadline] = None):
    """Certified exact QQ-rank of the degree-j ideal-slice span.

    Lower bound: rank mod p (a nonzero minor mod p is nonzero over QQ).
    Upper bound: the Koszul relations g_k*(q*g_i) - g_i*(q*g_k) = 0 are exact
    left-null vectors of the span matrix; their mod-p rank certifies a
    left-nullity lower bound, hence a rank upper bound.  When the two bounds
    meet the rank is pinned; otherwise fall back to exact elimination.
    """
    target = index[j]
    top = min(len(forms), j)
    row_keys = [(i, t) for i in range(1, top + 1) for t in range(len(slices[j - i]))]
    if not row_keys or not target:
        return 0
    row_pos = {k: t for t, k in enumerate(row_keys)}

    # span matrix: row (i, t) holds q*g_i for the t-th monomial q of slice j-i
    A = np.zeros((len(row_keys), len(target)), dtype=np.int64)
    r = 0
    for i in range(1, top + 1):
        if deadline is not None:
            deadline.check()
        for q in slices[j - i]:
            for ge, gc in forms[i - 1].terms.items():
                e = tuple(a + b for a, b in zip(q, ge))
                A[r, target[e]] += int(gc)
            r += 1

    syz = None
    for p in _RANK_PRIMES:
        if deadline is not None:
            deadline.check()
        r_low = _rank_mod_p(A, p, deadline)
        if r_low == len(row_keys):
            return r_low
        if syz is None:
            syz = _koszul_syzygies(forms, slices, j, row_pos, deadline)
        s_low = _rank_mod_p(syz, p, deadline)
        if r_low + s_low == len(row_keys):
            return r_low
    # sandwich did not close (degenerate forms or unlucky primes)
    return ExactMatrix(A.tolist(), QQ).rank(deadline)


def _koszul_syzygies(forms, slices, j: int, row_pos: dict,
                     deadline: Optional[Deadline] = None) -> np.ndarray:
    """Koszul syzygy rows, one per (i < k, monomial q of bidegree (j-i-k, 0))."""
    pairs = [
        (i, k)
        for i, k in itertools.combinations(range(1, min(len(forms), j) + 1), 2)
        if i + k <= j
    ]
    S = np.zeros((sum(len(slices[j - i - k]) for i, k in pairs), len(row_pos)),
                 dtype=np.int64)
    r = 0
    for i, k in pairs:
        if deadline is not None:
            deadline.check()
        qi = {u: t for t, u in enumerate(slices[j - i])}
        qk = {u: t for t, u in enumerate(slices[j - k])}
        for q in slices[j - i - k]:
            for ge, gc in forms[k - 1].terms.items():
                e = tuple(a + b for a, b in zip(q, ge))
                S[r, row_pos[(i, qi[e])]] += int(gc)
            for ge, gc in forms[i - 1].terms.items():
                e = tuple(a + b for a, b in zip(q, ge))
                S[r, row_pos[(k, qk[e])]] -= int(gc)
            r += 1
    return S


def graded_quotient_dims(m: int, n: int, seed: int = 0, j_max: Optional[int] = None,
                         max_retries: int = 5,
                         deadline: Optional[Deadline] = None) -> GradedDims:
    """Dimension of each bidegree-(j, 0) slice of the quotient by m+n generic forms.

    Slice j of the ideal is spanned by q * g_i with q running over slice j-i;
    the quotient dimension is the slice dimension minus the exact rank of that
    span.  A degenerate seed (total above the Eulerian bound) is retried with
    the next seed and all tried seeds are reported.  A deadline is checked once
    per slice, once per prime, and once per pivot column of every elimination.
    """
    if j_max is None:
        j_max = default_j_max(m, n)
    bound = eulerian(m + n - 1, m - 1)
    tried = []
    result = None
    # slice j needs slices 0..j only; each is enumerated in its own step so the
    # per-slice deadline check bounds the enumeration too
    slices, index = [], []
    for attempt in range(max_retries):
        s = seed + attempt
        tried.append(s)
        forms = GenericFormSet.generate(m, n, s)
        dims = []
        for j in range(j_max + 1):
            if deadline is not None:
                deadline.check()
            if j == len(slices):
                slices.append(slice_monomials(m, n, j).monomials)
                index.append({u: t for t, u in enumerate(slices[j])})
            rank = _exact_slice_rank(forms.forms, slices, index, j, deadline)
            dims.append(len(slices[j]) - rank)
        result = GradedDims(m, n, s, tuple(tried), tuple(dims))
        if result.total <= bound:
            return result
    return result


@dataclass(frozen=True)
class DecompositionRow:
    d: int
    gen_eulerian_value: int
    empty: bool
    deg_circle: int
    orbit_count: Optional[int]  # orbits of size (m+n)/d, when enumerated
    orbit_agrees: Optional[bool]


@dataclass(frozen=True)
class DecompositionReport:
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


def decomposition_report(m: int, n: int, orbit_cap: int = 11) -> DecompositionReport:
    N = m + n
    sizes = orbit_decomposition(N, m).sizes if N <= orbit_cap else None
    rows = []
    for d in divisors(N):
        sd = sparse_ci_degree(m, n, d)
        deg = deg_Z_circle(m, n, d)
        orbit_count = orbit_agrees = None
        if sizes is not None:
            orbit_count = sizes.count(N // d)
            orbit_agrees = deg == (N // d) * orbit_count
        rows.append(
            DecompositionRow(d, sd.value, sd.empty, deg, orbit_count, orbit_agrees)
        )
    return DecompositionReport(m, n, tuple(rows), eulerian(N - 1, m - 1))


@dataclass(frozen=True)
class TheoremCell:
    m: int
    n: int
    eulerian_value: int
    groebner_degree: Optional[object]  # int, "infinite", or None if skipped
    chow_degree: Optional[int]
    unit_ideal: Optional[bool]
    timeout: bool = False

    @property
    def agrees(self) -> Optional[bool]:
        if self.timeout:
            return None
        checks = []
        if self.groebner_degree is not None:
            checks.append(self.groebner_degree == self.eulerian_value)
        if self.chow_degree is not None:
            checks.append(self.chow_degree == self.eulerian_value)
        if self.unit_ideal is not None:
            checks.append(self.unit_ideal)
        return all(checks) if checks else None


@dataclass(frozen=True)
class TheoremMatrixReport:
    max_total: int
    cells: tuple

    @property
    def agrees(self) -> bool:
        return all(c.agrees is not False for c in self.cells)


def theorem_matrix(max_total: int, budget_seconds: Optional[float] = None) -> TheoremMatrixReport:
    """Degree agreement grid: Groebner staircase vs intersection number vs Eulerian.

    The budget is soft: cells not started before it expires are recorded as
    timeouts rather than failures.  It must be finite and non-negative: a NaN
    budget would never expire.
    """
    if budget_seconds is not None and not (
        math.isfinite(budget_seconds) and budget_seconds >= 0
    ):
        raise ValueError(
            f"budget_seconds must be finite and non-negative: {budget_seconds!r}"
        )
    start = time.monotonic()
    cells = []
    for total in range(2, max_total + 1):
        for m in range(1, total):
            n = total - m
            ev = eulerian(total - 1, m - 1)
            if budget_seconds is not None and time.monotonic() - start > budget_seconds:
                cells.append(TheoremCell(m, n, ev, None, None, None, timeout=True))
                continue
            gdeg = ideal_quotient_dimension(m, n)
            cdeg = None
            if total > 2:
                v = generic_ci_degree(m, n)
                if v.denominator != 1:
                    raise RuntimeError(f"non-integral intersection number {v}")
                cdeg = int(v)
            unit = conjecture_unit_check(m, n)
            cells.append(TheoremCell(m, n, ev, gdeg, cdeg, unit))
    return TheoremMatrixReport(max_total, tuple(cells))
