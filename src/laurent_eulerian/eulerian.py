"""Eulerian numbers, their d-step generalization, and circular-permutation orbits."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


class EnumerationCapError(ValueError):
    """Requested exhaustive enumeration above the configured cap."""


class GenEulerianDomainError(ValueError):
    """The step d does not divide k+1 (the generalized table is undefined there)."""


_eulerian_memo: dict = {}


def eulerian(n: int, k: int) -> int:
    """Number of permutations of {1,...,n} with exactly k ascents.

    Recurrence <n,k> = (k+1)<n-1,k> + (n-k)<n-1,k-1>; zero outside 0 <= k <= n-1
    (except <0,0> = 1 for the empty permutation).
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k > n - 1:
        return 0
    key = (n, k)
    v = _eulerian_memo.get(key)
    if v is None:
        # row by row from <1,0>; a cell of row r reaches (n, k) only through
        # columns k-(n-r)..k, so only that band of one row is kept (every
        # full row up to n = 1500 would hold about 1 GB of integers)
        row = {0: 1}
        for r in range(2, n + 1):
            row = {
                j: (j + 1) * row.get(j, 0) + (r - j) * row.get(j - 1, 0)
                for j in range(max(0, k - (n - r)), min(k, r - 1) + 1)
            }
        v = row[k]
        _eulerian_memo[key] = v
    return v


def ascents(seq) -> int:
    return sum(1 for a, b in zip(seq, seq[1:]) if a < b)


def eulerian_bruteforce(n: int, k: int, cap: int = 9) -> int:
    """<n,k> by exhaustive enumeration of all n! permutations."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n > cap:
        raise EnumerationCapError(f"n = {n} exceeds the enumeration cap {cap}")
    return sum(
        1 for p in itertools.permutations(range(1, n + 1)) if ascents(p) == k
    )


def _unipoly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def worpitzky_check(k: int) -> bool:
    """Exact coefficient-wise check of z^k = sum_i <k,i> C(z+i, k) over QQ."""
    if k < 1:
        raise ValueError("k must be positive")
    rhs = [Fraction(0)] * (k + 1)
    inv_kfact = Fraction(1, math.factorial(k))
    for i in range(k):
        e = eulerian(k, i)
        if not e:
            continue
        # C(z+i, k) = (z+i)(z+i-1)...(z+i-k+1) / k!
        prod = [Fraction(1)]
        for t in range(k):
            prod = _unipoly_mul(prod, [Fraction(i - t), Fraction(1)])
        for j, c in enumerate(prod):
            rhs[j] += e * c * inv_kfact
    lhs = [Fraction(0)] * (k + 1)
    lhs[k] = Fraction(1)
    return rhs == lhs


_gen_memo: dict = {}


def gen_eulerian(k: int, ell: int, d: int) -> int:
    """Generalized Eulerian number with step d, defined when d divides k+1.

    Base row k = d-1: 1 if gcd(ell+1, d) = 1 else 0, for 0 <= ell <= d-1.
    Otherwise (ell+1)*T(k-d, ell) + (k-ell)*T(k-d, ell-d).  Zero outside [0, k].
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if k < 0:
        raise ValueError("k must be a natural number")
    if (k + 1) % d != 0:
        raise GenEulerianDomainError(f"d = {d} does not divide k+1 = {k + 1}")
    if ell < 0 or ell > k:
        return 0
    key = (k, ell, d)
    v = _gen_memo.get(key)
    if v is None:
        # row by row from the base row d-1; a cell of row r reaches (k, ell)
        # only through columns ell, ell-d, ..., ell-s*d with s <= (k-r)/d,
        # so only those are kept
        for r in range(d - 1, k + 1, d):
            cols = range(max(ell - (k - r) // d * d, ell % d), min(ell, r) + 1, d)
            if r == d - 1:
                row = {c: 1 if math.gcd(c + 1, d) == 1 else 0 for c in cols}
            else:
                row = {
                    c: (c + 1) * row.get(c, 0) + (r - c) * row.get(c - d, 0)
                    for c in cols
                }
        v = row[ell]
        _gen_memo[key] = v
    return v


def mobius(n: int) -> int:
    """Classical Moebius function, by trial-division factorization."""
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1 if p == 2 else 2
    if n > 1:
        out = -out
    return out


def divisors(n: int) -> list:
    small = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


@dataclass(frozen=True, order=True)
class CircularPermutation:
    """Cyclic arrangement of {0,...,N-1}, canonically rotated to start at 0."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(self.elements)
        if sorted(elems) != list(range(len(elems))):
            raise ValueError("elements must be a permutation of 0..N-1")
        if elems[0] != 0:
            z = elems.index(0)
            elems = elems[z:] + elems[:z]
        object.__setattr__(self, "elements", elems)

    @property
    def size(self) -> int:
        return len(self.elements)

    def circular_ascents(self) -> int:
        e = self.elements
        return sum(1 for t in range(len(e)) if e[t] < e[(t + 1) % len(e)])

    def add_one(self) -> "CircularPermutation":
        n = len(self.elements)
        return CircularPermutation(tuple((v + 1) % n for v in self.elements))


@dataclass(frozen=True)
class OrbitDecomposition:
    N: int
    ascents: int
    orbits: tuple  # (minimum member as a tuple, orbit size), by (size, member)

    @property
    def sizes(self) -> list:
        return [size for _, size in self.orbits]

    @property
    def representatives(self) -> list:
        return [CircularPermutation(e) for e, _ in self.orbits]

    @property
    def total(self) -> int:
        return sum(self.sizes)


def orbit_decomposition(N: int, a: int, cap: int = 11) -> OrbitDecomposition:
    """Orbits of the add-1 action on circular permutations with a circular ascents.

    One pass over the canonical permutations (0,)+rest: each member e follows
    its orbit until it meets a smaller member (then e is not the orbit's
    minimum) or returns to e, so every orbit is recorded once, at its minimum.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if N > cap:
        raise EnumerationCapError(f"N = {N} exceeds the enumeration cap {cap}")
    orbits = []
    for rest in itertools.permutations(range(1, N)):
        # 0 -> rest[0] is always a circular ascent, rest[-1] -> 0 never is
        if 1 + sum(map(operator.lt, rest, rest[1:])) != a:
            continue
        e = cur = (0,) + rest
        for size in range(1, N + 1):
            z = cur.index(N - 1)  # N-1 becomes 0: rotate it to the front
            cur = tuple((v + 1) % N for v in cur[z:] + cur[:z])
            if cur <= e:
                break
        if cur == e:
            orbits.append((e, size))
    orbits.sort(key=lambda o: o[1])  # stable: members come in increasing order
    return OrbitDecomposition(N, a, tuple(orbits))


def deg_Z_circle(m: int, n: int, d: int) -> int:
    """Moebius-inverted degree of the singularity stratum indexed by d | m+n."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if (m + n) % d != 0:
        raise ValueError(f"d = {d} does not divide m+n = {m + n}")
    return sum(
        mobius(c) * gen_eulerian(m + n - 1, m - 1, c * d)
        for c in divisors((m + n) // d)
    )
