"""Eulerian numbers, their d-step generalization, and circular-permutation orbits."""

from __future__ import annotations

import functools
import io
import itertools
import math
import operator
from typing import NamedTuple


ORBIT_CAP = 11  # largest N whose circular permutations are enumerated


class EnumerationCapError(ValueError):
    """Requested exhaustive enumeration above the configured cap."""


class GenEulerianDomainError(ValueError):
    """The step d does not divide k+1 (the generalized table is undefined there)."""


def eulerian(n: int, k: int) -> int:
    """Number of permutations of {1,...,n} with exactly k ascents.

    Recurrence <n,k> = (k+1)<n-1,k> + (n-k)<n-1,k-1>; zero outside 0 <= k <= n-1
    (except <0,0> = 1 for the empty permutation).  This is gen_eulerian's step-1
    table, so decomposition's total check tests mobius, divisors and deg_Z_circle.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    return gen_eulerian(n, k, 1)


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
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def worpitzky_check(k: int) -> bool:
    """Exact coefficient-wise check of z^k = sum_i <k,i> C(z+i, k).

    Both sides times k! are integer polynomials, k! z^k = sum_i <k,i>
    (z+i)(z+i-1)...(z+i-k+1), so the check is made in ints.
    """
    if k < 1:
        raise ValueError("k must be positive")
    rhs = [0] * (k + 1)
    for i in range(k):
        e = eulerian(k, i)
        prod = [1]
        for t in range(k):
            prod = _unipoly_mul(prod, [i - t, 1])
        for j, c in enumerate(prod):
            rhs[j] += e * c
    lhs = [0] * (k + 1)
    lhs[k] = math.factorial(k)
    return rhs == lhs


@functools.cache
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
    # row by row from the base row d-1; a cell of row r reaches (k, ell) only
    # through columns ell, ell-d, ..., ell-(k-r), so only those are kept (every
    # full row up to k = 1500 would hold about 1 GB of integers)
    low, gap = ell % d, k - ell
    row = {c: 1 if math.gcd(c + 1, d) == 1 else 0
           for c in range(max(d - 1 - gap, low), min(ell, d - 1) + 1, d)}
    for r in range(2 * d - 1, k + 1, d):
        row = {
            c: (c + 1) * row.get(c, 0) + (r - c) * row.get(c - d, 0)
            for c in range(max(r - gap, low), min(ell, r) + 1, d)
        }
    return row[ell]


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


class _CircularPermutation(NamedTuple):
    elements: tuple


class CircularPermutation(_CircularPermutation):
    """Cyclic arrangement of {0,...,N-1}, canonically rotated to start at 0."""

    __slots__ = ()

    def __new__(cls, elements):
        elems = tuple(elements)
        if sorted(elems) != list(range(len(elems))):
            raise ValueError("elements must be a permutation of 0..N-1")
        z = elems.index(0)
        return super().__new__(cls, elems[z:] + elems[:z])

    def circular_ascents(self) -> int:
        e = self.elements
        return sum(1 for t in range(len(e)) if e[t] < e[(t + 1) % len(e)])

    def add_one(self) -> "CircularPermutation":
        n = len(self.elements)
        return CircularPermutation(tuple((v + 1) % n for v in self.elements))


class OrbitDecomposition(NamedTuple):
    N: int
    ascents: int
    # (orbit size, the orbits' minimum members packed N bytes each in
    # increasing order), by increasing size
    buckets: tuple

    @property
    def orbits(self) -> tuple:
        """(minimum member as a tuple, orbit size), by (size, member)."""
        N = self.N
        return tuple(
            (tuple(packed[i:i + N]), size)
            for size, packed in self.buckets
            for i in range(0, len(packed), N)
        )

    @property
    def counts(self) -> dict:
        """Number of orbits of each size that occurs."""
        return {size: len(packed) // self.N for size, packed in self.buckets}

    @property
    def sizes(self) -> list:
        return [size for size, count in self.counts.items() for _ in range(count)]

    @property
    def representatives(self) -> list:
        return [CircularPermutation(e) for e, _ in self.orbits]

    @property
    def total(self) -> int:
        return sum(size * count for size, count in self.counts.items())


def orbit_decomposition(N: int, a: int, cap: int = ORBIT_CAP) -> OrbitDecomposition:
    """Orbits of the add-1 action on circular permutations with a circular ascents.

    One pass over the canonical permutations (0,)+rest, each held as N bytes:
    each member e follows its orbit until it meets a smaller member (then e is
    not the orbit's minimum) or returns to e, so every orbit is recorded once,
    at its minimum.  Bytes compare like the tuples of their values, and the
    members come in increasing order, so each size's bucket is sorted.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if N > cap:
        raise EnumerationCapError(f"N = {N} exceeds the enumeration cap {cap}")
    if not 1 <= a < N:
        # every circular permutation of N >= 2 elements has 1..N-1 ascents
        return OrbitDecomposition(N, a, ())
    add_one = bytes((v + 1) % N for v in range(256))  # a bytes.translate table
    # indexed by orbit size; getvalue() hands over each buffer without a copy
    minima = [io.BytesIO() for _ in range(N + 1)]
    for rest in itertools.permutations(range(1, N)):
        # 0 -> rest[0] is always a circular ascent, rest[-1] -> 0 never is
        if 1 + sum(map(operator.lt, rest, rest[1:])) != a:
            continue
        e = cur = bytes((0,) + rest)
        for size in range(1, N + 1):
            z = cur.index(N - 1)  # N-1 becomes 0: rotate it to the front
            cur = (cur[z:] + cur[:z]).translate(add_one)
            if cur <= e:
                break
        if cur == e:
            minima[size].write(e)
    buckets = tuple((size, packed.getvalue()) for size, packed in enumerate(minima)
                    if packed.tell())
    return OrbitDecomposition(N, a, buckets)


def check_window(m: int, n: int):
    """Raise ValueError unless the window {-m, ..., n} has m, n >= 1."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")


def check_window_divisor(m: int, n: int, d: int):
    """Raise ValueError unless m, n >= 1 and d is a positive divisor of m+n."""
    check_window(m, n)
    if d < 1:
        raise ValueError("d must be a positive integer")
    if (m + n) % d != 0:
        raise ValueError(f"d = {d} does not divide m+n = {m + n}")


def deg_Z_circle(m: int, n: int, d: int) -> int:
    """Moebius-inverted degree of the singularity stratum indexed by d | m+n."""
    check_window_divisor(m, n, d)
    return sum(
        mobius(c) * gen_eulerian(m + n - 1, m - 1, c * d)
        for c in divisors((m + n) // d)
    )
