import itertools
import math

import pytest

from laurent_eulerian.eulerian import (
    CircularPermutation,
    EnumerationCapError,
    GenEulerianDomainError,
    ascents,
    deg_Z_circle,
    divisors,
    eulerian,
    eulerian_bruteforce,
    gen_eulerian,
    mobius,
    orbit_decomposition,
    worpitzky_check,
)


class TestEulerianNumbers:
    def test_known_values(self):
        assert eulerian(1, 0) == 1
        assert eulerian(4, 1) == 11
        assert eulerian(4, 2) == 11
        assert eulerian(5, 2) == 66
        assert eulerian(0, 0) == 1
        assert eulerian(3, 3) == 0
        assert eulerian(3, -1) == 0

    def test_row_sums_are_factorials(self):
        for n in range(1, 13):
            assert sum(eulerian(n, k) for k in range(n)) == math.factorial(n)

    def test_symmetry(self):
        for n in range(1, 13):
            for k in range(n):
                assert eulerian(n, k) == eulerian(n, n - 1 - k)

    def test_deep_rows_do_not_recurse(self):
        # far past the default recursion limit of 1000
        v = eulerian(1500, 700)
        assert v == eulerian(1500, 1500 - 1 - 700)
        # explicit formula <n,k> = sum_j (-1)^j C(n+1, j) (k+1-j)^n
        assert v == sum(
            (-1) ** j * math.comb(1501, j) * (701 - j) ** 1500 for j in range(701)
        )
        # with step d = 1 the generalized table is the Eulerian table
        assert gen_eulerian(1500, 700, 1) == v

    def test_ascents(self):
        assert ascents((1, 3, 2)) == 1
        assert ascents((3, 2, 1)) == 0
        assert ascents((1, 2, 3, 4)) == 3

    def test_bruteforce_agrees(self):
        for n in range(1, 9):
            for k in range(n):
                assert eulerian_bruteforce(n, k) == eulerian(n, k)

    def test_bruteforce_cap(self):
        with pytest.raises(EnumerationCapError):
            eulerian_bruteforce(10, 3)

    def test_worpitzky(self):
        for k in range(1, 13):
            assert worpitzky_check(k)


class TestGeneralizedEulerian:
    def test_d1_matches_classical(self):
        for k in range(12):
            for ell in range(k + 1):
                assert gen_eulerian(k, ell, 1) == eulerian(k, ell)

    def test_base_row(self):
        # k = d - 1 row: 1 exactly when gcd(ell + 1, d) = 1
        for d in range(2, 9):
            for ell in range(d):
                expect = 1 if math.gcd(ell + 1, d) == 1 else 0
                assert gen_eulerian(d - 1, ell, d) == expect

    def test_d2_small_table(self):
        # <k, ell>_2 for k = 1, 3, 5
        assert [gen_eulerian(1, ell, 2) for ell in range(2)] == [1, 0]
        assert [gen_eulerian(3, ell, 2) for ell in range(4)] == [1, 0, 1, 0]
        assert [gen_eulerian(5, ell, 2) for ell in range(6)] == [1, 0, 6, 0, 1, 0]

    def test_domain_error(self):
        with pytest.raises(GenEulerianDomainError):
            gen_eulerian(4, 1, 2)  # 2 does not divide 5

    def test_out_of_range_zero(self):
        assert gen_eulerian(3, -1, 2) == 0
        assert gen_eulerian(3, 4, 2) == 0


class TestNumberTheoryHelpers:
    def test_mobius(self):
        vals = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 12: 0, 30: -1, 210: 1}
        for n, mu in vals.items():
            assert mobius(n) == mu

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]


class TestCircularPermutations:
    def test_canonical_rotation(self):
        p = CircularPermutation((2, 0, 1))
        assert p.elements == (0, 1, 2)

    def test_circular_ascents_examples(self):
        assert CircularPermutation((0, 1, 2, 3)).circular_ascents() == 3
        assert CircularPermutation((0, 3, 2, 1)).circular_ascents() == 1
        assert CircularPermutation((0, 3, 2, 4, 1)).circular_ascents() == 2

    def test_add_one_wraps(self):
        p = CircularPermutation((0, 2, 1))
        q = p.add_one()
        # 0,2,1 -> 1,0,2 -> canonical 0,2,1: a fixed point of the action
        assert q == p

    def test_validation(self):
        with pytest.raises(ValueError):
            CircularPermutation((0, 2, 2))
        with pytest.raises(ValueError):
            CircularPermutation((1, 2, 3))


class TestOrbits:
    def test_N5_two_ascents(self):
        dec = orbit_decomposition(5, 2)
        assert dec.total == eulerian(4, 2) == 11
        assert sorted(dec.sizes) == [1, 5, 5]
        singleton = [
            r.elements
            for r, s in zip(dec.representatives, dec.sizes)
            if s == 1
        ]
        assert singleton == [(0, 3, 1, 4, 2)]

    def test_N4(self):
        dec = orbit_decomposition(4, 2)
        assert dec.total == eulerian(3, 1) == 4
        assert dec.sizes == [4]

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            orbit_decomposition(12, 3)

    def test_matches_set_oracle(self):
        # orbits built one by one from a set of all members with add_one
        for N in range(2, 9):
            for a in range(1, N):
                pending = {
                    CircularPermutation((0,) + rest)
                    for rest in itertools.permutations(range(1, N))
                }
                pending = {c for c in pending if c.circular_ascents() == a}
                orbits = []
                while pending:
                    orbit = {min(pending)}
                    cur = min(pending).add_one()
                    while cur not in orbit:
                        orbit.add(cur)
                        cur = cur.add_one()
                    pending -= orbit
                    orbits.append((len(orbit), min(orbit)))
                orbits.sort()
                dec = orbit_decomposition(N, a)
                assert dec.sizes == [size for size, _ in orbits], (N, a)
                assert dec.representatives == [rep for _, rep in orbits], (N, a)
                assert dec.total == eulerian(N - 1, a - 1)

    def test_orbit_sizes_divide_N(self):
        # circular perms of {0..N-1} with a circular ascents number <N-1, a-1>
        for N in range(2, 9):
            for a in range(1, N):
                dec = orbit_decomposition(N, a)
                for s in dec.sizes:
                    assert N % s == 0
                assert sum(dec.sizes) == eulerian(N - 1, a - 1)


class TestDegZCircle:
    def test_examples(self):
        # (m, n) = (2, 3): N = 5 prime, deg Z_1 = <4,1> - <only c=1,5 divisors>
        assert deg_Z_circle(2, 3, 1) == 10
        assert deg_Z_circle(2, 3, 5) == 1
        # (2, 2): N = 4, everything concentrates in Z_1
        assert deg_Z_circle(2, 2, 1) == 4
        assert deg_Z_circle(2, 2, 2) == 0
        assert deg_Z_circle(2, 2, 4) == 0
        # (1, 3): the single 0-ascent-below-the-top class sits in Z_4
        assert deg_Z_circle(1, 3, 4) == 1
        assert deg_Z_circle(1, 3, 1) == 0

    def test_heart_decomposition(self):
        # sum over d | N of deg Z_d equals the full Eulerian number
        for m in range(1, 12):
            for n in range(1, 13 - m):
                N = m + n
                total = sum(deg_Z_circle(m, n, d) for d in divisors(N))
                assert total == eulerian(N - 1, m - 1), (m, n)

    def test_vanishing_when_gcd_d_n_not_one(self):
        for m in range(1, 10):
            for n in range(1, 11 - m):
                for d in divisors(m + n):
                    if math.gcd(d, n) > 1:
                        assert deg_Z_circle(m, n, d) == 0, (m, n, d)

    def test_orbit_refinement(self):
        # deg Z_d = (N/d) * #(orbits of size N/d) among circular perms
        # with m circular ascents
        for m in range(1, 8):
            for n in range(1, 9 - m):
                N = m + n
                dec = orbit_decomposition(N, m)
                for d in divisors(N):
                    count = sum(1 for s in dec.sizes if s == N // d)
                    assert deg_Z_circle(m, n, d) == (N // d) * count, (m, n, d)
