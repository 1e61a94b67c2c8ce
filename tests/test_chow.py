import gc
import math
import weakref
from fractions import Fraction

import pytest

from laurent_eulerian.algebra import QQ, ExactMatrix
from laurent_eulerian.chow import (
    ChowRing,
    _linear_form,
    _product,
    expected_d0_coefficient,
    generic_ci_degree,
    ray_matrix,
    sparse_ci_degree,
)
from laurent_eulerian.eulerian import divisors, eulerian


class TestRayMatrix:
    def test_shape_and_entries(self):
        M = ray_matrix(2, 3)
        assert len(M) == 4 and all(len(r) == 6 for r in M)
        assert [r[0] for r in M] == [1, 2, 3, 4]
        assert [r[1] for r in M] == [-2, -3, -4, -5]
        for i, r in enumerate(M):
            assert r[2 + i] == 1


class TestDivisorClasses:
    def test_basis_classes_are_units(self):
        assert _linear_form(0) == [Fraction(1), Fraction(0)]
        assert _linear_form(1) == [Fraction(0), Fraction(1)]

    def test_linear_interpolation_formula(self):
        # the relations force D_j = (1-j) D_0 + j D_1
        for m, n in [(1, 2), (2, 2), (2, 3), (3, 3), (1, 4)]:
            for j in range(-m, n + 1):
                assert _linear_form(j) == [Fraction(1 - j), Fraction(j)], (m, n, j)

    def test_examples(self):
        assert _linear_form(-1) == [Fraction(2), Fraction(-1)]
        assert _linear_form(2) == [Fraction(-1), Fraction(2)]

    def test_closed_form_satisfies_every_ray_row(self):
        # each row of the ray matrix is a linear relation sum_j row[j] D_j = 0;
        # with D_0 and D_1 fixed the rows have full column rank, so the closed
        # form is their only solution
        for total in range(3, 13):
            for m in range(1, total):
                n = total - m
                forms = [_linear_form(j) for j in range(-m, n + 1)]
                assert forms[m : m + 2] == [[1, 0], [0, 1]]
                rows = ray_matrix(m, n)
                for row in rows:
                    for t in (0, 1):
                        assert sum(r * f[t] for r, f in zip(row, forms)) == 0, (m, n, row)
                units = [[int(c == m + t) for c in range(total + 1)] for t in (0, 1)]
                assert ExactMatrix(rows + units, QQ).rank() == total + 1, (m, n)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            ChowRing(1, 1)


class TestGradedReduction:
    def test_basis_pairs(self):
        R = ChowRing(2, 3)
        assert R.basis_pairs(1) == [(1, 1), (2, 0)]
        assert R.basis_pairs(4) == [(2, 3)]
        with pytest.raises(ValueError):
            R.basis_pairs(5)

    def test_basis_fidelity(self):
        # feeding a basis class back in returns the unit coordinate vector
        for m, n in [(1, 2), (2, 2), (2, 3)]:
            R = ChowRing(m, n)
            for k in range(1, m + n):
                for pair in R.basis_pairs(k):
                    i, j = pair
                    coords = R.reduce_to_basis(_product(-i + 1, j), k)
                    for other in R.basis_pairs(k):
                        want = Fraction(1 if other == pair else 0)
                        assert coords[other] == want, (m, n, k, pair, other)

    def test_k2_worked_example(self):
        # 2 D_0^2 = D_{-1} D_0 D_1-ish: coordinates (1, 1) on the two classes
        R = ChowRing(2, 3)
        coords = R.reduce_to_basis([Fraction(2), Fraction(0), Fraction(0)], 2)
        assert coords == {(1, 2): Fraction(1), (2, 1): Fraction(1)}

    def test_relation_multiples_vanish(self):
        R = ChowRing(2, 2)
        for lo, hi in ((-2, 0), (0, 3)):
            coords = R.reduce_to_basis(_product(lo, hi), hi - lo)
            assert all(c == 0 for c in coords.values()), (lo, hi)

    def test_wrong_number_of_coefficients_raises(self):
        with pytest.raises(ValueError, match="k\\+1 homogeneous coefficients"):
            ChowRing(2, 3).reduce_to_basis([1, 2], 2)

    def test_d0_coefficient_outside_the_window_is_zero(self):
        # i past m, j = k-i+1 past n, and i = 0; inside, the Eulerian number
        assert [expected_d0_coefficient(2, 3, k, i) for k, i in ((4, 3), (5, 1), (2, 0))] == [
            0, 0, 0]
        assert expected_d0_coefficient(2, 3, 4, 2) == eulerian(4, 1) == 11

    def test_linearity(self):
        R = ChowRing(2, 3)
        k = 3
        p = [Fraction(1), Fraction(-2), Fraction(0), Fraction(5)]
        q = [Fraction(3), Fraction(1), Fraction(7), Fraction(-1)]
        cp = R.reduce_to_basis(p, k)
        cq = R.reduce_to_basis(q, k)
        cs = R.reduce_to_basis([a + b for a, b in zip(p, q)], k)
        for pair in R.basis_pairs(k):
            assert cs[pair] == cp[pair] + cq[pair]

    def test_d0_powers_give_windowed_eulerian(self):
        # k! D_0^k = sum_i <k, i-1> D_{(-i, k-i+1)} inside the window
        for m in range(1, 12):
            for n in range(max(1, 3 - m), 13 - m):
                R = ChowRing(m, n)
                for k in range(1, m + n):
                    coords = R.d0_power_expansion(k)
                    for (i, j), c in coords.items():
                        assert c == expected_d0_coefficient(m, n, k, i), (m, n, k, i)
                    total_in_window = sum(coords.values())
                    full = sum(eulerian(k, i - 1) for i in range(1, k + 2))
                    assert total_in_window <= full == math.factorial(k)

    def test_classes_stay_exact(self):
        # QQ values are ints until a division makes a Fraction, and int / int
        # would be a float: every coordinate is an int or a Fraction
        for m in range(1, 6):
            for n in range(max(1, 3 - m), 7 - m):
                R = ChowRing(m, n)
                values = [generic_ci_degree(m, n)]
                for k in range(1, m + n):
                    values += R.d0_power_expansion(k).values()
                    for t in range(k + 1):
                        unit = [int(s == t) for s in range(k + 1)]
                        values += R.reduce_to_basis(unit, k).values()
                assert {type(v) for v in values} <= {int, Fraction}, (m, n)

    def test_2_3_top_expansion(self):
        R = ChowRing(2, 3)
        assert R.d0_power_expansion(4) == {(2, 3): Fraction(11)}


class TestDegrees:
    def test_used_ring_can_be_collected(self):
        # no method cache keeps a used ring (and its memory) alive for the process
        R = ChowRing(3, 3)
        assert R.generic_ci_degree() == 66
        ring = weakref.ref(R)
        del R
        gc.collect()
        assert ring() is None

    def test_generic_ci_degree_examples(self):
        assert generic_ci_degree(2, 3) == 11
        assert generic_ci_degree(2, 2) == 4
        assert generic_ci_degree(1, 2) == 1
        assert generic_ci_degree(3, 3) == 66

    def test_generic_matches_eulerian(self):
        for m in range(1, 8):
            for n in range(max(1, 3 - m), 9 - m):
                assert generic_ci_degree(m, n) == eulerian(m + n - 1, m - 1)

    def test_generic_matches_groebner(self):
        from laurent_eulerian.groebner import ideal_quotient_dimension

        for m, n in [(1, 2), (2, 2), (2, 3)]:
            assert generic_ci_degree(m, n) == ideal_quotient_dimension(m, n)

    def test_sparse_degrees(self):
        s = sparse_ci_degree(2, 3, 5)
        assert (s.value, s.empty) == (1, False)
        s = sparse_ci_degree(2, 2, 2)
        assert s.empty and s.value == 0
        with pytest.raises(ValueError):
            sparse_ci_degree(2, 2, 3)

    @pytest.mark.parametrize("m, n, d", [(2, 3, 0), (0, 3, 1), (3, 0, 1), (-1, 2, 1)])
    def test_sparse_rejects_bad_window_or_step(self, m, n, d):
        with pytest.raises(ValueError):
            sparse_ci_degree(m, n, d)

    def test_sparse_d1_is_generic(self):
        for m in range(1, 7):
            for n in range(max(1, 3 - m), 8 - m):
                s = sparse_ci_degree(m, n, 1)
                assert not s.empty
                assert s.value == eulerian(m + n - 1, m - 1)

    def test_sparse_sum_over_strata(self):
        # summing the Moebius-refined strata degrees recovers the sparse degree
        from laurent_eulerian.eulerian import deg_Z_circle

        for m in range(1, 7):
            for n in range(max(1, 3 - m), 8 - m):
                for d in divisors(m + n):
                    if math.gcd(d, n) != 1:
                        continue
                    s = sparse_ci_degree(m, n, d)
                    strata = sum(
                        deg_Z_circle(m, n, d * e) for e in divisors((m + n) // d)
                    )
                    assert s.value == strata, (m, n, d)


class TestHomogenizedWorpitzky:
    def test_bivariate_identity(self):
        # z^k = sum_i <k,i> C(z+i, k) specialized through the Chow lemma:
        # evaluate both sides of k! a^k = sum <k,i-1> prod_{l=-i+1}^{k-i} (a - l)
        # at many rational points a
        for k in range(1, 11):
            for num in range(-6, 7):
                a = Fraction(num, 2)
                lhs = math.factorial(k) * a**k
                rhs = Fraction(0)
                for i in range(1, k + 2):
                    term = Fraction(eulerian(k, i - 1))
                    for ell in range(-i + 1, k - i + 1):
                        term *= a - ell
                    rhs += term
                assert lhs == rhs, (k, a)
