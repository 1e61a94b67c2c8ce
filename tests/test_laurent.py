import pytest

from laurent_eulerian.algebra import QQ, MultiPoly, PrimeField
from laurent_eulerian.laurent import (
    constant_term_iterative,
    constant_term_multinomial,
    multinomial,
    weight_zero_exponents,
    weight_zero_numerals,
)
from conftest import variable


def x(j, m, n):
    return variable(j, m + n + 1, -m, QQ)


class TestSpecValidation:
    def test_requires_positive_window(self):
        for m, n in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError, match="m and n must be positive"):
                constant_term_iterative(m, n, QQ, 1)
            with pytest.raises(ValueError, match="m and n must be positive"):
                constant_term_multinomial(m, n, QQ, 1)

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            constant_term_iterative(1, 1, QQ, 0)
        with pytest.raises(ValueError):
            constant_term_multinomial(1, 1, QQ, 0)


class TestSymbolicConstantTerms:
    def test_first_power_is_x0(self):
        assert constant_term_iterative(1, 1, QQ, 1) == [x(0, 1, 1)]

    def test_square_by_hand(self):
        # (x_{-1} z^{-1} + x_0 + x_1 z)^2 has z^0 coefficient x_0^2 + 2 x_{-1} x_1
        cross = x(-1, 1, 1) * x(1, 1, 1)
        expected = x(0, 1, 1) * x(0, 1, 1) + cross + cross
        assert constant_term_iterative(1, 1, QQ, 2) == [x(0, 1, 1), expected]
        assert constant_term_multinomial(1, 1, QQ, 2) == expected

    def test_single_weight_zero_monomial(self):
        assert constant_term_multinomial(1, 2, QQ, 1) == x(0, 1, 2)

    def test_homogeneous_of_degree_i_weight_zero(self):
        for m, n in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            for i in range(1, 5):
                v = constant_term_multinomial(m, n, QQ, i)
                assert v.graded_degree() == (i, 0)

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=repr)
    def test_dual_path_grid(self, field):
        for m in range(1, 6):
            for n in range(1, 7 - m):
                a = constant_term_iterative(m, n, field, 8)
                b = [constant_term_multinomial(m, n, field, i) for i in range(1, 9)]
                assert a == b, (m, n)

    def test_window_reversal_symmetry(self):
        # x_j -> x_{-j} maps the (m, n) constant term onto the (n, m) one
        for m, n in [(1, 2), (2, 3), (1, 3)]:
            for i in range(1, 5):
                a = constant_term_multinomial(m, n, QQ, i)
                b = constant_term_multinomial(n, m, QQ, i)
                flipped = MultiPoly(
                    {tuple(reversed(e)): c for e, c in a.terms.items()},
                    m + n + 1,
                    -n,
                    QQ,
                )
                assert flipped == b, (m, n, i)


class TestEnumeration:
    def test_multinomial_values(self):
        assert multinomial(4, (2, 2)) == 6
        assert multinomial(3, (1, 1, 1)) == 6
        assert multinomial(5, (5,)) == 1

    def test_multinomial_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            multinomial(3, (1, 1))

    def test_weight_zero_enumeration_no_duplicates(self):
        got = list(weight_zero_exponents(1, 1, 2))
        assert len(got) == len(set(got))
        assert set(got) == {(0, 2, 0), (1, 0, 1)}

    def test_weight_zero_against_bruteforce(self):
        import itertools

        for m, n, deg in [(1, 2, 3), (2, 2, 4), (1, 3, 3)]:
            brute = {
                u
                for u in itertools.product(range(deg + 1), repeat=m + n + 1)
                if sum(u) == deg
                and sum((j - m) * e for j, e in enumerate(u)) == 0
            }
            assert set(weight_zero_exponents(m, n, deg)) == brute
            # the walk is in descending lex order, and its x_0-free numerals
            # keep the order of the full walk
            full = list(weight_zero_exponents(m, n, deg))
            assert full == sorted(brute, reverse=True)
            base = deg + 1
            assert weight_zero_numerals(m, n, deg, base, True) == [
                sum(e * base ** (m + n - t) for t, e in enumerate(u)) for u in full if not u[m]]
