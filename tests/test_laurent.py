import random
from fractions import Fraction

import pytest

from laurent_eulerian.algebra import QQ, MultiPoly, PrimeField
from laurent_eulerian.laurent import (
    LaurentSpec,
    charp_scan,
    constant_term_iterative,
    constant_term_multinomial,
    multinomial,
    weight_zero_exponents,
)


def sym(m, n, support=None):
    return LaurentSpec(m, n, support)


def x(j, m, n):
    return MultiPoly.variable(j, m + n + 1, -m, QQ)


class TestSpecValidation:
    def test_requires_endpoints(self):
        with pytest.raises(ValueError):
            LaurentSpec(1, 2, frozenset({-1, 0}))

    def test_requires_positive_window(self):
        with pytest.raises(ValueError):
            LaurentSpec(0, 1)

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            constant_term_iterative(sym(1, 1), 0)
        with pytest.raises(ValueError):
            constant_term_multinomial(sym(1, 1), 0)


class TestSymbolicConstantTerms:
    def test_first_power_is_x0(self):
        assert constant_term_iterative(sym(1, 1), 1) == x(0, 1, 1)

    def test_square_by_hand(self):
        # (x_{-1} z^{-1} + x_0 + x_1 z)^2 has z^0 coefficient x_0^2 + 2 x_{-1} x_1
        expected = x(0, 1, 1) * x(0, 1, 1) + (x(-1, 1, 1) * x(1, 1, 1)).scale(2)
        assert constant_term_iterative(sym(1, 1), 2) == expected
        assert constant_term_multinomial(sym(1, 1), 2) == expected

    def test_single_weight_zero_monomial(self):
        assert constant_term_multinomial(sym(1, 2), 1) == x(0, 1, 2)

    def test_homogeneous_of_degree_i_weight_zero(self):
        for m, n in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            for i in range(1, 5):
                v = constant_term_multinomial(sym(m, n), i)
                assert v.graded_degree() == (i, 0)

    def test_dual_path_grid(self):
        for m in range(1, 6):
            for n in range(1, 7 - m):
                spec = sym(m, n)
                for i in range(1, 9):
                    a = constant_term_iterative(spec, i)
                    b = constant_term_multinomial(spec, i)
                    assert a == b, (m, n, i)

    def test_sparse_equals_full_with_zeros(self):
        # computing on sparse support == full support with non-support vars set to 0
        for m, n, d in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (3, 3, 3), (2, 2, 4)]:
            spec = sym(m, n, frozenset(range(-m, n + 1, d)))
            full = sym(m, n)
            dead = [j + m for j in range(-m, n + 1) if j not in spec.support]
            for i in range(1, 6):
                a = constant_term_iterative(spec, i)
                b = constant_term_iterative(full, i)
                # a dead variable set to 0 kills every term that contains it
                live = {e: c for e, c in b.terms.items() if not any(e[t] for t in dead)}
                assert a == MultiPoly(live, b.nvars, b.offset, QQ), (m, n, d, i)

    def test_window_reversal_symmetry(self):
        # x_j -> x_{-j} maps the (m, n) constant term onto the (n, m) one
        for m, n in [(1, 2), (2, 3), (1, 3)]:
            for i in range(1, 5):
                a = constant_term_multinomial(sym(m, n), i)
                b = constant_term_multinomial(sym(n, m), i)
                flipped = MultiPoly(
                    {tuple(reversed(e)): c for e, c in a.terms.items()},
                    m + n + 1,
                    -n,
                    QQ,
                )
                assert flipped == b, (m, n, i)


class TestNumericAndCharP:
    def test_f2_zero_forever(self):
        f2 = PrimeField(2)
        spec = LaurentSpec(1, 1, frozenset({-1, 1}), f2, {-1: 1, 1: 1})
        assert charp_scan(spec, 64) is None

    def test_rational_power_two(self):
        spec = LaurentSpec(1, 1, frozenset({-1, 1}), QQ, {-1: 1, 1: 1})
        assert charp_scan(spec, 4) == 2
        assert constant_term_iterative(spec, 2) == Fraction(2)

    def test_f3_power_two(self):
        f3 = PrimeField(3)
        spec = LaurentSpec(1, 1, frozenset({-1, 1}), f3, {-1: 1, 1: 1})
        assert charp_scan(spec, 4) == 2

    def test_dual_path_random_numeric(self):
        rng = random.Random(99)
        for _ in range(200):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            field = QQ if rng.random() < 0.5 else PrimeField(rng.choice([2, 3, 5, 7]))
            coeffs = {
                j: field.coerce(rng.randint(-5, 5))
                for j in range(-m, n + 1)
            }
            coeffs[-m] = field.coerce(rng.choice([1, 2, 3]))
            coeffs[n] = field.coerce(rng.choice([1, 2, 3]))
            spec = LaurentSpec(m, n, None, field, coeffs)
            i = rng.randint(1, 6)
            a = constant_term_iterative(spec, i)
            b = constant_term_multinomial(spec, i)
            assert a == b


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
