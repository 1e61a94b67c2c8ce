import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from laurent_eulerian.algebra import (
    QQ,
    ExactMatrix,
    FieldMismatchError,
    MultiPoly,
    PrimeField,
    ZeroPolynomialError,
)
from conftest import random_poly, variable


F7 = PrimeField(7)


def var(j, nvars=3, offset=-1, field=QQ):
    return variable(j, nvars, offset, field)


class TestFields:
    def test_prime_field_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_prime_field_rejects_composite_past_trial_division(self):
        # 41 * 43: no trial divisor up to 37 finds it, Miller-Rabin does
        with pytest.raises(ValueError, match="1763 is not prime"):
            PrimeField(1763)

    def test_prime_field_rejects_past_word_size(self):
        # 399165290221 * 798330580441 is a strong pseudoprime to all twelve
        # Miller-Rabin bases, so only the size check refuses it
        with pytest.raises(ValueError, match="below 2\\^64"):
            PrimeField(318665857834031151167461)
        assert PrimeField(2**64 - 59).p == 2**64 - 59  # the largest prime below 2^64

    def test_prime_field_residues_reduced(self):
        assert F7.coerce(-1) == 6
        assert F7.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
        with pytest.raises(ZeroDivisionError, match="denominator of 1/2 vanishes mod 2"):
            PrimeField(2).coerce(Fraction(1, 2))

    @pytest.mark.parametrize("field, want", [
        (QQ, [3, -3, 1, 3, Fraction(-2, 3)]),
        (F7, [3, 4, 1, 3, 4]),  # -2/3 = -2 * 5 = 4 mod 7
    ], ids=repr)
    def test_coerce_takes_exactly_ints_and_fractions(self, field, want):
        # a numpy integer is a numbers.Integral, so a check on numbers.Rational
        # would take it; it stays refused, like a float and a Decimal
        assert [field.coerce(v) for v in (3, -3, True, Fraction(3), Fraction(-2, 3))] == want
        for v in (np.int64(3), 2.0, Decimal(1)):
            with pytest.raises(TypeError, match="cannot coerce"):
                field.coerce(v)

    def test_rational_lowest_terms(self):
        c = QQ.coerce(Fraction(2, -4))
        assert c.numerator == -1 and c.denominator == 2

    def test_field_equality(self):
        assert PrimeField(7) == F7
        assert PrimeField(5) != F7
        assert QQ != F7


class TestPolyArithmetic:
    def test_difference_of_squares(self):
        x0, x1 = var(0), var(1)
        assert (x0 + x1) * (x0 - x1) == x0 * x0 - x1 * x1

    def test_multiply_by_zero(self):
        p = var(0) + var(1) * var(-1)
        z = MultiPoly({}, 3, -1, QQ)
        assert (p * z).is_zero

    def test_field_mismatch_raises(self):
        p = var(0)
        q = var(0, field=F7)
        with pytest.raises(FieldMismatchError):
            p + q
        with pytest.raises(FieldMismatchError):
            p * q

    def test_window_mismatch_raises(self):
        with pytest.raises(ValueError):
            var(0, nvars=3) + var(0, nvars=2)

    def test_sorted_terms_deterministic(self):
        p = var(1) + var(0) + var(-1)
        exps = [e for e, _ in p.sorted_terms()]
        assert exps == sorted(exps)


class TestGradedDegree:
    def test_weight_zero_product(self):
        p = var(-1) * var(1)
        assert p.graded_degree() == (2, 0)

    def test_single_variable(self):
        assert var(0).graded_degree() == (1, 0)

    def test_inhomogeneous(self):
        assert (var(0) + var(1)).graded_degree() is None

    def test_zero_poly_raises(self):
        with pytest.raises(ZeroPolynomialError):
            MultiPoly({}, 3, -1, QQ).graded_degree()

    def test_degree_additive_on_products(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_poly(rng, 3, -1, QQ, max_terms=1) + MultiPoly({}, 3, -1, QQ)
            b = random_poly(rng, 3, -1, QQ, max_terms=1)
            if a.is_zero or b.is_zero:
                continue
            da, db = a.graded_degree(), b.graded_degree()
            dp = (a * b).graded_degree()
            assert dp == (da[0] + db[0], da[1] + db[1])


@st.composite
def polys(draw, field=QQ):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 2)) for _ in range(3))
        terms[exps] = draw(st.integers(-9, 9))
    return MultiPoly(terms, 3, -1, field)


class TestRingAxioms:
    @given(polys(), polys(), polys())
    @settings(max_examples=150)
    def test_hypothesis_axioms_rational(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a

    def test_bulk_random_axioms_both_fields(self):
        # >= 1000 random triples, split between QQ and GF(7)
        rng = random.Random(20240817)
        for trial in range(1100):
            field = QQ if trial % 2 == 0 else F7
            a = random_poly(rng, 3, -1, field, max_terms=3, max_exp=2, coeff_range=9)
            b = random_poly(rng, 3, -1, field, max_terms=3, max_exp=2, coeff_range=9)
            c = random_poly(rng, 3, -1, field, max_terms=3, max_exp=2, coeff_range=9)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a


class TestExactRank:
    def test_identity(self):
        assert ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], QQ).rank() == 3

    def test_zero_matrix(self):
        assert ExactMatrix([[0, 0], [0, 0]], QQ).rank() == 0

    def test_repeated_rows(self):
        rng = random.Random(3)
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        rows.append(list(rows[1]))
        assert ExactMatrix(rows, QQ).rank() <= 4

    def test_rank_invariant_under_shuffle_and_scale(self):
        rng = random.Random(11)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)] for _ in range(6)]
        base = ExactMatrix(rows, QQ).rank()
        for _ in range(10):
            perm = rows[:]
            rng.shuffle(perm)
            scaled = [
                [v * Fraction(rng.choice([1, 2, 3, -5])) for v in row] for row in perm
            ]
            assert ExactMatrix(scaled, QQ).rank() == base

    def test_rank_prime_field(self):
        # [[1,1],[1,1]] has rank 1 over GF(2); [[1,1],[1,0]] rank 2
        assert ExactMatrix([[1, 1], [1, 1]], PrimeField(2)).rank() == 1
        assert ExactMatrix([[1, 1], [1, 0]], PrimeField(2)).rank() == 2
        # rank can drop mod p: [[1,1],[1,3]] singular mod 2 only
        assert ExactMatrix([[1, 1], [1, 3]], PrimeField(2)).rank() == 1
        assert ExactMatrix([[1, 1], [1, 3]], QQ).rank() == 2

    def test_solve(self):
        A = ExactMatrix([[2, 0], [0, 4]], QQ)
        assert A.solve([1, 1]) == [Fraction(1, 2), Fraction(1, 4)]
        assert ExactMatrix([[1, 1], [1, 1]], QQ).solve([0, 1]) is None

    def test_ragged_rows_and_wrong_length_rhs_raise(self):
        with pytest.raises(ValueError, match="ragged"):
            ExactMatrix([[1, 2], [3]], QQ)
        with pytest.raises(ValueError, match="wrong length"):
            ExactMatrix([[1, 0], [0, 1]], QQ).solve([1])

    def test_solve_underdetermined_free_vars_zero(self):
        A = ExactMatrix([[1, 1, 0]], QQ)
        x = A.solve([5])
        assert x == [5, 0, 0]
