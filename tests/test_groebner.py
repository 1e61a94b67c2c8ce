import random
from fractions import Fraction

import pytest
import sympy

from laurent_eulerian import groebner
from laurent_eulerian.algebra import QQ, MultiPoly, PrimeField
from laurent_eulerian.deadline import NO_DEADLINE, Deadline, DeadlineExceeded
from laurent_eulerian.groebner import (
    INFINITE,
    IdealSpec,
    TermOrder,
    buchberger,
    build_ideal,
    conjecture_unit_check,
    groebner_of_ideal,
    ideal_quotient_dimension,
    leading_term,
    normal_form,
    quotient_dimension,
    s_polynomial,
    staircase_monomials,
)
from laurent_eulerian.laurent import LaurentSpec, constant_term_iterative
from conftest import random_poly


def v(j, nvars=2, offset=0, field=QQ):
    return MultiPoly.variable(j, nvars, offset, field)


class TestTermOrders:
    def test_lex_key(self):
        key = TermOrder("lex").key()
        assert key((1, 0)) > key((0, 5))

    def test_degrevlex_key(self):
        key = TermOrder("degrevlex").key()
        # degree dominates
        assert key((0, 0, 2)) > key((1, 0, 0))
        # same degree: x0*x1 > x2^2 in degrevlex
        assert key((1, 1, 0)) > key((0, 0, 2))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            TermOrder("grlex")

    def test_leading_term(self):
        p = v(0) * v(0) + v(1)
        e, c = leading_term(p, TermOrder("lex"))
        assert e == (2, 0) and c == 1


class TestBuchberger:
    def test_textbook_lex_example(self):
        # x^2 + y^2 - 1, x - y over lex: basis {x - y, 2y^2 - 1} after monic
        x, y = v(0), v(1)
        G = buchberger([x * x + y * y - MultiPoly({(0, 0): 1}, 2, 0, QQ), x - y],
                       TermOrder("lex"))
        assert len(G) == 2
        assert set(G.leading) == {(1, 0), (0, 2)}
        assert quotient_dimension(G) == 2

    def test_unit_ideal_detection(self):
        one = MultiPoly({(0, 0): 1}, 2, 0, QQ)
        G = buchberger([v(0), v(1), one + v(0)])
        assert G.is_unit
        assert quotient_dimension(G) == 0

    def test_principal_ideal(self):
        p = v(0) * v(0) * v(1) + v(1)
        G = buchberger([p, p.scale(3)])
        assert len(G) == 1

    def test_monomial_ideal_staircase(self):
        x, y = v(0), v(1)
        G = buchberger([x * x, y * y * y])
        assert quotient_dimension(G) == 6
        assert len(staircase_monomials(G)) == 6

    def test_infinite_quotient(self):
        G = buchberger([v(0)])
        assert quotient_dimension(G) == INFINITE
        with pytest.raises(ValueError):
            staircase_monomials(G)

    def test_spoly_of_basis_elements_reduce_to_zero(self):
        rng = random.Random(5)
        checked = 0
        while checked < 20:
            gens = [
                random_poly(rng, 3, 0, QQ, max_terms=3, max_exp=2, coeff_range=5)
                for _ in range(3)
            ]
            gens = [g for g in gens if not g.is_zero]
            if len(gens) < 2:
                continue
            order = TermOrder(rng.choice(["lex", "degrevlex"]))
            G = buchberger(gens, order)
            for i in range(len(G.elements)):
                for j in range(i + 1, len(G.elements)):
                    s = s_polynomial(G.elements[i], G.elements[j], order)
                    if not s.is_zero:
                        assert normal_form(s, G).is_zero
            for g in gens:
                assert normal_form(g, G).is_zero
            checked += 1


class TestNormalForm:
    def test_idempotent(self):
        rng = random.Random(13)
        G = buchberger([v(0) * v(0) - v(1), v(1) * v(1)])
        for _ in range(30):
            p = random_poly(rng, 2, 0, QQ, max_terms=4, max_exp=3, coeff_range=9)
            r = normal_form(p, G)
            assert normal_form(r, G) == r
            # the difference is in the ideal
            assert normal_form(p - r, G).is_zero

    def test_linearity(self):
        rng = random.Random(17)
        G = buchberger([v(0) * v(1) - MultiPoly({(0, 0): 1}, 2, 0, QQ)])
        for _ in range(30):
            p = random_poly(rng, 2, 0, QQ)
            q = random_poly(rng, 2, 0, QQ)
            assert normal_form(p + q, G) == normal_form(p, G) + normal_form(q, G)


class TestConstantTermIdeals:
    def test_generator_count_and_window(self):
        gens = build_ideal(IdealSpec(2, 3))
        assert len(gens) == 4
        assert all(g.nvars == 4 and g.offset == -1 for g in gens)

    @pytest.mark.parametrize(
        "m,n", [(m, t - m) for t in range(2, 7) for m in range(1, t)]
    )
    def test_dehomogenizing_keeps_every_term(self, m, n):
        # degree and weight fix the endpoint exponents, so no two terms merge
        gens = build_ideal(IdealSpec(m, n, max_power=m + n))
        for i, g in enumerate(gens, start=1):
            source = constant_term_iterative(LaurentSpec(m, n), i)
            assert len(g.terms) == len(source.terms), i

    def test_quotient_dims_match_eulerian(self):
        from laurent_eulerian.eulerian import eulerian

        expect = {
            (1, 1): 1,
            (1, 2): 1,
            (2, 1): 1,
            (1, 3): 1,
            (3, 1): 1,
            (2, 2): 4,
            (2, 3): 11,
            (3, 2): 11,
        }
        for (m, n), d in expect.items():
            assert ideal_quotient_dimension(m, n) == d, (m, n)
            assert d == eulerian(m + n - 1, m - 1)

    def test_quotient_dim_3_3(self):
        assert ideal_quotient_dimension(3, 3) == 66

    def test_order_independence_of_dimension(self):
        for m, n in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            dims = {
                quotient_dimension(groebner_of_ideal(IdealSpec(m, n), TermOrder(kind)))
                for kind in ("degrevlex", "lex")
            }
            assert dims == {ideal_quotient_dimension(m, n)}

    def test_char2_sparse_infinite(self):
        # over GF(2) with support {-1, 1} every constant term vanishes is the
        # extreme case; the full-support (1,2) ideal is still not Artinian
        dim = ideal_quotient_dimension(1, 2, field=PrimeField(2))
        assert dim == INFINITE

    def test_unit_ideal_with_one_more_power(self):
        for m, n in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]:
            assert conjecture_unit_check(m, n), (m, n)

    def test_not_unit_without_extra_power(self):
        assert not groebner_of_ideal(IdealSpec(2, 2)).is_unit

    def test_deadline_far_off_leaves_answers_unchanged(self):
        assert ideal_quotient_dimension(2, 3, deadline=Deadline(3600)) == 11
        assert conjecture_unit_check(2, 3, deadline=Deadline(3600))

    def test_expired_deadline_raises(self):
        # not a ValueError/TypeError, which the CLI reports as bad input
        assert not issubclass(DeadlineExceeded, (ValueError, TypeError))
        with pytest.raises(DeadlineExceeded):
            ideal_quotient_dimension(3, 3, deadline=Deadline(0))
        with pytest.raises(DeadlineExceeded):
            conjecture_unit_check(3, 3, deadline=Deadline(0))

    def test_one_reduction_checks_the_deadline(self):
        class CountingDeadline:
            calls = 0

            def check(self):
                self.calls += 1

        # x^N reduced by x - 1 pops x^N, x^(N-1), ..., 1: N + 1 work terms
        N = 80
        key = TermOrder().key()
        x = MultiPoly({(1,): 1}, 1, 0, QQ)
        reducer = x - MultiPoly({(0,): 1}, 1, 0, QQ)
        deadline = CountingDeadline()
        r = groebner._reduce(MultiPoly({(N,): 1}, 1, 0, QQ), [reducer], [(1,)], key,
                             QQ, deadline)
        assert r == MultiPoly({(0,): 1}, 1, 0, QQ)
        # one check per popped term
        assert deadline.calls == N + 1
        with pytest.raises(DeadlineExceeded):
            groebner._reduce(MultiPoly({(N,): 1}, 1, 0, QQ), [reducer], [(1,)], key,
                             QQ, Deadline(0))

    def test_buchberger_passes_its_deadline_to_every_reduction(self, monkeypatch):
        seen = []
        real = groebner._reduce

        def spy(p, reducers, lms, order_key, field, deadline=NO_DEADLINE):
            seen.append(deadline)
            return real(p, reducers, lms, order_key, field, deadline)

        monkeypatch.setattr(groebner, "_reduce", spy)
        deadline = Deadline(3600)
        assert ideal_quotient_dimension(2, 3, deadline=deadline) == 11
        assert len(seen) > len(build_ideal(IdealSpec(2, 3)))  # pairs and interreduction
        assert all(d is deadline for d in seen)


# Our orders rank the variables in position order, x_0 > x_1 > ..., like
# sympy's generator order.
SYMPY_ORDER = {"degrevlex": "grevlex", "lex": "lex"}


def _scaled(terms: dict, field) -> frozenset:
    """A polynomial's terms divided by the coefficient of its lexicographically
    largest exponent, so that polynomials equal up to a scalar compare equal.
    sympy returns primitive integer polynomials, ours are monic."""
    lead = field.coerce(terms[max(terms)])
    return frozenset((e, field.div(field.coerce(c), lead)) for e, c in terms.items())


def _sympy_basis(gens, kind: str, field) -> set:
    xs = sympy.symbols(f"x0:{gens[0].nvars}")
    polys = [
        sympy.Poly.from_dict(
            {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
             for e, c in g.terms.items()},
            *xs,
        )
        for g in gens
    ]
    options = {} if field == QQ else {"modulus": field.p}
    G = sympy.groebner(polys, *xs, order=SYMPY_ORDER[kind], **options)
    return {
        _scaled({e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()}, field)
        for p in G.polys
    }


def _our_basis(G) -> set:
    return {_scaled(g.terms, G.field) for g in G}


class TestAgainstSympy:
    """Reduced Groebner bases are unique, so ours must equal sympy's up to scaling."""

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
    @pytest.mark.parametrize(
        "m,n", [(m, t - m) for t in range(2, 6) for m in range(1, t)]
    )
    def test_constant_term_ideals(self, m, n, field, kind):
        for max_power in (m + n - 1, m + n):
            spec = IdealSpec(m, n, max_power=max_power, field=field)
            G = groebner_of_ideal(spec, TermOrder(kind))
            assert _our_basis(G) == _sympy_basis(build_ideal(spec), kind, field), max_power

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    def test_random_small_ideals(self, kind):
        rng = random.Random(41)
        checked = 0
        while checked < 25:
            field = QQ if checked % 2 == 0 else PrimeField(rng.choice([3, 5, 7]))
            gens = [
                random_poly(rng, 3, 0, field, max_terms=3, max_exp=2, coeff_range=6)
                for _ in range(rng.randint(2, 3))
            ]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            G = buchberger(gens, TermOrder(kind))
            assert _our_basis(G) == _sympy_basis(gens, kind, field), gens
            checked += 1
