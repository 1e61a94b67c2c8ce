import operator
import random
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import given, settings

from laurent_eulerian import groebner
from laurent_eulerian.algebra import QQ, FieldMismatchError, MultiPoly, PrimeField
from laurent_eulerian.deadline import NO_DEADLINE, Deadline, DeadlineExceeded
from laurent_eulerian.groebner import (
    INFINITE,
    ExponentOverflow,
    IdealSpec,
    Packing,
    TermOrder,
    buchberger,
    build_ideal,
    conjecture_unit_check,
    groebner_of_ideal,
    ideal_quotient_dimension,
    normal_form,
    quotient_dimension,
    staircase_monomials,
)
from laurent_eulerian.laurent import LaurentSpec, constant_term_iterative
from conftest import ORDER_KEYS, leading_term, random_poly, s_polynomial, variable


def v(j, nvars=2, offset=0, field=QQ):
    return variable(j, nvars, offset, field)


class TestIdealSpec:
    def test_max_power_defaults_to_the_degree_ideal(self):
        assert IdealSpec(2, 3).max_power == 4
        assert IdealSpec(2, 3, max_power=5).max_power == 5

    @pytest.mark.parametrize("args, kwargs", [((0, 2), {}), ((2, 0), {}),
                                              ((1, 1), {"max_power": 0})])
    def test_validation(self, args, kwargs):
        with pytest.raises(ValueError):
            IdealSpec(*args, **kwargs)


class TestTermOrders:
    def test_lex_key(self):
        key = Packing(TermOrder("lex"), 2, 4).pack
        assert key((1, 0)) > key((0, 5))

    def test_degrevlex_key(self):
        key = Packing(TermOrder("degrevlex"), 3, 4).pack
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
        with pytest.raises(ValueError, match="zero polynomial"):
            leading_term(p - p, TermOrder("lex"))


def largest_field(kind, e):
    """The largest field of e's packing: the degree for degrevlex (a prefix
    sum), the largest exponent for lex."""
    return sum(e) if kind == "degrevlex" else max(e)


@st.composite
def exponent_pairs(draw):
    """An order, two exponent vectors, and a packing just wide enough for
    their product (up to two spare bits)."""
    kind = draw(st.sampled_from(["degrevlex", "lex"]))
    nvars = draw(st.integers(1, 6))
    vectors = st.lists(st.integers(0, 40), min_size=nvars, max_size=nvars).map(tuple)
    a, b = draw(vectors), draw(vectors)
    product = tuple(map(operator.add, a, b))
    width = max(largest_field(kind, product), 1).bit_length() + draw(st.integers(0, 2))
    return kind, Packing(TermOrder(kind), nvars, width), a, b


class TestPacking:
    @given(exponent_pairs())
    @settings(max_examples=300)
    def test_agrees_with_the_tuple_definitions(self, case):
        kind, packing, a, b = case
        key = ORDER_KEYS[kind]
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(pa) == a
        # integer order is the term order
        assert (pa < pb) == (key(a) < key(b)) and (pa == pb) == (a == b)
        # a sum is the product, a guard-free difference is divisibility
        assert pa + pb == packing.pack(tuple(map(operator.add, a, b)))
        assert (not (pb - pa) & packing.guards) == all(map(operator.le, a, b))
        assert packing.lcm(pa, pb) == packing.pack(tuple(map(max, a, b)))

    @given(exponent_pairs())
    @settings(max_examples=300)
    def test_overflow_raises_instead_of_wrapping(self, case):
        kind, _, a, b = case
        # the narrowest packing of a and b, which their product may overflow
        width = max(largest_field(kind, a), largest_field(kind, b), 1).bit_length()
        packing = Packing(TermOrder(kind), len(a), width)
        product, lcm = tuple(map(operator.add, a, b)), tuple(map(max, a, b))
        pa, pb = packing.pack(a), packing.pack(b)
        fits = largest_field(kind, product) < 2**width
        assert (not (pa + pb) & packing.guards) == fits
        if fits:
            assert packing.pack(product) == pa + pb
        else:
            with pytest.raises(ExponentOverflow):
                packing.pack(product)
        if largest_field(kind, lcm) < 2**width:
            assert packing.unpack(packing.lcm(pa, pb)) == lcm
        else:
            with pytest.raises(ExponentOverflow):
                packing.lcm(pa, pb)


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

    @pytest.mark.parametrize("count", [0, 2])
    def test_no_nonzero_generator_raises(self, count):
        with pytest.raises(ValueError, match="nonzero generator"):
            buchberger([v(0) - v(0)] * count)

    def test_principal_ideal(self):
        p = v(0) * v(0) * v(1) + v(1)
        G = buchberger([p, p * MultiPoly({(0, 0): 3}, 2, 0, QQ)])
        assert len(G) == 1

    def test_monomial_ideal_staircase(self):
        x, y = v(0), v(1)
        G = buchberger([x * x, y * y * y])
        assert quotient_dimension(G) == 6
        assert len(staircase_monomials(G)) == 6

    def test_exponents_beyond_the_first_packing_width(self):
        # fields start wide enough for four times the largest generator degree,
        # here 10; the lex reduction of x^7 by x - y^10 reaches y^70
        lex = TermOrder("lex")
        x7, y10, y70 = (MultiPoly({e: 1}, 2, 0, QQ) for e in [(7, 0), (0, 10), (0, 70)])
        G = buchberger([v(0) - y10, x7], lex)
        assert G.leading == [(0, 70), (1, 0)]
        assert normal_form(x7, buchberger([v(0) - y10], lex)) == y70

    def test_basis_takes_window_and_field_from_its_elements(self):
        G = buchberger([v(1, 3, 0, PrimeField(7))])
        assert (G.nvars, G.field, G.leading) == (3, PrimeField(7), [(0, 1, 0)])

    def test_mixed_fields_are_refused(self):
        with pytest.raises(FieldMismatchError):
            buchberger([v(0), v(1, field=PrimeField(7))])

    @pytest.mark.parametrize("nvars, offset", [(3, 0), (2, -1)], ids=["nvars", "offset"])
    def test_mixed_windows_are_refused(self, nvars, offset):
        with pytest.raises(ValueError):
            buchberger([v(0), v(offset, nvars, offset)])

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

    def test_zero_stays_zero(self):
        zero = MultiPoly({}, 2, 0, QQ)
        assert normal_form(zero, buchberger([v(0) * v(1) - v(1)])) == zero

    @pytest.mark.parametrize("zero", [True, False], ids=["zero", "nonzero"])
    @pytest.mark.parametrize("nvars, offset, field, error", [
        pytest.param(2, 0, PrimeField(7), FieldMismatchError, id="field"),
        pytest.param(3, 0, QQ, ValueError, id="nvars"),
        pytest.param(2, -1, QQ, ValueError, id="offset")])
    def test_other_field_or_window_is_refused(self, zero, nvars, offset, field, error):
        p = v(offset, nvars, offset, field)  # the first variable of that window
        if zero:
            p = p - p
        with pytest.raises(error):
            normal_form(p, buchberger([v(0) * v(1) - v(1)]))

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
        sources = constant_term_iterative(LaurentSpec(m, n), m + n)
        for i, (g, source) in enumerate(zip(gens, sources, strict=True), start=1):
            assert len(g.terms) == len(source.terms), i

    def test_one_pass_builds_every_generator(self, monkeypatch):
        calls = []

        def spy(spec, top):
            calls.append(top)
            return constant_term_iterative(spec, top)

        monkeypatch.setattr(groebner, "constant_term_iterative", spy)
        build_ideal(IdealSpec(3, 3, max_power=6))
        assert calls == [6]

    def test_build_ideal_memory(self):
        # the pass keeps only the z-exponents the remaining factors can bring
        # back to zero, and counts over the integers: a traced peak near
        # 18 KB, where one field-coefficient convolution per power peaks near
        # 91 KB.  The first call in a process also allocates the
        # interpreter's one-time state for the code it runs (about 45 KB;
        # 200 KB for the convolutions), and an earlier test may have paid it,
        # so the traced call is the second.
        spec = IdealSpec(3, 3, max_power=6)
        build_ideal(spec)
        tracemalloc.start()
        try:
            build_ideal(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50_000

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_small_characteristic(self, p):
        # over GF(p), f^p = sum_j x_j^p z^(jp), so ct(f^p) = x_0^p lies in
        # (ct(f)); when p < m+n that leaves m+n-2 generators in m+n-1
        # variables, and the ideal is the unit ideal or positive-dimensional
        from laurent_eulerian.eulerian import eulerian

        field = PrimeField(p)
        for total in range(2, 7):
            for m in range(1, total):
                n = total - m
                degree = ideal_quotient_dimension(m, n, field=field)
                if p < total:
                    assert degree == INFINITE, (m, n)
                    x0 = {tuple(p * (t == m) for t in range(total + 1)): 1}
                    ct = constant_term_iterative(LaurentSpec(m, n, field), p)[p - 1]
                    assert ct == MultiPoly(x0, total + 1, -m, field), (m, n)
                else:
                    assert degree == eulerian(total - 1, m - 1), (m, n)

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

    def test_unit_check_memory(self):
        # the Gebauer-Moeller update queues few pairs and keeps no record of
        # the pairs done: a traced peak near 83 KB, where queueing every
        # pair and recording the done ones for the chain criterion peaks
        # near 1 MB.  The first call in a process also allocates the
        # interpreter's one-time state for the code it runs (the cold peak is
        # near 166 KB), and an earlier test may have paid it, so the traced
        # call is the second.
        assert conjecture_unit_check(3, 3)
        tracemalloc.start()
        try:
            assert conjecture_unit_check(3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150_000

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
        packing = Packing(TermOrder(), 1, 8)
        reducer = groebner._element({packing.pack((1,)): 1, packing.pack((0,)): -1}, packing)

        def reduce(deadline):
            return groebner._reduce({packing.pack((N,)): 1}, [reducer], QQ, packing.guards,
                                    deadline)

        deadline = CountingDeadline()
        assert reduce(deadline) == {packing.pack((0,)): 1}
        # one check per popped term
        assert deadline.calls == N + 1
        with pytest.raises(DeadlineExceeded):
            reduce(Deadline(0))

    def test_buchberger_passes_its_deadline_to_every_reduction(self, monkeypatch):
        seen = []
        real = groebner._reduce

        def spy(work, reducers, field, guards, deadline=NO_DEADLINE):
            seen.append(deadline)
            return real(work, reducers, field, guards, deadline)

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


# every window with m+n <= 6 in degrevlex, where the pair criteria prune
# most; lex only to m+n = 5, since sympy's lex basis of (2, 4) takes minutes
SYMPY_WINDOWS = [
    pytest.param(m, t - m, field, kind, id=f"{m}-{t - m}-{field_id}-{kind}")
    for kind, top in (("degrevlex", 6), ("lex", 5))
    for field_id, field in (("QQ", QQ), ("GF32003", PrimeField(32003)))
    for t in range(2, top + 1)
    for m in range(1, t)
]


def _entry_cases(field) -> dict:
    """Generator lists in x > y > z, each with a redundant generator: one whose
    leading monomial is a multiple of an earlier one's, a duplicate, one in
    the ideal of the others, a zero one.  In both orders lm(p) = x^2 y,
    lm(q) = x y^2 and lm(r) = x^3 y^2."""
    def poly(terms):
        return MultiPoly(terms, 3, 0, field)

    p = poly({(2, 1, 0): 1, (0, 0, 2): -1})
    q = poly({(1, 2, 0): Fraction(1, 2), (0, 0, 1): -1})
    r = poly({(3, 2, 0): 3, (0, 1, 1): 1, (1, 0, 0): -2})
    return {
        "lm-multiple": [p, r, q],
        "duplicate": [p, q, p],
        "in-ideal": [p, q, poly({(1, 0, 0): 1}) * p - poly({(0, 1, 0): 3}) * q],
        "zero": [p, p - p, q],
    }


class TestAgainstSympy:
    """Reduced Groebner bases are unique, so ours must equal sympy's up to scaling."""

    @pytest.mark.parametrize("m,n,field,kind", SYMPY_WINDOWS)
    def test_constant_term_ideals(self, m, n, field, kind):
        for max_power in (m + n - 1, m + n):
            spec = IdealSpec(m, n, max_power=max_power, field=field)
            G = groebner_of_ideal(spec, TermOrder(kind))
            assert _our_basis(G) == _sympy_basis(build_ideal(spec), kind, field), max_power

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
    @pytest.mark.parametrize("case", sorted(_entry_cases(QQ)))
    def test_generators_enter_reduced(self, case, field, kind):
        # every generator enters as its remainder by the basis so far, so
        # neither the order nor a redundant generator changes the basis
        gens = _entry_cases(field)[case]
        expected = _sympy_basis(gens, kind, field)
        for ordered in (gens, gens[::-1]):
            assert _our_basis(buchberger(ordered, TermOrder(kind))) == expected, ordered

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    def test_random_small_ideals(self, kind):
        rng = random.Random(41)
        for nvars in (3, 4):
            checked = 0
            while checked < 25:
                field = QQ if checked % 2 == 0 else PrimeField(rng.choice([3, 5, 7]))
                gens = [
                    random_poly(rng, nvars, 0, field, max_terms=3, max_exp=2, coeff_range=6)
                    for _ in range(rng.randint(2, 3))
                ]
                gens = [g for g in gens if not g.is_zero]
                if not gens:
                    continue
                G = buchberger(gens, TermOrder(kind))
                assert _our_basis(G) == _sympy_basis(gens, kind, field), gens
                checked += 1
