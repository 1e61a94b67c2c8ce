"""End-to-end acceptance checks with per-criterion runtime budgets.

Each test prints one PASS/FAIL line so a full run doubles as a report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from laurent_eulerian.algebra import QQ, PrimeField
from laurent_eulerian.chow import ChowRing, expected_d0_coefficient, generic_ci_degree
from laurent_eulerian.eulerian import (
    deg_Z_circle,
    divisors,
    eulerian,
    eulerian_bruteforce,
    gen_eulerian,
    orbit_decomposition,
    worpitzky_check,
)
from laurent_eulerian.experiments import graded_quotient_dims
from laurent_eulerian.groebner import (
    INFINITE,
    IdealSpec,
    TermOrder,
    buchberger,
    groebner_of_ideal,
    ideal_quotient_dimension,
    normal_form,
)
from laurent_eulerian.laurent import (
    LaurentSpec,
    constant_term_iterative,
    constant_term_multinomial,
)
from conftest import random_poly, s_polynomial


@contextmanager
def criterion(label: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = time.monotonic() - start
    if elapsed > limit_seconds:
        print(f"FAIL {label} (over budget: {elapsed:.1f}s > {limit_seconds}s)")
        pytest.fail(f"{label} exceeded its {limit_seconds}s budget ({elapsed:.1f}s)")
    print(f"PASS {label} ({elapsed:.1f}s)")


def test_criterion_1_eulerian_values():
    with criterion("criterion 1: Eulerian values and brute force", 10):
        assert eulerian(4, 1) == 11
        assert eulerian(5, 2) == 66
        for n in range(1, 9):
            for k in range(n):
                assert eulerian_bruteforce(n, k) == eulerian(n, k)


def test_criterion_2_worpitzky():
    with criterion("criterion 2: Worpitzky identity", 5):
        for k in range(1, 13):
            assert worpitzky_check(k)
        # homogenized two-variable form: k! a^k = sum_i <k,i-1> prod (a - l*b),
        # checked pointwise at enough rational points to pin the polynomials
        from fractions import Fraction

        for k in range(1, 11):
            for num in range(-8, 9):
                for b in (Fraction(1), Fraction(2), Fraction(-3, 2)):
                    a = Fraction(num, 2)
                    lhs = math.factorial(k) * a**k
                    rhs = Fraction(0)
                    for i in range(1, k + 2):
                        term = Fraction(eulerian(k, i - 1))
                        for ell in range(-i + 1, k - i + 1):
                            term *= a - ell * b
                        rhs += term
                    assert lhs == rhs, (k, a, b)


def test_criterion_3_chow_calculus():
    with criterion("criterion 3: Chow expansion and generic degrees", 30):
        for m in range(1, 12):
            for n in range(max(1, 3 - m), 13 - m):
                R = ChowRing(m, n)
                for k in range(1, m + n):
                    for (i, j), c in R.d0_power_expansion(k).items():
                        assert c == expected_d0_coefficient(m, n, k, i)
                assert generic_ci_degree(m, n) == eulerian(m + n - 1, m - 1)


def test_criterion_4_theorem_1_desk_scale():
    with criterion("criterion 4: quotient dimensions of I_(m,n)", 120):
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


def test_criterion_4_3_3():
    with criterion("criterion 4: quotient dimension of I_(3,3)", 60):
        assert ideal_quotient_dimension(3, 3) == 66


def test_criterion_5_conjecture_evidence():
    with criterion("criterion 5: unit ideals for m+n <= 5", 120):
        for total in range(2, 6):
            for m in range(1, total):
                spec = IdealSpec(m, total - m, max_power=total)
                assert groebner_of_ideal(spec).is_unit, (m, total - m)


def test_criterion_6_characteristic_p():
    with criterion("criterion 6: characteristic 2 vanishing", 10):
        f2 = PrimeField(2)
        # no power of z^-1 + z has a nonzero constant term over GF(2): in the
        # generic (1,1) constant term, every monomial free of x_0 vanishes
        spec = LaurentSpec(1, 1, f2)
        for i, ct in enumerate(constant_term_iterative(spec, 32), start=1):
            assert all(u[1] for u in ct.terms), i
        assert ideal_quotient_dimension(1, 2, field=f2) == INFINITE


def test_criterion_7_decomposition_and_orbits():
    with criterion("criterion 7: divisor decomposition and orbits", 60):
        assert deg_Z_circle(2, 3, 1) == 10
        assert deg_Z_circle(2, 3, 5) == 1
        dec = orbit_decomposition(5, 2)
        assert dec.sizes == [1, 5, 5]
        assert 10 + 1 == eulerian(4, 1) == 11
        for m in range(1, 10):
            for n in range(1, 11 - m):
                N = m + n
                odec = orbit_decomposition(N, m)
                for d in divisors(N):
                    count = sum(1 for s in odec.sizes if s == N // d)
                    assert deg_Z_circle(m, n, d) == (N // d) * count, (m, n, d)


def test_criterion_8_sparse_vanishing():
    with criterion("criterion 8: sparse vanishing iff gcd(d, n) > 1", 5):
        for m in range(1, 12):
            for n in range(1, 13 - m):
                for d in divisors(m + n):
                    v = gen_eulerian(m + n - 1, m - 1, d)
                    assert (v == 0) == (math.gcd(d, n) > 1), (m, n, d)


def test_criterion_9_slice_experiment():
    with criterion("criterion 9: (3,3) Hilbert slices, 3 seeds", 300):
        want = (1, 0, 2, 3, 6, 7, 9, 10, 9, 7, 6, 3, 2, 0, 1)
        for seed in (0, 1, 2):
            r = graded_quotient_dims(3, 3, seed=seed)
            assert r.dims == want, seed
            assert r.total == 66


def test_criterion_9_window_2_5():
    with criterion("criterion 9: (2,5) Hilbert slices, seed 0", 60):
        r = graded_quotient_dims(2, 5, seed=0)
        assert r.seeds_tried == (0,)
        assert r.total == eulerian(6, 1) == 57


def test_criterion_10_randomized_self_consistency():
    with criterion("criterion 10: randomized engine invariants", 60):
        rng = random.Random(20240824)
        # dual-path constant terms: 600 randomized windows, fields and powers
        for _ in range(600):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            field = QQ if rng.random() < 0.5 else PrimeField(rng.choice([2, 3, 5, 7, 11]))
            # unused draws: they fix the stream position, and with it the
            # 400 ideals of the Groebner half below
            [rng.randint(-9, 9) for _ in range(m + n + 1)]
            rng.randint(1, 5)
            rng.randint(1, 5)
            spec = LaurentSpec(m, n, field)
            top = rng.randint(1, 5)
            assert constant_term_iterative(spec, top) == [
                constant_term_multinomial(spec, i) for i in range(1, top + 1)
            ]
        # Groebner invariants: >= 400 randomized ideals
        checked = 0
        while checked < 400:
            field = QQ if checked % 2 == 0 else PrimeField(rng.choice([2, 3, 5, 7]))
            gens = [
                random_poly(rng, 3, 0, field, max_terms=3, max_exp=2, coeff_range=6)
                for _ in range(rng.randint(2, 3))
            ]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            order = TermOrder(rng.choice(["lex", "degrevlex"]))
            G = buchberger(gens, order)
            for g in gens:
                assert normal_form(g, G).is_zero
            for a in range(len(G.elements)):
                for b in range(a + 1, len(G.elements)):
                    s = s_polynomial(G.elements[a], G.elements[b], order)
                    if not s.is_zero:
                        assert normal_form(s, G).is_zero
            p = random_poly(rng, 3, 0, field, max_terms=4, max_exp=3, coeff_range=9)
            r = normal_form(p, G)
            assert normal_form(r, G) == r
            checked += 1
