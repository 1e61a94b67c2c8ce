import itertools
import random
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from sympy.polys.matrices import DomainMatrix

from laurent_eulerian import experiments, laurent
from laurent_eulerian.algebra import QQ, ExactMatrix, MultiPoly, PrimeField
from laurent_eulerian.deadline import NO_DEADLINE, Deadline, DeadlineExceeded
from laurent_eulerian.eulerian import eulerian, orbit_decomposition
from laurent_eulerian.experiments import (
    _RANK_PRIME,
    GenericFormSet,
    _exact_slice_rank,
    _koszul_syzygies,
    _rank_mod_p,
    _span_matrix,
    decomposition_report,
    default_j_max,
    degree_cell,
    graded_quotient_dims,
    slice_monomials,
    theorem_matrix,
)
from laurent_eulerian.laurent import weight_zero_exponents
from conftest import degenerate_seeds


class TestSlices:
    def test_degree_one_slice(self):
        # only x_0 has bidegree (1, 0), so the x_0-free slice 1 is empty
        assert list(weight_zero_exponents(2, 3, 1)) == [(0, 0, 1, 0, 0, 0)]
        keys = slice_monomials(2, 3, 1, 2)
        assert keys.dtype == np.int64 and keys.size == 0

    def test_degree_zero_slice(self):
        # the empty monomial is the numeral 0
        assert slice_monomials(1, 1, 0, 1).tolist() == [0]

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="natural number"):
            slice_monomials(1, 1, -1, 1)

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 0)])
    def test_empty_window_raises(self, m, n):
        # the walk needs a variable on each side of x_0
        with pytest.raises(ValueError, match="m and n must be positive"):
            slice_monomials(m, n, 2, 3)

    def test_degree_two_slice(self):
        # x_0^2 and x_{-1} x_1 for the symmetric window (1, 1); only the
        # second is free of x_0, and (1, 0, 1) in base 3 reads 10
        assert set(weight_zero_exponents(1, 1, 2)) == {(0, 2, 0), (1, 0, 1)}
        assert slice_monomials(1, 1, 2, 3).tolist() == [-10]

    def test_slice_sizes_grow_with_window(self):
        small = len(slice_monomials(1, 2, 4, 5))
        big = len(slice_monomials(2, 3, 4, 5))
        assert small < big

    def test_enumeration_checks_the_deadline(self):
        class CountingDeadline:
            calls = 0

            def check(self):
                self.calls += 1

        deadline = CountingDeadline()
        keys = slice_monomials(6, 6, 10, 11, deadline)
        assert np.array_equal(keys, slice_monomials(6, 6, 10, 11))
        assert len(keys) == 8510
        # one check before the first monomial and one after each
        assert deadline.calls == len(keys) + 1 == 8511
        with pytest.raises(DeadlineExceeded):
            slice_monomials(6, 6, 10, 11, Deadline(0))

    @pytest.mark.parametrize("m, n", [(m, t - m) for t in range(2, 7) for m in range(1, t)])
    def test_keys_match_a_brute_force_enumeration(self, m, n):
        # a monomial of degree j is a multiset of j variables (a composition
        # of j over x_{-m}..x_n); those of weight 0 without x_0, read as
        # base-(j_max + 1) numerals, negated and sorted, are the keys
        j_max = default_j_max(m, n)
        base = j_max + 1
        for j in range(j_max + 1):
            numerals = [sum(base ** (n - v) for v in c)
                        for c in itertools.combinations_with_replacement(range(-m, n + 1), j)
                        if sum(c) == 0 and 0 not in c]
            keys = slice_monomials(m, n, j, base)
            assert keys.dtype == np.int64, (m, n, j)
            assert keys.tolist() == sorted(-x for x in numerals), (m, n, j)

    def test_keys_are_made_without_a_tuple_per_monomial(self):
        # a list of int numerals, then one int64 array: under 100 traced bytes
        # per key, where an exponent tuple per monomial took 288
        tracemalloc.start()
        try:
            keys = slice_monomials(6, 6, 11, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(keys) == 15880
        assert peak < 100 * len(keys)


def _full_slice(m, n, j):
    """Every monomial of slice j, x_0 included."""
    return tuple(weight_zero_exponents(m, n, j))


def _sizes(m, n, count):
    """Sizes of the full slices 1..count, one per form g_1..g_count."""
    return [len(_full_slice(m, n, j)) for j in range(1, count + 1)]


def _same_forms(a, b) -> bool:
    return len(a) == len(b) and all(np.array_equal(f, g) for f, g in zip(a, b))


class TestGenericForms:
    def test_deterministic_in_seed(self):
        sizes = _sizes(2, 2, 4)
        a = GenericFormSet.generate(42, sizes)
        b = GenericFormSet.generate(42, sizes)
        c = GenericFormSet.generate(43, sizes)
        assert _same_forms(a.forms, b.forms)
        assert not _same_forms(a.forms, c.forms)
        # fewer forms are a prefix of the same draw, so profiles do not
        # depend on how many forms a slice bound needs
        assert _same_forms(GenericFormSet.generate(42, sizes[:2]).forms, a.forms[:2])

    def test_equal_only_to_itself(self):
        # the forms are arrays, which have no field-wise ==: two draws of one
        # seed are equal only by identity, and comparing them never raises
        sizes = _sizes(2, 2, 4)
        a, b = GenericFormSet.generate(42, sizes), GenericFormSet.generate(42, sizes)
        assert a == a and not a != a
        assert a != b and not a == b
        assert len({a, b, a}) == 2

    def test_form_count_and_degrees(self):
        fs = GenericFormSet.generate(0, _sizes(2, 3, 5))
        assert len(fs.forms) == 5
        for j, g in enumerate(fs.forms, start=1):
            monomials = _full_slice(2, 3, j)
            assert g.dtype == np.int32 and len(g) == len(monomials)
            poly = MultiPoly(dict(zip(monomials, g.tolist())), 6, -2, QQ)
            assert poly.graded_degree() == (j, 0)

    def test_draw_is_unchanged(self):
        # one randint per monomial, form by form, in slice_monomials order:
        # the coefficients g_1..g_3 of (2, 3), seed 0, have always been these
        pinned = [
            [770880],
            [-192083, 589545, 866976],
            [-117998, -915099, -457013, 72220, 19064, -150792],
        ]
        sizes = _sizes(2, 3, 4)
        forms = GenericFormSet.generate(0, sizes).forms
        for j, want in enumerate(pinned, start=1):
            g = forms[j - 1]
            assert g.dtype == np.int32 and len(g) == len(_full_slice(2, 3, j))
            assert g.tolist() == want
        assert _same_forms(GenericFormSet.generate(0, sizes[:2]).forms, forms[:2])


class TestGradedDims:
    def test_small_cases_sum_to_eulerian(self):
        for m, n in [(1, 2), (2, 2), (2, 3), (1, 4)]:
            r = graded_quotient_dims(m, n, seed=0)
            assert r.total == eulerian(m + n - 1, m - 1), (m, n)
            assert r.dims[0] == 1

    @pytest.mark.parametrize("m, n", [(0, 2), (-1, 2), (2, 0)])
    def test_rejects_empty_window(self, m, n, monkeypatch):
        def no_forms(*args):
            raise AssertionError("no seed may be tried for an empty window")

        monkeypatch.setattr(GenericFormSet, "generate", no_forms)
        with pytest.raises(ValueError):
            graded_quotient_dims(m, n)

    def test_2_3_profile(self):
        r = graded_quotient_dims(2, 3, seed=0)
        assert r.dims == (1, 0, 1, 2, 2, 2, 2, 1, 0, 0)
        assert len(r.dims) == default_j_max(2, 3) + 1

    def test_degenerate_seed_is_retried(self, monkeypatch):
        degenerate_seeds(monkeypatch, {0})
        r = graded_quotient_dims(2, 3)
        assert r.seeds_tried == (0, 1) and r.seed == 1
        assert r.dims == (1, 0, 1, 2, 2, 2, 2, 1, 0, 0)

    def test_every_seed_degenerate_reports_the_last(self, monkeypatch):
        degenerate_seeds(monkeypatch, range(10))
        r = graded_quotient_dims(2, 3)
        assert r.seeds_tried == (0, 1, 2, 3, 4) and r.seed == 4
        # zero forms span nothing, and their Koszul rows are zero: a slice
        # whose span has rows and columns stays open (None); g_1 = x_0 is
        # taken as given, so every other slice keeps its x_0-free size
        sizes = [len(slice_monomials(2, 3, j, 10)) for j in range(10)]
        has_rows = [any(sizes[j - i] for i in range(2, min(5, j) + 1)) for j in range(10)]
        assert r.dims == tuple(None if rows and size else size
                               for rows, size in zip(has_rows, sizes))
        assert None in r.dims and r.total is None

    def test_open_slice_moves_to_the_next_seed(self, monkeypatch):
        # the first Koszul matrix is zero, so seed 0's slice 5 stays open and
        # seed 0 is degenerate; seed 1 closes every slice
        real_koszul = experiments._koszul_syzygies
        calls = []

        def koszul(*args, **kwargs):
            S = real_koszul(*args, **kwargs)
            calls.append(S)
            return S if len(calls) > 1 else np.zeros_like(S)

        monkeypatch.setattr(experiments, "_koszul_syzygies", koszul)
        r = graded_quotient_dims(2, 3)
        assert r.seeds_tried == (0, 1) and r.seed == 1
        assert r.dims == (1, 0, 1, 2, 2, 2, 2, 1, 0, 0)

    def test_seed_independence(self):
        for m, n in [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]:
            profiles = {
                graded_quotient_dims(m, n, seed=s).dims for s in (0, 1, 2)
            }
            assert len(profiles) == 1, (m, n)

    def test_deadline_far_off_leaves_profile_unchanged(self):
        r = graded_quotient_dims(2, 3, seed=0, deadline=Deadline(3600))
        assert r.dims == (1, 0, 1, 2, 2, 2, 2, 1, 0, 0)

    def test_expired_deadline_raises(self):
        with pytest.raises(DeadlineExceeded):
            graded_quotient_dims(3, 3, seed=0, deadline=Deadline(0))

    def test_draws_only_the_forms_its_slices_use(self, monkeypatch):
        counts = []
        real = GenericFormSet.generate

        def generate(seed, sizes, deadline=NO_DEADLINE):
            counts.append(len(sizes))
            return real(seed, sizes, deadline)

        monkeypatch.setattr(GenericFormSet, "generate", generate)
        assert graded_quotient_dims(7, 7, j_max=2).dims == (1, 0, 6)
        assert graded_quotient_dims(2, 3, j_max=3).dims == (1, 0, 1, 2)
        assert graded_quotient_dims(2, 3).dims == (1, 0, 1, 2, 2, 2, 2, 1, 0, 0)
        assert counts == [2, 3, 5]

    def test_forms_are_drawn_under_the_deadline(self, monkeypatch):
        class ExpiringDeadline:
            """Passes `checks` checks, then expires."""

            def __init__(self, checks):
                self.checks = checks

            def check(self):
                if self.checks == 0:
                    raise DeadlineExceeded("expired")
                self.checks -= 1

        enumerated = []
        real = experiments.slice_monomials

        def enumerate_slice(m, n, j, base, deadline=NO_DEADLINE):
            keys = real(m, n, j, base, deadline)
            enumerated.append(j)
            return keys

        def no_forms(*args):
            raise AssertionError("no form may be drawn before the slices are enumerated")

        monkeypatch.setattr(experiments, "slice_monomials", enumerate_slice)
        monkeypatch.setattr(GenericFormSet, "generate", no_forms)
        # slice t of (8, 8) takes 1 + |slice t| checks: slices 0..3 take 45,
        # so slice 4 expires at its first check, and with one check fewer
        # slice 3 expires at its last
        sizes = [len(real(8, 8, t, 13)) for t in range(4)]
        assert sizes == [1, 0, 8, 32]
        budget = sum(1 + size for size in sizes)
        for checks, done in [(budget, [0, 1, 2, 3]), (budget - 1, [0, 1, 2])]:
            enumerated.clear()
            with pytest.raises(DeadlineExceeded):
                graded_quotient_dims(8, 8, j_max=12, deadline=ExpiringDeadline(checks))
            assert enumerated == done

    def test_each_slice_is_enumerated_once(self, monkeypatch):
        # across three seeds, every slice is walked once, only through
        # slice_monomials, only for its x_0-free monomials, and straight to
        # its keys: no exponent vector is decoded
        degenerate_seeds(monkeypatch, {0, 1})
        sliced, walked, decoded = [], [], []
        real_slice, real_walk = experiments.slice_monomials, experiments.weight_zero_numerals

        def enumerate_slice(m, n, j, base, deadline=NO_DEADLINE):
            sliced.append(j)
            return real_slice(m, n, j, base, deadline)

        def walk(m, n, j, base, x0_free, deadline=NO_DEADLINE):
            walked.append((j, x0_free))
            return real_walk(m, n, j, base, x0_free, deadline)

        def exponents(*args):
            decoded.append(args)
            raise AssertionError("no slice may decode exponent vectors")

        monkeypatch.setattr(experiments, "slice_monomials", enumerate_slice)
        monkeypatch.setattr(experiments, "weight_zero_numerals", walk)
        monkeypatch.setattr(laurent, "weight_zero_exponents", exponents)
        r = graded_quotient_dims(2, 3)
        assert r.seeds_tried == (0, 1, 2)
        assert sliced == list(range(10))
        assert walked == [(j, True) for j in range(10)]
        assert decoded == []

    @pytest.mark.parametrize("m, n, j_max", [(2, 3, None), (3, 3, None), (2, 3, 3), (7, 7, 2)])
    def test_forms_are_drawn_over_the_x0_free_slices(self, m, n, j_max, monkeypatch):
        # g_i' has one coefficient per x_0-free monomial of slice i; g_1' has
        # none, since x_0 is the only monomial of slice 1
        seen = []
        real = GenericFormSet.generate

        def generate(seed, sizes, deadline=NO_DEADLINE):
            seen.append(list(sizes))
            return real(seed, sizes, deadline)

        monkeypatch.setattr(GenericFormSet, "generate", generate)
        r = graded_quotient_dims(m, n, j_max=j_max)
        top = min(m + n, len(r.dims) - 1)
        assert seen == [[len(slice_monomials(m, n, i, i + 1)) for i in range(1, top + 1)]]
        assert seen[0][0] == 0

    def test_key_overflow_is_found_before_any_form(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("no slice or form may be made when the slice keys overflow")

        monkeypatch.setattr(experiments, "slice_monomials", no_work)
        monkeypatch.setattr(GenericFormSet, "generate", no_work)
        with pytest.raises(ValueError, match="base 91 over 15 variables overflow int64"):
            graded_quotient_dims(7, 7)
        # (7, 7) keys are read in base j_max + 1 over 15 variables, and
        # 18**15 < 2**63 < 19**15: j_max = 18 is the first that overflows
        assert 18**15 < 2**63 < 19**15
        with pytest.raises(ValueError, match="base 19 over 15 variables overflow int64"):
            graded_quotient_dims(7, 7, j_max=18)

    def test_rank_mod_p_checks_deadline(self):
        M = np.eye(4, dtype=np.int64)
        assert len(_rank_mod_p(M, _RANK_PRIME, Deadline(3600))) == 4
        with pytest.raises(DeadlineExceeded):
            _rank_mod_p(M, _RANK_PRIME, Deadline(0))

    @pytest.mark.parametrize("p", [32771, 2147483629])  # the first prime past 2**15; a 31-bit one
    def test_rank_mod_p_refuses_primes_whose_products_wrap_int32(self, p):
        # int32 products are exact only for p < 2**15; the matrix is left untouched
        M = np.full((2, 2), 2**15 + 2, dtype=np.int64)
        with pytest.raises(ValueError, match="not below 2\\*\\*15"):
            _rank_mod_p(M, p)
        assert (M == 2**15 + 2).all()

    def test_matrix_builds_check_the_deadline(self, monkeypatch):
        class CountingDeadline:
            calls = 0

            def check(self):
                self.calls += 1

        ranked = []

        def fake_rank(M, p, deadline=NO_DEADLINE):
            # the span matrix gets no pivot rows, so the syzygy matrix is built
            # on every row and closes the sandwich; neither elimination checks
            # the deadline
            ranked.append(M)
            n_pivots = 0 if len(ranked) == 1 else M.shape[1]
            return np.arange(n_pivots)

        monkeypatch.setattr(experiments, "_rank_mod_p", fake_rank)
        j = 6
        forms, slices, index = _slice_data(2, 3)
        residues = _residues(forms)
        deadline = CountingDeadline()
        assert experiments._exact_slice_rank(residues, index, j, deadline) == 0
        A, S = ranked
        pairs = [(i, k) for i in range(2, 6) for k in range(i + 1, 6) if i + k <= j]
        assert pairs == [(2, 3), (2, 4)]
        # one check per row block of g_2..g_5, one per (i, k) pair; g_1 has
        # no block
        assert deadline.calls == 4 + len(pairs)
        assert S.shape == (sum(len(index[j - i - k]) for i, k in pairs), A.shape[0])
        # both matrices hold the forms reduced mod the rank prime; Koszul rows
        # are left-null vectors mod p, and in int16 a nonzero entry of the
        # product could wrap to 0
        assert S.dtype == A.dtype == np.int16
        assert not (S.astype(np.int64) @ A % _RANK_PRIME).any()

    def test_3_3_profile(self):
        r = graded_quotient_dims(3, 3, seed=0)
        assert r.dims == (1, 0, 2, 3, 6, 7, 9, 10, 9, 7, 6, 3, 2, 0, 1)
        assert r.total == 66

    def test_3_4_profile(self):
        # the Hilbert-slice frontier; unlike (3, 3), this profile is not
        # palindromic
        r = graded_quotient_dims(3, 4, seed=0)
        assert r.seeds_tried == (0,)
        assert r.dims == (1, 0, 2, 5, 9, 14, 20, 26, 32, 34, 35, 32, 29, 23, 17, 11, 7,
                          3, 2, 0, 0)
        assert r.total == 302 == eulerian(6, 2)


def _slice_data(m, n, seed=0):
    """Forms, slices and slice keys of a window, through its top slice, as
    graded_quotient_dims makes them: the keys of each slice's x_0-free
    monomials, the exponent vectors the keys encode, and g_1', ..., g_{m+n}'
    drawn over them."""
    base = default_j_max(m, n) + 1
    index = [slice_monomials(m, n, t, base) for t in range(base)]
    slices = [tuple(_digits(-key, base, m + n + 1) for key in keys.tolist()) for keys in index]
    forms = GenericFormSet.generate(seed, [len(keys) for keys in index[1 : m + n + 1]]).forms
    return forms, slices, index


def _digits(numeral, base, nvars):
    """The exponent vector that a base-`base` numeral reads, x_{-m} first."""
    return tuple(numeral // base ** (nvars - 1 - t) % base for t in range(nvars))


def _residues(forms):
    """The forms reduced mod the rank prime, as graded_quotient_dims reduces
    them."""
    return [(f % _RANK_PRIME).astype(np.int16) for f in forms]


def _terms(forms, slices, i):
    """(exponent tuple, coefficient) pairs of g_i."""
    return zip(slices[i], forms[i - 1].tolist())


def _span_by_terms(forms, slices, j, first=2):
    """Reference span matrix of g_first, g_first+1, ..., built term by term
    from exponent tuples, with columns in ascending lex order of the tuples."""
    target = {u: t for t, u in enumerate(sorted(slices[j]))}
    degrees = range(first, min(len(forms), j) + 1)
    A = np.zeros((sum(len(slices[j - i]) for i in degrees), len(target)), dtype=np.int64)
    r = 0
    for i in degrees:
        for q in slices[j - i]:
            for ge, gc in _terms(forms, slices, i):
                A[r, target[tuple(a + b for a, b in zip(q, ge))]] += int(gc)
            r += 1
    return A


def _rank_over_qq(A):
    """Exact rank of an integer matrix, by sympy's DomainMatrix over ZZ."""
    if not A.size:
        return 0
    return DomainMatrix([[sympy.ZZ(x) for x in row] for row in A.tolist()], A.shape,
                        sympy.ZZ).rank()


def _koszul_by_terms(forms, slices, j, cols):
    """Reference Koszul rows among g_2, g_3, ..., built term by term;
    cols[row] < 0 drops a span row."""
    index = [{u: t for t, u in enumerate(sl)} for sl in slices]
    degrees = range(2, min(len(forms), j) + 1)
    span_rows = [(i, t) for i in degrees for t in range(len(slices[j - i]))]
    column = {key: c for key, c in zip(span_rows, cols.tolist()) if c >= 0}
    pairs = [(i, k) for i, k in itertools.combinations(degrees, 2) if i + k <= j]
    S = np.zeros((sum(len(slices[j - i - k]) for i, k in pairs), len(column)),
                 dtype=np.int64)
    r = 0
    for i, k in pairs:
        qi, qk = index[j - i], index[j - k]
        for q in slices[j - i - k]:
            for ge, gc in _terms(forms, slices, k):
                c = column.get((i, qi[tuple(a + b for a, b in zip(q, ge))]))
                if c is not None:
                    S[r, c] += int(gc)
            for ge, gc in _terms(forms, slices, i):
                c = column.get((k, qk[tuple(a + b for a, b in zip(q, ge))]))
                if c is not None:
                    S[r, c] -= int(gc)
            r += 1
    return S


SMALL_WINDOWS = [(m, t - m) for t in range(2, 6) for m in range(1, t)]
_P = _RANK_PRIME
_entries = st.integers(-3, 3) | st.sampled_from([_P, -_P, 2 * _P + 1, 2**40])
# residues whose int16 products wrap, and the int16 extremes
_int16_entries = st.integers(-3, 3) | st.sampled_from([_P - 1, -(_P - 1), 2**15 - 1, -2**15])


def _matrices(entries):
    return st.integers(1, 6).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=7))


def _check_pivot_rows(rows, dtype):
    pivots = _rank_mod_p(np.array(rows, dtype=dtype), _P)
    field = PrimeField(_P)
    assert len(pivots) == ExactMatrix(rows, field).rank()
    assert len(set(pivots.tolist())) == len(pivots)
    if len(pivots):
        chosen = [rows[k] for k in pivots]
        assert ExactMatrix(chosen, field).rank() == len(pivots)


class TestSliceRankCertificate:
    @given(_matrices(_entries))
    @settings(max_examples=150, deadline=None)
    def test_pivot_rows_give_the_rank_mod_p(self, rows):
        _check_pivot_rows(rows, np.int64)

    @given(_matrices(_int16_entries))
    @settings(max_examples=150, deadline=None)
    def test_int16_pivot_rows_give_the_rank_mod_p(self, rows):
        _check_pivot_rows(rows, np.int16)

    def test_rank_prime_is_a_15_bit_prime(self):
        assert sympy.isprime(_RANK_PRIME) and _RANK_PRIME < 2**15

    @pytest.mark.parametrize("m, n", SMALL_WINDOWS)
    def test_builds_match_the_term_by_term_oracle(self, m, n):
        # on the x_0-free monomials, with the forms drawn over them and g_1
        # left out, the int16 residues of the forms give the int64 oracles of
        # the raw forms mod p; with no forms, as in (1, 1), no matrix has rows
        forms, slices, index = _slice_data(m, n)
        residues = _residues(forms)
        for j in range(len(slices)):
            span = _span_by_terms(forms, slices, j)
            A = _span_matrix(residues, index, j)
            assert A.dtype == np.int16
            assert np.array_equal(A, span % _P), (m, n, j)
            rows = np.arange(A.shape[0])
            for cols in (rows, np.where(rows % 3, -1, rows // 3)):  # all free, every third
                want = _koszul_by_terms(forms, slices, j, cols)
                S = _koszul_syzygies(residues, index, j, cols)
                assert S.dtype == np.int16
                assert np.array_equal(S % _P, want % _P), (m, n, j)
                if cols is rows:
                    # on every span row, the Koszul rows are left-null
                    # vectors: exactly for the raw forms, as the certificate's
                    # upper bound needs, and mod p for the residues
                    assert not (want @ span).any(), (m, n, j)
                    assert not (S.astype(np.int64) @ A % _P).any(), (m, n, j)

    def test_slice_keys_follow_the_slice_order(self):
        forms, slices, index = _slice_data(2, 3)
        for keys in index:
            assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
        # base 2**21 over the 3 variables of (1, 1) is the largest that
        # graded_quotient_dims admits: 2**63 = base**3.  The only x_0-free
        # monomial of degree 2a is x_{-1}^a x_1^a, and its key passes -2**62
        # at a = 2**21 - 1, the largest exponent below the base
        a = 2**21 - 1
        keys = slice_monomials(1, 1, 2 * a, 2**21)
        assert keys.tolist() == [-(a * 2**42 + a)] and keys[0] < -2**62

    def test_top_slice_memory_per_span_entry(self):
        # the x_0-free top slice of (2, 4) spans a 321 x 165 matrix (1604 x 677
        # with x_0); int16 residues, updated only on the pivot row's support,
        # peak near 2.5 bytes per entry of it, and near 4.0 when every update
        # spans the row's whole width
        forms, slices, index = _slice_data(2, 4)
        j = len(slices) - 1
        shape = (sum(len(slices[j - i]) for i in range(2, 7)), len(slices[j]))
        assert shape == (321, 165)
        entries = shape[0] * shape[1]
        residues = _residues(forms)
        tracemalloc.start()
        try:
            _exact_slice_rank(residues, index, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * entries

    @pytest.mark.parametrize("m, n, shape, rank, most", [
        (3, 3, (582, 322), 321, 130_000),
        (2, 5, (2650, 1093), 1093, 900_000),
    ])
    def test_top_slice_fill(self, m, n, shape, rank, most, monkeypatch):
        # entry updates of the elimination: rows x columns of every update
        # block, summed over the pivot steps.  With the span columns in
        # descending lex order the fill-in makes 225 666 at (3, 3) and
        # 1 578 982 at (2, 5); ascending lex order makes 116 886 and 803 683
        forms, slices, index = _slice_data(m, n)
        A = _span_matrix(_residues(forms), index, len(slices) - 1)
        assert A.shape == shape
        updates = []
        real_ix = np.ix_

        def ix_spy(rows, cols):
            updates.append(len(rows) * len(cols))
            return real_ix(rows, cols)

        monkeypatch.setattr(np, "ix_", ix_spy)
        assert len(_rank_mod_p(A, _P)) == rank
        assert sum(updates) <= most

    def test_first_prime_closes_every_small_window(self, monkeypatch):
        # every certificate for m+n <= 6 closes on the rank prime: no slice
        # stays open, so no seed is retried
        certified = []
        real_slice = experiments._exact_slice_rank

        def slice_spy(residues, index, j, deadline=NO_DEADLINE):
            certified.append(real_slice(residues, index, j, deadline))
            return certified[-1]

        monkeypatch.setattr(experiments, "_exact_slice_rank", slice_spy)
        for m, n in SMALL_WINDOWS + [(m, 6 - m) for m in range(1, 6)]:
            for seed in range(3):
                r = graded_quotient_dims(m, n, seed=seed)
                assert r.seeds_tried == (seed,) and r.total == eulerian(m + n - 1, m - 1)
        assert certified and None not in certified

    @pytest.mark.parametrize("m, n", SMALL_WINDOWS)
    def test_certified_rank_is_the_exact_rank(self, m, n):
        # the rank certified from the residues is the QQ rank of the raw
        # int32 forms' span
        forms, slices, index = _slice_data(m, n)
        residues = _residues(forms)
        for j in range(len(slices)):
            span = _span_by_terms(forms, slices, j)
            want = ExactMatrix(span.tolist(), QQ).rank() if span.size else 0
            assert _exact_slice_rank(residues, index, j) == want, (m, n, j)

    @pytest.mark.parametrize("m, n", SMALL_WINDOWS)
    def test_x0_quotient_keeps_the_full_rank(self, m, n):
        # lift each g_i' to a full form by random x_0-divisible terms, so that
        # g_1 = c*x_0 with a random c != 0: the x_0 multiples of slice j-1 then
        # join the span, and the exact rank of the full span of g_1..g_N is
        # s_{j-1} plus the certified rank of the x_0-free span of g_2'..g_N',
        # whatever the added terms and c
        rng = random.Random(f"lift {m} {n}")
        for seed in range(3):
            forms, slices, index = _slice_data(m, n, seed)
            full = [_full_slice(m, n, t) for t in range(len(slices))]
            lifted = []
            for i, g in enumerate(forms, start=1):
                residue = dict(zip(slices[i], g.tolist()))
                lifted.append(np.array(
                    [residue[u] if not u[m] else rng.choice((-1, 1)) * rng.randint(1, 10**6)
                     for u in full[i]], dtype=np.int64))
            assert not lifted or lifted[0][0] != 0
            residues = _residues(forms)
            for j in range(len(full)):
                want = _rank_over_qq(_span_by_terms(lifted, full, j, first=1))
                below = len(full[j - 1]) if j else 0
                assert below + _exact_slice_rank(residues, index, j) == want, (m, n, seed, j)

    def test_koszul_matrix_only_on_the_free_rows(self, monkeypatch):
        events = []
        real_rank, real_slice = experiments._rank_mod_p, experiments._exact_slice_rank

        def rank_spy(M, p, deadline=NO_DEADLINE):
            shape = M.shape
            pivots = real_rank(M, p, deadline)
            events.append((shape, len(pivots)))
            return pivots

        def slice_spy(residues, index, j, deadline=NO_DEADLINE):
            events.append(j)
            return real_slice(residues, index, j, deadline)

        monkeypatch.setattr(experiments, "_rank_mod_p", rank_spy)
        monkeypatch.setattr(experiments, "_exact_slice_rank", slice_spy)
        assert graded_quotient_dims(2, 3).dims == (1, 0, 1, 2, 2, 2, 2, 1, 0, 0)
        calls = {}
        for e in events:
            if isinstance(e, int):
                j = e
                calls[j] = []
            else:
                calls[j].append(e)
        assert sorted(calls) == list(range(10))
        _, slices, _ = _slice_data(2, 3)
        for j, ranked in calls.items():
            if not ranked:
                continue  # slices 0 and 1 span nothing
            (nrows, ncols), r_low = ranked[0]
            # the span matrix is x_0-free: rows of g_2..g_5, no g_1 rows
            assert nrows == sum(len(slices[j - i]) for i in range(2, min(5, j) + 1)), j
            assert ncols == len(slices[j]), j
            if r_low == min(nrows, ncols):
                assert len(ranked) == 1, j  # pinned by size: no Koszul matrix
            else:
                assert len(ranked) == 2, j
                assert ranked[1][0][1] == nrows - r_low, j
        for j in (8, 9):
            (nrows, ncols), r_low = calls[j][0]
            assert r_low == ncols < nrows and len(calls[j]) == 1


class TestDecomposition:
    def test_2_3(self):
        rep = decomposition_report(2, 3)
        assert rep.expected_total == 11
        assert rep.total == 11
        assert rep.agrees
        by_d = {r.d: r for r in rep.rows}
        assert by_d[1].deg_circle == 10
        assert by_d[5].deg_circle == 1
        assert by_d[5].orbit_count == 1

    def test_2_2(self):
        rep = decomposition_report(2, 2)
        by_d = {r.d: r for r in rep.rows}
        assert by_d[2].empty and by_d[2].deg_circle == 0
        assert rep.total == rep.expected_total == 4
        assert rep.agrees

    def test_1_1(self):
        rep = decomposition_report(1, 1)
        by_d = {r.d: r for r in rep.rows}
        assert by_d[1].deg_circle == 0
        assert by_d[2].deg_circle == 1
        assert rep.agrees

    def test_orbits_enumerated_once(self, monkeypatch):
        calls = []

        def counting(N, a, cap=11):
            calls.append((N, a))
            return orbit_decomposition(N, a, cap)

        monkeypatch.setattr(experiments, "orbit_decomposition", counting)
        rep = decomposition_report(5, 5)
        assert calls == [(10, 5)]
        assert len(rep.rows) == 4 and rep.agrees

    def test_orbit_cap_reaches_the_enumeration(self, monkeypatch):
        caps = []

        def spy(N, a, cap=11):
            caps.append(cap)
            return orbit_decomposition(N, a, cap)

        monkeypatch.setattr(experiments, "orbit_decomposition", spy)
        decomposition_report(2, 3, orbit_cap=12)
        assert caps == [12]

    def test_every_window_through_total_9(self):
        for total in range(2, 10):
            for m in range(1, total):
                assert decomposition_report(m, total - m).agrees, (m, total - m)

    def test_orbit_columns_skipped_above_cap(self):
        rep = decomposition_report(5, 8, orbit_cap=11)
        assert all(r.orbit_count is None for r in rep.rows)
        assert rep.agrees


class ExpiresAfter:
    """A deadline that expires at its (k+1)-th check."""

    def __init__(self, k):
        self.left = k

    def check(self):
        if self.left == 0:
            raise DeadlineExceeded("stub deadline")
        self.left -= 1


class CountingDeadline:
    """A deadline that never expires and counts its checks."""

    calls = 0

    def check(self):
        self.calls += 1


class TestDegreeCell:
    def test_three_routes_agree(self):
        cell = degree_cell(2, 3)
        assert (cell.groebner_degree, cell.intersection_degree, cell.eulerian) == (11, 11, 11)
        assert cell.unit_ideal is None and cell.status == "ok"
        assert cell.agrees is True

    def test_smallest_window_has_no_intersection_number(self):
        cell = degree_cell(1, 1)
        assert cell.intersection_degree is None
        assert cell.groebner_degree == cell.eulerian == 1

    def test_field_reaches_the_groebner_degree(self, monkeypatch):
        seen = []

        def spy(m, n, field, deadline=NO_DEADLINE):
            seen.append(field)
            return 11

        monkeypatch.setattr(experiments, "ideal_quotient_dimension", spy)
        assert degree_cell(2, 3, field=PrimeField(2)).agrees
        assert seen == [PrimeField(2)]

    def test_non_integral_intersection_number_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "generic_ci_degree", lambda m, n: Fraction(1, 2))
        with pytest.raises(RuntimeError, match="non-integral"):
            degree_cell(2, 3)

    def test_expired_deadline_raises(self):
        with pytest.raises(DeadlineExceeded):
            degree_cell(2, 3, deadline=Deadline(0))


class TestTheoremMatrix:
    def test_through_total_5(self):
        rep = theorem_matrix(5)
        assert rep.agrees
        assert len(rep.cells) == sum(t - 1 for t in range(2, 6))
        for c in rep.cells:
            assert c.groebner_degree == c.eulerian
            assert c.unit_ideal
            if c.m + c.n > 2:
                assert c.intersection_degree == c.eulerian

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    def test_budget_must_be_finite_and_non_negative(self, budget):
        # a NaN deadline would never expire, and the budget would be lost
        with pytest.raises(ValueError):
            Deadline(budget)

    def test_budget_produces_timeouts_not_failures(self):
        rep = theorem_matrix(6, Deadline(0.0))
        assert {c.status for c in rep.cells} == {"timeout"}
        # a grid that checked nothing neither agrees nor disagrees
        assert rep.agrees is None

    # cut at a fixed share of the checks the full grid makes (one per pair,
    # interreduced element and popped term): early, middle and late cells
    @pytest.mark.parametrize("share", [0.05, 0.2, 0.5, 0.9])
    def test_cut_cell_and_every_later_cell_time_out(self, share):
        counter = CountingDeadline()
        theorem_matrix(5, counter)
        k = int(share * counter.calls)
        rep = theorem_matrix(5, ExpiresAfter(k))
        status = [c.status for c in rep.cells]
        cut = status.index("timeout")
        assert 0 < cut and set(status[:cut]) == {"ok"} and set(status[cut:]) == {"timeout"}
        for c in rep.cells[:cut]:
            assert c.agrees is True and c.unit_ideal is True
        for c in rep.cells[cut:]:
            assert (c.groebner_degree, c.intersection_degree, c.unit_ideal) == (None, None, None)
            assert c.eulerian == eulerian(c.m + c.n - 1, c.m - 1)
        assert rep.agrees
