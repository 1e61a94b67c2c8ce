import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from laurent_eulerian import experiments
from laurent_eulerian.deadline import Deadline, DeadlineExceeded
from laurent_eulerian.eulerian import eulerian, orbit_decomposition
from laurent_eulerian.experiments import (
    GenericFormSet,
    _rank_mod_p,
    decomposition_report,
    default_j_max,
    graded_quotient_dims,
    slice_monomials,
    theorem_matrix,
)


class TestSlices:
    def test_degree_one_slice(self):
        # only x_0 has bidegree (1, 0)
        sb = slice_monomials(2, 3, 1)
        assert sb.monomials == ((0, 0, 1, 0, 0, 0),)

    def test_degree_zero_slice(self):
        sb = slice_monomials(1, 1, 0)
        assert sb.monomials == ((0, 0, 0),)

    def test_degree_two_slice(self):
        # x_0^2 and x_{-1} x_1 for the symmetric window (1, 1)
        sb = slice_monomials(1, 1, 2)
        assert set(sb.monomials) == {(0, 2, 0), (1, 0, 1)}

    def test_slice_sizes_grow_with_window(self):
        small = len(slice_monomials(1, 2, 4).monomials)
        big = len(slice_monomials(2, 3, 4).monomials)
        assert small < big


class TestGenericForms:
    def test_deterministic_in_seed(self):
        a = GenericFormSet.generate(2, 2, 42)
        b = GenericFormSet.generate(2, 2, 42)
        c = GenericFormSet.generate(2, 2, 43)
        assert a.forms == b.forms
        assert a.forms != c.forms

    def test_form_count_and_degrees(self):
        fs = GenericFormSet.generate(2, 3, 0)
        assert len(fs.forms) == 5
        for j, g in enumerate(fs.forms, start=1):
            assert g.graded_degree() == (j, 0)


class TestGradedDims:
    def test_small_cases_sum_to_eulerian(self):
        for m, n in [(1, 2), (2, 2), (2, 3), (1, 4)]:
            r = graded_quotient_dims(m, n, seed=0)
            assert r.total == eulerian(m + n - 1, m - 1), (m, n)
            assert r.dims[0] == 1

    def test_2_3_profile(self):
        r = graded_quotient_dims(2, 3, seed=0)
        assert r.dims == (1, 0, 1, 2, 2, 2, 2, 1, 0, 0)
        assert len(r.dims) == default_j_max(2, 3) + 1

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

    def test_rank_mod_p_checks_deadline(self):
        M = np.eye(4, dtype=np.int64)
        assert _rank_mod_p(M, 2147483629, Deadline(3600)) == 4
        with pytest.raises(DeadlineExceeded):
            _rank_mod_p(M, 2147483629, Deadline(0))

    def test_matrix_builds_check_the_deadline(self, monkeypatch):
        class CountingDeadline:
            calls = 0

            def check(self):
                self.calls += 1

        ranked = []

        def fake_rank(M, p, deadline=None):
            # the span matrix gets rank 0, so the syzygy matrix is built and
            # closes the sandwich; neither elimination checks the deadline
            ranked.append(M)
            return 0 if len(ranked) == 1 else M.shape[1]

        monkeypatch.setattr(experiments, "_rank_mod_p", fake_rank)
        m, n, j = 2, 3, 6
        forms = GenericFormSet.generate(m, n, 0).forms
        slices = [slice_monomials(m, n, t).monomials for t in range(j + 1)]
        index = [{u: t for t, u in enumerate(sl)} for sl in slices]
        deadline = CountingDeadline()
        assert experiments._exact_slice_rank(forms, slices, index, j, deadline) == 0
        A, S = ranked
        pairs = [(i, k) for i in range(1, 6) for k in range(i + 1, 6) if i + k <= j]
        # one check per form's row block, one for the prime, one per (i, k) pair
        assert deadline.calls == 5 + 1 + len(pairs)
        assert S.shape == (sum(len(slices[j - i - k]) for i, k in pairs), A.shape[0])
        assert not (S @ A).any()  # Koszul rows are exact left-null vectors

    @pytest.mark.slow
    def test_3_3_profile(self):
        r = graded_quotient_dims(3, 3, seed=0)
        assert r.dims == (1, 0, 2, 3, 6, 7, 9, 10, 9, 7, 6, 3, 2, 0, 1)
        assert r.total == 66


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

    def test_orbit_columns_skipped_above_cap(self):
        rep = decomposition_report(5, 8, orbit_cap=11)
        assert all(r.orbit_count is None for r in rep.rows)
        assert rep.agrees


class TestTheoremMatrix:
    def test_through_total_5(self):
        rep = theorem_matrix(5)
        assert rep.agrees
        assert len(rep.cells) == sum(t - 1 for t in range(2, 6))
        for c in rep.cells:
            assert c.groebner_degree == c.eulerian_value
            assert c.unit_ideal
            if c.m + c.n > 2:
                assert c.chow_degree == c.eulerian_value

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
    def test_budget_must_be_finite_and_non_negative(self, budget):
        with pytest.raises(ValueError):
            theorem_matrix(4, budget)

    @pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
    def test_script_rejects_bad_budget(self, budget, monkeypatch, capsys):
        script = Path(__file__).parents[1] / "scripts" / "run_theorem_matrix.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--budget-seconds", budget])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(script), run_name="__main__")
        assert exc.value.code == 2
        assert "non-negative number of seconds" in capsys.readouterr().err

    def test_budget_produces_timeouts_not_failures(self):
        rep = theorem_matrix(6, budget_seconds=0.0)
        assert all(c.timeout for c in rep.cells)
        assert rep.agrees
