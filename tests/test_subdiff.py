import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cconvex import subdiff
from cconvex.costs import CostSpec, tabulate_cost
from cconvex.grids import GridFunction, make_uniform_grid
from cconvex.subdiff import (LocalWindow, SubdifferentialSet, SupportCurve,
                             c_subdifferential, envelope_reconstruct,
                             lateral_c_derivatives, local_c_subdifferential,
                             local_double_conjugate, membership_slack,
                             subdifferential_map, support_curve_eval)
from cconvex.transform import double_c_transform
from oracles import brute_local_subdifferential, brute_subdifferential


def bilinear_on(n, lo=-1.0, hi=1.0):
    g = make_uniform_grid(lo, hi, n)
    return g, tabulate_cost(CostSpec("bilinear"), g, g)


class TestGlobalSubdifferential:
    def test_abs_at_zero_is_all_of_j(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, np.abs(g.points))
        s = c_subdifferential(f, cost, g.nearest_index(0.0))
        assert np.array_equal(s.y_indices, np.arange(41))

    def test_slack_needs_the_cost_on_the_function_grid(self):
        g, cost = bilinear_on(33)
        f = GridFunction(make_uniform_grid(-1, 1, 17), np.zeros(17))
        with pytest.raises(ValueError, match="^cost grid does not match the function's grid "
                                             "on the I side$"):
            membership_slack(f, cost)

    def test_cost_column_has_exactly_zero_slack(self):
        g, cost = bilinear_on(33)
        j0 = g.nearest_index(0.5)
        f = GridFunction(g, cost.entries[:, j0])
        slack = membership_slack(f, cost)
        assert np.abs(slack[:, j0]).max() == 0.0
        for i in range(g.n):
            assert j0 in c_subdifferential(f, cost, i, tol=0.0).y_indices

    def test_half_square_singleton_slope_at_zero(self):
        g, cost = bilinear_on(101)
        f = GridFunction(g, 0.5 * g.points**2)
        s = c_subdifferential(f, cost, g.nearest_index(0.0), tol=0.0)
        assert list(s.y_values(g)) == [0.0]

    def test_matches_definition_sweep(self):
        g, cost = bilinear_on(25)
        rng = np.random.default_rng(0)
        for seed in range(10):
            f = GridFunction(g, np.random.default_rng(seed).uniform(-2, 2, 25))
            x0 = int(rng.integers(0, 25))
            s = c_subdifferential(f, cost, x0, tol=1e-9)
            assert list(s.y_indices) == brute_subdifferential(f.values, cost.entries, x0, 1e-9)

    def test_neg_quadratic_matches_definition_sweep(self):
        gi = make_uniform_grid(-1, 1, 25)
        gj = make_uniform_grid(-2.5, 2.5, 31)
        cost = tabulate_cost(CostSpec("neg_quadratic"), gi, gj)
        f = GridFunction(gi, gi.points**2)
        for x0 in range(0, 25, 3):
            s = c_subdifferential(f, cost, x0, tol=1e-9)
            assert list(s.y_indices) == brute_subdifferential(f.values, cost.entries, x0, 1e-9)

    def test_infinite_anchor_rejected(self):
        g, cost = bilinear_on(11)
        f = GridFunction(g, [np.inf] + [0.0] * 10)
        with pytest.raises(ValueError, match="inf"):
            c_subdifferential(f, cost, 0)


    @pytest.mark.parametrize("x0", [-1, 41])
    def test_out_of_range_index_rejected(self, x0):
        g, cost = bilinear_on(41)
        f = GridFunction(g, np.abs(g.points))
        with pytest.raises(ValueError, match=f"grid index {x0} is out of range"):
            c_subdifferential(f, cost, x0)
        with pytest.raises(ValueError, match=f"grid index {x0} is out of range"):
            local_c_subdifferential(f, cost, LocalWindow(x0, 0.25))

    @pytest.mark.parametrize("x0", [2.5, 3.0, np.float64(3.0), "3", None])
    def test_non_integer_index_rejected(self, x0):
        # 2.5 used to reach numpy's "only integers, slices ..." IndexError
        g, cost = bilinear_on(41)
        f = GridFunction(g, np.abs(g.points))
        message = rf"^grid index must be an integer, got {re.escape(repr(x0))}$"
        for call in (lambda: c_subdifferential(f, cost, x0),
                     lambda: local_c_subdifferential(f, cost, LocalWindow(x0, 0.25)),
                     lambda: LocalWindow(x0, 0.25).mask(g)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_numpy_integer_index_accepted(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, np.abs(g.points))
        for x0 in (np.int64(30), np.int32(30), np.uint8(30)):
            assert c_subdifferential(f, cost, x0).y_indices.tolist() \
                == c_subdifferential(f, cost, 30).y_indices.tolist()

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_bad_tol_rejected(self, tol):
        g, cost = bilinear_on(11)
        f = GridFunction(g, np.abs(g.points))
        for call in (lambda: c_subdifferential(f, cost, 5, tol),
                     lambda: subdifferential_map(f, cost, tol)):
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                call()


class TestDomainMap:
    def test_biconjugate_has_full_domain(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, np.random.default_rng(1).uniform(-1, 1, 41))
        fcc = double_c_transform(f, cost).values
        sets, dom = subdifferential_map(fcc, cost)
        assert dom.all()
        assert all(not s.is_empty for s in sets)

    def test_negative_square_endpoints_only(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, -g.points**2)
        _, dom = subdifferential_map(f, cost, tol=0.0)
        assert dom[0] and dom[-1]
        assert not dom[1:-1].any()

    def test_affine_function_full_domain_constant_set(self):
        # rounding of 0.5*x + 0.3 leaves ulp-size slack, so tol > 0
        g, cost = bilinear_on(21)
        f = GridFunction(g, 0.5 * g.points + 0.3)
        sets, dom = subdifferential_map(f, cost, tol=1e-12)
        assert dom.all()
        target = g.nearest_index(0.5)
        for s in sets[1:-1]:
            assert list(s.y_indices) == [target]
        # endpoints pick up every one-sided slope as well
        assert target in sets[0].y_indices and target in sets[-1].y_indices

    def test_requires_finite(self):
        g, cost = bilinear_on(11)
        f = GridFunction(g, [np.inf] + [0.0] * 10)
        with pytest.raises(ValueError, match="finite"):
            subdifferential_map(f, cost)


class TestLateralDerivatives:
    def test_abs_at_zero(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, np.abs(g.points))
        s = c_subdifferential(f, cost, g.nearest_index(0.0))
        lo, hi = lateral_c_derivatives(s, g)
        assert (lo, hi) == (-1.0, 1.0)

    def test_empty_set_rejected(self):
        g = make_uniform_grid(-1, 1, 5)
        s = SubdifferentialSet(2, np.array([], dtype=np.int64), 1e-9)
        with pytest.raises(ValueError, match="empty"):
            lateral_c_derivatives(s, g)


class TestSupportCurve:
    def test_anchoring(self):
        curve = SupportCurve(x0=0.25, y=0.5, f0=1.0)
        assert support_curve_eval(curve, CostSpec("bilinear"), 0.25) == 1.0

    def test_bilinear_curve_is_a_line(self):
        curve = SupportCurve(x0=0.0, y=0.5, f0=2.0)
        spec = CostSpec("bilinear")
        xs = np.linspace(-1, 1, 9)
        vals = [support_curve_eval(curve, spec, x) for x in xs]
        assert np.allclose(vals, 2.0 + 0.5 * xs, atol=1e-15)

    def test_curve_lies_below_f_when_y_is_member(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, np.abs(g.points))
        i0 = g.nearest_index(0.0)
        s = c_subdifferential(f, cost, i0, tol=0.0)
        spec = CostSpec("bilinear")
        for j in s.y_indices[::8]:
            curve = SupportCurve(g.points[i0], g.points[j], f.values[i0])
            vals = np.array([support_curve_eval(curve, spec, x) for x in g.points])
            assert (vals <= f.values + 1e-12).all()


class TestEnvelopeReconstruct:
    def test_abs_exact(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, np.abs(g.points))
        sel = np.full(41, -1, dtype=np.int64)
        for i in range(1, 40):
            sel[i] = c_subdifferential(f, cost, i, tol=0.0).y_indices[0]
        env = envelope_reconstruct(f, cost, sel)
        assert np.abs(env.values - f.values).max() <= 1e-12

    def test_half_square_within_curvature_error(self):
        g, cost = bilinear_on(101)
        f = GridFunction(g, 0.5 * g.points**2)
        sel = np.full(101, -1, dtype=np.int64)
        for i in range(1, 100):
            sel[i] = c_subdifferential(f, cost, i).y_indices[0]
        env = envelope_reconstruct(f, cost, sel)
        assert (env.values <= f.values + 1e-9).all()
        assert np.abs(env.values - f.values).max() <= 2 * g.h**2

    def test_single_curve_is_a_lower_bound(self):
        g, cost = bilinear_on(33)
        f = GridFunction(g, np.abs(g.points))
        sel = np.full(33, -1, dtype=np.int64)
        i0 = g.nearest_index(0.5)
        sel[i0] = c_subdifferential(f, cost, i0, tol=0.0).y_indices[-1]
        env = envelope_reconstruct(f, cost, sel)
        assert (env.values <= f.values + 1e-12).all()
        assert env.values[i0] == f.values[i0]

    def test_invalid_selection_rejected(self):
        g, cost = bilinear_on(21)
        f = GridFunction(g, -g.points**2)
        sel = np.full(21, -1, dtype=np.int64)
        sel[10] = 0  # y=-1 is not a subdifferential member at the apex of -x^2
        with pytest.raises(ValueError, match="not a subdifferential member"):
            envelope_reconstruct(f, cost, sel)

    def test_endpoint_selection_rejected(self):
        g, cost = bilinear_on(21)
        f = GridFunction(g, np.abs(g.points))
        sel = np.zeros(21, dtype=np.int64)
        with pytest.raises(ValueError, match="endpoints"):
            envelope_reconstruct(f, cost, sel)

    @pytest.mark.parametrize("t, entry", [(5, 9), (5, 40), (7, -2)])
    def test_out_of_range_entry_rejected_before_the_slack(self, monkeypatch, t, entry):
        # m = 9 < n = 21: an entry >= m used to reach numpy's IndexError and
        # one below -1 was skipped as if it were -1
        gi, gj = make_uniform_grid(-1, 1, 21), make_uniform_grid(-1, 1, 9)
        cost = tabulate_cost(CostSpec("bilinear"), gi, gj)
        f = GridFunction(gi, np.abs(gi.points))
        sel = np.full(21, -1, dtype=np.int64)
        sel[3] = 4
        sel[t] = entry
        monkeypatch.setattr(subdiff.Analysis, "slack_at", None)  # any slack read would fail
        with pytest.raises(ValueError, match=rf"^selection\[{t}\]={entry} is outside \[-1, 9\)$"):
            envelope_reconstruct(f, cost, sel)

    @pytest.mark.parametrize("entry", [10.7, float("nan"), 4.0])
    def test_non_integer_selection_rejected_before_the_slack(self, monkeypatch, entry):
        # 10.7 used to be cast to 10, and NaN to -2**63 with a RuntimeWarning
        g, cost = bilinear_on(21)
        f = GridFunction(g, np.abs(g.points))
        monkeypatch.setattr(subdiff.Analysis, "slack_at", None)  # any slack read would fail
        for sel in (np.full(21, -1.0), [-1] * 21):
            sel[10] = entry
            with pytest.raises(ValueError, match=r"^selection must be an integer array, "
                                                 r"got dtype float64$"):
                envelope_reconstruct(f, cost, sel)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tol_rejected(self, tol):
        g, cost = bilinear_on(21)
        f = GridFunction(g, np.abs(g.points))
        sel = np.full(21, -1, dtype=np.int64)
        sel[10] = 0
        with pytest.raises(ValueError, match="tol must be finite"):
            envelope_reconstruct(f, cost, sel, tol)
        for local in (local_c_subdifferential, local_double_conjugate):
            with pytest.raises(ValueError, match="tol must be finite"):
                local(f, cost, LocalWindow(10, 0.25), tol)


class TestLocalSubdifferential:
    def test_neg_abs_halfway_supports_locally(self):
        # -|x| near x0=0.5 looks affine with slope -1, so y=-1 supports
        # locally even though the global subdifferential there is empty
        g, cost = bilinear_on(41)
        f = GridFunction(g, -np.abs(g.points))
        i0 = g.nearest_index(0.5)
        local = local_c_subdifferential(f, cost, LocalWindow(i0, 0.25), tol=0.0)
        assert 0 in local.y_indices  # y = -1 is grid index 0
        assert c_subdifferential(f, cost, i0, tol=0.0).is_empty

    def test_neg_abs_at_kink_empty_even_locally(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, -np.abs(g.points))
        i0 = g.nearest_index(0.0)
        local = local_c_subdifferential(f, cost, LocalWindow(i0, 0.25), tol=0.0)
        assert local.is_empty

    def test_wide_window_equals_global(self):
        g, cost = bilinear_on(31)
        f = GridFunction(g, np.random.default_rng(4).uniform(-1, 1, 31))
        for i0 in (0, 7, 15, 30):
            wide = local_c_subdifferential(f, cost, LocalWindow(i0, 10.0))
            glob = c_subdifferential(f, cost, i0)
            assert np.array_equal(wide.y_indices, glob.y_indices)

    def test_matches_definition_sweep(self):
        g, cost = bilinear_on(25)
        f = GridFunction(g, np.random.default_rng(9).uniform(-1, 1, 25))
        for i0, eps in [(3, 0.2), (12, 0.35), (20, 0.6)]:
            local = local_c_subdifferential(f, cost, LocalWindow(i0, eps), tol=1e-9)
            assert list(local.y_indices) == brute_local_subdifferential(
                f.values, cost.entries, g.points, i0, eps, 1e-9)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_global_subset_of_local_and_windows_nest(self, seed):
        g, cost = bilinear_on(21)
        rng = np.random.default_rng(seed)
        f = GridFunction(g, rng.uniform(-1, 1, 21))
        i0 = int(rng.integers(0, 21))
        small = set(local_c_subdifferential(f, cost, LocalWindow(i0, 0.15)).y_indices)
        big = set(local_c_subdifferential(f, cost, LocalWindow(i0, 0.6)).y_indices)
        glob = set(c_subdifferential(f, cost, i0).y_indices)
        assert glob <= big <= small  # shrinking the window only relaxes the test

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="positive"):
            LocalWindow(0, 0.0)


class TestLocalDoubleConjugate:
    def test_equals_f_when_locally_supported(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, -np.abs(g.points))
        i0 = g.nearest_index(0.5)
        r = local_double_conjugate(f, cost, LocalWindow(i0, 0.25))
        assert not r.subdifferential_empty
        assert r.value == pytest.approx(f.values[i0], abs=1e-12)

    def test_empty_branch_flagged_and_below_f(self):
        g, cost = bilinear_on(41)
        f = GridFunction(g, -np.abs(g.points))
        i0 = g.nearest_index(0.0)
        r = local_double_conjugate(f, cost, LocalWindow(i0, 0.25), tol=0.0)
        assert r.subdifferential_empty
        assert r.value <= f.values[i0]

    def test_wide_window_matches_global_biconjugate_on_domain(self):
        g, cost = bilinear_on(31)
        f = GridFunction(g, np.random.default_rng(2).uniform(-1, 1, 31))
        fcc = double_c_transform(f, cost).values
        _, dom = subdifferential_map(f, cost)
        assert dom.any()
        for i0 in np.flatnonzero(dom):
            r = local_double_conjugate(f, cost, LocalWindow(int(i0), 10.0))
            assert not r.subdifferential_empty
            assert r.value == pytest.approx(fcc.values[i0], abs=1e-12)
        # off the domain the empty-set convention gives a value below f^cc
        for i0 in np.flatnonzero(~dom):
            r = local_double_conjugate(f, cost, LocalWindow(int(i0), 10.0), tol=0.0)
            assert r.subdifferential_empty
            assert r.value <= fcc.values[i0] + 1e-12

    def test_monotone_in_window_size(self):
        # a larger window makes the inner inf smaller, so the value drops
        g, cost = bilinear_on(31)
        f = GridFunction(g, np.random.default_rng(6).uniform(-1, 1, 31))
        for i0 in (5, 15, 25):
            vals = [local_double_conjugate(f, cost, LocalWindow(i0, e)).value
                    for e in (0.1, 0.4, 1.0, 3.0)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
