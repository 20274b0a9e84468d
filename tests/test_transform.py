import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cconvex.costs import CostSpec, tabulate_cost
from cconvex.grids import GridFunction, make_uniform_grid, sup_norm_diff
from cconvex.subdiff import Analysis, membership_slack
from cconvex.transform import c_transform, double_c_transform, is_c_convex, to_concave_problem
from oracles import brute_c_transform, brute_double_conjugate


def bilinear_on(n, lo=-1.0, hi=1.0):
    g = make_uniform_grid(lo, hi, n)
    return g, tabulate_cost(CostSpec("bilinear"), g, g)


def random_f(grid, seed, inf_prob=0.0):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-2, 2, grid.n)
    if inf_prob:
        mask = rng.random(grid.n) < inf_prob
        mask[rng.integers(0, grid.n)] = False  # keep the function proper
        vals[mask] = math.inf
    return GridFunction(grid, vals)


class TestCTransform:
    def test_zero_function_gives_abs(self):
        g, cost = bilinear_on(41)
        fc = c_transform(GridFunction(g, np.zeros(41)), cost)
        assert np.allclose(fc.values.values, np.abs(g.points), atol=1e-15)

    def test_half_square_self_conjugate(self):
        # oracle: brute-force maximization on a 16x denser x grid
        g, cost = bilinear_on(513)
        f = GridFunction(g, 0.5 * g.points**2)
        fc = c_transform(f, cost)
        dense = make_uniform_grid(-1, 1, 8193)
        oracle = np.array([np.max(dense.points * y - 0.5 * dense.points**2)
                           for y in g.points])
        assert np.abs(fc.values.values - oracle).max() <= 1e-3
        assert np.abs(fc.values.values - 0.5 * g.points**2).max() <= 1e-3

    def test_half_square_convergence_table(self):
        # x^2/2 is its own bilinear conjugate.  On one grid for x and y the
        # maximiser x = y is a grid point, so the table is exactly zero; on
        # a y grid off the x grid the sup error is the grid's distance term
        # min_x (x - y)^2 / 2 <= h^2 / 8 and falls as n grows.
        sizes = (65, 129, 257, 513, 1025)
        ys = make_uniform_grid(-1, 1, 1000)
        same, off = [], []
        for n in sizes:
            g, cost = bilinear_on(n)
            f = GridFunction(g, 0.5 * g.points**2)
            same.append(np.abs(c_transform(f, cost).values.values - 0.5 * g.points**2).max())
            fc = c_transform(f, tabulate_cost(CostSpec("bilinear"), g, ys))
            off.append(np.abs(fc.values.values - 0.5 * ys.points**2).max())
            assert off[-1] <= g.h**2 / 8 + 1e-15
        assert same == [0.0] * len(sizes)
        assert all(a > b for a, b in zip(off, off[1:]))

    def test_neg_quadratic_zero_function(self):
        g = make_uniform_grid(-1, 1, 33)
        cost = tabulate_cost(CostSpec("neg_quadratic"), g, g)
        fc = c_transform(GridFunction(g, np.zeros(33)), cost)
        assert np.abs(fc.values.values).max() == 0.0
        assert np.array_equal(fc.argmax, np.arange(33))  # maximized on the diagonal

    def test_matches_brute_force_with_inf_values(self):
        g, cost = bilinear_on(31)
        for seed in range(10):
            f = random_f(g, seed, inf_prob=0.3)
            fc = c_transform(f, cost)
            values, argmax = brute_c_transform(f.values, cost.entries)
            assert np.array_equal(fc.values.values, values)
            assert np.array_equal(fc.argmax, argmax)

    def test_infinite_values_raise_no_floating_point_flag(self):
        # finite - (+inf) = -inf sets no flag, so neither c_transform nor
        # membership_slack needs an errstate guard around it
        g, cost = bilinear_on(31)
        f = random_f(g, 3, inf_prob=0.3)
        with np.errstate(all="raise"):
            fc, slack = c_transform(f, cost), membership_slack(f, cost)
        assert np.array_equal(fc.values.values, brute_c_transform(f.values, cost.entries)[0])
        assert np.array_equal(np.isneginf(slack).all(axis=1), np.isinf(f.values))
        assert np.isfinite(slack[np.isfinite(f.values)]).all()

    def test_grid_mismatch(self):
        g, cost = bilinear_on(11)
        f = GridFunction(make_uniform_grid(-1, 1, 12), np.zeros(12))
        with pytest.raises(ValueError, match="grid"):
            c_transform(f, cost)


class TestDoubleTransform:
    def test_chord_envelope_of_negative_square(self):
        g, cost = bilinear_on(101)
        f = GridFunction(g, -g.points**2)
        fcc = double_c_transform(f, cost).values
        # analytic: largest convex function below -x^2 on [-1,1] is the chord -1
        assert np.abs(fcc.values - (-1.0)).max() <= 2 * g.h
        oracle = brute_double_conjugate(f.values, cost.entries)
        assert np.abs(fcc.values - oracle).max() <= 1e-12

    def test_abs_is_self_biconjugate(self):
        g, cost = bilinear_on(65)
        f = GridFunction(g, np.abs(g.points))
        fcc = double_c_transform(f, cost).values
        assert sup_norm_diff(f, fcc) == 0.0
        oracle = brute_double_conjugate(f.values, cost.entries)
        assert np.abs(fcc.values - oracle).max() <= 1e-12

    def test_constants_are_c_convex_for_bilinear(self):
        g, cost = bilinear_on(21)
        for k in (-3.0, 0.0, 2.5):
            f = GridFunction(g, np.full(21, k))
            fcc = double_c_transform(f, cost).values
            assert np.allclose(fcc.values, k, atol=1e-12)

    def test_supinf_route_matches_conjugate_route(self):
        # the direct sup-inf definition agrees with (f^c)^c at grid resolution
        g = make_uniform_grid(-1, 1, 25)
        for family in ("bilinear", "neg_quadratic"):
            cost = tabulate_cost(CostSpec(family), g, g)
            for seed in range(5):
                f = random_f(g, seed)
                fcc = double_c_transform(f, cost).values
                oracle = brute_double_conjugate(f.values, cost.entries)
                assert np.abs(fcc.values - oracle).max() <= 1e-12


class TestTransformProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_majorization(self, seed):
        g, cost = bilinear_on(33)
        f = random_f(g, seed)
        fcc = double_c_transform(f, cost).values
        assert (fcc.values <= f.values + 1e-9).all()

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_idempotence(self, seed):
        g, cost = bilinear_on(33)
        fcc = double_c_transform(random_f(g, seed), cost).values
        fcccc = double_c_transform(fcc, cost).values
        assert sup_norm_diff(fcc, fcccc) <= 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_stability(self, seed):
        g, cost = bilinear_on(33)
        f = random_f(g, seed)
        fc = c_transform(f, cost).values
        fccc = c_transform(double_c_transform(f, cost).values, cost).values
        assert sup_norm_diff(fc, fccc) <= 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_order_reversal_exact(self, seed):
        g, cost = bilinear_on(33)
        rng = np.random.default_rng(seed)
        f = GridFunction(g, rng.uniform(-2, 2, 33))
        gfun = GridFunction(g, f.values + rng.uniform(0, 1, 33))
        fc = c_transform(f, cost).values.values
        gc = c_transform(gfun, cost).values.values
        assert (fc >= gc).all()

    def test_translation_exact_on_dyadic_data(self):
        # dyadic grid, dyadic values and a dyadic shift keep every operation exact
        g = make_uniform_grid(-1, 1, 17)
        cost = tabulate_cost(CostSpec("bilinear"), g, g)
        rng = np.random.default_rng(7)
        vals = rng.integers(-8, 8, 17) / 4.0
        k = 0.5
        f = GridFunction(g, vals)
        fk = GridFunction(g, vals + k)
        a = c_transform(f, cost).values.values
        b = c_transform(fk, cost).values.values
        assert np.array_equal(b, a - k)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_translation_within_rounding(self, seed):
        g, cost = bilinear_on(33)
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-2, 2, 33)
        k = float(rng.uniform(-3, 3))
        a = c_transform(GridFunction(g, vals), cost).values.values
        b = c_transform(GridFunction(g, vals + k), cost).values.values
        assert np.abs(b - (a - k)).max() <= 1e-12


class TestIsCConvex:
    def test_biconjugate_output_is_c_convex(self):
        g, cost = bilinear_on(65)
        f = random_f(g, 3)
        fcc = double_c_transform(f, cost).values
        holds, dev = is_c_convex(fcc, cost)
        assert holds and dev <= 1e-9

    def test_half_square_is_c_convex(self):
        # slopes of x^2/2 stay inside the dual grid [-1,1]
        g, cost = bilinear_on(1025)
        f = GridFunction(g, 0.5 * g.points**2)
        holds, dev = is_c_convex(f, cost, tol=1e-6)
        assert holds

    def test_square_needs_wide_dual_grid(self):
        # slopes of x^2 reach 2, so membership depends on how far J extends
        gi = make_uniform_grid(-1, 1, 513)
        f = GridFunction(gi, gi.points**2)
        narrow = tabulate_cost(CostSpec("bilinear"), gi, gi)
        wide = tabulate_cost(CostSpec("bilinear"), gi, make_uniform_grid(-2, 2, 1025))
        assert not is_c_convex(f, narrow)[0]
        assert is_c_convex(f, wide, tol=1e-6)[0]

    def test_negative_square_fails_with_unit_deviation(self):
        g, cost = bilinear_on(101)
        holds, dev = is_c_convex(GridFunction(g, -g.points**2), cost)
        assert not holds
        assert dev == pytest.approx(1.0, abs=2 * g.h)

    def test_requires_finite(self):
        g, cost = bilinear_on(11)
        f = GridFunction(g, [math.inf] + [0.0] * 10)
        with pytest.raises(ValueError, match="finite"):
            is_c_convex(f, cost)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
    def test_rejects_bad_tol(self, tol):
        g, cost = bilinear_on(11)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            is_c_convex(GridFunction(g, np.abs(g.points)), cost, tol)


BILINEAR = CostSpec("bilinear")


class TestFenchelFast:
    """The monotone-argmax engine on the bilinear (Fenchel) cost."""

    def test_zero_function(self):
        g = make_uniform_grid(-1, 1, 41)
        r = Analysis(GridFunction(g, np.zeros(41)), BILINEAR, grid_j=g).fc
        assert np.allclose(r.values.values, np.abs(g.points), atol=1e-15)

    def test_half_square(self):
        g = make_uniform_grid(-1, 1, 513)
        f = GridFunction(g, 0.5 * g.points**2)
        r = Analysis(f, BILINEAR, grid_j=g).fc
        assert np.abs(r.values.values - 0.5 * g.points**2).max() <= 1e-3

    def test_matches_brute_force_on_random_instances(self):
        g = make_uniform_grid(-1, 1, 257)
        cost = tabulate_cost(CostSpec("bilinear"), g, g)
        for seed in range(200):
            f = random_f(g, seed)
            fast = Analysis(f, BILINEAR, grid_j=g).fc
            brute = c_transform(f, cost)
            assert np.abs(fast.values.values - brute.values.values).max() <= 1e-12
            assert np.array_equal(fast.argmax, brute.argmax)

    def test_distinct_grids(self):
        gi = make_uniform_grid(-1, 1, 129)
        gj = make_uniform_grid(-2, 0.5, 77)
        cost = tabulate_cost(CostSpec("bilinear"), gi, gj)
        f = random_f(gi, 11)
        fast = Analysis(f, BILINEAR, grid_j=gj).fc
        brute = c_transform(f, cost)
        assert np.abs(fast.values.values - brute.values.values).max() <= 1e-12
        assert np.array_equal(fast.argmax, brute.argmax)


class TestConcaveMode:
    def test_involution_bit_exact(self):
        g, cost = bilinear_on(21)
        f = random_f(g, 5)
        f2, c2 = to_concave_problem(*to_concave_problem(f, cost))
        assert np.array_equal(f2.values, f.values)
        assert np.array_equal(c2.entries, cost.entries)

    def test_zero_function_concavity(self):
        g, cost = bilinear_on(21)
        f = GridFunction(g, np.zeros(21))
        nf, ncost = to_concave_problem(f, cost)
        # 0 is c-concave for bilinear iff -0 is (-c)-convex
        holds, _ = is_c_convex(nf, ncost)
        # direct inf-based evaluation: f_concave(x) = min_y inf path
        inf_cc = -double_c_transform(nf, ncost).values.values
        assert holds == bool(np.abs(f.values - inf_cc).max() <= 1e-9)

    def test_reflector_slice_concave_mode(self):
        g = make_uniform_grid(0, 0.5, 65)
        cost = tabulate_cost(CostSpec("reflector"), g, g)
        j = g.nearest_index(0.3)
        f = GridFunction(g, -cost.entries[:, j])  # -c(., y0) is c-concave-ish test input
        nf, ncost = to_concave_problem(f, cost)
        # convex-mode verdict on the transformed pair equals the direct
        # inf-based c-concavity deviation of the original pair
        _, dev_convex_mode = is_c_convex(nf, ncost)
        # inf-based double transform computed explicitly:
        lower = cost.entries - (cost.entries - f.values[:, None]).min(axis=0)[None, :]
        f_inf_cc = lower.min(axis=1)
        dev_direct = np.abs(f.values - f_inf_cc).max()
        assert dev_convex_mode == pytest.approx(dev_direct, abs=1e-12)
