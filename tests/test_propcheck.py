import math
from collections import Counter

import numpy as np
import pytest

from cconvex import costs, propcheck, subdiff, transform
from cconvex.costs import CostSpec, tabulate_callable, tabulate_cost
from cconvex.grids import GridFunction, make_uniform_grid
from cconvex.propcheck import (InstanceConfig, check_cost_self_subdiff,
                               check_domain_interval, check_grad_inclusion,
                               check_intersection_inclusion,
                               check_local_support_iff, check_mixture,
                               check_order_propagation,
                               check_set_valued_convexity,
                               check_subdiff_convexity, generate_instance,
                               run_suite)
from cconvex.subdiff import Analysis
from cconvex.transform import is_c_convex


def bilinear_instance(seed=0, n=65):
    cfg = InstanceConfig(seed=seed, n=n, m=n, cost_family="bilinear",
                         f_family="cconvexified_random")
    return generate_instance(cfg)


def parabola_neg_quadratic(n=65):
    gi, gj = make_uniform_grid(-1, 1, n), make_uniform_grid(-2.5, 2.5, n)
    return GridFunction(gi, gi.points**2), tabulate_cost(CostSpec("neg_quadratic"), gi, gj)


BAD_TOLS = [float("nan"), -1.0, float("inf")]
# every check that reads an (f, cost) instance, called on one Analysis
INSTANCE_CHECKS = {
    "mixture": lambda a: check_mixture(a, a),
    "order_propagation": lambda a: check_order_propagation(a, a),
    "subdiff_convexity": check_subdiff_convexity,
    "set_valued_convexity": check_set_valued_convexity,
    "intersection_inclusion": check_intersection_inclusion,
    "domain_interval": check_domain_interval,
    "grad_inclusion": lambda a: check_grad_inclusion(a, CostSpec("neg_quadratic")),
    "local_support_iff": lambda a: check_local_support_iff(a, 32, 0.25),
}


class TestAnalysis:
    def test_each_property_is_computed_once(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(subdiff, "membership_slack",
                            counted("slack", subdiff.membership_slack))
        monkeypatch.setattr(subdiff, "is_c_convex", counted("c_convex", subdiff.is_c_convex))
        f, cost = bilinear_instance(3)
        a = Analysis(f, cost)
        assert not calls
        for _ in range(2):
            assert np.array_equal(a.member, a.slack >= -a.tol)
            assert a.c_convex == is_c_convex(f, cost)
        assert calls == {"slack": 1, "c_convex": 1}
        assert np.array_equal(a.slack, subdiff.membership_slack(f, cost))

    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize("check", INSTANCE_CHECKS)
    def test_bad_tol_rejected_for_every_check(self, check, tol):
        # a NaN tol used to give vacuous passes ("every subdifferential
        # empty"), an infinite one a pass with every y a member
        f, cost = parabola_neg_quadratic()
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            INSTANCE_CHECKS[check](Analysis(f, cost, tol))

    @pytest.mark.parametrize("check", [check_mixture, check_order_propagation])
    def test_pair_checks_need_one_cost_and_one_tol(self, check):
        f, cost = bilinear_instance(2)
        g, other = bilinear_instance(3)
        for a, b in ((Analysis(f, cost), Analysis(g, other)),
                     (Analysis(f, cost), Analysis(g, cost, 1e-8))):
            with pytest.raises(ValueError, match="same cost object and the same tol"):
                check(a, b)

    @pytest.mark.parametrize("check, f", [
        (check_subdiff_convexity, lambda x: x**2),           # cost not two_affine
        (check_set_valued_convexity, lambda x: x**2),        # cost not two_affine
        (check_intersection_inclusion, lambda x: -x**2),     # f not convex
        (check_domain_interval, lambda x: np.sin(6 * x)),    # f not convex
    ])
    def test_failed_hypothesis_builds_no_slack(self, check, f):
        _, cost = parabola_neg_quadratic()
        a = Analysis(GridFunction(cost.grid_i, f(cost.grid_i.points)), cost)
        assert "hypothesis-failed" in check(a).notes
        assert not {"slack", "member"} & set(vars(a))


PAIR_CHECKS = (check_subdiff_convexity, check_set_valued_convexity,
               check_intersection_inclusion, check_domain_interval)


class TestPairCap:
    @pytest.mark.parametrize("cap, message", [(-1, "pair_cap must be >= 0, got -1"),
                                              (2.5, "pair_cap must be an integer, got 2.5")])
    @pytest.mark.parametrize("check", [*PAIR_CHECKS, None])
    def test_bad_cap_rejected_before_any_work(self, monkeypatch, check, cap, message):
        # -1 used to fail inside numpy ("negative dimensions are not
        # allowed") and 2.5 with a numpy TypeError, or to pass unnoticed
        # when a hypothesis failed
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the pair_cap check")

        f, cost = parabola_neg_quadratic()
        for module, name in ((propcheck, "check_structure"), (subdiff, "is_c_convex"),
                             (subdiff, "membership_slack"), (propcheck, "tabulate_cost")):
            monkeypatch.setattr(module, name, no_work)
        with pytest.raises(ValueError, match=message):
            if check is None:
                run_suite(pair_cap=cap)
            else:
                check(Analysis(f, cost), pair_cap=cap)

    def test_all_pairs_when_they_fit_under_the_cap(self):
        pool = np.arange(3, 104)   # 101 points: 10100 ordered pairs
        rng = np.random.default_rng(0)
        i1, i2 = propcheck._sample_pairs(rng, pool, 101 * 100)
        assert sorted(zip(i1.tolist(), i2.tolist())) == \
            [(a, b) for a in pool.tolist() for b in pool.tolist() if a != b]
        assert rng.random() == np.random.default_rng(0).random()   # nothing drawn

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_points_give_no_pairs(self, k):
        rng = np.random.default_rng(0)
        for cap in (0, 5):
            i1, i2 = propcheck._sample_pairs(rng, np.arange(k), cap)
            assert i1.size == i2.size == 0 and i1.dtype == i2.dtype == np.int64
        assert rng.random() == np.random.default_rng(0).random()

    def test_cap_draws_when_pairs_do_not_fit(self):
        i1, i2 = propcheck._sample_pairs(np.random.default_rng(0), np.arange(101), 10099)
        assert 0 < i1.size <= 10099 and (i1 != i2).all()


class TestGenerateInstance:
    def test_bit_identical_regeneration(self):
        cfg = InstanceConfig(seed=42, cost_family="neg_quadratic",
                             f_family="random_piecewise_linear")
        f1, c1 = generate_instance(cfg)
        f2, c2 = generate_instance(cfg)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(c1.entries, c2.entries)

    def test_zero_amplitude_gives_zero_function(self):
        cfg = InstanceConfig(seed=3, cost_family="bilinear", amplitude=0.0,
                             f_family="random_smooth_fourier")
        f, _ = generate_instance(cfg)
        assert not f.values.any()

    def test_cconvexified_output_is_c_convex(self):
        for seed in range(5):
            f, cost = bilinear_instance(seed)
            holds, dev = is_c_convex(f, cost)
            assert holds, dev

    def test_different_seeds_differ(self):
        f1, _ = bilinear_instance(0)
        f2, _ = bilinear_instance(1)
        assert not np.array_equal(f1.values, f2.values)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            generate_instance(InstanceConfig(seed=0, f_family="nope"))

    @pytest.mark.parametrize("family", ["random_piecewise_linear", "random_smooth_fourier"])
    @pytest.mark.parametrize("amplitude", [math.inf, -math.inf, math.nan])
    def test_nonfinite_amplitude_rejected(self, family, amplitude):
        with pytest.raises(ValueError, match="^amplitude must be finite"):
            InstanceConfig(seed=0, f_family=family, amplitude=amplitude)


class TestMixtureWeights:
    MIXTURE_CHECKS = {
        "mixture": lambda a, lambdas: check_mixture(a, a, lambdas),
        "set_valued_convexity": check_set_valued_convexity,
        "intersection_inclusion": check_intersection_inclusion,
    }

    @pytest.mark.parametrize("lambdas, match", [
        ((), "lambdas must be nonempty"),
        ((0.5, 1.5), r"lambdas\[1\] must be a finite number in \[0, 1\], got 1.5"),
        ((-0.25,), r"lambdas\[0\] .* got -0.25"),
        ((float("nan"),), r"lambdas\[0\] .* got nan"),
        ((0.0, float("inf")), r"lambdas\[1\] .* got inf"),
        (("0.5",), r"lambdas\[0\] .* got '0.5'"),
    ])
    @pytest.mark.parametrize("check", MIXTURE_CHECKS)
    def test_rejected_before_any_work(self, check, lambdas, match):
        a = Analysis(*parabola_neg_quadratic())
        with pytest.raises(ValueError, match=match):
            self.MIXTURE_CHECKS[check](a, lambdas)
        assert not {"slack", "member", "c_convex"} & set(vars(a))

    def test_weight_two_is_not_a_violated_mixture(self):
        # 2g - f is no convex mixture; its non-membership used to come back
        # as holds=False with max_violation 0.909 on these instances
        f, cost = bilinear_instance(0, n=101)
        g, _ = bilinear_instance(1, n=101)
        a, b = Analysis(f, cost), Analysis(g, cost)
        assert check_mixture(a, b, (0.0, 0.5, 1.0)).holds
        with pytest.raises(ValueError, match=r"lambdas\[0\] .* got 2.0"):
            check_mixture(a, b, (2.0,))

    def test_weight_three_is_not_a_failed_inclusion(self):
        a = Analysis(*parabola_neg_quadratic())
        assert check_intersection_inclusion(a, (0.0, 0.5, 1.0)).holds
        with pytest.raises(ValueError, match=r"lambdas\[0\] .* got 3.0"):
            check_intersection_inclusion(a, (3.0,))

    def test_empty_weights_are_not_a_pass(self):
        # () used to hold with max_violation -inf, checking nothing
        f, cost = bilinear_instance(2)
        g, _ = bilinear_instance(3)
        with pytest.raises(ValueError, match="lambdas must be nonempty"):
            check_mixture(Analysis(f, cost), Analysis(g, cost), ())


class TestMixture:
    def test_self_mixture_holds(self):
        a = Analysis(*bilinear_instance(1))
        v = check_mixture(a, a, (0.0, 0.5, 1.0))
        assert v.holds and not v.vacuous

    def test_two_instances(self):
        f, cost = bilinear_instance(2)
        g, _ = bilinear_instance(3)
        v = check_mixture(Analysis(f, cost), Analysis(g, cost))
        assert v.holds

    def test_endpoint_lambdas_recover_the_inputs(self):
        f, cost = bilinear_instance(4)
        g, _ = bilinear_instance(5)
        v = check_mixture(Analysis(f, cost), Analysis(g, cost), (0.0, 1.0))
        assert v.holds


class TestOrderPropagation:
    def test_uniform_gap_holds(self):
        f, cost = bilinear_instance(6)
        g = GridFunction(f.grid, f.values + 1.0)
        v = check_order_propagation(Analysis(f, cost), Analysis(g, cost))
        assert v.holds and not v.vacuous

    def test_equal_functions_vacuous(self):
        a = Analysis(*bilinear_instance(7))
        v = check_order_propagation(a, a)
        assert v.holds and v.vacuous


class TestSubdiffConvexity:
    def test_abs_value_contiguous(self):
        g = make_uniform_grid(-1, 1, 65)
        cost = tabulate_cost(CostSpec("bilinear"), g, g)
        f = GridFunction(g, np.abs(g.points))
        v = check_subdiff_convexity(Analysis(f, cost))
        assert v.holds and not v.vacuous

    def test_non_two_affine_cost_is_a_hypothesis_failure(self):
        g = make_uniform_grid(-1, 1, 33)
        cost = tabulate_cost(CostSpec("neg_quadratic"), g, g)
        f = GridFunction(g, g.points**2)
        v = check_subdiff_convexity(Analysis(f, cost))
        assert v.holds and "hypothesis-failed" in v.notes

    def test_non_c_convex_f_is_a_hypothesis_failure(self):
        g = make_uniform_grid(-1, 1, 33)
        cost = tabulate_cost(CostSpec("bilinear"), g, g)
        v = check_subdiff_convexity(Analysis(GridFunction(g, -g.points**2), cost))
        assert v.holds and "hypothesis-failed" in v.notes


class TestSetValuedConvexity:
    def setup_method(self):
        self.g = make_uniform_grid(-1, 1, 65)
        self.cost = tabulate_callable(lambda x, y: 0.4 * y + 0.25 * x + 0.1,
                                      self.g, self.g)

    def test_affine_cost_with_affine_f(self):
        f = GridFunction(self.g, 0.25 * self.g.points - 0.2)
        v = check_set_valued_convexity(Analysis(f, self.cost))
        assert v.holds
        assert "segment-tested" in v.notes

    def test_nonconvex_f_is_a_hypothesis_failure(self):
        f = GridFunction(self.g, -self.g.points**2)
        v = check_set_valued_convexity(Analysis(f, self.cost))
        assert v.holds and "hypothesis-failed" in v.notes

    def test_convex_cost_is_a_hypothesis_failure(self):
        g = make_uniform_grid(0, 0.4, 33)
        cost = tabulate_cost(CostSpec("reflector"), g, g)
        v = check_set_valued_convexity(Analysis(GridFunction(g, np.zeros(33)), cost))
        assert v.holds and "hypothesis-failed" in v.notes


class TestIntersectionInclusion:
    def setup_method(self):
        self.gi = make_uniform_grid(-1, 1, 65)
        self.gj = make_uniform_grid(-2.5, 2.5, 65)
        self.cost = tabulate_cost(CostSpec("neg_quadratic"), self.gi, self.gj)

    def test_parabola(self):
        f = GridFunction(self.gi, self.gi.points**2)
        v = check_intersection_inclusion(Analysis(f, self.cost))
        assert v.holds and not v.vacuous

    def test_concave_f_is_a_hypothesis_failure(self):
        f = GridFunction(self.gi, -self.gi.points**2)
        v = check_intersection_inclusion(Analysis(f, self.cost))
        assert v.holds and "hypothesis-failed" in v.notes


class TestDomainInterval:
    def test_parabola_full_domain(self):
        gi = make_uniform_grid(-1, 1, 65)
        gj = make_uniform_grid(-2.5, 2.5, 65)
        cost = tabulate_cost(CostSpec("neg_quadratic"), gi, gj)
        f = GridFunction(gi, gi.points**2)
        v = check_domain_interval(Analysis(f, cost))
        assert v.holds and not v.vacuous

    def test_nonconvex_f_is_a_hypothesis_failure(self):
        gi = make_uniform_grid(-1, 1, 33)
        cost = tabulate_cost(CostSpec("neg_quadratic"), gi, gi)
        v = check_domain_interval(Analysis(GridFunction(gi, np.sin(6 * gi.points)), cost))
        assert v.holds and "hypothesis-failed" in v.notes


class TestGradInclusion:
    def test_cost_column_is_exact(self):
        g = make_uniform_grid(-1, 1, 65)
        spec = CostSpec("bilinear")
        cost = tabulate_cost(spec, g, g)
        j0 = g.nearest_index(0.5)
        f = GridFunction(g, cost.entries[:, j0])
        v = check_grad_inclusion(Analysis(f, cost), spec)
        assert v.holds

    def test_half_parabola_neg_quadratic(self):
        gi = make_uniform_grid(-1, 1, 101)
        gj = make_uniform_grid(-2.5, 2.5, 101)
        spec = CostSpec("neg_quadratic")
        cost = tabulate_cost(spec, gi, gj)
        f = GridFunction(gi, 0.5 * gi.points**2)
        v = check_grad_inclusion(Analysis(f, cost), spec)
        assert v.holds and not v.vacuous


class TestCostSelfSubdiff:
    def test_exact_zero_for_all_families(self):
        g = make_uniform_grid(0, 0.4, 33)
        for family in ("bilinear", "neg_quadratic", "reflector"):
            cost = tabulate_cost(CostSpec(family), g, g)
            v = check_cost_self_subdiff(cost)
            assert v.holds
            assert v.max_violation <= 0.0

    def test_even_for_arbitrary_tables(self):
        # the slack of a column against itself cancels identically,
        # whatever numbers the table holds
        g = make_uniform_grid(-1, 1, 21)
        cost = tabulate_callable(lambda x, y: np.sin(5 * x * y) + x**3, g, g)
        assert check_cost_self_subdiff(cost).holds

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_tol_rejected(self, tol):
        # tol = -1 used to report a violation of 1.0 on an exact identity
        g = make_uniform_grid(0, 0.4, 33)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check_cost_self_subdiff(tabulate_cost(CostSpec("reflector"), g, g), tol)


class TestLocalSupportIff:
    def setup_method(self):
        self.g = make_uniform_grid(-1, 1, 101)
        self.cost = tabulate_cost(CostSpec("bilinear"), self.g, self.g)
        self.f = GridFunction(self.g, -np.abs(self.g.points))

    def test_affine_piece_has_support(self):
        v = check_local_support_iff(Analysis(self.f, self.cost), self.g.nearest_index(0.5), 0.25)
        assert v.holds and "support exists" in v.notes

    def test_concave_kink_has_none(self):
        v = check_local_support_iff(Analysis(self.f, self.cost), self.g.nearest_index(0.0), 0.25)
        assert v.holds and "no support" in v.notes

    @pytest.mark.parametrize("alpha", [0.5, 0.0])   # support exists, and none
    def test_one_window_sweep_per_verdict(self, monkeypatch, alpha):
        calls = []

        def counted(*args):
            calls.append(args)
            return window_members(*args)

        window_members = subdiff._window_members
        monkeypatch.setattr(subdiff, "_window_members", counted)
        check_local_support_iff(Analysis(self.f, self.cost), self.g.nearest_index(alpha), 0.25)
        assert len(calls) == 1

    @pytest.mark.parametrize("index", [-1, 101])
    def test_out_of_range_alpha_rejected(self, index):
        with pytest.raises(ValueError, match=f"grid index {index} is out of range"):
            check_local_support_iff(Analysis(self.f, self.cost), index, 0.25)

    def test_infinite_f_at_alpha_rejected(self):
        values = self.f.values.copy()
        values[40] = np.inf
        with pytest.raises(ValueError, match="f is \\+inf at grid index 40"):
            check_local_support_iff(Analysis(GridFunction(self.g, values), self.cost), 40, 0.25)


class TestSuite:
    def test_all_checks_hold_without_vacuity(self):
        verdicts = run_suite(seed=0, pair_cap=2000)
        assert len(verdicts) == 18
        for v in verdicts:
            assert v.holds, (v.check_id, v.max_violation, v.notes)
            assert not v.vacuous, v.check_id
            assert "hypothesis-failed" not in v.notes, v.check_id

    def test_deterministic(self):
        a = [v.to_dict() for v in run_suite(seed=0, pair_cap=500)]
        b = [v.to_dict() for v in run_suite(seed=0, pair_cap=500)]
        assert a == b

    def test_falsify_reports_hypothesis_failures_not_conclusions(self):
        verdicts = run_suite(seed=0, pair_cap=500, falsify=True)
        assert all(v.holds for v in verdicts)
        assert any("hypothesis-failed" in v.notes for v in verdicts)

    def test_check_ids_unique(self):
        ids = [v.check_id for v in run_suite(seed=0, pair_cap=200)]
        assert len(ids) == len(set(ids))


class TestSuiteWork:
    """``run_suite`` tabulates each cost table once and builds each slack
    matrix once, counted by wrappers keyed on the bytes of their inputs in
    every module that holds the two functions."""

    @pytest.mark.parametrize("falsify", [False, True])
    def test_each_table_and_slack_matrix_is_built_once(self, monkeypatch, falsify):
        keys = {"tabulate_cost": lambda spec, gi, gj: (repr(spec), gi.points.tobytes(),
                                                       gj.points.tobytes()),
                "membership_slack": lambda f, cost: (f.grid.points.tobytes(), f.values.tobytes(),
                                                     cost.grid_j.points.tobytes(),
                                                     cost.entries.tobytes())}
        seen = {name: [] for name in keys}

        def counted(name, fn):
            def wrapper(*args):
                seen[name].append(keys[name](*args))
                return fn(*args)
            return wrapper

        for module in (costs, propcheck, subdiff, transform):
            for name in keys:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        run_suite(seed=0, falsify=falsify)
        tables, slacks = seen["tabulate_cost"], seen["membership_slack"]
        assert len(tables) == len(set(tables)) == 3
        assert len(slacks) == len(set(slacks)) > 0
