import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cconvex import costs, propcheck, subdiff, transform
from cconvex.costs import CostSpec, parse_cost_spec, tabulate_callable, tabulate_cost
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
from oracles import loop_order_propagation, loop_raw_function, separate_convex_holds


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

        for name in ("membership_slack", "c_transform", "_back_transform"):
            monkeypatch.setattr(subdiff, name, counted(name, getattr(subdiff, name)))
        f, cost = bilinear_instance(3)
        a = Analysis(f, cost)
        assert not calls
        for _ in range(2):
            assert np.array_equal(a.member, a.slack >= -a.tol)
            assert a.c_convex == is_c_convex(f, cost)
        assert np.array_equal(a.fc.values.values, transform.c_transform(f, cost).values.values)
        assert np.array_equal(a.fcc.values.values,
                              transform.double_c_transform(f, cost).values.values)
        assert calls == {"membership_slack": 1, "c_transform": 1, "_back_transform": 1}
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

    @pytest.mark.parametrize("check, f, c", [
        (check_subdiff_convexity, lambda x: x**2, None),     # cost not two_affine
        (check_subdiff_convexity, lambda x: 0.25 * x,        # cost not twisted
         lambda x, y: 0.4 * y + 0.25 * x + 0.1),
        (check_set_valued_convexity, lambda x: x**2, None),  # cost not two_affine
        (check_intersection_inclusion, lambda x: -x**2, None),   # f not convex
        (check_domain_interval, lambda x: np.sin(6 * x), None),  # f not convex
    ])
    def test_failed_hypothesis_builds_no_slack(self, check, f, c):
        _, cost = parabola_neg_quadratic()
        if c is not None:
            cost = tabulate_callable(c, cost.grid_i, cost.grid_i)
        a = Analysis(GridFunction(cost.grid_i, f(cost.grid_i.points)), cost)
        assert check(a).status == "hypothesis_failed"
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
        for module, name in ((propcheck, "check_structure"), (subdiff, "c_transform"),
                             (subdiff, "_back_transform"), (subdiff, "membership_slack"),
                             (propcheck, "tabulate_cost")):
            monkeypatch.setattr(module, name, no_work)
        with pytest.raises(ValueError, match=message):
            if check is None:
                run_suite(pair_cap=cap)
            else:
                check(Analysis(f, cost), pair_cap=cap)

    @pytest.mark.parametrize("seed", [-1, 2.5, "0"])
    @pytest.mark.parametrize("check", [*PAIR_CHECKS, None])
    def test_bad_seed_rejected_before_any_work(self, monkeypatch, check, seed):
        # -1 used to fail inside numpy ("expected non-negative integer"),
        # naming neither the seed nor its value, after run_suite had
        # tabulated its first cost
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the seed check")

        f, cost = parabola_neg_quadratic()
        for module, name in ((propcheck, "check_structure"), (subdiff, "c_transform"),
                             (subdiff, "_back_transform"), (subdiff, "membership_slack"),
                             (propcheck, "tabulate_cost"), (propcheck, "tabulate_callable")):
            monkeypatch.setattr(module, name, no_work)
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            if check is None:
                run_suite(seed=seed)
            else:
                check(Analysis(f, cost), seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_instance_config_rejects_a_bad_seed(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed}$"):
            InstanceConfig(seed=seed)

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

    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.25, 7.0)])
    @pytest.mark.parametrize("n", [2, 33, 65, 101])
    @pytest.mark.parametrize("amplitude", [0.0, 1.0, 1e3])
    def test_fourier_draw_is_the_term_by_term_loop(self, amplitude, n, interval):
        grid = make_uniform_grid(*interval, n)
        for seed in range(50):
            cfg = InstanceConfig(seed=seed, n=n, amplitude=amplitude,
                                 f_family="random_smooth_fourier")
            got = propcheck._raw_function(cfg, grid, np.random.default_rng(seed),
                                          "random_smooth_fourier")
            want = loop_raw_function(amplitude, grid, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes(), seed

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
        with pytest.raises(ValueError, match="^unknown f family 'nope'$"):
            generate_instance(InstanceConfig(seed=0, f_family="nope"))

    @pytest.mark.parametrize("fields, message", [
        (dict(f_family="bogus"), "^unknown f family 'bogus'$"),
        (dict(cost_family="bogus"), "^unknown cost family 'bogus'$"),
        (dict(cost_family="bilinear", cost_params=(9.0,)),
         r"^the bilinear family takes no parameters, got \(9.0,\)$"),
        (dict(cost_family="one_affine"), "^one_affine needs params"),
    ])
    def test_rejected_before_any_tabulation(self, monkeypatch, fields, message):
        # an unknown f family used to be found only after the cost was
        # tabulated, 51 ms at n = m = 2049
        def tabulate(*args):
            raise AssertionError("tabulated")
        monkeypatch.setattr(propcheck, "tabulate_cost", tabulate)
        with pytest.raises(ValueError, match=message):
            generate_instance(InstanceConfig(seed=0, n=2049, m=2049, **fields))

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
        assert v.status == "held"

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
        assert v.status == "held"

    def test_equal_functions_vacuous(self):
        a = Analysis(*bilinear_instance(7))
        v = check_order_propagation(a, a)
        assert v.status == "vacuous"


class TestSubdiffConvexity:
    def test_abs_value_contiguous(self):
        g = make_uniform_grid(-1, 1, 65)
        cost = tabulate_cost(CostSpec("bilinear"), g, g)
        f = GridFunction(g, np.abs(g.points))
        v = check_subdiff_convexity(Analysis(f, cost))
        assert v.status == "held"

    def test_non_two_affine_cost_is_a_hypothesis_failure(self):
        g = make_uniform_grid(-1, 1, 33)
        cost = tabulate_cost(CostSpec("neg_quadratic"), g, g)
        f = GridFunction(g, g.points**2)
        v = check_subdiff_convexity(Analysis(f, cost))
        assert v.status == "hypothesis_failed"

    def test_non_c_convex_f_is_a_hypothesis_failure(self):
        g = make_uniform_grid(-1, 1, 33)
        cost = tabulate_cost(CostSpec("bilinear"), g, g)
        v = check_subdiff_convexity(Analysis(GridFunction(g, -g.points**2), cost))
        assert v.status == "hypothesis_failed"

    def test_negative_twist_is_judged(self):
        # c = -xy has every mixed second difference -h^2 < -tol: twisted, so
        # the conclusion is judged; x^2/2 (members y = -x) is c-convex
        g = make_uniform_grid(-1, 1, 33)
        cost = tabulate_callable(lambda x, y: -x * y, g, g)
        v = check_subdiff_convexity(Analysis(GridFunction(g, 0.5 * g.points**2), cost))
        assert v.status == "held" and v.notes.startswith("pairs=")


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
        assert v.status == "hypothesis_failed"

    def test_convex_cost_is_a_hypothesis_failure(self):
        g = make_uniform_grid(0, 0.4, 33)
        cost = tabulate_cost(CostSpec("reflector"), g, g)
        v = check_set_valued_convexity(Analysis(GridFunction(g, np.zeros(33)), cost))
        assert v.status == "hypothesis_failed"


class TestIntersectionInclusion:
    def setup_method(self):
        self.gi = make_uniform_grid(-1, 1, 65)
        self.gj = make_uniform_grid(-2.5, 2.5, 65)
        self.cost = tabulate_cost(CostSpec("neg_quadratic"), self.gi, self.gj)

    def test_parabola(self):
        f = GridFunction(self.gi, self.gi.points**2)
        v = check_intersection_inclusion(Analysis(f, self.cost))
        assert v.status == "held"

    def test_concave_f_is_a_hypothesis_failure(self):
        f = GridFunction(self.gi, -self.gi.points**2)
        v = check_intersection_inclusion(Analysis(f, self.cost))
        assert v.status == "hypothesis_failed"


class TestDomainInterval:
    def test_parabola_full_domain(self):
        gi = make_uniform_grid(-1, 1, 65)
        gj = make_uniform_grid(-2.5, 2.5, 65)
        cost = tabulate_cost(CostSpec("neg_quadratic"), gi, gj)
        f = GridFunction(gi, gi.points**2)
        v = check_domain_interval(Analysis(f, cost))
        assert v.status == "held"

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_extended_valued_f_is_judged_on_its_domain(self, tol):
        # x^2, +inf for x > 0.5: convex on its effective domain [-1, 0.5]
        gi, gj = make_uniform_grid(-1, 1, 33), make_uniform_grid(-2.5, 2.5, 33)
        cost = tabulate_cost(CostSpec("neg_quadratic"), gi, gj)
        f = GridFunction(gi, np.where(gi.points > 0.5, np.inf, gi.points**2))
        v = check_domain_interval(Analysis(f, cost, tol))
        assert (v.status, v.max_violation) == ("held", 0.0)
        assert v.notes.startswith("pairs=600;")

    def test_interior_inf_gap_is_a_hypothesis_failure(self):
        gi, gj = make_uniform_grid(-1, 1, 33), make_uniform_grid(-2.5, 2.5, 33)
        cost = tabulate_cost(CostSpec("neg_quadratic"), gi, gj)
        f = GridFunction(gi, np.where(np.abs(gi.points - 0.1) < 0.05, np.inf, gi.points**2))
        v = check_domain_interval(Analysis(f, cost))
        assert (v.status, v.notes) == (
            "hypothesis_failed", "hypothesis-failed: f not convex; conclusion not judged")

    def test_nonconvex_f_is_a_hypothesis_failure(self):
        gi = make_uniform_grid(-1, 1, 33)
        cost = tabulate_cost(CostSpec("neg_quadratic"), gi, gi)
        v = check_domain_interval(Analysis(GridFunction(gi, np.sin(6 * gi.points)), cost))
        assert v.status == "hypothesis_failed"


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
        assert v.status == "held"

    @pytest.mark.parametrize("spec, gi, gj", [
        ("bilinear", (-1, 1), (-1, 1)),
        ("neg_quadratic", (-1, 1), (-2.5, 2.5)),
        ("reflector", (0, 0.4), (0, 0.4)),
        ("one_affine:1;0.3,1,0.7", (-1, 1), (-1, 1)),
    ])
    def test_spec_of_the_table_is_judged(self, spec, gi, gj):
        # f = c(., y_50) has the member y_50 at every x
        spec = parse_cost_spec(spec)
        cost = tabulate_cost(spec, make_uniform_grid(*gi, 101), make_uniform_grid(*gj, 101))
        v = check_grad_inclusion(Analysis(GridFunction(cost.grid_i, cost.entries[:, 50]), cost),
                                 spec)
        assert v.status == "held"

    @pytest.mark.parametrize("where", [0, 5, 10])
    def test_infinite_f_rejected_before_any_work(self, where):
        # f = +inf at a point used to be held, with max_violation -inf and
        # threshold=inf: M2f is +inf, so nothing was tested
        g = make_uniform_grid(-1, 1, 11)
        values = g.points**2
        values[where] = np.inf
        a = Analysis(GridFunction(g, values), CostSpec("bilinear"), grid_j=g)
        with pytest.raises(ValueError, match="^check_grad_inclusion requires an "
                                             "everywhere-finite f$"):
            check_grad_inclusion(a, CostSpec("bilinear"))
        assert not {"table", "slack", "member"} & set(vars(a))

    @pytest.mark.parametrize("spec", [CostSpec("neg_quadratic", scale=0.5),
                                      CostSpec("bilinear")])
    def test_spec_of_another_cost_rejected(self, spec):
        # these used to come back violated, by 0.36 and 0.37: a false
        # proposition failure from a mismatched derivative
        gi, gj = make_uniform_grid(-1, 1, 101), make_uniform_grid(-2.5, 2.5, 101)
        cost = tabulate_cost(CostSpec("neg_quadratic"), gi, gj)
        a = Analysis(GridFunction(gi, 0.5 * gi.points**2), cost)
        with pytest.raises(ValueError, match="does not give the cost table at its members"):
            check_grad_inclusion(a, spec)


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
        assert v.status == "held" and "support exists" in v.notes

    def test_concave_kink_has_none(self):
        v = check_local_support_iff(Analysis(self.f, self.cost), self.g.nearest_index(0.0), 0.25)
        assert v.status == "held" and "no support" in v.notes

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

    @pytest.mark.parametrize("index", [2.5, 40.0, np.float64(40.0)])
    def test_non_integer_alpha_rejected(self, index):
        # 2.5 used to reach numpy's "only integers, slices ..." IndexError
        with pytest.raises(ValueError, match="grid index must be an integer"):
            check_local_support_iff(Analysis(self.f, self.cost), index, 0.25)

    def test_infinite_f_at_alpha_rejected(self):
        values = self.f.values.copy()
        values[40] = np.inf
        with pytest.raises(ValueError, match="f is \\+inf at grid index 40"):
            check_local_support_iff(Analysis(GridFunction(self.g, values), self.cost), 40, 0.25)


def planted(a, cells=(), empty=False):
    """``a`` with its cached ``member`` replaced: the true members (none
    when ``empty``) plus the false members at ``cells``."""
    member = np.zeros_like(a.member) if empty else a.member.copy()
    for cell in cells:
        member[cell] = True
    vars(a)["member"] = member
    return a


def on_grid(g, values, cost):
    return Analysis(GridFunction(g, values), cost)


class TestVerdictBranches:
    """Every verdict a check can return: a violation with its witness,
    planted as a false member where the true instance holds, each vacuous
    sweep and each failed hypothesis."""

    def setup_method(self):
        self.g = make_uniform_grid(-1, 1, 33)   # x_16 = 0, x_32 = 1, h = 1/16
        self.bilinear = tabulate_cost(CostSpec("bilinear"), self.g, self.g)
        gj = make_uniform_grid(-2.5, 2.5, 33)
        self.neg_quadratic = tabulate_cost(CostSpec("neg_quadratic"), self.g, gj)
        # two_affine and segment-concave (fully affine), with c_xy = 0: only
        # 0.25 x + const is c-convex
        self.affine = tabulate_callable(lambda x, y: 0.4 * y + 0.25 * x + 0.1, self.g, self.g)
        # affine in y, convex in x: two_affine, neither one_concave nor segment-concave
        self.convex_in_x = tabulate_callable(lambda x, y: x**2 + x * y, self.g, self.g)

    def test_mixture_witness(self):
        # y = 1 at x = -1 has slack -2 for |x|, -2.25 for x^2 and -2.125 for
        # their even mixture, whose max_z (z - |z|/2 - z^2/2) is 1/8
        x = self.g.points
        a = planted(on_grid(self.g, np.abs(x), self.bilinear), [(0, 32)])
        b = planted(on_grid(self.g, x**2, self.bilinear), [(0, 32)])
        v = check_mixture(a, b, (0.5,))
        assert v.status == "violated" and v.witness == (0, 32, 0.5)
        # the excess is beyond tol + 1e-12 * (1 + max|c|, |f|, |g|)
        assert v.max_violation == 2.125 - (1e-9 + 1e-12 * 2.0)
        assert check_mixture(a, b, (0.0, 0.5, 1.0)).witness == (0, 32, 1.0)

    def test_order_propagation_witness(self):
        # g = 1/2 > f = |x| on |x| < 1/2, where the member of g is y = 0; a
        # false member y = 0 of f at x = 1 makes f(1) - g(1) = 1/2 the violation,
        # first reached from u = 9 (x = -0.4375)
        a = planted(on_grid(self.g, np.abs(self.g.points), self.bilinear), [(32, 16)])
        b = on_grid(self.g, np.full(33, 0.5), self.bilinear)
        v = check_order_propagation(a, b)
        assert v.status == "violated" and v.witness == (9, 32) and v.max_violation == 0.5

    def test_mixture_weight_zero_drops_an_infinite_function(self):
        # f = |x| but +inf at x = 1: with 0 * (+inf) = 0 the mixture at
        # lambda = 1 is g = x^2, whose slack -2.25 at the planted (0, 32)
        # beats the even mixture's -2.125 and f's -2; 0 * inf used to be a
        # NaN value, which GridFunction rejects
        x = self.g.points
        a = planted(on_grid(self.g, np.where(x == 1.0, np.inf, np.abs(x)), self.bilinear),
                    [(0, 32)])
        b = planted(on_grid(self.g, x**2, self.bilinear), [(0, 32)])
        v = check_mixture(a, b)
        assert v.status == "violated" and v.witness == (0, 32, 1.0)
        assert v.max_violation == 2.25 - (1e-9 + 1e-12 * 2.0)

    def test_both_functions_infinite_at_one_point(self):
        # +inf - +inf is no gap at x = -1 and raises no warning; the verdicts
        # are those of the finite instances of test_order_propagation_witness
        x = self.g.points
        f = np.where(x == -1.0, np.inf, np.abs(x))
        b = on_grid(self.g, np.where(x == -1.0, np.inf, 0.5), self.bilinear)
        v = check_order_propagation(planted(on_grid(self.g, f, self.bilinear), [(32, 16)]), b)
        assert v.status == "violated" and v.witness == (9, 32) and v.max_violation == 0.5
        assert check_mixture(on_grid(self.g, f, self.bilinear), b).status == "held"

    def test_grad_inclusion_witness(self):
        # f = x^2/2 has the one member y = x; y = 1 at x = 0 mismatches
        # f'(0) = 0 by 1, beyond the threshold 4 * (h * M2f / 2 + tol / h)
        a = planted(on_grid(self.g, 0.5 * self.g.points**2, self.bilinear), [(16, 32)])
        v = check_grad_inclusion(a, CostSpec("bilinear"))
        assert v.status == "violated" and v.witness == (16, 32)
        assert v.max_violation == pytest.approx(1 - 4 * (0.5 / 16 + 16e-9))

    def test_unplanted_instances_hold(self):
        x = self.g.points
        assert check_mixture(on_grid(self.g, np.abs(x), self.bilinear),
                             on_grid(self.g, x**2, self.bilinear), (0.5,)).holds
        assert check_order_propagation(on_grid(self.g, np.abs(x), self.bilinear),
                                       on_grid(self.g, np.full(33, 0.5), self.bilinear)).holds
        assert check_grad_inclusion(on_grid(self.g, 0.5 * x**2, self.bilinear),
                                    CostSpec("bilinear")).holds

    @pytest.mark.parametrize("check, cost, f, notes", [
        (lambda a: check_mixture(a, a), "bilinear", np.abs, "vacuous: no qualifying cases"),
        (lambda a: check_order_propagation(
            a, Analysis(GridFunction(a.f.grid, a.f.values + 1.0), a.cost)),
         "bilinear", np.abs, "vacuous: no qualifying cases"),
        (check_subdiff_convexity, "bilinear", np.abs, "vacuous: every subdifferential empty"),
        (check_set_valued_convexity, "affine", lambda x: 0.25 * x - 0.2,
         "vacuous: effective domain has fewer than two points"),
        (check_intersection_inclusion, "neg_quadratic", np.square, "vacuous: no qualifying cases"),
        (check_domain_interval, "neg_quadratic", np.square, "vacuous: no qualifying cases"),
        (lambda a: check_grad_inclusion(a, CostSpec("bilinear")), "bilinear", np.square,
         "vacuous: no interior members"),
    ], ids=["mixture", "order_propagation", "subdiff_convexity", "set_valued_convexity",
            "intersection_inclusion", "domain_interval", "grad_inclusion"])
    def test_no_members_is_vacuous(self, check, cost, f, notes):
        a = planted(on_grid(self.g, f(self.g.points), getattr(self, cost)), empty=True)
        v = check(a)
        assert (v.status, v.max_violation, v.witness, v.notes) == ("vacuous", 0.0, None, notes)

    @pytest.mark.parametrize("check, cost, f, reason", [
        # c_xy = 0: 0.25 x is c-convex and every pair shares every member,
        # which used to be judged a violation (max_violation 1.98)
        (check_subdiff_convexity, "affine", lambda x: 0.25 * x, "cost not twisted"),
        (check_set_valued_convexity, "convex_in_x", np.zeros_like,
         "cost not segment_concave (excess "),
        (check_set_valued_convexity, "affine", np.square, "f not c-convex (deviation "),
        (check_intersection_inclusion, "convex_in_x", np.square, "cost not one_concave"),
        (check_domain_interval, "convex_in_x", np.square, "cost not one_concave"),
    ], ids=["subdiff_twisted", "set_valued_segment_concave", "set_valued_c_convex", "intersection_one_concave",
            "domain_one_concave"])
    def test_failed_hypothesis(self, check, cost, f, reason):
        v = check(on_grid(self.g, f(self.g.points), getattr(self, cost)))
        assert (v.status, v.max_violation, v.witness) == ("hypothesis_failed", 0.0, None)
        assert v.notes.startswith(f"hypothesis-failed: {reason}")
        assert v.notes.endswith("; conclusion not judged")

    @pytest.mark.parametrize("check, cost, f", [
        (check_intersection_inclusion, "neg_quadratic", np.square),
        (check_subdiff_convexity, "bilinear", lambda x: 0.5 * x**2),
        (check_set_valued_convexity, "affine", lambda x: 0.25 * x),
    ], ids=["intersection_inclusion", "subdiff_convexity", "set_valued_convexity"])
    def test_infinite_f_is_not_c_convex(self, check, cost, f):
        # f^cc is finite on a grid, so f = +inf for x > 0.5 is not c-convex;
        # the gate used to raise Analysis.c_convex's finiteness error
        x = self.g.points
        a = on_grid(self.g, np.where(x > 0.5, np.inf, f(x)), getattr(self, cost))
        v = check(a)
        assert (v.status, v.max_violation, v.witness) == ("hypothesis_failed", 0.0, None)
        assert v.notes == ("hypothesis-failed: f not c-convex (+inf at a grid point); "
                           "conclusion not judged")
        assert "fcc" not in vars(a)
        if cost == "neg_quadratic":   # no c_convex gate: the proposition is judged
            assert check_domain_interval(a).status == "held"

    @pytest.mark.parametrize("f", [np.square, np.abs, lambda x: -x**2, lambda x: np.sin(6 * x),
                                   lambda x: 0.25 * x, lambda x: x**4 - x**2,
                                   lambda x: np.where(x > 0.5, np.inf, x**2),
                                   lambda x: np.where(np.abs(x - 0.1) < 0.05, np.inf, x**2),
                                   lambda x: np.where(x < 0, np.inf, -x**2),
                                   lambda x: np.where(x == 0, 0.0, np.inf)])
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_convex_gate_is_the_separate_rule(self, f, tol):
        values = f(self.g.points)
        a = Analysis(GridFunction(self.g, values), self.bilinear, tol)
        failed = propcheck._failed_hypothesis("c", a, "convex")
        assert (failed is None) == separate_convex_holds(values, tol)

    def test_gates_are_walked_in_order(self):
        # x^2 + xy is two_affine but neither one_concave nor segment_concave,
        # and -x^2 is not convex: the first failing gate names the verdict
        a = on_grid(self.g, -self.g.points**2, self.convex_in_x)

        def notes(*hypotheses):
            return propcheck._failed_hypothesis("c", a, *hypotheses).notes

        assert notes("one_concave", "convex").startswith(
            "hypothesis-failed: cost not one_concave (excess ")
        assert notes("two_affine", "convex", "segment_concave") == \
            "hypothesis-failed: f not convex; conclusion not judged"
        assert propcheck._failed_hypothesis("c", a, "two_affine") is None

    def test_intersection_inclusion_needs_a_c_convex_f(self):
        # x^2 is convex, but under -(x - y)^2 its subgradients y = 2x must lie
        # in J = [-0.1, 0.1]: f^cc(1) = -0.805, a deviation of 1.805
        gj = make_uniform_grid(-0.1, 0.1, 33)
        cost = tabulate_cost(CostSpec("neg_quadratic"), self.g, gj)
        v = check_intersection_inclusion(on_grid(self.g, self.g.points**2, cost))
        assert (v.status, v.max_violation, v.witness) == ("hypothesis_failed", 0.0, None)
        assert v.notes.startswith("hypothesis-failed: f not c-convex (deviation 1.80")


class TestOrderPropagationLoop:
    """``check_order_propagation`` against the (u, v) loop of
    ``oracles.loop_order_propagation`` on planted member matrices, with
    interval and non-interval rows, empty rows, and integer f and g whose
    gaps and excesses tie, so the witness's row-major tie-break is tested."""

    N, M = 41, 37

    def member(self, rng, intervals):
        """Rows of 1 to 3 columns in one interval, or of 5 % of the columns
        at random, then emptied at a rate drawn from [0, 1)."""
        if intervals:
            first = rng.integers(0, self.M, self.N)
            last = first + rng.integers(1, 4, self.N)
            cols = np.arange(self.M)
            member = (cols >= first[:, None]) & (cols < last[:, None])
        else:
            member = rng.random((self.N, self.M)) < 0.05
        member[rng.random(self.N) < rng.random()] = False
        return member

    def instance(self, rng, intervals):
        """Analyses holding only the planted members, of integer f in
        [-2, 2] and g = f + an integer in [-1, 3]."""
        gi = make_uniform_grid(-1, 1, self.N)
        cost = tabulate_cost(CostSpec("bilinear"), gi, make_uniform_grid(-1, 1, self.M))
        f = rng.integers(-2, 3, self.N).astype(float)
        return [planted(on_grid(gi, values, cost), zip(*np.nonzero(self.member(rng, intervals))),
                        empty=True) for values in (f, f + rng.integers(-1, 4, self.N))]

    @pytest.mark.parametrize("intervals", [False, True])
    def test_matches_the_pair_loop(self, intervals):
        rng = np.random.default_rng(17)
        statuses = Counter()
        for _ in range(150):
            a, b = self.instance(rng, intervals)
            got, want = check_order_propagation(a, b), loop_order_propagation(a, b)
            assert (got.status, repr(got.max_violation), got.witness, got.notes) \
                == (want.status, repr(want.max_violation), want.witness, want.notes)
            statuses[got.status] += 1
        assert min(statuses[s] for s in ("violated", "held", "vacuous")) > 5

    def test_builds_no_n_by_n_array(self):
        # one n x n float64 array is 8.4 MB at n = m = 1025; the matrix
        # product this check used to take held three n x n arrays, 25.2 MB
        f, cost = bilinear_instance(6, n=1025)
        g = GridFunction(f.grid, f.values + 0.5 * np.sin(3 * f.grid.points))
        a, b = Analysis(f, cost), Analysis(g, cost)
        assert a.member.any() and b.member.any()   # both cached before the measurement
        tracemalloc.start()
        try:
            v = check_order_propagation(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.status != "vacuous"
        assert peak < 8 * 1025 * 1025, f"peak {peak} B"


class TestSuite:
    def test_all_checks_hold_without_vacuity(self):
        verdicts = run_suite(seed=0, pair_cap=2000)
        assert len(verdicts) == 18
        for v in verdicts:
            assert v.status == "held", (v.check_id, v.status, v.max_violation, v.notes)

    def test_deterministic(self):
        a = [v.to_dict() for v in run_suite(seed=0, pair_cap=500)]
        b = [v.to_dict() for v in run_suite(seed=0, pair_cap=500)]
        assert a == b

    def test_falsify_reports_hypothesis_failures_not_conclusions(self):
        verdicts = run_suite(seed=0, pair_cap=500, falsify=True)
        assert all(v.holds for v in verdicts)
        assert any(v.status == "hypothesis_failed" for v in verdicts)

    def test_check_ids_unique(self):
        ids = [v.check_id for v in run_suite(seed=0, pair_cap=200)]
        assert len(ids) == len(set(ids))

    # the checks whose hypotheses --falsify breaks, the same on seeds 0-24
    FALSIFIED = {"domain_interval_absval", "domain_interval_parabola", "intersection_inclusion",
                 "set_valued_convexity", "subdiff_convexity_bilinear", "subdiff_convexity_sinxy"}

    @pytest.mark.parametrize("seed", range(5))
    def test_falsify_fails_hypotheses_never_conclusions(self, seed):
        assert "violated" not in {v.status for v in run_suite(seed=seed)}
        verdicts = run_suite(seed=seed, falsify=True)
        assert {v.check_id for v in verdicts if v.status == "hypothesis_failed"} == self.FALSIFIED
        assert "violated" not in {v.status for v in verdicts}


class TestSpecAnalysis:
    """Every proposition check reads the ``Analysis`` of a cost spec as it
    reads the ``Analysis`` of that spec's table."""

    # the two certified suite costs, and the suite's fully affine one, which
    # no engine serves and the only one whose set-valued hypotheses hold
    J_INTERVALS = {"bilinear": (-1.0, 1.0), "neg_quadratic": (-2.5, 2.5),
                   "one_affine:0.25;0.1,0.4": (-1.0, 1.0)}

    @pytest.mark.parametrize("falsify", [False, True])
    @pytest.mark.parametrize("cost", list(J_INTERVALS))
    @pytest.mark.parametrize("seed", range(3))
    def test_verdicts_match_the_tabulated_twin(self, seed, cost, falsify):
        gi, gj = make_uniform_grid(-1, 1, 101), make_uniform_grid(*self.J_INTERVALS[cost], 101)
        spec = parse_cost_spec(cost)
        table = tabulate_cost(spec, gi, gj)
        family = "random_smooth_fourier" if falsify else "cconvexified_random"
        fs = [propcheck._instance_function(InstanceConfig(s, f_family=family), table)
              for s in (seed, seed + 1)]
        fs += [GridFunction(gi, gi.points**2), GridFunction(gi, np.abs(gi.points))]

        def verdicts(c):
            b = Analysis(fs[1], c, 1e-9, gj)
            for f in fs:
                a = Analysis(f, c, 1e-9, gj)
                yield from (check_mixture(a, b), check_order_propagation(a, b),
                            check_subdiff_convexity(a), check_set_valued_convexity(a),
                            check_intersection_inclusion(a), check_domain_interval(a),
                            check_grad_inclusion(a, spec), check_local_support_iff(a, 30, 0.25))

        assert [v.to_dict() for v in verdicts(spec)] == [v.to_dict() for v in verdicts(table)]
        # the engine's path on the certified costs
        assert (Analysis(fs[0], spec, 1e-9, gj).twist is None) == cost.startswith("one_affine")

    @pytest.mark.parametrize("check", [check_mixture, check_order_propagation])
    def test_pair_checks_need_one_pair_of_grids(self, check):
        gi, spec = make_uniform_grid(-1, 1, 33), CostSpec("bilinear")
        f = GridFunction(gi, gi.points**2)
        for other in (make_uniform_grid(-1, 1, 35), make_uniform_grid(-2, 2, 33)):
            a, b = Analysis(f, spec, grid_j=gi), Analysis(f, spec, grid_j=other)
            with pytest.raises(ValueError, match="same cost object and the same tol, on the "
                                                 "same I and J grids"):
                check(a, b)
        g = GridFunction(make_uniform_grid(-1, 1, 35), np.zeros(35))
        with pytest.raises(ValueError, match="on the same I and J grids"):
            check(Analysis(f, spec, grid_j=gi), Analysis(g, spec, grid_j=gi))


class TestSuiteProtocol:
    """One sha256 over the ``to_dict()`` of every verdict of 56 suite runs:
    seeds 0-24 and 518, plain and ``--falsify``, and seed 7 at pair caps 0,
    1, 500 and 50000.  A change to any verdict byte on any of them fails
    here and must be recorded in CHANGES.md with the new digest."""

    DIGEST = "9c2caa01038308102c957ed87ee3843158b560e1411166943d1d776d2ea9ffe7"

    def test_verdict_bytes(self):
        runs = [dict(seed=s, falsify=f) for s in [*range(25), 518] for f in (False, True)]
        runs += [dict(seed=7, pair_cap=cap) for cap in (0, 1, 500, 50000)]
        records = [[v.to_dict() for v in run_suite(**kwargs)] for kwargs in runs]
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == self.DIGEST


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

    @pytest.mark.parametrize("falsify", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_spans_are_computed_once_per_member_matrix(self, monkeypatch, seed, falsify):
        # the parabola analysis feeds two checks; the falsified suite fails
        # every hypothesis gating a check that reads spans, so it reads none
        seen = []

        def counted(fn):
            def wrapper(member):
                seen.append((member.shape, member.tobytes()))
                return fn(member)
            return wrapper

        for module in (propcheck, subdiff):
            if hasattr(module, "_row_spans"):
                monkeypatch.setattr(module, "_row_spans", counted(module._row_spans))
        run_suite(seed=seed, falsify=falsify)
        assert len(seen) == len(set(seen))
        assert falsify or seen
