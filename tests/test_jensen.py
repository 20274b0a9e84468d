import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cconvex.costs import CostSpec, evaluate_cost, tabulate_cost
from cconvex.grids import DiscreteMeasure, GridFunction, make_uniform_grid, sample_function
from cconvex.jensen import (NoAdmissibleWitnessError, classical_reduction_check,
                            discrete_jensen_gap, integral_jensen_bound,
                            midpoint_bound, support_concavity_check,
                            weighted_integral_bound)
from oracles import loop_discrete_jensen, loop_quadrature

BILINEAR = CostSpec("bilinear")


def square_on_unit(n=5):
    g = make_uniform_grid(0, 1, n)
    return sample_function(lambda x: x * x, g)


class TestDiscreteGap:
    def test_square_symmetric_two_atoms(self):
        f = square_on_unit()
        mu = DiscreteMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        r = discrete_jensen_gap(f, BILINEAR, mu, y=1.0)
        assert r.lhs == pytest.approx(0.25, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)
        assert r.holds and r.hypothesis_verified

    def test_single_atom_degenerate(self):
        f = square_on_unit()
        mu = DiscreteMeasure.from_atoms([(0.5, 1.0)])
        r = discrete_jensen_gap(f, BILINEAR, mu, y=1.0)
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)
        assert r.holds

    def test_equality_when_f_is_a_cost_column(self):
        g = make_uniform_grid(0, 1, 9)
        y0 = 0.5
        f = GridFunction(g, np.asarray(evaluate_cost(BILINEAR, g.points, y0)))
        mu = DiscreteMeasure.from_atoms([(0.0, 0.25), (0.5, 0.25), (1.0, 0.5)])
        r = discrete_jensen_gap(f, BILINEAR, mu, y=y0)
        assert abs(r.slack) <= 1e-12
        assert r.holds

    def test_bilinear_cost_side_vanishes(self):
        # bilinear rhs = y * (sum p_i x_i - b) cancels to rounding error,
        # so the bound degenerates to classical Jensen
        f = square_on_unit(9)
        mu = DiscreteMeasure.from_atoms([(0.0, 0.125), (0.25, 0.25),
                                         (0.5, 0.125), (1.0, 0.5)])
        r = discrete_jensen_gap(f, BILINEAR, mu, y=1.0)
        assert abs(r.rhs) <= 1e-12
        assert r.lhs >= -1e-12

    def test_one_affine_cost_side_vanishes(self):
        spec = CostSpec("one_affine", a_coeffs=(1.0, 0.0, 2.0), b_coeffs=(0.5, -1.0))
        f = square_on_unit(9)
        mu = DiscreteMeasure.from_atoms([(0.0, 0.25), (0.5, 0.25), (1.0, 0.5)])
        r = discrete_jensen_gap(f, spec, mu, y=0.75)
        assert abs(r.rhs) <= 1e-12

    def test_unverified_witness_is_flagged_not_raised(self):
        f = square_on_unit(9)
        mu = DiscreteMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        r = discrete_jensen_gap(f, BILINEAR, mu, y=5.0)
        assert not r.hypothesis_verified
        assert "hypothesis-unverified" in r.notes

    def test_auto_witness_search(self):
        f = square_on_unit(33)
        mu = DiscreteMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        gj = make_uniform_grid(-2, 2, 65)
        r = discrete_jensen_gap(f, BILINEAR, mu, grid_j=gj)
        assert r.hypothesis_verified
        assert r.y_witness == pytest.approx(1.0, abs=2 * gj.h)
        assert r.holds

    def test_no_admissible_witness(self):
        g = make_uniform_grid(-1, 1, 33)
        f = GridFunction(g, -g.points**2)  # concave: empty subdifferential inside
        mu = DiscreteMeasure.from_atoms([(-0.5, 0.5), (0.5, 0.5)])
        with pytest.raises(NoAdmissibleWitnessError):
            discrete_jensen_gap(f, BILINEAR, mu, grid_j=g)

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_non_finite_witness(self, y):
        mu = DiscreteMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(ValueError, match=f"^witness y must be finite, got {y}$"):
            discrete_jensen_gap(square_on_unit(9), BILINEAR, mu, y=y)

    def test_witness_needs_grid_or_value(self):
        f = square_on_unit()
        mu = DiscreteMeasure.from_atoms([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(ValueError, match="no witness"):
            discrete_jensen_gap(f, BILINEAR, mu)

    def test_atom_outside_interval(self):
        f = square_on_unit()
        mu = DiscreteMeasure.from_atoms([(0.0, 0.5), (2.0, 0.5)])
        with pytest.raises(ValueError, match="outside"):
            discrete_jensen_gap(f, BILINEAR, mu, y=1.0)

    def test_endpoint_barycenter_is_a_note_not_an_error(self):
        f = square_on_unit()
        mu = DiscreteMeasure.from_atoms([(0.0, 1.0)])
        r = discrete_jensen_gap(f, BILINEAR, mu, y=0.0)
        assert "endpoint" in r.notes


def report_bits(r):
    return {k: float(v).hex() if isinstance(v, float) else bool(v) if k == "holds" else v
            for k, v in dataclasses.asdict(r).items()}


def outcome(fn, *args, **kwargs):
    try:
        return report_bits(fn(*args, **kwargs))
    except ValueError as e:
        return type(e).__name__, str(e)


LOOP_FAMILIES = (BILINEAR, CostSpec("one_affine", a_coeffs=(0.2, 0.8, -0.3), b_coeffs=(0.1, 1.0)),
                 CostSpec("neg_quadratic", scale=1.7), CostSpec("reflector"))


class TestLoopIdentity:
    """discrete_jensen_gap against the atom-at-a-time loop it replaced,
    bit for bit, errors included."""

    @pytest.mark.parametrize("seed", range(80))
    def test_discrete_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        spec = LOOP_FAMILIES[seed % 4]
        g = make_uniform_grid(-rng.uniform(0, 1), rng.uniform(0.1, 1), 2 + seed)
        gj = make_uniform_grid(-0.9, 0.9, 2 + seed % 30)
        if seed % 3 == 0:  # c-convex: the max of two shifted cost columns
            y1, y2 = rng.uniform(-0.9, 0.9, 2)
            vals = np.maximum(evaluate_cost(spec, g.points, y1), evaluate_cost(spec, g.points, y2) - 0.1)
        elif seed % 3 == 1:
            vals = rng.normal(size=g.n)
        else:
            vals = np.full(g.n, -0.0)
        f = GridFunction(g, vals)
        k = 1 if seed % 5 == 0 else int(rng.integers(2, 7))
        pos = rng.uniform(g.interval.lo, g.interval.hi, k)
        if seed % 7 == 0:
            pos[-1] = g.interval.hi + 0.25
        w = rng.uniform(0.1, 1, k)
        mu = DiscreteMeasure(pos, w / w.sum())
        y = float(rng.uniform(-0.9, 0.9)) if seed % 2 else None
        args = (f, spec, mu)
        kwargs = dict(y=y, tol=1e-9, grid_j=gj)
        assert outcome(discrete_jensen_gap, *args, **kwargs) == outcome(loop_discrete_jensen,
                                                                        *args, **kwargs)

    def test_negative_zero_sums_are_positive_zero(self):
        g = make_uniform_grid(-1, 1, 9)
        f = GridFunction(g, np.full(9, -0.0))
        mu = DiscreteMeasure.from_atoms([(-0.5, 0.5), (-0.25, 0.5)])
        r = discrete_jensen_gap(f, BILINEAR, mu, y=0.0)
        assert report_bits(r) == report_bits(loop_discrete_jensen(f, BILINEAR, mu, y=0.0))
        assert float(r.lhs).hex() == float(r.rhs).hex() == "0x0.0p+0"
        # every atom's cost term is -0.0 and c(b, y) is +0.0, so only the
        # leading 0.0 of the cost-side sum decides the sign of rhs
        signed = CostSpec("translation", h=lambda d: np.where(d == 0.0, 0.0, -0.0))
        mu = DiscreteMeasure.from_atoms([(-0.5, 0.5), (0.5, 0.5)])
        r = discrete_jensen_gap(f, signed, mu, y=0.0)
        assert report_bits(r) == report_bits(loop_discrete_jensen(f, signed, mu, y=0.0))
        assert float(r.rhs).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("seed", range(12))
    def test_classical_reduction_matches_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        spec = CostSpec("one_affine", a_coeffs=tuple(rng.normal(size=3)),
                        b_coeffs=tuple(rng.normal(size=2)))
        g = make_uniform_grid(-1, 1, 3 + 2 * seed)
        gj = make_uniform_grid(-2, 2, 2 + seed)
        f = GridFunction(g, rng.normal(size=g.n) if seed % 2 else np.full(g.n, -0.0))
        entries = tabulate_cost(spec, g, gj).entries
        idx = g.nearest_index(0.0)
        worst = 0.0
        for j in range(gj.n):
            col = GridFunction(g, entries[:, j])
            worst = max(worst, abs(loop_quadrature(col) - entries[idx, j] * 2.0))
        v = classical_reduction_check(f, spec, gj)
        quad_tol = float(v.notes.split("quad_tol=")[1])
        classical = float(f.values[idx]) - loop_quadrature(f) / 2.0
        want = max(worst - quad_tol, classical - quad_tol)
        assert float(v.max_violation).hex() == float(want).hex()


class TestMidpointForm:
    def test_routes_through_discrete_bit_exact(self):
        f = square_on_unit(9)
        r1 = midpoint_bound(f, BILINEAR, 0.0, 1.0, y=1.0)
        mu = DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        r2 = discrete_jensen_gap(f, BILINEAR, mu, y=1.0)
        assert (r1.lhs, r1.rhs, r1.slack) == (r2.lhs, r2.rhs, r2.slack)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_slack_mirrors_support_concavity_excess(self, seed):
        rng = np.random.default_rng(seed)
        g = make_uniform_grid(0, 1, 17)
        f = GridFunction(g, rng.uniform(-1, 1, 17))
        a, b = sorted(rng.choice(g.points, 2, replace=False))
        y = float(rng.uniform(-2, 2))
        r = midpoint_bound(f, BILINEAR, float(a), float(b), y=y)
        v = support_concavity_check(f, BILINEAR, float(a), float(b), y)
        # both evaluate the same midpoint-concavity quantity with opposite sign
        assert r.slack == pytest.approx(-(v.max_violation + v_tol(v)), abs=1e-10)


def v_tol(v):
    return float(v.notes.split("tol=")[1])


class TestSupportConcavity:
    def test_cost_column_is_flat(self):
        g = make_uniform_grid(0, 1, 9)
        f = GridFunction(g, np.asarray(evaluate_cost(BILINEAR, g.points, 0.5)))
        v = support_concavity_check(f, BILINEAR, 0.0, 1.0, 0.5)
        assert v.holds

    def test_convex_f_passes(self):
        f = square_on_unit(9)
        v = support_concavity_check(f, BILINEAR, 0.0, 1.0, 1.0)
        assert v.holds

    def test_concave_f_fails(self):
        g = make_uniform_grid(-1, 1, 9)
        f = GridFunction(g, -g.points**2)
        v = support_concavity_check(f, BILINEAR, -1.0, 1.0, 0.0)
        assert not v.holds
        assert v.witness == (-1.0, 1.0, 0.0)

    @pytest.mark.parametrize("a, b, y, match", [
        # np.interp used to clamp -5 and 5 to the ends, which then held as -1, 1 do
        (-5.0, 5.0, 0.0, r"^a = -5.0 lies outside the interval \[-1.0, 1.0\]$"),
        (-1.0, 1.0 + 2**-52, 0.0, r"^b = 1.0000000000000002 lies outside the interval"),
        # NaN used to give a violated conclusion with max_violation nan
        (float("nan"), 1.0, 0.0, r"^a = nan lies outside the interval"),
        (-1.0, float("nan"), 0.0, r"^b = nan lies outside the interval"),
        (-1.0, 1.0, float("nan"), r"^y must be finite, got nan$"),
        (-1.0, 1.0, float("inf"), r"^y must be finite, got inf$"),
    ])
    def test_bad_points_rejected_before_work(self, monkeypatch, a, b, y, match):
        def no_work(*args, **kwargs):
            raise AssertionError("evaluated before the input check")

        monkeypatch.setattr("cconvex.jensen.evaluate_cost", no_work)
        monkeypatch.setattr("cconvex.jensen._f_value", no_work)
        with pytest.raises(ValueError, match=match):
            support_concavity_check(X2, BILINEAR, a, b, y)


class TestIntegralForm:
    def test_square_midpoint(self):
        g = make_uniform_grid(0, 1, 1001)
        f = GridFunction(g, g.points**2)
        r = integral_jensen_bound(f, BILINEAR, xi=0.5, y=1.0)
        assert r.lhs == pytest.approx(1.0 / 12.0, abs=1e-6)
        assert r.rhs == pytest.approx(0.0, abs=1e-6)
        assert r.holds and r.hypothesis_verified

    def test_default_xi_is_midpoint(self):
        g = make_uniform_grid(0, 1, 101)
        f = GridFunction(g, g.points**2)
        r1 = integral_jensen_bound(f, BILINEAR, y=1.0)
        r2 = integral_jensen_bound(f, BILINEAR, xi=0.5, y=1.0)
        assert (r1.lhs, r1.rhs) == (r2.lhs, r2.rhs)

    def test_off_grid_xi_snaps_with_note(self):
        g = make_uniform_grid(0, 1, 101)
        f = GridFunction(g, g.points**2)
        r = integral_jensen_bound(f, BILINEAR, xi=0.503, y=1.0)
        assert "snapped" in r.notes

    def test_matches_weighted_form_with_quadrature_weights(self):
        # trapezoid weights / interval length turn the integral form into
        # the weighted discrete form up to the length normalization
        g = make_uniform_grid(0, 1, 201)
        f = GridFunction(g, g.points**2)
        w = np.full(g.n, g.h)
        w[0] = w[-1] = g.h / 2.0
        mu = DiscreteMeasure(g.points.copy(), w / w.sum())
        ri = integral_jensen_bound(f, BILINEAR, xi=0.5, y=1.0)
        rw = weighted_integral_bound(f, BILINEAR, mu, y=1.0)
        assert ri.lhs == pytest.approx(rw.lhs * g.interval.length, abs=1e-9)
        assert ri.rhs == pytest.approx(rw.rhs * g.interval.length, abs=1e-9)

    def test_requires_finite(self):
        g = make_uniform_grid(0, 1, 11)
        f = GridFunction(g, [np.inf] + [0.0] * 10)
        with pytest.raises(ValueError, match="finite"):
            integral_jensen_bound(f, BILINEAR, y=0.0)

    @pytest.mark.parametrize("xi, y, message", [
        (np.nan, 1.0, "^xi must be finite, got nan$"),
        (-np.inf, 1.0, "^xi must be finite, got -inf$"),
        (0.5, np.inf, "^witness y must be finite, got inf$"),
        (None, np.nan, "^witness y must be finite, got nan$"),
        (5.0, 1.0, r"^xi = 5.0 lies outside the interval \[0.0, 1.0\]$"),
        (-1e9, 1.0, r"^xi = -1000000000.0 lies outside the interval \[0.0, 1.0\]$"),
        (np.nextafter(1.0, 2.0), 1.0, r"^xi = 1.0000000000000002 lies outside the interval"),
    ])
    def test_non_finite_xi_or_y(self, xi, y, message):
        g = make_uniform_grid(0, 1, 11)
        with pytest.raises(ValueError, match=message):
            integral_jensen_bound(GridFunction(g, g.points**2), BILINEAR, xi=xi, y=y)


class TestWeightedForm:
    def test_asymmetric_weights(self):
        f = square_on_unit()
        mu = DiscreteMeasure.from_atoms([(0.0, 0.25), (1.0, 0.75)])
        r = weighted_integral_bound(f, BILINEAR, mu, y=1.5)
        assert r.lhs == pytest.approx(0.1875, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)
        assert r.holds and r.hypothesis_verified

    def test_endpoint_barycenter_rejected(self):
        f = square_on_unit()
        mu = DiscreteMeasure.from_atoms([(1.0, 1.0)])
        with pytest.raises(ValueError, match="interior"):
            weighted_integral_bound(f, BILINEAR, mu, y=1.0)


class TestClassicalReduction:
    def test_bilinear_convex_f(self):
        g = make_uniform_grid(0, 1, 101)
        f = GridFunction(g, g.points**2)
        v = classical_reduction_check(f, BILINEAR, make_uniform_grid(-1, 1, 11))
        assert v.holds

    def test_polynomial_one_affine(self):
        spec = CostSpec("one_affine", a_coeffs=(1.0, 0.0, 0.0, 1.0),
                        b_coeffs=(0.3, 0.2, -0.4))
        g = make_uniform_grid(-1, 1, 101)
        f = GridFunction(g, np.abs(g.points))
        v = classical_reduction_check(f, spec, make_uniform_grid(-1, 1, 9))
        assert v.holds

    def test_concave_f_fails(self):
        g = make_uniform_grid(-1, 1, 101)
        f = GridFunction(g, -g.points**2)
        v = classical_reduction_check(f, BILINEAR, make_uniform_grid(-1, 1, 9))
        assert not v.holds
        assert v.max_violation == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_non_affine_cost_rejected(self):
        g = make_uniform_grid(-1, 1, 21)
        f = GridFunction(g, g.points**2)
        with pytest.raises(ValueError, match="not 1-affine"):
            classical_reduction_check(f, CostSpec("neg_quadratic"), g)



# x^2 on a 33-point grid, its J grid, and a two-atom measure: the inputs of
# every Jensen entry point called with a bad tol
G33 = make_uniform_grid(-1, 1, 33)
X2 = GridFunction(G33, G33.points**2)
MU = DiscreteMeasure.from_atoms([(-0.5, 0.5), (0.25, 0.5)])
ENTRY_POINTS = {
    "discrete": lambda tol: discrete_jensen_gap(X2, BILINEAR, MU, tol=tol, grid_j=G33),
    "midpoint": lambda tol: midpoint_bound(X2, BILINEAR, -0.5, 0.25, tol=tol, grid_j=G33),
    "weighted": lambda tol: weighted_integral_bound(X2, BILINEAR, MU, tol=tol, grid_j=G33),
    "integral": lambda tol: integral_jensen_bound(X2, BILINEAR, tol=tol, grid_j=G33),
    "support_concavity": lambda tol: support_concavity_check(X2, BILINEAR, -0.5, 0.25, 0.0,
                                                             tol=tol),
    "classical_reduction": lambda tol: classical_reduction_check(X2, BILINEAR, G33, tol=tol),
}


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_tol_rejected_before_work(monkeypatch, entry, tol):
    # on these inputs NaN used to give holds=False with a verified
    # hypothesis, -1 a witness search failure or holds=False, inf a pass
    def no_work(*args, **kwargs):
        raise AssertionError("cost evaluated before the tol check")

    monkeypatch.setattr("cconvex.jensen.evaluate_cost", no_work)
    monkeypatch.setattr("cconvex.jensen.tabulate_cost", no_work)
    with pytest.raises(ValueError, match=f"^tol must be finite and >= 0, got {tol}$"):
        ENTRY_POINTS[entry](tol)
