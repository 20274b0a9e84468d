import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cconvex.grids import (DiscreteMeasure, Grid, GridFunction, Interval, _composite_rule,
                           _ordered_sum, barycenter, make_uniform_grid, quadrature, read_grid_function_csv,
                           sample_function, sup_norm_diff, write_grid_function_csv)
from cconvex.propcheck import InstanceConfig, generate_instance
from oracles import loop_barycenter, loop_mass, loop_quadrature


def bits(x) -> str:
    """The exact float64 value, signed zero included."""
    return float(x).hex()


def wild(rng, size):
    """Values spread over 16 decades, so the order of summation shows."""
    return rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size)


class TestGrid:
    def test_two_point_grid(self):
        g = make_uniform_grid(0, 1, 2)
        assert list(g.points) == [0.0, 1.0]
        assert g.h == 1.0

    def test_symmetric_grid(self):
        g = make_uniform_grid(-1, 1, 5)
        assert list(g.points) == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_midpoint_of_uniform_grid(self):
        g = make_uniform_grid(0, 1, 101)
        assert g.h == 0.01
        assert g.points[50] == 0.5

    def test_endpoints_exact(self):
        g = make_uniform_grid(0.1, 0.9, 7)
        assert g.points[0] == 0.1
        assert g.points[-1] == 0.9

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_grid(1, 1, 5)
        with pytest.raises(ValueError):
            make_uniform_grid(2, 1, 5)

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-math.inf, 0.0), (-1.5e308, 5e307)])
    def test_overflowing_length_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="interval"):
            make_uniform_grid(lo, hi, 5)

    @pytest.mark.parametrize("lo, hi, n", [(0, 5e-324, 3), (1, 1 + 2.3e-16, 5)])
    def test_repeated_points_rejected(self, lo, hi, n):
        # h = 0.0 gave [0.0, 0.0, 5e-324], and h = 5.55e-17 repeated 1.0 three times
        with pytest.raises(ValueError, match=rf"^\[{float(lo)}, {float(hi)}\] is too short "
                                             rf"for {n} strictly increasing grid points$"):
            make_uniform_grid(lo, hi, n)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_grid(0, 1, 1)

    @pytest.mark.parametrize("n", [2.5, 2.9, "3", np.float64(5.0)])
    def test_non_integer_size_rejected(self, n):
        # 2.9 used to give a 2-point grid, and Grid(..., 2.5) a grid of 3
        # points with h = 4/3, which is not uniform
        message = re.escape(f"grid size must be an integer, got n={n!r}")
        for build in (lambda: Grid(Interval(-1.0, 1.0), n), lambda: make_uniform_grid(-1, 1, n),
                      lambda: generate_instance(InstanceConfig(seed=0, n=n, m=5)),
                      lambda: generate_instance(InstanceConfig(seed=0, n=5, m=n))):
            with pytest.raises(ValueError, match=message):
                build()

    def test_numpy_integer_size_accepted(self):
        g = make_uniform_grid(-1, 1, np.int64(5))
        assert type(g.n) is int and g == make_uniform_grid(-1, 1, 5)
        assert generate_instance(InstanceConfig(seed=0, n=np.int64(5), m=5))[0].grid == g

    @given(st.floats(-100, 100), st.floats(1e-3, 100), st.integers(2, 500))
    def test_regeneration_bit_identical(self, lo, length, n):
        a = make_uniform_grid(lo, lo + length, n)
        b = make_uniform_grid(lo, lo + length, n)
        assert np.array_equal(a.points, b.points)
        assert a.h == b.h


class TestSampleFunction:
    def test_square(self):
        f = sample_function(lambda x: x * x, make_uniform_grid(-1, 1, 3))
        assert list(f.values) == [1.0, 0.0, 1.0]

    def test_zero(self):
        f = sample_function(lambda x: 0.0, make_uniform_grid(0, 1, 5))
        assert not f.values.any()

    def test_proper_sentinel(self):
        f = sample_function(lambda x: math.inf if x < 0 else 0.0,
                            make_uniform_grid(-1, 1, 3))
        assert list(f.values) == [math.inf, 0.0, 0.0]

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            sample_function(lambda x: float("nan"), make_uniform_grid(0, 1, 3))

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            sample_function(lambda x: math.inf, make_uniform_grid(0, 1, 3))


NAN_MESSAGE = "^NaN values are not allowed in a GridFunction$"
NEGINF_MESSAGE = "^-inf values are not allowed in a GridFunction$"
IMPROPER_MESSAGE = "^improper function: no finite value on the grid$"


class TestGridFunctionValidation:
    """One reduction decides every rejection, in the order NaN, -inf, no
    finite value, whatever else the values hold."""

    @pytest.mark.parametrize("values, message", [
        ([math.nan, -math.inf, math.inf, 0.0], NAN_MESSAGE),
        ([-math.inf, math.nan, 1.0], NAN_MESSAGE),
        ([math.inf, math.inf, math.nan], NAN_MESSAGE),
        ([math.inf, -math.inf, math.inf], NEGINF_MESSAGE),
        ([2.0, -math.inf, math.inf], NEGINF_MESSAGE),
        ([-math.inf, -math.inf, -math.inf], NEGINF_MESSAGE),
        ([math.inf, math.inf, math.inf], IMPROPER_MESSAGE),
    ])
    def test_first_failing_rule_names_the_error(self, values, message):
        with pytest.raises(ValueError, match=message):
            GridFunction(make_uniform_grid(0, 1, len(values)), values)

    @pytest.mark.parametrize("values", [[math.inf, 0.0, math.inf], [-1e308, 1e308, 0.0],
                                        [-0.0, 5e-324, math.inf]])
    def test_proper_values_pass(self, values):
        f = GridFunction(make_uniform_grid(0, 1, 3), values)
        assert [bits(v) for v in f.values] == [bits(v) for v in values]

    def test_derived_values_are_computed_once(self):
        g = make_uniform_grid(0, 1, 3)
        f, inf = GridFunction(g, [0.0, 2.0, 1.0]), GridFunction(g, [0.0, math.inf, 1.0])
        assert (f.is_finite, f.max_slope(), inf.is_finite, inf.max_slope()) == (True, 4.0, False, 0.0)
        assert vars(f)["is_finite"] is True and vars(f)["_max_slope"] == 4.0


class TestSupNormDiff:
    def test_identity(self):
        f = sample_function(lambda x: x, make_uniform_grid(0, 1, 9))
        assert sup_norm_diff(f, f) == 0.0

    def test_simple(self):
        g = make_uniform_grid(0, 1, 2)
        assert sup_norm_diff(GridFunction(g, [0, 0]), GridFunction(g, [0, 1])) == 1.0

    def test_three_points(self):
        g = make_uniform_grid(0, 1, 3)
        assert sup_norm_diff(GridFunction(g, [1, 2, 3]), GridFunction(g, [1, 2, 2.5])) == 0.5

    def test_grid_mismatch(self):
        f = GridFunction(make_uniform_grid(0, 1, 3), [0, 0, 0])
        g = GridFunction(make_uniform_grid(0, 2, 3), [0, 0, 0])
        with pytest.raises(ValueError, match="mismatch"):
            sup_norm_diff(f, g)

    def test_infinite_rejected(self):
        g = make_uniform_grid(0, 1, 3)
        f = GridFunction(g, [math.inf, 0, 0])
        with pytest.raises(ValueError, match="finite"):
            sup_norm_diff(f, GridFunction(g, [0, 0, 0]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        g = make_uniform_grid(0, 1, 17)
        f1, f2, f3 = (GridFunction(g, rng.uniform(-5, 5, 17)) for _ in range(3))
        assert sup_norm_diff(f1, f3) <= sup_norm_diff(f1, f2) + sup_norm_diff(f2, f3) + 1e-12


class TestQuadrature:
    def test_constant(self):
        f = sample_function(lambda x: 1.0, make_uniform_grid(0, 1, 11))
        assert quadrature(f) == pytest.approx(1.0, abs=1e-15)

    def test_trapezoid_exact_on_affine(self):
        f = sample_function(lambda x: x, make_uniform_grid(0, 1, 101))
        assert quadrature(f) == pytest.approx(0.5, abs=1e-14)

    def test_square_against_analytic_integral(self):
        f = sample_function(lambda x: x * x, make_uniform_grid(0, 1, 1001))
        assert quadrature(f) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_infinite_rejected(self):
        g = make_uniform_grid(0, 1, 3)
        with pytest.raises(ValueError):
            quadrature(GridFunction(g, [math.inf, 0, 0]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_additivity(self, seed):
        rng = np.random.default_rng(seed)
        g = make_uniform_grid(-2, 3, 33)
        a = rng.uniform(-1, 1, 33)
        b = rng.uniform(-1, 1, 33)
        lhs = quadrature(GridFunction(g, a + b))
        rhs = quadrature(GridFunction(g, a)) + quadrature(GridFunction(g, b))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestDiscreteMeasure:
    def test_barycenter_symmetry(self):
        mu = DiscreteMeasure.from_atoms([(0, 0.5), (1, 0.5)])
        assert barycenter(mu) == 0.5

    def test_single_atom(self):
        assert barycenter(DiscreteMeasure.from_atoms([(2, 1.0)])) == 2.0

    def test_weighted_mean(self):
        mu = DiscreteMeasure.from_atoms([(0, 0.25), (1, 0.75)])
        assert barycenter(mu) == 0.75

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMeasure.from_atoms([(0, 0.5), (1, 0.6)])

    def test_positive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            DiscreteMeasure.from_atoms([(0, 1.5), (1, -0.5)])

    @pytest.mark.parametrize("atoms, message", [
        ([(0, math.nan), (1, -0.5)], "^atoms must be finite$"),
        ([(math.inf, 1.5), (1, -0.5)], "^atoms must be finite$"),
        ([(0, -math.inf), (1, 0.5)], "^atoms must be finite$"),
        ([(0, 0.0), (1, 1.0)], "^weights must be strictly positive$"),
        ([(0, -0.0), (1, 1.0)], "^weights must be strictly positive$"),
        ([(0, 0.5), (1, 0.25)], "^weights must sum to 1 within 1e-12, got 0.75$"),
    ])
    def test_first_failing_rule_names_the_error(self, atoms, message):
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure.from_atoms(atoms)

    def test_owns_read_only_copies(self):
        xs, ps = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        mu = DiscreteMeasure(xs, ps)
        xs[0], ps[0] = 9.0, 9.0
        assert list(mu.positions) == [0.0, 1.0] and list(mu.weights) == [0.5, 0.5]
        assert not (mu.positions.flags.writeable or mu.weights.flags.writeable)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        xs = rng.uniform(-3, 3, k)
        w = rng.uniform(0.1, 1, k)
        w /= w.sum()
        w = w / w.sum()  # renormalize twice to land within the mass tolerance
        perm = rng.permutation(k)
        b1 = barycenter(DiscreteMeasure(xs, w))
        b2 = barycenter(DiscreteMeasure(xs[perm], w[perm]))
        assert b1 == pytest.approx(b2, abs=1e-12)


class TestOrderedSum:
    """The loop-free sums against the left-to-right loops they replace."""

    def test_adds_left_to_right_not_pairwise(self):
        rng = np.random.default_rng(0)
        pairwise_differs = 0
        for size in range(1, 300):
            v = wild(rng, size)
            acc = v[0]
            for t in v[1:]:
                acc += t
            assert bits(_ordered_sum(v)) == bits(acc)
            pairwise_differs += bits(np.sum(v)) != bits(acc)
        assert pairwise_differs > 0

    def test_along_an_axis(self):
        v = wild(np.random.default_rng(1), (7, 5))
        assert np.array_equal(_ordered_sum(v, axis=1), [_ordered_sum(row) for row in v])

    @pytest.mark.parametrize("seed", range(40))
    def test_quadrature_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        g = make_uniform_grid(-rng.uniform(0, 2), rng.uniform(0.1, 2), 2 + seed)
        f = GridFunction(g, wild(rng, g.n))
        assert bits(quadrature(f)) == bits(loop_quadrature(f))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
    def test_quadrature_of_negative_zeros(self, n):
        f = GridFunction(make_uniform_grid(0, 1, n), np.full(n, -0.0))
        assert bits(quadrature(f)) == bits(loop_quadrature(f))
        # the loop starts from -0.0 * 0.5
        assert bits(quadrature(f)) == "-0x0.0p+0"

    @pytest.mark.parametrize("n", [2, 12])
    def test_quadrature_of_columns(self, n):
        g = make_uniform_grid(-1, 2, n)
        entries = wild(np.random.default_rng(n), (n, 6))
        entries[:, 0] = -0.0
        got = _composite_rule(entries, g.h)
        want = [loop_quadrature(GridFunction(g, entries[:, j])) for j in range(6)]
        assert [bits(v) for v in got] == [bits(v) for v in want]

    @pytest.mark.parametrize("seed", range(40))
    def test_barycenter_and_mass_match_loop(self, seed):
        rng = np.random.default_rng(seed)
        k = 1 + seed % 9
        xs = wild(rng, k)
        w = rng.uniform(0.1, 1, k)
        w /= loop_mass(w)
        mu = DiscreteMeasure(xs, w)
        assert bits(barycenter(mu)) == bits(loop_barycenter(mu))

    def test_single_atom_and_negative_zero_atoms(self):
        assert bits(barycenter(DiscreteMeasure.from_atoms([(-0.0, 1.0)]))) == "0x0.0p+0"
        mu = DiscreteMeasure(np.full(4, -0.0), np.full(4, 0.25))
        assert bits(barycenter(mu)) == bits(loop_barycenter(mu))
        mu = DiscreteMeasure.from_atoms([(-0.75, 1.0)])
        assert bits(barycenter(mu)) == bits(loop_barycenter(mu))

    @pytest.mark.parametrize("seed", range(20))
    def test_mass_check_at_the_tolerance_edge(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 1, 1 + seed % 7)
        w = w / w.sum() * (1 + rng.uniform(-2e-12, 2e-12))
        total = loop_mass(w)
        if abs(total - 1.0) > 1e-12:
            with pytest.raises(ValueError, match=re.escape(f"got {total}") + "$"):
                DiscreteMeasure(np.zeros_like(w), w)
        else:
            DiscreteMeasure(np.zeros_like(w), w)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        f = sample_function(lambda x: math.inf if x < 0 else x * x,
                            make_uniform_grid(-1, 1, 9))
        path = tmp_path / "f.csv"
        write_grid_function_csv(path, f)
        g = read_grid_function_csv(str(path))
        assert g.grid == f.grid
        assert np.array_equal(g.values, f.values)

    def test_nonuniform_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,f\n0,1\n0.5,1\n2,1\n")
        with pytest.raises(ValueError, match="uniform"):
            read_grid_function_csv(str(path))

    def test_decreasing_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n-1,1\n-2,1\n")
        with pytest.raises(ValueError, match="increasing"):
            read_grid_function_csv(str(path))
