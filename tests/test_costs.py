import math
import tracemalloc

import numpy as np
import pytest

from cconvex import costs
from cconvex.costs import (MAX_DENSE_CELLS, CostDomainError, CostSpec, check_structure,
                           evaluate_cost, read_cost_csv, segment_concavity_excess,
                           tabulate_callable, tabulate_cost, write_cost_csv)
from cconvex.grids import make_uniform_grid


class TestEvaluate:
    def test_bilinear(self):
        assert evaluate_cost(CostSpec("bilinear"), 2, 3) == 6.0

    def test_reflector_zero_row(self):
        for y in (-0.5, 0.0, 0.7):
            assert evaluate_cost(CostSpec("reflector"), 0.0, y) == 0.0

    def test_neg_quadratic_diagonal(self):
        assert evaluate_cost(CostSpec("neg_quadratic"), 1, 1) == 0.0

    def test_one_affine(self):
        # a(y) = y, b(y) = 0 is the bilinear cost
        spec = CostSpec("one_affine", a_coeffs=(0.0, 1.0), b_coeffs=(0.0,))
        assert evaluate_cost(spec, 2.0, 3.0) == 6.0

    def test_translation(self):
        spec = CostSpec("translation", h=lambda t: t**2)
        assert evaluate_cost(spec, 3.0, 1.0) == 4.0

    def test_reflector_domain_violation(self):
        with pytest.raises(CostDomainError) as e:
            evaluate_cost(CostSpec("reflector"), 2.0, 1.0)
        assert e.value.x == 2.0 and e.value.y == 1.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            CostSpec("nope")


    @pytest.mark.parametrize("spec", [
        CostSpec("bilinear"),
        CostSpec("one_affine", a_coeffs=(0.2, 0.8, -0.3), b_coeffs=(0.1, 1.0)),
        CostSpec("neg_quadratic", scale=1.7),
        CostSpec("reflector"),
    ], ids=lambda s: s.family)
    def test_scalar_calls_match_array_entries(self, spec):
        rng = np.random.default_rng(3)
        # (0.836, 0.461) is a point where a scalar ** 2 rounds one ulp off
        x = np.r_[0.836, rng.uniform(-0.95, 0.95, 2000)]
        y = np.r_[0.461, rng.uniform(-0.95, 0.95, 2000)]
        row = evaluate_cost(spec, x, y)
        table = evaluate_cost(spec, x[:40, None], y[None, :40])
        assert [evaluate_cost(spec, float(a), float(b)) for a, b in zip(x, y)] == row.tolist()
        assert [[evaluate_cost(spec, float(a), float(b)) for b in y[:40]]
                for a in x[:40]] == table.tolist()


class TestCellBudget:
    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(costs, "MAX_DENSE_CELLS", 12)
        g3, g4, g5 = (make_uniform_grid(-1, 1, n) for n in (3, 4, 5))
        assert tabulate_cost(CostSpec("bilinear"), g3, g4).entries.shape == (3, 4)
        assert tabulate_callable(np.multiply, g4, g3).entries.shape == (4, 3)
        for grids in ((g3, g5), (g5, g3)):
            with pytest.raises(ValueError, match="has 15 cells, above the budget of 12$"):
                tabulate_cost(CostSpec("bilinear"), *grids)
            with pytest.raises(ValueError, match="has 15 cells, above the budget of 12$"):
                tabulate_callable(np.multiply, *grids)

    def test_rejected_before_allocating(self):
        # 8193**2 is just over 2**26: the check allocates O(1), never the table
        n = 8193
        assert n * n > MAX_DENSE_CELLS >= (n - 1) ** 2
        g = make_uniform_grid(-1, 1, n)

        def no_call(x, y):
            raise AssertionError("callable evaluated over the budget")

        tracemalloc.start()
        try:
            for call in (lambda: tabulate_cost(CostSpec("bilinear"), g, g),
                         lambda: tabulate_callable(no_call, g, g)):
                with pytest.raises(ValueError, match=f"dense {n} x {n} cost table"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n + n)


class TestTabulate:
    def test_bilinear_two_by_two(self):
        gi = make_uniform_grid(0, 1, 2)
        m = tabulate_cost(CostSpec("bilinear"), gi, gi)
        assert m.entries.tolist() == [[0, 0], [0, 1]]

    def test_one_affine_matches_bilinear(self):
        gi = make_uniform_grid(-1, 1, 9)
        spec = CostSpec("one_affine", a_coeffs=(0.0, 1.0), b_coeffs=(0.0,))
        a = tabulate_cost(spec, gi, gi)
        b = tabulate_cost(CostSpec("bilinear"), gi, gi)
        assert np.allclose(a.entries, b.entries, atol=1e-15)

    def test_reflector_range(self):
        g = make_uniform_grid(0, 0.5, 11)
        m = tabulate_cost(CostSpec("reflector"), g, g)
        assert m.entries.min() == 0.0
        assert m.entries.max() == pytest.approx(-math.log(0.75), abs=1e-12)
        # entries increase with x for fixed y > 0 (direct evaluation check)
        col = m.entries[:, -1]
        assert (np.diff(col) > 0).all()

    def test_reflector_domain_violation_names_the_pair(self):
        g = make_uniform_grid(0, 2, 5)
        with pytest.raises(CostDomainError, match=r"x\*y < 1"):
            tabulate_cost(CostSpec("reflector"), g, g)


class TestStructure:
    def setup_method(self):
        self.g = make_uniform_grid(-1, 1, 21)

    def test_bilinear_is_one_and_two_affine(self):
        m = tabulate_cost(CostSpec("bilinear"), self.g, self.g)
        assert check_structure(m, "one_affine").holds
        assert check_structure(m, "two_affine").holds
        assert check_structure(m, "two_affine").max_violation <= 1e-12

    def test_neg_quadratic_one_concave_constant_curvature(self):
        m = tabulate_cost(CostSpec("neg_quadratic"), self.g, self.g)
        v = check_structure(m, "one_concave")
        assert v.holds
        d2 = np.diff(m.entries, 2, axis=0)
        assert np.allclose(d2, -2 * self.g.h**2, atol=1e-12)

    def test_reflector_one_convex(self):
        g = make_uniform_grid(0, 0.5, 21)
        m = tabulate_cost(CostSpec("reflector"), g, g)
        assert check_structure(m, "one_convex").holds
        assert not check_structure(m, "one_concave").holds

    def test_one_affine_column_is_a_straight_line(self):
        spec = CostSpec("one_affine", a_coeffs=(1.0, 0.0, 3.0), b_coeffs=(0.0, 1.0))
        m = tabulate_cost(spec, self.g, self.g)
        assert check_structure(m, "one_affine").holds
        x = self.g.points
        for j in range(self.g.n):
            col = m.entries[:, j]
            line = col[0] + (col[-1] - col[0]) * (x - x[0]) / (x[-1] - x[0])
            assert np.abs(col - line).max() <= 1e-9 * (1 + np.abs(m.entries).max())

    def test_witness_on_failure(self):
        m = tabulate_cost(CostSpec("neg_quadratic"), self.g, self.g)
        v = check_structure(m, "one_affine")
        assert not v.holds
        assert v.witness is not None

    def test_refinement_does_not_flip_verdicts(self):
        for family in ("bilinear", "neg_quadratic"):
            for prop in ("one_affine", "one_concave", "two_affine"):
                coarse = tabulate_cost(CostSpec(family), make_uniform_grid(-1, 1, 11),
                                       make_uniform_grid(-1, 1, 11))
                fine = tabulate_cost(CostSpec(family), make_uniform_grid(-1, 1, 21),
                                     make_uniform_grid(-1, 1, 21))
                assert check_structure(coarse, prop).holds == check_structure(fine, prop).holds

    def test_grid_too_small(self):
        gi = make_uniform_grid(0, 1, 2)
        m = tabulate_cost(CostSpec("bilinear"), gi, gi)
        with pytest.raises(ValueError, match="too small"):
            check_structure(m, "one_concave")

    def test_segment_concavity(self):
        m = tabulate_callable(lambda x, y: 0.4 * y - x**2, self.g, self.g)
        assert segment_concavity_excess(m) <= 1e-12
        m2 = tabulate_callable(lambda x, y: x**2 + y**2, self.g, self.g)
        assert segment_concavity_excess(m2) > 0


class TestCostCsv:
    def test_round_trip(self, tmp_path):
        g = make_uniform_grid(-1, 1, 7)
        m = tabulate_cost(CostSpec("neg_quadratic", scale=2.0), g, make_uniform_grid(0, 2, 5))
        path = tmp_path / "cost.csv"
        write_cost_csv(path, m)
        m2 = read_cost_csv(str(path))
        assert m2.grid_i == m.grid_i
        assert m2.grid_j == m.grid_j
        assert np.array_equal(m2.entries, m.entries)

    @pytest.mark.parametrize("text, message", [
        (",0,1\n0,0.1,0.2\n1,0.3,O.4\n", r"cost.csv:3: bad c\(x, y\[1\]\) value 'O.4'$"),
        (",0,1\n0,0.1,0.2\n1,0.3\n", r"cost.csv:3: expected 3 columns, got 2$"),
        (",0,1\n0,0.1,0.2,0.5\n1,0.3,0.4\n", r"cost.csv:2: expected 3 columns, got 4$"),
        (",0,one\n0,0.1,0.2\n1,0.3,0.4\n", r"cost.csv:1: bad y\[1\] value 'one'$"),
        (",0,1\n\nzero,0.1,0.2\n1,0.3,0.4\n", r"cost.csv:3: bad x value 'zero'$"),
        (",0,1\n0,0.1,0.2\n", r"cost.csv: cost matrix needs at least a 2x2 grid$"),
        (",0\n0,0.1\n1,0.3\n", r"cost.csv: cost matrix needs at least a 2x2 grid$"),
        ("", r"cost.csv: cost matrix needs at least a 2x2 grid$"),
    ])
    def test_bad_rows_name_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "cost.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_cost_csv(str(path))
