import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from cconvex import costs
from cconvex.costs import (MAX_DENSE_CELLS, STRUCTURE_PROPERTIES, CostDomainError, CostMatrix,
                           CostSpec, check_structure, evaluate_cost, read_cost_csv,
                           parse_cost_spec, segment_concavity_excess, tabulate_callable,
                           tabulate_cost, write_cost_csv)
from cconvex.grids import make_uniform_grid
from oracles import plain_evaluate_cost, separate_gate_holds


# the analytic families on grids where each is defined, and a one_affine
# with no b(y) coefficients
SPECS_ON = (
    (CostSpec("bilinear"), (-1.0, 1.0)),
    (CostSpec("neg_quadratic", scale=2.5), (-1.5, 1.5)),
    (CostSpec("reflector"), (-0.9, 0.9)),
    (CostSpec("one_affine", a_coeffs=(0.2, 0.8, 0.3), b_coeffs=(0.1, -1.0)), (-1.0, 1.0)),
    (CostSpec("one_affine", a_coeffs=(0.0, 1.0)), (-1.0, 1.0)),
)
SPEC_IDS = ["bilinear", "neg_quadratic", "reflector", "one_affine", "one_affine_no_b"]


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

    @pytest.mark.parametrize("spec, interval", SPECS_ON, ids=SPEC_IDS)
    def test_scalar_calls_return_a_python_float(self, spec, interval):
        lo, hi = interval
        for x, y in ((lo, hi), (np.float64(0.3), np.array(-0.2)), (np.array(-0.0), 0.5),
                     (np.array(0.7), np.array(hi))):
            got = evaluate_cost(spec, x, y)
            assert type(got) is float
            assert bytes_of(got) == bytes_of(plain_evaluate_cost(spec, x, y))

    @pytest.mark.parametrize("spec, interval", SPECS_ON, ids=SPEC_IDS)
    def test_broadcast_bits_match_the_plain_expressions(self, spec, interval):
        rng = np.random.default_rng(5)
        x = np.r_[make_uniform_grid(*interval, 33).points, -0.0, 0.0]
        y = np.r_[make_uniform_grid(*interval, 17).points, -0.0, rng.uniform(*interval, 20)]
        for a, b in ((x[:, None], y[None, :]), (y[:, None], x[None, :]), (x[:19], y[:19]),
                     (x[:, None], y[:19]), (x[3], y), (x, y[5])):
            got = evaluate_cost(spec, a, b)
            assert bytes_of(got) == bytes_of(plain_evaluate_cost(spec, a, b))

    def test_reflector_error_names_the_first_pair(self):
        g = make_uniform_grid(-2, 2, 9).points
        for x, y in ((g[:, None], g[None, :]), (g[None, :], g[:, None]), (g, g),
                     (g[::-1, None], g[None, ::-1]), (1.5, g), (g[::-1], -1.0)):
            with pytest.raises(CostDomainError) as want:
                plain_evaluate_cost(CostSpec("reflector"), x, y)
            with pytest.raises(CostDomainError) as got:
                evaluate_cost(CostSpec("reflector"), x, y)
            assert (got.value.x, got.value.y) == (want.value.x, want.value.y)
            assert str(got.value) == str(want.value)

    def test_no_coefficients_is_positive_zero(self):
        # not y * 0, which is -0.0 where y < 0: b(y) = +0.0 keeps a(y)*x + b(y)
        # at +0.0 where a(y)*x is -0.0
        y = np.array([-2.0, -0.5, -0.0, 0.0, 3.0])
        assert bytes_of(costs._poly(y, ())) == bytes_of(np.zeros(5))
        assert bytes_of(costs._poly(y[:, None], ())) == bytes_of(np.zeros((5, 1)))
        spec = CostSpec("one_affine", a_coeffs=(0.0, 1.0))
        x = np.array([[-1.0], [-0.0], [0.0], [1.0]])
        got = evaluate_cost(spec, x, y[None, :])
        assert bytes_of(got) == bytes_of(plain_evaluate_cost(spec, x, y[None, :]))
        assert not np.signbit(got[got == 0]).any()


def bytes_of(v) -> tuple:
    """Shape and exact float64 bits, signed zeros and NaNs included."""
    a = np.asarray(v, dtype=float)
    return a.shape, a.tobytes()


FLOATS = st.floats(allow_nan=False, width=64)
COEFFS = st.one_of(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                            min_size=1, max_size=6),
                   st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6)).map(tuple)


class TestPoly:
    """``_poly`` is Horner's rule in numpy polyval's operation order, so bit
    for bit its values, whatever the coefficients and the shape of y."""

    @settings(max_examples=300, deadline=None)
    @given(COEFFS, st.lists(FLOATS | st.sampled_from([-0.0, math.inf, -math.inf, -1.0]),
                            min_size=1, max_size=8))
    def test_equals_polyval(self, coeffs, ys):
        y = np.array(ys)
        with np.errstate(all="ignore"):
            for arg in (y, np.asarray(y[0]), y[:, None], y[None, :], np.tile(y, (3, 1))):
                assert bytes_of(costs._poly(arg, coeffs)) == bytes_of(npoly.polyval(arg, coeffs))

    def test_signed_zero_and_infinity(self):
        y = np.array([-0.0, 0.0, math.inf, -math.inf, -2.0])
        with np.errstate(invalid="ignore"):
            for coeffs in ((0.0,), (-0.0,), (-0.0, 1.0), (1, -2, 0), (0.5, -0.0, 3.0)):
                assert bytes_of(costs._poly(y, coeffs)) == bytes_of(npoly.polyval(y, coeffs))

    def test_no_coefficients_is_zero(self):
        assert bytes_of(costs._poly(np.array([1.0, -2.0]), ())) == bytes_of([0.0, 0.0])


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

    def test_a_callers_array_is_copied(self):
        g = make_uniform_grid(-1, 1, 3)
        table = np.outer(g.points, g.points)
        m = CostMatrix(g, g, table)
        table[0, 0] = 7.0
        assert m.entries[0, 0] == 1.0 and table.flags.writeable
        assert not m.entries.flags.writeable
        neg = m.negated()
        assert neg.entries[0, 0] == -1.0 and not neg.entries.flags.writeable

    def test_a_translation_table_is_copied(self):
        # h may return an array it keeps: the matrix copies it, as a caller's
        g = make_uniform_grid(-1, 1, 3)
        cache = np.zeros((3, 3))
        m = tabulate_cost(CostSpec("translation", h=lambda d: cache), g, g)
        assert not np.shares_memory(m.entries, cache) and cache.flags.writeable
        cache[0, 0] = 7.0
        assert m.entries[0, 0] == 0.0 and not m.entries.flags.writeable

    @pytest.mark.parametrize("tabulate, interval", [
        (lambda g: tabulate_cost(CostSpec("bilinear"), g, g), (-1, 1)),
        (lambda g: tabulate_callable(np.multiply, g, g), (-1, 1)),
        (lambda g: tabulate_cost(CostSpec("neg_quadratic"), g, g), (-1, 1)),
        (lambda g: tabulate_cost(CostSpec("reflector"), g, g), (-0.9, 0.9)),
        (lambda g: tabulate_cost(parse_cost_spec("one_affine:0.2,0.8;0.1"), g, g), (-1, 1)),
    ], ids=["tabulate_cost", "tabulate_callable", "neg_quadratic", "reflector", "one_affine"])
    def test_tabulation_holds_one_table(self, tabulate, interval):
        # the evaluated array, filled in place, becomes the matrix's entries with
        # no copy beside it; the reflector's domain mask and the finiteness
        # check's are one byte a cell
        n = 1025
        g = make_uniform_grid(*interval, n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m = tabulate(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert m.entries.nbytes == n * n * 8 and not m.entries.flags.writeable
        assert peak <= 1.2 * m.entries.nbytes, f"peak {peak / 1e6:.2f} MB"


def twist_edge_scale():
    """The d for which c = d*x*y on {0, 1, 2}^2, whose mixed differences are
    all d exactly and whose max|c| is 4d, has them on the edge of +-tol:
    d = 1e-9 * (1 + 4d) in floating point."""
    d = 1e-9
    for _ in range(5):
        d = 1e-9 * (1.0 + 4.0 * d)
    assert d == 1e-9 * (1.0 + 4.0 * d)
    return d


class TestStructure:
    def setup_method(self):
        self.g = make_uniform_grid(-1, 1, 21)

    def test_bilinear_is_one_and_two_affine(self):
        m = tabulate_cost(CostSpec("bilinear"), self.g, self.g)
        assert check_structure(m, "one_affine").holds
        v = check_structure(m, "two_affine")
        tol = float(v.notes.removeprefix("tol="))
        # max_violation is the excess beyond tol: adding tol back gives max|d2| itself
        assert v.holds and v.max_violation + tol <= 1e-12
        assert np.abs(np.diff(m.entries, 2, axis=1)).max() <= 1e-12

    def test_neg_quadratic_one_concave_constant_curvature(self):
        m = tabulate_cost(CostSpec("neg_quadratic"), self.g, self.g)
        v = check_structure(m, "one_concave")
        assert v.holds
        d2 = np.diff(m.entries, 2, axis=0)
        assert np.allclose(d2, -2 * self.g.h**2, atol=1e-12)

    def test_differences_beyond_the_float_range_are_an_inf_excess(self):
        # second, mixed and diagonal differences of +-1.5e308 overflow; under
        # the tests' warnings-as-errors that used to raise from inside the judge
        g = make_uniform_grid(-1, 1, 5)
        m = tabulate_callable(lambda x, y: 1.5e308 * np.sign(x * y + 0.1), g, g)
        for prop in STRUCTURE_PROPERTIES:
            v = check_structure(m, prop)
            assert (v.status, v.max_violation) == ("violated", math.inf), prop
        assert segment_concavity_excess(m) == math.inf

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

    def test_verdict_reads_the_excess_beyond_tol(self):
        m = tabulate_cost(CostSpec("neg_quadratic"), self.g, self.g)
        tol = 1e-9 * (1 + float(np.abs(m.entries).max()))
        d2 = np.diff(m.entries, 2, axis=0)
        v = check_structure(m, "one_concave")
        assert (v.check_id, v.status, v.witness, v.notes) == ("one_concave", "held", None,
                                                              f"tol={tol}")
        assert v.max_violation == float(d2.max()) - tol
        v = check_structure(m, "one_convex")
        assert (v.check_id, v.status, v.witness) == ("one_convex", "violated", (0, 2, 0))
        assert v.max_violation == float((-d2).max()) - tol

    @pytest.mark.parametrize("c, twisted", [
        (lambda x, y: x * y, True),
        (lambda x, y: -x * y, True),                       # every c_xy below -tol
        (lambda x, y: np.sin(x) * y + x**2, True),
        (lambda x, y: 0.4 * y + 0.25 * x + 0.1, False),    # affine: c_xy = 0
        (lambda x, y: x**2 + y**2, False),
        (lambda x, y: np.cos(3 * (x - y)), False),         # c_xy of both signs
    ])
    def test_twisted(self, c, twisted):
        v = check_structure(tabulate_callable(c, self.g, self.g), "twisted")
        assert (v.holds, v.witness) == (twisted, None)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_twist_rule_is_strict(self, sign):
        d = twist_edge_scale()
        g = make_uniform_grid(0, 2, 3)
        m = tabulate_callable(lambda x, y: sign * d * x * y, g, g)
        assert np.diff(np.diff(m.entries, axis=0), axis=1).tolist() == [[sign * d] * 2] * 2
        v = check_structure(m, "twisted")
        assert (v.status, v.max_violation, v.notes) == ("violated", 5e-324, f"tol={d}")
        m = tabulate_callable(lambda x, y: sign * np.nextafter(d, 1.0) * x * y, g, g)
        assert check_structure(m, "twisted").holds

    def test_segment_concave_is_the_excess_within_tol(self):
        m = tabulate_callable(lambda x, y: 0.4 * y - x**2, self.g, self.g)
        v = check_structure(m, "segment_concave")
        tol = 1e-9 * (1 + float(np.abs(m.entries).max()))
        assert v.holds and v.max_violation == segment_concavity_excess(m) - tol
        m = tabulate_callable(lambda x, y: x**2 + y**2, self.g, self.g)
        assert check_structure(m, "segment_concave").status == "violated"


def _gate_tables():
    """The cost tables the suite gates, and the test tables of the
    hypothesis checks, on their own grids."""
    g, g33 = make_uniform_grid(-1, 1, 101), make_uniform_grid(-1, 1, 33)
    gr = make_uniform_grid(0, 0.4, 101)
    sq, d = make_uniform_grid(0, 2, 3), twist_edge_scale()
    return {
        "sinxy": tabulate_callable(lambda x, y: np.sin(x) * y + x**2, g, g),
        "affine": tabulate_callable(lambda x, y: 0.4 * y + 0.25 * x + 0.1, g, g),
        "bilinear": tabulate_cost(CostSpec("bilinear"), g, g),
        "neg_quadratic": tabulate_cost(CostSpec("neg_quadratic"), g,
                                       make_uniform_grid(-2.5, 2.5, 101)),
        "reflector": tabulate_cost(CostSpec("reflector"), gr, gr),
        "neg_twist": tabulate_callable(lambda x, y: -x * y, g33, g33),
        "convex_in_x": tabulate_callable(lambda x, y: x**2 + x * y, g33, g33),
        "one_affine": tabulate_cost(CostSpec("one_affine", (1.0, 0.0, 3.0), (0.0, 1.0)),
                                    g33, g33),
        "translation": tabulate_callable(lambda x, y: np.cos(3 * (x - y)), g33, g33),
        "bowl": tabulate_callable(lambda x, y: x**2 + y**2, g33, g33),
        "twist_edge": tabulate_callable(lambda x, y: d * x * y, sq, sq),
        "neg_twist_edge": tabulate_callable(lambda x, y: -d * x * y, sq, sq),
        "seeded": tabulate_callable(
            lambda x, y: np.random.default_rng(7).normal(size=(x * y).shape), g33, g33),
    }


GATE_TABLES = _gate_tables()


class TestOneJudge:
    """``check_structure`` decides every cost hypothesis as the gates did
    when each applied its own rule (``oracles.separate_gate_holds``)."""

    @pytest.mark.parametrize("name", GATE_TABLES)
    @pytest.mark.parametrize("prop", STRUCTURE_PROPERTIES)
    def test_same_decision_as_the_separate_rules(self, name, prop):
        entries = GATE_TABLES[name].entries
        assert check_structure(GATE_TABLES[name], prop).holds == separate_gate_holds(entries, prop)

    def test_the_tables_reach_both_decisions(self):
        for prop in STRUCTURE_PROPERTIES:
            seen = {separate_gate_holds(m.entries, prop) for m in GATE_TABLES.values()}
            assert seen == {True, False}, prop


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
