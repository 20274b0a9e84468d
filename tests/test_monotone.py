"""The matrix-free monotone-argmax engine and the banded subdifferential:
differential tests against the dense sweeps and the loop oracles, dispatch
and fallback to the dense path, byte identity of the CLI output with the
dense public API, and its memory.
"""

import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cconvex import cli
from cconvex.costs import CostDomainError, CostSpec, parse_cost_spec, tabulate_cost, twist_bound
from cconvex.grids import GridFunction, make_uniform_grid
from cconvex.subdiff import Analysis, membership_slack, subdifferential_map
from cconvex.transform import _monotone_argmax, c_transform, double_c_transform, is_c_convex
from oracles import brute_c_transform, dense_member

# cost, I interval, J interval; the reflector needs x*y < 1 on I x J, and
# the one_affine a(y) = 0.2 + 0.8y + 0.3y^2 increases on [-1, 1]
TWISTED = (
    ("bilinear", (-1.0, 1.0), (-1.0, 1.0)),
    ("neg_quadratic:2.5", (-1.0, 1.0), (-1.5, 1.5)),
    ("reflector", (-0.9, 0.9), (-0.9, 0.9)),
    ("one_affine:0.2,0.8,0.3;0.1,-1", (-1.0, 1.0), (-1.0, 1.0)),
)
# costs the engine does not serve at n, m >= 129 for f of max |f| >= 0.5, so
# they are tabulated: a(y) = -y decreases, a(y) = 1 is flat (c_xy = 0: every
# row ties up to rounding), a(y) = 1 + 2**-36 y is within rounding of flat, and
# on the narrow intervals the rounding of c - f swamps -(x - y)**2's mixed
# differences
DENSE_FALLBACK = (("one_affine:0,-1;0.1", (-1.0, 1.0), (-1.0, 1.0)),
                  ("one_affine:1;0.3,1,0.7", (-1.0, 1.0), (-1.0, 1.0)),
                  ("one_affine:1,1.4551915228366852e-11;0.3,1,0.7", (-1.0, 1.0), (-1.0, 1.0)),
                  ("neg_quadratic", (5.0, 5.0000001), (5.0, 5.0000001)),
                  ("neg_quadratic", (1.0, 1.000001), (1.0, 1.000001)))
# (cost, interval of both grids, n = m) with f = x where an earlier certificate,
# which counted only a rounding bound on c, let the engine differ from the
# dense path, at the smallest 2**k + 1 where it did; on [5, 5 + 1e-4] it
# never did, and 2200 is past the size where 8E reaches the mixed differences
FOUND_INSTANCES = (("one_affine:1,1.4551915228366852e-11;0.3,1,0.7", (-1.0, 1.0), 2049),
                   ("neg_quadratic", (5.0, 5.0000001), 17),
                   ("neg_quadratic", (1.0, 1.000001), 257),
                   ("neg_quadratic", (5.0, 5.0001), 2200))
# the cost families of the benchmark's transform_large workload and the
# catalog functions it draws, read from its source
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
BENCH_CONSTANTS = {t.id: ast.literal_eval(node.value)
                   for node in ast.parse(WORKLOADS.read_text()).body
                   if isinstance(node, ast.Assign) for t in node.targets
                   if isinstance(t, ast.Name) and t.id in ("TRANSFORM_FAMILIES", "CATALOG")}
# (command, f, n, m, family) where the engine's zero maximum, or zero slack,
# has the other sign than the dense API's (at the parent of the n != m sizes too)
SIGNED_ZERO_MAXIMA = {
    ("transform", "half_parabola", 129, 257, "bilinear"),
    ("transform", "half_parabola", 257, 129, "bilinear"),
    ("subdiff", "half_parabola", 129, 257, "bilinear"),
}
# 1 - x*y reaches 2e-7 here, so the reflector's rounding is amplified 5e6-fold
NEAR_SINGULAR = ("reflector", (-0.9999999, 0.9999999), (-0.9999999, 0.9999999))
SIZES = ((2, 2), (2, 3), (3, 2), (17, 16), (64, 65), (129, 128))
F_KINDS = ("random", "random_inf", "cconvexified", "dyadic_piecewise", "constant", "zero")
SUBDIFF_KINDS = ("normal", "rounded", "cconvexified", "dyadic_piecewise", "zero", "constant",
                 "abs", "neg_abs")
TOLS = (0.0, 1e-9, 1e-3, 0.1, 1.0)


def make_f(kind, gi, cost, rng):
    n = gi.n
    if kind == "random":
        return GridFunction(gi, rng.uniform(-2, 2, n))
    if kind == "normal":
        return GridFunction(gi, rng.normal(size=n))
    if kind == "rounded":  # quarter steps: many exact ties
        return GridFunction(gi, np.round(4 * rng.normal(size=n)) / 4)
    if kind in ("abs", "neg_abs"):
        return GridFunction(gi, np.abs(gi.points) * (1 if kind == "abs" else -1))
    if kind == "random_inf":
        vals = rng.uniform(-2, 2, n)
        vals[rng.random(n) < 0.4] = np.inf
        vals[rng.integers(0, n)] = 0.5  # keep f proper
        return GridFunction(gi, vals)
    if kind == "cconvexified":
        return double_c_transform(GridFunction(gi, rng.uniform(-1, 1, n)), cost).values
    if kind == "dyadic_piecewise":
        knots = np.unique(np.r_[0, rng.integers(0, n, 3), n - 1])
        return GridFunction(gi, np.interp(gi.points, gi.points[knots],
                                          rng.integers(-8, 9, knots.size) / 8.0))
    if kind == "constant":
        return GridFunction(gi, np.full(n, 0.75))
    return GridFunction(gi, np.zeros(n))


def fmax(f):
    return float(np.abs(f.values[np.isfinite(f.values)]).max())


def assert_same_transform(engine, dense):
    # == semantics: where a maximum is a zero reached with both signs the
    # sign may differ (TestSignedZero), every other value is bit-equal
    assert np.array_equal(engine.values.values, dense.values.values)
    assert np.array_equal(engine.argmax, dense.argmax)


class TestKernel:
    # 2**k and 2**k + 1 outputs: the stride schedule's first level searches
    # outputs 0 and 2**(k-1), or 0 and 2**k
    @pytest.mark.parametrize("n_out", [1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 64, 65, 256, 257])
    @pytest.mark.parametrize("n_cand", [1, 2, 5, 40])
    def test_exact_monge_matrices_with_ties(self, n_out, n_cand):
        # D[o, c] = s_o t_c + u_c + v_o with s, t nondecreasing is Monge;
        # small integers make exact ties common
        rng = np.random.default_rng(n_out * 100 + n_cand)
        for _ in range(20):
            s = np.sort(rng.integers(0, 4, n_out)).astype(float)
            t = np.sort(rng.integers(0, 4, n_cand)).astype(float)
            d = np.outer(s, t) + rng.integers(-3, 4, n_cand) + rng.integers(-3, 4, n_out)[:, None]
            values, argmax = _monotone_argmax(lambda o, c: d[o, c], n_out, n_cand)
            assert np.array_equal(values, d.max(axis=1))
            assert np.array_equal(argmax, d.argmax(axis=1))

    @pytest.mark.parametrize("n_cand", [1, 2, 7, 64])
    def test_one_score_call_per_level(self, n_cand):
        # one level per stride, 2**(L-1) down to 1 with L = (n_out - 1).bit_length(),
        # and one level for n_out = 1; each makes one score call
        rng = np.random.default_rng(n_cand)
        t = np.sort(rng.integers(0, 4, n_cand)).astype(float)
        for n_out in [*range(1, 70), 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 4097]:
            d = np.outer(np.sort(rng.integers(0, 4, n_out)), t) + rng.integers(-3, 4, n_cand)
            calls = []

            def score(o, c):
                calls.append(o.size)
                return d[o, c]

            _monotone_argmax(score, n_out, n_cand)
            assert len(calls) == max(1, (n_out - 1).bit_length()), n_out


class TestDifferential:
    @pytest.mark.parametrize("kind", F_KINDS)
    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_engine_matches_dense_and_brute(self, family, iv_i, iv_j, kind):
        spec = parse_cost_spec(family)
        rng = np.random.default_rng(len(family) * 31 + F_KINDS.index(kind))
        for n, m in SIZES:
            gi, gj = make_uniform_grid(*iv_i, n), make_uniform_grid(*iv_j, m)
            cost = tabulate_cost(spec, gi, gj)
            f = make_f(kind, gi, cost, rng)
            assert twist_bound(spec, gi, gj, fmax(f)) is not None
            a = Analysis(f, spec, grid_j=gj)
            fc, fcc = a.fc, a.fcc
            assert_same_transform(fc, c_transform(f, cost))
            assert "table" not in vars(a)  # the engine's, with no tabulation
            assert_same_transform(fcc, double_c_transform(f, cost))
            values, argmax = brute_c_transform(f.values, cost.entries)
            assert np.array_equal(fc.values.values, values)
            assert np.array_equal(fc.argmax, argmax)
            back, back_arg = brute_c_transform(fc.values.values, cost.entries.T)
            assert np.array_equal(fcc.values.values, back)
            assert np.array_equal(fcc.argmax, back_arg)


class TestBandedTriples:
    @pytest.mark.parametrize("kind", SUBDIFF_KINDS)
    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED + (NEAR_SINGULAR,))
    def test_matches_dense_slack(self, family, iv_i, iv_j, kind):
        spec = parse_cost_spec(family)
        rng = np.random.default_rng(len(family) * 37 + SUBDIFF_KINDS.index(kind))
        for n, m in ((2, 3), (3, 2), (17, 16), (40, 129), (129, 64), (65, 33), (129, 257),
                     (257, 129)):
            gi, gj = make_uniform_grid(*iv_i, n), make_uniform_grid(*iv_j, m)
            cost = tabulate_cost(spec, gi, gj)
            f = make_f(kind, gi, cost, rng)
            dense = membership_slack(f, cost)
            # the dense arithmetic against the engine's f^c
            blocks = (cost.entries - f.values[:, None]) - Analysis(f, spec, grid_j=gj).fc.values.values
            for tol in TOLS:
                dom, rows, cols, slack = Analysis(f, spec, tol, gj).triples
                member = dense >= -tol
                want_rows, want_cols = np.nonzero(member)
                assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
                assert np.array_equal(dom, member.any(axis=1))
                assert np.array_equal(slack.view(np.int64), blocks[rows, cols].view(np.int64))
                # bit-equal to the dense slack but for the sign of a zero
                # (the signed-zero f^c of TestSignedZero)
                want = dense[want_rows, want_cols]
                differ = slack.view(np.int64) != want.view(np.int64)
                assert (slack[differ] == 0).all() and (want[differ] == 0).all()

    @pytest.mark.parametrize("tol", [0.0, 1e-16, 2e-16])
    @pytest.mark.parametrize("f_value", [lambda x: x, np.zeros_like, lambda x: np.full_like(x, 0.3)],
                             ids=["identity", "zero", "constant0.3"])
    def test_flat_rows_keep_every_member(self, tol, f_value):
        # a(y) = 1 + 2**-36 y makes c_xy = 2**-36: the computed cost is within
        # rounding of flat, and no certificate holds but where the mixed
        # differences still clear 8E (17 x 16 and 65 x 33); either way the
        # triples are the dense path's
        spec = parse_cost_spec("one_affine:1,1.4551915228366852e-11;0.3,1,0.7")
        certified = []
        for n, m in ((17, 16), (40, 129), (129, 64), (65, 33), (129, 257), (257, 129)):
            gi, gj = make_uniform_grid(-1, 1, n), make_uniform_grid(-1, 1, m)
            f = GridFunction(gi, f_value(gi.points))
            a = Analysis(f, spec, tol, gj)
            certified.append(a.twist is not None)
            dense = membership_slack(f, tabulate_cost(spec, gi, gj))
            dom, rows, cols, slack = a.triples
            want_rows, want_cols = np.nonzero(dense >= -tol)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
            assert np.array_equal(slack.view(np.int64), dense[rows, cols].view(np.int64))
            assert np.array_equal(dom, (dense >= -tol).any(axis=1))
        assert certified == [True, False, False, True, False, False]

    # f = |x| under x*y: the middle row's run spans every column but the first,
    # and every row right of it is a member at y = 1 by an exact tie; f = 0:
    # two runs of half the columns, one at each end, and every row ties at
    # y = 0; a steep |x| makes one run of all m columns
    @pytest.mark.parametrize("family, iv_i, iv_j, f_value, exact_ties", [
        ("bilinear", (-1.0, 1.0), (-1.0, 1.0), np.abs, True),
        ("bilinear", (-1.0, 1.0), (-1.0, 1.0), np.zeros_like, True),
        ("neg_quadratic", (-1.0, 1.0), (-1.5, 1.5), lambda x: 4 * np.abs(x), False),
        ("reflector", (-0.9, 0.9), (-0.9, 0.9), lambda x: 3 * np.abs(x), False),
        ("one_affine:0.2,0.8,0.3;0.1,-1", (-1.0, 1.0), (-1.0, 1.0),
         lambda x: np.maximum(0, 2 * x), False),
    ], ids=["bilinear_abs", "bilinear_zero", "neg_quadratic_steep", "reflector_steep",
            "one_affine_hinge"])
    def test_run_seeded_searches(self, family, iv_i, iv_j, f_value, exact_ties):
        # each row's argmax run is taken as members unprobed and its searches
        # start beside it: long runs, runs at column 0 and m - 1, and rows
        # with no run whose members tie within tol (exactly, at tol 0)
        spec = parse_cost_spec(family)
        tied_tols, longest = set(), 0.0
        for n, m in ((33, 33), (65, 129), (129, 64)):
            gi, gj = make_uniform_grid(*iv_i, n), make_uniform_grid(*iv_j, m)
            f = GridFunction(gi, f_value(gi.points))
            for tol in (0.0, 1e-9, 0.1):
                a = Analysis(f, spec, tol, gj)
                assert a.twist is not None
                member = dense_member(Analysis(f, tabulate_cost(spec, gi, gj), tol))
                dom, rows, cols, slack = a.triples
                assert np.array_equal(np.c_[rows, cols], np.argwhere(member))
                assert np.array_equal(dom, member.any(axis=1))
                # every (k_j, j) is a triple, with a slack of exactly 0
                key, k = rows * m + cols, a.fc.argmax
                at = np.searchsorted(key, k * m + np.arange(m))
                assert np.array_equal(key[at], k * m + np.arange(m)) and (slack[at] == 0).all()
                run = np.bincount(k, minlength=n)
                if (member.any(axis=1) & (run == 0)).any():
                    tied_tols.add(tol)
                longest = max(longest, run.max() / m)
        assert longest > 0.5 and 0.1 in tied_tols
        assert (0.0 in tied_tols) == exact_ties

    # c_xy > 0 on these grids; with c_xy near 0 (test above) rounding noise
    # can split a computed row
    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(TWISTED + (NEAR_SINGULAR,)), n=st.integers(2, 40),
           m=st.integers(2, 40), tol=st.sampled_from(TOLS),
           values=st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=40, max_size=40))
    def test_dense_member_rows_are_intervals(self, case, n, m, tol, values):
        family, iv_i, iv_j = case
        gi, gj = make_uniform_grid(*iv_i, n), make_uniform_grid(*iv_j, m)
        f = GridFunction(gi, np.array(values[:n]))
        member = membership_slack(f, tabulate_cost(parse_cost_spec(family), gi, gj)) >= -tol
        for i, row in enumerate(member):
            js = np.flatnonzero(row)
            assert js.size == 0 or js[-1] - js[0] + 1 == js.size, f"row {i}: {js}"


def fuzz_spec(kind, s):
    """The twisted families and their variants scaled by s > 0."""
    return {"bilinear": CostSpec("bilinear"),
            "scaled_bilinear": CostSpec("one_affine", a_coeffs=(0.0, s)),
            "neg_quadratic": CostSpec("neg_quadratic", scale=s),
            "reflector": CostSpec("reflector"),
            "one_affine": CostSpec("one_affine", a_coeffs=(0.2 * s, 0.8 * s, 0.3 * s),
                                   b_coeffs=(0.1, -1.0))}[kind]


class TestCertificate:
    @pytest.mark.parametrize("family, iv, n", FOUND_INSTANCES)
    def test_found_instances_go_dense(self, family, iv, n):
        spec, g = parse_cost_spec(family), make_uniform_grid(*iv, n)
        f = GridFunction(g, g.points)
        cost = tabulate_cost(spec, g, g)
        a = Analysis(f, spec, 0.0, g)
        assert a.twist is None
        assert_same_transform(a.fc, c_transform(f, cost))
        assert_same_transform(a.fcc, double_c_transform(f, cost))
        dom, rows, cols, slack = a.triples
        assert np.array_equal(np.c_[rows, cols], np.argwhere(membership_slack(f, cost) >= 0.0))
        assert_same_membership(a, Analysis(f, cost, 0.0))

    # intervals centred at 0, 1, 5, 100 or -3 of half-width 1e-7 to 10, f of
    # max |f| 1e-8 to 1e3, with exact ties (rounded, zero) and without
    @settings(max_examples=250, deadline=None)
    @given(kind=st.sampled_from(("bilinear", "scaled_bilinear", "neg_quadratic", "reflector",
                                 "one_affine")),
           scale=st.floats(-3, 3),
           centres=st.tuples(*[st.sampled_from((0.0, 1.0, 5.0, 100.0, -3.0))] * 2),
           widths=st.tuples(st.floats(-7, 1), st.floats(-7, 1)),
           n=st.integers(2, 129), m=st.integers(2, 129),
           f_kind=st.sampled_from(("normal", "rounded", "zero", "linear")),
           f_scale=st.floats(-8, 3),
           seed=st.integers(0, 2**32 - 1), tol=st.sampled_from(TOLS))
    def test_certified_engine_equals_dense(self, kind, scale, centres, widths, n, m, f_kind,
                                           f_scale, seed, tol):
        spec = fuzz_spec(kind, 10.0**scale)
        gi, gj = (make_uniform_grid(c - 10.0**w, c + 10.0**w, k)
                  for c, w, k in zip(centres, widths, (n, m)))
        z = np.random.default_rng(seed).normal(size=n)
        values = {"normal": z, "rounded": np.round(4 * z) / 4, "zero": np.zeros(n),
                  "linear": gi.points}[f_kind]
        f = GridFunction(gi, 10.0**f_scale * values)
        a = Analysis(f, spec, tol, gj)
        if a.twist is None:
            return
        cost = tabulate_cost(spec, gi, gj)
        assert_same_transform(a.fc, c_transform(f, cost))
        assert_same_transform(a.fcc, double_c_transform(f, cost))
        dense = membership_slack(f, cost)
        member = dense >= -tol
        dom, rows, cols, slack = a.triples
        assert np.array_equal(np.c_[rows, cols], np.argwhere(member))
        assert np.array_equal(dom, member.any(axis=1))
        assert np.array_equal(slack, dense[rows, cols])   # == : a zero's sign may differ

    def test_a_large_f_falls_back_to_dense(self):
        # E grows with max|f|: from about 4.4e12 on, 8E passes the bilinear's
        # mixed differences (1/16)**2, as the rounding of c - f (ulp(1e13) is
        # about 2e-3) reaches them
        g, spec = make_uniform_grid(-1, 1, 33), CostSpec("bilinear")
        assert twist_bound(spec, g, g, 1e12) is not None
        assert twist_bound(spec, g, g, 1e13) is None
        f = GridFunction(g, g.points**2 + 1e13)
        a = Analysis(f, spec, grid_j=g)
        assert a.twist is None
        cost = tabulate_cost(spec, g, g)
        assert_same_transform(a.fc, c_transform(f, cost))
        assert_same_transform(a.fcc, double_c_transform(f, cost))
        assert "table" in vars(a)

    @pytest.mark.parametrize("family, iv_i, iv_j", BENCH_CONSTANTS["TRANSFORM_FAMILIES"])
    def test_transform_large_costs_stay_certified(self, family, iv_i, iv_j):
        # a refused family would tabulate 4097 x 4097 cells (128 MB) per op;
        # the piecewise-linear f there take values in [-1, 1], and E grows with max|f|
        spec = parse_cost_spec(family)
        gi, gj = make_uniform_grid(*iv_i, 4097), make_uniform_grid(*iv_j, 4097)
        for name in BENCH_CONSTANTS["CATALOG"]:
            assert twist_bound(spec, gi, gj, fmax(cli.parse_function(name, gi))) is not None, name
        assert twist_bound(spec, gi, gj, 1.0) is not None


def smallest_mixed_difference(d):
    """The least d[i+1, j+1] - d[i+1, j] - d[i, j+1] + d[i, j] over adjacent
    cells, each summed exactly (``math.fsum``), so its sign is the true one."""
    rows = d.tolist()
    return min(math.fsum((r1[j + 1], -r1[j], -r0[j + 1], r0[j]))
               for r0, r1 in zip(rows, rows[1:]) for j in range(len(r0) - 1))


def certified_mixed_difference(spec, gi, gj, values):
    """None if ``twist_bound`` refuses the spec on the grids for f = values,
    else the smallest exact mixed difference of the computed c - f and c - f^c,
    in the dense path's arithmetic, which the engine's entries share."""
    f = GridFunction(gi, values)
    a = Analysis(f, spec, grid_j=gj)
    if a.twist is None:
        return None
    c = tabulate_cost(spec, gi, gj).entries
    return min(smallest_mixed_difference(c - f.values[:, None]),
               smallest_mixed_difference(c - a.fc.values.values[None, :]))


class TestCertificateClaim:
    # twist_bound's claim itself, not only its consequence engine = dense:
    # the computed matrices it certifies are strictly Monge
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(("bilinear", "scaled_bilinear", "neg_quadratic", "reflector",
                                 "one_affine")),
           scale=st.floats(-3, 3),
           centres=st.tuples(*[st.sampled_from((0.0, 1.0, 5.0, 100.0, -3.0))] * 2),
           widths=st.tuples(st.floats(-7, 1), st.floats(-7, 1)),
           n=st.integers(2, 65), m=st.integers(2, 65), f_scale=st.floats(-8, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_certified_matrices_are_strictly_monge(self, kind, scale, centres, widths, n, m,
                                                   f_scale, seed):
        gi, gj = (make_uniform_grid(c - 10.0**w, c + 10.0**w, k)
                  for c, w, k in zip(centres, widths, (n, m)))
        values = 10.0**f_scale * np.random.default_rng(seed).normal(size=n)
        mixed = certified_mixed_difference(fuzz_spec(kind, 10.0**scale), gi, gj, values)
        assert mixed is None or mixed > 0

    @pytest.mark.parametrize("spec, grid, sizes", [
        # -(x - y)**2 on [5, 5 + w]: mixed differences 2(w/32)**2 against the
        # rounding of entries near -w**2 and of f
        (lambda t: CostSpec("neg_quadratic"), lambda t: make_uniform_grid(5, 5 + t, 33),
         10.0 ** np.arange(-1, -8, -0.5)),
        # a(y) = 1 + t*y, within rounding of flat as t falls
        (lambda t: CostSpec("one_affine", a_coeffs=(1.0, t), b_coeffs=(0.3, 1.0, 0.7)),
         lambda t: make_uniform_grid(-1, 1, 33), 2.0 ** np.arange(-10, -50, -4)),
    ], ids=["narrow_neg_quadratic", "flat_one_affine"])
    def test_near_the_refusal_edge(self, spec, grid, sizes):
        values = np.random.default_rng(1).normal(size=33)
        mixed = [certified_mixed_difference(spec(t), grid(t), grid(t), values) for t in sizes]
        certified = [d for d in mixed if d is not None]
        assert 0 < len(certified) < len(mixed)   # the sweep crosses the edge
        assert min(certified) > 0


def assert_same_membership(a, dense):
    """``a``'s members and spans equal those of ``dense``, the same f and tol on
    the tabulated cost, and so do its triples, or their refusal of an f that is
    +inf somewhere."""
    assert all(np.array_equal(got, want) for got, want in zip(a.members, dense.members))
    assert all(np.array_equal(got, want) for got, want in zip(a.spans, dense.spans))
    if not a.f.is_finite:
        for an in (a, dense):
            with pytest.raises(ValueError, match="^Analysis.triples requires an everywhere-finite f$"):
                an.triples
        return
    # == on the slack: a zero's sign may differ (TestSignedZero)
    assert all(np.array_equal(got, want) for got, want in zip(a.triples, dense.triples))


class TestOneMembershipProduct:
    # a spec's members, from the band search when certified, else from the
    # table, are the table's own, and a certified spec's rows are
    # intervals; on the twisted families and on the refused costs
    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(TWISTED + DENSE_FALLBACK), n=st.integers(2, 65),
           m=st.integers(2, 65), tol=st.sampled_from(TOLS),
           f_kind=st.sampled_from(("normal", "rounded", "linear", "with_inf")),
           seed=st.integers(0, 2**32 - 1))
    def test_spec_members_are_the_tables(self, case, n, m, tol, f_kind, seed):
        family, iv_i, iv_j = case
        spec, rng = parse_cost_spec(family), np.random.default_rng(seed)
        gi, gj = make_uniform_grid(*iv_i, n), make_uniform_grid(*iv_j, m)
        z = rng.normal(size=n)
        values = {"normal": z, "rounded": np.round(4 * z) / 4, "linear": gi.points.copy(),
                  "with_inf": np.where(rng.random(n) < 0.4, np.inf, z)}[f_kind]
        values[rng.integers(0, n)] = 0.5   # keep f proper
        f = GridFunction(gi, values)
        a = Analysis(f, spec, tol, gj)
        assert_same_membership(a, Analysis(f, tabulate_cost(spec, gi, gj), tol))
        if a.twist is not None:   # the band search, also where f is +inf on drawn rows
            assert a.spans[3] and "table" not in vars(a)

    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_certified_members_build_no_table(self, monkeypatch, family, iv_i, iv_j):
        def no_table(*args):
            raise AssertionError("a certified spec tabulated its members")

        gi, gj = make_uniform_grid(*iv_i, 65), make_uniform_grid(*iv_j, 33)
        monkeypatch.setattr("cconvex.subdiff.tabulate_cost", no_table)
        a = Analysis(GridFunction(gi, np.abs(gi.points)), parse_cost_spec(family), grid_j=gj)
        a.members, a.spans, a.triples
        assert a.twist is not None and a.spans[3] and "table" not in vars(a)


class TestClosedForm:
    # engine values against closed forms past the dense limit of 8193 points
    @staticmethod
    def neg_quadratic_errors(n):
        # c - f = -2 (x - y/2)**2 - y**2/2 for c = -(x - y)**2 and f = x**2, so
        # f^c(y) = -y**2/2 at x = y/2 in I for |y| <= 2, and the I grid,
        # within h/2 of y/2, misses it by at most 2 (h/2)**2 = h**2/2
        gi, gj = make_uniform_grid(-1, 1, n), make_uniform_grid(-3, 3, n)
        a = Analysis(GridFunction(gi, gi.points**2), CostSpec("neg_quadratic"), grid_j=gj)
        assert a.twist is not None
        y = gj.points[np.abs(gj.points) <= 2]
        return -y**2 / 2 - a.fc.values.values[np.abs(gj.points) <= 2], gi.h

    @pytest.mark.parametrize("n", [257, 4097, 65537, 262145])
    def test_neg_quadratic_within_half_h_squared(self, n):
        errors, h = self.neg_quadratic_errors(n)
        assert errors.min() >= 0
        assert errors.max() <= h**2 / 2 + 4 * np.spacing(2.0)

    def test_neg_quadratic_converges_at_second_order(self):
        coarse, fine = (self.neg_quadratic_errors(n)[0].max() for n in (4097, 8193))
        assert coarse / fine == pytest.approx(4, abs=0.1)

    @pytest.mark.parametrize("n", [4097, 65537])
    def test_bilinear_half_square_is_exact(self, n):
        # max_x x*y - x**2/2 is y**2/2 at x = y, a grid point of equal grids
        g = make_uniform_grid(-1, 1, n)
        f = GridFunction(g, g.points**2 / 2)
        a = Analysis(f, CostSpec("bilinear"), grid_j=g)
        assert a.twist is not None
        assert np.array_equal(a.fc.values.values, f.values)
        assert np.array_equal(a.fcc.values.values, f.values)


class TestSignedZero:
    def test_zero_tie_keeps_the_first_maximiser_sign(self):
        # f = 0 under x*y: the y = 0 column is all zeros, -0.0 for x < 0;
        # the engine returns the first maximiser's -0.0, a value the dense
        # reduction may return as +0.0
        g = make_uniform_grid(-1, 1, 11)
        spec = CostSpec("bilinear")
        f = GridFunction(g, np.zeros(11))
        fc = Analysis(f, spec, grid_j=g).fc
        dense = c_transform(f, tabulate_cost(spec, g, g))
        assert_same_transform(fc, dense)
        assert fc.argmax[5] == 0 and np.signbit(fc.values.values[5])
        differ = np.signbit(fc.values.values) != np.signbit(dense.values.values)
        assert (fc.values.values[differ] == 0.0).all()


class TestFallback:
    @pytest.mark.parametrize("spec", [
        parse_cost_spec("one_affine:0,-1;0.2"),  # a(y) = -y decreases
        parse_cost_spec("one_affine:1;0.3,1,0.7"),  # a(y) = 1 is flat
        CostSpec("translation", h=lambda d: -np.abs(d) ** 1.5),
    ], ids=["decreasing_a", "flat_a", "translation"])
    def test_dense_path_unchanged(self, spec):
        g = make_uniform_grid(-1, 1, 33)
        assert twist_bound(spec, g, g, 1.0) is None
        cost = tabulate_cost(spec, g, g)
        for f in (GridFunction(g, g.points**2), GridFunction(g, np.zeros(33))):
            a = Analysis(f, spec, grid_j=g)
            fc, fcc = a.fc, a.fcc
            assert a.twist is None and "table" in vars(a)
            for got, want in ((fc, c_transform(f, cost)), (fcc, double_c_transform(f, cost))):
                assert np.array_equal(got.values.values.view(np.int64),
                                      want.values.values.view(np.int64))
                assert np.array_equal(got.argmax, want.argmax)

    @pytest.mark.parametrize("iv_i, iv_j", [((0.0, 2.0), (0.0, 2.0)),
                                            ((0.0, 0.5), (0.0, 2.0)),
                                            ((-2.0, 0.5), (-0.5, 0.5))])
    def test_reflector_domain_violation_same_error(self, iv_i, iv_j):
        spec = CostSpec("reflector")
        gi, gj = make_uniform_grid(*iv_i, 9), make_uniform_grid(*iv_j, 9)
        assert twist_bound(spec, gi, gj, 0.0) is None
        with pytest.raises(CostDomainError) as dense:
            tabulate_cost(spec, gi, gj)
        f = GridFunction(gi, np.zeros(9))
        with pytest.raises(CostDomainError) as engine:
            Analysis(f, spec, grid_j=gj).fc
        assert str(engine.value) == str(dense.value)
        with pytest.raises(CostDomainError) as triples:
            Analysis(f, spec, grid_j=gj).triples
        assert str(triples.value) == str(dense.value)

    def test_reflector_bound_and_its_limit(self):
        # the rounding bound carries 1/(1 - max xy); within 2u of the pole
        # there is none, and the cost is tabulated like any uncertified one
        spec = CostSpec("reflector")
        bound = {r: twist_bound(spec, make_uniform_grid(-r, r, 9), make_uniform_grid(-r, r, 9), 1.0)
                 for r in (0.9, 0.9999999, 1 - 2**-53)}
        assert bound[0.9999999] > 1e5 * bound[0.9] > 0
        assert bound[1 - 2**-53] is None
        g = make_uniform_grid(-(1 - 2**-53), 1 - 2**-53, 9)
        f = GridFunction(g, g.points**2)
        cost = tabulate_cost(spec, g, g)
        dom, rows, cols, slack = Analysis(f, spec, grid_j=g).triples
        dense = membership_slack(f, cost)
        assert np.array_equal(np.c_[rows, cols], np.argwhere(dense >= -1e-9))
        assert np.array_equal(slack, dense[rows, cols])

    @pytest.mark.parametrize("spec", [CostSpec("bilinear"),
                                      CostSpec("translation", h=lambda d: -np.abs(d) ** 1.5)],
                             ids=["bilinear", "translation"])
    def test_nonfinite_f_rejected_before_work(self, monkeypatch, spec):
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before the f check")

        for name in ("tabulate_cost", "twist_bound", "_monotone_argmax"):
            monkeypatch.setattr(f"cconvex.subdiff.{name}", no_work)
        g = make_uniform_grid(-1, 1, 9)
        f = GridFunction(g, np.where(g.points > 0.5, np.inf, 0.0))
        with pytest.raises(ValueError, match="^Analysis.triples requires an everywhere-finite f$"):
            Analysis(f, spec, grid_j=g).triples

    @pytest.mark.parametrize("spec, iv", [
        (CostSpec("bilinear"), (-1e200, 1e200)),
        (CostSpec("neg_quadratic", scale=1e300), (-1e5, 1e5)),
        (parse_cost_spec("one_affine:0,1e300;0"), (-1e10, 1e10)),
    ], ids=["bilinear", "neg_quadratic", "one_affine"])
    def test_overflow_same_error(self, spec, iv):
        g = make_uniform_grid(*iv, 5)
        assert twist_bound(spec, g, g, 0.0) is None
        f = GridFunction(g, np.zeros(5))
        for call in (lambda: Analysis(f, spec, grid_j=g).fc,
                     lambda: Analysis(f, spec, grid_j=g).triples):
            with pytest.raises(ValueError, match="^cost matrix entries must all be finite$"):
                call()


class TestAnalysis:
    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED + DENSE_FALLBACK)
    def test_one_twist_bound_per_instance(self, monkeypatch, family, iv_i, iv_j):
        calls = []

        def counted(*args):
            calls.append(args)
            return twist_bound(*args)

        monkeypatch.setattr("cconvex.subdiff.twist_bound", counted)
        gi, gj = make_uniform_grid(*iv_i, 33), make_uniform_grid(*iv_j, 31)
        a = Analysis(GridFunction(gi, gi.points**2), parse_cost_spec(family), grid_j=gj)
        a.fc, a.fcc, a.triples
        assert len(calls) == 1

    def test_matrix_goes_to_no_engine(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a cost matrix went to the engine")

        for name in ("twist_bound", "tabulate_cost", "_monotone_argmax"):
            monkeypatch.setattr(f"cconvex.subdiff.{name}", no_work)
        g = make_uniform_grid(-1, 1, 17)
        cost = tabulate_cost(CostSpec("bilinear"), g, g)
        f = GridFunction(g, g.points**2)
        a = Analysis(f, cost, grid_j=g)
        assert a.table is cost and a.grid_j is cost.grid_j
        assert_same_transform(a.fc, c_transform(f, cost))
        assert_same_transform(a.fcc, double_c_transform(f, cost))
        dom, rows, cols, slack = a.triples
        assert np.array_equal(np.c_[rows, cols], np.argwhere(membership_slack(f, cost) >= -a.tol))

    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_certified_c_convex_builds_no_table(self, monkeypatch, family, iv_i, iv_j):
        gi, gj = make_uniform_grid(*iv_i, 33), make_uniform_grid(*iv_j, 31)
        f, spec = GridFunction(gi, np.abs(gi.points)), parse_cost_spec(family)
        want = is_c_convex(f, tabulate_cost(spec, gi, gj))

        def no_table(*args):
            raise AssertionError("c_convex tabulated a certified spec")

        monkeypatch.setattr("cconvex.subdiff.tabulate_cost", no_table)
        a = Analysis(f, spec, grid_j=gj)
        assert a.c_convex == want
        assert "table" not in vars(a)

    @pytest.mark.parametrize("matrix", [False, True])
    def test_nonfinite_c_convex_rejected_before_work(self, monkeypatch, matrix):
        def no_work(*args, **kwargs):
            raise AssertionError("computation started before the f check")

        g, spec = make_uniform_grid(-1, 1, 9), CostSpec("bilinear")
        cost = tabulate_cost(spec, g, g) if matrix else spec
        for name in ("twist_bound", "tabulate_cost", "_monotone_argmax", "c_transform"):
            monkeypatch.setattr(f"cconvex.subdiff.{name}", no_work)
        a = Analysis(GridFunction(g, np.where(g.points > 0.5, np.inf, 0.0)), cost, grid_j=g)
        with pytest.raises(ValueError, match="^Analysis.c_convex requires an everywhere-finite f$"):
            a.c_convex

    def test_grid_j_is_checked(self):
        g, h = make_uniform_grid(-1, 1, 17), make_uniform_grid(-1, 1, 9)
        f = GridFunction(g, g.points**2)
        with pytest.raises(ValueError, match="^grid_j must be omitted or the cost matrix's own J grid$"):
            Analysis(f, tabulate_cost(CostSpec("bilinear"), g, g), grid_j=h)
        with pytest.raises(ValueError, match="^a cost spec needs its J grid, grid_j$"):
            Analysis(f, CostSpec("bilinear"))


def dense_payload(command, argv):
    """The CLI payload built from the dense public API, as `cconvex
    transform`/`subdiff` wrote it before the engine."""
    args = cli.build_parser().parse_args([command, *argv])
    gi, gj = cli._build_grids(args)
    f = cli.parse_function(args.f, gi)
    cost = tabulate_cost(parse_cost_spec(args.cost), gi, gj)
    payload = {"config": cli._common_config(args)}
    if command == "transform":
        fc, fcc = c_transform(f, cost), double_c_transform(f, cost)
        holds, deviation = is_c_convex(f, cost, args.tol)
        payload.update({
            "f_c": {"points": [float(p) for p in gj.points],
                    "values": [float(v) for v in fc.values.values],
                    "argmax_points": [float(gi.points[a]) for a in fc.argmax]},
            "f_cc": {"points": [float(p) for p in gi.points],
                     "values": [float(v) for v in fcc.values.values],
                     "argmax_points": [float(gj.points[a]) for a in fcc.argmax]},
            "c_convex": {"holds": holds, "deviation": deviation, "tol": args.tol}})
    else:
        slack = membership_slack(f, cost)
        sets, dom = subdifferential_map(f, cost, args.tol)
        payload.update({"dom": [bool(d) for d in dom],
                        "triples": [[int(s.x0_index), int(j), float(slack[s.x0_index, j])]
                                    for s in sets for j in s.y_indices]})
    payload["config_hash"] = cli._config_hash(payload["config"])
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


class TestCliByteIdentity:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # n, m <= 257 fit one default block; 7 values a block split every array
        monkeypatch.setattr(cli, "BLOCK", 7)

    @pytest.mark.parametrize("command", ["transform", "subdiff"])
    @pytest.mark.parametrize("f", ["half_parabola", "neg_absolute_value",
                                   "piecewise_linear:-1,0.5;-0.25,-0.75;0.5,0.25;1,1",
                                   "piecewise_linear:-1,-1;1,1"])
    @pytest.mark.parametrize("n, m", [(257, 257), (129, 257), (257, 129)])
    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED + DENSE_FALLBACK)
    def test_matches_dense_api(self, tmp_path, command, f, n, m, family, iv_i, iv_j):
        if (family, iv_i, iv_j) in DENSE_FALLBACK:
            gi = make_uniform_grid(*iv_i, n)
            assert twist_bound(parse_cost_spec(family), gi, make_uniform_grid(*iv_j, m),
                               fmax(cli.parse_function(f, gi))) is None
        argv = ["--n", str(n), "--m", str(m), "--cost", family, "--f", f,
                f"--interval-i={iv_i[0]},{iv_i[1]}", f"--interval-j={iv_j[0]},{iv_j[1]}"]
        out = tmp_path / "out.json"
        assert cli.main([command, *argv, "--out", str(out)]) == 0
        got, want = out.read_text(), dense_payload(command, argv)
        if (command, f, n, m, family) not in SIGNED_ZERO_MAXIMA:
            assert got == want
            return
        # only a zero maximum's sign differs, as in TestSignedZero, and only in
        # the values: with want's sign on the zeros there, got prints as want
        assert got != want
        payload, reference = json.loads(got), json.loads(want)

        def sign_of_want(ours, theirs):
            return theirs if ours == theirs == 0 else ours

        if command == "transform":
            for k in ("f_c", "f_cc"):
                ours, theirs = payload[k]["values"], reference[k]["values"]
                assert len(ours) == len(theirs)
                payload[k]["values"] = list(map(sign_of_want, ours, theirs))
        else:
            for t, r in zip(payload["triples"], reference["triples"]):
                t[2] = sign_of_want(t[2], r[2])
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == want

    @pytest.mark.parametrize("options", [["--f", "half_parabola", "--tol", "0"],
                                         ["--f", "neg_absolute_value", "--tol", "0.1"],
                                         ["--f", "zero"], ["--f", "constant:0.3"]],
                             ids=["tol0", "tol0.1", "zero", "constant"])
    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_subdiff_options_match_dense_api(self, tmp_path, options, family, iv_i, iv_j):
        argv = ["--n", "257", "--m", "257", "--cost", family, *options,
                f"--interval-i={iv_i[0]},{iv_i[1]}", f"--interval-j={iv_j[0]},{iv_j[1]}"]
        out = tmp_path / "out.json"
        assert cli.main(["subdiff", *argv, "--out", str(out)]) == 0
        got, want = out.read_text(), dense_payload("subdiff", argv)
        if got != want:  # only a zero slack's sign may differ, as in TestSignedZero
            assert options == ["--f", "zero"] and json.loads(got) == json.loads(want)


class TestMemory:
    @pytest.mark.parametrize("command", ["transform", "subdiff"])
    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_peak_below_one_dense_array(self, tmp_path, command, family, iv_i, iv_j):
        n = 2049
        argv = [command, "--n", str(n), "--m", str(n), "--cost", family, "--f", "absolute_value",
                f"--interval-i={iv_i[0]},{iv_i[1]}", f"--interval-j={iv_j[0]},{iv_j[1]}",
                "--out", str(tmp_path / "out.json")]
        cli._parser()  # built once a process, not part of the command's peak
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # transform keeps the grids' point texts, 24 B a point in one bytes
        # array (one for both grids when they are equal), a block of texts and
        # their joined text, about 0.2 MB at cli.BLOCK values, a few float
        # arrays of 8 B a point, and the engine's level temporaries, about
        # 40 B a pair for the 2 n pairs of its first level: 93-109 B a grid
        # point here; subdiff is banded, O(n + m) besides its output of 1-2
        # triples a row: 75-90 B a point
        bound = (125 if command == "transform" else 100) * (n + n)
        assert peak < bound, f"peak {peak / 1e6:.1f} MB"

    def test_membership_slack_is_one_array(self):
        # c - f is the one n x m array: the column maximum is subtracted in place
        n = 1025
        g = make_uniform_grid(-1, 1, n)
        f, cost = GridFunction(g, np.abs(g.points)), tabulate_cost(CostSpec("bilinear"), g, g)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            slack = membership_slack(f, cost)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert slack.nbytes == n * n * 8
        assert peak <= 1.1 * slack.nbytes, f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_spec_analysis_peak(self, family, iv_i, iv_j):
        # f^c, f^cc and the banded triples of a certified spec: O(n + m)
        n = 2049
        gi, gj = make_uniform_grid(*iv_i, n), make_uniform_grid(*iv_j, n)
        f = GridFunction(gi, np.abs(gi.points))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            a = Analysis(f, parse_cost_spec(family), grid_j=gj)
            a.fc, a.fcc, a.triples
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert "table" not in vars(a)
        # 77-85 B a grid point, where a 2n-wide band search held 99-128
        assert peak < 100 * (n + n), f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_band_search_peak(self, family, iv_i, iv_j):
        # the two n-wide searches hold about 90 B a row, and the output 25 B
        # a triple (1-1.5 a row here): 362-400 KB at n = m = 4097, where one
        # 2n-wide search and its row and side arrays held 670-904 KB
        n = 4097
        gi, gj = make_uniform_grid(*iv_i, n), make_uniform_grid(*iv_j, n)
        a = Analysis(GridFunction(gi, np.abs(gi.points)), parse_cost_spec(family), grid_j=gj)
        a.fc
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            a.triples
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 120 * n, f"peak {peak / 1e6:.2f} MB"

    def test_certified_spans_peak(self):
        # the spans of a certified spec come from the band search's members,
        # 4,915 here, with the twist bound and the engine's f^c: about 0.5 MB,
        # where the table, the slack matrix and the member matrix took 302 MB
        n = 4097
        gi, gj = make_uniform_grid(-1, 1, n), make_uniform_grid(-2.5, 2.5, n)
        f = GridFunction(gi, np.abs(gi.points))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            a = Analysis(f, CostSpec("neg_quadratic"), grid_j=gj)
            counts, _, _, intervals = a.spans
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert counts.sum() == 4915 and intervals and "table" not in vars(a)
        assert peak < 2e6, f"peak {peak / 1e6:.2f} MB"
