"""The matrix-free monotone-argmax engine: differential tests against the
dense sweeps and the loop oracles, dispatch and fallback to the dense path,
byte identity of the CLI output with the dense public API, and its memory.
"""

import json
import tracemalloc

import numpy as np
import pytest

from cconvex import cli
from cconvex.costs import CostDomainError, CostSpec, parse_cost_spec, tabulate_cost, twisted_on
from cconvex.grids import GridFunction, make_uniform_grid
from cconvex.subdiff import membership_slack, membership_triples, subdifferential_map
from cconvex.transform import (_monotone_argmax, c_transform, conjugates, double_c_transform,
                               is_c_convex, monotone_c_transform)
from oracles import brute_c_transform

# cost, I interval, J interval; the reflector needs x*y < 1 on I x J, and
# the one_affine a(y) = 0.2 + 0.8y + 0.3y^2 increases on [-1, 1]
TWISTED = (
    ("bilinear", (-1.0, 1.0), (-1.0, 1.0)),
    ("neg_quadratic:2.5", (-1.0, 1.0), (-1.5, 1.5)),
    ("reflector", (-0.9, 0.9), (-0.9, 0.9)),
    ("one_affine:0.2,0.8,0.3;0.1,-1", (-1.0, 1.0), (-1.0, 1.0)),
)
SIZES = ((2, 2), (2, 3), (3, 2), (17, 16), (64, 65), (129, 128))
F_KINDS = ("random", "random_inf", "cconvexified", "dyadic_piecewise", "constant", "zero")


def make_f(kind, gi, cost, rng):
    n = gi.n
    if kind == "random":
        return GridFunction(gi, rng.uniform(-2, 2, n))
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


def assert_same_transform(engine, dense):
    # == semantics: where a maximum is a zero reached with both signs the
    # sign may differ (TestSignedZero), every other value is bit-equal
    assert np.array_equal(engine.values.values, dense.values.values)
    assert np.array_equal(engine.argmax, dense.argmax)


class TestKernel:
    @pytest.mark.parametrize("n_out", [1, 2, 3, 8, 33])
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


class TestDifferential:
    @pytest.mark.parametrize("kind", F_KINDS)
    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_engine_matches_dense_and_brute(self, family, iv_i, iv_j, kind):
        spec = parse_cost_spec(family)
        rng = np.random.default_rng(len(family) * 31 + F_KINDS.index(kind))
        for n, m in SIZES:
            gi, gj = make_uniform_grid(*iv_i, n), make_uniform_grid(*iv_j, m)
            assert twisted_on(spec, gi, gj)
            cost = tabulate_cost(spec, gi, gj)
            f = make_f(kind, gi, cost, rng)
            fc, fcc = conjugates(f, spec, gj)
            assert_same_transform(fc, c_transform(f, cost))
            assert_same_transform(monotone_c_transform(f, spec, gj), fc)
            assert_same_transform(fcc, double_c_transform(f, cost))
            values, argmax = brute_c_transform(f.values, cost.entries)
            assert np.array_equal(fc.values.values, values)
            assert np.array_equal(fc.argmax, argmax)
            back, back_arg = brute_c_transform(fc.values.values, cost.entries.T)
            assert np.array_equal(fcc.values.values, back)
            assert np.array_equal(fcc.argmax, back_arg)


class TestSignedZero:
    def test_zero_tie_keeps_the_first_maximiser_sign(self):
        # f = 0 under x*y: the y = 0 column is all zeros, -0.0 for x < 0;
        # the engine returns the first maximiser's -0.0, a value the dense
        # reduction may return as +0.0
        g = make_uniform_grid(-1, 1, 11)
        spec = CostSpec("bilinear")
        f = GridFunction(g, np.zeros(11))
        fc = monotone_c_transform(f, spec, g)
        dense = c_transform(f, tabulate_cost(spec, g, g))
        assert_same_transform(fc, dense)
        assert fc.argmax[5] == 0 and np.signbit(fc.values.values[5])
        differ = np.signbit(fc.values.values) != np.signbit(dense.values.values)
        assert (fc.values.values[differ] == 0.0).all()


class TestFallback:
    @pytest.mark.parametrize("spec", [
        parse_cost_spec("one_affine:0,-1;0.2"),  # a(y) = -y decreases
        CostSpec("translation", h=lambda d: -np.abs(d) ** 1.5),
    ], ids=["decreasing_a", "translation"])
    def test_dense_path_unchanged(self, spec):
        g = make_uniform_grid(-1, 1, 33)
        assert not twisted_on(spec, g, g)
        with pytest.raises(ValueError, match="not certified twisted"):
            monotone_c_transform(GridFunction(g, g.points**2), spec, g)
        cost = tabulate_cost(spec, g, g)
        for f in (GridFunction(g, g.points**2), GridFunction(g, np.zeros(33))):
            fc, fcc = conjugates(f, spec, g)
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
        assert not twisted_on(spec, gi, gj)
        with pytest.raises(CostDomainError) as dense:
            tabulate_cost(spec, gi, gj)
        f = GridFunction(gi, np.zeros(9))
        with pytest.raises(CostDomainError) as engine:
            conjugates(f, spec, gj)
        assert str(engine.value) == str(dense.value)
        with pytest.raises(CostDomainError) as triples:
            membership_triples(f, spec, gj)
        assert str(triples.value) == str(dense.value)

    @pytest.mark.parametrize("spec, iv", [
        (CostSpec("bilinear"), (-1e200, 1e200)),
        (CostSpec("neg_quadratic", scale=1e300), (-1e5, 1e5)),
        (parse_cost_spec("one_affine:0,1e300;0"), (-1e10, 1e10)),
    ], ids=["bilinear", "neg_quadratic", "one_affine"])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflow_same_error(self, spec, iv):
        g = make_uniform_grid(*iv, 5)
        assert not twisted_on(spec, g, g)
        f = GridFunction(g, np.zeros(5))
        for call in (lambda: conjugates(f, spec, g), lambda: membership_triples(f, spec, g)):
            with pytest.raises(ValueError, match="^cost matrix entries must all be finite$"):
                call()


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
    @pytest.mark.parametrize("command", ["transform", "subdiff"])
    @pytest.mark.parametrize("f", ["half_parabola", "neg_absolute_value",
                                   "piecewise_linear:-1,0.5;-0.25,-0.75;0.5,0.25;1,1"])
    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_matches_dense_api(self, tmp_path, command, f, family, iv_i, iv_j):
        argv = ["--n", "257", "--m", "257", "--cost", family, "--f", f,
                f"--interval-i={iv_i[0]},{iv_i[1]}", f"--interval-j={iv_j[0]},{iv_j[1]}"]
        out = tmp_path / "out.json"
        assert cli.main([command, *argv, "--out", str(out)]) == 0
        assert out.read_text() == dense_payload(command, argv)


class TestMemory:
    @pytest.mark.parametrize("command", ["transform", "subdiff"])
    @pytest.mark.parametrize("family, iv_i, iv_j", TWISTED)
    def test_peak_below_one_dense_array(self, tmp_path, command, family, iv_i, iv_j):
        n = 2049
        argv = [command, "--n", str(n), "--m", str(n), "--cost", family, "--f", "absolute_value",
                f"--interval-i={iv_i[0]},{iv_i[1]}", f"--interval-j={iv_j[0]},{iv_j[1]}",
                "--out", str(tmp_path / "out.json")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, f"peak {peak / 1e6:.1f} MB"
