"""Acceptance gate: six standalone criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; each criterion states its tolerance and runtime budget inline.
"""

import json
import time

import numpy as np

from cconvex.cli import main as cli_main
from cconvex.costs import CostSpec, tabulate_cost
from cconvex.grids import DiscreteMeasure, GridFunction, make_uniform_grid
from cconvex.jensen import discrete_jensen_gap, integral_jensen_bound, midpoint_bound, weighted_integral_bound
from cconvex.propcheck import InstanceConfig, generate_instance, run_suite
from cconvex.subdiff import Analysis
from cconvex.transform import c_transform, double_c_transform, is_c_convex
from oracles import chunked_bilinear_conjugate


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def instance_batch(count, seed0=0):
    """200-instance batch shared by criteria 2 and 3."""
    out = []
    for k in range(count):
        if k % 2 == 0:
            cfg = InstanceConfig(seed=seed0 + k, n=129, m=129,
                                 cost_family="bilinear",
                                 f_family="random_smooth_fourier")
        else:
            cfg = InstanceConfig(seed=seed0 + k, n=129, m=129,
                                 cost_family="neg_quadratic",
                                 interval_j=(-2.5, 2.5),
                                 f_family="random_smooth_fourier")
        out.append(generate_instance(cfg))
    return out


def test_criterion_1_conjugate_correctness():
    t0 = time.perf_counter()
    g = make_uniform_grid(-1, 1, 513)
    f = GridFunction(g, 0.5 * g.points**2)
    cost = tabulate_cost(CostSpec("bilinear"), g, g)
    fc = c_transform(f, cost)
    err = np.abs(fc.values.values - 0.5 * g.points**2).max()

    g8 = make_uniform_grid(-1, 1, 8193)
    f8 = GridFunction(g8, 0.5 * g8.points**2)
    fast = Analysis(f8, CostSpec("bilinear"), grid_j=g8).fc
    brute_vals, brute_arg = chunked_bilinear_conjugate(g8.points, f8.values, g8.points)
    gap = np.abs(fast.values.values - brute_vals).max()
    arg_ok = np.array_equal(fast.argmax, brute_arg)
    dt = time.perf_counter() - t0

    ok = err <= 1e-3 and gap <= 1e-12 and arg_ok and dt < 5.0
    report(1, ok, f"|f^c - y^2/2| = {err:.2e} (<=1e-3); "
                  f"fast-vs-brute at n=8193: {gap:.2e} (<=1e-12), argmax match={arg_ok}; "
                  f"runtime {dt:.2f}s (<5s)")


def test_criterion_2_biconjugate_envelope():
    t0 = time.perf_counter()
    g = make_uniform_grid(-1, 1, 1025)
    cost = tabulate_cost(CostSpec("bilinear"), g, g)
    fcc = double_c_transform(GridFunction(g, -g.points**2), cost).values
    env_err = np.abs(fcc.values - (-1.0)).max()

    worst = -np.inf
    for f, cm in instance_batch(200):
        fcc_r = double_c_transform(f, cm).values
        worst = max(worst, float((fcc_r.values - f.values).max()))
    dt = time.perf_counter() - t0

    ok = env_err <= 4 * g.h and worst <= 1e-9 and dt < 10.0
    report(2, ok, f"|f^cc + 1| = {env_err:.2e} (<=4h={4*g.h:.2e}); "
                  f"max (f^cc - f) over 200 instances = {worst:.2e} (<=1e-9); "
                  f"runtime {dt:.2f}s (<10s)")


def test_criterion_3_c_convexity_criterion():
    worst_idem = -np.inf
    all_convex = True
    for f, cm in instance_batch(200):
        fcc = double_c_transform(f, cm).values
        again = double_c_transform(fcc, cm).values
        worst_idem = max(worst_idem, float(np.abs(again.values - fcc.values).max()))
        holds, _ = is_c_convex(fcc, cm)
        all_convex = all_convex and holds
    ok = worst_idem <= 1e-9 and all_convex
    report(3, ok, f"idempotence deviation = {worst_idem:.2e} (<=1e-9); "
                  f"is_c_convex(f^cc) on all 200 = {all_convex}")


def _dyadic_measure(rng, grid, pairs=4):
    """Symmetric-pair measure: dyadic weights 1/(2*pairs), barycenter on grid."""
    n = grid.n
    c = int(rng.integers(n // 4, 3 * n // 4))  # interior center
    dmax = min(c, n - 1 - c)
    ds = rng.integers(0, dmax + 1, pairs)
    pos, w = [], []
    for d in ds:
        pos += [grid.points[c - d], grid.points[c + d]]
        w += [1.0 / (2 * pairs)] * 2
    return DiscreteMeasure(np.array(pos), np.array(w)), c, ds


def test_criterion_4_jensen_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_slack = np.inf
    worst_affine_rhs = 0.0
    for k in range(1000):
        fam = ("bilinear", "one_affine", "neg_quadratic")[k % 3]
        cfg = InstanceConfig(seed=k, n=65, m=65, cost_family=fam,
                             interval_j=(-2.5, 2.5) if fam == "neg_quadratic" else (-2.0, 2.0),
                             cost_params=((0.2, 0.8), (0.1,)) if fam == "one_affine" else (),
                             f_family="cconvexified_random")
        f, cm = generate_instance(cfg)
        spec_map = {"bilinear": CostSpec("bilinear"),
                    "one_affine": CostSpec("one_affine", a_coeffs=(0.2, 0.8),
                                           b_coeffs=(0.1,)),
                    "neg_quadratic": CostSpec("neg_quadratic")}
        spec = spec_map[fam]
        mu, c, ds = _dyadic_measure(rng, f.grid)
        gj = cm.grid_j

        r_disc = discrete_jensen_gap(f, spec, mu, tol=1e-9, grid_j=gj)
        a = float(f.grid.points[c - ds.max()])
        b = float(f.grid.points[c + ds.max()])
        r_mid = midpoint_bound(f, spec, a, b, tol=1e-9, grid_j=gj)
        r_w = weighted_integral_bound(f, spec, mu, tol=1e-9, grid_j=gj)
        for r in (r_disc, r_mid, r_w):
            worst_slack = min(worst_slack, r.slack)
        if fam in ("bilinear", "one_affine"):
            worst_affine_rhs = max(worst_affine_rhs, abs(r_disc.rhs),
                                   abs(r_mid.rhs), abs(r_w.rhs))

    g = make_uniform_grid(0, 1, 1001)
    fint = GridFunction(g, g.points**2)
    r_int = integral_jensen_bound(fint, CostSpec("bilinear"), xi=0.5, y=1.0)
    int_ok = abs(r_int.lhs - 1.0 / 12.0) <= 1e-6 and abs(r_int.rhs) <= 1e-6
    dt = time.perf_counter() - t0

    ok = worst_slack >= -1e-9 and worst_affine_rhs <= 1e-12 and int_ok and dt < 20.0
    report(4, ok, f"min slack over 3000 reports = {worst_slack:.2e} (>=-1e-9); "
                  f"max 1-affine |rhs| = {worst_affine_rhs:.2e} (<=1e-12); "
                  f"integral lhs={r_int.lhs:.8f} (1/12 within 1e-6), rhs={r_int.rhs:.2e}; "
                  f"runtime {dt:.2f}s (<20s)")


def test_criterion_5_proposition_suite():
    t0 = time.perf_counter()
    verdicts = run_suite(seed=0, tol=1e-9)
    dt = time.perf_counter() - t0
    bad = [v for v in verdicts if v.status != "held"]
    ok = not bad and dt < 60.0
    report(5, ok, f"{len(verdicts)} checks, all hold non-vacuously with verified "
                  f"hypotheses = {not bad}"
                  + (f" (offenders: {[(v.check_id, v.status) for v in bad]})" if bad else "")
                  + f"; every pair (cap 10100); runtime {dt:.2f}s (<60s)")


def test_criterion_6_reproducibility(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["suite", "--seed", "0", "--pair-cap", "10000"]
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    n_verdicts = len(json.loads(a.read_text())["verdicts"])
    report(6, same, f"two `suite` runs with identical config produced "
                    f"byte-identical JSON ({a.stat().st_size} bytes, "
                    f"{n_verdicts} verdicts)")
