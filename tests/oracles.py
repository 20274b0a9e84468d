"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's reduction paths: plain Python
loops over grid points, directly transcribing the defining sup/inf
formulas, so the vectorized implementations are checked against an
independent route.
"""

import math

import numpy as np

from cconvex.costs import evaluate_cost
from cconvex.grids import GridFunction
from cconvex.jensen import JensenReport, NoAdmissibleWitnessError
from cconvex.subdiff import membership_slack


def brute_c_transform(f_vals, entries):
    """f^c(y_j) = max_i entries[i][j] - f_i, skipping +inf, first argmax."""
    n, m = entries.shape
    values = np.empty(m)
    argmax = np.empty(m, dtype=int)
    for j in range(m):
        best = -math.inf
        best_i = -1
        for i in range(n):
            if math.isinf(f_vals[i]):
                continue
            v = entries[i][j] - f_vals[i]
            if v > best:
                best = v
                best_i = i
        values[j] = best
        argmax[j] = best_i
    return values, argmax


def brute_double_conjugate(f_vals, entries):
    """f^cc(x_i) = max_j min_z { f_z + c(x_i, y_j) - c(x_z, y_j) }.

    Direct sup-inf transcription, independent of the (f^c)^c route.
    """
    n, m = entries.shape
    out = np.empty(n)
    for i in range(n):
        best = -math.inf
        for j in range(m):
            inner = math.inf
            for z in range(n):
                if math.isinf(f_vals[z]):
                    continue
                inner = min(inner, f_vals[z] + entries[i][j] - entries[z][j])
            best = max(best, inner)
        out[i] = best
    return out


def brute_subdifferential(f_vals, entries, x0, tol):
    """Definition sweep: y_j is a member iff
    f(z) >= f(x0) + c(z, y) - c(x0, y) - tol for every z."""
    n, m = entries.shape
    members = []
    for j in range(m):
        ok = True
        for z in range(n):
            if math.isinf(f_vals[z]):
                continue
            if f_vals[z] - f_vals[x0] - entries[z][j] + entries[x0][j] < -tol:
                ok = False
                break
        if ok:
            members.append(j)
    return members


def brute_local_subdifferential(f_vals, entries, points, x0, eps, tol):
    n, m = entries.shape
    members = []
    for j in range(m):
        ok = True
        for z in range(n):
            if abs(points[z] - points[x0]) >= eps and z != x0:
                continue
            if f_vals[z] - f_vals[x0] - entries[z][j] + entries[x0][j] < -tol:
                ok = False
                break
        if ok:
            members.append(j)
    return members


def chunked_bilinear_conjugate(x, f_vals, ys, chunk=512):
    """Brute-force bilinear conjugate in y chunks, memory-bounded.

    Same arithmetic (x_i * y_j - f_i) and first-argmax tie-break as a
    tabulated cost matrix sweep.
    """
    m = len(ys)
    values = np.empty(m)
    argmax = np.empty(m, dtype=int)
    for start in range(0, m, chunk):
        yy = ys[start:start + chunk]
        d = x[:, None] * yy[None, :] - f_vals[:, None]
        values[start:start + chunk] = d.max(axis=0)
        argmax[start:start + chunk] = d.argmax(axis=0)
    return values, argmax


# ---------------------------------------------------------------------------
# Reference pair sweeps of the proposition checks: one Python iteration per
# sampled pair, with the same signatures and results as the blocked sweeps
# in ``cconvex.propcheck``.

def loop_subdiff_convexity_sweep(member, grid_j, tol, i1, i2):
    worst = -np.inf
    witness = None
    for i in range(member.shape[0]):
        idx = np.flatnonzero(member[i])
        if idx.size == 0:
            continue
        gaps = float(idx[-1] - idx[0] + 1 - idx.size)  # zero iff contiguous
        if gaps > worst:
            worst = gaps
            witness = (i, int(idx[0]), int(idx[-1])) if gaps > 0 else witness
    hj = grid_j.h
    yv = grid_j.points
    for a, b in zip(i1, i2):
        both = member[a] & member[b]
        if not both.any():
            continue
        ys = yv[both]
        excess = (ys[-1] - ys[0]) - (hj + tol)
        if excess > worst:
            worst = float(excess)
            if excess > 0:
                witness = (int(a), int(b))
    return worst, witness


def loop_set_valued_sweep(slack, member, grid_i, grid_j, lambdas, tol, lipschitz,
                          rng, i1s, i2s):
    """One ``rng.choice`` per endpoint, then the snapping allowance
    tol + 2(lf + lcx)|dx| + 2 lcy |dy| per mixture."""
    lf, lcx, lcy = lipschitz
    xv, yv = grid_i.points, grid_j.points
    worst = -np.inf
    witness = None
    for x1, x2 in zip(i1s, i2s):
        a = int(rng.choice(np.flatnonzero(member[x1])))
        b = int(rng.choice(np.flatnonzero(member[x2])))
        for lam in lambdas:
            xm = (1.0 - lam) * xv[x1] + lam * xv[x2]
            ym = (1.0 - lam) * yv[a] + lam * yv[b]
            im = grid_i.nearest_index(xm)
            jm = grid_j.nearest_index(ym)
            allow = tol + 2.0 * (lf + lcx) * abs(xv[im] - xm) + 2.0 * lcy * abs(yv[jm] - ym)
            excess = -slack[im, jm] - allow
            if excess > worst:
                worst = float(excess)
                if excess > 0:
                    witness = (int(x1), int(x2), float(lam))
    return worst, witness


def loop_intersection_sweep(slack, member, grid_i, lambdas, tol, lipschitz, i1s, i2s):
    lf, lcx, lcy = lipschitz
    xv = grid_i.points
    worst = -np.inf
    witness = None
    any_intersection = False
    for x1, x2 in zip(i1s, i2s):
        inter = np.flatnonzero(member[x1] & member[x2])
        if inter.size == 0:
            continue
        any_intersection = True
        for lam in lambdas:
            xm = (1.0 - lam) * xv[x1] + lam * xv[x2]
            im = grid_i.nearest_index(xm)
            allow = tol + 2.0 * (lf + lcx) * abs(xv[im] - xm) + 2.0 * lcy * 0.0
            excess = float((-slack[im, inter]).max() - allow)
            if excess > worst:
                worst = excess
                if excess > 0:
                    witness = (int(x1), int(x2), float(lam))
    return worst, witness, any_intersection


def loop_domain_interval_sweep(member, dom_relaxed, i1s, i2s):
    worst = -np.inf
    witness = None
    any_intersection = False
    for x1, x2 in zip(i1s, i2s):
        if x1 > x2:
            x1, x2 = x2, x1
        if not (member[x1] & member[x2]).any():
            continue
        any_intersection = True
        missing = np.flatnonzero(~dom_relaxed[x1:x2 + 1])
        excess = float(missing.size)
        if excess > worst:
            worst = excess
            if excess > 0:
                witness = (int(x1), int(x2), int(x1 + missing[0]))
    return worst, witness, any_intersection


def loop_cost_self_subdiff(cost, tol):
    """Worst excess of the self-support identity, one membership slack
    matrix per column."""
    worst = -np.inf
    for j in range(cost.grid_j.n):
        f = GridFunction(cost.grid_i, cost.entries[:, j])
        slack_col = membership_slack(f, cost)[:, j]
        worst = max(worst, float(np.abs(slack_col).max() - tol))
    return worst


def loop_quadrature(f):
    """Composite trapezoid rule, one left-to-right Python sum."""
    if not f.is_finite:
        raise ValueError("quadrature requires everywhere-finite values")
    v = f.values
    acc = 0.5 * v[0]
    for x in v[1:-1]:
        acc += x
    acc += 0.5 * v[-1]
    return float(acc * f.grid.h)


def loop_mass(weights):
    """Total mass, summed as the measure's validity check sums it."""
    total = 0.0
    for p in weights:
        total += p
    return total


def loop_barycenter(mu):
    acc = 0.0
    for x, p in zip(mu.positions, mu.weights):
        acc += p * x
    return float(acc)


def _loop_f_value(f, x, f_eval):
    if f_eval is not None:
        return float(f_eval(x)), False
    if not f.is_finite:
        raise ValueError("interpolated evaluation needs an everywhere-finite f")
    return float(np.interp(x, f.grid.points, f.values)), True


def _loop_witness_slack(f, cost, anchor, fb, y):
    c_col = evaluate_cost(cost, f.grid.points, y)
    gaps = (f.values - fb) - (c_col - evaluate_cost(cost, anchor, y))
    return float(np.min(gaps))


def _loop_pick_witness(f, cost, anchor, fb, grid_j):
    cols = evaluate_cost(cost, f.grid.points[:, None], grid_j.points[None, :])
    anchor_row = evaluate_cost(cost, anchor, grid_j.points)
    gaps = (f.values[:, None] - fb) - (cols - anchor_row[None, :])
    slacks = gaps.min(axis=0)
    j = int(np.argmax(slacks))
    return float(grid_j.points[j]), float(slacks[j])


def loop_discrete_jensen(f, cost, mu, y=None, tol=1e-9, f_eval=None, grid_j=None):
    """The discrete Jensen report, one point and one atom at a time."""
    iv = f.grid.interval
    for x in mu.positions:
        if not iv.contains(float(x)):
            raise ValueError(f"measure atom {x} lies outside the interval [{iv.lo}, {iv.hi}]")
    b = loop_barycenter(mu)
    fb, used_interp = _loop_f_value(f, b, f_eval)
    eff_tol = tol + 2.0 * f.max_slope() * f.grid.h if used_interp else tol
    notes = []
    if used_interp:
        notes.append("f interpolated at barycenter")
    if b in (iv.lo, iv.hi):
        notes.append("barycenter at an endpoint")
    if y is None:
        if grid_j is None:
            raise ValueError("no witness y supplied and no J grid to search")
        y, slack = _loop_pick_witness(f, cost, b, fb, grid_j)
        if slack < -eff_tol:
            raise NoAdmissibleWitnessError(
                f"no admissible witness: best membership slack {slack} at the anchor "
                f"{b} is below -{eff_tol}")
        hyp_ok = True
    else:
        y = float(y)
        hyp_ok = _loop_witness_slack(f, cost, b, fb, y) >= -eff_tol
    if not hyp_ok:
        notes.append("hypothesis-unverified: y is not a subdifferential member at tol")

    atom_vals = [_loop_f_value(f, float(x), f_eval)[0] for x in mu.positions]
    lhs = 0.0
    for p, fx in zip(mu.weights, atom_vals):
        lhs += p * fx
    lhs -= fb
    rhs = 0.0
    for p, x in zip(mu.weights, mu.positions):
        rhs += p * evaluate_cost(cost, float(x), y)
    rhs -= evaluate_cost(cost, b, y)
    slack = lhs - rhs
    return JensenReport(lhs=float(lhs), rhs=float(rhs), y_witness=y,
                        holds=slack >= -eff_tol, slack=float(slack),
                        hypothesis_verified=hyp_ok, tol=eff_tol, notes="; ".join(notes))
