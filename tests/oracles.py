"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's reduction paths: plain Python
loops over grid points, directly transcribing the defining sup/inf
formulas, so the vectorized implementations are checked against an
independent route.
"""

import math
import types

import numpy as np

from cconvex.costs import CostDomainError, evaluate_cost
from cconvex.grids import GridFunction
from cconvex.jensen import JensenReport, NoAdmissibleWitnessError
from cconvex.subdiff import membership_slack
from cconvex.verdicts import Verdict


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


def plain_evaluate_cost(spec, x, y):
    """c(x, y) by the plain expressions, a new array at each step: the
    reference for ``evaluate_cost``'s in-place evaluation of the four
    analytic families.  A reflector pair with x*y >= 1 is searched for
    in row-major order, one pair at a time."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def poly(coeffs):  # Horner, numpy polyval's operation order
        out = coeffs[-1] + y * 0 if coeffs else np.zeros_like(y)
        for c in coeffs[-2::-1]:
            out = c + out * y
        return out

    if spec.family == "bilinear":
        out = x * y
    elif spec.family == "one_affine":
        out = poly(spec.a_coeffs) * x + poly(spec.b_coeffs)
    elif spec.family == "neg_quadratic":
        d = x - y
        out = -spec.scale * (d * d)
    elif spec.family == "reflector":
        p = x * y
        xb, yb = np.broadcast_arrays(x, y)
        for idx in np.ndindex(p.shape):
            if p[idx] >= 1.0:
                raise CostDomainError(float(xb[idx]), float(yb[idx]),
                                      "reflector cost requires x*y < 1")
        out = -np.log1p(-p)
    else:
        raise ValueError(f"no plain expression for {spec.family!r}")
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Reference pair sweeps of the proposition checks: one Python iteration per
# sampled pair, with the results of the blocked sweeps in ``cconvex.propcheck``.
# They take the dense member and slack matrices that the input adapters below
# build from an ``Analysis``, read the member rows themselves and ignore
# ``spans``.

def members_of(member):
    """The ``Analysis.members`` (counts, cols) of a dense member matrix."""
    return member.sum(axis=1), np.nonzero(member)[1]


def dense_member(a):
    """The n x m member matrix of an ``Analysis``, built from its ``members``."""
    counts, cols = a.members
    member = np.zeros((a.f.grid.n, a.grid_j.n), dtype=bool)
    member[np.repeat(np.arange(counts.size), counts), cols] = True
    return member


def dense_slack(a):
    """The n x m slack matrix of an ``Analysis``, read through its ``slack_at``."""
    return a.slack_at(np.arange(a.f.grid.n)[:, None], np.arange(a.grid_j.n))


def dense_view(a):
    """An ``Analysis``'s f and tol with its dense ``member`` matrix, the
    input of ``loop_order_propagation``."""
    return types.SimpleNamespace(f=a.f, tol=a.tol, member=dense_member(a))


def loop_row_spans(member):
    """Member count, first and last member column of each row (0 and m - 1
    for an empty row), and whether every nonempty row is one interval."""
    n, m = member.shape
    counts, first, last = np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.full(n, m - 1)
    intervals = True
    for i in range(n):
        cols = [j for j in range(m) if member[i, j]]
        if cols:
            counts[i], first[i], last[i] = len(cols), cols[0], cols[-1]
            intervals = intervals and cols[-1] - cols[0] + 1 == len(cols)
    return counts, first, last, intervals


def loop_subdiff_convexity_sweep(member, spans, grid_j, tol, i1, i2):
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


def loop_set_valued_sweep(slack, member, spans, grid_i, grid_j, lambdas, tol, lipschitz,
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


def loop_intersection_sweep(slack, member, spans, grid_i, lambdas, tol, lipschitz, i1s, i2s):
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


def loop_domain_interval_sweep(member, spans, dom_relaxed, i1s, i2s):
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


def loop_order_propagation(a, b):
    """``check_order_propagation`` as one Python iteration per (u, v), in
    row-major order: u qualifies when g(u) - f(u) > 4 tol (Python floats,
    so +inf - +inf is a silent NaN), and (u, v) when the members of g at
    u meet those of f at v; the witness is the first pair at the maximum
    of f(v) - g(v)."""
    tol, f, g = a.tol, a.f.values.tolist(), b.f.values.tolist()
    worst, witness = -math.inf, None
    for u in range(len(f)):
        if not g[u] - f[u] > 4.0 * tol:
            continue
        for v in range(len(f)):
            if (b.member[u] & a.member[v]).any():
                excess = f[v] - g[v]
                if witness is None or excess > worst:
                    worst, witness = excess, (u, v)
    if witness is None:
        return Verdict("order_propagation", 0.0, notes="vacuous: no qualifying cases",
                       status="vacuous")
    return Verdict("order_propagation", worst, witness, notes=f"u-gap=4*tol; tol={tol}")


def loop_cost_self_subdiff(cost, tol):
    """Worst excess of the self-support identity, one membership slack
    matrix per column."""
    worst = -np.inf
    for j in range(cost.grid_j.n):
        f = GridFunction(cost.grid_i, cost.entries[:, j])
        slack_col = membership_slack(f, cost)[:, j]
        worst = max(worst, float(np.abs(slack_col).max() - tol))
    return worst


def separate_gate_holds(entries, property):
    """A cost hypothesis decided as each gate decided it on its own, before
    ``check_structure`` judged them all, each with its own copy of
    tol = 1e-9 * (1 + max|c|): the axis rule of ``check_structure``, the
    inline twist rule of ``check_subdiff_convexity`` and the segment rule of
    ``check_set_valued_convexity``."""
    tol = 1e-9 * (1.0 + float(np.abs(entries).max()))
    if property == "twisted":
        mixed = entries[1:, 1:] - entries[1:, :-1]
        mixed -= entries[:-1, 1:]
        mixed += entries[:-1, :-1]
        return bool(mixed.min() > tol or mixed.max() < -tol)
    if property == "segment_concave":
        worst = -np.inf
        if entries.shape[0] >= 3:
            worst = max(worst, float(np.diff(entries, 2, axis=0).max()))
        if entries.shape[1] >= 3:
            worst = max(worst, float(np.diff(entries, 2, axis=1).max()))
        if min(entries.shape) >= 3:
            e = entries
            diag = e[:-2, :-2] - 2.0 * e[1:-1, 1:-1] + e[2:, 2:]
            anti = e[:-2, 2:] - 2.0 * e[1:-1, 1:-1] + e[2:, :-2]
            worst = max(worst, float(diag.max()), float(anti.max()))
        return not worst > tol
    d2 = np.diff(entries, 2, axis=0 if property.startswith("one_") else 1)
    if property.endswith("affine"):
        viol = np.abs(d2)
    elif property.endswith("concave"):
        viol = d2
    else:  # convex
        viol = -d2
    return bool(float(viol.max()) <= tol)


def separate_convex_holds(values, tol):
    """The f-convexity gate on f's effective domain: the finite values form one
    contiguous run, and each second difference in it, taken as np.diff takes
    it, is >= -tol * (1 + max |f| on the run)."""
    finite = [i for i, v in enumerate(values) if math.isfinite(v)]
    if finite != list(range(finite[0], finite[-1] + 1)):
        return False
    run = [float(values[i]) for i in finite]
    bound = -tol * (1.0 + max(abs(v) for v in run))
    d1 = [run[i + 1] - run[i] for i in range(len(run) - 1)]
    return all(d1[i + 1] - d1[i] >= bound for i in range(len(d1) - 1))


def loop_raw_function(amplitude, grid, rng):
    """A random_smooth_fourier draw, one term at a time: for k = 1..5 draw
    (a, b), then add (amplitude / k^2) (a cos(pi k t) + b sin(pi k t)),
    t = (x - lo) / (hi - lo), onto a sum that starts at 0.0."""
    lo, hi = grid.interval.lo, grid.interval.hi
    t = (grid.points - lo) / (hi - lo)
    out = np.zeros(grid.n)
    for k in range(1, 6):
        a, b = rng.normal(size=2)
        out += (amplitude / k**2) * (a * np.cos(np.pi * k * t) + b * np.sin(np.pi * k * t))
    return out


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


def _loop_f_value(f, x):
    if not f.is_finite:
        raise ValueError("interpolated evaluation needs an everywhere-finite f")
    return float(np.interp(x, f.grid.points, f.values))


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


def loop_discrete_jensen(f, cost, mu, y=None, tol=1e-9, grid_j=None):
    """The discrete Jensen report, one point and one atom at a time."""
    iv = f.grid.interval
    for x in mu.positions:
        if not iv.contains(float(x)):
            raise ValueError(f"measure atom {x} lies outside the interval [{iv.lo}, {iv.hi}]")
    b = loop_barycenter(mu)
    fb = _loop_f_value(f, b)
    eff_tol = tol + 2.0 * f.max_slope() * f.grid.h
    notes = ["f interpolated at barycenter"]
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

    atom_vals = [_loop_f_value(f, float(x)) for x in mu.positions]
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
