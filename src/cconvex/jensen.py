"""Jensen-type gap bounds for c-convex functions: discrete, midpoint,
integral and weighted forms, plus the 1-affine reduction to classical
Jensen.

Every bound compares

    lhs = (f-side gap)   against   rhs = (cost-side gap)

for a subgradient witness y in the c-subdifferential at the barycenter.
The witness hypothesis is verified rather than trusted; when it fails the
report carries ``hypothesis_verified = False`` instead of raising, so the
failure mode of the bound stays observable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .costs import CostDomainError, CostSpec, check_structure, evaluate_cost, tabulate_cost
from .grids import (DiscreteMeasure, Grid, GridFunction, _composite_rule, _ordered_sum,
                    barycenter, check_tol, quadrature)
from .verdicts import Verdict

__all__ = [
    "JensenReport",
    "NoAdmissibleWitnessError",
    "discrete_jensen_gap",
    "midpoint_bound",
    "support_concavity_check",
    "integral_jensen_bound",
    "weighted_integral_bound",
    "classical_reduction_check",
]


class NoAdmissibleWitnessError(ValueError):
    """The c-subdifferential at the required anchor point is empty."""


@dataclass(frozen=True)
class JensenReport:
    lhs: float
    rhs: float
    y_witness: float
    holds: bool
    slack: float
    hypothesis_verified: bool
    tol: float
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _f_value(f: GridFunction, xs: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """f at (possibly off-grid) points, interpolated linearly between grid
    values, and ``tol`` plus what that costs, up to 2 * Lhat * h."""
    if not f.is_finite:
        raise ValueError("interpolated evaluation needs an everywhere-finite f")
    return np.interp(xs, f.grid.points, f.values), tol + 2.0 * f.max_slope() * f.grid.h


# Cells of the grid x witness gap table evaluated at once: a searched witness
# holds one block of this many floats, its gap table built in place, never the
# whole table.
WITNESS_BLOCK_CELLS = 2**16


def _witness_slack(f: GridFunction, cost: CostSpec, anchor: float, fb: float,
                   ys: np.ndarray) -> np.ndarray:
    """min_x { f(x) - f(anchor) - c(x, y) + c(anchor, y) } over the grid, per y,
    as a running minimum over blocks of grid rows."""
    try:
        anchor_row = evaluate_cost(cost, anchor, ys)
    except CostDomainError:
        # the anchor lies between the grid's ends, so a grid row offends too;
        # the blocks raise the first offending grid pair, as a whole table would
        anchor_row = np.zeros(ys.size)
    x, step = f.grid.points, max(1, WITNESS_BLOCK_CELLS // ys.size)
    slack = np.inf
    for lo in range(0, x.size, step):
        gaps = evaluate_cost(cost, x[lo:lo + step, None], ys[None, :])
        gaps -= anchor_row
        np.subtract(f.values[lo:lo + step, None] - fb, gaps, out=gaps)
        slack = np.minimum(slack, gaps.min(axis=0))
    return slack


def _resolve_witness(f, cost, anchor, fb, y, grid_j, eff_tol):
    if y is not None:
        if not math.isfinite(y):
            raise ValueError(f"witness y must be finite, got {y}")
        slack = _witness_slack(f, cost, anchor, fb, np.array([float(y)]))[0]
        return float(y), bool(slack >= -eff_tol)
    if grid_j is None:
        raise ValueError("no witness y supplied and no J grid to search")
    slacks = _witness_slack(f, cost, anchor, fb, grid_j.points)
    j = int(np.argmax(slacks))
    if slacks[j] < -eff_tol:
        raise NoAdmissibleWitnessError(
            f"no admissible witness: best membership slack {float(slacks[j])} at the anchor "
            f"{anchor} is below -{eff_tol}")
    return float(grid_j.points[j]), True


def discrete_jensen_gap(f: GridFunction, cost: CostSpec, mu: DiscreteMeasure,
                        y: Optional[float] = None, tol: float = 1e-9,
                        grid_j: Optional[Grid] = None) -> JensenReport:
    """Gap bound sum p_i f(x_i) - f(b) >= sum p_i c(x_i, y) - c(b, y)."""
    check_tol(tol)
    iv = f.grid.interval
    outside = (mu.positions < iv.lo) | (mu.positions > iv.hi)
    if outside.any():
        raise ValueError(f"measure atom {mu.positions[outside.argmax()]} lies outside "
                         f"the interval [{iv.lo}, {iv.hi}]")
    b = barycenter(mu)
    xs = np.concatenate((mu.positions, [b]))   # atoms, then b: a CostDomainError's order
    f_vals, eff_tol = _f_value(f, xs, tol)
    fb = f_vals[-1]
    notes = ["f interpolated at barycenter"]
    if b in (iv.lo, iv.hi):
        notes.append("barycenter at an endpoint")
    y, hyp_ok = _resolve_witness(f, cost, b, fb, y, grid_j, eff_tol)
    if not hyp_ok:
        notes.append("hypothesis-unverified: y is not a subdifferential member at tol")

    # the leading 0.0 column keeps the signed zero of a sum started from 0.0
    vals = np.array((f_vals, evaluate_cost(cost, xs, y)))
    terms = np.zeros_like(vals)
    np.multiply(mu.weights, vals[:, :-1], out=terms[:, 1:])
    lhs, rhs = _ordered_sum(terms, axis=1) - vals[:, -1]
    slack = lhs - rhs
    return JensenReport(lhs=float(lhs), rhs=float(rhs), y_witness=y,
                        holds=bool(slack >= -eff_tol), slack=float(slack),
                        hypothesis_verified=hyp_ok, tol=eff_tol, notes="; ".join(notes))


def midpoint_bound(f: GridFunction, cost: CostSpec, a: float, b: float,
                   y: Optional[float] = None, tol: float = 1e-9,
                   grid_j: Optional[Grid] = None) -> JensenReport:
    """Two-atom equal-weight specialization of the discrete gap bound."""
    mu = DiscreteMeasure(np.array([a, b], dtype=float), np.array([0.5, 0.5]))
    return discrete_jensen_gap(f, cost, mu, y=y, tol=tol, grid_j=grid_j)


def support_concavity_check(f: GridFunction, cost: CostSpec, a: float, b: float,
                            y: float, tol: float = 1e-9) -> Verdict:
    """Midpoint concavity of g(x) = c(x, y) - f(x): g((a+b)/2) >= (g(a)+g(b))/2."""
    check_tol(tol)
    iv = f.grid.interval
    for name, x in (("a", a), ("b", b)):
        if not iv.lo <= x <= iv.hi:   # NaN included
            raise ValueError(f"{name} = {x} lies outside the interval [{iv.lo}, {iv.hi}]")
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y}")
    xs = np.array([(a + b) / 2.0, a, b])
    f_vals, eff_tol = _f_value(f, xs, tol)
    gm, ga, gb = evaluate_cost(cost, xs, y) - f_vals
    excess = float((ga + gb) / 2.0 - gm - eff_tol)
    return Verdict("support_concavity", excess, (a, b, y), notes=f"tol={eff_tol}")


def _quadrature_tol(f: GridFunction, c_col: np.ndarray, tol: float) -> float:
    # composite-rule error allowance: h^2 (b-a) (M2f + M2c) / 6
    h = f.grid.h
    m2f = float(np.abs(np.diff(f.values, 2)).max(initial=0.0)) / h**2
    m2c = float(np.abs(np.diff(c_col, 2)).max(initial=0.0)) / h**2
    return tol + h**2 * f.grid.interval.length * (m2f + m2c) / 6.0


def integral_jensen_bound(f: GridFunction, cost: CostSpec, xi: Optional[float] = None,
                          y: Optional[float] = None, tol: float = 1e-9,
                          grid_j: Optional[Grid] = None) -> JensenReport:
    """Integral gap bound on [a, b], both integrals by the trapezoid rule:

        int f - f(xi)(b - a)  >=  int [c(x, y) - c(xi, y)] dx.

    xi defaults to the interval midpoint; one in [a, b] is snapped to the
    nearest grid point (with a note when the snap is nontrivial).
    """
    check_tol(tol)
    if not f.is_finite:
        raise ValueError("integral form requires an everywhere-finite f")
    iv = f.grid.interval
    if xi is None:
        xi = (iv.lo + iv.hi) / 2.0
    elif not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    elif not iv.lo <= xi <= iv.hi:
        raise ValueError(f"xi = {float(xi)} lies outside the interval [{iv.lo}, {iv.hi}]")
    idx = f.grid.nearest_index(float(xi))
    snapped = float(f.grid.points[idx])
    notes = []
    if abs(snapped - xi) > 1e-12 * (1.0 + abs(xi)):
        notes.append(f"xi snapped from {xi} to grid point {snapped}")
    xi = snapped
    f_xi = float(f.values[idx])
    y, hyp_ok = _resolve_witness(f, cost, xi, f_xi, y, grid_j, tol)
    if not hyp_ok:
        notes.append("hypothesis-unverified: y is not a subdifferential member at tol")

    c_col = np.asarray(evaluate_cost(cost, f.grid.points, y), dtype=float)
    lhs = quadrature(f) - f_xi * iv.length
    rhs = quadrature(GridFunction(f.grid, c_col - c_col[idx]))   # c(xi, y) is c_col[idx]
    eff_tol = _quadrature_tol(f, c_col, tol)
    slack = lhs - rhs
    return JensenReport(lhs=float(lhs), rhs=float(rhs), y_witness=y,
                        holds=bool(slack >= -eff_tol), slack=float(slack),
                        hypothesis_verified=hyp_ok, tol=eff_tol, notes="; ".join(notes))


def weighted_integral_bound(f: GridFunction, cost: CostSpec, mu: DiscreteMeasure,
                            y: Optional[float] = None, tol: float = 1e-9,
                            grid_j: Optional[Grid] = None) -> JensenReport:
    """Weighted form for a discrete measure; the barycenter must be interior."""
    iv = f.grid.interval
    b = barycenter(mu)
    if b <= iv.lo + 1e-12 * (1 + abs(iv.lo)) or b >= iv.hi - 1e-12 * (1 + abs(iv.hi)):
        raise ValueError(f"weighted form requires an interior barycenter, got {b}")
    return discrete_jensen_gap(f, cost, mu, y=y, tol=tol, grid_j=grid_j)


def classical_reduction_check(f: GridFunction, cost: CostSpec, grid_j: Grid,
                              tol: float = 1e-9) -> Verdict:
    """For 1-affine costs the cost-side gap vanishes and the bound reduces
    to the classical midpoint-vs-mean inequality f(mid) <= mean(f)."""
    check_tol(tol)
    if not f.is_finite:
        raise ValueError("classical reduction needs an everywhere-finite f")
    matrix = tabulate_cost(cost, f.grid, grid_j)
    affine = check_structure(matrix, "one_affine")
    if not affine.holds:
        raise ValueError(f"cost is not 1-affine (excess {affine.max_violation}, {affine.notes})")
    iv = f.grid.interval
    mid = (iv.lo + iv.hi) / 2.0
    idx = f.grid.nearest_index(mid)
    # cost-side gap must vanish within quadrature tolerance for every y column
    col_integrals = _composite_rule(matrix.entries, f.grid.h)
    worst = float(np.abs(col_integrals - matrix.entries[idx] * iv.length).max())
    quad_tol = _quadrature_tol(f, matrix.entries[:, 0], tol)
    mean_f = quadrature(f) / iv.length
    classical_excess = float(f.values[idx]) - mean_f
    excess = max(worst - quad_tol, classical_excess - quad_tol)
    return Verdict("classical_reduction", float(excess), (idx,), notes=f"quad_tol={quad_tol}")
