"""c-transform, double c-transform, c-convexity test, a matrix-free
monotone-argmax engine for twisted costs, and the c-concave involution.

All suprema are taken over grid points only, with a fixed lowest-index
tie-break shared by the brute-force, dense and engine paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costs import CostMatrix, CostSpec, evaluate_cost, tabulate_cost, twisted_on
from .grids import Grid, GridFunction, check_tol, sup_norm_diff

__all__ = [
    "TransformResult",
    "c_transform",
    "double_c_transform",
    "is_c_convex",
    "default_cconvexity_tol",
    "monotone_c_transform",
    "conjugates",
    "to_concave_problem",
]


@dataclass(frozen=True, eq=False)
class TransformResult:
    """Transform values on the opposite grid plus per-point optimizer indices."""

    values: GridFunction
    argmax: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.argmax, dtype=np.int64)
        if a.shape != (self.values.grid.n,):
            raise ValueError("argmax length must match the output grid")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "argmax", a)


def _check_input(f: GridFunction, cost: CostMatrix):
    if f.grid != cost.grid_i:
        raise ValueError("cost grid does not match the function's grid on the I side")


def c_transform(f: GridFunction, cost: CostMatrix) -> TransformResult:
    """f^c(y_j) = max_i { c(x_i, y_j) - f(x_i) }, first maximizing index kept.

    Grid points where f = +inf contribute -inf and are skipped by the max.
    """
    _check_input(f, cost)
    with np.errstate(invalid="ignore"):
        d = cost.entries - f.values[:, None]  # -inf rows where f = +inf
    values = d.max(axis=0)
    argmax = d.argmax(axis=0)
    return TransformResult(GridFunction(cost.grid_j, values), argmax)


def double_c_transform(f: GridFunction, cost: CostMatrix) -> TransformResult:
    """f^cc = (f^c)^c taken back through the same cost with the variables swapped."""
    return _back_transform(c_transform(f, cost).values, cost)


def _back_transform(g: GridFunction, cost: CostMatrix) -> TransformResult:
    """g^c(x_i) = max_j { c(x_i, y_j) - g(y_j) } for g on the J grid."""
    d = cost.entries - g.values[None, :]
    return TransformResult(GridFunction(cost.grid_i, d.max(axis=1)), d.argmax(axis=1))


def _monotone_argmax(score: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     n_out: int, n_cand: int) -> tuple[np.ndarray, np.ndarray]:
    """First maximum and maximiser over candidates 0..n_cand-1 of each
    output 0..n_out-1, given that the first maximiser is nondecreasing.

    ``score(out, cand)`` returns the entries at the index pairs.  Divide and
    conquer, one level per call: each segment's middle output is maximised
    over the candidates its segment allows, and its first maximiser k
    leaves [lo, k] to the left half and [k, hi] to the right.  That is
    O((n_out + n_cand) log n_out) evaluations in O(n_out + n_cand) memory.
    """
    values = np.empty(n_out)
    argmax = np.empty(n_out, dtype=np.int64)
    # segments: outputs [jlo, jhi) whose first maximisers lie in [lo, hi]
    jlo, jhi = np.array([0]), np.array([n_out])
    lo, hi = np.array([0]), np.array([n_cand - 1])
    while jlo.size:
        mid = (jlo + jhi) // 2
        lens = hi - lo + 1
        starts = np.cumsum(lens) - lens
        cand = np.arange(starts[-1] + lens[-1]) - np.repeat(starts - lo, lens)
        vals = score(np.repeat(mid, lens), cand)
        best = np.maximum.reduceat(vals, starts)
        hits = np.flatnonzero(vals == np.repeat(best, lens))
        first = hits[np.searchsorted(hits, starts)]
        k = cand[first]
        values[mid] = vals[first]
        argmax[mid] = k
        left, right = jlo < mid, mid + 1 < jhi
        jlo, jhi, lo, hi = (np.concatenate((jlo[left], mid[right] + 1)),
                            np.concatenate((mid[left], jhi[right])),
                            np.concatenate((lo[left], k[right])),
                            np.concatenate((k[left], hi[right])))
    return values, argmax


def monotone_c_transform(f: GridFunction, spec: CostSpec, grid_j: Grid) -> TransformResult:
    """f^c for a cost ``twisted_on`` the grids, without the n x m matrix.

    Entries come from ``evaluate_cost`` in the dense path's arithmetic and
    ties keep the lowest index, so values and argmax equal those of
    ``c_transform(f, tabulate_cost(spec, f.grid, grid_j))`` as long as the
    computed matrix stays Monge; rounding can break that only between
    entries tied to within an ulp or so.  A maximum that is a zero of both
    signs takes the first maximiser's sign, where the dense reduction may
    return the other.
    """
    if not twisted_on(spec, f.grid, grid_j):
        raise ValueError(f"the {spec.family} cost is not certified twisted on these grids")
    x, y, fv = f.grid.points, grid_j.points, f.values
    values, argmax = _monotone_argmax(
        lambda j, i: evaluate_cost(spec, x[i], y[j]) - fv[i], grid_j.n, f.grid.n)
    return TransformResult(GridFunction(grid_j, values), argmax)


def conjugates(f: GridFunction, spec: CostSpec,
               grid_j: Grid) -> tuple[TransformResult, TransformResult]:
    """f^c on ``grid_j`` and f^cc = (f^c)^c on f's grid for a cost spec:
    by the engine when the cost is ``twisted_on`` the grids, else from one
    tabulation, as ``c_transform`` and ``double_c_transform`` compute them.
    """
    if not twisted_on(spec, f.grid, grid_j):
        cost = tabulate_cost(spec, f.grid, grid_j)
        fc = c_transform(f, cost)
        return fc, _back_transform(fc.values, cost)
    fc = monotone_c_transform(f, spec, grid_j)
    x, y, g = f.grid.points, grid_j.points, fc.values.values
    values, argmax = _monotone_argmax(
        lambda i, j: evaluate_cost(spec, x[i], y[j]) - g[j], f.grid.n, grid_j.n)
    return fc, TransformResult(GridFunction(f.grid, values), argmax)


def default_cconvexity_tol(f: GridFunction) -> float:
    """1e-7 * (1 + ||f||_inf) + 4 * h * Lhat, Lhat the max slope quotient."""
    finite = f.values[np.isfinite(f.values)]
    return 1e-7 * (1.0 + float(np.abs(finite).max())) + 4.0 * f.grid.h * f.max_slope()


def is_c_convex(f: GridFunction, cost: CostMatrix, tol: float | None = None) -> tuple[bool, float]:
    """f is c-convex iff f = f^cc; returns (holds, sup-norm deviation)."""
    if not f.is_finite:
        raise ValueError("is_c_convex requires an everywhere-finite f")
    tol = default_cconvexity_tol(f) if tol is None else check_tol(tol)
    fcc = double_c_transform(f, cost).values
    deviation = sup_norm_diff(f, fcc)
    return deviation <= tol, deviation


def to_concave_problem(f: GridFunction, cost: CostMatrix) -> tuple[GridFunction, CostMatrix]:
    """Involution routing c-concavity queries through the c-convex machinery.

    f is c-concave w.r.t. cost iff -f is c-convex w.r.t. -cost.
    """
    if not f.is_finite:
        raise ValueError("to_concave_problem requires an everywhere-finite f")
    return GridFunction(f.grid, -f.values), cost.negated()
