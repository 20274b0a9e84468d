"""c-transform, double c-transform, c-convexity test, a matrix-free
monotone-argmax engine for twisted costs, and the c-concave involution.

All suprema are taken over grid points only, with a fixed lowest-index
tie-break shared by the brute-force, dense and engine paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costs import CostMatrix, CostSpec, evaluate_cost
from .grids import Grid, GridFunction, check_tol, sup_norm_diff

__all__ = [
    "TransformResult",
    "c_transform",
    "double_c_transform",
    "is_c_convex",
    "c_convexity",
    "default_cconvexity_tol",
    "to_concave_problem",
]


@dataclass(frozen=True, eq=False)
class TransformResult:
    """Transform values on the opposite grid plus per-point optimizer indices."""

    values: GridFunction
    argmax: np.ndarray

    def __post_init__(self):
        a = np.array(self.argmax, dtype=np.int64)
        if a.shape != (self.values.grid.n,):
            raise ValueError("argmax length must match the output grid")
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


def _index_ranges(lo: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [lo_s, lo_s + lens_s) concatenated, and where each starts."""
    starts = np.cumsum(lens) - lens
    return starts, np.arange(lens.sum()) - np.repeat(starts - lo, lens)


def _monotone_argmax(score: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     n_out: int, n_cand: int) -> tuple[np.ndarray, np.ndarray]:
    """First maximum and maximiser over candidates 0..n_cand-1 of each
    output 0..n_out-1, given that the first maximiser is nondecreasing.

    ``score(out, cand)`` returns the entries at the index pairs.  Divide and
    conquer, one level per call: each segment's middle output is maximised
    over the candidates its segment allows, and its first maximiser k
    leaves [lo, k] to the left half and [k, hi] to the right.  A segment of
    L outputs leaves halves of at most L // 2: n_out.bit_length() levels in
    all, one ``score`` call each.  That is
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
        starts, cand = _index_ranges(lo, lens)
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


def _engine_c_transform(spec: CostSpec, g: GridFunction, out: Grid,
                        swap: bool = False) -> TransformResult:
    """g^c on the grid ``out`` for a cost with a ``twist_bound`` on the grids,
    without the n x m matrix; c(x, y) takes x on g's grid, or on ``out`` with
    ``swap`` (f^cc is the transform of f^c with ``swap``).

    Entries come from ``evaluate_cost`` in the dense path's arithmetic and
    ties keep the lowest index, and the ``twist_bound`` certifies the
    computed matrix strictly Monge, so values and argmax equal those of
    ``c_transform`` and ``_back_transform`` on the tabulated cost.  A maximum
    that is a zero of both signs takes the first maximiser's sign, where the
    dense reduction may return the other.
    """
    p, q, v = g.grid.points, out.points, g.values

    def score(o, k):
        x, y = (q[o], p[k]) if swap else (p[k], q[o])
        return evaluate_cost(spec, x, y) - v[k]

    values, argmax = _monotone_argmax(score, out.n, g.grid.n)
    return TransformResult(GridFunction(out, values), argmax)


def default_cconvexity_tol(f: GridFunction) -> float:
    """1e-7 * (1 + ||f||_inf) + 4 * h * Lhat, Lhat the max slope quotient."""
    finite = f.values[np.isfinite(f.values)]
    return 1e-7 * (1.0 + float(np.abs(finite).max())) + 4.0 * f.grid.h * f.max_slope()


def c_convexity(f: GridFunction, fcc: GridFunction, tol: float | None = None) -> tuple[bool, float]:
    """f is c-convex iff f = f^cc: (sup|f - f^cc| <= tol, that deviation),
    tol defaulting to ``default_cconvexity_tol``."""
    tol = default_cconvexity_tol(f) if tol is None else check_tol(tol)
    deviation = sup_norm_diff(f, fcc)
    return deviation <= tol, deviation


def is_c_convex(f: GridFunction, cost: CostMatrix, tol: float | None = None) -> tuple[bool, float]:
    """``c_convexity`` through the cost matrix."""
    if not f.is_finite:
        raise ValueError("is_c_convex requires an everywhere-finite f")
    if tol is not None:
        check_tol(tol)
    return c_convexity(f, double_c_transform(f, cost).values, tol)


def to_concave_problem(f: GridFunction, cost: CostMatrix) -> tuple[GridFunction, CostMatrix]:
    """Involution routing c-concavity queries through the c-convex machinery.

    f is c-concave w.r.t. cost iff -f is c-convex w.r.t. -cost.
    """
    if not f.is_finite:
        raise ValueError("to_concave_problem requires an everywhere-finite f")
    return GridFunction(f.grid, -f.values), cost.negated()
