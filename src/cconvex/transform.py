"""c-transform, double c-transform, c-convexity test, a matrix-free
monotone-argmax engine for twisted costs, and the c-concave involution.

All suprema are taken over grid points only, with a fixed lowest-index
tie-break shared by the brute-force, dense and engine paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .costs import CostMatrix
from .grids import GridFunction, check_tol, sup_norm_diff

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


def _monotone_argmax(score: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     n_out: int, n_cand: int) -> tuple[np.ndarray, np.ndarray]:
    """First maximum and maximiser over candidates 0..n_cand-1 of each
    output 0..n_out-1, given that the first maximiser is nondecreasing.

    ``score(out, cand)`` returns the entries at the index pairs.  A fixed
    stride schedule, one level per call: the first level searches every
    candidate for output 0 and, when n_out > 1, for output S, the largest
    power of 2 below n_out; each later level halves the stride s and
    searches the outputs j = s, 3s, 5s, ... between the first maximisers
    k_{j-s} and k_{j+s} that earlier levels found (up to the last candidate
    where j + s >= n_out).  Those are global first maximisers, and since the
    first maximiser is nondecreasing (under a ``twist_bound``, because the
    computed matrix is Monge) k_j lies between them; no candidate before k_j
    reaches the maximum, so the first maximiser within [k_{j-s}, k_{j+s}]
    is k_j, and its entry is the maximum.  The ranges of a level overlap
    only at their ends, so a level makes at most 2 n_cand + n_out
    evaluations, in max(1, (n_out - 1).bit_length()) levels: that is
    O((n_out + n_cand) log n_out) evaluations in O(n_out + n_cand) memory.
    """
    s = 1 << max((n_out - 1).bit_length() - 1, 0)
    values = np.empty(n_out)
    # an output not searched yet, or past the end, bounds by the last candidate
    argmax = np.full(n_out + s, n_cand - 1)
    j = np.arange(0, n_out, s)
    lo = np.zeros_like(j)
    while True:
        lens = argmax[j + s] - lo + 1
        starts = np.cumsum(lens) - lens
        cand = np.repeat(lo - starts, lens)  # the ranges [lo, lo + lens), built in place
        cand += np.arange(cand.size)
        vals = score(np.repeat(j, lens), cand)
        best = np.maximum.reduceat(vals, starts)
        hits = np.flatnonzero(vals == np.repeat(best, lens))
        first = hits[np.searchsorted(hits, starts)]
        values[j] = vals[first]
        argmax[j] = cand[first]
        if s == 1:
            return values, argmax[:n_out]
        s //= 2
        j = np.arange(s, n_out, 2 * s)
        lo = argmax[j - s]


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
