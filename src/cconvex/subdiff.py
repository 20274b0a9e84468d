"""Global and local c-subdifferentials, effective domain, lateral
c-derivatives, support curves, envelope reconstruction, and the local
double conjugate.

Membership at x0 is a tolerance-qualified grid sweep: y is a member when

    min_z { f(z) - f(x0) - c(z, y) + c(x0, y) } >= -tol.

All membership queries reduce to the slack matrix

    slack[i, j] = (c(x_i, y_j) - f_i) - max_z (c(x_z, y_j) - f_z),

which is the same quantity computed through the conjugate criterion
f^c(y) = c(x0, y) - f(x0) and is identically zero exactly where the
defining inequality is an identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostMatrix, CostSpec, evaluate_cost, tabulate_cost, twisted_on
from .grids import Grid, GridFunction, check_index, check_tol
from .transform import monotone_c_transform

__all__ = [
    "SubdifferentialSet",
    "SupportCurve",
    "LocalWindow",
    "LocalBiconjugate",
    "membership_slack",
    "c_subdifferential",
    "subdifferential_map",
    "membership_triples",
    "lateral_c_derivatives",
    "support_curve_eval",
    "envelope_reconstruct",
    "local_c_subdifferential",
    "local_double_conjugate",
]


@dataclass(frozen=True, eq=False)
class SubdifferentialSet:
    """Sorted y-grid indices forming a tolerance-qualified subdifferential.

    Kept as an explicit index list: only 2-affine costs guarantee the set
    is an interval, so contiguity must not be baked into the type.
    """

    x0_index: int
    y_indices: np.ndarray
    tol: float

    def __post_init__(self):
        idx = np.asarray(self.y_indices, dtype=np.int64)
        if idx.ndim != 1 or (np.diff(idx) <= 0).any():
            raise ValueError("y_indices must be a strictly increasing 1-D index list")
        idx = idx.copy()
        idx.flags.writeable = False
        object.__setattr__(self, "y_indices", idx)

    @property
    def is_empty(self) -> bool:
        return self.y_indices.size == 0

    def y_values(self, grid_j: Grid) -> np.ndarray:
        return grid_j.points[self.y_indices]


@dataclass(frozen=True)
class SupportCurve:
    """The curve x -> f0 + c(x, y) - c(x0, y) anchored at (x0, f0)."""

    x0: float
    y: float
    f0: float


@dataclass(frozen=True)
class LocalWindow:
    """Open window U_eps = {x : |x - x0| < eps} around a grid point."""

    x0_index: int
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("window epsilon must be positive")

    def mask(self, grid: Grid) -> np.ndarray:
        check_index(self.x0_index, grid)
        m = np.abs(grid.points - grid.points[self.x0_index]) < self.epsilon
        m[self.x0_index] = True
        return m


def membership_slack(f: GridFunction, cost: CostMatrix) -> np.ndarray:
    """n x m slack matrix; y_j is a member at x_i iff slack[i, j] >= -tol."""
    if f.grid != cost.grid_i:
        raise ValueError("cost grid does not match the function's grid on the I side")
    with np.errstate(invalid="ignore"):
        d = cost.entries - f.values[:, None]
    return d - d.max(axis=0)[None, :]


def c_subdifferential(f: GridFunction, cost: CostMatrix, x0_index: int,
                      tol: float = 1e-9) -> SubdifferentialSet:
    check_tol(tol)
    if not np.isfinite(f.values[check_index(x0_index, f.grid)]):
        raise ValueError(f"f is +inf at grid index {x0_index}")
    slack = membership_slack(f, cost)
    members = np.flatnonzero(slack[x0_index] >= -tol)
    return SubdifferentialSet(int(x0_index), members, tol)


def subdifferential_map(f: GridFunction, cost: CostMatrix,
                        tol: float = 1e-9) -> tuple[list[SubdifferentialSet], np.ndarray]:
    """Per-point subdifferential sets plus the effective-domain mask."""
    check_tol(tol)
    if not f.is_finite:
        raise ValueError("subdifferential_map requires an everywhere-finite f")
    slack = membership_slack(f, cost)
    member = slack >= -tol
    sets = [SubdifferentialSet(i, np.flatnonzero(member[i]), tol) for i in range(f.grid.n)]
    dom = member.any(axis=1)
    return sets, dom


# Row blocks of the matrix-free slack hold about this many entries, so each
# float64 temporary stays near 4 MB whatever the grid sizes.
SLACK_BLOCK_CELLS = 1 << 19


def membership_triples(f: GridFunction, spec: CostSpec, grid_j: Grid, tol: float = 1e-9
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(dom, rows, cols, slack) of every pair with membership slack >= -tol,
    in row-major order, computing the slack once.

    For a cost ``twisted_on`` the grids the slack (c(x_i, y_j) - f_i) -
    f^c(y_j) is built in row blocks against the engine's f^c, never as an
    n x m array; other costs are tabulated.
    """
    check_tol(tol)
    cost = None if twisted_on(spec, f.grid, grid_j) else tabulate_cost(spec, f.grid, grid_j)
    if not f.is_finite:
        raise ValueError("subdifferential_map requires an everywhere-finite f")
    if cost is None:
        fc = monotone_c_transform(f, spec, grid_j).values.values
        step = max(1, SLACK_BLOCK_CELLS // grid_j.n)
    else:
        step = f.grid.n
    dom = np.empty(f.grid.n, dtype=bool)
    parts = []
    for s in range(0, f.grid.n, step):
        if cost is None:  # membership_slack's arithmetic, one row block at a time
            slack = evaluate_cost(spec, f.grid.points[s:s + step, None], grid_j.points[None, :])
            slack -= f.values[s:s + step, None]
            slack -= fc
        else:
            slack = membership_slack(f, cost)
        member = slack >= -tol
        dom[s:s + step] = member.any(axis=1)
        i, j = np.nonzero(member)
        parts.append((i + s, j, slack[i, j]))
    i, j, sl = (np.concatenate(p) for p in zip(*parts))
    return dom, i, j, sl


def lateral_c_derivatives(s: SubdifferentialSet, grid_j: Grid) -> tuple[float, float]:
    """Lower and upper bounds of the member y-values."""
    if s.is_empty:
        raise ValueError("lateral c-derivatives of an empty subdifferential")
    ys = s.y_values(grid_j)
    return float(ys[0]), float(ys[-1])


def support_curve_eval(curve: SupportCurve, cost: CostSpec, x) -> float:
    return curve.f0 + evaluate_cost(cost, x, curve.y) - evaluate_cost(cost, curve.x0, curve.y)


def envelope_reconstruct(f: GridFunction, cost: CostMatrix, selection: np.ndarray,
                         tol: float = 1e-9) -> GridFunction:
    """Pointwise sup of support curves chosen by ``selection``.

    ``selection[t]`` is a y-grid index for interior t, or -1 to skip the
    point.  Every selected index must be a member of the subdifferential
    at t within ``tol``; a full interior selection of a continuous
    c-convex f reconstructs it on the whole grid.
    """
    sel = np.asarray(selection, dtype=np.int64)
    if sel.shape != (f.grid.n,):
        raise ValueError("selection must have one entry per grid point (-1 to skip)")
    if sel[0] != -1 or sel[-1] != -1:
        raise ValueError("selection covers interior points only; endpoints must be -1")
    ts = np.flatnonzero(sel >= 0)
    if ts.size == 0:
        raise ValueError("selection is empty")
    slack = membership_slack(f, cost)
    bad = ts[slack[ts, sel[ts]] < -tol]
    if bad.size:
        t = int(bad[0])
        raise ValueError(f"selection[{t}]={int(sel[t])} is not a subdifferential member "
                         f"at tol={tol} (slack={slack[t, sel[t]]})")
    # curves[k, i] = f(t_k) + c(x_i, y_sel) - c(t_k, y_sel)
    cols = cost.entries[:, sel[ts]]                    # (n, k)
    curves = f.values[ts][None, :] + cols - cols[ts, np.arange(ts.size)][None, :]
    return GridFunction(f.grid, curves.max(axis=1))


def _window_members(f: GridFunction, cost: CostMatrix, window: LocalWindow,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """max_z in U of c(z, y) - f(z) per y, and the members at x0 against it."""
    mask = window.mask(f.grid)
    with np.errstate(invalid="ignore"):
        d = cost.entries - f.values[:, None]
    win_max = d[mask].max(axis=0)
    return win_max, np.flatnonzero(d[window.x0_index] - win_max >= -tol)


def local_c_subdifferential(f: GridFunction, cost: CostMatrix, window: LocalWindow,
                            tol: float = 1e-9) -> SubdifferentialSet:
    """Same membership test with x restricted to grid points in the window."""
    x0 = window.x0_index
    if not np.isfinite(f.values[check_index(x0, f.grid)]):
        raise ValueError(f"f is +inf at grid index {x0}")
    return SubdifferentialSet(int(x0), _window_members(f, cost, window, tol)[1], tol)


@dataclass(frozen=True)
class LocalBiconjugate:
    """Value of the window-restricted sup-inf double conjugate at x0.

    When the local subdifferential is empty the outer sup ranges over an
    empty set; the value is then the inf over an exhaustive sweep of all
    y in J, and ``subdifferential_empty`` flags the convention.
    """

    value: float
    subdifferential_empty: bool


def local_double_conjugate(f: GridFunction, cost: CostMatrix, window: LocalWindow,
                           tol: float = 1e-9) -> LocalBiconjugate:
    win_max, members = _window_members(f, cost, window, tol)
    inner = cost.entries[window.x0_index] - win_max  # inf_z in U {f(z) + c(x0,y) - c(z,y)}
    if members.size:
        return LocalBiconjugate(float(inner[members].max()), False)
    return LocalBiconjugate(float(inner.min()), True)
