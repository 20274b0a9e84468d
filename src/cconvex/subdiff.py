"""Global and local c-subdifferentials, effective domain, lateral
c-derivatives, support curves, envelope reconstruction, and the local
double conjugate.

Membership at x0 is a tolerance-qualified grid sweep: y is a member when

    min_z { f(z) - f(x0) - c(z, y) + c(x0, y) } >= -tol.

All membership queries reduce to the slack

    slack[i, j] = (c(x_i, y_j) - f_i) - max_z (c(x_z, y_j) - f_z),

which is the same quantity computed through the conjugate criterion
f^c(y) = c(x0, y) - f(x0) and is identically zero exactly where the
defining inequality is an identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import CostMatrix, CostSpec, evaluate_cost, tabulate_cost, twist_bound
from .grids import Grid, GridFunction, check_index, check_tol
from .transform import (TransformResult, _back_transform, _check_input, _monotone_argmax,
                        c_convexity, c_transform)

__all__ = [
    "Analysis",
    "SubdifferentialSet",
    "SupportCurve",
    "LocalWindow",
    "LocalBiconjugate",
    "membership_slack",
    "c_subdifferential",
    "subdifferential_map",
    "lateral_c_derivatives",
    "support_curve_eval",
    "envelope_reconstruct",
    "local_c_subdifferential",
    "local_double_conjugate",
]


@dataclass(frozen=True, eq=False)
class SubdifferentialSet:
    """Sorted y-grid indices forming a tolerance-qualified subdifferential.

    For a twisted cost (c_xy >= 0: bilinear, neg_quadratic, reflector,
    one_affine with nondecreasing a(y)) each row of the exact slack is
    unimodal, so the set is an interval, and on a spec with a ``twist_bound``
    every computed row is one too (see ``Analysis.members``).  The dense path
    can still split a row where c_xy is near 0, and other costs give any
    index set.  So it is kept as an explicit index list: contiguity must
    not be baked into the type.
    """

    x0_index: int
    y_indices: np.ndarray
    tol: float

    def __post_init__(self):
        idx = np.array(self.y_indices, dtype=np.int64)
        if idx.ndim != 1 or (np.diff(idx) <= 0).any():
            raise ValueError("y_indices must be a strictly increasing 1-D index list")
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


# Band columns and triple slacks filled at a time: their temporaries, about 50 B
# a member, stay small beside the searches' O(n) arrays and 25 B a triple.
BAND_BLOCK = 4096


def membership_slack(f: GridFunction, cost: CostMatrix) -> np.ndarray:
    """n x m slack matrix; y_j is a member at x_i iff slack[i, j] >= -tol."""
    _check_input(f, cost)
    d = cost.entries - f.values[:, None]
    d -= d.max(axis=0)
    return d


@dataclass(frozen=True, eq=False)
class Analysis:
    """One (f, cost) instance at one validated membership ``tol``, each of whose
    parts is built once, on first use.  ``cost`` is a ``CostMatrix`` or a
    ``CostSpec`` on f's grid and ``grid_j``.  A spec with a ``twist_bound`` on
    the grids takes ``fc``, ``fcc`` and ``members`` from the engine, without an
    n x m array; all else reads ``table``.  ``members`` is the one membership
    product, and ``slack_at`` the one reader of slack.
    """

    f: GridFunction
    cost: CostMatrix | CostSpec
    tol: float = 1e-9
    grid_j: Grid | None = None

    def __post_init__(self):
        check_tol(self.tol)
        if isinstance(self.cost, CostMatrix):
            if self.grid_j not in (None, self.cost.grid_j):
                raise ValueError("grid_j must be omitted or the cost matrix's own J grid")
            _check_input(self.f, self.cost)
            # a matrix is its own table and goes to no engine
            vars(self).update(grid_j=self.cost.grid_j, table=self.cost, twist=None)
        elif self.grid_j is None:
            raise ValueError("a cost spec needs its J grid, grid_j")

    @cached_property
    def twist(self) -> float | None:
        """The spec's ``twist_bound`` on the grids, the engine's certificate."""
        v = self.f.values
        fmax = float(np.abs(v[np.isfinite(v)]).max())
        return twist_bound(self.cost, self.f.grid, self.grid_j, fmax)

    @cached_property
    def table(self) -> CostMatrix:
        return tabulate_cost(self.cost, self.f.grid, self.grid_j)

    def _c_minus(self, i, j, v: np.ndarray, at) -> np.ndarray:
        """c(x_i, y_j) - v[at] at index pairs that broadcast, c from ``table``, or from
        ``evaluate_cost`` if certified; v is gathered once c is evaluated."""
        s = self.table.entries[i, j] if self.twist is None else \
            evaluate_cost(self.cost, self.f.grid.points[i], self.grid_j.points[j])
        s -= v[at]
        return s

    @cached_property
    def fc(self) -> TransformResult:
        """Certified: ``_monotone_argmax`` on c - f through ``_c_minus`` (``fcc``: on c - f^c),
        strictly Monge under the ``twist_bound``, so values and argmax are the dense path's,
        but a maximum that is a zero of both signs takes the first maximiser's sign, where
        the dense reduction may return the other."""
        if self.twist is None:
            return c_transform(self.f, self.table)
        values, argmax = _monotone_argmax(lambda j, i: self._c_minus(i, j, self.f.values, i),
                                          self.grid_j.n, self.f.grid.n)
        return TransformResult(GridFunction(self.grid_j, values), argmax)

    @cached_property
    def fcc(self) -> TransformResult:
        if self.twist is None:
            return _back_transform(self.fc.values, self.table)
        g = self.fc.values.values
        values, argmax = _monotone_argmax(lambda i, j: self._c_minus(i, j, g, j),
                                          self.f.grid.n, self.grid_j.n)
        return TransformResult(GridFunction(self.f.grid, values), argmax)

    def slack_at(self, i, j) -> np.ndarray:
        """(c(x_i, y_j) - f_i) - f^c(y_j), ``membership_slack``'s arithmetic, at
        index pairs that broadcast, c - f read through ``_c_minus`` as ``fc`` reads it."""
        s = self._c_minus(i, j, self.f.values, i)
        s -= self.fc.values.values[j]
        return s

    @cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray]:
        """(counts, cols): each row's member count, and the member columns of the
        rows in turn, ascending; y_j is a member at x_i iff ``slack_at(i, j) >=
        -tol``.  A table's come from one ``membership_slack`` pass, thresholded.  A
        spec with a ``twist_bound`` evaluates ``slack_at`` only on a band of columns
        per row that binary searches find, batched over the rows:
        O((n + m) log m) cost evaluations in O(n + m) memory plus the band.

        Each row's exact members form one interval.  Write D(i, j) = c(x_i, y_j) - f_i
        and M_j = max_z D(z, j); the slack s(i, j) = D(i, j) - M_j is
        min(G_i(j), H_i(j)) with G_i(j) = D(i, j) - max_{z <= i} D(z, j) and
        H_i(j) = D(i, j) - max_{z >= i} D(z, j).  For z < i,
        D(i, j) - D(z, j) = c(x_i, y_j) - c(x_z, y_j) + f_z - f_i is
        nondecreasing in j when c_xy >= 0, so G_i is nondecreasing; H_i is
        nonincreasing likewise.  A minimum of a nondecreasing and a nonincreasing
        sequence is unimodal, so each of its superlevel sets is an interval.

        The computed rows are exact intervals too.  The ``twist_bound``
        certifies that the computed matrix D~ = fl(c~ - f) is strictly Monge,
        so the engine's f^c_j = D~(k_j, j) is the dense maximum, its first
        maximisers k_j are nondecreasing, and the computed slack is
        fl(X(i, j)), X(i, j) = D~(i, j) - D~(k_j, j).  Let [p_i, q_i) be the
        run of columns whose first maximiser is i: p_i = searchsorted(k, i)
        and q_i = searchsorted(k, i, "right").  For j < j' < p_i, k_j <= k_j'
        < i, and strict Monge gives D~(i, j') - D~(k_j', j') > D~(i, j) -
        D~(k_j', j) >= D~(i, j) - D~(k_j, j): X(i, .) increases on [0, p_i).
        For p_i <= j < j', i <= k_j, and D~(i, j') - D~(k_j', j') <= D~(i, j')
        - D~(k_j, j') <= D~(i, j) - D~(k_j, j): X(i, .) is nonincreasing on
        [p_i, m).  Rounding is monotone, so on each side the test fl(X) >=
        -tol changes its outcome at most once, and a search on each side with
        the plain threshold -tol finds exactly the members, whatever columns
        it probes: it may gallop out from the run before it bisects.  An f that
        is +inf somewhere is no exception: such a row has slack -inf at every column
        and is no first maximiser, and the bound certifies the finite rows' submatrix.

        The run's columns need no probe: there k_j = i, and ``fc``'s f^c_j is
        D~(i, j), read through ``_c_minus`` as the slack reads it, so the computed slack
        is D~(i, j) - D~(i, j) = +0.0 exactly, a member at every tol >= 0.  So
        the left search starts at p_i - 1, the column before the run, with
        p_i standing for a passing column, and the right search starts at
        q_i, the column after it, with q_i - 1 standing for one: a run column,
        or where the run is empty (p_i = q_i) a bound never evaluated, which
        the other side's result then replaces.  The columns are filled
        ``BAND_BLOCK`` at a time: past the searches, the memory is theirs.
        """
        f, tol, n, m = self.f, self.tol, self.f.grid.n, self.grid_j.n
        if self.twist is None:
            member = membership_slack(f, self.table) >= -tol   # the n x m slack is freed here
            return member.sum(axis=1), np.broadcast_to(np.arange(m), member.shape)[member]

        def search(lo, hi, right):
            """Per row, the first column of (lo, hi] that passes (left side)
            or fails (right side), where on the left lo fails and hi passes
            and on the right the reverse.  It gallops out from the run, 1, 2,
            4, ... columns past its last passing probe, until a probe fails
            or would reach the bound, then bisects."""
            stride = np.ones(n, dtype=np.int64)  # 0 once a search bisects
            while (act := np.flatnonzero(hi - lo > 1)).size:
                mid = lo[act] + stride[act] if right else hi[act] - stride[act]
                bisect = (mid <= lo[act]) | (mid >= hi[act])
                mid[bisect] = (lo[act[bisect]] + hi[act[bisect]]) // 2
                passed = self.slack_at(act, mid) >= -tol
                stride[act] = np.where(passed & ~bisect, 2 * stride[act], 0)
                up = passed == right
                lo[act[up]] = mid[up]
                hi[act[~up]] = mid[~up]
            return hi

        k = self.fc.argmax
        start = search(np.full(n, -1), np.searchsorted(k, np.arange(n)), False)
        counts = search(np.searchsorted(k, np.arange(n), "right") - 1, np.full(n, m), True) - start
        cols = np.repeat(start - (np.cumsum(counts) - counts), counts)   # start_i - t_i
        for a in range(0, cols.size, BAND_BLOCK):
            cols[a:a + BAND_BLOCK] += np.arange(a, min(a + BAND_BLOCK, cols.size))
        return counts, cols

    def member_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of the member matrix, from ``members``."""
        counts, cols = self.members
        k = counts[rows]   # member t of the gather is cols[at[t]]
        at = np.repeat(np.cumsum(counts)[rows] - np.cumsum(k), k) + np.arange(k.sum())
        out = np.zeros((rows.size, self.grid_j.n), dtype=bool)
        out[np.repeat(np.arange(rows.size), k), cols[at]] = True
        return out

    @cached_property
    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """Each row's member count, first and last member column (0 and m - 1
        if empty), and whether every nonempty row is one interval."""
        counts, cols = self.members
        end, hit = np.cumsum(counts), counts > 0
        first, last = np.zeros_like(counts), np.full_like(counts, self.grid_j.n - 1)
        first[hit], last[hit] = cols[end[hit] - counts[hit]], cols[end[hit] - 1]
        return counts, first, last, bool((last - first + 1 == counts)[hit].all())

    @cached_property
    def c_convex(self) -> tuple[bool, float]:
        if not self.f.is_finite:
            raise ValueError("Analysis.c_convex requires an everywhere-finite f")
        return c_convexity(self.f, self.fcc.values)

    @cached_property
    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(dom, rows, cols, slack): the rows with a member, and each member's
        row, column and ``slack_at`` in row-major order, the slack filled
        ``BAND_BLOCK`` at a time."""
        if not self.f.is_finite:
            raise ValueError("Analysis.triples requires an everywhere-finite f")
        counts, cols = self.members
        rows = np.repeat(np.arange(counts.size), counts)
        slack = np.empty(rows.size)
        for a in range(0, rows.size, BAND_BLOCK):
            slack[a:a + BAND_BLOCK] = self.slack_at(rows[a:a + BAND_BLOCK], cols[a:a + BAND_BLOCK])
        return counts > 0, rows, cols, slack


def c_subdifferential(f: GridFunction, cost: CostMatrix, x0_index: int,
                      tol: float = 1e-9) -> SubdifferentialSet:
    a = Analysis(f, cost, tol)
    if not np.isfinite(f.values[check_index(x0_index, f.grid)]):
        raise ValueError(f"f is +inf at grid index {x0_index}")
    row = a.slack_at(x0_index, np.arange(a.grid_j.n))
    return SubdifferentialSet(int(x0_index), np.flatnonzero(row >= -tol), tol)


def subdifferential_map(f: GridFunction, cost: CostMatrix,
                        tol: float = 1e-9) -> tuple[list[SubdifferentialSet], np.ndarray]:
    """Per-point subdifferential sets plus the effective-domain mask."""
    a = Analysis(f, cost, tol)
    if not f.is_finite:
        raise ValueError("subdifferential_map requires an everywhere-finite f")
    counts, cols = a.members
    rows = np.split(cols, np.cumsum(counts)[:-1])
    return [SubdifferentialSet(i, row, tol) for i, row in enumerate(rows)], counts > 0


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
    a = Analysis(f, cost, tol)
    sel = np.asarray(selection)
    if sel.shape != (f.grid.n,):
        raise ValueError("selection must have one entry per grid point (-1 to skip)")
    if not np.issubdtype(sel.dtype, np.integer):
        raise ValueError(f"selection must be an integer array, got dtype {sel.dtype}")
    out = np.flatnonzero((sel < -1) | (sel >= cost.grid_j.n))
    if out.size:
        raise ValueError(f"selection[{out[0]}]={sel[out[0]]} is outside [-1, {cost.grid_j.n})")
    if sel[0] != -1 or sel[-1] != -1:
        raise ValueError("selection covers interior points only; endpoints must be -1")
    ts = np.flatnonzero(sel >= 0)
    if ts.size == 0:
        raise ValueError("selection is empty")
    bad = ts[a.slack_at(ts, sel[ts]) < -tol]
    if bad.size:
        t = int(bad[0])
        raise ValueError(f"selection[{t}]={int(sel[t])} is not a subdifferential member "
                         f"at tol={tol} (slack={a.slack_at(t, sel[t])})")
    # curves[k, i] = f(t_k) + c(x_i, y_sel) - c(t_k, y_sel)
    cols = cost.entries[:, sel[ts]]                    # (n, k)
    curves = f.values[ts][None, :] + cols - cols[ts, np.arange(ts.size)][None, :]
    return GridFunction(f.grid, curves.max(axis=1))


def _window_members(f: GridFunction, cost: CostMatrix, window: LocalWindow,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """max_z in U of c(z, y) - f(z) per y, and the members at x0 against it."""
    check_tol(tol)
    mask, x0 = window.mask(f.grid), window.x0_index
    win_max = (cost.entries[mask] - f.values[mask, None]).max(axis=0)
    return win_max, np.flatnonzero((cost.entries[x0] - f.values[x0]) - win_max >= -tol)


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
