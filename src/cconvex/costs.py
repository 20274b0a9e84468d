"""Built-in cost families, tabulation onto product grids, and the one judge
of the structural properties (1/2-affine, 1/2-concave, 1-convex, twisted,
segment-concave) that the structural checks hypothesize.

Families:
    bilinear        c(x, y) = x*y
    one_affine      c(x, y) = a(y)*x + b(y), a and b polynomials
    neg_quadratic   c(x, y) = -s*(x - y)^2, s > 0
    reflector       c(x, y) = -log(1 - x*y), requires x*y < 1
    translation     c(x, y) = h(x - y) for a user-supplied h
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Callable, Optional

import numpy as np

from .grids import Grid, csv_floats, csv_rows, grid_through, write_csv
from .verdicts import Verdict

__all__ = [
    "COST_FAMILIES",
    "MAX_DENSE_CELLS",
    "STRUCTURE_PROPERTIES",
    "CostDomainError",
    "CostSpec",
    "CostMatrix",
    "parse_cost_spec",
    "evaluate_cost",
    "twist_bound",
    "cost_dx",
    "tabulate_cost",
    "tabulate_callable",
    "check_structure",
    "segment_concavity_excess",
    "read_cost_csv",
    "write_cost_csv",
]

COST_FAMILIES = ("bilinear", "one_affine", "neg_quadratic", "reflector", "translation")
STRUCTURE_PROPERTIES = ("one_affine", "two_affine", "one_concave", "one_convex", "two_concave",
                        "twisted", "segment_concave")


class CostDomainError(ValueError):
    """A cost was evaluated outside its declared domain."""

    def __init__(self, x: float, y: float, message: str):
        super().__init__(f"{message} at (x={x}, y={y})")
        self.x = x
        self.y = y


@dataclass(frozen=True)
class CostSpec:
    """Analytic cost family with family-specific parameters.

    ``one_affine`` takes ascending polynomial coefficients for a(y) and b(y);
    ``neg_quadratic`` a positive scale; ``translation`` a callable h.
    """

    family: str
    a_coeffs: tuple = ()
    b_coeffs: tuple = ()
    scale: float = 1.0
    h: Optional[Callable] = None

    def __post_init__(self):
        if self.family not in COST_FAMILIES:
            raise ValueError(f"unknown cost family {self.family!r}")
        if self.family == "neg_quadratic" and not self.scale > 0:
            raise ValueError("neg_quadratic needs scale > 0")
        if self.family == "one_affine" and not (self.a_coeffs or self.b_coeffs):
            raise ValueError("one_affine needs polynomial coefficients for a(y) or b(y)")
        if self.family == "translation" and self.h is None:
            raise ValueError("translation needs a callable h")


def parse_cost_spec(family: str, params: tuple = ()) -> CostSpec:
    """The CostSpec of a named family.

    Parameters come either as text after a colon, the CLI's ``--cost``
    syntax (``neg_quadratic:2.5``, ``one_affine:a0,a1,...;b0,b1,...``), or
    as ``params``: ``(scale,)`` for neg_quadratic and ``(a_coeffs,
    b_coeffs)`` for one_affine.  The other families take none, and reject any.
    """
    family, _, text = family.partition(":")
    if text:
        try:
            groups = tuple(tuple(float(t) for t in part.split(",") if t)
                           for part in text.split(";"))
        except ValueError:
            raise ValueError(f"cannot parse the {family} parameters {text!r}") from None
        params = groups[0] if family == "neg_quadratic" and len(groups) == 1 else groups
    if family == "neg_quadratic":
        if len(params) > 1:
            raise ValueError("neg_quadratic takes one parameter, the scale")
        return CostSpec(family, scale=float(params[0]) if params else 1.0)
    if family == "one_affine":
        if len(params) != 2:
            raise ValueError("one_affine needs params 'a0,a1,...;b0,b1,...'")
        return CostSpec(family, a_coeffs=tuple(params[0]), b_coeffs=tuple(params[1]))
    if family == "translation":
        raise ValueError("the translation family needs a callable h; use the API")
    if params and family in COST_FAMILIES:
        raise ValueError(f"the {family} family takes no parameters, got {text or params!r}")
    return CostSpec(family)


def _poly(y: np.ndarray, coeffs: tuple):
    """Ascending ``coeffs`` at y by Horner's rule in the operation order of
    numpy's ``polyval``, so bit for bit its values, in place on one array."""
    if not coeffs:
        return np.zeros_like(y)
    out = y * 0.0
    out += coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= y
        out += c
    return out


def evaluate_cost(spec: CostSpec, x, y):
    """Evaluate c(x, y); broadcasts over array arguments (a Python float for
    two scalars).  An analytic family makes one array at its first step and
    finishes it in place in its formula's operation order, with its bits."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fam = spec.family
    if fam == "bilinear":
        out = x * y
    elif fam == "one_affine":
        out = _poly(y, spec.a_coeffs) * x
        out += _poly(y, spec.b_coeffs)
    elif fam == "neg_quadratic":
        # d * d, not d ** 2: a float64 scalar ** 2 goes through pow and can
        # round one ulp away from the array square, which is d * d exactly
        out = x - y
        out *= out
        out *= -spec.scale
    elif fam == "reflector":
        out = np.asarray(x * y)   # for two scalars a 0-d array, which ufuncs write into
        bad = np.flatnonzero(out >= 1.0)
        if bad.size:
            xb, yb = np.broadcast_arrays(x, y)
            raise CostDomainError(float(xb.flat[bad[0]]), float(yb.flat[bad[0]]),
                                  "reflector cost requires x*y < 1")
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
    else:  # translation, the last family CostSpec admits
        out = np.asarray(spec.h(x - y), dtype=float)
    return float(out) if out.ndim == 0 else out


def cost_dx(spec: CostSpec, x, y):
    """Closed-form partial derivative of c in its first variable."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fam = spec.family
    if fam == "bilinear":
        out = y + 0.0 * x
    elif fam == "one_affine":
        out = _poly(y, spec.a_coeffs) + 0.0 * x
    elif fam == "neg_quadratic":
        out = -2.0 * spec.scale * (x - y)
    elif fam == "reflector":
        out = y / (1.0 - x * y)
    else:
        raise ValueError(f"cost family {fam!r} has no closed-form x-derivative")
    if out.ndim == 0:
        return float(out)
    return out


def twist_bound(spec: CostSpec, grid_i: Grid, grid_j: Grid, fmax: float) -> Optional[float]:
    """A bound E on the rounding of every computed entry of c - f and of
    c - f^c on the grids, for any f with max |f| = ``fmax`` over its finite
    values, when E is small enough that those computed matrices are strictly
    Monge; None otherwise.

    Certified only for bilinear, neg_quadratic, reflector and one_affine, and
    only where every tabulated entry is finite and in the domain.  O(n + m):
    rounding is monotone, so the largest |c| (C) and the reflector's smallest
    and largest x*y (pmin, pmax) and largest |x*y| (P) sit at the ends of the
    x range and, except for one_affine, of the y range.  None means the cost
    must be tabulated, which raises any domain or finiteness error.

    eps >= u * C (u = 2**-53) bounds |evaluate_cost(spec, x_i, y_j) -
    r(x_i, y_j)| on every grid pair, for a reference cost r whose mixed
    difference on every pair of adjacent grid cells is at least mu (dx and
    dy the smallest steps of the grid points):

    * bilinear, r = x*y: one rounding, u*C; mu = dx*dy.
    * neg_quadratic, r = -s*(x - y)**2: a difference, a square and a
      product, 4u*C; mu = 2s*dx*dy.
    * reflector, r = -log(1 - x*y): the product's rounding u*|x*y| is
      amplified by d/dp[-log(1 - p)] = 1/(1 - p) <= 1/(1 - pmax - 2u) (the
      2u covers pmax being a rounded product), and log1p adds at most 4 ulp,
      8u*C: u*P / (1 - pmax - 2u) + 8u*C; r_xy = 1/(1 - x*y)**2, so
      mu = dx*dy / (1 - pmin)**2.
    * one_affine, r = a~(y)*x + b~(y) with a~, b~ the computed polynomial
      values: a product and a sum, u*(max|x| * max|a~| + C); mu = min
      diff(a~) * dx, which is <= 0 where a~ is flat or decreasing.

    Each eps is doubled to cover the second-order terms, and the smallest
    normal number is added for a product that underflows.  |f^c| <= C + fmax,
    so the subtraction of f or of f^c rounds by at most u*(2C + fmax), and
    E = 2*eps + tiny + u*(2C + fmax) bounds the error of every computed
    entry.  A mixed difference of four computed entries is then at least
    mu - 4E, and E is returned only when 8E < mu (the factor 2 covers the
    rounding of mu; a NaN or inf fails the comparison).  So both computed
    matrices are strictly Monge: the maximisers of a later column are never
    below those of an earlier one, and ``transform._monotone_argmax``, which
    evaluates the dense path's entries in its arithmetic and keeps the first
    maximiser, returns the dense values and argmax.
    """
    fam, x, y = spec.family, grid_i.points, grid_j.points
    dx, dy = float(np.diff(x).min()), float(np.diff(y).min())
    if fam == "one_affine":
        with np.errstate(over="ignore", invalid="ignore"):
            a = _poly(y, spec.a_coeffs)
            mu = float(np.diff(a).min()) * dx
    elif fam not in ("bilinear", "neg_quadratic", "reflector"):
        return None
    else:
        y = np.array([y.min(), y.max()])
    xe = np.array([[x.min()], [x.max()]])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            edges = evaluate_cost(spec, xe, y[None, :])
    except CostDomainError:
        return None
    u = float(np.finfo(float).eps) / 2   # Python floats: an overflow is inf, silently
    c = float(np.abs(edges).max())
    if fam == "bilinear":
        eps, mu = u * c, dx * dy
    elif fam == "neg_quadratic":
        eps, mu = 4 * u * c, 2 * spec.scale * dx * dy
    elif fam == "reflector":
        p = xe * y[None, :]
        den = 1.0 - float(p.max()) - 2 * u
        if not den > 0:
            return None
        eps = u * float(np.abs(p).max()) / den + 8 * u * c
        q = 1.0 - float(p.min())
        mu = dx * dy / (q * q)
    else:
        with np.errstate(over="ignore"):
            eps = u * (float(np.abs(xe).max() * np.abs(a).max()) + c)
    bound = 2 * eps + float(np.finfo(float).tiny) + u * (2 * c + fmax)
    return bound if 8 * bound < mu else None


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Tabulated cost on a product grid: entries[i, j] = c(x_i, y_j).

    The entries are a read-only copy of the array given, which its caller
    may change later; the tabulating functions pass ``_fresh=True`` to hand
    over, uncopied, a float array they just built and nothing else holds
    (not a translation's: h may return an array it keeps).
    """

    grid_i: Grid
    grid_j: Grid
    entries: np.ndarray
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.grid_i.n, self.grid_j.n):
            raise ValueError(f"entries shape {e.shape} does not match grids "
                             f"({self.grid_i.n}, {self.grid_j.n})")
        if not np.isfinite(e).all():
            raise ValueError("cost matrix entries must all be finite")
        if not _fresh:
            e = e.copy()
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    def negated(self) -> "CostMatrix":
        return CostMatrix(self.grid_i, self.grid_j, -self.entries, _fresh=True)


# Largest n*m a dense table may have: 2**26 float64 cells are one 512 MiB
# array, the one a spec's tabulation holds, and a dense transform holds two
# at once (the table and c - f), so about 1 GiB.
MAX_DENSE_CELLS = 2**26


def _check_dense_cells(grid_i: Grid, grid_j: Grid):
    cells = grid_i.n * grid_j.n
    if cells > MAX_DENSE_CELLS:
        raise ValueError(f"a dense {grid_i.n} x {grid_j.n} cost table has {cells} cells, "
                         f"above the budget of {MAX_DENSE_CELLS}")


def tabulate_cost(spec: CostSpec, grid_i: Grid, grid_j: Grid) -> CostMatrix:
    _check_dense_cells(grid_i, grid_j)
    with np.errstate(over="ignore", invalid="ignore"):  # CostMatrix rejects what overflows
        entries = evaluate_cost(spec, grid_i.points[:, None], grid_j.points[None, :])
    return CostMatrix(grid_i, grid_j, entries, _fresh=spec.family != "translation")


def tabulate_callable(fn: Callable, grid_i: Grid, grid_j: Grid) -> CostMatrix:
    """Tabulate an arbitrary c(x, y) callable (broadcasting) on a product grid.

    The matrix takes over fn's result without a copy, so fn must return a
    new array, as any arithmetic on x and y does, not one it keeps."""
    _check_dense_cells(grid_i, grid_j)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = np.asarray(fn(grid_i.points[:, None], grid_j.points[None, :]), dtype=float)
    return CostMatrix(grid_i, grid_j, entries, _fresh=True)


@np.errstate(over="ignore")   # a difference beyond the float range is an inf excess
def check_structure(matrix: CostMatrix, property: str) -> Verdict:
    """Judge a structural property of the table, with the one tolerance of
    every cost hypothesis, tol = 1e-9 * (1 + max |c|).

    The axis properties read second differences d2 along x (``one_``) or y
    (``two_``): affineness |d2| <= tol, concavity d2 <= tol, convexity
    d2 >= -tol; a failure's witness is (stencil start, stencil end, fixed
    index) of the first failing stencil.  ``twisted``: every mixed second
    difference above tol, or every one below -tol; its excess is how far
    they reach into [-tol, tol], edge included.  ``segment_concave``:
    ``segment_concavity_excess`` <= tol.  ``max_violation`` is the excess
    beyond tol, so the verdict holds iff the property does.
    """
    if property not in STRUCTURE_PROPERTIES:
        raise ValueError(f"unknown structural property {property!r}")
    e = matrix.entries
    tol = 1e-9 * (1.0 + max(float(e.max()), -float(e.min())))
    witness = None
    if property == "twisted":
        mixed = e[1:, 1:] - e[1:, :-1]   # c_xy: one (n-1) x (m-1) array, built in place
        mixed -= e[:-1, 1:]
        mixed += e[:-1, :-1]
        # the rule is strict: one ulp up makes an excess of exactly 0 a violation
        excess = np.nextafter(min(tol - float(mixed.min()), float(mixed.max()) + tol), np.inf)
    elif property == "segment_concave":
        excess = segment_concavity_excess(matrix) - tol
    else:
        axis = 0 if property.startswith("one_") else 1
        if e.shape[axis] < 3:
            raise ValueError(f"grid too small along axis {axis} for {property} (need >= 3 points)")
        d2 = np.diff(e, 2, axis=axis)
        if property.endswith("affine"):
            np.abs(d2, out=d2)
        elif property.endswith("convex"):
            np.negative(d2, out=d2)
        excess = float(d2.max()) - tol
        if excess > 0:
            i, j = map(int, np.argwhere(d2 > tol)[0])
            witness = (i, i + 2, j) if axis == 0 else (j, j + 2, i)
    return Verdict(property, float(excess), witness, notes=f"tol={tol}")


@np.errstate(over="ignore")
def segment_concavity_excess(matrix: CostMatrix) -> float:
    """Max second difference along rows, columns and both diagonals.

    Nonpositive (up to rounding) on costs concave along every grid-aligned
    and diagonal segment.  This does not certify full joint concavity.
    """
    e = matrix.entries
    worst = max(float(np.diff(e, 2, axis=0).max(initial=-np.inf)),
                float(np.diff(e, 2, axis=1).max(initial=-np.inf)))
    mid = 2.0 * e[1:-1, 1:-1]   # both diagonals' stencils, one at a time
    for a, b in ((e[:-2, :-2], e[2:, 2:]), (e[:-2, 2:], e[2:, :-2])):
        worst = max(worst, float((a - mid + b).max(initial=-np.inf)))
    return worst


def read_cost_csv(path: str) -> CostMatrix:
    """CSV matrix: first row is the y grid (after a corner cell), first
    column the x grid.  Every row must be as wide as the first; a bad row
    or cell is rejected with a ``path:line`` message (``grids.csv_floats``)."""
    rows = list(csv_rows(path))
    m = len(rows[0][1]) - 1 if rows else 0
    if len(rows) < 3 or m < 2:
        raise ValueError(f"{path}: cost matrix needs at least a 2x2 grid")
    lineno, head = rows[0]
    y = csv_floats(path, lineno, head[1:], tuple(f"y[{j}]" for j in range(m)))
    names = ("x",) + tuple(f"c(x, y[{j}])" for j in range(m))
    table = np.array([csv_floats(path, k, row, names, exact=True) for k, row in rows[1:]])
    return CostMatrix(grid_through(table[:, 0], f"{path}: x grid"),
                      grid_through(np.array(y), f"{path}: y grid"),
                      table[:, 1:])


def write_cost_csv(path: str, matrix: CostMatrix) -> None:
    write_csv(path, ["", *matrix.grid_j.points.tolist()],
              ([x, *row.tolist()] for x, row in zip(matrix.grid_i.points.tolist(), matrix.entries)))
