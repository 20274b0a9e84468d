"""Uniform grids on bounded intervals, extended-real grid functions,
norms, quadrature and discrete probability measures.

Values are plain float64 arrays; ``+inf`` is the sentinel for a proper
function's "not finite here" value.  ``-inf`` and NaN are rejected at
construction, so they can only appear transiently inside reductions.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Interval",
    "Grid",
    "GridFunction",
    "DiscreteMeasure",
    "make_uniform_grid",
    "grid_through",
    "sample_function",
    "sup_norm_diff",
    "check_tol",
    "check_index",
    "quadrature",
    "barycenter",
    "csv_rows",
    "csv_floats",
    "read_two_column_csv",
    "read_grid_function_csv",
    "write_csv",
    "write_grid_function_csv",
]

_MEASURE_MASS_TOL = 1e-12
# Relative tolerance on the steps of a grid read from a file.
_REL_STEP_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """Bounded interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval: lo={self.lo} >= hi={self.hi}")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"interval length overflows: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_i = lo + i*h, i = 0..n-1, with both endpoints exact."""

    interval: Interval
    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"grid size must be an integer, got n={self.n!r}")
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 points, got n={self.n}")
        object.__setattr__(self, "n", int(self.n))   # a numpy integer would make h a numpy scalar
        pts = self.interval.lo + np.arange(self.n) * self.h
        pts[-1] = self.interval.hi  # endpoint exact regardless of rounding in lo + (n-1)*h
        if (np.diff(pts) <= 0).any():
            raise ValueError(f"[{self.interval.lo}, {self.interval.hi}] is too short for "
                             f"{self.n} strictly increasing grid points")
        pts.flags.writeable = False
        object.__setattr__(self, "_points", pts)

    @property
    def h(self) -> float:
        return (self.interval.hi - self.interval.lo) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return self._points

    def nearest_index(self, x: float) -> int:
        i = int(round((x - self.interval.lo) / self.h))
        return min(max(i, 0), self.n - 1)


def make_uniform_grid(lo: float, hi: float, n: int) -> Grid:
    return Grid(Interval(float(lo), float(hi)), n)


def grid_through(x: np.ndarray, what: str) -> Grid:
    """The uniform grid through the points ``x`` read from a file, which
    must increase strictly in steps equal within ``_REL_STEP_TOL``."""
    steps = np.diff(x)
    if (steps <= 0).any():
        raise ValueError(f"{what} must be strictly increasing")
    h = (x[-1] - x[0]) / (len(x) - 1)
    if np.abs(steps - h).max() > _REL_STEP_TOL * max(abs(h), 1.0):
        raise ValueError(f"{what} is not uniform within tolerance")
    return make_uniform_grid(x[0], x[-1], len(x))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Extended-real values on a uniform grid; at least one value finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)   # copies: the function owns its values
        if vals.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} values, got shape {vals.shape}")
        low = vals.min()   # one reduction: NaN if any is NaN, else -inf if any is -inf
        if np.isnan(low):
            raise ValueError("NaN values are not allowed in a GridFunction")
        if low == -np.inf:
            raise ValueError("-inf values are not allowed in a GridFunction")
        if low == np.inf:
            raise ValueError("improper function: no finite value on the grid")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @cached_property   # the values are read-only: computed once
    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def max_slope(self) -> float:
        """Max absolute first-difference quotient over finite neighbours."""
        return self._max_slope

    @cached_property
    def _max_slope(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):   # an inf or NaN slope is dropped
            d = np.abs(np.diff(self.values)) / self.grid.h
        d = d[np.isfinite(d)]
        return float(d.max()) if d.size else 0.0


def sample_function(evaluator: Callable[[float], float], grid: Grid) -> GridFunction:
    vals = np.array([float(evaluator(float(x))) for x in grid.points])
    if np.isnan(vals).any():
        i = int(np.argwhere(np.isnan(vals))[0][0])
        raise ValueError(f"evaluator returned NaN at x={grid.points[i]}")
    return GridFunction(grid, vals)


def sup_norm_diff(f: GridFunction, g: GridFunction) -> float:
    if f.grid != g.grid:
        raise ValueError("grid mismatch between grid functions")
    if not (f.is_finite and g.is_finite):
        raise ValueError("sup_norm_diff requires everywhere-finite functions")
    with np.errstate(over="ignore"):   # an overflowing difference is an infinite deviation
        return float(np.abs(f.values - g.values).max())


def check_tol(tol: float) -> float:
    """A membership or convexity tolerance, rejected unless finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    return tol


def check_index(index: int, grid: Grid) -> int:
    """A grid index, rejected unless an integer 0 <= index < grid.n (no wrap-around)."""
    if not isinstance(index, numbers.Integral):
        raise ValueError(f"grid index must be an integer, got {index!r}")
    if not 0 <= index < grid.n:
        raise ValueError(f"grid index {index} is out of range for a grid of {grid.n} points")
    return index


def _ordered_sum(terms, axis=0):
    """Sum along ``axis`` adding strictly left to right, so the result rounds
    bit for bit as a Python loop ``acc = terms[0]; acc += t`` does (``np.sum``
    adds pairwise).  A loop that starts from ``acc = 0.0`` needs a leading
    0.0 term: it turns an all -0.0 sum into +0.0."""
    return np.add.accumulate(terms, axis=axis).take(-1, axis=axis)


def _composite_rule(v: np.ndarray, h: float):
    """Composite trapezoid rule along axis 0 of ``v``: one integral per column."""
    return _ordered_sum(np.concatenate((0.5 * v[:1], v[1:-1], 0.5 * v[-1:]))) * h


def quadrature(f: GridFunction) -> float:
    """Composite trapezoid rule over the uniform grid, left-to-right summation."""
    if not f.is_finite:
        raise ValueError("quadrature requires everywhere-finite values")
    return float(_composite_rule(f.values, f.grid.h))


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Discrete probability measure: atoms with positive weights summing to 1."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)   # copies: the measure owns its atoms
        w = np.array(self.weights, dtype=float)
        if pos.ndim != 1 or pos.shape != w.shape or pos.size < 1:
            raise ValueError("positions and weights must be equal-length 1-D arrays, n >= 1")
        if not (np.isfinite(pos).all() and np.isfinite(w).all()):
            raise ValueError("atoms must be finite")
        if not w.min() > 0:
            raise ValueError("weights must be strictly positive")
        total = float(_ordered_sum(np.concatenate(([0.0], w))))
        if abs(total - 1.0) > _MEASURE_MASS_TOL:
            raise ValueError(f"weights must sum to 1 within {_MEASURE_MASS_TOL}, got {total}")
        for name, a in (("positions", pos), ("weights", w)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[float, float]]) -> "DiscreteMeasure":
        xs, ps = zip(*atoms)
        return cls(np.array(xs, dtype=float), np.array(ps, dtype=float))


def barycenter(mu: DiscreteMeasure) -> float:
    return float(_ordered_sum(np.concatenate(([0.0], mu.weights * mu.positions))))


def csv_rows(path: str) -> Iterator[tuple[int, list[str]]]:
    """Line number and cells of each nonblank row of a CSV file."""
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if any(c.strip() for c in row):
                yield lineno, row


def csv_floats(path: str, lineno: int, row: list[str], names: Sequence[str],
               exact: bool = False) -> list[float]:
    """The first ``len(names)`` cells of a CSV row as floats (``inf`` reads
    as +inf).  A shorter row (or, when ``exact``, a longer one) and a
    non-numeric cell are rejected with a ``path:line`` message that names
    the column by ``names``."""
    if len(row) < len(names) or (exact and len(row) > len(names)):
        raise ValueError(f"{path}:{lineno}: expected {len(names)} columns, got {len(row)}")
    values = []
    for name, cell in zip(names, row):
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad {name} value {cell.strip()!r}") from None
    return values


def read_two_column_csv(path: str, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """The two float columns of a CSV file, read by ``csv_floats``.

    Blank rows are skipped, and so is a first row whose first cell is not a
    number (a header).  Any other short or non-numeric row is rejected.
    """
    table = []
    for lineno, row in csv_rows(path):
        if lineno == 1 and len(row) >= 2 and not _is_number(row[0]):  # header row
            continue
        table.append(csv_floats(path, lineno, row, names))
    columns = np.array(table, dtype=float).reshape(-1, 2)
    return columns[:, 0].copy(), columns[:, 1].copy()


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_grid_function_csv(path: str) -> GridFunction:
    """Two-column CSV (x, f(x)); header optional; ``inf`` means +inf.

    The x column must be uniform as ``grid_through`` requires.
    """
    xs, vs = read_two_column_csv(path, ("x", "f"))
    if len(xs) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return GridFunction(grid_through(xs, f"{path}: x column"), vs)


def write_csv(path: str, header: Sequence, rows: Iterable[Sequence]) -> None:
    """The package's one CSV writer: ``header``, then ``rows`` as they arrive."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_grid_function_csv(path: str, f: GridFunction) -> None:
    write_csv(path, ("x", "f"), zip(f.grid.points.tolist(), f.values.tolist()))
