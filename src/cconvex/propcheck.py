"""Machine-checkable verdicts for the structural propositions relating
c-subdifferentials, convexity and cost structure, plus the seeded random
instance generator feeding the verification suite.

Conventions shared by all checks:

* A check reads its (f, cost) instance through an ``Analysis``'s
  ``table`` and ``grid_j``, so a spec serves as its table does, and reads
  its ``members`` or ``slack_at`` only after the hypotheses pass.  The two-function
  checks need one cost object, tol and pair of I and J grids; mixture
  weights must be a nonempty sequence of numbers in [0, 1].
* ``max_violation`` is the excess beyond the check's documented
  allowance; a judged verdict's ``status`` is ``held`` when it is <= 0,
  else ``violated``, and only a violated verdict keeps its witness.
* Hypothesis checks are separated from conclusion checks; when a
  hypothesis fails the status is ``hypothesis_failed`` and the conclusion
  is not judged.
* Vacuous sweeps (no qualifying pairs) have the status ``vacuous``.
* ``pair_cap`` alone decides a pair sweep's pairs: all k(k-1) ordered
  pairs of a k-point pool when they fit under it, else ``pair_cap``
  seeded draws.  A cap that is not an integer >= 0 is rejected before
  any work.

Sampling contract of the pair sweeps, which fixes every verdict byte: a
check seeds one generator, draws all its pairs first, then (for the
set-valued check) draws one member per endpoint in pair order, x1 before
x2, as ``rng.choice`` over that row's members would.  Pairs are swept in
blocks sized from the cell budget ``PAIR_BLOCK_CELLS`` and what one pair
holds on the sweep's path, and the witness is the first (pair, lambda)
position of the maximum excess, set only when that maximum is positive,
whatever the block size.  All lambdas of a block are snapped in one pass,
with the arithmetic of one lambda at a time.

Row-span rule: a member row's count, first and last member column, and a
check's effective domain (the rows with a member), come only from
``Analysis.spans``; only ``_meeting`` finds the pairs whose rows share a member,
and how it finds them decides no drawn pair or member, and no verdict byte.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .costs import (CostMatrix, CostSpec, check_structure, cost_dx, evaluate_cost,
                    parse_cost_spec, tabulate_callable, tabulate_cost)
from .grids import Grid, GridFunction, _ordered_sum, check_index, check_tol, make_uniform_grid
from .subdiff import Analysis, LocalWindow, local_double_conjugate
from .transform import double_c_transform
from .verdicts import Verdict

__all__ = [
    "InstanceConfig",
    "Verdict",
    "generate_instance",
    "check_mixture",
    "check_order_propagation",
    "check_subdiff_convexity",
    "check_set_valued_convexity",
    "check_intersection_inclusion",
    "check_domain_interval",
    "check_grad_inclusion",
    "check_cost_self_subdiff",
    "check_local_support_iff",
    "run_suite",
    "DEFAULT_LAMBDAS",
]

DEFAULT_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)
F_FAMILIES = ("random_piecewise_linear", "random_smooth_fourier", "cconvexified_random")
# The temporaries of one pair-sweep block hold at most this many 8-byte cells,
# whatever the pair cap.  A sweep's blocks get PAIR_BLOCK_CELLS // (cells one
# pair holds on its path) pairs: 8 on ``_meeting``'s row-span path (2048
# pairs), 8 + m with an m-wide row intersection (150 pairs at m = 101); 2m + 8
# a lambda for common members and their slack (72 at m = 101, three lambdas); 8 a
# lambda and 24 for the set-valued sweep's member draws (256 at five lambdas).
PAIR_BLOCK_CELLS = 2**14


@dataclass(frozen=True)
class InstanceConfig:
    """Deterministic recipe for one (f, cost) instance."""

    seed: int
    n: int = 129
    m: int = 129
    interval_i: tuple[float, float] = (-1.0, 1.0)
    interval_j: tuple[float, float] = (-1.0, 1.0)
    cost_family: str = "bilinear"
    cost_params: tuple = ()
    f_family: str = "cconvexified_random"
    amplitude: float = 1.0

    def __post_init__(self):
        _check_seed(self.seed)
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if self.f_family not in F_FAMILIES:
            raise ValueError(f"unknown f family {self.f_family!r}")
        parse_cost_spec(self.cost_family, self.cost_params)


def _raw_function(cfg: InstanceConfig, grid: Grid, rng: np.random.Generator,
                  family: str) -> np.ndarray:
    lo, hi = grid.interval.lo, grid.interval.hi
    amp = cfg.amplitude
    if family == "random_piecewise_linear":
        k = int(rng.integers(3, 8))
        knots = np.sort(rng.uniform(lo, hi, k))
        knots[0], knots[-1] = lo, hi
        vals = rng.uniform(-amp, amp, k)
        return np.interp(grid.points, knots, vals)
    # random_smooth_fourier, the one other raw family: with t = (x - lo) / (hi - lo),
    # (amp / k^2) (a_k cos(pi k t) + b_k sin(pi k t)), k = 1..5, added in turn onto 0.0
    k = np.arange(1, 6)
    a, b = rng.normal(size=(5, 2)).T
    kt = np.multiply.outer((grid.points - lo) / (hi - lo), np.pi * k)
    terms = np.zeros((grid.n, 6))
    terms[:, 1:] = (amp / k**2) * (a * np.cos(kt) + b * np.sin(kt))
    return _ordered_sum(terms, axis=1)


def _instance_function(cfg: InstanceConfig, cost: CostMatrix) -> GridFunction:
    """The f of ``cfg``'s instance on ``cost``'s I grid, c-convexified against
    ``cost``; only ``cfg``'s seed, f family and amplitude are read."""
    grid_i = cost.grid_i
    rng = np.random.default_rng(cfg.seed)
    if cfg.f_family == "cconvexified_random":
        raw = GridFunction(grid_i, _raw_function(cfg, grid_i, rng, "random_smooth_fourier"))
        return double_c_transform(raw, cost).values
    return GridFunction(grid_i, _raw_function(cfg, grid_i, rng, cfg.f_family))


def generate_instance(cfg: InstanceConfig) -> tuple[GridFunction, CostMatrix]:
    """Deterministic seeded instance; same config => bit-identical output."""
    grid_i = make_uniform_grid(*cfg.interval_i, cfg.n)
    grid_j = make_uniform_grid(*cfg.interval_j, cfg.m)
    cost = tabulate_cost(parse_cost_spec(cfg.cost_family, cfg.cost_params), grid_i, grid_j)
    return _instance_function(cfg, cost), cost


# ---------------------------------------------------------------------------
# helpers

def _float_margin(*arrays: np.ndarray) -> float:
    scale = max(float(np.abs(a[np.isfinite(a)]).max(initial=0.0)) for a in arrays)
    return 1e-12 * (1.0 + scale)


def _lipschitz(a: Analysis) -> tuple[float, float, float]:
    """Max difference quotients of f, and of the cost along x and along y:
    the slopes that scale the grid-snapping allowances."""
    lcx = float(np.abs(np.diff(a.table.entries, axis=0)).max()) / a.f.grid.h
    lcy = float(np.abs(np.diff(a.table.entries, axis=1)).max()) / a.grid_j.h
    return a.f.max_slope(), lcx, lcy


def _nearest_indices(grid: Grid, x: np.ndarray) -> np.ndarray:
    """``Grid.nearest_index`` over an array; ``rint`` rounds half to even,
    as ``round`` does."""
    i = x - grid.interval.lo
    i /= grid.h
    np.rint(i, out=i)
    np.maximum(i, 0, out=i)   # np.clip, without its slower wrapper
    np.minimum(i, grid.n - 1, out=i)
    return i.astype(np.int64)


def _snap(grid: Grid, x: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest grid indices of ``x``, and ``scale * |point - x|`` at them:
    the snapping allowance term, rounded as the scalar expression is."""
    i = _nearest_indices(grid, x)
    d = grid.points[i]
    d -= x
    np.abs(d, out=d)
    d *= scale
    return i, d


def _mixtures(u: np.ndarray, v: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """``(1 - l) * u + l * v`` for every pair and lambda, shape (pairs, lambdas)."""
    out = np.multiply.outer(u, 1.0 - lambdas)
    out += np.multiply.outer(v, lambdas)
    return out


def _scaled(w: float, values: np.ndarray) -> np.ndarray:
    """``w * values``, with 0 * (+inf) = 0: a weight of 0 drops the function."""
    return np.multiply(w, values, out=np.zeros_like(values), where=(w != 0.0) | (values < np.inf))


def _pair_blocks(i1: np.ndarray, i2: np.ndarray,
                 pair_cells: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Consecutive blocks of the pairs (i1[k], i2[k]), in order, of
    ``PAIR_BLOCK_CELLS // pair_cells`` pairs (at least one), so a block whose
    pairs hold ``pair_cells`` cells each stays within the budget."""
    step = max(1, PAIR_BLOCK_CELLS // pair_cells)
    return ((i1[s:s + step], i2[s:s + step]) for s in range(0, i1.size, step))


def _meeting(a: Analysis, i1: np.ndarray, i2: np.ndarray,
             pair_cells: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The pairs (i1[k], i2[k]) whose member rows of ``a`` meet, in order, with
    their first and last shared column.  Interval rows (per ``a.spans``) meet
    from the larger first to the smaller last, 8 cells a pair; others are
    intersected, 8 + m cells.  The pairs come in blocks of
    PAIR_BLOCK_CELLS // max(``pair_cells``, those cells) pairs, all full but
    the last, so a block stays within the budget of the caller, whose pairs
    hold ``pair_cells`` cells each, and of the path that found them.  Between
    blocks only the meeting pairs' positions are held, 1 cell a pair: a
    block's shared columns are found again when it is yielded."""
    counts, first, last, intervals = a.spans
    path_cells = 8 if intervals else 8 + a.grid_j.n

    def shared(x1, x2):   # whether each pair's rows meet, and the first and last shared column
        if intervals:
            lo, hi = first[x1], last[x1]
            np.maximum(lo, first[x2], out=lo)
            np.minimum(hi, last[x2], out=hi)
            meet = lo <= hi
            meet &= counts[x1] > 0
            meet &= counts[x2] > 0
            return meet, lo, hi
        both = a.member_rows(x1) & a.member_rows(x2)
        return both.any(axis=1), both.argmax(axis=1), a.grid_j.n - 1 - both[:, ::-1].argmax(axis=1)

    step, held, done = max(1, PAIR_BLOCK_CELLS // max(pair_cells, path_cells)), np.empty(0, int), 0
    for x1, x2 in _pair_blocks(i1, i2, path_cells):
        held = np.concatenate((held, np.flatnonzero(shared(x1, x2)[0]) + done))
        done += x1.size
        while held.size >= step or (done == i1.size and held.size):
            x1, x2, held = i1[held[:step]], i2[held[:step]], held[step:]
            yield x1, x2, *shared(x1, x2)[1:]


def _fold(worst: float, witness: Optional[tuple], excess: np.ndarray,
          witness_at: Callable[[int], tuple]) -> tuple[float, Optional[tuple]]:
    """Fold a block of excesses, in sweep order, into the running maximum.

    Same result as visiting the entries one by one with ``if e > worst:
    worst = e`` and taking ``witness_at(k)`` of each such ``e > 0``: NaN
    never wins, and the witness is the first position of the maximum.
    """
    flat = excess.ravel()
    k = int(np.argmax(flat))
    if np.isnan(flat[k]):
        flat = np.where(np.isnan(flat), -np.inf, flat)
        k = int(np.argmax(flat))
    best = float(flat[k])
    if best > worst:
        worst = best
        if best > 0:
            witness = witness_at(k)
    return worst, witness


def _check_sweep(pair_cap: int, seed: int):
    """A pair cap, then a seed, each rejected unless an integer >= 0."""
    if not isinstance(pair_cap, numbers.Integral):
        raise ValueError(f"pair_cap must be an integer, got {pair_cap!r}")
    if pair_cap < 0:
        raise ValueError(f"pair_cap must be >= 0, got {pair_cap}")
    _check_seed(seed)


def _check_seed(seed: int):
    """A generator seed, rejected unless an integer >= 0."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def _sample_pairs(rng: np.random.Generator, pool: np.ndarray,
                  cap: int) -> tuple[np.ndarray, np.ndarray]:
    """All k(k-1) ordered pairs of distinct points of the k-point ``pool``
    when they fit under ``cap`` (none, and no draw, when k < 2), else
    ``cap`` seeded draws less those that pair a point with itself."""
    k = pool.size
    if k * (k - 1) <= cap:
        a, b = np.meshgrid(pool, pool, indexing="ij")
        mask = a.ravel() != b.ravel()
        return a.ravel()[mask], b.ravel()[mask]
    i1 = pool[rng.integers(0, k, cap)]
    i2 = pool[rng.integers(0, k, cap)]
    mask = i1 != i2
    return i1[mask], i2[mask]


def _failed_hypothesis(check_id: str, a: Analysis, *hypotheses: str) -> Optional[Verdict]:
    """The ``hypothesis_failed`` verdict of the first of ``hypotheses`` that
    fails, tried in order, or None when all hold.  A hypothesis is a
    ``check_structure`` property of ``a.table``, ``convex`` (f finite on one run
    of grid points, its effective domain, with every second difference there
    >= -tol * (1 + max|f| there)) or ``c_convex`` (``a.c_convex``; every
    f^cc on a grid is finite, so an f that is +inf somewhere is not c-convex)."""
    for h in hypotheses:
        if h == "convex":
            finite = np.flatnonzero(np.isfinite(a.f.values))
            run = a.f.values[finite[0]:finite[-1] + 1]
            held = run.size == finite.size and \
                (np.diff(run, 2) >= -a.tol * (1.0 + np.abs(run).max())).all()
            reason = "f not convex"
        elif h == "c_convex" and not a.f.is_finite:
            held, reason = False, "f not c-convex (+inf at a grid point)"
        elif h == "c_convex":
            held, reason = a.c_convex[0], f"f not c-convex (deviation {a.c_convex[1]})"
        else:
            v = check_structure(a.table, h)
            held, reason = v.holds, f"cost not {h} (excess {v.max_violation})"
        if not held:
            notes = f"hypothesis-failed: {reason}; conclusion not judged"
            return Verdict(check_id, 0.0, notes=notes, status="hypothesis_failed")
    return None


def _vacuous(check_id: str, notes: str = "vacuous: no qualifying cases") -> Verdict:
    return Verdict(check_id, 0.0, notes=notes, status="vacuous")


def _check_lambdas(lambdas: Sequence[float]):
    """Mixture weights, rejected unless nonempty and each a finite number in [0, 1]."""
    if len(lambdas) == 0:
        raise ValueError("lambdas must be nonempty")
    for k, lam in enumerate(lambdas):
        if not (isinstance(lam, numbers.Real) and 0.0 <= lam <= 1.0):
            raise ValueError(f"lambdas[{k}] must be a finite number in [0, 1], got {lam!r}")


def _shared_cost(a: Analysis, b: Analysis):
    """Reject two analyses unless they share cost, grids and tol."""
    if a.cost is not b.cost or a.tol != b.tol or (a.f.grid, a.grid_j) != (b.f.grid, b.grid_j):
        raise ValueError("the two analyses must have the same cost object and the same tol, "
                         "on the same I and J grids")


# ---------------------------------------------------------------------------
# proposition checks

def check_mixture(a: Analysis, b: Analysis,
                  lambdas: Sequence[float] = DEFAULT_LAMBDAS) -> Verdict:
    """Members of both subdifferentials stay members of any convex mixture:
    y in the sets of f = a.f and g = b.f at x is in that of (1-l)f + l g."""
    check_id = "mixture"
    _check_lambdas(lambdas)
    _shared_cost(a, b)
    cost, tol, f, g = a.table, a.tol, a.f, b.f
    marked = np.zeros((f.grid.n, a.grid_j.n), dtype=bool)   # common: b's members a's mark
    marked[np.repeat(np.arange(f.grid.n), a.members[0]), a.members[1]] = True
    rows, cols = np.repeat(np.arange(f.grid.n), b.members[0]), b.members[1]
    common = marked[rows, cols]
    rows, cols = rows[common], cols[common]
    if not rows.size:
        return _vacuous(check_id)
    margin = _float_margin(cost.entries, f.values, g.values)
    worst, witness = -np.inf, None
    for lam in lambdas:
        mix = GridFunction(f.grid, _scaled(1.0 - lam, f.values) + _scaled(lam, g.values))
        # exact arithmetic gives slack_mix >= (1-l) slack_f + l slack_g >= -tol
        excess = Analysis(mix, cost, tol).slack_at(rows, cols)
        np.negative(excess, out=excess)
        excess -= tol + margin
        val = float(excess.max())
        if val > worst:
            worst = val
            k = int(np.argmax(excess))
            witness = (int(rows[k]), int(cols[k]), float(lam))
    return Verdict(check_id, worst, witness, notes=f"lambdas={list(lambdas)}; tol={tol}")


def check_order_propagation(a: Analysis, b: Analysis) -> Verdict:
    """If f = a.f < g = b.f at u and some y lies in both the subdifferential
    of g at u and of f at v, then f < g at v.

    With tolerance-qualified memberships the exact argument degrades by
    2*tol, so u qualifies only when g(u) - f(u) > 4*tol; the conclusion
    must then hold outright.  v qualifies iff f's member row v meets the
    columns of g's member rows at the qualifying u; f(v) - g(v) does not
    depend on u, and the witness is the first qualifying (u, v), in
    row-major order, at the maximum.  No (u, v) table and no member matrix is
    built: rows and columns of members meet through n- and m-length masks.
    """
    check_id = "order_propagation"
    _shared_cost(a, b)
    tol, f, g, n, m = a.tol, a.f, b.f, a.f.grid.n, a.grid_j.n
    with np.errstate(invalid="ignore"):   # +inf - +inf is NaN: not a gap
        u_mask = g.values - f.values > 4.0 * tol
    if not u_mask.any():
        return _vacuous(check_id)
    (nf, cf), (ng, cg) = a.members, b.members   # each row's count, then the member columns
    rf, rg = np.repeat(np.arange(n), nf), np.repeat(np.arange(n), ng)   # and their rows
    gcols = np.bincount(cg, u_mask[rg], m) > 0   # g's member columns at a qualifying u
    v_mask = np.bincount(rf, gcols[cf], n) > 0
    if not v_mask.any():
        return _vacuous(check_id)
    excess = np.subtract(f.values, g.values, out=np.full(n, -np.inf), where=v_mask)
    top = excess == excess.max()
    fcols = np.bincount(cf, top[rf], m) > 0   # f's member columns at the maximum
    u = int(np.argmax(u_mask & (np.bincount(rg, fcols[cg], n) > 0)))
    gcols = np.bincount(cg, rg == u, m) > 0
    v = int(np.argmax(top & (np.bincount(rf, gcols[cf], n) > 0)))
    return Verdict(check_id, float(excess.max()), (u, v), notes=f"u-gap=4*tol; tol={tol}")


def _subdiff_convexity_sweep(a: Analysis, i1: np.ndarray,
                             i2: np.ndarray) -> tuple[float, Optional[tuple]]:
    """Gaps inside each nonempty member row of ``a``, then the y diameter of
    the common members of each pair (i1[k], i2[k]) beyond one step."""
    counts, first, last, _ = a.spans
    gaps = np.where(counts > 0, (last - first + 1 - counts).astype(float), -np.inf)
    worst, witness = _fold(-np.inf, None, gaps,
                           lambda i: (i, int(first[i]), int(last[i])))
    yv = a.grid_j.points
    for x1, x2, lo, hi in _meeting(a, i1, i2, 8):
        excess = yv[hi]
        excess -= yv[lo]
        excess -= a.grid_j.h + a.tol
        worst, witness = _fold(worst, witness, excess, lambda q: (int(x1[q]), int(x2[q])))
    return worst, witness


def check_subdiff_convexity(a: Analysis, pair_cap: int = 10100, seed: int = 0) -> Verdict:
    """Under a 2-affine, twisted cost (``check_structure``) every nonempty
    subdifferential is an interval of the y grid, and distinct interior
    points share at most one subgradient (intersection diameter <= y grid
    step + tol)."""
    check_id = "subdiff_convexity"
    _check_sweep(pair_cap, seed)
    if failed := _failed_hypothesis(check_id, a, "two_affine", "twisted", "c_convex"):
        return failed
    # the row gaps test the contiguity that a band search assumes: judge the table's rows
    a = a if a.twist is None else Analysis(a.f, a.table, a.tol)
    if not a.spans[0].any():
        return _vacuous(check_id, "vacuous: every subdifferential empty")
    i1, i2 = _sample_pairs(np.random.default_rng(seed), np.arange(1, a.f.grid.n - 1), pair_cap)
    worst, witness = _subdiff_convexity_sweep(a, i1, i2)
    return Verdict(check_id, float(worst), witness, notes=f"pairs={i1.size}; tol={a.tol}")


def _set_valued_sweep(a: Analysis, lambdas: Sequence[float],
                      lipschitz: tuple[float, float, float], rng: np.random.Generator,
                      i1s: np.ndarray, i2s: np.ndarray) -> tuple[float, Optional[tuple]]:
    """Snap each mixture of a drawn member at x1 and one at x2 to the grids
    and measure its non-membership beyond the snapping allowance."""
    lf, lcx, lcy = lipschitz
    xv, yv = a.f.grid.points, a.grid_j.points
    lams = np.asarray(lambdas, dtype=float)
    counts, ys = a.members
    starts = np.cumsum(counts) - counts   # ys[starts[x] + r] is row x's r-th member
    worst, witness = -np.inf, None
    for x1, x2 in _pair_blocks(i1s, i2s, 8 * (lams.size + 3)):
        highs = np.empty(2 * x1.size, dtype=np.int64)
        highs[0::2] = counts[x1]
        highs[1::2] = counts[x2]
        draws = rng.integers(0, highs)
        y1 = ys[starts[x1] + draws[0::2]]
        y2 = ys[starts[x2] + draws[1::2]]
        # allow = tol + 2(lf + lcx)|dx| + 2 lcy |dy|, summed left to right
        im, allow = _snap(a.f.grid, _mixtures(xv[x1], xv[x2], lams), 2.0 * (lf + lcx))
        allow += a.tol
        jm, dy = _snap(a.grid_j, _mixtures(yv[y1], yv[y2], lams), 2.0 * lcy)
        allow += dy
        excess = a.slack_at(im, jm)
        np.negative(excess, out=excess)
        excess -= allow
        worst, witness = _fold(worst, witness, excess, lambda q: (
            int(x1[q // len(lambdas)]), int(x2[q // len(lambdas)]),
            float(lambdas[q % len(lambdas)])))
        # free this block's arrays before the next block builds its own
        del highs, draws, y1, y2, im, allow, jm, dy, excess
    return worst, witness


def check_set_valued_convexity(a: Analysis, lambdas: Sequence[float] = DEFAULT_LAMBDAS,
                               pair_cap: int = 10100, seed: int = 0) -> Verdict:
    """For a concave 2-affine cost and convex, c-convex f, mixtures of
    subgradients at two points are subgradients at the mixed point.

    Cost concavity is segment-tested (rows, columns, diagonals); the
    verdict notes record that interpretation.  Mixture points and mixed
    subgradients are snapped to the grids with a slope-scaled tolerance
    inflation.
    """
    check_id = "set_valued_convexity"
    _check_sweep(pair_cap, seed)
    _check_lambdas(lambdas)
    if failed := _failed_hypothesis(check_id, a, "two_affine", "segment_concave", "convex",
                                    "c_convex"):
        return failed
    dom = np.flatnonzero(a.spans[0])
    if dom.size < 2:
        return _vacuous(check_id, "vacuous: effective domain has fewer than two points")
    rng = np.random.default_rng(seed)
    i1s, i2s = _sample_pairs(rng, dom, pair_cap)
    if i1s.size == 0:
        return _vacuous(check_id, "vacuous: no distinct pairs sampled")
    worst, witness = _set_valued_sweep(a, lambdas, _lipschitz(a), rng, i1s, i2s)
    return Verdict(check_id, float(worst), witness,
                   notes=f"pairs={i1s.size}; concavity=segment-tested; tol={a.tol}")


def _intersection_sweep(a: Analysis, lambdas: Sequence[float],
                        lipschitz: tuple[float, float, float], i1s: np.ndarray,
                        i2s: np.ndarray) -> tuple[float, Optional[tuple], bool]:
    """Worst non-membership of a common member of x1 and x2 at the snapped
    mixture points; also reports whether any pair had a common member."""
    lf, lcx, _ = lipschitz
    xv, lams = a.f.grid.points, np.asarray(lambdas, dtype=float)
    worst, witness, any_intersection = -np.inf, None, False
    # the meeting pairs, in blocks of their own, read slack at common members only
    for x1, x2, _, _ in _meeting(a, i1s, i2s, 2 * a.grid_j.n + 8 * lams.size):
        any_intersection = True
        pairs, cols = np.nonzero(a.member_rows(x1) & a.member_rows(x2))
        firsts = np.searchsorted(pairs, np.arange(x1.size))   # every pair has one
        im, allow = _snap(a.f.grid, _mixtures(xv[x1], xv[x2], lams), 2.0 * (lf + lcx))
        allow += a.tol   # no dy term: the common member is not mixed
        excess = np.empty_like(allow)
        for k in range(lams.size):
            s = a.slack_at(im[pairs, k], cols)
            np.negative(s, out=s)
            excess[:, k] = np.maximum.reduceat(s, firsts)
        excess -= allow
        worst, witness = _fold(worst, witness, excess, lambda q: (
            int(x1[q // len(lambdas)]), int(x2[q // len(lambdas)]),
            float(lambdas[q % len(lambdas)])))
    return worst, witness, any_intersection


def check_intersection_inclusion(a: Analysis, lambdas: Sequence[float] = DEFAULT_LAMBDAS,
                                 pair_cap: int = 10100, seed: int = 0) -> Verdict:
    """For a 1-concave cost and convex, c-convex f, a common subgradient
    of two points is a subgradient at every convex combination."""
    check_id = "intersection_inclusion"
    _check_sweep(pair_cap, seed)
    _check_lambdas(lambdas)
    if failed := _failed_hypothesis(check_id, a, "one_concave", "convex", "c_convex"):
        return failed
    interior = np.flatnonzero(a.spans[0][1:-1]) + 1   # the domain's interior points
    if interior.size < 2:
        return _vacuous(check_id)
    i1s, i2s = _sample_pairs(np.random.default_rng(seed), interior, pair_cap)
    worst, witness, any_intersection = _intersection_sweep(a, lambdas, _lipschitz(a), i1s, i2s)
    if not any_intersection:
        return _vacuous(check_id, "vacuous: no intersecting pairs found")
    return Verdict(check_id, float(worst), witness, notes=f"pairs={i1s.size}; tol={a.tol}")


def _domain_interval_sweep(a: Analysis, dom_relaxed: np.ndarray, i1s: np.ndarray,
                           i2s: np.ndarray) -> tuple[float, Optional[tuple], bool]:
    """Count the grid points outside ``dom_relaxed`` between each pair with
    a common member of ``a``; also reports whether any pair had one."""
    # float counts, exact below 2**53, so a block's differences need no cast
    missing_below = np.concatenate(([0.0], np.cumsum(~dom_relaxed)))
    worst, witness, any_intersection = -np.inf, None, False
    for x1, x2, _, _ in _meeting(a, i1s, i2s, 8):
        any_intersection = True
        lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
        excess = missing_below[hi + 1]
        excess -= missing_below[lo]
        worst, witness = _fold(worst, witness, excess, lambda q: (
            int(lo[q]), int(hi[q]), int(lo[q] + np.argmin(dom_relaxed[lo[q]:hi[q] + 1]))))
    return worst, witness, any_intersection


def check_domain_interval(a: Analysis, pair_cap: int = 10100, seed: int = 0) -> Verdict:
    """For a 1-concave cost and convex f, two points with intersecting
    subdifferentials bracket an interval contained in the effective
    domain.  Grid points between them are exact convex combinations, so
    the allowance is 2*tol plus rounding."""
    check_id = "domain_interval"
    _check_sweep(pair_cap, seed)
    if failed := _failed_hypothesis(check_id, a, "one_concave", "convex"):
        return failed
    idx = np.flatnonzero(a.spans[0])
    if idx.size < 2:
        return _vacuous(check_id)
    allow = 2.0 * a.tol + _float_margin(a.table.entries, a.f.values)
    dom_relaxed = a.spans[0] > 0   # a member is a relaxed member: only other rows read slack
    if (rest := np.flatnonzero(~dom_relaxed)).size:
        dom_relaxed[rest] = (a.slack_at(rest[:, None], np.arange(a.grid_j.n)) >= -allow).any(axis=1)
    i1s, i2s = _sample_pairs(np.random.default_rng(seed), idx, pair_cap)
    worst, witness, any_intersection = _domain_interval_sweep(a, dom_relaxed, i1s, i2s)
    if not any_intersection:
        return _vacuous(check_id, "vacuous: no intersecting pairs found")
    return Verdict(check_id, float(worst), witness,
                   notes=f"pairs={i1s.size}; allowance=2*tol; tol={a.tol}")


def check_grad_inclusion(a: Analysis, cost_spec: CostSpec) -> Verdict:
    """Members of the c-subdifferential satisfy dc/dx(x, y) ~ f'(x): the
    mismatch is bounded by C*h with

        C = (M2f + M2c)/2 + h*M3f/6 + tol/h^2,

    M2/M3 the max second/third difference quotients (f' estimated by
    central differences), times 4 for margin; dc/dx comes from ``cost_spec``,
    which must give the cost table exactly at every member; f must be finite.
    """
    check_id = "grad_inclusion"
    if not a.f.is_finite:
        raise ValueError("check_grad_inclusion requires an everywhere-finite f")
    f, cost, tol = a.f, a.table, a.tol
    h = f.grid.h
    rows, cols = np.repeat(np.arange(f.grid.n), a.members[0]), a.members[1]
    interior = (rows > 0) & (rows < f.grid.n - 1)
    rows, cols = rows[interior], cols[interior]
    if rows.size == 0:
        return _vacuous(check_id, "vacuous: no interior members")
    xs, ys = f.grid.points[rows], cost.grid_j.points[cols]
    if not np.array_equal(evaluate_cost(cost_spec, xs, ys), cost.entries[rows, cols]):
        raise ValueError(f"cost_spec {cost_spec} does not give the cost table at its members")
    m2f = float(np.abs(np.diff(f.values, 2)).max()) / h**2
    m3f = float(np.abs(np.diff(f.values, 3)).max(initial=0.0)) / h**3
    m2c = float(np.abs(np.diff(cost.entries, 2, axis=0)).max()) / h**2
    threshold = 4.0 * ((0.5 * (m2f + m2c) + h * m3f / 6.0) * h + tol / h)
    fprime = (f.values[2:] - f.values[:-2]) / (2.0 * h)
    dc = np.asarray(cost_dx(cost_spec, xs, ys), dtype=float)
    mismatch = np.abs(dc - fprime[rows - 1])
    k = int(np.argmax(mismatch))
    return Verdict(check_id, float(mismatch[k] - threshold), (int(rows[k]), int(cols[k])),
                   notes=f"threshold={threshold}; members={rows.size}; tol={tol}")


def check_cost_self_subdiff(cost: CostMatrix, tol: float = 0.0) -> Verdict:
    """Every cost slice supports itself: with f = c(., y_j), y_j belongs to
    the subdifferential at every x with slack exactly zero."""
    check_id = "cost_self_subdiff"
    check_tol(tol)
    # column j of membership_slack(c(., y_j), cost), for every j in one pass
    dev = cost.entries - cost.entries
    dev -= dev.max(axis=0)
    np.abs(dev, out=dev)
    worst = float(dev.max()) - tol
    return Verdict(check_id, worst, notes=f"tol={tol} (identity; slack must vanish exactly)")


def check_local_support_iff(a: Analysis, alpha_index: int, epsilon: float) -> Verdict:
    """A local support curve exists at alpha iff f(alpha) equals the local
    double conjugate there; both directions are asserted."""
    check_id = "local_support_iff"
    f, cost, tol = a.f, a.table, a.tol
    f0 = float(f.values[check_index(alpha_index, f.grid)])
    if not np.isfinite(f0):
        raise ValueError(f"f is +inf at grid index {alpha_index}")
    lb = local_double_conjugate(f, cost, LocalWindow(int(alpha_index), float(epsilon)), tol)
    eq_tol = tol + _float_margin(cost.entries, f.values)
    if not lb.subdifferential_empty:
        # support exists => equality
        excess = abs(f0 - lb.value) - eq_tol
        note = "support exists; equality checked"
    else:
        # no support => strict drop below f(alpha)
        excess = lb.value - (f0 - eq_tol)
        note = "no support; strict drop checked (exhaustive-y convention)"
    return Verdict(check_id, float(excess), (int(alpha_index),),
                   notes=f"{note}; epsilon={epsilon}; tol={tol}")


# ---------------------------------------------------------------------------
# suite orchestration

def run_suite(seed: int = 0, tol: float = 1e-9, pair_cap: int = 10100,
              falsify: bool = False) -> list[Verdict]:
    """Deterministic battery over seeded instances exercising every check.

    ``falsify`` replaces the c-convexified inputs of the hypothesis-gated
    checks with raw random functions, demonstrating that hypothesis
    failures are reported as such and never as conclusion failures.

    Each cost is tabulated once and each (f, cost) analysed once; the checks
    run, in the order returned, grouped to release each after its last check.
    """
    _check_sweep(pair_cap, seed)
    check_tol(tol)
    n = 101
    grid = make_uniform_grid(-1.0, 1.0, n)
    x = grid.points
    gated = "random_smooth_fourier" if falsify else "cconvexified_random"
    sweep = dict(pair_cap=pair_cap, seed=seed)

    def seeded(f_seed: int, cost: CostMatrix, family: str = "cconvexified_random") -> Analysis:
        cfg = InstanceConfig(f_seed, f_family=family)
        return Analysis(_instance_function(cfg, cost), cost, tol)

    def given(values: np.ndarray, cost: CostMatrix) -> Analysis:
        return Analysis(GridFunction(cost.grid_i, values), cost, tol)

    def pair(a: Analysis, b: Analysis, name: str) -> list[Verdict]:
        return [check_mixture(a, b, (0.25, 0.5, 0.75)).with_id(f"mixture_{name}"),
                check_order_propagation(a, b).with_id(f"order_propagation_{name}")]

    def bilinear_instances(cost: CostMatrix) -> list[Verdict]:
        b1 = seeded(seed, cost)
        return pair(b1, seeded(seed + 1, cost), "bilinear") + [
            check_subdiff_convexity(b1 if not falsify else seeded(seed, cost, gated), **sweep)
            .with_id("subdiff_convexity_bilinear")]

    def parabola(cost: CostMatrix) -> list[Verdict]:
        para = given(x**2 if not falsify else -x**2, cost)
        return [check_intersection_inclusion(para, (0.25, 0.5, 0.75), **sweep),
                check_domain_interval(para, **sweep).with_id("domain_interval_parabola")]

    # 2-affine contiguity under c(x, y) = sin(x) y + x^2, then set-valued
    # convexity under a concave 2-affine (fully affine) cost
    verdicts = [
        check_subdiff_convexity(seeded(seed + 4, tabulate_callable(
            lambda x, y: np.sin(x) * y + x**2, grid, grid), gated), **sweep)
        .with_id("subdiff_convexity_sinxy"),
        check_set_valued_convexity(seeded(seed + 5, tabulate_callable(
            lambda x, y: 0.4 * y + 0.25 * x + 0.1, grid, grid), gated), **sweep)]

    cost = tabulate_cost(CostSpec("bilinear"), grid, grid)
    verdicts += bilinear_instances(cost) + [
        check_grad_inclusion(given(0.5 * x**2, cost), CostSpec("bilinear"))
        .with_id("grad_inclusion_bilinear"),
        check_cost_self_subdiff(cost).with_id("cost_self_subdiff_bilinear"),
        # local support iff, both branches on f = -|x|
        check_local_support_iff(given(-np.abs(x), cost), grid.nearest_index(0.5), 0.25)
        .with_id("local_support_iff_affine_piece"),
        check_local_support_iff(given(-np.abs(x), cost), grid.nearest_index(0.0), 0.25)
        .with_id("local_support_iff_concave_kink")]

    # 1-concave propositions on neg_quadratic, with J wide enough that
    # convex test functions (x^2, |x|) keep their subgradient witnesses
    # y = x + f'(x)/2 inside J
    cost = tabulate_cost(CostSpec("neg_quadratic"), grid, make_uniform_grid(-2.5, 2.5, n))
    verdicts += pair(seeded(seed + 2, cost), seeded(seed + 3, cost), "neg_quadratic") + \
        parabola(cost) + [
            check_domain_interval(given(np.abs(x) if not falsify else -np.abs(x), cost), **sweep)
            .with_id("domain_interval_absval"),
            check_grad_inclusion(given(0.5 * x**2, cost), CostSpec("neg_quadratic"))
            .with_id("grad_inclusion_neg_quadratic"),
            check_cost_self_subdiff(cost).with_id("cost_self_subdiff_neg_quadratic")]

    grid_r = make_uniform_grid(0.0, 0.4, n)
    cost = tabulate_cost(CostSpec("reflector"), grid_r, grid_r)
    verdicts += [
        check_grad_inclusion(given(cost.entries[:, n // 2], cost), CostSpec("reflector"))
        .with_id("grad_inclusion_reflector"),
        check_cost_self_subdiff(cost).with_id("cost_self_subdiff_reflector")]
    return verdicts
