"""Machine-checkable verdicts for the structural propositions relating
c-subdifferentials, convexity and cost structure, plus the seeded random
instance generator feeding the verification suite.

Conventions shared by all checks:

* A check reads its (f, cost) instance from an ``Analysis``, which
  validates ``tol``, and reads its slack or members only after the
  hypotheses pass.  The two-function checks need one cost object and one
  tol; mixture weights must be a nonempty sequence of numbers in [0, 1].
* ``max_violation`` is the excess beyond the check's documented
  allowance, so ``holds <=> max_violation <= 0``.
* Hypothesis checks are separated from conclusion checks; when a
  hypothesis fails the verdict holds with a ``hypothesis-failed`` note
  and the conclusion is not judged.
* Vacuous sweeps (no qualifying pairs) hold with a ``vacuous`` note.
* ``pair_cap`` alone decides a pair sweep's pairs: all k(k-1) ordered
  pairs of a k-point pool when they fit under it, else ``pair_cap``
  seeded draws.  A cap that is not an integer >= 0 is rejected before
  any work.

Sampling contract of the pair sweeps, which fixes every verdict byte: a
check seeds one generator, draws all its pairs first, then (for the
set-valued check) draws one member per endpoint in pair order, x1 before
x2, as ``rng.choice`` over that row's members would.  Pairs are swept in
blocks of ``PAIR_BLOCK``, and the witness is the first (pair, lambda)
position of the maximum excess, set only when that maximum is positive.
All lambdas of a block are snapped in one pass, with the arithmetic of one
lambda at a time.

Row-span rule: each member row has a count and a first and last member
column.  When every nonempty row is one interval (last - first + 1 ==
count), the common members of two rows are the columns from the larger
first to the smaller last, so a pair costs O(1) instead of an m-wide
intersection; otherwise the rows are intersected column by column.  The
rule picks only how a result is computed, never which pairs or members
are drawn, so the sampling contract above and every verdict byte are the
same on both sides.  The row-gap part of ``check_subdiff_convexity``,
whose conclusion is that contiguity, is always judged on the dense rows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import (CostMatrix, CostSpec, check_structure, cost_dx, parse_cost_spec,
                    segment_concavity_excess, tabulate_callable, tabulate_cost)
from .grids import Grid, GridFunction, check_index, check_tol, make_uniform_grid
from .subdiff import Analysis, LocalWindow, local_double_conjugate, membership_slack
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
# Pair sweeps run in blocks of this many pairs, so every temporary holds at
# most PAIR_BLOCK x m elements whatever the pair cap.
PAIR_BLOCK = 256


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
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")


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
    if family == "random_smooth_fourier":
        t = (grid.points - lo) / (hi - lo)
        out = np.zeros(grid.n)
        for k in range(1, 6):
            a, b = rng.normal(size=2)
            out += (amp / k**2) * (a * np.cos(np.pi * k * t) + b * np.sin(np.pi * k * t))
        return out
    raise ValueError(f"unknown f family {family!r}")


def _instance_function(cfg: InstanceConfig, cost: CostMatrix) -> GridFunction:
    """The f of ``cfg``'s instance on ``cost``'s I grid, c-convexified against
    ``cost``; only ``cfg``'s seed, f family and amplitude are read."""
    grid_i = cost.grid_i
    rng = np.random.default_rng(cfg.seed)
    if cfg.f_family == "cconvexified_random":
        raw = GridFunction(grid_i, _raw_function(cfg, grid_i, rng, "random_smooth_fourier"))
        return double_c_transform(raw, cost).values
    if cfg.f_family in F_FAMILIES:
        return GridFunction(grid_i, _raw_function(cfg, grid_i, rng, cfg.f_family))
    raise ValueError(f"unknown f family {cfg.f_family!r}")


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


def _lipschitz(f: GridFunction, cost: CostMatrix) -> tuple[float, float, float]:
    """Max difference quotients of f, and of the cost along x and along y:
    the slopes that scale the grid-snapping allowances."""
    lcx = float(np.abs(np.diff(cost.entries, axis=0)).max()) / f.grid.h
    lcy = float(np.abs(np.diff(cost.entries, axis=1)).max()) / cost.grid_j.h
    return f.max_slope(), lcx, lcy


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


def _row_spans(member: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Member count, first and last member column of each row (0 and m-1
    for an empty row), and whether every nonempty row is one interval."""
    m = member.shape[1]
    counts = member.sum(axis=1)
    first = member.argmax(axis=1)
    last = m - 1 - member[:, ::-1].argmax(axis=1)
    intervals = bool(((counts == 0) | (last - first + 1 == counts)).all())
    return counts, first, last, intervals


def _common_span(member: np.ndarray, spans: tuple, a: np.ndarray,
                 b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether rows a[k] and b[k] share a member, and the first and last
    shared column.  When every row is an interval the shared members are
    the columns from the larger first to the smaller last, found in O(1)
    per pair; otherwise the rows are intersected column by column."""
    counts, first, last, intervals = spans
    if intervals:
        lo = np.maximum(first[a], first[b])
        hi = np.minimum(last[a], last[b])
        return (counts[a] > 0) & (counts[b] > 0) & (lo <= hi), lo, hi
    both = member[a] & member[b]
    lo = both.argmax(axis=1)
    hi = member.shape[1] - 1 - both[:, ::-1].argmax(axis=1)
    return both.any(axis=1), lo, hi


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


def _check_pair_cap(pair_cap: int):
    """A pair cap, rejected unless an integer >= 0."""
    if not isinstance(pair_cap, numbers.Integral):
        raise ValueError(f"pair_cap must be an integer, got {pair_cap!r}")
    if pair_cap < 0:
        raise ValueError(f"pair_cap must be >= 0, got {pair_cap}")


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


def _hypothesis_verdict(check_id: str, reason: str) -> Verdict:
    return Verdict(check_id, True, 0.0, notes=f"hypothesis-failed: {reason}; conclusion not judged")


def _vacuous(check_id: str, notes: str = "vacuous: no qualifying cases") -> Verdict:
    return Verdict(check_id, True, 0.0, notes=notes)


def _is_convex_values(values: np.ndarray, tol: float) -> bool:
    return bool((np.diff(values, 2) >= -tol * (1.0 + np.abs(values).max())).all())


def _check_lambdas(lambdas: Sequence[float]):
    """Mixture weights, rejected unless nonempty and each a finite number in [0, 1]."""
    if len(lambdas) == 0:
        raise ValueError("lambdas must be nonempty")
    for k, lam in enumerate(lambdas):
        if not (isinstance(lam, numbers.Real) and 0.0 <= lam <= 1.0):
            raise ValueError(f"lambdas[{k}] must be a finite number in [0, 1], got {lam!r}")


def _shared_cost(a: Analysis, b: Analysis) -> CostMatrix:
    """The cost of two analyses, rejected unless they share one cost and one tol."""
    if a.cost is not b.cost or a.tol != b.tol:
        raise ValueError("the two analyses must have the same cost object and the same tol")
    return a.cost


# ---------------------------------------------------------------------------
# proposition checks

def check_mixture(a: Analysis, b: Analysis,
                  lambdas: Sequence[float] = DEFAULT_LAMBDAS) -> Verdict:
    """Members of both subdifferentials stay members of any convex mixture:
    y in the sets of f = a.f and g = b.f at x is in that of (1-l)f + l g."""
    check_id = "mixture"
    _check_lambdas(lambdas)
    cost, tol, f, g = _shared_cost(a, b), a.tol, a.f, b.f
    inter = a.member & b.member
    if not inter.any():
        return _vacuous(check_id)
    margin = _float_margin(cost.entries, f.values, g.values)
    worst, witness = -np.inf, None
    for lam in lambdas:
        mix = GridFunction(f.grid, (1.0 - lam) * f.values + lam * g.values)
        sm = membership_slack(mix, cost)
        # exact arithmetic gives slack_mix >= (1-l) slack_f + l slack_g >= -tol
        excess = np.where(inter, -sm, -np.inf) - (tol + margin)
        val = float(excess.max())
        if val > worst:
            worst = val
            if val > 0:
                i, j = map(int, np.unravel_index(np.argmax(excess), excess.shape))
                witness = (i, j, float(lam))
    return Verdict(check_id, worst <= 0.0, worst, witness,
                   notes=f"lambdas={list(lambdas)}; tol={tol}")


def check_order_propagation(a: Analysis, b: Analysis) -> Verdict:
    """If f = a.f < g = b.f at u and some y lies in both the subdifferential
    of g at u and of f at v, then f < g at v.

    With tolerance-qualified memberships the exact argument degrades by
    2*tol, so u qualifies only when g(u) - f(u) > 4*tol; the conclusion
    must then hold outright.
    """
    check_id = "order_propagation"
    _shared_cost(a, b)
    tol, f, g = a.tol, a.f, b.f
    u_mask = g.values - f.values > 4.0 * tol
    if not u_mask.any():
        return _vacuous(check_id)
    # pairs (u, v) whose sets intersect: counts[u, v] > 0
    # float64 so BLAS does the product; counts <= m < 2**53 are exact
    counts = b.member.astype(float) @ a.member.astype(float).T
    qualifying = u_mask[:, None] & (counts > 0)
    if not qualifying.any():
        return _vacuous(check_id)
    viol = np.where(qualifying, f.values[None, :] - g.values[None, :], -np.inf)
    worst = float(viol.max())
    witness = None
    if worst > 0:
        u, v = map(int, np.unravel_index(np.argmax(viol), viol.shape))
        witness = (u, v)
    return Verdict(check_id, worst <= 0.0, worst, witness, notes=f"u-gap=4*tol; tol={tol}")


def _subdiff_convexity_sweep(member: np.ndarray, grid_j: Grid, tol: float,
                             i1: np.ndarray, i2: np.ndarray) -> tuple[float, Optional[tuple]]:
    """Gaps inside each nonempty row of ``member``, then the y diameter of
    the common members of each pair (i1[k], i2[k]) beyond one step."""
    spans = _row_spans(member)
    counts, first, last, _ = spans
    gaps = np.where(counts > 0, (last - first + 1 - counts).astype(float), -np.inf)
    worst, witness = _fold(-np.inf, None, gaps,
                           lambda i: (i, int(first[i]), int(last[i])))
    yv = grid_j.points
    for s in range(0, i1.size, PAIR_BLOCK):
        a, b = i1[s:s + PAIR_BLOCK], i2[s:s + PAIR_BLOCK]
        meet, lo, hi = _common_span(member, spans, a, b)
        excess = np.where(meet, (yv[hi] - yv[lo]) - (grid_j.h + tol), -np.inf)
        worst, witness = _fold(worst, witness, excess, lambda q: (int(a[q]), int(b[q])))
    return worst, witness


def check_subdiff_convexity(a: Analysis, pair_cap: int = 10000, seed: int = 0) -> Verdict:
    """Under a 2-affine cost every nonempty subdifferential is an interval
    of the y grid, and distinct interior points share at most one
    subgradient (intersection diameter <= y grid step + tol)."""
    check_id = "subdiff_convexity"
    _check_pair_cap(pair_cap)
    if not check_structure(a.cost, "two_affine").holds:
        return _hypothesis_verdict(check_id, "cost not two_affine")
    if not a.c_convex[0]:
        return _hypothesis_verdict(check_id, f"f not c-convex (deviation {a.c_convex[1]})")
    if not a.member.any():
        return _vacuous(check_id, "vacuous: every subdifferential empty")
    rng = np.random.default_rng(seed)
    interior = np.arange(1, a.f.grid.n - 1)
    i1, i2 = _sample_pairs(rng, interior, pair_cap)
    worst, witness = _subdiff_convexity_sweep(a.member, a.cost.grid_j, a.tol, i1, i2)
    return Verdict(check_id, worst <= 0.0, float(worst), witness,
                   notes=f"pairs={i1.size}; tol={a.tol}")


def _set_valued_sweep(slack: np.ndarray, member: np.ndarray, grid_i: Grid, grid_j: Grid,
                      lambdas: Sequence[float], tol: float, lipschitz: tuple[float, float, float],
                      rng: np.random.Generator, i1s: np.ndarray,
                      i2s: np.ndarray) -> tuple[float, Optional[tuple]]:
    """Snap each mixture of a drawn member at x1 and one at x2 to the grids
    and measure its non-membership beyond the snapping allowance."""
    lf, lcx, lcy = lipschitz
    xv, yv = grid_i.points, grid_j.points
    lams = np.asarray(lambdas, dtype=float)
    counts = member.sum(axis=1)
    # ys[starts[x] + r] is the column of row x's r-th member
    starts = np.cumsum(counts) - counts
    ys = np.flatnonzero(member)
    ys %= member.shape[1]
    worst, witness = -np.inf, None
    for s in range(0, i1s.size, PAIR_BLOCK):
        x1, x2 = i1s[s:s + PAIR_BLOCK], i2s[s:s + PAIR_BLOCK]
        highs = np.empty(2 * x1.size, dtype=np.int64)
        highs[0::2] = counts[x1]
        highs[1::2] = counts[x2]
        draws = rng.integers(0, highs)
        a = ys[starts[x1] + draws[0::2]]
        b = ys[starts[x2] + draws[1::2]]
        # allow = tol + 2(lf + lcx)|dx| + 2 lcy |dy|, summed left to right
        im, allow = _snap(grid_i, _mixtures(xv[x1], xv[x2], lams), 2.0 * (lf + lcx))
        allow += tol
        jm, dy = _snap(grid_j, _mixtures(yv[a], yv[b], lams), 2.0 * lcy)
        allow += dy
        excess = slack[im, jm]
        np.negative(excess, out=excess)
        excess -= allow
        worst, witness = _fold(worst, witness, excess, lambda q: (
            int(x1[q // len(lambdas)]), int(x2[q // len(lambdas)]),
            float(lambdas[q % len(lambdas)])))
    return worst, witness


def check_set_valued_convexity(a: Analysis, lambdas: Sequence[float] = DEFAULT_LAMBDAS,
                               pair_cap: int = 10000, seed: int = 0) -> Verdict:
    """For a concave 2-affine cost and convex, c-convex f, mixtures of
    subgradients at two points are subgradients at the mixed point.

    Cost concavity is segment-tested (rows, columns, diagonals); the
    verdict notes record that interpretation.  Mixture points and mixed
    subgradients are snapped to the grids with a slope-scaled tolerance
    inflation.
    """
    check_id = "set_valued_convexity"
    _check_pair_cap(pair_cap)
    _check_lambdas(lambdas)
    f, cost, tol = a.f, a.cost, a.tol
    if not check_structure(cost, "two_affine").holds:
        return _hypothesis_verdict(check_id, "cost not two_affine")
    seg = segment_concavity_excess(cost)
    if seg > 1e-9 * (1.0 + float(np.abs(cost.entries).max())):
        return _hypothesis_verdict(check_id, f"cost not segment-concave (excess {seg})")
    if not _is_convex_values(f.values, tol):
        return _hypothesis_verdict(check_id, "f not convex")
    if not a.c_convex[0]:
        return _hypothesis_verdict(check_id, f"f not c-convex (deviation {a.c_convex[1]})")

    dom = np.flatnonzero(a.member.any(axis=1))
    if dom.size < 2:
        return _vacuous(check_id, "vacuous: effective domain has fewer than two points")
    rng = np.random.default_rng(seed)
    i1s, i2s = _sample_pairs(rng, dom, pair_cap)
    if i1s.size == 0:
        return _vacuous(check_id, "vacuous: no distinct pairs sampled")
    worst, witness = _set_valued_sweep(a.slack, a.member, f.grid, cost.grid_j, lambdas, tol,
                                       _lipschitz(f, cost), rng, i1s, i2s)
    return Verdict(check_id, worst <= 0.0, float(worst), witness,
                   notes=f"pairs={i1s.size}; concavity=segment-tested; tol={tol}")


def _intersection_sweep(slack: np.ndarray, member: np.ndarray, grid_i: Grid,
                        lambdas: Sequence[float], tol: float,
                        lipschitz: tuple[float, float, float], i1s: np.ndarray,
                        i2s: np.ndarray) -> tuple[float, Optional[tuple], bool]:
    """Worst non-membership of a common member of x1 and x2 at the snapped
    mixture points; also reports whether any pair had a common member."""
    lf, lcx, _ = lipschitz
    xv = grid_i.points
    lams = np.asarray(lambdas, dtype=float)
    spans = _row_spans(member)
    worst, witness, any_intersection = -np.inf, None, False
    for s in range(0, i1s.size, PAIR_BLOCK):
        x1, x2 = i1s[s:s + PAIR_BLOCK], i2s[s:s + PAIR_BLOCK]
        meet = _common_span(member, spans, x1, x2)[0]
        if not meet.any():
            continue
        any_intersection = True
        # pairs without common members never count; dropping them keeps the
        # gathered slack rows below small
        x1, x2 = x1[meet], x2[meet]
        outside = ~(member[x1] & member[x2])
        im, allow = _snap(grid_i, _mixtures(xv[x1], xv[x2], lams), 2.0 * (lf + lcx))
        allow += tol   # no dy term: the common member is not mixed
        excess = np.empty_like(allow)
        for k in range(lams.size):
            rows = slack[im[:, k]]
            np.negative(rows, out=rows)
            rows[outside] = -np.inf   # only common members count
            excess[:, k] = rows.max(axis=1)
        excess -= allow
        worst, witness = _fold(worst, witness, excess, lambda q: (
            int(x1[q // len(lambdas)]), int(x2[q // len(lambdas)]),
            float(lambdas[q % len(lambdas)])))
    return worst, witness, any_intersection


def check_intersection_inclusion(a: Analysis, lambdas: Sequence[float] = DEFAULT_LAMBDAS,
                                 pair_cap: int = 10000, seed: int = 0) -> Verdict:
    """For a 1-concave cost and convex, c-convex f, a common subgradient
    of two points is a subgradient at every convex combination."""
    check_id = "intersection_inclusion"
    _check_pair_cap(pair_cap)
    _check_lambdas(lambdas)
    f, cost, tol = a.f, a.cost, a.tol
    if not check_structure(cost, "one_concave").holds:
        return _hypothesis_verdict(check_id, "cost not one_concave")
    if not _is_convex_values(f.values, tol):
        return _hypothesis_verdict(check_id, "f not convex")
    if not a.c_convex[0]:
        return _hypothesis_verdict(check_id, f"f not c-convex (deviation {a.c_convex[1]})")

    dom = np.flatnonzero(a.member.any(axis=1))
    interior = dom[(dom > 0) & (dom < f.grid.n - 1)]
    if interior.size < 2:
        return _vacuous(check_id)
    rng = np.random.default_rng(seed)
    i1s, i2s = _sample_pairs(rng, interior, pair_cap)
    worst, witness, any_intersection = _intersection_sweep(
        a.slack, a.member, f.grid, lambdas, tol, _lipschitz(f, cost), i1s, i2s)
    if not any_intersection:
        return _vacuous(check_id, "vacuous: no intersecting pairs found")
    return Verdict(check_id, worst <= 0.0, float(worst), witness,
                   notes=f"pairs={i1s.size}; tol={tol}")


def _domain_interval_sweep(member: np.ndarray, dom_relaxed: np.ndarray, i1s: np.ndarray,
                           i2s: np.ndarray) -> tuple[float, Optional[tuple], bool]:
    """Count the grid points outside ``dom_relaxed`` between each pair with
    a common member; also reports whether any pair had one."""
    missing_below = np.concatenate(([0], np.cumsum(~dom_relaxed)))
    spans = _row_spans(member)
    worst, witness, any_intersection = -np.inf, None, False
    for s in range(0, i1s.size, PAIR_BLOCK):
        a, b = i1s[s:s + PAIR_BLOCK], i2s[s:s + PAIR_BLOCK]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        meet = _common_span(member, spans, lo, hi)[0]
        any_intersection |= bool(meet.any())
        missing = (missing_below[hi + 1] - missing_below[lo]).astype(float)
        excess = np.where(meet, missing, -np.inf)
        worst, witness = _fold(worst, witness, excess, lambda q: (
            int(lo[q]), int(hi[q]), int(lo[q] + np.argmin(dom_relaxed[lo[q]:hi[q] + 1]))))
    return worst, witness, any_intersection


def check_domain_interval(a: Analysis, pair_cap: int = 10000, seed: int = 0) -> Verdict:
    """For a 1-concave cost and convex f, two points with intersecting
    subdifferentials bracket an interval contained in the effective
    domain.  Grid points between them are exact convex combinations, so
    the allowance is 2*tol plus rounding."""
    check_id = "domain_interval"
    _check_pair_cap(pair_cap)
    f, cost, tol = a.f, a.cost, a.tol
    if not check_structure(cost, "one_concave").holds:
        return _hypothesis_verdict(check_id, "cost not one_concave")
    if not _is_convex_values(f.values, tol):
        return _hypothesis_verdict(check_id, "f not convex")
    allow = 2.0 * tol + _float_margin(cost.entries, f.values)
    dom_relaxed = (a.slack >= -allow).any(axis=1)
    idx = np.flatnonzero(a.member.any(axis=1))
    if idx.size < 2:
        return _vacuous(check_id)
    rng = np.random.default_rng(seed)
    i1s, i2s = _sample_pairs(rng, idx, pair_cap)
    worst, witness, any_intersection = _domain_interval_sweep(a.member, dom_relaxed, i1s, i2s)
    if not any_intersection:
        return _vacuous(check_id, "vacuous: no intersecting pairs found")
    return Verdict(check_id, worst <= 0.0, float(worst), witness,
                   notes=f"pairs={i1s.size}; allowance=2*tol; tol={tol}")


def check_grad_inclusion(a: Analysis, cost_spec: CostSpec) -> Verdict:
    """Members of the c-subdifferential satisfy dc/dx(x, y) ~ f'(x): the
    mismatch is bounded by C*h with

        C = (M2f + M2c)/2 + h*M3f/6 + tol/h^2,

    M2/M3 the max second/third difference quotients (f' estimated by
    central differences), times 4 for margin; dc/dx comes from ``cost_spec``.
    """
    check_id = "grad_inclusion"
    f, cost, tol = a.f, a.cost, a.tol
    h = f.grid.h
    interior = np.arange(1, f.grid.n - 1)
    pairs = np.argwhere(a.member[interior])
    if pairs.size == 0:
        return _vacuous(check_id, "vacuous: no interior members")
    m2f = float(np.abs(np.diff(f.values, 2)).max()) / h**2
    m3f = float(np.abs(np.diff(f.values, 3)).max(initial=0.0)) / h**3
    m2c = float(np.abs(np.diff(cost.entries, 2, axis=0)).max()) / h**2
    threshold = 4.0 * ((0.5 * (m2f + m2c) + h * m3f / 6.0) * h + tol / h)
    fprime = (f.values[2:] - f.values[:-2]) / (2.0 * h)
    xs = f.grid.points[interior[pairs[:, 0]]]
    ys = cost.grid_j.points[pairs[:, 1]]
    dc = np.asarray(cost_dx(cost_spec, xs, ys), dtype=float)
    mismatch = np.abs(dc - fprime[pairs[:, 0]])
    worst = float(mismatch.max() - threshold)
    witness = None
    if worst > 0:
        k = int(np.argmax(mismatch))
        witness = (int(interior[pairs[k, 0]]), int(pairs[k, 1]))
    return Verdict(check_id, worst <= 0.0, worst, witness,
                   notes=f"threshold={threshold}; members={pairs.shape[0]}; tol={tol}")


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
    return Verdict(check_id, worst <= 0.0, worst,
                   notes=f"tol={tol} (identity; slack must vanish exactly)")


def check_local_support_iff(a: Analysis, alpha_index: int, epsilon: float) -> Verdict:
    """A local support curve exists at alpha iff f(alpha) equals the local
    double conjugate there; both directions are asserted."""
    check_id = "local_support_iff"
    f, cost, tol = a.f, a.cost, a.tol
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
    return Verdict(check_id, excess <= 0.0, float(excess),
                   witness=None if excess <= 0 else (int(alpha_index),),
                   notes=f"{note}; epsilon={epsilon}; tol={tol}")


# ---------------------------------------------------------------------------
# suite orchestration

def run_suite(seed: int = 0, tol: float = 1e-9, pair_cap: int = 10000,
              falsify: bool = False) -> list[Verdict]:
    """Deterministic battery over seeded instances exercising every check.

    ``falsify`` replaces the c-convexified inputs of the hypothesis-gated
    checks with raw random functions, demonstrating that hypothesis
    failures are reported as such and never as conclusion failures.

    Each cost is tabulated once and each (f, cost) analysed once; the checks
    run, in the order returned, grouped to release each after its last check.
    """
    _check_pair_cap(pair_cap)
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
