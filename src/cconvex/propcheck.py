"""Machine-checkable verdicts for the structural propositions relating
c-subdifferentials, convexity and cost structure, plus the seeded random
instance generator feeding the verification suite.

Conventions shared by all checks:

* ``max_violation`` is the excess beyond the check's documented
  allowance, so ``holds <=> max_violation <= 0``.
* Hypothesis checks are separated from conclusion checks; when a
  hypothesis fails the verdict holds with a ``hypothesis-failed`` note
  and the conclusion is not judged.
* Vacuous sweeps (no qualifying pairs) hold with a ``vacuous`` note.
* Pair sweeps are capped (seeded sampling); ``exhaustive=True`` removes
  the cap.

Sampling contract of the pair sweeps, which fixes every verdict byte: a
check seeds one generator, draws all its pairs first, then (for the
set-valued check) draws one member per endpoint in pair order, x1 before
x2, as ``rng.choice`` over that row's members would.  Pairs are swept in
blocks of ``PAIR_BLOCK``, and the witness is the first (pair, lambda)
position of the maximum excess, set only when that maximum is positive.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import (CostMatrix, CostSpec, check_structure, cost_dx, parse_cost_spec,
                    segment_concavity_excess, tabulate_cost)
from .grids import Grid, GridFunction, check_tol, make_uniform_grid
from .subdiff import LocalWindow, local_c_subdifferential, local_double_conjugate, membership_slack
from .transform import double_c_transform, is_c_convex
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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["interval_i"] = list(d["interval_i"])
        d["interval_j"] = list(d["interval_j"])
        d["cost_params"] = list(d["cost_params"])
        return d


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


def generate_instance(cfg: InstanceConfig) -> tuple[GridFunction, CostMatrix]:
    """Deterministic seeded instance; same config => bit-identical output."""
    grid_i = make_uniform_grid(*cfg.interval_i, cfg.n)
    grid_j = make_uniform_grid(*cfg.interval_j, cfg.m)
    cost = tabulate_cost(parse_cost_spec(cfg.cost_family, cfg.cost_params), grid_i, grid_j)
    rng = np.random.default_rng(cfg.seed)
    if cfg.f_family == "cconvexified_random":
        raw = GridFunction(grid_i, _raw_function(cfg, grid_i, rng, "random_smooth_fourier"))
        f = double_c_transform(raw, cost).values
    elif cfg.f_family in F_FAMILIES:
        f = GridFunction(grid_i, _raw_function(cfg, grid_i, rng, cfg.f_family))
    else:
        raise ValueError(f"unknown f family {cfg.f_family!r}")
    return f, cost


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
    i = np.rint((x - grid.interval.lo) / grid.h)
    return np.clip(i, 0, grid.n - 1).astype(np.int64)


def _fold(worst: float, witness: Optional[tuple], excess: np.ndarray,
          witness_at: Callable[[int], tuple]) -> tuple[float, Optional[tuple]]:
    """Fold a block of excesses, in sweep order, into the running maximum.

    Same result as visiting the entries one by one with ``if e > worst:
    worst = e`` and taking ``witness_at(k)`` of each such ``e > 0``: NaN
    never wins, and the witness is the first position of the maximum.
    """
    flat = excess.ravel()
    if flat.size == 0:
        return worst, witness
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


def _sample_pairs(rng: np.random.Generator, pool: np.ndarray, cap: int,
                  exhaustive: bool) -> tuple[np.ndarray, np.ndarray]:
    k = pool.size
    if k < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if exhaustive or k * (k - 1) <= cap:
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


def _is_convex_values(values: np.ndarray, h: float, tol: float) -> bool:
    return bool((np.diff(values, 2) >= -tol * (1.0 + np.abs(values).max())).all())


# ---------------------------------------------------------------------------
# proposition checks

def check_mixture(f: GridFunction, g: GridFunction, cost: CostMatrix,
                  lambdas: Sequence[float] = DEFAULT_LAMBDAS,
                  tol: float = 1e-9) -> Verdict:
    """Members of both subdifferentials stay members of any convex mixture:
    for y in the intersection at x, y belongs to the set of (1-l)f + l g."""
    check_id = "mixture"
    sf = membership_slack(f, cost)
    sg = membership_slack(g, cost)
    inter = (sf >= -tol) & (sg >= -tol)
    if not inter.any():
        return _vacuous(check_id)
    margin = _float_margin(cost.entries, f.values, g.values)
    worst = -np.inf
    witness = None
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


def check_order_propagation(f: GridFunction, g: GridFunction, cost: CostMatrix,
                            tol: float = 1e-9) -> Verdict:
    """If f < g at u and some y lies in both the subdifferential of g at u
    and of f at v, then f < g at v.

    With tolerance-qualified memberships the exact argument degrades by
    2*tol, so u qualifies only when g(u) - f(u) > 4*tol; the conclusion
    must then hold outright.
    """
    check_id = "order_propagation"
    mg = membership_slack(g, cost) >= -tol
    mf = membership_slack(f, cost) >= -tol
    gap = g.values - f.values
    u_mask = gap > 4.0 * tol
    if not u_mask.any():
        return _vacuous(check_id)
    # pairs (u, v) whose sets intersect: counts[u, v] > 0
    counts = mg.astype(np.int64) @ mf.astype(np.int64).T
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
    m = member.shape[1]
    counts = member.sum(axis=1)
    first = member.argmax(axis=1)
    last = m - 1 - member[:, ::-1].argmax(axis=1)
    gaps = np.where(counts > 0, (last - first + 1 - counts).astype(float), -np.inf)
    worst, witness = _fold(-np.inf, None, gaps,
                           lambda i: (i, int(first[i]), int(last[i])))
    yv = grid_j.points
    for s in range(0, i1.size, PAIR_BLOCK):
        a, b = i1[s:s + PAIR_BLOCK], i2[s:s + PAIR_BLOCK]
        both = member[a] & member[b]
        lo = both.argmax(axis=1)
        hi = m - 1 - both[:, ::-1].argmax(axis=1)
        excess = np.where(both.any(axis=1), (yv[hi] - yv[lo]) - (grid_j.h + tol), -np.inf)
        worst, witness = _fold(worst, witness, excess, lambda q: (int(a[q]), int(b[q])))
    return worst, witness


def check_subdiff_convexity(f: GridFunction, cost: CostMatrix, tol: float = 1e-9,
                            pair_cap: int = 10000, seed: int = 0,
                            exhaustive: bool = False) -> Verdict:
    """Under a 2-affine cost every nonempty subdifferential is an interval
    of the y grid, and distinct interior points share at most one
    subgradient (intersection diameter <= y grid step + tol)."""
    check_id = "subdiff_convexity"
    sv = check_structure(cost, "two_affine")
    if not sv.holds:
        return _hypothesis_verdict(check_id, "cost not two_affine")
    ok, dev = is_c_convex(f, cost)
    if not ok:
        return _hypothesis_verdict(check_id, f"f not c-convex (deviation {dev})")
    member = membership_slack(f, cost) >= -tol
    if not member.any():
        return _vacuous(check_id, "vacuous: every subdifferential empty")
    rng = np.random.default_rng(seed)
    interior = np.arange(1, f.grid.n - 1)
    i1, i2 = _sample_pairs(rng, interior, pair_cap, exhaustive)
    worst, witness = _subdiff_convexity_sweep(member, cost.grid_j, tol, i1, i2)
    return Verdict(check_id, worst <= 0.0, float(worst), witness,
                   notes=f"pairs={i1.size}; tol={tol}")


def _set_valued_sweep(slack: np.ndarray, member: np.ndarray, grid_i: Grid, grid_j: Grid,
                      lambdas: Sequence[float], tol: float, lipschitz: tuple[float, float, float],
                      rng: np.random.Generator, i1s: np.ndarray,
                      i2s: np.ndarray) -> tuple[float, Optional[tuple]]:
    """Snap each mixture of a drawn member at x1 and one at x2 to the grids
    and measure its non-membership beyond the snapping allowance."""
    lf, lcx, lcy = lipschitz
    xv, yv = grid_i.points, grid_j.points
    counts = member.sum(axis=1)
    starts = np.cumsum(counts) - counts   # row x's members start here in ys
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
        excess = np.empty((x1.size, len(lambdas)))
        for k, lam in enumerate(lambdas):
            xm = (1.0 - lam) * xv[x1] + lam * xv[x2]
            ym = (1.0 - lam) * yv[a] + lam * yv[b]
            im = _nearest_indices(grid_i, xm)
            jm = _nearest_indices(grid_j, ym)
            allow = (tol + 2.0 * (lf + lcx) * np.abs(xv[im] - xm)
                     + 2.0 * lcy * np.abs(yv[jm] - ym))
            excess[:, k] = -slack[im, jm] - allow
        worst, witness = _fold(worst, witness, excess, lambda q: (
            int(x1[q // len(lambdas)]), int(x2[q // len(lambdas)]),
            float(lambdas[q % len(lambdas)])))
    return worst, witness


def check_set_valued_convexity(f: GridFunction, cost: CostMatrix,
                               lambdas: Sequence[float] = DEFAULT_LAMBDAS,
                               tol: float = 1e-9, pair_cap: int = 10000,
                               seed: int = 0, exhaustive: bool = False) -> Verdict:
    """For a concave 2-affine cost and convex, c-convex f, mixtures of
    subgradients at two points are subgradients at the mixed point.

    Cost concavity is segment-tested (rows, columns, diagonals); the
    verdict notes record that interpretation.  Mixture points and mixed
    subgradients are snapped to the grids with a slope-scaled tolerance
    inflation.
    """
    check_id = "set_valued_convexity"
    sv = check_structure(cost, "two_affine")
    if not sv.holds:
        return _hypothesis_verdict(check_id, "cost not two_affine")
    seg = segment_concavity_excess(cost)
    if seg > 1e-9 * (1.0 + float(np.abs(cost.entries).max())):
        return _hypothesis_verdict(check_id, f"cost not segment-concave (excess {seg})")
    if not _is_convex_values(f.values, f.grid.h, tol):
        return _hypothesis_verdict(check_id, "f not convex")
    ok, dev = is_c_convex(f, cost)
    if not ok:
        return _hypothesis_verdict(check_id, f"f not c-convex (deviation {dev})")

    lipschitz = _lipschitz(f, cost)
    slack = membership_slack(f, cost)
    member = slack >= -tol
    dom = np.flatnonzero(member.any(axis=1))
    if dom.size < 2:
        return _vacuous(check_id, "vacuous: effective domain has fewer than two points")
    rng = np.random.default_rng(seed)
    i1s, i2s = _sample_pairs(rng, dom, pair_cap, exhaustive)
    if i1s.size == 0:
        return _vacuous(check_id, "vacuous: no distinct pairs sampled")
    worst, witness = _set_valued_sweep(slack, member, f.grid, cost.grid_j, lambdas, tol,
                                       lipschitz, rng, i1s, i2s)
    return Verdict(check_id, worst <= 0.0, float(worst), witness,
                   notes=f"pairs={i1s.size}; concavity=segment-tested; tol={tol}")


def _intersection_sweep(slack: np.ndarray, member: np.ndarray, grid_i: Grid,
                        lambdas: Sequence[float], tol: float,
                        lipschitz: tuple[float, float, float], i1s: np.ndarray,
                        i2s: np.ndarray) -> tuple[float, Optional[tuple], bool]:
    """Worst non-membership of a common member of x1 and x2 at the snapped
    mixture points; also reports whether any pair had a common member."""
    lf, lcx, lcy = lipschitz
    xv = grid_i.points
    worst, witness, any_intersection = -np.inf, None, False
    for s in range(0, i1s.size, PAIR_BLOCK):
        x1, x2 = i1s[s:s + PAIR_BLOCK], i2s[s:s + PAIR_BLOCK]
        outside = ~(member[x1] & member[x2])
        meet = ~outside.all(axis=1)
        if not meet.any():
            continue
        any_intersection = True
        # pairs without common members never count; dropping them keeps the
        # gathered slack rows below small
        x1, x2, outside = x1[meet], x2[meet], outside[meet]
        excess = np.empty((x1.size, len(lambdas)))
        for k, lam in enumerate(lambdas):
            xm = (1.0 - lam) * xv[x1] + lam * xv[x2]
            im = _nearest_indices(grid_i, xm)
            allow = tol + 2.0 * (lf + lcx) * np.abs(xv[im] - xm) + 2.0 * lcy * 0.0
            rows = slack[im]
            np.negative(rows, out=rows)
            rows[outside] = -np.inf   # only common members count
            excess[:, k] = rows.max(axis=1) - allow
        worst, witness = _fold(worst, witness, excess, lambda q: (
            int(x1[q // len(lambdas)]), int(x2[q // len(lambdas)]),
            float(lambdas[q % len(lambdas)])))
    return worst, witness, any_intersection


def check_intersection_inclusion(f: GridFunction, cost: CostMatrix,
                                 lambdas: Sequence[float] = DEFAULT_LAMBDAS,
                                 tol: float = 1e-9, pair_cap: int = 10000,
                                 seed: int = 0, exhaustive: bool = False) -> Verdict:
    """For a 1-concave cost and convex, c-convex f, a common subgradient
    of two points is a subgradient at every convex combination."""
    check_id = "intersection_inclusion"
    sv = check_structure(cost, "one_concave")
    if not sv.holds:
        return _hypothesis_verdict(check_id, "cost not one_concave")
    if not _is_convex_values(f.values, f.grid.h, tol):
        return _hypothesis_verdict(check_id, "f not convex")
    ok, dev = is_c_convex(f, cost)
    if not ok:
        return _hypothesis_verdict(check_id, f"f not c-convex (deviation {dev})")

    lipschitz = _lipschitz(f, cost)
    slack = membership_slack(f, cost)
    member = slack >= -tol
    dom = np.flatnonzero(member.any(axis=1))
    interior = dom[(dom > 0) & (dom < f.grid.n - 1)]
    if interior.size < 2:
        return _vacuous(check_id)
    rng = np.random.default_rng(seed)
    i1s, i2s = _sample_pairs(rng, interior, pair_cap, exhaustive)
    worst, witness, any_intersection = _intersection_sweep(
        slack, member, f.grid, lambdas, tol, lipschitz, i1s, i2s)
    if not any_intersection:
        return _vacuous(check_id, "vacuous: no intersecting pairs found")
    return Verdict(check_id, worst <= 0.0, float(worst), witness,
                   notes=f"pairs={i1s.size}; tol={tol}")


def _domain_interval_sweep(member: np.ndarray, dom_relaxed: np.ndarray, i1s: np.ndarray,
                           i2s: np.ndarray) -> tuple[float, Optional[tuple], bool]:
    """Count the grid points outside ``dom_relaxed`` between each pair with
    a common member; also reports whether any pair had one."""
    missing_below = np.concatenate(([0], np.cumsum(~dom_relaxed)))
    worst, witness, any_intersection = -np.inf, None, False
    for s in range(0, i1s.size, PAIR_BLOCK):
        a, b = i1s[s:s + PAIR_BLOCK], i2s[s:s + PAIR_BLOCK]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        meet = (member[lo] & member[hi]).any(axis=1)
        any_intersection |= bool(meet.any())
        missing = (missing_below[hi + 1] - missing_below[lo]).astype(float)
        excess = np.where(meet, missing, -np.inf)
        worst, witness = _fold(worst, witness, excess, lambda q: (
            int(lo[q]), int(hi[q]), int(lo[q] + np.argmin(dom_relaxed[lo[q]:hi[q] + 1]))))
    return worst, witness, any_intersection


def check_domain_interval(f: GridFunction, cost: CostMatrix, tol: float = 1e-9,
                          pair_cap: int = 10000, seed: int = 0,
                          exhaustive: bool = False) -> Verdict:
    """For a 1-concave cost and convex f, two points with intersecting
    subdifferentials bracket an interval contained in the effective
    domain.  Grid points between them are exact convex combinations, so
    the allowance is 2*tol plus rounding."""
    check_id = "domain_interval"
    sv = check_structure(cost, "one_concave")
    if not sv.holds:
        return _hypothesis_verdict(check_id, "cost not one_concave")
    if not _is_convex_values(f.values, f.grid.h, tol):
        return _hypothesis_verdict(check_id, "f not convex")
    slack = membership_slack(f, cost)
    member = slack >= -tol
    allow = 2.0 * tol + _float_margin(cost.entries, f.values)
    dom_relaxed = (slack >= -allow).any(axis=1)
    idx = np.flatnonzero(member.any(axis=1))
    if idx.size < 2:
        return _vacuous(check_id)
    rng = np.random.default_rng(seed)
    i1s, i2s = _sample_pairs(rng, idx, pair_cap, exhaustive)
    worst, witness, any_intersection = _domain_interval_sweep(member, dom_relaxed, i1s, i2s)
    if not any_intersection:
        return _vacuous(check_id, "vacuous: no intersecting pairs found")
    return Verdict(check_id, worst <= 0.0, float(worst), witness,
                   notes=f"pairs={i1s.size}; allowance=2*tol; tol={tol}")


def check_grad_inclusion(f: GridFunction, cost_spec: CostSpec, cost: CostMatrix,
                         tol: float = 1e-9, safety: float = 4.0) -> Verdict:
    """Members of the c-subdifferential satisfy dc/dx(x, y) ~ f'(x): the
    mismatch is bounded by C*h with

        C = (M2f + M2c)/2 + h*M3f/6 + tol/h^2,

    M2/M3 the max second/third difference quotients (f' estimated by
    central differences), scaled by a documented safety factor.
    """
    check_id = "grad_inclusion"
    h = f.grid.h
    member = membership_slack(f, cost) >= -tol
    interior = np.arange(1, f.grid.n - 1)
    pairs = np.argwhere(member[interior])
    if pairs.size == 0:
        return _vacuous(check_id, "vacuous: no interior members")
    m2f = float(np.abs(np.diff(f.values, 2)).max()) / h**2
    m3f = float(np.abs(np.diff(f.values, 3)).max(initial=0.0)) / h**3
    m2c = float(np.abs(np.diff(cost.entries, 2, axis=0)).max()) / h**2
    threshold = safety * ((0.5 * (m2f + m2c) + h * m3f / 6.0) * h + tol / h)
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
    # column j of membership_slack(c(., y_j), cost), for every j in one pass
    dev = cost.entries - cost.entries
    dev -= dev.max(axis=0)
    np.abs(dev, out=dev)
    excess = dev.max(axis=0) - tol
    worst, witness = _fold(-np.inf, None, excess, lambda j: (int(np.argmax(dev[:, j])), j))
    return Verdict(check_id, worst <= 0.0, float(worst), witness,
                   notes=f"tol={tol} (identity; slack must vanish exactly)")


def check_local_support_iff(f: GridFunction, cost: CostMatrix, alpha_index: int,
                            epsilon: float, tol: float = 1e-9) -> Verdict:
    """A local support curve exists at alpha iff f(alpha) equals the local
    double conjugate there; both directions are asserted."""
    check_id = "local_support_iff"
    window = LocalWindow(int(alpha_index), float(epsilon))
    s = local_c_subdifferential(f, cost, window, tol)
    lb = local_double_conjugate(f, cost, window, tol)
    f0 = float(f.values[alpha_index])
    eq_tol = tol + _float_margin(cost.entries, f.values)
    if not s.is_empty:
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

def _abs_value_function(grid: Grid, sign: float = 1.0) -> GridFunction:
    return GridFunction(grid, sign * np.abs(grid.points))


def run_suite(seed: int = 0, tol: float = 1e-9, pair_cap: int = 10000,
              exhaustive: bool = False, falsify: bool = False) -> list[Verdict]:
    """Deterministic battery over seeded instances exercising every check.

    ``falsify`` replaces the c-convexified inputs of the hypothesis-gated
    checks with raw random functions, demonstrating that hypothesis
    failures are reported as such and never as conclusion failures.
    """
    if pair_cap < 0:
        raise ValueError(f"pair_cap must be >= 0, got {pair_cap}")
    check_tol(tol)
    verdicts: list[Verdict] = []
    n = m = 101
    gated_family = "random_smooth_fourier" if falsify else "cconvexified_random"

    # bilinear instances
    cfg_b1 = InstanceConfig(seed=seed, n=n, m=m, cost_family="bilinear",
                            f_family="cconvexified_random")
    cfg_b2 = InstanceConfig(seed=seed + 1, n=n, m=m, cost_family="bilinear",
                            f_family="cconvexified_random")
    fb1, cost_b = generate_instance(cfg_b1)
    fb2, _ = generate_instance(cfg_b2)
    verdicts.append(check_mixture(fb1, fb2, cost_b, (0.25, 0.5, 0.75), tol)
                    .with_id("mixture_bilinear"))

    # neg_quadratic instances
    # J wide enough that convex test functions (x^2, |x|) keep their
    # neg-quadratic subgradient witnesses y = x + f'(x)/2 inside J
    cfg_q1 = InstanceConfig(seed=seed + 2, n=n, m=m, cost_family="neg_quadratic",
                            interval_j=(-2.5, 2.5), f_family="cconvexified_random")
    cfg_q2 = InstanceConfig(seed=seed + 3, n=n, m=m, cost_family="neg_quadratic",
                            interval_j=(-2.5, 2.5), f_family="cconvexified_random")
    fq1, cost_q = generate_instance(cfg_q1)
    fq2, _ = generate_instance(cfg_q2)
    verdicts.append(check_mixture(fq1, fq2, cost_q, (0.25, 0.5, 0.75), tol)
                    .with_id("mixture_neg_quadratic"))

    verdicts.append(check_order_propagation(fb1, fb2, cost_b, tol)
                    .with_id("order_propagation_bilinear"))
    verdicts.append(check_order_propagation(fq1, fq2, cost_q, tol)
                    .with_id("order_propagation_neg_quadratic"))

    # 2-affine contiguity: bilinear and c(x, y) = sin(x) y + x^2
    gated_b = fb1 if not falsify else generate_instance(
        InstanceConfig(seed=seed, n=n, m=m, cost_family="bilinear",
                       f_family=gated_family))[0]
    verdicts.append(check_subdiff_convexity(gated_b, cost_b, tol, pair_cap, seed, exhaustive)
                    .with_id("subdiff_convexity_bilinear"))
    from .costs import tabulate_callable
    grid_i = cost_b.grid_i
    grid_j = cost_b.grid_j
    cost_2aff = tabulate_callable(lambda x, y: np.sin(x) * y + x**2, grid_i, grid_j)
    seed_f = GridFunction(grid_i, _raw_function(
        InstanceConfig(seed=seed + 4), grid_i, np.random.default_rng(seed + 4),
        "random_smooth_fourier"))
    f_2aff = double_c_transform(seed_f, cost_2aff).values if not falsify else seed_f
    verdicts.append(check_subdiff_convexity(f_2aff, cost_2aff, tol, pair_cap, seed, exhaustive)
                    .with_id("subdiff_convexity_sinxy"))

    # concave 2-affine (fully affine) cost for the set-valued proposition
    cost_aff = tabulate_callable(lambda x, y: 0.4 * y + 0.25 * x + 0.1, grid_i, grid_j)
    f_aff_seed = GridFunction(grid_i, _raw_function(
        InstanceConfig(seed=seed + 5), grid_i, np.random.default_rng(seed + 5),
        "random_smooth_fourier"))
    f_aff = double_c_transform(f_aff_seed, cost_aff).values if not falsify else f_aff_seed
    verdicts.append(check_set_valued_convexity(f_aff, cost_aff, DEFAULT_LAMBDAS, tol,
                                               pair_cap, seed, exhaustive))

    # 1-concave cost propositions on neg_quadratic
    parabola = GridFunction(grid_i, grid_i.points**2)
    f_para = parabola if not falsify else GridFunction(grid_i, -grid_i.points**2)
    verdicts.append(check_intersection_inclusion(f_para, cost_q, (0.25, 0.5, 0.75), tol,
                                                 pair_cap, seed, exhaustive))
    verdicts.append(check_domain_interval(f_para, cost_q, tol, pair_cap, seed, exhaustive)
                    .with_id("domain_interval_parabola"))
    absf = _abs_value_function(grid_i)
    verdicts.append(check_domain_interval(absf if not falsify else
                                          _abs_value_function(grid_i, -1.0),
                                          cost_q, tol, pair_cap, seed, exhaustive)
                    .with_id("domain_interval_absval"))

    # gradient inclusion on analytic costs
    half_para = GridFunction(grid_i, 0.5 * grid_i.points**2)
    verdicts.append(check_grad_inclusion(half_para, CostSpec("bilinear"), cost_b, tol)
                    .with_id("grad_inclusion_bilinear"))
    verdicts.append(check_grad_inclusion(half_para, CostSpec("neg_quadratic"), cost_q, tol)
                    .with_id("grad_inclusion_neg_quadratic"))
    grid_r = make_uniform_grid(0.0, 0.4, n)
    cost_r = tabulate_cost(CostSpec("reflector"), grid_r, grid_r)
    slice_f = GridFunction(grid_r, cost_r.entries[:, n // 2])
    verdicts.append(check_grad_inclusion(slice_f, CostSpec("reflector"), cost_r, tol)
                    .with_id("grad_inclusion_reflector"))

    # self-support identity
    verdicts.append(check_cost_self_subdiff(cost_b).with_id("cost_self_subdiff_bilinear"))
    verdicts.append(check_cost_self_subdiff(cost_q).with_id("cost_self_subdiff_neg_quadratic"))
    verdicts.append(check_cost_self_subdiff(cost_r).with_id("cost_self_subdiff_reflector"))

    # local support iff, both branches on f = -|x|
    neg_abs = _abs_value_function(grid_i, -1.0)
    alpha_half = grid_i.nearest_index(0.5)
    alpha_zero = grid_i.nearest_index(0.0)
    verdicts.append(check_local_support_iff(neg_abs, cost_b, alpha_half, 0.25, tol)
                    .with_id("local_support_iff_affine_piece"))
    verdicts.append(check_local_support_iff(neg_abs, cost_b, alpha_zero, 0.25, tol)
                    .with_id("local_support_iff_concave_kink"))

    return verdicts
