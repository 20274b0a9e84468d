"""The blocked pair sweeps of ``cconvex.propcheck`` against the loop oracles.

Every field of every verdict must match: the sampled pairs, the member
draws, the float arithmetic and the witness.  A sweep reads an ``Analysis``;
its loop oracle reads the dense member and slack matrices, which the
adapters of ``LOOP_SWEEPS`` build from the same ``Analysis``.
"""

import collections
import tracemalloc

import numpy as np
import pytest

from cconvex import propcheck
from cconvex.costs import CostSpec, tabulate_callable, tabulate_cost
from cconvex.grids import GridFunction, make_uniform_grid
from cconvex.subdiff import Analysis
from oracles import (dense_member, dense_slack, dense_view, loop_cost_self_subdiff,
                     loop_domain_interval_sweep, loop_intersection_sweep, loop_order_propagation,
                     loop_row_spans, loop_set_valued_sweep, loop_subdiff_convexity_sweep,
                     members_of)

# each sweep's loop oracle on the dense matrices of the sweep's Analysis
LOOP_SWEEPS = {
    "_subdiff_convexity_sweep": lambda a, i1, i2: loop_subdiff_convexity_sweep(
        dense_member(a), a.spans, a.grid_j, a.tol, i1, i2),
    "_set_valued_sweep": lambda a, lambdas, lipschitz, rng, i1s, i2s: loop_set_valued_sweep(
        dense_slack(a), dense_member(a), a.spans, a.f.grid, a.grid_j, lambdas, a.tol,
        lipschitz, rng, i1s, i2s),
    "_intersection_sweep": lambda a, lambdas, lipschitz, i1s, i2s: loop_intersection_sweep(
        dense_slack(a), dense_member(a), a.spans, a.f.grid, lambdas, a.tol, lipschitz, i1s, i2s),
    "_domain_interval_sweep": lambda a, dom_relaxed, i1s, i2s: loop_domain_interval_sweep(
        dense_member(a), a.spans, dom_relaxed, i1s, i2s),
}
TOLS = (1e-9, float("nan"))  # NaN makes every pair excess NaN, which never wins


def fields(v):
    return (v.check_id, v.status, repr(v.max_violation), v.witness, v.notes)


# 10100 = 101 * 100 covers every ordered pair of the suite's 101-point pools
@pytest.mark.parametrize("pair_cap", [0, 1, 50, 10000, 10100])
@pytest.mark.parametrize("falsify", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_suite_verdicts_match_loop_sweeps(monkeypatch, seed, falsify, pair_cap):
    kwargs = dict(seed=seed, pair_cap=pair_cap, falsify=falsify)
    fast = propcheck.run_suite(**kwargs)
    for name, loop in LOOP_SWEEPS.items():
        monkeypatch.setattr(propcheck, name, loop)
    slow = propcheck.run_suite(**kwargs)
    assert [fields(v) for v in fast] == [fields(v) for v in slow]


@pytest.mark.parametrize("falsify", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_suite_verdicts_match_loop_order_propagation(monkeypatch, seed, falsify):
    fast = propcheck.run_suite(seed=seed, falsify=falsify)
    monkeypatch.setattr(propcheck, "check_order_propagation",
                        lambda a, b: loop_order_propagation(dense_view(a), dense_view(b)))
    slow = propcheck.run_suite(seed=seed, falsify=falsify)
    assert [fields(v) for v in fast] == [fields(v) for v in slow]


@pytest.mark.parametrize("falsify", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_suite_verdicts_do_not_depend_on_the_budget(monkeypatch, seed, falsify):
    # a budget of 256 cells sweeps 32 pairs a block on the row-span path,
    # 4 in the set-valued sweep and 1 in the slack-row gather
    default = propcheck.run_suite(seed=seed, falsify=falsify)
    monkeypatch.setattr(propcheck, "PAIR_BLOCK_CELLS", 256)
    tiny = propcheck.run_suite(seed=seed, falsify=falsify)
    assert [v.to_dict() for v in tiny] == [v.to_dict() for v in default]


# Hand-built inputs on which the conclusions fail, so the witness branch of
# every sweep is compared too.  Unit-step grids make the mixtures at
# lambda = 0.5 exact half-way points, so snapping must break ties as
# ``Grid.nearest_index`` does.  Under each cell budget tried, 700 pairs take
# one-pair blocks (budget 1), several blocks on every path (MID_BUDGET; see
# test_mid_budget_takes_several_blocks_on_every_path), or one block (the
# default, on the row-span path).

N, M = 41, 37
MID_BUDGET = 1200
BUDGETS = (1, MID_BUDGET, propcheck.PAIR_BLOCK_CELLS)


@pytest.fixture(params=BUDGETS)
def budget(request, monkeypatch):
    monkeypatch.setattr(propcheck, "PAIR_BLOCK_CELLS", request.param)


def planted(member, slack=None, tol=1e-9, grid_i=None, grid_j=None):
    """An ``Analysis`` of f = 0 whose ``members`` are ``member``'s rows and
    whose ``slack_at`` reads ``slack``, at ``tol`` (set unchecked, so it may
    be NaN), on the grids given or on [-1, 1]."""
    n, m = member.shape
    gi = make_uniform_grid(-1, 1, n) if grid_i is None else grid_i
    gj = make_uniform_grid(-1, 1, m) if grid_j is None else grid_j
    a = Analysis(GridFunction(gi, np.zeros(n)), tabulate_cost(CostSpec("bilinear"), gi, gj))
    vars(a).update(tol=tol, members=members_of(member))
    if slack is not None:
        vars(a)["slack_at"] = lambda i, j: slack[i, j]
    return a


def random_member(rng, density=0.3):
    member = rng.random((N, M)) < density
    member[np.arange(N), rng.integers(0, M, N)] = True  # no empty row
    return member


def random_pairs(rng, k=700):
    i1, i2 = rng.integers(0, N, k), rng.integers(0, N, k)
    return i1[i1 != i2], i2[i1 != i2]


def interval_member(rng, max_len=12, min_len=0):
    """Rows that are each one interval of columns, or empty (length 0).
    Rows 0 and 1 touch at one column, row 2 holds one member and row 3
    is empty (when min_len allows it)."""
    first = rng.integers(0, M, N)
    length = rng.integers(min_len, max_len + 1, N)
    first[:4], length[:4] = (5, 9, 20, 30), (5, 4, 1, min_len)
    cols = np.arange(M)
    return (cols >= first[:, None]) & (cols < (first + length)[:, None])


def interval_pairs(rng):
    """Random pairs, led by the touching, single-member and empty rows."""
    i1, i2 = random_pairs(rng)
    lead1, lead2 = np.array([0, 1, 0, 2, 3, 0]), np.array([1, 0, 2, 0, 0, 3])
    return np.r_[lead1, i1], np.r_[lead2, i2]


def test_interval_member_rows():
    member = interval_member(np.random.default_rng(0))
    counts, first, last, intervals = planted(member).spans
    assert intervals
    assert (counts[:4] == (5, 4, 1, 0)).all() and (counts == 0).sum() > 1
    assert last[0] == first[1] == 9   # rows 0 and 1 share exactly column 9
    assert not planted(random_member(np.random.default_rng(0))).spans[3]


def with_empty_rows(rng, member):
    member[rng.integers(0, N, 6)] = False
    return member


def with_a_gap(member):
    """An ``interval_member`` whose row 0, columns 5-9, also holds column 11."""
    member[0, 11] = True
    return member


MEMBERS = {
    "random": random_member,
    "random_with_empty_rows": lambda rng: with_empty_rows(rng, random_member(rng)),
    "intervals": interval_member,
    "nonempty_intervals": lambda rng: interval_member(rng, min_len=1),
    "intervals_but_one_gap": lambda rng: with_a_gap(interval_member(rng)),
    "empty": lambda rng: np.zeros((N, M), dtype=bool),
    "full": lambda rng: np.ones((N, M), dtype=bool),
}


@pytest.mark.parametrize("kind", MEMBERS)
@pytest.mark.parametrize("seed", range(3))
def test_analysis_spans_match_the_row_loop(kind, seed):
    member = MEMBERS[kind](np.random.default_rng(seed))
    a = planted(member)
    counts, first, last, intervals = a.spans
    want = loop_row_spans(member)
    for got, expected in zip((counts, first, last), want[:3]):
        assert np.array_equal(got, expected)
    assert intervals is want[3] is (kind not in ("random", "random_with_empty_rows",
                                                 "intervals_but_one_gap"))
    empty = counts == 0
    assert (first[empty] == 0).all() and (last[empty] == M - 1).all()
    assert empty.any() == (kind in ("random_with_empty_rows", "intervals",
                                    "intervals_but_one_gap", "empty"))
    assert a.spans is a.spans   # cached


@pytest.mark.parametrize("pair_cells", [8, 3 * M])   # below or above the paths' cells
@pytest.mark.parametrize("kind", MEMBERS)
@pytest.mark.parametrize("seed", range(3))
def test_meeting_yields_the_meeting_pairs_in_order(budget, kind, seed, pair_cells):
    rng = np.random.default_rng(seed)
    member = MEMBERS[kind](rng)
    an = planted(member)
    spans = an.spans
    i1, i2 = interval_pairs(rng)
    want = []
    for a, b in zip(i1, i2):
        shared = np.flatnonzero(member[a] & member[b])
        if shared.size:
            want.append((int(a), int(b), int(shared[0]), int(shared[-1])))
    # interval rows are met from the spans alone: ``members`` is never read
    if spans[3]:
        vars(an)["members"] = None
    yielded = list(propcheck._meeting(an, i1, i2, pair_cells))
    got = [tuple(map(int, pair)) for block in yielded for pair in zip(*block)]
    assert got == want
    # blocks within the caller's budget and the path's, all full but the last
    step = max(1, propcheck.PAIR_BLOCK_CELLS // max(pair_cells, 8 if spans[3] else 8 + M))
    sizes = [block[0].size for block in yielded]
    assert sizes == [step] * (len(want) // step) + [len(want) % step] * (len(want) % step > 0)
    assert all(len({x.size for x in block}) == 1 for block in yielded)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("y_half_width", [1.0, 100.0])
@pytest.mark.parametrize("seed", range(3))
def test_subdiff_convexity_sweep_on_intervals(budget, seed, y_half_width, tol):
    rng = np.random.default_rng(seed)
    member = interval_member(rng)
    grid_j = make_uniform_grid(-y_half_width, y_half_width, M)
    i1, i2 = interval_pairs(rng)
    a = planted(member, tol=tol, grid_j=grid_j)
    got = propcheck._subdiff_convexity_sweep(a, i1, i2)
    assert (got[0] > 0) == (tol == tol)   # pairs share more than two columns
    assert got == loop_subdiff_convexity_sweep(member, a.spans, grid_j, tol, i1, i2)


def test_subdiff_convexity_sweep_touching_intervals():
    # rows 0 and 1 share only column 9, a diameter of 0, which a tol of
    # -(h + 1) turns into an excess near 1; rows 2 and 3 share nothing with
    # row 0
    member = interval_member(np.random.default_rng(0))
    grid_j = make_uniform_grid(-1, 1, M)
    tol = -(grid_j.h + 1.0)
    i1, i2 = np.array([2, 3, 0, 1]), np.array([0, 0, 1, 0])
    a = planted(member, tol=tol, grid_j=grid_j)
    got = propcheck._subdiff_convexity_sweep(a, i1, i2)
    assert got == loop_subdiff_convexity_sweep(member, a.spans, grid_j, tol, i1, i2)
    assert got[1] == (0, 1) and got[0] == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(3))
def test_domain_interval_sweep_on_intervals(budget, seed):
    rng = np.random.default_rng(seed)
    member = interval_member(rng)
    dom_relaxed = rng.random(N) < 0.8
    i1, i2 = interval_pairs(rng)
    a = planted(member)
    got = propcheck._domain_interval_sweep(a, dom_relaxed, i1, i2)
    assert got[0] > 0
    assert got == loop_domain_interval_sweep(member, a.spans, dom_relaxed, i1, i2)
    # only the touching pair meets: its one shared column counts
    pair = (np.array([3, 0, 2]), np.array([0, 1, 0]))
    assert propcheck._domain_interval_sweep(a, dom_relaxed, *pair) \
        == loop_domain_interval_sweep(member, a.spans, dom_relaxed, *pair)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("y_half_width", [1.0, 100.0])  # gap or diameter wins
@pytest.mark.parametrize("seed", range(3))
def test_subdiff_convexity_sweep_witness(budget, seed, y_half_width, tol):
    rng = np.random.default_rng(seed)
    member = random_member(rng)
    grid_j = make_uniform_grid(-y_half_width, y_half_width, M)
    i1, i2 = random_pairs(rng)
    a = planted(member, tol=tol, grid_j=grid_j)
    got = propcheck._subdiff_convexity_sweep(a, i1, i2)
    assert got[0] > 0
    assert got == loop_subdiff_convexity_sweep(member, a.spans, grid_j, tol, i1, i2)


LAMBDA_SETS = ((0.5,), (0.25, 0.5, 0.75), propcheck.DEFAULT_LAMBDAS)


@pytest.mark.parametrize("intervals", [False, True])
@pytest.mark.parametrize("lambdas", LAMBDA_SETS)
@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("seed", range(3))
def test_set_valued_sweep_witness(budget, seed, tol, lambdas, intervals):
    rng = np.random.default_rng(seed)
    member = interval_member(rng, min_len=1) if intervals else random_member(rng)
    slack = rng.normal(size=(N, M))
    gi, gj = make_uniform_grid(0, N - 1, N), make_uniform_grid(-3, M - 4, M)
    a = planted(member, slack, tol, gi, gj)
    assert a.spans[3] == intervals
    i1, i2 = random_pairs(rng)
    fast_rng, loop_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
    got = propcheck._set_valued_sweep(a, lambdas, (0.5, 0.25, 0.125), fast_rng, i1, i2)
    assert got == loop_set_valued_sweep(slack, member, a.spans, gi, gj, lambdas, tol,
                                        (0.5, 0.25, 0.125), loop_rng, i1, i2)
    assert (got[0] > 0) == (tol == tol)
    assert fast_rng.random() == loop_rng.random()  # same draws consumed


@pytest.mark.parametrize("intervals", [False, True])
@pytest.mark.parametrize("lambdas", LAMBDA_SETS)
@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("seed", range(3))
def test_intersection_sweep_witness(budget, seed, tol, lambdas, intervals):
    rng = np.random.default_rng(seed)
    member = interval_member(rng) if intervals else random_member(rng)
    slack = rng.normal(size=(N, M))
    i1, i2 = interval_pairs(rng) if intervals else random_pairs(rng)
    gi = make_uniform_grid(0, N - 1, N)
    a = planted(member, slack, tol, gi)
    got = propcheck._intersection_sweep(a, lambdas, (0.5, 0.25, 0.125), i1, i2)
    assert got == loop_intersection_sweep(slack, member, a.spans, gi, lambdas, tol,
                                          (0.5, 0.25, 0.125), i1, i2)
    assert got[2] and (got[0] > 0) == (tol == tol)


@pytest.mark.parametrize("seed", range(3))
def test_domain_interval_sweep_witness(budget, seed):
    rng = np.random.default_rng(seed)
    member = random_member(rng)
    dom_relaxed = rng.random(N) < 0.8
    i1, i2 = random_pairs(rng)
    a = planted(member)
    got = propcheck._domain_interval_sweep(a, dom_relaxed, i1, i2)
    assert got[0] > 0
    assert got == loop_domain_interval_sweep(member, a.spans, dom_relaxed, i1, i2)


def test_sweeps_without_common_members():
    member = np.zeros((N, M), dtype=bool)
    member[::2, 0] = True
    member[1::2, 1] = True
    i1, i2 = np.array([0, 1, 2]), np.array([1, 2, 3])
    slack = np.zeros((N, M))
    a = planted(member, slack)
    assert propcheck._intersection_sweep(a, (0.5,), (1.0, 1.0, 1.0), i1, i2) \
        == loop_intersection_sweep(slack, member, a.spans, a.f.grid, (0.5,), 1e-9,
                                   (1.0, 1.0, 1.0), i1, i2) == (-np.inf, None, False)
    dom = np.ones(N, dtype=bool)
    assert propcheck._domain_interval_sweep(a, dom, i1, i2) \
        == loop_domain_interval_sweep(member, a.spans, dom, i1, i2) == (-np.inf, None, False)


@pytest.mark.parametrize("intervals", [False, True])
def test_mid_budget_takes_several_blocks_on_every_path(monkeypatch, intervals):
    monkeypatch.setattr(propcheck, "PAIR_BLOCK_CELLS", MID_BUDGET)
    sizes, pair_blocks = collections.defaultdict(list), propcheck._pair_blocks

    def recorded(i1, i2, pair_cells):
        for a, b in pair_blocks(i1, i2, pair_cells):
            sizes[pair_cells].append(a.size)
            yield a, b

    def recorded_meeting(a, i1, i2, pair_cells):
        for block in meeting(a, i1, i2, pair_cells):
            sizes["meeting", pair_cells].append(block[0].size)
            yield block

    meeting = propcheck._meeting
    monkeypatch.setattr(propcheck, "_pair_blocks", recorded)
    monkeypatch.setattr(propcheck, "_meeting", recorded_meeting)
    rng = np.random.default_rng(0)
    member = interval_member(rng, min_len=1) if intervals else random_member(rng)
    slack = rng.normal(size=(N, M))
    gi, gj = make_uniform_grid(0, N - 1, N), make_uniform_grid(-3, M - 4, M)
    i1, i2 = random_pairs(rng)
    lambdas, lipschitz, a = (0.25, 0.5, 0.75), (0.5, 0.25, 0.125), planted(member, slack, 1e-9, gi, gj)
    propcheck._subdiff_convexity_sweep(a, i1, i2)
    propcheck._domain_interval_sweep(a, np.ones(N, dtype=bool), i1, i2)
    propcheck._set_valued_sweep(a, lambdas, lipschitz, rng, i1, i2)
    propcheck._intersection_sweep(a, lambdas, lipschitz, i1, i2)
    # two footprints of pair blocks: ``_meeting``'s walk over the rows, 8
    # cells a pair on interval rows and 8 + M on others, and the set-valued
    # draws; and ``_meeting``'s blocks of meeting pairs for the subdiff and
    # domain sweeps (8 cells a pair) and the slack-row gather, within the
    # path's budget too.  Each takes several blocks, at least one of them full
    path = 8 if intervals else 8 + M
    assert set(sizes) == {path, 8 * 6, ("meeting", 8), ("meeting", 2 * M + 24)}
    for key, taken in sizes.items():
        cells = key if key in (path, 8 * 6) else max(key[1], path)
        assert len(taken) >= 3 and max(taken) == MID_BUDGET // cells > 1


@pytest.mark.parametrize("intervals", [False, True])
@pytest.mark.parametrize("sweep", list(LOOP_SWEEPS))
def test_sweep_memory_is_bounded_by_the_budget(sweep, intervals):
    # every ordered pair of 101 points, as the suite sweeps them.  A block's
    # temporaries hold at most PAIR_BLOCK_CELLS 8-byte cells; beside them
    # live numpy's cast buffer and the set-valued sweep's member columns,
    # one int64 a member.  The spans come from the caller, as from
    # ``Analysis.spans``.  Sweeping the
    # row-span path in one block, or the set-valued sweep in 512-pair
    # blocks, breaks the bound.
    n = m = 101
    rng = np.random.default_rng(0)
    if intervals:
        first, length = rng.integers(0, m - 20, n), rng.integers(1, 20, n)
        cols = np.arange(m)
        member = (cols >= first[:, None]) & (cols < (first + length)[:, None])
    else:
        member = rng.random((n, m)) < 0.3
    slack = rng.normal(size=(n, m))
    grid = make_uniform_grid(-1, 1, n)
    an = planted(member, slack, 1e-9, grid, grid)
    assert an.spans[3] == intervals   # members and spans cached before the measurement
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    i1, i2 = a.ravel()[a.ravel() != b.ravel()], b.ravel()[a.ravel() != b.ravel()]
    lambdas, lipschitz = propcheck.DEFAULT_LAMBDAS, (0.5, 0.25, 0.125)
    args = {
        "_subdiff_convexity_sweep": (an, i1, i2),
        "_set_valued_sweep": (an, lambdas, lipschitz, np.random.default_rng(1), i1, i2),
        "_intersection_sweep": (an, lambdas, lipschitz, i1, i2),
        "_domain_interval_sweep": (an, np.ones(n, dtype=bool), i1, i2),
    }[sweep]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        getattr(propcheck, sweep)(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = 8 * propcheck.PAIR_BLOCK_CELLS + 8 * np.getbufsize() + 8 * int(member.sum())
    assert peak < bound, f"peak {peak} B, bound {bound} B"


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_cost_self_subdiff_matches_column_loop(tol):
    g = make_uniform_grid(-1, 1, 23)
    cost = tabulate_callable(lambda x, y: np.sin(5 * x * y) + x**3, g,
                             make_uniform_grid(0, 2, 19))
    v = propcheck.check_cost_self_subdiff(cost, tol)
    assert v.max_violation == loop_cost_self_subdiff(cost, tol) == -tol
    assert v.holds and v.witness is None


def test_nearest_indices_match_grid_nearest_index():
    # exact half-way points (ties go to the even index), both ends and beyond
    for grid in (make_uniform_grid(0, 8, 9), make_uniform_grid(-1, 1, 41)):
        xs = grid.interval.lo + grid.h * np.arange(-3, 2 * grid.n + 3) / 2.0
        want = [grid.nearest_index(float(x)) for x in xs]
        assert propcheck._nearest_indices(grid, xs).tolist() == want
