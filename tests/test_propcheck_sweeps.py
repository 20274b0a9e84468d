"""The blocked pair sweeps of ``cconvex.propcheck`` against the loop oracles.

Every field of every verdict must match: the sampled pairs, the member
draws, the float arithmetic and the witness.
"""

import numpy as np
import pytest

from cconvex import propcheck
from cconvex.costs import tabulate_callable
from cconvex.grids import make_uniform_grid
from oracles import (loop_cost_self_subdiff, loop_domain_interval_sweep,
                     loop_intersection_sweep, loop_set_valued_sweep,
                     loop_subdiff_convexity_sweep)

LOOP_SWEEPS = {
    "_subdiff_convexity_sweep": loop_subdiff_convexity_sweep,
    "_set_valued_sweep": loop_set_valued_sweep,
    "_intersection_sweep": loop_intersection_sweep,
    "_domain_interval_sweep": loop_domain_interval_sweep,
}
TOLS = (1e-9, float("nan"))  # NaN makes every pair excess NaN, which never wins


def fields(v):
    return (v.check_id, v.holds, repr(v.max_violation), v.witness, v.notes)


@pytest.mark.parametrize("pair_cap, exhaustive",
                         [(0, False), (1, False), (50, False), (10000, False), (10000, True)])
@pytest.mark.parametrize("seed", range(5))
def test_suite_verdicts_match_loop_sweeps(monkeypatch, seed, pair_cap, exhaustive):
    fast = propcheck.run_suite(seed=seed, pair_cap=pair_cap, exhaustive=exhaustive)
    for name, loop in LOOP_SWEEPS.items():
        monkeypatch.setattr(propcheck, name, loop)
    slow = propcheck.run_suite(seed=seed, pair_cap=pair_cap, exhaustive=exhaustive)
    assert [fields(v) for v in fast] == [fields(v) for v in slow]


# Hand-built inputs on which the conclusions fail, so the witness branch of
# every sweep is compared too.  700 pairs span several blocks of every size
# tried, and unit-step grids make the mixtures at lambda = 0.5 exact
# half-way points, so snapping must break ties as ``Grid.nearest_index`` does.

N, M = 41, 37
BLOCKS = (1, propcheck.PAIR_BLOCK)


@pytest.fixture(params=BLOCKS)
def block(request, monkeypatch):
    monkeypatch.setattr(propcheck, "PAIR_BLOCK", request.param)


def random_member(rng, density=0.3):
    member = rng.random((N, M)) < density
    member[np.arange(N), rng.integers(0, M, N)] = True  # no empty row
    return member


def random_pairs(rng, k=700):
    i1, i2 = rng.integers(0, N, k), rng.integers(0, N, k)
    return i1[i1 != i2], i2[i1 != i2]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("y_half_width", [1.0, 100.0])  # gap or diameter wins
@pytest.mark.parametrize("seed", range(3))
def test_subdiff_convexity_sweep_witness(block, seed, y_half_width, tol):
    rng = np.random.default_rng(seed)
    member = random_member(rng)
    grid_j = make_uniform_grid(-y_half_width, y_half_width, M)
    i1, i2 = random_pairs(rng)
    got = propcheck._subdiff_convexity_sweep(member, grid_j, tol, i1, i2)
    assert got[0] > 0
    assert got == loop_subdiff_convexity_sweep(member, grid_j, tol, i1, i2)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("seed", range(3))
def test_set_valued_sweep_witness(block, seed, tol):
    rng = np.random.default_rng(seed)
    member = random_member(rng)
    slack = rng.normal(size=(N, M))
    gi, gj = make_uniform_grid(0, N - 1, N), make_uniform_grid(-3, M - 4, M)
    i1, i2 = random_pairs(rng)
    args = (slack, member, gi, gj, propcheck.DEFAULT_LAMBDAS, tol, (0.5, 0.25, 0.125))
    fast_rng, loop_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
    got = propcheck._set_valued_sweep(*args, fast_rng, i1, i2)
    assert got == loop_set_valued_sweep(*args, loop_rng, i1, i2)
    assert (got[0] > 0) == (tol == tol)
    assert fast_rng.random() == loop_rng.random()  # same draws consumed


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("seed", range(3))
def test_intersection_sweep_witness(block, seed, tol):
    rng = np.random.default_rng(seed)
    member = random_member(rng)
    slack = rng.normal(size=(N, M))
    i1, i2 = random_pairs(rng)
    args = (slack, member, make_uniform_grid(0, N - 1, N), (0.25, 0.5, 0.75), tol,
            (0.5, 0.25, 0.125), i1, i2)
    got = propcheck._intersection_sweep(*args)
    assert got == loop_intersection_sweep(*args)
    assert got[2] and (got[0] > 0) == (tol == tol)


@pytest.mark.parametrize("seed", range(3))
def test_domain_interval_sweep_witness(block, seed):
    rng = np.random.default_rng(seed)
    member = random_member(rng)
    dom_relaxed = rng.random(N) < 0.8
    i1, i2 = random_pairs(rng)
    got = propcheck._domain_interval_sweep(member, dom_relaxed, i1, i2)
    assert got[0] > 0
    assert got == loop_domain_interval_sweep(member, dom_relaxed, i1, i2)


def test_sweeps_without_common_members():
    member = np.zeros((N, M), dtype=bool)
    member[::2, 0] = True
    member[1::2, 1] = True
    i1, i2 = np.array([0, 1, 2]), np.array([1, 2, 3])
    slack = np.zeros((N, M))
    args = (slack, member, make_uniform_grid(-1, 1, N), (0.5,), 1e-9, (1.0, 1.0, 1.0), i1, i2)
    assert propcheck._intersection_sweep(*args) == loop_intersection_sweep(*args) \
        == (-np.inf, None, False)
    dom = np.ones(N, dtype=bool)
    assert propcheck._domain_interval_sweep(member, dom, i1, i2) \
        == loop_domain_interval_sweep(member, dom, i1, i2) == (-np.inf, None, False)


@pytest.mark.parametrize("tol", [0.0, -1.0])  # a negative tol forces a witness
def test_cost_self_subdiff_matches_column_loop(tol):
    g = make_uniform_grid(-1, 1, 23)
    cost = tabulate_callable(lambda x, y: np.sin(5 * x * y) + x**3, g,
                             make_uniform_grid(0, 2, 19))
    v = propcheck.check_cost_self_subdiff(cost, tol)
    assert (v.max_violation, v.witness) == loop_cost_self_subdiff(cost, tol)


def test_nearest_indices_match_grid_nearest_index():
    # exact half-way points (ties go to the even index), both ends and beyond
    for grid in (make_uniform_grid(0, 8, 9), make_uniform_grid(-1, 1, 41)):
        xs = grid.interval.lo + grid.h * np.arange(-3, 2 * grid.n + 3) / 2.0
        want = [grid.nearest_index(float(x)) for x in xs]
        assert propcheck._nearest_indices(grid, xs).tolist() == want
