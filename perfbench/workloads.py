"""The benchmark's three closed-loop workloads and their output checks.

Each workload turns the benchmark seed into a schedule of ops (op ``k`` is
fully determined by the seed and ``k``) and exposes:

* ``inputs(k)``  - the generated inputs of op ``k`` (untimed);
* ``call(inp)``  - the program calls of one op (the timed part);
* ``check(inp, out)`` - the benchmark's own verification of the outputs
  (untimed), returning a list of errors and a Counter of verdict counts.

``cycle`` is the length of the rotation (seeds or cost families); runs
measure whole cycles so per-op counts repeat exactly.  ``peak_ops`` are the
op kinds measured under tracemalloc.  ``work`` is the work one op completes,
in ``work_unit``.  The program is always reached through its module
namespaces (``cli.main``, ``jensen.midpoint_bound``, ...), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from cconvex import cli, jensen, propcheck
from cconvex.costs import CostSpec
from cconvex.grids import DiscreteMeasure, make_uniform_grid

COUNT_NAMES = ("verdicts.violated", "verdicts.vacuous", "verdicts.hypothesis_failed",
               "jensen.hypothesis_unverified")
TOL = 1e-9


def _tie(a: float, b: float) -> bool:
    """Equal up to rounding: a max or argmax decided by the last bit."""
    return abs(a - b) <= 1e-12 * (1.0 + abs(b))


def _verdict_status(v: dict) -> str:
    if "status" in v:
        return v["status"]
    if not v["holds"]:
        return "violated"
    if "hypothesis-failed" in v["notes"]:
        return "hypothesis_failed"
    if "vacuous" in v["notes"]:
        return "vacuous"
    return "held"


class Suite:
    """``cconvex suite --seed s`` then the same call with ``--falsify``."""

    name = "suite"
    work_unit = "seeds verified"
    work = 1.0
    n = m = 101
    families = ("bilinear", "neg_quadratic", "reflector", "sin(x)y+x^2", "affine")
    min_cycles = 2      # every seed recurs within a timed run
    peak_ops = (0,)

    def __init__(self, seed: int, tmp):
        rng = np.random.default_rng([seed, 1])
        self.seeds = [int(s) for s in rng.choice(10_000, size=2, replace=False)]
        self.cycle = len(self.seeds)
        self._paths = {False: str(tmp / "suite.json"), True: str(tmp / "suite_falsify.json")}
        self._digests: dict[tuple, str] = {}

    def inputs(self, k: int) -> int:
        return self.seeds[k % self.cycle]

    def call(self, seed: int) -> list[int]:
        codes = []
        for falsify in (False, True):
            argv = ["suite", "--seed", str(seed), "--out", self._paths[falsify]]
            with contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv + ["--falsify"] if falsify else argv))
        return codes

    def check(self, seed: int, codes: list[int]):
        errors, counts = [], Counter()
        for falsify, code in zip((False, True), codes):
            half = f"seed {seed}{' --falsify' if falsify else ''}"
            if code != 0:
                errors.append(f"{half}: exit code {code}")
            with open(self._paths[falsify], "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            if self._digests.setdefault((seed, falsify), digest) != digest:
                errors.append(f"{half}: JSON differs from the earlier run of this seed")
            payload = json.loads(raw)
            if payload["config"]["seed"] != seed or payload["config"]["falsify"] != falsify:
                errors.append(f"{half}: output config does not match the call")
            if not payload["verdicts"]:
                errors.append(f"{half}: no verdicts")
            for v in payload["verdicts"]:
                status = _verdict_status(v)
                counts[f"verdicts.{status}"] += 1
                if status == "violated":
                    errors.append(f"{half}: {v['check_id']} violated ({v['max_violation']})")
        return errors, counts


# cost spec, I interval, J interval; reflector needs x*y < 1 on I x J
TRANSFORM_FAMILIES = (
    ("bilinear", (-1.0, 1.0), (-1.0, 1.0)),
    ("neg_quadratic", (-1.0, 1.0), (-1.5, 1.5)),
    ("reflector", (-0.9, 0.9), (-0.9, 0.9)),
    ("one_affine:0.2,0.8;0.1", (-1.0, 1.0), (-1.0, 1.0)),
)
CATALOG = ("parabola", "half_parabola", "absolute_value", "neg_parabola", "neg_absolute_value")


def _horner(coeffs: tuple, y):
    """Ascending-coefficient polynomial, same operation order as numpy polyval."""
    out = coeffs[-1] + y * 0
    for c in coeffs[-2::-1]:
        out = c + out * y
    return out


def _cost(spec: str, x, y):
    """The benchmark's own c(x, y), in the program's arithmetic order."""
    family, _, params = spec.partition(":")
    if family == "bilinear":
        return x * y
    if family == "neg_quadratic":
        return -1.0 * (x - y) ** 2
    if family == "reflector":
        return -np.log1p(-(x * y))
    if family == "one_affine":
        a, b = (tuple(float(t) for t in part.split(",")) for part in params.split(";"))
        return _horner(a, y) * x + _horner(b, y)
    raise ValueError(spec)


def _function(spec: str, x: np.ndarray) -> np.ndarray:
    name, _, params = spec.partition(":")
    if name == "piecewise_linear":
        xs, ys = zip(*(tuple(float(v) for v in p.split(",")) for p in params.split(";")))
        return np.interp(x, xs, ys)
    return {"parabola": lambda: x**2, "half_parabola": lambda: 0.5 * x**2,
            "absolute_value": lambda: np.abs(x), "neg_parabola": lambda: -(x**2),
            "neg_absolute_value": lambda: -np.abs(x)}[name]()


@dataclass
class TransformOp:
    cost: str
    f: str
    argv: list
    interval_i: tuple
    interval_j: tuple
    cols: np.ndarray
    rows: np.ndarray


class TransformLarge:
    """``cconvex transform`` then ``cconvex subdiff`` at n = m = 4097; each CLI
    call counts n*m cells of work."""

    name = "transform_large"
    work_unit = "Mcells"
    n = m = 4097
    work = 2 * n * m / 1e6
    families = tuple(spec for spec, _, _ in TRANSFORM_FAMILIES)
    cycle = len(TRANSFORM_FAMILIES)
    min_cycles = 1
    peak_ops = tuple(range(cycle))
    samples = 16

    def __init__(self, seed: int, tmp):
        self.seed = seed
        self._t_path = str(tmp / "transform.json")
        self._s_path = str(tmp / "subdiff.json")

    def inputs(self, k: int) -> TransformOp:
        rng = np.random.default_rng([self.seed, 2, k])
        cost, iv_i, iv_j = TRANSFORM_FAMILIES[k % self.cycle]
        if rng.random() < 0.5:
            f = str(rng.choice(CATALOG))
        else:
            knots = np.sort(rng.uniform(*iv_i, int(rng.integers(3, 7))))
            knots[0], knots[-1] = iv_i
            f = "piecewise_linear:" + ";".join(f"{x!r},{v!r}" for x, v in
                                               zip(knots.tolist(), rng.uniform(-1, 1, knots.size).tolist()))
        argv = ["--n", str(self.n), "--m", str(self.m), "--cost", cost, "--f", f,
                f"--interval-i={iv_i[0]!r},{iv_i[1]!r}", f"--interval-j={iv_j[0]!r},{iv_j[1]!r}",
                "--tol", repr(TOL)]
        return TransformOp(cost, f, argv, iv_i, iv_j,
                           np.unique(np.r_[rng.choice(self.m, self.samples, replace=False), 0, self.m - 1]),
                           np.unique(np.r_[rng.choice(self.n, self.samples, replace=False), 0, self.n - 1]))

    def call(self, op: TransformOp) -> tuple[int, int]:
        return (cli.main(["transform", *op.argv, "--out", self._t_path]),
                cli.main(["subdiff", *op.argv, "--out", self._s_path]))

    def check(self, op: TransformOp, codes: tuple[int, int]):
        errors = [f"{cmd}: exit code {c}" for cmd, c in zip(("transform", "subdiff"), codes) if c]
        with open(self._t_path) as fh:
            t = json.load(fh)
        with open(self._s_path) as fh:
            s = json.load(fh)
        x = np.array(t["f_cc"]["points"])
        y = np.array(t["f_c"]["points"])
        for pts, iv, size in ((x, op.interval_i, self.n), (y, op.interval_j, self.m)):
            if pts.shape != (size,) or np.abs(pts - np.linspace(*iv, size)).max() > 1e-12:
                errors.append(f"output grid does not match {iv} with {size} points")
                return errors, Counter()
        f = _function(op.f, x)
        fc = np.array(t["f_c"]["values"])
        fcc = np.array(t["f_cc"]["values"])
        # f^c at sampled columns and f^cc at sampled rows: own sweep, lowest index kept
        for j in op.cols:
            errors += self._sweep(f"f^c[{j}]", _cost(op.cost, x, y[j]) - f,
                                  fc[j], t["f_c"]["argmax_points"][j], x)
        for i in op.rows:
            errors += self._sweep(f"f^cc[{i}]", _cost(op.cost, x[i], y) - fc,
                                  fcc[i], t["f_cc"]["argmax_points"][i], y)
        verdict = t["c_convex"]
        if verdict["holds"] != (verdict["deviation"] <= TOL):
            errors.append(f"c_convex verdict {verdict} inconsistent with tol {TOL}")
        if verdict["deviation"] < np.abs(f[op.rows] - fcc[op.rows]).max() - 1e-12:
            errors.append(f"c_convex deviation {verdict['deviation']} below sampled |f - f^cc|")
        # subdiff: every triple qualifies; sampled rows match own member sets
        triples = np.array(s["triples"], dtype=float).reshape(-1, 3)
        if (triples[:, 2] < -TOL).any():
            errors.append(f"subdiff triple with slack {triples[:, 2].min()} < -{TOL}")
        rows_i = triples[:, 0].astype(np.int64)
        for i in op.rows:
            slack = (_cost(op.cost, x[i], y) - f[i]) - fc
            own = set(np.flatnonzero(slack >= -TOL).tolist())
            lo, hi = np.searchsorted(rows_i, [i, i + 1])
            got = set(triples[lo:hi, 1].astype(np.int64).tolist())
            if any(not _tie(slack[j], -TOL) for j in own ^ got):
                errors.append(f"subdiff row {i}: members differ from own sweep")
            if s["dom"][i] != bool(got):
                errors.append(f"subdiff dom[{i}] = {s['dom'][i]} but row has {len(got)} members")
        return errors, Counter()

    @staticmethod
    def _sweep(label, d, value, argmax_point, points):
        best = int(np.argmax(d))
        k = int(np.searchsorted(points, argmax_point))
        errors = []
        if not _tie(value, d[best]):
            errors.append(f"{label} = {value}, own sweep {d[best]}")
        if k >= points.size or points[k] != argmax_point:
            errors.append(f"{label} argmax point {argmax_point} is not a grid point")
        elif k != best and not _tie(d[k], d[best]):
            errors.append(f"{label} argmax {k}, own sweep {best}")
        return errors


# family, spec, J interval, InstanceConfig.cost_params (as acceptance criterion 4)
JENSEN_FAMILIES = (
    ("bilinear", CostSpec("bilinear"), (-2.0, 2.0), ()),
    ("one_affine", CostSpec("one_affine", a_coeffs=(0.2, 0.8), b_coeffs=(0.1,)),
     (-2.0, 2.0), ((0.2, 0.8), (0.1,))),
    ("neg_quadratic", CostSpec("neg_quadratic"), (-2.5, 2.5), ()),
)
AFFINE_IN_X = ("bilinear", "one_affine")
FORMS = ("discrete", "midpoint", "weighted", "integral")


@dataclass
class JensenOp:
    config: propcheck.InstanceConfig
    spec: CostSpec
    mu: DiscreteMeasure
    a: float
    b: float


class JensenBatch:
    """One seeded c-convexified instance per op, then the four Jensen reports."""

    name = "jensen_batch"
    work_unit = "reports"
    work = float(len(FORMS))
    n = m = 65
    families = tuple(fam for fam, _, _, _ in JENSEN_FAMILIES)
    cycle = len(JENSEN_FAMILIES)
    min_cycles = 1
    peak_ops = tuple(range(cycle))
    pairs = 4

    def __init__(self, seed: int, tmp):
        self.seed = seed
        self.grid = make_uniform_grid(-1.0, 1.0, self.n)

    def _dyadic_measure(self, rng):
        """Symmetric pairs around a grid centre, weights 1/(2*pairs)."""
        n, pts = self.n, self.grid.points
        c = int(rng.integers(n // 4, 3 * n // 4))
        ds = rng.integers(0, min(c, n - 1 - c) + 1, self.pairs)
        pos = [p for d in ds for p in (pts[c - d], pts[c + d])]
        mu = DiscreteMeasure(np.array(pos), np.full(len(pos), 1.0 / len(pos)))
        return mu, float(pts[c - ds.max()]), float(pts[c + ds.max()])

    def inputs(self, k: int) -> JensenOp:
        rng = np.random.default_rng([self.seed, 3, k])
        family, spec, iv_j, params = JENSEN_FAMILIES[k % self.cycle]
        config = propcheck.InstanceConfig(seed=int(rng.integers(2**31)), n=self.n, m=self.m,
                                          cost_family=family, interval_j=iv_j,
                                          cost_params=params, f_family="cconvexified_random")
        return JensenOp(config, spec, *self._dyadic_measure(rng))

    def call(self, op: JensenOp):
        f, cost = propcheck.generate_instance(op.config)
        gj = cost.grid_j
        return (jensen.discrete_jensen_gap(f, op.spec, op.mu, tol=TOL, grid_j=gj),
                jensen.midpoint_bound(f, op.spec, op.a, op.b, tol=TOL, grid_j=gj),
                jensen.weighted_integral_bound(f, op.spec, op.mu, tol=TOL, grid_j=gj),
                jensen.integral_jensen_bound(f, op.spec, tol=TOL, grid_j=gj))

    def check(self, op: JensenOp, reports):
        errors, counts = [], Counter()
        label = f"{op.config.cost_family} seed {op.config.seed}"
        for form, r in zip(FORMS, reports):
            if not r.hypothesis_verified:
                counts["jensen.hypothesis_unverified"] += 1
                errors.append(f"{label} {form}: witness hypothesis unverified")
            if not r.holds:
                errors.append(f"{label} {form}: bound fails (slack {r.slack}, tol {r.tol})")
            if op.config.cost_family in AFFINE_IN_X and abs(r.rhs) > 1e-12:
                errors.append(f"{label} {form}: 1-affine |rhs| = {abs(r.rhs)} > 1e-12")
        return errors, counts


WORKLOADS = {w.name: w for w in (Suite, TransformLarge, JensenBatch)}
