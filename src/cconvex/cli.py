"""Command-line front door.

Commands: transform | subdiff | jensen | suite | gen.  Outputs are CSV or
JSON; JSON reports embed the configuration hash, tolerances and grid
parameters so identical configs reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
from typing import Optional

import numpy as np

from . import propcheck
from .costs import parse_cost_spec, write_cost_csv
from .grids import (DiscreteMeasure, GridFunction, check_tol, make_uniform_grid,
                    read_grid_function_csv, read_two_column_csv, sup_norm_diff,
                    write_grid_function_csv)
from .jensen import discrete_jensen_gap, integral_jensen_bound, midpoint_bound, weighted_integral_bound
from .subdiff import membership_triples
from .transform import conjugates

FUNCTION_CATALOG = ("parabola", "half_parabola", "absolute_value", "neg_parabola",
                    "neg_absolute_value", "constant", "zero", "piecewise_linear")


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(t) for t in text.split(","))
    except ValueError:
        raise SystemExit(f"error: expected interval as 'a,b', got {text!r}")
    return lo, hi


def parse_function(text: str, grid) -> GridFunction:
    """Built-in catalog name (with optional ':params') or 'csv:PATH'."""
    if text.startswith("csv:"):
        f = read_grid_function_csv(text[4:])
        if f.grid != grid:
            raise SystemExit("error: CSV function grid does not match --interval-i/--n")
        return f
    name, _, params = text.partition(":")
    x = grid.points
    if name == "parabola":
        vals = x**2
    elif name == "half_parabola":
        vals = 0.5 * x**2
    elif name == "absolute_value":
        vals = np.abs(x)
    elif name == "neg_parabola":
        vals = -(x**2)
    elif name == "neg_absolute_value":
        vals = -np.abs(x)
    elif name == "constant":
        vals = np.full(grid.n, float(params) if params else 0.0)
    elif name == "zero":
        vals = np.zeros(grid.n)
    elif name == "piecewise_linear":
        try:
            pts = [tuple(float(v) for v in pair.split(",")) for pair in params.split(";")]
            xs, ys = zip(*pts)
        except ValueError:
            raise SystemExit("error: piecewise_linear needs params 'x0,y0;x1,y1;...'")
        vals = np.interp(x, xs, ys)
    else:
        raise SystemExit(f"error: unknown function {name!r}; catalog: {FUNCTION_CATALOG}")
    return GridFunction(grid, vals)


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _dump_json(path: Optional[str], payload: dict):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_transform_csv(path: str, grid, result, colname: str):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["point", colname, "argmax_point"])
        in_pts = result.values.grid.points  # output grid
        for p, v, a in zip(in_pts, result.values.values, result.argmax):
            w.writerow([repr(float(p)), repr(float(v)), repr(float(grid.points[a]))])


def _build_grids(args):
    gi = make_uniform_grid(*args.interval_i, args.n)
    gj = make_uniform_grid(*args.interval_j, args.m)
    return gi, gj


def cmd_transform(args) -> int:
    gi, gj = _build_grids(args)
    spec = parse_cost_spec(args.cost)
    f = parse_function(args.f, gi)
    fc, fcc = conjugates(f, spec, gj)
    if f.is_finite:
        deviation = sup_norm_diff(f, fcc.values)
        holds = deviation <= args.tol
    else:
        holds, deviation = None, None
    if args.format == "json":
        payload = {
            "config": _common_config(args),
            "f_c": {"points": gj.points.tolist(),
                    "values": fc.values.values.tolist(),
                    "argmax_points": gi.points[fc.argmax].tolist()},
            "f_cc": {"points": gi.points.tolist(),
                     "values": fcc.values.values.tolist(),
                     "argmax_points": gj.points[fcc.argmax].tolist()},
            "c_convex": {"holds": holds, "deviation": deviation, "tol": args.tol},
        }
        payload["config_hash"] = _config_hash(payload["config"])
        _dump_json(args.out, payload)
    else:
        prefix = args.out or "transform"
        _write_transform_csv(prefix + "_fc.csv", gi, fc, "f_c")
        _write_transform_csv(prefix + "_fcc.csv", gj, fcc, "f_cc")
        with open(prefix + "_verdict.json", "w") as fh:
            json.dump({"holds": holds, "deviation": deviation, "tol": args.tol}, fh,
                      sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


def cmd_subdiff(args) -> int:
    gi, gj = _build_grids(args)
    spec = parse_cost_spec(args.cost)
    f = parse_function(args.f, gi)
    dom, rows, cols, slack = membership_triples(f, spec, gj, args.tol)
    triples = [list(t) for t in zip(rows.tolist(), cols.tolist(), slack.tolist())]
    if args.format == "json":
        payload = {"config": _common_config(args), "dom": dom.tolist(), "triples": triples}
        payload["config_hash"] = _config_hash(payload["config"])
        _dump_json(args.out, payload)
    else:
        path = args.out or "subdiff.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x_index", "y_index", "slack"])
            for i, j, sl in triples:
                w.writerow([i, j, repr(sl)])
    return 0


def _parse_measure(text: str) -> DiscreteMeasure:
    """Inline 'x:p,x:p,...' or 'csv:PATH' with rows x,p."""
    if text.startswith("csv:"):
        xs, ps = read_two_column_csv(text[4:], ("x", "p"))
        if not len(xs):
            raise ValueError(f"{text[4:]}: no atoms")
        return DiscreteMeasure(xs, ps)
    atoms = []
    for part in text.split(","):
        x, _, p = part.partition(":")
        atoms.append((float(x), float(p)))
    return DiscreteMeasure.from_atoms(atoms)


def cmd_jensen(args) -> int:
    gi, gj = _build_grids(args)
    spec = parse_cost_spec(args.cost)
    f = parse_function(args.f, gi)
    y = args.y
    form = args.form
    if form == "integral":
        report = integral_jensen_bound(f, spec, xi=args.xi, y=y, tol=args.tol, grid_j=gj)
    else:
        mu = _parse_measure(args.measure)
        if form == "discrete":
            report = discrete_jensen_gap(f, spec, mu, y=y, tol=args.tol, grid_j=gj)
        elif form == "weighted":
            report = weighted_integral_bound(f, spec, mu, y=y, tol=args.tol, grid_j=gj)
        elif form == "midpoint":
            a, b = float(mu.positions[0]), float(mu.positions[-1])
            report = midpoint_bound(f, spec, a, b, y=y, tol=args.tol, grid_j=gj)
        else:  # pragma: no cover
            raise SystemExit(form)
    config = {**_common_config(args), "form": form, "measure": args.measure, "y": y,
              "xi": args.xi}
    payload = {"config": config, "report": report.to_dict()}
    payload["config_hash"] = _config_hash(config)
    _dump_json(args.out, payload)
    return 0


def cmd_suite(args) -> int:
    verdicts = propcheck.run_suite(seed=args.seed, tol=args.tol,
                                   pair_cap=args.pair_cap,
                                   exhaustive=args.exhaustive,
                                   falsify=args.falsify)
    config = {"seed": args.seed, "tol": args.tol, "pair_cap": args.pair_cap,
              "exhaustive": args.exhaustive, "falsify": args.falsify}
    payload = {"config": config, "config_hash": _config_hash(config),
               "verdicts": [v.to_dict() for v in
                            sorted(verdicts, key=lambda v: v.check_id)]}
    _dump_json(args.out, payload)
    failed = 0
    for v in sorted(verdicts, key=lambda v: v.check_id):
        status = "PASS" if v.holds else "FAIL"
        if not v.holds:
            failed += 1
        print(f"{status} {v.check_id} max_violation={v.max_violation:.3e} {v.notes}",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_gen(args) -> int:
    cfg = propcheck.InstanceConfig(seed=args.seed, n=args.n, m=args.m,
                                   interval_i=args.interval_i,
                                   interval_j=args.interval_j,
                                   cost_family=args.cost,
                                   f_family=args.f_family,
                                   amplitude=args.amplitude)
    f, cost = propcheck.generate_instance(cfg)
    prefix = args.out or "instance"
    write_grid_function_csv(prefix + "_f.csv", f)
    write_cost_csv(prefix + "_cost.csv", cost)
    return 0


def _common_config(args) -> dict:
    cfg = {"command": args.command,
           "interval_i": list(args.interval_i), "interval_j": list(args.interval_j),
           "n": args.n, "m": args.m, "cost": args.cost, "tol": args.tol,
           "seed": args.seed}
    if getattr(args, "f", None) is not None:
        cfg["f"] = args.f
    return cfg


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cconvex",
                                description="Numerical toolkit for convexity "
                                            "relative to cost functions")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_f=True):
        sp.add_argument("--interval-i", type=_parse_interval, default=(-1.0, 1.0))
        sp.add_argument("--interval-j", type=_parse_interval, default=(-1.0, 1.0))
        sp.add_argument("--n", type=int, default=257)
        sp.add_argument("--m", type=int, default=257)
        sp.add_argument("--cost", default="bilinear")
        if need_f:
            sp.add_argument("--f", default="parabola")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="json")

    sp = sub.add_parser("transform", help="compute f^c, f^cc and the c-convexity verdict")
    common(sp)
    sp.set_defaults(fn=cmd_transform)

    sp = sub.add_parser("subdiff", help="per-point c-subdifferential map")
    common(sp)
    sp.set_defaults(fn=cmd_subdiff)

    sp = sub.add_parser("jensen", help="Jensen-type gap bound reports")
    common(sp)
    sp.add_argument("--measure", default="0:0.5,1:0.5",
                    help="inline 'x:p,x:p,...' or csv:PATH")
    sp.add_argument("--y", type=float, default=None)
    sp.add_argument("--xi", type=float, default=None)
    sp.add_argument("--form", choices=("discrete", "midpoint", "integral", "weighted"),
                    default="discrete")
    sp.set_defaults(fn=cmd_jensen)

    sp = sub.add_parser("suite", help="run the full proposition suite")
    common(sp, need_f=False)
    sp.add_argument("--pair-cap", type=int, default=10000)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--falsify", action="store_true",
                    help="corrupt hypothesis-gated inputs to show hypothesis reporting")
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("gen", help="emit a seeded random instance as CSV")
    common(sp, need_f=False)
    sp.add_argument("--f-family", choices=propcheck.F_FAMILIES,
                    default="cconvexified_random")
    sp.add_argument("--amplitude", type=float, default=1.0)
    sp.set_defaults(fn=cmd_gen)
    return p


# Built on first use rather than at import, and reused by every later call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        check_tol(args.tol)
        return args.fn(args)
    except (ValueError, OSError) as e:
        raise SystemExit(f"error: {e}")


if __name__ == "__main__":
    sys.exit(main())
