"""Command-line front door.

Commands: transform | subdiff | jensen | suite | gen.  Each takes only the
options it reads.  transform and subdiff write JSON or CSV (``--format``),
jensen and suite JSON, gen CSV; JSON reports embed the configuration hash,
tolerances and grid parameters so identical configs reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import sys
from collections.abc import Iterator
from typing import Optional

import numpy as np

from . import propcheck
from .costs import CostSpec, parse_cost_spec, write_cost_csv
from .grids import (DiscreteMeasure, Grid, GridFunction, check_tol, make_uniform_grid,
                    read_grid_function_csv, read_two_column_csv, write_csv, write_grid_function_csv)
from .jensen import discrete_jensen_gap, integral_jensen_bound, midpoint_bound, weighted_integral_bound
from .subdiff import Analysis
from .transform import c_convexity

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
        try:
            vals = np.full(grid.n, float(params) if params else 0.0)
        except ValueError:
            raise SystemExit(f"error: constant needs a number as its param, got {params!r}")
    elif name == "zero":
        vals = np.zeros(grid.n)
    elif name == "piecewise_linear":
        try:
            pts = [tuple(float(v) for v in pair.split(",")) for pair in params.split(";")]
            xs, ys = zip(*pts)
        except ValueError:
            raise SystemExit("error: piecewise_linear needs params 'x0,y0;x1,y1;...'")
        for k in range(1, len(xs)):
            if not xs[k] >= xs[k - 1]:  # np.interp needs knots in ascending x
                raise SystemExit(f"error: piecewise_linear knots need ascending x, "
                                 f"got x{k}={xs[k]} after x{k - 1}={xs[k - 1]}")
        vals = np.interp(x, xs, ys)
    else:
        raise SystemExit(f"error: unknown function {name!r}; catalog: {FUNCTION_CATALOG}")
    return GridFunction(grid, vals)


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# Values rendered per write of an output array.  Only the grids' texts are held
# whole, 24 B a point (``_float_texts``); a block's texts take about 0.15 MB.
BLOCK = 1024


def _blocks(size: int, render) -> Iterator:
    """render(lo, hi)'s texts for each block [lo, hi) of at most BLOCK values."""
    return (render(lo, lo + BLOCK) for lo in range(0, size, BLOCK))


def _json_parts(value, parts: list):
    """Append to ``parts`` the text of json.dumps(value, sort_keys=True,
    separators=(",", ":"), allow_nan=False), except that an iterator value,
    an array's blocks of value texts, is appended as it stands."""
    if isinstance(value, Iterator):
        parts.append(value)
    elif isinstance(value, dict):
        parts.append("{")
        for k, (key, v) in enumerate(sorted(value.items())):
            parts.append(("," if k else "") + json.dumps(key) + ":")
            _json_parts(v, parts)
        parts.append("}")
    else:
        parts.append(json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False))


def _dump_json(path: Optional[str], payload: dict):
    """Write the payload's JSON and a newline to ``path``, or to stdout, an
    array block by block, a text each.  Every text but the arrays' is rendered
    before the file is opened, and callers check the arrays with
    ``_require_json_floats``, so a value json rejects leaves a file as it was."""
    parts = []
    _json_parts(payload, parts)
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        for part in parts:
            if isinstance(part, str):
                fh.write(part)
                continue
            fh.write("[")
            for k, text in enumerate(part):
                fh.write("," + text if k else text)
            fh.write("]")
        fh.write("\n")


def _float_texts(values: np.ndarray) -> np.ndarray:
    """Each value's repr, the text json.dumps writes for a float, in one bytes
    array: a repr has at most 24 characters (a sign, 17 digits, '.', 'e-308')."""
    texts = np.empty(values.size, "S24")
    for lo in range(0, values.size, BLOCK):
        texts[lo:lo + BLOCK] = list(map(repr, values[lo:lo + BLOCK].tolist()))
    return texts


def _require_json_floats(*arrays: np.ndarray):
    """Raise json's own ValueError for the first non-finite value, which
    allow_nan=False rejects and ``_float_texts`` would render."""
    for a in arrays:
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            json.dumps(float(a[bad[0]]), allow_nan=False)


def _build_grids(args):
    gi = make_uniform_grid(*args.interval_i, args.n)
    gj = make_uniform_grid(*args.interval_j, args.m)
    return gi, gj


def _instance(args) -> tuple[GridFunction, CostSpec, Grid]:
    """``--f`` on the I grid, the ``--cost`` spec and the J grid."""
    gi, gj = _build_grids(args)
    spec = parse_cost_spec(args.cost)
    return parse_function(args.f, gi), spec, gj


def cmd_transform(args) -> int:
    f, spec, gj = _instance(args)
    a = Analysis(f, spec, grid_j=gj)
    gi, fc, fcc = f.grid, a.fc, a.fcc
    holds, deviation = c_convexity(f, fcc.values, args.tol) if f.is_finite else (None, None)
    verdict = {"holds": holds, "deviation": deviation, "tol": args.tol}
    # Only the grids' texts are kept whole: each point is written in order and
    # as an argmax.  The grids share texts only when bitwise equal: a -0.0 and
    # a 0.0 end point compare equal but print differently.
    x = _float_texts(gi.points)
    y = x if gi.points.tobytes() == gj.points.tobytes() else _float_texts(gj.points)

    def column(points, result, argmax_grid):  # each key's blocks of texts
        v, k = result.values.values, result.argmax
        return {"points": _blocks(v.size, lambda lo, hi: points[lo:hi]),
                "values": _blocks(v.size, lambda lo, hi: _float_texts(v[lo:hi])),
                "argmax_points": _blocks(v.size, lambda lo, hi: argmax_grid[k[lo:hi]])}

    columns = {"f_c": column(y, fc, x), "f_cc": column(x, fcc, y)}
    if args.format == "json":
        _require_json_floats(gi.points, gj.points, fc.values.values, fcc.values.values)
        payload = {"config": _common_config(args), "c_convex": verdict,
                   **{name: {key: (b",".join(t.tolist()).decode() for t in blocks)
                             for key, blocks in col.items()} for name, col in columns.items()}}
        payload["config_hash"] = _config_hash(payload["config"])
        _dump_json(args.out, payload)
    else:
        prefix = args.out or "transform"
        _dump_json(prefix + "_verdict.json", verdict)   # first: it refuses a non-finite deviation
        for name, blocks in columns.items():
            write_csv(f"{prefix}_{name.replace('_', '')}.csv", ["point", name, "argmax_point"],
                      itertools.chain.from_iterable(
                          map(zip, *(map(np.char.decode, b) for b in blocks.values()))))
    return 0


def cmd_subdiff(args) -> int:
    f, spec, gj = _instance(args)
    dom, rows, cols, slack = Analysis(f, spec, args.tol, gj).triples

    def triples(lo, hi):  # (x index, y index, slack) of triples [lo, hi)
        return zip(rows[lo:hi].tolist(), cols[lo:hi].tolist(), slack[lo:hi].tolist())

    def triple_texts(lo, hi):  # the block's triples in one %-format
        return (",".join(["[%d,%d,%r]"] * slack[lo:hi].size)
                % tuple(itertools.chain.from_iterable(triples(lo, hi))))

    if args.format == "json":
        _require_json_floats(slack)
        payload = {"config": _common_config(args), "dom": dom.tolist(),
                   "triples": _blocks(slack.size, triple_texts)}
        payload["config_hash"] = _config_hash(payload["config"])
        _dump_json(args.out, payload)
    else:
        write_csv(args.out or "subdiff.csv", ["x_index", "y_index", "slack"],
                  itertools.chain.from_iterable(_blocks(slack.size, triples)))
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
        try:
            atoms.append((float(x), float(p)))
        except ValueError:
            raise ValueError(f"--measure atom {part!r} is not 'x:p' with numbers x and p") from None
    return DiscreteMeasure.from_atoms(atoms)


def cmd_jensen(args) -> int:
    f, spec, gj = _instance(args)
    if args.form == "integral":
        report = integral_jensen_bound(f, spec, xi=args.xi, y=args.y, tol=args.tol, grid_j=gj)
    else:
        mu = _parse_measure(args.measure)
        if args.form == "discrete":
            report = discrete_jensen_gap(f, spec, mu, y=args.y, tol=args.tol, grid_j=gj)
        elif args.form == "weighted":
            report = weighted_integral_bound(f, spec, mu, y=args.y, tol=args.tol, grid_j=gj)
        else:  # midpoint, the last form argparse admits
            a, b = float(mu.positions[0]), float(mu.positions[-1])
            report = midpoint_bound(f, spec, a, b, y=args.y, tol=args.tol, grid_j=gj)
    config = {**_common_config(args), "form": args.form, "measure": args.measure, "y": args.y,
              "xi": args.xi}
    payload = {"config": config, "report": report.to_dict()}
    payload["config_hash"] = _config_hash(config)
    _dump_json(args.out, payload)
    return 0


def cmd_suite(args) -> int:
    verdicts = sorted(propcheck.run_suite(seed=args.seed, tol=args.tol, pair_cap=args.pair_cap,
                                          falsify=args.falsify), key=lambda v: v.check_id)
    config = {"seed": args.seed, "tol": args.tol, "pair_cap": args.pair_cap,
              "falsify": args.falsify}
    payload = {"config": config, "config_hash": _config_hash(config),
               "verdicts": [v.to_dict() for v in verdicts]}
    _dump_json(args.out, payload)
    for v in verdicts:
        print(f"{v.status} {v.check_id} max_violation={v.max_violation:.3e} {v.notes}",
              file=sys.stderr)
    return 0 if all(v.holds for v in verdicts) else 1


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
    return {"command": args.command,
            "interval_i": list(args.interval_i), "interval_j": list(args.interval_j),
            "n": args.n, "m": args.m, "cost": args.cost, "f": args.f, "tol": args.tol,
            "seed": args.seed}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cconvex",
                                description="Numerical toolkit for convexity "
                                            "relative to cost functions")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help, instance=True, f=True, tol=True, formats=False):
        """A subcommand with the option groups it reads: the grids and cost
        (``instance``), the function ``--f``, ``--tol``, and ``--format``
        for a command that writes CSV as well as JSON."""
        sp = sub.add_parser(name, help=help)
        if instance:
            sp.add_argument("--interval-i", type=_parse_interval, default=(-1.0, 1.0))
            sp.add_argument("--interval-j", type=_parse_interval, default=(-1.0, 1.0))
            sp.add_argument("--n", type=int, default=257)
            sp.add_argument("--m", type=int, default=257)
            sp.add_argument("--cost", default="bilinear")
        if f:
            sp.add_argument("--f", default="parabola")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        if formats:
            sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.set_defaults(fn=fn)
        return sp

    command("transform", cmd_transform, "compute f^c, f^cc and the c-convexity verdict",
            formats=True)
    command("subdiff", cmd_subdiff, "per-point c-subdifferential map", formats=True)

    sp = command("jensen", cmd_jensen, "Jensen-type gap bound reports")
    sp.add_argument("--measure", default="0:0.5,1:0.5",
                    help="inline 'x:p,x:p,...' or csv:PATH")
    sp.add_argument("--y", type=float, default=None)
    sp.add_argument("--xi", type=float, default=None)
    sp.add_argument("--form", choices=("discrete", "midpoint", "integral", "weighted"),
                    default="discrete")

    sp = command("suite", cmd_suite, "run the proposition suite on its fixed n = m = 101 "
                                     "instances", instance=False, f=False)
    sp.add_argument("--pair-cap", type=int, default=10100,
                    help="all ordered pairs when they fit under it, else this many seeded draws")
    sp.add_argument("--falsify", action="store_true",
                    help="corrupt hypothesis-gated inputs to show hypothesis reporting")

    sp = command("gen", cmd_gen, "emit a seeded random instance as CSV", f=False, tol=False)
    sp.add_argument("--f-family", choices=propcheck.F_FAMILIES,
                    default="cconvexified_random")
    sp.add_argument("--amplitude", type=float, default=1.0)
    return p


# Built on first use rather than at import, and reused by every later call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "tol" in vars(args):
            check_tol(args.tol)
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as e:  # numpy's MemoryError names the array
        raise SystemExit(f"error: {str(e) or type(e).__name__}")


if __name__ == "__main__":
    sys.exit(main())
