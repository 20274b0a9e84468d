"""Outside-in tracing of cconvex's public functions.

``Tracer.install`` replaces each function in ``LAYERS`` with a timing
wrapper in every loaded ``cconvex`` module namespace that holds it.  Modules
that did ``from .x import f`` keep their own reference, so patching only the
defining module would miss calls from ``cli``, ``propcheck`` and ``jensen``.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Each call becomes a span (name, op, parent, start, end).  A span's self time
is its duration minus the time covered by its child spans; the wrapper's own
bookkeeping (content hashing for ``distinct_frac``) is charged to neither.
Spans stay in memory and are written out once, by ``write_spans``.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import weakref
from array import array

import numpy as np

LAYERS = {
    "cli": ("main",),
    "propcheck": ("check_mixture", "check_order_propagation", "check_subdiff_convexity",
                  "check_set_valued_convexity", "check_intersection_inclusion",
                  "check_domain_interval", "check_grad_inclusion", "check_cost_self_subdiff",
                  "check_local_support_iff", "run_suite", "generate_instance"),
    "subdiff": ("membership_slack", "subdifferential_map", "local_c_subdifferential",
                "local_double_conjugate"),
    "transform": ("c_transform", "double_c_transform", "is_c_convex"),
    "costs": ("tabulate_cost", "tabulate_callable", "evaluate_cost", "check_structure",
              "segment_concavity_excess"),
    "jensen": ("discrete_jensen_gap", "midpoint_bound", "weighted_integral_bound",
               "integral_jensen_bound"),
    "grids": ("quadrature", "barycenter"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Layers whose repeated work is measured: distinct (f, cost) inputs per op.
DISTINCT = ("subdiff.membership_slack", "transform.c_transform")
# Dense sweeps in c_transform and the outer sweep of double_c_transform each
# read the cost matrix, write one n x m float64 difference array and read it
# twice (max, argmax): 4 passes of 8 bytes per cell, computed from array sizes.
SWEEP_BYTES_PER_CELL = 4 * 8


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span recorder plus exact per-op work counters for one traced phase."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.distinct = dict.fromkeys(DISTINCT, 0)
        self.cells = 0
        self.bytes_computed = 0
        self._op = -1
        self._op_keys = {name: set() for name in DISTINCT}
        self._digests: dict[int, tuple] = {}
        self._open: list[int] = []          # span indices of open calls
        self._child_s: list[float] = []     # child time inside each open call
        self._name = array("H")
        self._parent = array("l")
        self._span_op = array("l")
        self._t0 = array("d")
        self._t1 = array("d")
        self._patched: list[tuple] = []

    # -- op boundaries -------------------------------------------------------
    def begin_op(self, k: int):
        self._op = k
        for keys in self._op_keys.values():
            keys.clear()
        self._digests.clear()

    def end_op(self):
        for name, keys in self._op_keys.items():
            self.distinct[name] += len(keys)

    # -- work counters -------------------------------------------------------
    def _array_digest(self, a: np.ndarray) -> bytes:
        # cost matrices are read-only and reused within an op; hash each once
        hit = self._digests.get(id(a))
        if hit is not None and hit[0]() is a:
            return hit[1]
        d = hashlib.sha256(np.ascontiguousarray(a).data).digest()
        self._digests[id(a)] = (weakref.ref(a), d)
        return d

    def _input_key(self, f, cost) -> bytes:
        gi, gj = f.grid, cost.grid_j
        h = hashlib.sha256(repr((gi.interval.lo, gi.interval.hi, gi.n,
                                 gj.interval.lo, gj.interval.hi, gj.n)).encode())
        h.update(np.ascontiguousarray(f.values).data)
        h.update(self._array_digest(cost.entries))
        return h.digest()

    def _count(self, name: str, args, kwargs):
        if name in self._op_keys:
            self._op_keys[name].add(self._input_key(_arg(args, kwargs, 0, "f"),
                                                    _arg(args, kwargs, 1, "cost")))
        if name in ("transform.c_transform", "transform.double_c_transform"):
            self.bytes_computed += SWEEP_BYTES_PER_CELL * _arg(args, kwargs, 1, "cost").entries.size
        elif name == "costs.tabulate_cost":
            self.cells += _arg(args, kwargs, 1, "grid_i").n * _arg(args, kwargs, 2, "grid_j").n

    # -- spans ---------------------------------------------------------------
    def _wrap(self, name: str, fn):
        code = SPAN_NAMES.index(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf()
            self._count(name, args, kwargs)
            idx = len(self._t0)
            self._name.append(code)
            self._parent.append(self._open[-1] if self._open else -1)
            self._span_op.append(self._op)
            self._t0.append(0.0)
            self._t1.append(0.0)
            self._open.append(idx)
            self._child_s.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                child = self._child_s.pop()
                self._open.pop()
                self._t0[idx] = start
                self._t1[idx] = end
                self.calls[name] += 1
                self.self_s[name] += (end - start) - child
                if self._child_s:
                    self._child_s[-1] += end - entered

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cconvex" or n.startswith("cconvex."))]
        for name in SPAN_NAMES:
            mod, fn = name.split(".")
            original = getattr(sys.modules[f"cconvex.{mod}"], fn)
            wrapped = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------
    def metrics(self, ops: int) -> dict:
        """Per-op averages; ``ops`` must cover whole cycles of the schedule."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_s"] = self.self_s[name] / ops
        for name in DISTINCT:
            calls = self.calls[name]
            out[f"{name}.distinct_frac"] = self.distinct[name] / calls if calls else 0.0
        out["costs.tabulate_cost.cells"] = self.cells / ops
        out["transform.bytes_computed"] = self.bytes_computed / ops
        return out

    def write_spans(self, path: str):
        np.savez(path, names=np.array(SPAN_NAMES), name=np.array(self._name, np.uint16),
                 parent=np.array(self._parent, np.int64), op=np.array(self._span_op, np.int64),
                 start=np.array(self._t0), end=np.array(self._t1))
