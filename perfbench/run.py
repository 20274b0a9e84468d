"""Layered benchmark of cconvex: end-to-end metrics, or per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload {suite,transform_large,jensen_batch}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/`` of the
same checkout.  Each workload is a closed loop with one client in one
process (the next op starts when the previous one has been checked), with
BLAS/OpenMP pools capped at one thread.  ``workloads.py`` defines the ops
and checks every output; ``tracer.py`` times calls into the public
functions of ``cli``, ``propcheck``, ``subdiff``, ``transform``, ``costs``,
``jensen`` and ``grids`` from outside.

``--trace 0`` measures six end-to-end figures and prints them by name and
unit on the line before the result:

* ``work_per_s``: work completed per second of op time, in the workload's
  unit (seeds verified, Mcells or reports).
* ``op_p50_s``: median latency of one op, over whole cycles of the workload's
  rotation lasting at least ``--seconds``.
* ``op_tail_s``: the highest of p99, p95, p90, p75, p50 of the same latencies
  with at least ten samples beyond it, or the maximum when none has ten,
  printed with its percentile and sample counts.
* ``peak_mem_mb``: tracemalloc peak (MB = 1e6 bytes) above the level at the
  start of one op, maximum over the workload's op kinds, in an untimed pass
  that also warms the process up.
* ``setup_s``: median, over several fresh interpreters, of the time to
  import ``cconvex`` and ``cconvex.cli``.  The workloads need no other
  program-side preparation before their first op.
* ``fail_frac``: failed / attempted ops.  An op fails when it raises, exits
  non-zero or fails the benchmark's output check.

The result line, the last line of standard output, carries the metrics listed
under ``end_to_end`` in ``BENCHMARK.json``, and ``fail_frac`` as its
``failed`` and ``attempted`` counts.  ``op_tail_s`` is printed but not gated:
on the shared 2-vCPU host the bounds were set on, other tenants' load slows
ops in stretches of tens to hundreds of milliseconds, and over ten seeds the
spread of jensen_batch's p99 was 0.50 of its median, twice the largest bound
a metric may have.  Percentiles above p99 spread wider still.

``--trace 1`` warms up, runs untraced for half of ``--seconds``, then traced
for the other half, and reports the ``per_layer`` metrics as per-op
averages over whole cycles, so counts repeat exactly for a given seed.
"""

from __future__ import annotations

import os

# Before numpy is imported: no BLAS/OpenMP thread pools beyond the one client.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 11
SETUP_CODE = ("import time; t = time.perf_counter(); import cconvex, cconvex.cli; "
              "print(time.perf_counter() - t)")
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
# Cache sizes lscpu reported on the 2-vCPU Xeon host the bounds were set on.
CALIBRATION_CACHES = {"l2": "4 MiB (per core, 2 instances)",
                      "l3": "300 MiB (1 instance, shared with other tenants)"}


def import_program():
    """Import cconvex from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import cconvex
        import cconvex.cli  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import cconvex from {SRC}: {e}")
    if Path(cconvex.__file__).resolve().parent != SRC / "cconvex":
        raise SystemExit(f"perfbench: imported cconvex from {cconvex.__file__}, not {SRC}")


class Runner:
    """Runs, times and checks ops of one workload; tallies failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, k: int, tracer=None, mem: bool = False):
        """One op: (latency_s, tracemalloc peak bytes or None, verdict counts)."""
        inp = self.wl.inputs(k)
        if tracer:
            tracer.begin_op(k)
        if mem:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        out, errors = None, []
        t0 = time.perf_counter()
        try:
            out = self.wl.call(inp)
        except SystemExit as e:
            errors.append(f"op {k}: exited with {e.code}")
        except Exception:
            errors.append(f"op {k}: {traceback.format_exc(limit=4)}")
        latency = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] - base if mem else None
        if tracer:
            tracer.end_op()
        counts = Counter()
        if not errors:
            try:
                errors, counts = self.wl.check(inp, out)
            except Exception:
                errors = [f"op {k}: check raised {traceback.format_exc(limit=4)}"]
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors[:3]
            print(f"perfbench: op {k} failed: {errors[0]}", file=sys.stderr)
        return latency, peak, counts

    def phase(self, seconds: float, min_cycles: int, tracer=None):
        """Whole cycles of ops from k = 0 until ``seconds`` have passed."""
        latencies, counts = [], Counter()
        start = time.perf_counter()
        k = 0
        while True:
            for _ in range(self.wl.cycle):
                latency, _, c = self.op(k, tracer)
                latencies.append(latency)
                counts.update(c)
                k += 1
            if k >= min_cycles * self.wl.cycle and time.perf_counter() - start >= seconds:
                return latencies, counts


def measure_setup() -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    def once() -> float:
        r = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60, check=True)
        return float(r.stdout)

    once()  # compile bytecode untimed
    return statistics.median(once() for _ in range(SETUP_REPS))


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted ``xs``."""
    return xs[max(0, math.ceil(len(xs) * p / 100) - 1)]


def tail(xs: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of sorted ``xs``; see the module docstring."""
    for p in TAIL_LADDER:
        v = percentile(xs, p)
        beyond = sum(x > v for x in xs)
        if beyond >= 10:
            return v, p, beyond
    return xs[-1], 100.0, 0


def run_timed(runner: Runner, seconds: int) -> tuple[dict, dict]:
    wl = runner.wl
    setup = measure_setup()
    tracemalloc.start()
    try:
        peaks = [runner.op(k, mem=True)[1] for k in wl.peak_ops]
    finally:
        tracemalloc.stop()
    latencies, _ = runner.phase(seconds, wl.min_cycles)
    xs = sorted(latencies)
    value, pct, beyond = tail(xs)
    metrics = {"work_per_s": wl.work * len(latencies) / sum(latencies),
               "op_p50_s": statistics.median(latencies),
               "op_tail_s": value,
               "peak_mem_mb": max(peaks) / 1e6,
               "setup_s": setup}
    print(f"{wl.name}: work_per_s = {metrics['work_per_s']:.6g} {wl.work_unit}/s; "
          f"op_p50_s = {metrics['op_p50_s']:.6g} s; op_tail_s = {value:.6g} s "
          f"(p{pct:g}, {beyond} of {len(xs)} samples beyond); "
          f"peak_mem_mb = {metrics['peak_mem_mb']:.6g} MB; setup_s = {setup:.6g} s; "
          f"fail_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} ops)")
    detail = {"op_samples": len(latencies), "op_tail_percentile": pct,
              "op_tail_samples_beyond": beyond,
              "op_latency_s": {f"p{p:g}": percentile(xs, p) for p in TAIL_LADDER[::-1] + (100.0,)},
              "peak_mem_mb_by_kind": [p / 1e6 for p in peaks]}
    return metrics, detail


def run_traced(runner: Runner, seconds: int, workload: str) -> tuple[dict, dict]:
    from tracer import Tracer
    from workloads import COUNT_NAMES

    runner.op(0)  # warm-up
    base, _ = runner.phase(seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, counts = runner.phase(seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(str(OUT / f"spans-{workload}.npz"))
    ops = len(traced)
    metrics = tracer.metrics(ops)
    metrics.update({name: counts[name] / ops for name in COUNT_NAMES})
    metrics["trace.overhead_frac"] = statistics.fmean(traced) / statistics.fmean(base) - 1.0
    detail = {"untraced_ops": len(base), "traced_ops": ops,
              "spans_file": f"perfbench/out/spans-{workload}.npz"}
    return metrics, detail


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, wl) -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((SRC / "cconvex").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    dense = wl.n * wl.m * 8
    return {
        "commit": _git_commit(), "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS, "seed": args.seed,
        "workload": wl.name, "n": wl.n, "m": wl.m, "cost_families": list(wl.families),
        "dense_array_bytes": dense, "calibration_host_caches": CALIBRATION_CACHES,
        "bandwidth_note": (f"one n x m float64 array is {dense / 1e6:.3g} MB; a bandwidth "
                           "measurement needs arrays of at least 4x the last-level cache, so "
                           "no workload here, transform_large included, measures bandwidth"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, tmp)
    runner = Runner(wl)
    if args.trace:
        values, detail = run_traced(runner, args.seconds, wl.name)
    else:
        values, detail = run_timed(runner, args.seconds)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    detail.update(work_unit=wl.work_unit, attempted=runner.attempted, failed=runner.failed,
                  fail_frac=runner.failed / runner.attempted, errors=runner.errors[:10])
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"provenance": provenance(args, wl), "detail": detail}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, result=result), indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
