"""Smoke test of the benchmark runner: every workload, both modes, checks on.

    python3 perfbench/smoke.py

Runs ``run.py`` for each workload of ``BENCHMARK.json`` with ``--seconds 1``
and ``--trace`` 0 and 1, and asserts that the last line is a result with
exactly the contract's keys, that every op passed its output checks, and that
the metrics are exactly the listed ones with their units.  Then it copies
``BENCHMARK.json`` and the benchmark's files, without ``src/``, into a
scratch directory and asserts that the runner fails there without printing
a result.  Takes about two minutes; the file name keeps it out of pytest's
default collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int):
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    section = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{label}: metric names or units differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"
        if not trace:
            assert m["value"] > 0, f"{label}: end-to-end metric {name} is {m['value']}"
    print(f"ok  {label}: attempted={result['attempted']}")


def check_bare_directory(spec: dict):
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    assert proc.returncode != 0, "runner succeeded without the program's sources"
    assert '"correct"' not in proc.stdout, "runner printed a result without the program"
    shutil.rmtree(bare)
    print("ok  bare directory: runner fails without printing a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
