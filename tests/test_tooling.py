"""The test configuration and the benchmark records: a failing property
test must report its falsifying example and leave the session running, and
every BENCH_<k>.json must parse, carry its own number and claim only what
BENCHMARK.json measures."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(k):
    assert k < 5


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY_THEN_PASSING)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert out.stdout.rstrip().splitlines()[-1].startswith("1 failed, 1 passed"), out.stdout


def test_bench_records_carry_their_number_and_a_measured_claim():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    records = {int(path.stem.removeprefix("BENCH_")): json.loads(path.read_text())
               for path in ROOT.glob("BENCH_*.json")}
    assert len(records) >= 16
    for k, record in records.items():
        assert record["bench"] == k, k
        if record.get("claim"):
            claim = record["claim"]
            assert claim["workload"] in workloads and claim["metric"] in metrics, k
    assert records[24]["claim"]
