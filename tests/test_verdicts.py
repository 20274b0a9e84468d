"""The outcome record of the proposition checks: its status is judged from
the excess or given as a reason the conclusion was not judged, and every
other field follows from it."""

import ast
import math
from pathlib import Path

import pytest

from cconvex.verdicts import Verdict

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NOT_JUDGED = ("vacuous", "hypothesis_failed")


@pytest.mark.parametrize("excess, status", [
    (-1.0, "held"), (0.0, "held"), (-0.0, "held"), (-math.inf, "held"),
    (1e-300, "violated"), (0.5, "violated"), (math.inf, "violated"),
    (math.nan, "violated"),   # NaN is not <= 0
])
def test_status_is_judged_from_the_excess(excess, status):
    v = Verdict("c", excess)
    assert v.status == status
    assert v.holds == (status == "held") == (excess <= 0.0)


@pytest.mark.parametrize("status", ["held", *NOT_JUDGED])
def test_status_given_with_an_excess_it_allows(status):
    v = Verdict("c", 0.0, status=status)
    assert v.status == status and v.holds


@pytest.mark.parametrize("excess, status", [
    (0.0, "PASS"), (0.0, "hypothesis-failed"), (0.5, "unknown"),   # no such status
    (0.0, "violated"), (-1.0, "violated"),                        # nothing exceeds
    (0.5, "held"), (math.nan, "held"),                            # something exceeds
    (0.5, "vacuous"), (0.5, "hypothesis_failed"),
])
def test_unknown_or_contradicting_status_rejected(excess, status):
    with pytest.raises(ValueError, match=f"^status '{status}' is not one of"):
        Verdict("c", excess, status=status)


@pytest.mark.parametrize("excess, status", [(-1.0, ""), (0.0, "held"),
                                            (0.0, "vacuous"), (0.0, "hypothesis_failed")])
def test_only_a_violated_verdict_keeps_its_witness(excess, status):
    assert Verdict("c", excess, (3, 4), status=status).witness is None
    assert Verdict("c", 0.5, (3, 4)).witness == (3, 4)


@pytest.mark.parametrize("excess, status", [(0.5, ""), (0.0, "vacuous")])
def test_with_id_keeps_every_other_field(excess, status):
    v = Verdict("c", excess, (3, 4), "why", status)
    w = v.with_id("d")
    assert w.check_id == "d"
    assert (w.max_violation, w.witness, w.notes, w.status) == \
        (v.max_violation, v.witness, v.notes, v.status)


def test_to_dict_carries_the_status():
    assert Verdict("a", 0.5, (3, 4, 0.25), "broken").to_dict() == {
        "check_id": "a", "holds": False, "max_violation": 0.5, "witness": [3, 4, 0.25],
        "notes": "broken", "status": "violated"}
    assert Verdict("b", 0.0, notes="vacuous: none", status="vacuous").to_dict() == {
        "check_id": "b", "holds": True, "max_violation": 0.0, "witness": None,
        "notes": "vacuous: none", "status": "vacuous"}


def count_names() -> tuple:
    """The benchmark's ``COUNT_NAMES``, read without importing the benchmark."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["COUNT_NAMES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no COUNT_NAMES in {WORKLOADS}")


def test_every_verdict_counter_is_a_status():
    # the benchmark counts verdicts by their status; a renamed status would
    # leave its counter at 0 without an error
    statuses = [name.removeprefix("verdicts.") for name in count_names()
                if name.startswith("verdicts.")]
    assert statuses
    for status in statuses:
        assert Verdict("c", 1.0 if status == "violated" else 0.0, status=status).status == status
