"""Outcome record shared by the structural-proposition checks."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class Verdict:
    """Outcome of one proposition check.

    ``max_violation`` is the excess beyond the check's documented
    allowance.  ``status`` is ``held`` or ``violated``, judged from it when
    left empty, or ``vacuous`` (nothing qualified) or ``hypothesis_failed``
    (the conclusion was not judged), which need an excess <= 0.  So holds
    <=> max_violation <= 0, and a failed hypothesis is never a violated
    conclusion.  Only a violated verdict keeps its witness.
    """

    check_id: str
    max_violation: float
    witness: Optional[tuple] = None
    notes: str = ""
    status: str = ""

    def __post_init__(self):
        allowed = ("held", "vacuous", "hypothesis_failed") if self.max_violation <= 0.0 \
            else ("violated",)
        status = self.status or allowed[0]
        if status not in allowed:
            raise ValueError(f"status {status!r} is not one of {allowed}, the statuses "
                             f"max_violation={self.max_violation} allows")
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", self.witness if status == "violated" else None)

    @property
    def holds(self) -> bool:
        return self.status != "violated"

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = [float(v) if isinstance(v, float) else int(v) for v in self.witness]
        return {
            "check_id": self.check_id,
            "holds": self.holds,
            "max_violation": float(self.max_violation),
            "witness": w,
            "notes": self.notes,
            "status": self.status,
        }

    def with_id(self, check_id: str) -> "Verdict":
        return replace(self, check_id=check_id)
