"""Structured outcomes of relation checks."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    PASS_WITH_CAVEAT = "pass-with-caveat"


class CheckMode(str, Enum):
    EXACT = "exact"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Witness:
    """Location and values of the first disagreeing entry.

    For scalar (non-matrix) checks row/col hold the integer arguments of the
    identity instead of matrix indices.
    """

    row: int
    col: int
    expected: str
    actual: str


@dataclass(frozen=True)
class AlgebraReport:
    relation_id: str
    mode: CheckMode
    max_residual: float
    verdict: Verdict
    caveat: Optional[str] = None
    witness: Optional[Witness] = None

    def __post_init__(self) -> None:
        if self.verdict is Verdict.FAIL and self.witness is None:
            raise ValueError(f"{self.relation_id}: a failing report needs a witness")
        if (
            self.verdict is not Verdict.FAIL
            and self.mode is CheckMode.EXACT
            and self.max_residual != 0.0
        ):
            raise ValueError(f"{self.relation_id}: exact passes must carry residual 0")

    @property
    def passed(self) -> bool:
        return self.verdict is not Verdict.FAIL

    def as_dict(self) -> dict:
        out = {
            "relation_id": self.relation_id,
            "mode": self.mode.value,
            "max_residual": self.max_residual,
            "verdict": self.verdict.value,
        }
        if self.caveat is not None:
            out["caveat"] = self.caveat
        if self.witness is not None:
            out["witness"] = {
                "row": self.witness.row,
                "col": self.witness.col,
                "expected": self.witness.expected,
                "actual": self.witness.actual,
            }
        return out


def exact_report(
    relation_id: str, witness: Optional[Witness] = None, caveat: Optional[str] = None
) -> AlgebraReport:
    """Report of an exact check: FAIL (residual nan) with a witness, else PASS or PASS_WITH_CAVEAT."""
    if witness is not None:
        return AlgebraReport(
            relation_id, CheckMode.EXACT, float("nan"), Verdict.FAIL, caveat=caveat, witness=witness
        )
    verdict = Verdict.PASS if caveat is None else Verdict.PASS_WITH_CAVEAT
    return AlgebraReport(relation_id, CheckMode.EXACT, 0.0, verdict, caveat=caveat)
