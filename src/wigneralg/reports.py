"""Structured outcomes of relation checks.

A `Witness` is a plain record (a ``NamedTuple``).  An `AlgebraReport` is an
immutable value type: a slotted class whose constructor checks the report
and whose ``__setattr__`` raises, so a report is equal only to a report.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    PASS_WITH_CAVEAT = "pass-with-caveat"


class CheckMode(str, Enum):
    EXACT = "exact"
    NUMERIC = "numeric"


class Witness(NamedTuple):
    """Location and values of the first disagreeing entry.

    For scalar (non-matrix) checks row/col hold the integer arguments of the
    identity instead of matrix indices.
    """

    row: int
    col: int
    expected: str
    actual: str


class AlgebraReport:
    """Outcome of one relation check.

    Construction raises ValueError for a FAIL without a witness and for an
    exact PASS or PASS_WITH_CAVEAT whose residual is not 0.
    """

    __slots__ = ("relation_id", "mode", "max_residual", "verdict", "caveat", "witness")

    def __init__(
        self,
        relation_id: str,
        mode: CheckMode,
        max_residual: float,
        verdict: Verdict,
        caveat: Optional[str] = None,
        witness: Optional[Witness] = None,
    ) -> None:
        if verdict is Verdict.FAIL and witness is None:
            raise ValueError(f"{relation_id}: a failing report needs a witness")
        if verdict is not Verdict.FAIL and mode is CheckMode.EXACT and max_residual != 0.0:
            raise ValueError(f"{relation_id}: exact passes must carry residual 0")
        object.__setattr__(self, "relation_id", relation_id)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "max_residual", max_residual)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "caveat", caveat)
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, name, value=None):  # immutable value type
        raise AttributeError("AlgebraReport is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return (self.relation_id, self.mode, self.max_residual, self.verdict, self.caveat, self.witness)

    def __eq__(self, other) -> bool:
        if type(other) is not AlgebraReport:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return AlgebraReport, self._key()

    def __repr__(self) -> str:
        return (
            f"AlgebraReport(relation_id={self.relation_id!r}, mode={self.mode!r}, "
            f"max_residual={self.max_residual!r}, verdict={self.verdict!r}, "
            f"caveat={self.caveat!r}, witness={self.witness!r})"
        )

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
