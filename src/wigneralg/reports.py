"""Structured outcomes of relation checks, and the base of every value type.

A `Witness` is a plain record (a ``NamedTuple``); an `AlgebraReport` is a
`Value`.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Optional

NAN = float("nan")  # the one NaN residual: a NaN equals only itself


class Value:
    """Base of the immutable value types: basis labels, scalars, matrices, reports.

    A subclass lists its fields in ``__slots__`` (the public ones) or in an
    explicit ``_fields``, and its constructor, which runs every check, stores
    them with ``object.__setattr__``.  Then assignment and deletion raise
    AttributeError; a value equals only a value of its own type with equal
    fields, so no label equals a tuple; it hashes as the tuple of its fields,
    so a label's hash, built from ints, never depends on the hash seed; it
    pickles and copies through its constructor; and it prints as
    ``Type(field=...)``.  A subclass that defines ``__eq__`` must restate
    ``__hash__``, which Python drops.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("_fields") or tuple(f for f in cls.__slots__ if not f.startswith("_"))
        get = attrgetter(*fields)
        cls._fields = fields
        # attrgetter returns a bare value for one name: the field tuple wraps it
        cls._astuple = staticmethod(get if len(fields) > 1 else lambda value: (get(value),))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple(self) == self._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __reduce__(self):
        return type(self), self._astuple(self)

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._astuple(self))
        return f"{type(self).__name__}(" + ", ".join(f"{name}={value!r}" for name, value in pairs) + ")"


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


class AlgebraReport(Value):
    """Outcome of one relation check.

    Construction raises ValueError for a FAIL without a witness and for an
    exact PASS or PASS_WITH_CAVEAT whose residual is not 0.  It stores a NaN
    residual as :data:`NAN`, so equal failing reports are equal, also after
    pickling.
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
        object.__setattr__(self, "max_residual", NAN if max_residual != max_residual else max_residual)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "caveat", caveat)
        object.__setattr__(self, "witness", witness)

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
            relation_id, CheckMode.EXACT, NAN, Verdict.FAIL, caveat=caveat, witness=witness
        )
    verdict = Verdict.PASS if caveat is None else Verdict.PASS_WITH_CAVEAT
    return AlgebraReport(relation_id, CheckMode.EXACT, 0.0, verdict, caveat=caveat)
