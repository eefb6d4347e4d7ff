"""Dense labeled matrices over radical sums and the relation-checking engine.

Representation dims stay small (a few hundred at most), so storage is dense;
the product loop skips zero entries, which makes ladder-type operators behave
like sparse ones without any extra machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .errors import DimensionMismatchError
from .reports import AlgebraReport, CheckMode, Verdict, Witness
from .scalars import RadicalSum, numeric_eval, radical_values_equal

NU_GRID = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0)


########################################################################
#   Basis labels
########################################################################


@dataclass(frozen=True)
class FockLabel:
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("Fock labels need n >= 0")

    def __str__(self) -> str:
        return f"fock({self.n})"


@dataclass(frozen=True)
class TwoModeLabel:
    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("two-mode labels need n1, n2 >= 0")

    def __str__(self) -> str:
        return f"two({self.n1},{self.n2})"


@dataclass(frozen=True)
class SpinLabel:
    two_j: int
    two_m: int

    def __post_init__(self) -> None:
        if abs(self.two_m) > self.two_j or (self.two_j - self.two_m) % 2 != 0:
            raise ValueError("spin labels need |2m| <= 2j with 2m = 2j (mod 2)")

    @property
    def j(self) -> Fraction:
        return Fraction(self.two_j, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.two_m, 2)

    def __str__(self) -> str:
        return f"spin({self.j},{self.m})"


BasisLabel = Union[FockLabel, TwoModeLabel, SpinLabel]


def fock_basis(dim: int) -> Tuple[FockLabel, ...]:
    return tuple(FockLabel(n) for n in range(dim))


def spin_basis(two_j: int) -> Tuple[SpinLabel, ...]:
    """Spin basis ordered by descending m (m = j first)."""
    return tuple(SpinLabel(two_j, two_j - 2 * i) for i in range(two_j + 1))


########################################################################
#   Operator matrices
########################################################################


class OperatorMatrix:
    __slots__ = ("dim", "basis", "rows", "_nonzeros")

    def __init__(self, basis: Sequence[BasisLabel], rows: Sequence[Sequence[RadicalSum]]):
        basis = tuple(basis)
        if len(set(basis)) != len(basis):
            raise ValueError("basis labels must be pairwise distinct")
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != len(basis) or any(len(row) != len(basis) for row in rows):
            raise ValueError("entries must form a dim x dim array")
        object.__setattr__(self, "dim", len(basis))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_nonzeros", None)

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("OperatorMatrix is immutable")

    @staticmethod
    def zeros(basis: Sequence[BasisLabel]) -> "OperatorMatrix":
        return OperatorMatrix.from_entries(basis, {})

    @staticmethod
    def identity(basis: Sequence[BasisLabel]) -> "OperatorMatrix":
        return OperatorMatrix.diagonal([RadicalSum.one()] * len(basis), basis)

    @staticmethod
    def diagonal(values: Sequence, basis: Sequence[BasisLabel]) -> "OperatorMatrix":
        if len(values) != len(basis):
            raise ValueError("diagonal length must match basis size")
        return OperatorMatrix.from_entries(basis, {(i, i): v for i, v in enumerate(values)})

    @staticmethod
    def from_entries(basis: Sequence[BasisLabel], entries: Dict[Tuple[int, int], RadicalSum]) -> "OperatorMatrix":
        dim = len(basis)
        zero = RadicalSum.zero()
        rows = [[zero] * dim for _ in range(dim)]
        for (i, j), value in entries.items():
            rows[i][j] = RadicalSum.coerce(value)
        return OperatorMatrix(basis, rows)

    def entry(self, i: int, j: int) -> RadicalSum:
        return self.rows[i][j]

    def row_nonzeros(self) -> Tuple[Tuple[Tuple[int, RadicalSum], ...], ...]:
        cached = self._nonzeros
        if cached is None:
            cached = tuple(
                tuple((j, v) for j, v in enumerate(row) if v.terms) for row in self.rows
            )
            object.__setattr__(self, "_nonzeros", cached)
        return cached

    def _require_same_space(self, other: "OperatorMatrix") -> None:
        if self.basis != other.basis:
            raise DimensionMismatchError("operators act on different labeled spaces")

    def _map_nonzeros(self, other: Optional["OperatorMatrix"], combine) -> "OperatorMatrix":
        """Apply an entrywise op touching only nonzero positions of the operands."""
        dim = self.dim
        zero = RadicalSum.zero()
        rows = []
        other_nz = other.row_nonzeros() if other is not None else None
        for i, self_row in enumerate(self.row_nonzeros()):
            row = [zero] * dim
            for j, value in self_row:
                row[j] = value
            if other_nz is not None:
                for j, value in other_nz[i]:
                    row[j] = combine(row[j], value)
            else:
                for j, value in self_row:
                    row[j] = combine(value, None)
            rows.append(tuple(row))
        return OperatorMatrix(self.basis, rows)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_space(other)
        return self._map_nonzeros(other, lambda a, b: a + b)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_space(other)
        return self._map_nonzeros(other, lambda a, b: a - b)

    def __neg__(self) -> "OperatorMatrix":
        return self._map_nonzeros(None, lambda a, _: -a)

    def scale(self, factor) -> "OperatorMatrix":
        factor = RadicalSum.coerce(factor)
        return self._map_nonzeros(None, lambda a, _: factor * a)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_space(other)
        dim = self.dim
        zero = RadicalSum.zero()
        other_nz = other.row_nonzeros()
        rows = []
        for self_row in self.row_nonzeros():
            acc: Dict[int, RadicalSum] = {}
            for k, a_ik in self_row:
                for j, b_kj in other_nz[k]:
                    prod = a_ik * b_kj
                    if j in acc:
                        acc[j] = acc[j] + prod
                    else:
                        acc[j] = prod
            row = [zero] * dim
            for j, v in acc.items():
                row[j] = v
            rows.append(tuple(row))
        return OperatorMatrix(self.basis, rows)

    def adjoint(self) -> "OperatorMatrix":
        dim = self.dim
        zero = RadicalSum.zero()
        rows = [[zero] * dim for _ in range(dim)]
        for i, self_row in enumerate(self.row_nonzeros()):
            for j, value in self_row:
                rows[j][i] = value.conjugate()
        return OperatorMatrix(self.basis, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.basis == other.basis and self.rows == other.rows

    def __hash__(self):
        return hash((self.basis, self.rows))

    def __str__(self) -> str:
        cells = [[str(v) for v in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA."""
    return (a @ b) - (b @ a)


def anticommutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB + BA."""
    return (a @ b) + (b @ a)


def tensor(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product of two Fock-basis operators with two-mode labels.

    The first factor carries the major index, so the result is row-major in
    (n1, n2).
    """
    if not all(isinstance(l, FockLabel) for l in a.basis) or not all(
        isinstance(l, FockLabel) for l in b.basis
    ):
        raise DimensionMismatchError("tensor factors must both carry Fock bases")
    d2 = b.dim
    basis = tuple(TwoModeLabel(la.n, lb.n) for la in a.basis for lb in b.basis)
    entries: Dict[Tuple[int, int], RadicalSum] = {}
    b_nz = b.row_nonzeros()
    for i1, row in enumerate(a.rows):
        for j1, va in enumerate(row):
            if not va.terms:
                continue
            for i2 in range(d2):
                for j2, vb in b_nz[i2]:
                    entries[(i1 * d2 + i2, j1 * d2 + j2)] = va * vb
    return OperatorMatrix.from_entries(basis, entries)


########################################################################
#   Relation checks
########################################################################


class RelationSpec(NamedTuple):
    """One identity to verify: lhs == rhs on the masked basis rows."""

    relation_id: str
    lhs: OperatorMatrix
    rhs: OperatorMatrix
    mask: Optional[Set[int]] = None


def check_relation(
    relation_id: str,
    lhs: OperatorMatrix,
    rhs: OperatorMatrix,
    mask: Optional[Set[int]] = None,
) -> AlgebraReport:
    """Exact entrywise comparison on masked rows, with numeric fallback.

    Entries whose canonical difference is nonempty are re-tested numerically
    per the radicand-merge fallback; the report then carries a caveat and the
    observed residual instead of claiming exactness.
    """
    if lhs.basis != rhs.basis:
        raise DimensionMismatchError("relation sides act on different labeled spaces")
    rows = range(lhs.dim) if mask is None else sorted(mask)
    lhs_nz = lhs.row_nonzeros()
    rhs_nz = rhs.row_nonzeros()
    zero = RadicalSum.zero()
    worst = 0.0
    fallback = False
    for i in rows:
        lrow = dict(lhs_nz[i])
        rrow = dict(rhs_nz[i])
        for j in sorted(lrow.keys() | rrow.keys()):
            le = lrow.get(j, zero)
            re_ = rrow.get(j, zero)
            if le == re_:
                continue
            status, residual = radical_values_equal(le, re_)
            worst = max(worst, residual)
            if status == "different":
                return AlgebraReport(
                    relation_id,
                    CheckMode.MIXED if fallback else CheckMode.EXACT,
                    worst,
                    Verdict.FAIL,
                    witness=Witness(i, j, str(re_), str(le)),
                )
            fallback = True
    if fallback:
        return AlgebraReport(
            relation_id,
            CheckMode.MIXED,
            worst,
            Verdict.PASS_WITH_CAVEAT,
            caveat="numeric-verified: some radicands did not merge",
        )
    return AlgebraReport(relation_id, CheckMode.EXACT, 0.0, Verdict.PASS)


@dataclass(frozen=True)
class Caveat:
    """A known qualification of a relation, keyed by its exact relation id.

    When ``printed_rhs`` is set the relation's printed form (same lhs and
    mask, this rhs) is checked too, and the caveat quotes its first witness.
    """

    text: str
    printed_rhs: Optional[OperatorMatrix] = None


def check_specs(
    specs: Iterable[RelationSpec], caveats: Optional[Dict[str, Caveat]] = None
) -> List[AlgebraReport]:
    """Check every spec; a PASS whose relation id has a caveat becomes PASS_WITH_CAVEAT."""
    reports = []
    for spec in specs:
        report = check_relation(*spec)
        caveat = caveats.get(spec.relation_id) if caveats else None
        if caveat is not None and report.verdict is Verdict.PASS:
            text, witness = caveat.text, None
            if caveat.printed_rhs is not None:
                printed = RelationSpec(spec.relation_id, spec.lhs, caveat.printed_rhs, spec.mask)
                witness = check_relation(*printed).witness
                text = (
                    f"{text} (first witness {witness})"
                    if witness is not None
                    else "printed coefficient unexpectedly passed"
                )
            report = replace(report, verdict=Verdict.PASS_WITH_CAVEAT, caveat=text, witness=witness)
        reports.append(report)
    return reports


def eval_matrix(a: OperatorMatrix, nu: float) -> np.ndarray:
    """Entrywise numeric evaluation; requires nu > -1/2."""
    if nu <= -0.5:
        raise ValueError("numeric evaluation needs nu > -1/2")
    out = np.zeros((a.dim, a.dim), dtype=complex)
    for i, row in enumerate(a.row_nonzeros()):
        for j, value in row:
            out[i, j] = numeric_eval(value, nu)
    return out


def numeric_relation_report(
    spec: RelationSpec, nus: Sequence[float] = NU_GRID, tol: float = 1e-12
) -> AlgebraReport:
    """Frobenius-norm residual of lhs - rhs over a nu grid, masked rows only."""
    rows = list(range(spec.lhs.dim)) if spec.mask is None else sorted(spec.mask)
    worst = 0.0
    ok = True
    for nu in nus:
        le = eval_matrix(spec.lhs, nu)[rows, :]
        re_ = eval_matrix(spec.rhs, nu)[rows, :]
        residual = float(np.linalg.norm(le - re_))
        worst = max(worst, residual)
        if residual > tol * (1.0 + float(np.linalg.norm(le))):
            ok = False
    return AlgebraReport(
        f"{spec.relation_id} @ numeric-grid",
        CheckMode.NUMERIC,
        worst,
        Verdict.PASS if ok else Verdict.FAIL,
        witness=None if ok else Witness(-1, -1, "residual <= 1e-12*(1+|lhs|)", f"residual {worst}"),
    )
