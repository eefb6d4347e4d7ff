"""Sparse labeled matrices over radical sums and the relation-checking engine.

An `OperatorMatrix` stores only its nonzero entries, row by row in column
order.  The operators built here (ladder, number and parity operators and
their Kronecker products) have a few nonzeros per row, so products, sums,
relation checks and exports cost O(nnz), not O(dim^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .errors import DimensionMismatchError
from .reports import AlgebraReport, CheckMode, Verdict, Witness
from .scalars import R_ZERO, RadicalSum, numeric_eval, radical_values_equal

if TYPE_CHECKING:
    import numpy as np

NU_GRID = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0)
# Largest nu the numeric grid and the CLI's --nu accept: the grid's bound
# 1e-12*(1+|lhs|) grows with nu, and from nu = 1e12 it passes the truncation
# defect -[dim] it must catch; far above it CSV cells overflow to inf and nan.
MAX_GRID_NU = 1e6


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


class _KernelRows(tuple):
    """Rows an operation below built from canonical operands: trusted by the constructor."""

    __slots__ = ()


class OperatorMatrix:
    """Square matrix on a labeled basis, stored as its nonzero entries.

    Row ``i`` is a tuple of ``(column, value)`` pairs with strictly increasing
    columns and no zero value, so the stored form is canonical and equality
    and hashing compare it directly.

    The constructor validates that form, and the basis, for rows from
    outside (the public constructor, ``from_entries``, deserialization).
    The operations of this module (``@``, the bracket kernel behind
    ``commutator`` and ``anticommutator``, ``+``, ``-``, ``scale``,
    ``adjoint``, ``tensor``) keep the form by construction from canonical
    operands on a validated basis, so they pass their rows as
    ``_KernelRows`` and the constructor stores them without re-checking.
    """

    __slots__ = ("dim", "basis", "_rows")

    def __init__(self, basis: Sequence[BasisLabel], rows: Sequence[Sequence[Tuple[int, RadicalSum]]]):
        if type(rows) is _KernelRows:
            dim = len(basis)
            rows = tuple(rows)  # a plain tuple, so row_nonzeros() is never trusted input
        else:
            basis = tuple(basis)
            dim = len(basis)
            if len(set(basis)) != dim:
                raise ValueError("basis labels must be pairwise distinct")
            rows = tuple(tuple(map(tuple, row)) for row in rows)
            if len(rows) != dim:
                raise ValueError("need exactly one row per basis label")
            for row in rows:
                last = -1
                for j, value in row:
                    if not last < j < dim:
                        raise ValueError("row columns must be in range and strictly increasing")
                    if not value.terms:
                        raise ValueError("rows must not store zero values")
                    last = j
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_rows", rows)

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
        """Matrix with the given (row, col) entries; absent and zero entries are zero."""
        dim = len(basis)
        rows: List[Dict[int, RadicalSum]] = [{} for _ in range(dim)]
        for (i, j), value in entries.items():
            if not 0 <= i < dim:
                raise ValueError("entry row out of range")
            value = RadicalSum.coerce(value)
            if value.terms:
                rows[i][j] = value
        return OperatorMatrix(basis, [sorted(row.items()) for row in rows])

    @property
    def rows(self) -> Tuple[Tuple[RadicalSum, ...], ...]:
        """Dense dim x dim view, zeros included, built on each access."""
        zero = RadicalSum.zero()
        dense = []
        for row in self._rows:
            cells = [zero] * self.dim
            for j, value in row:
                cells[j] = value
            dense.append(tuple(cells))
        return tuple(dense)

    def entry(self, i: int, j: int) -> RadicalSum:
        return dict(self._rows[i]).get(j, RadicalSum.zero())

    def row_nonzeros(self) -> Tuple[Tuple[Tuple[int, RadicalSum], ...], ...]:
        return self._rows

    def _require_same_space(self, other: "OperatorMatrix") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise DimensionMismatchError("operators act on different labeled spaces")

    def _merge(self, other: "OperatorMatrix", combine, cancels: bool) -> "OperatorMatrix":
        """Row-by-row merge: combine(self_value, other_value) where other has an entry.

        With ``cancels`` (subtraction), equal canonical rows merge to an empty row.
        """
        self._require_same_space(other)
        rows = []
        for self_row, other_row in zip(self._rows, other._rows):
            if not other_row:
                rows.append(self_row)
            elif cancels and self_row == other_row:
                rows.append(())
            else:
                acc = dict(self_row)
                for j, value in other_row:
                    acc[j] = combine(acc.get(j, R_ZERO), value)
                rows.append(tuple([(j, v) for j, v in sorted(acc.items()) if v.terms]))
        return OperatorMatrix(self.basis, _KernelRows(rows))

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._merge(other, RadicalSum.__add__, False)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._merge(other, RadicalSum.__sub__, True)

    def __neg__(self) -> "OperatorMatrix":
        rows = (tuple([(j, -v) for j, v in row]) for row in self._rows)
        return OperatorMatrix(self.basis, _KernelRows(rows))

    def scale(self, factor) -> "OperatorMatrix":
        factor = RadicalSum.coerce(factor)
        rows = (tuple([(j, p) for j, v in row if (p := factor * v).terms]) for row in self._rows)
        return OperatorMatrix(self.basis, _KernelRows(rows))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return _products(((self, other, False),))

    def adjoint(self) -> "OperatorMatrix":
        rows: List[List[Tuple[int, RadicalSum]]] = [[] for _ in range(self.dim)]
        for i, row in enumerate(self._rows):
            for j, value in row:
                rows[j].append((i, value.conjugate()))
        return OperatorMatrix(self.basis, _KernelRows(map(tuple, rows)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.basis == other.basis and self._rows == other._rows

    def __hash__(self):
        return hash((self.basis, self._rows))

    def __str__(self) -> str:
        cells = [[str(v) for v in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def _products(terms: Sequence[Tuple[OperatorMatrix, OperatorMatrix, bool]]) -> OperatorMatrix:
    """The sum of X @ Y, negated where asked, over ``(X, Y, negate)`` terms.

    Every product x_ik * y_kj is added into one dict per row, so a bracket
    builds no intermediate matrix and needs no merge pass.
    """
    first = terms[0][0]
    for x, y, _ in terms:
        first._require_same_space(x)
        first._require_same_space(y)
    rows = []
    for i in range(first.dim):
        acc: Dict[int, RadicalSum] = {}
        for x, y, negate in terms:
            y_rows = y._rows
            for k, x_ik in x._rows[i]:
                for j, y_kj in y_rows[k]:
                    prod = x_ik * y_kj
                    if j in acc:
                        acc[j] = acc[j] - prod if negate else acc[j] + prod
                    else:
                        acc[j] = -prod if negate else prod
        rows.append(tuple([(j, v) for j, v in sorted(acc.items()) if v.terms]))
    return OperatorMatrix(first.basis, _KernelRows(rows))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA."""
    return _products(((a, b, False), (b, a, True)))


def anticommutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB + BA."""
    return _products(((a, b, False), (b, a, False)))


def tensor(a: OperatorMatrix, b: OperatorMatrix, *, _basis=None) -> OperatorMatrix:
    """Kronecker product of two Fock-basis operators with two-mode labels.

    The first factor carries the major index, so the result is row-major in
    (n1, n2).  ``_basis`` is an earlier product's basis on the same factor
    bases, passed so that products share one basis object.
    """
    if not all(isinstance(l, FockLabel) for l in a.basis) or not all(
        isinstance(l, FockLabel) for l in b.basis
    ):
        raise DimensionMismatchError("tensor factors must both carry Fock bases")
    d2 = b.dim
    if _basis is None:
        _basis = tuple(TwoModeLabel(la.n, lb.n) for la in a.basis for lb in b.basis)
    basis = _basis
    b_rows = b.row_nonzeros()
    rows = []
    for a_row in a.row_nonzeros():
        for b_row in b_rows:
            row = []
            for j1, va in a_row:
                for j2, vb in b_row:
                    value = va * vb
                    if value.terms:
                        row.append((j1 * d2 + j2, value))
            rows.append(tuple(row))
    # distinct Fock labels give distinct two-mode labels
    return OperatorMatrix(basis, _KernelRows(rows))


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
    """Exact entrywise comparison on masked rows.

    Canonical forms are complete, so the first entry whose canonical forms
    differ fails the relation; the report carries that entry as its witness
    and the residual of :func:`radical_values_equal` at it.
    """
    if lhs.basis is not rhs.basis and lhs.basis != rhs.basis:
        raise DimensionMismatchError("relation sides act on different labeled spaces")
    rows = range(lhs.dim) if mask is None else sorted(mask)
    lhs_nz = lhs.row_nonzeros()
    rhs_nz = rhs.row_nonzeros()
    zero = RadicalSum.zero()
    for i in rows:
        if lhs_nz[i] == rhs_nz[i]:  # canonical rows: equal entry by entry
            continue
        lrow = dict(lhs_nz[i])
        rrow = dict(rhs_nz[i])
        for j in sorted(lrow.keys() | rrow.keys()):
            le = lrow.get(j, zero)
            re_ = rrow.get(j, zero)
            if le == re_:
                continue
            _, residual = radical_values_equal(le, re_)
            return AlgebraReport(
                relation_id, CheckMode.EXACT, residual, Verdict.FAIL, witness=Witness(i, j, str(re_), str(le))
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


def _require_grid(nus: Sequence[float]) -> None:
    if not nus:
        raise ValueError("the numeric grid needs at least one nu")
    for nu in nus:
        if not (math.isfinite(nu) and nu > -0.5):
            raise ValueError(f"numeric evaluation needs finite nu > -1/2, got {nu}")


def eval_matrix(a: OperatorMatrix, nu: float) -> np.ndarray:
    """Dense entrywise numeric evaluation; requires a finite nu > -1/2.

    Public API and the dense reference the tests hold the numeric grid to;
    the audits themselves evaluate stored entries only and never load numpy.
    """
    import numpy as np  # only this dense view needs numpy; keeps start-up light

    _require_grid((nu,))
    out = np.zeros((a.dim, a.dim), dtype=complex)
    for i, row in enumerate(a.row_nonzeros()):
        for j, value in row:
            out[i, j] = numeric_eval(value, nu)
    return out


def numeric_relation_report(
    spec: RelationSpec, nus: Sequence[float] = NU_GRID, tol: float = 1e-12, *, memo: Optional[dict] = None
) -> AlgebraReport:
    """Frobenius-norm residual of lhs - rhs over a nu grid, masked rows only.

    The grid must be nonempty, each nu finite, > -1/2 and <= MAX_GRID_NU.
    Each distinct stored entry is evaluated once on the whole grid, into
    ``memo`` (entry -> values on ``nus``, shareable by reports on one grid);
    the residual at each nu sums |lhs - rhs|^2 over the stored columns, row by
    row.
    """
    _require_grid(nus)
    if max(nus) > MAX_GRID_NU:
        raise ValueError(f"the numeric grid needs nu <= {MAX_GRID_NU:g}, got {max(nus)}")
    memo = {} if memo is None else memo

    def on_grid(row):
        for _, value in row:
            if value not in memo:
                memo[value] = tuple([numeric_eval(value, nu) for nu in nus])
        return [(j, memo[value]) for j, value in row]

    rows = range(spec.lhs.dim) if spec.mask is None else sorted(spec.mask)
    lhs_nz, rhs_nz = spec.lhs.row_nonzeros(), spec.rhs.row_nonzeros()
    grid = range(len(nus))
    diff_sq = [0.0] * len(nus)
    lhs_sq = [0.0] * len(nus)
    for i in rows:
        lrow, rrow = lhs_nz[i], rhs_nz[i]
        if not lrow and not rrow:
            continue
        left_row = on_grid(lrow)
        # equal canonical rows evaluate alike and add only exact zeros to diff_sq
        if lrow != rrow:
            right_row = on_grid(rrow)
            for k in grid:
                left = {j: values[k] for j, values in left_row}
                right = {j: values[k] for j, values in right_row}
                for j in left.keys() | right.keys():
                    d = left.get(j, 0j) - right.get(j, 0j)
                    diff_sq[k] += d.real * d.real + d.imag * d.imag
        for k, column in enumerate(zip(*[values for _, values in left_row])):
            lhs_sq[k] += sum([z.real * z.real + z.imag * z.imag for z in column])
    worst = 0.0
    ok = True
    for k in grid:
        residual = math.sqrt(diff_sq[k])
        worst = max(worst, residual)
        if residual > tol * (1.0 + math.sqrt(lhs_sq[k])):
            ok = False
    return AlgebraReport(
        f"{spec.relation_id} @ numeric-grid",
        CheckMode.NUMERIC,
        worst,
        Verdict.PASS if ok else Verdict.FAIL,
        witness=None if ok else Witness(-1, -1, "residual <= 1e-12*(1+|lhs|)", f"residual {worst}"),
    )
