"""Banded labeled matrices over radical sums and the relation-checking engine.

An `OperatorMatrix` stores its nonzero diagonals ("bands"), one tuple per
offset.  The operators built here (ladder, number and parity operators, the
spin generators and their Kronecker products) are weighted shifts with one
or two bands, so products, sums, relation checks and exports cost
O(bands * dim), not O(dim^2).  Each operation memoizes its scalar results
by the ids of their operand objects.  Products and brackets share one memo
for the length of the relation-set spec function (one decorated with
:func:`_memo_scope`) they run in, or of their own call outside one; the
other operations keep theirs for one call.  No memo outlives the call that
made it.  Only this module reads bands: sub-blocks, such as a truncated
mode or a fixed-2j block, are cut by :func:`_block`.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
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


class _Bands(dict):
    """Offset -> band, built canonical by an operation below: stored without checks."""

    __slots__ = ()


def _kept(acc: Dict[int, Sequence[RadicalSum]]) -> _Bands:
    """The bands of ``acc`` in offset order, zero cells as R_ZERO, all-zero bands dropped."""
    return _Bands(
        (k, tuple([v if v.terms else R_ZERO for v in acc[k]])) for k in sorted(acc) if any(v.terms for v in acc[k])
    )


def _entrywise(combine, dim: int, left: Dict[int, tuple], right: Dict[int, tuple]) -> _Bands:
    """combine(left entry, right entry) on every offset of either side.

    Computed once per call for each distinct pair of entry objects: ``R``
    holds only R_ONE and R_MINUS_ONE, and a tensor factor repeats its entries.
    """
    memo: Dict[Tuple[int, int], RadicalSum] = {}
    zero_band = (R_ZERO,) * dim
    acc = {}
    for k in left.keys() | right.keys():
        acc[k] = values = []
        for v, w in zip(left.get(k, zero_band), right.get(k, zero_band)):
            key = (id(v), id(w))
            u = memo.get(key)
            if u is None:
                u = memo[key] = combine(v, w)
            values.append(u)
    return _kept(acc)


class OperatorMatrix:
    """Square matrix on a labeled basis, stored as its nonzero diagonals.

    ``_bands`` maps an offset ``k`` to a band: a tuple of length ``dim``
    whose entry ``i`` holds ``X[i, i+k]``.  Empty and out-of-range cells hold
    ``R_ZERO`` and no band is all zero, so the stored form is canonical and
    equality and hashing compare it directly.

    The constructor validates its rows, and the basis, for input from
    outside (the public constructor, ``from_entries``, deserialization),
    and keeps only the bands they convert to.  The operations of this module
    (``@``, the bracket kernel behind ``commutator`` and ``anticommutator``,
    ``+``, ``-``, ``scale``, ``adjoint``, ``tensor``) build canonical bands
    from canonical operands and pass them as ``_Bands``, stored unchecked.
    They memoize scalar results by operand ids within one call, or, for
    products and brackets inside a relation-set spec function, within that
    spec list (see :func:`_memo_scope`).  Nothing is cached on a matrix:
    ``rows`` and ``row_nonzeros()`` are derived on each call.
    """

    __slots__ = ("dim", "basis", "_bands")

    def __init__(self, basis: Sequence[BasisLabel], rows: Sequence[Sequence[Tuple[int, RadicalSum]]]):
        if type(rows) is _Bands:
            dim, bands = len(basis), rows
        else:
            basis = tuple(basis)
            dim = len(basis)
            if len(set(basis)) != dim:
                raise ValueError("basis labels must be pairwise distinct")
            if len(rows) != dim:
                raise ValueError("need exactly one row per basis label")
            cells: Dict[int, List[RadicalSum]] = {}
            for i, row in enumerate(rows):
                last = -1
                for j, value in row:
                    if not last < j < dim:
                        raise ValueError("row columns must be in range and strictly increasing")
                    if not value.terms:
                        raise ValueError("rows must not store zero values")
                    cells.setdefault(j - i, [R_ZERO] * dim)[i] = value
                    last = j
            bands = _kept(cells)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_bands", bands)

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
        dim = self.dim
        dense = [[R_ZERO] * dim for _ in range(dim)]
        for k, band in self._bands.items():
            for i in range(max(0, -k), min(dim, dim - k)):
                dense[i][i + k] = band[i]
        return tuple(map(tuple, dense))

    def entry(self, i: int, j: int) -> RadicalSum:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError("entry out of range")
        band = self._bands.get(j - i)
        return R_ZERO if band is None else band[i]

    def row_nonzeros(self) -> Tuple[Tuple[Tuple[int, RadicalSum], ...], ...]:
        """Each row's ``(column, value)`` pairs, columns increasing, zeros left out; built on each call."""
        rows: List[List[Tuple[int, RadicalSum]]] = [[] for _ in range(self.dim)]
        for k in sorted(self._bands):
            for i, value in enumerate(self._bands[k]):
                if value.terms:
                    rows[i].append((i + k, value))
        return tuple(map(tuple, rows))

    def _require_same_space(self, other: "OperatorMatrix") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise DimensionMismatchError("operators act on different labeled spaces")

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_space(other)
        return OperatorMatrix(self.basis, _entrywise(RadicalSum.__add__, self.dim, self._bands, other._bands))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._require_same_space(other)
        return OperatorMatrix(self.basis, _entrywise(RadicalSum.__sub__, self.dim, self._bands, other._bands))

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, _entrywise(lambda v, _: -v, self.dim, self._bands, {}))

    def scale(self, factor) -> "OperatorMatrix":
        factor = RadicalSum.coerce(factor)
        return OperatorMatrix(self.basis, _entrywise(lambda v, _: factor * v, self.dim, self._bands, {}))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return _products(((self, other, False),))

    def adjoint(self) -> "OperatorMatrix":
        # band k's entry i, X[i, i+k], moves to entry i+k of band -k: a rotation by k
        conj = _entrywise(lambda v, _: v.conjugate(), self.dim, self._bands, {})
        return OperatorMatrix(self.basis, _Bands((-k, conj[k][-k:] + conj[k][:-k]) for k in reversed(conj)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.basis == other.basis and self._bands == other._bands

    def __hash__(self):
        return hash((self.basis, tuple(sorted(self._bands.items()))))

    def __str__(self) -> str:
        cells = [[str(v) for v in row] for row in self.rows]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


class _Memos:
    """The product and sum memos of ``_products``, for one relation-set spec list or one call.

    Keys are entry ids, so every entry a key names must outlive the memo:
    CPython reuses a freed object's id, which would return another pair's
    product.  Products and sums stay alive as memo values; ``keep`` holds
    the bands of every operand, which may be a temporary of the spec list.
    """

    __slots__ = ("products", "sums", "keep")

    def __init__(self) -> None:
        self.products: Dict[Tuple[int, int], RadicalSum] = {}
        self.sums: Dict[Tuple[int, int, bool], RadicalSum] = {}
        self.keep: List[Dict[int, tuple]] = []


# the memos of the relation-set spec function running in this thread, if any
_scope: ContextVar[Optional[_Memos]] = ContextVar("wigneralg_memo_scope", default=None)


def _memo_scope(spec_function):
    """Run ``spec_function`` with one set of ``_products`` memos for all its products.

    The relations of one set bracket the same few operators, so their
    scalar products repeat across specs.  The memos are dropped when the
    call returns or raises.
    """

    @functools.wraps(spec_function)
    def scoped(*args, **kwargs):
        token = _scope.set(_Memos())
        try:
            return spec_function(*args, **kwargs)
        finally:
            _scope.reset(token)

    return scoped


def _products(terms: Sequence[Tuple[OperatorMatrix, OperatorMatrix, bool]]) -> OperatorMatrix:
    """The sum of X @ Y, negated where asked, over ``(X, Y, negate)`` terms.

    Band k of X and band l of Y add ``X_k[i] * Y_l[i+k]`` into entry i of
    band k+l, so a bracket builds no intermediate matrix.  Each product is
    computed once for its unordered pair of entry objects (canonical forms
    make x*y and y*x one form), and each sum once for its two operand
    objects: once per relation-set spec list inside :func:`_memo_scope`,
    or once per call outside one.  The memos keep every operand's bands
    alive so that no key's id can be reused.
    """
    first = terms[0][0]
    memos = _scope.get() or _Memos()
    for x, y, _ in terms:
        first._require_same_space(x)
        first._require_same_space(y)
        memos.keep += (x._bands, y._bands)
    dim, zero = first.dim, R_ZERO
    products, sums = memos.products, memos.sums  # sums: cur -/+ product, as the products repeat
    acc: Dict[int, List[RadicalSum]] = {}
    for x, y, negate in terms:
        for k, x_band in x._bands.items():
            for l, y_band in y._bands.items():
                m = k + l
                lo, hi = max(0, -k, -m), min(dim, dim - k, dim - m)
                out = acc.setdefault(m, [zero] * dim)
                for i, x_i, y_i in zip(range(lo, hi), x_band[lo:hi], y_band[lo + k : hi + k]):
                    if x_i is zero or y_i is zero:
                        continue
                    a, b = id(x_i), id(y_i)
                    key = (a, b) if a < b else (b, a)
                    prod = products.get(key) or products.setdefault(key, x_i * y_i)
                    cur = out[i]
                    if cur is zero and not negate:
                        out[i] = prod
                    else:
                        key = (id(cur), id(prod), negate)
                        out[i] = sums.get(key) or sums.setdefault(key, cur - prod if negate else cur + prod)
    return OperatorMatrix(first.basis, _kept(acc))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA."""
    return _products(((a, b, False), (b, a, True)))


def anticommutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB + BA."""
    return _products(((a, b, False), (b, a, False)))


def tensor(a: OperatorMatrix, b: OperatorMatrix, *, _basis=None) -> OperatorMatrix:
    """Kronecker product of two Fock-basis operators with two-mode labels.

    The first factor carries the major index, so the result is row-major in
    (n1, n2) and bands k1 of a and k2 of b fill band k1*d2 + k2.
    ``_basis`` is an earlier product's basis on the same factor bases, passed
    so that products share one basis object.
    """
    if not all(isinstance(label, FockLabel) for label in a.basis + b.basis):
        raise DimensionMismatchError("tensor factors must both carry Fock bases")
    d1, d2 = a.dim, b.dim
    if _basis is None:
        _basis = tuple(TwoModeLabel(la.n, lb.n) for la in a.basis for lb in b.basis)
    acc: Dict[int, List[RadicalSum]] = {}
    for k1, a_band in a._bands.items():
        for k2, b_band in b._bands.items():
            # (k1, k2) and (k1 + 1, k2 - d2) share a band but fill disjoint cells
            out = acc.setdefault(k1 * d2 + k2, [R_ZERO] * (d1 * d2))
            for i1 in range(max(0, -k1), min(d1, d1 - k1)):
                va = a_band[i1]
                if va is not R_ZERO:
                    for i2 in range(max(0, -k2), min(d2, d2 - k2)):
                        if b_band[i2] is not R_ZERO:
                            out[i1 * d2 + i2] = va * b_band[i2]
    # distinct Fock labels give distinct two-mode labels
    return OperatorMatrix(_basis, _kept(acc))


def _block(
    op: OperatorMatrix, states: Sequence[int], basis: Sequence[BasisLabel]
) -> Tuple[OperatorMatrix, Optional[Tuple[int, int]]]:
    """``op`` restricted to the basis states ``states``, on ``basis``, holding ``op``'s entry objects.

    Block entry (b, c) is ``op[states[b], states[c]]``.  Also returns the
    first cell (row, column) of ``op``, in row-major order, that maps one of
    ``states`` to a state outside them, or None if span(states) is invariant.
    """
    index = {state: b for b, state in enumerate(states)}
    cut: Dict[int, List[RadicalSum]] = {}
    leaks = []
    for k, band in op._bands.items():
        for b, state in enumerate(states):
            # row ``state`` holds op[state, state + k]; column ``state`` holds op[state - k, state]
            c = index.get(state + k)
            if c is not None:
                cut.setdefault(c - b, [R_ZERO] * len(states))[b] = band[state]
            row = state - k
            if 0 <= row < op.dim and row not in index and band[row] is not R_ZERO:
                leaks.append((row, state))
    return OperatorMatrix(basis, _kept(cut)), min(leaks, default=None)


########################################################################
#   Relation checks
########################################################################


class RelationSpec(NamedTuple):
    """One identity to verify: lhs == rhs on the masked basis rows."""

    relation_id: str
    lhs: OperatorMatrix
    rhs: OperatorMatrix
    mask: Optional[Set[int]] = None


def _masked_rows(dim: int, mask: Optional[Set[int]]) -> Sequence[int]:
    """The rows a relation is checked on, increasing: every row, or the mask's; its ends must be rows."""
    rows = range(dim) if mask is None else sorted(mask)
    if rows and not (0 <= rows[0] and rows[-1] < dim):
        raise ValueError(f"mask row {next(i for i in rows if not 0 <= i < dim)} is outside the rows 0..{dim - 1}")
    return rows


def check_relation(
    relation_id: str, lhs: OperatorMatrix, rhs: OperatorMatrix, mask: Optional[Set[int]] = None
) -> AlgebraReport:
    """Exact entrywise comparison on masked rows.

    Canonical forms are complete, so the first entry, in row-major order,
    whose canonical forms differ fails the relation; the report carries that
    entry as its witness and the residual of :func:`radical_values_equal` at
    it.  Equal bands are skipped whole; of the first unequal masked row of
    each other band, the lowest row, then the lowest offset, is the witness.
    """
    if lhs.basis is not rhs.basis and lhs.basis != rhs.basis:
        raise DimensionMismatchError("relation sides act on different labeled spaces")
    rows = _masked_rows(lhs.dim, mask)
    zero_band = (R_ZERO,) * lhs.dim
    firsts = []  # (row, offset, lhs entry, rhs entry) of each unequal band's first unequal masked row
    for k in lhs._bands.keys() | rhs._bands.keys():
        left, right = lhs._bands.get(k, zero_band), rhs._bands.get(k, zero_band)
        i = None if left == right else next((i for i in rows if left[i] != right[i]), None)
        if i is not None:
            firsts.append((i, k, left[i], right[i]))
    if not firsts:
        return AlgebraReport(relation_id, CheckMode.EXACT, 0.0, Verdict.PASS)
    i, k, le, re_ = min(firsts, key=lambda first: first[:2])
    _, residual = radical_values_equal(le, re_)
    return AlgebraReport(
        relation_id, CheckMode.EXACT, residual, Verdict.FAIL, witness=Witness(i, i + k, str(re_), str(le))
    )


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
    try:
        import numpy as np  # only this dense view needs numpy; keeps start-up light
    except ImportError as exc:
        raise ImportError("eval_matrix needs numpy: pip install 'wigneralg[dense]'") from exc
    _require_grid((nu,))
    out = np.zeros((a.dim, a.dim), dtype=complex)
    for i, row in enumerate(a.row_nonzeros()):
        for j, value in row:
            out[i, j] = numeric_eval(value, nu)
    return out


def numeric_relation_report(
    spec: RelationSpec, nus: Sequence[float] = NU_GRID, tol: float = 1e-12
) -> AlgebraReport:
    """Frobenius-norm residual of lhs - rhs over a nu grid, masked rows only.

    The grid must be nonempty, each nu finite, > -1/2 and <= MAX_GRID_NU.
    Each distinct stored entry is evaluated once on the whole grid, into a
    memo that lives for this call; the residual at each nu sums
    |lhs - rhs|^2 over the stored columns, row by row.
    """
    _require_grid(nus)
    if max(nus) > MAX_GRID_NU:
        raise ValueError(f"the numeric grid needs nu <= {MAX_GRID_NU:g}, got {max(nus)}")
    rows = _masked_rows(spec.lhs.dim, spec.mask)
    memo: Dict[RadicalSum, Tuple[complex, ...]] = {}

    def on_grid(row):
        for _, value in row:
            if value not in memo:
                memo[value] = tuple([numeric_eval(value, nu) for nu in nus])
        return {j: memo[value] for j, value in row}

    lhs_nz, rhs_nz = spec.lhs.row_nonzeros(), spec.rhs.row_nonzeros()
    grid = range(len(nus))
    zeros = (0j,) * len(nus)
    diff_sq = [0.0] * len(nus)
    lhs_sq = [0.0] * len(nus)
    for i in rows:
        lrow, rrow = lhs_nz[i], rhs_nz[i]
        left = on_grid(lrow)
        # equal canonical rows evaluate alike and add only exact zeros to diff_sq
        if lrow != rrow:
            right = on_grid(rrow)
            columns = left.keys() | right.keys()
            for k in grid:
                for j in columns:
                    d = left.get(j, zeros)[k] - right.get(j, zeros)[k]
                    diff_sq[k] += d.real * d.real + d.imag * d.imag
        for k, column in enumerate(zip(*left.values())):
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
