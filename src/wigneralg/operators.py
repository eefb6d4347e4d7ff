"""Banded labeled matrices over radical sums and the relation-checking engine.

An `OperatorMatrix` stores its nonzero diagonals ("bands"), one tuple per
offset.  The operators built here (ladder, number and parity operators, the
spin generators and their Kronecker products) are weighted shifts with one
or two bands, so products, sums, relation checks and exports cost
O(bands * dim), not O(dim^2).

Entries are hash-consed radical sums (one object per value), so every
operation memoizes the entries it computes under the entries they are made
of (:func:`_memoized`).  ``@``, ``commutator`` and ``anticommutator`` run
one fused kernel, :func:`_fused`: a bracket entry ``x*y -/+ u*v`` is one
lookup under its four entries and sign, and only a miss computes its
products and their sum.  Bracket entries and products share one memo for
the process, :data:`_MEMO`, which holds its keys, so it serves every
relation set and is cleared when it reaches :data:`_MEMO_SIZE`.
``+``, ``-``, ``scale`` and ``adjoint`` keep a memo for one call.  Only
this module reads bands: sub-blocks, such as a fixed-2j block, are cut by
:func:`_block`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, is_, is_not
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .errors import DimensionMismatchError
from .reports import AlgebraReport, CheckMode, Value, Verdict, Witness
from .scalars import R_ONE, R_ZERO, RadicalSum, _require_nu, numeric_eval, radical_values_equal

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


class FockLabel(Value):
    """Fock level n >= 0."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("Fock labels need n >= 0")
        object.__setattr__(self, "n", n)

    def __str__(self) -> str:
        return f"fock({self.n})"


class TwoModeLabel(Value):
    """Two-mode level (n1, n2), both >= 0."""

    __slots__ = ("n1", "n2")

    def __init__(self, n1: int, n2: int) -> None:
        if n1 < 0 or n2 < 0:
            raise ValueError("two-mode labels need n1, n2 >= 0")
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)

    def __str__(self) -> str:
        return f"two({self.n1},{self.n2})"


class SpinLabel(Value):
    """Spin state (2j, 2m) with |2m| <= 2j and 2m = 2j (mod 2)."""

    __slots__ = ("two_j", "two_m")

    def __init__(self, two_j: int, two_m: int) -> None:
        if abs(two_m) > two_j or (two_j - two_m) % 2 != 0:
            raise ValueError("spin labels need |2m| <= 2j with 2m = 2j (mod 2)")
        object.__setattr__(self, "two_j", two_j)
        object.__setattr__(self, "two_m", two_m)

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
    """The bands of ``acc`` in offset order as tuples, all-zero bands dropped.

    Every zero is R_ZERO, the one zero object, so an identity test finds
    the nonzero bands.
    """
    return _Bands((k, tuple(acc[k])) for k in sorted(acc) if any(map(is_not, acc[k], repeat(R_ZERO))))


def _checked_basis(basis: Sequence[BasisLabel]) -> Tuple[BasisLabel, ...]:
    basis = tuple(basis)
    if len(set(basis)) != len(basis):
        raise ValueError("basis labels must be pairwise distinct")
    return basis


def _memoized(compute, memo: Dict[tuple, RadicalSum], columns: Sequence[Iterable]) -> list:
    """compute(*key) at each position of the ``columns``, memoized under the key of its entries.

    The key of a position is the tuple of the columns' items there; the
    shortest column ends the scan.  A position costs one lookup.
    """
    values: List[RadicalSum] = []
    append, get = values.append, memo.get
    for key in zip(*columns):
        value = get(key)
        if value is None:
            value = memo[key] = compute(*key)
        append(value)
    return values


def _entrywise(combine, dim: int, left: Dict[int, tuple], right: Dict[int, tuple]) -> _Bands:
    """combine(left entry, right entry) on every offset of either side.

    Computed once per call for each distinct pair of entries: ``R`` holds
    only R_ONE and R_MINUS_ONE, and a tensor factor repeats its entries.
    """
    memo: Dict[tuple, RadicalSum] = {}
    zero_band = (R_ZERO,) * dim
    offsets = left.keys() | right.keys()
    return _kept({k: _memoized(combine, memo, (left.get(k, zero_band), right.get(k, zero_band))) for k in offsets})


def _each(op, bands: Dict[int, tuple]) -> _Bands:
    """op(entry) on every entry of ``bands``, once per call for each distinct entry; op must keep zero."""
    memo: Dict[tuple, RadicalSum] = {}
    return _kept({k: _memoized(op, memo, (band,)) for k, band in bands.items()})


class OperatorMatrix(Value):
    """Square matrix on a labeled basis, stored as its nonzero diagonals.

    ``_bands`` maps an offset ``k`` to a band: a tuple of length ``dim``
    whose entry ``i`` holds ``X[i, i+k]``.  Empty and out-of-range cells hold
    ``R_ZERO`` and no band is all zero, so the stored form is canonical and
    equality and hashing compare it directly.

    The constructor validates its rows, and the basis, for input from
    outside (the public constructor, ``from_entries``, deserialization),
    and keeps only the bands they convert to.  ``identity``, ``zeros`` and
    ``diagonal`` check the basis (and the length of the diagonal) and build
    their one band directly.  The operations of this module (``@``,
    ``commutator`` and ``anticommutator`` through :func:`_fused`, ``+``,
    ``-``, ``scale``, ``adjoint``, ``tensor``) build canonical bands from
    canonical operands and pass them as ``_Bands``, stored unchecked.  They
    memoize the entries they compute under their operand entries: for one
    call, or, in the fused kernel, in the process-wide :data:`_MEMO`.
    Nothing is cached on a matrix: ``rows``
    and ``row_nonzeros()`` are derived on each call.
    """

    __slots__ = ("dim", "basis", "_bands")
    _fields = ("basis", "_bands")

    def __init__(self, basis: Sequence[BasisLabel], rows: Sequence[Sequence[Tuple[int, RadicalSum]]]):
        if type(rows) is _Bands:
            dim, bands = len(basis), rows
        else:
            basis = _checked_basis(basis)
            dim = len(basis)
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

    @staticmethod
    def zeros(basis: Sequence[BasisLabel]) -> "OperatorMatrix":
        return OperatorMatrix(_checked_basis(basis), _Bands())

    @staticmethod
    def identity(basis: Sequence[BasisLabel]) -> "OperatorMatrix":
        return OperatorMatrix.diagonal([R_ONE] * len(basis), basis)

    @staticmethod
    def diagonal(values: Sequence, basis: Sequence[BasisLabel]) -> "OperatorMatrix":
        if len(values) != len(basis):
            raise ValueError("diagonal length must match basis size")
        values = list(map(RadicalSum.coerce, values))
        return OperatorMatrix(_checked_basis(basis), _kept({0: values}))

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
        return OperatorMatrix(self.basis, _each(RadicalSum.__neg__, self._bands))

    def scale(self, factor) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, _each(RadicalSum.coerce(factor).__mul__, self._bands))

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return _fused(self, other, 0)

    def adjoint(self) -> "OperatorMatrix":
        # band k's entry i, X[i, i+k], moves to entry i+k of band -k: a rotation by k
        conj = _each(RadicalSum.conjugate, self._bands)
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


# Products (key (x, y), stored under both orders) and bracket entries
# (x, y, u, v, sign) of the fused kernel, for the process.
# Keys hold interned entries, so a key names one value as long as it is
# stored.  Cleared when a kernel call starts with it at _MEMO_SIZE or more.
_MEMO: Dict[tuple, RadicalSum] = {}
_MEMO_SIZE = 1 << 14


def _product(x: RadicalSum, y: RadicalSum) -> RadicalSum:
    """x * y, computed once while the memo holds it (x*y and y*x are one value)."""
    if x is R_ZERO or y is R_ZERO:
        return R_ZERO
    value = _MEMO.get((x, y))
    if value is None:
        value = _MEMO[x, y] = _MEMO[y, x] = x * y
    return value


def _bracket_entry(x, y, u, v, sign: int) -> RadicalSum:
    """x*y + sign*u*v, its products from the memo."""
    xy, uv = _product(x, y), _product(u, v)
    return xy + uv if sign > 0 else xy - uv


def _cancels(xs: tuple, ys: tuple, us: tuple, vs: tuple) -> bool:
    """Whether every x*y - u*v of the columns is zero with no arithmetic.

    It is where x is v and y is u, or where both terms have a zero factor.
    """
    for x, y, u, v in zip(xs, ys, us, vs):
        if x is v and y is u:
            continue
        if x is not R_ZERO and y is not R_ZERO or u is not R_ZERO and v is not R_ZERO:
            return False
    return True


def _fused(a: OperatorMatrix, b: OperatorMatrix, sign: int) -> OperatorMatrix:
    """AB (sign 0), AB + BA (sign 1) or AB - BA (sign -1) in one pass, with no intermediate matrix.

    Band k of A and band l of B write entry i of band k+l as
    ``A_k[i]*B_l[i+k] + sign*B_l[i]*A_k[i+l]``, reading the second factor of
    each term from a band padded with ``dim`` zeros on each side.  Each entry
    is looked up in :data:`_MEMO` under its two entries (a product) or its
    four entries and sign; on a miss its products come from the same memo.
    A commutator's band pair that cancels entry by entry (:func:`_cancels`)
    adds nothing and is skipped.
    """
    a._require_same_space(b)
    if len(_MEMO) >= _MEMO_SIZE:
        _MEMO.clear()
    dim = a.dim
    pad = (R_ZERO,) * dim
    padded = {id(band): pad + band + pad for band in (*a._bands.values(), *b._bands.values())}
    acc: Dict[int, List[RadicalSum]] = {}
    for k, a_band in a._bands.items():
        a_padded = padded[id(a_band)]
        for l, b_band in b._bands.items():
            b_padded = padded[id(b_band)]
            m = k + l
            lo, hi = max(0, -m), min(dim, dim - m)
            if lo >= hi:
                continue
            # entries i, i+k and i+l, for i in lo..hi-1, of padded bands, whose entry i is at dim + i
            at_i, at_ik = slice(dim + lo, dim + hi), slice(dim + lo + k, dim + hi + k)
            xs, ys = a_padded[at_i], b_padded[at_ik]
            if sign:
                us, vs = b_padded[at_i], a_padded[slice(dim + lo + l, dim + hi + l)]
                if sign < 0 and _cancels(xs, ys, us, vs):
                    continue
                values = _memoized(_bracket_entry, _MEMO, (xs, ys, us, vs, repeat(sign)))
            else:
                values = list(map(_product, xs, ys))
            out = acc.get(m)
            if out is None:
                acc[m] = [R_ZERO] * lo + values + [R_ZERO] * (dim - hi)
            else:
                out[lo:hi] = map(add, out[lo:hi], values)
    return OperatorMatrix(a.basis, _kept(acc))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA."""
    return _fused(a, b, -1)


def anticommutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB + BA."""
    return _fused(a, b, 1)


def tensor(a: OperatorMatrix, b: OperatorMatrix, *, _basis=None) -> OperatorMatrix:
    """Kronecker product of two Fock-basis operators with two-mode labels.

    The first factor carries the major index, so the result is row-major in
    (n1, n2) and bands k1 of a and k2 of b fill band k1*d2 + k2: each entry
    of a's band fills one row of it: a copy of b's band where the entry is
    R_ONE, the entry itself repeated where b's band is all R_ONE.  ``_basis``
    is an earlier product's basis on the same factor bases, passed so that
    products share one basis object.
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
            lo, hi = max(0, -k2), min(d2, d2 - k2)
            row = b_band[lo:hi]
            ones = all(map(is_, row, repeat(R_ONE)))  # va * R_ONE is va itself
            for i1 in range(max(0, -k1), min(d1, d1 - k1)):
                va = a_band[i1]
                if va is R_ONE:
                    out[i1 * d2 + lo : i1 * d2 + hi] = row
                elif va is not R_ZERO:
                    out[i1 * d2 + lo : i1 * d2 + hi] = [va] * len(row) if ones else [va * w for w in row]
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


class Caveat(NamedTuple):
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
            report = AlgebraReport(
                report.relation_id, report.mode, report.max_residual, Verdict.PASS_WITH_CAVEAT, text, witness
            )
        reports.append(report)
    return reports


def eval_matrix(a: OperatorMatrix, nu: float) -> np.ndarray:
    """Dense entrywise numeric evaluation; requires a finite nu > -1/2.

    Public API and the dense reference the tests hold the numeric grid to;
    the audits themselves evaluate stored entries only and never load numpy.
    """
    try:
        import numpy as np  # only this dense view needs numpy; keeps start-up light
    except ImportError as exc:
        raise ImportError("eval_matrix needs numpy: pip install 'wigneralg[dense]'") from exc
    _require_nu(nu)
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
    Each distinct stored entry is evaluated once on the whole grid, with
    its |z|^2 at each nu, into a memo that lives for this call; the
    residual at each nu sums |lhs - rhs|^2 over the stored columns, row by
    row.
    """
    if not nus:
        raise ValueError("the numeric grid needs at least one nu")
    for nu in nus:
        _require_nu(nu)
    if max(nus) > MAX_GRID_NU:
        raise ValueError(f"the numeric grid needs nu <= {MAX_GRID_NU:g}, got {max(nus)}")
    rows = _masked_rows(spec.lhs.dim, spec.mask)
    memo: Dict[RadicalSum, Tuple[Tuple[complex, ...], Tuple[float, ...]]] = {}

    def on_grid(row):
        """Each stored entry of ``row`` by column: its values on the grid and their |z|^2."""
        points = {}
        for j, value in row:
            point = memo.get(value)
            if point is None:
                zs = tuple([numeric_eval(value, nu) for nu in nus])
                point = memo[value] = (zs, tuple([z.real * z.real + z.imag * z.imag for z in zs]))
            points[j] = point
        return points

    lhs_nz, rhs_nz = spec.lhs.row_nonzeros(), spec.rhs.row_nonzeros()
    grid = range(len(nus))
    zero = ((0j,) * len(nus), ())
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
                    d = left.get(j, zero)[0][k] - right.get(j, zero)[0][k]
                    diff_sq[k] += d.real * d.real + d.imag * d.imag
        for k, column in enumerate(zip(*[sq for _, sq in left.values()])):
            lhs_sq[k] += sum(column)
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
