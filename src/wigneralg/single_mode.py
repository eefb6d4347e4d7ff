"""Ladder, number and reflection operators on a truncated Fock space.

On a D-dim truncation the bracket [a, adag] = 1 + 2*nu*R holds only on the
first D-1 levels; the canned audit masks the top row and the truncation
defect there is exactly -[D].
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set

from .errors import InvalidDimensionError
from .operators import (
    OperatorMatrix,
    RelationSpec,
    _memo_scope,
    anticommutator,
    check_relation,
    check_specs,
    commutator,
    fock_basis,
)
from .reports import AlgebraReport, Verdict, Witness, exact_report
from .scalars import P_NU, P_TWO_NU, R_MINUS_ONE, R_ONE, RadicalSum, deformed_number, ladder_level


class SingleModeSet(NamedTuple):
    dim: int
    a: OperatorMatrix
    a_dag: OperatorMatrix
    n_op: OperatorMatrix
    r_op: OperatorMatrix


def build_single_mode(dim: int) -> SingleModeSet:
    """a|n> = sqrt([n])|n-1>, adag|n> = sqrt([n+1])|n+1>, N = diag(n), R = diag((-1)^n), entries from :func:`ladder_level`."""
    if dim < 2:
        raise InvalidDimensionError("single-mode truncation needs dim >= 2")
    basis = fock_basis(dim)
    levels = [ladder_level(n) for n in range(dim)]
    a = OperatorMatrix.from_entries(basis, {(n - 1, n): levels[n].root for n in range(1, dim)})
    n_op = OperatorMatrix.diagonal([level.n for level in levels], basis)
    r_op = OperatorMatrix.diagonal([(R_ONE, R_MINUS_ONE)[n % 2] for n in range(dim)], basis)
    return SingleModeSet(dim=dim, a=a, a_dag=a.adjoint(), n_op=n_op, r_op=r_op)


def number_mask(dim: int) -> Set[int]:
    """Rows on which raising relations survive the truncation."""
    return set(range(dim - 1))


@_memo_scope
def single_mode_relation_specs(s: SingleModeSet) -> List[RelationSpec]:
    identity = OperatorMatrix.identity(s.a.basis)
    zero = OperatorMatrix.zeros(s.a.basis)
    mask = number_mask(s.dim)
    two_nu_r = s.r_op.scale(P_TWO_NU)
    return [
        RelationSpec(
            "[a,adag] = 1 + 2nu R [masked: top row excluded]",
            commutator(s.a, s.a_dag),
            identity + two_nu_r,
            mask,
        ),
        RelationSpec(
            "[N,adag] = adag [masked: top row excluded]",
            commutator(s.n_op, s.a_dag),
            s.a_dag,
            mask,
        ),
        RelationSpec("[N,a] = -a", commutator(s.n_op, s.a), -s.a),
        RelationSpec("{R,a} = 0", anticommutator(s.r_op, s.a), zero),
        RelationSpec("{adag,R} = 0", anticommutator(s.a_dag, s.r_op), zero),
        RelationSpec("R^2 = I", s.r_op @ s.r_op, identity),
        RelationSpec("Rdag = R", s.r_op.adjoint(), s.r_op),
        # Basis-independent characterization of N; truncation-safe because it
        # never raises past the cutoff.
        RelationSpec(
            "N = adag a - nu + nu R",
            s.n_op,
            (s.a_dag @ s.a) - identity.scale(P_NU) + s.r_op.scale(P_NU),
        ),
    ]


def audit_single_mode(s: SingleModeSet) -> List[AlgebraReport]:
    return check_specs(single_mode_relation_specs(s))


def truncation_defect_report(
    s: SingleModeSet, specs: Optional[List[RelationSpec]] = None
) -> AlgebraReport:
    """Confirm the unmasked bracket fails exactly and only at the top row with defect -[dim].

    The bracket and its right side are the first of ``specs``, the family's
    specs (computed here when not given).
    """
    relation_id = f"[a,adag] truncation defect at row {s.dim - 1} equals -[{s.dim}]"
    masked = (single_mode_relation_specs(s) if specs is None else specs)[0]
    _, bracket, rhs, _ = masked
    unmasked = check_relation("[a,adag] = 1 + 2nu R (unmasked)", bracket, rhs)
    top = s.dim - 1
    problems = []
    if unmasked.verdict is not Verdict.FAIL:
        problems.append("unmasked check did not fail")
    elif (unmasked.witness.row, unmasked.witness.col) != (top, top):
        problems.append(f"first failure at {unmasked.witness.row},{unmasked.witness.col}")
    if check_relation(*masked).verdict is not Verdict.PASS:
        problems.append("masked rows are not exact")
    defect = bracket.entry(top, top) - rhs.entry(top, top)
    expected = RadicalSum.from_polynomial(-deformed_number(s.dim))
    if defect != expected:
        problems.append(f"defect {defect} differs from -[{s.dim}] = {expected}")
    return exact_report(
        relation_id, Witness(top, top, str(expected), "; ".join(problems)) if problems else None
    )
