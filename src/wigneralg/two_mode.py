"""Two-mode oscillator operators built as plain tensor products.

No string operator is inserted between the modes: the cross-mode relations
demand commuting, not anticommuting, parities ([R1, a2] = 0), which Kronecker
products satisfy as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from .errors import InvalidDimensionError
from .operators import (
    OperatorMatrix,
    RelationSpec,
    anticommutator,
    check_specs,
    commutator,
    tensor,
)
from .reports import AlgebraReport
from .scalars import P_NU, P_TWO_NU
from .single_mode import SingleModeSet, build_single_mode


@dataclass(frozen=True)
class TwoModeSet:
    dims: Tuple[int, int]
    a: Tuple[OperatorMatrix, OperatorMatrix]
    a_dag: Tuple[OperatorMatrix, OperatorMatrix]
    n_op: Tuple[OperatorMatrix, OperatorMatrix]
    r_op: Tuple[OperatorMatrix, OperatorMatrix]

    @property
    def basis(self):
        return self.a[0].basis


def build_two_mode(d1: int, d2: int) -> TwoModeSet:
    """a1 = a (x) I, a2 = I (x) a, and likewise for N and R; row-major in (n1, n2)."""
    if d1 < 2 or d2 < 2:
        raise InvalidDimensionError("two-mode truncation needs d1, d2 >= 2")
    return two_mode_from(build_single_mode(d1), build_single_mode(d2))


def two_mode_from(m1: SingleModeSet, m2: SingleModeSet) -> TwoModeSet:
    """The two-mode set of :func:`build_two_mode` from its two single-mode sets."""
    i1 = OperatorMatrix.identity(m1.a.basis)
    i2 = OperatorMatrix.identity(m2.a.basis)
    a1 = tensor(m1.a, i2)
    # one basis object for all eight, so basis checks between them are identity tests
    basis = a1.basis
    return TwoModeSet(
        dims=(m1.dim, m2.dim),
        a=(a1, tensor(i1, m2.a, _basis=basis)),
        a_dag=(tensor(m1.a_dag, i2, _basis=basis), tensor(i1, m2.a_dag, _basis=basis)),
        n_op=(tensor(m1.n_op, i2, _basis=basis), tensor(i1, m2.n_op, _basis=basis)),
        r_op=(tensor(m1.r_op, i2, _basis=basis), tensor(i1, m2.r_op, _basis=basis)),
    )


def mode_mask(s: TwoModeSet, mode: int) -> Set[int]:
    """Rows below the top Fock level of the given mode (0 or 1)."""
    top = s.dims[mode] - 1
    return {
        i
        for i, label in enumerate(s.basis)
        if (label.n1 if mode == 0 else label.n2) != top
    }


def two_mode_relation_specs(s: TwoModeSet) -> List[RelationSpec]:
    identity = OperatorMatrix.identity(s.basis)
    zero = OperatorMatrix.zeros(s.basis)
    specs: List[RelationSpec] = []
    for i in (0, 1):
        mi = i + 1
        mask = mode_mask(s, i)
        specs.append(
            RelationSpec(
                f"[a{mi},adag{mi}] = 1 + 2nu R{mi} [masked: top level of this mode excluded]",
                commutator(s.a[i], s.a_dag[i]),
                identity + s.r_op[i].scale(P_TWO_NU),
                mask,
            )
        )
        specs.append(
            RelationSpec(
                f"[N{mi},adag{mi}] = adag{mi} [masked: top level of this mode excluded]",
                commutator(s.n_op[i], s.a_dag[i]),
                s.a_dag[i],
                mask,
            )
        )
        specs.append(
            RelationSpec(f"[N{mi},a{mi}] = -a{mi}", commutator(s.n_op[i], s.a[i]), -s.a[i])
        )
        specs.append(
            RelationSpec(f"{{R{mi},a{mi}}} = 0", anticommutator(s.r_op[i], s.a[i]), zero)
        )
        specs.append(
            RelationSpec(f"{{adag{mi},R{mi}}} = 0", anticommutator(s.a_dag[i], s.r_op[i]), zero)
        )
        specs.append(
            RelationSpec(
                f"adag{mi} a{mi} = [N{mi}]",
                s.a_dag[i] @ s.a[i],
                s.n_op[i] + identity.scale(P_NU) - s.r_op[i].scale(P_NU),
            )
        )
        other = 1 - i
        mo = other + 1
        specs.append(
            RelationSpec(f"[a{mi},adag{mo}] = 0", commutator(s.a[i], s.a_dag[other]), zero)
        )
        specs.append(
            RelationSpec(f"[N{mi},adag{mo}] = 0", commutator(s.n_op[i], s.a_dag[other]), zero)
        )
        specs.append(
            RelationSpec(f"[N{mi},a{mo}] = 0", commutator(s.n_op[i], s.a[other]), zero)
        )
        specs.append(
            RelationSpec(f"[R{mi},a{mo}] = 0", commutator(s.r_op[i], s.a[other]), zero)
        )
        specs.append(
            RelationSpec(f"[R{mi},adag{mo}] = 0", commutator(s.r_op[i], s.a_dag[other]), zero)
        )
    specs.append(RelationSpec("[a1,a2] = 0", commutator(s.a[0], s.a[1]), zero))
    specs.append(RelationSpec("[adag1,adag2] = 0", commutator(s.a_dag[0], s.a_dag[1]), zero))
    return specs


def audit_two_mode(s: TwoModeSet) -> List[AlgebraReport]:
    return check_specs(two_mode_relation_specs(s))
