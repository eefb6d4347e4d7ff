"""Deformed su(2) and so(3) representations with the extra parity generators.

The (2j+1)-dim ladder representation on |j,m> (m descending) is taken as
ground truth:

    J+|j,m> = sqrt([j+m+1][j-m]) |j,m+1>      J0 = diag(j ... -j)
    J-|j,m> = sqrt([j+m][j-m+1]) |j,m-1>

with diagonal generators built from n1 = j+m, n2 = j-m:

    P = n1*(-1)^n2 - n2*(-1)^n1,   Q = ((-1)^n2 + (-1)^n1)/2,
    K = ((-1)^n2 - (-1)^n1)/2,     R_J = (-1)^(j-m).

Condensed odd/even-2j forms and the worked low-spin identities are treated as
checked claims: where a printed coefficient disagrees with the representation
the audit passes the derived form with a caveat and the errata registry keeps
the failing printed form with its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import (
    DimensionTooSmallError,
    InvalidSpinError,
    NonInvariantSubspaceError,
    OddTwoJNotClosedError,
)
from .operators import (
    NU_GRID,
    Caveat,
    OperatorMatrix,
    RelationSpec,
    _products,
    anticommutator,
    check_relation,
    check_specs,
    commutator,
    fock_basis,
    spin_basis,
)
from .reports import AlgebraReport, CheckMode, Verdict, Witness, exact_report
from .scalars import (
    HALF,
    NuPolynomial,
    P_I,
    P_NU,
    P_TWO_NU,
    R_MINUS_ONE,
    R_ONE,
    RadicalSum,
    deformed_number,
    numeric_eval,
)


@dataclass(frozen=True)
class SuNu2Rep:
    two_j: int
    j_plus: OperatorMatrix
    j_minus: OperatorMatrix
    j0: OperatorMatrix
    p_op: OperatorMatrix
    k_op: OperatorMatrix
    q_op: OperatorMatrix
    r_j: OperatorMatrix

    @property
    def basis(self):
        return self.j0.basis


# each JS generator's name, as exports and the reference registry write it -> its field
JS_OPERATORS = {"J+": "j_plus", "J-": "j_minus", "J0": "j0", "P": "p_op", "K": "k_op", "Q": "q_op", "R_J": "r_j"}


@dataclass(frozen=True)
class HPRep:
    two_j: int
    j_plus: OperatorMatrix
    j_minus: OperatorMatrix
    j0: OperatorMatrix
    r_op: OperatorMatrix

    @property
    def basis(self):
        return self.j0.basis


@dataclass(frozen=True)
class SoNu3Rep:
    two_j: int
    l_x: OperatorMatrix
    l_y: OperatorMatrix
    l_z: OperatorMatrix
    p_op: OperatorMatrix
    k_op: OperatorMatrix
    q_op: OperatorMatrix
    r_l: OperatorMatrix

    @property
    def basis(self):
        return self.l_z.basis


########################################################################
#   Ladder representation
########################################################################


def build_js_spin_rep(two_j: int) -> SuNu2Rep:
    """Closed-form (2j+1)-dim block; needs no ambient two-mode space."""
    if two_j < 1:
        raise InvalidSpinError("spin representations need 2j >= 1")
    basis = spin_basis(two_j)
    dim = two_j + 1
    # row index i corresponds to m = j - i, so n1 = 2j - i and n2 = i
    j_plus = OperatorMatrix.from_entries(
        basis,
        {
            (i - 1, i): RadicalSum.sqrt_poly(deformed_number(two_j - i + 1))
            * RadicalSum.sqrt_poly(deformed_number(i))
            for i in range(1, dim)
        },
    )
    j0 = OperatorMatrix.diagonal(
        [NuPolynomial.constant(label.m) for label in basis], basis
    )
    diag_p, diag_q, diag_k = [], [], []
    for i in range(dim):
        n1, n2 = two_j - i, i
        s1, s2 = (-1) ** n1, (-1) ** n2
        diag_p.append(NuPolynomial.constant(n1 * s2 - n2 * s1))
        diag_q.append(NuPolynomial.constant(Fraction(s2 + s1, 2)))
        diag_k.append(NuPolynomial.constant(Fraction(s2 - s1, 2)))
    return SuNu2Rep(
        two_j=two_j,
        j_plus=j_plus,
        j_minus=j_plus.adjoint(),
        j0=j0,
        p_op=OperatorMatrix.diagonal(diag_p, basis),
        k_op=OperatorMatrix.diagonal(diag_k, basis),
        q_op=OperatorMatrix.diagonal(diag_q, basis),
        r_j=OperatorMatrix.diagonal([(R_ONE, R_MINUS_ONE)[i % 2] for i in range(dim)], basis),
    )


def js_composites(s) -> Dict[str, OperatorMatrix]:
    """The bilinear two-mode generators on the ambient space, keyed by name.

    J+ = adag1 a2, J- = a1 adag2, J0 = (N1-N2)/2, P = N1 R2 - N2 R1,
    K = (R2-R1)/2, Q = (R2+R1)/2, R_J = R2.
    """
    a1, a2 = s.a
    ad1, ad2 = s.a_dag
    n1, n2 = s.n_op
    r1, r2 = s.r_op
    return {
        "J+": ad1 @ a2,
        "J-": a1 @ ad2,
        "J0": (n1 - n2).scale(HALF),
        "P": _products(((n1, r2, False), (n2, r1, True))),
        "K": (r2 - r1).scale(HALF),
        "Q": (r2 + r1).scale(HALF),
        "R_J": r2,
    }


def extract_js_block(s, two_j: int) -> SuNu2Rep:
    """Restrict the bilinear two-mode generators to the fixed-2j block.

    Must reproduce :func:`build_js_spin_rep` entrywise.
    """
    return cut_js_block(s, js_composites(s), two_j)


def cut_js_block(s, composites: Dict[str, OperatorMatrix], two_j: int) -> SuNu2Rep:
    """Cut the :func:`js_composites` of ``s`` down to span{|j+m, j-m>}, m descending."""
    if two_j < 1:
        raise InvalidSpinError("spin representations need 2j >= 1")
    d1, d2 = s.dims
    if d1 < two_j + 1 or d2 < two_j + 1:
        raise DimensionTooSmallError(
            f"need d1, d2 >= {two_j + 1} to hold the 2j={two_j} block"
        )
    # block row i holds |n1, n2> = |2j - i, i>, i.e. m = j - i descending
    block = [(two_j - i) * d2 + i for i in range(two_j + 1)]
    block_set = set(block)
    block_index = {g: b for b, g in enumerate(block)}
    target = spin_basis(two_j)
    extracted: Dict[str, OperatorMatrix] = {}
    for name, op in composites.items():
        nz = op.row_nonzeros()
        for row in range(op.dim):
            if row not in block_set:
                for col, _ in nz[row]:
                    if col in block_set:
                        raise NonInvariantSubspaceError(
                            f"{name} maps block column {col} to outside row {row}"
                        )
        entries = {
            (bi, block_index[j]): value
            for bi, gi in enumerate(block)
            for j, value in nz[gi]
            if j in block_index
        }
        extracted[name] = OperatorMatrix.from_entries(target, entries)
    return SuNu2Rep(two_j, **{field: extracted[name] for name, field in JS_OPERATORS.items()})


########################################################################
#   Relation sets
########################################################################


def su_nu2_relation_specs(rep: SuNu2Rep) -> List[RelationSpec]:
    """The full deformed-su(2) relation set; block-invariant, so no masks."""
    identity = OperatorMatrix.identity(rep.basis)
    zero = OperatorMatrix.zeros(rep.basis)
    bracket_rhs = (
        rep.j0.scale(2)
        + rep.p_op.scale(P_TWO_NU)
        + rep.k_op.scale(P_TWO_NU * NuPolynomial.from_coeffs([1, 2]))
    )
    return [
        RelationSpec("[J0,J+] = J+", commutator(rep.j0, rep.j_plus), rep.j_plus),
        RelationSpec("[J0,J-] = -J-", commutator(rep.j0, rep.j_minus), -rep.j_minus),
        RelationSpec(
            "[J+,J-] = 2J0 + 2nu P + 2nu(2nu+1) K",
            commutator(rep.j_plus, rep.j_minus),
            bracket_rhs,
        ),
        RelationSpec("[K,Q] = 0", commutator(rep.k_op, rep.q_op), zero),
        RelationSpec("[K,P] = 0", commutator(rep.k_op, rep.p_op), zero),
        RelationSpec("[K,J0] = 0", commutator(rep.k_op, rep.j0), zero),
        RelationSpec("{K,J+} = 0", anticommutator(rep.k_op, rep.j_plus), zero),
        RelationSpec("{K,J-} = 0", anticommutator(rep.k_op, rep.j_minus), zero),
        RelationSpec("[Q,P] = 0", commutator(rep.q_op, rep.p_op), zero),
        RelationSpec("[Q,J0] = 0", commutator(rep.q_op, rep.j0), zero),
        RelationSpec("{Q,J+} = 0", anticommutator(rep.q_op, rep.j_plus), zero),
        RelationSpec("{Q,J-} = 0", anticommutator(rep.q_op, rep.j_minus), zero),
        RelationSpec("[P,J0] = 0", commutator(rep.p_op, rep.j0), zero),
        RelationSpec(
            "{P,J+} = 2 Q J+",
            anticommutator(rep.p_op, rep.j_plus),
            (rep.q_op @ rep.j_plus).scale(2),
        ),
        RelationSpec(
            "{P,J-} = -2 Q J-",
            anticommutator(rep.p_op, rep.j_minus),
            (rep.q_op @ rep.j_minus).scale(-2),
        ),
        RelationSpec("R_J^2 = I", rep.r_j @ rep.r_j, identity),
        RelationSpec("[R_J,J0] = 0", commutator(rep.r_j, rep.j0), zero),
        RelationSpec("{R_J,J+} = 0", anticommutator(rep.r_j, rep.j_plus), zero),
        RelationSpec("{R_J,J-} = 0", anticommutator(rep.r_j, rep.j_minus), zero),
    ]


def _audit(relation_set: str, family) -> List[AlgebraReport]:
    """Exact checks of one relation set of :data:`suites.RELATION_SETS` on ``family``."""
    from .suites import Run  # suites imports this module for the rows of its table

    return Run().audit(relation_set, family)


def audit_su_nu2(rep: SuNu2Rep) -> List[AlgebraReport]:
    return _audit("su_nu2", rep)


def _odd_bracket_rhs(rep: SuNu2Rep, doubled_j: bool) -> OperatorMatrix:
    """2J0 + 2nu(2nu + c + 1) R_J with c = 2j (derived) or c = j (printed)."""
    c = Fraction(rep.two_j) if doubled_j else Fraction(rep.two_j, 2)
    coeff = P_TWO_NU * NuPolynomial.from_coeffs([c + 1, 2])
    return rep.j0.scale(2) + rep.r_j.scale(coeff)


ODD_BRACKET_ID = "odd 2j: [J+,J-] = 2J0 + 2nu(2nu+2j+1) R_J (derived coefficient)"


def condensed_relation_specs(rep: SuNu2Rep) -> List[RelationSpec]:
    """Condensed odd/even-2j identities with the derived odd coefficient."""
    zero = OperatorMatrix.zeros(rep.basis)
    bracket = commutator(rep.j_plus, rep.j_minus)
    if rep.two_j % 2 == 1:
        return [
            RelationSpec("odd 2j: Q = 0", rep.q_op, zero),
            RelationSpec("odd 2j: K = R_J", rep.k_op, rep.r_j),
            RelationSpec("odd 2j: P = 2j R_J", rep.p_op, rep.r_j.scale(rep.two_j)),
            RelationSpec(ODD_BRACKET_ID, bracket, _odd_bracket_rhs(rep, doubled_j=True)),
        ]
    two_nu_rj = rep.r_j.scale(P_TWO_NU)
    return [
        RelationSpec("even 2j: K = 0", rep.k_op, zero),
        RelationSpec("even 2j: Q = R_J", rep.q_op, rep.r_j),
        RelationSpec("even 2j: P = 2 J0 R_J", rep.p_op, (rep.j0 @ rep.r_j).scale(2)),
        RelationSpec(
            "even 2j: [J+,J-] = 2J0(1 + 2nu R_J)",
            bracket,
            (rep.j0 @ (OperatorMatrix.identity(rep.basis) + two_nu_rj)).scale(2),
        ),
    ]


def condensed_caveats(rep: SuNu2Rep) -> Dict[str, Caveat]:
    """The odd bracket's caveat; even 2j has none.

    The printed odd coefficient 2nu(2nu+j+1) fails against the representation
    (see :func:`errata_findings`); the audit verifies the derived coefficient
    2nu(2nu+2j+1) and records the discrepancy as a caveat so that non-strict
    runs stay green while strict runs surface it.
    """
    if rep.two_j % 2 == 0:
        return {}
    printed = _odd_bracket_rhs(rep, doubled_j=False)
    return {ODD_BRACKET_ID: Caveat("printed coefficient 2nu(2nu+j+1) fails", printed)}


def audit_condensed_forms(rep: SuNu2Rep) -> List[AlgebraReport]:
    """Check the condensed identities; the odd bracket carries a caveat."""
    return _audit("condensed", rep)


########################################################################
#   Single-mode square-root realization
########################################################################


def _hp_quotient(two_j: int, n: int) -> Tuple[NuPolynomial, NuPolynomial]:
    """Numerator and denominator of the square-root factor at level n."""
    r = (-1) ** n
    j2 = two_j
    numerator = NuPolynomial.from_coeffs(
        [(j2 - n) * (n + 1), 1 + j2 + r * (-1 + j2 - 2 * n)]
    )
    denominator = NuPolynomial.from_coeffs([n + 1, 1 + r])
    return numerator, denominator


def hp_diagonal_factor(two_j: int, n: int) -> NuPolynomial:
    """g(n) = 2j - n (n even) or 2j - n + 2nu (n odd), verified against the quotient."""
    g = (
        NuPolynomial.constant(two_j - n)
        if n % 2 == 0
        else NuPolynomial.from_coeffs([two_j - n, 2])
    )
    numerator, denominator = _hp_quotient(two_j, n)
    if g * denominator != numerator:
        raise AssertionError(
            f"parity-simplified factor g({n}) does not match the quotient for 2j={two_j}"
        )
    return g


def build_hp_rep(two_j: int) -> HPRep:
    """Square-root realization on the (2j+1)-dim Fock space, J0 = j - N.

    Only even 2j closes: for odd 2j the factor g(2j) = 2nu does not vanish
    and J- pushes |2j> to |2j+1> with amplitude sqrt(2nu [2j+1]), so the
    construction refuses and reports that leakage.
    """
    if two_j < 1:
        raise InvalidSpinError("spin representations need 2j >= 1")
    if two_j % 2 == 1:
        leakage = RadicalSum.sqrt_poly(hp_diagonal_factor(two_j, two_j)) * RadicalSum.sqrt_poly(
            deformed_number(two_j + 1)
        )
        raise OddTwoJNotClosedError(two_j, leakage)
    dim = two_j + 1
    basis = fock_basis(dim)
    j_plus = OperatorMatrix.from_entries(
        basis,
        {
            (n - 1, n): RadicalSum.sqrt_poly(hp_diagonal_factor(two_j, n - 1))
            * RadicalSum.sqrt_poly(deformed_number(n))
            for n in range(1, dim)
        },
    )
    j0 = OperatorMatrix.diagonal(
        [NuPolynomial.constant(Fraction(two_j, 2) - n) for n in range(dim)], basis
    )
    r_op = OperatorMatrix.diagonal([(R_ONE, R_MINUS_ONE)[n % 2] for n in range(dim)], basis)
    return HPRep(two_j=two_j, j_plus=j_plus, j_minus=j_plus.adjoint(), j0=j0, r_op=r_op)


def hp_relation_specs(rep: HPRep) -> List[RelationSpec]:
    identity = OperatorMatrix.identity(rep.basis)
    return [
        RelationSpec("HP: [J0,J+] = J+", commutator(rep.j0, rep.j_plus), rep.j_plus),
        RelationSpec("HP: [J0,J-] = -J-", commutator(rep.j0, rep.j_minus), -rep.j_minus),
        RelationSpec(
            "HP: [J+,J-] = 2J0(1 + 2nu R)",
            commutator(rep.j_plus, rep.j_minus),
            (rep.j0 @ (identity + rep.r_op.scale(P_TWO_NU))).scale(2),
        ),
    ]


def audit_hp(rep: HPRep) -> List[AlgebraReport]:
    """Exact relation checks plus the spectral match with the even-2j block."""
    return _audit("hp", rep)


def hp_spectrum_report(rep: HPRep, js: SuNu2Rep) -> AlgebraReport:
    """Spectral match of the HP bracket [J+,J-] with the JS block's, on the numeric grid."""
    hp_bracket = commutator(rep.j_plus, rep.j_minus)
    js_bracket = commutator(js.j_plus, js.j_minus)
    worst = 0.0
    ok = True
    for nu in NU_GRID:
        # each numeric diagonal in (real, imag) order, as numpy's sort_complex
        hp_diag, js_diag = (
            sorted((numeric_eval(m.entry(i, i), nu) for i in range(m.dim)), key=lambda z: (z.real, z.imag))
            for m in (hp_bracket, js_bracket)
        )
        gap = max(abs(h - j) for h, j in zip(hp_diag, js_diag))
        worst = max(worst, gap)
        if gap > 1e-12 * (1.0 + max(abs(z) for z in js_diag)):
            ok = False
    return AlgebraReport(
        "HP: [J+,J-] spectrum matches the even-2j block @ numeric-grid",
        CheckMode.NUMERIC,
        worst,
        Verdict.PASS if ok else Verdict.FAIL,
        witness=None if ok else Witness(-1, -1, "spectra within 1e-12", f"max gap {worst}"),
    )


########################################################################
#   Deformed so(3)
########################################################################


def build_so_nu3(two_j: int) -> SoNu3Rep:
    """L_z = J0, L_x = (J+ + J-)/2, L_y = (i/2)(J- - J+)."""
    return so_nu3_from(build_js_spin_rep(two_j))


def so_nu3_from(js: SuNu2Rep) -> SoNu3Rep:
    """The so_nu(3) rep of :func:`build_so_nu3` from the JS rep at its 2j."""
    half_i = P_I * HALF
    return SoNu3Rep(
        two_j=js.two_j,
        l_x=(js.j_plus + js.j_minus).scale(HALF),
        l_y=(js.j_minus - js.j_plus).scale(half_i),
        l_z=js.j0,
        p_op=js.p_op,
        k_op=js.k_op,
        q_op=js.q_op,
        r_l=js.r_j,
    )


SO3_BRACKET_CAVEAT = (
    "printed bracket 2Lz + 2nu P + 2nu(2nu+1) K omits the factor i/2 forced by "
    "Lx = (J+ + J-)/2 and Ly = (i/2)(J- - J+); audited in the derived form"
)
SO3_BRACKET_ID = "[Lx,Ly] = i(Lz + nu P + nu(2nu+1) K)"
SO3_ODD_BRACKET_ID = "odd 2j: [Lx,Ly] = i(Lz + nu(2nu+2j+1) R_L) (derived)"
SO3_EVEN_BRACKET_ID = "even 2j: [Lx,Ly] = i Lz(1 + 2nu R_L) (derived)"
SO3_CAVEATS = {
    SO3_BRACKET_ID: Caveat(SO3_BRACKET_CAVEAT),
    SO3_ODD_BRACKET_ID: Caveat(
        SO3_BRACKET_CAVEAT + "; printed odd coefficient 2nu(2nu+j+1) also fails (see errata)"
    ),
    SO3_EVEN_BRACKET_ID: Caveat(SO3_BRACKET_CAVEAT),
}


def _so3_bracket_rhs(rep: SoNu3Rep) -> OperatorMatrix:
    """i(Lz + nu P + nu(2nu+1) K), the form the L definitions actually imply."""
    return (
        rep.l_z
        + rep.p_op.scale(P_NU)
        + rep.k_op.scale(P_NU * NuPolynomial.from_coeffs([1, 2]))
    ).scale(P_I)


def so_nu3_relation_specs(rep: SoNu3Rep) -> List[RelationSpec]:
    zero = OperatorMatrix.zeros(rep.basis)
    i2 = P_I * 2
    return [
        RelationSpec("[Lz,Lx] = i Ly", commutator(rep.l_z, rep.l_x), rep.l_y.scale(P_I)),
        RelationSpec("[Lz,Ly] = -i Lx", commutator(rep.l_z, rep.l_y), rep.l_x.scale(-P_I)),
        RelationSpec(SO3_BRACKET_ID, commutator(rep.l_x, rep.l_y), _so3_bracket_rhs(rep)),
        RelationSpec("[K,Q] = 0 (so3)", commutator(rep.k_op, rep.q_op), zero),
        RelationSpec("[K,P] = 0 (so3)", commutator(rep.k_op, rep.p_op), zero),
        RelationSpec("[K,Lz] = 0", commutator(rep.k_op, rep.l_z), zero),
        RelationSpec("{K,Lx} = 0", anticommutator(rep.k_op, rep.l_x), zero),
        RelationSpec("{K,Ly} = 0", anticommutator(rep.k_op, rep.l_y), zero),
        RelationSpec("[Q,P] = 0 (so3)", commutator(rep.q_op, rep.p_op), zero),
        RelationSpec("[Q,Lz] = 0", commutator(rep.q_op, rep.l_z), zero),
        RelationSpec("{Q,Lx} = 0", anticommutator(rep.q_op, rep.l_x), zero),
        RelationSpec("{Q,Ly} = 0", anticommutator(rep.q_op, rep.l_y), zero),
        RelationSpec("[P,Lz] = 0", commutator(rep.p_op, rep.l_z), zero),
        RelationSpec(
            "{P,Lx} = 2i Q Ly",
            anticommutator(rep.p_op, rep.l_x),
            (rep.q_op @ rep.l_y).scale(i2),
        ),
        RelationSpec(
            "{P,Ly} = -2i Q Lx",
            anticommutator(rep.p_op, rep.l_y),
            (rep.q_op @ rep.l_x).scale(-i2),
        ),
    ]


def so_nu3_condensed_specs(rep: SoNu3Rep) -> List[RelationSpec]:
    bracket = commutator(rep.l_x, rep.l_y)
    if rep.two_j % 2 == 1:
        coeff = P_NU * NuPolynomial.from_coeffs([rep.two_j + 1, 2])
        rhs = (rep.l_z + rep.r_l.scale(coeff)).scale(P_I)
        return [RelationSpec(SO3_ODD_BRACKET_ID, bracket, rhs)]
    rhs = (rep.l_z @ (OperatorMatrix.identity(rep.basis) + rep.r_l.scale(P_TWO_NU))).scale(P_I)
    return [RelationSpec(SO3_EVEN_BRACKET_ID, bracket, rhs)]


def so_nu3_caveats(rep: SoNu3Rep) -> Dict[str, Caveat]:
    """The i/2 caveat of the bracket and of the condensed bracket of this rep's parity."""
    condensed = SO3_ODD_BRACKET_ID if rep.two_j % 2 == 1 else SO3_EVEN_BRACKET_ID
    return {rid: SO3_CAVEATS[rid] for rid in (SO3_BRACKET_ID, condensed)}


def audit_so_nu3(rep: SoNu3Rep) -> List[AlgebraReport]:
    """Full deformed-so(3) audit; bracket relations carry the i/2 caveat."""
    return _audit("so_nu3", rep)


########################################################################
#   Transcribed reference matrices and suspected errata
########################################################################


def _sqrt(p) -> RadicalSum:
    return RadicalSum.sqrt_poly(p)


def _poly(values) -> RadicalSum:
    return RadicalSum.from_polynomial(NuPolynomial.from_coeffs(values))


def reference_matrix_registry() -> List[Tuple[str, OperatorMatrix]]:
    """Low-spin matrices transcribed literally from their conventional printed form.

    Used for entry-by-entry diffing against :func:`build_js_spin_rep`.
    """
    one_nu = deformed_number(1)  # [1] = 1 + 2nu
    reg: List[Tuple[str, OperatorMatrix]] = []

    b1 = spin_basis(1)
    reg.append(("j=1/2: J0", OperatorMatrix.diagonal([_poly([HALF]), _poly([-HALF])], b1)))
    reg.append(
        ("j=1/2: J+", OperatorMatrix.from_entries(b1, {(0, 1): RadicalSum.from_polynomial(one_nu)}))
    )
    reg.append(
        ("j=1/2: J-", OperatorMatrix.from_entries(b1, {(1, 0): RadicalSum.from_polynomial(one_nu)}))
    )

    b2 = spin_basis(2)
    fact2 = deformed_number(1) * deformed_number(2)  # [2]! = 2(1+2nu)
    reg.append(("j=1: J0", OperatorMatrix.diagonal([_poly([1]), _poly([0]), _poly([-1])], b2)))
    reg.append(
        ("j=1: J+", OperatorMatrix.from_entries(b2, {(0, 1): _sqrt(fact2), (1, 2): _sqrt(fact2)}))
    )
    reg.append(
        ("j=1: J-", OperatorMatrix.from_entries(b2, {(1, 0): _sqrt(fact2), (2, 1): _sqrt(fact2)}))
    )

    b3 = spin_basis(3)
    r31 = deformed_number(3) * deformed_number(1)
    r22 = deformed_number(2) * deformed_number(2)
    reg.append(
        (
            "j=3/2: J+",
            OperatorMatrix.from_entries(
                b3, {(0, 1): _sqrt(r31), (1, 2): _sqrt(r22), (2, 3): _sqrt(r31)}
            ),
        )
    )
    reg.append(
        (
            "j=3/2: J-",
            OperatorMatrix.from_entries(
                b3, {(1, 0): _sqrt(r31), (2, 1): _sqrt(r22), (3, 2): _sqrt(r31)}
            ),
        )
    )
    reg.append(
        (
            "j=3/2: J0",
            OperatorMatrix.diagonal(
                [_poly([Fraction(3, 2)]), _poly([HALF]), _poly([-HALF]), _poly([Fraction(-3, 2)])],
                b3,
            ),
        )
    )
    reg.append(
        ("j=3/2: R_J", OperatorMatrix.diagonal([_poly([s]) for s in (1, -1, 1, -1)], b3))
    )

    b4 = spin_basis(4)
    r41 = deformed_number(4) * deformed_number(1)
    r32 = deformed_number(3) * deformed_number(2)
    reg.append(
        (
            "j=2: J+",
            OperatorMatrix.from_entries(
                b4,
                {(0, 1): _sqrt(r41), (1, 2): _sqrt(r32), (2, 3): _sqrt(r32), (3, 4): _sqrt(r41)},
            ),
        )
    )
    reg.append(
        (
            "j=2: J-",
            OperatorMatrix.from_entries(
                b4,
                {(1, 0): _sqrt(r41), (2, 1): _sqrt(r32), (3, 2): _sqrt(r32), (4, 3): _sqrt(r41)},
            ),
        )
    )
    reg.append(
        (
            "j=2: J0",
            OperatorMatrix.diagonal([_poly([v]) for v in (2, 1, 0, -1, -2)], b4),
        )
    )
    reg.append(
        ("j=2: R_J", OperatorMatrix.diagonal([_poly([s]) for s in (1, -1, 1, -1, 1)], b4))
    )
    return reg


# 2j of each spin the reference registry transcribes
REFERENCE_TWO_J = {"j=1/2": 1, "j=1": 2, "j=3/2": 3, "j=2": 4}


def reference_matrix_reports(reps: Optional[Dict[int, SuNu2Rep]] = None) -> List[AlgebraReport]:
    """Diff every transcribed matrix against ``reps`` (2j -> JS rep), built here if not given."""
    if reps is None:
        reps = {two_j: build_js_spin_rep(two_j) for two_j in REFERENCE_TWO_J.values()}
    reports = []
    for name, printed in reference_matrix_registry():
        spin_name, op_name = (part.strip() for part in name.split(":"))
        generated = getattr(reps[REFERENCE_TWO_J[spin_name]], JS_OPERATORS[op_name])
        reports.append(check_relation(f"reference {name} matches generated", generated, printed))
    return reports


@dataclass(frozen=True)
class ErratumFinding:
    name: str
    printed: str
    computed: str
    printed_report: AlgebraReport
    derived_report: Optional[AlgebraReport] = None
    detail: str = ""


def errata_findings() -> List[ErratumFinding]:
    """Printed low-spin claims that disagree with the representation.

    Each finding re-runs both the printed and the corrected form so the
    output always reflects live computation, never a transcription.
    """
    # the derived sides are the ones the audits check
    odd_reps = [build_js_spin_rep(two_j) for two_j in (1, 3, 5, 7)]
    odd_brackets = [condensed_relation_specs(r)[-1] for r in odd_reps]
    rep1, bracket1 = odd_reps[0], odd_brackets[0].lhs
    printed_odd1 = _odd_bracket_rhs(rep1, doubled_j=False)
    derived_odd = check_specs(odd_brackets)
    rep2 = build_js_spin_rep(2)
    _, bracket2, computed2, _ = condensed_relation_specs(rep2)[-1]
    so3 = build_so_nu3(2)
    _, so3_bracket, so3_derived, _ = so_nu3_relation_specs(so3)[2]
    # (name, printed, computed, detail, printed spec, derived check)
    table = [
        (
            "odd-2j condensed commutator coefficient",
            "[J+,J-] = 2 J0 + 2 nu (2 nu + j + 1) R_J",
            "[J+,J-] = 2 J0 + 2 nu (2 nu + 2j + 1) R_J",
            "witness at j=1/2, m=1/2: computed eigenvalue "
            f"{bracket1.entry(0, 0)} vs printed {printed_odd1.entry(0, 0)}",
            RelationSpec(
                "odd 2j: [J+,J-] = 2J0 + 2nu(2nu+j+1) R_J (printed, two_j=1)", bracket1, printed_odd1
            ),
            exact_report(
                "odd 2j: derived coefficient 2nu(2nu+2j+1) for two_j in {1,3,5,7}",
                None
                if all(r.verdict is Verdict.PASS for r in derived_odd)
                else Witness(-1, -1, "all derived forms pass", "see per-two_j reports"),
            ),
        ),
        (
            "j=1/2 deformed Pauli commutator",
            "[s+,s-] = (1 + 3 nu + 4 nu^2) s_z",
            "[s+,s-] = (1 + 2 nu)^2 s_z = (1 + 4 nu + 4 nu^2) s_z",
            "direct product gives [1][1] = (1+2nu)^2 at (j,m) = (1/2,1/2)",
            RelationSpec(
                "j=1/2: [s+,s-] = (1+3nu+4nu^2) s_z (printed)",
                bracket1,
                rep1.j0.scale(NuPolynomial.from_coeffs([1, 3, 4]) * 2),
            ),
            check_relation(
                "j=1/2: [s+,s-] = (1+4nu+4nu^2) s_z (computed)",
                bracket1,
                rep1.j0.scale(NuPolynomial.from_coeffs([1, 4, 4]) * 2),
            ),
        ),
        (
            "j=1 quadratic-algebra substitution",
            "R_J = L_z, so [L+,L-] = 2 L_z (1 + 2 nu L_z)",
            "R_J = diag(1,-1,1) differs from L_z = diag(1,0,-1) at m=0,-1; "
            "[J+,J-] = 2 J0 (1 + 2 nu R_J) holds instead",
            "at m=-1 the reflection eigenvalue is +1 while L_z is -1",
            RelationSpec(
                "j=1: [L+,L-] = 2 L_z (1 + 2nu L_z) with R_J = L_z (printed)",
                bracket2,
                (rep2.j0 @ (OperatorMatrix.identity(rep2.basis) + rep2.j0.scale(P_TWO_NU))).scale(2),
            ),
            check_relation("j=1: [J+,J-] = 2 J0 (1 + 2nu R_J) (computed)", bracket2, computed2),
        ),
        (
            "so(3) bracket scale",
            "[Lx,Ly] = 2 Lz + 2 nu P + 2 nu (2 nu + 1) K",
            "[Lx,Ly] = i (Lz + nu P + nu (2 nu + 1) K)",
            "Lx = (J+ + J-)/2 and Ly = (i/2)(J- - J+) force "
            "[Lx,Ly] = (i/2)[J+,J-]; at nu=0 the printed form claims 2Lz "
            "where the true bracket is i Lz",
            RelationSpec(
                "[Lx,Ly] = 2Lz + 2nu P + 2nu(2nu+1) K (printed)",
                so3_bracket,
                so3.l_z.scale(2)
                + so3.p_op.scale(P_TWO_NU)
                + so3.k_op.scale(P_TWO_NU * NuPolynomial.from_coeffs([1, 2])),
            ),
            check_relation("[Lx,Ly] = i(Lz + nu P + nu(2nu+1) K) (derived)", so3_bracket, so3_derived),
        ),
    ]
    return [
        ErratumFinding(name, printed, computed, check_relation(*spec), derived, detail)
        for name, printed, computed, detail, spec, derived in table
    ]
