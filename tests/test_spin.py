import math
from fractions import Fraction

import numpy as np
import pytest

from wigneralg.errors import (
    DimensionTooSmallError,
    InvalidSpinError,
    OddTwoJNotClosedError,
)
from wigneralg.operators import OperatorMatrix, commutator, eval_matrix
from wigneralg.reports import Verdict
from wigneralg.scalars import (
    NuPolynomial,
    RadicalSum,
    deformed_factorial,
    deformed_number,
)
from wigneralg.spin import (
    HPRep,
    audit_condensed_forms,
    audit_hp,
    audit_so_nu3,
    audit_su_nu2,
    build_hp_rep,
    build_js_spin_rep,
    build_so_nu3,
    errata_findings,
    extract_js_block,
    hp_diagonal_factor,
    hp_relation_specs,
    hp_spectrum_report,
    reference_matrix_registry,
    reference_matrix_reports,
)
from wigneralg.two_mode import build_two_mode


def sqrt_prod(m, n):
    return RadicalSum.sqrt_poly(deformed_number(m)) * RadicalSum.sqrt_poly(deformed_number(n))


def test_invalid_spin():
    with pytest.raises(InvalidSpinError):
        build_js_spin_rep(0)


def test_spin_half_matrices():
    rep = build_js_spin_rep(1)
    # J+ = [[0, [1]], [0, 0]] with [1] = 1+2nu appearing as a plain polynomial
    assert rep.j_plus.entry(0, 1) == RadicalSum.from_polynomial(deformed_number(1))
    assert rep.j_minus.entry(1, 0) == RadicalSum.from_polynomial(deformed_number(1))
    assert rep.j0.entry(0, 0) == RadicalSum.from_polynomial(
        NuPolynomial.constant(Fraction(1, 2))
    )
    # top and bottom weights annihilate
    assert all(rep.j_plus.entry(i, 0).is_zero for i in range(2))
    assert all(rep.j_minus.entry(i, 1).is_zero for i in range(2))


def test_spin_one_matrices():
    rep = build_js_spin_rep(2)
    # both superdiagonal entries are sqrt([2]!) = sqrt(2(1+2nu))
    expected = RadicalSum.sqrt_poly(deformed_factorial(2))
    assert rep.j_plus.entry(0, 1) == expected
    assert rep.j_plus.entry(1, 2) == expected
    assert rep.j0 == OperatorMatrix.diagonal(
        [NuPolynomial.constant(v) for v in (1, 0, -1)], rep.basis
    )


def test_spin_three_half_matrices():
    rep = build_js_spin_rep(3)
    assert rep.j_plus.entry(0, 1) == sqrt_prod(3, 1)
    # middle entry sqrt([2][2]) = 2 exactly
    assert rep.j_plus.entry(1, 2) == RadicalSum.from_polynomial(NuPolynomial.constant(2))
    assert rep.j_plus.entry(2, 3) == sqrt_prod(3, 1)
    assert rep.r_j == OperatorMatrix.diagonal(
        [NuPolynomial.constant(s) for s in (1, -1, 1, -1)], rep.basis
    )


def test_spin_two_matrices():
    rep = build_js_spin_rep(4)
    assert rep.j_plus.entry(0, 1) == sqrt_prod(4, 1)
    assert rep.j_plus.entry(1, 2) == sqrt_prod(3, 2)
    assert rep.j_plus.entry(2, 3) == sqrt_prod(3, 2)
    assert rep.j_plus.entry(3, 4) == sqrt_prod(4, 1)
    assert rep.r_j == OperatorMatrix.diagonal(
        [NuPolynomial.constant(s) for s in (1, -1, 1, -1, 1)], rep.basis
    )


def test_reference_registry_matches_generated():
    reports = reference_matrix_reports()
    assert len(reports) == 14
    assert all(r.verdict is Verdict.PASS for r in reports)
    names = [name for name, _ in reference_matrix_registry()]
    assert "j=3/2: R_J" in names and "j=2: R_J" in names


def test_extreme_weights_annihilate():
    # J+ kills m=j (first column), J- kills m=-j (last column)
    for two_j in range(1, 9):
        rep = build_js_spin_rep(two_j)
        dim = two_j + 1
        assert all(rep.j_plus.entry(i, 0).is_zero for i in range(dim))
        assert all(rep.j_minus.entry(i, dim - 1).is_zero for i in range(dim))


def test_conjugate_still_conjugates_complex_entries():
    # Ly = (i/2)(J- - J+) has imaginary entries: conjugating one negates it
    l_y = build_so_nu3(3).l_y
    entries = [value for row in l_y.row_nonzeros() for _, value in row]
    assert entries and all(not v.is_real for v in entries)
    for v in entries:
        assert v.conjugate() == -v
        assert v.conjugate().conjugate() == v
    assert l_y.adjoint() == l_y
    real = build_so_nu3(3).l_x.entry(0, 1)
    assert real.is_real and real.conjugate() is real


def test_su_nu2_audit_passes():
    for two_j in range(1, 9):
        reports = audit_su_nu2(build_js_spin_rep(two_j))
        assert all(r.verdict is Verdict.PASS for r in reports), two_j
        assert all(r.mode.value == "exact" for r in reports)


def test_bracket_eigenvalue_at_spin_half():
    # [J+,J-] at (j,m)=(1/2,1/2) is (1+2nu)^2 = 1+4nu+4nu^2
    rep = build_js_spin_rep(1)
    bracket = commutator(rep.j_plus, rep.j_minus)
    assert bracket.entry(0, 0) == RadicalSum.from_polynomial(
        NuPolynomial.from_coeffs([1, 4, 4])
    )


def test_bracket_is_exactly_diagonal():
    for two_j in range(1, 9):
        rep = build_js_spin_rep(two_j)
        bracket = commutator(rep.j_plus, rep.j_minus)
        for i in range(bracket.dim):
            for j in range(bracket.dim):
                if i != j:
                    assert bracket.entry(i, j).is_zero


def test_condensed_forms_even():
    for two_j in (2, 4, 6, 8):
        reports = audit_condensed_forms(build_js_spin_rep(two_j))
        assert all(r.verdict is Verdict.PASS for r in reports), two_j
        ids = {r.relation_id for r in reports}
        assert "even 2j: [J+,J-] = 2J0(1 + 2nu R_J)" in ids


def test_condensed_forms_odd():
    for two_j in (1, 3, 5, 7):
        reports = {r.relation_id: r for r in audit_condensed_forms(build_js_spin_rep(two_j))}
        assert reports["odd 2j: Q = 0"].verdict is Verdict.PASS
        assert reports["odd 2j: K = R_J"].verdict is Verdict.PASS
        assert reports["odd 2j: P = 2j R_J"].verdict is Verdict.PASS
        bracket = reports[
            "odd 2j: [J+,J-] = 2J0 + 2nu(2nu+2j+1) R_J (derived coefficient)"
        ]
        assert bracket.verdict is Verdict.PASS_WITH_CAVEAT
        assert "printed coefficient 2nu(2nu+j+1) fails" in bracket.caveat


def test_js_mirror_entries_are_one_object():
    # J+ entries i and 2j+1-i are both sqrt([2j+1-i]) sqrt([i]): built once, so the product memo hits
    for two_j in range(1, 9):
        j_plus, dim = build_js_spin_rep(two_j).j_plus, two_j + 1
        for i in range(1, dim):
            assert j_plus.entry(i - 1, i) is j_plus.entry(dim - i - 1, dim - i)
            assert j_plus.entry(i - 1, i) == sqrt_prod(dim - i, i)


def test_block_extraction_equals_closed_form():
    ambient = build_two_mode(10, 10)
    for two_j in range(1, 9):
        extracted = extract_js_block(ambient, two_j)
        closed = build_js_spin_rep(two_j)
        for name in ("j_plus", "j_minus", "j0", "p_op", "k_op", "q_op", "r_j"):
            assert getattr(extracted, name) == getattr(closed, name), (two_j, name)


def test_block_extraction_small_ambient():
    assert extract_js_block(build_two_mode(3, 3), 1).j_plus == build_js_spin_rep(1).j_plus
    ambient6 = build_two_mode(6, 6)
    closed4 = build_js_spin_rep(4)
    assert extract_js_block(ambient6, 4).j_plus == closed4.j_plus
    with pytest.raises(DimensionTooSmallError):
        extract_js_block(build_two_mode(3, 3), 4)


def test_block_extraction_detects_non_invariant_composites():
    from wigneralg.errors import NonInvariantSubspaceError

    ambient = build_two_mode(5, 5)
    # a1 @ a1 makes J- drop n1+n2 by one, leaking out of the fixed-2j block
    broken = ambient._replace(a=(ambient.a[0] @ ambient.a[0], ambient.a[1]))
    # N1 -> a1 makes J0 lower n1, leaking out too
    lowering_j0 = ambient._replace(n_op=(ambient.a[0], ambient.n_op[1]))
    # the message names the first leaking cell in row-major order
    for family, two_j, message in (
        (broken, 2, "J- maps block column 10 to outside row 1"),
        (broken, 3, "J- maps block column 11 to outside row 2"),
        (lowering_j0, 2, "J0 maps block column 6 to outside row 1"),
    ):
        with pytest.raises(NonInvariantSubspaceError) as info:
            extract_js_block(family, two_j)
        assert str(info.value) == message


def test_block_j0_bookkeeping():
    rep = extract_js_block(build_two_mode(5, 5), 3)
    values = [rep.j0.entry(i, i) for i in range(4)]
    expected = [
        RadicalSum.from_polynomial(NuPolynomial.constant(Fraction(k, 2)))
        for k in (3, 1, -1, -3)
    ]
    assert values == expected


# ---------------------------------------------------------------- HP realization


def test_hp_diagonal_factor_against_quotient():
    # the parity-split factor is validated against the raw quotient inside;
    # spot-check the closed forms too
    assert hp_diagonal_factor(4, 0) == NuPolynomial.constant(4)
    assert hp_diagonal_factor(4, 1) == NuPolynomial.from_coeffs([3, 2])
    assert hp_diagonal_factor(2, 2) == NuPolynomial.zero()


def test_hp_two_j_2_entries():
    rep = build_hp_rep(2)
    # J-|0> = sqrt(g(0)[1]) |1> = sqrt(2(1+2nu)) |1>
    assert rep.j_minus.entry(1, 0) == RadicalSum.sqrt_poly(NuPolynomial.from_coeffs([2, 4]))
    # matches the closed-form ladder sqrt([2][1])
    assert rep.j_minus.entry(1, 0) == sqrt_prod(2, 1)
    # J+ annihilates |0> (the m=j top weight)
    assert all(rep.j_plus.entry(i, 0).is_zero for i in range(rep.j_plus.dim))


def test_hp_equals_js_matrices_for_even_two_j():
    for two_j in (2, 4, 6):
        hp = build_hp_rep(two_j)
        js = build_js_spin_rep(two_j)
        assert hp.j_plus.rows == js.j_plus.rows
        assert hp.j_minus.rows == js.j_minus.rows


def test_hp_commutator_eigenvalue_example():
    # two_j=2, n=1 (m=0): 2 J0 (1+2nu R) eigenvalue is 0
    rep = build_hp_rep(2)
    bracket = commutator(rep.j_plus, rep.j_minus)
    assert bracket.entry(1, 1).is_zero


def test_hp_audit_passes():
    def relabel(op, shift):  # the same operator with level n stored at (n + shift) mod dim
        dim = op.dim
        return OperatorMatrix.from_entries(
            op.basis,
            {((i + shift) % dim, (j + shift) % dim): v for i, row in enumerate(op.row_nonzeros()) for j, v in row},
        )

    for two_j in (2, 4, 6, 8, 10):
        rep = build_hp_rep(two_j)
        reports = audit_hp(rep)
        assert all(r.passed for r in reports), two_j
        # the spectral check compares sorted spectra, so any level order passes
        for shift in (1, two_j):
            moved = HPRep(two_j, *(relabel(op, shift) for op in (rep.j_plus, rep.j_minus, rep.j0, rep.r_op)))
            assert [r.verdict for r in audit_hp(moved)] == [r.verdict for r in reports], (two_j, shift)


def test_hp_spectrum_report_fails_on_a_scaled_bracket():
    # J+ and J- scaled by 2 scale the bracket by 4: its spectrum no longer matches the JS block's
    rep = build_hp_rep(4)
    doubled = rep._replace(j_plus=rep.j_plus.scale(2), j_minus=rep.j_minus.scale(2))
    report = hp_spectrum_report(hp_relation_specs(doubled), build_js_spin_rep(4))
    assert report.verdict is Verdict.FAIL
    assert report.max_residual == 60.0
    assert report.witness.actual == "max gap 60.0"


def test_hp_odd_refusal_with_leakage():
    for two_j in (1, 3):
        with pytest.raises(OddTwoJNotClosedError) as info:
            build_hp_rep(two_j)
        err = info.value
        assert err.two_j == two_j
        expected = RadicalSum.sqrt_poly(
            NuPolynomial.from_coeffs([0, 2]) * deformed_number(two_j + 1)
        )
        assert err.leakage == expected
    # two_j=1: g(1) = 2nu and [2] = 2, so the leakage is sqrt(4nu) = 2 sqrt(nu)
    with pytest.raises(OddTwoJNotClosedError) as info:
        build_hp_rep(1)
    assert str(info.value.leakage) == "2*sqrt(nu)"


def test_hp_undeformed_limit_is_standard():
    # nu = 0 reproduces sqrt((2j-n)(n+1)) ladders
    for two_j in (2, 4):
        rep = build_hp_rep(two_j)
        dim = two_j + 1
        standard = np.zeros((dim, dim), dtype=complex)
        for n in range(1, dim):
            standard[n - 1, n] = math.sqrt((two_j - n + 1) * n)
        np.testing.assert_allclose(eval_matrix(rep.j_plus, 0.0), standard, atol=1e-13)
        j0 = np.diag([two_j / 2 - n for n in range(dim)]).astype(complex)
        np.testing.assert_allclose(eval_matrix(rep.j0, 0.0), j0, atol=1e-15)


# ---------------------------------------------------------------- so(3)


def test_so3_spin_half_entries():
    rep = build_so_nu3(1)
    half_one_nu = NuPolynomial.from_coeffs([Fraction(1, 2), 1])  # (1+2nu)/2
    assert rep.l_x.entry(0, 1) == RadicalSum.from_polynomial(half_one_nu)
    assert rep.l_x.entry(1, 0) == RadicalSum.from_polynomial(half_one_nu)


def test_so3_self_adjoint():
    for two_j in (1, 2, 4):
        rep = build_so_nu3(two_j)
        assert rep.l_x.adjoint() == rep.l_x
        assert rep.l_y.adjoint() == rep.l_y
        assert rep.l_z.adjoint() == rep.l_z


def test_so3_audit():
    for two_j in range(1, 7):
        reports = audit_so_nu3(build_so_nu3(two_j))
        assert all(r.passed for r in reports), two_j
        bracket = [r for r in reports if r.relation_id.startswith("[Lx,Ly]")]
        assert bracket and bracket[0].verdict is Verdict.PASS_WITH_CAVEAT
        assert "i/2" in bracket[0].caveat


def test_so3_numeric_residual():
    rep = build_so_nu3(3)
    nu = 0.3
    lz, lx, ly = (eval_matrix(m, nu) for m in (rep.l_z, rep.l_x, rep.l_y))
    residual = np.linalg.norm(lz @ lx - lx @ lz - 1j * ly)
    assert residual < 1e-12


def test_so3_casimir_like_sanity():
    # Lx^2 + Ly^2 + Lz^2 is Hermitian with a real spectrum at sampled nu
    for two_j in (1, 2, 3):
        rep = build_so_nu3(two_j)
        total = (rep.l_x @ rep.l_x) + (rep.l_y @ rep.l_y) + (rep.l_z @ rep.l_z)
        for nu in (0.0, 0.4, 1.1):
            mat = eval_matrix(total, nu)
            assert np.linalg.norm(mat - mat.conj().T) < 1e-12
            eigs = np.linalg.eigvals(mat)
            assert np.max(np.abs(eigs.imag)) < 1e-10


def test_so3_undeformed_limit():
    # nu=0, two_j=2: standard spin-1 generators satisfy [Lx,Ly] = i Lz
    rep = build_so_nu3(2)
    lx, ly, lz = (eval_matrix(m, 0.0) for m in (rep.l_x, rep.l_y, rep.l_z))
    np.testing.assert_allclose(lx @ ly - ly @ lx, 1j * lz, atol=1e-13)


# ---------------------------------------------------------------- errata


def test_errata_findings_shape():
    findings = errata_findings()
    assert [f.name for f in findings] == [
        "odd-2j condensed commutator coefficient",
        "j=1/2 deformed Pauli commutator",
        "j=1 quadratic-algebra substitution",
        "so(3) bracket scale",
    ]
    for f in findings:
        assert f.printed_report.verdict is Verdict.FAIL
        assert f.derived_report is not None and f.derived_report.verdict is Verdict.PASS


def test_erratum_odd_coefficient_witness():
    finding = errata_findings()[0]
    w = finding.printed_report.witness
    assert (w.row, w.col) == (0, 0)  # m = +1/2 entry at j = 1/2
    assert w.actual == "(1 + 4*nu + 4*nu^2)"
    assert w.expected == "(1 + 3*nu + 4*nu^2)"


def test_erratum_quadratic_witness_row():
    finding = errata_findings()[2]
    # the substitution only breaks at m=-1, the third basis vector
    assert finding.printed_report.witness.row == 2
