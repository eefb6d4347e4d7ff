import math

import numpy as np
import pytest

from wigneralg.errors import InvalidDimensionError
from wigneralg.operators import OperatorMatrix, check_relation, commutator, eval_matrix
from wigneralg.reports import Verdict
from wigneralg.scalars import NuPolynomial, RadicalSum, deformed_number
from wigneralg.single_mode import (
    audit_single_mode,
    build_single_mode,
    single_mode_relation_specs,
    truncation_defect_report,
)


def test_dim2_matrix():
    # a = [[0, sqrt(1+2nu)], [0, 0]]
    s = build_single_mode(2)
    assert s.a.entry(0, 1) == RadicalSum.sqrt_poly(deformed_number(1))
    assert s.a.entry(1, 0).is_zero and s.a.entry(0, 0).is_zero and s.a.entry(1, 1).is_zero


def test_ground_state_column_is_zero():
    s = build_single_mode(5)
    assert all(s.a.entry(i, 0).is_zero for i in range(5))


def test_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        build_single_mode(1)


def test_undeformed_limit_matches_standard_bosons():
    s = build_single_mode(3)
    standard = np.diag([math.sqrt(1), math.sqrt(2)], k=1).astype(complex)
    np.testing.assert_allclose(eval_matrix(s.a, 0.0), standard, atol=1e-15)
    np.testing.assert_allclose(eval_matrix(s.a_dag, 0.0), standard.conj().T, atol=1e-15)


def test_number_operator_is_deformed_diagonal():
    # adag a = diag([0], [1], [2], [3]) = diag(0, 1+2nu, 2, 3+2nu)
    s = build_single_mode(4)
    prod = s.a_dag @ s.a
    expected = OperatorMatrix.diagonal([deformed_number(n) for n in range(4)], s.a.basis)
    assert prod == expected


def test_audit_passes_for_all_dims():
    for dim in range(2, 26):
        reports = audit_single_mode(build_single_mode(dim))
        assert all(r.verdict is Verdict.PASS for r in reports), dim


def test_truncation_defect_matches_brute_force():
    for dim in (2, 5, 10, 13):
        s = build_single_mode(dim)
        report = truncation_defect_report(s)
        assert report.verdict is Verdict.PASS
        # brute-force oracle: numeric commutator at sampled nu
        for nu in (0.0, 0.4, 1.5):
            a = eval_matrix(s.a, nu)
            bracket = a @ a.conj().T - a.conj().T @ a
            expected_diag = np.array(
                [1 + 2 * nu * (-1) ** n for n in range(dim)], dtype=complex
            )
            defect = bracket[dim - 1, dim - 1] - expected_diag[dim - 1]
            n_def = dim + nu * (1 - (-1) ** dim)
            assert defect == pytest.approx(-n_def, abs=1e-12)
            np.testing.assert_allclose(
                np.diag(bracket)[:-1], expected_diag[:-1], atol=1e-12
            )


def test_truncation_defect_report_compares_rows_below_the_top():
    """A bracket changed on a masked row is reported exactly when the masked check fails."""
    for dim in (2, 4, 7):
        s = build_single_mode(dim)
        top = dim - 1
        specs = single_mode_relation_specs(s)
        relation_id, bracket, rhs, mask = specs[0]
        for row in sorted({0, top - 1, top}):
            changed = bracket + OperatorMatrix.from_entries(bracket.basis, {(row, 0): RadicalSum.one()})
            changed_specs = [specs[0]._replace(lhs=changed)] + specs[1:]
            report = truncation_defect_report(s, changed_specs)
            masked = check_relation(relation_id, changed, rhs, mask)
            assert (masked.verdict is Verdict.PASS) == (row == top)
            assert report.verdict is Verdict.FAIL
            problems = report.witness.actual.split("; ")
            assert ("masked rows are not exact" in problems) == (masked.verdict is not Verdict.PASS)


def test_number_identity_unmasked():
    # N = adag a - nu + nu R holds on every row, including the top one
    s = build_single_mode(7)
    nu = NuPolynomial.nu()
    identity = OperatorMatrix.identity(s.a.basis)
    lhs = (s.a_dag @ s.a) - identity.scale(nu) + s.r_op.scale(nu)
    assert lhs == s.n_op
