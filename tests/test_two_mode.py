import hashlib
from unittest import mock

import numpy as np
import pytest

from wigneralg.errors import InvalidDimensionError
from wigneralg.operators import OperatorMatrix, eval_matrix, tensor
from wigneralg.reports import Verdict
from wigneralg.scalars import RadicalSum, deformed_number
from wigneralg.single_mode import build_single_mode
from wigneralg.two_mode import audit_two_mode, build_two_mode


def index_of(s, n1, n2):
    return next(i for i, l in enumerate(s.basis) if (l.n1, l.n2) == (n1, n2))


def test_invalid_dims():
    with pytest.raises(InvalidDimensionError):
        build_two_mode(1, 4)


def test_ladder_actions():
    s = build_two_mode(3, 3)
    # a2|0,1> = sqrt([1])|0,0>
    assert s.a[1].entry(index_of(s, 0, 0), index_of(s, 0, 1)) == RadicalSum.sqrt_poly(
        deformed_number(1)
    )
    # a1|0,n2> = 0
    for n2 in range(3):
        col = index_of(s, 0, n2)
        assert all(s.a[0].entry(i, col).is_zero for i in range(s.a[0].dim))
    # adag1 adag2 |0,0> lands on |1,1> with coefficient sqrt([1])^2 = 1+2nu
    lifted = s.a_dag[0] @ s.a_dag[1]
    entry = lifted.entry(index_of(s, 1, 1), index_of(s, 0, 0))
    assert entry == RadicalSum.from_polynomial(deformed_number(1))


def test_audit_passes_small_grid():
    for d1 in (2, 3, 5):
        for d2 in (2, 4):
            reports = audit_two_mode(build_two_mode(d1, d2))
            assert all(r.passed for r in reports), (d1, d2)
            assert all(r.verdict is Verdict.PASS for r in reports)


def test_two_mode_operators_share_one_basis():
    s = build_two_mode(3, 4)
    assert s.a[0].basis is s.r_op[1].basis
    assert all(op.basis is s.basis for op in s.a + s.a_dag + s.n_op + s.r_op)
    # the shared tuple holds the labels tensor builds on its own
    m1, m2 = build_single_mode(3), build_single_mode(4)
    assert s.basis == tensor(OperatorMatrix.identity(m1.a.basis), m2.r_op).basis
    assert s.r_op[1] == tensor(OperatorMatrix.identity(m1.a.basis), m2.r_op)


def test_audit_verdicts_pinned():
    # sha256 of every (relation id, verdict, mode, caveat) over dims 2..7 x 2..7:
    # any change to the operator kernel or the scalars must leave it unchanged
    rows = [
        [(r.relation_id, r.verdict.value, r.mode.value, r.caveat) for r in audit_two_mode(build_two_mode(d1, d2))]
        for d1 in range(2, 8)
        for d2 in range(2, 8)
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "44e7926c70d91d3d8e11731eeaaf66a1f1898653f1c22b348292105273810008"
    )


def test_cross_mode_relations_are_exact_zero():
    s = build_two_mode(4, 3)
    reports = {r.relation_id: r for r in audit_two_mode(s)}
    for rid in ("[a1,a2] = 0", "[R1,a2] = 0", "[R2,a1] = 0", "[a1,adag2] = 0"):
        assert reports[rid].verdict is Verdict.PASS
        assert reports[rid].mode.value == "exact"


def test_audit_computes_each_scalar_product_once_per_call():
    # the product kernel memoizes x*y per call by its unordered pair of entry
    # objects, and tensor(x, I) repeats each entry object down its band; a
    # kernel without that memo makes 5,296 products here
    calls = 0
    multiply = RadicalSum.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    with mock.patch.object(RadicalSum, "__mul__", counting):
        reports = audit_two_mode(build_two_mode(10, 10))
    assert all(r.verdict is Verdict.PASS for r in reports)
    assert 0 < calls <= 2236


def test_mode_swap_symmetry():
    import re

    fwd = audit_two_mode(build_two_mode(3, 5))
    rev = audit_two_mode(build_two_mode(5, 3))

    def normalize(rid):
        # swap the mode index on operator tokens only, not on scalars like 2nu
        swapped = re.sub(
            r"(adag|a|N|R)([12])",
            lambda m: m.group(1) + ("2" if m.group(2) == "1" else "1"),
            rid,
        )
        # the antisymmetric zero brackets are order-insensitive
        return swapped.replace("[a2,a1]", "[a1,a2]").replace("[adag2,adag1]", "[adag1,adag2]")

    fwd_map = {r.relation_id: (r.verdict, r.mode) for r in fwd}
    rev_map = {normalize(r.relation_id): (r.verdict, r.mode) for r in rev}
    assert fwd_map == rev_map


def test_numpy_kron_oracle():
    # independent construction via np.kron at sampled nu
    d1, d2 = 4, 3
    s = build_two_mode(d1, d2)
    for nu in (0.0, 0.7):
        def ladder(dim):
            return np.diag(
                [np.sqrt(n + nu * (1 - (-1) ** n)) for n in range(1, dim)], k=1
            ).astype(complex)

        a1 = np.kron(ladder(d1), np.eye(d2))
        a2 = np.kron(np.eye(d1), ladder(d2))
        np.testing.assert_allclose(eval_matrix(s.a[0], nu), a1, atol=1e-14)
        np.testing.assert_allclose(eval_matrix(s.a[1], nu), a2, atol=1e-14)
        r1 = np.kron(np.diag([(-1.0) ** n for n in range(d1)]), np.eye(d2))
        np.testing.assert_allclose(eval_matrix(s.r_op[0], nu), r1.astype(complex), atol=1e-14)
