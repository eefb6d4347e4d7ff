import hashlib
from unittest import mock

import numpy as np
import pytest

from wigneralg import operators, scalars, suites
from wigneralg.errors import InvalidDimensionError
from wigneralg.operators import OperatorMatrix, eval_matrix, tensor
from wigneralg.reports import Verdict
from wigneralg.scalars import RadicalSum, deformed_number
from wigneralg.single_mode import build_single_mode
from wigneralg.suites import Run
from wigneralg.two_mode import audit_two_mode, build_two_mode, two_mode_from


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


def _unshared(m1, m2):
    """The eight two-mode operators as plain tensor products of each mode's own operators."""
    i1, i2 = OperatorMatrix.identity(m1.a.basis), OperatorMatrix.identity(m2.a.basis)
    return [
        op
        for name in ("a", "a_dag", "n_op", "r_op")
        for op in (tensor(getattr(m1, name), i2), tensor(i1, getattr(m2, name)))
    ]


@pytest.mark.parametrize("d1, d2", [(3, 5), (5, 3), (4, 4)])
def test_build_two_mode_shares_entries_without_changing_operators(d1, d2):
    s = build_two_mode(d1, d2)
    shared = [op for pair in (s.a, s.a_dag, s.n_op, s.r_op) for op in pair]
    for got, want in zip(shared, _unshared(build_single_mode(d1), build_single_mode(d2))):
        assert got == want
        assert hash(got) == hash(want)
    # both modes hold one sqrt([1]) and one n = 2 object
    assert s.a[0].entry(index_of(s, 0, 0), index_of(s, 1, 0)) is s.a[1].entry(index_of(s, 0, 0), index_of(s, 0, 1))
    assert s.n_op[0].entry(index_of(s, 2, 0), index_of(s, 2, 0)) is s.n_op[1].entry(index_of(s, 0, 2), index_of(s, 0, 2))


def test_two_mode_from_tensors_the_sets_it_is_given():
    small, large = build_single_mode(3), build_single_mode(5)
    hand_built = small._replace(a=small.a.scale(2), n_op=small.n_op.scale(3))
    s = two_mode_from(hand_built, large)
    for got, want in zip([op for pair in (s.a, s.a_dag, s.n_op, s.r_op) for op in pair], _unshared(hand_built, large)):
        assert got == want
    cell = (index_of(s, 0, 0), index_of(s, 1, 0))
    assert s.a[0].entry(*cell) is hand_built.a.entry(0, 1)
    assert s.a[0].entry(*cell) is not large.a.entry(0, 1)


@pytest.mark.parametrize("dims", [(6, 9), (9, 6)])
def test_run_tensors_its_single_mode_families(dims):
    run = Run()
    with mock.patch.object(suites, "build_single_mode", wraps=build_single_mode) as builds:
        s = run.family("two-mode", *dims)
        assert run.family("two-mode", *dims) is s
    # one single-mode family per mode, each built once and kept by the run
    assert [call.args for call in builds.call_args_list] == [(dims[0],), (dims[1],)]
    for mode, dim in enumerate(dims):
        single = run.family("single-mode", dim)

        def at(n):
            return index_of(s, *((n, 0) if mode == 0 else (0, n)))

        for n in range(1, dim):
            assert s.a[mode].entry(at(n - 1), at(n)) is single.a.entry(n - 1, n)
            assert s.a_dag[mode].entry(at(n), at(n - 1)) is single.a_dag.entry(n, n - 1)
            assert s.n_op[mode].entry(at(n), at(n)) is single.n_op.entry(n, n)


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


def _scalar_products(work):
    """(RadicalSum products, term products) that ``work()`` makes, and its result."""
    calls = term_products = 0
    multiply, term_product = RadicalSum.__mul__, scalars._term_product

    def counting(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    def counting_terms(*args):
        nonlocal term_products
        term_products += 1
        return term_product(*args)

    operators._MEMO.clear()  # counted from a cold memo, in any test order
    with mock.patch.object(RadicalSum, "__mul__", counting), mock.patch.object(
        scalars, "_term_product", counting_terms
    ):
        result = work()
    return calls, term_products, result


def test_audit_computes_each_scalar_product_once_per_relation_set():
    # the product kernel memoizes x*y by its unordered pair of entries for the
    # process, tensor(x, I) repeats each entry down its band, adag shares a's
    # entries and the two modes share their sqrt([n]) and n; a kernel without
    # memos makes 5,296 products here, and one with a memo per bracket 1,646
    # (708 term products)
    calls, term_products, reports = _scalar_products(lambda: audit_two_mode(build_two_mode(10, 10)))
    assert all(r.verdict is Verdict.PASS for r in reports)
    assert 0 < calls <= 885
    assert 0 < term_products <= 117


def test_sweep_pass_scalar_products_stay_within_the_unfused_kernels_counts():
    # one pass of the benchmark's two-mode sweep, d1, d2 in 2..10; from a cold
    # memo the counts repeat exactly from run to run.  The bounds are the counts of the
    # kernel that summed two products per bracket entry (26,565 and 4,293);
    # the fused kernel, which skips commuting band pairs, makes 11,347 and 1,333,
    # and 3,193 products once tensor repeats an entry down an identity factor
    pairs = [(d1, d2) for d1 in range(2, 11) for d2 in range(2, 11)]
    calls, term_products, reports = _scalar_products(
        lambda: [r for d1, d2 in pairs for r in audit_two_mode(build_two_mode(d1, d2))]
    )
    assert len(reports) == 24 * len(pairs)
    assert all(r.verdict is Verdict.PASS for r in reports)
    assert 0 < calls <= 3_193
    assert 0 < term_products <= 4_293


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
