import gc
import math
from operator import is_

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigneralg import operators
from wigneralg.errors import DimensionMismatchError
from wigneralg.operators import (
    Caveat,
    FockLabel,
    OperatorMatrix,
    RelationSpec,
    SpinLabel,
    TwoModeLabel,
    _fused,
    _memo_scope,
    anticommutator,
    check_relation,
    check_specs,
    commutator,
    eval_matrix,
    fock_basis,
    numeric_relation_report,
    tensor,
)
from wigneralg.reports import AlgebraReport, CheckMode, Verdict
from wigneralg.scalars import R_MINUS_ONE, R_ONE, R_ZERO, GaussianRational, NuPolynomial, RadicalSum, deformed_number
from wigneralg.single_mode import build_single_mode
from wigneralg.spin import build_hp_rep, build_js_spin_rep, build_so_nu3, js_composites
from wigneralg.two_mode import build_two_mode


def poly(*coeffs):
    return NuPolynomial.from_coeffs(coeffs)


def test_basis_label_validation():
    with pytest.raises(ValueError):
        FockLabel(-1)
    for n1, n2 in ((0, -2), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            TwoModeLabel(n1, n2)
    with pytest.raises(ValueError):
        SpinLabel(2, 3)  # |2m| > 2j
    with pytest.raises(ValueError):
        SpinLabel(2, 1)  # parity mismatch
    assert str(SpinLabel(3, -1)) == "spin(3/2,-1/2)"
    assert str(TwoModeLabel(1, 0)) == "two(1,0)"


def test_matrix_construction_validation():
    basis = fock_basis(2)
    one = RadicalSum.one()
    with pytest.raises(ValueError):  # one row for two labels
        OperatorMatrix(basis, [[(0, one)]])
    with pytest.raises(ValueError):  # duplicate labels
        OperatorMatrix.from_entries([FockLabel(0), FockLabel(0)], {(0, 0): one})
    with pytest.raises(ValueError):  # unsorted columns
        OperatorMatrix(basis, [[(1, one), (0, one)], []])
    with pytest.raises(ValueError):  # duplicate column
        OperatorMatrix(basis, [[(0, one), (0, one)], []])
    for col in (-1, 2):  # column out of range
        with pytest.raises(ValueError):
            OperatorMatrix(basis, [[], [(col, one)]])
    with pytest.raises(ValueError):  # stored zero
        OperatorMatrix(basis, [[(0, RadicalSum.zero())], []])
    with pytest.raises(ValueError):  # entry row out of range
        OperatorMatrix.from_entries(basis, {(-1, 0): one})
    # from_entries drops zero values, so the stored form stays canonical
    assert OperatorMatrix.diagonal([one, RadicalSum.zero()], basis) == OperatorMatrix(
        basis, [[(0, one)], []]
    )


def test_identity_commutes():
    s = build_single_mode(4)
    identity = OperatorMatrix.identity(s.a.basis)
    assert commutator(identity, s.a) == OperatorMatrix.zeros(s.a.basis)
    assert anticommutator(identity, s.a) == s.a.scale(2)


def test_number_commutator_example():
    # [N, adag] = adag on Fock dim 4
    s = build_single_mode(4)
    assert commutator(s.n_op, s.a_dag) == s.a_dag


def test_dimension_mismatch_raises():
    a = build_single_mode(3).a
    b = build_single_mode(4).a
    with pytest.raises(DimensionMismatchError):
        commutator(a, b)
    for sign in (0, 1, -1):  # each of the kernel's forms checks its operands' space
        with pytest.raises(DimensionMismatchError):
            _fused(a, b, sign)
    with pytest.raises(DimensionMismatchError):
        a @ b
    with pytest.raises(DimensionMismatchError):
        check_relation("x", a, b)


def _family_operators():
    """(name, operators on one space) for single-mode, two-mode and spin families."""
    for dim in (2, 3, 6):
        s = build_single_mode(dim)
        yield f"single {dim}", [s.a, s.a_dag, s.n_op, s.r_op]
    for d1 in range(2, 6):
        for d2 in range(2, 6):
            s = build_two_mode(d1, d2)
            yield f"two-mode {d1}x{d2}", [*s.a, *s.a_dag, *s.n_op, *s.r_op]
    for two_j in (1, 2, 3, 4):
        rep, so3 = build_js_spin_rep(two_j), build_so_nu3(two_j)
        yield f"su {two_j}", [rep.j_plus, rep.j_minus, rep.j0, rep.p_op, rep.k_op, rep.q_op, rep.r_j]
        yield f"so {two_j}", [so3.l_x, so3.l_y, so3.l_z]
    for two_j in (2, 4):
        hp = build_hp_rep(two_j)
        yield f"hp {two_j}", [hp.j_plus, hp.j_minus, hp.j0, hp.r_op]


def test_brackets_match_product_then_merge():
    """The one-pass bracket kernel equals (A @ B) -/+ (B @ A) built as two products and a merge."""
    for name, ops in _family_operators():
        for x in ops:
            for y in ops:
                xy, yx = x @ y, y @ x
                assert commutator(x, y) == xy - yx, name
                assert anticommutator(x, y) == xy + yx, name
    for d1, d2 in ((2, 2), (3, 5), (5, 4)):
        s = build_two_mode(d1, d2)
        (n1, n2), (r1, r2) = s.n_op, s.r_op
        assert js_composites(s)["P"] == (n1 @ r2) - (n2 @ r1)


def _product_then_merge(x, y):
    """The cells of x @ y from the row views: each cell's products, then their sum."""
    cells = {}
    y_rows = y.row_nonzeros()
    for i, row in enumerate(x.row_nonzeros()):
        for t, x_value in row:
            for j, y_value in y_rows[t]:
                cells.setdefault((i, j), []).append(x_value * y_value)
    return {cell: sum(products, R_ZERO) for cell, products in cells.items()}


def _reference_forms(a, b):
    """[a, b], {a, b} and a @ b built from two products and a merge, with no kernel call."""
    ab, ba = _product_then_merge(a, b), _product_then_merge(b, a)
    cells = ab.keys() | ba.keys()
    return [
        OperatorMatrix.from_entries(a.basis, {c: ab.get(c, R_ZERO) - ba.get(c, R_ZERO) for c in cells}),
        OperatorMatrix.from_entries(a.basis, {c: ab.get(c, R_ZERO) + ba.get(c, R_ZERO) for c in cells}),
        OperatorMatrix.from_entries(a.basis, ab),
    ]


def test_scoped_memo_survives_freed_temporaries():
    """Inside one spec-list scope the memos key by entry ids: a dropped temporary must not lend its ids."""
    s = build_single_mode(6)
    so3 = build_so_nu3(5)  # Lx and Ly have two bands each, so their brackets sum two band pairs
    factors = range(2, 12)
    pairs = [
        (s.a.scale(f), s.a_dag, so3.l_x.scale(f), so3.l_y, so3.l_x, so3.l_y.scale(f)) for f in factors
    ]
    expected = []
    for a, a_dag, l_x, l_y, l_x2, l_y2 in pairs:
        brackets, anti, _ = _reference_forms(a, a_dag)
        so_brackets, _, _ = _reference_forms(l_x, l_y)
        _, so_anti, _ = _reference_forms(l_x2, l_y2)
        expected += [brackets, anti, so_brackets, so_anti]
    del pairs

    @_memo_scope
    def brackets():
        results = []
        for f in factors:
            # scale builds fresh entry objects; each temporary dies after its bracket
            results.append(commutator(s.a.scale(f), s.a_dag))
            results.append(anticommutator(s.a.scale(f), s.a_dag))
            results.append(commutator(so3.l_x.scale(f), so3.l_y))
            results.append(anticommutator(so3.l_x, so3.l_y.scale(f)))
            gc.collect()
        return results

    assert operators._scope.get() is None
    assert brackets() == expected
    assert operators._scope.get() is None


def test_scope_is_removed_when_a_spec_function_raises():
    s = build_single_mode(3)

    @_memo_scope
    def failing():
        assert operators._scope.get() is not None
        commutator(s.a, s.a_dag)
        raise RuntimeError("spec list failed")

    with pytest.raises(RuntimeError):
        failing()
    assert operators._scope.get() is None
    assert commutator(s.a, s.a_dag) == (s.a @ s.a_dag) - (s.a_dag @ s.a)


def test_a_scoped_call_inside_another_joins_its_scope():
    s = build_single_mode(4)
    scopes = []

    @_memo_scope
    def inner():
        scopes.append(operators._scope.get())
        return commutator(s.a, s.a_dag)

    @_memo_scope
    def outer():
        scopes.append(operators._scope.get())
        first = inner()
        # the second bracket reads the first one's memo: every entry is the same object
        second = inner()
        return all(map(is_, first._bands[0], second._bands[0]))

    assert outer()
    assert scopes[0] is not None and scopes.count(scopes[0]) == 3
    assert operators._scope.get() is None


# the fused kernel's entries repeat these objects, so its four-id keys recur across bands and calls
SHARED_POOL = (
    R_ZERO,
    R_ONE,
    R_MINUS_ONE,
    RadicalSum.sqrt_poly(2),
    RadicalSum.sqrt_poly(poly(1, 2)),
    -RadicalSum.sqrt_poly(poly(1, 2)),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fused_kernel_matches_reference_at_padded_edges(data):
    """Bands at any offset, from the edge bands -(dim-1) and dim-1 inward, read the kernel's zero padding."""
    dim = data.draw(st.integers(1, 5), label="dim")
    basis = fock_basis(dim)

    def draw_matrix(label):
        offsets = data.draw(
            st.lists(st.integers(-(dim - 1), dim - 1), min_size=1, max_size=3, unique=True), label=label
        )
        entries = {}
        for k in offsets:
            for i in range(max(0, -k), min(dim, dim - k)):
                entries[(i, i + k)] = data.draw(st.sampled_from(SHARED_POOL))
        return OperatorMatrix.from_entries(basis, entries)

    a, b = draw_matrix("a"), draw_matrix("b")
    expected = _reference_forms(a, b)

    def forms():
        return [commutator(a, b), anticommutator(a, b), a @ b]

    assert forms() == expected
    assert _memo_scope(forms)() == expected
    for nu in (0.0, 0.7):
        ea, eb = eval_matrix(a, nu), eval_matrix(b, nu)
        for matrix, dense in zip(expected, (ea @ eb - eb @ ea, ea @ eb + eb @ ea, ea @ eb)):
            np.testing.assert_allclose(eval_matrix(matrix, nu), dense, atol=1e-12)


def test_zeros_that_are_not_the_zero_object_are_never_stored():
    """An empty value other than R_ZERO (a merge builds one) must not keep a band alive."""
    basis = fock_basis(3)
    zero = OperatorMatrix.zeros(basis)
    two_roots = RadicalSum.sqrt_poly(2) + RadicalSum.sqrt_poly(poly(1, 2))
    # the merge of two_roots and its negation cancels to a fresh empty value
    assert (two_roots + -two_roots).terms == () and (two_roots + -two_roots) is not R_ZERO
    diag = OperatorMatrix.diagonal([two_roots] * 3, basis)
    assert diag + diag.scale(-1) == zero
    assert OperatorMatrix.diagonal([RadicalSum(), RadicalSum(), RadicalSum()], basis) == zero
    assert OperatorMatrix.identity(basis).scale(RadicalSum()) == zero
    # two band pairs land on band 0 and their sums cancel the same way
    shift = OperatorMatrix.from_entries(basis, {(0, 1): two_roots, (1, 0): two_roots})
    flip = OperatorMatrix.from_entries(basis, {(0, 1): R_ONE, (1, 0): R_MINUS_ONE})
    assert (shift @ flip).entry(0, 0) == -two_roots and (shift @ flip).entry(1, 1) == two_roots
    assert anticommutator(shift, flip) == zero


def test_str_is_the_dense_grid_right_aligned():
    one_plus_2nu = poly(1, 2)
    m = OperatorMatrix.from_entries(
        fock_basis(3),
        {
            (0, 0): R_ONE,
            (1, 1): RadicalSum.coerce(-2),
            (2, 2): RadicalSum.from_polynomial(one_plus_2nu),
            (0, 1): RadicalSum.sqrt_poly(one_plus_2nu),
            (1, 2): RadicalSum.sqrt_poly(2),
        },
    )
    assert str(m) == (
        "             1  sqrt(1 + 2*nu)               0\n"
        "             0              -2         sqrt(2)\n"
        "             0               0      (1 + 2*nu)"
    )


# ---------------------------------------------------------------- adjoints


small_poly_st = st.builds(
    NuPolynomial.from_coeffs,
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=3),
)
entry_st = st.builds(
    lambda c, r: RadicalSum.from_polynomial(c) * RadicalSum.sqrt_poly(r),
    small_poly_st,
    st.builds(NuPolynomial.from_coeffs, st.lists(st.integers(0, 4), min_size=1, max_size=2)),
)


def matrix_st(dim):
    basis = fock_basis(dim)
    return st.builds(
        lambda entries: OperatorMatrix.from_entries(
            basis, {(i, j): entries[i * dim + j] for i in range(dim) for j in range(dim)}
        ),
        st.lists(entry_st, min_size=dim * dim, max_size=dim * dim),
    )


@settings(max_examples=25, deadline=None)
@given(matrix_st(2), matrix_st(2))
def test_product_adjoint_antihomomorphism(a, b):
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert a.adjoint().adjoint() == a


@settings(max_examples=20, deadline=None)
@given(matrix_st(2), matrix_st(2), matrix_st(2))
def test_tensor_bilinearity(a, b, c):
    assert tensor(a + b, c) == tensor(a, c) + tensor(b, c)
    assert tensor(a, b + c) == tensor(a, b) + tensor(a, c)


# ---------------------------------------------------------------- dense reference


def _assert_matches_dense(matrix, dense):
    """matrix equals the dense list-of-lists reference and is stored canonically."""
    dim = len(dense)
    assert matrix.dim == dim
    assert matrix.rows == tuple(tuple(row) for row in dense)
    assert all(matrix.entry(i, j) == dense[i][j] for i in range(dim) for j in range(dim))
    for i, row in enumerate(matrix.row_nonzeros()):
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)), "columns strictly increasing"
        assert all(value.terms for _, value in row), "no stored zero"
        assert cols == [j for j in range(dim) if dense[i][j].terms]


IMAG_UNIT = RadicalSum.coerce(GaussianRational(0, 1))
# zeros, real entries and imaginary ones (so adjoint must conjugate)
cell_st = st.one_of(st.just(RadicalSum.zero()), entry_st, entry_st.map(lambda v: v * IMAG_UNIT))


def _cells(data, dim, like=None):
    """dim x dim cells; with `like`, each cell may repeat or negate like's, so sums cancel."""
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            choices = [cell_st]
            if like is not None:
                choices += [st.just(like[i][j]), st.just(-like[i][j])]
            row.append(data.draw(st.one_of(*choices)))
        rows.append(row)
    return rows


def _from_dense(basis, dense):
    n = len(dense)
    return OperatorMatrix.from_entries(basis, {(i, j): dense[i][j] for i in range(n) for j in range(n)})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sparse_operations_match_dense_reference(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    dim2 = data.draw(st.integers(1, 3), label="dim2")
    basis = fock_basis(dim)
    da = _cells(data, dim)
    db = _cells(data, dim, like=da)
    dc = _cells(data, dim2)
    # the shared units take the scalar short-cut; values equal to them that are
    # other objects (built from their terms) take the general path
    fresh = [RadicalSum(R_ONE.terms), RadicalSum(R_MINUS_ONE.terms)]
    units = st.sampled_from([R_ONE, R_MINUS_ONE, -R_ONE, -R_MINUS_ONE, RadicalSum.coerce(1), *fresh])
    factor = data.draw(st.one_of(cell_st, units), label="factor")
    a, b, c = _from_dense(basis, da), _from_dense(basis, db), _from_dense(fock_basis(dim2), dc)
    span = range(dim)
    _assert_matches_dense(a, da)

    def dense_product(x, y):
        return [[sum((x[i][k] * y[k][j] for k in span), RadicalSum.zero()) for j in span] for i in span]

    product, reverse = dense_product(da, db), dense_product(db, da)
    # a @ flip accumulates each row against column order; ones @ paired sums
    # rows v and -v, so its entries cancel to zero
    one, zero = RadicalSum.one(), RadicalSum.zero()
    flip = [[one if i + j == dim - 1 else zero for j in span] for i in span]
    ones = [[one] * dim for _ in span]
    paired = [da[i] if i % 2 == 0 else [-v for v in da[i - 1]] for i in span]
    neg = [[-v for v in row] for row in da]
    signs = [(R_ONE, R_MINUS_ONE)[i % 2] for i in span]
    parity = OperatorMatrix.diagonal(signs, basis)
    odd = [[da[i][j] if (i + j) % 2 else zero for j in span] for i in span]
    # every cell nonzero, so all 2*dim-1 bands are stored
    full = [[v if v.terms else one for v in row] for row in da]
    # one entry object in many cells, as a tensor factor's entries repeat down a band
    shared_value = data.draw(entry_st.filter(lambda v: v.terms), label="shared")
    shared = [[shared_value if (i + j) % 2 == 0 else zero for j in span] for i in span]
    # a second tensor factor with only negative offsets
    span2 = range(dim2)
    lower = [[(v if v.terms else one) if i > j else zero for j, v in enumerate(row)] for i, row in enumerate(dc)]
    eye2 = [[one if i == j else zero for j in span2] for i in span2]

    def kron(x, y):
        return [[x[i1][j1] * y[i2][j2] for j1 in span for j2 in span2] for i1 in span for i2 in span2]

    eye = [[one if i == j else zero for j in span] for i in span]
    wide_zero = [[zero] * (dim * dim2) for _ in range(dim * dim2)]
    a_eye = tensor(a, _from_dense(fock_basis(dim2), eye2))
    b_eye = tensor(b, _from_dense(fock_basis(dim2), eye2))
    results = [
        (a @ b, product),
        (a @ _from_dense(basis, flip), dense_product(da, flip)),
        (_from_dense(basis, ones) @ _from_dense(basis, paired), dense_product(ones, paired)),
        (a + b, [[da[i][j] + db[i][j] for j in span] for i in span]),
        (a - b, [[da[i][j] - db[i][j] for j in span] for i in span]),
        (a - a, [[zero] * dim for _ in span]),
        (-a, [[-da[i][j] for j in span] for i in span]),
        (a.scale(factor), [[factor * da[i][j] for j in span] for i in span]),
        (a.scale(0), [[RadicalSum.zero()] * dim for _ in span]),
        (a.adjoint(), [[da[j][i].conjugate() for j in span] for i in span]),
        (
            tensor(a, c),
            [
                [da[i1][j1] * dc[i2][j2] for j1 in span for j2 in range(dim2)]
                for i1 in span
                for i2 in range(dim2)
            ],
        ),
        (commutator(a, b), [[product[i][j] - reverse[i][j] for j in span] for i in span]),
        (anticommutator(a, b), [[product[i][j] + reverse[i][j] for j in span] for i in span]),
        (
            anticommutator(a, -a),
            [[p + q for p, q in zip(r1, r2)] for r1, r2 in zip(dense_product(da, neg), dense_product(neg, da))],
        ),
        # every entry cancels: a with itself, and a parity with an operator that flips it
        (commutator(a, a), [[zero] * dim for _ in span]),
        (anticommutator(parity, _from_dense(basis, odd)), [[zero] * dim for _ in span]),
        # whole bands cancel while others stay: {R, a} keeps a's even offsets
        (anticommutator(parity, a), [[(signs[i] + signs[j]) * da[i][j] for j in span] for i in span]),
        (_from_dense(basis, full) @ _from_dense(basis, full), dense_product(full, full)),
        (_from_dense(basis, shared) @ a, dense_product(shared, da)),
        (commutator(_from_dense(basis, shared), _from_dense(basis, shared)), [[zero] * dim for _ in span]),
        (tensor(a, _from_dense(fock_basis(dim2), lower)), kron(da, lower)),
        (tensor(_from_dense(basis, full), _from_dense(fock_basis(dim2), lower)), kron(full, lower)),
        # tensor(x, I) repeats each entry object down its band
        (a_eye @ b_eye, kron(product, eye2)),
        (commutator(a_eye, b_eye), kron([[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(product, reverse)], eye2)),
        # the modes commute: each product meets its mirror and the bracket cancels
        (commutator(a_eye, tensor(_from_dense(basis, eye), _from_dense(fock_basis(dim2), lower))), wide_zero),
    ]
    for matrix, dense in results:
        _assert_matches_dense(matrix, dense)
        # the operations skip the constructor's checks: their rows must pass them anyway
        rebuilt = OperatorMatrix(matrix.basis, [list(row) for row in matrix.row_nonzeros()])
        assert rebuilt == matrix and hash(rebuilt) == hash(matrix)
    assert a - a == OperatorMatrix.zeros(basis)
    for x in (factor, da[0][0], R_ONE, R_MINUS_ONE):
        assert x * R_ONE is x and R_ONE * x is x
        assert R_MINUS_ONE * x == x * R_MINUS_ONE == -x
    assert hash(a + b) == hash(_from_dense(basis, [[da[i][j] + db[i][j] for j in span] for i in span]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_matches_dense_restriction(data):
    """_block keeps op's entry objects on any list of states and finds the first cell leaving them."""
    dim = data.draw(st.integers(1, 4), label="dim")
    dense = _cells(data, dim)
    op = _from_dense(fock_basis(dim), dense)
    states = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True), label="states")
    block, leak = operators._block(op, states, fock_basis(len(states)))
    _assert_matches_dense(block, [[dense[r][c] for c in states] for r in states])
    span = range(len(states))
    assert all(block.entry(b, c) is op.entry(states[b], states[c]) for b in span for c in span)
    leaks = [(r, c) for r in range(dim) if r not in states for c in states if dense[r][c].terms]
    assert leak == min(leaks, default=None)


def test_ladder_adjoint_pairs():
    for dim in (2, 5, 9):
        s = build_single_mode(dim)
        assert s.a.adjoint() == s.a_dag
        assert s.a_dag.adjoint() == s.a


# ---------------------------------------------------------------- tensor


def test_tensor_identity():
    i2 = OperatorMatrix.identity(fock_basis(2))
    i3 = OperatorMatrix.identity(fock_basis(3))
    prod = tensor(i2, i3)
    assert prod == OperatorMatrix.identity(prod.basis)
    assert [str(l) for l in prod.basis] == [
        "two(0,0)", "two(0,1)", "two(0,2)", "two(1,0)", "two(1,1)", "two(1,2)",
    ]


def test_tensor_ladder_action():
    # (a (x) I)|1,0> = sqrt([1])|0,0>
    s = build_single_mode(3)
    identity = OperatorMatrix.identity(s.a.basis)
    a1 = tensor(s.a, identity)
    col = next(i for i, l in enumerate(a1.basis) if (l.n1, l.n2) == (1, 0))
    row = next(i for i, l in enumerate(a1.basis) if (l.n1, l.n2) == (0, 0))
    assert a1.entry(row, col) == RadicalSum.sqrt_poly(deformed_number(1))
    # cross-mode parity commutes: (R (x) I)(I (x) a) = (I (x) a)(R (x) I)
    r1 = tensor(s.r_op, identity)
    a2 = tensor(identity, s.a)
    assert r1 @ a2 == a2 @ r1


def test_tensor_requires_fock_bases():
    s = build_single_mode(3)
    identity = OperatorMatrix.identity(s.a.basis)
    t = tensor(s.a, identity)
    with pytest.raises(DimensionMismatchError):
        tensor(t, identity)


# ---------------------------------------------------------------- check_relation


def test_check_relation_trivial_pass():
    basis = fock_basis(3)
    identity = OperatorMatrix.identity(basis)
    report = check_relation("I = I", identity, identity)
    assert report.verdict is Verdict.PASS
    assert report.mode is CheckMode.EXACT
    assert report.max_residual == 0.0


def test_check_relation_mask_and_witness():
    s = build_single_mode(10)
    lhs = commutator(s.a, s.a_dag)
    rhs = OperatorMatrix.identity(s.a.basis) + s.r_op.scale(poly(0, 2))
    masked = check_relation("bracket", lhs, rhs, set(range(9)))
    assert masked.verdict is Verdict.PASS
    unmasked = check_relation("bracket", lhs, rhs)
    assert unmasked.verdict is Verdict.FAIL
    assert (unmasked.witness.row, unmasked.witness.col) == (9, 9)
    # defect at the top row is -[10] = -10: actual = -[9], expected = 1 - 2nu
    assert unmasked.witness.actual == str(RadicalSum.from_polynomial(-deformed_number(9)))


def test_check_relation_witness_is_first_unequal_entry_in_row_major_order():
    basis = fock_basis(5)
    lhs = OperatorMatrix.from_entries(basis, {(i, j): RadicalSum.coerce(i + j + 1) for i in range(5) for j in range(5)})

    def changed(*cells):
        return lhs + OperatorMatrix.from_entries(basis, dict.fromkeys(cells, RadicalSum.one()))

    def first(rhs, mask):
        return next(((i, j) for i in sorted(mask) for j in range(5) if lhs.entry(i, j) != rhs.entry(i, j)), None)

    # several bands differ: the witness is the lowest row, then the lowest column,
    # not the lowest offset (band 3 at row 0 beats band -2 at row 2) nor the first band
    cases = [
        changed((2, 0), (0, 3), (1, 4)),
        changed((3, 3), (1, 4), (1, 0), (1, 2)),
        changed((4, 0), (4, 4), (3, 1)),
    ]
    for rhs in cases:
        for mask in (set(range(5)), {1, 3, 4}, {4}, {3, 4}):
            report = check_relation("shifted", lhs, rhs, mask)
            if first(rhs, mask) is None:
                assert report.verdict is Verdict.PASS
                continue
            assert report.verdict is Verdict.FAIL
            row, col = first(rhs, mask)
            assert (report.witness.row, report.witness.col) == (row, col)
            assert report.witness.expected == str(rhs.entry(row, col))
            assert report.witness.actual == str(lhs.entry(row, col))
    assert [(r.witness.row, r.witness.col) for r in (check_relation("x", lhs, rhs) for rhs in cases)] == [
        (0, 3),
        (1, 0),
        (3, 1),
    ]
    assert check_relation("x", lhs, cases[0], {3, 4}).verdict is Verdict.PASS


def test_relation_checks_refuse_mask_rows_outside_the_matrix():
    s = build_single_mode(4)
    lhs = commutator(s.a, s.a_dag)
    rhs = OperatorMatrix.identity(s.a.basis) + s.r_op.scale(poly(0, 2))
    # the first row outside 0..3 in increasing order is named, wherever the others lie
    for mask, row in (({-1}, -1), ({4}, 4), ({0, 2, 5, 7}, 5), ({-3, -1, 1}, -3), ({-2, 1, 9}, -2)):
        for check in (
            lambda: check_relation("bracket", lhs, rhs, mask),
            lambda: numeric_relation_report(RelationSpec("bracket", lhs, rhs, mask)),
        ):
            with pytest.raises(ValueError, match=f"mask row {row} is outside the rows 0..3"):
                check()
    # rows 0..3 are checked as given: the top row carries the truncation defect
    assert check_relation("bracket", lhs, rhs, {0, 3}).witness.row == 3
    assert numeric_relation_report(RelationSpec("bracket", lhs, rhs, {3})).verdict is Verdict.FAIL
    for mask in (set(), {0, 1, 2}):
        assert check_relation("bracket", lhs, rhs, mask).verdict is Verdict.PASS
        assert numeric_relation_report(RelationSpec("bracket", lhs, rhs, mask)).verdict is Verdict.PASS


def test_check_relation_symmetric():
    s = build_single_mode(6)
    lhs = commutator(s.a, s.a_dag)
    rhs = OperatorMatrix.identity(s.a.basis) + s.r_op.scale(poly(0, 2))
    fwd = check_relation("bracket", lhs, rhs)
    rev = check_relation("bracket", rhs, lhs)
    assert fwd.verdict == rev.verdict
    assert (fwd.witness.row, fwd.witness.col) == (rev.witness.row, rev.witness.col)


def test_check_specs_caveats():
    s = build_single_mode(3)
    passing = RelationSpec("N = N", s.n_op, s.n_op)
    failing = RelationSpec("N = R", s.n_op, s.r_op)
    expected_witness = check_relation(*failing).witness
    reports = check_specs(
        [passing, failing, RelationSpec("R = R", s.r_op, s.r_op)],
        {
            "N = N": Caveat("printed form fails", printed_rhs=s.r_op),
            "N = R": Caveat("never applied"),
        },
    )
    # a printed form that fails is quoted by its first witness
    assert reports[0].verdict is Verdict.PASS_WITH_CAVEAT
    assert reports[0].witness == expected_witness
    assert reports[0].caveat == f"printed form fails (first witness {expected_witness})"
    assert reports[0] == AlgebraReport(
        "N = N", CheckMode.EXACT, 0.0, Verdict.PASS_WITH_CAVEAT, reports[0].caveat, expected_witness
    )
    # a failing report is never given a caveat
    assert reports[1].verdict is Verdict.FAIL
    assert reports[1].caveat is None
    # relations without a caveat keep their plain verdict
    assert reports[2].verdict is Verdict.PASS and reports[2].caveat is None
    # a printed form that passes is called out, and a caveat without one is its text
    [unexpected] = check_specs([passing], {"N = N": Caveat("fails", printed_rhs=s.n_op)})
    [plain] = check_specs([passing], {"N = N": Caveat("note")})
    assert unexpected.verdict is Verdict.PASS_WITH_CAVEAT
    assert unexpected.caveat == "printed coefficient unexpectedly passed"
    assert unexpected.witness is None
    assert (plain.verdict, plain.caveat, plain.witness) == (Verdict.PASS_WITH_CAVEAT, "note", None)


# ---------------------------------------------------------------- numeric backend


def numpy_single_mode(dim, nu):
    values = [math.sqrt(n + nu * (1 - (-1) ** n)) for n in range(1, dim)]
    a = np.diag(values, k=1).astype(complex)
    return a


def test_eval_matrix_examples():
    s = build_single_mode(3)
    at0 = eval_matrix(s.a, 0.0)
    np.testing.assert_allclose(at0, numpy_single_mode(3, 0.0), atol=1e-15)
    # entry (0,1) at nu=0.5 is sqrt(2)
    assert eval_matrix(s.a, 0.5)[0, 1] == pytest.approx(math.sqrt(2.0))
    r4 = build_single_mode(4).r_op
    np.testing.assert_allclose(eval_matrix(r4, 1.3), np.diag([1, -1, 1, -1]).astype(complex))


def test_eval_matrix_is_multiplicative():
    s = build_single_mode(6)
    prod = s.a_dag @ s.a
    for nu in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
        left = eval_matrix(prod, nu)
        right = eval_matrix(s.a_dag, nu) @ eval_matrix(s.a, nu)
        scale = np.linalg.norm(eval_matrix(s.a_dag, nu)) * np.linalg.norm(eval_matrix(s.a, nu))
        assert np.linalg.norm(left - right) <= 1e-12 * scale


def test_eval_matrix_domain():
    s = build_single_mode(3)
    with pytest.raises(ValueError):
        eval_matrix(s.a, -0.6)


def test_report_invariants_enforced():
    for mode in CheckMode:
        with pytest.raises(ValueError, match="a failing report needs a witness"):
            AlgebraReport("x", mode, float("nan"), Verdict.FAIL)
    for verdict in (Verdict.PASS, Verdict.PASS_WITH_CAVEAT):
        with pytest.raises(ValueError, match="exact passes must carry residual 0"):
            AlgebraReport("x", CheckMode.EXACT, 1e-9, verdict, caveat="c")
    report = AlgebraReport("x", CheckMode.NUMERIC, 1e-13, Verdict.PASS)
    assert report.passed
    assert report.as_dict()["mode"] == "numeric"
