import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from wigneralg.errors import InvalidDimensionError
from wigneralg.operators import OperatorMatrix, TwoModeLabel, check_relation, commutator, eval_matrix
from wigneralg.reports import Verdict
from wigneralg.scalars import NuPolynomial, RadicalSum, deformed_number, ladder_level
from wigneralg.single_mode import (
    audit_single_mode,
    build_single_mode,
    single_mode_relation_specs,
    truncation_defect_report,
)
from wigneralg.spin import build_hp_rep, build_js_spin_rep
from wigneralg.two_mode import build_two_mode


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


def test_adag_shares_the_entry_objects_of_a():
    # real entries conjugate to themselves, so adag holds a's sqrt([n]) objects
    s = build_single_mode(6)
    for n in range(1, 6):
        assert s.a_dag.entry(n, n - 1) is s.a.entry(n - 1, n)


def _products_made_by(build, *args):
    """The operand pairs of every scalar product ``build(*args)`` makes."""
    pairs = []
    multiply = RadicalSum.__mul__

    def recording(x, y):
        pairs.append((x, y))
        return multiply(x, y)

    with mock.patch.object(RadicalSum, "__mul__", recording):
        build(*args)
    return pairs


def test_families_of_every_size_hold_the_ladder_level_objects():
    # sqrt([n]) and n are one object each per n, whichever family reads them
    for dim in (2, 5, 8):
        s = build_single_mode(dim)
        for n in range(1, dim):
            assert s.a.entry(n - 1, n) is ladder_level(n).root
            assert s.a_dag.entry(n, n - 1) is ladder_level(n).root
        assert all(s.n_op.entry(n, n) is ladder_level(n).n for n in range(dim))
    s = build_two_mode(3, 7)
    for mode, dim in enumerate(s.dims):
        def at(n):
            return s.basis.index(TwoModeLabel(n, 0) if mode == 0 else TwoModeLabel(0, n))

        for n in range(1, dim):
            assert s.a[mode].entry(at(n - 1), at(n)) is ladder_level(n).root
            assert s.n_op[mode].entry(at(n), at(n)) is ladder_level(n).n
    # JS entry i is sqrt([2j+1-i]) sqrt([i]); HP entry n is sqrt(g(n-1)) sqrt([n])
    for two_j in (1, 4, 7):
        dim = two_j + 1
        pairs = _products_made_by(build_js_spin_rep, two_j)
        assert len(pairs) == dim // 2
        for i, (x, y) in enumerate(pairs, start=1):
            assert x is ladder_level(dim - i).root and y is ladder_level(i).root
    for two_j in (2, 6):
        pairs = _products_made_by(build_hp_rep, two_j)
        assert len(pairs) == two_j
        assert all(y is ladder_level(n).root for n, (_, y) in enumerate(pairs, start=1))


def _python(script):
    """The stdout words of ``script`` run in a fresh interpreter, whose ladder-level table starts empty."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_each_ladder_level_is_canonicalized_once_per_process():
    counts = _python(
        """
from wigneralg.scalars import RadicalSum
from wigneralg.single_mode import build_single_mode
from wigneralg.spin import build_hp_rep, build_js_spin_rep
from wigneralg.two_mode import build_two_mode

calls = []
sqrt_poly = RadicalSum.sqrt_poly
RadicalSum.sqrt_poly = staticmethod(lambda p: calls.append(p) or sqrt_poly(p))
for dim in [*range(2, 31), *range(30, 1, -1)]:
    build_single_mode(dim)
print(len(calls))
build_two_mode(30, 7)
for two_j in range(1, 30):
    build_js_spin_rep(two_j)
print(len(calls))
build_hp_rep(6)
build_hp_rep(28)
print(len(calls))
"""
    )
    # levels 1..29 once each (sqrt([0]) is zero); then only HP's own g(n) roots, 6 + 28
    assert counts == ["29", "29", "63"]


def test_threads_building_at_once_get_the_serially_built_sets():
    assert _python(
        """
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from wigneralg.single_mode import build_single_mode

sys.setswitchinterval(1e-6)
dims = range(2, 31)
start = threading.Barrier(4, timeout=60)

def build_all(k):
    start.wait()
    return {dim: build_single_mode(dim) for dim in (dims if k % 2 else reversed(dims))}

with ThreadPoolExecutor(max_workers=4) as pool:
    threaded = list(pool.map(build_all, range(4)))
serial = {dim: build_single_mode(dim) for dim in dims}
assert all(sets == serial for sets in threaded)
# every thread reads the level the first one stored
assert all(
    sets[dim].a.entry(n - 1, n) is serial[dim].a.entry(n - 1, n)
    for sets in threaded
    for dim in dims
    for n in range(1, dim)
)
print("ok")
"""
    ) == ["ok"]


def test_threads_building_one_value_at_once_get_one_object():
    assert _python(
        """
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from wigneralg.scalars import NuPolynomial, RadicalSum

sys.setswitchinterval(1e-6)
# no table holds sqrt(k + 3nu), so the threads make these values first
radicands = [NuPolynomial((k, 3)) for k in range(1, 300)]
start = threading.Barrier(4, timeout=60)

def build(k):
    start.wait()
    forward = k % 2
    roots = [RadicalSum.sqrt_poly(p) for p in (radicands if forward else radicands[::-1])]
    products = [x * y for x, y in zip(roots, roots[1:])]
    return roots + products if forward else roots[::-1] + products[::-1]

with ThreadPoolExecutor(max_workers=4) as pool:
    threaded = list(pool.map(build, range(4)))
roots = [RadicalSum.sqrt_poly(p) for p in radicands]
serial = roots + [x * y for x, y in zip(roots, roots[1:])]
assert all(len(values) == len(serial) for values in threaded)
assert all(a is b for values in threaded for a, b in zip(values, serial))
print("ok")
"""
    ) == ["ok"]


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


def test_truncation_defect_report_names_a_bracket_that_does_not_fail_unmasked():
    # with the bracket as its own right side nothing fails and the top defect is 0
    s = build_single_mode(5)
    specs = single_mode_relation_specs(s)
    report = truncation_defect_report(s, [specs[0]._replace(rhs=specs[0].lhs)] + specs[1:])
    assert report.verdict is Verdict.FAIL
    assert (report.witness.row, report.witness.col) == (4, 4)
    assert report.witness.actual == "unmasked check did not fail; defect 0 differs from -[5] = (-5 - 2*nu)"


def test_number_identity_unmasked():
    # N = adag a - nu + nu R holds on every row, including the top one
    s = build_single_mode(7)
    nu = NuPolynomial.nu()
    identity = OperatorMatrix.identity(s.a.basis)
    lhs = (s.a_dag @ s.a) - identity.scale(nu) + s.r_op.scale(nu)
    assert lhs == s.n_op
