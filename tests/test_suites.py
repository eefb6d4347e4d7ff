import math
import sys
import types
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from wigneralg.operators import (
    NU_GRID,
    OperatorMatrix,
    check_relation,
    commutator,
    eval_matrix,
    fock_basis,
    numeric_relation_report,
    tensor,
)
from wigneralg.reports import AlgebraReport, CheckMode, Verdict, Witness
from wigneralg.scalars import NuPolynomial, RadicalSum, deformed_number
from wigneralg.single_mode import build_single_mode, single_mode_relation_specs
from wigneralg.spin import (
    build_hp_rep,
    build_js_spin_rep,
    build_so_nu3,
    condensed_relation_specs,
    extract_js_block,
    hp_relation_specs,
    so_nu3_condensed_specs,
    so_nu3_relation_specs,
    su_nu2_relation_specs,
)
from wigneralg.suites import (
    aggregate,
    block_extraction_suite,
    hp_suite,
    number_suite,
    numeric_suite,
    realization_suite,
    single_mode_suite,
    so3_suite,
    spin_suite,
    two_mode_suite,
    verify_all,
)
from wigneralg.two_mode import build_two_mode, two_mode_relation_specs


def report(verdict, rid="x", caveat=None, witness=None, residual=0.0, mode=CheckMode.EXACT):
    return AlgebraReport(rid, mode, residual, verdict, caveat=caveat, witness=witness)


def test_aggregate_fail_wins():
    w = Witness(1, 2, "a", "b")
    out = aggregate(
        "family",
        [report(Verdict.PASS), report(Verdict.FAIL, witness=w), report(Verdict.PASS)],
    )
    assert out.verdict is Verdict.FAIL
    assert out.witness == w


def test_aggregate_caveat_survives():
    out = aggregate(
        "family", [report(Verdict.PASS), report(Verdict.PASS_WITH_CAVEAT, caveat="note")]
    )
    assert out.verdict is Verdict.PASS_WITH_CAVEAT
    assert out.caveat == "note"


def test_aggregate_all_pass():
    out = aggregate("family", [report(Verdict.PASS), report(Verdict.PASS)])
    assert out.verdict is Verdict.PASS
    assert out.mode is CheckMode.EXACT and out.max_residual == 0.0


def test_numeric_verified_fallback_surfaces_in_reports():
    # two matrices equal in value but with unmerged canonical forms: the
    # check falls back to sampling and reports a numeric-verified caveat
    basis = fock_basis(2)
    hidden = OperatorMatrix.from_entries(
        basis, {(0, 0): RadicalSum.sqrt_poly(deformed_number(1) * deformed_number(1))}
    )
    plain = OperatorMatrix.from_entries(
        basis, {(0, 0): RadicalSum.from_polynomial(deformed_number(1))}
    )
    out = check_relation("unmerged", hidden, plain)
    assert out.verdict is Verdict.PASS_WITH_CAVEAT
    assert out.mode is CheckMode.MIXED
    assert "numeric-verified" in out.caveat
    assert out.max_residual <= 1e-12


def test_suites_all_green_small():
    assert all(r.passed for r in number_suite(12))
    assert all(r.passed for r in single_mode_suite(2, 8))
    assert all(r.passed for r in realization_suite(6))
    assert all(r.passed for r in two_mode_suite(4, 5))
    assert all(r.passed for r in spin_suite(4))
    assert all(r.passed for r in block_extraction_suite(3, 5, 5))
    assert all(r.passed for r in hp_suite((2, 4), (1,)))
    assert all(r.passed for r in so3_suite(3))
    assert all(r.passed for r in numeric_suite(3, (5, 5), single_dim=6))


def test_verify_all_sections_present():
    sections = verify_all(max_two_j=2, dims=(4, 4), max_n=4, max_number=8, max_single_dim=6)
    assert list(sections) == [
        "deformed-numbers",
        "single-mode",
        "coordinate-realizations",
        "two-mode",
        "su_nu2",
        "block-extraction",
        "reference-matrices",
        "holstein-primakoff",
        "so_nu3",
        "numeric-grid",
    ]
    assert all(r.passed for reports in sections.values() for r in reports)


def test_verify_all_builds_each_family_once(monkeypatch):
    # wrap every builder and spec function in every wigneralg module, as a
    # tracer would, and count calls per (function, sizes or family identity)
    counted = (
        build_single_mode, build_two_mode, build_js_spin_rep, build_hp_rep, build_so_nu3, tensor,
        single_mode_relation_specs, two_mode_relation_specs, su_nu2_relation_specs,
        condensed_relation_specs, so_nu3_relation_specs, so_nu3_condensed_specs, hp_relation_specs,
    )
    calls = Counter()
    single_modes = []  # every single-mode family, as built
    brackets = Counter()  # [a, adag] computations per single-mode family

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[(fn.__name__, *(a if type(a) is int else id(a) for a in args))] += 1
            result = fn(*args, **kwargs)
            if fn is build_single_mode:
                single_modes.append(result)
            return result

        return wrapper

    def counting_commutator(a, b):
        for s in single_modes:
            if a is s.a and b is s.a_dag:
                brackets[s.dim] += 1
        return commutator(a, b)

    wrappers = {fn: counting(fn) for fn in counted}
    wrappers[commutator] = counting_commutator
    for name, module in list(sys.modules.items()):
        if name == "wigneralg" or name.startswith("wigneralg."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[value])
    sections = verify_all(max_two_j=4, dims=(5, 5), max_n=4, max_number=8, max_single_dim=6)
    assert all(r.passed for reports in sections.values() for r in reports)
    repeated = {key: n for key, n in calls.items() if n > 1}
    assert not repeated
    per_function = Counter(key[0] for key in calls)
    assert per_function["build_js_spin_rep"] == 4  # 2j = 1..4
    assert per_function["build_single_mode"] == 6  # dims 2..6 and the grid's 12
    assert per_function["tensor"] == 8  # one two-mode family: four operators per mode
    # the truncation defect reads the bracket from the family's specs
    assert sorted(s.dim for s in single_modes) == [2, 3, 4, 5, 6, 12]
    assert brackets == {dim: 1 for dim in (2, 3, 4, 5, 6, 12)}


def grid_specs(max_two_j, dims, single_dim):
    """The specs numeric_suite(max_two_j, dims, single_dim) checks, in its order."""
    specs = single_mode_relation_specs(build_single_mode(single_dim))
    specs += two_mode_relation_specs(build_two_mode(*dims))
    for two_j in sorted({max(1, max_two_j - 1), max_two_j}):
        rep, so3 = build_js_spin_rep(two_j), build_so_nu3(two_j)
        specs += su_nu2_relation_specs(rep) + condensed_relation_specs(rep)
        specs += so_nu3_relation_specs(so3) + so_nu3_condensed_specs(so3)
    even = max_two_j if max_two_j % 2 == 0 else max_two_j - 1
    if even >= 2:
        specs += hp_relation_specs(build_hp_rep(even))
    return specs


def dense_grid(spec, nus=NU_GRID, tol=1e-12):
    """Acceptance criterion 10's dense numpy computation: (passes, worst residual)."""
    rows = list(range(spec.lhs.dim)) if spec.mask is None else sorted(spec.mask)
    ok, worst = True, 0.0
    for nu in nus:
        lhs = eval_matrix(spec.lhs, nu)[rows, :]
        rhs = eval_matrix(spec.rhs, nu)[rows, :]
        residual = float(np.linalg.norm(lhs - rhs))
        worst = max(worst, residual)
        ok = ok and residual <= tol * (1.0 + float(np.linalg.norm(lhs)))
    return ok, worst


def diagonal(basis, rows, value):
    return OperatorMatrix.from_entries(basis, {(i, i): RadicalSum.coerce(value) for i in rows})


def test_numeric_grid_matches_dense_reference():
    specs = grid_specs(3, (5, 5), 6)
    reports = numeric_suite(3, (5, 5), single_dim=6)
    assert [r.relation_id for r in reports] == [f"{s.relation_id} @ numeric-grid" for s in specs]
    # the suite shares one evaluation per distinct entry; residuals are bit-identical alone
    assert reports == [numeric_relation_report(spec) for spec in specs]
    cases = list(zip(specs, reports))
    for spec in specs:
        everywhere = range(spec.lhs.dim)
        # a 1e-3 shift fails; a 1e-14 one passes with a nonzero residual
        for shift in (Fraction(1, 10**3), Fraction(1, 10**14)):
            bumped = spec._replace(rhs=spec.rhs + diagonal(spec.rhs.basis, everywhere, shift))
            cases.append((bumped, numeric_relation_report(bumped)))
        if spec.mask is not None:
            # rows outside the mask are not compared: a change there passes
            hidden = set(everywhere) - set(spec.mask)
            bumped = spec._replace(rhs=spec.rhs + diagonal(spec.rhs.basis, hidden, 1))
            cases.append((bumped, numeric_relation_report(bumped)))
    assert sum(spec.mask is not None for spec in specs) >= 6
    verdicts = Counter()
    for spec, report in cases:
        ok, worst = dense_grid(spec)
        assert (report.verdict is Verdict.PASS) == ok, spec.relation_id
        assert math.isclose(report.max_residual, worst, rel_tol=1e-12), spec.relation_id
        verdicts[ok, worst > 0] += 1
    assert verdicts[True, False] and verdicts[True, True] and verdicts[False, True]
    memo = {}
    with pytest.raises(ValueError):  # every nu is checked before any entry is evaluated
        numeric_relation_report(specs[0], nus=(0.5, -0.6), memo=memo)
    assert memo == {}


def test_block_extraction_asymmetric_ambient():
    ambient = build_two_mode(10, 7)
    for two_j in (1, 4, 6):
        extracted = extract_js_block(ambient, two_j)
        closed = build_js_spin_rep(two_j)
        assert extracted.j_plus == closed.j_plus
        assert extracted.p_op == closed.p_op


def test_deformed_factorial_large_n_exact():
    # intermediate products overflow 64-bit ranges; coefficients stay exact
    p = deformed_number(49) * deformed_number(50)
    fact = __import__("wigneralg").deformed_factorial(50)
    assert fact.degree == 25
    lead = fact.coeffs[-1].re
    assert lead.denominator == 1
    # leading coefficient is 2^25 * 2*4*...*50 = 2^25 * 2^25 * 25!
    assert lead.numerator == 2**50 * math.factorial(25)
    assert p.degree == 1  # [49][50] has a single nu power from the odd factor
