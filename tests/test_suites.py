import gc
import math
import sys
import types
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from wigneralg import operators, scalars, single_mode, spin, suites
from wigneralg.operators import (
    MAX_GRID_NU,
    NU_GRID,
    OperatorMatrix,
    RelationSpec,
    check_relation,
    commutator,
    eval_matrix,
    fock_basis,
    numeric_relation_report,
    tensor,
)
from wigneralg.reports import AlgebraReport, CheckMode, Verdict, Witness
from wigneralg.scalars import (
    NuPolynomial,
    RadicalSum,
    check_cross_identity,
    check_pair_identities,
    deformed_number,
    numeric_eval,
)
from wigneralg.single_mode import (
    audit_single_mode,
    build_single_mode,
    single_mode_relation_specs,
    truncation_defect_report,
)
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
    numeric = [report(Verdict.PASS, residual=r, mode=CheckMode.NUMERIC) for r in (1e-15, 3e-14)]
    out = aggregate("family", numeric)
    assert out.mode is CheckMode.NUMERIC and out.max_residual == 3e-14


def test_once_unmerged_values_pass_check_relation_exactly():
    # (a*b)*b and a*(b*b), and sqrt(2+4nu)*sqrt(3+6nu) and (1+2nu)*sqrt(6),
    # have one canonical form, so no entry needs sampled values
    a, b = RadicalSum.sqrt_poly(deformed_number(1)), RadicalSum.sqrt_poly(deformed_number(3))
    shared = RadicalSum.sqrt_poly(NuPolynomial.from_coeffs([2, 4])) * RadicalSum.sqrt_poly(
        NuPolynomial.from_coeffs([3, 6])
    )
    basis = fock_basis(2)
    left = OperatorMatrix.from_entries(basis, {(0, 0): (a * b) * b, (1, 1): shared})
    right = OperatorMatrix.from_entries(
        basis, {(0, 0): a * (b * b), (1, 1): RadicalSum.sqrt_poly(6) * deformed_number(1)}
    )
    out = check_relation("once unmerged", left, right)
    assert (out.verdict, out.mode, out.max_residual, out.caveat) == (Verdict.PASS, CheckMode.EXACT, 0.0, None)
    with pytest.raises(ValueError):  # a hidden square has no canonical form
        RadicalSum.sqrt_poly(deformed_number(1) * deformed_number(1))


def as_dicts(reports):
    """as_dict() of each report, NaN residuals replaced so that NaN compares equal to NaN."""
    out = []
    for r in reports:
        d = r.as_dict()
        if math.isnan(d["max_residual"]):
            d["max_residual"] = None
        out.append(d)
    return out


def composed_number_suite(max_n):
    """number_suite as the aggregate of the public per-instance checks."""
    ns = range(max_n + 1)
    return [
        aggregate(
            f"numbers: [n]+[n+1] = 2n+1+2nu and [n+2]-[n] = 2 (n <= {max_n})",
            [check_pair_identities(n) for n in ns],
        ),
        aggregate(
            f"numbers: [m][n+1]-[n][m+1] closed and piecewise forms agree (m,n <= {max_n})",
            [check_cross_identity(m, n) for m in ns for n in ns],
        ),
    ]


def test_number_suite_matches_public_checks(monkeypatch):
    for max_n in (0, 1, 12):
        assert as_dicts(number_suite(max_n)) == as_dicts(composed_number_suite(max_n))
    piecewise = scalars._cross_identity_piecewise
    # a wrong piecewise form at the first instance, then at one in the middle:
    # aggregate's max over the NaN residual of the failure depends on its place
    for bad in ((0, 0), (5, 8)):
        def wrong(m, n, bad=bad):
            form = piecewise(m, n)
            return form + NuPolynomial.constant(1) if (m, n) == bad else form

        monkeypatch.setattr(scalars, "_cross_identity_piecewise", wrong)
        suite = number_suite(12)
        assert suite[1].verdict is Verdict.FAIL
        assert (suite[1].witness.row, suite[1].witness.col) == bad
        assert "piecewise form" in suite[1].caveat
        assert math.isnan(suite[1].max_residual) is (bad == (0, 0))
        assert as_dicts(suite) == as_dicts(composed_number_suite(12))
    monkeypatch.setattr(scalars, "_cross_identity_piecewise", piecewise)
    assert number_suite(12)[1].verdict is Verdict.PASS


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_number_suite_builds_each_product_once(monkeypatch):
    # the table [m][n+1] serves instance (m, n) and instance (n, m): 51 x 51
    # products, where expanding each instance on its own made 5,202
    counts = Counter()
    monkeypatch.setattr(NuPolynomial, "__mul__", _counting(counts, "mul", NuPolynomial.__mul__))
    assert all(r.passed for r in number_suite(50))
    assert 0 < counts["mul"] <= 2_601


def composed_single_mode_suite(min_dim, max_dim):
    """single_mode_suite as the per-dim public audits of freshly built families."""
    label = f"(dims {min_dim}..{max_dim})"
    families = [build_single_mode(dim) for dim in range(min_dim, max_dim + 1)]
    grouped = {}
    for s in families:
        for r in audit_single_mode(s):
            grouped.setdefault(r.relation_id, []).append(r)
    out = [aggregate(f"{rid} {label}", reports) for rid, reports in grouped.items()]
    out.append(
        aggregate(
            f"[a,adag] unmasked fails only at the top row with defect -[dim] {label}",
            [truncation_defect_report(s) for s in families],
        )
    )
    return out


@pytest.mark.parametrize("bad", [None, 2, 7, 12])
def test_single_mode_suite_matches_fresh_families(monkeypatch, bad):
    # every dim is cut from one ladder and checked in one memo scope; a wrong
    # R^2 = I rhs planted at dim ``bad`` (its top diagonal entry 2) must fail
    # there, with the same reports as the per-dim audits of fresh families
    specs_of = single_mode_relation_specs

    def planted(s):
        specs = specs_of(s)
        if s.dim == bad:
            rid, lhs, rhs, mask = specs[5]
            assert rid == "R^2 = I"
            specs[5] = RelationSpec(rid, lhs, OperatorMatrix.diagonal([1] * (s.dim - 1) + [2], rhs.basis), mask)
        return specs

    monkeypatch.setattr(suites, "single_mode_relation_specs", planted)
    monkeypatch.setattr(single_mode, "single_mode_relation_specs", planted)
    suite = single_mode_suite(2, 12)
    assert as_dicts(suite) == as_dicts(composed_single_mode_suite(2, 12))
    failed = [r for r in suite if r.verdict is Verdict.FAIL]
    if bad is None:
        assert not failed
    else:
        assert [r.relation_id for r in failed] == ["R^2 = I (dims 2..12)"]
        assert (failed[0].witness.row, failed[0].witness.col, failed[0].witness.expected) == (bad - 1, bad - 1, "2")


def test_verify_all_checks_the_single_mode_section_in_one_scope(monkeypatch):
    # dims 2..25 are built once each, the two-mode family at 10 and the grid's
    # 12 read the section's sets, and the section checks its dims, which hold
    # the same ladder levels, in one memo scope: checking each dim in its own
    # scope made 1,597 scalar products in the section
    counts = Counter()
    inside = []
    multiply, section = RadicalSum.__mul__, suites.single_mode_suite

    def counting(self, other):
        counts["mul"] += bool(inside)
        return multiply(self, other)

    def counted_section(*args, **kwargs):
        inside.append(True)
        try:
            return section(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(RadicalSum, "__mul__", counting)
    monkeypatch.setattr(suites, "single_mode_suite", counted_section)
    built = []
    monkeypatch.setattr(suites, "build_single_mode", lambda dim: built.append(dim) or build_single_mode(dim))
    verdicts = Counter(r.verdict for reports in verify_all().values() for r in reports)
    assert verdicts == {Verdict.PASS: 216, Verdict.PASS_WITH_CAVEAT: 6}
    assert built == list(range(2, 26))
    assert 0 < counts["mul"] <= 239


def test_hp_spectrum_takes_the_hp_bracket_from_its_specs(monkeypatch):
    # per even 2j: three brackets in the specs and the JS bracket of the
    # spectral check, where rebuilding the HP bracket there made 20
    counts = Counter()
    monkeypatch.setattr(spin, "commutator", _counting(counts, "commutator", commutator))
    assert all(r.passed for r in hp_suite())
    assert 0 < counts["commutator"] <= 16


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


def test_hp_suite_fails_when_an_odd_two_j_is_not_refused(monkeypatch):
    monkeypatch.setattr(suites, "build_hp_rep", lambda two_j: None)
    [refusal] = hp_suite((), (1,))
    assert refusal.verdict is Verdict.FAIL
    assert refusal.relation_id == "HP refuses odd two_j=1"
    assert refusal.witness.actual == "no error raised"


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
    seen_args = []  # keeps every counted family alive, so no id is reused
    single_modes = []  # every single-mode family whose specs are made
    brackets = Counter()  # [a, adag] computations per single-mode family

    def counting(fn):
        def wrapper(*args, **kwargs):
            seen_args.append(args)
            calls[(fn.__name__, *(a if type(a) is int else id(a) for a in args))] += 1
            if fn is single_mode_relation_specs:
                single_modes.append(args[0])
            return fn(*args, **kwargs)

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
    # one per dim of the section, 2..6, whose dim-5 set both modes of the
    # two-mode family read, and one at the grid's 12
    assert per_function["build_single_mode"] == 6
    assert per_function["tensor"] == 8  # one two-mode family: four operators per mode
    # the truncation defect reads the bracket from the family's specs
    assert sorted(s.dim for s in single_modes) == [2, 3, 4, 5, 6, 12]
    assert brackets == {dim: 1 for dim in (2, 3, 4, 5, 6, 12)}


def test_verify_all_releases_spec_lists_no_later_section_reads(monkeypatch):
    # no spec list outlives the section that checked it, the numeric grid's
    # spin families (2j in {5, 6}) included
    class SpecList(list):
        pass

    made = []  # (spec function, two_j, weakref to the returned list)

    def tracking(fn):
        def wrapper(rep):
            specs = SpecList(fn(rep))
            made.append((fn.__name__, rep.two_j, weakref.ref(specs)))
            return specs

        return wrapper

    wrappers = {fn: tracking(fn) for fn in (su_nu2_relation_specs, condensed_relation_specs)}
    for name, module in list(sys.modules.items()):
        if name == "wigneralg" or name.startswith("wigneralg."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[value])
    alive = []

    def probing_so3_suite(*args, **kwargs):
        gc.collect()
        alive.extend(sorted((fn, two_j) for fn, two_j, ref in made if ref() is not None))
        return so3_suite(*args, **kwargs)

    monkeypatch.setattr(suites, "so3_suite", probing_so3_suite)
    verify_all(max_two_j=6, dims=(5, 5), max_n=4, max_number=8, max_single_dim=6)
    assert {two_j for _, two_j, _ in made} == set(range(1, 7))
    assert alive == []


def test_grid_samples_unchecked_only_the_sizes_no_exact_section_visits(monkeypatch):
    # every (relation set, sizes) pair is sampled where its specs are made: in
    # the exact section that checks it, else in the grid section itself
    made_in_grid = []
    in_grid = []

    class Recording(suites.Run):
        def specs(self, name, *sizes):
            if in_grid:
                made_in_grid.append((name, sizes))
            return super().specs(name, *sizes)

    def marking_numeric_suite(*args, **kwargs):
        in_grid.append(True)
        return numeric_suite(*args, **kwargs)

    monkeypatch.setattr(suites, "Run", Recording)
    monkeypatch.setattr(suites, "numeric_suite", marking_numeric_suite)
    assert len(verify_all()["numeric-grid"]) == 113
    # so_nu3 stops at 2j = 6: its grid sizes 7 and 8 are checked on the grid only
    assert sorted(made_in_grid) == [("so_nu3", (7,)), ("so_nu3", (8,))]
    made_in_grid.clear()
    in_grid.clear()
    verify_all(max_two_j=4, dims=(5, 5), max_n=4, max_number=8, max_single_dim=6)
    assert made_in_grid == [("single-mode", (12,))]


def test_every_caveat_names_a_relation_id_its_set_returns():
    # a renamed relation id would silently drop its caveat, turning pass-with-caveat into pass
    sizes = {
        "single-mode": [(2,), (3,)],
        "two-mode": [(2, 3)],
        "js": [(1,), (2,), (3,), (4,)],
        "so3": [(1,), (2,), (3,), (4,)],
        "hp": [(2,), (4,)],
    }
    assert set(sizes) == set(suites.KINDS)
    caveated = set()
    run = suites.Run()
    for name, row in suites.RELATION_SETS.items():
        for size in sizes[row.kind]:
            family = run.family(row.kind, *size)
            ids = {spec.relation_id for spec in row.specs(family)}
            caveats = row.caveats(family)
            assert set(caveats) <= ids, (name, size, set(caveats) - ids)
            if caveats:
                caveated.add((name, size[-1] % 2))
    # both parities of so_nu3 carry caveats, and the odd condensed forms do
    assert caveated == {("so_nu3", 0), ("so_nu3", 1), ("condensed", 1)}


def test_block_extraction_label_names_the_range_checked():
    # the ambient 4 x 4 set holds blocks up to 2j = 3 only
    (report,) = block_extraction_suite(6, 4, 4)
    assert report.relation_id == "two-mode block extraction equals the closed-form rep (two_j <= 3)"
    assert report.passed


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


def bumped_specs(specs):
    """Each spec with its rhs changed so the grid must fail, pass with a residual, or not look."""
    out = []
    for spec in specs:
        everywhere = range(spec.lhs.dim)
        # a 1e-3 shift fails; a 1e-14 one passes with a nonzero residual
        for shift in (Fraction(1, 10**3), Fraction(1, 10**14)):
            out.append(spec._replace(rhs=spec.rhs + diagonal(spec.rhs.basis, everywhere, shift)))
        if spec.mask is not None:
            # rows outside the mask are not compared: a change there passes
            hidden = set(everywhere) - set(spec.mask)
            out.append(spec._replace(rhs=spec.rhs + diagonal(spec.rhs.basis, hidden, 1)))
    return out


def count_numeric_evals(monkeypatch):
    """A list that grows by one for each numeric_eval call the grid makes."""
    calls = []

    def counting(value, nu):
        calls.append(nu)
        return numeric_eval(value, nu)

    monkeypatch.setattr(operators, "numeric_eval", counting)
    return calls


def test_numeric_grid_matches_dense_reference(monkeypatch):
    specs = grid_specs(3, (5, 5), 6)
    reports = numeric_suite(3, (5, 5), single_dim=6)
    assert [r.relation_id for r in reports] == [f"{s.relation_id} @ numeric-grid" for s in specs]
    # each report evaluates its own entries; the suite's reports equal standalone ones
    assert reports == [numeric_relation_report(spec) for spec in specs]
    cases = list(zip(specs, reports))
    cases += [(bumped, numeric_relation_report(bumped)) for bumped in bumped_specs(specs)]
    assert sum(spec.mask is not None for spec in specs) >= 6
    verdicts = Counter()
    for spec, report in cases:
        ok, worst = dense_grid(spec)
        assert (report.verdict is Verdict.PASS) == ok, spec.relation_id
        assert math.isclose(report.max_residual, worst, rel_tol=1e-12), spec.relation_id
        verdicts[ok, worst > 0] += 1
    assert verdicts[True, False] and verdicts[True, True] and verdicts[False, True]
    calls = count_numeric_evals(monkeypatch)
    with pytest.raises(ValueError):  # every nu is checked before any entry is evaluated
        numeric_relation_report(specs[0], nus=(0.5, -0.6))
    assert len(calls) == 0


def reference_grid_residual(spec, nus=NU_GRID, tol=1e-12):
    """The grid's residual loop as first written, one dict per row per nu.

    Returns (passes, worst residual, |lhs| at each nu).
    """
    rows = range(spec.lhs.dim) if spec.mask is None else sorted(spec.mask)
    lhs_nz, rhs_nz = spec.lhs.row_nonzeros(), spec.rhs.row_nonzeros()

    def on_grid(row):
        return [(j, tuple([numeric_eval(value, nu) for nu in nus])) for j, value in row]

    lefts = [on_grid(lhs_nz[i]) for i in rows]
    sides = [(left, left if rhs_nz[i] == lhs_nz[i] else on_grid(rhs_nz[i])) for i, left in zip(rows, lefts)]
    worst = 0.0
    ok = True
    norms = []
    for k in range(len(nus)):
        diff_sq = lhs_sq = 0.0
        for left_row, right_row in sides:
            left = {j: values[k] for j, values in left_row}
            right = left if right_row is left_row else {j: values[k] for j, values in right_row}
            for j in left.keys() | right.keys():
                d = left.get(j, 0j) - right.get(j, 0j)
                diff_sq += d.real * d.real + d.imag * d.imag
            lhs_sq += sum(z.real * z.real + z.imag * z.imag for z in left.values())
        residual = math.sqrt(diff_sq)
        worst = max(worst, residual)
        norms.append(math.sqrt(lhs_sq))
        if residual > tol * (1.0 + math.sqrt(lhs_sq)):
            ok = False
    return ok, worst, norms


def test_numeric_grid_residuals_are_bit_identical_to_reference():
    specs = grid_specs(8, (10, 10), 12)  # the grid verify runs at its defaults
    assert len(specs) == 113
    cases = specs + bumped_specs(grid_specs(3, (5, 5), 6))
    for spec in cases:
        ok, worst, _ = reference_grid_residual(spec)
        report = numeric_relation_report(spec)
        assert report.max_residual == worst, spec.relation_id
        assert report.verdict is (Verdict.PASS if ok else Verdict.FAIL), spec.relation_id
    nus = (0.3, 7.0, 0.0)  # another grid, in another order
    for spec in specs[::7]:
        ok, worst, _ = reference_grid_residual(spec, nus)
        report = numeric_relation_report(spec, nus)
        assert (report.max_residual, report.verdict is Verdict.PASS) == (worst, ok)
    # at a tolerance where the residual meets its bound, the verdict reads |lhs| to the last bit
    edges = 0
    for spec in cases[len(specs) :: 3]:
        for nu in NU_GRID:
            _, residual, (norm,) = reference_grid_residual(spec, (nu,))
            edge = residual / (1.0 + norm)
            for tol in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
                ok, _, _ = reference_grid_residual(spec, (nu,), tol)
                edges += not ok
                assert numeric_relation_report(spec, (nu,), tol).passed is ok, spec.relation_id
    assert edges


def test_numeric_grid_refuses_nan_infinite_and_empty_grids(monkeypatch):
    s = build_single_mode(4)
    specs = single_mode_relation_specs(s)
    bad = RelationSpec("bad", *specs[0][1:3])  # [a,adag] unmasked: the top row differs by -[dim]
    out = numeric_relation_report(bad)
    assert out.verdict is Verdict.FAIL and out.max_residual == 4.0
    # the bound 1e-12*(1+|lhs|) grows with nu; up to MAX_GRID_NU it still catches the defect
    for dim in range(2, 26):
        unmasked = RelationSpec("bad", *single_mode_relation_specs(build_single_mode(dim))[0][1:3])
        assert numeric_relation_report(unmasked, nus=(MAX_GRID_NU,)).verdict is Verdict.FAIL, dim
    too_large = ((MAX_GRID_NU * (1 + 1e-9),), (0.5, 1e12))
    calls = count_numeric_evals(monkeypatch)
    for nus in ((math.nan,), (math.inf,), (), (0.5, -math.inf), (0.5, math.nan), (-0.5,), *too_large):
        with pytest.raises(ValueError):
            numeric_relation_report(bad, nus=nus)
        assert len(calls) == 0
    for nu in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ValueError):
            eval_matrix(s.a, nu)
    eval_matrix(s.a, 1e12)  # only the grid's verdict needs the bound


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
