"""Canned audit sweeps shared by the CLI and the acceptance tests.

Each suite aggregates per-instance checks into one report per relation family
so a full run reads as one verdict line per identity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .errors import OddTwoJNotClosedError
from .operators import build_now, check_relation, check_specs, numeric_relation_report
from .reports import AlgebraReport, CheckMode, Verdict, Witness, exact_report
from .scalars import _cross_failure, _pair_failure, deformed_number
from .single_mode import build_single_mode, single_mode_relation_specs, truncation_defect_report
from .two_mode import audit_two_mode, build_two_mode, two_mode_relation_specs
from .realizations import audit_realizations
from .spin import (
    audit_condensed_forms,
    audit_hp,
    audit_so_nu3,
    audit_su_nu2,
    build_hp_rep,
    build_js_spin_rep,
    build_so_nu3,
    condensed_relation_specs,
    cut_js_block,
    hp_relation_specs,
    js_composites,
    reference_matrix_reports,
    so_nu3_condensed_specs,
    so_nu3_relation_specs,
    su_nu2_relation_specs,
)


class RunMemo:
    """A ``build`` hook that computes ``fn(*args, **hooks)`` once per (fn, args).

    Builders take sizes, keyed by value; spec functions take families, keyed
    by identity and kept alive with the result, so no identity is reused.
    Keywords only hand this hook down, so they are not part of the key.
    While ``keep`` is None every result is stored; once it is a set, only
    results of the functions in it are, and the rest live as long as their
    caller holds them.
    """

    def __init__(self) -> None:
        self._results: Dict[tuple, tuple] = {}
        self.keep: Optional[set] = None

    def __call__(self, fn, *args, **hooks):
        key = (fn, *(a if type(a) is int else id(a) for a in args))
        hit = self._results.get(key)
        if hit is None:
            hit = (args, fn(*args, **hooks))
            if self.keep is None or fn in self.keep:
                self._results[key] = hit
        return hit[1]


def aggregate(relation_id: str, reports: Sequence[AlgebraReport]) -> AlgebraReport:
    """Fold instance reports into one: first failure wins, caveats survive."""
    worst = max((r.max_residual for r in reports), default=0.0)
    failed = next((r for r in reports if r.verdict is Verdict.FAIL), None)
    if failed is not None:
        mode, verdict, caveat = failed.mode, Verdict.FAIL, failed.caveat
    else:
        modes = {r.mode for r in reports}
        mode = CheckMode.EXACT if modes <= {CheckMode.EXACT} else (
            CheckMode.NUMERIC if modes == {CheckMode.NUMERIC} else CheckMode.MIXED
        )
        caveat = next((r.caveat for r in reports if r.caveat), None)
        verdict = Verdict.PASS if caveat is None else Verdict.PASS_WITH_CAVEAT
        worst = 0.0 if mode is CheckMode.EXACT else worst
    witness = None if failed is None else failed.witness
    return AlgebraReport(relation_id, mode, worst, verdict, caveat=caveat, witness=witness)


def _group_by_suffix(per_instance: List[List[AlgebraReport]], label: str) -> List[AlgebraReport]:
    """Aggregate parallel report lists that share relation ids positionwise."""
    if not per_instance:
        return []
    grouped: Dict[str, List[AlgebraReport]] = {}
    order: List[str] = []
    for reports in per_instance:
        for report in reports:
            if report.relation_id not in grouped:
                grouped[report.relation_id] = []
                order.append(report.relation_id)
            grouped[report.relation_id].append(report)
    return [aggregate(f"{rid} {label}", grouped[rid]) for rid in order]


def number_suite(max_n: int = 50) -> List[AlgebraReport]:
    numbers = [deformed_number(k) for k in range(max_n + 3)]
    # one report per instance in instance order, as aggregate's max over NaN
    # residuals depends on it; the passing ones share one report
    holds = exact_report("numbers: instance holds")
    pair = [_pair_failure(n, *numbers[n : n + 3]) or holds for n in range(max_n + 1)]
    cross = [
        _cross_failure(m, n, numbers[m], numbers[m + 1], numbers[n], numbers[n + 1]) or holds
        for m in range(max_n + 1)
        for n in range(max_n + 1)
    ]
    return [
        aggregate(f"numbers: [n]+[n+1] = 2n+1+2nu and [n+2]-[n] = 2 (n <= {max_n})", pair),
        aggregate(
            f"numbers: [m][n+1]-[n][m+1] closed and piecewise forms agree (m,n <= {max_n})",
            cross,
        ),
    ]


def single_mode_suite(min_dim: int = 2, max_dim: int = 25, *, build=build_now) -> List[AlgebraReport]:
    per_dim = []
    defects = []
    for dim in range(min_dim, max_dim + 1):
        s = build(build_single_mode, dim)
        specs = build(single_mode_relation_specs, s)
        per_dim.append(check_specs(specs))
        defects.append(truncation_defect_report(s, build=lambda fn, family: specs))
    out = _group_by_suffix(per_dim, f"(dims {min_dim}..{max_dim})")
    out.append(
        aggregate(
            f"[a,adag] unmasked fails only at the top row with defect -[dim] (dims {min_dim}..{max_dim})",
            defects,
        )
    )
    return out


def realization_suite(max_n: int = 15) -> List[AlgebraReport]:
    return audit_realizations(max_n)


def two_mode_suite(d1: int = 10, d2: int = 10, *, build=build_now) -> List[AlgebraReport]:
    return check_specs(build(two_mode_relation_specs, build(build_two_mode, d1, d2, build=build)))


def two_mode_sweep(max_dim: int = 10) -> List[AlgebraReport]:
    per_pair = [
        audit_two_mode(build_two_mode(d1, d2))
        for d1 in range(2, max_dim + 1)
        for d2 in range(2, max_dim + 1)
    ]
    return _group_by_suffix(per_pair, f"(d1,d2 in 2..{max_dim})")


def spin_suite(max_two_j: int = 8, *, build=build_now) -> List[AlgebraReport]:
    reps = {two_j: build(build_js_spin_rep, two_j) for two_j in range(1, max_two_j + 1)}
    out = _group_by_suffix([audit_su_nu2(r, build=build) for r in reps.values()], f"(two_j 1..{max_two_j})")
    odd = [audit_condensed_forms(reps[j], build=build) for j in range(1, max_two_j + 1, 2)]
    even = [audit_condensed_forms(reps[j], build=build) for j in range(2, max_two_j + 1, 2)]
    out.extend(_group_by_suffix(odd, f"(odd two_j <= {max_two_j})"))
    out.extend(_group_by_suffix(even, f"(even two_j <= {max_two_j})"))
    return out


def block_extraction_suite(
    max_two_j: int = 8, d1: int = 10, d2: int = 10, *, build=build_now
) -> List[AlgebraReport]:
    ambient = build(build_two_mode, d1, d2, build=build)
    composites = js_composites(ambient)
    reports = []
    top = min(max_two_j, d1 - 1, d2 - 1)
    for two_j in range(1, top + 1):
        extracted = cut_js_block(ambient, composites, two_j)
        closed = build(build_js_spin_rep, two_j)
        for name in ("j_plus", "j_minus", "j0", "p_op", "k_op", "q_op", "r_j"):
            reports.append(
                check_relation(
                    f"block {name} (two_j={two_j})",
                    getattr(extracted, name),
                    getattr(closed, name),
                )
            )
    return [
        aggregate(
            f"two-mode block extraction equals the closed-form rep (two_j <= {top})",
            reports,
        )
    ]


def hp_suite(
    even_two_j: Sequence[int] = (2, 4, 6, 8), odd_two_j: Sequence[int] = (1, 3), *, build=build_now
) -> List[AlgebraReport]:
    per_j = [audit_hp(build(build_hp_rep, two_j), build=build) for two_j in even_two_j]
    out = _group_by_suffix(per_j, f"(even two_j in {tuple(even_two_j)})")
    refusals = []
    for two_j in odd_two_j:
        try:
            build_hp_rep(two_j)
        except OddTwoJNotClosedError as err:
            refusals.append(exact_report(f"HP refuses odd two_j={two_j} with leakage {err.leakage}"))
        else:
            refusals.append(
                exact_report(
                    f"HP refuses odd two_j={two_j}",
                    Witness(-1, -1, "OddTwoJNotClosed raised", "no error raised"),
                )
            )
    return out + refusals


def so3_suite(max_two_j: int = 6, *, build=build_now) -> List[AlgebraReport]:
    per_j = [
        audit_so_nu3(build(build_so_nu3, two_j, build=build), build=build)
        for two_j in range(1, max_two_j + 1)
    ]
    # odd and even parities carry different condensed ids, so group as a whole
    return _group_by_suffix(per_j, f"(two_j 1..{max_two_j})")


def reference_suite(*, build=build_now) -> List[AlgebraReport]:
    return reference_matrix_reports(build=build)


def numeric_suite(
    max_two_j: int = 8, dims=(10, 10), single_dim: int = 12, *, build=build_now
) -> List[AlgebraReport]:
    """Grid-sampled residual checks on the specs the exact audits check.

    Every family's specs stay alive until the grid is done. :func:`verify_all`
    runs the grid first, so its memo stores these families and spec lists and
    the exact sections check the very same ones.
    """
    families = [
        build(single_mode_relation_specs, build(build_single_mode, single_dim)),
        build(two_mode_relation_specs, build(build_two_mode, *dims, build=build)),
    ]
    for two_j in sorted({max(1, max_two_j - 1), max_two_j}):
        rep = build(build_js_spin_rep, two_j)
        so3 = build(build_so_nu3, two_j, build=build)
        families += [
            build(su_nu2_relation_specs, rep),
            build(condensed_relation_specs, rep),
            build(so_nu3_relation_specs, so3),
            build(so_nu3_condensed_specs, so3),
        ]
    even = max_two_j if max_two_j % 2 == 0 else max_two_j - 1
    if even >= 2:
        families.append(build(hp_relation_specs, build(build_hp_rep, even)))
    memo: dict = {}  # each distinct entry is evaluated once on the grid
    return [numeric_relation_report(spec, memo=memo) for specs in families for spec in specs]


def verify_all(
    max_two_j: int = 8,
    dims=(10, 10),
    max_n: int = 15,
    max_number: int = 50,
    max_single_dim: int = 25,
) -> Dict[str, List[AlgebraReport]]:
    """Every audited relation family, grouped by section, deterministic order.

    One :class:`RunMemo` builds each family and spec list once for all sections.
    The numeric grid runs first and everything it builds is kept; after it the
    memo keeps only JS spin reps and single-mode sets, which several sections
    re-read. Any other family or spec list lives only inside its section.
    """
    build = RunMemo()
    grid = numeric_suite(max_two_j, dims, build=build)
    build.keep = {build_js_spin_rep, build_single_mode}
    return {
        "deformed-numbers": number_suite(max_number),
        "single-mode": single_mode_suite(2, max_single_dim, build=build),
        "coordinate-realizations": realization_suite(max_n),
        "two-mode": two_mode_suite(*dims, build=build),
        "su_nu2": spin_suite(max_two_j, build=build),
        "block-extraction": block_extraction_suite(max_two_j, *dims, build=build),
        "reference-matrices": reference_suite(build=build),
        "holstein-primakoff": hp_suite(
            tuple(j for j in range(2, max_two_j + 1, 2)), (1, 3), build=build
        ),
        "so_nu3": so3_suite(min(max_two_j, 6), build=build),
        "numeric-grid": grid,
    }
