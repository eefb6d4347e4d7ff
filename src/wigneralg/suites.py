"""Canned audit sweeps shared by the CLI and the acceptance tests.

Each suite aggregates per-instance checks into one report per relation family
so a full run reads as one verdict line per identity. Suites, the numeric grid,
the ``audit_*`` functions and the artifact commands build families and check
relation sets through one table: :data:`KINDS` and :data:`RELATION_SETS`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import OddTwoJNotClosedError
from .operators import RelationSpec, _memo_scope, check_relation, check_specs, numeric_relation_report
from .reports import AlgebraReport, CheckMode, Verdict, Witness, exact_report
from .scalars import _cross_failure, _pair_failure, deformed_number
from .single_mode import build_single_mode, single_mode_relation_specs, truncation_defect_report
from .two_mode import two_mode_from, two_mode_relation_specs
from .realizations import audit_realizations
from .spin import (
    JS_OPERATORS,
    REFERENCE_TWO_J,
    build_hp_rep,
    build_js_spin_rep,
    condensed_caveats,
    condensed_relation_specs,
    cut_js_block,
    hp_relation_specs,
    hp_spectrum_report,
    js_composites,
    reference_matrix_reports,
    so_nu3_caveats,
    so_nu3_condensed_specs,
    so_nu3_from,
    so_nu3_relation_specs,
    su_nu2_relation_specs,
)

# Rows reach builders and spec functions through this module's globals at call
# time, so code that rebinds those globals (a tracer, a call counter) sees them.

# Family kind -> builder(run, *sizes); a builder takes the parts it shares from the run.
KINDS: Dict[str, Callable] = {
    "single-mode": lambda run, dim: build_single_mode(dim),
    "two-mode": lambda run, d1, d2: two_mode_from(run.family("single-mode", d1), run.family("single-mode", d2)),
    "js": lambda run, two_j: build_js_spin_rep(two_j),
    "so3": lambda run, two_j: so_nu3_from(run.family("js", two_j)),
    "hp": lambda run, two_j: build_hp_rep(two_j),
}
# The kinds several sections read: a run keeps their families for its whole life.
SHARED_KINDS = {"single-mode", "two-mode", "js"}


class RelationSet(NamedTuple):
    """Relations on one family kind: their specs, caveats by relation id and further checks.

    ``extra(run, family, specs)`` gives the checks beyond the specs; the grid samples specs only.
    """

    kind: str
    specs: Callable
    caveats: Callable = lambda family: {}
    extra: Callable = lambda run, family, specs: []


RELATION_SETS: Dict[str, RelationSet] = {
    "single-mode": RelationSet("single-mode", lambda s: single_mode_relation_specs(s)),
    "two-mode": RelationSet("two-mode", lambda s: two_mode_relation_specs(s)),
    "su_nu2": RelationSet("js", lambda r: su_nu2_relation_specs(r)),
    "condensed": RelationSet("js", lambda r: condensed_relation_specs(r), lambda r: condensed_caveats(r)),
    # both spec functions bracket [Lx,Ly]: one scope computes it once
    "so_nu3": RelationSet(
        "so3",
        _memo_scope(lambda r: so_nu3_relation_specs(r) + so_nu3_condensed_specs(r)),
        lambda r: so_nu3_caveats(r),
    ),
    "hp": RelationSet(
        "hp",
        lambda r: hp_relation_specs(r),
        extra=lambda run, r, specs: [hp_spectrum_report(specs, run.family("js", r.two_j))],
    ),
}


class Run:
    """Builds families through :data:`KINDS` and checks relation sets on them.

    Shared kinds are built once and kept; any other family, and every spec
    list, lives as long as its caller holds it. A two-mode family tensors the
    run's single-mode families, and every family holds the ladder entries of
    :func:`~wigneralg.scalars.ladder_level`. ``grid`` plans (relation
    set, sizes) pairs: the first exact check of one samples its specs on the
    grid. A run keeps those reports; each report evaluates its own entries.
    """

    def __init__(self, grid: Sequence[Tuple[str, tuple]] = ()) -> None:
        self._shared: Dict[tuple, object] = {}
        self._grid: Dict[Tuple[str, tuple], Optional[List[AlgebraReport]]] = dict.fromkeys(grid)

    def family(self, kind: str, *sizes: int):
        family = self._shared.get((kind, *sizes))
        if family is None:
            family = KINDS[kind](self, *sizes)
            if kind in SHARED_KINDS:
                self._shared[(kind, *sizes)] = family
        return family

    def specs(self, name: str, *sizes: int) -> Tuple[object, List[RelationSpec]]:
        """The family of relation set ``name`` at ``sizes`` and its specs, sampled if planned."""
        family = self.family(RELATION_SETS[name].kind, *sizes)
        specs = RELATION_SETS[name].specs(family)
        if (name, sizes) in self._grid and self._grid[name, sizes] is None:
            self._grid[name, sizes] = [numeric_relation_report(spec) for spec in specs]
        return family, specs

    def audit(self, name: str, family, specs: Optional[List[RelationSpec]] = None) -> List[AlgebraReport]:
        """Exact checks of relation set ``name`` on ``family``, given its ``specs`` if made."""
        row = RELATION_SETS[name]
        specs = row.specs(family) if specs is None else specs
        return check_specs(specs, row.caveats(family)) + row.extra(self, family, specs)

    def check(self, name: str, *sizes: int) -> List[AlgebraReport]:
        return self.audit(name, *self.specs(name, *sizes))

    def sampled(self, name: str, *sizes: int) -> List[AlgebraReport]:
        """Grid reports of relation set ``name`` at ``sizes``, sampled now unless a check did."""
        if self._grid.get((name, sizes)) is None:
            self._grid[name, sizes] = None
            self.specs(name, *sizes)
        return self._grid[name, sizes]


def aggregate(relation_id: str, reports: Sequence[AlgebraReport]) -> AlgebraReport:
    """Fold instance reports into one: first failure wins, caveats survive."""
    worst = max((r.max_residual for r in reports), default=0.0)
    failed = next((r for r in reports if r.verdict is Verdict.FAIL), None)
    if failed is not None:
        mode, verdict, caveat = failed.mode, Verdict.FAIL, failed.caveat
    else:
        mode = CheckMode.NUMERIC if any(r.mode is CheckMode.NUMERIC for r in reports) else CheckMode.EXACT
        caveat = next((r.caveat for r in reports if r.caveat), None)
        verdict = Verdict.PASS if caveat is None else Verdict.PASS_WITH_CAVEAT
        worst = 0.0 if mode is CheckMode.EXACT else worst
    witness = None if failed is None else failed.witness
    return AlgebraReport(relation_id, mode, worst, verdict, caveat=caveat, witness=witness)


def _group_by_suffix(per_instance: List[List[AlgebraReport]], label: str) -> List[AlgebraReport]:
    """Aggregate parallel report lists that share relation ids, in first-seen id order."""
    grouped: Dict[str, List[AlgebraReport]] = {}
    for reports in per_instance:
        for report in reports:
            grouped.setdefault(report.relation_id, []).append(report)
    return [aggregate(f"{rid} {label}", reports) for rid, reports in grouped.items()]


def number_suite(max_n: int = 50) -> List[AlgebraReport]:
    numbers = [deformed_number(k) for k in range(max_n + 3)]
    # one report per instance in instance order, as aggregate's max over NaN
    # residuals depends on it; the passing ones share one report
    holds = exact_report("numbers: instance holds")
    pair = [_pair_failure(n, *numbers[n : n + 3]) or holds for n in range(max_n + 1)]
    # products[m][n] = [m][n+1]; instance (m, n) expands products[m][n] - products[n][m]
    products = [[numbers[m] * numbers[n + 1] for n in range(max_n + 1)] for m in range(max_n + 1)]
    cross = [
        _cross_failure(m, n, products[m][n] - products[n][m]) or holds
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


@_memo_scope
def single_mode_suite(min_dim: int = 2, max_dim: int = 25, *, run: Optional[Run] = None) -> List[AlgebraReport]:
    """The single-mode relations and truncation defect at each dim from ``min_dim`` to ``max_dim``.

    The dims hold the same ladder entries (:func:`~wigneralg.scalars.ladder_level`)
    and every dim's spec list runs in this call's memo scope, so a product the
    dims share is computed once.
    """
    run = run or Run()
    per_dim = []
    defects = []
    for dim in range(min_dim, max_dim + 1):
        s, specs = run.specs("single-mode", dim)
        per_dim.append(run.audit("single-mode", s, specs))
        defects.append(truncation_defect_report(s, specs))
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


def two_mode_suite(d1: int = 10, d2: int = 10, *, run: Optional[Run] = None) -> List[AlgebraReport]:
    return (run or Run()).check("two-mode", d1, d2)


def spin_suite(max_two_j: int = 8, *, run: Optional[Run] = None) -> List[AlgebraReport]:
    run = run or Run()
    two_js = range(1, max_two_j + 1)
    out = _group_by_suffix([run.check("su_nu2", j) for j in two_js], f"(two_j 1..{max_two_j})")
    odd = [run.check("condensed", j) for j in two_js[::2]]
    even = [run.check("condensed", j) for j in two_js[1::2]]
    out.extend(_group_by_suffix(odd, f"(odd two_j <= {max_two_j})"))
    out.extend(_group_by_suffix(even, f"(even two_j <= {max_two_j})"))
    return out


def block_extraction_suite(
    max_two_j: int = 8, d1: int = 10, d2: int = 10, *, run: Optional[Run] = None
) -> List[AlgebraReport]:
    run = run or Run()
    ambient = run.family("two-mode", d1, d2)
    composites = js_composites(ambient)
    reports = []
    top = min(max_two_j, d1 - 1, d2 - 1)
    for two_j in range(1, top + 1):
        extracted = cut_js_block(ambient, composites, two_j)
        closed = run.family("js", two_j)
        for name in JS_OPERATORS.values():
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
    even_two_j: Sequence[int] = (2, 4, 6, 8), odd_two_j: Sequence[int] = (1, 3), *, run: Optional[Run] = None
) -> List[AlgebraReport]:
    run = run or Run()
    per_j = [run.check("hp", two_j) for two_j in even_two_j]
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


def so3_suite(max_two_j: int = 6, *, run: Optional[Run] = None) -> List[AlgebraReport]:
    run = run or Run()
    per_j = [run.check("so_nu3", two_j) for two_j in range(1, max_two_j + 1)]
    # odd and even parities carry different condensed ids, so group as a whole
    return _group_by_suffix(per_j, f"(two_j 1..{max_two_j})")


def reference_suite(*, run: Optional[Run] = None) -> List[AlgebraReport]:
    run = run or Run()
    reps = {two_j: run.family("js", two_j) for two_j in REFERENCE_TWO_J.values()}
    return reference_matrix_reports(reps)


def _grid_plan(max_two_j: int, dims: Sequence[int], single_dim: int) -> List[Tuple[str, tuple]]:
    """The (relation set, sizes) pairs the numeric grid samples, in its output order."""
    plan = [("single-mode", (single_dim,)), ("two-mode", tuple(dims))]
    for two_j in sorted({max(1, max_two_j - 1), max_two_j}):
        plan += [("su_nu2", (two_j,)), ("condensed", (two_j,)), ("so_nu3", (two_j,))]
    even = max_two_j if max_two_j % 2 == 0 else max_two_j - 1
    if even >= 2:
        plan.append(("hp", (even,)))
    return plan


def numeric_suite(
    max_two_j: int = 8, dims=(10, 10), single_dim: int = 12, *, run: Optional[Run] = None
) -> List[AlgebraReport]:
    """Grid-sampled residual checks of the relation sets at the grid's sizes.

    The grid samples single-mode at ``single_dim``, two-mode at ``dims``,
    su_nu(2), its condensed forms and so_nu(3) at 2j = max_two_j - 1 and
    max_two_j, and HP at the top even 2j. In :func:`verify_all` each exact
    section samples the spec lists it checks at these sizes; this samples
    the rest, which are checked on the grid only, never exactly: so_nu(3)
    above the so_nu3 section's 2j <= 6 (2j = 7, 8 at the defaults), and
    single-mode at ``single_dim`` when the single-mode section stops below.
    """
    plan = _grid_plan(max_two_j, dims, single_dim)
    run = run or Run(plan)
    return [report for name, sizes in plan for report in run.sampled(name, *sizes)]


def verify_all(
    max_two_j: int = 8,
    dims=(10, 10),
    max_n: int = 15,
    max_number: int = 50,
    max_single_dim: int = 25,
) -> Dict[str, List[AlgebraReport]]:
    """Every audited relation family, grouped by section, deterministic order.

    One :class:`Run` builds each family once for all sections and keeps the
    shared kinds. Each exact section samples on the numeric grid the spec
    lists it checks at the grid's sizes, so no spec list outlives its check;
    the grid section, last, samples only the sizes no exact section visits.
    """
    grid = (max_two_j, dims, 12)
    run = Run(_grid_plan(*grid))
    return {
        "deformed-numbers": number_suite(max_number),
        "single-mode": single_mode_suite(2, max_single_dim, run=run),
        "coordinate-realizations": realization_suite(max_n),
        "two-mode": two_mode_suite(*dims, run=run),
        "su_nu2": spin_suite(max_two_j, run=run),
        "block-extraction": block_extraction_suite(max_two_j, *dims, run=run),
        "reference-matrices": reference_suite(run=run),
        "holstein-primakoff": hp_suite(tuple(j for j in range(2, max_two_j + 1, 2)), (1, 3), run=run),
        "so_nu3": so3_suite(min(max_two_j, 6), run=run),
        "numeric-grid": numeric_suite(*grid, run=run),
    }
