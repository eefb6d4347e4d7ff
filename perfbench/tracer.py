"""Spans and counters around the public functions of each wigneralg layer.

The wrappers live in the benchmark, not in the package: `Tracer.install`
rebinds every target in every loaded ``wigneralg`` module (and on its class,
for methods), and `Tracer.uninstall` puts the originals back.  Each call opens
a span on a stack; on exit the span's duration is added to its parent's child
time, so self time is duration minus the time covered by child spans.

Hot scalar operations (hundreds of thousands of calls per job) are counted
and timed like every other target, but keep no span record of their own;
all other targets also keep (name, start, end, parent, job) in memory for
`write_spans`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (layer name, module, attributes, keep a span record per call)
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], bool], ...] = (
    ("scalars.RadicalSum.mul", "wigneralg.scalars", ("RadicalSum.__mul__",), False),
    ("scalars.RadicalSum.add", "wigneralg.scalars", ("RadicalSum.__add__",), False),
    ("scalars.NuPolynomial.mul", "wigneralg.scalars", ("NuPolynomial.__mul__",), False),
    ("scalars.canonical_radicand", "wigneralg.scalars", ("_canonical_radicand",), False),
    ("scalars.numeric_eval", "wigneralg.scalars", ("numeric_eval",), False),
    ("operators.row_nonzeros", "wigneralg.operators", ("OperatorMatrix.row_nonzeros",), False),
    ("operators.matmul", "wigneralg.operators", ("OperatorMatrix.__matmul__",), True),
    (
        "operators.linear",
        "wigneralg.operators",
        (
            "OperatorMatrix.__add__",
            "OperatorMatrix.__sub__",
            "OperatorMatrix.__neg__",
            "OperatorMatrix.scale",
        ),
        True,
    ),
    ("operators.tensor", "wigneralg.operators", ("tensor",), True),
    ("operators.check_relation", "wigneralg.operators", ("check_relation",), True),
    ("operators.radical_values_equal", "wigneralg.scalars", ("radical_values_equal",), True),
    ("operators.eval_matrix", "wigneralg.operators", ("eval_matrix",), True),
    ("operators.numeric_relation_report", "wigneralg.operators", ("numeric_relation_report",), True),
    ("single_mode.build_single_mode", "wigneralg.single_mode", ("build_single_mode",), True),
    ("two_mode.build_two_mode", "wigneralg.two_mode", ("build_two_mode",), True),
    ("two_mode.relation_specs", "wigneralg.two_mode", ("two_mode_relation_specs",), True),
    ("spin.build", "wigneralg.spin", ("build_js_spin_rep", "build_hp_rep", "build_so_nu3"), True),
    ("spin.extract_js_block", "wigneralg.spin", ("extract_js_block",), True),
    (
        "spin.relation_specs",
        "wigneralg.spin",
        (
            "su_nu2_relation_specs",
            "condensed_relation_specs",
            "hp_relation_specs",
            "so_nu3_relation_specs",
            "so_nu3_condensed_specs",
        ),
        True,
    ),
    ("realizations.audit_realizations", "wigneralg.realizations", ("audit_realizations",), True),
    ("realizations.BiPolynomial.mul", "wigneralg.realizations", ("BiPolynomial.__mul__",), False),
    # one entry per verify_all section, named as the section
    ("suites.deformed-numbers", "wigneralg.suites", ("number_suite",), True),
    ("suites.single-mode", "wigneralg.suites", ("single_mode_suite",), True),
    ("suites.coordinate-realizations", "wigneralg.suites", ("realization_suite",), True),
    ("suites.two-mode", "wigneralg.suites", ("two_mode_suite",), True),
    ("suites.su_nu2", "wigneralg.suites", ("spin_suite",), True),
    ("suites.block-extraction", "wigneralg.suites", ("block_extraction_suite",), True),
    ("suites.reference-matrices", "wigneralg.suites", ("reference_suite",), True),
    ("suites.holstein-primakoff", "wigneralg.suites", ("hp_suite",), True),
    ("suites.so_nu3", "wigneralg.suites", ("so3_suite",), True),
    ("suites.numeric-grid", "wigneralg.suites", ("numeric_suite",), True),
    ("serialize.matrix_to_dict", "wigneralg.serialize", ("matrix_to_dict",), True),
    ("serialize.dumps", "wigneralg.serialize", ("dumps",), True),
    ("serialize.matrix_to_csv", "wigneralg.serialize", ("matrix_to_csv",), True),
    ("cli.run", "wigneralg.cli", ("run",), True),
)

PACKAGE = "wigneralg"


class Tracer:
    """Span stack, per-layer call/time totals, and matrix storage counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.stack: List[list] = []  # frames: [child seconds, span index seen by children]
        self.stats: Dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.spans: List[Optional[tuple]] = []
        self.job: object = None
        self.missing: List[str] = []
        self.counters = {
            "cells_allocated": 0,
            "nnz_stored": 0,
            "max_terms_per_entry": 0,
            "matmul_out_nnz": 0,
            "fallback_calls": 0,
            "scan_s": 0.0,
        }
        self._last_matrix: Tuple[int, int] = (0, 0)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, record: bool = True, after: Optional[Callable] = None) -> Callable:
        """Return fn wrapped in a span named `name`."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock, tracer = self.stack, self.spans, self.clock, self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else -1
            if record:
                index = len(spans)
                spans.append(None)
            else:
                index = parent_span
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if record:
                    spans[index] = (name, start, end, parent_span, tracer.job)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- matrix storage counters --------------------------------------

    def _count_matrix(self, matrix) -> None:
        """Cells and nonzeros of a newly built matrix, kept out of every self time."""
        start = self.clock()
        nnz = cells = widest = 0
        for row in matrix.rows:
            cells += len(row)
            for value in row:
                terms = value.terms
                if terms:
                    nnz += 1
                    if len(terms) > widest:
                        widest = len(terms)
        c = self.counters
        c["cells_allocated"] += cells
        c["nnz_stored"] += nnz
        c["max_terms_per_entry"] = max(c["max_terms_per_entry"], widest)
        self._last_matrix = (id(matrix), nnz)
        spent = self.clock() - start
        c["scan_s"] += spent
        if self.stack:
            self.stack[-1][0] += spent

    def _after_matmul(self, result) -> None:
        ident, nnz = self._last_matrix
        if ident == id(result):
            self.counters["matmul_out_nnz"] += nnz

    def _after_values_equal(self, result) -> None:
        # calls that return "different" confirm a real inequality; the others
        # are entries the sampled-value fallback, not exact arithmetic, decided
        if result[0] != "different":
            self.counters["fallback_calls"] += 1

    # -- installing ----------------------------------------------------

    def _rebind(self, original: object, replacement: object) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls: type, method: str, replacement_for: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[method]
        replacement = replacement_for(original)
        for attr, value in list(cls.__dict__.items()):
            if value is original:  # aliases such as __rmul__ = __mul__
                self._patches.append((cls, attr, original))
                setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every target of TARGETS; targets that no longer exist go to `missing`."""
        afters = {
            "operators.matmul": self._after_matmul,
            "operators.radical_values_equal": self._after_values_equal,
        }
        for name, module_name, attrs, record in TARGETS:
            self.stats.setdefault(name, [0, 0.0, 0.0])
            module = importlib.import_module(module_name)
            for attr in attrs:
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                found = owner is not None and (
                    method in vars(owner) if owner_name else hasattr(owner, method)
                )
                if not found:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                make = lambda fn, n=name, r=record: self.wrap(n, fn, r, afters.get(n))
                if owner_name:
                    self._patch_method(owner, method, make)
                else:
                    original = getattr(module, method)
                    self._rebind(original, make(original))
        operators = importlib.import_module(PACKAGE + ".operators")
        matrix_cls = operators.OperatorMatrix

        def counting_init(init):
            def __init__(matrix, *args, **kwargs):
                init(matrix, *args, **kwargs)
                self._count_matrix(matrix)

            return __init__

        self._patch_method(matrix_cls, "__init__", counting_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Flat per-layer metrics: <layer>.calls, .self_s, .total_s; suites give .wall_s."""
        out: Dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            if name.startswith("suites."):
                out[f"{name}.wall_s"] = total
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total
        c = self.counters
        out["operators.cells_allocated"] = c["cells_allocated"]
        out["operators.nnz_stored"] = c["nnz_stored"]
        out["operators.fill_ratio"] = (
            c["nnz_stored"] / c["cells_allocated"] if c["cells_allocated"] else 0.0
        )
        out["operators.matmul.out_nnz"] = c["matmul_out_nnz"]
        out["operators.check_relation.fallback_calls"] = c["fallback_calls"]
        out["scalars.max_terms_per_entry"] = c["max_terms_per_entry"]
        out["trace.scan_s"] = c["scan_s"]
        return out

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as JSON, times in seconds since the tracer started."""
        rows = [
            [name, start - self.origin, end - self.origin, parent, job]
            for name, start, end, parent, job in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": rows}, fh)
        return len(rows)
