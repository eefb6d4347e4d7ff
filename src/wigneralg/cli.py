"""Command-line surface: generate representations, run audits, export results.

Exit codes: 0 all audited relations pass (caveats allowed unless --strict),
1 at least one failure, 2 usage or configuration error.  Outputs are
deterministic: stable key order, floats normalized to 17 significant digits,
no timestamps.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from . import __version__
from .errors import OddTwoJNotClosedError
from .reports import AlgebraReport, Verdict
from .scalars import deformed_number
from .serialize import csv_rows, dumps, reports_to_list
from .spin import JS_OPERATORS, errata_findings
from .suites import RELATION_SETS, Run, verify_all
from .realizations import audit_realizations, build_quasi_basis

ENV_OUTPUT_DIR = "WIGNERALG_OUTPUT_DIR"

USAGE_ERROR = 2

# Largest matrix dimension a command may build: --dim, the product of --dims,
# --two-j + 1 and --max-two-j + 1 (two-mode up to 21 x 21).
MAX_MATRIX_DIM = 441
# Largest --max-n; the realization audit grows roughly as max_n**4, and
# `realizations --max-n 50` takes about 1.7 s on a 2-core machine.
MAX_N = 50


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    two_j: Optional[int] = None
    nu_values: List[float] = field(default_factory=list)
    dims: Optional[Tuple[int, int]] = None
    dim: Optional[int] = None
    max_n: Optional[int] = None
    max_two_j: int = 8
    fmt: str = "json"
    output_path: Optional[str] = None
    strict: bool = False

    def __post_init__(self) -> None:
        for nu in self.nu_values:
            if not math.isfinite(nu) or nu <= -0.5:
                raise UsageError(f"--nu must be finite and > -1/2, got {nu}")
        if self.fmt == "csv" and len(self.nu_values) != 1:
            raise UsageError("CSV export is numeric-only and needs exactly one --nu value")
        if self.fmt != "csv" and self.nu_values:
            raise UsageError("--nu only applies to --format csv exports")
        min_n = 2 if self.command in ("realizations", "verify") else 0
        if self.max_n is not None and not min_n <= self.max_n <= MAX_N:
            raise UsageError(f"--max-n must be between {min_n} and {MAX_N}")
        if self.two_j is not None and self.two_j < 1:
            raise UsageError("--two-j must be at least 1")
        if self.dims is not None and any(d < 2 for d in self.dims):
            raise UsageError("--dims values must be at least 2")
        if self.dim is not None and self.dim < 2:
            raise UsageError("--dim must be at least 2")
        if self.max_two_j < 1:
            raise UsageError("--max-two-j must be at least 1")
        sizes = {
            "--dim": self.dim,
            "--dims": None if self.dims is None else self.dims[0] * self.dims[1],
            "--two-j": None if self.two_j is None else self.two_j + 1,
            "--max-two-j": self.max_two_j + 1,
        }
        for flag, size in sizes.items():
            if size is not None and size > MAX_MATRIX_DIM:
                raise UsageError(
                    f"{flag} asks for a {size}-dim matrix; the largest allowed is {MAX_MATRIX_DIM}"
                )


def _exit_code(reports: Sequence[AlgebraReport], strict: bool) -> int:
    if any(r.verdict is Verdict.FAIL for r in reports):
        return 1
    if strict and any(r.verdict is Verdict.PASS_WITH_CAVEAT for r in reports):
        return 1
    return 0


def _resolve_output(path: Optional[str]) -> Optional[Path]:
    if path is None:
        return None
    out = Path(path)
    base = os.environ.get(ENV_OUTPUT_DIR)
    if base and not out.is_absolute():
        out = Path(base) / out
    return out


@contextmanager
def _output(config: RunConfig) -> Iterator[TextIO]:
    """stdout, or the -o file (under WIGNERALG_OUTPUT_DIR when relative) opened once."""
    out = _resolve_output(config.output_path)
    if out is None:
        yield sys.stdout
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as stream:
        yield stream


def _emit(text: str, config: RunConfig) -> None:
    with _output(config) as stream:
        stream.write(text)


def _cmd_numbers(config: RunConfig) -> int:
    max_n = config.max_n if config.max_n is not None else 10
    numbers = [deformed_number(n) for n in range(max_n + 1)]
    if config.fmt == "csv":
        nu = config.nu_values[0]
        lines = ["n,value"]
        for n, p in enumerate(numbers):
            lines.append(f"{n},{format(p.eval_complex(nu).real, '.17g')}")
        _emit("\n".join(lines) + "\n", config)
        return 0
    payload = {
        "command": "numbers",
        "numbers": [
            {
                "n": n,
                "coefficients": [[c.re.numerator, c.re.denominator] for c in p.coeffs],
                "text": str(p),
            }
            for n, p in enumerate(numbers)
        ],
    }
    _emit(dumps(payload), config)
    return 0


def _cmd_realizations(config: RunConfig) -> int:
    max_n = config.max_n if config.max_n is not None else 8
    basis = build_quasi_basis(max_n + 1)
    reports = audit_realizations(max_n, basis)
    payload = {
        "command": "realizations",
        "quasi_basis": [
            {"n": n, "text": str(basis.phi(n))} for n in range(max_n + 1)
        ],
        "reports": reports_to_list(reports),
    }
    _emit(dumps(payload), config)
    return _exit_code(reports, config.strict)


# artifact command -> (family kind, its sizes from the options)
_ARTIFACTS = {
    "single-mode": ("single-mode", lambda c: (c.dim if c.dim is not None else 6,)),
    "two-mode": ("two-mode", lambda c: c.dims if c.dims is not None else (6, 6)),
    "spin-rep": ("js", lambda c: (c.two_j,)),
    "hp-rep": ("hp", lambda c: (c.two_j,)),
    "so3-rep": ("so3", lambda c: (c.two_j,)),
}
# family kind -> the operators its export writes, by name, in order
_EXPORTS = {
    "single-mode": lambda s: {"a": s.a, "adag": s.a_dag, "N": s.n_op, "R": s.r_op},
    "two-mode": lambda s: {
        "a1": s.a[0], "a2": s.a[1],
        "adag1": s.a_dag[0], "adag2": s.a_dag[1],
        "N1": s.n_op[0], "N2": s.n_op[1],
        "R1": s.r_op[0], "R2": s.r_op[1],
    },
    "js": lambda r: {name: getattr(r, field) for name, field in JS_OPERATORS.items()},
    "hp": lambda r: {"J+": r.j_plus, "J-": r.j_minus, "J0": r.j0, "R": r.r_op},
    "so3": lambda r: {
        "Lx": r.l_x, "Ly": r.l_y, "Lz": r.l_z,
        "P": r.p_op, "K": r.k_op, "Q": r.q_op, "R_L": r.r_l,
    },
}


def _cmd_artifact(config: RunConfig) -> int:
    """Export one family with the audits of every relation set on its kind."""
    kind, sizes = _ARTIFACTS[config.command]
    run = Run()
    try:
        family = run.family(kind, *sizes(config))
    except OddTwoJNotClosedError as err:
        payload = {
            "command": config.command,
            "error": "odd-two-j-not-closed",
            "two_j": err.two_j,
            "leakage": str(err.leakage),
        }
        _emit(dumps(payload), config)
        return 1
    reports = [
        report
        for name, row in RELATION_SETS.items()
        if row.kind == kind
        for report in run.audit(name, family)
    ]
    operators = _EXPORTS[kind](family)
    if config.fmt == "csv":
        nu = config.nu_values[0]
        with _output(config) as stream:
            stream.write("operator,row,col,real,imag\n")
            for name, op in operators.items():
                stream.write(csv_rows(op, nu, f"{name},"))
    else:
        payload = {
            "command": config.command,
            "nu_domain": "nu > -1/2",
            "operators": operators,
            "reports": reports_to_list(reports),
        }
        _emit(dumps(payload), config)
    return _exit_code(reports, config.strict)


def _cmd_verify(config: RunConfig) -> int:
    dims = config.dims if config.dims is not None else (10, 10)
    max_n = config.max_n if config.max_n is not None else 15
    sections = verify_all(max_two_j=config.max_two_j, dims=dims, max_n=max_n)
    all_reports = [r for reports in sections.values() for r in reports]
    code = _exit_code(all_reports, config.strict)
    if config.fmt == "json":
        payload = {
            "command": "verify",
            "config": {
                "max_two_j": config.max_two_j,
                "dims": list(dims),
                "max_n": max_n,
                "strict": config.strict,
            },
            "sections": {name: reports_to_list(reports) for name, reports in sections.items()},
            "summary": _summary(all_reports),
            "exit_code": code,
        }
        _emit(dumps(payload), config)
        return code
    lines = []
    for name, reports in sections.items():
        lines.append(f"== {name} ==")
        for report in reports:
            lines.append(_report_line(report))
        lines.append("")
    summary = _summary(all_reports)
    lines.append(
        "summary: {pass} pass, {pass-with-caveat} pass-with-caveat, {fail} fail".format(
            **summary
        )
    )
    lines.append(f"exit code: {code}")
    _emit("\n".join(lines) + "\n", config)
    return code


def _summary(reports: Sequence[AlgebraReport]) -> Dict[str, int]:
    out = {"pass": 0, "pass-with-caveat": 0, "fail": 0}
    for report in reports:
        out[report.verdict.value] += 1
    return out


def _report_line(report: AlgebraReport) -> str:
    tag = {"pass": "PASS ", "fail": "FAIL ", "pass-with-caveat": "PASS*"}[report.verdict.value]
    line = f"{tag} [{report.mode.value:7}] {report.relation_id}"
    if report.max_residual not in (0, 0.0):
        line += f"  residual={format(report.max_residual, '.17g')}"
    if report.caveat:
        line += f"  ({report.caveat})"
    if report.witness is not None:
        w = report.witness
        line += f"  witness@({w.row},{w.col}): expected {w.expected}, got {w.actual}"
    return line


def _cmd_errata(config: RunConfig) -> int:
    findings = errata_findings()
    if config.fmt == "json":
        payload = {
            "command": "errata",
            "findings": [
                {
                    "name": f.name,
                    "printed": f.printed,
                    "computed": f.computed,
                    "detail": f.detail,
                    "printed_report": reports_to_list([f.printed_report])[0],
                    "derived_report": reports_to_list([f.derived_report])[0]
                    if f.derived_report is not None
                    else None,
                }
                for f in findings
            ],
        }
        _emit(dumps(payload), config)
        return 0
    lines = []
    for i, f in enumerate(findings, start=1):
        lines.append(f"ERRATUM {i}: {f.name}")
        lines.append(f"  printed:  {f.printed}")
        lines.append(f"  computed: {f.computed}")
        lines.append(f"  detail:   {f.detail}")
        lines.append(f"  printed form check:  {_report_line(f.printed_report)}")
        if f.derived_report is not None:
            lines.append(f"  derived form check:  {_report_line(f.derived_report)}")
        lines.append("")
    _emit("\n".join(lines), config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wigneralg",
        description="Parity-deformed oscillator and spin algebras: build, audit, export.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, two_j=False, dims=False, dim=False, max_n=False, formats=("json", "csv")):
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        p.add_argument("--nu", dest="nu_values", type=float, action="append", default=[])
        p.add_argument("-o", "--output", dest="output_path", default=None)
        p.add_argument("--strict", action="store_true")
        if two_j:
            p.add_argument("--two-j", dest="two_j", type=int, required=True)
        if dims:
            p.add_argument("--dims", nargs=2, type=int, metavar=("D1", "D2"))
        if dim:
            p.add_argument("--dim", type=int)
        if max_n:
            p.add_argument("--max-n", dest="max_n", type=int)

    add_common(sub.add_parser("numbers", help="deformed-number table"), max_n=True)
    add_common(sub.add_parser("single-mode", help="truncated single-mode operators"), dim=True)
    add_common(sub.add_parser("two-mode", help="tensor-built two-mode operators"), dims=True)
    add_common(
        sub.add_parser("realizations", help="coordinate-realization audit"),
        max_n=True,
        formats=("json",),
    )
    add_common(sub.add_parser("spin-rep", help="deformed su(2) block"), two_j=True)
    add_common(sub.add_parser("hp-rep", help="single-mode square-root realization"), two_j=True)
    add_common(sub.add_parser("so3-rep", help="deformed so(3) generators"), two_j=True)
    verify = sub.add_parser("verify", help="run every audit")
    add_common(verify, dims=True, max_n=True, formats=("text", "json"))
    verify.add_argument(
        "--all",
        action="store_true",
        help="accepted for compatibility; verify always runs every section",
    )
    verify.add_argument("--max-two-j", dest="max_two_j", type=int, default=8)
    add_common(sub.add_parser("errata", help="printed-vs-computed diffs"), formats=("text", "json"))
    return parser


_HANDLERS = {
    "numbers": _cmd_numbers,
    "realizations": _cmd_realizations,
    "verify": _cmd_verify,
    "errata": _cmd_errata,
    **dict.fromkeys(_ARTIFACTS, _cmd_artifact),
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    values = vars(args)
    values.pop("all", None)
    dims = values.pop("dims", None)
    try:
        config = RunConfig(
            command=values.pop("command"),
            dims=tuple(dims) if dims is not None else None,
            **values,
        )
        return _HANDLERS[config.command](config)
    except (UsageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
