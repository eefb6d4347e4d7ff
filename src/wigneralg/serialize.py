"""Exact, diff-friendly JSON/CSV encodings of matrices and reports.

Matrix schema (all rationals exact, zero entries omitted):

    {
      "dim": 2,
      "basis": ["spin(1/2,1/2)", "spin(1/2,-1/2)"],
      "entries": [
        {"row": 0, "col": 1,
         "terms": [{"coeff": [{"re": [1, 1], "im": [0, 1]}, ...],
                    "radicand": [[1, 1], [2, 1]]}]}
      ]
    }

"coeff" is the nu-ascending coefficient list of the term's polynomial factor
and "radicand" the nu-ascending real coefficient list under the square root.
Floats in reports are normalized to 17 significant digits before encoding so
identical runs give identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Sequence

from .operators import BasisLabel, FockLabel, OperatorMatrix, SpinLabel, TwoModeLabel
from .reports import AlgebraReport
from .scalars import GaussianRational, NuPolynomial, RadicalSum, numeric_eval


def fmt_float(x: float) -> float:
    return float(format(float(x), ".17g"))


def label_to_string(label: BasisLabel) -> str:
    return str(label)


def label_from_string(text: str) -> BasisLabel:
    kind, _, args = text.partition("(")
    args = args.rstrip(")")
    if kind == "fock":
        return FockLabel(int(args))
    if kind == "two":
        n1, n2 = args.split(",")
        return TwoModeLabel(int(n1), int(n2))
    if kind == "spin":
        j, m = (Fraction(part) for part in args.split(","))
        return SpinLabel(int(2 * j), int(2 * m))
    raise ValueError(f"unknown basis label {text!r}")


def _fraction_pair(value: Fraction) -> List[int]:
    return [value.numerator, value.denominator]


def _gaussian_to_dict(value: GaussianRational) -> Dict[str, List[int]]:
    return {"re": _fraction_pair(value.re), "im": _fraction_pair(value.im)}


def _gaussian_from_dict(data) -> GaussianRational:
    return GaussianRational(
        Fraction(data["re"][0], data["re"][1]), Fraction(data["im"][0], data["im"][1])
    )


def matrix_to_dict(matrix: OperatorMatrix) -> dict:
    entries = []
    for i, row in enumerate(matrix.row_nonzeros()):
        for j, value in row:
            entries.append(
                {
                    "row": i,
                    "col": j,
                    "terms": [
                        {
                            "coeff": [_gaussian_to_dict(c) for c in coeff.coeffs],
                            "radicand": [_fraction_pair(c.re) for c in radicand.coeffs],
                        }
                        for coeff, radicand in value.terms
                    ],
                }
            )
    return {
        "dim": matrix.dim,
        "basis": [label_to_string(l) for l in matrix.basis],
        "entries": entries,
    }


def matrix_from_dict(data: dict) -> OperatorMatrix:
    basis = [label_from_string(text) for text in data["basis"]]
    entries = {}
    for item in data["entries"]:
        terms = tuple(
            (
                NuPolynomial.from_coeffs(
                    [_gaussian_from_dict(c) for c in term["coeff"]]
                ),
                NuPolynomial.from_coeffs([Fraction(n, d) for n, d in term["radicand"]]),
            )
            for term in item["terms"]
        )
        entries[(item["row"], item["col"])] = RadicalSum._from_raw(terms)  # canonical, as built
    return OperatorMatrix.from_entries(basis, entries)


def reports_to_list(reports: Sequence[AlgebraReport]) -> List[dict]:
    out = []
    for report in reports:
        data = report.as_dict()
        data["max_residual"] = fmt_float(data["max_residual"])
        out.append(data)
    return out


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def csv_rows(matrix: OperatorMatrix, nu: float, prefix: str = "") -> str:
    """Numeric values at a single nu, one ``{prefix}row,col,real,imag`` line per cell.

    Zero cells are included; every line, the last too, ends in a newline.
    """
    zero_cells = [f"{j},0,0" for j in range(matrix.dim)]  # format(0.0, ".17g") == "0"
    lines = []
    for i, row in enumerate(matrix.row_nonzeros()):
        cells = zero_cells.copy()
        for j, value in row:
            value = numeric_eval(value, nu)
            cells[j] = f"{j},{format(value.real, '.17g')},{format(value.imag, '.17g')}"
        row_prefix = f"{prefix}{i},"
        lines.append(row_prefix + ("\n" + row_prefix).join(cells))
    lines.append("")
    return "\n".join(lines)


def matrix_to_csv(matrix: OperatorMatrix, nu: float) -> str:
    """Numeric-only export at a single nu, one line per cell, zeros included."""
    return "row,col,real,imag\n" + csv_rows(matrix, nu)
