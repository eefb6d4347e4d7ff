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

``dumps`` writes the bytes of ``json.dumps(payload, sort_keys=True, indent=2)``
with every ``OperatorMatrix`` in the payload read as ``matrix_to_dict(m)``.  It
renders matrices itself and each distinct entry value of a matrix once: a value
nested ``L`` containers deep is its own ``indent=2`` text with every newline
followed by ``L`` more indents (JSON escapes newlines inside strings).
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
    """The label ``label_to_string`` writes as ``text``; ValueError for any other text."""
    kind, _, args = str(text).partition("(")
    args = args.rstrip(")").split(",")
    try:
        if kind == "spin":
            two_j, two_m = (2 * Fraction(part) for part in args)
            if two_j.denominator != 1 or two_m.denominator != 1:
                raise ValueError("spin labels need integer 2j and 2m")
            label = SpinLabel(int(two_j), int(two_m))
        else:
            label = {"fock": FockLabel, "two": TwoModeLabel}[kind](*map(int, args))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise ValueError(f"cannot read basis label {text!r}: {err}") from err
    if label_to_string(label) != text:
        raise ValueError(f"cannot read basis label {text!r}: label_to_string writes {label}")
    return label


def _fraction_pair(value: Fraction) -> List[int]:
    return [value.numerator, value.denominator]


def _gaussian_to_dict(value: GaussianRational) -> Dict[str, List[int]]:
    return {"re": _fraction_pair(value.re), "im": _fraction_pair(value.im)}


def _terms_list(value: RadicalSum) -> List[dict]:
    return [
        {
            "coeff": [_gaussian_to_dict(c) for c in coeff.coeffs],
            "radicand": [_fraction_pair(c.re) for c in radicand.coeffs],
        }
        for coeff, radicand in value.terms
    ]


def matrix_to_dict(matrix: OperatorMatrix) -> dict:
    entries = [
        {"row": i, "col": j, "terms": _terms_list(value)}
        for i, row in enumerate(matrix.row_nonzeros())
        for j, value in row
    ]
    return {
        "dim": matrix.dim,
        "basis": [label_to_string(l) for l in matrix.basis],
        "entries": entries,
    }


def _field(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{where} has no {key!r}")
    return data[key]


def _list(data: dict, key: str, where: str) -> list:
    value = _field(data, key, where)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} needs a list {key!r}, got {value!r}")
    return value


def _fraction(pair, where: str) -> Fraction:
    """``Fraction(*pair)`` of a [numerator, denominator] pair of integers."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(type(v) is int for v in pair) and pair[1]):
        raise ValueError(f"{where} needs [numerator, denominator] integers with denominator not 0, got {pair!r}")
    return Fraction(*pair)


def _index(data: dict, key: str, where: str) -> int:
    value = _field(data, key, where)
    if type(value) is not int:  # refuses bool, an int subclass, and 1.0
        raise ValueError(f"{where} needs an integer {key!r}, got {value!r}")
    return value


def matrix_from_dict(data: dict) -> OperatorMatrix:
    """The matrix ``matrix_to_dict`` wrote; ``ValueError`` names the field or entry it cannot read."""
    basis = [label_from_string(text) for text in _list(data, "basis", "matrix")]
    dim = _index(data, "dim", "matrix")
    if dim != len(basis):
        raise ValueError(f"matrix dim {dim} does not match its {len(basis)} basis labels")
    entries = {}
    for k, item in enumerate(_list(data, "entries", "matrix")):
        where = f"entry {k}"
        cell = (_index(item, "row", where), _index(item, "col", where))
        if cell in entries:
            raise ValueError(f"{where} repeats cell {cell}")
        terms = []
        for t, term in enumerate(_list(item, "terms", where)):
            at = f"{where} term {t}"
            coeff = [
                GaussianRational(*(_fraction(_field(c, part, at), f"{at} coeff {part!r}") for part in ("re", "im")))
                for c in _list(term, "coeff", at)
            ]
            radicand = [_fraction(pair, f"{at} radicand") for pair in _list(term, "radicand", at)]
            terms.append((NuPolynomial.from_coeffs(coeff), NuPolynomial.from_coeffs(radicand)))
        entries[cell] = RadicalSum._from_raw(terms)  # canonical, as built
    return OperatorMatrix.from_entries(basis, entries)


def reports_to_list(reports: Sequence[AlgebraReport]) -> List[dict]:
    out = []
    for report in reports:
        data = report.as_dict()
        data["max_residual"] = fmt_float(data["max_residual"])
        out.append(data)
    return out


def _nested(value, level: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` as it reads ``level`` containers deep."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)


def _holds_matrix(value) -> bool:
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return isinstance(value, OperatorMatrix)
    for item in value:
        if isinstance(item, (dict, list, tuple, OperatorMatrix)) and _holds_matrix(item):
            return True
    return False


def _matrix_json(matrix: OperatorMatrix, level: int) -> str:
    """``_nested(matrix_to_dict(matrix), level)``, rendering each distinct entry value once."""
    at0, at1, at2, at3 = ("\n" + "  " * (level + k) for k in range(4))
    terms_text: Dict[RadicalSum, str] = {}
    entries = []
    for i, row in enumerate(matrix.row_nonzeros()):
        for j, value in row:
            terms = terms_text.get(value)
            if terms is None:
                terms = terms_text[value] = _nested(_terms_list(value), level + 3)
            entries.append(
                f'{{{at3}"col": {j},{at3}"row": {i},{at3}"terms": {terms}{at2}}}'
            )
    entries_text = f"[{at2}{(',' + at2).join(entries)}{at1}]" if entries else "[]"
    basis_text = _nested([label_to_string(l) for l in matrix.basis], level + 1)
    return (
        f'{{{at1}"basis": {basis_text},{at1}"dim": {matrix.dim},'
        f'{at1}"entries": {entries_text}{at0}}}'
    )


def _encode(value, level: int) -> str:
    if isinstance(value, OperatorMatrix):
        return _matrix_json(value, level)
    if not _holds_matrix(value):
        return _nested(value, level)
    outer, inner = "\n" + "  " * level, "\n" + "  " * (level + 1)
    if isinstance(value, dict):  # matrix-holding mappings are keyed by strings
        items = [f"{json.dumps(k)}: {_encode(value[k], level + 1)}" for k in sorted(value)]
        opening, closing = "{", "}"
    else:
        items = [_encode(v, level + 1) for v in value]
        opening, closing = "[", "]"
    return f"{opening}{inner}{(',' + inner).join(items)}{outer}{closing}"


def dumps(payload) -> str:
    """The payload as indent-2, key-sorted JSON with a final newline.

    ``OperatorMatrix`` values anywhere in it are written as ``matrix_to_dict``
    would give them.
    """
    return _encode(payload, 0) + "\n"


def csv_rows(matrix: OperatorMatrix, nu: float, prefix: str = "") -> str:
    """Numeric values at a single nu, one ``{prefix}row,col,real,imag`` line per cell.

    Zero cells are included; every line, the last too, ends in a newline.
    Each distinct entry value is evaluated and formatted once.
    """
    zero_cells = [f"{j},0,0" for j in range(matrix.dim)]  # format(0.0, ".17g") == "0"
    value_text: Dict[RadicalSum, str] = {}
    lines = []
    for i, row in enumerate(matrix.row_nonzeros()):
        cells = zero_cells.copy()
        for j, value in row:
            text = value_text.get(value)
            if text is None:
                z = numeric_eval(value, nu)
                text = value_text[value] = f"{format(z.real, '.17g')},{format(z.imag, '.17g')}"
            cells[j] = f"{j},{text}"
        row_prefix = f"{prefix}{i},"
        lines.append(row_prefix + ("\n" + row_prefix).join(cells))
    lines.append("")
    return "\n".join(lines)


def matrix_to_csv(matrix: OperatorMatrix, nu: float) -> str:
    """Numeric-only export at a single nu, one line per cell, zeros included."""
    return "row,col,real,imag\n" + csv_rows(matrix, nu)
