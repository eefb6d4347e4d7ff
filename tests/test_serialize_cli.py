import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from wigneralg import cli, serialize
from wigneralg.cli import MAX_MATRIX_DIM, MAX_N, RunConfig
from wigneralg.operators import MAX_GRID_NU, OperatorMatrix, SpinLabel, fock_basis, spin_basis
from wigneralg.scalars import GaussianRational, NuPolynomial, RadicalSum
from wigneralg.serialize import (
    dumps,
    label_from_string,
    label_to_string,
    matrix_from_dict,
    matrix_to_csv,
    matrix_to_dict,
    reports_to_list,
)
from wigneralg.single_mode import build_single_mode
from wigneralg.spin import build_js_spin_rep, build_so_nu3
from wigneralg.two_mode import audit_two_mode, build_two_mode


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "wigneralg", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_label_roundtrip():
    for rep_basis in (build_js_spin_rep(3).basis, fock_basis(4)):
        for label in rep_basis:
            assert label_from_string(label_to_string(label)) == label
    assert label_to_string(label_from_string("two(2,5)")) == "two(2,5)"
    # only the text label_to_string writes reads back
    for text in ("nope(1)", "fock(1))", "two(1,2", "fock(+1)", "spin(1/0,0)", "two(1)"):
        with pytest.raises(ValueError, match="cannot read basis label"):
            label_from_string(text)


def test_label_from_string_refuses_spins_without_integer_2j_and_2m():
    for text in ("spin(1/3,1/3)", "spin(1/2,1/4)", "spin(0.25,0.25)", "spin(1,1/3)"):
        with pytest.raises(ValueError, match="integer 2j and 2m"):
            label_from_string(text)
    assert label_from_string("spin(1,0)") == SpinLabel(2, 0)
    assert label_from_string("spin(3/2,-1/2)") == SpinLabel(3, -1)
    for two_j in range(1, 7):
        for label in spin_basis(two_j):
            assert label_from_string(label_to_string(label)) == label


def test_matrix_from_dict_refuses_a_dim_other_than_the_basis_size():
    data = {"dim": 5, "basis": ["fock(0)", "fock(1)"], "entries": []}
    with pytest.raises(ValueError, match="dim 5"):
        matrix_from_dict(data)
    data["dim"] = 2
    assert matrix_from_dict(data) == OperatorMatrix.zeros(fock_basis(2))


def _one_cell(**changes):
    """A 2x2 matrix with one entry 1 at (0, 1), its entry (or, with ``dim``, its top level) changed."""
    entry = {"row": 0, "col": 1, "terms": [{"coeff": [{"re": [1, 1], "im": [0, 1]}], "radicand": [[1, 1]]}]}
    data = {"dim": changes.pop("dim", 2), "basis": ["fock(0)", "fock(1)"], "entries": [entry]}
    entry.update(changes)
    return data


@pytest.mark.parametrize(
    "data, message",
    [
        (_one_cell(row=True), "integer 'row'"),
        (_one_cell(row=0.0), "integer 'row'"),
        (_one_cell(col=1.0), "integer 'col'"),
        (_one_cell(col="1"), "integer 'col'"),
        (_one_cell(dim=2.0), "integer 'dim'"),
        (_one_cell(dim=True), "integer 'dim'"),
        ({"dim": 2, "basis": ["fock(0)", "fock(1)"], "entries": [{"row": 0, "col": 1}]}, "entry 0 has no 'terms'"),
        ({"dim": 2, "basis": ["fock(0)", "fock(1)"], "entries": [{"col": 1, "terms": []}]}, "entry 0 has no 'row'"),
        ({"basis": ["fock(0)", "fock(1)"], "entries": []}, "matrix has no 'dim'"),
        (
            {"dim": 2, "basis": ["fock(0)", "fock(1)"], "entries": _one_cell()["entries"] * 2},
            r"entry 1 repeats cell \(0, 1\)",
        ),
        (_one_cell(terms=[{"radicand": [[1, 1]]}]), "entry 0 term 0 has no 'coeff'"),
        (_one_cell(terms=[{"coeff": [{"im": [0, 1]}], "radicand": [[1, 1]]}]), "entry 0 term 0 has no 're'"),
        (
            _one_cell(terms=[{"coeff": [{"re": [1, 1], "im": [0, 1]}], "radicand": [[1, 0]]}]),
            "entry 0 term 0 radicand needs",
        ),
        (_one_cell(terms=5), "entry 0 needs a list 'terms'"),
        (
            _one_cell(terms=[{"coeff": [{"re": [1.0, 1], "im": [0, 1]}], "radicand": [[1, 1]]}]),
            "entry 0 term 0 coeff 're' needs",
        ),
        ({"dim": 2, "basis": ["fock(0)", "fock(1))"], "entries": []}, r"basis label 'fock\(1\)\)'"),
        ({"dim": 1, "basis": ["two(1,2"], "entries": []}, r"basis label 'two\(1,2'"),
    ],
)
def test_matrix_from_dict_refuses_a_malformed_entry(data, message):
    with pytest.raises(ValueError, match=message):
        matrix_from_dict(data)
    # the well-formed matrix reads back
    assert matrix_from_dict(_one_cell()) == OperatorMatrix.from_entries(fock_basis(2), {(0, 1): 1})


def test_matrix_roundtrip_exact():
    for matrix in (
        build_single_mode(5).a,
        build_js_spin_rep(3).j_plus,
        build_so_nu3(2).l_y,  # complex coefficients
        build_js_spin_rep(1).j0,  # rational halves
    ):
        data = json.loads(dumps(matrix_to_dict(matrix)))
        rebuilt = matrix_from_dict(data)
        assert rebuilt == matrix


def test_matrix_roundtrip_polynomial_coefficients():
    basis = fock_basis(2)
    entry = RadicalSum.from_polynomial(
        NuPolynomial.from_coeffs([Fraction(1, 3), GaussianRational(Fraction(0), Fraction(2))])
    ) * RadicalSum.sqrt_poly(NuPolynomial.from_coeffs([5, 2]))
    m = OperatorMatrix.from_entries(basis, {(0, 1): entry})
    assert matrix_from_dict(json.loads(dumps(matrix_to_dict(m)))) == m


def test_matrix_from_dict_canonicalizes_hand_written_entries():
    def term(coeff, radicand):
        return {"coeff": [{"re": [coeff, 1], "im": [0, 1]}], "radicand": [[radicand, 1]]}

    def one_entry(*terms):
        data = {"dim": 1, "basis": ["fock(0)"], "entries": [{"row": 0, "col": 0, "terms": list(terms)}]}
        return matrix_from_dict(data)

    basis = fock_basis(1)
    two = OperatorMatrix.from_entries(basis, {(0, 0): RadicalSum.sqrt_poly(4)})
    assert one_entry(term(1, 4)) == two  # 1*sqrt(4) reads back as 2
    assert one_entry(term(1, 1), term(1, 1)) == two  # like radicands merge
    three_root_two = OperatorMatrix.from_entries(basis, {(0, 0): RadicalSum.sqrt_poly(18)})
    assert one_entry(term(1, 2), term(1, 8)) == three_root_two  # sqrt(2) + 2*sqrt(2)
    assert one_entry(term(1, 4), term(-2, 1)) == OperatorMatrix.zeros(basis)  # cancels to no entry
    with pytest.raises(ValueError):  # sqrt(-2) would be a second form of i*sqrt(2)
        one_entry(term(1, -2))


def test_csv_numeric_export():
    s = build_single_mode(3)
    text = matrix_to_csv(s.a, 0.5)
    lines = text.strip().split("\n")
    assert lines[0] == "row,col,real,imag"
    assert len(lines) == 10
    cell = dict()
    for line in lines[1:]:
        r, c, re_, im = line.split(",")
        cell[(int(r), int(c))] = (float(re_), float(im))
    assert cell[(0, 1)][0] == pytest.approx(2.0 ** 0.5)
    assert cell[(1, 1)] == (0.0, 0.0)


# ---------------------------------------------------------------- matrix writer


def _as_dicts(value):
    """The payload with every matrix replaced by its matrix_to_dict form."""
    if isinstance(value, OperatorMatrix):
        return matrix_to_dict(value)
    if isinstance(value, dict):
        return {k: _as_dicts(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_dicts(v) for v in value]
    return value


def _stdlib_dumps(payload):
    return json.dumps(_as_dicts(payload), sort_keys=True, indent=2) + "\n"


def _writer_matrices():
    basis = fock_basis(3)
    multi = RadicalSum.sqrt_poly(NuPolynomial.from_coeffs([2, 1])) + RadicalSum.from_polynomial(
        NuPolynomial.from_coeffs([Fraction(1, 3), GaussianRational(Fraction(0), Fraction(-5, 2))])
    ) * RadicalSum.sqrt_poly(7)
    assert len(multi.terms) == 2
    return {
        "zero": OperatorMatrix.zeros(fock_basis(2)),
        "multi-term": OperatorMatrix.from_entries(basis, {(0, 1): multi, (2, 0): multi, (1, 1): -multi}),
        "fock": build_single_mode(4).a_dag,
        "two-mode": build_two_mode(2, 3).a[1],
        "spin": build_js_spin_rep(3).j_plus,
        "halves": build_js_spin_rep(1).j0,
        "complex": build_so_nu3(2).l_y,
    }


WRITER_MATRICES = _writer_matrices()


@pytest.mark.parametrize("name", sorted(WRITER_MATRICES))
def test_dumps_matches_stdlib_at_every_depth(name):
    m = WRITER_MATRICES[name]
    assert m.row_nonzeros() or name == "zero"
    for payload in (m, {"m": m}, {"ops": {"m": m}}, {"x": [{"m": m}]}, [m, {"k": [m]}]):
        assert dumps(payload) == _stdlib_dumps(payload)
    assert '"entries": []' in dumps({"m": WRITER_MATRICES["zero"]})


def test_dumps_matches_stdlib_on_a_mixed_payload():
    ops = WRITER_MATRICES
    payload = {
        "command": "mixed",
        "note": "two\nlines \"quoted\" \u00e9",
        "operators": dict(ops),
        "same matrix deeper": {"x": [ops["multi-term"], {"y": ops["multi-term"]}]},
        "reports": [{"residual": 1.5e-17, "caveat": None, "ok": True}],
        "empty": {"list": [], "dict": {}},
        "tuple": (ops["spin"], 1),
    }
    assert dumps(payload) == _stdlib_dumps(payload)
    assert dumps({"n": 1}) == _stdlib_dumps({"n": 1})


json_leaf_st = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), st.text(max_size=3)
)
payload_st = st.recursive(
    st.one_of(json_leaf_st, st.sampled_from(list(WRITER_MATRICES.values()))),
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(st.text(max_size=3), children, max_size=3)
    ),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(payload_st)
def test_dumps_matches_stdlib_on_drawn_payloads(payload):
    assert dumps(payload) == _stdlib_dumps(payload)


def test_dumps_renders_each_distinct_entry_once(monkeypatch):
    # a guard on work, not time: one json.dumps per distinct entry value of
    # each matrix, a fixed few for the rest, and never a whole matrix
    s = build_two_mode(20, 20)
    operators = {
        "a1": s.a[0], "a2": s.a[1], "adag1": s.a_dag[0], "adag2": s.a_dag[1],
        "N1": s.n_op[0], "N2": s.n_op[1], "R1": s.r_op[0], "R2": s.r_op[1],
    }
    payload = {
        "command": "two-mode",
        "nu_domain": "nu > -1/2",
        "operators": operators,
        "reports": reports_to_list(audit_two_mode(build_two_mode(2, 2))),
    }
    distinct = sum(len({v for row in m.row_nonzeros() for _, v in row}) for m in operators.values())
    expected = _stdlib_dumps(payload)
    stdlib_dumps, arguments = json.dumps, []

    def counting_dumps(value, **kwargs):
        arguments.append(value)
        return stdlib_dumps(value, **kwargs)

    monkeypatch.setattr(serialize.json, "dumps", counting_dumps)
    matches = dumps(payload) == expected  # about 1.7 MB each: no diff on failure
    monkeypatch.undo()
    assert matches
    terms_lists = [a for a in arguments if isinstance(a, list) and a and isinstance(a[0], dict) and "coeff" in a[0]]
    assert len(terms_lists) == distinct
    assert len(arguments) <= distinct + 32
    assert not any(isinstance(a, dict) and "entries" in a for a in arguments)


# ---------------------------------------------------------------- CLI


def test_cli_numbers_table():
    proc = run_cli("numbers", "--max-n", "4")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    rows = {item["n"]: item for item in data["numbers"]}
    assert rows[2]["coefficients"] == [[2, 1]]
    assert rows[3]["coefficients"] == [[3, 1], [2, 1]]
    assert rows[1]["text"] == "1 + 2*nu"


def test_cli_spin_rep_roundtrip():
    proc = run_cli("spin-rep", "--two-j", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    rebuilt = matrix_from_dict(data["operators"]["J+"])
    assert rebuilt == build_js_spin_rep(2).j_plus
    assert all(r["verdict"] != "fail" for r in data["reports"])


def test_cli_determinism():
    a = run_cli("spin-rep", "--two-j", "3")
    b = run_cli("spin-rep", "--two-j", "3")
    assert a.stdout == b.stdout
    e1 = run_cli("errata")
    e2 = run_cli("errata")
    assert e1.stdout == e2.stdout


def test_cli_csv_requires_single_nu():
    proc = run_cli("single-mode", "--dim", "3", "--format", "csv")
    assert proc.returncode == 2
    proc = run_cli("single-mode", "--dim", "3", "--format", "csv", "--nu", "0.5")
    assert proc.returncode == 0
    assert proc.stdout.startswith("operator,row,col,real,imag")


def test_cli_rejects_bad_nu():
    proc = run_cli("single-mode", "--dim", "3", "--format", "csv", "--nu", "-0.75")
    assert proc.returncode == 2
    assert "nu" in proc.stderr


def test_cli_usage_error():
    proc = run_cli("spin-rep")  # missing --two-j
    assert proc.returncode == 2
    assert run_cli("spin-rep", "--two-j", "0").returncode == 2
    assert run_cli("single-mode", "--dim", "1").returncode == 2
    assert run_cli("two-mode", "--dims", "1", "4").returncode == 2
    assert run_cli("numbers", "--max-n", "-3").returncode == 2


def test_cli_numbers_csv():
    proc = run_cli("numbers", "--max-n", "4", "--format", "csv", "--nu", "0.5")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "n,value"
    values = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert values[3] == pytest.approx(4.0)  # [3] = 3 + 2*0.5
    assert values[4] == pytest.approx(4.0)


def test_cli_so3_csv_has_imaginary_entries():
    proc = run_cli("so3-rep", "--two-j", "1", "--format", "csv", "--nu", "0.25")
    assert proc.returncode == 0
    rows = [l.split(",") for l in proc.stdout.strip().split("\n")[1:]]
    ly = {(r[1], r[2]): (float(r[3]), float(r[4])) for r in rows if r[0] == "Ly"}
    # Ly entry (0,1) = -(i/2)(1+2nu) -> imag part -(1+0.5)/2
    assert ly[("0", "1")][0] == pytest.approx(0.0)
    assert ly[("0", "1")][1] == pytest.approx(-0.75)
    assert ly[("1", "0")][1] == pytest.approx(0.75)


def test_cli_hp_rep_odd_refusal():
    proc = run_cli("hp-rep", "--two-j", "1")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["error"] == "odd-two-j-not-closed"
    assert data["leakage"] == "2*sqrt(nu)"


def test_cli_hp_rep_even():
    proc = run_cli("hp-rep", "--two-j", "2")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert set(data["operators"]) == {"J+", "J-", "J0", "R"}


def test_cli_errata_text():
    proc = run_cli("errata")
    assert proc.returncode == 0
    out = proc.stdout
    assert "ERRATUM 1: odd-2j condensed commutator coefficient" in out
    assert "2 nu (2 nu + j + 1)" in out
    assert "2 nu (2 nu + 2j + 1)" in out
    assert "1 + 4*nu + 4*nu^2" in out
    assert "FAIL" in out and "PASS" in out


def test_cli_output_file_and_env_dir(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    proc = run_cli("numbers", "--max-n", "2", "-o", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["command"] == "numbers"

    import os

    env = dict(os.environ, WIGNERALG_OUTPUT_DIR=str(tmp_path))
    proc = run_cli("numbers", "--max-n", "2", "-o", "nested/out.json", env=env)
    assert proc.returncode == 0
    assert (tmp_path / "nested" / "out.json").exists()


def test_cli_verify_small():
    proc = run_cli(
        "verify", "--all", "--max-two-j", "2", "--dims", "4", "4", "--max-n", "4"
    )
    assert proc.returncode == 0
    assert "summary:" in proc.stdout
    assert " 0 fail" in proc.stdout


@pytest.mark.parametrize("command", ["numbers", "errata"])
def test_cli_refuses_strict_where_no_caveat_can_change_the_exit_code(command, capsys):
    # both always exit 0, so an accepted --strict would promise a gate it cannot keep
    assert cli.run([command, "--strict"]) == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err
    assert cli.run([command]) == 0


def test_cli_realizations_payload():
    proc = run_cli("realizations", "--max-n", "5")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["quasi_basis"][1]["text"] == "x - d"
    assert len(data["quasi_basis"]) == 6
    assert all(r["verdict"] != "fail" for r in data["reports"])


def test_cli_verify_json_exit_code_field():
    proc = run_cli(
        "verify", "--all", "--max-two-j", "2", "--dims", "4", "4", "--max-n", "4",
        "--format", "json",
    )
    data = json.loads(proc.stdout)
    assert data["exit_code"] == proc.returncode == 0
    assert data["summary"]["fail"] == 0
    assert set(data["sections"]) >= {"deformed-numbers", "su_nu2", "numeric-grid"}


def test_cli_verify_strict_flags_caveats():
    proc = run_cli(
        "verify", "--all", "--max-two-j", "2", "--dims", "4", "4", "--max-n", "4",
        "--strict",
    )
    assert proc.returncode == 1  # known caveats become failures under --strict


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["numbers", "--format", "csv", "--nu", "nan", "--max-n", "2"], "--nu"),
        (["numbers", "--format", "csv", "--nu", "inf"], "--nu"),
        (["numbers", "--format", "csv", "--nu=-inf"], "--nu"),
        (["verify", "--nu", "0.3"], "--nu"),
        (["verify", "--all", "--format", "text", "--nu", "0.3"], "--nu"),
        (["single-mode", "--dim", str(MAX_MATRIX_DIM + 1)], "--dim"),
        (["two-mode", "--dims", "2", str(MAX_MATRIX_DIM // 2 + 1)], "--dims"),
        (["spin-rep", "--two-j", str(MAX_MATRIX_DIM)], "--two-j"),
        (["hp-rep", "--two-j", str(MAX_MATRIX_DIM)], "--two-j"),
        (["so3-rep", "--two-j", str(MAX_MATRIX_DIM)], "--two-j"),
        (["verify", "--max-two-j", str(MAX_MATRIX_DIM)], "--max-two-j"),
        (["numbers", "--max-n", str(MAX_N + 1)], "--max-n"),
        (["realizations", "--max-n", str(MAX_N + 1)], "--max-n"),
        (["verify", "--max-n", str(MAX_N + 1)], "--max-n"),
        (["verify", "--max-two-j", "0", "--dims", "4", "4", "--max-n", "4"], "--max-two-j"),
        (["verify", "--max-two-j", "-1"], "--max-two-j"),
        # finite, but CSV cells would overflow to inf and nan
        (["so3-rep", "--two-j", "3", "--format", "csv", "--nu", "1e200"], "--nu"),
        (["numbers", "--format", "csv", "--nu", str(MAX_GRID_NU * 1.01)], "--nu"),
    ],
)
def test_cli_rejects_bad_input_in_process(argv, fragment, capsys, monkeypatch):
    assert 2 * (MAX_MATRIX_DIM // 2 + 1) == MAX_MATRIX_DIM + 1  # --dims case is one over
    sections_run = []
    monkeypatch.setattr(cli, "verify_all", lambda **kwargs: sections_run.append(kwargs))
    assert cli.run(argv) == 2
    assert sections_run == []  # rejected before any section ran
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and fragment in captured.err


def test_cli_size_bounds_admit_largest_inputs():
    # RunConfig raises UsageError on bad input; validation builds nothing
    RunConfig("two-mode", dims=(21, 20))
    RunConfig("two-mode", dims=(20, 21))
    RunConfig("verify", max_two_j=16, dims=(17, 17))
    RunConfig("verify", max_two_j=MAX_MATRIX_DIM - 1, max_n=MAX_N)
    RunConfig("single-mode", dim=MAX_MATRIX_DIM)
    RunConfig("spin-rep", two_j=MAX_MATRIX_DIM - 1)
    RunConfig("numbers", fmt="csv", nu_values=[0.25], max_n=MAX_N)


# Full stdout sha256 and exit code of fast in-process runs: any change to the
# matrix kernel or the serializer must leave these bytes unchanged.
BYTE_PINS = [
    (["two-mode", "--dims", "6", "6"], 0,
     "719a46ed924919c85f54375c46ef19b5bf8eb7e8d5bc3a76df8c7e552dedadab"),
    (["two-mode", "--dims", "3", "4", "--format", "csv", "--nu", "0.25"], 0,
     "0d1915d97d058d15226868ffe2e5be36df2a750d8673a01fd02465bdbba2026c"),
    (["single-mode", "--dim", "7"], 0,
     "b02d607e874cfb9d36532623de0ee7a1ce1149e3c97ca2b04b470f3b9f92d005"),
    (["spin-rep", "--two-j", "3"], 0,
     "a7b967678462a5ece9c224817ca589ad2bb2f0a3e24f90ee5ef375abae181a9d"),
    (["so3-rep", "--two-j", "2"], 0,
     "d521fac4895c8ac3924870783df86e18f05579b027f4acd2d4d34799dd4b6eaa"),
    (["errata", "--format", "json"], 0,
     "7730714d60c153c7bfd4a3dbb02a9a29e8e99d9e1fa646fa266e58194eeea36e"),
    (["numbers", "--max-n", "12"], 0,
     "131cdab21f1eef5f22a5375e4b39e49bf96457a232272d7ac4a3b9cf055d48fa"),
    (["numbers", "--format", "csv", "--nu", "0.5", "--max-n", "4"], 0,
     "49d4972b9ee03cd3a39ee6fd737b7efc6fd1e389d7209bd515db24ceaac0455b"),
    (["realizations", "--max-n", "5"], 0,
     "060f5925b0a98367ac5a2a947118d7396e448ef6b83815201806327dcc9a67bd"),
    # large enough to exercise the x-shift and the phi-basis expansion
    (["realizations", "--max-n", "15", "--format", "json"], 0,
     "6b8a15ecac863e9e679966c1cd0d018d5a3f13629c2d8724ef80dba66c187a95"),
    (["realizations", "--max-n", "20"], 0,
     "e45f55ea9810662b6bd3fd4f84b722b9909f3b0009c6efa2411c5296bf9a1435"),
    # larger operators: products and sums that cancel, unit factors, imaginary scales
    (["two-mode", "--dims", "20", "20"], 0,
     "04ca0c99d53300faf129164bd3b81e30020bf3bff1f43a3ce8930f13afd3809c"),
    (["so3-rep", "--two-j", "9"], 0,
     "308b7852393a47d0984bd5b48fc232cf9bf2bc6a591d2f58e11eb5c30c0f4bf4"),
    (["hp-rep", "--two-j", "12"], 0,
     "52a43a898711938c92544e2953fcdb959f91770bf7d960115cf47dbb1d50f470"),
    # the full audit (exact sections and numeric grid) and a large CSV export
    (["verify", "--all", "--format", "json"], 0,
     "c0082bf63774b8673f153d0b9ebd32574c0d661bbdf791238c8436665505bb4e"),
    (["verify", "--max-two-j", "5", "--dims", "6", "7", "--max-n", "6"], 0,
     "e8ed5c995a4dffa9747364407f06f620c8960ee1e1ebb97f381d48a5463a190d"),
    (["two-mode", "--dims", "17", "17", "--format", "csv", "--nu", "0.5"], 0,
     "1ca362f206dcd32bc067673eb4bb34dcf685d8875302e03b23b22861ddfe56cc"),
    # matrix JSON: the largest two-mode export, a long single-mode ladder, an
    # odd spin block, the smallest two-mode set and a payload with no matrix
    (["two-mode", "--dims", "21", "20"], 0,
     "db0d5ccfd32e979cc9e3a3e76507f2b7515ea48e7f9521217727f589eef9938b"),
    (["single-mode", "--dim", "30"], 0,
     "6dfdd870a7f510d11221e97f2a3e9dbc4179a660b972c9ec82ba5aa84c37e12b"),
    (["spin-rep", "--two-j", "9"], 0,
     "4890d3110ab5fe947fb484061604117849794ca733e4a435022b0ec837061d11"),
    (["two-mode", "--dims", "2", "2"], 0,
     "1e70798f9a8ffe1f38f876c69a746b4a1f2b43c2dcdd34249c1d0d634d26c64a"),
    (["hp-rep", "--two-j", "1"], 1,
     "1864d368ebda2551a5639316618060a01546a1368e81226411782f0e477d79e1"),
    # JS, HP and so_nu(3) products up to dim 41, JS blocks cut from 12x12 composites
    (["verify", "--max-two-j", "40", "--dims", "12", "12", "--max-n", "20"], 0,
     "049fb0af91b124a7fe05e75321fa96e79137ff23bab2f440572686c70f3f1cce"),
]


@pytest.mark.parametrize("argv, code, digest", BYTE_PINS, ids=[" ".join(p[0]) for p in BYTE_PINS])
def test_cli_output_bytes_pinned(argv, code, digest, capsys):
    assert cli.run(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The command lines the benchmark runs, with the exit code and stdout sha256
# it checks every job against: a change that moves one of these bytes would
# count every such job as failed.
BENCHMARK_REFERENCE = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text())
BENCHMARK_PINS = BENCHMARK_REFERENCE["cli"]


@pytest.mark.parametrize("command", sorted(BENCHMARK_PINS))
def test_cli_output_matches_benchmark_reference(command, capsys):
    pin = BENCHMARK_PINS[command]
    assert cli.run(command.split()) == pin["exit_code"]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pin["stdout_sha256"]


def test_two_mode_sweep_matches_benchmark_reference():
    # every pair d1, d2 in 2..10 the two-mode-sweep workload audits, digested
    # as the benchmark does: sha256 of the JSON (relation id, verdict, mode,
    # caveat) list; d1 != d2 runs the cut that shares entries between modes
    pairs = [(d1, d2) for d1 in range(2, 11) for d2 in range(2, 11)]
    mismatched = []
    for d1, d2 in pairs:
        reports = audit_two_mode(build_two_mode(d1, d2))
        rows = [[r.relation_id, r.verdict.value, r.mode.value, r.caveat] for r in reports]
        pin = BENCHMARK_REFERENCE["pairs"][f"{d1}x{d2}"]
        if (hashlib.sha256(json.dumps(rows).encode()).hexdigest(), len(reports)) != (pin["sha256"], pin["verdicts"]):
            mismatched.append((d1, d2))
    assert mismatched == []


def test_csv_export_bytes_pinned_through_output_file(tmp_path):
    # the CLI streams the CSV operator by operator to the -o file
    out = tmp_path / "ops.csv"
    assert cli.run(["two-mode", "--dims", "3", "4", "--format", "csv", "--nu", "0.25", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BYTE_PINS[1][2]
    # matrix_to_csv keeps its own header and bytes
    text = matrix_to_csv(build_two_mode(3, 4).a[0], 0.25)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d7642d03cc432ccbd70d05ec1a141c91843d2b0bbdf99f6f2018bca1b1a175e4"
    )
    text = matrix_to_csv(build_so_nu3(3).l_y, 0.5)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4648ef7be33f4241951e606ccc92a0a726a1a2bbbb0f559976d70798ddd9ecac"
    )


def test_json_export_bytes_pinned_through_output_file(tmp_path):
    out = tmp_path / "spin.json"
    assert cli.run(["spin-rep", "--two-j", "9", "-o", str(out)]) == 0
    pinned = {" ".join(argv): digest for argv, _, digest in BYTE_PINS}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned["spin-rep --two-j 9"]


def test_cli_import_does_not_load_numpy():
    # numpy serves eval_matrix only: neither start-up nor the audits (exact
    # sections, numeric grid, HP spectral check) import it
    code = (
        "import contextlib, io, sys, wigneralg.cli as cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported at start-up'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['verify', '--all', '--max-two-j', '2', '--dims', '4', '4', '--max-n', '4']) == 0\n"
        "    assert cli.run(['hp-rep', '--two-j', '4']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by verify or hp-rep'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_the_package_without_dataclasses_or_inspect():
    # every CLI job and benchmark worker pays this import; dataclasses (and the
    # inspect, ast and dis it loads) would cost more than the package itself
    code = (
        "import sys, wigneralg.cli\n"
        "loaded = set(sys.modules)\n"
        "assert 'dataclasses' not in loaded and 'inspect' not in loaded\n"
        "import pkgutil, wigneralg  # pkgutil loads inspect itself\n"
        "names = {f'wigneralg.{m.name}' for m in pkgutil.iter_modules(wigneralg.__path__)} - {'wigneralg.__main__'}\n"
        "assert len(names) > 1 and names <= loaded, sorted(names - loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_without_numpy_keeps_bytes_and_eval_matrix_names_the_extra():
    # numpy is the optional `dense` extra: with it unimportable the full audit
    # prints the same bytes, and eval_matrix says which extra to install
    code = (
        "import contextlib, hashlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from wigneralg import cli\n"
        "from wigneralg.operators import OperatorMatrix, eval_matrix, fock_basis\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert cli.run(['verify', '--all', '--format', 'json']) == 0\n"
        "print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
        "try:\n"
        "    eval_matrix(OperatorMatrix.identity(fock_basis(2)), 0.0)\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digest, message = proc.stdout.splitlines()
    pinned = {" ".join(argv): pin for argv, _, pin in BYTE_PINS}
    assert digest == pinned["verify --all --format json"]
    assert "wigneralg[dense]" in message


# (formats, size flags) each command's parser accepts; the first format is the default
CLI_SURFACE = {
    "numbers": (("json", "csv"), {"--max-n"}),
    "single-mode": (("json", "csv"), {"--dim"}),
    "two-mode": (("json", "csv"), {"--dims"}),
    "realizations": (("json",), {"--max-n"}),
    "spin-rep": (("json", "csv"), {"--two-j"}),
    "hp-rep": (("json", "csv"), {"--two-j"}),
    "so3-rep": (("json", "csv"), {"--two-j"}),
    "verify": (("text", "json"), {"--dims", "--max-n", "--max-two-j"}),
    "errata": (("text", "json"), set()),
}


def _size_st(over):
    return st.one_of(st.none(), st.integers(-1, 3), st.integers(over, over + 2))


SIZE_ST = {
    "--dims": st.one_of(
        st.none(), st.tuples(*[st.one_of(st.integers(-1, 3), st.just(MAX_MATRIX_DIM // 2 + 1))] * 2)
    ),
    "--dim": _size_st(MAX_MATRIX_DIM + 1),
    "--two-j": _size_st(MAX_MATRIX_DIM),
    "--max-two-j": _size_st(MAX_MATRIX_DIM),
    "--max-n": _size_st(MAX_N + 1),
}


@st.composite
def cli_case_st(draw):
    command = draw(st.sampled_from(sorted(CLI_SURFACE)))
    stray = draw(st.integers(0, 3)) == 0  # now and then pass size flags the command lacks
    case = {
        "command": command,
        "fmt": draw(st.one_of(st.none(), st.sampled_from(["json", "csv", "text"]))),
        "nus": draw(st.lists(st.sampled_from(["0.25", "nan", "inf", "-inf", "-0.5", "1e6", "2e6"]), max_size=2)),
    }
    for flag, strategy in SIZE_ST.items():
        case[flag] = draw(strategy) if stray or flag in CLI_SURFACE[command][1] else None
    return case


def _breaks_a_rule(case):
    """The argparse and RunConfig rules, restated independently of cli.py."""
    command = case["command"]
    formats, flags = CLI_SURFACE[command]
    sizes = {flag: case[flag] for flag in ("--dims", "--dim", "--two-j", "--max-two-j", "--max-n")}
    given_flags = {flag for flag, value in sizes.items() if value is not None}
    if case["fmt"] not in (None, *formats) or not given_flags <= flags:
        return True
    if "--two-j" in flags and sizes["--two-j"] is None:
        return True  # required
    fmt = case["fmt"] or formats[0]
    nus = [float(v) for v in case["nus"]]
    if any(not math.isfinite(nu) or nu <= -0.5 or nu > MAX_GRID_NU for nu in nus):
        return True
    if (fmt == "csv" and len(nus) != 1) or (fmt != "csv" and nus):
        return True
    max_n, dims = sizes["--max-n"], sizes["--dims"]
    if max_n is not None and not (2 if command in ("realizations", "verify") else 0) <= max_n <= MAX_N:
        return True
    if dims is not None and (min(dims) < 2 or dims[0] * dims[1] > MAX_MATRIX_DIM):
        return True
    if sizes["--dim"] is not None and not 2 <= sizes["--dim"] <= MAX_MATRIX_DIM:
        return True
    for flag in ("--two-j", "--max-two-j"):
        if sizes[flag] is not None and not 1 <= sizes[flag] < MAX_MATRIX_DIM:
            return True
    return False


def _cli_case(command, **sizes):
    case = {"command": command, "fmt": None, "nus": []}
    case.update({flag: sizes.get(flag.strip("-").replace("-", "_")) for flag in SIZE_ST})
    return case


@settings(max_examples=100, deadline=None)
@given(cli_case_st())
@example(_cli_case("verify", dims=(2, 2), max_two_j=1, max_n=1))
@example(_cli_case("spin-rep", two_j=0))
def test_cli_argument_space(case):
    argv = [case["command"]]
    if case["fmt"] is not None:
        argv += ["--format", case["fmt"]]
    argv += [f"--nu={value}" for value in case["nus"]]
    for flag in ("--dim", "--two-j", "--max-two-j", "--max-n"):
        if case[flag] is not None:
            argv += [flag, str(case[flag])]
    if case["--dims"] is not None:
        argv += ["--dims", *map(str, case["--dims"])]
    built = []
    init = OperatorMatrix.__init__

    def recording_init(self, basis, rows):
        built.append(len(basis))
        init(self, basis, rows)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(OperatorMatrix, "__init__", recording_init):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert max(built, default=0) <= MAX_MATRIX_DIM
    if _breaks_a_rule(case):
        assert code == 2
        assert err.getvalue().startswith(("error: ", "usage: "))
        assert out.getvalue() == "" and built == []  # rejected before any work
    else:
        assert code in (0, 1) and err.getvalue() == ""
