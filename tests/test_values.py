"""The value-type contract: labels, scalars, matrices and reports are
immutable, equal only to values of their own type, hash as their field tuples,
pickle and copy through their constructors and print as they always have;
plain records are NamedTuples."""

import copy
import pickle
from fractions import Fraction

import pytest

from wigneralg.cli import RunConfig
from wigneralg.operators import FockLabel, OperatorMatrix, SpinLabel, TwoModeLabel, _block, fock_basis
from wigneralg.realizations import BiPolynomial, build_quasi_basis
from wigneralg.reports import NAN, AlgebraReport, CheckMode, Value, Verdict, Witness, exact_report
from wigneralg.scalars import R_ONE, R_ZERO, GaussianRational, NuPolynomial, RadicalSum, deformed_number, ladder_level
from wigneralg.single_mode import build_single_mode
from wigneralg.two_mode import audit_two_mode, build_two_mode

WITNESS = Witness(1, 2, "a", "b")
FAILED = AlgebraReport("x", CheckMode.EXACT, 0.5, Verdict.FAIL, "c", WITNESS)

# value, its fields in order, its repr
VALUES = [
    (FockLabel(3), (3,), "FockLabel(n=3)"),
    (TwoModeLabel(1, 2), (1, 2), "TwoModeLabel(n1=1, n2=2)"),
    (SpinLabel(3, -1), (3, -1), "SpinLabel(two_j=3, two_m=-1)"),
    (
        GaussianRational(Fraction(1, 2), Fraction(-3)),
        (Fraction(1, 2), Fraction(-3)),
        "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))",
    ),
    (R_ZERO, ((),), "RadicalSum(terms=())"),
    (
        R_ONE,
        (R_ONE.terms,),
        "RadicalSum(terms=((NuPolynomial((GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)),)), "
        "NuPolynomial((GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)),))),))",
    ),
    (
        BiPolynomial((NuPolynomial((2,)), NuPolynomial(()))),
        ((NuPolynomial((2,)),),),
        "BiPolynomial(rows=(NuPolynomial((GaussianRational(re=Fraction(2, 1), im=Fraction(0, 1)),)),))",
    ),
    (
        FAILED,
        ("x", CheckMode.EXACT, 0.5, Verdict.FAIL, "c", WITNESS),
        "AlgebraReport(relation_id='x', mode=<CheckMode.EXACT: 'exact'>, max_residual=0.5, "
        "verdict=<Verdict.FAIL: 'fail'>, caveat='c', witness=Witness(row=1, col=2, expected='a', actual='b'))",
    ),
]


@pytest.mark.parametrize("value, fields, text", VALUES, ids=[text.split("(")[0] for _, _, text in VALUES])
def test_value_types_print_hash_and_pickle_as_their_fields(value, fields, text):
    assert repr(value) == text
    # the hash of the field tuple, as before: set and dict order of labels and scalars is unchanged
    assert hash(value) == hash(fields)
    assert pickle.loads(pickle.dumps(value)) == value
    assert type(value)(*fields) == value
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == fields[0]


def test_value_types_take_the_contract_from_one_base():
    for cls in {type(value) for value, _, _ in VALUES} | {OperatorMatrix}:
        assert issubclass(cls, Value)
        assert not {"__setattr__", "__delattr__", "__reduce__", "__repr__"} & vars(cls).keys()
    # NuPolynomial stays apart: _poly's class switch needs a base chain identical to its unsealed twin's
    assert not issubclass(NuPolynomial, Value)


def test_records_are_named_tuples_that_refuse_assignment():
    assert repr(WITNESS) == "Witness(row=1, col=2, expected='a', actual='b')"
    family = build_single_mode(3)
    for record, field in ((WITNESS, "row"), (family, "a"), (build_quasi_basis(2), "max_n"), (RunConfig("verify"), "fmt")):
        assert isinstance(record, tuple)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # records offer _replace in place of dataclasses.replace
    assert family._replace(dim=4).dim == 4 and family.dim == 3


def test_values_of_different_types_never_compare_equal():
    assert TwoModeLabel(1, 1) != SpinLabel(1, 1)
    assert FockLabel(1) != (1,)
    assert FockLabel(1) != 1
    assert R_ONE != 1
    assert R_ZERO != ()
    assert GaussianRational(Fraction(1)) != Fraction(1)
    assert BiPolynomial((NuPolynomial((1,)),)) != RadicalSum.from_polynomial(NuPolynomial((1,)))
    assert FAILED != ("x", CheckMode.EXACT, 0.5, Verdict.FAIL, "c", WITNESS)
    # equal values of one type are equal; radical sums are one object per value
    assert RadicalSum.sqrt_poly(deformed_number(3)) == RadicalSum.sqrt_poly(deformed_number(3))
    assert RadicalSum(R_ONE.terms) is R_ONE


def test_radical_sums_are_hash_consed():
    root = ladder_level(3).root
    assert RadicalSum.sqrt_poly(0) is R_ZERO and RadicalSum.sqrt_poly(1) is R_ONE
    assert (R_ONE + R_ONE - R_ONE) is R_ONE
    assert RadicalSum.coerce(2) * RadicalSum.coerce(Fraction(1, 2)) is R_ONE
    for x in (R_ZERO, R_ONE, root):
        assert copy.deepcopy(x) is x and pickle.loads(pickle.dumps(x)) is x
        # the cached hash is the field tuple's, as for every value type
        assert hash(x) == hash((x.terms,))


def test_polynomials_refuse_assignment_and_keep_their_hash():
    p = deformed_number(3)
    cached = hash(p)
    for name in NuPolynomial.__slots__:
        with pytest.raises(AttributeError):
            setattr(p, name, (9,))
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.re, p.im, p.den) == ((3, 2), (), 1) and str(p) == "3 + 2*nu"
    assert hash(p) == cached == hash(NuPolynomial((3, 2)))
    # built by the arithmetic's fast path and by the constructor alike
    for q in (p, p * p, NuPolynomial((Fraction(1, 2), GaussianRational(Fraction(0), Fraction(1))))):
        assert type(q) is NuPolynomial
        with pytest.raises(AttributeError):
            q.re = ()
        assert pickle.loads(pickle.dumps(q)) == q


def test_matrices_refuse_assignment_and_deletion():
    m = build_two_mode(2, 3).a[0]
    for name in OperatorMatrix.__slots__:
        with pytest.raises(AttributeError):
            setattr(m, name, getattr(m, name))
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m.dim == 6


@pytest.mark.parametrize(
    "duplicate", [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))], ids=["deepcopy", "pickle"]
)
def test_matrices_and_family_records_survive_copying(duplicate):
    family = build_two_mode(2, 3)
    twin = duplicate(family)
    assert twin == family and twin.a[0] == family.a[0]
    assert [r.as_dict() for r in audit_two_mode(twin)] == [r.as_dict() for r in audit_two_mode(family)]
    # zero cells come back as R_ZERO, which the kernel tests by identity: span{1, 2} stays invariant
    m = OperatorMatrix.from_entries(fock_basis(3), {(1, 2): R_ONE})
    assert _block(duplicate(m), [1, 2], fock_basis(2)) == _block(m, [1, 2], fock_basis(2))
    assert all(v is R_ZERO for band in duplicate(m)._bands.values() for v in band if not v.terms)


def test_equal_failing_reports_share_one_nan_residual():
    # a NaN equals only itself: each report holding its own made equal
    # failing reports unequal, and a set kept both
    made = [
        exact_report("x", WITNESS),
        exact_report("x", WITNESS),
        AlgebraReport("x", CheckMode.EXACT, float("nan"), Verdict.FAIL, witness=WITNESS),
    ]
    copies = [pickle.loads(pickle.dumps(report)) for report in made] + [copy.deepcopy(made[0])]
    assert all(report.max_residual is NAN for report in made + copies)
    assert all(report == made[0] and hash(report) == hash(made[0]) for report in made + copies)
    assert len(set(made + copies)) == 1
    assert exact_report("y", WITNESS) != made[0]
