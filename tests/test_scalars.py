import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wigneralg.errors import NegativeRadicandError
from wigneralg.reports import Verdict
from wigneralg.scalars import (
    GaussianRational,
    NuPolynomial,
    ParityClass,
    RadicalSum,
    check_cross_identity,
    check_pair_identities,
    deformed_factorial,
    deformed_number,
    numeric_eval,
    parity,
    radical_values_equal,
)


def poly(*coeffs):
    return NuPolynomial.from_coeffs(coeffs)


# ---------------------------------------------------------------- strategies

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussian_st = st.builds(GaussianRational, fractions_st, fractions_st)
poly_st = st.builds(
    NuPolynomial.from_coeffs, st.lists(gaussian_st, min_size=0, max_size=4)
)
# radicands with nonnegative integer coefficients stay nonnegative on nu >= 0
radicand_st = st.builds(
    NuPolynomial.from_coeffs, st.lists(st.integers(0, 5), min_size=1, max_size=3)
)
term_st = st.tuples(poly_st, radicand_st)
radical_st = st.builds(
    lambda terms: sum(
        (RadicalSum.from_polynomial(c) * RadicalSum.sqrt_poly(r) for c, r in terms),
        RadicalSum.zero(),
    ),
    st.lists(term_st, min_size=0, max_size=3),
)


# ---------------------------------------------------------------- deformed numbers


def test_deformed_number_listed_values():
    # [0]=0, [1]=1+2nu, [2]=2, [3]=3+2nu, [4]=4
    assert deformed_number(0) == poly()
    assert deformed_number(1) == poly(1, 2)
    assert deformed_number(2) == poly(2)
    assert deformed_number(3) == poly(3, 2)
    assert deformed_number(4) == poly(4)
    assert deformed_number(7) == poly(7, 2)


def test_deformed_number_rejects_negative():
    with pytest.raises(ValueError):
        deformed_number(-1)


def test_deformed_factorial_against_brute_product():
    for n in range(9):
        expected = NuPolynomial.one()
        for k in range(1, n + 1):
            expected = expected * deformed_number(k)
        assert deformed_factorial(n) == expected
    assert deformed_factorial(0) == NuPolynomial.one()
    assert deformed_factorial(2) == poly(2, 4)
    assert deformed_factorial(3) == poly(2, 4) * poly(3, 2)


def test_deformed_number_positive_on_domain():
    for n in range(31):
        for nu in (-0.49, -0.25, 0.0, 0.3, 1.0, 2.5):
            value = numeric_eval(deformed_number(n), nu).real
            if n == 0:
                assert value == 0.0
            else:
                assert value > 0.0


def test_parity_class():
    assert parity(4) is ParityClass.EVEN
    assert parity(9) is ParityClass.ODD
    assert all(parity(n).value == n % 2 for n in range(20))
    assert ParityClass.EVEN.sign == 1 and ParityClass.ODD.sign == -1


def test_pair_identities_examples():
    # [3]+[4] = 7+2nu
    assert deformed_number(3) + deformed_number(4) == poly(7, 2)
    assert check_pair_identities(3).verdict is Verdict.PASS
    # [0]+[1] = 1+2nu
    assert deformed_number(0) + deformed_number(1) == poly(1, 2)
    assert check_pair_identities(0).verdict is Verdict.PASS
    assert check_pair_identities(10).verdict is Verdict.PASS


def test_cross_identity_examples():
    # direct expansions
    assert deformed_number(1) * deformed_number(1) - deformed_number(0) * deformed_number(2) == poly(1, 4, 4)
    assert check_cross_identity(1, 0).verdict is Verdict.PASS
    assert check_cross_identity(0, 0).verdict is Verdict.PASS
    # [2][2] - [1][3] = 4 - (1+2nu)(3+2nu) = 1 - 8nu - 4nu^2
    assert deformed_number(2) * deformed_number(2) - deformed_number(1) * deformed_number(3) == poly(1, -8, -4)
    assert check_cross_identity(2, 1).verdict is Verdict.PASS


def test_identities_hold_over_range():
    for n in range(26):
        assert check_pair_identities(n).verdict is Verdict.PASS
    for m in range(0, 26, 3):
        for n in range(0, 26, 3):
            assert check_cross_identity(m, n).verdict is Verdict.PASS


# ---------------------------------------------------------------- polynomials


@settings(max_examples=60, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_polynomial_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(poly_st)
def test_polynomial_canonical_form(p):
    assert not p.coeffs or not p.coeffs[-1].is_zero
    assert p.degree == len(p.coeffs) - 1


def test_polynomial_zero_degree_sentinel():
    assert NuPolynomial.zero().degree == -1
    assert (poly(1) - poly(1)).degree == -1


@given(gaussian_st)
def test_gaussian_conjugation_involution(z):
    assert z.conjugate().conjugate() == z
    assert (z * z.conjugate()).im == 0


# ---------------------------------------------------------------- radical sums


def test_sqrt_canonicalization_integer_squares():
    # sqrt(4(1+2nu)) = 2 sqrt(1+2nu)
    r = RadicalSum.sqrt_poly(poly(4, 8))
    assert r == RadicalSum.from_polynomial(poly(2)) * RadicalSum.sqrt_poly(poly(1, 2))
    # sqrt(4) = 2, sqrt(9/4) = 3/2
    assert RadicalSum.sqrt_poly(poly(4)) == RadicalSum.from_polynomial(poly(2))
    assert RadicalSum.sqrt_poly(NuPolynomial.constant(Fraction(9, 4))) == RadicalSum.from_polynomial(
        NuPolynomial.constant(Fraction(3, 2))
    )
    # sqrt(2) * sqrt(6) = 2 sqrt(3)
    prod = RadicalSum.sqrt_poly(poly(2)) * RadicalSum.sqrt_poly(poly(6))
    assert prod == RadicalSum.from_polynomial(poly(2)) * RadicalSum.sqrt_poly(poly(3))


def test_equal_radicand_product_extracts_polynomial():
    # sqrt([1]) * sqrt([1]) = [1] exactly
    root = RadicalSum.sqrt_poly(deformed_number(1))
    assert root * root == RadicalSum.from_polynomial(deformed_number(1))


def test_zero_is_empty_term_list():
    r = RadicalSum.sqrt_poly(poly(1, 2))
    assert (r - r).terms == ()
    assert (r - r).is_zero
    assert RadicalSum.zero().is_zero


@settings(max_examples=40, deadline=None)
@given(radical_st)
def test_radical_canonicalization_idempotent(r):
    rebuilt = RadicalSum._from_raw(list(r.terms))
    assert rebuilt == r


@settings(max_examples=40, deadline=None)
@given(radical_st, radical_st, radical_st)
def test_radical_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a + (-a)).terms == ()
    # distributivity is canonical; associativity of * may need the numeric
    # fallback when integer-square extraction orders differ
    assert a * (b + c) == a * b + a * c
    status, _ = radical_values_equal((a * b) * c, a * (b * c))
    assert status in ("exact", "numeric")


@settings(max_examples=40, deadline=None)
@given(radical_st)
def test_square_matches_numeric_square(r):
    for nu in (0.0, 0.1, 0.5, 1.0, 2.0):
        direct = numeric_eval(r * r, nu)
        squared = numeric_eval(r, nu) ** 2
        assert abs(direct - squared) <= 1e-12 * (1 + abs(squared))


def test_numeric_eval_examples():
    # [1] at nu = 0.5 -> 2.0
    assert numeric_eval(deformed_number(1), 0.5) == pytest.approx(2.0)
    assert numeric_eval(RadicalSum.zero(), 1.7) == 0
    # sqrt([1]) at nu = 0 -> 1.0
    assert numeric_eval(RadicalSum.sqrt_poly(deformed_number(1)), 0.0) == pytest.approx(1.0)
    assert numeric_eval(RadicalSum.sqrt_poly(poly(2)), 0.3) == pytest.approx(math.sqrt(2))


def test_numeric_eval_negative_radicand():
    r = RadicalSum.sqrt_poly(poly(0, 1))  # sqrt(nu)
    with pytest.raises(NegativeRadicandError):
        numeric_eval(r, -0.25)


def test_fallback_comparator_detects_unmerged_zero():
    # (1+2nu) written as sqrt((1+2nu)^2) does not merge canonically but is
    # numerically the same value on the domain
    hidden = RadicalSum.sqrt_poly(deformed_number(1) * deformed_number(1))
    plain = RadicalSum.from_polynomial(deformed_number(1))
    assert hidden != plain
    status, residual = radical_values_equal(hidden, plain)
    assert status == "numeric"
    assert residual <= 1e-12
    status, _ = radical_values_equal(hidden, RadicalSum.from_polynomial(poly(1, 3)))
    assert status == "different"


def test_radical_str_forms():
    assert str(RadicalSum.zero()) == "0"
    assert str(RadicalSum.sqrt_poly(poly(2, 4))) == "sqrt(2 + 4*nu)"
    assert str(RadicalSum.from_polynomial(poly(1, 2))) == "(1 + 2*nu)"


def test_term_printer_forms():
    # the three printers share one term printer but keep their own parenthesis rules
    i, one_i = GaussianRational(Fraction(0), Fraction(1)), GaussianRational(Fraction(1), Fraction(1))
    assert str(poly(Fraction(1, 2), i, one_i, -1)) == "1/2 + (i)*nu + (1+i)*nu^2 - nu^3"
    assert str(poly(0, -1, Fraction(-3, 2))) == "-nu + (-3/2)*nu^2"
    assert str(NuPolynomial()) == "0"
    root = RadicalSum.sqrt_poly(poly(1, 2))
    mixed = RadicalSum.from_polynomial(poly(one_i.conjugate())) + root * poly(one_i)
    assert str(mixed) == "(1-i) + ((1+i))*sqrt(1 + 2*nu)"
    signed = (
        RadicalSum.sqrt_poly(poly(3, 2)) * poly(Fraction(1, 2), 1)
        - RadicalSum.sqrt_poly(2)
        + RadicalSum.from_polynomial(poly(1, 1))
    )
    assert str(signed) == "(1 + nu) - sqrt(2) + (1/2 + nu)*sqrt(3 + 2*nu)"
    assert str(-RadicalSum.sqrt_poly(poly(0, 1))) == "-sqrt(nu)"
