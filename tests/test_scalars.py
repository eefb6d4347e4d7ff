import math
from fractions import Fraction
from itertools import permutations

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from wigneralg.errors import NegativeRadicandError
from wigneralg.operators import NU_GRID
from wigneralg.reports import Verdict
from wigneralg.single_mode import build_single_mode
from wigneralg.scalars import (
    GaussianRational,
    NuPolynomial,
    P_ONE,
    ParityClass,
    R_MINUS_ONE,
    R_ONE,
    RadicalSum,
    _canonical_radicand,
    _radicand_sort_key,
    _square_free_split,
    _term_product,
    check_cross_identity,
    check_pair_identities,
    deformed_factorial,
    deformed_number,
    format_terms,
    ladder_level,
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


def is_squarefree(coeffs):
    """sympy's verdict: the polynomial (nu-ascending coefficients) has no repeated factor."""
    nu = sp.Symbol("nu")
    p = sum(c * nu**k for k, c in enumerate(coeffs))
    return sp.degree(sp.gcd(p, sp.diff(p, nu)), nu) <= 0


# radicands with nonnegative integer coefficients stay nonnegative on nu >= 0;
# sqrt_poly accepts only squarefree ones
radicand_st = st.builds(
    NuPolynomial.from_coeffs,
    st.lists(st.integers(0, 5), min_size=1, max_size=3).filter(is_squarefree),
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


def term_product_reference(a, b):
    """a*b without short-cuts: every pair of terms through _term_product, merged by +."""
    total = RadicalSum.zero()
    for c1, r1 in a.terms:
        for c2, r2 in b.terms:
            total = total + RadicalSum((_term_product(c1, r1, c2, r2),))
    return total


# two single-term radical sums over one radicand; the coefficients may be equal
shared_radicand_st = st.builds(
    lambda c1, c2, same, r: (
        RadicalSum.from_polynomial(c1) * RadicalSum.sqrt_poly(r),
        RadicalSum.from_polynomial(c1 if same else c2) * RadicalSum.sqrt_poly(r),
    ),
    poly_st,
    poly_st,
    st.booleans(),
    radicand_st,
)


@settings(max_examples=40, deadline=None)
@given(radical_st, radical_st, radical_st, shared_radicand_st)
def test_radical_ring_axioms(a, b, c, shared):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a + (-a)).terms == ()
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    # the short-cuts of - and * agree with the general path
    x, y = shared
    for p, q in ((a, b), (a, a), (x, y), (y, x), (x, x)):
        assert p - q == p + (-q)
        assert p * q == term_product_reference(p, q)
    assert (a - a).terms == ()
    for unit in (RadicalSum.one(), R_MINUS_ONE, -RadicalSum.one()):
        for p in (a, x):
            assert unit * p == p * unit == term_product_reference(unit, p)
    assert RadicalSum.one() * a == a and -RadicalSum.one() * a == -a


def test_values_equal_to_plus_minus_one_are_the_shared_objects():
    assert RadicalSum.from_polynomial(P_ONE) is R_ONE
    assert RadicalSum.from_polynomial(-P_ONE) is R_MINUS_ONE
    assert RadicalSum.coerce(1) is R_ONE and RadicalSum.coerce(-1) is R_MINUS_ONE
    assert -R_ONE is R_MINUS_ONE and -R_MINUS_ONE is R_ONE
    assert R_MINUS_ONE * R_MINUS_ONE is R_ONE
    assert build_single_mode(4).n_op.entry(1, 1) is R_ONE
    # other constants keep their terms, and equal values built from terms are the shared objects
    assert RadicalSum.from_polynomial(poly(1, 0, 0)) is R_ONE
    assert RadicalSum.from_polynomial(poly(Fraction(1, 2))).terms == ((poly(Fraction(1, 2)), P_ONE),)
    assert RadicalSum.from_polynomial(poly(0, 1)).terms == ((poly(0, 1), P_ONE),)
    fresh = RadicalSum(R_ONE.terms)
    assert fresh is R_ONE and -fresh is R_MINUS_ONE


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
    # rounding-size negatives (tolerance 1e-12 * (1 + 1) here) evaluate as 0
    assert numeric_eval(r, -1e-14) == 0
    assert numeric_eval(r * RadicalSum.from_polynomial(poly(3)) + RadicalSum.one(), -1.5e-12) == 1
    with pytest.raises(NegativeRadicandError):
        numeric_eval(r, -3e-12)


@pytest.mark.parametrize("nu", [float("nan"), float("inf"), float("-inf"), -0.5, -1.0])
def test_numeric_eval_refuses_nu_outside_its_domain(nu):
    # at -1.0 the root sqrt([3]) = sqrt(3 + 2nu) once evaluated to 1, outside nu > -1/2
    for value in (ladder_level(3).root, deformed_number(3)):
        with pytest.raises(ValueError, match="finite nu > -1/2"):
            numeric_eval(value, nu)


def test_sqrt_poly_rejects_radicands_without_a_canonical_form():
    # sqrt((1+2nu)^2) would be a second form of 1+2nu, and sqrt(nu^2) is |nu|,
    # not nu; sqrt(-p) would be a second form of i*sqrt(p)
    hidden_squares = (poly(0, 0, 1), deformed_number(1) * deformed_number(1), poly(3, 2) * poly(0, 0, 1))
    for bad in hidden_squares + (poly(1, -1), poly(-2), poly(-1, -2)):
        with pytest.raises(ValueError):
            RadicalSum.sqrt_poly(bad)
    with pytest.raises(ValueError):
        RadicalSum._from_raw([(poly(Fraction(1, 2)), poly(1, 4, 4))])
    # rational content may carry squares: it moves out of the root as before
    quarter = RadicalSum.sqrt_poly(poly(Fraction(1, 4), Fraction(1, 2)))
    assert quarter == RadicalSum.sqrt_poly(poly(1, 2)) * poly(Fraction(1, 2))


def test_equal_values_share_one_canonical_form():
    # each pair once had two canonical forms
    a, b = RadicalSum.sqrt_poly(deformed_number(1)), RadicalSum.sqrt_poly(deformed_number(3))
    shared = RadicalSum.sqrt_poly(poly(2, 4)) * RadicalSum.sqrt_poly(poly(3, 6))
    pairs = [((a * b) * b, a * (b * b)), (shared, RadicalSum.sqrt_poly(6) * poly(1, 2))]
    for left, right in pairs:
        assert left == right
        assert radical_values_equal(left, right) == ("exact", 0.0)
    assert [str(left) for left, _ in pairs] == ["(3 + 2*nu)*sqrt(1 + 2*nu)", "(1 + 2*nu)*sqrt(6)"]
    root = RadicalSum.sqrt_poly(deformed_number(1))
    status, residual = radical_values_equal(root, RadicalSum.from_polynomial(poly(1, 3)))
    assert status == "different" and residual > 0.1


# linear factors positive on nu > -1/2 (also at nu = -0.4), pairwise coprime
POSITIVE_FACTORS = (poly(1, 2), poly(3, 2), poly(5, 2), poly(1, 1), poly(2, 1), poly(3, 4))
# sqrt of an integer content times distinct positive factors, times a coefficient
positive_root_st = st.builds(
    lambda content, factors, coeff: RadicalSum.sqrt_poly(
        math.prod((POSITIVE_FACTORS[k] for k in factors), start=poly(content))
    )
    * poly(*coeff),
    st.integers(1, 12),
    st.sets(st.integers(0, len(POSITIVE_FACTORS) - 1), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=2).filter(any),
)


def association_orders(xs):
    """Every fully bracketed product of xs, in the order given."""
    if len(xs) == 1:
        yield xs[0]
        return
    for k in range(1, len(xs)):
        for left in association_orders(xs[:k]):
            for right in association_orders(xs[k:]):
                yield left * right


@settings(max_examples=40, deadline=None)
@given(st.lists(positive_root_st, min_size=3, max_size=4))
def test_products_of_shared_factor_roots_keep_value_and_form(roots):
    # a shared factor g leaves the root as +g: its sign shows at nu = -0.4 too
    for x in roots:
        for y in roots:
            for nu in NU_GRID + (-0.4,):
                expected = numeric_eval(x, nu) * numeric_eval(y, nu)
                assert abs(numeric_eval(x * y, nu) - expected) <= 1e-12 * (1 + abs(expected))
    forms = {p for order in permutations(roots) for p in association_orders(list(order))}
    assert len(forms) == 1


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


# ---------------------------------------------------------------- integer-backed polynomials
#
# NuPolynomial keeps integer numerators over one denominator.  The reference
# below is the list-of-GaussianRational form: coefficient k of nu^k, trailing
# zeros stripped, every operation done coefficientwise on exact rationals.

GR0 = GaussianRational()
part_st = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12))
scalar_st = st.one_of(
    st.integers(-3, 3), part_st, st.builds(GaussianRational, part_st, part_st)
)
scalars_st = st.lists(scalar_st, max_size=5)


@st.composite
def cancelling_pairs(draw):
    """Two coefficient lists; the second may cancel all or the top of the first."""
    a = draw(scalars_st)
    b = draw(scalars_st)
    cut = draw(st.integers(0, len(a) + 1))
    if draw(st.booleans()):
        b = [b[k] if k < min(cut, len(b)) else -GaussianRational.coerce(v) for k, v in enumerate(a)]
    return a, b


def ref_poly(values):
    coeffs = [GaussianRational.coerce(v) for v in values]
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_poly([(a[k] if k < len(a) else GR0) + (b[k] if k < len(b) else GR0) for k in range(n)])


def ref_mul(a, b):
    out = [GR0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ref_poly(out)


def ref_eval(a, nu):
    acc = 0j
    for c in reversed(a):
        acc = acc * nu + c.as_complex()
    return acc


def ref_str(a):
    return format_terms(
        (
            (str(c), "" if k == 0 else "nu" if k == 1 else f"nu^{k}")
            for k, c in enumerate(a)
            if not c.is_zero
        ),
        lambda text: ("/" in text or "i" in text) and not text.startswith("("),
    )


def assert_matches_reference(p, ref, nu):
    assert p.coeffs == tuple(ref)
    assert p.degree == len(ref) - 1
    assert p.is_zero == (not ref)
    assert p.is_real == all(c.is_real for c in ref)
    for k in range(-1, len(ref) + 2):
        assert p.coefficient(k) == (ref[k] if 0 <= k < len(ref) else GR0)
    assert str(p) == ref_str(ref)
    got, want = p.eval_complex(nu), ref_eval(ref, nu)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    # canonical integer form
    assert p.den > 0 and math.gcd(p.den, *p.re, *p.im) == 1
    assert not p.re or p.re[-1] or p.im[-1]
    assert p.im == () or (len(p.im) == len(p.re) and any(p.im))


@settings(max_examples=300, deadline=None)
@given(cancelling_pairs(), st.sampled_from([0.0, 0.3, -0.25, 1.7, -0.4999]))
def test_integer_polynomial_matches_gaussian_reference(pair, nu):
    a_values, b_values = pair
    p, q = NuPolynomial(a_values), NuPolynomial.from_coeffs(b_values)
    a, b = ref_poly(a_values), ref_poly(b_values)
    neg_b = [-c for c in b]
    for value, ref in (
        (p, a),
        (q, b),
        (p + q, ref_add(a, b)),
        (p - q, ref_add(a, neg_b)),
        (p - p, []),
        (p * NuPolynomial.constant(1), ref_mul(a, [GaussianRational(1)])),
        (NuPolynomial.constant(1) * q, ref_mul([GaussianRational(1)], b)),
        (p * NuPolynomial.constant(-1), ref_mul(a, [GaussianRational(-1)])),
        (p - NuPolynomial.constant(1), ref_add(a, [GaussianRational(-1)])),
        (NuPolynomial.constant(-1) - q, ref_add([GaussianRational(-1)], neg_b)),
        (p * q, ref_mul(a, b)),
        (q * p, ref_mul(a, b)),
        (-q, neg_b),
        (p.conjugate(), [c.conjugate() for c in a]),
    ):
        assert_matches_reference(value, ref, nu)
    assert (p == q) == (a == b)
    assert (p + q == q) == (not a)
    assert p - q == p + (-q)
    if a == b:
        assert hash(p) == hash(q)
    rebuilt = NuPolynomial(p.coeffs)
    assert rebuilt == p and hash(rebuilt) == hash(p)


def ref_canonical_radicand(values):
    """The Fraction-based canonicalization NuPolynomial radicands had before."""
    lcm = 1
    for c in values:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in values]
    content = 0
    for v in ints:
        content = math.gcd(content, v)
    sign = -1 if ints[-1] < 0 else 1
    primitive = [v // (sign * content) for v in ints]
    u1, w1 = _square_free_split(content)
    u2, w2 = _square_free_split(w1 * lcm)
    return Fraction(u1 * u2, lcm), [sign * w2 * v for v in primitive]


@settings(max_examples=300, deadline=None)
@given(st.lists(part_st, max_size=4))
def test_canonical_radicand_matches_fraction_reference(values):
    p = NuPolynomial(values)
    mult, rad = _canonical_radicand(p)
    if p.is_zero:
        assert mult.is_zero and rad.is_zero
        return
    # stored radicands are canonical: integer numerators over denominator 1
    assert rad.den == 1
    assert _radicand_sort_key(rad) == (rad.degree, tuple(c.re.numerator for c in rad.coeffs))
    ref_mult, ref_rad = ref_canonical_radicand([c.re for c in p.coeffs])
    assert mult == NuPolynomial.constant(ref_mult)
    assert rad == NuPolynomial(ref_rad)


def test_radical_sum_is_real():
    assert RadicalSum.zero().is_real
    assert RadicalSum.sqrt_poly(poly(1, 2)).is_real
    assert not (RadicalSum.sqrt_poly(poly(3)) * poly(GaussianRational(Fraction(1), Fraction(1)))).is_real
