from fractions import Fraction

import pytest

from wigneralg.realizations import (
    BiPolynomial,
    apply_basis_linear,
    audit_realizations,
    build_quasi_basis,
    grading_reflection,
    monomial_basis,
    monomial_lowering,
    monomial_number,
    monomial_raising,
    phi_coefficients,
    quasi_lowering,
    quasi_raising,
)
from wigneralg.reports import Verdict
from wigneralg.scalars import GaussianRational, NuPolynomial, deformed_number


def bp(data):
    return BiPolynomial.from_dict(
        {k: GaussianRational.coerce(v) for k, v in data.items()}
    )


def naive_product(factors):
    """Independent oracle: expand a product of (x - k - d*(-1)^k) by naive convolution."""
    result = {(0, 0): Fraction(1)}
    for k in factors:
        term = {(1, 0): Fraction(1), (0, 0): Fraction(-k), (0, 1): Fraction(-((-1) ** k))}
        next_result = {}
        for (xa, da), ca in result.items():
            for (xb, db), cb in term.items():
                key = (xa + xb, da + db)
                next_result[key] = next_result.get(key, Fraction(0)) + ca * cb
        result = {k: v for k, v in next_result.items() if v != 0}
    return bp(result)


def test_phi_low_orders():
    basis = build_quasi_basis(3)
    assert basis.phi(0) == BiPolynomial.one()
    # phi_1 = x - d
    assert basis.phi(1) == bp({(1, 0): 1, (0, 1): -1})
    # phi_2 = (x-d)(x-1+d); the x*d cross terms cancel
    assert basis.phi(2) == bp({(2, 0): 1, (1, 0): -1, (0, 1): 1, (0, 2): -1})


def test_phi_against_naive_convolution():
    basis = build_quasi_basis(8)
    for n in range(9):
        assert basis.phi(n) == naive_product(range(n))


def test_monomial_lowering_examples():
    # x^3 -> (3+2d) x^2
    got = monomial_lowering(monomial_basis(3))
    assert got == bp({(2, 0): 3, (2, 1): 2})
    # constant -> 0
    assert monomial_lowering(BiPolynomial.one()).is_zero
    # x^4 + x -> 4x^3 + (1+2d)
    got = monomial_lowering(monomial_basis(4) + monomial_basis(1))
    assert got == bp({(3, 0): 4, (0, 0): 1, (0, 1): 2})


def test_monomial_raising_and_number():
    assert monomial_raising(monomial_basis(2)) == monomial_basis(3)
    assert monomial_number(monomial_basis(5)) == monomial_basis(5).scale(5)


def test_quasi_lowering_examples():
    basis = build_quasi_basis(5)
    assert quasi_lowering(basis.phi(0)).is_zero
    # a phi_3 = (3+2d) phi_2, checked by expanding both sides
    lhs = quasi_lowering(basis.phi(3))
    rhs = BiPolynomial.from_delta_poly(deformed_number(3)) * basis.phi(2)
    assert lhs == rhs


def test_quasi_raising_builds_basis():
    basis = build_quasi_basis(7)
    state = BiPolynomial.one()
    for n in range(7):
        state = quasi_raising(state)
        assert state == basis.phi(n + 1)


def test_shift_and_flip_are_ring_maps():
    p = bp({(2, 1): 1, (1, 0): -2, (0, 3): Fraction(1, 2)})
    q = bp({(1, 1): 3, (0, 0): 1})
    assert (p * q).shift_x(1) == p.shift_x(1) * q.shift_x(1)
    assert (p + q).shift_x(-2) == p.shift_x(-2) + q.shift_x(-2)
    assert (p * q).flip_delta() == p.flip_delta() * q.flip_delta()
    assert p.shift_x(1).shift_x(-1) == p
    assert p.flip_delta().flip_delta() == p


def test_phi_decomposition_roundtrip():
    basis = build_quasi_basis(6)
    f = (
        basis.phi(4) * BiPolynomial.from_delta_poly(deformed_number(3))
        + basis.phi(1).scale(2)
        + BiPolynomial.one()
    )
    coeffs = phi_coefficients(f, basis)
    rebuilt = BiPolynomial.zero()
    for n, c in enumerate(coeffs):
        rebuilt = rebuilt + basis.phi(n) * BiPolynomial.from_delta_poly(c)
    assert rebuilt == f
    assert coeffs[4] == deformed_number(3)


def test_grading_reflection_eigenvalues():
    basis = build_quasi_basis(6)
    for n in range(6):
        got = grading_reflection(basis.phi(n), basis)
        assert got == basis.phi(n).scale((-1) ** n)


def test_commutator_closes_with_grading_reflection():
    basis = build_quasi_basis(8)
    for n in range(6):
        lhs = apply_basis_linear(
            quasi_lowering, quasi_raising(basis.phi(n)), basis
        ) - apply_basis_linear(quasi_raising, quasi_lowering(basis.phi(n)), basis)
        eigen = NuPolynomial.from_coeffs([1, 2 * (-1) ** n])  # 1 + 2d(-1)^n
        assert lhs == basis.phi(n) * BiPolynomial.from_delta_poly(eigen)


def test_undeformed_limit_is_falling_factorial():
    # at delta=0, phi_n collapses to x(x-1)...(x-n+1)
    basis = build_quasi_basis(5)
    for n in range(6):
        at_zero = {
            (xd, dd): c for (xd, dd), c in basis.phi(n).terms if dd == 0
        }
        falling = {(0, 0): Fraction(1)}
        for k in range(n):
            nxt = {}
            for (xd, _), c in falling.items():
                nxt[(xd + 1, 0)] = nxt.get((xd + 1, 0), Fraction(0)) + c
                nxt[(xd, 0)] = nxt.get((xd, 0), Fraction(0)) + c * (-k)
            falling = {k_: v for k_, v in nxt.items() if v != 0}
        assert bp(at_zero) == bp(falling)


def test_audit_realizations():
    reports = audit_realizations(15)
    assert all(r.passed for r in reports)
    exact = [r for r in reports if r.verdict is Verdict.PASS]
    caveats = [r for r in reports if r.verdict is Verdict.PASS_WITH_CAVEAT]
    assert len(caveats) == 2  # the two relations that rely on the reconstructed R
    assert all("grading" in r.caveat for r in caveats)
    assert len(exact) == 7


def test_audit_requires_min_n():
    with pytest.raises(ValueError):
        audit_realizations(1)


def test_bipolynomial_str():
    p = BiPolynomial.from_dict(
        {
            (2, 1): GaussianRational(Fraction(-1)),
            (0, 0): GaussianRational(Fraction(1, 3)),
            (1, 0): GaussianRational(Fraction(0), Fraction(2)),
            (0, 2): GaussianRational(Fraction(1)),
        }
    )
    assert str(p) == "-x^2*d + (2*i)*x + 1/3 + d^2"
    assert str(BiPolynomial()) == "0"
