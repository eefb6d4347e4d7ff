"""Coordinate realizations of the single-mode algebra on polynomial bases.

Two realizations are verified as exact bivariate-polynomial identities in
(x, delta), where delta is the same deformation parameter called nu elsewhere
(the aliasing is deliberate and surfaced in report ids):

* monomial basis f_n = x^n with the differential-difference lowering operator
  acting termwise as  x^n -> [n] x^(n-1);
* the parity-graded quasi-polynomial basis
  phi_n(x) = prod_{k<n} (x - k - delta*(-1)^k),
  with lowering  F(x, delta) -> F(x+1, -delta) - F(x, delta)  and raising
  F(x, delta) -> (x - delta) * F(x-1, -delta).

No closed coordinate form of the reflection operator comes with the graded
basis; it is reconstructed by linear extension of the grading
R phi_n = (-1)^n phi_n via exact monic top-degree elimination, and reports
that rely on it say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .reports import AlgebraReport, Witness, exact_report
from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    NuPolynomial,
    RadicalSum,
    deformed_number,
    format_terms,
)

Key = Tuple[int, int]  # (x degree, delta degree)


@dataclass(frozen=True)
class BiPolynomial:
    """Polynomial in x and delta with Gaussian-rational coefficients."""

    terms: Tuple[Tuple[Key, GaussianRational], ...] = ()

    @staticmethod
    def from_dict(data: Dict[Key, GaussianRational]) -> "BiPolynomial":
        return BiPolynomial(
            tuple(sorted((k, c) for k, c in data.items() if not c.is_zero))
        )

    @staticmethod
    def zero() -> "BiPolynomial":
        return BP_ZERO

    @staticmethod
    def one() -> "BiPolynomial":
        return BP_ONE

    @staticmethod
    def constant(value) -> "BiPolynomial":
        return BiPolynomial.from_dict({(0, 0): GaussianRational.coerce(value)})

    @staticmethod
    def from_delta_poly(p: NuPolynomial) -> "BiPolynomial":
        """Embed a polynomial in the deformation parameter as delta powers."""
        return BiPolynomial.from_dict({(0, k): c for k, c in enumerate(p.coeffs)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> Dict[Key, GaussianRational]:
        return dict(self.terms)

    def __add__(self, other: "BiPolynomial") -> "BiPolynomial":
        data = self.as_dict()
        for key, c in other.terms:
            data[key] = data.get(key, GR_ZERO) + c
        return BiPolynomial.from_dict(data)

    def __sub__(self, other: "BiPolynomial") -> "BiPolynomial":
        return self + (-other)

    def __neg__(self) -> "BiPolynomial":
        return BiPolynomial(tuple((k, -c) for k, c in self.terms))

    def __mul__(self, other: "BiPolynomial") -> "BiPolynomial":
        data: Dict[Key, GaussianRational] = {}
        for (xa, da), ca in self.terms:
            for (xb, db), cb in other.terms:
                key = (xa + xb, da + db)
                prod = ca * cb
                data[key] = data.get(key, GR_ZERO) + prod
        return BiPolynomial.from_dict(data)

    def scale(self, value) -> "BiPolynomial":
        c = GaussianRational.coerce(value)
        return BiPolynomial.from_dict({k: v * c for k, v in self.terms})

    def x_degree(self) -> int:
        return max((k[0] for k, _ in self.terms), default=-1)

    def x_coefficient(self, n: int) -> NuPolynomial:
        """Coefficient of x^n as a polynomial in delta."""
        if self.is_zero:
            return NuPolynomial.zero()
        top = max((k[1] for k, _ in self.terms if k[0] == n), default=-1)
        coeffs = [GR_ZERO] * (top + 1)
        for (xd, dd), c in self.terms:
            if xd == n:
                coeffs[dd] = c
        return NuPolynomial.from_coeffs(coeffs)

    def shift_x(self, h: int) -> "BiPolynomial":
        """Exact substitution x -> x + h."""
        data: Dict[Key, GaussianRational] = {}
        for (xd, dd), c in self.terms:
            for i in range(xd + 1):
                key = (i, dd)
                contrib = c * (math.comb(xd, i) * h ** (xd - i))
                data[key] = data.get(key, GR_ZERO) + contrib
        return BiPolynomial.from_dict(data)

    def flip_delta(self) -> "BiPolynomial":
        """Exact substitution delta -> -delta."""
        return BiPolynomial(
            tuple(sorted((k, c if k[1] % 2 == 0 else -c) for k, c in self.terms))
        )

    def __str__(self) -> str:
        def monomial(xd: int, dd: int) -> str:
            x = "" if not xd else "x" if xd == 1 else f"x^{xd}"
            d = "" if not dd else "d" if dd == 1 else f"d^{dd}"
            return "*".join(part for part in (x, d) if part)

        terms = sorted(self.terms, key=lambda t: (-t[0][0], t[0][1]))
        return format_terms(
            ((str(c), monomial(xd, dd)) for (xd, dd), c in terms),
            lambda text: "/" in text or "i" in text,
        )


BP_ZERO = BiPolynomial()
BP_ONE = BiPolynomial((((0, 0), GR_ONE),))
BP_X = BiPolynomial((((1, 0), GR_ONE),))
BP_DELTA = BiPolynomial((((0, 1), GR_ONE),))


########################################################################
#   Monomial basis
########################################################################


def monomial_basis(n: int) -> BiPolynomial:
    """f_n = x^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return BiPolynomial((((n, 0), GR_ONE),))


def monomial_lowering(p: BiPolynomial) -> BiPolynomial:
    """Differential-difference lowering: acts termwise as x^n -> [n]_delta x^(n-1).

    Implemented on coefficients (never dividing by x): the derivative part
    contributes n*x^(n-1), the parity part 2*delta*x^(n-1) for odd n.
    """
    data: Dict[Key, GaussianRational] = {}
    for (xd, dd), c in p.terms:
        if xd == 0:
            continue
        key = (xd - 1, dd)
        data[key] = data.get(key, GR_ZERO) + c * xd
        if xd % 2 == 1:
            key_odd = (xd - 1, dd + 1)
            data[key_odd] = data.get(key_odd, GR_ZERO) + c * 2
    return BiPolynomial.from_dict(data)


def monomial_raising(p: BiPolynomial) -> BiPolynomial:
    """Multiplication by x."""
    return BP_X * p


def monomial_number(p: BiPolynomial) -> BiPolynomial:
    """x d/dx, termwise x^n -> n x^n."""
    data = {k: c * k[0] for k, c in p.terms}
    return BiPolynomial.from_dict(data)


########################################################################
#   Parity-graded quasi-polynomial basis
########################################################################


@dataclass(frozen=True)
class QuasiPolyBasis:
    max_n: int
    polys: Tuple[BiPolynomial, ...]

    def phi(self, n: int) -> BiPolynomial:
        return self.polys[n]


def build_quasi_basis(max_n: int) -> QuasiPolyBasis:
    """phi_n = prod_{k=0}^{n-1} (x - k - delta*(-1)^k), phi_0 = 1."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    polys = [BP_ONE]
    current = BP_ONE
    for k in range(max_n):
        factor = BP_X - BiPolynomial.constant(k) - BP_DELTA.scale((-1) ** k)
        current = current * factor
        polys.append(current)
    return QuasiPolyBasis(max_n=max_n, polys=tuple(polys))


def quasi_lowering(f: BiPolynomial) -> BiPolynomial:
    """F(x, delta) -> F(x+1, -delta) - F(x, delta)."""
    return f.shift_x(1).flip_delta() - f


def quasi_raising(f: BiPolynomial) -> BiPolynomial:
    """F(x, delta) -> (x - delta) * F(x-1, -delta)."""
    return (BP_X - BP_DELTA) * f.shift_x(-1).flip_delta()


def phi_coefficients(f: BiPolynomial, basis: QuasiPolyBasis) -> List[NuPolynomial]:
    """Exact expansion of f in the phi basis via monic top-degree elimination.

    Returns delta-polynomial coefficients c_n with f = sum c_n(delta) phi_n.
    """
    deg = f.x_degree()
    if deg > basis.max_n:
        raise ValueError("basis is too short for this polynomial")
    coeffs = [NuPolynomial.zero()] * (max(deg, -1) + 1)
    rest = f
    while not rest.is_zero:
        n = rest.x_degree()
        c = rest.x_coefficient(n)
        coeffs[n] = c
        rest = rest - basis.phi(n) * BiPolynomial.from_delta_poly(c)
    return coeffs


def grading_reflection(f: BiPolynomial, basis: QuasiPolyBasis) -> BiPolynomial:
    """Linear extension of R phi_n = (-1)^n phi_n (grading-reconstructed)."""
    out = BP_ZERO
    for n, c in enumerate(phi_coefficients(f, basis)):
        if c.is_zero:
            continue
        out = out + basis.phi(n) * BiPolynomial.from_delta_poly(c).scale((-1) ** n)
    return out


def apply_basis_linear(raw_op, f: BiPolynomial, basis: QuasiPolyBasis) -> BiPolynomial:
    """Apply a coordinate operator by linear extension over the phi basis.

    The delta-flip inside the shift operators makes raw composition
    semilinear in delta: substituting into a phi-coefficient like [n] flips
    its sign term.  Operators on the span are therefore defined by their
    action on basis functions with delta-polynomial coefficients passing
    through unchanged, which is what makes the commutator close on
    (1 + 2 delta R).
    """
    out = BP_ZERO
    for n, c in enumerate(phi_coefficients(f, basis)):
        if c.is_zero:
            continue
        out = out + raw_op(basis.phi(n)) * BiPolynomial.from_delta_poly(c)
    return out


########################################################################
#   Audits
########################################################################


def _poly_family_report(relation_id, pairs, caveat=None) -> AlgebraReport:
    """Exact equality of (lhs, rhs) BiPolynomial pairs indexed by n."""
    witness = next((Witness(n, 0, str(rhs), str(lhs)) for n, lhs, rhs in pairs if lhs != rhs), None)
    return exact_report(relation_id, witness, caveat)


def audit_realizations(max_n: int) -> List[AlgebraReport]:
    """Verify both coordinate realizations for all n <= max_n, exactly."""
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    basis = build_quasi_basis(max_n + 1)
    ns = range(max_n + 1)
    reports = [
        _poly_family_report(
            f"monomial: a f_n = [n] f_(n-1) (n<={max_n}, delta=nu)",
            [
                (
                    n,
                    monomial_lowering(monomial_basis(n)),
                    BiPolynomial.from_delta_poly(deformed_number(n)) * monomial_basis(n - 1)
                    if n >= 1
                    else BP_ZERO,
                )
                for n in ns
            ],
        ),
        _poly_family_report(
            f"monomial: adag f_n = f_(n+1) (n<={max_n})",
            [(n, monomial_raising(monomial_basis(n)), monomial_basis(n + 1)) for n in ns],
        ),
        _poly_family_report(
            f"monomial: N f_n = n f_n (n<={max_n})",
            [(n, monomial_number(monomial_basis(n)), monomial_basis(n).scale(n)) for n in ns],
        ),
        _poly_family_report(
            f"quasi: a phi_n = [n] phi_(n-1) (n<={max_n}, delta=nu)",
            [
                (
                    n,
                    quasi_lowering(basis.phi(n)),
                    BiPolynomial.from_delta_poly(deformed_number(n)) * basis.phi(n - 1)
                    if n >= 1
                    else BP_ZERO,
                )
                for n in ns
            ],
        ),
        _poly_family_report(
            f"quasi: adag phi_n = phi_(n+1) (n<={max_n})",
            [(n, quasi_raising(basis.phi(n)), basis.phi(n + 1)) for n in ns],
        ),
        _poly_family_report(
            f"quasi: (adag)^n 1 = phi_n (n<={max_n})",
            [(n, _iterated_raising(n), basis.phi(n)) for n in ns],
        ),
        _poly_family_report(
            f"quasi: [a,adag] phi_n = (1 + 2 delta R) phi_n (n<={max_n})",
            [
                (
                    n,
                    apply_basis_linear(quasi_lowering, quasi_raising(basis.phi(n)), basis)
                    - apply_basis_linear(quasi_raising, quasi_lowering(basis.phi(n)), basis),
                    basis.phi(n)
                    + (BP_DELTA * grading_reflection(basis.phi(n), basis)).scale(2),
                )
                for n in ns
            ],
            caveat="reflection operator reconstructed from the grading R phi_n = (-1)^n phi_n",
        ),
        _poly_family_report(
            f"quasi: N phi_n = n phi_n with N = adag a - delta + delta R (n<={max_n})",
            [
                (
                    n,
                    apply_basis_linear(quasi_raising, quasi_lowering(basis.phi(n)), basis)
                    - BP_DELTA * basis.phi(n)
                    + BP_DELTA * grading_reflection(basis.phi(n), basis),
                    basis.phi(n).scale(n),
                )
                for n in ns
            ],
            caveat="reflection operator reconstructed from the grading R phi_n = (-1)^n phi_n",
        ),
    ]
    reports.append(realization_matrix_consistency(max_n))
    return reports


def _iterated_raising(n: int) -> BiPolynomial:
    out = BP_ONE
    for _ in range(n):
        out = quasi_raising(out)
    return out


def realization_matrix_consistency(max_n: int) -> AlgebraReport:
    """Both realizations reproduce the abstract ladder matrix elements.

    The basis-function coefficients [n] equal the square of the abstract
    entries sqrt([n]) once the radical is squared, for every n <= max_n.
    """
    relation_id = f"realizations match abstract ladder entries after squaring (n<={max_n})"
    basis = build_quasi_basis(max_n + 1)
    for n in range(1, max_n + 1):
        abstract_sq = RadicalSum.sqrt_poly(deformed_number(n)) * RadicalSum.sqrt_poly(
            deformed_number(n)
        )
        expected = RadicalSum.from_polynomial(deformed_number(n))
        monomial_coeff = monomial_lowering(monomial_basis(n)).x_coefficient(n - 1)
        quasi_coeff = phi_coefficients(quasi_lowering(basis.phi(n)), basis)[n - 1]
        if abstract_sq != expected or monomial_coeff != deformed_number(n) or quasi_coeff != deformed_number(n):
            return exact_report(
                relation_id,
                Witness(
                    n,
                    0,
                    str(deformed_number(n)),
                    f"monomial {monomial_coeff}, quasi {quasi_coeff}, abstract^2 {abstract_sq}",
                ),
            )
    return exact_report(relation_id)
