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

import operator
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .reports import AlgebraReport, Value, Witness, exact_report
from .scalars import (
    P_NU,
    P_ONE,
    P_ZERO,
    GaussianRational,
    NuPolynomial,
    RadicalSum,
    ScalarLike,
    deformed_number,
    format_terms,
    ladder_level,
)

Key = Tuple[int, int]  # (x degree, delta degree)


class BiPolynomial(Value):
    """Polynomial in x and delta with Gaussian-rational coefficients.

    Stored as ``rows``: row k is the coefficient of x^k, a NuPolynomial in
    delta.  Trailing zero rows are dropped, so the zero polynomial has no rows
    and equality and hashing compare the rows.  All arithmetic runs on them.
    An immutable value type: ``rows`` is set once, in the constructor.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[NuPolynomial] = ()) -> None:
        rows = list(rows)
        while rows and not rows[-1].re:
            rows.pop()
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def terms(self) -> Tuple[Tuple[Key, GaussianRational], ...]:
        """The nonzero ((x degree, delta degree), coefficient) pairs, ascending."""
        return tuple(
            ((xd, dd), c)
            for xd, row in enumerate(self.rows)
            for dd, c in enumerate(row.coeffs)
            if not c.is_zero
        )

    @staticmethod
    def from_dict(data: Dict[Key, ScalarLike]) -> "BiPolynomial":
        rows: List[Dict[int, ScalarLike]] = [{} for _ in range(max((k[0] + 1 for k in data), default=0))]
        for (xd, dd), c in data.items():
            rows[xd][dd] = c
        return BiPolynomial(
            NuPolynomial([row.get(dd, 0) for dd in range(max(row, default=-1) + 1)]) for row in rows
        )

    @staticmethod
    def zero() -> "BiPolynomial":
        return BP_ZERO

    @staticmethod
    def one() -> "BiPolynomial":
        return BP_ONE

    @staticmethod
    def from_delta_poly(p: NuPolynomial) -> "BiPolynomial":
        """Embed a polynomial in the deformation parameter as delta powers."""
        return BiPolynomial((p,))

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def as_dict(self) -> Dict[Key, GaussianRational]:
        return dict(self.terms)

    def __add__(self, other: "BiPolynomial") -> "BiPolynomial":
        a, b = self.rows, other.rows
        if len(a) < len(b):
            a, b = b, a
        return BiPolynomial([r + s for r, s in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "BiPolynomial") -> "BiPolynomial":
        return self + (-other)

    def __neg__(self) -> "BiPolynomial":
        return BiPolynomial([-r for r in self.rows])

    def __mul__(self, other: "BiPolynomial") -> "BiPolynomial":
        a, b = self.rows, other.rows
        if not a or not b:
            return BP_ZERO
        out = [P_ZERO] * (len(a) + len(b) - 1)
        for i, r in enumerate(a):
            if r.re:
                for j, s in enumerate(b, i):
                    out[j] = out[j] + r * s
        return BiPolynomial(out)

    def scale(self, value) -> "BiPolynomial":
        c = NuPolynomial.constant(value)
        return BiPolynomial([r * c for r in self.rows])

    def x_degree(self) -> int:
        return len(self.rows) - 1

    def x_coefficient(self, n: int) -> NuPolynomial:
        """Coefficient of x^n as a polynomial in delta."""
        return self.rows[n] if 0 <= n < len(self.rows) else P_ZERO

    def shift_x(self, h: int) -> "BiPolynomial":
        """Exact substitution x -> x + h, by synthetic division (Horner's Taylor shift)."""
        rows = list(self.rows)
        if h:
            # the callers shift by +1 and -1: add or subtract without multiplying
            step = operator.add if h == 1 else operator.sub if h == -1 else lambda p, q: p + q * h
            top = len(rows) - 1
            for i in range(top):
                for j in range(top - 1, i - 1, -1):
                    rows[j] = step(rows[j], rows[j + 1])
        return BiPolynomial(rows)

    def flip_delta(self) -> "BiPolynomial":
        """Exact substitution delta -> -delta."""
        return BiPolynomial([r.flip_nu() for r in self.rows])

    def __str__(self) -> str:
        def monomial(xd: int, dd: int) -> str:
            x = "" if not xd else "x" if xd == 1 else f"x^{xd}"
            d = "" if not dd else "d" if dd == 1 else f"d^{dd}"
            return "*".join(part for part in (x, d) if part)

        return format_terms(
            (
                (str(c), monomial(xd, dd))
                for xd in reversed(range(len(self.rows)))
                for dd, c in enumerate(self.rows[xd].coeffs)
                if not c.is_zero
            ),
            lambda text: "/" in text or "i" in text,
        )


BP_ZERO = BiPolynomial()
BP_ONE = BiPolynomial((P_ONE,))
BP_X = BiPolynomial((P_ZERO, P_ONE))
BP_DELTA = BiPolynomial((P_NU,))


########################################################################
#   Monomial basis
########################################################################


def monomial_basis(n: int) -> BiPolynomial:
    """f_n = x^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return BiPolynomial((P_ZERO,) * n + (P_ONE,))


def monomial_lowering(p: BiPolynomial) -> BiPolynomial:
    """Differential-difference lowering: acts termwise as x^n -> [n]_delta x^(n-1).

    Implemented on coefficients (never dividing by x): the derivative part
    contributes n*x^(n-1), the parity part 2*delta*x^(n-1) for odd n.
    """
    return BiPolynomial([row * NuPolynomial((xd, 2 * (xd % 2))) for xd, row in enumerate(p.rows) if xd])


def monomial_raising(p: BiPolynomial) -> BiPolynomial:
    """Multiplication by x."""
    return BP_X * p


def monomial_number(p: BiPolynomial) -> BiPolynomial:
    """x d/dx, termwise x^n -> n x^n."""
    return BiPolynomial([row * xd for xd, row in enumerate(p.rows)])


########################################################################
#   Parity-graded quasi-polynomial basis
########################################################################


class QuasiPolyBasis(NamedTuple):
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
        factor = BiPolynomial((NuPolynomial((-k, -((-1) ** k))), P_ONE))  # x - k - delta*(-1)^k
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
    """Linear extension of R phi_n = (-1)^n phi_n (grading-reconstructed); phi_n has x-degree n."""
    return apply_basis_linear(lambda phi: phi.scale((-1) ** phi.x_degree()), f, basis)


def apply_basis_linear(raw_op, f: BiPolynomial, basis: QuasiPolyBasis) -> BiPolynomial:
    """Apply a coordinate operator by linear extension over the phi basis.

    The delta-flip inside the shift operators makes raw composition
    semilinear in delta: substituting into a phi-coefficient like [n] flips
    its sign term.  Operators on the span are therefore defined by their
    action on basis functions with delta-polynomial coefficients passing
    through unchanged, which is what makes the commutator close on
    (1 + 2 delta R).
    """
    return _linear_extension(lambda n: raw_op(basis.phi(n)), phi_coefficients(f, basis))


def _linear_extension(image, coeffs: List[NuPolynomial]) -> BiPolynomial:
    """sum of image(n) * c_n over the nonzero phi-coefficients c_n; image(n) is an operator's image of phi_n."""
    out = BP_ZERO
    for n, c in enumerate(coeffs):
        if c.is_zero:
            continue
        out = out + image(n) * BiPolynomial.from_delta_poly(c)
    return out


########################################################################
#   Audits
########################################################################


def _poly_family_report(relation_id, pairs, caveat=None) -> AlgebraReport:
    """Exact equality of (lhs, rhs) BiPolynomial pairs indexed by n."""
    witness = next((Witness(n, 0, str(rhs), str(lhs)) for n, lhs, rhs in pairs if lhs != rhs), None)
    return exact_report(relation_id, witness, caveat)


def audit_realizations(max_n: int, basis: Optional[QuasiPolyBasis] = None) -> List[AlgebraReport]:
    """Verify both coordinate realizations for all n <= max_n, exactly.

    ``basis`` (built when not given) must reach phi_(max_n+1).
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if basis is None:
        basis = build_quasi_basis(max_n + 1)
    ns = range(max_n + 1)
    phi = basis.polys
    lowered = [quasi_lowering(phi[n]) for n in ns]
    raised = [quasi_raising(phi[n]) for n in ns]
    # the linear extensions of a and adag read the images above, and a phi_(max_n+1)
    lowered_coeffs = [phi_coefficients(f, basis) for f in lowered]
    lowered_raised = [_linear_extension(raised.__getitem__, coeffs) for coeffs in lowered_coeffs]
    lowered_images = lowered + [quasi_lowering(phi[max_n + 1])]
    delta_reflected = [BP_DELTA * grading_reflection(phi[n], basis) for n in ns]
    iterated = [BP_ONE]
    for _ in ns[1:]:
        iterated.append(quasi_raising(iterated[-1]))
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
                    lowered[n],
                    BiPolynomial.from_delta_poly(deformed_number(n)) * phi[n - 1] if n >= 1 else BP_ZERO,
                )
                for n in ns
            ],
        ),
        _poly_family_report(
            f"quasi: adag phi_n = phi_(n+1) (n<={max_n})",
            [(n, raised[n], phi[n + 1]) for n in ns],
        ),
        _poly_family_report(
            f"quasi: (adag)^n 1 = phi_n (n<={max_n})",
            [(n, iterated[n], phi[n]) for n in ns],
        ),
        _poly_family_report(
            f"quasi: [a,adag] phi_n = (1 + 2 delta R) phi_n (n<={max_n})",
            [
                (
                    n,
                    _linear_extension(lowered_images.__getitem__, phi_coefficients(raised[n], basis))
                    - lowered_raised[n],
                    phi[n] + delta_reflected[n].scale(2),
                )
                for n in ns
            ],
            caveat="reflection operator reconstructed from the grading R phi_n = (-1)^n phi_n",
        ),
        _poly_family_report(
            f"quasi: N phi_n = n phi_n with N = adag a - delta + delta R (n<={max_n})",
            [
                (n, lowered_raised[n] - BP_DELTA * phi[n] + delta_reflected[n], phi[n].scale(n))
                for n in ns
            ],
            caveat="reflection operator reconstructed from the grading R phi_n = (-1)^n phi_n",
        ),
    ]
    reports.append(realization_matrix_consistency(max_n, lowered_coeffs))
    return reports


def realization_matrix_consistency(max_n: int, lowered_coeffs: List[List[NuPolynomial]]) -> AlgebraReport:
    """Both realizations reproduce the abstract ladder matrix elements.

    The basis-function coefficients [n] equal the square of the abstract
    entries sqrt([n]) once the radical is squared, for every n <= max_n;
    ``lowered_coeffs[n]`` holds the phi-coefficients of the image a phi_n.
    """
    relation_id = f"realizations match abstract ladder entries after squaring (n<={max_n})"
    for n in range(1, max_n + 1):
        root = ladder_level(n).root
        abstract_sq = root * root
        expected = RadicalSum.from_polynomial(deformed_number(n))
        monomial_coeff = monomial_lowering(monomial_basis(n)).x_coefficient(n - 1)
        coeffs = lowered_coeffs[n]
        # an image of x-degree below n - 1 has no phi_(n-1) coefficient: read it as zero
        quasi_coeff = coeffs[n - 1] if n <= len(coeffs) else NuPolynomial.zero()
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
