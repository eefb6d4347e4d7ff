"""Exact scalar arithmetic in the deformation parameter nu.

Three nested rings:

* ``GaussianRational`` -- a + b*i with exact rational a, b,
* ``NuPolynomial``     -- polynomials in nu over the Gaussian rationals,
* ``RadicalSum``       -- finite sums  c(nu) * sqrt(p(nu))  with canonical
  real radicands; the entry type of every operator matrix.

Deformed numbers [n] = n + nu*(1 - (-1)^n) and their identities live here.
Numeric evaluation targets the domain nu > -1/2, where every in-scope
radicand is nonnegative.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Tuple, Union

from .errors import NegativeRadicandError
from .reports import AlgebraReport, Witness, exact_report

# Exact rational coefficients are plain stdlib fractions: always reduced,
# positive denominator, canonical 0/1 zero.
Rational = Fraction

ScalarLike = Union[int, Fraction, "GaussianRational"]

ZERO_TOL = 1e-12


class ParityClass(enum.Enum):
    EVEN = 0
    ODD = 1

    @classmethod
    def of(cls, n: int) -> "ParityClass":
        return cls(n % 2)

    @property
    def sign(self) -> int:
        return 1 if self is ParityClass.EVEN else -1


def parity(n: int) -> ParityClass:
    return ParityClass.of(n)


########################################################################
#   Gaussian rationals
########################################################################


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        if self.im == 0 and other.im == 0:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}*i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        im_part = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re}{sign}{im_part})"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))
GR_I = GaussianRational(Fraction(0), Fraction(1))
HALF = Fraction(1, 2)


########################################################################
#   Polynomials in nu
########################################################################


def format_terms(terms: Iterable[Tuple[str, str]], needs_parens: Callable[[str], bool]) -> str:
    """Signed sum of (coefficient text, monomial text) terms; "0" when there are none.

    An empty monomial prints the coefficient alone, a coefficient of 1 or -1
    prints the bare (negated) monomial, and any other coefficient is joined to
    its monomial by "*", parenthesized when ``needs_parens`` says so.
    """
    parts = []
    for text, mono in terms:
        if not mono:
            parts.append(text)
        elif text == "1":
            parts.append(mono)
        elif text == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"({text})*{mono}" if needs_parens(text) else f"{text}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


class NuPolynomial:
    """Polynomial in nu, coefficient k belongs to nu^k.

    Canonical form: no trailing zero coefficients; the zero polynomial is the
    empty tuple and reports degree -1.  Hashes are cached: polynomials key the
    radicand-merge dictionaries in every RadicalSum operation.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Tuple[GaussianRational, ...] = ()):
        self.coeffs = tuple(coeffs)
        self._hash = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, NuPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.coeffs)
            self._hash = h
        return h

    def __repr__(self) -> str:
        return f"NuPolynomial({self.coeffs!r})"

    @staticmethod
    def from_coeffs(values: Iterable[ScalarLike]) -> "NuPolynomial":
        coeffs = [GaussianRational.coerce(v) for v in values]
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        return NuPolynomial(tuple(coeffs))

    @staticmethod
    def zero() -> "NuPolynomial":
        return P_ZERO

    @staticmethod
    def one() -> "NuPolynomial":
        return P_ONE

    @staticmethod
    def nu() -> "NuPolynomial":
        return P_NU

    @staticmethod
    def constant(value: ScalarLike) -> "NuPolynomial":
        return NuPolynomial.from_coeffs([value])

    @staticmethod
    def coerce(value: Union["NuPolynomial", ScalarLike]) -> "NuPolynomial":
        if isinstance(value, NuPolynomial):
            return value
        return NuPolynomial.constant(value)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self.coeffs)

    def coefficient(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GR_ZERO

    def __add__(self, other) -> "NuPolynomial":
        other = NuPolynomial.coerce(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        n = max(len(self.coeffs), len(other.coeffs))
        return NuPolynomial.from_coeffs(
            self.coefficient(k) + other.coefficient(k) for k in range(n)
        )

    __radd__ = __add__

    def __sub__(self, other) -> "NuPolynomial":
        other = NuPolynomial.coerce(other)
        if not other.coeffs:
            return self
        return self + (-other)

    def __rsub__(self, other) -> "NuPolynomial":
        return NuPolynomial.coerce(other) - self

    def __neg__(self) -> "NuPolynomial":
        if not self.coeffs:
            return self
        return NuPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "NuPolynomial":
        other = NuPolynomial.coerce(other)
        if self.is_zero or other.is_zero:
            return P_ZERO
        a, b = self.coeffs, other.coeffs
        if len(a) == 1 and len(b) == 1:
            return NuPolynomial.from_coeffs([a[0] * b[0]])
        out = [GR_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return NuPolynomial.from_coeffs(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "NuPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = P_ONE
        for _ in range(exponent):
            result = result * self
        return result

    def conjugate(self) -> "NuPolynomial":
        return NuPolynomial(tuple(c.conjugate() for c in self.coeffs))

    def eval_complex(self, nu: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * nu + c.as_complex()
        return acc

    def __str__(self) -> str:
        return format_terms(
            (
                (str(c), "" if k == 0 else "nu" if k == 1 else f"nu^{k}")
                for k, c in enumerate(self.coeffs)
                if not c.is_zero
            ),
            lambda text: ("/" in text or "i" in text) and not text.startswith("("),
        )


P_ZERO = NuPolynomial()
P_ONE = NuPolynomial((GR_ONE,))
P_NU = NuPolynomial((GR_ZERO, GR_ONE))
P_TWO_NU = NuPolynomial((GR_ZERO, GaussianRational(Fraction(2))))
_ONE_COEFFS = P_ONE.coeffs


def deformed_number(n: int) -> NuPolynomial:
    """[n] = n for even n, n + 2*nu for odd n."""
    if n < 0:
        raise ValueError("deformed numbers are defined for n >= 0")
    if n % 2 == 0:
        return NuPolynomial.from_coeffs([n])
    return NuPolynomial.from_coeffs([n, 2])


def deformed_factorial(n: int) -> NuPolynomial:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("deformed factorials are defined for n >= 0")
    result = P_ONE
    for k in range(1, n + 1):
        result = result * deformed_number(k)
    return result


########################################################################
#   Radical sums
########################################################################


def _square_free_split(n: int) -> Tuple[int, int]:
    """n > 0 as u*u*w with w squarefree; returns (u, w)."""
    u, w, m = 1, 1, n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            u *= d ** (e // 2)
            if e % 2:
                w *= d
        d += 1 if d == 2 else 2
    return u, w * m


def _canonical_radicand(p: NuPolynomial) -> Tuple[Fraction, NuPolynomial]:
    """Rewrite sqrt(p) as mult * sqrt(q) with q canonical.

    Canonical radicands have integer coefficients with squarefree content and
    (in scope) positive leading coefficient; only integer square factors are
    moved out, polynomial squares stay under the root.
    """
    if not p.is_real:
        raise ValueError("radicands must have real coefficients")
    if p.is_zero:
        return Fraction(0), P_ZERO
    lcm = 1
    for c in p.coeffs:
        d = c.re.denominator
        lcm = lcm * d // math.gcd(lcm, d)
    ints = [int(c.re * lcm) for c in p.coeffs]
    content = 0
    for v in ints:
        content = math.gcd(content, v)
    sign = -1 if ints[-1] < 0 else 1
    primitive = [v // (sign * content) for v in ints]
    u1, w1 = _square_free_split(content)
    u2, w2 = _square_free_split(w1 * lcm)
    mult = Fraction(u1 * u2, lcm)
    canonical = NuPolynomial.from_coeffs([sign * w2 * v for v in primitive])
    return mult, canonical


def _radicand_sort_key(p: NuPolynomial):
    return (p.degree, tuple((c.re.numerator, c.re.denominator) for c in p.coeffs))


Term = Tuple[NuPolynomial, NuPolynomial]  # (coefficient polynomial, radicand)


@dataclass(frozen=True)
class RadicalSum:
    """Finite sum of terms c(nu)*sqrt(p(nu)) with canonical radicands.

    The empty term list is the unique zero.  Terms with radicand 1 carry the
    radical-free (polynomial) part of the value.  Equality is canonical-form
    equality; use :func:`radical_values_equal` when radicands may fail to
    merge.
    """

    terms: Tuple[Term, ...] = ()

    @staticmethod
    def _from_raw(raw: Iterable[Term]) -> "RadicalSum":
        merged: dict = {}
        for coeff, radicand in raw:
            if coeff.is_zero:
                continue
            mult, canonical = _canonical_radicand(radicand)
            if mult == 0:
                continue
            scaled = coeff * GaussianRational(mult)
            key = canonical
            if key in merged:
                merged[key] = merged[key] + scaled
            else:
                merged[key] = scaled
        terms = tuple(
            (coeff, rad)
            for rad, coeff in sorted(merged.items(), key=lambda kv: _radicand_sort_key(kv[0]))
            if not coeff.is_zero
        )
        return RadicalSum(terms)

    @staticmethod
    def zero() -> "RadicalSum":
        return R_ZERO

    @staticmethod
    def one() -> "RadicalSum":
        return R_ONE

    @staticmethod
    def from_polynomial(p: NuPolynomial) -> "RadicalSum":
        if p.is_zero:
            return R_ZERO
        return RadicalSum(((p, P_ONE),))

    @staticmethod
    def sqrt_poly(p: Union[NuPolynomial, ScalarLike]) -> "RadicalSum":
        """sqrt of a real polynomial, canonicalized on construction."""
        return RadicalSum._from_raw([(P_ONE, NuPolynomial.coerce(p))])

    @staticmethod
    def coerce(value) -> "RadicalSum":
        if isinstance(value, RadicalSum):
            return value
        if isinstance(value, NuPolynomial):
            return RadicalSum.from_polynomial(value)
        return RadicalSum.from_polynomial(NuPolynomial.coerce(value))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other) -> "RadicalSum":
        other = RadicalSum.coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        merged: dict = {rad: coeff for coeff, rad in self.terms}
        for coeff, rad in other.terms:
            if rad in merged:
                merged[rad] = merged[rad] + coeff
            else:
                merged[rad] = coeff
        terms = tuple(
            (coeff, rad)
            for rad, coeff in sorted(merged.items(), key=lambda kv: _radicand_sort_key(kv[0]))
            if not coeff.is_zero
        )
        return RadicalSum(terms)

    __radd__ = __add__

    def __sub__(self, other) -> "RadicalSum":
        other = RadicalSum.coerce(other)
        if other.is_zero:
            return self
        return self + (-other)

    def __rsub__(self, other) -> "RadicalSum":
        return RadicalSum.coerce(other) - self

    def __neg__(self) -> "RadicalSum":
        if not self.terms:
            return self
        return RadicalSum(tuple((-c, r) for c, r in self.terms))

    def __mul__(self, other) -> "RadicalSum":
        other = RadicalSum.coerce(other)
        if not self.terms or not other.terms:
            return R_ZERO
        # stored radicands are already canonical, so only genuinely mixed
        # radicand products need re-canonicalization
        merged: dict = {}
        for c1, r1 in self.terms:
            for c2, r2 in other.terms:
                if r1 == r2:
                    # sqrt(p)*sqrt(p) = p, valid on the nu > -1/2 domain
                    # where in-scope radicands are nonnegative.
                    coeff = c1 * c2
                    if r1.coeffs != _ONE_COEFFS:
                        coeff = coeff * r1
                    rad = P_ONE
                elif r1.coeffs == _ONE_COEFFS:
                    coeff, rad = c1 * c2, r2
                elif r2.coeffs == _ONE_COEFFS:
                    coeff, rad = c1 * c2, r1
                else:
                    mult, rad = _canonical_radicand(r1 * r2)
                    coeff = c1 * c2 * GaussianRational(mult)
                if rad in merged:
                    merged[rad] = merged[rad] + coeff
                else:
                    merged[rad] = coeff
        terms = tuple(
            (coeff, rad)
            for rad, coeff in sorted(merged.items(), key=lambda kv: _radicand_sort_key(kv[0]))
            if not coeff.is_zero
        )
        return RadicalSum(terms)

    __rmul__ = __mul__

    def conjugate(self) -> "RadicalSum":
        return RadicalSum(tuple((c.conjugate(), r) for c, r in self.terms))

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self.terms)

    def polynomial_part(self) -> NuPolynomial:
        for coeff, rad in self.terms:
            if rad == P_ONE:
                return coeff
        return P_ZERO

    def max_radicand_degree(self) -> int:
        return max((rad.degree for _, rad in self.terms), default=-1)

    def __str__(self) -> str:
        def term(coeff: NuPolynomial, rad: NuPolynomial) -> Tuple[str, str]:
            if rad != P_ONE:
                return str(coeff), f"sqrt({rad})"
            return (str(coeff) if len(coeff.coeffs) == 1 else f"({coeff})"), ""

        return format_terms(
            (term(coeff, rad) for coeff, rad in self.terms),
            lambda text: " " in text or "/" in text or "i" in text,
        )


R_ZERO = RadicalSum()
R_ONE = RadicalSum(((P_ONE, P_ONE),))


########################################################################
#   Numeric evaluation and the zero-test fallback
########################################################################


def numeric_eval(value: Union[NuPolynomial, RadicalSum], nu: float) -> complex:
    """Evaluate at a real nu; radicands must be nonnegative up to tolerance."""
    if isinstance(value, NuPolynomial):
        return value.eval_complex(nu)
    if not isinstance(value, RadicalSum):
        raise TypeError(f"cannot evaluate {value!r}")
    total = 0j
    for coeff, rad in value.terms:
        r = rad.eval_complex(nu).real
        scale = sum(abs(c.as_complex()) for c in rad.coeffs) * max(1.0, abs(nu)) ** max(
            rad.degree, 0
        )
        if r < -ZERO_TOL * (1.0 + scale):
            raise NegativeRadicandError(
                f"radicand {rad} evaluates to {r} at nu={nu}"
            )
        total += coeff.eval_complex(nu) * math.sqrt(max(r, 0.0))
    return total


def _fallback_points(count: int) -> list:
    return [0.5 + k for k in range(max(count, 2))]


def radical_values_equal(a: RadicalSum, b: RadicalSum, tol: float = ZERO_TOL):
    """Compare two radical sums; returns (status, max_residual).

    status is "exact" when the canonical difference is the empty sum,
    "numeric" when radicands failed to merge but the difference vanishes at
    (max radicand degree + 2) sample points, "different" otherwise.
    """
    diff = a - b
    if diff.is_zero:
        return "exact", 0.0
    points = _fallback_points(diff.max_radicand_degree() + 2)
    worst = 0.0
    for nu in points:
        value = abs(numeric_eval(diff, nu))
        scale = 1.0 + abs(numeric_eval(a, nu)) + abs(numeric_eval(b, nu))
        worst = max(worst, value)
        if value > tol * scale:
            return "different", worst
    return "numeric", worst


########################################################################
#   Deformed-number identities
########################################################################


def check_pair_identities(n: int) -> AlgebraReport:
    """[n] + [n+1] = 2n+1+2nu  and  [n+2] - [n] = 2, exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pairs = (
        (deformed_number(n) + deformed_number(n + 1), NuPolynomial.from_coeffs([2 * n + 1, 2])),
        (deformed_number(n + 2) - deformed_number(n), NuPolynomial.constant(2)),
    )
    return exact_report(
        f"numbers: [n]+[n+1]=2n+1+2nu and [n+2]-[n]=2 (n={n})",
        next((Witness(n, 0, str(rhs), str(lhs)) for lhs, rhs in pairs if lhs != rhs), None),
    )


def _cross_identity_closed_form(m: int, n: int) -> NuPolynomial:
    sm = parity(m).sign
    sn = parity(n).sign
    return NuPolynomial.from_coeffs(
        [
            m - n,
            -(2 * n + 1) * sm + (2 * m + 1) * sn,
            -2 * (sm - sn),
        ]
    )


def _cross_identity_piecewise(m: int, n: int) -> NuPolynomial:
    pm, pn = parity(m), parity(n)
    if pn is ParityClass.EVEN and pm is ParityClass.EVEN:
        return NuPolynomial.from_coeffs([m - n, 2 * (m - n)])
    if pn is ParityClass.EVEN and pm is ParityClass.ODD:
        return NuPolynomial.from_coeffs([m - n, 2 * (m + n + 1), 4])
    if pn is ParityClass.ODD and pm is ParityClass.EVEN:
        return NuPolynomial.from_coeffs([m - n, -2 * (m + n + 1), -4])
    return NuPolynomial.from_coeffs([m - n, -2 * (m - n)])


def check_cross_identity(m: int, n: int) -> AlgebraReport:
    """[m][n+1] - [n][m+1] against the signed closed form and the four-case split.

    Three-way agreement as exact polynomials; any sign typo in either closed
    form shows up as a FAIL with the expanded product as witness.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    relation_id = f"numbers: [m][n+1]-[n][m+1] closed and piecewise forms (m={m},n={n})"
    direct = deformed_number(m) * deformed_number(n + 1) - deformed_number(n) * deformed_number(
        m + 1
    )
    for name, candidate in (
        ("closed form", _cross_identity_closed_form(m, n)),
        ("piecewise form", _cross_identity_piecewise(m, n)),
    ):
        if direct != candidate:
            return exact_report(
                relation_id,
                Witness(m, n, str(candidate), str(direct)),
                f"{name} disagrees with the direct expansion",
            )
    return exact_report(relation_id)
