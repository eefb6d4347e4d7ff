"""Exact scalar arithmetic in the deformation parameter nu.

Three nested rings:

* ``GaussianRational`` -- a + b*i with exact rational a, b,
* ``NuPolynomial``     -- polynomials in nu over the Gaussian rationals,
  stored as integer numerators over one common denominator, real and
  imaginary parts apart, so its arithmetic runs on plain ints,
* ``RadicalSum``       -- finite sums  c(nu) * sqrt(p(nu))  with canonical,
  squarefree real radicands; the entry type of every operator matrix.

Deformed numbers [n] = n + nu*(1 - (-1)^n) and their identities live here.
Numeric evaluation targets the domain nu > -1/2, where every in-scope
radicand is nonnegative.
"""

from __future__ import annotations

import enum
import math
import threading
import weakref
from fractions import Fraction
from typing import Callable, Dict, Iterable, NamedTuple, Tuple, Union

from .errors import NegativeRadicandError
from .reports import AlgebraReport, Value, Witness, exact_report

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


class GaussianRational(Value):
    """re + im*i with rational parts; an immutable value type, equal only to Gaussian rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)) -> None:
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

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


def _reduced(re: Tuple[int, ...], im: Tuple[int, ...], den: int) -> "NuPolynomial":
    """The polynomial (re + i*im)/den from numerators without trailing zeros.

    Divides out gcd(den, all numerators); ``im`` must be empty or as long as ``re``.
    """
    if den != 1:
        g = math.gcd(den, *re, *im)
        if g != 1:
            re = tuple(v // g for v in re)
            im = tuple(v // g for v in im)
            den //= g
    return _poly(re, im, den)


def _stripped(re: list, im: list, den: int) -> "NuPolynomial":
    """Like `_reduced`, for numerator lists that may end in zero coefficients."""
    n = len(re)
    if im:
        while n and not re[n - 1] and not im[n - 1]:
            n -= 1
        im = tuple(im[:n]) if any(im[:n]) else ()
    else:
        while n and not re[n - 1]:
            n -= 1
        im = ()
    if not n:
        return P_ZERO
    return _reduced(tuple(re[:n]), im, den)


def _convolve(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    if len(a) == 1:
        x = a[0]
        return tuple([x * y for y in b])
    if len(b) == 1:
        y = b[0]
        return tuple([x * y for x in a])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


class NuPolynomial:
    """Polynomial in nu over the Gaussian rationals; coefficient k belongs to nu^k.

    Stored as integer numerators over one denominator: coefficient k is
    ``(re[k] + i*im[k]) / den``.  The form is canonical, so equality and
    hashing compare ``(re, im, den)``:

    * ``re`` has one numerator per coefficient and the top coefficient is
      nonzero, so the zero polynomial is ``re == ()`` with degree -1;
    * ``im`` is empty for a real polynomial, otherwise as long as ``re`` with
      some nonzero entry;
    * ``den > 0`` and gcd(den, every numerator) == 1.

    Arithmetic runs on plain ints.  ``coeffs`` is a tuple of
    ``GaussianRational`` built on each access, for printing and export.
    Hashes are cached: polynomials key the radicand-merge dictionaries in
    every RadicalSum operation.  An immutable value type: assignment and
    deletion raise, so a cached hash never goes stale.
    """

    __slots__ = ("re", "im", "den", "_hash")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        values = list(coeffs)
        if all(type(v) is int for v in values):
            p = _stripped(values, [], 1)
        else:
            values = [GaussianRational.coerce(v) for v in values]
            den = math.lcm(*(part.denominator for c in values for part in (c.re, c.im)))
            re = [c.re.numerator * (den // c.re.denominator) for c in values]
            im = [c.im.numerator * (den // c.im.denominator) for c in values]
            p = _stripped(re, im if any(im) else [], den)
        for name, value in zip(NuPolynomial.__slots__, (p.re, p.im, p.den, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):  # immutable value type
        raise AttributeError("NuPolynomial is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _poly, (self.re, self.im, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NuPolynomial):
            return NotImplemented
        return self.re == other.re and self.den == other.den and self.im == other.im

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.re, self.im, self.den))
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        return f"NuPolynomial({self.coeffs!r})"

    @property
    def coeffs(self) -> Tuple[GaussianRational, ...]:
        """The coefficients, nu-ascending, as reduced Gaussian rationals."""
        return tuple(self.coefficient(k) for k in range(len(self.re)))

    @staticmethod
    def from_coeffs(values: Iterable[ScalarLike]) -> "NuPolynomial":
        return NuPolynomial(values)

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
        if type(value) is int:
            return _poly((value,), (), 1) if value else P_ZERO
        return NuPolynomial((value,))

    @staticmethod
    def coerce(value: Union["NuPolynomial", ScalarLike]) -> "NuPolynomial":
        if isinstance(value, NuPolynomial):
            return value
        return NuPolynomial.constant(value)

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    @property
    def is_zero(self) -> bool:
        return not self.re

    @property
    def is_real(self) -> bool:
        return not self.im

    def coefficient(self, k: int) -> GaussianRational:
        if not 0 <= k < len(self.re):
            return GR_ZERO
        im = Fraction(self.im[k], self.den) if self.im else Fraction(0)
        return GaussianRational(Fraction(self.re[k], self.den), im)

    def __add__(self, other) -> "NuPolynomial":
        return _signed_sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "NuPolynomial":
        return _signed_sum(self, other, -1)

    def __rsub__(self, other) -> "NuPolynomial":
        return NuPolynomial.coerce(other) - self

    def __neg__(self) -> "NuPolynomial":
        if not self.re:
            return self
        im = self.im
        return _poly(tuple([-v for v in self.re]), tuple([-v for v in im]) if im else im, self.den)

    def __mul__(self, other) -> "NuPolynomial":
        if not isinstance(other, NuPolynomial):
            other = NuPolynomial.coerce(other)
        a, b = self.re, other.re
        if not a or not b:
            return P_ZERO
        ai, bi = self.im, other.im
        if a == (1,) and not ai and self.den == 1:
            return other
        if b == (1,) and not bi and other.den == 1:
            return self
        den = self.den * other.den
        if not ai and not bi:
            re = _convolve(a, b)
            return _poly(re, (), 1) if den == 1 else _reduced(re, (), den)
        if not bi:
            re, im = _convolve(a, b), _convolve(ai, b)
        elif not ai:
            re, im = _convolve(a, b), _convolve(a, bi)
        else:
            rr, ii = _convolve(a, b), _convolve(ai, bi)
            ri, ir = _convolve(a, bi), _convolve(ai, b)
            re = tuple([x - y for x, y in zip(rr, ii)])
            im = tuple([x + y for x, y in zip(ri, ir)])
            if not any(im):
                im = ()
        # Gaussian integers have no zero divisors: the top coefficient is nonzero
        return _reduced(re, im, den)

    __rmul__ = __mul__

    def conjugate(self) -> "NuPolynomial":
        if not self.im:
            return self
        return _poly(self.re, tuple(-v for v in self.im), self.den)

    def flip_nu(self) -> "NuPolynomial":
        """p(-nu): the odd numerators negated."""
        re, im = list(self.re), list(self.im)
        re[1::2] = [-v for v in re[1::2]]
        im[1::2] = [-v for v in im[1::2]]
        return _poly(tuple(re), tuple(im), self.den)

    def eval_complex(self, nu: complex) -> complex:
        # int / int is correctly rounded, so each coefficient is float() of
        # the reduced fraction
        den = self.den
        acc = 0j
        if self.im:
            for r, i in zip(reversed(self.re), reversed(self.im)):
                acc = acc * nu + complex(r / den, i / den)
        else:
            for r in reversed(self.re):
                acc = acc * nu + complex(r / den, 0.0)
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


def _signed_sum(p: NuPolynomial, q, sign: int) -> NuPolynomial:
    """p + sign*q for sign 1 or -1, in one pass over the numerators."""
    if not isinstance(q, NuPolynomial):
        q = NuPolynomial.coerce(q)
    if not q.re:
        return p
    if not p.re:
        return q if sign == 1 else -q
    den, d2 = p.den, q.den
    f1, f2 = 1, sign
    if den != d2:
        g = math.gcd(den, d2)
        f1, f2 = d2 // g, sign * (den // g)
        den *= f1
    re = _scaled_sum(p.re, f1, q.re, f2)
    im = []
    if p.im or q.im:
        im = _scaled_sum(p.im, f1, q.im, f2)
        im += [0] * (len(re) - len(im))
    return _stripped(re, im, den)


def _scaled_sum(a: Tuple[int, ...], fa: int, b: Tuple[int, ...], fb: int) -> list:
    """a*fa + b*fb coefficientwise, as long as the longer of a and b."""
    if len(a) < len(b):
        a, fa, b, fb = b, fb, a, fa
    out = [v * fa for v in a] if fa != 1 else list(a)
    for k, v in enumerate(b):
        out[k] += v * fb
    return out


_set_hash = NuPolynomial._hash.__set__


class _Unsealed:
    """NuPolynomial's slots without its immutability: :func:`_poly` fills one, then makes it a NuPolynomial."""

    __slots__ = NuPolynomial.__slots__


def _poly(re: Tuple[int, ...], im: Tuple[int, ...], den: int) -> NuPolynomial:
    """A NuPolynomial from numerators already in canonical form.

    Plain stores into an unsealed twin and one class switch cost less than
    a write through ``object.__setattr__`` per slot (this is the hot path).
    """
    p = object.__new__(_Unsealed)
    p.re, p.im, p.den, p._hash = re, im, den, None
    p.__class__ = NuPolynomial
    return p


P_ZERO = _poly((), (), 1)
P_ONE = _poly((1,), (), 1)
P_MINUS_ONE = _poly((-1,), (), 1)
P_NU = _poly((0, 1), (), 1)
P_TWO_NU = _poly((0, 2), (), 1)
P_I = _poly((0,), (1,), 1)


def deformed_number(n: int) -> NuPolynomial:
    """[n] = n for even n, n + 2*nu for odd n."""
    if n < 0:
        raise ValueError("deformed numbers are defined for n >= 0")
    if n % 2 == 0:
        return NuPolynomial.constant(n)
    return _poly((n, 2), (), 1)


class LadderLevel(NamedTuple):
    root: "RadicalSum"  # sqrt([n])
    n: "RadicalSum"  # the level value n


_LEVELS: Dict[int, LadderLevel] = {}


def ladder_level(n: int) -> LadderLevel:
    """sqrt([n]) and n as radical sums, canonicalized once per n for the process.

    Every family reads its ladder entries here, so ``sqrt_poly`` runs once
    per level however many families of whatever size are built; radical
    sums are hash-consed, so the families hold the same objects either way.
    ``setdefault`` keeps the first level stored.
    """
    level = _LEVELS.get(n)
    if level is None:
        root = RadicalSum.sqrt_poly(deformed_number(n)) if n else R_ZERO
        level = _LEVELS.setdefault(n, LadderLevel(root, RadicalSum.from_polynomial(NuPolynomial.constant(n))))
    return level


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


def _canonical_radicand(p: NuPolynomial) -> Tuple[NuPolynomial, NuPolynomial]:
    """Rewrite sqrt(p) as mult * sqrt(q) with q canonical and mult a rational constant.

    Canonical radicands have integer coefficients with squarefree content and
    (in scope) positive leading coefficient; only integer square factors are
    moved out, polynomial squares stay under the root.
    """
    if p.im:
        raise ValueError("radicands must have real coefficients")
    re, den = p.re, p.den
    if not re:
        return P_ZERO, P_ZERO
    # p = (content/den) * primitive, and content/den = (u1*u2/den)^2 * w2
    content = math.gcd(*re)
    u1, w1 = _square_free_split(content)
    u2, w2 = _square_free_split(w1 * den)
    u = u1 * u2
    g = math.gcd(u, den)
    mult = _poly((u // g,), (), den // g)
    return mult, _poly(tuple(w2 * (v // content) for v in re), (), 1)


Term = Tuple[NuPolynomial, NuPolynomial]  # (coefficient polynomial, radicand)


def _radicand_sort_key(p: NuPolynomial):
    """(degree, numerators) of a canonical radicand: real, with denominator 1."""
    return len(p.re) - 1, p.re


def _merged(terms: Iterable[Term]) -> "RadicalSum":
    """The sum of (coefficient, canonical radicand) terms: like radicands merged, zeros dropped, sorted."""
    merged: dict = {}
    for coeff, rad in terms:
        merged[rad] = merged[rad] + coeff if rad in merged else coeff
    items = sorted(merged.items(), key=lambda kv: _radicand_sort_key(kv[0]))
    return RadicalSum(tuple([(coeff, rad) for rad, coeff in items if coeff.re]))


def _is_one(p: NuPolynomial) -> bool:
    return p.den == 1 and p.re == (1,) and not p.im


def _primitive(c: Tuple[int, ...]) -> Tuple[int, ...]:
    """Integer numerators divided by their content, with a positive leading coefficient."""
    g = math.gcd(*c)
    g = -g if c[-1] < 0 else g
    return tuple([v // g for v in c])


def _divide(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(q, r) with a = q*b + r, deg r < deg b, for integer polynomials whose quotient q is integral."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1] // b[-1]
        for i, v in enumerate(b):
            r[k + i] -= q[k] * v
    while r and not r[-1]:
        r.pop()
    return tuple(q), tuple(r)


def _primitive_gcd(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """gcd of two nonzero integer polynomials (nu-ascending), primitive, leading coefficient > 0."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        # pseudo-division: lead(b)^(deg a - deg b + 1) * a has an integral quotient
        scale = b[-1] ** (len(a) - len(b) + 1)
        _, r = _divide(tuple([v * scale for v in a]), b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return (1,)


def _shared_factor(a: Tuple[int, ...], b: Tuple[int, ...]):
    """The primitive gcd of two radicands' numerators when it is not constant, else None."""
    if len(a) == 1 or len(b) == 1:
        return None
    if len(a) == 2 and len(b) == 2:
        # linear radicands share a factor only when they are proportional
        return _primitive(a) if a[0] * b[1] == a[1] * b[0] else None
    g = _primitive_gcd(a, b)
    return g if len(g) > 1 else None


def _term_product(c1: NuPolynomial, r1: NuPolynomial, c2: NuPolynomial, r2: NuPolynomial) -> Term:
    """c1*sqrt(r1) * c2*sqrt(r2) as one (coefficient, canonical radicand) term.

    Stored radicands are canonical and squarefree, so a shared factor g comes
    out whole: sqrt(g*a)*sqrt(g*b) = g*sqrt(a*b), and a*b is squarefree again.
    """
    if r1 == r2:
        # sqrt(p)*sqrt(p) = p, valid on the nu > -1/2 domain where in-scope
        # radicands are nonnegative.
        coeff = c1 * c2
        return (coeff if _is_one(r1) else coeff * r1), P_ONE
    if _is_one(r1):
        return c1 * c2, r2
    if _is_one(r2):
        return c1 * c2, r1
    g = _shared_factor(r1.re, r2.re)
    if g is None:
        mult, rad = _canonical_radicand(r1 * r2)
        return c1 * c2 * mult, rad
    # g divides a squarefree radicand that is nonnegative on nu > -1/2, so it
    # has no root there; with its leading coefficient > 0 it is positive there
    mult, rad = _canonical_radicand(_poly(_convolve(_divide(r1.re, g)[0], _divide(r2.re, g)[0]), (), 1))
    return c1 * c2 * _poly(g, (), 1) * mult, rad


class RadicalSum(Value):
    """Finite sum of terms c(nu)*sqrt(p(nu)) with canonical radicands.

    The empty term list is the unique zero.  Terms with radicand 1 carry the
    radical-free (polynomial) part of the value.  Every stored radicand is
    squarefree: `_from_raw` (behind `sqrt_poly` and `matrix_from_dict`)
    rejects a radicand with a repeated polynomial factor or a negative
    leading coefficient, and products pull a shared factor out of the root.
    Square roots of distinct squarefree radicands are linearly independent,
    so equal values have one form.

    Hash-consed: the constructor returns the one live object with the given
    ``terms`` (:data:`_INTERNED`), so equal values are one object, ``==`` is
    identity, and a copied, unpickled or recomputed value is the object
    already held: every zero is :data:`R_ZERO`.  The hash is that of the
    field tuple, ``hash((terms,))``, computed once.  The constructor takes
    ``terms`` as given; ``sqrt_poly``, ``coerce`` and ``from_polynomial``
    are the checked entry points.
    """

    __slots__ = ("terms", "_hash", "__weakref__")

    def __new__(cls, terms: Tuple[Term, ...] = ()) -> "RadicalSum":
        ref = _INTERNED_REFS.get(terms)
        if ref is not None:
            value = ref()
            if value is not None:
                return value
        value = object.__new__(cls)
        _set_terms(value, terms)
        _set_sum_hash(value, hash((terms,)))
        ref = _KeyedRef(value, _INTERNED._remove)
        ref.key = terms
        with _INTERN_LOCK:  # a thread that stored the value first wins
            held = _INTERNED_REFS.setdefault(terms, ref)
            if held is not ref:
                first = held()
                if first is not None:
                    return first
                _INTERNED_REFS[terms] = ref  # held died: its removal leaves a live reference in place
        return value

    __eq__ = object.__eq__  # one object per value

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def _from_raw(raw: Iterable[Term]) -> "RadicalSum":
        terms = []
        for coeff, radicand in raw:
            if coeff.is_zero:
                continue
            mult, canonical = _canonical_radicand(radicand)
            if not mult.re:
                continue
            re = canonical.re
            if re[-1] < 0:
                raise ValueError(f"radicands need a positive leading coefficient, got {radicand}")
            derivative = tuple([k * v for k, v in enumerate(re)][1:])
            if _shared_factor(re, derivative) is not None:  # gcd(p, p') is not constant
                raise ValueError(f"radicands must not have a repeated factor, got {radicand}")
            terms.append((coeff * mult, canonical))
        return _merged(terms)

    @staticmethod
    def zero() -> "RadicalSum":
        return R_ZERO

    @staticmethod
    def one() -> "RadicalSum":
        return R_ONE

    @staticmethod
    def from_polynomial(p: NuPolynomial) -> "RadicalSum":
        return RadicalSum(((p, P_ONE),)) if p.re else R_ZERO

    @staticmethod
    def sqrt_poly(p: Union[NuPolynomial, ScalarLike]) -> "RadicalSum":
        """sqrt of a real polynomial, canonicalized; ValueError for a repeated factor or a negative lead."""
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
        if not isinstance(other, RadicalSum):
            other = RadicalSum.coerce(other)
        t1, t2 = self.terms, other.terms
        if not t1:
            return other
        if not t2:
            return self
        if len(t1) == 1 and len(t2) == 1 and t1[0][1] == t2[0][1]:
            coeff = t1[0][0] + t2[0][0]
            return RadicalSum(((coeff, t1[0][1]),)) if coeff.re else R_ZERO
        return _merged(t1 + t2)

    __radd__ = __add__

    def __sub__(self, other) -> "RadicalSum":
        if self is other:
            return R_ZERO
        if not isinstance(other, RadicalSum):
            other = RadicalSum.coerce(other)
        t1, t2 = self.terms, other.terms
        if not t2:
            return self
        if t1 == t2:
            return R_ZERO
        if len(t1) == 1 and len(t2) == 1 and t1[0][1] == t2[0][1]:
            coeff = t1[0][0] - t2[0][0]
            return RadicalSum(((coeff, t1[0][1]),)) if coeff.re else R_ZERO
        return self + (-other)

    def __rsub__(self, other) -> "RadicalSum":
        return RadicalSum.coerce(other) - self

    def __neg__(self) -> "RadicalSum":
        if not self.terms:
            return self
        return RadicalSum(tuple([(-c, r) for c, r in self.terms]))

    def __mul__(self, other) -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            other = RadicalSum.coerce(other)
        if self is R_ONE:
            return other
        if other is R_ONE:
            return self
        if self is R_MINUS_ONE:
            return -other
        if other is R_MINUS_ONE:
            return -self
        t1, t2 = self.terms, other.terms
        if not t1 or not t2:
            return R_ZERO
        if len(t1) == 1 and len(t2) == 1:
            coeff, rad = _term_product(*t1[0], *t2[0])
            return RadicalSum(((coeff, rad),)) if coeff.re else R_ZERO
        return _merged(_term_product(c1, r1, c2, r2) for c1, r1 in t1 for c2, r2 in t2)

    __rmul__ = __mul__

    def conjugate(self) -> "RadicalSum":
        if self.is_real:
            return self
        return RadicalSum(tuple((c.conjugate(), r) for c, r in self.terms))

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c, _ in self.terms)

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
            return (str(coeff) if len(coeff.re) == 1 else f"({coeff})"), ""

        return format_terms(
            (term(coeff, rad) for coeff, rad in self.terms),
            lambda text: " " in text or "/" in text or "i" in text,
        )


class _KeyedRef(weakref.ref):
    """weakref.KeyedRef without its Python-level constructor: the key is set after construction."""

    __slots__ = ("key",)


# Every live RadicalSum under its terms; a miss is stored under the lock, so
# threads that build one value at once get one object.
_INTERNED: "weakref.WeakValueDictionary[Tuple[Term, ...], RadicalSum]" = weakref.WeakValueDictionary()
# its weak references by terms, read and written directly on the hot path
_INTERNED_REFS = _INTERNED.data
_INTERN_LOCK = threading.Lock()
_set_terms = RadicalSum.terms.__set__
_set_sum_hash = RadicalSum._hash.__set__

R_ZERO = RadicalSum()
R_ONE = RadicalSum(((P_ONE, P_ONE),))
R_MINUS_ONE = RadicalSum(((P_MINUS_ONE, P_ONE),))


########################################################################
#   Numeric evaluation and residuals
########################################################################


def _require_nu(nu: float) -> None:
    """ValueError unless nu lies in the domain of numeric evaluation: finite and > -1/2."""
    if not (math.isfinite(nu) and nu > -0.5):
        raise ValueError(f"numeric evaluation needs finite nu > -1/2, got {nu}")


def numeric_eval(value: Union[NuPolynomial, RadicalSum], nu: float) -> complex:
    """Evaluate at a real nu, finite and > -1/2; radicands must be nonnegative up to tolerance."""
    _require_nu(nu)
    if isinstance(value, NuPolynomial):
        return value.eval_complex(nu)
    if not isinstance(value, RadicalSum):
        raise TypeError(f"cannot evaluate {value!r}")
    total = 0j
    for coeff, rad in value.terms:
        r = rad.eval_complex(nu).real
        if r < 0.0:  # tolerated down to -ZERO_TOL * (1 + a bound on |radicand(nu)|)
            scale = sum(abs(v / rad.den) for v in rad.re) * max(1.0, abs(nu)) ** max(rad.degree, 0)
            if r < -ZERO_TOL * (1.0 + scale):
                raise NegativeRadicandError(f"radicand {rad} evaluates to {r} at nu={nu}")
        total += coeff.eval_complex(nu) * math.sqrt(max(r, 0.0))
    return total


def radical_values_equal(a: RadicalSum, b: RadicalSum):
    """Compare two radical sums; returns (status, max_residual).

    Canonical forms are complete, so status is "exact" (residual 0.0) when
    they are equal and "different" otherwise.  For a difference the residual
    |a - b| is sampled at nu = 0.5, 1.5, ... (max radicand degree + 2 points,
    at least 2), stopping at the first point above ``ZERO_TOL * (1 + |a| + |b|)``;
    it is what a failing report shows, not what decides.
    """
    diff = a - b
    if diff.is_zero:
        return "exact", 0.0
    worst = 0.0
    for k in range(max(diff.max_radicand_degree() + 2, 2)):
        nu = 0.5 + k
        value = abs(numeric_eval(diff, nu))
        scale = 1.0 + abs(numeric_eval(a, nu)) + abs(numeric_eval(b, nu))
        worst = max(worst, value)
        if value > ZERO_TOL * scale:
            break
    return "different", worst


########################################################################
#   Deformed-number identities
########################################################################


_PAIR_ID = "numbers: [n]+[n+1]=2n+1+2nu and [n+2]-[n]=2 (n={n})"
_CROSS_ID = "numbers: [m][n+1]-[n][m+1] closed and piecewise forms (m={m},n={n})"


def _pair_failure(n: int, dn: NuPolynomial, dn1: NuPolynomial, dn2: NuPolynomial):
    """:func:`check_pair_identities` (n) if it fails, else None; dn, dn1, dn2 are [n], [n+1], [n+2]."""
    for lhs, rhs in ((dn + dn1, _poly((2 * n + 1, 2), (), 1)), (dn2 - dn, _poly((2,), (), 1))):
        if lhs != rhs:
            return exact_report(_PAIR_ID.format(n=n), Witness(n, 0, str(rhs), str(lhs)))
    return None


def check_pair_identities(n: int) -> AlgebraReport:
    """[n] + [n+1] = 2n+1+2nu  and  [n+2] - [n] = 2, exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    failure = _pair_failure(n, *(deformed_number(k) for k in range(n, n + 3)))
    return failure or exact_report(_PAIR_ID.format(n=n))


def _cross_identity_closed_form(m: int, n: int) -> NuPolynomial:
    sm = 1 - 2 * (m & 1)
    sn = 1 - 2 * (n & 1)
    return _stripped([m - n, -(2 * n + 1) * sm + (2 * m + 1) * sn, -2 * (sm - sn)], [], 1)


def _cross_identity_piecewise(m: int, n: int) -> NuPolynomial:
    if not n & 1:
        if not m & 1:
            return _stripped([m - n, 2 * (m - n)], [], 1)
        return _stripped([m - n, 2 * (m + n + 1), 4], [], 1)
    if not m & 1:
        return _stripped([m - n, -2 * (m + n + 1), -4], [], 1)
    return _stripped([m - n, -2 * (m - n)], [], 1)


def _cross_failure(m: int, n: int, direct: NuPolynomial):
    """:func:`check_cross_identity` (m, n) if it fails, else None; ``direct`` is [m][n+1] - [n][m+1] expanded."""
    forms = (("closed form", _cross_identity_closed_form), ("piecewise form", _cross_identity_piecewise))
    for name, form in forms:
        candidate = form(m, n)
        if direct != candidate:
            return exact_report(
                _CROSS_ID.format(m=m, n=n),
                Witness(m, n, str(candidate), str(direct)),
                f"{name} disagrees with the direct expansion",
            )
    return None


def check_cross_identity(m: int, n: int) -> AlgebraReport:
    """[m][n+1] - [n][m+1] against the signed closed form and the four-case split.

    Three-way agreement as exact polynomials; any sign typo in either closed
    form shows up as a FAIL with the expanded product as witness.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    dm, dm1, dn, dn1 = (deformed_number(k) for k in (m, m + 1, n, n + 1))
    failure = _cross_failure(m, n, dm * dn1 - dn * dm1)
    return failure or exact_report(_CROSS_ID.format(m=m, n=n))
