import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wigneralg import realizations
from wigneralg.realizations import (
    BP_DELTA,
    BP_ZERO,
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
    realization_matrix_consistency,
)
from wigneralg.reports import Verdict
from wigneralg.scalars import GR_ZERO, GaussianRational, NuPolynomial, deformed_number, format_terms


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


@pytest.mark.parametrize("change", [lambda f: f.scale(2), lambda f: BP_ZERO], ids=["doubled", "zero"])
def test_matrix_consistency_fails_at_a_wrong_image(change):
    # a phi_3 doubled, or zero and so with no phi_2 coefficient at all
    basis = build_quasi_basis(6)
    lowered = [quasi_lowering(basis.polys[n]) for n in range(6)]
    lowered[3] = change(lowered[3])
    report = realization_matrix_consistency(5, [phi_coefficients(f, basis) for f in lowered])
    assert report.verdict is Verdict.FAIL
    assert report.witness.row == 3


def reference_audit(max_n):
    """audit_realizations with every linear extension taken by apply_basis_linear, each image computed anew."""
    basis = build_quasi_basis(max_n + 1)
    raising, lowering = realizations.quasi_raising, realizations.quasi_lowering
    ns = range(max_n + 1)
    phi = basis.polys
    lowered = [lowering(phi[n]) for n in ns]
    raised = [raising(phi[n]) for n in ns]
    lowered_raised = [apply_basis_linear(raising, lowered[n], basis) for n in ns]
    reflected = [BP_DELTA * grading_reflection(phi[n], basis) for n in ns]
    iterated = [BiPolynomial.one()]
    for _ in ns[1:]:
        iterated.append(raising(iterated[-1]))
    caveat = "reflection operator reconstructed from the grading R phi_n = (-1)^n phi_n"
    family = realizations._poly_family_report
    numbers = [BiPolynomial.from_delta_poly(deformed_number(n)) for n in ns]
    return [
        family(
            f"monomial: a f_n = [n] f_(n-1) (n<={max_n}, delta=nu)",
            [
                (n, monomial_lowering(monomial_basis(n)), numbers[n] * monomial_basis(n - 1) if n else BP_ZERO)
                for n in ns
            ],
        ),
        family(
            f"monomial: adag f_n = f_(n+1) (n<={max_n})",
            [(n, monomial_raising(monomial_basis(n)), monomial_basis(n + 1)) for n in ns],
        ),
        family(
            f"monomial: N f_n = n f_n (n<={max_n})",
            [(n, monomial_number(monomial_basis(n)), monomial_basis(n).scale(n)) for n in ns],
        ),
        family(
            f"quasi: a phi_n = [n] phi_(n-1) (n<={max_n}, delta=nu)",
            [(n, lowered[n], numbers[n] * phi[n - 1] if n else BP_ZERO) for n in ns],
        ),
        family(f"quasi: adag phi_n = phi_(n+1) (n<={max_n})", [(n, raised[n], phi[n + 1]) for n in ns]),
        family(f"quasi: (adag)^n 1 = phi_n (n<={max_n})", [(n, iterated[n], phi[n]) for n in ns]),
        family(
            f"quasi: [a,adag] phi_n = (1 + 2 delta R) phi_n (n<={max_n})",
            [
                (
                    n,
                    apply_basis_linear(lowering, raised[n], basis) - lowered_raised[n],
                    phi[n] + reflected[n].scale(2),
                )
                for n in ns
            ],
            caveat=caveat,
        ),
        family(
            f"quasi: N phi_n = n phi_n with N = adag a - delta + delta R (n<={max_n})",
            [(n, lowered_raised[n] - BP_DELTA * phi[n] + reflected[n], phi[n].scale(n)) for n in ns],
            caveat=caveat,
        ),
        realization_matrix_consistency(max_n, [phi_coefficients(f, basis) for f in lowered]),
    ]


@pytest.mark.parametrize(
    "planted, k",
    [(None, None), ("quasi_raising", 3), ("quasi_lowering", 5), ("quasi_lowering", 9)],
    ids=["none", "raising-phi3", "lowering-phi5", "lowering-phi9"],
)
def test_audit_realizations_matches_direct_linear_extensions(monkeypatch, planted, k):
    # the audit reuses its images of phi_n and its expansions of a phi_n; the
    # reference recomputes them, also with a wrong image (doubled) planted at
    # phi_k; phi_9 = phi_(max_n+1) is the one image a reaches outside the audit's own
    if planted is not None:
        op, phi_k = getattr(realizations, planted), build_quasi_basis(k).phi(k)
        monkeypatch.setattr(realizations, planted, lambda f: op(f).scale(2) if f == phi_k else op(f))
    got, want = audit_realizations(8), reference_audit(8)
    # a failing exact report's residual is NaN, which equals nothing: compare its repr
    assert [repr(r.as_dict()) for r in got] == [repr(r.as_dict()) for r in want]
    assert all(r.passed for r in got) is (planted is None)


def test_audit_realizations_reuses_its_images(monkeypatch):
    # each image of phi_n and each expansion of a phi_n is made once: images
    # computed anew in every linear extension made 46 raisings, 32 lowerings
    # and 63 expansions at max_n = 15
    counts = Counter()
    for name in ("quasi_raising", "quasi_lowering", "phi_coefficients"):
        fn = getattr(realizations, name)
        monkeypatch.setattr(realizations, name, lambda *args, fn=fn, name=name: counts.update([name]) or fn(*args))
    assert all(r.passed for r in audit_realizations(15))
    assert 0 < counts["quasi_raising"] <= 31
    assert 0 < counts["quasi_lowering"] <= 17
    assert 0 < counts["phi_coefficients"] <= 48


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


# ---------------------------------------------------------------- row form vs dict reference


class ReferenceBiPolynomial:
    """The dict-of-GaussianRational BiPolynomial the row form replaced."""

    def __init__(self, terms=()):
        self.terms = tuple(terms)

    @staticmethod
    def from_dict(data):
        return ReferenceBiPolynomial(sorted((k, c) for k, c in data.items() if not c.is_zero))

    def as_dict(self):
        return dict(self.terms)

    def __eq__(self, other):
        return self.terms == other.terms

    def __add__(self, other):
        data = self.as_dict()
        for key, c in other.terms:
            data[key] = data.get(key, GR_ZERO) + c
        return ReferenceBiPolynomial.from_dict(data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ReferenceBiPolynomial(tuple((k, -c) for k, c in self.terms))

    def __mul__(self, other):
        data = {}
        for (xa, da), ca in self.terms:
            for (xb, db), cb in other.terms:
                key = (xa + xb, da + db)
                data[key] = data.get(key, GR_ZERO) + ca * cb
        return ReferenceBiPolynomial.from_dict(data)

    def scale(self, value):
        c = GaussianRational.coerce(value)
        return ReferenceBiPolynomial.from_dict({k: v * c for k, v in self.terms})

    def x_degree(self):
        return max((k[0] for k, _ in self.terms), default=-1)

    def x_coefficient(self, n):
        if not self.terms:
            return NuPolynomial.zero()
        top = max((k[1] for k, _ in self.terms if k[0] == n), default=-1)
        coeffs = [GR_ZERO] * (top + 1)
        for (xd, dd), c in self.terms:
            if xd == n:
                coeffs[dd] = c
        return NuPolynomial.from_coeffs(coeffs)

    def shift_x(self, h):
        data = {}
        for (xd, dd), c in self.terms:
            for i in range(xd + 1):
                key = (i, dd)
                data[key] = data.get(key, GR_ZERO) + c * (math.comb(xd, i) * h ** (xd - i))
        return ReferenceBiPolynomial.from_dict(data)

    def flip_delta(self):
        return ReferenceBiPolynomial(
            tuple(sorted((k, c if k[1] % 2 == 0 else -c) for k, c in self.terms))
        )

    def __str__(self):
        def monomial(xd, dd):
            x = "" if not xd else "x" if xd == 1 else f"x^{xd}"
            d = "" if not dd else "d" if dd == 1 else f"d^{dd}"
            return "*".join(part for part in (x, d) if part)

        terms = sorted(self.terms, key=lambda t: (-t[0][0], t[0][1]))
        return format_terms(
            ((str(c), monomial(xd, dd)) for (xd, dd), c in terms),
            lambda text: "/" in text or "i" in text,
        )


gaussian_st = st.one_of(
    st.integers(-4, 4).map(GaussianRational.coerce),
    st.builds(lambda n, d: GaussianRational(Fraction(n, d)), st.integers(-4, 4), st.integers(1, 4)),
    st.builds(
        lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(1, 3),
    ),
)
bi_dict_st = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3)), gaussian_st, max_size=8
)


@st.composite
def bi_pair_st(draw):
    """Two coefficient dicts; the second may cancel some or all of the first."""
    a = draw(bi_dict_st)
    cancelled = draw(st.sets(st.sampled_from(sorted(a)), max_size=len(a))) if a else set()
    b = {k: -a[k] for k in cancelled}
    b.update(draw(bi_dict_st) if draw(st.booleans()) else {})
    return a, b


def assert_matches_bi_reference(p, ref):
    assert p.terms == ref.terms
    assert p.as_dict() == ref.as_dict()
    assert str(p) == str(ref)
    assert p.x_degree() == ref.x_degree()
    assert p.is_zero == (not ref.terms)
    for n in range(-1, ref.x_degree() + 2):
        assert p.x_coefficient(n) == ref.x_coefficient(n)
    # canonical rows: no trailing zero row
    assert not p.rows or not p.rows[-1].is_zero


@settings(max_examples=200, deadline=None)
@given(bi_pair_st(), gaussian_st)
def test_row_bipolynomial_matches_dict_reference(pair, factor):
    a_data, b_data = pair
    p, q = BiPolynomial.from_dict(a_data), BiPolynomial.from_dict(b_data)
    a, b = ReferenceBiPolynomial.from_dict(a_data), ReferenceBiPolynomial.from_dict(b_data)
    cases = [
        (p, a),
        (q, b),
        (p + q, a + b),
        (p - q, a - b),
        (p * q, a * b),
        (q * p, a * b),
        (-p, -a),
        (p.scale(factor), a.scale(factor)),
        (q.scale(0), b.scale(0)),
        (p.flip_delta(), a.flip_delta()),
    ]
    cases += [(p.shift_x(h), a.shift_x(h)) for h in range(-2, 3)]
    for value, ref in cases:
        assert_matches_bi_reference(value, ref)
    assert (p == q) == (a == b)
    assert (p + q == q) == (not a.terms)
    if a == b:
        assert hash(p) == hash(q)
    rebuilt = BiPolynomial.from_dict(p.as_dict())
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert (p - p) == BiPolynomial() and hash(p - p) == hash(BiPolynomial())
