"""Exact polynomials and the root finder against a companion-matrix oracle."""

from fractions import Fraction as F
from math import comb

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import minsurf4.poly as poly_module
from minsurf4.domains import derive_rng
from minsurf4.errors import RootsNotConverged
from minsurf4.poly import (
    Polynomial,
    clear_denominators,
    clear_point,
    format_poly,
    gcd,
    gcd_many,
    horner,
    multiplicity_at,
    parse_poly,
    roots,
    squarefree_decomposition,
    zi_multiplicity,
    zi_taylor,
)
from minsurf4.scalars import GaussianRational, as_scalar


def _random_poly(rng, max_deg=4, bound=4):
    deg = rng.randint(0, max_deg)
    coeffs = [
        GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
        for _ in range(deg + 1)
    ]
    return Polynomial(coeffs)


def test_normalization_and_degree():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert Polynomial([]).is_zero()
    assert Polynomial([0, 0]).is_zero()
    assert Polynomial([0, 0]).degree == -1
    assert Polynomial([3]).degree == 0


def test_arithmetic_examples():
    z = Polynomial.z()
    assert (z + 1) * (z - 1) == z * z - 1
    assert (z + 1) ** 2 == z * z + 2 * z + 1
    assert (z**3 - 1) / (z - 1) == z * z + z + 1


@pytest.mark.parametrize(
    "cls, base, one",
    [
        (Polynomial, Polynomial([GaussianRational(1, 2), 1]), Polynomial([1])),
        (GaussianRational, GaussianRational(F(1, 2), 1), GaussianRational(1)),
    ],
    ids=["polynomial", "scalar"],
)
def test_power_makes_no_wasted_product(cls, base, one, monkeypatch):
    """Repeated squaring with no square past the top bit and no product by
    1: x**n takes (bit length - 1) squares plus (one bits - 1) products."""
    mul = cls.__mul__
    products = []

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    expected = one
    for n in range(6):
        monkeypatch.setattr(cls, "__mul__", counting)
        products.clear()
        value = base**n
        monkeypatch.setattr(cls, "__mul__", mul)
        assert value == expected
        if n in (0, 1, 2, 5):
            assert len(products) == {0: 0, 1: 0, 2: 1, 5: 3}[n]
        expected = expected * base


def test_divmod_identity_random():
    rng = derive_rng(5, "poly-divmod")
    for _ in range(100):
        p = _random_poly(rng, max_deg=6)
        d = _random_poly(rng, max_deg=3)
        if d.is_zero():
            continue
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.is_zero() or r.degree < d.degree


def test_from_roots_and_eval():
    rng = derive_rng(9, "poly-roots-eval")
    for _ in range(50):
        rts = [
            GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)
        ]
        p = Polynomial.from_roots(rts)
        assert p.degree == 3
        for r in rts:
            assert p.eval(r) == GaussianRational(0)


def test_float_eval_converts_each_coefficient_once(monkeypatch):
    calls = []

    def counting(x):
        calls.append(x)
        return complex(x)

    monkeypatch.setattr(poly_module, "to_complex", counting)
    p = Polynomial([GaussianRational("1/2", 1), 3, GaussianRational(0, -1), GaussianRational("5/7")])
    values = {p.eval(0.3 + 0.4j) for _ in range(100)}
    assert len(calls) == len(p.coeffs) == 4
    assert values == {horner([0.5 + 1j, 3, -1j, 5 / 7], 0.3 + 0.4j)}
    p.eval(np.array([0.1j, 2.0]))
    assert p.to_complex_coeffs() == (0.5 + 1j, 3 + 0j, -1j, 5 / 7 + 0j)
    assert len(calls) == 4
    # exact points on exact data stay exact and convert nothing
    assert p.eval(GaussianRational(1)) == sum(p.coeffs, GaussianRational(0))
    assert len(calls) == 4


_parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_gaussian = st.builds(GaussianRational, _parts, _parts)


def _fraction_horner(coeffs, z):
    """sum c_k z^k by Horner's rule on (re, im) pairs of Fractions."""
    z = GaussianRational(z) if not isinstance(z, GaussianRational) else z
    ar = ai = F(0)
    for c in reversed(coeffs):
        ar, ai = ar * z.re - ai * z.im + c.re, ar * z.im + ai * z.re + c.im
    return ar, ai


@given(st.lists(_gaussian, max_size=6), st.one_of(_gaussian, _parts, st.integers(-5, 5)))
@example([], GaussianRational(F(1, 2), F(-2, 3)))
@example([0, 0], 3)
@example([GaussianRational(F(2, 3), -1)], F(-5, 4))
@example([1, GaussianRational(F(1, 3), 2), F(-7, 2)], GaussianRational(F(3, 4), F(5, 6)))
def test_exact_eval_matches_fraction_horner(coeffs, z):
    """Exact evaluation in Z[i] gives the value field arithmetic gives, for
    zero and constant polynomials too, at int, Fraction and Gaussian-rational
    points with denominators."""
    p = Polynomial(coeffs)
    value = p.eval(z)
    assert isinstance(value, GaussianRational)
    assert (value.re, value.im) == _fraction_horner(p.coeffs, z)


@pytest.mark.parametrize(
    "coeffs",
    [[], [GaussianRational(2, -1)], [1, GaussianRational("1/3", 2), 0, -4], [GaussianRational(0, 1), 3, GaussianRational(-2, 1)]],
)
def test_array_eval_matches_scalar_eval(coeffs):
    p = Polynomial(coeffs)
    z = np.array([0.0, 1.0, -0.7 + 0.2j, 1.3j, 2.5 - 1.5j])
    values = p.eval(z)
    assert isinstance(values, np.ndarray) and values.shape == z.shape
    assert values.dtype == complex
    for w, v in zip(z, values):
        assert v == pytest.approx(p.eval(complex(w)), rel=1e-15, abs=1e-15)
    grid = p.eval(z.reshape(5, 1) * np.array([1.0, -1.0]))
    assert grid.shape == (5, 2)
    assert np.allclose(grid[:, 0], values, rtol=1e-15, atol=0.0)


def test_eval_dispatch_rule():
    """An exact point runs exact Horner, a Python or numpy scalar gives a
    complex, and anything else is an array of points."""
    p = Polynomial([1, GaussianRational("1/3", 2), -4])
    z = np.array([0.5, -0.25j])
    assert p.eval(F(1, 2)) == p.eval(GaussianRational("1/2"))
    assert isinstance(p.eval(F(1, 2)), GaussianRational)
    for scalar in (0.5, 0.5 + 0j, np.float64(0.5), np.float32(0.5), np.complex64(0.5), np.int64(2)):
        assert type(p.eval(scalar)) is complex
        assert p.eval(scalar) == p.eval(complex(scalar))
    assert isinstance(p.eval(z), np.ndarray)
    # the zero polynomial over an array is all +0, with no signed zero
    zero = Polynomial([]).eval(np.array([-1.0 + 1j, 2.0 - 3j]))
    assert zero.dtype == complex and zero.shape == (2,)
    assert not np.signbit(zero.real).any() and not np.signbit(zero.imag).any()


def test_roots_simple_pair():
    p = parse_poly("(1)*z^2 + (1)")
    found = dict(roots(p))
    assert len(found) == 2
    vals = sorted(found, key=lambda z: z.imag)
    assert abs(vals[0] - (-1j)) < 1e-12
    assert abs(vals[1] - 1j) < 1e-12
    assert all(m == 1 for m in found.values())


def test_roots_triple():
    z = Polynomial.z()
    p = (z - 2) ** 3
    found = roots(p)
    assert len(found) == 1
    root, mult = found[0]
    assert mult == 3
    assert abs(root - 2.0) < 1e-8


def test_roots_raise_when_the_iteration_cap_is_reached(monkeypatch):
    # one Aberth sweep cannot bring the roots of z^3 + 1 from their spread
    # start on a circle of radius 2 to within 1e-14
    monkeypatch.setattr(poly_module, "ABERTH_MAXITER", 1)
    with pytest.raises(RootsNotConverged, match=r"degree-3 factor not converged after 1 Aberth iterations: last step "):
        roots(parse_poly("(1)*z^3 + (1)"))


def test_roots_against_companion_oracle():
    rng = derive_rng(17, "poly-companion")
    for _ in range(40):
        coeffs = [GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(6)]
        if not coeffs[-1]:
            coeffs[-1] = GaussianRational(1)
        p = Polynomial(coeffs)
        mine = sorted(
            (r for r, m in roots(p) for _ in range(m)),
            key=lambda z: (z.real, z.imag),
        )
        ref = sorted(
            np.roots(list(reversed(p.to_complex_coeffs()))),
            key=lambda z: (z.real, z.imag),
        )
        assert len(mine) == len(ref) == 5
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-9


def test_multiplicity_at():
    z = Polynomial.z()
    p = (z * z + 1) ** 2
    assert multiplicity_at(p, GaussianRational(0, 1)) == 2
    assert multiplicity_at(p, GaussianRational(0, -1)) == 2
    assert multiplicity_at(p, GaussianRational(1)) == 0
    assert multiplicity_at((z - 2) ** 3, GaussianRational(2)) == 3


def test_multiplicity_at_rational_points_and_coefficients():
    """Points and coefficients with denominators, against the multiplicities
    the polynomial is built with."""
    z = Polynomial.z()
    a = GaussianRational(F(1, 2), F(-2, 3))
    b = GaussianRational(F(1, 2), F(2, 3))
    c = GaussianRational(F(-3, 4))
    p = (z - a) ** 3 * (z - b) * (z - c) ** 2 * GaussianRational(F(5, 7), F(1, 3))
    assert multiplicity_at(p, a) == 3
    assert multiplicity_at(p, b) == 1
    assert multiplicity_at(p, c) == 2
    assert multiplicity_at(p, F(-3, 4)) == 2
    assert multiplicity_at(p, GaussianRational(F(1, 2))) == 0
    assert multiplicity_at(p + GaussianRational(F(1, 9)), a) == 0
    assert multiplicity_at(Polynomial([GaussianRational(F(2, 3))]), a) == 0


def _fraction_taylor(coeffs, z, j):
    """The coefficient of t^j in p(z + t), sum_k binom(k, j) c_k z^(k-j), on
    (re, im) pairs of Fractions."""
    z = as_scalar(z)
    sr = si = F(0)
    for k in range(j, len(coeffs)):
        pr, pi = F(1), F(0)
        for _ in range(k - j):
            pr, pi = pr * z.re - pi * z.im, pr * z.im + pi * z.re
        c = coeffs[k]
        sr += comb(k, j) * (c.re * pr - c.im * pi)
        si += comb(k, j) * (c.re * pi + c.im * pr)
    return sr, si


@given(
    st.lists(_gaussian, min_size=1, max_size=5).filter(lambda c: c[-1]),
    st.one_of(_gaussian, _parts, st.integers(-5, 5), st.sampled_from([0, GaussianRational(0, 1)])),
    st.integers(0, 3),
)
@example([1], 0, 3)
@example([GaussianRational(F(2, 3), -1), 1], GaussianRational(0, 1), 2)
def test_zi_taylor_matches_the_binomial_expansion(cofactor, a, m):
    """On p = (z - a)^m times a drawn cofactor, every coefficient zi_taylor
    yields is d^(n-j) L times the Fraction binomial expansion of p(a + t),
    and the number of leading zeros is multiplicity_at(p, a), at least m."""
    p = Polynomial([-as_scalar(a), 1]) ** m * Polynomial(cofactor)
    lcd, (pairs,) = clear_denominators(p)
    sr, si, d = clear_point(a)
    taylor = list(zi_taylor(pairs, sr, si, d))
    n = p.degree
    assert len(taylor) == n + 1
    for j, (r, i) in enumerate(taylor):
        scale = lcd * d ** (n - j)
        assert (F(r, scale), F(i, scale)) == _fraction_taylor(p.coeffs, a, j)
    zeros = next(j for j, (r, i) in enumerate(taylor) if r or i)
    assert zeros == multiplicity_at(p, a) == zi_multiplicity(pairs, sr, si, d) >= m


# -- the Gaussian-integer kernel against schoolbook field arithmetic -----------


def _field_divmod(a, b):
    """Long division over Q(i) in GaussianRational arithmetic."""
    rem = list(a.coeffs)
    if len(rem) < len(b.coeffs):
        return [], rem
    quot = [None] * (len(rem) - len(b.coeffs) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + b.degree] / b.leading()
        quot[k] = c
        for j, bc in enumerate(b.coeffs):
            rem[j + k] = rem[j + k] - c * bc
    return quot, rem[: b.degree]


def _field_monic(p):
    return Polynomial([c / p.leading() for c in p.coeffs])


def _euclid_gcd(a, b):
    """The field Euclid over Q(i) on Fraction pairs, the oracle for the
    primitive PRS."""
    while not b.is_zero():
        a, b = b, Polynomial(_field_divmod(a, b)[1])
    return _field_monic(a) if not a.is_zero() else a


def _schoolbook_mul(a, b):
    if a.is_zero() or b.is_zero():
        return Polynomial()
    out = [GaussianRational(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ac in enumerate(a.coeffs):
        for j, bc in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ac * bc
    return Polynomial(out)


def _rational_poly(rng, deg, bound=5):
    """Coefficients with non-integer rational real and imaginary parts."""
    return Polynomial(
        [
            GaussianRational(F(rng.randint(-bound, bound), rng.randint(1, 6)), F(rng.randint(-bound, bound), rng.randint(1, 6)))
            for _ in range(deg + 1)
        ]
    )


def _oracle_pair(rng, case):
    """A seeded gcd input pair; the case number cycles through the shapes."""
    kind = case % 5
    if kind == 0:  # a zero or constant input
        a = _rational_poly(rng, rng.randint(0, 4))
        b = rng.choice([Polynomial(), _rational_poly(rng, 0), Polynomial([GaussianRational(0, F(1, 3))])])
        return (a, b) if case % 2 else (b, a)
    g = _rational_poly(rng, rng.randint(0, 3))
    if g.is_zero():
        g = Polynomial([1])
    a = _rational_poly(rng, rng.randint(0, 4)) * g
    b = _rational_poly(rng, rng.randint(0, 4)) * g
    if kind == 1:  # Gaussian-integer content (1+i)^k on both sides
        a = a * Polynomial([GaussianRational(1, 1)]) ** rng.randint(1, 6)
        b = b * Polynomial([GaussianRational(1, 1)]) ** rng.randint(0, 6)
    elif kind == 2:  # Gaussian-integer cofactors of a planted g(2z)
        a, b = (_random_poly(rng, 3) * g.monic().compose(Polynomial([0, 2])) for _ in range(2))
    elif kind == 3:  # a repeated planted factor
        a = a * g
    return a, b


def test_gcd_matches_field_euclid_oracle():
    rng = derive_rng(31, "poly-gcd-oracle")
    seen = {"zero": 0, "constant": 0, "planted": 0}
    for case in range(400):
        a, b = _oracle_pair(rng, case)
        want = _euclid_gcd(a, b)
        got = gcd(a, b)
        assert got == want, (a, b)
        assert got.coeffs == want.coeffs
        seen["zero"] += a.is_zero() or b.is_zero()
        seen["constant"] += a.degree == 0 or b.degree == 0
        seen["planted"] += got.degree > 0
    assert min(seen.values()) >= 25, seen
    assert gcd(Polynomial(), Polynomial()).is_zero()


def test_gcd_content_is_not_a_factor():
    z = Polynomial.z()
    unit = Polynomial([GaussianRational(1, 1)])
    p = (z - GaussianRational(F(1, 2), 3)) * (z + 1)
    assert gcd(unit**5 * p, unit**2 * (z + 1) * (z - 7)) == z + 1
    assert gcd(unit**4, p) == Polynomial([1])
    assert gcd(p * GaussianRational(F(2, 7), F(-5, 3)), p * 6) == p.monic()


def test_exact_mul_and_divmod_match_schoolbook():
    rng = derive_rng(37, "poly-mul-oracle")
    for _ in range(200):
        a = _rational_poly(rng, rng.randint(0, 6))
        b = _rational_poly(rng, rng.randint(0, 4))
        assert (a * b).coeffs == _schoolbook_mul(a, b).coeffs
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        want_q, want_r = _field_divmod(a, b)
        assert q == Polynomial(want_q) and r == Polynomial(want_r)
        assert a.monic() == (_field_monic(a) if not a.is_zero() else a)


def test_gcd_examples():
    z = Polynomial.z()
    g = gcd((z - 1) * (z - 2), (z - 1) * (z - 3))
    assert g.monic() == (z - 1).monic()
    assert gcd(z - 1, z - 2).degree == 0
    assert gcd_many([(z - 1) * (z - 2), (z - 1) * (z - 3), (z - 1)]).monic() == z - 1


def test_squarefree_decomposition():
    z = Polynomial.z()
    p = (z - 1) ** 2 * (z + 2)
    parts = squarefree_decomposition(p)
    rebuilt = Polynomial([1])
    for q, k in parts:
        rebuilt = rebuilt * q**k
    assert rebuilt.monic() == p.monic()
    mults = sorted(k for q, k in parts if q.degree > 0)
    assert mults == [1, 2]


def test_derivative():
    z = Polynomial.z()
    p = z**3 + 2 * z
    assert p.derivative() == 3 * z * z + 2


def test_compose():
    z = Polynomial.z()
    outer = z * z + 1
    inner = z - 1
    composed = outer.compose(inner)
    rng = derive_rng(21, "poly-compose")
    for _ in range(20):
        x = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        assert composed.eval(x) == outer.eval(inner.eval(x))


def test_parse_format_round_trip():
    rng = derive_rng(25, "poly-parse")
    for _ in range(60):
        p = _random_poly(rng)
        assert parse_poly(format_poly(p)) == p


def test_parse_examples():
    assert parse_poly("(1)*z^2 + (-6)*z + (11)") == Polynomial([11, -6, 1])
    assert parse_poly("(1/2)*z") == Polynomial([0, GaussianRational("1/2")])
    assert parse_poly("(-1i)") == Polynomial([GaussianRational(0, -1)])
    with pytest.raises(ValueError):
        parse_poly("z^^2")
    # the grammar is shared with parse_laurent, which alone takes z^-n
    with pytest.raises(ValueError, match="negative exponent"):
        parse_poly("(1)*z + (1)*z^-1")
