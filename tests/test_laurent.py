"""Laurent polynomials: convolution arithmetic, substitution, reflection."""

import numpy as np
import pytest

from minsurf4.domains import derive_rng
from minsurf4.laurent import LaurentPoly, format_laurent, parse_laurent
from minsurf4.poly import Polynomial
from minsurf4.scalars import GaussianRational


def _random_laurent(rng, span=3, bound=3):
    terms = {}
    for n in range(-span, span + 1):
        if rng.random() < 0.5:
            terms[n] = GaussianRational(
                rng.randint(-bound, bound), rng.randint(-bound, bound)
            )
    return LaurentPoly.from_dict(terms)


def test_normalization():
    p = LaurentPoly.from_dict({-2: 0, 0: 1, 3: 0})
    assert p.lo == 0 and p.hi == 0
    assert LaurentPoly().is_zero()
    assert LaurentPoly.from_dict({}).is_zero()
    # z^lo * poly with poly's constant term nonzero
    q = LaurentPoly(-3, [0, 0, 1, 2])
    assert (q.lo, q.hi, q.poly) == (-1, 0, Polynomial([1, 2]))


def test_coeff_and_terms():
    p = parse_laurent("(1/2)*z + (1/2)*z^-1")
    assert p.coeff(1) == GaussianRational("1/2")
    assert p.coeff(-1) == GaussianRational("1/2")
    assert p.coeff(0) == GaussianRational(0)
    assert p.coeff(99) == GaussianRational(0)
    nonzero = {n: c for n, c in p.terms().items() if c}
    assert nonzero == {-1: GaussianRational("1/2"), 1: GaussianRational("1/2")}


def test_product_example():
    zp = parse_laurent("(1)*z + (1)*z^-1")
    zm = parse_laurent("(1)*z + (-1)*z^-1")
    assert zp * zm == parse_laurent("(1)*z^2 + (-1)*z^-2")


def test_ring_axioms_random():
    rng = derive_rng(61, "laurent-ring")
    for _ in range(80):
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        c = _random_laurent(rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_compose_power_example():
    p = parse_laurent("(1)*z + (1)*z^-1")
    assert p.compose_power(3) == parse_laurent("(1)*z^3 + (1)*z^-3")


def test_compose_power_distributes_random():
    rng = derive_rng(67, "laurent-compose")
    for _ in range(50):
        a = _random_laurent(rng, span=2)
        b = _random_laurent(rng, span=2)
        k = rng.choice([2, 3, 5])
        assert (a * b).compose_power(k) == a.compose_power(k) * b.compose_power(k)


def test_i0_pullback_definition():
    # coefficients of conj(phi(-1/conj(z))): c_n -> (-1)^n conj(c_n) z^{-n}
    rng = derive_rng(71, "laurent-pullback")
    for _ in range(50):
        p = _random_laurent(rng)
        q = p.i0_pullback()
        for n, c in p.terms().items():
            expected = c.conjugate() if n % 2 == 0 else -c.conjugate()
            assert q.coeff(-n) == expected


def test_i0_pullback_involution():
    rng = derive_rng(73, "laurent-pullback-inv")
    for _ in range(50):
        p = _random_laurent(rng)
        assert p.i0_pullback().i0_pullback() == p


def test_i0_pullback_matches_pointwise():
    p = parse_laurent("(1+1i)*z^2 + (2)*z + (-1i) + (3)*z^-1")
    q = p.i0_pullback()
    for z in (0.7 + 0.2j, -1.3 + 0.9j, 2.0 - 0.5j):
        w = -1.0 / z.conjugate()
        assert abs(q.eval(z) - p.eval(w).conjugate()) < 1e-12


def test_eval():
    p = parse_laurent("(1)*z + (1)*z^-1")
    assert abs(p.eval(2.0) - 2.5) < 1e-15
    exact = p.eval(GaussianRational(2))
    assert exact == GaussianRational("5/2")
    with pytest.raises(ZeroDivisionError):
        p.eval(GaussianRational(0))


@pytest.mark.parametrize(
    "text",
    ["0", "(1/2)*z + (1/2)*z^-1", "(1+1i)*z^2 + (2)*z + (-1i) + (3)*z^-3", "(2i)*z^-2 + (1)*z^-1"],
)
def test_array_eval_matches_scalar_eval(text):
    p = parse_laurent(text)
    z = np.array([1.0, -0.7 + 0.2j, 1.3j, 2.5 - 1.5j, 0.01])
    values = p.eval(z)
    assert isinstance(values, np.ndarray) and values.shape == z.shape
    for w, v in zip(z, values):
        assert v == pytest.approx(p.eval(complex(w)), rel=1e-14)


def test_array_eval_rejects_zero_with_negative_exponents():
    p = parse_laurent("(1)*z + (1)*z^-1")
    assert p.lo < 0
    with pytest.raises(ZeroDivisionError):
        p.eval(np.array([1.0, 0.0, 2j]))
    # without negative exponents 0 is an ordinary point
    q = parse_laurent("(1)*z^2 + (3)")
    assert q.eval(np.array([0.0, 1.0])).tolist() == [3 + 0j, 4 + 0j]


def test_derivative():
    p = parse_laurent("(1)*z^2 + (3)*z^-1")
    assert p.derivative() == parse_laurent("(2)*z + (-3)*z^-2")


def test_poly_part():
    q = parse_laurent("(1)*z^2 + (-1)").poly_part()
    assert q.coeff(2) == GaussianRational(1)
    assert q.coeff(0) == GaussianRational(-1)


def test_parse_format_round_trip():
    rng = derive_rng(79, "laurent-parse")
    for _ in range(60):
        p = _random_laurent(rng)
        assert parse_laurent(format_laurent(p)) == p


def test_parse_examples():
    p = parse_laurent("(-1/2i)*z + (1/2i)*z^-1")
    assert p.coeff(1) == GaussianRational(0, "-1/2")
    assert p.coeff(-1) == GaussianRational(0, "1/2")
    assert parse_laurent("(-1i)").coeff(0) == GaussianRational(0, -1)
    assert parse_laurent("0").is_zero()
