"""Exact Gaussian-rational scalars: field arithmetic, parsing, coercions,
and the refusal of float data."""

import math
from fractions import Fraction

import pytest

from minsurf4.domains import Annulus, PuncturedPlane
from minsurf4.errors import RequiresExactMode
from minsurf4.poly import Polynomial
from minsurf4.rational import RationalFunction
from minsurf4.scalars import (
    GaussianRational,
    as_scalar,
    format_scalar,
    is_exact,
    parse_scalar,
    to_complex,
)
from minsurf4.domains import derive_rng
from minsurf4.sphere import SpherePoint


def _random_gaussian(rng, bound=9):
    re = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    im = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return GaussianRational(re, im)


def test_construction_and_equality():
    a = GaussianRational(1, 2)
    assert a.re == Fraction(1) and a.im == Fraction(2)
    assert a == GaussianRational(1, 2)
    assert a != GaussianRational(2, 1)
    assert GaussianRational(3) == 3
    assert GaussianRational("1/2") == GaussianRational(Fraction(1, 2))


def test_immutability():
    a = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)


def test_field_axioms_random():
    rng = derive_rng(7, "scalar-axioms")
    for _ in range(200):
        a = _random_gaussian(rng)
        b = _random_gaussian(rng)
        c = _random_gaussian(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_conjugate_and_abs2():
    rng = derive_rng(11, "scalar-conj")
    for _ in range(100):
        a = _random_gaussian(rng)
        b = _random_gaussian(rng)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a * a.conjugate() == GaussianRational(a.abs2())
        assert isinstance(a.abs2(), Fraction)
        assert abs(a) == pytest.approx(math.sqrt(float(a.abs2())))


def test_powers():
    i = GaussianRational(0, 1)
    assert i**2 == GaussianRational(-1)
    assert i**0 == GaussianRational(1)
    assert (GaussianRational(2) ** -1) == GaussianRational("1/2")


def test_parse_format_round_trip():
    rng = derive_rng(3, "scalar-parse")
    for _ in range(100):
        a = _random_gaussian(rng)
        assert parse_scalar(format_scalar(a)) == a


def test_parse_examples():
    assert parse_scalar("1/2") == GaussianRational("1/2")
    assert parse_scalar("-3i") == GaussianRational(0, -3)
    assert parse_scalar("1+2i") == GaussianRational(1, 2)
    assert parse_scalar("1/2-1/3i") == GaussianRational("1/2", "-1/3")
    assert parse_scalar("0") == GaussianRational(0)
    with pytest.raises(ValueError):
        parse_scalar("nonsense")


def test_coercions():
    assert is_exact(GaussianRational(1))
    assert is_exact(3)
    assert not is_exact(1.5)
    assert not is_exact(1 + 2j)
    assert as_scalar(3) == GaussianRational(3)
    assert as_scalar("1/2") == GaussianRational("1/2")
    assert to_complex(GaussianRational(1, 2)) == 1 + 2j
    assert GaussianRational(1, 2).conjugate() == GaussianRational(1, -2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Polynomial([0.5]),
        lambda: Polynomial([1j]),
        lambda: PuncturedPlane([1.0]),
        lambda: Annulus(2.0, [1.5]),
        lambda: SpherePoint(0.5),
        lambda: (1 / RationalFunction.z()).order_at(0.0),
        lambda: (1 / RationalFunction.z()).residue_at(0.0),
    ],
    ids=["poly-float", "poly-complex", "puncture", "annulus-puncture", "sphere-point", "order_at", "residue_at"],
)
def test_float_data_is_refused(build):
    # floats are evaluation points and outputs only, never data
    with pytest.raises(RequiresExactMode):
        build()


@pytest.mark.parametrize("flag", [True, False])
def test_booleans_are_not_scalars(flag):
    # bool subclasses int, so the bool test must come before the int test
    with pytest.raises(TypeError, match="bool"):
        as_scalar(flag)


def test_mixed_arithmetic_with_ints():
    a = GaussianRational(1, 1)
    assert a + 1 == GaussianRational(2, 1)
    assert 1 + a == GaussianRational(2, 1)
    assert 2 * a == GaussianRational(2, 2)
    assert 1 - a == GaussianRational(0, -1)
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_hash_consistency():
    rng = derive_rng(13, "scalar-hash")
    for _ in range(50):
        a = _random_gaussian(rng)
        assert hash(a) == hash(GaussianRational(a.re, a.im))
