"""Domains, boundary bookkeeping, exact placement of zeros at punctures,
and the string-keyed RNG."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from minsurf4.domains import (
    AT_INFINITY,
    Annulus,
    PUNCTURE,
    PuncturedPlane,
    derive_rng,
    interior_part,
    zeros_inside,
)
from minsurf4.errors import DomainError, RequiresExactMode
from minsurf4.poly import Polynomial, multiplicity_at
from minsurf4.scalars import GaussianRational, as_scalar, to_complex


def test_punctured_plane_boundary():
    d = PuncturedPlane([GaussianRational(1), GaussianRational(2)])
    bps = d.boundary_points()
    assert len(bps) == 3
    assert [b.kind for b in bps] == [PUNCTURE, PUNCTURE, AT_INFINITY]
    assert bps[0].label() == "puncture 1"
    assert bps[-1].label() == "infinity"


def test_punctures_must_be_distinct():
    with pytest.raises(DomainError):
        PuncturedPlane([GaussianRational(1), GaussianRational(1)])
    # float punctures are refused outright, so distinctness is exact
    with pytest.raises(RequiresExactMode):
        PuncturedPlane([1.0, 1.0 + 1e-9])


def _linear(a):
    return Polynomial([-as_scalar(a), 1])


def test_zeros_inside_places_punctures_exactly():
    # a zero 1e-10 from the puncture 0 is inside the domain, the one at 0 is not
    d = PuncturedPlane([GaussianRational(0)])
    z = Polynomial.z()
    near = GaussianRational(Fraction(1, 10**10))
    assert zeros_inside([z * z * _linear(near)], d) == [pytest.approx(1e-10, abs=1e-20)]
    assert zeros_inside([z**3], d) == []
    # common zeros only; gcd(p, 0) is p
    assert zeros_inside([z * _linear(1), _linear(1) * _linear(2)], d) == [pytest.approx(1.0)]
    assert zeros_inside([_linear(2), Polynomial()], d) == [pytest.approx(2.0)]
    assert zeros_inside([_linear(1), _linear(2)], d) == []


def test_annulus_validation():
    with pytest.raises(DomainError):
        Annulus(0.5)
    with pytest.raises(DomainError):
        Annulus(2.0, [GaussianRational(5)])
    a = Annulus(2.0, [GaussianRational(1)])
    # 9/10 is inside, 1 is the puncture and 3 is past the outer circle
    p = _linear("9/10") * _linear(1) * _linear(3)
    assert zeros_inside([p], a) == [pytest.approx(0.9)]
    kinds = [b.kind for b in a.boundary_points()]
    assert kinds == [PUNCTURE, "inner-circle", "outer-circle"]


def test_derive_rng_stability():
    # string-keyed seeding: the same parts give the same stream every time
    a = derive_rng(0, 3, "probe").random()
    b = derive_rng(0, 3, "probe").random()
    assert a == b
    assert derive_rng(0, 3, "probe").random() != derive_rng(0, 4, "probe").random()


_GAUSSIAN_INTEGERS = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))
_POINTS = st.builds(
    lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(1, 3),
)


@given(
    cofactor=st.lists(_GAUSSIAN_INTEGERS, min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
    placed=st.lists(st.tuples(_POINTS, st.integers(0, 3)), max_size=3, unique_by=lambda t: t[0]),
)
def test_interior_part_inverts_the_puncture_factors(cofactor, placed):
    cofactor = Polynomial(cofactor)
    assume(all(multiplicity_at(cofactor, a) == 0 for a, _ in placed))
    factors = Polynomial([1])
    for a, m in placed:
        factors = factors * _linear(a) ** m
    p = cofactor * factors
    rest = interior_part(p, PuncturedPlane([a for a, _ in placed]))
    assert rest * factors == p
    assert all(multiplicity_at(rest, a) == 0 for a, _ in placed)


def _quarter_points(keep):
    """(a + bi)/4 for |a|, |b| <= 10 whose a^2 + b^2 passes keep."""
    return [
        GaussianRational(Fraction(a, 4), Fraction(b, 4))
        for a in range(-10, 11)
        for b in range(-10, 11)
        if keep(a * a + b * b)
    ]


# Annulus(2.0) is 1/2 < |z| < 2, that is 4 < a^2 + b^2 < 64
_INNER = _quarter_points(lambda n: n < 4)
_BETWEEN = _quarter_points(lambda n: 4 < n < 64)
_OUTER = _quarter_points(lambda n: n > 64)


@given(
    inner=st.lists(st.sampled_from(_INNER), max_size=2, unique=True),
    between=st.lists(st.sampled_from(_BETWEEN), max_size=4, unique=True),
    outer=st.lists(st.sampled_from(_OUTER), max_size=2, unique=True),
    mults=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    n_punctures=st.integers(0, 3),
)
def test_zeros_inside_an_annulus_drops_roots_past_its_circles(inner, between, outer, mults, n_punctures):
    punctures = between[:n_punctures]
    p = Polynomial([1])
    for a, m in zip(punctures, mults):
        p = p * _linear(a) ** m
    for a in inner + between[n_punctures:] + outer:
        p = p * _linear(a)
    expected = sorted((to_complex(a) for a in between[n_punctures:]), key=lambda w: (w.real, w.imag))
    found = zeros_inside([p], Annulus(2.0, punctures))
    assert found == [pytest.approx(w, abs=1e-9) for w in expected]
