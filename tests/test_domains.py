"""Domains, boundary bookkeeping, and the string-keyed RNG."""

import pytest

from minsurf4.domains import (
    AT_INFINITY,
    Annulus,
    PUNCTURE,
    PuncturedPlane,
    boundary_points,
    derive_rng,
)
from minsurf4.errors import DomainError, RequiresExactMode
from minsurf4.scalars import GaussianRational, to_complex


def test_punctured_plane_boundary():
    d = PuncturedPlane([GaussianRational(1), GaussianRational(2)])
    bps = boundary_points(d)
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


def test_contains():
    d = PuncturedPlane([GaussianRational(0)])
    assert d.contains(1.0)
    assert not d.contains(0.0)


def test_annulus_validation():
    with pytest.raises(DomainError):
        Annulus(0.5)
    with pytest.raises(DomainError):
        Annulus(2.0, [GaussianRational(5)])
    a = Annulus(2.0, [GaussianRational(1)])
    assert a.contains(0.9)
    assert not a.contains(1.0)  # puncture
    assert not a.contains(3.0)
    kinds = [b.kind for b in a.boundary_points()]
    assert kinds == [PUNCTURE, "inner-circle", "outer-circle"]


def test_derive_rng_stability():
    # string-keyed seeding: the same parts give the same stream every time
    a = derive_rng(0, 3, "probe").random()
    b = derive_rng(0, 3, "probe").random()
    assert a == b
    assert derive_rng(0, 3, "probe").random() != derive_rng(0, 4, "probe").random()
