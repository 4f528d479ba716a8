"""Riemann sphere points, antipodes (isometries of the chordal oracle), RP^2
class counting."""

import math

import pytest

from minsurf4.domains import derive_rng
from minsurf4.sphere import (
    INFINITY,
    RP2Point,
    SpherePoint,
    antipodal,
    dedupe_points,
    format_point,
    rp2_count,
)
from minsurf4.scalars import GaussianRational
from oracles import chordal


def _random_point(rng, bound=5):
    if rng.random() < 0.1:
        return INFINITY
    return SpherePoint(
        GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
    )


def test_of_and_format():
    assert SpherePoint.of("inf").is_infinity
    assert SpherePoint.of(None).is_infinity
    assert SpherePoint.of("1/2") == SpherePoint(GaussianRational("1/2"))
    assert format_point(INFINITY) == "inf"
    assert format_point(SpherePoint(GaussianRational(0, 1))) == "1i"


def test_chordal_examples():
    assert chordal(GaussianRational(0), INFINITY) == 1.0
    assert chordal(GaussianRational(1), GaussianRational(-1)) == pytest.approx(1.0)
    assert chordal(INFINITY, INFINITY) == 0.0
    assert chordal(GaussianRational(2), GaussianRational(2)) == 0.0


def test_chordal_range_and_symmetry():
    rng = derive_rng(83, "chordal")
    for _ in range(100):
        a = _random_point(rng)
        b = _random_point(rng)
        d = chordal(a, b)
        assert 0.0 <= d <= 1.0 + 1e-15
        assert d == chordal(b, a)


def test_antipodal_examples():
    assert antipodal(GaussianRational(0, 1)) == SpherePoint(GaussianRational(0, -1))
    assert antipodal(INFINITY) == SpherePoint(GaussianRational(0))
    assert antipodal(GaussianRational(0)).is_infinity
    assert antipodal(GaussianRational(2)) == SpherePoint(GaussianRational("-1/2"))


def test_antipodal_involution_and_isometry():
    rng = derive_rng(89, "antipodal")
    for _ in range(100):
        a = _random_point(rng)
        b = _random_point(rng)
        assert antipodal(antipodal(a)) == a
        assert abs(chordal(antipodal(a), antipodal(b)) - chordal(a, b)) < 1e-12


def test_antipodal_never_fixes():
    rng = derive_rng(97, "antipodal-free")
    for _ in range(100):
        a = _random_point(rng)
        assert antipodal(a) != a


def test_rp2_count_examples():
    pts = [
        GaussianRational(2),
        GaussianRational(0, 3),
        GaussianRational("-1/2"),
        GaussianRational(0, "-1/3"),
    ]
    assert rp2_count(pts) == 2
    assert rp2_count([GaussianRational(0), INFINITY]) == 1
    with pytest.warns(UserWarning):
        assert rp2_count([GaussianRational(1, 1)]) == 1


def test_rp2_class_equality():
    assert RP2Point(GaussianRational(2)) == RP2Point(GaussianRational("-1/2"))
    assert RP2Point(GaussianRational(0)) == RP2Point(INFINITY)
    assert RP2Point(GaussianRational(2)) != RP2Point(GaussianRational(3))
    rng = derive_rng(101, "rp2")
    for _ in range(60):
        a = _random_point(rng)
        assert RP2Point(a) == RP2Point(antipodal(a))


def test_rp2_canonical_rep_inside_disc():
    rng = derive_rng(103, "rp2-rep")
    for _ in range(60):
        a = _random_point(rng)
        rep = RP2Point(a).rep
        assert not rep.is_infinity
        if not rep.value:
            continue
        m2 = rep.value.abs2() if hasattr(rep.value, "abs2") else abs(complex(rep)) ** 2
        assert float(m2) <= 1.0 + 1e-12


def test_dedupe_points():
    pts = [GaussianRational(1), GaussianRational(1), INFINITY, GaussianRational(2)]
    out = dedupe_points(pts)
    assert len(out) == 3


def test_unit_circle_tie_break():
    # |z| = 1: the canonical representative has argument in [0, pi)
    p = SpherePoint(GaussianRational(0, -1))
    rep = RP2Point(p).rep
    assert rep == SpherePoint(GaussianRational(0, 1))
    q = SpherePoint(GaussianRational(-1))
    rep_q = RP2Point(q).rep
    assert rep_q == SpherePoint(GaussianRational(1))


def test_sort_key_orders_infinity_last():
    pts = [INFINITY, SpherePoint(GaussianRational(5)), SpherePoint(GaussianRational(-1))]
    ordered = sorted(pts, key=SpherePoint.sort_key)
    assert ordered[-1].is_infinity
    assert math.isclose(complex(ordered[0]).real, -1.0)
