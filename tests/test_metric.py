"""Conformal metrics: boundary exponents and completeness, plus the float
oracles of the conformal factor and the finite-difference curvature."""

import math

import pytest

from minsurf4.domains import Annulus, PuncturedPlane
from minsurf4.errors import DomainError, ExponentUndefined
from minsurf4.metric import (
    MetricSpec,
    boundary_exponent,
    exponent_at,
    is_complete,
)
from minsurf4.rational import INF, RationalFunction
from minsurf4.scalars import GaussianRational
from minsurf4.sphere import INFINITY, SpherePoint
from oracles import conformal_factor, gauss_curvature_numeric


def _z():
    return RationalFunction.z()


def _one():
    return RationalFunction.constant(1)


def _family(p, ms):
    """p - 1 integer punctures, omega_hat = 1/prod(z - a), factors (z, m)."""
    z = _z()
    punctures = [GaussianRational(a) for a in range(1, p)]
    omega = _one()
    for a in punctures:
        omega = omega / (z - a)
    spec = MetricSpec([(z, m) for m in ms], omega)
    return spec, PuncturedPlane(punctures)


def test_spec_validation():
    z = _z()
    with pytest.raises(DomainError):
        MetricSpec([(z, -1)], _one())
    with pytest.raises(DomainError):
        MetricSpec([(z, 1)], RationalFunction.constant(0))


def test_flat_factor_is_one():
    spec = MetricSpec([], _one())
    for z in (0.0, 1.5 + 2j, -3.0):
        assert conformal_factor(spec, z) == 1.0


def test_factor_examples():
    z = _z()
    spec = MetricSpec([(z, 2)], _one())
    assert conformal_factor(spec, GaussianRational(0)) == 1.0
    assert conformal_factor(spec, 1.0) == pytest.approx(2.0)
    family, _ = _family(4, [1, 1])
    assert conformal_factor(family, GaussianRational(0)) == pytest.approx(1.0 / 6.0)


def test_factor_infinite_at_poles():
    z = _z()
    spec = MetricSpec([(1 / z, 1)], _one())
    assert conformal_factor(spec, GaussianRational(0)) == math.inf
    spec2 = MetricSpec([], 1 / z)
    assert conformal_factor(spec2, GaussianRational(0)) == math.inf


def test_exact_and_float_paths_agree():
    spec, _ = _family(5, [2, 1])
    for a, b in ((1, 3), (-2, 1), (0, -1)):
        exact = conformal_factor(spec, GaussianRational(a, b) / 2)
        approx = conformal_factor(spec, complex(a, b) / 2)
        assert exact == pytest.approx(approx, rel=1e-12)


def test_exponents_family():
    p, ms = 4, [1, 1]
    spec, domain = _family(p, ms)
    for a in domain.punctures:
        assert exponent_at(spec, a) == -1
    assert exponent_at(spec, INF) == p - 3 - sum(ms)


def test_boundary_exponent_accepts_point_flavors():
    spec, domain = _family(4, [1, 1])
    b = domain.boundary_points()[0]
    sigma = boundary_exponent(spec, b)
    assert sigma == -1
    assert boundary_exponent(spec, SpherePoint(GaussianRational(1))) == -1
    assert boundary_exponent(spec, GaussianRational(1)) == -1
    assert boundary_exponent(spec, INFINITY) == exponent_at(spec, INF)
    assert boundary_exponent(spec, INF) == exponent_at(spec, INF)


def test_annulus_circles_have_no_exponent():
    spec = MetricSpec([], _one())
    a = Annulus(2.0)
    circle = a.boundary_points()[-1]
    with pytest.raises(ExponentUndefined):
        boundary_exponent(spec, circle)
    rep = is_complete(spec, a)
    assert rep.overall is None


def test_completeness_family_sweep():
    for p in range(3, 9):
        for ms in ([0], [1], [2], [3], [1, 1], [2, 1], [3, 3]):
            spec, domain = _family(p, ms)
            rep = is_complete(spec, domain)
            assert rep.overall == (p <= 2 + sum(ms))
            # punctures of this family are always complete ends
            for e in rep.entries[:-1]:
                assert e.complete is True


def test_omega_scaling_leaves_exponents_alone():
    spec, domain = _family(4, [1, 1])
    c = GaussianRational(3, 4)
    scaled = MetricSpec(spec.factors, spec.omega_hat * c)
    for b in domain.boundary_points():
        assert boundary_exponent(spec, b) == boundary_exponent(scaled, b)


def test_exponent_slope_fit():
    # log lambda against log|z - b| along a ray approaches sigma(b)
    spec, domain = _family(4, [1, 1])
    b = 1.0
    slopes = []
    for t in (1e-4, 1e-5, 1e-6):
        lam1 = conformal_factor(spec, b + t * (0.6 + 0.8j))
        lam2 = conformal_factor(spec, b + (t / 10) * (0.6 + 0.8j))
        slopes.append((math.log(lam2) - math.log(lam1)) / math.log(0.1))
    assert abs(slopes[-1] - (-1)) < 0.05


def test_curvature_flat_zero():
    spec = MetricSpec([], _one())
    assert abs(gauss_curvature_numeric(spec, 0.3 + 0.4j)) < 1e-8


def test_curvature_fixed_values():
    z = _z()
    # lambda = (1 + |z|^2)^{1/2}: K(0) = -2
    spec1 = MetricSpec([(z, 1)], _one())
    assert gauss_curvature_numeric(spec1, 0.0) == pytest.approx(-2.0, abs=1e-4)
    # lambda = 1 + |z|^2: K(0) = -4
    spec2 = MetricSpec([(z, 2)], _one())
    assert gauss_curvature_numeric(spec2, 0.0) == pytest.approx(-4.0, abs=1e-4)
    # closed form K = -4 / (1 + |z|^2)^4 for the m = 2 factor
    for w in (0.5, 0.3 - 0.7j):
        expected = -4.0 / (1.0 + abs(w) ** 2) ** 4
        assert gauss_curvature_numeric(spec2, w) == pytest.approx(expected, abs=1e-4)
