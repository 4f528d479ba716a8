"""Minimal Lagrangian immersions from holomorphic pairs: spinors, metric,
curvature, minimality witnesses, and the omitted-value bound."""

import cmath
import math
from functools import partial

import pytest

from minsurf4.domains import PuncturedPlane, derive_rng
from minsurf4.errors import BadStencil, DegeneratePoint, DomainError
from minsurf4.lagrangian import (
    HolomorphicPair,
    LagrangianSpec,
    corollary_bound_check,
    gauss_components,
    immersion_f,
    immersion_xyzw,
    metric_curvature,
    metric_spec,
    nondegenerate,
    spinors,
    stencil_residuals,
)
from minsurf4.rational import RationalFunction, format_rational
from minsurf4.scalars import GaussianRational
from oracles import conformal_factor, gauss_curvature_numeric, immersion_xyzw_phase_dropped


def _z():
    return RationalFunction.z()


def _parabola(beta=0.0):
    z = _z()
    return LagrangianSpec.from_pair(HolomorphicPair(z, z * z * GaussianRational("1/2")), beta=beta)


def test_spinors_example():
    z = _z()
    s1, s2 = spinors(HolomorphicPair(z, RationalFunction.constant(0)))
    assert s1.is_zero()
    assert s2 == RationalFunction.constant(-1)


def test_constant_pair_degenerate():
    pair = HolomorphicPair(RationalFunction.constant(1), RationalFunction.constant(2))
    spec = LagrangianSpec.from_pair(pair)
    assert spec.degenerate_everywhere()
    ok, offenders = nondegenerate(spec, PuncturedPlane([]))
    assert not ok and offenders is None


def test_nondegenerate_shared_zero():
    z = _z()
    half = GaussianRational("1/2")
    pair = HolomorphicPair(z * z * half, z * z * half)
    spec = LagrangianSpec.from_pair(pair)
    ok, offenders = nondegenerate(spec, PuncturedPlane([]))
    assert not ok
    assert len(offenders) == 1 and abs(offenders[0]) < 1e-10


def test_nondegenerate_parabola():
    ok, offenders = nondegenerate(_parabola(), PuncturedPlane([]))
    assert ok and offenders == []


def test_immersion_example():
    z = _z()
    spec = LagrangianSpec.from_pair(HolomorphicPair(z, RationalFunction.constant(0)))
    f1, f2 = immersion_f(spec, 1.0)
    assert abs(f1 - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(f2 - 1j / math.sqrt(2.0)) < 1e-15


def test_immersion_modulus_independent_of_beta():
    rng = derive_rng(131, "lagrangian-beta")
    for _ in range(30):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        beta = rng.uniform(0.0, 2.0 * math.pi)
        f0 = immersion_f(_parabola(0.0), z)
        fb = immersion_f(_parabola(beta), z)
        assert abs(abs(f0[0]) - abs(fb[0])) < 1e-12
        assert abs(abs(f0[1]) - abs(fb[1])) < 1e-12


def test_beta_rotates_phase():
    z0 = 0.7 + 0.4j
    f0 = immersion_f(_parabola(0.0), z0)
    fb = immersion_f(_parabola(1.0), z0)
    rot = cmath.exp(0.5j)
    assert abs(fb[0] - rot * f0[0]) < 1e-12
    assert abs(fb[1] - rot * f0[1]) < 1e-12


def test_metric_curvature_fixed_values():
    spec = _parabola()
    lam2, K = metric_curvature(spec, 0.0)
    assert lam2 == pytest.approx(1.0)
    assert K == pytest.approx(-2.0, abs=1e-12)
    lam2, K = metric_curvature(spec, 1.0)
    assert lam2 == pytest.approx(2.0)
    assert K == pytest.approx(-0.25, abs=1e-12)


def test_metric_curvature_plane_flat():
    z = _z()
    spec = LagrangianSpec.from_pair(HolomorphicPair(z, 2 * z))
    for w in (0.0, 1.0 + 1j, -2.5):
        _, K = metric_curvature(spec, w)
        assert K == 0.0


def test_metric_curvature_degenerate_point():
    z = _z()
    half = GaussianRational("1/2")
    spec = LagrangianSpec.from_pair(HolomorphicPair(z * z * half, z * z * half))
    with pytest.raises(DegeneratePoint):
        metric_curvature(spec, 0.0)


def test_metric_spec_matches_lagrangian_metric():
    spec = _parabola()
    m = metric_spec(spec)
    rng = derive_rng(137, "lagrangian-metric")
    for _ in range(30):
        z = complex(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
        lam2, _ = metric_curvature(spec, z)
        lam = conformal_factor(m, z)
        assert abs(lam * lam - lam2) < 1e-12 * max(1.0, lam2)


def test_curvature_against_metric_oracle():
    spec = _parabola()
    m = metric_spec(spec)
    for z in (0.5 + 0.5j, 1.2 - 0.3j, -0.8 + 1.1j):
        _, K = metric_curvature(spec, z)
        K_fd = gauss_curvature_numeric(m, z)
        assert abs(K - K_fd) < 1e-4


def test_minimality_residuals_small():
    for beta in (0.0, math.pi / 3):
        spec = _parabola(beta)
        for z in (0.0, 0.4 + 0.3j, -1.1 + 0.7j):
            symp, harm = stencil_residuals(partial(immersion_xyzw, spec), z)
            assert symp < 1e-5
            assert harm < 1e-5


def test_phase_corruption_detected():
    spec = _parabola(math.pi / 3)
    worst = 0.0
    for z in (0.4 + 0.3j, -1.1 + 0.7j, 0.9 - 0.6j):
        symp, harm = stencil_residuals(partial(immersion_xyzw_phase_dropped, spec, coord=0), z)
        worst = max(worst, symp, harm)
    assert worst > 1e-2


def test_phase_corruption_invisible_at_zero_angle():
    # at beta = 0 the dropped factor is 1, so the corruption vanishes
    spec = _parabola(0.0)
    symp, harm = stencil_residuals(partial(immersion_xyzw_phase_dropped, spec, coord=0), 0.4 + 0.3j)
    assert symp < 1e-5 and harm < 1e-5


def test_bad_stencil_rejected():
    spec = _parabola()
    with pytest.raises(BadStencil):
        stencil_residuals(partial(immersion_xyzw, spec), 0.0, h=0.0)
    z = _z()
    pole_spec = LagrangianSpec.from_pair(HolomorphicPair(1 / z, z))
    with pytest.raises(BadStencil):
        stencil_residuals(partial(immersion_xyzw, pole_spec), 0.0)


def test_gauss_components():
    spec = _parabola(math.pi / 3)
    g, phase = gauss_components(spec)
    assert format_rational(g) == format_rational(1 / _z())
    assert abs(phase - cmath.exp(1j * math.pi / 3)) < 1e-15


def test_immersion_needs_pair():
    z = _z()
    spec = LagrangianSpec.from_spinors(z, RationalFunction.constant(1))
    with pytest.raises(DomainError):
        immersion_f(spec, 1.0)
    # metric quantities still work from spinors alone
    lam2, K = metric_curvature(spec, 1.0)
    assert lam2 == pytest.approx(2.0)


def test_corollary_bound_complete_case():
    z = _z()
    s1 = 1 / ((z - 1) * (z + 1))
    s2 = -z / ((z - 1) * (z + 1))
    spec = LagrangianSpec.from_spinors(s1, s2)
    domain = PuncturedPlane([GaussianRational(1), GaussianRational(-1)])
    rep = corollary_bound_check(spec, domain)
    assert rep.applicable
    assert rep.q == 3
    assert rep.bound_holds


def test_corollary_bound_plane_case():
    z = _z()
    spec = LagrangianSpec.from_spinors(z, 2 * z)  # g = -2 constant
    rep = corollary_bound_check(spec, PuncturedPlane([]))
    assert not rep.applicable
    assert "not-applicable" in rep.reason


def test_corollary_bound_needs_the_spinors_defined_on_the_domain():
    z = _z()
    # F = (z, z^2/(z - 1)): S1 = F2' = (z^2 - 2z)/(z - 1)^2, g = (z - 1)^2/(z^2 - 2z)
    spec = LagrangianSpec.from_spinors(*spinors(HolomorphicPair(z, z * z / (z - 1))))
    rep = corollary_bound_check(spec, PuncturedPlane([]))
    assert not rep.applicable
    assert rep.reason == "not-applicable: pole of the spinors at z = 1+0j in the domain"
    assert rep.omitted is None
    # punctured at the pole, g omits 0 (taken only at z = 1) and 1
    rep = corollary_bound_check(spec, PuncturedPlane([GaussianRational(1)]))
    assert rep.applicable
    assert rep.to_dict()["omitted"] == ["0", "1"]
    # a pole of S2 only, off the punctures and irrational: z^2 = 2
    s1 = 1 / ((z - 1) * (z + 1))
    s2 = -z / ((z - 1) * (z + 1) * (z * z - 2))
    spec = LagrangianSpec.from_spinors(s1, s2)
    rep = corollary_bound_check(spec, PuncturedPlane([GaussianRational(1), GaussianRational(-1)]))
    assert not rep.applicable
    assert rep.reason.startswith("not-applicable: pole of the spinors at z = -1.41421")


def test_corollary_bound_incomplete_case():
    z = _z()
    spec = LagrangianSpec.from_spinors(RationalFunction.constant(1), -z)
    rep = corollary_bound_check(spec, PuncturedPlane([GaussianRational(0)]))
    assert not rep.applicable
    assert "hypothesis-failed" in rep.reason


def test_immersion_xyzw_matches_f():
    spec = _parabola(0.7)
    z0 = 0.3 - 0.8j
    f1, f2 = immersion_f(spec, z0)
    x = immersion_xyzw(spec, z0)
    assert x == (f1.real, f1.imag, f2.real, f2.imag)
