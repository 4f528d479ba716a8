"""Moebius-strip pipeline: involution symmetry, the multiplier f, residue
conditions, pullback forms, bounds, and report assembly."""

import cmath
import math

import numpy as np
import pytest

from minsurf4.domains import derive_rng
from minsurf4.errors import (
    ConditionViolation,
    DomainError,
    KSearchExhausted,
    PeriodObstruction,
)
from minsurf4.laurent import LaurentPoly, parse_laurent
from minsurf4.nonorientable import (
    CoverSpec,
    FBounds,
    SymmetricLaurentData,
    assemble_report,
    build_f,
    check_weierstrass_symmetry,
    f_bounds,
    f_from_coefficients,
    half_domain_mesh,
    involution_omitted_closure,
    pullback_psi,
    residue_condition,
    sandwich_check,
    unit_circle_min,
    validate_symmetric_f,
    validate_symmetric_laurent,
)
from minsurf4.rational import RationalFunction
from minsurf4.scalars import GaussianRational, to_complex
from minsurf4.sphere import INFINITY, SpherePoint
from minsurf4.weierstrass import WeierstrassData
from oracles import involution


def _z():
    return RationalFunction.z()


def _shipped_data():
    phi = (
        parse_laurent("(1/2)*z + (1/2)*z^-1"),
        parse_laurent("(-1/2i)*z + (1/2i)*z^-1"),
        parse_laurent("0"),
        parse_laurent("(-1i)"),
    )
    return SymmetricLaurentData(phi)


_SHIPPED_B = [GaussianRational(1), GaussianRational(1)]


def _shipped_f():
    return build_f(_SHIPPED_B)


def _symmetric_phi(rng, span=3, bound=3):
    """Random Laurent data obeying c_{-n} = (-1)^{n+1} conj(c_n), imaginary c_0."""
    terms = {0: GaussianRational(0, rng.randint(-bound, bound))}
    for n in range(1, span + 1):
        if rng.random() < 0.6:
            c = GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
            terms[n] = c
            terms[-n] = c.conjugate() if n % 2 else -c.conjugate()
    return LaurentPoly.from_dict(terms)


def test_involution_basics():
    rng = derive_rng(139, "involution")
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.1:
            continue
        w = involution(z)
        assert abs(involution(w) - z) < 1e-12
        assert abs(abs(involution(z / abs(z))) - 1.0) < 1e-12
        assert abs(w * z.conjugate() + 1.0) < 1e-12


def test_involution_exact():
    w = involution(GaussianRational(2))
    assert w == GaussianRational("-1/2")
    # -1/conj(i) = -1/(-i) = -i
    assert involution(GaussianRational(0, 1)) == GaussianRational(0, -1)
    with pytest.raises(ZeroDivisionError):
        involution(GaussianRational(0))


def test_involution_has_no_fixed_points():
    # a fixed point would need |z|^2 = -1
    rng = derive_rng(149, "involution-free")
    for _ in range(50):
        z = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        if not z:
            continue
        assert involution(z) != z


def test_weierstrass_symmetry_positive_moebius_pair():
    z = _z()
    a = GaussianRational(2)
    b = GaussianRational(0, 3)
    g1 = (z - a) / (RationalFunction.constant(a.conjugate()) * z + 1)
    g2 = (z - b) / (RationalFunction.constant(b.conjugate()) * z + 1)
    omega = 1 / ((z - a) * (z - b))
    rep = check_weierstrass_symmetry(WeierstrassData(g1, g2, omega))
    assert rep == {"g1": True, "g2": True, "omega": True}


def test_weierstrass_symmetry_positive_monomial():
    z = _z()
    omega = RationalFunction.constant(GaussianRational(0, 1)) / (z * z)
    rep = check_weierstrass_symmetry(WeierstrassData(z, -z, omega))
    assert rep == {"g1": True, "g2": True, "omega": True}


def test_weierstrass_symmetry_omega_failure():
    z = _z()
    w = WeierstrassData(z, z, RationalFunction.constant(1))
    rep = check_weierstrass_symmetry(w)
    assert rep["g1"] and rep["g2"]
    assert not rep["omega"]


def test_weierstrass_symmetry_constant_g_fails():
    z = _z()
    w = WeierstrassData(RationalFunction.constant(GaussianRational(2)), z, 1 / (z * z))
    rep = check_weierstrass_symmetry(w)
    assert not rep["g1"]


def test_omitted_closure():
    assert involution_omitted_closure([GaussianRational(0), INFINITY])
    assert involution_omitted_closure(
        [GaussianRational(2), GaussianRational("-1/2")]
    )
    assert not involution_omitted_closure([GaussianRational(1, 1)])


def test_validate_symmetric_laurent_examples():
    data = _shipped_data()
    for phi in data.phi:
        assert validate_symmetric_laurent(phi)
    assert not validate_symmetric_laurent(parse_laurent("(1)"))
    assert not validate_symmetric_laurent(parse_laurent("(1)*z + (-1)*z^-1"))


def test_validate_symmetric_laurent_random():
    rng = derive_rng(151, "sym-laurent")
    for _ in range(60):
        phi = _symmetric_phi(rng)
        assert validate_symmetric_laurent(phi)


def test_symmetric_data_validation():
    with pytest.raises(DomainError):
        SymmetricLaurentData(
            (
                parse_laurent("(1)"),
                parse_laurent("0"),
                parse_laurent("0"),
                parse_laurent("0"),
            )
        )
    data = _shipped_data()
    assert data.a0() == (
        GaussianRational(0),
        GaussianRational(0),
        GaussianRational(0),
        GaussianRational(0, -1),
    )


def test_f_from_coefficients():
    f = f_from_coefficients([GaussianRational(1), GaussianRational(1)])
    assert f == parse_laurent("(1)*z^2 + (1)*z + (-1)*z^-1 + (1)*z^-2")


def test_build_f_rejects_circle_roots():
    with pytest.raises(ConditionViolation):
        build_f([GaussianRational(1)])  # z - 1/z vanishes at +-1
    with pytest.raises(ConditionViolation):
        build_f([GaussianRational(0, 1)])  # iz + i/z vanishes at +-i
    with pytest.raises(DomainError):
        build_f([])
    with pytest.raises(DomainError):
        build_f([GaussianRational(1), GaussianRational(0)])


def test_build_f_shipped():
    f = _shipped_f()
    assert f.m == 2
    assert len(f.root_moduli) == 4
    # two roots inside the unit circle, two outside, mirrored as r <-> 1/r
    assert f.root_moduli[0] == pytest.approx(1.0 / f.root_moduli[-1], rel=1e-7)
    assert f.root_moduli[0] == pytest.approx(0.728704368355, abs=1e-6)
    assert f.root_moduli[-1] == pytest.approx(1.372298621261, abs=1e-6)


def test_unit_circle_min_shipped_value():
    f = _shipped_f()
    # |f(e^{i t})|^2 = 16 s^2 - 12 s + 4 with s = sin^2 t: minimum 7/4 at s = 3/8
    assert abs(unit_circle_min(f.f) - math.sqrt(7.0) / 2.0) < 1e-9
    assert f.circle_min == pytest.approx(math.sqrt(7.0) / 2.0, abs=1e-9)


def test_validate_symmetric_f():
    f = _shipped_f()
    assert validate_symmetric_f(f.f)
    assert not validate_symmetric_f(parse_laurent("(1)*z + (1)*z^-1"))


def test_symmetric_f_random():
    rng = derive_rng(157, "sym-f")
    for _ in range(60):
        b = [
            GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3))
        ]
        if not b[-1]:
            b[-1] = GaussianRational(1)
        assert validate_symmetric_f(f_from_coefficients(b))


def test_cover_spec_validation():
    CoverSpec(3, 2)
    with pytest.raises(DomainError):
        CoverSpec(4, 2)  # even
    with pytest.raises(DomainError):
        CoverSpec(3, 3)  # k <= m
    with pytest.raises(DomainError):
        CoverSpec(0, 1)


def test_residue_condition_automatic_for_odd_large_k():
    rng = derive_rng(163, "residue-prop")
    checked = 0
    while checked < 500:
        phi = _symmetric_phi(rng)
        if phi.is_zero():
            continue
        m = rng.randint(1, 3)
        b = [
            GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(m)
        ]
        if not b[-1]:
            b[-1] = GaussianRational(1)
        f = f_from_coefficients(b)
        k = m + 1 if (m + 1) % 2 else m + 2
        k += 2 * rng.randint(0, 2)
        ok, value = residue_condition(phi, f, k)
        assert ok, f"residue {value} for k={k}, m={m}"
        assert value == GaussianRational(0)
        checked += 1


def test_residue_condition_k1_violation():
    data = _shipped_data()
    f = _shipped_f()
    ok, value = residue_condition(data.phi[1], f, 1)
    assert not ok
    assert value == GaussianRational(0, 1)
    # the first component cancels by coincidence at k = 1
    ok0, value0 = residue_condition(data.phi[0], f, 1)
    assert ok0 and value0 == GaussianRational(0)


def test_pullback_psi_shipped():
    data = _shipped_data()
    f = _shipped_f()
    cover = CoverSpec(3, f.m)
    psis, symmetric = pullback_psi(data, f, cover)
    assert symmetric
    assert len(psis) == 4
    # H_j = k f phi_j(z^k): indices live in [-k - m, k + m] with no z^0 term
    for phi, h in zip(data.phi, psis):
        if h.is_zero():
            continue
        assert h.lo >= -5 and h.hi <= 5
        assert h.coeff(0) == GaussianRational(0)
    # the constant component pulls back to k * c0 * f
    expected = f.f * (GaussianRational(3) * data.phi[3].coeff(0))
    assert psis[3] == expected


def test_pullback_psi_index_range():
    phi = parse_laurent("(1)*z + (1)*z^-1")
    f = _shipped_f()
    cover = CoverSpec(3, f.m)
    data = SymmetricLaurentData((phi, phi, phi, phi))
    psis, symmetric = pullback_psi(data, f, cover)
    assert symmetric
    assert psis[0].lo == -5 and psis[0].hi == 5


def test_pullback_needs_cover_spec():
    data = _shipped_data()
    f = _shipped_f()
    with pytest.raises(DomainError):
        pullback_psi(data, f, 3)


def test_f_bounds_escalation():
    f = _shipped_f()
    bounds = f_bounds(f, 4.0, 3)
    # root moduli 0.729/1.372 intrude into [4^{-1/3}, 4^{1/3}]; k = 5 clears
    assert bounds.k == 5
    lo, hi = 4.0 ** (-1.0 / 5.0), 4.0 ** (1.0 / 5.0)
    for mod in f.root_moduli:
        assert mod < lo or mod > hi
    assert bounds.min_mod > 1.0 / bounds.c
    assert bounds.max_mod < bounds.c


def test_f_bounds_no_escalation_for_small_R():
    f = _shipped_f()
    bounds = f_bounds(f, 1.5, 3)
    assert bounds.k == 3


def test_f_bounds_exhaustion():
    f = _shipped_f()
    with pytest.raises(KSearchExhausted):
        f_bounds(f, 1e14, 3, cap=9)


def test_f_bounds_validation():
    f = _shipped_f()
    with pytest.raises(DomainError):
        f_bounds(f, 0.5, 3)
    with pytest.raises(DomainError):
        f_bounds(f.f, 4.0, 3)


def test_sandwich_check_shipped():
    data = _shipped_data()
    f = _shipped_f()
    bounds = f_bounds(f, 4.0, 3)
    cover = CoverSpec(bounds.k, f.m)
    psis, _ = pullback_psi(data, f, cover)
    rho = math.exp(math.log(4.0) / bounds.k)
    ok, worst = sandwich_check(data, psis, bounds, rho, samples=500, seed=0, slack=1e-12)
    assert ok
    assert worst <= 0.0 + 1e-15


def test_sandwich_check_deterministic():
    data = _shipped_data()
    f = _shipped_f()
    bounds = f_bounds(f, 4.0, 3)
    cover = CoverSpec(bounds.k, f.m)
    psis, _ = pullback_psi(data, f, cover)
    rho = math.exp(math.log(4.0) / bounds.k)
    r1 = sandwich_check(data, psis, bounds, rho, samples=200, seed=7, slack=1e-12)
    r2 = sandwich_check(data, psis, bounds, rho, samples=200, seed=7, slack=1e-12)
    assert r1 == r2


def test_sandwich_check_matches_pointwise_loop():
    """The array evaluation against the point-by-point loop it replaced, with
    c = 2 too small for the shipped f so that margins go negative."""
    data = _shipped_data()
    f = _shipped_f()
    k = f_bounds(f, 4.0, 3).k
    bounds = FBounds(2.0, 0.5, 2.0, k)
    psis, _ = pullback_psi(data, f, CoverSpec(k, f.m))
    rho = math.exp(math.log(4.0) / k)
    c2 = bounds.c * bounds.c
    ok = True
    worst = 0.0
    rng = derive_rng(3, 300, "sandwich")
    for _ in range(300):
        r = math.exp(rng.uniform(math.log(1.0 / rho), math.log(rho)))
        z = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        pull = sum(abs(k * phi.eval(z**k) / z) ** 2 for phi in data.phi)
        lam0 = sum(abs(h.eval(z) / z) ** 2 for h in psis)
        lo_margin = lam0 - pull / c2 * (1.0 - 1e-12)
        hi_margin = c2 * pull * (1.0 + 1e-12) - lam0
        worst = max(worst, -min(lo_margin, hi_margin) / pull)
        ok = ok and lo_margin >= 0.0 and hi_margin >= 0.0
    measured_ok, measured = sandwich_check(
        data, psis, bounds, rho, samples=300, seed=3, slack=1e-12
    )
    assert not ok and not measured_ok
    assert worst > 0.1
    assert measured == pytest.approx(worst, rel=1e-12)


def test_loop_periods_vanish():
    # the loop period of H dz/z on |z| = 1 is 2 pi i times the z^0
    # coefficient of H, which the residue condition makes exactly 0; the
    # trapezoid rule, exact here up to rounding, agrees
    data = _shipped_data()
    f = _shipped_f()
    psis, _ = pullback_psi(data, f, CoverSpec(5, f.m))
    z = np.exp(2j * math.pi * np.arange(4096) / 4096)
    for h in psis:
        assert h.coeff(0) == GaussianRational(0)
        assert abs(np.sum(h.eval(z)) * 2j * math.pi / 4096) < 1e-12


def test_loop_periods_see_a_residue():
    # H = 3 + z has the loop period 2 pi i * 3 on |z| = 1, so Re int psi is
    # multivalued and the mesh refuses it
    with pytest.raises(PeriodObstruction):
        half_domain_mesh([parse_laurent("(3) + z")], 2.0, n_r=2, n_theta=4)


def test_half_domain_mesh():
    data = _shipped_data()
    f = _shipped_f()
    psis, _ = pullback_psi(data, f, CoverSpec(5, f.m))
    rho = math.exp(math.log(4.0) / 5)
    mesh = half_domain_mesh(psis, rho, n_r=4, n_theta=16)
    assert len(mesh.vertices) == 64
    assert len(mesh.faces) == 2 * 3 * 16
    pairs = mesh.metadata["identified-pairs"].split(";")
    assert len(pairs) == 8
    assert pairs[0] == "0<->8"
    with pytest.raises(DomainError):
        half_domain_mesh(psis, rho, n_r=4, n_theta=15)


def test_half_domain_mesh_against_closed_form():
    """Vertices against int_1^z H_j(z) dz/z = sum_{n != 0} c_n (z^n - 1)/n.

    The z^0 coefficient of each H_j is 0 (the residue condition), so the
    primitive is a Laurent polynomial, which the mesh evaluates; the vertex
    scale on the shipped data at k = 5 is 6.18.
    """
    data = _shipped_data()
    f = _shipped_f()
    psis, _ = pullback_psi(data, f, CoverSpec(5, f.m))
    rho = math.exp(math.log(4.0) / 5)
    n_r, n_theta = 8, 64
    mesh = half_domain_mesh(psis, rho, n_r=n_r, n_theta=n_theta)
    for h in psis:
        assert h.coeff(0) == 0
    r_hi = math.sqrt(rho)
    worst = scale = 0.0
    for jr in range(n_r):
        r = 1.0 + (r_hi - 1.0) * jr / (n_r - 1)
        for it in range(n_theta):
            z = r * cmath.exp(2j * math.pi * it / n_theta)
            exact = [
                sum(to_complex(c) * (z**n - 1) / n for n, c in h.terms().items() if n).real
                for h in psis
            ]
            vertex = mesh.vertices[jr * n_theta + it]
            worst = max(worst, max(abs(a - b) for a, b in zip(exact, vertex)))
            scale = max(scale, max(abs(a) for a in exact))
    assert scale == pytest.approx(6.18, abs=0.01)
    assert worst < 1e-12


def _report(data, b, k, declared_omitted=None, mesh_params=None):
    """assemble_report on R = 4 with 100 sandwich samples at seed 0."""
    return assemble_report(
        data,
        b,
        k,
        4.0,
        declared_omitted=declared_omitted,
        samples=100,
        seed=0,
        slack=1e-12,
        mesh_params=mesh_params,
    )


def test_assemble_report_shipped_passes():
    data = _shipped_data()
    rep = assemble_report(
        data,
        _SHIPPED_B,
        3,
        4.0,
        declared_omitted=[
            [SpherePoint.of("0"), INFINITY],
            [SpherePoint.of("0"), INFINITY],
        ],
        samples=300,
        seed=0,
        slack=1e-12,
        mesh_params={"n_r": 4, "n_theta": 16},
    )
    assert rep.passed
    assert rep.failed_stage is None
    assert rep.k_declared == 3
    assert rep.k_used == 5
    names = [s.stage for s in rep.stages]
    assert names == [
        "f-condition-c",
        "cover",
        "laurent-symmetry",
        "residue-conditions",
        "psi-assembly",
        "conformality",
        "f-bounds",
        "sandwich",
        "rp2-count",
        "mesh",
    ]
    fb = next(s for s in rep.stages if s.stage == "f-bounds")
    assert fb.details["escalated_from"] == 3
    rp2 = next(s for s in rep.stages if s.stage == "rp2-count")
    assert rp2.details["g1"]["rp2_count"] == 1
    assert rep.mesh is not None


def test_assemble_report_coefficients_accepted():
    data = _shipped_data()
    rep = _report(data, _SHIPPED_B, 3)
    assert rep.passed
    skipped = [s.stage for s in rep.stages if s.status == "skipped"]
    assert "rp2-count" in skipped


def test_assemble_report_bad_f_fails_first_stage():
    data = _shipped_data()
    rep = _report(data, [GaussianRational(1)], 3)
    assert not rep.passed
    assert rep.failed_stage == "f-condition-c"
    assert [s.status for s in rep.stages] == ["failed"]


def test_assemble_report_even_k_fails_cover():
    data = _shipped_data()
    rep = _report(data, _SHIPPED_B, 4)
    assert not rep.passed
    assert rep.failed_stage == "cover"


def test_assemble_report_unclosed_omitted_set_fails():
    data = _shipped_data()
    rep = _report(
        data,
        _SHIPPED_B,
        3,
        declared_omitted=[[SpherePoint.of("1+1i")], [SpherePoint.of("0"), INFINITY]],
    )
    assert not rep.passed
    assert rep.failed_stage == "rp2-count"


def test_assemble_report_conformality_gate():
    phi = parse_laurent("(1)*z + (1)*z^-1")
    data = SymmetricLaurentData((phi, phi, phi, phi))
    rep = _report(data, _SHIPPED_B, 3)
    assert not rep.passed
    assert rep.failed_stage == "conformality"


def test_constant_imaginary_component_pulls_back_symmetric():
    phi = parse_laurent("(1i)")
    assert validate_symmetric_laurent(phi)
    f = _shipped_f()
    h = (phi.compose_power(3) * f.f) * 3
    assert validate_symmetric_laurent(h)
