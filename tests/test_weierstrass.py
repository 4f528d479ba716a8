"""Coordinate forms from rational data: conformality, regularity, periods,
and the closed-form immersion."""

import math
from fractions import Fraction

import pytest

from minsurf4.domains import Annulus, PuncturedPlane, derive_rng
from minsurf4.errors import (
    DegenerateFrame,
    DomainError,
    InvalidPath,
    MultivaluedImmersion,
    RequiresExactMode,
)
from minsurf4.poly import Polynomial
from minsurf4.rational import RationalFunction
from minsurf4.scalars import GaussianRational
from minsurf4.weierstrass import (
    PhiForms,
    WeierstrassData,
    check_conformality,
    check_regularity,
    data_from_phis,
    immerse,
    period_residues,
    phis_from_data,
)
from oracles import induced_metric_identity, loop_period


def _z():
    return RationalFunction.z()


def _one():
    return RationalFunction.constant(1)


def _random_poly(rng, max_deg, bound=2):
    coeffs = [
        GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
        for _ in range(rng.randint(0, max_deg) + 1)
    ]
    p = Polynomial(coeffs)
    return p if not p.is_zero() else Polynomial([1])


def _random_data(rng, max_deg=3):
    g1 = RationalFunction(_random_poly(rng, max_deg), _random_poly(rng, max_deg))
    g2 = RationalFunction(_random_poly(rng, max_deg), _random_poly(rng, max_deg))
    omega = RationalFunction(_random_poly(rng, max_deg), _random_poly(rng, max_deg))
    return WeierstrassData(g1, g2, omega)


def _catenoid():
    z = _z()
    return WeierstrassData(z, -z, 1 / (z * z))


def test_phi_construction_example():
    z = _z()
    w = WeierstrassData(z, -z, 1 / (z * z))
    p = phis_from_data(w)
    # phi3 = (g1 - g2) omega / 2 = 1/z; phi4 = -(i/2)(g1 + g2) omega = 0
    assert p.phi[2] == 1 / z
    assert p.phi[3].is_zero()


def test_conformality_random_round_trip():
    rng = derive_rng(113, "weier-roundtrip")
    done = 0
    while done < 60:
        w = _random_data(rng)
        p = phis_from_data(w)
        assert check_conformality(p)
        try:
            back = data_from_phis(p)
        except DegenerateFrame:
            continue  # g1 g2 == -1 makes omega-hat vanish
        assert back == w
        done += 1


def test_conformality_detects_broken_forms():
    z = _z()
    w = WeierstrassData(z, 2 * z, _one())
    p = phis_from_data(w)
    broken = PhiForms((p.phi[0], p.phi[1], p.phi[2], p.phi[3] * 2))
    assert check_conformality(p)
    assert not check_conformality(broken)


def test_conformality_rejects_perturbed_forms_with_distinct_denominators():
    # (f, i f, h, i h) is conformal; a 3-4-5 rotation of forms 1 and 3 keeps it so
    z = _z()
    i = GaussianRational(0, 1)
    f, h = 1 / (z - 1), z / (z + 2)
    c, s = GaussianRational("3/5"), GaussianRational("4/5")
    p = PhiForms((c * f - s * h, i * f, s * f + c * h, i * h))
    assert [phi.den.degree for phi in p.phi] == [2, 1, 2, 1]
    assert len({phi.den for phi in p.phi}) == 3
    assert check_conformality(p)
    for bump in (1 / (z - 3), RationalFunction.constant(GaussianRational("1/1000")), 1 / (z + 2)):
        assert not check_conformality(PhiForms((p.phi[0] + bump,) + p.phi[1:]))


def test_conformality_with_a_zero_form():
    z = _z()
    i = GaussianRational(0, 1)
    catenoid = phis_from_data(_catenoid())
    assert catenoid.phi[3].is_zero() and check_conformality(catenoid)
    # 1 - 1 + 1/z^2: three forms that are not conformal beside a zero one
    assert not check_conformality(PhiForms((_one(), _one() * i, 1 / z, 0 * z)))
    assert not check_conformality(PhiForms((0 * z, 0 * z, 0 * z, 1 / z)))


def test_conformality_with_different_clearing_denominators():
    # 3-4-5: (5/12)^2 - (1/3)^2 - (1/4)^2 == 0, cleared by L = 12, 3 and 4
    z = _z()
    i = GaussianRational(0, 1)
    forms = [GaussianRational("5/12") / (z - 1), i / 3 / (z - 1), i / 4 / (z - 1), 0 * z]
    assert check_conformality(PhiForms(forms))
    # the numerators alone cancel (1 + i^2 == 0); the denominators do not
    assert not check_conformality(PhiForms((1 / (2 * z), i / (3 * z), 0 * z, 0 * z)))
    forms[2] = forms[2] + GaussianRational(0, "1/5")
    assert not check_conformality(PhiForms(forms))


def test_conformality_requires_exact():
    # float forms cannot be built, so the identity test only ever sees exact data
    for coeffs in ([1.0], [1.0j], [0.0, 1.0]):
        with pytest.raises(RequiresExactMode):
            RationalFunction(Polynomial(coeffs))
        with pytest.raises(RequiresExactMode):
            RationalFunction(coeffs)


def test_rotation_invariance():
    # a rational Givens rotation of the phi vector preserves conformality
    z = _z()
    w = WeierstrassData(z, 2 * z, _one())
    p = phis_from_data(w)
    c = GaussianRational("3/5")
    s = GaussianRational("4/5")
    rotated = PhiForms(
        (
            p.phi[0] * c - p.phi[2] * s,
            p.phi[1],
            p.phi[0] * s + p.phi[2] * c,
            p.phi[3],
        )
    )
    assert check_conformality(rotated)


def test_metric_identity():
    rng = derive_rng(127, "weier-metric")
    w = _catenoid()
    p = phis_from_data(w)
    samples = [complex(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)) for _ in range(50)]
    assert induced_metric_identity(p, samples) < 1e-12


def test_metric_identity_values():
    # flat data: both sides equal 1 at 0; catenoid: both sides equal 4 at 1
    flat = WeierstrassData(
        RationalFunction.constant(0), RationalFunction.constant(0), _one()
    )
    p = phis_from_data(flat)
    lhs = 2.0 * sum(abs(phi.eval_at(0j)) ** 2 for phi in p.phi)
    assert lhs == pytest.approx(1.0)
    p = phis_from_data(_catenoid())
    lhs = 2.0 * sum(abs(phi.eval_at(1.0 + 0j)) ** 2 for phi in p.phi)
    assert lhs == pytest.approx(4.0)


def test_antiparallel_components_kill_phi4():
    z = _z()
    w = WeierstrassData(z, -z, _one())
    p = phis_from_data(w)
    assert p.phi[3].is_zero()


def test_regularity():
    z = _z()
    w = WeierstrassData(z, 2 * z, _one())
    p = phis_from_data(w)
    domain = PuncturedPlane([])
    assert check_regularity(p, domain).regular
    scaled = PhiForms(tuple(phi * (z - 1) for phi in p.phi))
    rep = check_regularity(scaled, domain)
    assert not rep.regular
    assert any(abs(b - 1.0) < 1e-8 for b in rep.branch_points)


def test_regularity_sees_a_branch_point_near_a_puncture():
    # omega_hat = (z - 10^-10)/z^2 with g1 = z, g2 = -z: the forms share the
    # zero 10^-10, which is not the puncture 0
    z = _z()
    near = GaussianRational(Fraction(1, 10**10))
    omega_hat = RationalFunction(Polynomial([-near, 1]), Polynomial([0, 0, 1]))
    p = phis_from_data(WeierstrassData(z, -z, omega_hat))
    rep = check_regularity(p, PuncturedPlane([GaussianRational(0)]))
    assert not rep.regular
    assert rep.branch_points == (pytest.approx(1e-10, abs=1e-20),)


def test_regularity_refuses_a_pole_inside_the_domain():
    # the catenoid's forms have their poles at 0: inside the plane, at the
    # puncture of C^*, outside the annulus; _pole_forms has its poles at
    # +-sqrt 2, found once although three forms share them
    p = phis_from_data(_catenoid())
    rep = check_regularity(p, PuncturedPlane([]))
    assert (rep.regular, rep.branch_points, rep.poles) == (False, (), (0j,))
    assert check_regularity(p, PuncturedPlane([GaussianRational(0)])).regular
    assert check_regularity(p, Annulus(2.0)).regular
    rep = check_regularity(_pole_forms(), PuncturedPlane([]))
    assert not rep.regular
    assert sorted(z.real for z in rep.poles) == pytest.approx([-math.sqrt(2.0), math.sqrt(2.0)], abs=1e-15)


def test_period_residues_catenoid():
    p = phis_from_data(_catenoid())
    domain = PuncturedPlane([GaussianRational(0)])
    rep = period_residues(p, domain)
    assert rep.well_defined
    label, res = rep.residues[0]
    assert res[0] == GaussianRational(0)
    assert res[1] == GaussianRational(0)
    assert res[2] == GaussianRational(1)
    assert res[3] == GaussianRational(0)


def test_period_obstruction_detected():
    z = _z()
    i = GaussianRational(0, 1)
    p = PhiForms((_one(), _one() * i, i / z, _one()))
    domain = PuncturedPlane([GaussianRational(0)])
    rep = period_residues(p, domain)
    assert not rep.well_defined
    with pytest.raises(MultivaluedImmersion):
        immerse(p, domain, GaussianRational(1), [GaussianRational(2)])


def test_period_residues_need_punctured_plane():
    p = phis_from_data(_catenoid())
    with pytest.raises(DomainError):
        period_residues(p, object())


def test_loop_period_catenoid():
    p = phis_from_data(_catenoid())
    periods = loop_period(p, 0.0, 1.0)
    for val in periods:
        assert abs(val.real) < 1e-8
    # the third form has residue 1: its loop integral is 2 pi i
    assert abs(periods[2] - 2j * math.pi) < 1e-8


def test_immerse_base_is_origin():
    p = phis_from_data(_catenoid())
    domain = PuncturedPlane([GaussianRational(0)])
    (x,) = immerse(p, domain, 1.0, [1.0])
    assert max(abs(v) for v in x) < 1e-12


def test_immerse_flat_example():
    flat = WeierstrassData(
        RationalFunction.constant(0), RationalFunction.constant(0), _one()
    )
    p = phis_from_data(flat)
    domain = PuncturedPlane([])
    (x,) = immerse(p, domain, 0.0, [2.0])
    assert x[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(x[1]) < 1e-9 and abs(x[2]) < 1e-9 and abs(x[3]) < 1e-9


def test_immerse_path_independence():
    p = phis_from_data(_catenoid())
    domain = PuncturedPlane([GaussianRational(0)])
    (direct,) = immerse(p, domain, 1.0, [-1.0])
    (leg1,) = immerse(p, domain, 1.0, [1j])
    (leg2,) = immerse(p, domain, 1j, [-1.0])
    for d, a, b in zip(direct, leg1, leg2):
        assert d == pytest.approx(a + b, abs=1e-6)


def test_immerse_harmonic_coordinates():
    p = phis_from_data(_catenoid())
    domain = PuncturedPlane([GaussianRational(0)])
    h = 1e-3
    z0 = 1.0 + 0j
    targets = [z0, z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h]
    xs = immerse(p, domain, 1.0, targets)
    for i in range(4):
        lap = (xs[1][i] + xs[2][i] + xs[3][i] + xs[4][i] - 4 * xs[0][i]) / (h * h)
        assert abs(lap) < 1e-5


def _pole_forms():
    """Forms with double and triple poles at +-sqrt(2), off any puncture."""
    z = _z()
    i = GaussianRational(0, 1)
    q = z * z - 2
    return PhiForms((1 / (q * q), z / q, (z * z + 1) / (q * q * q), 3 * z * z + i))


def _pole_forms_primitives(z):
    """Hand primitives of _pole_forms, from the partial fractions at
    s = sqrt(2): 1/q^2 = 1/(8(z-s)^2) - 1/(8s(z-s)) + 1/(8(z+s)^2) + 1/(8s(z+s))
    and (z^2+1)/q^3 = a3/(z-s)^3 - 1/(64(z-s)^2) + a1/(z-s) - a3/(z+s)^3
    - 1/(64(z+s)^2) - a1/(z+s) with a3 = 3/(16s), a1 = 1/(64s)."""
    s = math.sqrt(2.0)
    u, v = z - s, z + s
    lu, lv = math.log(abs(u)), math.log(abs(v))
    a3, a1 = 3.0 / (16.0 * s), 1.0 / (64.0 * s)
    return (
        (-1.0 / (8.0 * u) - 1.0 / (8.0 * v)).real + (lv - lu) / (8.0 * s),
        0.5 * math.log(abs(z * z - 2.0)),
        (-a3 / (2.0 * u * u) + 1.0 / (64.0 * u) + a3 / (2.0 * v * v) + 1.0 / (64.0 * v)).real
        + a1 * (lu - lv),
        (z**3 + 1j * z).real,
    )


def test_immerse_matches_hand_primitives():
    base = 2.5 + 2.5j
    targets = [0.3 - 2.7j, -1.0 + 0.5j, 3.0, 1.5j, -2.2 - 0.1j]
    xs = immerse(_pole_forms(), PuncturedPlane([]), base, targets)
    at_base = _pole_forms_primitives(base)
    for t, x in zip(targets, xs):
        want = [a - b for a, b in zip(_pole_forms_primitives(t), at_base)]
        assert max(abs(a - b) for a, b in zip(x, want)) < 1e-12


def test_immerse_refuses_nonreal_residues_at_unlisted_poles():
    # phi2 = i(1 + z^2)/(2(z^2 - 2)) has the residue 3i/(4 sqrt 2) ~ 0.53i at
    # sqrt 2, which no domain lists as a puncture
    z = _z()
    p = phis_from_data(WeierstrassData(z * z, RationalFunction.constant(-1), 1 / (z * z - 2)))
    phi2, a = p.phi[1], math.sqrt(2.0)
    # a simple pole: the residue is num/den' there
    assert abs(phi2.num.eval(a) / phi2.den.derivative().eval(a) - 3j / (4.0 * a)) < 1e-9
    for domain in (PuncturedPlane([]), Annulus(2.0)):
        with pytest.raises(MultivaluedImmersion):
            immerse(p, domain, 1.0, [1j])


def test_immerse_refuses_approximate_forms():
    # forms with float coefficients cannot reach immerse: building them raises
    with pytest.raises(RequiresExactMode):
        RationalFunction(Polynomial([0.0, 1.0]))
    z = _z()
    for scalar in (1j, 0.5):
        with pytest.raises(TypeError):
            z * scalar


def test_immerse_refuses_a_target_at_a_pole():
    p = phis_from_data(_catenoid())
    with pytest.raises(InvalidPath):
        immerse(p, PuncturedPlane([GaussianRational(0)]), 1.0, [0.0])


def test_immerse_refuses_a_base_point_at_a_pole():
    # math.log(0.0) raises ValueError at the pole; immerse reports InvalidPath
    p = phis_from_data(_catenoid())
    with pytest.raises(InvalidPath):
        immerse(p, PuncturedPlane([GaussianRational(0)]), 0.0, [1.0])


def test_immerse_refuses_targets_where_a_power_leaves_the_float_range():
    # (g1, g2, omega_hat) = (z^2, -z^2, 1/z^3): phi1 and phi2 have triple
    # poles at 0, so their primitives carry z^-2. At 1e-200 the square
    # underflows to 0 (ZeroDivisionError); at 1e-160 it is subnormal and its
    # reciprocal overflows (OverflowError). Both are InvalidPath.
    z = _z()
    p = phis_from_data(WeierstrassData(z * z, -(z * z), 1 / (z * z * z)))
    domain = PuncturedPlane([GaussianRational(0)])
    (x,) = immerse(p, domain, 1.0, [1e-100])
    assert x[0] == pytest.approx(-2.5e199)
    for target in (1e-200, 1e-160):
        with pytest.raises(InvalidPath):
            immerse(p, domain, 1.0, [target])


def test_data_from_phis_rejects_degenerate_frame():
    z = _z()
    i = GaussianRational(0, 1)
    # phi1 - i phi2 == 0 identically
    p = PhiForms((_one(), _one() * (-i), z, z * i))
    with pytest.raises(DegenerateFrame):
        data_from_phis(p)
