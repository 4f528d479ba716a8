"""Exceptional values, the exceptional-value inequality, and the random
falsification harness."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minsurf4 import gaussmap
from minsurf4.domains import PuncturedPlane, derive_rng
from minsurf4.errors import ConstantMapError, DomainError, FlatSurfaceError, InfeasibleSampling
from minsurf4.gaussmap import (
    FalsifyBounds,
    exceptional_values,
    falsify,
    nonorientable_check,
    r4_gauss_check,
    verify_main_inequality,
)
from minsurf4.metric import MetricSpec
from minsurf4.poly import Polynomial, clear_denominators, clear_point, multiplicity_at
from minsurf4.rational import INF, MoebiusTransform, RationalFunction
from minsurf4.scalars import GaussianRational
from oracles import lift_equivalence
from minsurf4.sphere import INFINITY, SpherePoint, format_point


def _z():
    return RationalFunction.z()


def _one():
    return RationalFunction.constant(1)


def _family(p, ms):
    z = _z()
    punctures = [GaussianRational(a) for a in range(1, p)]
    omega = _one()
    for a in punctures:
        omega = omega / (z - a)
    return MetricSpec([(z, m) for m in ms], omega), PuncturedPlane(punctures)


def _omitted_strs(omitted):
    return sorted(format_point(v) for v in omitted)


def test_identity_map_omits_boundary():
    d = PuncturedPlane([GaussianRational(a) for a in (1, 2, 3)])
    omitted = exceptional_values(_z(), d)
    assert _omitted_strs(omitted) == ["1", "2", "3", "inf"]


def test_square_map():
    d = PuncturedPlane([GaussianRational(0)])
    omitted = exceptional_values(_z() * _z(), d)
    assert _omitted_strs(omitted) == ["0", "inf"]


def test_polynomial_omits_only_infinity():
    d = PuncturedPlane([])
    omitted = exceptional_values(_z(), d)
    assert _omitted_strs(omitted) == ["inf"]


def test_constant_map_rejected():
    with pytest.raises(ConstantMapError):
        exceptional_values(_one(), PuncturedPlane([]))


def test_omitted_bounded_by_boundary_count():
    rng = derive_rng(107, "gauss-bound")
    z = _z()
    for _ in range(40):
        count = rng.randint(1, 3)
        punctures = []
        while len(punctures) < count:
            c = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            if all(c != p for p in punctures):
                punctures.append(c)
        d = PuncturedPlane(punctures)
        num_deg = rng.randint(1, 2)
        g = z**num_deg + GaussianRational(rng.randint(-2, 2))
        omitted = exceptional_values(g, d)
        assert len(omitted) <= count + 1


def _omitted_by_definition(g, value, punctures):
    """The omission test on exact polynomials: every finite root of
    num - value*den (den for infinity) is a puncture, with multiplicity."""
    q = g.den if value.is_infinity else g.num - Polynomial([value.value]) * g.den
    return q.degree <= 0 or sum(multiplicity_at(q, p) for p in punctures) == q.degree


def _integer_omission_test(g, value, punctures):
    _, (num, den) = clear_denominators(g.num, g.den)
    points = [clear_point(p) for p in punctures]
    return gaussmap._all_preimages_on_boundary(num, den, value, points)


_parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_gaussian = st.builds(GaussianRational, _parts, _parts)


@st.composite
def _maps_and_punctures(draw):
    """A nonconstant g and distinct punctures: either random num/den, or
    alpha + c/prod (z - a)^e over some punctures, which omits alpha = g(inf)
    and infinity."""
    punctures = draw(st.lists(_gaussian, min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        num = Polynomial(draw(st.lists(_gaussian, max_size=4)))
        den = Polynomial(draw(st.lists(_gaussian, min_size=1, max_size=4).filter(any)))
        g = RationalFunction(num, den)
    else:
        poles = draw(st.lists(st.sampled_from(punctures), min_size=1, max_size=3))
        alpha, c = draw(_gaussian), draw(_gaussian.filter(bool))
        g = RationalFunction.constant(alpha) + c / RationalFunction(Polynomial.from_roots(poles))
    if g.is_constant():
        g = g + RationalFunction.z()
    return g, punctures


@given(_maps_and_punctures(), _gaussian)
def test_integer_omission_test_matches_definition(map_and_punctures, other):
    """The test on the integer pairs d_v N - V D agrees with the definition
    on num - value*den at every boundary image, at g(inf) (where the degree
    of q drops when deg num = deg den), at infinity and at an unrelated
    value."""
    g, punctures = map_and_punctures
    images = [g.eval_extended(p) for p in punctures + [INF]]
    values = [INFINITY if flag else SpherePoint(v) for flag, v in images]
    values += [INFINITY, SpherePoint(other)]
    for v in values:
        assert _integer_omission_test(g, v, punctures) == _omitted_by_definition(g, v, punctures)
    omitted = [v for v in set(values[:-2]) if _omitted_by_definition(g, v, punctures)]
    assert exceptional_values(g, PuncturedPlane(punctures)) == tuple(sorted(omitted, key=SpherePoint.sort_key))


@pytest.mark.parametrize("puncture, omitted", [(1, True), (2, False)])
def test_omission_where_the_degree_of_q_drops(puncture, omitted):
    """g = (z^2 + z)/(z^2 + 1) has g(inf) = 1, and q = z - 1 has degree 1:
    1 is omitted exactly when 1 is a puncture."""
    z = _z()
    g = (z * z + z) / (z * z + 1)
    value = SpherePoint(GaussianRational(1))
    punctures = [GaussianRational(puncture)]
    assert g.eval_extended(INF) == (False, GaussianRational(1))
    assert _integer_omission_test(g, value, punctures) is omitted
    assert _omitted_by_definition(g, value, punctures) is omitted


def test_exceptional_values_builds_no_polynomial(monkeypatch):
    """On a fixed falsify draw (a quadratic alpha + 1/prod(z - a) and a
    Moebius map), the omission test runs on integer pairs and constructs no
    Polynomial."""
    spec, domain = gaussmap._draw_instance(derive_rng(12, 0, 0, "falsify"), FalsifyBounds())
    maps = [g for g, _ in spec.factors]
    built = []
    init = Polynomial.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    omitted = [_omitted_strs(exceptional_values(g, domain)) for g in maps]
    monkeypatch.undo()
    assert built == []
    assert omitted == [
        ["2-3i", "inf"],
        ["11/8-1i", "3/4-3/4i", "31/40-13/40i", "34/41-19/41i", "4/5-27/20i"],
    ]


def test_moebius_equivariance():
    rng = derive_rng(109, "gauss-moebius")
    z = _z()
    d = PuncturedPlane([GaussianRational(1), GaussianRational(-2)])
    g = z * z
    base = exceptional_values(g, d)
    for _ in range(25):
        a, b, c, dd = (
            GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)
        )
        if a * dd - b * c == GaussianRational(0):
            continue
        t = MoebiusTransform(a, b, c, dd)
        composed = t.apply_rational(g)
        if composed.is_constant():
            continue
        lhs = exceptional_values(composed, d)
        rhs = set()
        for v in base:
            img = t.apply_point(INF if v.is_infinity else v.value)
            rhs.add(INFINITY if img is INF else SpherePoint(img))
        assert _omitted_strs(lhs) == _omitted_strs(rhs)


def test_main_inequality_equality_family():
    spec, domain = _family(4, [1, 1])
    rep = verify_main_inequality(spec, domain)
    assert rep.completeness.overall is True
    assert rep.lhs == Fraction(1)
    assert rep.applicable and rep.holds
    assert not rep.counterexample
    assert [f.q for f in rep.factors] == [4, 4]


def test_main_inequality_incomplete_not_applicable():
    spec, domain = _family(5, [1, 1])
    rep = verify_main_inequality(spec, domain)
    assert rep.completeness.overall is False
    assert not rep.applicable
    assert rep.holds is None
    assert not rep.counterexample


def test_main_inequality_single_factor():
    spec, domain = _family(4, [2])
    rep = verify_main_inequality(spec, domain)
    assert rep.applicable
    assert rep.lhs == Fraction(1)
    assert rep.holds


def test_main_inequality_constant_factor_excluded():
    z = _z()
    spec, domain = _family(4, [1, 1])
    with_const = MetricSpec(
        list(spec.factors) + [(RationalFunction.constant(GaussianRational(2)), 1)],
        spec.omega_hat,
    )
    rep = verify_main_inequality(with_const, domain)
    constant_factors = [f for f in rep.factors if f.constant]
    assert len(constant_factors) == 1
    assert constant_factors[0].omitted is None


def test_family_sweep_equality_boundary():
    for p in range(3, 9):
        for ms in ([1, 1], [2], [1, 2], [3]):
            spec, domain = _family(p, ms)
            rep = verify_main_inequality(spec, domain)
            if rep.applicable:
                assert rep.lhs == Fraction(sum(ms), p - 2)
                assert (rep.lhs == 1) == (p == 2 + sum(ms))
            assert not rep.counterexample


def test_r4_check_both_nonconstant():
    z = _z()
    omega = _one()
    for a in (1, 2, 3):
        omega = omega / (z - GaussianRational(a))
    domain = PuncturedPlane([GaussianRational(a) for a in (1, 2, 3)])
    rep = r4_gauss_check(z, z, omega, domain)
    assert (rep.q1, rep.q2) == (4, 4)
    assert rep.applicable and rep.holds


def test_r4_check_one_constant():
    z = _z()
    omega = 1 / (z - GaussianRational(1))
    domain = PuncturedPlane([GaussianRational(1)])
    rep = r4_gauss_check(z, RationalFunction.constant(GaussianRational(2)), omega, domain)
    assert rep.q2 is None
    assert rep.q1 == 2
    assert rep.applicable and rep.holds


def test_r4_check_flat_rejected():
    c = RationalFunction.constant(GaussianRational(1))
    with pytest.raises(FlatSurfaceError):
        r4_gauss_check(c, c, _one(), PuncturedPlane([]))


def test_r4_check_incomplete_hypothesis_fails():
    z = _z()
    domain = PuncturedPlane([GaussianRational(1)])
    rep = r4_gauss_check(z, z, _one(), domain)
    assert rep.completeness.overall is False
    assert not rep.applicable
    assert rep.holds is None


def test_nonorientable_counts():
    rep = nonorientable_check(2, 2)
    assert rep.holds and rep.equality and rep.consistent
    rep = nonorientable_check(3, 2)
    assert not rep.holds and not rep.consistent
    rep = nonorientable_check(1, 7)
    assert rep.consistent and not rep.equality
    with pytest.raises(DomainError):
        nonorientable_check(-1, 2)


def test_lift_equivalence_exhaustive():
    for q1 in range(2, 21):
        for q2 in range(2, 21):
            left, right = lift_equivalence(q1, q2)
            assert left == right
    with pytest.raises(DomainError):
        lift_equivalence(1, 5)


def test_falsify_empty():
    summary, rows = falsify(0, 0)
    assert summary["instances"] == 0
    assert rows == []


def test_falsify_deterministic():
    s1, rows1 = falsify(3, 30)
    s2, rows2 = falsify(3, 30)
    assert s1 == s2
    assert [r.to_dict() for r in rows1] == [r.to_dict() for r in rows2]
    assert s1["counterexamples"] == 0


def test_falsify_seed_changes_rows():
    _, rows_a = falsify(3, 20)
    _, rows_b = falsify(4, 20)
    assert [r.to_dict() for r in rows_a] != [r.to_dict() for r in rows_b]


def test_falsify_require_complete():
    summary, rows = falsify(0, 40, bounds=FalsifyBounds(require_complete=True))
    assert summary["complete"] == 40
    assert summary["counterexamples"] == 0


def _never_complete(draws):
    """A stand-in for _draw_instance whose metric is never complete: omega_hat
    = 1/prod(z - a) over five punctures has sigma(inf) = 5 - 2 = 3 > -1."""
    punctures = [GaussianRational(a) for a in range(5)]
    omega = _one()
    for a in punctures:
        omega = omega / (_z() - a)

    def draw(rng, bounds):
        draws.append(rng)
        return MetricSpec([(_z(), 0)], omega), PuncturedPlane(punctures)

    return draw


def test_falsify_draw_cap_raises(monkeypatch):
    draws = []
    monkeypatch.setattr(gaussmap, "_draw_instance", _never_complete(draws))
    with pytest.raises(InfeasibleSampling, match="instance 0"):
        falsify(5, 3, bounds=FalsifyBounds(require_complete=True))
    assert len(draws) == 200
    # without require_complete the first draw is kept, complete or not
    draws.clear()
    summary, _ = falsify(5, 3)
    assert summary["complete"] == 0 and len(draws) == 3


def test_falsify_incomplete_only_bounds():
    # five punctures and weightless factors can never be complete
    bounds = FalsifyBounds(puncture_range=(5, 5), m_range=(0, 0))
    summary, rows = falsify(1, 30, bounds=bounds)
    assert summary["applicable"] == 0
    assert summary["counterexamples"] == 0


def test_falsify_rejects_negative_count():
    with pytest.raises(DomainError):
        falsify(0, -1)
