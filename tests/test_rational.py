"""Rational functions: orders, residues, reflection, Moebius transforms."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from minsurf4.domains import derive_rng
from minsurf4.errors import DomainError
from minsurf4.poly import Polynomial
from minsurf4.rational import (
    INF,
    MoebiusTransform,
    RationalFunction,
    format_rational,
    parse_rational,
)
from minsurf4.scalars import GaussianRational
from oracles import residue_by_derivatives


def _z():
    return RationalFunction.z()


def _random_rational(rng, max_deg=3, bound=3):
    def poly(deg):
        return Polynomial(
            [
                GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
                for _ in range(deg + 1)
            ]
        )

    num = poly(rng.randint(0, max_deg))
    den = poly(rng.randint(0, max_deg))
    while den.is_zero():
        den = poly(rng.randint(0, max_deg))
    return RationalFunction(num, den)


def test_reduction():
    z = _z()
    r = (z * z - 1) / (z - 1)
    assert r == z + 1
    assert r.den.degree == 0


def test_eval_and_extended():
    z = _z()
    r = 1 / (z - 1)
    assert r.eval_at(GaussianRational(3)) == GaussianRational("1/2")
    inf_flag, _ = r.eval_extended(GaussianRational(1))
    assert inf_flag
    inf_flag, val = r.eval_extended(GaussianRational(0))
    assert not inf_flag and val == GaussianRational(-1)


_parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_gaussian = st.builds(GaussianRational, _parts, _parts)


@given(st.data())
def test_eval_extended_is_the_quotient_off_the_poles(data):
    """At an exact point, eval_extended is num/den off the poles and
    (True, None) at them; the point is drawn among the denominator's roots
    half of the time."""
    roots = data.draw(st.lists(_gaussian, max_size=3))
    num = Polynomial(data.draw(st.lists(_gaussian, max_size=4)))
    r = RationalFunction(num, Polynomial.from_roots(roots) * data.draw(_gaussian.filter(bool)))
    points = st.one_of(_gaussian, _parts, st.integers(-5, 5))
    z = data.draw(st.one_of(st.sampled_from(roots), points) if roots else points)
    den = r.den.eval(z)
    if den:
        assert r.eval_extended(z) == (False, r.num.eval(z) / den)
    else:
        assert r.eval_extended(z) == (True, None)


def test_eval_extended_at_poles_with_denominators():
    a = GaussianRational(F(1, 2), F(-2, 3))
    z = _z()
    r = (z + 1) / ((z - a) ** 2 * (z - F(3, 4)))
    assert r.eval_extended(a) == (True, None)
    assert r.eval_extended(F(3, 4)) == (True, None)
    assert r.eval_extended(F(1, 2)) == (False, GaussianRational(F(27, 2)))


def test_order_at_examples():
    z = _z()
    assert (1 / (z - 1)).order_at(GaussianRational(1)) == -1
    assert (z**3 / (z + 1)).order_at(INF) == -2
    assert ((z * z + 1) ** 2).order_at(GaussianRational(0, 1)) == 2
    assert (1 / (z * z)).order_at(INF) == 2
    assert z.order_at(GaussianRational(0)) == 1


def test_order_of_zero_function_undefined():
    r = RationalFunction.constant(0)
    for point in (GaussianRational(0), INF):
        with pytest.raises(DomainError):
            r.order_at(point)
        with pytest.raises(DomainError):
            r.pole_order(point)


def test_local_orders_read_one_side(monkeypatch):
    """num and den are coprime: a pole order is den's multiplicity alone,
    and order_at reads num's multiplicity only where den does not vanish."""
    import minsurf4.rational as rational

    calls = []
    multiplicity_at = rational.multiplicity_at

    def counting(p, point):
        calls.append(p)
        return multiplicity_at(p, point)

    monkeypatch.setattr(rational, "multiplicity_at", counting)
    z = _z()
    r = (z - 2) ** 3 / ((z - 1) ** 2 * z)
    cases = [
        (r.order_at, GaussianRational(1), -2, [r.den]),
        (r.order_at, GaussianRational(2), 3, [r.den, r.num]),
        (r.order_at, GaussianRational(3), 0, [r.den, r.num]),
        (r.pole_order, GaussianRational(0), 1, [r.den]),
        (r.pole_order, GaussianRational(2), 0, [r.den]),
    ]
    for method, point, order, read in cases:
        calls.clear()
        assert method(point) == order
        assert calls == read


def test_residue_examples():
    z = _z()
    assert (1 / z).residue_at(GaussianRational(0)) == GaussianRational(1)
    assert (1 / ((z - 1) * (z + 1))).residue_at(GaussianRational(1)) == GaussianRational("1/2")
    assert (z / (z * z + 1)).residue_at(GaussianRational(0, 1)) == GaussianRational("1/2")
    # double pole: 1/z^2 has zero residue at 0
    assert (1 / (z * z)).residue_at(GaussianRational(0)) == GaussianRational(0)
    # regular point
    assert z.residue_at(GaussianRational(2)) == GaussianRational(0)
    # identically-zero numerator
    assert RationalFunction.constant(0).residue_at(GaussianRational(0)) == GaussianRational(0)


@given(st.data())
def test_residue_matches_the_derivative_chain(data):
    """At a pole of order 1-3 at a Gaussian-rational point, 0 and i among
    them, residue_at equals the residue built from the exact derivative
    chain of num and den."""
    a = data.draw(st.one_of(st.sampled_from([GaussianRational(0), GaussianRational(0, 1)]), _gaussian))
    k = data.draw(st.integers(1, 3))
    num = Polynomial(data.draw(st.lists(_gaussian, min_size=1, max_size=4)))
    assume(num.eval(a))
    others = Polynomial.from_roots(data.draw(st.lists(_gaussian.filter(lambda b: b != a), max_size=2)))
    r = RationalFunction(num, Polynomial([-a, 1]) ** k * others * data.draw(_gaussian.filter(bool)))
    assert r.residue_at(a) == residue_by_derivatives(r, a, k)


def test_residue_additivity_random():
    rng = derive_rng(31, "rational-res-add")
    z = _z()
    pole = GaussianRational(1)
    for _ in range(60):
        f = _random_rational(rng) / (z - 1)
        g = _random_rational(rng) / (z - 1)
        lhs = (f + g).residue_at(pole)
        assert lhs == f.residue_at(pole) + g.residue_at(pole)


def test_global_residue_sum():
    # with deg num <= deg den - 2 the finite residues sum to zero
    rng = derive_rng(37, "rational-res-sum")
    z = _z()
    for _ in range(40):
        poles = []
        while len(poles) < 3:
            c = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
            if all(c != p for p in poles):
                poles.append(c)
        num = Polynomial(
            [GaussianRational(rng.randint(-4, 4)), GaussianRational(rng.randint(-4, 4))]
        )
        den = Polynomial.from_roots(poles)
        r = RationalFunction(num, den)
        total = sum((r.residue_at(p) for p in poles), GaussianRational(0))
        assert total == GaussianRational(0)


def test_conj_reflect():
    z = _z()
    # conj(g(-1/conj(z))) for g = z is -1/z
    assert z.conj_reflect() == -1 / z
    # g(z) = (z - a)/(conj(a) z + 1) satisfies conj_reflect(g) * g == -1
    a = GaussianRational(2)
    g = (z - a) / (RationalFunction.constant(a.conjugate()) * z + 1)
    assert (g.conj_reflect() * g + 1).is_zero()


def test_conj_reflect_involution_random():
    rng = derive_rng(41, "rational-reflect")
    for _ in range(40):
        r = _random_rational(rng)
        if r.is_zero():
            continue
        assert r.conj_reflect().conj_reflect() == r


def test_pole_order():
    z = _z()
    r = 1 / ((z - 1) ** 2 * (z + 2))
    assert r.pole_order(GaussianRational(1)) == 2
    assert r.pole_order(GaussianRational(-2)) == 1
    assert r.pole_order(GaussianRational(0)) == 0
    assert (z**3).pole_order(INF) == 3


def test_moebius_transform():
    t = MoebiusTransform(
        GaussianRational(1),
        GaussianRational(2),
        GaussianRational(0),
        GaussianRational(1),
    )
    z = _z()
    assert t.as_rational() == z + 2
    rng = derive_rng(43, "moebius")
    for _ in range(40):
        a, b, c, d = (
            GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)
        )
        if a * d - b * c == GaussianRational(0):
            continue
        t = MoebiusTransform(a, b, c, d)
        inv = t.inverse()
        x = GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
        y = t.apply_point(x)
        if y is INF:
            continue
        assert inv.apply_point(y) == x
        assert t.compose(inv).apply_point(x) == x


def test_moebius_apply_rational_matches_pointwise():
    rng = derive_rng(47, "moebius-rational")
    z = _z()
    t = MoebiusTransform(
        GaussianRational(1),
        GaussianRational(1),
        GaussianRational(1),
        GaussianRational(-1),
    )
    r = (z * z + 1) / (z - 2)
    composed = t.apply_rational(r)
    for _ in range(20):
        x = GaussianRational(rng.randint(-6, 6), rng.randint(-6, 6))
        rinf, rv = r.eval_extended(x)
        if rinf:
            continue
        y = t.apply_point(rv)
        cinf, cv = composed.eval_extended(x)
        if y is INF:
            assert cinf
        else:
            assert not cinf and cv == y


def test_parse_format_round_trip():
    rng = derive_rng(53, "rational-parse")
    for _ in range(40):
        r = _random_rational(rng)
        assert parse_rational(format_rational(r)) == r


def test_parse_examples():
    z = _z()
    assert parse_rational("(1) over (1)*z^2") == 1 / (z * z)
    assert parse_rational("(1)*z") == z
    assert parse_rational("(1)*z^2 + (1) over (1)*z + (-2)") == (z * z + 1) / (z - 2)
