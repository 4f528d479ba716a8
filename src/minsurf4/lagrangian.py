"""Minimal Lagrangian surfaces in C^2 from holomorphic pairs.

A holomorphic F = (F1, F2) and a constant angle beta give the conformal
minimal Lagrangian immersion

    f = (1/sqrt 2) e^{i beta/2} (F1 - i conj(F2), F2 + i conj(F1)),

with spinors S1 = F2', S2 = -F1', induced metric (|S1|^2 + |S2|^2)|dz|^2 and
curvature K = -2 |S1 S2' - S2 S1'|^2 / (|S1|^2 + |S2|^2)^3.
"""

from __future__ import annotations

import cmath
import math

from .errors import BadStencil, DegeneratePoint, DomainError, UnsupportedPoint
from .domains import PuncturedPlane, interior_part, zeros_inside
from .gaussmap import exceptional_values
from .metric import MetricSpec, is_complete
from .poly import roots
from .rational import RationalFunction
from .report import Record
from .scalars import to_complex


class HolomorphicPair(Record):
    __slots__ = ("F1", "F2")

    def __init__(self, F1, F2):
        for F in (F1, F2):
            if not isinstance(F, RationalFunction):
                raise DomainError("pair components must be rational functions")
        super().__init__(F1, F2)


def spinors(pair):
    """S1 = F2', S2 = -F1'."""
    return pair.F2.derivative(), -pair.F1.derivative()


class LagrangianSpec(Record):
    """Spinors plus angle; the pair is kept when available so the immersion
    itself can be evaluated. Specs built from spinors alone still support
    the metric, curvature and the omitted-value bound."""

    __slots__ = ("pair", "beta", "S1", "S2")

    @classmethod
    def from_pair(cls, pair, beta=0.0):
        if not isinstance(pair, HolomorphicPair):
            pair = HolomorphicPair(*pair)
        s1, s2 = spinors(pair)
        return cls(pair, float(beta), s1, s2)

    @classmethod
    def from_spinors(cls, S1, S2):
        for s in (S1, S2):
            if not isinstance(s, RationalFunction):
                raise DomainError("spinors must be rational functions")
        return cls(None, 0.0, S1, S2)

    def degenerate_everywhere(self):
        return self.S1.is_zero() and self.S2.is_zero()


def nondegenerate(spec, domain):
    """True iff |S1|^2 + |S2|^2 never vanishes on the domain.

    Returns (verdict, offending points): the common zeros of the spinor
    numerators that `domains.zeros_inside` places inside the domain, where
    gcd(p, 0) = monic p covers one zero spinor. Both spinors zero means the
    spec is degenerate everywhere and the offending list is None.
    """
    if spec.degenerate_everywhere():
        return False, None
    offenders = zeros_inside([spec.S1.num, spec.S2.num], domain)
    return not offenders, offenders


def _require_pair(spec):
    if spec.pair is None:
        raise DomainError("immersion needs the holomorphic pair, not just spinors")
    return spec.pair


def immersion_f(spec, z):
    """(f1, f2) in C^2: parts evaluated exactly, combined in floating point."""
    pair = _require_pair(spec)
    f1 = to_complex(pair.F1.eval_at(z))
    f2 = to_complex(pair.F2.eval_at(z))
    c = cmath.exp(0.5j * spec.beta) / math.sqrt(2.0)
    return (c * (f1 - 1j * f2.conjugate()), c * (f2 + 1j * f1.conjugate()))


def immersion_xyzw(spec, z):
    """The four real coordinates (u1, v1, u2, v2)."""
    w1, w2 = immersion_f(spec, z)
    return (w1.real, w1.imag, w2.real, w2.imag)


def metric_curvature(spec, z):
    """(lambda^2, K) at z, evaluated in floats; degenerate points are
    refused, and so are poles of the spinors and points where z, lambda^2
    or K overflows a float (UnsupportedPoint)."""
    z = _finite(lambda: to_complex(z), "z", z)
    try:
        s1 = to_complex(spec.S1.eval_at(z))
        s2 = to_complex(spec.S2.eval_at(z))
    except ZeroDivisionError:
        raise UnsupportedPoint(f"pole of the spinors at z = {z}") from None
    lam2 = _finite(lambda: abs(s1) ** 2 + abs(s2) ** 2, "lambda^2", z)
    if lam2 == 0.0:
        raise DegeneratePoint(f"metric vanishes at {z}")
    d1 = to_complex(spec.S1.derivative().eval_at(z))
    d2 = to_complex(spec.S2.derivative().eval_at(z))
    # Lagrange identity: Delta log(|S1|^2+|S2|^2) = 4|S1 S2' - S2 S1'|^2 / lam2^2
    K = _finite(lambda: -2.0 * abs(s1 * d2 - s2 * d1) ** 2 / lam2**3, "K", z)
    return lam2, K


def _finite(value, name, z):
    """value() as a finite float, or UnsupportedPoint naming the quantity."""
    try:
        out = value()
    except OverflowError:
        out = math.inf
    if not cmath.isfinite(out):
        raise UnsupportedPoint(f"{name} overflows a float at z = {z}")
    return out


def metric_spec(spec):
    """The conformal metric of the surface as factor data: (1+|g|^2)|S1|^2
    with g = -S2/S1, the one place the Gauss component g is built."""
    if spec.S1.is_zero():
        raise DomainError("S1 vanishes identically; use the plane report")
    return MetricSpec([(-spec.S2 / spec.S1, 1)], spec.S1)


# central-difference step of the lagrangian command's stencil_residuals
STENCIL_H = 1e-3


def stencil_residuals(fn, z, h=STENCIL_H):
    """(symplectic residual, harmonicity residual) at z by central
    differences of fn, a map from complex points to four real coordinates
    (u1, v1, u2, v2) such as `immersion_xyzw` of one spec.

    The symplectic residual is the pullback coefficient of
    du1^dv1 + du2^dv2; the harmonicity residual is the worst discrete
    Laplacian among the four coordinates.
    """
    if h <= 0:
        raise BadStencil("stencil size must be positive")
    z = to_complex(z)
    try:
        f0, fxp, fxm, fyp, fym = [fn(w) for w in (z, z + h, z - h, z + 1j * h, z - 1j * h)]
    except ZeroDivisionError as e:
        raise BadStencil("stencil touches a pole") from e
    dx = [(a - b) / (2 * h) for a, b in zip(fxp, fxm)]
    dy = [(a - b) / (2 * h) for a, b in zip(fyp, fym)]
    symp = abs(dx[0] * dy[1] - dy[0] * dx[1] + dx[2] * dy[3] - dy[2] * dx[3])
    harm = max(
        abs(p + m + q + r - 4 * c) / (h * h)
        for p, m, q, r, c in zip(fxp, fxm, fyp, fym, f0)
    )
    return symp, harm


def gauss_components(spec):
    """The pair (g, e^{i beta}) attached to the surface; the constant second
    component is reported raw."""
    g = None if spec.S1.is_zero() else metric_spec(spec).factors[0][0]
    return g, cmath.exp(1j * spec.beta)


class CorollaryBoundReport(Record):
    __slots__ = ("applicable", "reason", "completeness", "q", "omitted", "bound_holds")


def _not_applicable(reason, completeness):
    return CorollaryBoundReport(False, reason, completeness, None, None, None)


def corollary_bound_check(spec, domain):
    """Complete minimal Lagrangian surfaces omit at most 3 tangent-plane
    values: builds the metric (1+|g|^2)|S1 dz|^2 with g = -S2/S1 and counts
    the omitted values when the metric is complete. The surface must be
    defined on the domain, so a pole of the spinors that is not a puncture
    makes the check not applicable; it is named by a float root of what
    `domains.interior_part` leaves of the denominator."""
    if not isinstance(domain, PuncturedPlane):
        raise DomainError("bound check runs on punctured planes")
    for S in (spec.S1, spec.S2):
        den = interior_part(S.den, domain)
        if den.degree > 0:
            reason = f"not-applicable: pole of the spinors at z = {roots(den)[0][0]:.6g} in the domain"
            return _not_applicable(reason, None)
    metric = None if spec.S1.is_zero() else metric_spec(spec)
    g = None if metric is None else metric.factors[0][0]
    if g is None or g.is_constant():
        return _not_applicable("not-applicable: Lagrangian plane case", None)
    completeness = is_complete(metric, domain)
    if completeness.overall is not True:
        return _not_applicable("hypothesis-failed: metric incomplete", completeness)
    omitted = exceptional_values(g, domain)
    q = len(omitted)
    return CorollaryBoundReport(
        True, "complete", completeness, q, omitted, q <= 3
    )
