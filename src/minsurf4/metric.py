"""Conformal metrics ds^2 = prod (1+|g_i|^2)^{m_i} |omega|^2 and completeness.

The boundary exponent sigma at a boundary point b is the growth order of the
conformal factor along a path into b:

    sigma(b)   = ord_b(omega_hat) - sum_i m_i * max(0, pole order of g_i at b)
    sigma(inf) = ord_inf(omega_hat) - sum_i m_i * max(0, pole order at inf) - 2

where the extra -2 at infinity is the derivative of the chart w = 1/z. The
metric is complete at b iff sigma(b) <= -1: the conformal factor grows like
t^sigma in the chart distance t, int_0 t^sigma dt diverges exactly for
sigma <= -1, and |dz| >= |d|z - b|| bounds every divergent path below by the
radial integral, so the radial rate decides all paths.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    BadStencil,
    DomainError,
    ExponentUndefined,
    InvalidPath,
)
from .domains import AT_INFINITY, INNER_CIRCLE, OUTER_CIRCLE, BoundaryPoint
from .rational import INF, RationalFunction
from .scalars import as_scalar, is_exact, to_complex
from .sphere import SpherePoint

COMPLETENESS_RULE = (
    "complete at b iff sigma(b) <= -1, where sigma(b) = ord_b(omega_hat) "
    "- sum_i m_i * max(0, pole order of g_i at b), with an extra -2 at "
    "infinity from the w = 1/z chart; int_0 t^sigma dt diverges iff "
    "sigma <= -1, and |dz| >= |d|z-b|| bounds every divergent path below "
    "by the radial integral"
)


class MetricSpec:
    """Factors (g_i, m_i) with integer weights m_i >= 0 and a 1-form omega_hat."""

    __slots__ = ("factors", "omega_hat", "exact")

    def __init__(self, factors, omega_hat):
        facs = []
        for g, m in factors:
            if not isinstance(g, RationalFunction):
                raise DomainError("metric factors must be rational functions")
            if not isinstance(m, int) or m < 0:
                raise DomainError("metric weights must be nonnegative integers")
            facs.append((g, m))
        if not isinstance(omega_hat, RationalFunction) or omega_hat.is_zero():
            raise DomainError("omega_hat must be a nonzero rational function")
        object.__setattr__(self, "factors", tuple(facs))
        object.__setattr__(self, "omega_hat", omega_hat)
        object.__setattr__(
            self, "exact", omega_hat.exact and all(g.exact for g, _ in facs)
        )

    def __setattr__(self, name, value):
        raise AttributeError("MetricSpec is immutable")

    def singular_points(self):
        """Complex locations where the conformal factor blows up."""
        out = []
        from .poly import roots

        for root, _ in roots(self.omega_hat.den) if self.omega_hat.den.degree > 0 else []:
            out.append(root)
        for g, m in self.factors:
            if m > 0 and g.den.degree > 0:
                for root, _ in roots(g.den):
                    out.append(root)
        return out


def conformal_factor(spec, z):
    """lambda(z) as a float; math.inf at poles of the factor.

    Exact data at an exact point squares everything in rational arithmetic
    and takes one square root at the end.
    """
    exact_path = spec.exact and is_exact(z)
    if exact_path:
        pt = as_scalar(z)
        prod2 = Fraction(1)
        winf, wval = spec.omega_hat.eval_extended(pt)
        if winf:
            return math.inf
        prod2 *= wval.abs2()
        for g, m in spec.factors:
            if m == 0:
                continue
            ginf, gval = g.eval_extended(pt)
            if ginf:
                return math.inf
            prod2 *= (1 + gval.abs2()) ** m
        return math.sqrt(prod2)
    zz = to_complex(z)
    winf, wval = spec.omega_hat.eval_extended(zz)
    if winf:
        return math.inf
    lam2 = abs(wval) ** 2
    for g, m in spec.factors:
        if m == 0:
            continue
        ginf, gval = g.eval_extended(zz)
        if ginf:
            return math.inf
        lam2 *= (1.0 + abs(gval) ** 2) ** m
    return math.sqrt(lam2)


def exponent_at(spec, point):
    """Boundary exponent sigma at a finite point or INF (chart-corrected)."""
    sigma = spec.omega_hat.order_at(point)
    for g, m in spec.factors:
        if m == 0 or g.is_constant():
            continue
        sigma -= m * g.pole_order(point)
    if point is INF:
        sigma -= 2
    return sigma


def boundary_exponent(spec, boundary):
    """sigma at a BoundaryPoint; annulus circles have no symbolic exponent."""
    if isinstance(boundary, BoundaryPoint):
        if boundary.kind in (INNER_CIRCLE, OUTER_CIRCLE):
            raise ExponentUndefined(
                "circle boundaries carry no rational-order data; "
                "use numeric path lengths or covering bounds"
            )
        if boundary.kind == AT_INFINITY:
            return exponent_at(spec, INF)
        return exponent_at(spec, boundary.location.value)
    if isinstance(boundary, SpherePoint):
        if boundary.is_infinity:
            return exponent_at(spec, INF)
        return exponent_at(spec, boundary.value)
    if boundary is INF:
        return exponent_at(spec, INF)
    return exponent_at(spec, as_scalar(boundary))


class CompletenessEntry:
    __slots__ = ("label", "kind", "sigma", "complete")

    def __init__(self, label, kind, sigma, complete):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "complete", complete)

    def __setattr__(self, name, value):
        raise AttributeError("CompletenessEntry is immutable")

    def to_dict(self):
        return {
            "boundary": self.label,
            "kind": self.kind,
            "sigma": self.sigma,
            "complete": self.complete,
        }


class CompletenessReport:
    __slots__ = ("entries", "overall", "rationale")

    def __init__(self, entries, overall, rationale=COMPLETENESS_RULE):
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "overall", overall)
        object.__setattr__(self, "rationale", rationale)

    def __setattr__(self, name, value):
        raise AttributeError("CompletenessReport is immutable")

    def to_dict(self):
        return {
            "entries": [e.to_dict() for e in self.entries],
            "overall": self.overall,
            "rationale": self.rationale,
        }


def is_complete(spec, domain):
    """Completeness verdict per boundary component.

    Punctured plane: fully decided by the exponent rule. Annulus: punctures
    are decided; circles are reported without a symbolic verdict, and the
    overall field is None unless a puncture already fails.
    """
    entries = []
    undecided = False
    for b in domain.boundary_points():
        if b.kind in (INNER_CIRCLE, OUTER_CIRCLE):
            entries.append(CompletenessEntry(b.label(), b.kind, None, None))
            undecided = True
            continue
        sigma = boundary_exponent(spec, b)
        entries.append(CompletenessEntry(b.label(), b.kind, sigma, sigma <= -1))
    decided = [e.complete for e in entries if e.complete is not None]
    if any(c is False for c in decided):
        overall = False
    elif undecided:
        overall = None
    else:
        overall = all(decided)
    return CompletenessReport(entries, overall)


# -- numeric lengths ------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_segment(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return sum(w * f(mid + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS)) * half


def _adaptive(f, a, b, tol, depth=0, whole=None):
    if whole is None:
        whole = _gl_segment(f, a, b)
    mid = 0.5 * (a + b)
    left = _gl_segment(f, a, mid)
    right = _gl_segment(f, mid, b)
    if depth >= 40:
        return left + right
    if abs(left + right - whole) <= tol:
        return left + right
    return _adaptive(f, a, mid, tol / 2, depth + 1, left) + _adaptive(
        f, mid, b, tol / 2, depth + 1, right
    )


def _segment_interior_guard(a, b, singular):
    """Raise if a singular point sits on the open segment (a, b)."""
    ab = b - a
    L = abs(ab)
    if L == 0:
        return
    for s in singular:
        t = ((s - a) / ab).real
        if 1e-9 < t < 1 - 1e-9:
            dist = abs(a + t * ab - s)
            if dist <= 1e-9 * (1.0 + abs(s)):
                raise InvalidPath(
                    f"path passes through a metric pole near {s:.6g} "
                    f"at segment parameter {t:.3g}"
                )


def _is_singular_endpoint(spec, point):
    """Pole of the conformal factor at an exact or numeric endpoint."""
    if spec.exact and is_exact(point):
        pt = as_scalar(point)
        if spec.omega_hat.order_at(pt) < 0:
            return True
        return any(
            m > 0 and not g.is_zero() and g.pole_order(pt) > 0
            for g, m in spec.factors
        )
    z = to_complex(point)
    return not math.isfinite(conformal_factor(spec, z))


def path_length(spec, path, tol=1e-8, cap=1e6):
    """Length of a piecewise-linear path; math.inf marks divergence.

    Path entries are finite points; the first or last may be the sphere
    infinity (SpherePoint or the INF marker), meaning a ray to infinity in
    the direction of the neighbouring segment. Divergence at a singular
    endpoint is decided by the boundary exponent (sigma <= -1 there always,
    since a pole of the factor forces sigma < 0); running quadrature that
    exceeds the cap also reports divergence.
    """
    pts = list(path)
    if len(pts) < 2:
        raise InvalidPath("path needs at least two points")

    def _norm_pt(p):
        if p is INF:
            return INF
        if isinstance(p, SpherePoint):
            return INF if p.is_infinity else p.value
        return as_scalar(p)

    pts = [_norm_pt(p) for p in pts]
    for p in pts[1:-1]:
        if p is INF:
            raise InvalidPath("infinity may only be a path endpoint")
    if pts[0] is INF:
        pts = pts[::-1]
    singular = spec.singular_points()
    total = 0.0
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        if b is INF:
            length = _tail_to_infinity(spec, a, tol)
        else:
            length = _finite_segment(spec, a, b, singular, tol, cap - total)
        if math.isinf(length):
            return math.inf
        total += length
        if total > cap:
            return math.inf
    return total


def _finite_segment(spec, a, b, singular, tol, budget):
    za, zb = to_complex(a), to_complex(b)
    if za == zb:
        return 0.0
    _segment_interior_guard(za, zb, singular)
    a_sing = _is_singular_endpoint(spec, a)
    b_sing = _is_singular_endpoint(spec, b)
    if a_sing or b_sing:
        # a pole endpoint has sigma <= -1, so the integral diverges; report
        # the symbolic exponent decision rather than chasing the quadrature
        return math.inf
    L = abs(zb - za)

    def integrand(t):
        lam = conformal_factor(spec, za + t * (zb - za))
        return lam * L

    val = _adaptive(integrand, 0.0, 1.0, tol)
    return math.inf if val > budget else val


def _tail_to_infinity(spec, a, tol):
    sigma = exponent_at(spec, INF)
    if sigma <= -1:
        return math.inf
    za = to_complex(a)
    if za == 0:
        raise InvalidPath("ray to infinity needs a nonzero start point")
    w0 = 1.0 / za

    # straight w-chart path from w0 to 0; the integrand is smooth up to 0
    def integrand(t):
        w = w0 * (1.0 - t)
        if w == 0:
            return 0.0
        lam = conformal_factor(spec, 1.0 / w)
        return lam * abs(w0) / (abs(w) ** 2)

    # sigma >= 0 means lam(1/w)/|w|^2 ~ |w|^sigma stays bounded near 0
    return _adaptive(integrand, 0.0, 1.0, tol)


def gauss_curvature_numeric(spec, z, h=1e-3):
    """K = -(laplacian log lambda)/lambda^2 by a 5-point stencil of size h."""
    z = to_complex(z)
    if h <= 0:
        raise BadStencil("stencil size must be positive")
    pts = [z, z + h, z - h, z + 1j * h, z - 1j * h]
    lams = [conformal_factor(spec, p) for p in pts]
    if any(not math.isfinite(l) or l <= 0.0 for l in lams):
        raise BadStencil("stencil touches a pole or zero of the conformal factor")
    logs = [math.log(l) for l in lams]
    lap = (logs[1] + logs[2] + logs[3] + logs[4] - 4.0 * logs[0]) / (h * h)
    return -lap / (lams[0] ** 2)
