"""Parameter domains: finitely punctured planes and round annuli.

Boundary components are first-class values so completeness reports can name
them: each puncture, the point at infinity, and (for annuli) the two circles.
Punctures are exact Gaussian rationals; a float puncture raises
RequiresExactMode.

Exact data is placed exactly: `interior_part` strips the factor of a
polynomial at each puncture by exact division, so a zero or pole is at a
puncture only if it equals it. Only an annulus's two circles are tested in
floats, by `zeros_inside`.
"""

from __future__ import annotations

import random

from .errors import DomainError
from .poly import Polynomial, gcd_many, multiplicity_at, roots
from .report import Record
from .scalars import as_scalar, to_complex
from .sphere import INFINITY, SpherePoint, format_point

PUNCTURE = "puncture"
AT_INFINITY = "infinity"
INNER_CIRCLE = "inner-circle"
OUTER_CIRCLE = "outer-circle"


class BoundaryPoint(Record):
    __slots__ = ("kind", "index", "location")

    def label(self):
        if self.kind == PUNCTURE:
            return f"puncture {format_point(self.location)}"
        if self.kind == AT_INFINITY:
            return "infinity"
        return self.kind

    def __repr__(self):
        return f"BoundaryPoint({self.label()!r})"


def _check_distinct(points):
    if len(set(points)) != len(points):
        raise DomainError("punctures must be distinct")


class PuncturedPlane(Record):
    """C minus finitely many points; the sphere boundary adds infinity."""

    __slots__ = ("punctures",)

    def __init__(self, punctures=()):
        pts = tuple(as_scalar(p) for p in punctures)
        _check_distinct(pts)
        super().__init__(pts)

    def boundary_points(self):
        out = [
            BoundaryPoint(PUNCTURE, i, SpherePoint(p))
            for i, p in enumerate(self.punctures)
        ]
        out.append(BoundaryPoint(AT_INFINITY, None, INFINITY))
        return out

    def __repr__(self):
        pts = ", ".join(format_point(SpherePoint(p)) for p in self.punctures)
        return f"PuncturedPlane([{pts}])"


class Annulus(Record):
    """{1/R < |z| < R} minus punctures strictly inside."""

    __slots__ = ("R", "punctures")

    def __init__(self, R, punctures=()):
        R = float(R)
        if not R > 1.0:
            raise DomainError("annulus needs R > 1")
        pts = tuple(as_scalar(p) for p in punctures)
        _check_distinct(pts)
        for p in pts:
            r = abs(to_complex(p))
            if not (1.0 / R < r < R):
                raise DomainError("puncture outside the open annulus")
        super().__init__(R, pts)

    def boundary_points(self):
        out = [
            BoundaryPoint(PUNCTURE, i, SpherePoint(p))
            for i, p in enumerate(self.punctures)
        ]
        out.append(BoundaryPoint(INNER_CIRCLE, None, None))
        out.append(BoundaryPoint(OUTER_CIRCLE, None, None))
        return out

    def __repr__(self):
        return f"Annulus(R={self.R}, punctures={len(self.punctures)})"


def interior_part(p, domain):
    """The nonzero polynomial p with the factor (z - a)^multiplicity_at(p, a)
    divided out, exactly, at every puncture a of the domain."""
    for a in domain.punctures:
        p = p / Polynomial([-a, 1]) ** multiplicity_at(p, a)
    return p


def zeros_inside(polys, domain):
    """Float roots of the common zeros of polys inside the domain: the
    roots of interior_part(gcd_many(polys)), with a constant gcd returning
    at once. An annulus keeps the roots more than 1e-12 inside its circles,
    a float test that waits for ROADMAP direction 8's certified one."""
    g = gcd_many(polys)
    if g.degree <= 0:
        return []
    g = interior_part(g, domain)
    if g.degree <= 0:
        return []
    zs = [z for z, _ in roots(g)]
    if isinstance(domain, Annulus):
        zs = [z for z in zs if 1.0 / domain.R + 1e-12 < abs(z) < domain.R - 1e-12]
    return zs


def derive_rng(*parts):
    """RNG seeded from a string key, so streams are independent per call
    site and stable across processes (tuple seeds hash with the per-process
    salt and must not be used)."""
    return random.Random("|".join(str(p) for p in parts))
