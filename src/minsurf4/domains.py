"""Parameter domains: finitely punctured planes and round annuli.

Boundary components are first-class values so completeness reports can name
them: each puncture, the point at infinity, and (for annuli) the two circles.
"""

from __future__ import annotations

import cmath
import math
import random

from .errors import DomainError, InfeasibleSampling
from .scalars import as_scalar, is_exact, to_complex
from .sphere import INFINITY, SpherePoint, format_point

PUNCTURE = "puncture"
AT_INFINITY = "infinity"
INNER_CIRCLE = "inner-circle"
OUTER_CIRCLE = "outer-circle"


class BoundaryPoint:
    __slots__ = ("kind", "index", "location")

    def __init__(self, kind, index=None, location=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "location", location)

    def __setattr__(self, name, value):
        raise AttributeError("BoundaryPoint is immutable")

    def label(self):
        if self.kind == PUNCTURE:
            return f"puncture {format_point(self.location)}"
        if self.kind == AT_INFINITY:
            return "infinity"
        return self.kind

    def __repr__(self):
        return f"BoundaryPoint({self.label()!r})"


def _check_distinct(points):
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = points[i], points[j]
            if is_exact(a) and is_exact(b):
                if a == b:
                    raise DomainError("punctures must be distinct")
            elif abs(to_complex(a) - to_complex(b)) <= 1e-7 * (1.0 + abs(to_complex(a))):
                raise DomainError("punctures must be distinct (within resolution)")


class PuncturedPlane:
    """C minus finitely many points; the sphere boundary adds infinity."""

    __slots__ = ("punctures",)

    def __init__(self, punctures=()):
        pts = tuple(as_scalar(p) for p in punctures)
        _check_distinct(pts)
        object.__setattr__(self, "punctures", pts)

    def __setattr__(self, name, value):
        raise AttributeError("PuncturedPlane is immutable")

    def boundary_points(self):
        out = [
            BoundaryPoint(PUNCTURE, i, SpherePoint(p))
            for i, p in enumerate(self.punctures)
        ]
        out.append(BoundaryPoint(AT_INFINITY, None, INFINITY))
        return out

    def contains(self, z):
        z = to_complex(z)
        return all(abs(z - to_complex(p)) > 0 for p in self.punctures)

    def __repr__(self):
        pts = ", ".join(format_point(SpherePoint(p)) for p in self.punctures)
        return f"PuncturedPlane([{pts}])"


class Annulus:
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
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "punctures", pts)

    def __setattr__(self, name, value):
        raise AttributeError("Annulus is immutable")

    def boundary_points(self):
        out = [
            BoundaryPoint(PUNCTURE, i, SpherePoint(p))
            for i, p in enumerate(self.punctures)
        ]
        out.append(BoundaryPoint(INNER_CIRCLE, None, None))
        out.append(BoundaryPoint(OUTER_CIRCLE, None, None))
        return out

    def contains(self, z):
        z = to_complex(z)
        if not (1.0 / self.R < abs(z) < self.R):
            return False
        return all(abs(z - to_complex(p)) > 0 for p in self.punctures)

    def __repr__(self):
        return f"Annulus(R={self.R}, punctures={len(self.punctures)})"


def boundary_points(domain):
    return domain.boundary_points()


def derive_rng(*parts):
    """RNG seeded from a string key, so streams are independent per call
    site and stable across processes (tuple seeds hash with the per-process
    salt and must not be used)."""
    return random.Random("|".join(str(p) for p in parts))


def sample_grid(domain, n, exclusion_radius=1e-3, seed=0):
    """n deterministic sample points keeping exclusion_radius from punctures.

    Punctured plane: uniform in a box covering the punctures with margin.
    Annulus: log-uniform radius, uniform angle, strictly inside the circles.
    """
    rng = derive_rng(seed, n, "sample-grid")
    out = []
    tries = 0
    limit = 1000 * max(n, 1)
    if isinstance(domain, PuncturedPlane):
        reach = 2.0 + max((abs(to_complex(p)) for p in domain.punctures), default=0.0)

        def draw():
            return complex(rng.uniform(-reach, reach), rng.uniform(-reach, reach))

    elif isinstance(domain, Annulus):
        lo, hi = math.log(1.0 / domain.R), math.log(domain.R)

        def draw():
            r = math.exp(rng.uniform(lo, hi))
            return r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

    else:
        raise DomainError(f"unknown domain type {type(domain).__name__}")

    while len(out) < n:
        tries += 1
        if tries > limit:
            raise InfeasibleSampling(
                f"placed {len(out)} of {n} samples in {tries} tries; "
                f"exclusion radius {exclusion_radius} too large for the domain"
            )
        z = draw()
        if isinstance(domain, Annulus) and not (1.0 / domain.R < abs(z) < domain.R):
            continue
        if all(abs(z - to_complex(p)) > exclusion_radius for p in domain.punctures):
            out.append(z)
    return out
