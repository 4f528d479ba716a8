"""Points on the Riemann sphere, antipodes, RP^2 classes.

Finite points are exact Gaussian rationals, so equality, antipodes and RP^2
classes are exact.
"""

from __future__ import annotations

import warnings

from .errors import DomainError
from .report import Immutable
from .scalars import GaussianRational, as_scalar, format_scalar, to_complex


class SpherePoint(Immutable):
    """A point of C union {infinity}; value is None exactly at infinity, and
    otherwise a GaussianRational (a float value raises RequiresExactMode)."""

    __slots__ = ("value",)

    def __init__(self, value=None, infinite=False):
        if infinite:
            object.__setattr__(self, "value", None)
        else:
            object.__setattr__(self, "value", as_scalar(value))

    @classmethod
    def infinity(cls):
        return cls(infinite=True)

    @classmethod
    def of(cls, x):
        if isinstance(x, SpherePoint):
            return x
        if x is None:
            return cls(infinite=True)
        if isinstance(x, str):
            if x.strip().lower() in ("inf", "infinity", "oo"):
                return cls(infinite=True)
            return cls(as_scalar(x))
        return cls(x)

    @property
    def is_infinity(self):
        return self.value is None

    def __complex__(self):
        if self.is_infinity:
            raise DomainError("infinity has no complex value")
        return to_complex(self.value)

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            try:
                other = SpherePoint.of(other)
            except (TypeError, ValueError):
                return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.value == other.value

    def __hash__(self):
        if self.is_infinity:
            return hash("sphere-infinity")
        return hash(self.value)

    def sort_key(self):
        if self.is_infinity:
            return (1, 0.0, 0.0)
        z = to_complex(self.value)
        return (0, z.real, z.imag)

    def __repr__(self):
        return f"SpherePoint({format_point(self)!r})"

    def __str__(self):
        return format_point(self)


INFINITY = SpherePoint.infinity()


def format_point(p):
    p = SpherePoint.of(p)
    if p.is_infinity:
        return "inf"
    return format_scalar(p.value)


def antipodal(p):
    """The antipode: 0 <-> inf, otherwise -1/conj(p)."""
    p = SpherePoint.of(p)
    if p.is_infinity:
        return SpherePoint(GaussianRational(0))
    v = p.value
    if not v:
        return INFINITY
    return SpherePoint(-(GaussianRational(1) / v.conjugate()))


def _in_upper_half(v):
    """arg in [0, pi): positive imaginary part, or positive real axis."""
    return v.im > 0 or (v.im == 0 and v.re > 0)


class RP2Point(Immutable):
    """Antipodal pair {p, -1/conj(p)} keyed by its canonical representative.

    Canonical choice: the member of modulus < 1; ties on the unit circle go to
    the representative with argument in [0, pi); the pair {0, inf} is keyed 0.
    """

    __slots__ = ("rep",)

    def __init__(self, p):
        object.__setattr__(self, "rep", _canonical_rep(SpherePoint.of(p)))

    def __eq__(self, other):
        if not isinstance(other, RP2Point):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(("rp2", self.rep))

    def sort_key(self):
        return self.rep.sort_key()

    def __repr__(self):
        return f"RP2Point({format_point(self.rep)!r})"


def _canonical_rep(p):
    if p.is_infinity:
        return SpherePoint(GaussianRational(0))
    if not p.value:
        return SpherePoint(GaussianRational(0))
    m2 = p.value.abs2()
    if m2 < 1:
        return p
    if m2 > 1:
        return antipodal(p)
    return p if _in_upper_half(p.value) else antipodal(p)


def dedupe_points(points):
    """The distinct sphere points among points, by exact equality, sorted."""
    out = []
    for p in sorted((SpherePoint.of(q) for q in points), key=SpherePoint.sort_key):
        if p not in out:
            out.append(p)
    return out


def missing_antipode(pts):
    """For points as returned by dedupe_points: the antipode of the first one
    whose antipode is not in the set, or None when the set is antipodally
    closed."""
    for p in pts:
        q = antipodal(p)
        if q not in pts:
            return q
    return None


def rp2_count(points):
    """Number of distinct RP^2 classes among the given sphere points.

    Warns when the set is not closed under the antipodal map, since omitted
    sets of maps descending to RP^2 must be antipodally closed.
    """
    pts = dedupe_points(points)
    q = missing_antipode(pts)
    if q is not None:
        warnings.warn(
            f"point set is not antipodally closed: missing {format_point(q)}",
            stacklevel=2,
        )
    return len({RP2Point(p) for p in pts})
