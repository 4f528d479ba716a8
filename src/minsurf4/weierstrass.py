"""Weierstrass-type data for minimal surfaces in Euclidean 4-space.

A triple (g1, g2, omega_hat) of rational functions encodes four 1-forms

    phi1 = (1/2)(1 + g1 g2) omega_hat      phi3 = (1/2)(g1 - g2) omega_hat
    phi2 = (i/2)(1 - g1 g2) omega_hat      phi4 = -(i/2)(g1 + g2) omega_hat

with sum(phi_j^2) == 0, and X(z) = Re int (phi1..phi4) dz immerses the domain
whenever the real periods vanish and the forms have no common zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateFrame,
    DomainError,
    InvalidPath,
    MultivaluedImmersion,
    RequiresExactMode,
)
from .domains import Annulus, PuncturedPlane
from .poly import gcd_many, roots
from .rational import RationalFunction
from .scalars import GaussianRational, to_complex
from .sphere import SpherePoint, format_point

I_HALF = GaussianRational(0, "1/2")
HALF = GaussianRational("1/2")


class WeierstrassData:
    __slots__ = ("g1", "g2", "omega_hat", "exact")

    def __init__(self, g1, g2, omega_hat):
        for r in (g1, g2, omega_hat):
            if not isinstance(r, RationalFunction):
                raise DomainError("Weierstrass data must be rational functions")
        if omega_hat.is_zero():
            raise DomainError("omega_hat must not vanish identically")
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "omega_hat", omega_hat)
        object.__setattr__(self, "exact", g1.exact and g2.exact and omega_hat.exact)

    def __setattr__(self, name, value):
        raise AttributeError("WeierstrassData is immutable")

    def __eq__(self, other):
        if not isinstance(other, WeierstrassData):
            return NotImplemented
        return (
            self.g1 == other.g1
            and self.g2 == other.g2
            and self.omega_hat == other.omega_hat
        )

    def __repr__(self):
        return f"WeierstrassData(g1={self.g1}, g2={self.g2}, omega_hat={self.omega_hat})"


class PhiForms:
    """Coefficient functions of the four coordinate 1-forms phi_j dz.

    The constructor rejects the all-zero quadruple; the conformality identity
    is the job of check_conformality, so deliberately broken forms can be
    built and watched failing.
    """

    __slots__ = ("phi", "exact")

    def __init__(self, phi):
        phi = tuple(phi)
        if len(phi) != 4:
            raise DomainError("need exactly four forms")
        for p in phi:
            if not isinstance(p, RationalFunction):
                raise DomainError("forms must be rational functions")
        if all(p.is_zero() for p in phi):
            raise DomainError("all four forms vanish identically")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "exact", all(p.exact for p in phi))

    def __setattr__(self, name, value):
        raise AttributeError("PhiForms is immutable")

    def __eq__(self, other):
        if not isinstance(other, PhiForms):
            return NotImplemented
        return self.phi == other.phi

    def eval(self, z):
        return tuple(p.eval_at(z) for p in self.phi)

    def __repr__(self):
        return "PhiForms(" + ", ".join(str(p) for p in self.phi) + ")"


def phis_from_data(w):
    g1, g2, om = w.g1, w.g2, w.omega_hat
    prod = g1 * g2
    phi1 = (prod + 1) * om * HALF
    phi2 = (1 - prod) * om * I_HALF
    phi3 = (g1 - g2) * om * HALF
    phi4 = (g1 + g2) * om * (-I_HALF)
    return PhiForms((phi1, phi2, phi3, phi4))


def data_from_phis(p):
    phi1, phi2, phi3, phi4 = p.phi
    i = GaussianRational(0, 1) if p.exact else 1j
    omega_hat = phi1 - i * phi2
    if omega_hat.is_zero():
        raise DegenerateFrame("phi1 - i phi2 vanishes identically")
    g1 = (phi3 + i * phi4) / omega_hat
    g2 = (-phi3 + i * phi4) / omega_hat
    return WeierstrassData(g1, g2, omega_hat)


def check_conformality(p):
    """Exact identity test of sum(phi_j^2) == 0."""
    if not p.exact:
        raise RequiresExactMode("conformality is an exact identity test")
    total = RationalFunction.constant(0)
    for phi in p.phi:
        total = total + phi * phi
    return total.is_identically_zero()


class RegularityReport:
    __slots__ = ("regular", "branch_points")

    def __init__(self, regular, branch_points):
        object.__setattr__(self, "regular", regular)
        object.__setattr__(self, "branch_points", tuple(branch_points))

    def __setattr__(self, name, value):
        raise AttributeError("RegularityReport is immutable")

    def to_dict(self):
        return {
            "regular": self.regular,
            "branch_points": [f"{z.real!r}{z.imag:+}j" for z in self.branch_points],
        }


def _inside(domain, z):
    if isinstance(domain, PuncturedPlane):
        return all(
            abs(z - to_complex(q)) > 1e-9 * (1.0 + abs(z)) for q in domain.punctures
        )
    if isinstance(domain, Annulus):
        r = abs(z)
        if not (1.0 / domain.R + 1e-12 < r < domain.R - 1e-12):
            return False
        return all(
            abs(z - to_complex(q)) > 1e-9 * (1.0 + abs(z)) for q in domain.punctures
        )
    raise DomainError(f"unknown domain type {type(domain).__name__}")


def check_regularity(p, domain):
    """No common zero of the four forms inside the domain.

    Reduced fractions cannot vanish at their own poles, so the common zeros
    are exactly the roots of gcd of the four numerators; the zero form is the
    gcd identity element.
    """
    if p.exact:
        g = gcd_many([phi.num for phi in p.phi])
        if g.degree <= 0:
            return RegularityReport(True, [])
        offenders = [z for z, _ in roots(g) if _inside(domain, z)]
        return RegularityReport(not offenders, offenders)
    nonzero = [phi for phi in p.phi if not phi.is_zero()]
    candidates = [z for z, _ in roots(nonzero[0].num)]
    offenders = [
        z
        for z in candidates
        if _inside(domain, z)
        and all(abs(phi.eval_at(z)) < 1e-8 for phi in nonzero)
    ]
    return RegularityReport(not offenders, offenders)


def induced_metric_identity(p, samples):
    """Worst relative error of 2 sum|phi_j|^2 == (1+|g1|^2)(1+|g2|^2)|omega_hat|^2."""
    w = data_from_phis(p)
    worst = 0.0
    for z in samples:
        zz = to_complex(z)
        try:
            lhs = 2.0 * sum(abs(phi.eval_at(zz)) ** 2 for phi in p.phi)
            rhs = (
                (1.0 + abs(w.g1.eval_at(zz)) ** 2)
                * (1.0 + abs(w.g2.eval_at(zz)) ** 2)
                * abs(w.omega_hat.eval_at(zz)) ** 2
            )
        except ZeroDivisionError:
            continue
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


class PeriodReport:
    __slots__ = ("residues", "well_defined")

    def __init__(self, residues, well_defined):
        object.__setattr__(self, "residues", tuple(residues))
        object.__setattr__(self, "well_defined", well_defined)

    def __setattr__(self, name, value):
        raise AttributeError("PeriodReport is immutable")

    def to_dict(self):
        out = []
        for label, res in self.residues:
            out.append(
                {
                    "puncture": label,
                    "residues": [_scalar_str(r) for r in res],
                }
            )
        return {"per_puncture": out, "well_defined": self.well_defined}


def _scalar_str(x):
    if isinstance(x, GaussianRational):
        return str(x)
    z = complex(x)
    return f"{z.real!r}{z.imag:+}j"


def _residue_is_real(r, tol=1e-12):
    if isinstance(r, GaussianRational):
        return r.im == 0
    return abs(complex(r).imag) <= tol


def period_residues(p, domain):
    """Residues of each phi_j at each puncture; real residues keep Re int
    single-valued because Re(2 pi i Res) = -2 pi Im(Res)."""
    if not isinstance(domain, PuncturedPlane):
        raise DomainError("period residues are defined for punctured planes")
    rows = []
    ok = True
    for q in domain.punctures:
        res = tuple(phi.residue_at(q) for phi in p.phi)
        ok = ok and all(_residue_is_real(r) for r in res)
        rows.append((format_point(SpherePoint(q)), res))
    return PeriodReport(rows, ok)


# -- integration -------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_complex(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0j
    for x, w in zip(_GL_NODES, _GL_WEIGHTS):
        acc += w * f(mid + half * x)
    return acc * half


def _adaptive_complex(f, a, b, tol, depth=0, whole=None):
    if whole is None:
        whole = _gl_complex(f, a, b)
    mid = 0.5 * (a + b)
    left = _gl_complex(f, a, mid)
    right = _gl_complex(f, mid, b)
    if depth >= 30 or abs(left + right - whole) <= tol:
        return left + right
    return _adaptive_complex(f, a, mid, tol / 2, depth + 1, left) + _adaptive_complex(
        f, mid, b, tol / 2, depth + 1, right
    )


def _segment_clear(a, b, obstacles, clearance):
    ab = b - a
    L = abs(ab)
    if L == 0:
        return True
    for s in obstacles:
        t = ((s - a) / ab).real
        t = min(1.0, max(0.0, t))
        if abs(a + t * ab - s) < clearance:
            return False
    return True


def plan_path(base, target, obstacles, clearance):
    """Polyline from base to target keeping clearance from obstacles.

    Straight when possible; otherwise detours sideways around the nearest
    blocking obstacle, recursively, with a small depth cap.
    """

    def route(a, b, depth):
        if _segment_clear(a, b, obstacles, clearance):
            return [a, b]
        if depth > 8:
            raise InvalidPath("could not route around singular points")
        ab = b - a
        L = abs(ab)
        blockers = []
        for s in obstacles:
            t = ((s - a) / ab).real
            t = min(1.0, max(0.0, t))
            d = abs(a + t * ab - s)
            if d < clearance:
                blockers.append((t, s))
        t, s = sorted(blockers)[0]
        normal = 1j * ab / L
        offset = max(4.0 * clearance, 0.2)
        for side in (1, -1):
            w = s + side * offset * normal
            if all(abs(w - o) >= clearance for o in obstacles):
                left = route(a, w, depth + 1)
                right = route(w, b, depth + 1)
                return left[:-1] + right
        raise InvalidPath("no clear detour around singular point")

    return route(to_complex(base), to_complex(target), 0)


class _SegmentCache:
    """Memo of integrated segments shared by all targets of one immersion."""

    def __init__(self, phis, tol):
        self.phis = phis
        self.tol = tol
        self.memo = {}

    def segment(self, a, b):
        key = (a, b)
        if key in self.memo:
            return self.memo[key]
        rkey = (b, a)
        if rkey in self.memo:
            val = tuple(-v for v in self.memo[rkey])
            self.memo[key] = val
            return val
        out = []
        for phi in self.phis:
            val = _adaptive_complex(
                lambda t: phi.eval_at(a + t * (b - a)) * (b - a),
                0.0,
                1.0,
                self.tol,
            )
            out.append(val)
        out = tuple(out)
        self.memo[key] = out
        return out


def _singular_locus(p, domain):
    out = [to_complex(q) for q in domain.punctures]
    for phi in p.phi:
        if phi.den.degree > 0:
            out.extend(z for z, _ in roots(phi.den))
    dedup = []
    for z in out:
        if all(abs(z - w) > 1e-9 for w in dedup):
            dedup.append(z)
    return dedup


def immerse(p, domain, base, targets, tol=1e-9, check_periods=True):
    """X(target) = Re int_base^target phi along puncture-avoiding polylines.

    Residues must be real first, else the real part is path-dependent.
    """
    if check_periods and isinstance(domain, PuncturedPlane) and domain.punctures:
        if not period_residues(p, domain).well_defined:
            raise MultivaluedImmersion("nonreal residues make Re int path-dependent")
    obstacles = _singular_locus(p, domain)
    cache = _SegmentCache(p.phi, tol)
    base_c = to_complex(base)
    out = []
    for t in targets:
        tc = to_complex(t)
        path = plan_path(base_c, tc, obstacles, clearance=1e-2)
        acc = [0j, 0j, 0j, 0j]
        for a, b in zip(path[:-1], path[1:]):
            seg = cache.segment(a, b)
            for i in range(4):
                acc[i] += seg[i]
        out.append(tuple(v.real for v in acc))
    return out


def loop_period(p, center, radius, n=2048):
    """∮ phi_j dz on a circle, by the trapezoid rule (spectral accuracy)."""
    c = to_complex(center)
    w = radius * np.exp(2j * math.pi * np.arange(n) / n)
    dz = 2j * math.pi / n * w
    return tuple(complex(np.sum(phi.eval_at(c + w) * dz)) for phi in p.phi)
