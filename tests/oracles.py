"""Oracles that only the tests call.

Each one checks an exact or closed-form result of the package by an
independent computation, in floats but for the last, so it lives beside the
tests rather than in `minsurf4`, whose modules hold only what the commands
run:

- `conformal_factor` and `gauss_curvature_numeric`: the metric's factor and
  a 5-point stencil for its curvature (criterion 5);
- `induced_metric_identity`: 2 sum|phi_j|^2 against the product form of the
  induced metric (criterion 4);
- `loop_period`: the trapezoid rule on a circle (criterion 7);
- `lift_equivalence`: the double-cover count translation (criterion 9);
- `immersion_xyzw_phase_dropped`: the corrupted immersion of criterion 6's
  negative control;
- `chordal`: the chordal distance, for which antipodes are isometries;
- `involution`: I(z) = -1/conj(z) at a point, which the nonorientable
  pipeline applies only as an exact coefficient identity;
- `taylor_at` and `residue_by_derivatives`: exact Taylor coefficients along
  the derivative chain p^(k)(a)/k!, and the residue built from them, against
  `RationalFunction.residue_at`'s Taylor-shift kernel in Z[i].
"""

import cmath
import math
from fractions import Fraction

from minsurf4.errors import BadStencil, DomainError
from minsurf4.rational import _series_div
from minsurf4.scalars import GaussianRational, as_scalar, is_exact, to_complex
from minsurf4.sphere import SpherePoint
from minsurf4.weierstrass import data_from_phis


def conformal_factor(spec, z):
    """lambda(z) of a MetricSpec as a float; math.inf at poles of the factor.

    At an exact point everything is squared in rational arithmetic and one
    square root is taken at the end.
    """
    if is_exact(z):
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


def loop_period(p, center, radius):
    """∮ phi_j dz on a circle, by the trapezoid rule at 2048 nodes (spectral
    accuracy), summed on complex scalars."""
    c = to_complex(center)
    nodes = [radius * cmath.exp(2j * math.pi * k / 2048) for k in range(2048)]
    return tuple(sum(phi.eval_at(c + w) * (2j * math.pi / 2048 * w) for w in nodes) for phi in p.phi)


def lift_equivalence(q1, q2):
    """Exact arithmetic fact behind the double-cover count translation:

    1/(2 q1 - 2) + 1/(2 q2 - 2) >= 1  iff  1/(q1 - 1) + 1/(q2 - 1) >= 2.
    Returns (left, right) truth values; q_i >= 2 required.
    """
    if q1 < 2 or q2 < 2:
        raise DomainError("counts below 2 leave both sides undefined here")
    left = Fraction(1, 2 * q1 - 2) + Fraction(1, 2 * q2 - 2) >= 1
    right = Fraction(1, q1 - 1) + Fraction(1, q2 - 1) >= 2
    return left, right


def immersion_xyzw_phase_dropped(spec, z, coord):
    """Negative-control immersion of a LagrangianSpec: one real coordinate
    taken from the map with the e^{i beta/2} factor dropped, the rest keeping
    it.

    Dropping the phase on a whole complex slot is invisible to both the
    symplectic and harmonicity residuals (a constant unit phase neither
    breaks holomorphicity nor the Lagrangian frame), so the detectable
    corruption mixes coordinates computed with inconsistent frames.
    """
    if coord not in (0, 1, 2, 3):
        raise DomainError("coordinate index must be 0..3")
    pair = spec.pair
    if pair is None:
        raise DomainError("immersion needs the holomorphic pair, not just spinors")
    f1 = to_complex(pair.F1.eval_at(z))
    f2 = to_complex(pair.F2.eval_at(z))
    c = cmath.exp(0.5j * spec.beta) / math.sqrt(2.0)
    c0 = 1.0 / math.sqrt(2.0)
    good = (c * (f1 - 1j * f2.conjugate()), c * (f2 + 1j * f1.conjugate()))
    flat = (c0 * (f1 - 1j * f2.conjugate()), c0 * (f2 + 1j * f1.conjugate()))
    vals = [good[0].real, good[0].imag, good[1].real, good[1].imag]
    raw = [flat[0].real, flat[0].imag, flat[1].real, flat[1].imag]
    vals[coord] = raw[coord]
    return tuple(vals)


def chordal(a, b):
    """Chordal distance on the sphere, in [0, 1]:
    |a,b| = |a-b| / (sqrt(1+|a|^2) sqrt(1+|b|^2)) and |a,inf| = 1/sqrt(1+|a|^2),
    so the maximal distance is 1 and antipodal pairs realize it."""
    a = SpherePoint.of(a)
    b = SpherePoint.of(b)
    if a.is_infinity and b.is_infinity:
        return 0.0
    if a.is_infinity or b.is_infinity:
        z = complex(b if a.is_infinity else a)
        return 1.0 / math.sqrt(1.0 + abs(z) ** 2)
    za, zb = complex(a), complex(b)
    return abs(za - zb) / (math.sqrt(1.0 + abs(za) ** 2) * math.sqrt(1.0 + abs(zb) ** 2))


def involution(z):
    """I(z) = -1/conj(z); fixed-point-free since |z|^2 = -1 has no solution."""
    if is_exact(z):
        v = as_scalar(z)
        if not v:
            raise ZeroDivisionError("involution undefined at 0")
        return -(GaussianRational(1) / v.conjugate())
    return -1.0 / to_complex(z).conjugate()


def taylor_at(p, a, nterms):
    """First nterms coefficients of p(a + t) in t, at an exact point a, as
    p^(k)(a)/k! along the exact derivative chain."""
    coeffs = []
    for k in range(nterms):
        coeffs.append(p.eval(a) * GaussianRational(Fraction(1, math.factorial(k))))
        p = p.derivative()
    return coeffs


def residue_by_derivatives(r, a, k):
    """Residue of r dz at a pole of order k at the exact point a: coefficient
    k - 1 of the series quotient of num's first k Taylor coefficients by
    den's coefficients k to 2k - 1."""
    return _series_div(taylor_at(r.num, a, k), taylor_at(r.den, a, 2 * k)[k:], k)[k - 1]
