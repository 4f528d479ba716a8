"""Weierstrass-type data for minimal surfaces in Euclidean 4-space.

A triple (g1, g2, omega_hat) of rational functions encodes four 1-forms

    phi1 = (1/2)(1 + g1 g2) omega_hat      phi3 = (1/2)(g1 - g2) omega_hat
    phi2 = (i/2)(1 - g1 g2) omega_hat      phi4 = -(i/2)(g1 + g2) omega_hat

with sum(phi_j^2) == 0, and X(z) = Re int (phi1..phi4) dz immerses the domain
whenever the real periods vanish and the forms have no common zero.

`immerse` evaluates X in closed form. Each phi_j is its polynomial part plus
its principal parts at the poles a, so a primitive is a polynomial, powers
(z - a)^(-n), and r_a log(z - a) with r_a the residue at a. For real r_a,
Re(r_a log(z - a)) = r_a ln|z - a| is single-valued, which is the period
condition (Osserman, A Survey of Minimal Surfaces); a nonreal residue
raises MultivaluedImmersion. `immerse` evaluates the primitives point by
point on Python complex scalars, so neither this module nor `mesh` loads
numpy.
"""

from __future__ import annotations

import math

from .errors import DegenerateFrame, DomainError, InvalidPath, MultivaluedImmersion
from .domains import PuncturedPlane, zeros_inside
from .poly import clear_denominators, horner, roots, zi_mul
from .rational import RationalFunction, _series_div, _taylor_at
from .report import Record
from .scalars import GaussianRational, to_complex
from .sphere import SpherePoint, format_point

I_HALF = GaussianRational(0, "1/2")
HALF = GaussianRational("1/2")


class WeierstrassData(Record):
    __slots__ = ("g1", "g2", "omega_hat")

    def __init__(self, g1, g2, omega_hat):
        for r in (g1, g2, omega_hat):
            if not isinstance(r, RationalFunction):
                raise DomainError("Weierstrass data must be rational functions")
        if omega_hat.is_zero():
            raise DomainError("omega_hat must not vanish identically")
        super().__init__(g1, g2, omega_hat)

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


class PhiForms(Record):
    """Coefficient functions of the four coordinate 1-forms phi_j dz.

    The constructor rejects the all-zero quadruple; the conformality identity
    is the job of check_conformality, so deliberately broken forms can be
    built and watched failing.
    """

    __slots__ = ("phi",)

    def __init__(self, phi):
        phi = tuple(phi)
        if len(phi) != 4:
            raise DomainError("need exactly four forms")
        for p in phi:
            if not isinstance(p, RationalFunction):
                raise DomainError("forms must be rational functions")
        if all(p.is_zero() for p in phi):
            raise DomainError("all four forms vanish identically")
        super().__init__(phi)

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
    i = GaussianRational(0, 1)
    omega_hat = phi1 - i * phi2
    if omega_hat.is_zero():
        raise DegenerateFrame("phi1 - i phi2 vanishes identically")
    g1 = (phi3 + i * phi4) / omega_hat
    g2 = (-phi3 + i * phi4) / omega_hat
    return WeierstrassData(g1, g2, omega_hat)


def check_conformality(p):
    """Exact identity test of sum(phi_j^2) == 0.

    Each nonzero phi_j = n_j / d_j is cleared to N_j / D_j, with N_j = L_j n_j
    and D_j = L_j d_j over Z[i] for one L_j. The identity holds iff
    sum_j N_j^2 prod_{i != j} D_i^2 vanishes coefficient by coefficient, which
    is tested in Python integers; no RationalFunction sum and no gcd is built.
    """
    squares = []
    for phi in p.phi:
        if not phi.is_zero():
            _, (n, d) = clear_denominators(phi.num, phi.den)
            squares.append((zi_mul(n, n), zi_mul(d, d)))
    total_r, total_i = [], []
    for j, (term, _) in enumerate(squares):
        for i, (_, d2) in enumerate(squares):
            if i != j:
                term = zi_mul(term, d2)
        total_r.extend([0] * (len(term) - len(total_r)))
        total_i.extend([0] * (len(term) - len(total_i)))
        for k, (r, im) in enumerate(term):
            total_r[k] += r
            total_i[k] += im
    return not any(total_r) and not any(total_i)


class RegularityReport(Record):
    __slots__ = ("regular", "branch_points", "poles")


def check_regularity(p, domain):
    """No common zero and no pole of the four forms inside the domain.

    Reduced fractions cannot vanish at their own poles, so the common zeros
    are exactly the roots of gcd of the four numerators; the zero form is the
    gcd identity element. The poles are the roots of the denominators, each
    distinct one taken once. `domains.zeros_inside` keeps those inside the
    domain, placing each puncture exactly; a pole found twice is listed once.
    """
    branch_points = tuple(zeros_inside([phi.num for phi in p.phi], domain))
    dens = dict.fromkeys(phi.den for phi in p.phi)
    poles = tuple(dict.fromkeys(z for den in dens for z in zeros_inside([den], domain)))
    return RegularityReport(not branch_points and not poles, branch_points, poles)


class PeriodReport(Record):
    __slots__ = ("residues", "well_defined")


def period_residues(p, domain):
    """Residues of each phi_j at each puncture; real residues keep Re int
    single-valued because Re(2 pi i Res) = -2 pi Im(Res)."""
    if not isinstance(domain, PuncturedPlane):
        raise DomainError("period residues are defined for punctured planes")
    rows = []
    ok = True
    for q in domain.punctures:
        res = tuple(phi.residue_at(q) for phi in p.phi)
        ok = ok and all(r.im == 0 for r in res)
        rows.append((format_point(SpherePoint(q)), res))
    return PeriodReport(tuple(rows), ok)


# -- closed-form primitives ----------------------------------------------------------


def _primitive(phi, poles):
    """Evaluator of Re P, with Re P a primitive of Re(phi dz), at a complex
    scalar, for phi whose denominator has the roots `poles`, as
    (pole, multiplicity) from roots.

    phi is its polynomial part (from divmod) plus, at each pole a of order m,
    the principal part sum_i c_i (z - a)^(i - m), from the series division
    that residue_at uses, at the float pole. So
    P = int(polynomial part) + sum c_i (z - a)^(i - m + 1) / (i - m + 1) over
    i < m - 1, + Re(r_a) ln|z - a| with r_a = c_{m-1}; the last term is
    Re(r_a log(z - a)) only for real r_a, so any other residue raises. At a
    pole the evaluator raises ValueError (math.log) or ZeroDivisionError, and
    OverflowError where a power leaves the float range.
    """
    q = divmod(phi.num, phi.den)[0].to_complex_coeffs()
    poly = (0j,) + tuple(c / (k + 1) for k, c in enumerate(q))
    parts = []
    for a, m in poles:
        c = _series_div(_taylor_at(phi.num, a, m), _taylor_at(phi.den, a, 2 * m)[m:], m)
        r = c[-1]
        if abs(r.imag) > 1e-9 * (1.0 + abs(r)):
            raise MultivaluedImmersion(
                f"residue {r:.6g} at the pole {a:.6g} is not real: Re int phi is path-dependent"
            )
        parts.append((a, r.real, [(ci, i - m + 1) for i, ci in enumerate(c[:-1])]))

    def value(z):
        out = horner(poly, z)
        for a, r, terms in parts:
            w = z - a
            out = out + r * math.log(abs(w))
            for ci, k in terms:
                out = out + ci * w**k / k
        return out.real

    return value


def real_periods(p, domain):
    """period_residues on a punctured plane, None on any other domain. A
    nonreal residue raises MultivaluedImmersion, since Re int is then
    path-dependent."""
    if not isinstance(domain, PuncturedPlane):
        return None
    periods = period_residues(p, domain)
    if not periods.well_defined:
        raise MultivaluedImmersion("nonreal residues make Re int path-dependent")
    return periods


def immerse(p, domain, base, targets):
    """X(target) = Re(P(target) - P(base)) for the closed-form primitives P of
    the forms, evaluated point by point on complex scalars; a list of 4-tuples.

    A nonreal residue at a listed puncture (`real_periods`) or at any pole of
    the forms (`_primitive`) raises MultivaluedImmersion, since Re int is
    then path-dependent.
    """
    real_periods(p, domain)
    return _immerse(p, base, targets, _form_poles(p))


def _form_poles(p):
    """roots(phi.den) for each form phi, each distinct denominator solved
    once, as `check_regularity` takes them."""
    found = {den: roots(den) for den in dict.fromkeys(phi.den for phi in p.phi)}
    return [found[phi.den] for phi in p.phi]


def _immerse(p, base, targets, poles):
    """immerse without the exact period decision, given `_form_poles(p)` in
    `poles`. A base point or target where some Re P is not a finite float
    raises InvalidPath."""
    primitives = [_primitive(phi, a) for phi, a in zip(p.phi, poles)]
    points = [to_complex(base)] + [to_complex(t) for t in targets]
    try:
        x = [[prim(z) for prim in primitives] for z in points]
        finite = all(math.isfinite(v) for row in x for v in row)
    except (ValueError, ZeroDivisionError, OverflowError):
        finite = False
    if not finite:
        raise InvalidPath("a primitive is not finite at the base point or a target, at or near a pole")
    return [tuple(v - v0 for v, v0 in zip(row, x[0])) for row in x[1:]]
