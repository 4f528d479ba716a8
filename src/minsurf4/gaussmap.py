"""Exceptional values of rational maps and the degree-count inequalities.

For a complete conformal metric prod (1+|g_i|^2)^{m_i} |omega|^2 on a finitely
punctured plane whose nonconstant factors g_i each omit q_i > 2 values, the
counting inequality sum_i m_i/(q_i - 2) >= 1 must hold. verify_main_inequality
evaluates the left side in exact rational arithmetic and flags violations as
counterexamples; falsify hammers it with seeded random instances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

from .errors import ConstantMapError, DomainError, FlatSurfaceError, InfeasibleSampling
from .domains import PuncturedPlane, derive_rng
from .metric import MetricSpec, is_complete
from .poly import Polynomial, clear_denominators, clear_point, zi_multiplicity
from .rational import INF, MoebiusTransform, RationalFunction, quotient_at
from .report import Record
from .scalars import GaussianRational
from .sphere import INFINITY, SpherePoint, dedupe_points, format_point


def _all_preimages_on_boundary(num, den, value, points):
    """True iff every sphere preimage of value lies in punctures + infinity.

    g = N/D with N, D the Gaussian-integer pairs of g's numerator and
    denominator over their common denominator, and points the punctures
    from `clear_point`. Preimages at infinity never count against omission
    (infinity is always a boundary point of a punctured plane), so only the
    finite roots of q matter: q = D for value infinity, and for
    value = V/d_v, q = d_v N - V D, which is proportional to num - value*den
    over the common denominator. Its degree drops below deg N when value is
    g(infinity); the value is omitted iff the multiplicities of q at the
    punctures add up to deg q.
    """
    if value.is_infinity:
        q = den
    else:
        vr, vi, dv = clear_point(value.value)
        zero = (0, 0)
        q = [
            (dv * nr - vr * dr + vi * di, dv * ni - vr * di - vi * dr)
            for (nr, ni), (dr, di) in zip_longest(num, den, fillvalue=zero)
        ]
        while q and q[-1] == zero:
            q.pop()
    if not q:
        raise ConstantMapError("map is identically the tested value")
    degree = len(q) - 1
    return degree == 0 or sum(zi_multiplicity(q, *pt) for pt in points) == degree


def exceptional_values(g, domain):
    """Values omitted by a nonconstant rational g on a punctured plane.

    A value can only be omitted if it is a boundary image, so candidates are
    the extended values of g at the punctures and at infinity; each candidate
    is kept when all of its preimages lie on the boundary, which exact
    multiplicities at the punctures decide; the answer is exact. g and the
    punctures are cleared to Gaussian integers once, for all candidates.
    """
    if not isinstance(domain, PuncturedPlane):
        raise DomainError("exceptional-value analysis needs a punctured plane")
    if g.is_constant():
        raise ConstantMapError("constant maps have no exceptional-value count")
    _, (num, den) = clear_denominators(g.num, g.den)
    points = [clear_point(p) for p in domain.punctures]
    images = [quotient_at(num, den, pt) for pt in points] + [g.eval_extended(INF)]
    candidates = dedupe_points(INFINITY if inf_flag else SpherePoint(val) for inf_flag, val in images)
    omitted = [v for v in candidates if _all_preimages_on_boundary(num, den, v, points)]
    return tuple(sorted(omitted, key=SpherePoint.sort_key))


class FactorReport(Record):
    __slots__ = ("m", "constant", "omitted", "q")


class MainInequalityReport(Record):
    __slots__ = ("completeness", "factors", "lhs", "applicable", "holds", "counterexample")


def verify_main_inequality(spec, domain):
    """Exact check of sum m_i/(q_i - 2) >= 1 for the nonconstant factors.

    The left side is computed whenever every nonconstant factor omits more
    than two values; the verdict applies only when the metric is also
    complete. applicable and complete but lhs < 1 raises the COUNTEREXAMPLE
    flag, which no correct instance can produce.
    """
    completeness = is_complete(spec, domain)
    factors = []
    qs = []
    for g, m in spec.factors:
        if g.is_constant():
            factors.append(FactorReport(m, True, None, None))
            continue
        omitted = exceptional_values(g, domain)
        q = len(omitted)
        qs.append((m, q))
        factors.append(FactorReport(m, False, omitted, q))
    lhs = None
    if qs and all(q > 2 for _, q in qs):
        lhs = sum((Fraction(m, q - 2) for m, q in qs), Fraction(0))
    applicable = completeness.overall is True and lhs is not None
    holds = (lhs >= 1) if applicable else None
    counterexample = bool(applicable and lhs < 1)
    return MainInequalityReport(
        completeness, tuple(factors), lhs, applicable, holds, counterexample
    )


class R4GaussReport(Record):
    __slots__ = ("completeness", "q1", "q2", "applicable", "holds", "note")


def r4_gauss_check(g1, g2, omega_hat, domain):
    """Exceptional-value bound for surfaces in Euclidean 4-space.

    Both components nonconstant: complete and nonflat forces
    1/(q1-2) + 1/(q2-2) >= 1 whenever both q_i > 2. One component constant:
    the other omits at most 3 values when complete. Both constant: flat.
    """
    c1, c2 = g1.is_constant(), g2.is_constant()
    if c1 and c2:
        raise FlatSurfaceError("both Gauss map components constant")
    spec = MetricSpec([(g1, 1), (g2, 1)], omega_hat)
    completeness = is_complete(spec, domain)
    complete = completeness.overall is True
    if c1 or c2:
        g = g2 if c1 else g1
        q = len(exceptional_values(g, domain))
        applicable = complete
        holds = (q <= 3) if applicable else None
        note = "one constant component: the nonconstant one omits at most 3 values"
        if c1:
            return R4GaussReport(completeness, None, q, applicable, holds, note)
        return R4GaussReport(completeness, q, None, applicable, holds, note)
    q1 = len(exceptional_values(g1, domain))
    q2 = len(exceptional_values(g2, domain))
    applicable = complete and q1 > 2 and q2 > 2
    holds = None
    if applicable:
        holds = Fraction(1, q1 - 2) + Fraction(1, q2 - 2) >= 1
    note = "both components nonconstant: 1/(q1-2) + 1/(q2-2) >= 1 when both exceed 2"
    return R4GaussReport(completeness, q1, q2, applicable, holds, note)


class NonorientableCountReport(Record):
    __slots__ = ("q1", "q2", "holds", "equality", "consistent")


def nonorientable_check(q1, q2):
    """RP^2-count constraint for complete nonflat nonorientable surfaces.

    Both generalized components nonconstant: 1/(q1-1) + 1/(q2-1) >= 2 must
    hold, so each q_i <= 2 with (2, 2) as the equality case; a count with
    q_i = 1 makes its term infinite and the constraint vacuous. `consistent`
    is whether declared counts could belong to such a surface.
    """
    if q1 < 0 or q2 < 0:
        raise DomainError("counts must be nonnegative")
    if q1 <= 1 or q2 <= 1:
        return NonorientableCountReport(q1, q2, True, False, True)
    lhs = Fraction(1, q1 - 1) + Fraction(1, q2 - 1)
    holds = lhs >= 2
    equality = lhs == 2
    return NonorientableCountReport(q1, q2, holds, equality, holds)


# -- falsification harness --------------------------------------------------------


# Drawn Gaussian integers (Moebius entries, constants) have parts of
# modulus at most COEFF_BOUND, punctures at most COEFF_BOUND + 1.
COEFF_BOUND = 3


class FalsifyBounds(Record):
    """Instance-shape bounds for the random harness."""

    __slots__ = ("puncture_range", "m_range", "require_complete")

    def __init__(self, puncture_range=(2, 5), m_range=(0, 3), require_complete=False):
        for lo, hi in (puncture_range, m_range):
            if lo > hi or lo < 0:
                raise DomainError("empty or negative bound range")
        if puncture_range[0] < 1:
            raise DomainError("need at least one puncture")
        super().__init__(tuple(puncture_range), tuple(m_range), bool(require_complete))


def _draw_punctures(rng, count):
    pool = [
        GaussianRational(a, b)
        for a in range(-COEFF_BOUND - 1, COEFF_BOUND + 2)
        for b in range(-COEFF_BOUND - 1, COEFF_BOUND + 2)
    ]
    return rng.sample(pool, count)


def _draw_gaussian_int(rng, nonzero=False):
    while True:
        real = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        v = GaussianRational(real, rng.randint(-COEFF_BOUND, COEFF_BOUND))
        if v or not nonzero:
            return v


def _draw_factor(rng, punctures):
    kind = rng.random()
    if kind < 0.35:
        # power map: the sharpness family shape
        k = rng.randint(1, 3)
        return RationalFunction(Polynomial([0] * k + [1]))
    if kind < 0.65:
        while True:
            a, b = _draw_gaussian_int(rng), _draw_gaussian_int(rng)
            c, d = _draw_gaussian_int(rng), _draw_gaussian_int(rng)
            if a * d - b * c:
                t = MoebiusTransform(a, b, c, d)
                r = t.as_rational()
                if not r.is_constant():
                    return r
    if kind < 0.8:
        # alpha + 1/prod(z - a_j): omits alpha and infinity
        subset = [p for p in punctures if rng.random() < 0.6] or [rng.choice(punctures)]
        alpha = _draw_gaussian_int(rng)
        den = Polynomial.from_roots(subset)
        return RationalFunction(Polynomial([alpha]) * den + Polynomial([1]), den)
    return RationalFunction.constant(_draw_gaussian_int(rng))


def _draw_instance(rng, bounds):
    n_punct = rng.randint(*bounds.puncture_range)
    punctures = _draw_punctures(rng, n_punct)
    n_fac = rng.randint(1, 2)
    factors = []
    for _ in range(n_fac):
        m = rng.randint(*bounds.m_range)
        factors.append((_draw_factor(rng, punctures), m))
    den = Polynomial([1])
    for p in punctures:
        e = rng.randint(1, 2)
        den = den * Polynomial.from_roots([p]) ** e
    omega_hat = RationalFunction(
        Polynomial([_draw_gaussian_int(rng, nonzero=True)]), den
    )
    spec = MetricSpec(factors, omega_hat)
    return spec, PuncturedPlane(punctures)


class FalsifyRow(Record):
    __slots__ = (
        "index", "punctures", "m", "q", "complete", "lhs", "applicable", "holds", "counterexample"
    )


def _run_one(seed, index, bounds):
    """One row; with require_complete, instance `index` is redrawn until its
    metric is complete, and 200 incomplete draws raise InfeasibleSampling."""
    attempts = 200 if bounds.require_complete else 1
    for attempt in range(attempts):
        rng = derive_rng(seed, index, attempt, "falsify")
        spec, domain = _draw_instance(rng, bounds)
        report = verify_main_inequality(spec, domain)
        if not bounds.require_complete or report.completeness.overall is True:
            break
    else:
        raise InfeasibleSampling(f"falsify instance {index}: no complete metric in {attempts} draws")
    return FalsifyRow(
        index,
        [format_point(SpherePoint(p)) for p in domain.punctures],
        [m for _, m in spec.factors],
        [f.q for f in report.factors if not f.constant],
        report.completeness.overall,
        None if report.lhs is None else str(report.lhs),
        report.applicable,
        report.holds,
        report.counterexample,
    )


def falsify(seed, n_instances, bounds=None):
    """Random-instance sweep; returns (summary dict, rows).

    Deterministic for fixed seed and bounds: each instance derives its RNG
    from (seed, index).
    """
    if n_instances < 0:
        raise DomainError("instance count must be nonnegative")
    bounds = bounds or FalsifyBounds()
    rows = [_run_one(seed, i, bounds) for i in range(n_instances)]
    summary = {
        "instances": n_instances,
        "complete": sum(1 for r in rows if r.complete is True),
        "applicable": sum(1 for r in rows if r.applicable),
        "holds": sum(1 for r in rows if r.holds is True),
        "counterexamples": sum(1 for r in rows if r.counterexample),
    }
    return summary, rows
