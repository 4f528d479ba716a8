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

The factors g_i and omega_hat are exact rational functions, so every
exponent is an exact order of vanishing and every verdict is a proof; no
float enters this module.
"""

from __future__ import annotations

from .errors import DomainError, ExponentUndefined
from .domains import AT_INFINITY, INNER_CIRCLE, OUTER_CIRCLE, BoundaryPoint
from .rational import INF, RationalFunction
from .report import Record
from .scalars import as_scalar
from .sphere import SpherePoint

COMPLETENESS_RULE = (
    "complete at b iff sigma(b) <= -1, where sigma(b) = ord_b(omega_hat) "
    "- sum_i m_i * max(0, pole order of g_i at b), with an extra -2 at "
    "infinity from the w = 1/z chart; int_0 t^sigma dt diverges iff "
    "sigma <= -1, and |dz| >= |d|z-b|| bounds every divergent path below "
    "by the radial integral"
)


class MetricSpec(Record):
    """Factors (g_i, m_i) with integer weights m_i >= 0 and a 1-form omega_hat."""

    __slots__ = ("factors", "omega_hat")

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
        super().__init__(tuple(facs), omega_hat)


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
                "completeness there rests on covering bounds"
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


class CompletenessEntry(Record):
    __slots__ = ("boundary", "kind", "sigma", "complete")


class CompletenessReport(Record):
    __slots__ = ("entries", "overall")

    def to_dict(self):
        return {**super().to_dict(), "rationale": COMPLETENESS_RULE}


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
    return CompletenessReport(tuple(entries), overall)

