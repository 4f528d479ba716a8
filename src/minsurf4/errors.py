"""Typed errors shared across the package."""


class MinSurfError(Exception):
    """Base class for package errors."""


class DomainError(MinSurfError, ValueError):
    """Invalid mathematical object: zero denominator, zero metric data, bad parameter."""


class RequiresExactMode(MinSurfError, TypeError):
    """Operation is only meaningful for exact (Gaussian-rational) coefficients."""


class UnsupportedPoint(MinSurfError, ValueError):
    """Point outside what the operation can handle (e.g. residue at infinity)."""


class ExponentUndefined(MinSurfError, ValueError):
    """No symbolic boundary exponent at this boundary component (annulus circles)."""


class InfeasibleSampling(MinSurfError, RuntimeError):
    """Rejection sampling gave up: no acceptable draw within its cap."""


class InvalidPath(MinSurfError, ValueError):
    """An integration endpoint (base point or target) is a pole of the forms,
    or so near one that a primitive leaves the float range."""


class BadStencil(MinSurfError, ValueError):
    """Finite-difference stencil touches a pole or zero of the conformal factor."""


class DegenerateFrame(MinSurfError, ValueError):
    """phi1 - i*phi2 vanishes identically; Gauss map frame undefined."""


class ConstantMapError(MinSurfError, ValueError):
    """Operation needs a nonconstant map."""


class FlatSurfaceError(MinSurfError, ValueError):
    """Both Gauss map components constant; surface is a plane."""


class MultivaluedImmersion(MinSurfError, ValueError):
    """Real periods do not vanish; integral depends on the path."""


class DegeneratePoint(MinSurfError, ValueError):
    """Metric vanishes at the requested point."""


class IrregularData(MinSurfError, ValueError):
    """Forms share a zero inside the domain; immersion is branched there."""


class ConditionViolation(MinSurfError, ValueError):
    """Zero-free condition on the unit circle fails for the candidate f."""


class PeriodObstruction(MinSurfError, ValueError):
    """Residue condition fails; pulled-back forms would have periods."""


class RootsNotConverged(MinSurfError, RuntimeError):
    """The root iteration stopped at its cap before its steps fell below
    the convergence tolerance."""


class KSearchExhausted(MinSurfError, RuntimeError):
    """No admissible odd covering degree below the search cap."""


class ConfigError(MinSurfError, ValueError):
    """Malformed or inconsistent run configuration."""
