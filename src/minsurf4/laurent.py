"""Laurent polynomials over the Gaussian rationals on the punctured plane.

A Laurent polynomial is z^lo * poly for one exact Polynomial whose constant
term is nonzero (lo = 0 for zero), so the ring operations, the refusal of
float coefficients and the float evaluation kernel are Polynomial's; this
module adds only the shift.
"""

from __future__ import annotations

from .errors import DomainError
from .poly import Polynomial, conj_reflect, float_point, format_terms, horner, parse_terms
from .report import Immutable
from .scalars import as_scalar


class LaurentPoly(Immutable):
    """z^lo * poly; coeffs is a Polynomial or ascending coefficients from z^lo."""

    __slots__ = ("lo", "poly")

    def __init__(self, lo=0, coeffs=()):
        poly = coeffs if isinstance(coeffs, Polynomial) else Polynomial(coeffs)
        vals = poly.coeffs
        k = 0
        while k < len(vals) and not vals[k]:
            k += 1
        if k:
            poly = Polynomial(vals[k:])
        object.__setattr__(self, "lo", lo + k if vals else 0)
        object.__setattr__(self, "poly", poly)

    @property
    def coeffs(self):
        """Ascending coefficients from z^lo."""
        return self.poly.coeffs

    @classmethod
    def from_dict(cls, terms):
        """Build from {exponent: coefficient}."""
        lo = min(terms, default=0)
        return cls(lo, [terms.get(k, 0) for k in range(lo, max(terms, default=-1) + 1)])

    def is_zero(self):
        return self.poly.is_zero()

    @property
    def hi(self):
        if self.is_zero():
            return 0
        return self.lo + self.poly.degree

    def coeff(self, n):
        return self.poly.coeff(n - self.lo)

    def terms(self):
        return {self.lo + i: c for i, c in enumerate(self.coeffs)}

    def _padded(self, lo):
        """z^(self.lo - lo) * poly, as a Polynomial, for lo <= self.lo."""
        if lo == self.lo:
            return self.poly
        return Polynomial([0] * (self.lo - lo) + list(self.coeffs))

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, Polynomial):
            return LaurentPoly(0, other)
        if isinstance(other, str):
            return None
        try:
            return LaurentPoly(0, [as_scalar(other)])
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        lo = min(self.lo, o.lo)
        return LaurentPoly(lo, self._padded(lo) + o._padded(lo))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.lo, -self.poly)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly(self.lo + o.lo, self.poly * o.poly)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.lo == o.lo and self.poly == o.poly

    def __hash__(self):
        return hash((self.lo, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    # -- transforms --------------------------------------------------------------

    def compose_power(self, k):
        """self(z^k) for integer k >= 1."""
        if not isinstance(k, int) or k < 1:
            raise DomainError("covering exponent must be a positive integer")
        if self.is_zero():
            return self
        return LaurentPoly.from_dict({n * k: c for n, c in self.terms().items()})

    def i0_pullback(self):
        """The function z -> conj(self(-1/conj(z))) as a Laurent polynomial.

        Sends the coefficient at z^n to (-1)^n conj(c_n) at z^{-n}: with
        d = deg poly this is (-1)^lo z^{-lo-d} conj_reflect(poly, d).
        """
        q = conj_reflect(self.poly, self.poly.degree)
        return LaurentPoly(-self.hi, -q if self.lo % 2 else q)

    def derivative(self):
        return LaurentPoly.from_dict({n - 1: n * c for n, c in self.terms().items() if n})

    def eval(self, z):
        """Complex evaluation at a point or, elementwise, at a numpy array of
        points; every point must be nonzero when negative exponents exist.
        Only the nonorientable pipeline evaluates Laurent polynomials, and it
        builds numpy arrays anyway, so one numpy test serves both kinds of z."""
        import numpy as np

        z = float_point(z)
        if self.lo < 0 and np.any(z == 0):
            raise ZeroDivisionError("Laurent polynomial evaluated at 0")
        return horner(self.poly.to_complex_coeffs(), z) * z**self.lo

    __call__ = eval

    def poly_part(self):
        """z^{-lo} * self as a Polynomial when lo <= 0, else z-padded."""
        return self._padded(min(self.lo, 0))

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self)!r})"

    def __str__(self):
        return format_laurent(self)


def format_laurent(p):
    """(c)*z^n terms, highest exponent first, joined by +."""
    return format_terms(p.terms())


def parse_laurent(text):
    """The Laurent polynomial written in the grammar of parse_terms."""
    return LaurentPoly.from_dict(parse_terms(text, negative=True))
