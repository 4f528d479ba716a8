"""Laurent polynomials on the punctured plane.

Stored as an offset (lowest exponent) plus ascending coefficients. Exactness
follows the same rule as Polynomial: all Gaussian-rational coefficients, or
everything demoted to complex.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DomainError
from .poly import Polynomial, horner
from .scalars import GaussianRational, as_scalar, conj, format_scalar, parse_scalar, to_complex


def _norm(lo, coeffs):
    vals = [as_scalar(c) for c in coeffs]
    exact = all(isinstance(v, GaussianRational) for v in vals)
    if not exact:
        vals = [to_complex(v) for v in vals]
    while vals and not vals[0]:
        vals.pop(0)
        lo += 1
    while vals and not vals[-1]:
        vals.pop()
    if not vals:
        lo = 0
    return lo, tuple(vals), exact


class LaurentPoly:
    # _ccoeffs: the complex coefficient tuple, built on first float use
    __slots__ = ("lo", "coeffs", "exact", "_ccoeffs")

    def __init__(self, lo=0, coeffs=()):
        lo, vals, exact = _norm(lo, coeffs)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "coeffs", vals)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_ccoeffs", None if exact else vals)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def from_dict(cls, terms):
        """Build from {exponent: coefficient}."""
        if not terms:
            return cls()
        lo = min(terms)
        hi = max(terms)
        return cls(lo, [terms.get(k, 0) for k in range(lo, hi + 1)])

    @classmethod
    def from_poly(cls, p):
        return cls(0, p.coeffs)

    @classmethod
    def constant(cls, c):
        return cls(0, [c])

    def is_zero(self):
        return not self.coeffs

    @property
    def hi(self):
        if self.is_zero():
            return 0
        return self.lo + len(self.coeffs) - 1

    def coeff(self, n):
        i = n - self.lo
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return GaussianRational(0) if self.exact else 0j

    def terms(self):
        return {self.lo + i: c for i, c in enumerate(self.coeffs)}

    # -- ring operations -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, Polynomial):
            return LaurentPoly.from_poly(other)
        if isinstance(other, str):
            return None
        try:
            return LaurentPoly.constant(as_scalar(other))
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
        hi = max(self.hi, o.hi)
        return LaurentPoly(lo, [self.coeff(n) + o.coeff(n) for n in range(lo, hi + 1)])

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.lo, [-c for c in self.coeffs])

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
        if self.is_zero() or o.is_zero():
            return LaurentPoly()
        out = [None] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                t = a * b
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        return LaurentPoly(self.lo + o.lo, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.lo == o.lo and self.coeffs == o.coeffs

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
        terms = {}
        for n, c in self.terms().items():
            terms[n * k] = c
        return LaurentPoly.from_dict(terms)

    def i0_pullback(self):
        """The function z -> conj(self(-1/conj(z))) as a Laurent polynomial.

        Sends the coefficient at z^n to (-1)^n conj(c_n) at z^{-n}.
        """
        terms = {}
        for n, c in self.terms().items():
            cc = conj(c)
            terms[-n] = -cc if n % 2 else cc
        return LaurentPoly.from_dict(terms)

    def derivative(self):
        terms = {}
        for n, c in self.terms().items():
            if n != 0:
                terms[n - 1] = n * c
        return LaurentPoly.from_dict(terms)

    def eval(self, z):
        """Complex evaluation at a point or, elementwise, at a numpy array of
        points; every point must be nonzero when negative exponents exist."""
        zz = z if isinstance(z, (complex, np.ndarray)) else to_complex(z)
        if self.lo < 0 and np.any(zz == 0):
            raise ZeroDivisionError("Laurent polynomial evaluated at 0")
        return horner(self.to_complex_coeffs(), zz) * zz**self.lo

    def to_complex_coeffs(self):
        """Ascending complex coefficients from z^lo, converted once and cached."""
        if self._ccoeffs is None:
            object.__setattr__(self, "_ccoeffs", tuple(to_complex(c) for c in self.coeffs))
        return self._ccoeffs

    __call__ = eval

    def times_z_power(self, k):
        return LaurentPoly(self.lo + k, self.coeffs)

    def poly_part(self):
        """z^{-lo} * self as a Polynomial when lo <= 0, else z-padded."""
        if self.is_zero():
            return Polynomial()
        if self.lo >= 0:
            return Polynomial([0] * self.lo + list(self.coeffs))
        return Polynomial(self.coeffs)

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self)!r})"

    def __str__(self):
        return format_laurent(self)


# -- text grammar ----------------------------------------------------------------

_LTERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?:\((?P<coef>[^()]*)\)\*?)?(?P<var>z)?(?:\^(?P<exp>-?\d+))?$"
)
_SPLIT_RE = re.compile(r"(?<!\^)(?=[+-](?![^()]*\)))")


def format_laurent(p, var="z"):
    if p.is_zero():
        return "0"
    parts = []
    for n in range(p.hi, p.lo - 1, -1):
        c = p.coeff(n)
        if not c:
            continue
        cs = format_scalar(c)
        if n == 0:
            parts.append(f"({cs})")
        elif n == 1:
            parts.append(f"({cs})*{var}")
        else:
            parts.append(f"({cs})*{var}^{n}")
    return " + ".join(parts)


def parse_laurent(text, exact=True, var="z"):
    s = text.strip()
    if s in ("0", "(0)"):
        return LaurentPoly()
    chunks = [c for c in _SPLIT_RE.split(s.replace(" ", "")) if c]
    terms = {}
    for chunk in chunks:
        m = _LTERM_RE.match(chunk)
        if not m or (m.group("var") is None and m.group("coef") is None):
            val = parse_scalar(chunk, exact=exact)
            terms[0] = terms.get(0, 0) + val
            continue
        sign = -1 if m.group("sign") == "-" else 1
        coef_txt = m.group("coef")
        if coef_txt is not None:
            val = parse_scalar(coef_txt, exact=exact)
        else:
            val = GaussianRational(1) if exact else 1 + 0j
        if m.group("var") is None:
            if m.group("exp") is not None:
                raise ValueError(f"exponent without variable in {chunk!r}")
            n = 0
        else:
            n = int(m.group("exp")) if m.group("exp") is not None else 1
        terms[n] = terms.get(n, 0) + sign * val
    return LaurentPoly.from_dict(terms)
