"""Exact Gaussian-rational scalars and the shared scalar text grammar.

Every coefficient, puncture and sphere point is a GaussianRational: a pair
of fractions.Fraction. Floats are never data. They are evaluation points
and outputs only, so building a scalar from a float, or mixing one into
exact arithmetic, raises.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import RequiresExactMode
from .report import Immutable

# real part must be followed by a sign or the end, so "3i" parses as imaginary
_FRAC = r"[+-]?\d+(?:/\d+)?"
_TERM_RE = re.compile(
    rf"^\s*(?:(?P<re>{_FRAC})(?=\s*[+-]|\s*$))?"
    r"\s*(?P<im>[+-]?\s*(?:\d+(?:/\d+)?)?\s*i)?\s*$"
)


class GaussianRational(Immutable):
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise RequiresExactMode("floats do not promote to exact scalars")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return GaussianRational(1) / self**(-n)
        return binary_power(self, n, GaussianRational(1))

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def abs2(self):
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)

    @classmethod
    def parse(cls, text):
        return parse_scalar(text)


def binary_power(x, n, one):
    """x**n for an integer n >= 0 by repeated squaring: the bits of n pick
    the squares that are multiplied together, and no square is made past the
    top bit, so x**2 is one product; `one` is the result for n = 0."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return one if out is None else out
        x = x * x


def is_exact(x):
    return isinstance(x, (GaussianRational, int, Fraction))


def as_scalar(x):
    """Coerce an exact value or its text to GaussianRational; a float or
    complex raises RequiresExactMode."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, (float, complex)):
        raise RequiresExactMode(f"{x!r} is a float; data must be exact Gaussian rationals")
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"not a scalar: {x!r}")


def to_complex(x):
    return complex(x)


def format_scalar(x):
    """Canonical text form: 'a', 'bi', or 'a+bi' with rational a, b."""
    x = as_scalar(x)
    re_, im_ = x.re, x.im
    if im_ == 0:
        return str(re_)
    if re_ == 0:
        return f"{im_}i"
    sign = "+" if im_ >= 0 else "-"
    return f"{re_}{sign}{abs(im_)}i"


def parse_scalar(text):
    """Parse 'a', 'bi', 'a+bi', 'a-bi' with rational parts; 'i' means 1i."""
    s = text.strip()
    m = _TERM_RE.match(s)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"cannot parse scalar {text!r}")
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_tok = m.group("im")
    if im_tok is None:
        im_part = Fraction(0)
    else:
        body = im_tok.replace(" ", "")[:-1]
        if body in ("", "+"):
            im_part = Fraction(1)
        elif body == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(body)
    return GaussianRational(re_part, im_part)
