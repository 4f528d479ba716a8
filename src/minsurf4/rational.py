"""Rational functions of one variable over the Gaussian rationals, plus
Moebius maps.

Numerator and denominator are exact Polynomials, kept reduced (coprime)
with a monic denominator, so zero/pole orders read off multiplicities
directly and equality is structural. Orders and residues are taken at
exact points only; floats enter as evaluation points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice

from .errors import DomainError, UnsupportedPoint
from .poly import (
    Polynomial,
    clear_denominators,
    clear_point,
    conj_reflect,
    format_poly,
    gcd,
    multiplicity_at,
    parse_poly,
    zi_horner,
    zi_taylor,
)
from .report import Immutable
from .scalars import GaussianRational, as_scalar, is_exact

INF = object()  # marker for the point at infinity in order bookkeeping


class RationalFunction(Immutable):
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Polynomial) else Polynomial([num] if not isinstance(num, (list, tuple)) else num)
        if den is None:
            den = Polynomial([1])
        elif not isinstance(den, Polynomial):
            den = Polynomial([den] if not isinstance(den, (list, tuple)) else den)
        if den.is_zero():
            raise DomainError("zero denominator")
        if not num.is_zero():
            g = gcd(num, den)
            if g.degree > 0:
                num = num / g
                den = den / g
        num = num * (GaussianRational(1) / den.leading())
        den = den.monic()
        if num.is_zero():
            den = Polynomial([1])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def constant(cls, c):
        return cls(Polynomial([c]))

    @classmethod
    def z(cls):
        return cls(Polynomial.z())

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree == 0

    # -- field operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, str):
            return None
        try:
            return RationalFunction(Polynomial([as_scalar(other)]))
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DomainError("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise DomainError("integer powers only")
        if n < 0:
            if self.is_zero():
                raise DomainError("negative power of zero")
            return RationalFunction(self.den, self.num) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self):
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, z):
        """Value at a finite point: exact at an exact point, complex at a
        float one; raises ZeroDivisionError at a pole."""
        n = self.num.eval(z)
        d = self.den.eval(z)
        if not d:
            raise ZeroDivisionError("pole")
        return n / d

    def eval_extended(self, z):
        """Value on the sphere: (is_inf, value-or-None). z may be INF."""
        if z is INF:
            dn = self.num.degree - self.den.degree
            if self.is_zero() or dn < 0:
                return False, GaussianRational(0)
            if dn > 0:
                return True, None
            return False, self.num.leading() / self.den.leading()
        if is_exact(z):
            _, (num, den) = clear_denominators(self.num, self.den)
            return quotient_at(num, den, clear_point(z))
        n = self.num.eval(z)
        d = self.den.eval(z)
        if not d:
            # reduced form: the numerator cannot vanish there too
            return True, None
        return False, n / d

    def __call__(self, z):
        return self.eval_at(z)

    # -- local orders ----------------------------------------------------------

    def order_at(self, point):
        """Order of vanishing at INF or an exact point: zeros > 0, poles < 0.

        The zero function raises (its order is +infinity everywhere), and so
        does a float point (RequiresExactMode). num and den are coprime, so
        at most one of them vanishes at a finite point: num's multiplicity is
        read only where den's is 0.
        """
        if self.is_zero():
            raise DomainError("order of the zero function is undefined")
        if point is INF:
            return self.den.degree - self.num.degree
        poles = multiplicity_at(self.den, point)
        return -poles if poles else multiplicity_at(self.num, point)

    def pole_order(self, point):
        """max(0, -order_at(point)); at a finite point den's multiplicity."""
        if point is INF or self.is_zero():
            return max(0, -self.order_at(point))
        return multiplicity_at(self.den, point)

    def residue_at(self, point):
        """Residue of self dz at a finite exact point; a float point raises
        RequiresExactMode.

        num and den are cleared once, and `zi_taylor` shifts each to the
        point. They are coprime, so the pole order k is the number of
        leading zeros of den's Taylor coefficients, and the residue is
        coefficient k - 1 of the series quotient of num's first k
        coefficients by den's coefficients k to 2k - 1.
        """
        if point is INF:
            raise UnsupportedPoint("residue at infinity is not supported; use a chart")
        sr, si, d = clear_point(point)
        if self.is_zero():
            return GaussianRational(0)
        _, (num, den) = clear_denominators(self.num, self.den)
        den_t = zi_taylor(den, sr, si, d)
        k, lead = next((j, q) for j, q in enumerate(den_t) if any(q))
        if k == 0:
            return GaussianRational(0)
        num_s = _exact_coeffs(zi_taylor(num, sr, si, d), len(num) - 1, d, 0, k)
        den_s = _exact_coeffs(chain([lead], den_t), len(den) - 1, d, k, k)
        return _series_div(num_s, den_s, k)[k - 1]

    def conj_reflect(self):
        """The function z -> conj(self(-1/conj(z))) as a rational function."""
        n = max(self.num.degree, self.den.degree)
        num_r = conj_reflect(self.num, n)
        den_r = conj_reflect(self.den, n)
        return RationalFunction(num_r, den_r)

    def __repr__(self):
        return f"RationalFunction({format_rational(self)!r})"

    def __str__(self):
        return format_rational(self)


def quotient_at(num, den, point):
    """(is_inf, value) of N/D at a point (sr, si, d) from `clear_point`, for
    coprime N and D given as ascending Gaussian-integer pairs.

    With H_P = d^deg(P) P(s/d) from `zi_horner`, N/D at s/d is
    H_N d^deg(D) / (H_D d^deg(N)); the pole is the integer test H_D = 0, and
    the quotient is H_N conj(H_D) over |H_D|^2 and the power of d.
    """
    sr, si, d = point
    dr, di = zi_horner(den, sr, si, d)
    if not (dr or di):
        # coprime: the numerator cannot vanish there too
        return True, None
    if not num:
        return False, GaussianRational(0)
    nr, ni = zi_horner(num, sr, si, d)
    re_, im_ = nr * dr + ni * di, ni * dr - nr * di
    scale = dr * dr + di * di
    shift = len(den) - len(num)
    if shift > 0:
        f = d**shift
        re_, im_ = re_ * f, im_ * f
    elif shift < 0:
        scale *= d**-shift
    return False, GaussianRational(Fraction(re_, scale), Fraction(im_, scale))


def _exact_coeffs(taylor, n, d, start, count):
    """The coefficients of t^start .. t^(start+count-1) in P(s/d + t), for a
    degree-n P whose `zi_taylor` values from q_start on are `taylor`: each
    q_j / d^(n-j) as a GaussianRational, and zeros past the degree. P is a
    cleared polynomial, so they carry the factor L of `clear_denominators`;
    it cancels in a quotient of two polynomials cleared together."""
    out = []
    for j, (r, i) in enumerate(islice(taylor, count), start):
        scale = d ** (n - j)
        out.append(GaussianRational(Fraction(r, scale), Fraction(i, scale)))
    return out + [GaussianRational(0)] * (count - len(out))


def _taylor_at(p, pt, nterms):
    """First nterms coefficients of p(pt + t) as a polynomial in t, complex,
    at a float point pt (the poles `immerse` expands at): p^(k)(pt) / k!
    along the derivative chain."""
    coeffs = []
    cur = p
    fact = 1
    for k in range(nterms):
        coeffs.append(cur.eval(pt) * (1.0 / fact))
        cur = cur.derivative()
        fact *= k + 1
        if cur.is_zero():
            coeffs.extend([coeffs[0] * 0] * (nterms - len(coeffs)))
            break
    return coeffs


def _series_div(num, den, nterms):
    """Power series num/den up to nterms; den[0] must be a unit."""
    if not den or not den[0]:
        raise DomainError("series division by a non-unit")
    out = []
    acc = list(num) + [num[0] * 0] * max(0, nterms - len(num))
    inv0 = 1 / den[0] if not isinstance(den[0], GaussianRational) else GaussianRational(1) / den[0]
    for k in range(nterms):
        c = acc[k] * inv0
        out.append(c)
        for j in range(1, min(len(den), nterms - k)):
            acc[k + j] = acc[k + j] - c * den[j]
    return out


# -- Moebius transforms --------------------------------------------------------


class MoebiusTransform(Immutable):
    """(a z + b) / (c z + d) with nonzero determinant."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = (as_scalar(x) for x in (a, b, c, d))
        det = a * d - b * c
        if not det:
            raise DomainError("singular Moebius transform")
        for name, val in zip(("a", "b", "c", "d"), (a, b, c, d)):
            object.__setattr__(self, name, val)

    def as_rational(self):
        return RationalFunction(Polynomial([self.b, self.a]), Polynomial([self.d, self.c]))

    def apply_rational(self, r):
        if not isinstance(r, RationalFunction):
            r = RationalFunction.constant(as_scalar(r))
        num = self.a * r + self.b
        den = self.c * r + self.d
        return num / den

    def apply_point(self, z):
        """Extended evaluation: z may be INF; returns INF or a scalar."""
        if z is INF:
            if not self.c:
                return INF
            return self.a / self.c
        z = as_scalar(z)
        d = self.c * z + self.d
        if not d:
            return INF
        return (self.a * z + self.b) / d

    def inverse(self):
        return MoebiusTransform(self.d, -self.b, -self.c, self.a)

    def compose(self, other):
        return MoebiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __repr__(self):
        return f"MoebiusTransform({self.a}, {self.b}, {self.c}, {self.d})"


# -- text grammar --------------------------------------------------------------


def format_rational(r):
    if r.den.degree == 0:
        return format_poly(r.num)
    return f"{format_poly(r.num)} over {format_poly(r.den)}"


def parse_rational(text):
    """Parse 'NUM over DEN' or a bare polynomial."""
    parts = text.split(" over ")
    if len(parts) == 1:
        return RationalFunction(parse_poly(parts[0]))
    if len(parts) != 2:
        raise ValueError(f"cannot parse rational function {text!r}")
    return RationalFunction(parse_poly(parts[0]), parse_poly(parts[1]))
