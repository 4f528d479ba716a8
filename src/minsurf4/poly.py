"""Univariate polynomials over the Gaussian rationals.

Coefficients are stored ascending, and every one is a GaussianRational: a
float coefficient raises RequiresExactMode. Division, gcd, square-free
decomposition and multiplicities are exact; floats enter only as
evaluation points and as outputs, the complex roots (with exact
multiplicities) and the values of `horner` on the cached complex
coefficients.

The exact kernel runs in Python integers. `clear_denominators` writes an
exact polynomial as 1/L times Gaussian-integer coefficients, given as
(re, im) pairs, with L the lcm of the coefficient denominators, and
`clear_point` writes an exact point as s/d with s in Z[i] and d a positive
integer. Two point kernels run on them: `zi_horner`, the homogenized
Horner value, and `zi_taylor`, a synthetic-division Taylor shift that
yields the Taylor coefficients at s/d one at a time. The product, division,
`monic`, the gcd (a primitive PRS over Z[i]), exact evaluation and
`RationalFunction.eval_extended` (`zi_horner`), `multiplicity_at`, the
omission test of `gaussmap.exceptional_values` (`zi_multiplicity`, the
leading zeros of `zi_taylor`), `RationalFunction.residue_at` (`zi_taylor`)
and the conformality identity of `weierstrass.check_conformality` work on
those pairs and build GaussianRationals only for their result, so exact
results are the ones field arithmetic on Fraction pairs gives.

Float evaluation takes a point through `float_point`, and nothing here
imports numpy at module level. Only the nonorientable pipeline evaluates
numpy arrays; exact work and `mesh`, which evaluates its closed-form
primitives on complex scalars, never load numpy.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re
from fractions import Fraction

from .errors import DomainError, RequiresExactMode, RootsNotConverged
from .report import Immutable
from .scalars import GaussianRational, as_scalar, binary_power, format_scalar, is_exact, parse_scalar, to_complex


def float_point(z):
    """The one dispatch rule of Polynomial.eval, RationalFunction.eval_at and
    LaurentPoly.eval for a point they evaluate in floats: a scalar, exact or a
    Python or numpy number, becomes a complex, and anything else is taken to
    be a numpy array of points for `horner`; only the nonorientable pipeline
    passes arrays. numpy scalars are registered as `numbers.Number`s, so
    numpy is not imported to tell them apart.
    """
    return complex(z) if isinstance(z, (GaussianRational, numbers.Number)) else z


def horner(ccoeffs, z):
    """Value at z of the polynomial with ascending complex coefficients.

    z is a complex scalar or a numpy array of points, evaluated elementwise;
    the float kernel under Polynomial.eval and LaurentPoly.eval. The scalar
    branch serves `mesh`'s closed-form primitives and never imports numpy;
    the array branch serves the nonorientable pipeline.
    """
    if isinstance(z, complex):
        acc = 0j
    else:
        # zeros, not z * 0j: the zero polynomial would return signed zeros
        import numpy as np

        acc = np.zeros(z.shape, complex)
    for c in reversed(ccoeffs):
        acc = acc * z + c
    return acc


class Polynomial(Immutable):
    # _ccoeffs: the complex coefficient tuple, built on first float use
    __slots__ = ("coeffs", "_ccoeffs")

    def __init__(self, coeffs=()):
        vals = [as_scalar(c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        object.__setattr__(self, "coeffs", tuple(vals))
        object.__setattr__(self, "_ccoeffs", None)

    @classmethod
    def from_dict(cls, terms):
        """Build from {exponent: coefficient} with exponents >= 0."""
        return cls([terms.get(k, 0) for k in range(max(terms, default=-1) + 1)])

    @classmethod
    def constant(cls, c):
        return cls([c])

    @classmethod
    def z(cls):
        return cls([0, 1])

    @classmethod
    def from_roots(cls, roots):
        p = cls.constant(1)
        for r in roots:
            p = p * cls([-as_scalar(r), 1])
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GaussianRational(0)

    def leading(self):
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        """Product. The factors are cleared to Gaussian integers over La and
        Lb, multiplied in Python integers and divided once by La Lb."""
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        la, (a,) = clear_denominators(self)
        lb, (b,) = clear_denominators(other)
        return _from_gaussian_integers(zi_mul(a, b), la * lb)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise DomainError("polynomial powers must be nonnegative integers")
        return binary_power(self, n, Polynomial([1]))

    def __divmod__(self, other):
        """(quotient, remainder). The operands are cleared by one common L
        to A and B over Z[i]; f A = Q B + R in Z[i] for a positive integer f
        gives the quotient Q / f and the remainder R / (L f)."""
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial(), self
        lcd, (a, b) = clear_denominators(self, other)
        q, r, scale = _pseudo_divmod(a, b)
        return _from_gaussian_integers(q, scale), _from_gaussian_integers(r, lcd * scale)

    def __truediv__(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise DomainError("inexact polynomial division")
        return q

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    # -- calculus and transforms ---------------------------------------------

    def derivative(self):
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, z):
        """Value at z: exact at an exact point, complex at a float point or,
        elementwise, at a numpy array of points (see float_point)."""
        if not is_exact(z):
            return horner(self.to_complex_coeffs(), float_point(z))
        if not self.coeffs:
            return GaussianRational(0)
        lcd, (pairs,) = clear_denominators(self)
        sr, si, d = clear_point(z)
        hr, hi = zi_horner(pairs, sr, si, d)
        den = lcd * d**self.degree
        return GaussianRational(Fraction(hr, den), Fraction(hi, den))

    __call__ = eval

    def monic(self):
        if self.is_zero():
            return self
        return _monic(clear_denominators(self)[1][0])

    def compose(self, inner):
        inner = _as_poly(inner)
        out = Polynomial()
        for c in reversed(self.coeffs):
            out = out * inner + Polynomial([c])
        return out

    def to_complex_coeffs(self):
        """Ascending complex coefficients, converted once and cached."""
        if self._ccoeffs is None:
            object.__setattr__(self, "_ccoeffs", tuple(to_complex(c) for c in self.coeffs))
        return self._ccoeffs

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, str):
        return None
    try:
        return Polynomial([as_scalar(x)])
    except TypeError:
        return None


def conj_reflect(p, n):
    """z^n * conj(p)(-1/z) for n >= deg p: the coefficient a_k of z^k goes to
    (-1)^k conj(a_k) at z^{n-k}."""
    out = [0] * (n + 1)
    for k, a in enumerate(p.coeffs):
        c = a.conjugate()
        out[n - k] = -c if k % 2 else c
    return Polynomial(out)


def clear_denominators(*polys):
    """(L, pairs) for exact polynomials p_1, ..., p_k: L is the lcm of all
    their coefficient denominators and pairs[j] lists, ascending, the
    Gaussian-integer coefficients (re, im) of L p_j."""
    dens = [d for p in polys for c in p.coeffs for d in (c.re.denominator, c.im.denominator)]
    lcd = math.lcm(*dens)
    pairs = [
        [(c.re.numerator * (lcd // c.re.denominator), c.im.numerator * (lcd // c.im.denominator)) for c in p.coeffs]
        for p in polys
    ]
    return lcd, pairs


def _from_gaussian_integers(pairs, lcd):
    """The exact polynomial sum (re + i im) z^k / lcd of ascending pairs."""
    return Polynomial([GaussianRational(Fraction(r, lcd), Fraction(i, lcd)) for r, i in pairs])


def _monic(pairs):
    """The monic polynomial proportional to nonzero Gaussian-integer pairs:
    times conj(c) / |c|^2 for the leading coefficient c."""
    lr, li = pairs[-1]
    return _from_gaussian_integers(zi_mul(pairs, [(lr, -li)]), lr * lr + li * li)


def zi_mul(a, b):
    """Product of two nonzero polynomials over Z[i], as ascending (re, im)
    pairs."""
    out_r = [0] * (len(a) + len(b) - 1)
    out_i = [0] * len(out_r)
    for j, (br, bi) in enumerate(b):
        for k, (ar, ai) in enumerate(a, j):
            out_r[k] += ar * br - ai * bi
            out_i[k] += ar * bi + ai * br
    return list(zip(out_r, out_i))


def _zi_gcd(a, b):
    """A gcd in Z[i] of two (re, im) pairs, by Euclid with rounded quotients
    (the norm of the remainder is at most half the divisor's)."""
    ar, ai = a
    br, bi = b
    while br or bi:
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def _primitive_part(pairs):
    """pairs with trailing zeros stripped and divided by a Gaussian-integer
    gcd of all coefficients, so the PRS keeps no spurious constant factor."""
    while pairs and pairs[-1] == (0, 0):
        pairs.pop()
    if not pairs:
        return pairs
    g = math.gcd(*(x for c in pairs for x in c))
    pairs = [(r // g, i // g) for r, i in pairs]
    gr, gi = 0, 0
    for c in pairs:
        gr, gi = _zi_gcd((gr, gi), c)
        if gr * gr + gi * gi == 1:  # a unit: no content left
            return pairs
    n = gr * gr + gi * gi
    return [((r * gr + i * gi) // n, (i * gr - r * gi) // n) for r, i in pairs]


def _pseudo_divmod(u, v):
    """(q, r, f) with f u = q v + r over Z[i], deg r < deg v <= deg u and f a
    positive integer. With c = lc(v), u is divided by w = v conj(c), whose
    leading coefficient n = |c|^2 is a positive integer; u is first scaled by
    f = n^(deg u - deg v + 1), so every step divides exactly by n."""
    cr, ci = v[-1]
    w = zi_mul(v, [(cr, -ci)])
    n = w[-1][0]
    steps = len(u) - len(v) + 1
    scale = n**steps
    ur, ui = [r * scale for r, _ in u], [i * scale for _, i in u]
    q = [None] * steps
    for k in range(steps - 1, -1, -1):
        tr, ti = ur.pop() // n, ui.pop() // n
        q[k] = (tr, ti)
        for j, (wr, wi) in enumerate(w[:-1], k):
            ur[j] -= tr * wr - ti * wi
            ui[j] -= tr * wi + ti * wr
    return zi_mul(q, [(cr, -ci)]), list(zip(ur, ui)), scale


def gcd(a, b):
    """Monic gcd over the exact field; gcd(p, 0) = monic p.

    A primitive PRS over Z[i] (Collins, J. ACM 14, 1967; Brown, J. ACM 18,
    1971): both inputs are cleared to Gaussian integers, and each step takes
    the primitive part of a pseudo-remainder. The last nonzero remainder is
    divided by its leading coefficient only at the end. The monic gcd is
    unique, so this is the gcd the field Euclid gives.
    """
    _, (u, v) = clear_denominators(a, b)
    u, v = _primitive_part(u), _primitive_part(v)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        u, v = v, _primitive_part(_pseudo_divmod(u, v)[1])
    if v:
        return Polynomial([1])
    return _monic(u) if u else Polynomial()


def gcd_many(polys):
    out = Polynomial()
    for p in polys:
        out = gcd(out, p)
        if out.degree == 0:
            break
    return out


def squarefree_decomposition(p):
    """Yun's algorithm: list of (factor, multiplicity), factors monic."""
    if p.is_zero():
        raise DomainError("zero polynomial")
    out = []
    if p.degree == 0:
        return out
    g = gcd(p, p.derivative())
    b = p / g
    c = p.derivative() / g
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a_i = gcd(b, d)
        if a_i.degree > 0:
            out.append((a_i, i))
        b = b / a_i
        c = d / a_i
        d = c - b.derivative()
        i += 1
    return out


# Aberth sweeps after which `_aberth` gives up on a factor and raises
ABERTH_MAXITER = 200


def _aberth(coeffs):
    """All roots of a complex polynomial with simple roots expected; raises
    RootsNotConverged when ABERTH_MAXITER sweeps leave a step above the
    tolerance."""
    n = len(coeffs) - 1
    if n <= 0:
        return []
    lead = coeffs[-1]
    cs = [c / lead for c in coeffs]
    radius = 1.0 + max(abs(c) for c in cs[:-1]) if n else 1.0
    # deterministic spread with an irrational angle offset to dodge symmetry traps
    zs = [radius * cmath.exp(2j * math.pi * (k / n) + 0.4j) * (1 + 0.01 * k / max(n, 1)) for k in range(n)]
    der = [k * cs[k] for k in range(1, n + 1)]

    for _ in range(ABERTH_MAXITER):
        moved = 0.0
        for i in range(n):
            z = zs[i]
            pv = horner(cs, z)
            dv = horner(der, z)
            if dv == 0:
                zs[i] = z + (1e-6 + 1e-6j)
                moved = math.inf
                continue
            newton = pv / dv
            s = 0j
            for j in range(n):
                if j != i:
                    dz = z - zs[j]
                    if dz == 0:
                        dz = 1e-12 + 1e-12j
                    s += 1.0 / dz
            denom = 1.0 - newton * s
            if denom == 0:
                step = newton
            else:
                step = newton / denom
            zs[i] = z - step
            moved = max(moved, abs(step))
        if moved < 1e-14 * (1.0 + max(abs(z) for z in zs)):
            break
    else:
        raise RootsNotConverged(
            f"roots of a degree-{n} factor not converged after {ABERTH_MAXITER} "
            f"Aberth iterations: last step {moved:.3g}"
        )
    # Newton polish
    for i in range(n):
        for _ in range(3):
            pv = horner(cs, zs[i])
            dv = horner(der, zs[i])
            if dv == 0:
                break
            zs[i] -= pv / dv
    return zs


def roots(p):
    """Complex roots with multiplicities, sorted by (real, imag).

    The exact square-free decomposition gives the multiplicities, so they
    are certificates; simple-root iteration per factor gives the locations.
    """
    if p.is_zero():
        raise DomainError("zero polynomial has no root set")
    out = []
    for factor, mult in squarefree_decomposition(p):
        for z in _aberth(factor.to_complex_coeffs()):
            out.append((z, mult))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def clear_point(z):
    """(sr, si, d) for an exact point z = (sr + i si)/d, with d the least
    positive integer that clears both parts."""
    z = as_scalar(z)
    re_, im_ = z.re, z.im
    d = math.lcm(re_.denominator, im_.denominator)
    return re_.numerator * (d // re_.denominator), im_.numerator * (d // im_.denominator), d


def zi_horner(pairs, sr, si, d):
    """sum_k P_k s^k d^(n-k) over Z[i], for the ascending Gaussian-integer
    coefficients P_0..P_n of a nonzero polynomial P and s = sr + i si: the
    homogenized Horner scheme, equal to d^n P(s/d)."""
    (ar, ai), *rest = reversed(pairs)
    dk = 1
    for cr, ci in rest:
        dk *= d
        ar, ai = ar * sr - ai * si + cr * dk, ar * si + ai * sr + ci * dk
    return ar, ai


def zi_taylor(pairs, sr, si, d):
    """Taylor coefficients at s/d, one at a time, of the polynomial P with
    ascending Gaussian-integer coefficients P_0..P_n, s = sr + i si.

    Q(w) = d^n P(w/d) = sum P_k d^(n-k) w^k has Gaussian-integer
    coefficients, and repeated synthetic division by w - s shifts it in
    place to Q(s + t) = sum_j q_j t^j, in Python integers alone. The j-th
    value yielded is q_j = d^(n-j) c_j, with c_j the coefficient of t^j in
    P(s/d + t); pass j costs n - j steps, so a caller that stops early does
    no work for the coefficients it does not read.
    """
    n = len(pairs) - 1
    cr, ci = [0] * (n + 1), [0] * (n + 1)
    dk = 1
    for k in range(n, -1, -1):
        cr[k], ci[k] = pairs[k][0] * dk, pairs[k][1] * dk
        dk *= d
    for j in range(n):
        br, bi = cr[n], ci[n]
        for k in range(n - 1, j - 1, -1):
            br, bi = cr[k] + br * sr - bi * si, ci[k] + br * si + bi * sr
            cr[k], ci[k] = br, bi
        yield br, bi
    yield cr[n], ci[n]


def zi_multiplicity(pairs, sr, si, d):
    """Order of vanishing at s/d of the nonzero polynomial P with ascending
    Gaussian-integer coefficients, s = sr + i si: the number of leading
    zeros among its `zi_taylor` coefficients, read until the first nonzero
    one."""
    m = 0
    for r, i in zi_taylor(pairs, sr, si, d):
        if r or i:
            return m
        m += 1


def multiplicity_at(p, point):
    """Order of vanishing of p at an exact point: `zi_multiplicity` on p
    cleared to Gaussian integers and the point cleared to s/d."""
    if not is_exact(point):
        raise RequiresExactMode(f"multiplicity_at needs an exact point, not {point!r}")
    if p.is_zero():
        raise DomainError("zero polynomial")
    _, (pairs,) = clear_denominators(p)
    return zi_multiplicity(pairs, *clear_point(point))


# -- text grammar, shared with LaurentPoly ------------------------------------

_SPLIT_RE = re.compile(r"(?<!\^)(?=[+-](?![^()]*\)))")
_TERM_RE = re.compile(r"^(?P<sign>[+-]?)(?:\((?P<coef>[^()]*)\)\*?)?(?P<var>z)?(?:\^(?P<exp>-?\d+))?$")


def format_terms(terms):
    """Render {exponent: coefficient} as (c)*z^n terms, highest exponent
    first, joined by +; zero coefficients are left out."""
    parts = []
    for n in sorted(terms, reverse=True):
        c = terms[n]
        if not c:
            continue
        cs = format_scalar(c)
        if n == 0:
            parts.append(f"({cs})")
        elif n == 1:
            parts.append(f"({cs})*z")
        else:
            parts.append(f"({cs})*z^{n}")
    return " + ".join(parts) or "0"


def parse_terms(text, negative=False):
    """{exponent: coefficient} of '+'/'-' separated terms such as (1/2)*z^3,
    z^-2, -z, (3-2i) and 5. The splitter never cuts inside parentheses or
    after '^'; negative exponents are refused unless negative is true."""
    s = text.strip()
    if s in ("0", "(0)"):
        return {}
    terms = {}
    for chunk in _SPLIT_RE.split(s.replace(" ", "")):
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m or (m.group("var") is None and m.group("coef") is None):
            # bare scalar term such as 5, -3/2, 2i
            try:
                val = parse_scalar(chunk)
            except ValueError as e:
                raise ValueError(f"cannot parse term {chunk!r}") from e
            terms[0] = terms.get(0, 0) + val
            continue
        sign = -1 if m.group("sign") == "-" else 1
        coef_txt = m.group("coef")
        val = GaussianRational(1) if coef_txt is None else parse_scalar(coef_txt)
        if m.group("var") is None:
            if m.group("exp") is not None:
                raise ValueError(f"exponent without variable in {chunk!r}")
            n = 0
        else:
            n = int(m.group("exp")) if m.group("exp") is not None else 1
        if n < 0 and not negative:
            raise ValueError(f"negative exponent in polynomial term {chunk!r}")
        terms[n] = terms.get(n, 0) + sign * val
    return terms


def format_poly(p):
    """(c)*z^k terms, highest degree first, joined by +."""
    return format_terms(dict(enumerate(p.coeffs)))


def parse_poly(text):
    """The polynomial written in the grammar of parse_terms."""
    return Polynomial.from_dict(parse_terms(text))
