"""Exact bivariate polynomial arithmetic over the Gaussian rationals.

Polynomials in z1, z2 carry coefficients in Q(i), stored as pairs of
``fractions.Fraction``.  There is one exact polynomial type, ``BiPoly``; a
polynomial in z1 alone (a z2-content, a z2-coefficient, a resultant) is a
``BiPoly`` of z2-degree 0.  All structural algebra (gcd, square-free
splitting, resultants) happens exactly here; floating point enters only
when a polynomial is exported through :meth:`BiPoly.coeff_matrix` for the
numeric stages.

Conventions:

* term maps never store zero coefficients,
* gcds and square-free factors are normalized so the coefficient of the
  lexicographic leading term (ordered by z2-degree, then z1-degree) is 1,
* the Sylvester resultant is taken with respect to z2 and returned as an
  exact polynomial in z1 alone.

Gcds and z2-resultants both come from one subresultant pseudo-remainder
sequence (Collins 1967; Brown & Traub 1971): the gcd from its last nonzero
element, the resultant from its end.  A gcd of two polynomials in z1 alone
runs the same sequence on their swaps, whose z2-coefficients are constants.
The sequence runs on Gaussian integers: gcd2 and resultant_z2 multiply each
argument by the lcm of its coefficient denominators once, run it in
(Z[i][z1])[z2] on pairs of Python ints, and convert the one element they
need back to Q(i).  ``GaussRational`` and ``BiPoly`` store ``Fraction``
pairs, and everything else (exact division, contents, evaluation) runs on
them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np


class PolyFormatError(ValueError):
    """Raised for malformed polynomial/ideal JSON input."""


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero (or nonconstant) input."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


_RatLike = "int | Fraction | str"


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):  # JSON true loads as True
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyFormatError(f"cannot parse rational {x!r}: {exc}") from None
    raise PolyFormatError(f"expected int or rational string, got {type(x).__name__}")


class GaussRational:
    """An element of Q(i): exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|c|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.abs2()
        if not n:
            raise ZeroDivisionError("division by zero GaussRational")
        return GaussRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value equals its int or Fraction, so it must hash like one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"

    @classmethod
    def parse(cls, re, im=0) -> "GaussRational":
        """Build from strings/ints; decimal strings convert exactly."""
        return cls(_to_fraction(re), _to_fraction(im))


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)


class BiPoly:
    """Bivariate polynomial over Q(i), stored as {(a, b): coeff} with no zeros."""

    # _complex is filled on first use by complex_terms
    __slots__ = ("terms", "_complex")

    def __init__(self, terms: Mapping[tuple[int, int], GaussRational] | None = None):
        clean = {}
        if terms:
            for (a, b), c in terms.items():
                if not isinstance(c, GaussRational):
                    c = GaussRational(c)
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent ({a},{b})")
                if not c.is_zero:
                    clean[(int(a), int(b))] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable; build a new one")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls({(0, 0): c if isinstance(c, GaussRational) else GaussRational(c)})

    @classmethod
    def var(cls, which: int) -> "BiPoly":
        """The polynomial z1 (which=1) or z2 (which=2)."""
        if which == 1:
            return cls({(1, 0): GR_ONE})
        if which == 2:
            return cls({(0, 1): GR_ONE})
        raise ValueError("variable index must be 1 or 2")

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    @property
    def deg1(self) -> int:
        """Degree in z1 (-1 for the zero polynomial)."""
        return max((a for a, _ in self.terms), default=-1)

    @property
    def deg2(self) -> int:
        """Degree in z2 (-1 for the zero polynomial)."""
        return max((b for _, b in self.terms), default=-1)

    def coeff(self, a: int, b: int) -> GaussRational:
        return self.terms.get((a, b), GR_ZERO)

    def degree_sum(self) -> int:
        """Sum of the per-variable degrees, the exponent in the 2^d dilation bound."""
        if self.is_zero:
            raise ZeroPolynomialError("degree of the zero polynomial is undefined")
        return self.deg1 + self.deg2

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (GaussRational, int, Fraction)):
            other = BiPoly.constant(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, GR_ZERO) + c
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (GaussRational, int, Fraction)):
            other = BiPoly.constant(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (GaussRational, int, Fraction)):
            k = other if isinstance(other, GaussRational) else GaussRational(other)
            return BiPoly({e: c * k for e, c in self.terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], GaussRational] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, GR_ZERO) + c1 * c2
                if s.is_zero:
                    out.pop(k, None)
                else:
                    out[k] = s
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = BiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = BiPoly.constant(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def deriv(self, which: int) -> "BiPoly":
        """Partial derivative with respect to z1 (which=1) or z2 (which=2)."""
        out = {}
        for (a, b), c in self.terms.items():
            if which == 1 and a > 0:
                out[(a - 1, b)] = GaussRational(c.re * a, c.im * a)
            elif which == 2 and b > 0:
                out[(a, b - 1)] = GaussRational(c.re * b, c.im * b)
        return BiPoly(out)

    def swap_vars(self) -> "BiPoly":
        return BiPoly({(b, a): c for (a, b), c in self.terms.items()})

    # -- evaluation & numeric export ----------------------------------------

    def eval(self, x1, x2):
        """Evaluate at a point; exact for GaussRational inputs, complex otherwise.

        Horner in z1 along each z2-row, then in z2 over the row values;
        decompose._eval_stack repeats this order on floats bit for bit.
        """
        floats = isinstance(x1, (complex, float)) or isinstance(x2, (complex, float))
        if floats:
            x1, x2 = complex(x1), complex(x2)
        else:
            if isinstance(x1, int):
                x1 = GaussRational(x1)
            if isinstance(x2, int):
                x2 = GaussRational(x2)
        zero = 0j if floats else GR_ZERO
        acc = zero
        for row in reversed(self._z2_rows()):
            r = zero
            for a in range(max(row, default=-1), -1, -1):
                c = row.get(a, GR_ZERO)
                r = r * x1 + (complex(c) if floats else c)
            acc = acc * x2 + r
        return acc

    def complex_terms(self) -> tuple[tuple[int, int, complex], ...]:
        """(a, b, complex(c)) for every term c z1^a z2^b, converted once and kept."""
        try:
            return self._complex
        except AttributeError:
            terms = tuple((a, b, complex(c)) for (a, b), c in self.terms.items())
            object.__setattr__(self, "_complex", terms)
            return terms

    def coeff_matrix(self) -> np.ndarray:
        """Complex coefficient array C with C[a, b] multiplying z1^a z2^b."""
        m = np.zeros((max(self.deg1, 0) + 1, max(self.deg2, 0) + 1), dtype=np.complex128)
        for (a, b), c in self.terms.items():
            m[a, b] = complex(c)
        return m

    def _z2_rows(self) -> list[dict[int, GaussRational]]:
        # {z1 power: coefficient} for each z2 power
        rows: list[dict[int, GaussRational]] = [{} for _ in range(self.deg2 + 1)]
        for (a, b), c in self.terms.items():
            rows[b][a] = c
        return rows

    def z2_coeffs(self) -> list["BiPoly"]:
        """Coefficients as polynomials in z1 alone (z2-degree 0); index = z2 power."""
        return [BiPoly({(a, 0): c for a, c in row.items()}) for row in self._z2_rows()]

    # -- display -------------------------------------------------------------

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms, key=lambda t: (-t[1], -t[0])):
            c = self.terms[(a, b)]
            mono = "*".join(
                s
                for s in (
                    f"z1^{a}" if a > 1 else ("z1" if a == 1 else ""),
                    f"z2^{b}" if b > 1 else ("z2" if b == 1 else ""),
                )
                if s
            )
            if not mono:
                parts.append(repr(c))
            elif c == GR_ONE:
                parts.append(mono)
            else:
                parts.append(f"{c!r}*{mono}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# exact division; gcd and resultant by one subresultant PRS; square-free
# ---------------------------------------------------------------------------


def _lex_lead(f: BiPoly) -> tuple[int, int]:
    # leading term under lex order with z2 before z1
    return max(f.terms, key=lambda t: (t[1], t[0]))


def lex_monic(f: BiPoly) -> BiPoly:
    """Scale so the lex-leading (z2 first, then z1) coefficient is 1."""
    if f.is_zero:
        return f
    lead = f.terms[_lex_lead(f)]
    if lead == GR_ONE:
        return f
    return f * (GR_ONE / lead)


def exact_div(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact quotient f/g; raises ExactDivisionError if g does not divide f."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return BiPoly.zero()
    ga, gb = _lex_lead(g)
    gc = g.terms[(ga, gb)]
    rem = dict(f.terms)
    quot: dict[tuple[int, int], GaussRational] = {}
    while rem:
        a, b = max(rem, key=lambda t: (t[1], t[0]))
        if a < ga or b < gb:
            raise ExactDivisionError("not an exact divisor")
        qe = (a - ga, b - gb)
        qc = rem[(a, b)] / gc
        quot[qe] = quot.get(qe, GR_ZERO) + qc
        for (ea, eb), c in g.terms.items():
            k = (qe[0] + ea, qe[1] + eb)
            s = rem.get(k, GR_ZERO) - qc * c
            if s.is_zero:
                rem.pop(k, None)
            else:
                rem[k] = s
    return BiPoly(quot)


def divides(g: BiPoly, f: BiPoly) -> bool:
    try:
        exact_div(f, g)
        return True
    except ExactDivisionError:
        return False


def content_pp_z2(f: BiPoly) -> tuple[BiPoly, BiPoly]:
    """Split f into (content, primitive part) viewing f in (Q(i)[z1])[z2].

    The content is the monic gcd of the z2-coefficients, a polynomial in z1
    alone taken from the lowest-degree coefficient on; the primitive part is
    the exact quotient f / content.
    """
    if f.is_zero:
        raise ZeroPolynomialError("content of the zero polynomial")
    cs = f.z2_coeffs()
    cont = min((u for u in cs if not u.is_zero), key=lambda u: u.deg1)
    for u in cs:
        if cont.deg1 == 0:
            break
        if u is not cont:
            cont = gcd2(cont, u)
    cont = lex_monic(cont)
    if cont.deg1 == 0:
        return cont, f
    return cont, exact_div(f, cont)


# The Gaussian-integer kernel.  A Gaussian integer is an (re, im) pair of
# ints.  A polynomial in Z[i][z1] is an ascending list of them with no
# trailing zero (the empty list is 0), and one in (Z[i][z1])[z2] is an
# ascending list of those.


def _lcm_denominators(cs: Iterable[GaussRational]) -> int:
    return math.lcm(*(x.denominator for c in cs for x in (c.re, c.im)))


def _zi(c: GaussRational, d: int) -> tuple[int, int]:
    # d * c, for a common multiple d of the denominators of c
    return (c.re.numerator * (d // c.re.denominator), c.im.numerator * (d // c.im.denominator))


def _zi_z2(f: BiPoly) -> tuple[list, int]:
    """(D f as a z2-list over Z[i][z1], D) for the lcm D of f's denominators."""
    d = _lcm_denominators(f.terms.values())
    rows: list[list[tuple[int, int]]] = [[] for _ in range(f.deg2 + 1)]
    for (a, b), c in f.terms.items():
        row = rows[b]
        if len(row) <= a:
            row.extend([(0, 0)] * (a + 1 - len(row)))
        row[a] = _zi(c, d)
    return rows, d


def _from_zi_z2(rows: list) -> BiPoly:
    return BiPoly(
        {
            (a, b): GaussRational(re, im)
            for b, row in enumerate(rows)
            for a, (re, im) in enumerate(row)
            if re or im
        }
    )


def _zmul(u: list, v: list) -> list:
    if not u or not v:
        return []
    n = len(u) + len(v) - 1
    re, im = [0] * n, [0] * n
    for i, (ar, ai) in enumerate(u):
        if ar or ai:
            for j, (br, bi) in enumerate(v, i):
                re[j] += ar * br - ai * bi
                im[j] += ar * bi + ai * br
    return list(zip(re, im))  # Z[i] has no zero divisors: the lead is nonzero


def _zsub(u: list, v: list) -> list:
    out = list(u)
    out.extend([(0, 0)] * (len(v) - len(u)))
    for i, (br, bi) in enumerate(v):
        ar, ai = out[i]
        out[i] = (ar - br, ai - bi)
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def _zpow(u: list, n: int) -> list:
    out = [(1, 0)]
    for _ in range(n):
        out = _zmul(out, u)
    return out


def _zdiv(u: list, v: list) -> list:
    """Exact quotient u / v in Z[i][z1], by the leading coefficient of v.

    Raises ExactDivisionError when a Gaussian quotient is inexact or a
    remainder is left.
    """
    if v == [(1, 0)]:
        return u
    dv = len(v) - 1
    cr, ci = v[-1]
    norm = cr * cr + ci * ci
    re = [x for x, _ in u]
    im = [y for _, y in u]
    low = v[:dv]
    q = [(0, 0)] * max(0, len(u) - dv)
    for k in range(len(u) - 1 - dv, -1, -1):
        xr, xi = re[k + dv], im[k + dv]
        if not (xr or xi):
            continue
        if ci:  # x / c = x conj(c) / |c|^2
            xr, xi, d = xr * cr + xi * ci, xi * cr - xr * ci, norm
        else:
            d = cr
        qr, rr = divmod(xr, d)
        qi, ri = divmod(xi, d)
        if rr or ri:
            raise ExactDivisionError("Gaussian-integer division left a remainder")
        q[k] = (qr, qi)
        for i, (br, bi) in enumerate(low):  # the top term cancels exactly
            re[k + i] -= qr * br - qi * bi
            im[k + i] -= qr * bi + qi * br
    if any(re[:dv]) or any(im[:dv]):
        raise ExactDivisionError("Gaussian-integer division left a remainder")
    return q


def _zprem(a: list, b: list) -> list:
    """lc(B)^(deg A - deg B + 1) * A mod B for z2-lists over Z[i][z1].

    Every quotient term costs one factor lc(B), even when its coefficient is
    zero: the subresultant divisions need the full power.
    """
    db = len(b) - 1
    lcb = b[-1]
    r = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        lr = r.pop()  # coefficient of z2^(k + db)
        r = [_zmul(lcb, c) for c in r]
        if lr:
            for i in range(db):
                r[k + i] = _zsub(r[k + i], _zmul(lr, b[i]))
    while r and not r[-1]:
        r.pop()
    return r


def _subresultant_prs(a: list, b: list):
    """Subresultant PRS of nonzero z2-lists over Z[i][z1] (Cohen, GTM 138, 3.3.7).

    Orders the pair so deg A >= deg B, then steps (A, B) <- (B, prem(A, B) /
    (g h^delta)), g <- lc(A), h <- g^delta / h^(delta - 1), every division
    exact in Z[i][z1], until B is zero or free of z2.  Returns (A, B, h, s):
    the last two elements, the final h, and the sign (-1)^(deg A deg B)
    accumulated over the swap and the steps.
    """
    g = h = [(1, 0)]
    s = 1
    if len(a) < len(b):
        a, b = b, a
        s = (-1) ** ((len(a) - 1) * (len(b) - 1))
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        s *= (-1) ** (da * db)
        div = _zmul(g, _zpow(h, delta))
        a, b = b, [_zdiv(c, div) for c in _zprem(a, b)]
        g = a[-1]
        if delta:
            h = _zdiv(_zpow(g, delta), _zpow(h, delta - 1))
    return a, b, h, s


def gcd2(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact gcd in Q(i)[z1, z2], normalized lex-monic (z2 before z1).

    The gcd of the z2-contents times the primitive part of the last nonzero
    element of the subresultant PRS of the primitive parts, run on Z[i] after
    each part is cleared of denominators.  When that element is free of z2
    (always so for a z2-free argument) the primitive parts are coprime.  Two
    arguments in z1 alone run the PRS on their swaps, whose z2-coefficients
    are constants, with no content split.
    """
    if f.is_zero and g.is_zero:
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    if f.is_zero or g.is_zero:
        return lex_monic(f + g)
    if f.is_constant or g.is_constant:
        return BiPoly.constant(1)
    if f.deg2 == 0 and g.deg2 == 0:
        a, b, _, _ = _subresultant_prs(_zi_z2(f.swap_vars())[0], _zi_z2(g.swap_vars())[0])
        return BiPoly.constant(1) if b else lex_monic(_from_zi_z2(a).swap_vars())
    cf, pf = content_pp_z2(f)
    cg, pg = content_pp_z2(g)
    cont = gcd2(cf, cg)
    a, b, _, _ = _subresultant_prs(_zi_z2(pf)[0], _zi_z2(pg)[0])
    if b:
        return cont
    _, gpp = content_pp_z2(_from_zi_z2(a))
    return lex_monic(cont * gpp)


def resultant_z2(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact Sylvester resultant Res_{z2}(f, g), a polynomial in z1 alone.

    Read off the end of the subresultant PRS (Collins 1967; Brown & Traub
    1971): s * lc(B)^deg A / h^(deg A - 1) for the last, z2-free element B.
    The PRS runs on D_f f and D_g g, cleared of denominators, and the result
    is divided once by D_f^(deg2 g) D_g^(deg2 f).  The actual z2-degrees fix
    the Sylvester matrix, so a z2-free argument c gives c^deg of the other,
    in either order.  Vanishes exactly where f and g share a z2-root or both
    leading z2-coefficients vanish, and identically when they share a factor
    that involves z2.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("resultant with a zero polynomial")
    if f.deg2 < 1 and g.deg2 < 1:
        raise ValueError("resultant needs z2-degree >= 1 in at least one argument")
    fz, df = _zi_z2(f)
    gz, dg = _zi_z2(g)
    a, b, h, s = _subresultant_prs(fz, gz)
    if not b:
        return BiPoly.zero()
    da = len(a) - 1
    r = _zdiv(_zpow(b[0], da), _zpow(h, da - 1))
    d = s * df ** g.deg2 * dg ** f.deg2
    return BiPoly(
        {
            (k, 0): GaussRational(Fraction(re, d), Fraction(im, d))
            for k, (re, im) in enumerate(r)
            if re or im
        }
    )


def gcd_many(polys: Iterable[BiPoly]) -> BiPoly:
    """Iterated gcd of a nonempty collection (zero entries are ignored)."""
    acc = BiPoly.zero()
    for p in polys:
        if p.is_zero:
            continue
        acc = p if acc.is_zero else gcd2(acc, p)
        if acc.is_constant and not acc.is_zero:
            return BiPoly.constant(1)
    if acc.is_zero:
        raise ZeroPolynomialError("gcd of all-zero collection")
    return lex_monic(acc)


def squarefree(f: BiPoly) -> list[tuple[BiPoly, int]]:
    """Square-free decomposition: list of (factor, multiplicity).

    The product of factor^multiplicity equals f up to a nonzero constant;
    factors are pairwise coprime, square-free, and lex-monic.
    """
    if f.is_zero or f.is_constant:
        raise ZeroPolynomialError("square-free decomposition needs a nonconstant input")
    c = gcd2(f, f.deriv(1))
    c = gcd2(c, f.deriv(2))
    w = exact_div(f, c)  # radical of f, up to a constant
    out: list[tuple[BiPoly, int]] = []
    i = 1
    while not w.is_constant:
        y = gcd2(w, c)
        a = exact_div(w, y)
        if not a.is_constant:
            out.append((lex_monic(a), i))
        w = y
        if not c.is_constant:
            c = exact_div(c, y)
        i += 1
    return out


# ---------------------------------------------------------------------------
# JSON text format
# ---------------------------------------------------------------------------

VARS = ["z1", "z2"]


def poly_to_json(f: BiPoly) -> dict:
    """Lossless JSON form: coefficients as exact rational strings."""
    terms = []
    for (a, b) in sorted(f.terms):
        c = f.terms[(a, b)]
        terms.append({"a": a, "b": b, "re": str(c.re), "im": str(c.im)})
    return {"vars": list(VARS), "terms": terms}


def poly_from_json(obj) -> BiPoly:
    """Parse the shared polynomial text format; decimal strings convert exactly."""
    if not isinstance(obj, dict):
        raise PolyFormatError("polynomial must be a JSON object")
    vars_ = obj.get("vars", VARS)
    if vars_ != VARS:
        raise PolyFormatError(f"unsupported variable list {vars_!r}; expected {VARS}")
    raw = obj.get("terms")
    if not isinstance(raw, list):
        raise PolyFormatError('polynomial object needs a "terms" list')
    terms: dict[tuple[int, int], GaussRational] = {}
    for idx, t in enumerate(raw):
        if not isinstance(t, dict):
            raise PolyFormatError(f"term #{idx} is not an object: {t!r}")
        try:
            a, b = t["a"], t["b"]
        except KeyError as exc:
            raise PolyFormatError(f"term #{idx} is missing exponent {exc}") from None
        # JSON true/false load as bool, which is an int subclass
        if not all(type(e) is int and e >= 0 for e in (a, b)):
            raise PolyFormatError(f"term #{idx} has bad exponents a={a!r} b={b!r}")
        if isinstance(t.get("re"), float) or isinstance(t.get("im"), float):
            raise PolyFormatError(
                f"term #{idx}: float coefficients are not exact; "
                'pass strings like "3/4" or "0.25"'
            )
        try:
            c = GaussRational.parse(t.get("re", 0), t.get("im", 0))
        except PolyFormatError as exc:
            raise PolyFormatError(f"term #{idx}: {exc}") from None
        key = (a, b)
        prev = terms.get(key, GR_ZERO) + c
        if prev.is_zero:
            terms.pop(key, None)
        else:
            terms[key] = prev
    return BiPoly(terms)


def ideal_from_json(obj) -> list[BiPoly]:
    """Parse an ideal file: {"generators": [poly, ...]} or a bare polynomial."""
    if isinstance(obj, dict) and "generators" in obj:
        gens = obj["generators"]
        if not isinstance(gens, list) or not gens:
            raise PolyFormatError('"generators" must be a nonempty list')
        return [poly_from_json(g) for g in gens]
    return [poly_from_json(obj)]


def load_poly(path: str) -> BiPoly:
    with open(path, "r", encoding="utf-8") as fh:
        return poly_from_json(json.load(fh))


def load_ideal(path: str) -> list[BiPoly]:
    with open(path, "r", encoding="utf-8") as fh:
        return ideal_from_json(json.load(fh))
