"""Exact bivariate polynomial arithmetic over the Gaussian rationals.

Polynomials in z1, z2 carry coefficients in Q(i).  There is one exact
polynomial type, ``BiPoly``; a polynomial in z1 alone (a z2-content, a
z2-coefficient, a resultant) is a ``BiPoly`` of z2-degree 0.  All structural
algebra (gcd, square-free splitting, resultants) happens exactly here;
floating point enters only when a polynomial is exported through
:meth:`BiPoly.coeff_matrix`, :meth:`BiPoly.complex_terms` or a float
:meth:`BiPoly.eval` for the numeric stages.

A ``BiPoly`` is stored in the one format its algebra runs on: F / d for a
positive int d and F in (Z[i][z1])[z2], with d and the integers of F sharing
no factor, so equal polynomials are stored alike.  A Gaussian integer is an
(re, im) pair of Python ints, a polynomial in Z[i][z1] is an ascending list
of them with no trailing zero (the empty list is 0), and F is an ascending
z2-list of those with no trailing empty list.  ``GaussRational`` (a pair of
``fractions.Fraction``) is the scalar type at the edges only: parsing,
``coeff``, exact ``eval`` and the read-only ``terms`` view.

Conventions:

* ``terms`` and ``complex_terms`` list the nonzero terms in ascending (a, b)
  order however the polynomial was built, so float sums over them do not
  depend on how an input was written,
* gcds and square-free factors are normalized so the coefficient of the
  lexicographic leading term (ordered by z2-degree, then z1-degree) is 1,
* the Sylvester resultant is taken with respect to z2 and returned as an
  exact polynomial in z1 alone.

Gcds and z2-resultants both come from one subresultant pseudo-remainder
sequence (Collins 1967; Brown & Traub 1971) run on the stored numerators:
the gcd from its last nonzero element, the resultant from its end.  A gcd of
two polynomials in z1 alone runs the same sequence on their swaps, whose
z2-coefficients are constants.  Exact division divides m F by G row by row,
where m is the least positive int multiple of G's lex-leading Gaussian
integer: by Gauss's lemma over Z[i] that quotient is integral when G
divides F.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import zip_longest
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np


class PolyFormatError(ValueError):
    """Raised for malformed polynomial/ideal JSON input."""


class ZeroPolynomialError(ValueError):
    """Raised when an operation requires a nonzero (or nonconstant) input."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


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

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the default slot restore
        return (GaussRational, (self.re, self.im))

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
    """Bivariate polynomial over Q(i), stored as F / d (see the module docstring)."""

    # _terms and _complex are filled on first use by terms and complex_terms
    __slots__ = ("_rows", "_den", "_terms", "_complex")

    def __init__(self, terms: Mapping[tuple[int, int], GaussRational] | None = None):
        cs = {}
        for (a, b), c in (terms or {}).items():
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent ({a},{b})")
            c = c if isinstance(c, GaussRational) else GaussRational(c)
            if not c.is_zero:
                cs[(int(a), int(b))] = c
        # the lcm of reduced denominators is already the canonical d
        den = math.lcm(*(x.denominator for c in cs.values() for x in (c.re, c.im)))
        rows = [[] for _ in range(max((b for _, b in cs), default=-1) + 1)]
        for (a, b), c in cs.items():
            row = rows[b]
            row.extend([(0, 0)] * (a + 1 - len(row)))
            row[a] = tuple(x.numerator * (den // x.denominator) for x in (c.re, c.im))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, rows: list, den: int = 1) -> "BiPoly":
        """rows / den in canonical form; takes rows over (trailing empty rows go)."""
        while rows and not rows[-1]:
            rows.pop()
        g = 1 if den == 1 else math.gcd(den, *(x for row in rows for c in row for x in c))
        if den < 0:
            g = -g
        if g != 1:
            rows = [[(re // g, im // g) for re, im in row] for row in rows]
            den //= g
        f = object.__new__(cls)
        object.__setattr__(f, "_rows", rows)
        object.__setattr__(f, "_den", den)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable; build a new one")

    def __reduce__(self):
        # copy and pickle rebuild the storage alone; the caches refill on use
        return (BiPoly._make, (self._rows, self._den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls._make([])

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def var(cls, which: int) -> "BiPoly":
        """The polynomial z1 (which=1) or z2 (which=2)."""
        if which not in (1, 2):
            raise ValueError("variable index must be 1 or 2")
        return cls({(2 - which, which - 1): 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._rows

    @property
    def is_constant(self) -> bool:
        return self.deg2 <= 0 and self.deg1 <= 0

    @property
    def deg1(self) -> int:
        """Degree in z1 (-1 for the zero polynomial)."""
        return max((len(row) for row in self._rows), default=0) - 1

    @property
    def deg2(self) -> int:
        """Degree in z2 (-1 for the zero polynomial)."""
        return len(self._rows) - 1

    def coeff(self, a: int, b: int) -> GaussRational:
        return self.terms.get((a, b), GR_ZERO)

    def _items(self) -> list[tuple[int, int, int, int]]:
        # (a, b, re, im) for each nonzero numerator term, ascending in (a, b)
        return sorted(
            (a, b, re, im)
            for b, row in enumerate(self._rows)
            for a, (re, im) in enumerate(row)
            if re or im
        )

    @property
    def terms(self) -> Mapping[tuple[int, int], GaussRational]:
        """Read-only {(a, b): coefficient} for the nonzero terms, ascending in (a, b)."""
        try:
            return self._terms
        except AttributeError:
            d = self._den
            items = self._items()
            view = {(a, b): GaussRational(Fraction(x, d), Fraction(y, d)) for a, b, x, y in items}
            object.__setattr__(self, "_terms", MappingProxyType(view))
            return self._terms

    def degree_sum(self) -> int:
        """Sum of the per-variable degrees, the exponent in the 2^d dilation bound."""
        if self.is_zero:
            raise ZeroPolynomialError("degree of the zero polynomial is undefined")
        return self.deg1 + self.deg2

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, (GaussRational, int, Fraction)):
            return BiPoly.constant(other)
        return other if isinstance(other, BiPoly) else None

    def _plus(self, other, t: int):
        # self + t other for t = 1 or -1, over the lcm of the denominators
        o = BiPoly._coerce(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self._den, o._den)
        s, t = den // self._den, t * (den // o._den)
        rows = self._rows if s == 1 else [[(s * x, s * y) for x, y in row] for row in self._rows]
        pairs = zip_longest(rows, o._rows, fillvalue=[])
        return BiPoly._make([_zadd(u, v, t) for u, v in pairs], den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __neg__(self):
        return BiPoly._make([[(-x, -y) for x, y in row] for row in self._rows], self._den)

    def __mul__(self, other):
        o = BiPoly._coerce(other)
        if o is None:
            return NotImplemented
        rows: list[list] = [[] for _ in range(len(self._rows) + len(o._rows) - 1)]
        for j, u in enumerate(self._rows):
            if u:
                for k, v in enumerate(o._rows, j):
                    if v:
                        rows[k] = _zadd(rows[k], _zmul(u, v))
        return BiPoly._make(rows, self._den * o._den)

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
        o = BiPoly._coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._rows == o._rows

    def __hash__(self):
        return hash((self._den, tuple(map(tuple, self._rows))))

    def deriv(self, which: int) -> "BiPoly":
        """Partial derivative with respect to z1 (which=1) or z2 (which=2)."""
        if which == 1:
            rows = [[(a * x, a * y) for a, (x, y) in enumerate(row)][1:] for row in self._rows]
        elif which == 2:
            rows = [[(b * x, b * y) for x, y in row] for b, row in enumerate(self._rows)][1:]
        else:
            raise ValueError("variable index must be 1 or 2")
        return BiPoly._make(rows, self._den)

    def swap_vars(self) -> "BiPoly":
        rows: list[list] = [[] for _ in range(self.deg1 + 1)]
        for b, row in enumerate(self._rows):
            for a, c in enumerate(row):
                if c != (0, 0):
                    out = rows[a]
                    out.extend([(0, 0)] * (b - len(out)))
                    out.append(c)
        return BiPoly._make(rows, self._den)

    # -- evaluation & numeric export ----------------------------------------

    def eval(self, x1, x2):
        """Evaluate at a point; exact for GaussRational inputs, complex otherwise.

        Horner in z1 along each z2-row, then in z2 over the row values;
        the point solver (decompose._row_stack) takes this order on numpy
        complex arrays, where it agrees to rounding.  The exact path runs
        on the numerators and divides by d once at the end.
        """
        d = self._den
        floats = isinstance(x1, (complex, float)) or isinstance(x2, (complex, float))
        if floats:
            x1, x2, zero = complex(x1), complex(x2), 0j
            rows = [[complex(x / d, y / d) for x, y in row] for row in self._rows]
        else:
            x1, x2 = (GaussRational(x) if isinstance(x, int) else x for x in (x1, x2))
            zero = GR_ZERO
            rows = [[GaussRational(x, y) for x, y in row] for row in self._rows]
        acc = zero
        for row in reversed(rows):
            r = zero
            for c in reversed(row):
                r = r * x1 + c
            acc = acc * x2 + r
        return acc if floats else acc / d

    def complex_terms(self) -> tuple[tuple[int, int, complex], ...]:
        """(a, b, complex(c)) for every term c z1^a z2^b, ascending in (a, b), kept."""
        try:
            return self._complex
        except AttributeError:
            d = self._den
            terms = tuple((a, b, complex(x / d, y / d)) for a, b, x, y in self._items())
            object.__setattr__(self, "_complex", terms)
            return terms

    def coeff_scale(self) -> float:
        """1 + max |c| over the coefficients: the scale a residual of self is judged by."""
        return 1.0 + max((abs(c) for _, _, c in self.complex_terms()), default=0.0)

    def coeff_matrix(self) -> np.ndarray:
        """Complex coefficient array C with C[a, b] multiplying z1^a z2^b."""
        m = np.zeros((max(self.deg1, 0) + 1, max(self.deg2, 0) + 1), dtype=np.complex128)
        d = self._den
        for b, row in enumerate(self._rows):
            m[: len(row), b] = [complex(x / d, y / d) for x, y in row]
        return m

    def z2_coeffs(self) -> list["BiPoly"]:
        """Coefficients as polynomials in z1 alone (z2-degree 0); index = z2 power."""
        return [BiPoly._make([row], self._den) for row in self._rows]

    # -- display -------------------------------------------------------------

    def __repr__(self):
        parts = []
        for (a, b), c in sorted(self.terms.items(), key=lambda t: (-t[0][1], -t[0][0])):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("z1", a), ("z2", b)) if e)
            parts.append(mono if mono and c == GR_ONE else f"{c!r}*{mono}" if mono else repr(c))
        return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# the Gaussian-integer kernel: a Gaussian integer is an (re, im) pair of
# ints, a polynomial in Z[i][z1] an ascending list of them with no trailing
# zero (the empty list is 0), and one in (Z[i][z1])[z2] an ascending z2-list
# of those -- the layout of a BiPoly's numerator
# ---------------------------------------------------------------------------


def _zadd(u: list, v: list, t: int = 1) -> list:
    """u + t v in Z[i][z1] for an int t."""
    out = list(u)
    out.extend([(0, 0)] * (len(v) - len(u)))
    for i, (br, bi) in enumerate(v):
        ar, ai = out[i]
        out[i] = (ar + t * br, ai + t * bi)
    while out and out[-1] == (0, 0):
        out.pop()
    return out


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


def _zdiv_z2(u: list, v: list) -> list:
    """Exact quotient u / v of z2-lists over Z[i][z1]; ExactDivisionError if none."""
    dv = len(v) - 1
    r = list(u)
    q: list[list] = [[]] * max(0, len(u) - dv)
    for k in range(len(u) - 1 - dv, -1, -1):
        if r[k + dv]:
            q[k] = c = _zdiv(r[k + dv], v[-1])
            for i in range(dv):  # the top row cancels exactly
                if v[i]:
                    r[k + i] = _zadd(r[k + i], _zmul(c, v[i]), -1)
    if any(r[:dv]):
        raise ExactDivisionError("not an exact divisor")
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
                r[k + i] = _zadd(r[k + i], _zmul(lr, b[i]), -1)
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


# ---------------------------------------------------------------------------
# exact division; gcd and resultant by one subresultant PRS; square-free
# ---------------------------------------------------------------------------


def lex_monic(f: BiPoly) -> BiPoly:
    """Scale so the lex-leading (z2 first, then z1) coefficient is 1."""
    if f.is_zero:
        return f
    lr, li = f._rows[-1][-1]
    if (lr, li) == (f._den, 0):
        return f
    # (F / d) / (L / d) = F conj(L) / |L|^2
    return BiPoly._make([_zmul(row, [(lr, -li)]) for row in f._rows], lr * lr + li * li)


def exact_div(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact quotient f/g; raises ExactDivisionError if g does not divide f.

    (F / d) / (G / e) = (m e F / G) / (m d): m = |L|^2 / gcd(Re L, Im L) is
    a multiple of G's lex-leading Gaussian integer L, so m F / G is integral.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return BiPoly.zero()
    lr, li = g._rows[-1][-1]
    m = (lr * lr + li * li) // math.gcd(lr, li)
    k = m * g._den
    scaled = [[(k * x, k * y) for x, y in row] for row in f._rows]
    return BiPoly._make(_zdiv_z2(scaled, g._rows), m * f._den)


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


def gcd2(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact gcd in Q(i)[z1, z2], normalized lex-monic (z2 before z1).

    The gcd of the z2-contents times the primitive part of the last nonzero
    element of the subresultant PRS of the primitive parts' numerators.
    When that element is free of z2 (always so for a z2-free argument) the
    primitive parts are coprime.  Two arguments in z1 alone run the PRS on
    their swaps, whose z2-coefficients are constants, with no content split.
    """
    if f.is_zero and g.is_zero:
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    if f.is_zero or g.is_zero:
        return lex_monic(f + g)
    if f.is_constant or g.is_constant:
        return BiPoly.constant(1)
    if f.deg2 == 0 and g.deg2 == 0:
        a, b, _, _ = _subresultant_prs(f.swap_vars()._rows, g.swap_vars()._rows)
        return BiPoly.constant(1) if b else lex_monic(BiPoly._make(a).swap_vars())
    cf, pf = content_pp_z2(f)
    cg, pg = content_pp_z2(g)
    cont = gcd2(cf, cg)
    a, b, _, _ = _subresultant_prs(pf._rows, pg._rows)
    if b:
        return cont
    _, gpp = content_pp_z2(BiPoly._make(a))
    return lex_monic(cont * gpp)


def resultant_z2(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact Sylvester resultant Res_{z2}(f, g), a polynomial in z1 alone.

    Read off the end of the subresultant PRS (Collins 1967; Brown & Traub
    1971): s * lc(B)^deg A / h^(deg A - 1) for the last, z2-free element B.
    The PRS runs on the numerators F and G of f = F / d and g = G / e, and
    the result is divided once by d^(deg2 g) e^(deg2 f).  The actual
    z2-degrees fix the Sylvester matrix, so a z2-free argument c gives
    c^deg of the other, in either order.  Vanishes exactly where f and g
    share a z2-root or both leading z2-coefficients vanish, and identically
    when they share a factor that involves z2.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("resultant with a zero polynomial")
    if f.deg2 < 1 and g.deg2 < 1:
        raise ValueError("resultant needs z2-degree >= 1 in at least one argument")
    a, b, h, s = _subresultant_prs(f._rows, g._rows)
    if not b:
        return BiPoly.zero()
    da = len(a) - 1
    r = _zdiv(_zpow(b[0], da), _zpow(h, da - 1))
    return BiPoly._make([r], s * f._den ** g.deg2 * g._den ** f.deg2)


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
    terms = [{"a": a, "b": b, "re": str(c.re), "im": str(c.im)} for (a, b), c in f.terms.items()]
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
        terms[(a, b)] = terms.get((a, b), GR_ZERO) + c  # BiPoly drops the zeros
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
