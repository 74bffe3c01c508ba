"""Exact bivariate polynomial arithmetic over the Gaussian rationals.

Polynomials in z1, z2 carry coefficients in Q(i), stored as pairs of
``fractions.Fraction``.  All structural algebra (gcd, square-free splitting,
resultants) happens exactly here; floating point enters only when a polynomial
is exported through :meth:`BiPoly.coeff_matrix` or :meth:`UniPoly.to_complex`
for the numeric stages.

Conventions:

* term maps never store zero coefficients,
* gcds and square-free factors are normalized so the coefficient of the
  lexicographic leading term (ordered by z2-degree, then z1-degree) is 1,
* the Sylvester resultant is taken with respect to z2 and returned as an
  exact univariate polynomial in z1.

Bivariate gcds and z2-resultants both come from one subresultant
pseudo-remainder sequence in (Q(i)[z1])[z2] (Collins 1967; Brown & Traub
1971): the gcd from its last nonzero element, the resultant from its end.
Univariate gcds in Q(i)[z1] use the Euclidean algorithm with monic remainders.
"""

from __future__ import annotations

import json
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
    if isinstance(x, int):
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
        return hash((self.re, self.im))

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


class UniPoly:
    """Univariate polynomial over Q(i); coefficient index = power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[GaussRational] = ()):
        cs = [c if isinstance(c, GaussRational) else GaussRational(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> GaussRational:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_constant(self) -> bool:
        return self.degree <= 0

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (GaussRational, int, Fraction)):
            k = other if isinstance(other, GaussRational) else GaussRational(other)
            return UniPoly([c * k for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("UniPoly division by zero")
        q = [GR_ZERO] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.lead
        while len(rem) - 1 >= d and rem:
            while rem and rem[-1].is_zero:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            c = rem[-1] / lc
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
            rem.pop()
        return UniPoly(q), UniPoly(rem)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ExactDivisionError("univariate division left a remainder")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * (GR_ONE / self.lead)

    def deriv(self) -> "UniPoly":
        return UniPoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Horner evaluation; exact for GaussRational x, float for complex x."""
        if isinstance(x, (complex, float)):
            acc = 0j
            for c in reversed(self.coeffs):
                acc = acc * x + complex(c)
            return acc
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_complex(self) -> np.ndarray:
        if self.is_zero:
            return np.zeros(1, dtype=np.complex128)
        return np.array([complex(c) for c in self.coeffs], dtype=np.complex128)

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        parts = [f"{c!r}*x^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero]
        return "UniPoly(" + " + ".join(parts) + ")"


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd in Q(i)[x] by the Euclidean algorithm.

    Every remainder is made monic, which keeps the Fraction sizes of the
    remainder sequence from blowing up.
    """
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r.monic()
    return a.monic() if not a.is_zero else a


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
                out[(a - 1, b)] = c * a
            elif which == 2 and b > 0:
                out[(a, b - 1)] = c * b
        return BiPoly(out)

    def swap_vars(self) -> "BiPoly":
        return BiPoly({(b, a): c for (a, b), c in self.terms.items()})

    # -- evaluation & numeric export ----------------------------------------

    def eval(self, x1, x2):
        """Evaluate at a point; exact for GaussRational inputs, complex otherwise."""
        if isinstance(x1, (complex, float)) or isinstance(x2, (complex, float)):
            cs = [u.eval(complex(x1)) for u in self.z2_coeffs()]
            acc = 0j
            for c in reversed(cs):
                acc = acc * complex(x2) + c
            return acc
        if isinstance(x1, int):
            x1 = GaussRational(x1)
        if isinstance(x2, int):
            x2 = GaussRational(x2)
        cs = [u.eval(x1) for u in self.z2_coeffs()]
        acc = GR_ZERO
        for c in reversed(cs):
            acc = acc * x2 + c
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

    def z2_coeffs(self) -> list[UniPoly]:
        """Coefficients as polynomials in z1; index = z2 power."""
        if self.is_zero:
            return []
        buckets: list[dict[int, GaussRational]] = [dict() for _ in range(self.deg2 + 1)]
        for (a, b), c in self.terms.items():
            buckets[b][a] = c
        out = []
        for bucket in buckets:
            n = max(bucket, default=-1) + 1
            out.append(UniPoly([bucket.get(i, GR_ZERO) for i in range(n)]))
        return out

    @classmethod
    def from_z2_coeffs(cls, cs: Iterable[UniPoly]) -> "BiPoly":
        terms = {}
        for b, u in enumerate(cs):
            for a, c in enumerate(u.coeffs):
                if not c.is_zero:
                    terms[(a, b)] = c
        return cls(terms)

    @classmethod
    def from_unipoly_z1(cls, u: UniPoly) -> "BiPoly":
        return cls({(a, 0): c for a, c in enumerate(u.coeffs) if not c.is_zero})

    def as_unipoly_z1(self) -> UniPoly:
        if self.deg2 > 0:
            raise ValueError("polynomial involves z2")
        n = self.deg1 + 1
        return UniPoly([self.coeff(a, 0) for a in range(max(n, 0))])

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


def content_pp_z2(f: BiPoly) -> tuple[UniPoly, BiPoly]:
    """Split f into (content, primitive part) viewing f in (Q(i)[z1])[z2].

    The content is the monic gcd in Q(i)[z1] of the z2-coefficients; the
    primitive part is the exact quotient.
    """
    if f.is_zero:
        raise ZeroPolynomialError("content of the zero polynomial")
    cs = f.z2_coeffs()
    cont = UniPoly()
    for u in cs:
        cont = unipoly_gcd(cont, u)
        if cont.degree == 0:
            break
    cont = cont.monic()
    if cont.degree == 0:
        return cont, f
    pp = BiPoly.from_z2_coeffs([u.exact_div(cont) for u in cs])
    return cont, pp


def _upow(u: UniPoly, n: int) -> UniPoly:
    out = UniPoly([GR_ONE])
    for _ in range(n):
        out = out * u
    return out


def _prem_z2(a: list[UniPoly], b: list[UniPoly]) -> list[UniPoly]:
    """lc(B)^(deg A - deg B + 1) * A mod B for z2-coefficient lists.

    Every quotient term costs one factor lc(B), even when its coefficient is
    zero: the subresultant divisions need the full power.
    """
    db = len(b) - 1
    lcb = b[-1]
    r = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        lr = r.pop()  # coefficient of z2^(k + db)
        r = [lcb * c for c in r]
        if not lr.is_zero:
            for i in range(db):
                r[k + i] = r[k + i] - lr * b[i]
    while r and r[-1].is_zero:
        r.pop()
    return r


def _subresultant_prs(a: list[UniPoly], b: list[UniPoly]):
    """Subresultant PRS of nonzero z2-coefficient lists (Cohen, GTM 138, 3.3.7).

    Orders the pair so deg A >= deg B, then steps (A, B) <- (B, prem(A, B) /
    (g h^delta)), g <- lc(A), h <- g^delta / h^(delta - 1), every division
    exact in Q(i)[z1], until B is zero or free of z2.  Returns (A, B, h, s):
    the last two elements, the final h, and the sign (-1)^(deg A deg B)
    accumulated over the swap and the steps.
    """
    g = h = UniPoly([GR_ONE])
    s = 1
    if len(a) < len(b):
        a, b = b, a
        s = (-1) ** ((len(a) - 1) * (len(b) - 1))
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        s *= (-1) ** (da * db)
        div = g * _upow(h, delta)
        a, b = b, [c.exact_div(div) for c in _prem_z2(a, b)]
        g = a[-1]
        if delta:
            h = _upow(g, delta).exact_div(_upow(h, delta - 1))
    return a, b, h, s


def gcd2(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact gcd in Q(i)[z1, z2], normalized lex-monic (z2 before z1).

    The gcd of the z2-contents times the primitive part of the last nonzero
    element of the subresultant PRS of the primitive parts.  If that element
    is free of z2 its primitive part is a constant, so z2-free arguments need
    no branch of their own.
    """
    if f.is_zero and g.is_zero:
        raise ZeroPolynomialError("gcd(0, 0) is undefined")
    if f.is_zero or g.is_zero:
        return lex_monic(f + g)
    cf, pf = content_pp_z2(f)
    cg, pg = content_pp_z2(g)
    a, b, _, _ = _subresultant_prs(pf.z2_coeffs(), pg.z2_coeffs())
    _, gpp = content_pp_z2(BiPoly.from_z2_coeffs(b or a))
    return lex_monic(BiPoly.from_unipoly_z1(unipoly_gcd(cf, cg)) * gpp)


def resultant_z2(f: BiPoly, g: BiPoly) -> UniPoly:
    """Exact Sylvester resultant Res_{z2}(f, g) as a polynomial in z1.

    Read off the end of the subresultant PRS (Collins 1967; Brown & Traub
    1971): s * lc(B)^deg A / h^(deg A - 1) for the last, z2-free element B.
    The actual z2-degrees fix the Sylvester matrix, so a z2-free argument c
    gives c^deg of the other, in either order.  Vanishes exactly where f and
    g share a z2-root or both leading z2-coefficients vanish, and identically
    when they share a factor that involves z2.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("resultant with a zero polynomial")
    if f.deg2 < 1 and g.deg2 < 1:
        raise ValueError("resultant needs z2-degree >= 1 in at least one argument")
    a, b, h, s = _subresultant_prs(f.z2_coeffs(), g.z2_coeffs())
    if not b:
        return UniPoly()
    da = len(a) - 1
    return _upow(b[0], da).exact_div(_upow(h, da - 1)) * s


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
        if not isinstance(a, int) or not isinstance(b, int) or a < 0 or b < 0:
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
