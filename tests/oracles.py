"""Shared independent oracles for the test suite.

The monomial-norm oracle integrates the volume moment directly: phases come
out exactly (each |z_i|-circle contributes 2 pi), leaving a two-dimensional
integral over moduli which is estimated by quasi-Monte Carlo rejection on the
unit square.  No Gamma functions are involved anywhere, so agreement with the
closed form is meaningful evidence.

The dilation oracle is the quasi-Monte Carlo mean the density certificate
used before it summed Taylor coefficients: volume-distributed points drawn
through the two conditional Beta marginals of the gauge coordinates.

The circle oracle evaluates f term by term at the points (a e^{it}, b e^{it})
of a fine grid in t, with no Fourier coefficients and no FFT.

``loop_samples`` and ``loop_permutation`` build a closed loop around a
branch point and read the sheet permutation a tracked loop makes: the
monodromy readout the curve split used before the linear trace test, kept
for the tracker tests and as an independent check of the split.

``FractionPoly`` and the ``ref_*`` functions are a frozen reference for the
exact algebra: a polynomial as a {(a, b): GaussRational} dict with
``Fraction`` arithmetic throughout, the layout ``BiPoly`` had before it kept
one numerator over one denominator.  Its gcd and resultant clear
denominators and run their own copy of the subresultant PRS on Gaussian
integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import betaincinv, gamma
from scipy.stats import qmc

from nullsatz.polyalg import ExactDivisionError, GaussRational
from nullsatz.rootfind import TrackError, _nearest_pairing, circle_samples, segment_samples

_CACHE: dict[int, np.ndarray] = {}


def _moduli(n: int, seed: int) -> np.ndarray:
    key = (n, seed)
    if key not in _CACHE:
        _CACHE[key] = qmc.Halton(d=2, seed=seed).random(n)
    return _CACHE[key]


def mc_monomial_norm(p: float, q: float, a: int, b: int,
                     n: int = 1_000_000, seed: int = 12345) -> float:
    """Quasi-Monte Carlo estimate of the squared norm of z1^a z2^b.

    Integrand: (2 pi)^2 * s1^(2a+1) * s2^(2b+1) over {s1^p + s2^q < 1},
    sampled by rejection from the unit square with a Halton sequence.
    """
    s = _moduli(n, seed)
    s1, s2 = s[:, 0], s[:, 1]
    inside = s1**p + s2**q < 1.0
    vals = s1[inside] ** (2 * a + 1) * s2[inside] ** (2 * b + 1)
    return float((2.0 * np.pi) ** 2 * vals.sum() / n)


def qmc_dilation_norm(p, domain, r: float, n: int = 100_000, seed: int = 0) -> float:
    """Quasi-Monte Carlo estimate of ||1 - p(z)/p(rz)|| over the domain.

    In gauge coordinates u = |z1|^p, v = |z2|^q the volume element is a
    Dirichlet(2/p, 2/q, 1) density; the Halton points go through the inverse
    CDFs of its two conditional Beta marginals.  p is a BiPoly.
    """
    u0, u1, th1, th2 = qmc.Halton(d=4, seed=seed).random(n).T
    a1, a2 = 2.0 / domain.p, 2.0 / domain.q
    gu = betaincinv(a1, a2 + 1.0, u0)
    gv = (1.0 - gu) * betaincinv(a2, 1.0, u1)
    z1 = gu ** (1.0 / domain.p) * np.exp(2j * np.pi * th1)
    z2 = gv ** (1.0 / domain.q) * np.exp(2j * np.pi * th2)
    def ev(x1, x2):
        return sum(complex(c) * x1**a * x2**b for (a, b), c in p.terms.items())

    vals = np.abs(1.0 - ev(z1, z2) / ev(r * z1, r * z2)) ** 2
    volume = (2.0 * np.pi) ** 2 * gamma(a1) * gamma(a2) / (domain.p * domain.q * gamma(a1 + a2 + 1.0))
    return float(np.sqrt(volume * vals.mean()))


def circle_modulus_oracle(f, a: complex, b: complex, t: np.ndarray) -> np.ndarray:
    """|f(a e^{it}, b e^{it})| at each t, summed term by term from f.terms."""
    w1, w2 = a * np.exp(1j * t), b * np.exp(1j * t)
    return np.abs(sum(complex(c) * w1**j * w2**k for (j, k), c in f.terms.items()))


def circle_min_oracle(f, a: complex, b: complex, n: int = 1 << 16) -> float:
    """min over the n-point grid t = 2 pi m / n of |f(a e^{it}, b e^{it})|."""
    return float(circle_modulus_oracle(f, a, b, 2.0 * np.pi * np.arange(n) / n).min())


def loop_samples(base: complex, center: complex, radius: float, n_circle: int = 64,
                 n_leg: int = 24) -> np.ndarray:
    """Base -> circle entry -> full circle -> back to base (a loop bouquet petal).

    The entry point is the circle point nearest the base along the ray from
    the center, so the legs stay radial and never cross the circle.
    """
    v = base - center
    if abs(v) <= radius:
        raise ValueError("base point must lie outside the loop circle")
    entry = center + radius * v / abs(v)
    ang = float(np.angle(entry - center))
    leg_in = segment_samples(base, entry, n_leg)
    circ = circle_samples(center, radius, n_circle, start_angle=ang)
    leg_out = segment_samples(entry, base, n_leg)
    return np.concatenate([leg_in, circ[1:], leg_out[1:]])


def loop_permutation(tp) -> tuple[int, ...]:
    """perm[i] = index of the start root the i-th sheet of a tracked loop lands on.

    Raises ValueError unless the path closes up (last sample == first), and
    TrackError when the end fiber does not pair one to one with the start.
    """
    if abs(tp.samples[-1] - tp.samples[0]) > 1e-12:
        raise ValueError("path is not a closed loop")
    cols = _nearest_pairing(np.abs(tp.end[:, None] - tp.start[None, :]))
    if cols is None:
        raise TrackError("the loop's end fiber does not pair one to one with its start")
    return tuple(cols.tolist())


# ---------------------------------------------------------------------------
# frozen Fraction-pair reference for the exact algebra
# ---------------------------------------------------------------------------

GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)


class FractionPoly:
    """{(a, b): GaussRational} with no zero entries; Fraction arithmetic only."""

    def __init__(self, terms=None):
        self.terms = {}
        for (a, b), c in (terms or {}).items():
            c = c if isinstance(c, GaussRational) else GaussRational(c)
            if not c.is_zero:
                self.terms[(a, b)] = c

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        return all(k == (0, 0) for k in self.terms)

    @property
    def deg1(self):
        return max((a for a, _ in self.terms), default=-1)

    @property
    def deg2(self):
        return max((b for _, b in self.terms), default=-1)

    @staticmethod
    def _lift(other):
        if isinstance(other, FractionPoly):
            return other
        return FractionPoly.constant(other)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in self._lift(other).terms.items():
            s = out.get(k, GR_ZERO) + c
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in self._lift(other).terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, GR_ZERO) + c1 * c2
                if s.is_zero:
                    out.pop(k, None)
                else:
                    out[k] = s
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = FractionPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def deriv(self, which):
        out = {}
        for (a, b), c in self.terms.items():
            if which == 1 and a > 0:
                out[(a - 1, b)] = GaussRational(c.re * a, c.im * a)
            elif which == 2 and b > 0:
                out[(a, b - 1)] = GaussRational(c.re * b, c.im * b)
        return FractionPoly(out)

    def swap_vars(self):
        return FractionPoly({(b, a): c for (a, b), c in self.terms.items()})

    def _z2_rows(self):
        rows = [{} for _ in range(self.deg2 + 1)]
        for (a, b), c in self.terms.items():
            rows[b][a] = c
        return rows

    def z2_coeffs(self):
        return [FractionPoly({(a, 0): c for a, c in row.items()}) for row in self._z2_rows()]

    def eval(self, x1, x2):
        """Float Horner in z1 along each z2-row, then in z2 over the rows."""
        x1, x2 = complex(x1), complex(x2)
        acc = 0j
        for row in reversed(self._z2_rows()):
            r = 0j
            for a in range(max(row, default=-1), -1, -1):
                r = r * x1 + complex(row.get(a, GR_ZERO))
            acc = acc * x2 + r
        return acc

    def coeff_matrix(self):
        m = np.zeros((max(self.deg1, 0) + 1, max(self.deg2, 0) + 1), dtype=np.complex128)
        for (a, b), c in self.terms.items():
            m[a, b] = complex(c)
        return m


def _lex_lead(f):
    return max(f.terms, key=lambda t: (t[1], t[0]))


def ref_lex_monic(f):
    if f.is_zero:
        return f
    lead = f.terms[_lex_lead(f)]
    return f if lead == GR_ONE else f * (GR_ONE / lead)


def ref_exact_div(f, g):
    """Lex-order division term by term; ExactDivisionError on a remainder."""
    if f.is_zero:
        return FractionPoly()
    ga, gb = _lex_lead(g)
    gc = g.terms[(ga, gb)]
    rem = dict(f.terms)
    quot = {}
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
    return FractionPoly(quot)


def ref_content_pp_z2(f):
    cs = f.z2_coeffs()
    cont = min((u for u in cs if not u.is_zero), key=lambda u: u.deg1)
    for u in cs:
        if cont.deg1 == 0:
            break
        if u is not cont:
            cont = ref_gcd2(cont, u)
    cont = ref_lex_monic(cont)
    if cont.deg1 == 0:
        return cont, f
    return cont, ref_exact_div(f, cont)


def _zi_z2(f):
    # (D f as a z2-list over Z[i][z1], D) for the lcm D of f's denominators
    d = math.lcm(*(x.denominator for c in f.terms.values() for x in (c.re, c.im)))
    rows = [[] for _ in range(f.deg2 + 1)]
    for (a, b), c in f.terms.items():
        row = rows[b]
        row.extend([(0, 0)] * (a + 1 - len(row)))
        row[a] = (c.re.numerator * (d // c.re.denominator),
                  c.im.numerator * (d // c.im.denominator))
    return rows, d


def _from_zi_z2(rows):
    return FractionPoly(
        {(a, b): GaussRational(re, im)
         for b, row in enumerate(rows) for a, (re, im) in enumerate(row)}
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


def _zpow(u, n):
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


def _subresultant_prs(a, b):
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


def ref_gcd2(f, g):
    if f.is_zero or g.is_zero:
        return ref_lex_monic(f + g)
    if f.is_constant or g.is_constant:
        return FractionPoly.constant(1)
    if f.deg2 == 0 and g.deg2 == 0:
        a, b, _, _ = _subresultant_prs(_zi_z2(f.swap_vars())[0], _zi_z2(g.swap_vars())[0])
        return FractionPoly.constant(1) if b else ref_lex_monic(_from_zi_z2(a).swap_vars())
    cf, pf = ref_content_pp_z2(f)
    cg, pg = ref_content_pp_z2(g)
    cont = ref_gcd2(cf, cg)
    a, b, _, _ = _subresultant_prs(_zi_z2(pf)[0], _zi_z2(pg)[0])
    if b:
        return cont
    _, gpp = ref_content_pp_z2(_from_zi_z2(a))
    return ref_lex_monic(cont * gpp)


def ref_resultant_z2(f, g):
    fz, df = _zi_z2(f)
    gz, dg = _zi_z2(g)
    a, b, h, s = _subresultant_prs(fz, gz)
    if not b:
        return FractionPoly()
    da = len(a) - 1
    r = _zdiv(_zpow(b[0], da), _zpow(h, da - 1))
    d = s * df ** g.deg2 * dg ** f.deg2
    return FractionPoly(
        {(k, 0): GaussRational(Fraction(re, d), Fraction(im, d)) for k, (re, im) in enumerate(r)}
    )
