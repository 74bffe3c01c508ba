"""Exact polynomial algebra tests.

Hand-computed small cases are frozen inline; randomized cases are
cross-checked against sympy's Gaussian-rational polynomial routines.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from oracles import (
    FractionPoly,
    ref_content_pp_z2,
    ref_exact_div,
    ref_gcd2,
    ref_lex_monic,
    ref_resultant_z2,
)

from nullsatz.polyalg import (
    BiPoly,
    ExactDivisionError,
    GaussRational,
    PolyFormatError,
    ZeroPolynomialError,
    content_pp_z2,
    divides,
    exact_div,
    gcd2,
    gcd_many,
    ideal_from_json,
    lex_monic,
    poly_from_json,
    poly_to_json,
    resultant_z2,
    squarefree,
)
from nullsatz.polyalg import _zdiv, _zmul

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)

_s1, _s2 = sp.symbols("z1 z2")


def to_sympy(f: BiPoly):
    expr = sp.Integer(0)
    for (a, b), c in f.terms.items():
        coeff = sp.Rational(c.re.numerator, c.re.denominator) + sp.I * sp.Rational(
            c.im.numerator, c.im.denominator
        )
        expr += coeff * _s1**a * _s2**b
    return sp.expand(expr)


def from_sympy(expr) -> BiPoly:
    poly = sp.Poly(sp.expand(expr), _s1, _s2, domain="QQ_I")
    terms = {}
    for (a, b), coeff in poly.terms():
        num = sp.nsimplify(coeff)
        re, im = num.as_real_imag()
        terms[(a, b)] = GaussRational(
            Fraction(int(sp.numer(re)), int(sp.denom(re))),
            Fraction(int(sp.numer(im)), int(sp.denom(im))),
        )
    return BiPoly(terms)


def sympy_resultant_z2(f: BiPoly, g: BiPoly) -> BiPoly:
    """Res_{z2}(f, g) from sympy, asked only with deg f >= deg g.

    sympy 1.14's resultant of z2^3 and z2^5 + 3 is -27, and so is that of
    z2^5 + 3 and z2^3, while the Sylvester determinant of the first pair
    is 27.  The other order goes through Res(f, g) =
    (-1)^(deg f deg g) Res(g, f).
    """
    if f.deg2 < g.deg2:
        return sympy_resultant_z2(g, f) * (-1) ** (f.deg2 * g.deg2)
    return from_sympy(sp.resultant(to_sympy(f), to_sympy(g), _s2))


def random_gauss(rng: random.Random, small=False) -> GaussRational:
    def frac():
        num = rng.randint(-4, 4)
        den = rng.randint(1, 3 if small else 4)
        return Fraction(num, den)

    re = frac()
    im = frac() if rng.random() < 0.4 else Fraction(0)
    return GaussRational(re, im)


def random_bipoly(rng: random.Random, d1=2, d2=2, nonzero=True) -> BiPoly:
    terms = {}
    for a in range(d1 + 1):
        for b in range(d2 + 1):
            if rng.random() < 0.5:
                c = random_gauss(rng)
                if not c.is_zero:
                    terms[(a, b)] = c
    f = BiPoly(terms)
    if nonzero and f.is_zero:
        f = BiPoly({(rng.randint(0, d1), rng.randint(0, d2)): GaussRational(1)})
    return f


# ---------------------------------------------------------------------------
# GaussRational
# ---------------------------------------------------------------------------


class TestGaussRational:
    def test_field_ops(self):
        a = GaussRational(Fraction(1, 2), Fraction(-3, 4))
        b = GaussRational(2, 1)
        assert a + b == GaussRational(Fraction(5, 2), Fraction(1, 4))
        assert a * b == GaussRational(Fraction(7, 4), -1)
        assert (a / b) * b == a
        assert a - a == GaussRational(0)
        assert -a + a == GaussRational(0)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussRational(1) / GaussRational(0)

    def test_parse_decimal_exact(self):
        c = GaussRational.parse("0.125", "-2.5")
        assert c.re == Fraction(1, 8)
        assert c.im == Fraction(-5, 2)
        assert GaussRational.parse("3/7").re == Fraction(3, 7)

    def test_abs2_and_conjugate(self):
        c = GaussRational(Fraction(3, 5), Fraction(4, 5))
        assert c.abs2() == 1
        assert c * c.conjugate() == GaussRational(1)

    def test_complex_export(self):
        assert complex(GaussRational(Fraction(1, 4), 2)) == 0.25 + 2j

    def test_random_field_axioms(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c = (random_gauss(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            if not c.is_zero:
                assert (a * c) / c == a

    def test_hash_agrees_with_equality(self):
        for x in (0, 1, -7, 2**70, Fraction(1, 2), Fraction(-22, 7)):
            g = GaussRational(x)
            assert g == x and hash(g) == hash(x)
            assert x in {g} and g in {x}
            assert {x: "x"}[g] == "x" and {g: "g"}[x] == "g"
        c = GaussRational(Fraction(1, 2), 3)
        assert c in {GaussRational(Fraction(2, 4), 3)}
        assert Fraction(1, 2) not in {c}

    @pytest.mark.parametrize(
        "roundtrip",
        (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))),
        ids=("copy", "deepcopy", "pickle"),
    )
    def test_copy_and_pickle(self, roundtrip):
        for c in (GaussRational(Fraction(-22, 7), Fraction(1, 3)), GaussRational(5), GaussRational(0)):
            d = roundtrip(c)
            assert type(d) is GaussRational and d == c and hash(d) == hash(c)
            assert (d.re, d.im) == (c.re, c.im)
            with pytest.raises(AttributeError):
                d.re = 1


# ---------------------------------------------------------------------------
# polynomials in z1 alone: BiPolys of z2-degree 0
# ---------------------------------------------------------------------------


def z1poly(coeffs) -> BiPoly:
    """The polynomial in z1 alone with ascending coefficients coeffs."""
    return BiPoly({(a, 0): c for a, c in enumerate(coeffs)})


class TestUniPoly:
    """Polynomials in z1 alone are BiPolys of z2-degree 0."""

    def test_gcd_known(self):
        # (x-1)(x-2) and (x-1)(x-3) share x-1
        p = z1poly([2, -3, 1])
        q = z1poly([3, -4, 1])
        g = gcd2(p, q)
        assert g == z1poly([-1, 1]) and g.deg2 == 0
        # degree 13 and 12 with a planted degree-4 common factor: a long
        # remainder sequence with growing coefficients; sympy gives the
        # expected gcd
        rng = random.Random(29)
        h, a, b = (
            z1poly([random_gauss(rng) for _ in range(n)] + [GaussRational(1)])
            for n in (4, 9, 8)
        )
        f, g = h * a, h * b
        assert f.deg1 >= 12 and g.deg1 >= 12
        theirs = sp.gcd(to_sympy(f), to_sympy(g), gaussian=True)
        expected = lex_monic(from_sympy(theirs))
        assert expected.deg1 >= 4
        assert gcd2(f, g) == expected

    def test_gcd_of_coprime_is_one(self):
        p = z1poly([1, 0, 1])  # x^2+1
        q = z1poly([-2, 1])  # x-2
        assert gcd2(p, q) == BiPoly.constant(1)

    def test_eval_matches_numpy(self):
        import numpy as np

        rng = random.Random(7)
        u = z1poly([random_gauss(rng) for _ in range(5)])
        x = 0.3 - 0.7j
        expected = np.polyval(u.coeff_matrix()[::-1, 0], x)
        assert abs(u.eval(x, 0) - expected) < 1e-12

    def test_deriv(self):
        u = z1poly([1, 2, 3])  # 1 + 2x + 3x^2
        assert u.deriv(1) == z1poly([2, 6])
        assert u.deriv(2).is_zero

    def test_deriv_equals_coefficient_times_power(self):
        rng = random.Random(19)
        for n in range(12):
            cs = [random_gauss(rng) for _ in range(n)]
            want = z1poly([c * k for k, c in enumerate(cs)][1:])
            assert z1poly(cs).deriv(1) == want


# ---------------------------------------------------------------------------
# BiPoly ring structure
# ---------------------------------------------------------------------------


class TestBiPoly:
    def test_construction_drops_zeros(self):
        f = BiPoly({(0, 0): GaussRational(0), (1, 1): GaussRational(2)})
        assert (0, 0) not in f.terms
        assert f.coeff(1, 1) == GaussRational(2)

    def test_degrees(self):
        f = Z1 * Z1 * Z2 + Z2 + 1
        assert f.deg1 == 2
        assert f.deg2 == 1
        assert f.degree_sum() == 3

    def test_degree_sum_examples(self):
        assert (Z1 - 1).degree_sum() == 1
        assert ((Z1 - 1) * (Z2 - 1)).degree_sum() == 2
        assert (Z1 * Z2).degree_sum() == 2
        f = (Z2 * Z2 - Z1) * (Z2 + 2)
        assert f.degree_sum() == 4

    def test_ring_axioms_random(self):
        rng = random.Random(31)
        for _ in range(60):
            f, g, h = (random_bipoly(rng) for _ in range(3))
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert f * (g * h) == (f * g) * h

    def test_pow(self):
        f = Z1 + Z2
        assert f**2 == f * f
        assert f**0 == BiPoly.constant(1)

    def test_eval_exact_vs_complex(self):
        rng = random.Random(43)
        for _ in range(40):
            f = random_bipoly(rng)
            x1 = GaussRational(Fraction(1, 3), Fraction(1, 2))
            x2 = GaussRational(Fraction(-2, 5))
            exact = f.eval(x1, x2)
            approx = f.eval(complex(x1), complex(x2))
            assert abs(complex(exact) - approx) < 1e-12

    def test_deriv_product_rule(self):
        rng = random.Random(5)
        for _ in range(30):
            f, g = random_bipoly(rng), random_bipoly(rng)
            for v in (1, 2):
                assert (f * g).deriv(v) == f.deriv(v) * g + f * g.deriv(v)

    def test_deriv_equals_coefficient_times_exponent(self):
        rng = random.Random(23)
        for _ in range(40):
            f = random_bipoly(rng, d1=4, d2=4)
            for v in (1, 2):
                want = BiPoly(
                    {(a - (v == 1), b - (v == 2)): c * (a if v == 1 else b)
                     for (a, b), c in f.terms.items() if (a if v == 1 else b) > 0}
                )
                assert f.deriv(v) == want

    def test_z2_coeffs_roundtrip(self):
        rng = random.Random(17)
        for _ in range(40):
            f = random_bipoly(rng, d1=3, d2=3)
            cs = f.z2_coeffs()
            assert all(u.deg2 <= 0 for u in cs)
            assert sum((u * Z2**b for b, u in enumerate(cs)), BiPoly.zero()) == f

    def test_coeff_matrix(self):
        f = 2 * Z1 * Z2 - 3
        m = f.coeff_matrix()
        assert m.shape == (2, 2)
        assert m[1, 1] == 2
        assert m[0, 0] == -3

    def test_complex_terms_are_converted_once(self):
        f = GaussRational(Fraction(1, 3), Fraction(-2, 7)) * Z1**2 * Z2 + 5 * Z2 - 1
        terms = f.complex_terms()
        assert terms is f.complex_terms()
        assert sorted(terms) == sorted((a, b, complex(c)) for (a, b), c in f.terms.items())
        assert (f * 1).complex_terms() == terms and f * 1 == f
        with pytest.raises(AttributeError):
            f._complex = ()

    def test_swap_vars(self):
        f = Z1**2 * Z2 + 3 * Z2
        assert f.swap_vars() == Z2**2 * Z1 + 3 * Z1

    @pytest.mark.parametrize(
        "roundtrip",
        (copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))),
        ids=("copy", "deepcopy", "pickle"),
    )
    def test_copy_and_pickle(self, roundtrip):
        f = GaussRational(Fraction(1, 3), Fraction(-2, 7)) * Z1**2 * Z2 + 5 * Z2 - Fraction(1, 6)
        for g in (f, BiPoly.zero(), Z1 + Z2):
            h = roundtrip(g)
            assert type(h) is BiPoly and h == g and hash(h) == hash(g)
            assert dict(h.terms) == dict(g.terms)
        f.terms, f.complex_terms()  # fill both caches before the round trip
        h = roundtrip(f)
        assert h == f and hash(h) == hash(f)
        assert dict(h.terms) == dict(f.terms) and h.complex_terms() == f.complex_terms()
        assert h.coeff_matrix().tobytes() == f.coeff_matrix().tobytes()
        assert h * h == f * f
        with pytest.raises(AttributeError):
            h._den = 1


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


class TestExactDiv:
    def test_product_division_random(self):
        rng = random.Random(101)
        for _ in range(60):
            f = random_bipoly(rng)
            g = random_bipoly(rng)
            assert exact_div(f * g, g) == f

    def test_non_divisor_raises(self):
        with pytest.raises(ExactDivisionError):
            exact_div(Z1 * Z2 + 1, Z1 + 1)

    def test_divides_predicate(self):
        assert divides(Z2 - Z1, (Z2 - Z1) * (Z2 + 2))
        assert not divides(Z2 + 1, Z2 - Z1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(Z1, BiPoly.zero())


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def _points_size_pair() -> tuple[BiPoly, BiPoly]:
    """A 4x4 grid ideal pulled back by a shear, one generator rewritten:
    z2-degree 4 and z1-degree 5, the shape of a benchmark points case."""
    G = GaussRational
    beta, gamma = G(Fraction(3, 8), Fraction(-1, 8)), G(Fraction(-1, 4))
    f = g = BiPoly.constant(1)
    for a in (G(Fraction(1, 8)), G(Fraction(-3, 8), Fraction(1, 4)),
              G(0, Fraction(-1, 2)), G(Fraction(5, 8))):
        f = f * (Z1 + beta * Z2 - a)
    for b in (G(Fraction(1, 4)), G(Fraction(-1, 8), Fraction(3, 8)),
              G(Fraction(-5, 8)), G(Fraction(3, 8), Fraction(1, 8))):
        g = g * (gamma * Z1 + Z2 - b)
    f = f + (G(Fraction(1, 2), Fraction(-1, 4)) * Z1 + G(Fraction(3, 4))) * g
    return f, g


# Inputs that exercise the subresultant PRS beyond one-degree-per-step
# remainders: remainders that drop two or more z2-degrees, also by a divisor
# whose leading coefficient is not constant (so every lc(B) power counts), a
# z2-free argument in each position, a shared factor (resultant identically
# zero), and a pair of benchmark size.
PRS_EDGE_PAIRS = [
    (Z2**5 + Z1 * Z2 + 3, Z2**3 + Z1),
    (Z2**4 + Z1 * Z2**2 + 1, Z2**2 + Z1 * Z2 + Z1),
    (Z2**4 + 1, Z1 * Z2**2 + 1),
    ((Z1 + 2) * Z2**5 + Z1 * Z2 + 3, (Z1 - 1) * Z2**3 + Z1),
    ((Z1 - 1) * (Z2**3 + Z1 * Z2 + 2), (Z1 - 1) * (Z1 + 2)),
    ((Z1 - 1) * (Z1 + 2), (Z1 - 1) * (Z2**3 + Z1 * Z2 + 2)),
    ((Z2 - Z1) * (Z2**2 + Z1), (Z2 - Z1) * (Z2 + Z1 + 2)),
    _points_size_pair(),
]


def assert_same_up_to_constant(f: BiPoly, g: BiPoly):
    assert lex_monic(f) == lex_monic(g), f"{f!r} != {g!r} (up to constants)"


class TestGcd2:
    def test_shared_line_factor(self):
        f = (Z2 - Z1) ** 2 * (Z2 + 2)
        g = (Z2 - Z1) * (Z1 - 3)
        assert gcd2(f, g) == Z2 - Z1

    def test_coprime(self):
        assert gcd2(Z2**2 - Z1, Z2 + 2) == BiPoly.constant(1)

    def test_gauss_coefficients(self):
        i = GaussRational(0, 1)
        h = Z2 - i * Z1
        f = h * (Z2 + 2)
        g = h * (Z1 - 5)
        assert_same_up_to_constant(gcd2(f, g), h)

    def test_z2_free_arguments(self):
        f = (Z1 - 1) * (Z1 + 2)
        g = (Z1 - 1) * (Z2 + 1)
        assert gcd2(f, g) == Z1 - 1
        assert gcd2(g, f) == Z1 - 1

    def test_zero_argument(self):
        f = 2 * (Z2 - Z1)
        assert gcd2(f, BiPoly.zero()) == Z2 - Z1
        assert gcd2(BiPoly.zero(), f) == Z2 - Z1
        with pytest.raises(ZeroPolynomialError):
            gcd2(BiPoly.zero(), BiPoly.zero())

    def test_scaling_invariance(self):
        f = (Z2 - Z1) * (Z2 + 2)
        g = (Z2 - Z1) * (Z1 - 3)
        c = GaussRational(Fraction(3, 7), Fraction(-1, 2))
        assert gcd2(f * c, g) == gcd2(f, g)

    def test_random_vs_sympy(self):
        rng = random.Random(211)
        for _ in range(25):
            h = random_bipoly(rng, d1=1, d2=1)
            a = random_bipoly(rng, d1=1, d2=1)
            b = random_bipoly(rng, d1=1, d2=1)
            f, g = h * a, h * b
            ours = gcd2(f, g)
            theirs = from_sympy(sp.gcd(to_sympy(f), to_sympy(g), gaussian=True))
            assert_same_up_to_constant(ours, theirs)
        for f, g in PRS_EDGE_PAIRS:
            theirs = from_sympy(sp.gcd(to_sympy(f), to_sympy(g), gaussian=True))
            assert gcd2(f, g) == lex_monic(theirs)

    def test_gcd_divides_both_random(self):
        rng = random.Random(307)
        for _ in range(40):
            f = random_bipoly(rng)
            g = random_bipoly(rng)
            d = gcd2(f, g)
            assert divides(d, f) and divides(d, g)

    def test_gcd_many(self):
        h = Z2 - Z1
        polys = [h * (Z2 + 2), h * (Z1 - 3), h * h]
        assert gcd_many(polys) == h
        assert gcd_many([Z1, Z2]) == BiPoly.constant(1)


# ---------------------------------------------------------------------------
# square-free decomposition
# ---------------------------------------------------------------------------


class TestSquarefree:
    @staticmethod
    def as_dict(fac):
        return {f: m for f, m in fac}

    def test_cube_times_simple(self):
        p = Z2 - Z1
        q = Z2 + 2
        fac = self.as_dict(squarefree(p**3 * q))
        assert fac == {lex_monic(q): 1, lex_monic(p): 3}

    def test_square_with_content(self):
        f = Z1**2 * (Z2 + 2)
        fac = self.as_dict(squarefree(f))
        assert fac == {lex_monic(Z2 + 2): 1, lex_monic(Z1): 2}

    def test_already_squarefree(self):
        f = (Z2**2 - Z1) * (Z2 + 2)
        fac = squarefree(f)
        assert len(fac) == 1
        g, m = fac[0]
        assert m == 1
        assert_same_up_to_constant(g, f)

    def test_pure_power(self):
        fac = self.as_dict(squarefree((Z2 - Z1) ** 4))
        assert fac == {lex_monic(Z2 - Z1): 4}

    def test_univariate_only_input(self):
        fac = self.as_dict(squarefree(Z1**2 - 1))
        assert fac == {lex_monic(Z1**2 - 1): 1}

    def test_reconstruction_random(self):
        rng = random.Random(401)
        for _ in range(20):
            p = random_bipoly(rng, d1=1, d2=1)
            q = random_bipoly(rng, d1=1, d2=1)
            if p.is_constant or q.is_constant:
                continue
            f = p * p * q
            prod = BiPoly.constant(1)
            for g, m in squarefree(f):
                prod = prod * g**m
            assert_same_up_to_constant(prod, f)

    def test_random_vs_sympy(self):
        rng = random.Random(419)
        for _ in range(15):
            p = random_bipoly(rng, d1=1, d2=1)
            if p.is_constant:
                continue
            f = p**2 * (Z2 + 2)
            ours = sorted(
                (m, lex_monic(g)) for g, m in squarefree(f)
            )
            _, slist = sp.sqf_list(to_sympy(f), gaussian=True)
            theirs = sorted((int(m), lex_monic(from_sympy(g))) for g, m in slist)
            assert [m for m, _ in ours] == [m for m, _ in theirs]
            for (_, a), (_, b) in zip(ours, theirs):
                assert a == b

    def test_constant_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            squarefree(BiPoly.constant(5))


# ---------------------------------------------------------------------------
# resultant
# ---------------------------------------------------------------------------


class TestResultantZ2:
    def test_parabola_and_shift(self):
        r = resultant_z2(Z2**2 - Z1, Z2 + 2)
        assert r == z1poly([4, -1])  # 4 - z1

    def test_crossing_lines(self):
        r = resultant_z2(Z2 - Z1, Z2 + Z1)
        assert r == z1poly([0, 2])  # 2*z1

    def test_z2_free_second_argument(self):
        # Res_{z2}(f, c(z1)) = c(z1)^{deg2 f}
        r = resultant_z2(Z2**2 - Z1, BiPoly.constant(3) + Z1)
        assert r == z1poly([9, 6, 1])  # (z1+3)^2

    def test_random_vs_sympy(self):
        rng = random.Random(509)
        for _ in range(20):
            f = random_bipoly(rng, d1=2, d2=2)
            g = random_bipoly(rng, d1=1, d2=1)
            if f.deg2 < 1 or g.deg2 < 1:
                continue
            ours = resultant_z2(f, g)
            assert ours == sympy_resultant_z2(f, g)
        for pair in PRS_EDGE_PAIRS:
            for f, g in (pair, pair[::-1]):
                ours = resultant_z2(f, g)
                assert ours == sympy_resultant_z2(f, g)

    def test_multiplicative_random(self):
        rng = random.Random(521)
        for _ in range(15):
            f = random_bipoly(rng, d1=1, d2=1)
            g = random_bipoly(rng, d1=1, d2=1)
            h = random_bipoly(rng, d1=1, d2=1)
            if f.deg2 < 1 or g.deg2 < 1 or h.deg2 < 1:
                continue
            lhs = resultant_z2(f * g, h)
            rhs = resultant_z2(f, h) * resultant_z2(g, h)
            assert lhs == rhs

    def test_vanishes_at_common_roots(self):
        # z2^2 = z1 and z2 = 1 meet above z1 = 1
        r = resultant_z2(Z2**2 - Z1, Z2 - 1)
        assert r.eval(GaussRational(1), 0) == GaussRational(0)

    def test_rejects_two_z2_free_inputs(self):
        with pytest.raises(ValueError):
            resultant_z2(Z1 + 1, Z1 - 1)

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            resultant_z2(BiPoly.zero(), Z2)


# ---------------------------------------------------------------------------
# the Gaussian-integer kernel behind gcd2 and resultant_z2
# ---------------------------------------------------------------------------


def wide_gauss(rng: random.Random) -> GaussRational:
    """p/q + i r/s with mixed denominators up to 10^4."""
    return GaussRational(
        Fraction(rng.randint(-9, 9), rng.randint(1, 10**4)),
        Fraction(rng.randint(-9, 9), rng.choice((1, 3, 10**4, rng.randint(1, 10**4)))),
    )


def dense_bipoly(rng: random.Random, d1: int, d2: int) -> BiPoly:
    """Every term z1^a z2^b, a <= d1, b <= d2, with a nonzero coefficient."""
    terms = {}
    for a in range(d1 + 1):
        for b in range(d2 + 1):
            c = wide_gauss(rng)
            terms[(a, b)] = c if not c.is_zero else GaussRational(1)
    return BiPoly(terms)


def qq_i_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd over QQ_I from sympy, lex-monic like gcd2."""
    ring_gens = (_s2, _s1)
    pf = sp.Poly(to_sympy(f), *ring_gens, domain="QQ_I")
    pg = sp.Poly(to_sympy(g), *ring_gens, domain="QQ_I")
    return lex_monic(from_sympy(pf.gcd(pg).as_expr()))


def _vanishing_lead_pair(rng: random.Random) -> tuple[BiPoly, BiPoly]:
    # the z2-leading coefficient of f vanishes at z1 = 1/3, that of g at
    # z1 = -2 + i/7: the resultant has those roots from the leading terms
    c = GaussRational(-2, Fraction(1, 7))
    f = (Z1 - GaussRational(Fraction(1, 3))) * Z2**3 + dense_bipoly(rng, 2, 2)
    g = (Z1 - c) * (Z1 + 1) * Z2**2 + dense_bipoly(rng, 3, 1)
    return f, g


def _zi_oracle_pairs() -> list[tuple[BiPoly, BiPoly]]:
    rng = random.Random(1009)
    pairs = [
        (dense_bipoly(rng, d1, d2), dense_bipoly(rng, e1, e2))
        for d1, d2, e1, e2 in ((1, 1, 1, 1), (2, 3, 3, 2), (3, 2, 2, 3), (2, 5, 2, 2), (1, 4, 3, 4))
    ]
    pairs.append((dense_bipoly(rng, 3, 3), dense_bipoly(rng, 4, 0)))  # z2-free second
    pairs.append((dense_bipoly(rng, 2, 0), dense_bipoly(rng, 3, 2)))  # z2-free first
    pairs.append(_vanishing_lead_pair(rng))
    h = dense_bipoly(rng, 1, 1)
    pairs.append((h * dense_bipoly(rng, 2, 1), h * dense_bipoly(rng, 1, 2)))  # shared factor
    return pairs


ZI_ORACLE_PAIRS = _zi_oracle_pairs()


class TestGaussianIntegerKernel:
    """gcd2 and resultant_z2 clear denominators once and run the PRS on
    Gaussian integers; sympy over QQ_I is the oracle."""

    @pytest.mark.parametrize("k", range(len(ZI_ORACLE_PAIRS)))
    def test_resultant_vs_sympy(self, k):
        f, g = ZI_ORACLE_PAIRS[k]
        for a, b in ((f, g), (g, f)):
            assert resultant_z2(a, b) == sympy_resultant_z2(a, b)

    @pytest.mark.parametrize("k", range(len(ZI_ORACLE_PAIRS)))
    def test_gcd2_vs_sympy(self, k):
        f, g = ZI_ORACLE_PAIRS[k]
        assert gcd2(f, g) == gcd2(g, f) == qq_i_gcd(f, g)

    def test_shared_factor(self):
        f, g = ZI_ORACLE_PAIRS[-1]
        assert resultant_z2(f, g).is_zero
        assert not gcd2(f, g).is_constant

    def test_unipoly_gcd_vs_sympy(self):
        # gcds in z1 alone run the PRS on the swapped pair
        rng = random.Random(1013)
        for n in range(1, 6):
            h = z1poly([wide_gauss(rng) for _ in range(n)] + [wide_gauss(rng)])
            a = z1poly([wide_gauss(rng) for _ in range(6 - n)] + [GaussRational(1)])
            b = z1poly([wide_gauss(rng) for _ in range(5)] + [GaussRational(3, 1)])
            for f, g in ((h * a, h * b), (a, b), (h * a, b)):
                expected = qq_i_gcd(f, g)
                assert gcd2(f, g) == gcd2(g, f) == expected
                assert expected.deg2 <= 0

    def test_unipoly_gcd_zero_and_constant_arguments(self):
        u = z1poly([GaussRational(Fraction(1, 3)), GaussRational(0, 2)])
        assert gcd2(u, BiPoly.zero()) == gcd2(BiPoly.zero(), u) == lex_monic(u)
        with pytest.raises(ZeroPolynomialError):
            gcd2(BiPoly.zero(), BiPoly.zero())
        assert gcd2(u, BiPoly.constant(5)) == BiPoly.constant(1)

    def test_resultant_scales_by_degree_powers(self):
        c = GaussRational(Fraction(3, 7), Fraction(-1, 9999))
        d = GaussRational(Fraction(-5, 4), 0)
        for f, g in ZI_ORACLE_PAIRS[:3] + ZI_ORACLE_PAIRS[5:8]:
            scale = GaussRational(1)
            for _ in range(g.deg2):
                scale = scale * c
            for _ in range(f.deg2):
                scale = scale * d
            assert resultant_z2(f * c, g * d) == resultant_z2(f, g) * scale

    def test_gcd_is_free_of_scale(self):
        c = GaussRational(Fraction(-2, 9973), Fraction(5, 3))
        for f, g in ZI_ORACLE_PAIRS:
            assert gcd2(f * c, g) == gcd2(f, g * c) == gcd2(f, g)

    def test_exact_division_raises_on_a_non_divisor(self):
        one_plus_i = [(1, 1)]
        assert _zdiv([(2, 0)], one_plus_i) == [(1, -1)]
        with pytest.raises(ExactDivisionError):
            _zdiv([(1, 0)], one_plus_i)  # 1 / (1 + i) is not in Z[i]
        with pytest.raises(ExactDivisionError):
            _zdiv([(1, 0), (1, 0)], [(2, 0)])  # (1 + x) / 2
        with pytest.raises(ExactDivisionError):
            _zdiv([(1, 0), (0, 0), (1, 0)], [(2, 0), (1, 0)])  # x^2 + 1 = (x + 2)(x - 2) + 5
        with pytest.raises(ExactDivisionError):
            _zdiv([(1, 0)], [(2, 0), (1, 0)])  # lower degree, nonzero
        u = [(3, -1), (0, 2), (-4, 0)]
        v = [(1, 1), (2, -3)]
        assert _zdiv(_zmul(u, v), v) == u


# ---------------------------------------------------------------------------
# against the frozen Fraction-pair reference (tests/oracles.py)
# ---------------------------------------------------------------------------


def oracle_terms(rng: random.Random, d1: int, d2: int) -> dict:
    """About 60% of the terms z1^a z2^b, a <= d1, b <= d2, and always z1^d1 z2^d2."""
    terms = {
        (a, b): wide_gauss(rng)
        for a in range(d1 + 1) for b in range(d2 + 1) if rng.random() < 0.6
    }
    terms[(d1, d2)] = GaussRational(rng.randint(1, 3), rng.randint(-2, 2))
    return terms


def oracle_pair(seed: int) -> tuple[tuple[BiPoly, FractionPoly], tuple[BiPoly, FractionPoly]]:
    rng = random.Random(seed)
    shapes = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2)]
    tf, tg = (oracle_terms(rng, d1, d2) for d1, d2 in shapes)
    return (BiPoly(tf), FractionPoly(tf)), (BiPoly(tg), FractionPoly(tg))


def agrees(f: BiPoly, ref: FractionPoly) -> bool:
    return dict(f.terms) == ref.terms


ORACLE_SEEDS = range(12)


class TestFractionReference:
    """Every BiPoly operation equals the frozen Fraction-pair reference."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_ring_operations(self, seed):
        (f, rf), (g, rg) = oracle_pair(seed)
        c = GaussRational(Fraction(-3, 7), Fraction(5, 4))
        assert agrees(f + g, rf + rg) and agrees(f - g, rf - rg) and agrees(f * g, rf * rg)
        assert agrees(-f, -rf) and agrees(f * c, rf * c) and agrees(3 - f, 3 - rf)
        assert agrees(f + Fraction(1, 6), rf + Fraction(1, 6))
        for n in range(4):
            assert agrees(f**n, rf**n)
        assert agrees(f - f, rf - rf) and (f - f).is_zero

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_deriv_swap_and_lex_monic(self, seed):
        (f, rf), (g, rg) = oracle_pair(seed)
        for p, rp in ((f, rf), (g, rg), (f * g, rf * rg)):
            assert agrees(p.deriv(1), rp.deriv(1)) and agrees(p.deriv(2), rp.deriv(2))
            assert agrees(p.swap_vars(), rp.swap_vars())
            assert agrees(lex_monic(p), ref_lex_monic(rp))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_content_gcd_and_resultant(self, seed):
        (f, rf), (g, rg) = oracle_pair(seed)
        (h, rh), _ = oracle_pair(seed + 100)
        for p, q, rp, rq in ((f, g, rf, rg), (f * h, g * h, rf * rh, rg * rh)):
            if p.is_constant or q.is_constant:
                continue
            for x, rx in ((p, rp), (q, rq)):
                cont, pp = content_pp_z2(x)
                rcont, rpp = ref_content_pp_z2(rx)
                assert agrees(cont, rcont) and agrees(pp, rpp)
            assert agrees(gcd2(p, q), ref_gcd2(rp, rq))
            if p.deg2 >= 1 or q.deg2 >= 1:
                assert agrees(resultant_z2(p, q), ref_resultant_z2(rp, rq))
                assert agrees(resultant_z2(q, p), ref_resultant_z2(rq, rp))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_exact_div(self, seed):
        (f, rf), (g, rg) = oracle_pair(seed)
        assert agrees(exact_div(f * g, g), ref_exact_div(rf * rg, rg))
        assert exact_div(f * g, g) == f and exact_div(f * g, f) == g
        if not g.is_constant:
            for p, rp in ((f * g + 1, rf * rg + 1), (f * g + g.swap_vars(), None)):
                with pytest.raises(ExactDivisionError):
                    exact_div(p, g)
                if rp is not None:
                    with pytest.raises(ExactDivisionError):
                        ref_exact_div(rp, rg)

    def test_exact_div_by_a_divisor_with_gaussian_content(self):
        one_i, conj_i = GaussRational(1, 1), GaussRational(1, -1)
        divisors = [
            one_i * Z1 + conj_i,  # Gaussian content 1 + i
            (one_i * Z1 + conj_i) * GaussRational(Fraction(2, 3), Fraction(4, 3)) * Z2 + 2 * one_i,
            GaussRational(2, 2) * Z1 * Z2 + GaussRational(6, -2) * Z1 + GaussRational(0, 4),
        ]
        rng = random.Random(41)
        for g in divisors:
            rg = FractionPoly(g.terms)
            for _ in range(3):
                t = oracle_terms(rng, 2, 2)
                h, rh = BiPoly(t), FractionPoly(t)
                assert exact_div(h * g, g) == h
                assert agrees(exact_div(h * g, g), ref_exact_div(rh * rg, rg))
                with pytest.raises(ExactDivisionError):
                    exact_div(h * g + Z1, g)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_float_eval_and_coeff_matrix_bits(self, seed):
        (f, rf), (g, rg) = oracle_pair(seed)
        rng = random.Random(seed)
        for p, rp in ((f, rf), (g, rg), (f * g, rf * rg)):
            assert p.coeff_matrix().tobytes() == rp.coeff_matrix().tobytes()
            assert p.coeff_matrix().shape == rp.coeff_matrix().shape
            for _ in range(5):
                x1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                x2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                ours, theirs = np.array([p.eval(x1, x2)]), np.array([rp.eval(x1, x2)])
                assert ours.tobytes() == theirs.tobytes()

    def test_sparse_high_degree(self):
        start = time.perf_counter()
        f = poly_from_json(
            {"terms": [{"a": 300, "b": 40, "re": "1"}, {"a": 0, "b": 0, "re": "1/3"}]}
        )
        assert f == Z1**300 * Z2**40 + Fraction(1, 3)
        assert poly_from_json(json.loads(json.dumps(poly_to_json(f)))) == f
        g = Z1 - 2 * Z2 + GaussRational(0, Fraction(1, 5))
        assert exact_div(f * g, g) == f and exact_div(f * f, f) == f
        with pytest.raises(ExactDivisionError):
            exact_div(f * g + 1, g)
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


class TestJsonFormat:
    def test_roundtrip_random(self):
        rng = random.Random(601)
        for _ in range(40):
            f = random_bipoly(rng, d1=3, d2=3, nonzero=False)
            assert poly_from_json(poly_to_json(f)) == f

    def test_roundtrip_through_text(self):
        f = BiPoly(
            {
                (0, 0): GaussRational(Fraction(-7, 3)),
                (2, 1): GaussRational(Fraction(1, 10), Fraction(22, 7)),
            }
        )
        text = json.dumps(poly_to_json(f))
        assert poly_from_json(json.loads(text)) == f

    def test_decimal_strings_exact(self):
        f = poly_from_json(
            {"terms": [{"a": 0, "b": 0, "re": "0.1", "im": "-0.25"}]}
        )
        assert f.coeff(0, 0) == GaussRational(Fraction(1, 10), Fraction(-1, 4))

    def test_integer_coefficients_allowed(self):
        f = poly_from_json({"terms": [{"a": 1, "b": 0, "re": 2}]})
        assert f == 2 * Z1

    def test_duplicate_terms_merge(self):
        f = poly_from_json(
            {
                "terms": [
                    {"a": 0, "b": 1, "re": "1"},
                    {"a": 0, "b": 1, "re": "2"},
                ]
            }
        )
        assert f == 3 * Z2

    def test_float_coefficients_rejected(self):
        with pytest.raises(PolyFormatError, match="term #0"):
            poly_from_json({"terms": [{"a": 0, "b": 0, "re": 0.1}]})

    @pytest.mark.parametrize(
        "term",
        [
            {"a": True, "b": 0, "re": "1"},
            {"a": 0, "b": False, "re": "1"},
            {"a": 1, "b": 0, "re": True},
            {"a": 1, "b": 0, "re": "1", "im": False},
        ],
        ids=["a", "b", "re", "im"],
    )
    def test_boolean_fields_rejected(self, term):
        # JSON true/false load as bool, an int subclass: true used to parse as 1
        with pytest.raises(PolyFormatError, match="term #0"):
            poly_from_json({"terms": [term]})

    def test_missing_exponent_named(self):
        with pytest.raises(PolyFormatError, match="term #1"):
            poly_from_json(
                {"terms": [{"a": 0, "b": 0, "re": "1"}, {"a": 2, "re": "1"}]}
            )

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolyFormatError, match="term #0"):
            poly_from_json({"terms": [{"a": -1, "b": 0, "re": "1"}]})

    def test_bad_rational_rejected(self):
        with pytest.raises(PolyFormatError, match="term #0"):
            poly_from_json({"terms": [{"a": 0, "b": 0, "re": "one half"}]})

    def test_bad_vars_rejected(self):
        with pytest.raises(PolyFormatError, match="variable"):
            poly_from_json({"vars": ["x", "y"], "terms": []})

    def test_ideal_file_forms(self):
        bare = {"terms": [{"a": 1, "b": 0, "re": "1"}]}
        assert ideal_from_json(bare) == [Z1]
        wrapped = {"generators": [bare, {"terms": [{"a": 0, "b": 1, "re": "1"}]}]}
        assert ideal_from_json(wrapped) == [Z1, Z2]
        with pytest.raises(PolyFormatError):
            ideal_from_json({"generators": []})
