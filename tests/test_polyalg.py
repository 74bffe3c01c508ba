"""Exact polynomial algebra tests.

Hand-computed small cases are frozen inline; randomized cases are
cross-checked against sympy's Gaussian-rational polynomial routines.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
import sympy as sp

from nullsatz.polyalg import (
    BiPoly,
    ExactDivisionError,
    GaussRational,
    PolyFormatError,
    UniPoly,
    ZeroPolynomialError,
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
    unipoly_gcd,
)

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


# ---------------------------------------------------------------------------
# UniPoly
# ---------------------------------------------------------------------------


class TestUniPoly:
    def test_divmod_invariant(self):
        rng = random.Random(23)
        for _ in range(100):
            a = UniPoly([random_gauss(rng) for _ in range(rng.randint(0, 6))])
            b = UniPoly([random_gauss(rng) for _ in range(rng.randint(1, 4))])
            if b.is_zero:
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_gcd_known(self):
        # (x-1)(x-2) and (x-1)(x-3) share x-1
        p = UniPoly([2, -3, 1])
        q = UniPoly([3, -4, 1])
        g = unipoly_gcd(p, q)
        assert g == UniPoly([-1, 1])
        # degree 13 and 12 with a planted degree-4 common factor: long
        # remainder sequences whose Fraction sizes blow up unless reduced;
        # sympy gives the expected gcd
        rng = random.Random(29)
        h, a, b = (
            UniPoly([random_gauss(rng) for _ in range(n)] + [GaussRational(1)])
            for n in (4, 9, 8)
        )
        f, g = h * a, h * b
        assert f.degree >= 12 and g.degree >= 12
        theirs = sp.gcd(
            to_sympy(BiPoly.from_unipoly_z1(f)),
            to_sympy(BiPoly.from_unipoly_z1(g)),
            gaussian=True,
        )
        expected = from_sympy(theirs).as_unipoly_z1().monic()
        assert expected.degree >= 4
        assert unipoly_gcd(f, g) == expected

    def test_gcd_of_coprime_is_one(self):
        p = UniPoly([1, 0, 1])  # x^2+1
        q = UniPoly([-2, 1])  # x-2
        assert unipoly_gcd(p, q) == UniPoly([1])

    def test_eval_matches_numpy(self):
        import numpy as np

        rng = random.Random(7)
        u = UniPoly([random_gauss(rng) for _ in range(5)])
        x = 0.3 - 0.7j
        expected = np.polyval(u.to_complex()[::-1], x)
        assert abs(u.eval(x) - expected) < 1e-12

    def test_deriv(self):
        u = UniPoly([1, 2, 3])  # 1 + 2x + 3x^2
        assert u.deriv() == UniPoly([2, 6])


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

    def test_z2_coeffs_roundtrip(self):
        rng = random.Random(17)
        for _ in range(40):
            f = random_bipoly(rng, d1=3, d2=3)
            assert BiPoly.from_z2_coeffs(f.z2_coeffs()) == f

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
        assert r == UniPoly([4, -1])  # 4 - z1

    def test_crossing_lines(self):
        r = resultant_z2(Z2 - Z1, Z2 + Z1)
        assert r == UniPoly([0, 2])  # 2*z1

    def test_z2_free_second_argument(self):
        # Res_{z2}(f, c(z1)) = c(z1)^{deg2 f}
        r = resultant_z2(Z2**2 - Z1, BiPoly.constant(3) + Z1)
        assert r == UniPoly([9, 6, 1])  # (z1+3)^2

    def test_random_vs_sympy(self):
        rng = random.Random(509)
        for _ in range(20):
            f = random_bipoly(rng, d1=2, d2=2)
            g = random_bipoly(rng, d1=1, d2=1)
            if f.deg2 < 1 or g.deg2 < 1:
                continue
            ours = BiPoly.from_unipoly_z1(resultant_z2(f, g))
            assert ours == sympy_resultant_z2(f, g)
        for pair in PRS_EDGE_PAIRS:
            for f, g in (pair, pair[::-1]):
                ours = BiPoly.from_unipoly_z1(resultant_z2(f, g))
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
        assert r.eval(GaussRational(1)) == GaussRational(0)

    def test_rejects_two_z2_free_inputs(self):
        with pytest.raises(ValueError):
            resultant_z2(Z1 + 1, Z1 - 1)

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            resultant_z2(BiPoly.zero(), Z2)


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
