"""Metamorphic tests: exact ideal algebra and classify verdicts that must not
depend on how the generators are written.

Each test transforms seeded Gaussian-rational inputs in a way whose effect
on the answer is known exactly (swapping arguments, scaling, adding a
multiple of one generator to another, appending a product of generators,
an exact rotation of z1 or z2, swapping z1 and z2 together with the
domain's exponents) and checks that the answer moves exactly that way.  No
oracle outside the package is needed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from nullsatz.bergman import DomainSpec, ratio_sup
from nullsatz.hopf import ball_ratio_sup
from nullsatz.nullsatz import classify
from nullsatz.polyalg import (
    BiPoly,
    GaussRational,
    content_pp_z2,
    divides,
    gcd2,
    gcd_many,
    lex_monic,
    load_ideal,
    resultant_z2,
    squarefree,
)

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)
ROTATION = GaussRational(Fraction(3, 5), Fraction(4, 5))  # |u| = 1, exact
Z2_ROTATION = GaussRational(Fraction(-5, 13), Fraction(12, 13))  # |u| = 1, exact
DEMO_IDEALS = ("princ_half", "princ_two", "twolines", "mixed_ideal")
DOMAINS = {"ball": DomainSpec.ball(), "1_3": DomainSpec(p=1.0, q=3.0)}


def gauss(rng: random.Random) -> GaussRational:
    return GaussRational(
        Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < 0.5 else 0,
    )


def nonzero_gauss(rng: random.Random) -> GaussRational:
    c = gauss(rng)
    return c if not c.is_zero else GaussRational(1, Fraction(1, 3))


def poly(rng: random.Random, d1: int, d2: int) -> BiPoly:
    """A random polynomial of z1-degree <= d1 and z2-degree exactly d2
    (z1-degree exactly d1 when d2 = 0)."""
    terms = {(a, b): gauss(rng) for a in range(d1 + 1) for b in range(d2 + 1)
             if rng.random() < 0.6}
    terms[(d1 if d2 == 0 else rng.randint(0, d1), d2)] = nonzero_gauss(rng)
    return BiPoly(terms)


def pairs(seed: int, count: int = 8) -> list[tuple[BiPoly, BiPoly, BiPoly]]:
    """(f, g, h): f and g share the planted factor h."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        h = poly(rng, 1, k % 2)
        f = h * poly(rng, 2, 1 + k % 2)
        g = h * poly(rng, 1 + k % 3, k % 3)
        out.append((f, g, h))
    return out


def z1_pairs(seed: int, count: int = 8) -> list[tuple[BiPoly, BiPoly]]:
    rng = random.Random(seed)
    out = []
    for k in range(count):
        h = poly(rng, k % 3, 0)
        out.append((h * poly(rng, 1 + k % 4, 0), h * poly(rng, 2, 0)))
    return out


def rotate(f: BiPoly, var: int = 1, u: GaussRational = ROTATION) -> BiPoly:
    """f with z_var replaced by u z_var, for an exact unit u (3/5 + 4i/5 by
    default)."""
    out = {}
    for exps, c in f.terms.items():
        for _ in range(exps[var - 1]):
            c = c * u
        out[exps] = c
    return BiPoly(out)


def as_bipoly(u) -> BiPoly:
    """A polynomial in z1 alone as a BiPoly, also when it comes as an
    ascending coefficient tuple ``u.coeffs``."""
    if isinstance(u, BiPoly):
        return u
    return BiPoly({(a, 0): c for a, c in enumerate(u.coeffs)})


class TestGcd:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_symmetric(self, seed):
        for f, g, h in pairs(seed):
            d = gcd2(f, g)
            assert d == gcd2(g, f)
            assert divides(h, d)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_unchanged_under_scaling(self, seed):
        rng = random.Random(seed)
        for f, g, _ in pairs(seed):
            c, d = nonzero_gauss(rng), nonzero_gauss(rng)
            assert gcd2(f * c, g * d) == gcd2(f, g)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_unchanged_under_adding_a_multiple(self, seed):
        rng = random.Random(seed)
        for f, g, _ in pairs(seed):
            h = poly(rng, 1, 1)
            assert gcd2(f, g + h * f) == gcd2(f, g)
            assert gcd2(f + h * g, g) == gcd2(f, g)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_z1_gcd_is_the_swapped_gcd_of_the_swaps(self, seed):
        for f, g in z1_pairs(seed):
            d = gcd2(f, g)
            assert d.deg2 <= 0
            assert d == gcd2(f.swap_vars(), g.swap_vars()).swap_vars()


class TestContentAndResultant:
    @pytest.mark.parametrize("seed", [9, 10])
    def test_content_times_primitive_part(self, seed):
        rng = random.Random(seed)
        for f, g, _ in pairs(seed):
            # a content of positive degree in z1
            f = f * poly(rng, 1 + rng.randint(0, 1), 0)
            for p in (f, g):
                cont, pp = content_pp_z2(p)
                cont = as_bipoly(cont)
                assert cont.deg2 <= 0 and cont == lex_monic(cont)
                assert cont * pp == p

    @pytest.mark.parametrize("seed", [11, 12])
    def test_resultant_scales_by_the_degree_power(self, seed):
        rng = random.Random(seed)
        for f, g, _ in pairs(seed):
            if f.deg2 < 1 and g.deg2 < 1:
                continue
            c = nonzero_gauss(rng)
            scale = GaussRational(1)
            for _ in range(g.deg2):
                scale = scale * c
            assert resultant_z2(f * c, g) == resultant_z2(f, g) * scale


class TestRotation:
    @pytest.mark.parametrize("seed", [13, 14])
    def test_squarefree_parents_rotate(self, seed):
        rng = random.Random(seed)
        for _ in range(4):
            p, q = poly(rng, 1, 1), poly(rng, 2, 1)
            f = p * p * q
            got = squarefree(rotate(f))
            want = [(lex_monic(rotate(s)), m) for s, m in squarefree(f)]
            assert got == want

    @pytest.mark.parametrize("seed", [15, 16])
    def test_gcd_many_parent_rotates(self, seed):
        rng = random.Random(seed)
        for f, g, _ in pairs(seed, count=4):
            third = g * poly(rng, 1, 1) + f
            gens = [f, g, third]
            assert gcd_many([rotate(x) for x in gens]) == lex_monic(rotate(gcd_many(gens)))


def _summary(gens: list[BiPoly], domain: DomainSpec) -> tuple[str, int]:
    v = classify(gens, domain, with_certificate=False)
    return v.overall, len(v.results)


def _rewrites(gens: list[BiPoly]) -> dict[str, list[BiPoly]]:
    """Generating sets of the same ideal."""
    h = Z1 - GaussRational(Fraction(1, 3), 2) * Z2 + Fraction(1, 2)
    if len(gens) >= 2:
        combined = [gens[0] + h * gens[1], *gens[1:]]
    else:
        combined = [gens[0], h * gens[0]]
    scales = (GaussRational(Fraction(-3, 7), 1), GaussRational(0, Fraction(5, 2)))
    return {
        "reordered": gens[::-1],
        "combined": combined,
        "scaled": [g * scales[k % 2] for k, g in enumerate(gens)],
    }


@pytest.mark.parametrize("tag", sorted(DOMAINS))
@pytest.mark.parametrize("ideal", DEMO_IDEALS)
def test_classify_is_free_of_the_generating_set(ideal, tag):
    gens = load_ideal(str(DATA / f"{ideal}.json"))
    want = _summary(gens, DOMAINS[tag])
    for name, other in _rewrites(gens).items():
        assert _summary(other, DOMAINS[tag]) == want, name


# ideals whose point and witness tests read generator residuals: four
# interior points, and a circle whose CLOSED witness is checked on it
SCALED_IDEALS = {
    "four_points": [Z1**2 - Fraction(1, 9), Z2**2 - Fraction(1, 16)],
    "circle": [Z1**2 + Z2**2 - Fraction(1, 4)],
}


@pytest.mark.parametrize("ideal", [*sorted(SCALED_IDEALS), "twolines", "mixed_ideal"])
def test_classify_is_free_of_a_power_of_ten(ideal):
    gens = SCALED_IDEALS.get(ideal) or load_ideal(str(DATA / f"{ideal}.json"))
    ball = DOMAINS["ball"]
    want = classify(gens, ball, with_certificate=False)
    for k in (-12, -6, 0, 6, 10, 12):
        c = GaussRational(Fraction(10) ** k)
        got = classify([g * c for g in gens], ball, with_certificate=False)
        assert (got.overall, len(got.results)) == (want.overall, len(want.results)), k


@pytest.mark.parametrize("k", [-15, 15])
def test_ratio_sups_are_free_of_a_power_of_ten(k):
    # zero-free on the closed ball; the near-zero floor on the denominators
    # must scale with the polynomial, or a tiny multiple reads as vanishing
    f = Z1 - 2 + Z2 * GaussRational(Fraction(1, 3))
    c = GaussRational(Fraction(10) ** k)
    ball = DOMAINS["ball"]
    want, got = ratio_sup(f, ball), ratio_sup(f * c, ball)
    assert want.passed and got.passed and not got.violations
    assert got.sup == pytest.approx(want.sup, rel=1e-12)
    want, got = ball_ratio_sup(f), ball_ratio_sup(f * c)
    assert want.finite and got.finite
    assert got.sup == pytest.approx(want.sup, rel=1e-12)


def _dense_pair(seed: int, degree: int) -> list[BiPoly]:
    """Two dense generators of total degree `degree`."""
    rng = random.Random(seed)
    return [
        BiPoly({(a, b): gauss(rng) for a in range(degree + 1) for b in range(degree + 1 - a)})
        for _ in range(2)
    ]


_HALF = Fraction(1, 2)
# every kind of component: vertical and slanted lines, an irreducible conic
# and cusp, a circle outside the domain, and isolated points alone
# (a grid pulled back by a linear map, a dense pair) or beside a curve
META_IDEALS = {
    **{name: load_ideal(str(DATA / f"{name}.json")) for name in DEMO_IDEALS},
    "four_points": SCALED_IDEALS["four_points"],
    "grid": [
        (Z1 + Z2 * Fraction(1, 4) - _HALF)
        * (Z1 + Z2 * Fraction(1, 4) + GaussRational(Fraction(1, 4), Fraction(1, 3)))
        * (Z1 + Z2 * Fraction(1, 4) - GaussRational(Fraction(3, 2), 1)),
        (Z1 * GaussRational(Fraction(1, 8), Fraction(1, 4)) + Z2 - Fraction(1, 3))
        * (Z1 * GaussRational(Fraction(1, 8), Fraction(1, 4)) + Z2 + GaussRational(0, Fraction(5, 4))),
    ],
    "dense_pair": _dense_pair(17, 4),
    "conic_line": [(Z2**2 - Z1 + Fraction(1, 4)) * (Z2 - 2)],
    "cusp": [Z2**2 - Z1**3 + Fraction(1, 8)],
    "circle_out": [Z1**2 + Z2**2 - Fraction(9, 4)],
}
MIN_PHI_TOL = 1e-9

# where the swapped ideal's min_phi is known to differ, and why
SWAP_FAULTS = {
    # after the swap the minimum, at z1 = 0, sits on a branch point of the
    # projection to the new z1; the descent stalls short of it (ROADMAP,
    # branch points), 1.2e-8 above on the ball and 1.1e-4 on Omega(1, 3)
    ("cusp", "ball"): "the sheet descent stalls short of a minimum at a branch point",
    ("cusp", "1_3"): "the sheet descent stalls short of a minimum at a branch point",
    # the curve misses the domain and its minimum of phi lies at |z1| = 3/2,
    # outside the |z1| <= 1 disk the search covers; swapped, the disk holds it
    ("circle_out", "1_3"): "the min_phi of a missing curve is taken over |z1| <= 1 only",
}


def _profile(gens: list[BiPoly], domain: DomainSpec):
    """(verdict, curve components, points) and the sorted min_phi values."""
    v = classify(gens, domain, with_certificate=False)
    kinds = [r.kind for r in v.results]
    return (v.overall, kinds.count("curve"), kinds.count("point")), sorted(
        r.min_phi for r in v.results
    )


def _same_answer(gens, other, domain, other_domain=None, fault=None):
    want, want_phi = _profile(gens, domain)
    got, got_phi = _profile(other, other_domain or domain)
    assert got == want
    diff = max((abs(a - b) for a, b in zip(got_phi, want_phi)), default=0.0)
    if fault is not None and not diff <= MIN_PHI_TOL:
        pytest.xfail(fault)
    assert diff <= MIN_PHI_TOL, (got_phi, want_phi)


@pytest.mark.parametrize("tag", sorted(DOMAINS))
@pytest.mark.parametrize("ideal", sorted(META_IDEALS))
def test_classify_is_symmetric_in_the_variables(ideal, tag):
    # swapping z1 and z2 maps Omega(p, q) onto Omega(q, p)
    gens, domain = META_IDEALS[ideal], DOMAINS[tag]
    _same_answer(
        gens,
        [g.swap_vars() for g in gens],
        domain,
        DomainSpec(p=domain.q, q=domain.p),
        fault=SWAP_FAULTS.get((ideal, tag)),
    )


@pytest.mark.parametrize("tag", sorted(DOMAINS))
@pytest.mark.parametrize("ideal", sorted(META_IDEALS))
def test_classify_is_free_of_a_rotation_of_z2(ideal, tag):
    # z2 -> u z2 with |u| = 1 maps every Reinhardt domain onto itself
    gens = META_IDEALS[ideal]
    _same_answer(gens, [rotate(g, 2, Z2_ROTATION) for g in gens], DOMAINS[tag])


@pytest.mark.parametrize("tag", sorted(DOMAINS))
@pytest.mark.parametrize("ideal", sorted(META_IDEALS))
def test_classify_is_free_of_an_appended_product(ideal, tag):
    # the product of two generators (of the one generator with itself, for
    # a principal ideal) already lies in the ideal
    gens = META_IDEALS[ideal]
    _same_answer(gens, [*gens, gens[0] * gens[-1]], DOMAINS[tag])
