"""Rotation search and ball dilation-ratio tests."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nullsatz import hopf
from nullsatz.hopf import (
    BallRatioReport,
    HopfRotation,
    RotationSearchError,
    ball_ratio_sup,
    circle_min_modulus,
    find_rotation,
)
from nullsatz.polyalg import BiPoly, GaussRational

from oracles import circle_min_oracle, circle_modulus_oracle

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)

FAMILY = [Z1, Z2, Z1 * Z2, Z1**2 + Z2**2 - 4]
# a product of three linear factors, like the benchmark's zero-free products
TRIPLE = (Z1 - 2) * (Z2 + GaussRational(3, 1)) * (Z1 + Z2 - GaussRational(Fraction(5, 2), -1))


class TestFindRotation:
    @pytest.mark.parametrize("f", FAMILY, ids=["z1", "z2", "z1z2", "sphere4"])
    def test_unitarity(self, f):
        rot = find_rotation(f)
        assert rot.unitarity_defect() < 1e-12

    @pytest.mark.parametrize("f", FAMILY, ids=["z1", "z2", "z1z2", "sphere4"])
    def test_clears_threshold(self, f):
        rot = find_rotation(f)
        assert rot.min_modulus > 1e-6

    @pytest.mark.parametrize("f", FAMILY, ids=["z1", "z2", "z1z2", "sphere4"])
    def test_conjugation_identity(self, f):
        rot = find_rotation(f)
        rng = np.random.default_rng(3)
        for alpha in rng.uniform(0.0, 2.0 * math.pi, 128):
            e = complex(math.cos(alpha), math.sin(alpha))
            w1, w2 = rot.apply(0.0, e)
            lhs = f.eval(w1, w2)
            rhs = f.eval(rot.a * e, rot.b * e)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    def test_z1_picks_first_axis(self):
        rot = find_rotation(Z1)
        # |f| on the circle is |a|, maximized at the pole
        assert rot.min_modulus > 0.999
        assert abs(rot.a) > 0.999

    def test_z2_picks_second_axis(self):
        rot = find_rotation(Z2)
        assert rot.min_modulus > 0.999
        assert abs(rot.b) > 0.999

    def test_z1z2_balanced_fiber(self):
        rot = find_rotation(Z1 * Z2)
        # |f| = |a b| on the circle, maximal value 1/2 at |a| = |b|
        assert rot.min_modulus == pytest.approx(0.5, abs=1e-6)

    def test_sphere_offset_large_margin(self):
        rot = find_rotation(Z1**2 + Z2**2 - 4)
        assert rot.min_modulus > 3.0

    def test_deterministic_for_seed(self):
        # the whole report, trace and certified bound included, byte for byte
        for f in FAMILY + [TRIPLE]:
            a = json.dumps(find_rotation(f, seed=11).to_json_dict(), sort_keys=True)
            b = json.dumps(find_rotation(f, seed=11).to_json_dict(), sort_keys=True)
            assert a == b

    def test_unreachable_threshold_reports_best(self, monkeypatch):
        monkeypatch.setattr(hopf, "TOL_CIRCLE", 0.6)
        with pytest.raises(RotationSearchError) as info:
            find_rotation(Z1 * Z2)
        best = info.value.best
        assert isinstance(best, HopfRotation)
        assert best.min_modulus == pytest.approx(0.5, abs=1e-6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            find_rotation(BiPoly.zero())

    def test_fiber_invariance(self):
        f = Z1**2 + Z2**2 - 4
        a, b = complex(0.6), complex(0.48, 0.64)
        lam = complex(math.cos(0.7), math.sin(0.7))
        m0, _ = circle_min_modulus(f, a, b)
        m1, _ = circle_min_modulus(f, lam * a, lam * b)
        assert m1 == pytest.approx(m0, abs=1e-9)

    def test_json_roundtrip(self):
        rot = find_rotation(Z1 * Z2)
        blob = json.dumps(rot.to_json_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["kind"] == "hopf_rotation"
        assert back["min_modulus"] == pytest.approx(0.5, abs=1e-6)


def _zero_free_product(seed: int) -> BiPoly:
    """A product of three linear factors u z1 + v z2 - c with |c| > |u| + |v|,
    so it has no zero on the closed ball and none on any circle."""
    rng = random.Random(seed)

    def gauss(lo, hi):
        return GaussRational(Fraction(rng.randint(lo, hi), 4), Fraction(rng.randint(lo, hi), 4))

    f = BiPoly.constant(1)
    for _ in range(3):
        u, v = gauss(-4, 4), gauss(-4, 4)
        reach = abs(complex(u)) + abs(complex(v))
        c = GaussRational(Fraction(math.ceil(4 * reach) + rng.randint(1, 6), 4))
        f = f * (u * Z1 + v * Z2 - c)
    return f


ZERO_FREE = [_zero_free_product(seed) for seed in range(6)]
FIXTURES = FAMILY + [TRIPLE] + ZERO_FREE
FIXTURE_IDS = ["z1", "z2", "z1z2", "sphere4", "triple"] + [f"product{i}" for i in range(6)]


def _sequential_search(f, seed):
    """The compass search one move at a time, as written before it was batched."""
    score = hopf._CircleScores(f)
    thetas, phis = hopf._lattice(seed)
    best_theta, best_phi, best_val = 0.0, 0.0, -1.0
    for theta, phi in zip(thetas.tolist(), phis.tolist()):
        v = score(np.array([theta]), np.array([phi]))[0]
        if v > best_val:
            best_theta, best_phi, best_val = theta, phi, v
    step = 0.2
    theta, phi, val = best_theta, best_phi, best_val
    polish_steps = 0
    while step > 1e-9 and polish_steps < 400:
        moved = False
        for dt, dp in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            t2 = min(max(theta + dt, 0.0), math.pi)
            p2 = math.fmod(phi + dp + 2.0 * math.pi, 2.0 * math.pi)
            v2 = score(np.array([t2]), np.array([p2]))[0]
            polish_steps += 1
            if v2 > val:
                theta, phi, val = t2, p2, v2
                moved = True
                break
        if not moved:
            step *= 0.5
    return theta, phi, polish_steps


def _arc_excess(C, cells):
    """Largest amount by which an arc's floor (centre value less _arc_margin)
    exceeds |f|^2 on a 513-point sample of the arc (a positive value is a
    false certificate)."""
    half = math.pi / cells
    centres = 2.0 * math.pi * np.arange(cells) / cells
    floors = hopf._circle_modulus(C, centres) ** 2 - hopf._arc_margin(C, half)
    t = centres[:, None] + half * np.linspace(-1.0, 1.0, 513)
    vals = np.abs(np.exp(1j * t[..., None] * np.arange(C.size)) @ C) ** 2
    return float((floors - vals.min(axis=1)).max())


class TestCircleSearch:
    @pytest.mark.parametrize("f", [Z1 * Z2, TRIPLE, ZERO_FREE[0]], ids=["z1z2", "triple", "product0"])
    def test_batched_scores_match_single_circle_scans(self, f):
        score = hopf._CircleScores(f)
        thetas, phis = hopf._lattice(3)
        got = score(thetas, phis)
        assert got.shape == (hopf.MAX_TRIALS,)
        for theta, phi, g in zip(thetas, phis, got):
            a, b = hopf._fiber_rep(theta, phi)
            want, _ = circle_min_modulus(f, a, b, grid=score.grid, refine=False)
            assert abs(g - want) <= 1e-12 * want

    def test_search_grid_is_degree_sized(self):
        assert [hopf._search_grid(d) for d in (0, 1, 3, 4, 7, 8, 20)] == [32, 32, 32, 64, 64, 128, 256]
        assert hopf._CircleScores(TRIPLE).grid == 32
        assert hopf._CircleScores(Z1**9 - 2).grid == 128

    def test_chunked_scores_equal_one_batch(self, monkeypatch):
        f = (Z1 + Z2) ** 20 - 3
        thetas, phis = hopf._lattice(0)
        whole = hopf._CircleScores(f)
        assert whole.grid == 256
        assert whole.batch < hopf.MAX_TRIALS  # the byte budget splits the lattice
        monkeypatch.setattr(hopf, "_SCORE_BYTES", 1 << 30)
        one = hopf._CircleScores(f)
        assert one.batch >= hopf.MAX_TRIALS
        np.testing.assert_allclose(whole(thetas, phis), one(thetas, phis), rtol=1e-13)

    @pytest.mark.parametrize("f", [Z1 * Z2, TRIPLE, ZERO_FREE[1]], ids=["z1z2", "triple", "product1"])
    def test_polish_takes_the_moves_of_a_sequential_search(self, f):
        theta, phi, counts = hopf._search(f, 0)
        assert (theta, phi, counts["polish_steps"]) == _sequential_search(f, 0)
        assert counts["search_grid"] == hopf._CircleScores(f).grid
        polish_rounds = (counts["circles_scored"] - hopf.MAX_TRIALS) // 4
        assert counts["circles_scored"] == hopf.MAX_TRIALS + 4 * polish_rounds
        assert polish_rounds <= counts["polish_steps"] <= 4 * polish_rounds

    def test_trace_counts_the_work(self):
        rot = find_rotation(TRIPLE, seed=2)
        trace = rot.trace
        assert trace["search_grid"] == 32 and trace["alpha_grid"] == hopf.ALPHA_GRID
        assert trace["circles_scored"] > hopf.MAX_TRIALS
        assert trace["cert_cells"] >= trace["search_grid"]


class TestCircleCertificate:
    @pytest.mark.parametrize("f", FIXTURES, ids=FIXTURE_IDS)
    def test_lower_bound_is_below_the_best_value_and_the_oracle(self, f):
        rot = find_rotation(f, seed=1)
        oracle = circle_min_oracle(f, rot.a, rot.b)
        assert 0.0 < rot.min_modulus_lower <= rot.min_modulus
        assert rot.min_modulus_lower <= oracle
        # the best value is the tight one, within rounding of the oracle
        assert rot.min_modulus <= oracle * (1 + 1e-9)
        assert rot.min_modulus_lower >= hopf.CERT_FRACTION * rot.min_modulus

    @pytest.mark.parametrize("f", FIXTURES, ids=FIXTURE_IDS)
    def test_arc_floors_hold_on_every_arc(self, f):
        rot = find_rotation(f)
        C = hopf.circle_coefficients(f, rot.a, rot.b)
        for cells in (8, 32, 256):
            assert _arc_excess(C, cells) <= 0.0

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_arc_floors_hold_where_bernstein_is_sharp(self, n):
        # |1 + e^{i n t}|^2 = 2 + 2 cos(n t) has the largest slope the bound allows
        C = hopf.circle_coefficients(Z1**n + 1, 1.0, 0.0)
        assert hopf._slope_bound(C) == 2.0 * n
        assert _arc_excess(C, hopf._search_grid(n)) <= 0.0

    def test_a_halved_bernstein_constant_is_caught(self, monkeypatch):
        sharp = hopf._slope_bound
        monkeypatch.setattr(hopf, "_slope_bound", lambda C: 0.5 * sharp(C))
        C = hopf.circle_coefficients(Z1**3 + 1, 1.0, 0.0)
        assert _arc_excess(C, hopf._search_grid(3)) > 0.0

    def test_circle_through_a_zero_never_clears(self):
        # f vanishes at t0 = 0.37 on the circle (a, b), a point on no grid
        a, b, t0 = complex(0.6), complex(0.48, 0.64), 0.37
        w1, w2 = a * complex(math.cos(t0), math.sin(t0)), b * complex(math.cos(t0), math.sin(t0))
        g = TRIPLE * (Z1 + 3 * Z2) + Z2**2
        value = g.eval(GaussRational(Fraction(w1.real), Fraction(w1.imag)),
                       GaussRational(Fraction(w2.real), Fraction(w2.imag)))
        f = g - value
        t = np.array([t0])
        assert circle_modulus_oracle(f, a, b, t)[0] < 1e-12
        C = hopf.circle_coefficients(f, a, b)
        m, _ = circle_min_modulus(f, a, b)
        for upper in (m, 1.0, 100.0):
            lower, cells = hopf._certify_circle(C, 32, upper)
            assert lower <= hopf.TOL_CIRCLE
            assert cells < 10**5

    def test_search_ending_on_a_zero_circle_raises_with_best(self, monkeypatch):
        # z1^2 + z2^2 - (3 + 4i)/5 vanishes on the circle (1, 0) where
        # e^{2it} = (3 + 4i)/5, off every grid point
        f = Z1**2 + Z2**2 - GaussRational(Fraction(3, 5), Fraction(4, 5))
        counts = {"polish_steps": 0, "circles_scored": 0, "search_grid": 32}
        monkeypatch.setattr(hopf, "_search", lambda f, seed: (0.0, 0.0, counts))
        with pytest.raises(RotationSearchError) as info:
            find_rotation(f)
        best = info.value.best
        assert isinstance(best, HopfRotation)
        assert best.a == 1.0 and best.b == 0.0
        assert best.min_modulus_lower <= hopf.TOL_CIRCLE
        assert best.min_modulus_lower <= best.min_modulus


class TestBallRatioSup:
    def test_constant_is_one(self):
        rep = ball_ratio_sup(BiPoly.constant(1), samples=2000)
        assert rep.sup == 1.0
        assert rep.finite

    def test_z1_free_is_exactly_one(self):
        rep = ball_ratio_sup(Z2 - 2, samples=2000)
        assert rep.sup == 1.0
        assert rep.finite

    def test_zero_free_linear_bounded(self):
        rep = ball_ratio_sup(Z1 - 2, samples=20000, seed=1)
        assert rep.finite
        assert 1.0 < rep.sup < 2.0

    def test_deviation_profile_decreases(self):
        rep = ball_ratio_sup(Z1 - 2, samples=20000)
        prof = rep.deviation_profile
        assert all(b < a for a, b in zip(prof, prof[1:]))
        assert prof[-1] < 0.01

    def test_zero_on_axis_gets_flagged(self):
        # z1 vanishes on the z1 = 0 slice of the closure, where the dilated
        # denominator is identically zero
        rep = ball_ratio_sup(Z1, samples=4000)
        assert not rep.finite
        assert rep.flagged

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            ball_ratio_sup(Z1 - 2, r_grid=(0.4,), samples=100)

    def test_json_roundtrip(self):
        rep = ball_ratio_sup(Z1 - 2, samples=2000)
        blob = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert json.loads(blob)["kind"] == "ball_ratio_report"
