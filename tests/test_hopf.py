"""Rotation search and ball dilation-ratio tests."""

import json
import math

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
from nullsatz.polyalg import BiPoly

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)

FAMILY = [Z1, Z2, Z1 * Z2, Z1**2 + Z2**2 - 4]


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
        a = find_rotation(Z1 * Z2, seed=11)
        b = find_rotation(Z1 * Z2, seed=11)
        assert a.a == b.a and a.b == b.b and a.min_modulus == b.min_modulus

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
