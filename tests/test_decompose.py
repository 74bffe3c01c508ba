"""Curve decomposition and point solving, checked against hand-computable
varieties and the invariants the monodromy construction must satisfy."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import nullsatz.decompose as dec
import nullsatz.polyalg as polyalg
from nullsatz.bergman import DomainSpec
from nullsatz.decompose import (
    CurveComponent,
    DecomposeError,
    IsolatedPoint,
    _eval_rows,
    _z2_rows,
    decompose_curve,
    decompose_ideal,
    zero_dim_solve,
)
from nullsatz.nullsatz import classify
from nullsatz.polyalg import BiPoly, GaussRational, content_pp_z2
from nullsatz.rootfind import _UnionFind

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)

# polynomial -> expected number of irreducible components
COMPONENT_COUNTS = [
    (Z2**2 - Z1, 1),
    (Z2**2 - Z1**2, 2),
    ((Z2**2 - Z1) * (Z2 + 2), 2),
    ((Z2 - Z1) * (Z2 + Z1) * (Z2 - 2 * Z1), 3),
    (Z2**3 - Z1**2, 1),
]


def orbit_sizes(comps):
    return sorted(len(c.orbit) if not c.vertical else 0 for c in comps)


class TestComponentCounts:
    @pytest.mark.parametrize("poly,count", COMPONENT_COUNTS)
    def test_counts(self, poly, count):
        comps = decompose_curve(poly)
        assert len(comps) == count

    @pytest.mark.parametrize("poly,count", COMPONENT_COUNTS)
    def test_invariant_under_resolution_doubling(self, poly, count):
        coarse = decompose_curve(poly, resolution=1)
        fine = decompose_curve(poly, resolution=2)
        assert len(fine) == len(coarse) == count
        assert orbit_sizes(fine) == orbit_sizes(coarse)

    @pytest.mark.parametrize("poly,count", COMPONENT_COUNTS)
    def test_invariant_under_base_rerandomization(self, poly, count):
        sizes = None
        for seed in (0, 1, 2):
            comps = decompose_curve(poly, seed=seed)
            assert len(comps) == count
            if sizes is None:
                sizes = orbit_sizes(comps)
            else:
                assert orbit_sizes(comps) == sizes

    def test_degree_one_z2_factor_is_single_component(self):
        comps = decompose_curve(Z2 + 2)
        assert len(comps) == 1
        assert comps[0].deg_z2 == 1
        assert comps[0].orbit == (0,)

    def test_leading_coefficient_root_is_a_branch_point(self):
        # sheets +-1/sqrt(z1) exchange around z1 = 0, which is invisible to
        # the discriminant roots alone when the fiber degenerates there
        comps = decompose_curve(Z1 * Z2**2 - 1)
        assert len(comps) == 1
        assert comps[0].deg_z2 == 2


@pytest.fixture
def loop_perms(monkeypatch):
    """The sheet permutation of every closed loop decompose tracks, in order."""
    perms = []
    track = dec.track

    def spy(fp, path, fiber0=None):
        tp = track(fp, path, fiber0=fiber0)
        # a loop closes up and goes somewhere; a leg to an interpolation node
        # can have length zero
        if abs(path[-1] - path[0]) <= 1e-12 < np.abs(path - path[0]).max():
            perms.append(tp.loop_permutation())
        return tp

    monkeypatch.setattr(dec, "track", spy)
    return perms


def replay(perms, m):
    """Orbit count after each loop when the loops' exchanges are joined."""
    uf = _UnionFind(m)
    counts = []
    for perm in perms:
        for i, j in enumerate(perm):
            uf.union(i, j)
        counts.append(len(uf.groups()))
    return counts, uf.groups()


def branch_count(poly):
    return len(dec._branch_candidates(content_pp_z2(poly)[1]))


class TestMonodromyExit:
    """The loops stop once every sheet is in one orbit, and only then."""

    @pytest.mark.parametrize(
        "poly", [Z2**2 - Z1**3 + 1, Z2**3 - 3 * Z2 + Z1**3, Z2**4 - Z1 * Z2 + Z1**4 - 1]
    )
    def test_irreducible_stops_after_the_joining_loop(self, poly, loop_perms):
        comp, = decompose_curve(poly)
        counts, _ = replay(loop_perms, poly.deg2)
        assert counts[-1] == 1 and all(c > 1 for c in counts[:-1])
        assert len(loop_perms) < branch_count(poly)
        assert comp.orbit == tuple(range(poly.deg2))

    @pytest.mark.parametrize("poly,count", [pc for pc in COMPONENT_COUNTS if pc[1] > 1])
    def test_reducible_tracks_every_loop(self, poly, count, loop_perms):
        comps = decompose_curve(poly)
        _, orbits = replay(loop_perms, poly.deg2)
        assert len(loop_perms) == branch_count(poly)
        assert sorted(c.orbit for c in comps) == orbits
        assert len(orbits) == count

    def test_degree_one_factor_tracks_no_loop(self, loop_perms):
        # z1 z2 - 1 has a branch candidate at z1 = 0, its leading coefficient's root
        assert branch_count(Z1 * Z2 - 1) == 1
        comp, = decompose_curve(Z1 * Z2 - 1)
        assert loop_perms == []
        assert comp.orbit == (0,)


class TestVerticalLines:
    def test_z2_free_factor_splits_into_lines(self):
        comps = decompose_curve(Z1**2 - 1)
        assert len(comps) == 2
        assert all(c.vertical for c in comps)
        roots = sorted(c.base_point.real for c in comps)
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-10)

    def test_mixed_factor_splits_content(self):
        # z1 * (z2 - 1): the line z1 = 0 does not show up in any fiber
        comps = decompose_curve(Z1 * (Z2 - 1))
        vertical = [c for c in comps if c.vertical]
        graphs = [c for c in comps if not c.vertical]
        assert len(vertical) == 1 and len(graphs) == 1
        assert abs(vertical[0].base_point) < 1e-10
        assert graphs[0].deg_z2 == 1

    def test_vertical_witness_on_line(self):
        comps = decompose_curve(2 * Z1 - 1)
        assert len(comps) == 1
        (w1, w2), = comps[0].witnesses
        assert w1 == pytest.approx(0.5)
        assert abs(comps[0].parent.eval(w1, w2)) < 1e-10


class TestComponentEvidence:
    def test_witness_residuals(self):
        for poly, _ in COMPONENT_COUNTS:
            for comp in decompose_curve(poly):
                for w1, w2 in comp.witnesses:
                    assert abs(comp.parent.eval(w1, w2)) < 1e-6

    def test_orbits_partition_sheets(self):
        comps = decompose_curve((Z2**2 - Z1) * (Z2 + 2))
        seen = sorted(i for c in comps for i in c.orbit)
        assert seen == [0, 1, 2]

    def test_defining_matches_parent_for_irreducible(self):
        comp, = decompose_curve(Z2**2 - Z1)
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((20, 4))
        for x1, y1, x2, y2 in pts:
            z1, z2 = complex(x1, y1), complex(x2, y2)
            got = comp.eval_defining(z1, z2)
            want = z2**2 - z1
            assert abs(got - want) < 1e-8 * (1 + abs(want))

    def test_reconstruction_product(self):
        # product of the orbit polynomials recovers the factor at fresh points
        f = (Z2 - Z1) * (Z2 + Z1) * (Z2 - 2 * Z1)
        comps = decompose_curve(f)
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((20, 4))
        for x1, y1, x2, y2 in pts:
            z1, z2 = complex(x1, y1), complex(x2, y2)
            prod = 1.0 + 0j
            for c in comps:
                prod *= c.eval_defining(z1, z2)
            want = f.eval(z1, z2)
            assert abs(prod - want) < 1e-6 * (1 + abs(want))

    def test_deterministic_given_seed(self):
        a = decompose_curve((Z2**2 - Z1) * (Z2 + 2), seed=3)
        b = decompose_curve((Z2**2 - Z1) * (Z2 + 2), seed=3)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.orbit == cb.orbit
            assert ca.witnesses == cb.witnesses
            assert np.array_equal(ca.defining, cb.defining)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            decompose_curve(BiPoly.constant(3))


class TestZeroDimSolve:
    def test_origin(self):
        pts = zero_dim_solve([Z1, Z2])
        assert len(pts) == 1
        z1, z2 = pts[0].location
        assert abs(z1) < 1e-10 and abs(z2) < 1e-10
        assert max(pts[0].residuals) < 1e-10

    def test_parabola_meets_line(self):
        pts = zero_dim_solve([Z2**2 - Z1, Z2 + 2])
        assert len(pts) == 1
        z1, z2 = pts[0].location
        assert z1 == pytest.approx(4.0, abs=1e-8)
        assert z2 == pytest.approx(-2.0, abs=1e-8)

    def test_inconsistent_system_is_empty(self):
        assert zero_dim_solve([Z2, Z2 - 3]) == []

    def test_tangential_intersection(self):
        pts = zero_dim_solve([Z2**2 - Z1, Z2**2 + Z1])
        assert len(pts) == 1
        z1, z2 = pts[0].location
        assert abs(z1) < 1e-8 and abs(z2) < 1e-8

    def test_two_solutions(self):
        # z2^2 = z1 and z1 = 1 meet at (1, 1) and (1, -1)
        pts = zero_dim_solve([Z2**2 - Z1, Z1 - 1])
        locs = sorted((p.location[1].real for p in pts))
        assert locs == pytest.approx([-1.0, 1.0], abs=1e-8)

    def test_nonconstant_gcd_rejected(self):
        f = Z2**2 - Z1
        with pytest.raises(DecomposeError):
            zero_dim_solve([f, f * (Z2 + 1)])

    def test_pairwise_shared_factors_structural_error(self):
        a, b, c = Z2, Z2 - 1, Z2 - 2
        with pytest.raises(DecomposeError):
            zero_dim_solve([a * b, b * c, c * a])

    def test_needs_two_generators(self):
        with pytest.raises(ValueError):
            zero_dim_solve([Z1])

    def test_unit_in_system_gives_empty(self):
        assert zero_dim_solve([Z1, BiPoly.constant(2)]) == []


class TestRowEvaluator:
    """_eval_rows on _z2_rows(g) must give BiPoly.eval's floats bit for bit."""

    @staticmethod
    def _points(rng):
        pts = [(0j, 0j), (-0.0 + 0j, complex(-1.5, -0.0)), (1 + 0j, -1 + 0j)]
        for _ in range(12):
            pts.append(
                (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                 complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            )
        return pts

    def _check(self, g, rng):
        rows = _z2_rows(g)
        for x1, x2 in self._points(rng):
            got, want = _eval_rows(rows, x1, x2), g.eval(x1, x2)
            assert got == want and repr(got) == repr(want), (g, x1, x2)

    def test_seeded_random_polynomials(self):
        rng = random.Random("eval-rows")
        for _ in range(60):
            g = BiPoly(
                {
                    (rng.randint(0, 6), rng.randint(0, 5)): GaussRational(
                        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                    )
                    for _ in range(rng.randint(1, 8))
                }
            )
            self._check(g, rng)

    def test_sparse_rows_and_constants(self):
        rng = random.Random("eval-rows-sparse")
        cases = [
            BiPoly.zero(),
            BiPoly.constant(GaussRational(Fraction(-3, 7), Fraction(2, 3))),
            Z1**5 - 2,  # zero middle coefficients in the only row
            Z2**4 + GaussRational(0, 1),  # empty z2-rows 1..3
            Z1**3 * Z2**3 - Z2 + Fraction(1, 3),  # empty row 2, sparse row 3
        ]
        rows = [_z2_rows(g) for g in cases]
        assert rows[0] == [] and rows[3][1] == rows[3][2] == []
        for g in cases:
            self._check(g, rng)


class TestDecomposeIdeal:
    def test_principal_has_no_point_part(self):
        dec = decompose_ideal([(Z2**2 - Z1) * (Z2 + 2)])
        assert len(dec.curve_components) == 2
        assert dec.points == ()
        assert dec.residual_generators == ()
        assert dec.gcd_poly is not None

    def test_point_only_ideal(self):
        dec = decompose_ideal([Z1 - 2, Z2])
        assert dec.curve_components == ()
        assert dec.gcd_poly is None
        assert len(dec.points) == 1
        z1, z2 = dec.points[0].location
        assert z1 == pytest.approx(2.0, abs=1e-10)
        assert abs(z2) < 1e-10

    def test_origin_ideal(self):
        dec = decompose_ideal([Z1, Z2])
        assert len(dec.points) == 1

    def test_point_on_curve_is_filtered(self):
        # residual zeros that land back on the gcd curve are not new
        # components of the variety
        line = 2 * Z1 - 1
        dec = decompose_ideal([line * (Z2 - 2), line * (Z2 + Z1 - Fraction(5, 2))])
        assert len(dec.curve_components) == 1
        assert dec.curve_components[0].vertical
        assert dec.points == ()

    def test_unit_cofactor_means_no_points(self):
        # g = z1 - 3 lies in the ideal, so V(I) = V(g) however the other
        # cofactors meet
        g = Z1 - 3
        h1, h2 = Z2 - Fraction(1, 4), Z1 - Fraction(1, 4)
        dec = decompose_ideal([g * h1, g * h2, g])
        assert len(dec.curve_components) == 1
        assert dec.points == ()
        assert dec.residual_generators == (h1, h2)

    def test_point_off_curve_is_kept(self):
        line = 2 * Z1 - 1
        dec = decompose_ideal([line * Z2, line * (Z2 - Z1 + 2)])
        assert len(dec.curve_components) == 1
        assert len(dec.points) == 1
        z1, z2 = dec.points[0].location
        assert z1 == pytest.approx(2.0, abs=1e-8)
        assert abs(z2) < 1e-8

    def test_point_path_takes_one_gcd(self, monkeypatch):
        # decompose_ideal hands its coprime cofactors straight to the point
        # solver, which does not take their gcd again
        real = polyalg.gcd_many
        calls = []

        def spy(polys):
            calls.append(polys)
            return real(polys)

        monkeypatch.setattr(dec, "gcd_many", spy)
        monkeypatch.setattr(polyalg, "gcd_many", spy)
        for gens in ([Z1 - 2, Z2], [Z2**2 - Z1, Z2 + 2, Z1 - 4]):
            calls.clear()
            verdict = classify(gens, DomainSpec.ball())
            assert len(verdict.results) == 1
            assert len(calls) == 1

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            decompose_ideal([BiPoly.zero()])

    def test_json_roundtrip(self):
        dec = decompose_ideal([(Z2**2 - Z1) * (Z2 + 2)])
        blob = json.dumps(dec.to_json_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["kind"] == "variety_decomposition"
        assert len(back["curve_components"]) == 2

    def test_byte_identical_given_seed(self):
        gens = [(Z2**2 - Z1) * (Z2 + 2)]
        a = json.dumps(decompose_ideal(gens, seed=5).to_json_dict(), sort_keys=True)
        b = json.dumps(decompose_ideal(gens, seed=5).to_json_dict(), sort_keys=True)
        assert a == b
