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
    NEWTON_ITERS,
    POINT_CLUSTER,
    TOL_POINT,
    CurveComponent,
    DecomposeError,
    IsolatedPoint,
    _distinct_roots,
    _eval_stack,
    _row_stack,
    _solve_points,
    decompose_curve,
    decompose_ideal,
    zero_dim_solve,
)
from nullsatz.nullsatz import classify
from nullsatz.polyalg import BiPoly, GaussRational, content_pp_z2, resultant_z2
from nullsatz.rootfind import FiberPoly, _horner, _UnionFind, solve_fibers

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


def _random_bipoly(rng, max1=6, max2=5, terms=8):
    return BiPoly(
        {
            (rng.randint(0, max1), rng.randint(0, max2)): GaussRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            )
            for _ in range(rng.randint(1, terms))
        }
    )


class TestRowEvaluator:
    """_eval_stack on a _row_stack must give BiPoly.eval's floats bit for bit."""

    @staticmethod
    def _points(rng):
        pts = [
            (0j, 0j),
            (-0.0 + 0j, complex(-1.5, -0.0)),
            (complex(-0.0, -0.0), complex(-0.0, -0.0)),
            (1 + 0j, -1 + 0j),
        ]
        for _ in range(12):
            pts.append(
                (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                 complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            )
        return pts

    def _check(self, polys, rng):
        pts = self._points(rng)
        x1 = np.array([p[0] for p in pts])
        x2 = np.array([p[1] for p in pts])
        vr, vi = _eval_stack(*_row_stack(polys), x1, x2)
        assert vr.shape == vi.shape == (len(polys), len(pts))
        for k, g in enumerate(polys):
            for i, (w1, w2) in enumerate(pts):
                got, want = complex(vr[k, i], vi[k, i]), g.eval(w1, w2)
                assert got == want and repr(got) == repr(want), (g, w1, w2)

    def test_seeded_random_polynomials(self):
        rng = random.Random("eval-rows")
        for _ in range(60):
            self._check([_random_bipoly(rng)], rng)

    def test_sparse_rows_and_constants(self):
        rng = random.Random("eval-rows-sparse")
        cases = [
            BiPoly.zero(),
            BiPoly.constant(GaussRational(Fraction(-3, 7), Fraction(2, 3))),
            Z1**5 - 2,  # zero middle coefficients in the only row
            Z2**4 + GaussRational(0, 1),  # empty z2-rows 1..3
            Z1**3 * Z2**3 - Z2 + Fraction(1, 3),  # empty row 2, sparse row 3
        ]
        for g in cases:
            self._check([g], rng)

    def test_padded_stacks_of_mixed_shapes(self):
        # one stack pads every polynomial to the widest z1-row and the most
        # z2-rows; the zero polynomial and empty rows sit among full ones
        rng = random.Random("eval-rows-stacks")
        fixed = [
            BiPoly.zero(),
            Z2**4 + GaussRational(0, 1),
            Z1**3 * Z2**3 - Z2 + Fraction(1, 3),
            BiPoly.constant(GaussRational(Fraction(-3, 7), Fraction(2, 3))),
        ]
        for _ in range(20):
            polys = [_random_bipoly(rng, rng.randint(0, 6), rng.randint(0, 5))
                     for _ in range(rng.randint(1, 5))]
            polys.insert(rng.randint(0, len(polys)), rng.choice(fixed))
            self._check(polys, rng)


# ---------------------------------------------------------------------------
# The scalar point solver that the batched one replaced, kept as its
# reference: one Python Newton loop per (z1, z2) candidate, one fiber solve
# per z1 root.  `exits` records which branch and which Newton exit each
# candidate took, so the parity test can show it covered them all.
# ---------------------------------------------------------------------------


def _ref_z2_rows(g):
    return [[complex(c) for c in u.coeffs] for u in g.z2_coeffs()]


def _ref_eval_rows(rows, x1, x2):
    if not rows:
        return 0j
    return _horner([_horner(r, x1) if r else 0j for r in rows], x2)


def _ref_newton_refine(system, z0, exits):
    A, B, A1, A2, B1, B2 = system
    z = np.array([complex(z0[0]), complex(z0[1])])
    exit = "iters"
    for _ in range(NEWTON_ITERS):
        x1, x2 = complex(z[0]), complex(z[1])
        F = np.array([_ref_eval_rows(A, x1, x2), _ref_eval_rows(B, x1, x2)])
        J = np.array(
            [
                [_ref_eval_rows(A1, x1, x2), _ref_eval_rows(A2, x1, x2)],
                [_ref_eval_rows(B1, x1, x2), _ref_eval_rows(B2, x1, x2)],
            ]
        )
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if abs(det) < 1e-14 * (1.0 + np.abs(J).max()) ** 2:
            exit = "guard"
            break
        step = np.linalg.solve(J, F)
        z = z - step
        if np.abs(step).max() < 1e-15 * (1.0 + np.abs(z).max()):
            exit = "small step"
            break
    exits.append(exit if np.isfinite(z).all() else "nonfinite")
    return complex(z[0]), complex(z[1])


def _ref_solve_points(gens, exits):
    if any(g.is_constant for g in gens):
        return []
    z2free = sorted((g for g in gens if g.deg2 == 0), key=lambda g: g.deg1)
    candidates = []
    if z2free:
        exits.append("z2-free source")
        src = z2free[0]
        candidates = _distinct_roots(src.as_unipoly_z1())
        other = next(
            (g for g in gens if g.deg2 >= 1),
            next(g for g in gens if g is not src),
        )
        pair = (src, other)
    else:
        exits.append("resultant")
        pair = None
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                res = resultant_z2(gens[i], gens[j])
                if not res.is_zero:
                    pair = (gens[i], gens[j])
                    if res.degree >= 1:
                        candidates = _distinct_roots(res)
                    break
            if pair is not None:
                break
        assert pair is not None
    slicers = [(FiberPoly(g) if g.deg2 >= 1 else None, g) for g in gens]
    gA, gB = pair
    system = [
        _ref_z2_rows(g)
        for g in (gA, gB, gA.deriv(1), gA.deriv(2), gB.deriv(1), gB.deriv(2))
    ]
    gen_rows = [_ref_z2_rows(g) for g in gens]
    accepted = []
    for alpha in candidates:
        beta_cands = None
        for fpg, g in sorted(slicers, key=lambda t: t[1].deg2):
            if fpg is None:
                continue
            roots, _ = solve_fibers(fpg, np.array([alpha]))
            if roots[0].size:
                beta_cands = list(roots[0])
                break
        if beta_cands is None:
            exits.append("beta = 0")
            beta_cands = [0.0 + 0j]
        for beta in beta_cands:
            zt = _ref_newton_refine(system, (alpha, beta), exits)
            resid = tuple(abs(_ref_eval_rows(rows, *zt)) for rows in gen_rows)
            if max(resid) < TOL_POINT:
                if all(
                    max(abs(zt[0] - p.location[0]), abs(zt[1] - p.location[1]))
                    > POINT_CLUSTER
                    for p in accepted
                ):
                    accepted.append(IsolatedPoint(location=zt, residuals=resid))
    accepted.sort(
        key=lambda p: (
            p.location[0].real,
            p.location[0].imag,
            p.location[1].real,
            p.location[1].imag,
        )
    )
    return accepted


def _gauss8(rng):
    return GaussRational(Fraction(rng.randint(-12, 12), 8), Fraction(rng.randint(-12, 12), 8))


def _grid_system(rng, k, m, z2_free):
    """Generators of the grid {(a_i, b_j)} pulled back by z -> M z, with
    M = [[1, beta], [gamma, 1]]; beta = 0 makes the first one z2-free.
    Otherwise the first is rewritten by a multiple of the second, and a
    third generator sometimes joins."""
    beta = GaussRational(0) if z2_free else GaussRational(Fraction(rng.randint(1, 4), 8), 1)
    gamma = GaussRational(Fraction(rng.randint(-4, 4), 8), Fraction(rng.randint(1, 4), 8))
    h1, h2 = BiPoly.constant(1), BiPoly.constant(1)
    for _ in range(k):
        h1 = h1 * (Z1 + Z2 * beta - _gauss8(rng))
    for _ in range(m):
        h2 = h2 * (Z1 * gamma + Z2 - _gauss8(rng))
    if z2_free:
        return [h1, h2]
    h1 = h1 + (Z1 * _gauss8(rng) + _gauss8(rng)) * h2
    return [h1, h2] if rng.random() < 0.5 else [h1, h2, Z1 * h1 + Z2 * h2]


# edge cases the seeded grids rarely reach, each named by what it exercises
EDGE_SYSTEMS = [
    # z1 = 1 has an empty fiber (beta = 0); there the Jacobian is singular
    [Z1**2 - Z1, (Z1 - 1) * Z2 + Z1],
    # the first slicer drops out at z1 = 1 and the second serves it
    [Z1**2 - 1, (Z1 - 1) * Z2, Z2**2 + Z1 - 1],
    # the slice root 3/2 starts Newton on z2^2, which halves it 30 times
    [Z2**2, 2 * Z2 - 3, Z1 - 1],
    # d/dz2 of the second generator overflows to inf at the fiber roots
    [Z1 - 1, Z2**6 * 10**306 - 10**308],
    # a tangential intersection and a multiple root: the guard stops Newton
    [Z2**2 - Z1, Z2**2 + Z1],
]


class TestBatchedPointSolve:
    """The batched _solve_points against the scalar solver it replaced."""

    @staticmethod
    def _systems():
        rng = random.Random("point-parity")
        systems = list(EDGE_SYSTEMS)
        for _ in range(30):
            k, m = rng.randint(1, 4), rng.randint(1, 3)
            systems.append(_grid_system(rng, k, m, z2_free=rng.random() < 0.4))
        return systems

    def test_points_equal_the_scalar_solver_bit_for_bit(self):
        exits = []
        n_points = 0
        for gens in self._systems():
            # the scalar solver's numpy scalars warned on overflow; the
            # batched one must stay silent under the RuntimeWarning policy
            with np.errstate(all="ignore"):
                want = _ref_solve_points(gens, exits)
            got = _solve_points(gens)
            assert [repr(p) for p in got] == [repr(p) for p in want], gens
            n_points += len(want)
        assert n_points > 100
        assert set(exits) == {
            "z2-free source", "resultant", "beta = 0",
            "guard", "small step", "iters", "nonfinite",
        }

    def test_one_fiber_solve_per_slicer(self, monkeypatch):
        real = dec.solve_fibers
        calls = []

        def spy(fp, z1s):
            calls.append(len(z1s))
            return real(fp, z1s)

        monkeypatch.setattr(dec, "solve_fibers", spy)
        rng = random.Random("point-spy")
        gens = _grid_system(rng, 4, 3, z2_free=True)
        assert len(_solve_points(gens)) == 12
        assert calls == [4]  # the slicer serves all four z1 roots at once
        calls.clear()
        # the first slicer (z1 - 1) z2 serves z1 = -1 only; the second
        # gets the one root left
        pts = _solve_points([Z1**2 - 1, (Z1 - 1) * Z2, Z2**2 + Z1 - 1])
        assert [p.location for p in pts] == [(1 + 0j, 0j)]
        assert calls == [2, 1]


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

    @pytest.mark.parametrize("gens", [
        # a generator coefficient beyond the float range
        [Z1 - 1, Z2 * 10**309 - 1],
        # generators in range whose resultant has a 10^400 coefficient
        [Z2 * 10**200 + Z1 - 1, Z2**2 * 10**200 + Z1],
    ], ids=["generator", "resultant"])
    def test_float_overflow_is_a_decompose_error(self, gens):
        with pytest.raises(DecomposeError, match="overflows double precision"):
            decompose_ideal(gens)
        verdict = classify(gens, DomainSpec.ball())
        assert verdict.overall == "INCONCLUSIVE"
        assert "overflows double precision" in verdict.justification

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
