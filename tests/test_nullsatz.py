"""Classifier tests: intersection protocol, verdict aggregation, and the
factored-product oracle corpus on two domains."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

import nullsatz.nullsatz as ns
from nullsatz.bergman import DomainSpec
from nullsatz.decompose import IsolatedPoint, decompose_curve
from nullsatz.nullsatz import (
    CLOSED,
    DENSE,
    INCONCLUSIVE,
    INTERSECTS,
    MISSES,
    NEITHER,
    aggregate_verdicts,
    classify,
    intersect_curve,
    intersect_point,
)
from nullsatz.polyalg import BiPoly, GaussRational
from nullsatz.rootfind import TOL_RES, FiberPoly, solve_fibers

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)
BALL = DomainSpec.ball()
OMEGA11 = DomainSpec(p=1.0, q=1.0)


def pt(z1, z2):
    return IsolatedPoint(location=(complex(z1), complex(z2)), residuals=(0.0,))


class TestIntersectPoint:
    def test_origin_intersects(self):
        r = intersect_point(pt(0, 0), BALL)
        assert r.verdict == INTERSECTS
        assert r.min_phi == 0.0

    def test_outside_misses(self):
        r = intersect_point(pt(2, 0), BALL)
        assert r.verdict == MISSES
        assert r.min_phi == pytest.approx(4.0)

    def test_boundary_inconclusive(self):
        r = intersect_point(pt(1, 0), BALL)
        assert r.verdict == INCONCLUSIVE

    def test_domain_dependence(self):
        p = pt(0.6, 0.6)
        assert intersect_point(p, BALL).verdict == INTERSECTS  # 0.72 < 1
        assert intersect_point(p, OMEGA11).verdict == MISSES  # 1.2 > 1


class TestIntersectCurve:
    def test_vertical_line_inside(self):
        comp, = decompose_curve(2 * Z1 - 1)
        r = intersect_curve(comp, BALL)
        assert r.verdict == INTERSECTS
        assert r.min_phi == pytest.approx(0.25, abs=1e-12)
        assert abs(r.argmin[0] - 0.5) < 1e-9
        assert abs(r.argmin[1]) < 1e-12

    def test_vertical_line_outside(self):
        comp, = decompose_curve(Z1 - 2)
        r = intersect_curve(comp, BALL)
        assert r.verdict == MISSES
        assert r.min_phi == pytest.approx(4.0)

    def test_parabola_through_origin(self):
        comp, = decompose_curve(Z2**2 - Z1)
        r = intersect_curve(comp, BALL)
        assert r.verdict == INTERSECTS
        assert r.min_phi < 1e-6
        assert r.trace.get("continuation_verified")

    def test_hyperbola_misses_ball(self):
        comp, = decompose_curve(Z1 * Z2 - 1)
        r = intersect_curve(comp, BALL)
        assert r.verdict == MISSES
        # min |z1|^2 + 1/|z1|^2 over the closed disk is 2, on |z1| = 1
        assert r.min_phi == pytest.approx(2.0, abs=1e-6)

    def test_horizontal_plane_outside(self):
        comp, = decompose_curve(Z2 - 2)
        r = intersect_curve(comp, BALL)
        assert r.verdict == MISSES
        assert r.min_phi == pytest.approx(4.0, abs=1e-9)

    def test_refinement_never_flips_decided_verdicts(self):
        for poly in (Z2**2 - Z1, Z1 * Z2 - 1, Z2 - 2):
            comps = decompose_curve(poly)
            for comp in comps:
                coarse = intersect_curve(comp, BALL, pitch=0.04)
                fine = intersect_curve(comp, BALL, pitch=0.02)
                if coarse.verdict != INCONCLUSIVE:
                    assert fine.verdict == coarse.verdict


def seeded_curve(seed):
    """A curve z2^d + sum c_ab z1^a z2^b, d = 2 or 3, a + b <= d, with
    seeded Gaussian-rational c_ab in eighths of modulus at most 1."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    f = Z2**d
    for a in range(d + 1):
        for b in range(min(d - a, d - 1) + 1):
            re, im = (Fraction(int(k), 8) for k in rng.integers(-8, 9, 2))
            f = f + GaussRational(re, im) * Z1**a * Z2**b
    return f


def coefficient_scale(f, z1, z2):
    """max |c_ab| (1 + |z1|)^deg1 (1 + |z2|)^deg2, a bound on |f| near (z1, z2)."""
    return (max(abs(complex(c)) for c in f.terms.values())
            * (1 + abs(z1)) ** f.deg1 * (1 + abs(z2)) ** f.deg2)


class TestDescent:
    """The sheet descent after the grid scan, against independent oracles."""

    @pytest.mark.parametrize("f", [
        Z2**2 + GaussRational(Fraction(1, 2), Fraction(1, 3)) * Z1 * Z2 - Z1
        + GaussRational(Fraction(1, 5), Fraction(-1, 4)),
        Z2**3 - Z1 * Z2 + Z1**2 - Fraction(1, 2),
        Z2 - Fraction(1, 2) * (Z1 - GaussRational(Fraction(1, 3), Fraction(1, 5)))**2
        - GaussRational(Fraction(1, 4), Fraction(-1, 3)),
        (Z1 - GaussRational(Fraction(1, 4), Fraction(1, 8))) * Z2
        - GaussRational(Fraction(1, 3), Fraction(1, 6)),
    ], ids=["conic", "cubic", "graph", "hyperbola"])
    def test_interior_minimum_is_a_critical_point(self, f):
        # a smooth minimum of |z1|^2 + |z2|^2 on f = 0 inside the disk is a
        # critical point of the Euclidean distance problem: the gradient
        # (z1, z2) is normal to the curve, conj(z1) f_z2 = conj(z2) f_z1
        comp, = decompose_curve(f)
        r = intersect_curve(comp, BALL)
        z1, z2 = r.argmin
        assert abs(z1) < 0.9
        fz1, fz2 = f.deriv(1).eval(z1, z2), f.deriv(2).eval(z1, z2)
        scale = coefficient_scale(f, z1, z2)
        assert abs(fz2) > 1e-3 * scale  # a regular point of the projection
        assert abs(np.conj(z1) * fz2 - np.conj(z2) * fz1) <= 1e-8 * scale

    def test_minimum_on_the_rim(self):
        # on z2 = z1 + b, |z1|^2 + |z2|^2 is least at z1 = -b/2, outside the
        # disk; the Hessian is a multiple of the identity, so the minimum over
        # the disk is the rim point -b/|b|, at an angle no grid point has
        b = GaussRational(2, 1)
        comp, = decompose_curve(Z2 - Z1 - b)
        r = intersect_curve(comp, BALL)
        rim = -complex(b) / abs(complex(b))
        assert r.verdict == MISSES
        assert abs(r.argmin[0] - rim) < 1e-9
        assert abs(r.argmin[0]) <= 1.0
        assert r.min_phi == pytest.approx(1 + (abs(complex(b)) - 1) ** 2, rel=1e-12)
        assert r.trace["refine_steps"] < ns._DESCENT_STEPS / 4

    def test_minimum_on_the_z1_axis_of_omega11(self):
        # on z2 = w (z1 - c) with |w| > 1, |z1| + |z2| is least at the kink
        # z1 = c, where z2 = 0 and the gauge is |c|
        c = GaussRational(Fraction(1, 3), Fraction(1, 7))
        comp, = decompose_curve(Z2 - GaussRational(2, 1) * (Z1 - c))
        r = intersect_curve(comp, OMEGA11)
        assert r.verdict == INTERSECTS
        assert abs(r.argmin[1]) < 1e-10
        assert r.min_phi == pytest.approx(abs(complex(c)), abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_never_above_the_grid(self, seed, monkeypatch):
        # the descent starts from the grid argmin moved from the interpolated
        # sheet onto the exact curve, which may change phi in the last digits
        # (with p = 1 the minimum can sit on the grid point z1 = 0)
        steps = []
        descend = ns._descend

        def spy(*args):
            end = descend(*args)
            steps.append(end[2])
            return end

        monkeypatch.setattr(ns, "_descend", spy)
        f = seeded_curve(seed)
        for domain in (BALL, OMEGA11, OMEGA13):
            grid, terms = ns._disk_grid(ns.GRID_PITCH), ns._grid_terms(ns.GRID_PITCH, domain)
            for comp in decompose_curve(f):
                grid_phi, _ = ns._pruned_scan(FiberPoly(comp.defining), domain, grid, terms)
                r = intersect_curve(comp, domain)
                assert r.min_phi <= grid_phi * (1 + 1e-13)
                assert abs(r.argmin[0]) <= 1.0
        # one descent per sheet, and none ran into the cap
        assert len(steps) >= 3 and max(steps) < ns._DESCENT_STEPS

    def test_grid_and_terms_are_shared_and_read_only(self):
        grid, terms = ns._disk_grid(ns.GRID_PITCH), ns._grid_terms(ns.GRID_PITCH, OMEGA13)
        assert ns._disk_grid(ns.GRID_PITCH) is grid
        assert ns._grid_terms(ns.GRID_PITCH, OMEGA13) is terms
        assert terms.tobytes() == OMEGA13.z1_terms(np.array(grid)).tobytes()
        for shared in (grid, terms):
            with pytest.raises(ValueError):
                shared[0] = 0.0


def sheet_phis_loop(fiber, domain, z1s):
    """Reference: the scalar scan, one z1 sample at a time."""
    roots, conv = solve_fibers(fiber, z1s)
    best_phi = np.inf
    best = None
    for k, z1 in enumerate(z1s):
        r = roots[k][conv[k]]
        if r.size == 0:
            continue
        phis = domain.phi(z1, r)
        j = int(np.argmin(phis))
        if phis[j] < best_phi:
            best_phi = float(phis[j])
            best = (complex(z1), complex(r[j]))
    return best_phi, best


OMEGA13 = DomainSpec(p=1.0, q=3.0)
OMEGA31 = DomainSpec(p=3.0, q=1.0)


class TestSheetScan:
    def assert_same_as_loop(self, fiber, domain, z1s):
        got = ns._sheet_phis(fiber, domain, z1s, domain.z1_terms(z1s))
        want = sheet_phis_loop(fiber, domain, z1s)
        assert type(got[0]) is type(want[0]) is float
        assert got == want
        return want

    @pytest.mark.parametrize("domain", [BALL, OMEGA11, OMEGA13, OMEGA31])
    def test_ragged_fibers(self, domain):
        # the leading z2-coefficient z1 - 1/2 vanishes at a grid point inside
        # the unit disk, where the fiber drops to one root
        fiber = FiberPoly((Z1 - Fraction(1, 2)) * Z2**2 + Z2 - Z1)
        grid = ns._disk_grid(0.05)
        roots, _ = solve_fibers(fiber, grid)
        assert {r.size for r in roots} == {1, 2}
        self.assert_same_as_loop(fiber, domain, grid)

    @pytest.mark.parametrize("domain", [BALL, OMEGA11, OMEGA13, OMEGA31])
    def test_exact_ties(self, domain):
        # both sheets of z2^2 - 1/4 have the same gauge, and z1 and -z1 have
        # the same fiber and |z1|, so every row's gauges appear twice
        fiber = FiberPoly(Z2**2 - Fraction(1, 4))
        grid = ns._disk_grid(0.05)
        grid = grid[grid != 0]
        z1s = np.concatenate([grid, -grid])
        best_phi, best = self.assert_same_as_loop(fiber, domain, z1s)
        roots, _ = solve_fibers(fiber, z1s)
        phis = [domain.phi(z1, r) for z1, r in zip(z1s, roots)]
        at_min = [k for k, row in enumerate(phis) if row.min() == best_phi]
        assert len(at_min) >= 2
        assert all((phis[k] == best_phi).sum() == 2 for k in at_min)

    def test_real_component_on_the_full_grid(self):
        comp, = decompose_curve(Z2**3 - Z1 * Z2 + Z1**2 - Fraction(1, 2))
        fiber = FiberPoly(comp.defining)
        for domain in (BALL, OMEGA31):
            self.assert_same_as_loop(fiber, domain, ns._disk_grid(ns.GRID_PITCH))

    @pytest.mark.parametrize("domain", [BALL, OMEGA13, OMEGA31])
    def test_single_samples(self, domain):
        comp, = decompose_curve(Z2**2 - Z1 * Z2 + Z1**3 - Fraction(1, 3))
        fiber = FiberPoly(comp.defining)
        rng = np.random.default_rng(5)
        for z1 in rng.uniform(-1, 1, 150) + 1j * rng.uniform(-1, 1, 150):
            self.assert_same_as_loop(fiber, domain, np.array([z1]))

    def test_single_sample_and_empty_fibers(self):
        fiber = FiberPoly(Z1 * Z2 - Z1)  # vanishes identically at z1 = 0
        for z1s in (np.array([0.3 + 0.1j]), np.array([0j]), np.array([0j, 0.5 + 0j])):
            self.assert_same_as_loop(fiber, BALL, z1s)
        z1s = np.array([0j])
        assert ns._sheet_phis(fiber, BALL, z1s, BALL.z1_terms(z1s)) == (np.inf, None)


# curve components of the acceptance corpus: the parabola z2^2 = z1 and the
# line z2 = 2 of its NEITHER ideal, and the two lines z2 = +-z1
CORPUS_COMPONENTS = {
    f"{name}.c{k}": comp
    for name, poly in (("parabola_line", (Z2**2 - Z1) * (Z2 - 2)),
                       ("twolines", Z2**2 - Z1**2))
    for k, comp in enumerate(decompose_curve(poly))
}


@pytest.fixture
def scanned_sizes(monkeypatch):
    """The number of samples of every _sheet_phis call the test makes."""
    sizes = []
    scan = ns._sheet_phis

    def spy(fiber, domain, z1s, terms):
        sizes.append(z1s.size)
        return scan(fiber, domain, z1s, terms)

    monkeypatch.setattr(ns, "_sheet_phis", spy)
    return sizes


class TestPrunedScan:
    """The pruned scan returns exactly what the full grid scan does."""

    @staticmethod
    def assert_same_as_full(fiber, domain, z1s, sizes):
        got = ns._pruned_scan(fiber, domain, z1s, domain.z1_terms(z1s))
        solved = sizes[:]
        want = ns._sheet_phis(fiber, domain, z1s, domain.z1_terms(z1s))
        assert type(got[0]) is type(want[0]) is float
        assert got == want
        assert solved[0] == z1s[:: ns._COARSE_STRIDE].size
        assert all(n <= ns._SCAN_BLOCK for n in solved[1:])
        return want, sum(solved[1:])

    @pytest.mark.parametrize(
        "domain", [BALL, OMEGA11, OMEGA13], ids=["ball", "omega11", "omega13"]
    )
    @pytest.mark.parametrize("name", sorted(CORPUS_COMPONENTS))
    def test_corpus_components(self, name, domain, scanned_sizes):
        comp = CORPUS_COMPONENTS[name]
        grid = ns._disk_grid(ns.GRID_PITCH)
        (best_phi, _), fine = self.assert_same_as_full(
            FiberPoly(comp.defining), domain, grid, scanned_sizes
        )
        if best_phi > 1.0:  # the line z2 = 2 misses: only the root floor prunes
            assert fine < grid.size / 100
        else:
            assert fine < grid.size / 2

    def test_full_grid(self, scanned_sizes):
        comp, = decompose_curve(Z2**3 - Z1 * Z2 + Z1**2 - Fraction(1, 2))
        grid = ns._disk_grid(ns.GRID_PITCH)
        for domain in (BALL, OMEGA13):
            scanned_sizes.clear()
            _, fine = self.assert_same_as_full(
                FiberPoly(comp.defining), domain, grid, scanned_sizes
            )
            assert fine < grid.size

    @pytest.mark.parametrize("domain", [BALL, OMEGA31], ids=["ball", "omega31"])
    def test_minimum_on_the_bound_and_tied(self, domain, scanned_sizes):
        # on z2 = 0 the gauge is |z1|^p alone, so the minimum sits exactly on
        # the pruning bound; c, -c and conj(c) tie across rows.  c is the
        # smallest |z1| at which numpy's array power rounds above its scalar
        # power, if there is one, so only the scalar power keeps c
        grid = ns._disk_grid(ns.GRID_PITCH)
        grid = grid[grid != 0]
        mod = np.abs(grid)
        above = grid[mod**domain.p > domain.z1_terms(grid)]
        pool = above if above.size else grid
        c = pool[np.argmin(np.abs(pool))]
        z1s = np.concatenate([[c, -c, np.conj(c)], grid[mod > abs(c)]])
        (best_phi, best), fine = self.assert_same_as_full(
            FiberPoly(Z2), domain, z1s, scanned_sizes
        )
        assert best_phi == domain.z1_terms(np.array([c]))[0]
        assert best == (c, 0j)
        assert fine == 3

    @pytest.mark.parametrize("block", [1, 2, 16])
    def test_small_blocks(self, block, scanned_sizes, monkeypatch):
        # the scans above fit one block; here the kept samples span several,
        # and the three tied samples of the ball case fall in different ones.
        # scanned_sizes holds the coarse pass, the blocks and the full scan
        monkeypatch.setattr(ns, "_SCAN_BLOCK", block)
        self.test_full_grid(scanned_sizes)
        assert len(scanned_sizes) > 1 + 2 + 1
        scanned_sizes.clear()
        self.test_minimum_on_the_bound_and_tied(BALL, scanned_sizes)
        assert len(scanned_sizes) == 1 + -(-3 // block) + 1


def random_rows(seed):
    """Seeded coefficient rows a_0..a_m: degrees 1-8, moduli 1e-6..1e6, and
    the rows that stress the root floor."""
    rng = np.random.default_rng(seed)

    def cplx(size):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z * 10.0 ** rng.uniform(-6, 6, size)

    rows = []
    for m in range(1, 9):
        for _ in range(6):
            rows.append(cplx(m + 1))
        # on the positive real axis every other term opposes a_0, so the
        # positive root sits on Cauchy's radius itself
        mag = np.abs(cplx(m + 1))
        rows.append(np.concatenate([[mag[0]], -mag[1:]]).astype(np.complex128))
        row = cplx(m + 1)
        row[0] = 0.0  # a root at z2 = 0
        rows.append(row)
        row = cplx(m + 1)
        row[-1] = 1e-13 * np.abs(row).max()  # stripped by solve_fibers
        rows.append(row)
        roots = cplx(m)
        roots[-1] = roots[0]  # a double root
        rows.append(np.poly(roots)[::-1] * 10.0 ** rng.uniform(-6, 6))
        rows.append(np.concatenate([cplx(1), np.zeros(m)]))  # no z2 terms
    return rows


def accept_radius(row):
    """The smallest |z2| at which |p(z2)| <= TOL_RES * (1 + max|a_k|) can hold
    by Cauchy's bound, in 40-digit arithmetic; 0 when |a_0| is at most that."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 40
    mag = [abs(mp.mpc(c.real, c.imag)) for c in row]
    a0 = mag[0] - mp.mpf(TOL_RES) * (1 + max(mag))
    if a0 <= 0:
        return 0.0
    if not any(mag[1:]):
        return np.inf
    lo, hi = mp.mpf(0), min((a0 / a) ** (mp.mpf(1) / k) for k, a in enumerate(mag) if k and a)
    for _ in range(200):
        mid = (lo + hi) / 2
        if sum(a * mid**k for k, a in enumerate(mag) if k) < a0:
            lo = mid
        else:
            hi = mid
    return lo


class TestRootFloor:
    """_root_floor bounds every root the fiber solve reports as converged."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_below_every_converged_root(self, seed):
        for row in random_rows(seed):
            floor = ns._root_floor(row[None, :])[0]
            roots, conv = solve_fibers(FiberPoly(row[None, :]), np.zeros(1))
            assert np.all(np.abs(roots[0][conv[0]]) >= floor), row

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_below_the_accepted_residual_radius(self, seed):
        # _aberth_sweep accepts any z2 with |p(z2)| <= TOL_RES * (1 + max|a_k|),
        # so the floor must stay below the exact radius where that can start
        for row in random_rows(seed):
            floor = ns._root_floor(row[None, :])[0]
            exact = accept_radius(row)
            assert floor <= exact, row
            if 0 < exact < np.inf:  # and no looser than the closed-form start
                assert floor >= float(exact) * (1 - 1e-8) / (row.size - 1), row

    def test_zero_constant_term_and_no_z2_terms(self):
        rows = np.array([[0, 1, 1], [1e-11, 1, 0], [2, 0, 0], [0, 0, 0]], dtype=np.complex128)
        floor = ns._root_floor(rows)
        assert floor[0] == floor[1] == floor[3] == 0.0
        assert floor[2] == np.inf


class TestAggregation:
    def reference(self, vs):
        if not vs:
            return DENSE
        if INCONCLUSIVE in vs:
            return INCONCLUSIVE
        hits = vs.count(INTERSECTS)
        if hits == len(vs):
            return CLOSED
        if hits == 0:
            return DENSE
        return NEITHER

    def test_exhaustive_table(self):
        opts = [INTERSECTS, MISSES, INCONCLUSIVE]
        for k in range(5):
            for combo in itertools.product(opts, repeat=k):
                got, _ = aggregate_verdicts(list(combo))
                assert got == self.reference(list(combo)), combo

    def test_order_independence(self):
        vs = [INTERSECTS, MISSES, INTERSECTS]
        for perm in itertools.permutations(vs):
            assert aggregate_verdicts(list(perm))[0] == NEITHER


HALF = Fraction(1, 2)

# (generators, expected verdict) hand-checked against the component
# intersection criterion; every case must resolve on both test domains
ORACLE_CORPUS = [
    ([Z1 - HALF], CLOSED),
    ([Z1 - 2], DENSE),
    ([(Z1 - 2) * (Z1 - HALF)], NEITHER),
    ([Z1, Z2], CLOSED),
    ([Z1 - 2, Z2], DENSE),
    ([(Z2**2 - Z1) * (Z2 - 2), (Z2**2 - Z1) * (Z1 - 3)], NEITHER),
    ([Z2**2 - Z1], CLOSED),
    ([Z1 * Z2 - 1], DENSE),
    ([(Z1 - 2) * (Z2 - Z1)], NEITHER),
    ([Z2 - 2], DENSE),
]


def gauss(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


# NEITHER line-times-conic products on Omega(1, 1) that answer INCONCLUSIVE:
# cases r1.c2 of perfbench's curves seed 503 and r0.c2 of seed 68
KNOWN_INCONCLUSIVE = {
    "curves503.r1c2": Z2**3 + gauss("1/2", -1) * Z1 * Z2**2 + gauss("-1/2", "7/2") * Z2**2
    + gauss("1/2", 1) * Z1**2 * Z2 + gauss("3/4", 1) * Z1 * Z2
    + gauss("17/64", "-27/16") * Z2 + gauss("5/4") * Z1**3 + gauss("-5/2", 1) * Z1**2
    + gauss("-199/128", "209/64") * Z1 + gauss("-7/32", "119/128"),
    "curves68.r0c2": Z2**3 + gauss(1, "-1/4") * Z1 * Z2**2 + gauss(0, "13/4") * Z2**2
    + gauss(-1, "1/2") * Z1**2 * Z2 + gauss("-1/16", "-1/4") * Z1 * Z2
    + gauss("27/32", "-1/32") * Z2 + gauss("-7/8", "3/4") * Z1**3 + gauss("-7/4", "-7/2") * Z1**2
    + gauss("-5/128", "-3/128") * Z1 + gauss("7/64", "-7/64"),
}


class TestClassify:
    @pytest.mark.parametrize("domain", [BALL, OMEGA11], ids=["ball", "omega11"])
    @pytest.mark.parametrize("gens,want", ORACLE_CORPUS)
    def test_factored_oracle_corpus(self, gens, want, domain):
        verdict = classify(gens, domain, with_certificate=False)
        assert verdict.overall == want

    def test_closed_witness_invariants(self):
        gens = [Z1 - HALF]
        v = classify(gens, BALL, with_certificate=False)
        assert v.overall == CLOSED
        w1, w2 = v.witness
        assert max(abs(g.eval(w1, w2)) for g in gens) < 1e-8
        assert BALL.phi(w1, w2) < 1.0 - 1e-6

    def test_point_witness_for_origin_ideal(self):
        v = classify([Z1, Z2], BALL, with_certificate=False)
        assert v.overall == CLOSED
        assert abs(v.witness[0]) < 1e-8 and abs(v.witness[1]) < 1e-8

    def test_dense_principal_attaches_certificate(self):
        v = classify([Z1 - 2], BALL)
        assert v.overall == DENSE
        assert v.certificate is not None
        assert v.certificate.status == "DENSE"

    def test_dense_non_principal_has_no_certificate(self):
        v = classify([Z1 - 2, Z2], BALL)
        assert v.overall == DENSE
        assert v.certificate is None

    def test_empty_variety_is_dense(self):
        v = classify([Z2, Z2 - 3], BALL, with_certificate=False)
        assert v.overall == DENSE
        assert "empty" in v.justification

    def test_scaling_invariance(self):
        for gens in ([Z1 - 2], [Z1 - HALF], [(Z1 - 2) * (Z1 - HALF)]):
            a = classify(gens, BALL, with_certificate=False)
            b = classify([g * 7 for g in gens], BALL, with_certificate=False)
            assert a.overall == b.overall

    def test_decomposition_error_becomes_inconclusive(self):
        a, b, c = Z2, Z2 - 1, Z2 - 2
        v = classify([a * b, b * c, c * a], BALL)
        assert v.overall == INCONCLUSIVE
        assert "decomposition failed" in v.justification

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            classify([], BALL)

    def test_json_report(self):
        v = classify([(Z1 - 2) * (Z1 - HALF)], BALL, with_certificate=False)
        blob = json.dumps(v.to_json_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["overall"] == NEITHER
        assert len(back["components"]) == 2
        assert back["trace"]["pitch"] == 0.01

    def test_unit_cofactor_leaves_no_isolated_point(self):
        # f itself is a generator, so V(I) is the line z1 = 3 alone; the
        # common zero (1/4, 1/4) of the other cofactors is not in V(I)
        quarter = Fraction(1, 4)
        f = Z1 - 3
        v = classify([f * (Z2 - quarter), f * (Z1 - quarter), f], BALL)
        assert v.overall == DENSE
        assert v.decomposition.points == ()

    def test_descent_stays_in_the_disk(self):
        # from its best grid point Nelder-Mead used to walk to z1 = 1.31 +
        # 0.09i, near a triple root in z2, where the polish left the
        # component and the verdict was INCONCLUSIVE
        f = (Z2**3 + GaussRational(-1, Fraction(-1, 2)) * Z1**3
             + GaussRational(0, -2) * Z1**2 + GaussRational(1, -2) * Z1
             + GaussRational(0, Fraction(15, 2)))
        v = classify([f], BALL, with_certificate=False)
        assert v.overall == DENSE
        r, = v.results
        assert r.verdict == MISSES
        assert abs(r.argmin[0]) <= 1.0

    def test_polish_off_the_component_is_inconclusive(self, monkeypatch):
        # Newton from z2 = 2 lands on the line's sheet, off the conic; judging
        # that point made the conic MISS at 2.25 and the verdict DENSE
        f = (Z2**2 - Z1 + Fraction(1, 4)) * (Z2 - 2)
        assert classify([f], OMEGA11, with_certificate=False).overall == NEITHER
        newton = ns._newton_z2
        monkeypatch.setattr(
            ns, "_newton_z2", lambda coeffs, z2, iters=12: newton(coeffs, 2.0 + 0j, iters)
        )
        v = classify([f], OMEGA11, with_certificate=False)
        assert v.overall == INCONCLUSIVE
        conic = [r for r in v.results if r.component.deg_z2 == 2]
        assert [r.verdict for r in conic] == [INCONCLUSIVE]
        assert conic[0].trace["note"] == "polish left the component"

    @pytest.mark.parametrize("f", [KNOWN_INCONCLUSIVE[k] for k in sorted(KNOWN_INCONCLUSIVE)],
                             ids=sorted(KNOWN_INCONCLUSIVE))
    def test_far_base_point_curves_are_never_wrong(self, f):
        # a line times a conic on Omega(1, 1), NEITHER by construction; the
        # base point sits far out (|c| ~ 80 and ~ 280), and the conic's
        # interpolated sheets miss the exact ones by more than ONCOMP_TOL
        # near its minimum, so an answer other than NEITHER must be
        # INCONCLUSIVE, never CLOSED or DENSE
        v = classify([f], OMEGA11, with_certificate=False)
        assert v.overall in (NEITHER, INCONCLUSIVE)
        assert len(v.results) == 2

    @pytest.mark.parametrize(
        "f",
        [Z2**6 + Z1**5 * Z2 + Z1**5 - 10, Z2**7 + Z1**6 * Z2 + Z1**6 - 100],
        ids=["deg6", "deg7"],
    )
    def test_root_find_failure_becomes_inconclusive(self, f):
        # Aberth fails on the degree-30 and degree-42 discriminants of these
        # DENSE curves; the degree-7 one spans more than 1e12 in coefficient
        # magnitude, which an exact UniPoly may do
        v = classify([f], BALL, with_certificate=False)
        assert v.overall in (DENSE, INCONCLUSIVE)
        if v.overall == INCONCLUSIVE:
            assert v.justification.startswith("decomposition failed")
