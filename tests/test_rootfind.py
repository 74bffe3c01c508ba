"""Root finder and tracker tests.

numpy's companion-matrix solver (np.roots) serves as the independent oracle
for the Aberth iteration; tracking permutations are frozen from hand analytic
continuation of small radicals.
"""

from __future__ import annotations

import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from nullsatz import rootfind
from nullsatz.bergman import DomainSpec, eval_grid
from nullsatz.nullsatz import classify
from nullsatz.polyalg import BiPoly, GaussRational, UniPoly
from nullsatz.rootfind import (
    MAX_SWEEPS,
    SEPARATION_FACTOR,
    FiberPoly,
    RootFindError,
    TrackedPath,
    TrackError,
    _aberth_batch,
    _fiber_at,
    _horner,
    _horner2,
    _min_separation,
    _nearest_pairing,
    _step_ok,
    all_roots,
    circle_samples,
    loop_samples,
    segment_samples,
    solve_fibers,
    track,
)

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)


def sorted_roots(arr):
    arr = np.asarray(arr, dtype=np.complex128)
    return arr[np.lexsort((arr.imag, arr.real))]


def assert_same_multiset(a, b, tol=1e-8):
    a, b = sorted_roots(a), sorted_roots(b)
    assert a.shape == b.shape
    # greedy match after sorting can misalign near-ties; use pairwise check
    used = np.zeros(len(b), dtype=bool)
    for x in a:
        d = np.abs(b - x)
        d[used] = np.inf
        j = int(np.argmin(d))
        assert d[j] < tol, f"{x} unmatched (closest {b[j]}, dist {d[j]:.2e})"
        used[j] = True


class TestAllRoots:
    def test_quadratic_pm_i(self):
        rs = all_roots(UniPoly([1, 0, 1]))
        assert_same_multiset(rs.roots, [1j, -1j], tol=1e-12)

    def test_fiber_of_parabola_at_four(self):
        f = Z2**2 - Z1
        row = FiberPoly(f).coeffs_at(4.0 + 0j)
        rs = all_roots(row)
        assert_same_multiset(rs.roots, [2.0, -2.0], tol=1e-12)

    def test_wilkinson_three(self):
        # (z-1)(z-2)(z-3) = -6 + 11z - 6z^2 + z^3
        rs = all_roots(np.array([-6.0, 11.0, -6.0, 1.0]))
        assert_same_multiset(rs.roots, [1.0, 2.0, 3.0], tol=1e-10)

    def test_residual_invariant(self):
        rng = random.Random(77)
        for _ in range(50):
            deg = rng.randint(1, 8)
            coeffs = np.array(
                [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(deg)]
                + [complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))]
            )
            rs = all_roots(coeffs)
            bound = 1e-10 * (1.0 + np.max(np.abs(coeffs)))
            assert rs.max_residual() <= bound

    def test_matches_numpy_roots_oracle(self):
        rng = random.Random(99)
        for _ in range(60):
            deg = rng.randint(2, 9)
            coeffs = np.array(
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(deg + 1)]
            )
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] += 0.5
            ours = all_roots(coeffs).roots
            oracle = np.roots(coeffs[::-1])
            assert_same_multiset(ours, oracle, tol=1e-6)

    def test_double_root_clustered(self):
        # (z-1)^2 (z+2)
        rs = all_roots(np.array([2.0, -3.0, 0.0, 1.0]))
        assert rs.degree == 3
        assert len(rs.roots) == 3
        assert rs.clusters, "double root should be flagged as a cluster"
        members = rs.clusters[0]
        assert len(members) == 2
        vals = [rs.roots[i] for i in members]
        assert all(abs(v - 1.0) < 1e-6 for v in vals)
        assert vals[0] == vals[1]

    def test_degree_one(self):
        rs = all_roots(np.array([3.0, -2.0]))
        assert rs.roots == (1.5 + 0j,)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            all_roots(np.array([2.0]))

    def test_rejects_degenerate_lead(self):
        with pytest.raises(ValueError):
            all_roots(np.array([1.0, 1.0, 1e-15]))

    def test_roots_sorted_deterministically(self):
        coeffs = np.array([-6.0, 11.0, -6.0, 1.0])
        a = all_roots(coeffs).roots
        b = all_roots(coeffs).roots
        assert a == b
        assert list(a) == sorted(a, key=lambda z: (z.real, z.imag))


def list_horner(coeffs, x):
    """The list-form Horner kernel before it ran in place, frozen as the reference."""
    acc = coeffs[-1] + 0 * x
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def list_horner2(C, z1, z2):
    z1 = np.asarray(z1, dtype=np.complex128)
    z2 = np.asarray(z2, dtype=np.complex128)
    return list_horner([list_horner(C[:, b], z1) for b in range(C.shape[1])], z2)


def wide_complex(rng, *shape):
    """Complex entries whose moduli spread over 1e-6 .. 1e6."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * 10.0 ** rng.uniform(-6.0, 6.0, shape)


def same_bits(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).shape == np.asarray(want).shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestHorner:
    """The in-place kernels give the list-form kernel's bits on every layout."""

    def test_stacked_batches_match_list_form(self):
        rng = np.random.default_rng(11)
        # B = m = 1 included: numpy multiplies a one-element array in place
        # by another loop than a fresh product, whose last bit can differ
        for n, B, m in ((1, 1, 1), (3, 1, 1), (4, 1, 5), (6, 3, 1), (7, 4, 9), (12, 8, 33)):
            for _ in range(20):
                P = wide_complex(rng, n + 1, B, 1)
                x = wide_complex(rng, B, m)
                same_bits(_horner(P, x), list_horner(P, x))
                # the FiberPoly layout: k polynomials at (m,) points
                Q = wide_complex(rng, n + 1, B, 1)
                z = wide_complex(rng, m)
                same_bits(_horner(Q, z), list_horner(Q, z))

    def test_scalar_and_zero_d_points_match_list_form(self):
        rng = np.random.default_rng(12)
        for n in (0, 1, 2, 5, 9):
            for _ in range(30):
                a = wide_complex(rng, n + 1)
                s = complex(wide_complex(rng, 1)[0])
                same_bits(_horner(a, s), list_horner(a, s))
                z0 = np.asarray(wide_complex(rng, 1)[0])
                same_bits(_horner(a, z0), list_horner(a, z0))
                # Python complex rows and points
                rows = [[complex(v) for v in wide_complex(rng, k)] for k in (1, 3, n + 1)]
                x1, x2 = complex(rng.standard_normal(), 1.0), complex(-0.5, rng.standard_normal())
                got = _horner([_horner(r, x1) for r in rows], x2)
                same_bits(got, list_horner([list_horner(r, x1) for r in rows], x2))

    def test_horner2_matches_list_form(self):
        rng = np.random.default_rng(13)
        for deg1, deg2, m in ((0, 0, 4), (2, 0, 7), (0, 3, 7), (3, 2, 1), (4, 6, 2), (6, 5, 101)):
            for _ in range(15):
                C = wide_complex(rng, deg1 + 1, deg2 + 1)
                z1, z2 = wide_complex(rng, m), wide_complex(rng, m)
                same_bits(_horner2(C, z1, z2), list_horner2(C, z1, z2))
                w1, w2 = complex(wide_complex(rng, 1)[0]), complex(wide_complex(rng, 1)[0])
                same_bits(_horner2(C, w1, w2), list_horner2(C, w1, w2))
                same_bits(_horner2(C, w1, z2), list_horner2(C, w1, z2))

    def test_read_only_inputs_are_not_written(self):
        rng = np.random.default_rng(14)
        P, x = wide_complex(rng, 5, 3, 1), wide_complex(rng, 3, 8)
        C, z1, z2 = wide_complex(rng, 4, 4), wide_complex(rng, 50), wide_complex(rng, 50)
        arrays = (P, x, C, z1, z2)
        before = [a.copy() for a in arrays]
        for a in arrays:
            a.flags.writeable = False
        _horner(P, x)
        _horner(P[:, 0, 0], z1)
        _horner2(C, z1, z2)
        _horner2(C, z1[:1], z2[:1])
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()

    def test_eval_grid_holds_one_pass_at_a_time(self):
        n = 100_000
        rng = np.random.default_rng(15)
        z1, z2 = wide_complex(rng, n) * 1e-6, wide_complex(rng, n) * 1e-6
        f = sum(
            (GaussRational(a + 1, b - 2) * Z1**a * Z2**b for a in range(4) for b in range(7)),
            BiPoly.zero(),
        )
        assert f.deg2 == 6
        tracemalloc.start()
        try:
            eval_grid(f, z1, z2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the list form held all 7 z1 passes of 1.6 MB each (9 arrays at its
        # peak); the streaming form holds the sum, one pass and one temporary
        assert peak < 4 * z1.nbytes


def aberth_rows(seed: int) -> np.ndarray:
    """Degree-8 rows that finish at different sweeps, or never.

    Gaussian rows converge in a few sweeps; rows with coefficients spread
    over 1e-6..1e6, a triple root, z^8 + 1e25 z + 1 (its roots lie far
    inside the starting circle, so it needs more than MAX_SWEEPS sweeps and a
    restart) and z^8 + 1e30 z + 1 (overflows and never converges) take
    longer.
    """
    rng = np.random.default_rng(seed)
    degree = 8

    def gauss():
        return rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)

    rows = [gauss() for _ in range(6)]
    rows += [gauss() * 10.0 ** rng.uniform(-6, 6, degree + 1) for _ in range(4)]
    triple = [0.5 - 1j] * 3 + list(rng.normal(size=degree - 3))
    rows.append(np.poly(triple)[::-1])
    for big in (1e25, 1e30):
        rows.append(np.array([1.0, big] + [0.0] * (degree - 2) + [1.0]))
    return np.array(rows, dtype=np.complex128)


@pytest.fixture
def sweep_rows(monkeypatch):
    """The row count of every Aberth sweep that runs while the test does."""
    counts = []
    sweep = rootfind._aberth_sweep

    def spy(P, dP, x, *args):
        counts.append(x.shape[0])
        return sweep(P, dP, x, *args)

    monkeypatch.setattr(rootfind, "_aberth_sweep", spy)
    return counts


class TestAberthBatch:
    @pytest.mark.parametrize("seed", [8, 9])
    def test_stacked_rows_equal_rows_alone(self, seed, sweep_rows):
        rows = aberth_rows(seed)
        stacked = _aberth_batch(rows)
        # the working set shrank while stragglers kept sweeping
        assert max(sweep_rows) == rows.shape[0] > min(sweep_rows)
        assert len(sweep_rows) > MAX_SWEEPS
        conv = stacked[2].all(axis=1)
        assert conv[:-1].all() and not conv[-1]
        for i, row in enumerate(rows):
            alone = _aberth_batch(row[None, :])
            for got, want in zip(stacked, alone):
                assert got[i].tobytes() == want[0].tobytes()

    def test_restart_row_converges(self, sweep_rows):
        row = aberth_rows(seed=8)[-2]
        roots, _, ok = _aberth_batch(row[None, :])
        assert len(sweep_rows) > MAX_SWEEPS  # the first attempt ran out
        assert ok.all()
        np.testing.assert_allclose(
            np.sort(np.abs(roots[0])), np.sort(np.abs(np.roots(row[::-1]))), rtol=1e-9
        )

    def test_random_batches_equal_rows_alone(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            degree, size = int(rng.integers(2, 9)), int(rng.integers(2, 40))
            scale = 10.0 ** rng.uniform(-6, 6, size=(size, 1))
            rows = (rng.normal(size=(size, degree + 1))
                    + 1j * rng.normal(size=(size, degree + 1))) * scale
            stacked = _aberth_batch(rows)
            for i, row in enumerate(rows):
                alone = _aberth_batch(row[None, :])
                for got, want in zip(stacked, alone):
                    assert got[i].tobytes() == want[0].tobytes()

    def test_overflow_is_silent(self):
        # z^8 + 10^30 z + 1 overflows inside the sweeps and the polish
        exact = UniPoly([1, 10**30] + [0] * 6 + [1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, ok = _aberth_batch(exact.to_complex()[None, :])
            with pytest.raises(RootFindError):
                all_roots(exact)
        assert not ok.all()


class TestSolveFibers:
    def test_far_fiber_overflow_is_silent(self):
        # the z1 root of g2 sits near 6.7e297 i, where the Horner steps of
        # coeff_rows overflow; under the suite's RuntimeWarning policy an
        # unguarded overflow would raise
        g1 = (Z1**2 * Z2**2 * GaussRational(-3, 1) + Z1 * Z2**2 * GaussRational(1, 1)
              + Z1 * Z2)
        g2 = Z1 * GaussRational(0, Fraction(3, 4)) + GaussRational(5 * 10**297, Fraction(3, 4))
        alpha = complex(-g2.coeff(0, 0) / g2.coeff(1, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = FiberPoly(g1).coeff_rows(np.array([alpha]))
            solve_fibers(FiberPoly(g1), np.array([alpha]))
            verdict = classify([g1, g2], DomainSpec.ball())
        assert not np.isfinite(rows).all()
        assert verdict.overall == "DENSE"

    def test_parabola_grid(self):
        fp = FiberPoly(Z2**2 - Z1)
        z1s = np.array([4.0, 9.0, -1.0], dtype=np.complex128)
        roots, conv = solve_fibers(fp, z1s)
        assert_same_multiset(roots[0], [2, -2], tol=1e-9)
        assert_same_multiset(roots[1], [3, -3], tol=1e-9)
        assert_same_multiset(roots[2], [1j, -1j], tol=1e-9)
        assert all(c.all() for c in conv)

    def test_degree_drop_strips_escaping_root(self):
        # z1*z2 - 1: above z1=0 the root escapes; fiber must come back empty
        fp = FiberPoly(Z1 * Z2 - 1)
        roots, _ = solve_fibers(fp, np.array([0.0 + 0j]))
        assert roots[0].size == 0
        roots, _ = solve_fibers(fp, np.array([2.0 + 0j]))
        assert_same_multiset(roots[0], [0.5], tol=1e-10)

    def test_batch_matches_single(self):
        rng = random.Random(3)
        f = (Z2**2 - Z1) * (Z2 + 2) + Z1 * Z2
        fp = FiberPoly(f)
        z1s = np.array(
            [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(50)]
        )
        batch, conv = solve_fibers(fp, z1s)
        assert all(c.all() for c in conv)
        for i, z1 in enumerate(z1s):
            single = all_roots(fp.coeffs_at(z1)).roots
            assert_same_multiset(batch[i], single, tol=1e-7)


    def test_stack_equals_one_call_per_z1(self):
        # the leading z2-coefficient (z1 - 1)(z1 + 2) vanishes at z1 = 1 and
        # z1 = -2, and the next one, z1 - 1, at z1 = 1 too: the stack mixes
        # effective degrees 3, 2 and 1
        f = (Z1 - 1) * (Z1 + 2) * Z2**3 + (Z1 - 1) * Z2**2 + (Z1**2 + 1) * Z2 + Z1 - 3
        rng = random.Random(29)
        z1s = np.array(
            [1.0, -2.0]
            + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(37)]
            + [1.0, 0.5j],
            dtype=np.complex128,
        )
        # and a float matrix whose leading z2-coefficient 1 - z1^2 vanishes
        # at z1 = 1 and z1 = -1
        nrng = np.random.default_rng(29)
        C = nrng.normal(size=(3, 5)) + 1j * nrng.normal(size=(3, 5))
        C[:, -1] = [1.0, 0.0, -1.0]
        w1s = np.concatenate([[1.0, -1.0], nrng.normal(size=20) + 0j])
        for fp, xs, sizes in ((FiberPoly(f), z1s, {1, 2, 3}), (FiberPoly(C), w1s, {3, 4})):
            roots, conv = solve_fibers(fp, xs)
            assert {r.size for r in roots} == sizes
            for i in range(xs.size):
                alone, alone_conv = solve_fibers(fp, xs[i : i + 1])
                assert roots[i].tobytes() == alone[0].tobytes()
                assert conv[i].tobytes() == alone_conv[0].tobytes()


class TestPathHelpers:
    def test_segment_endpoints(self):
        s = segment_samples(0, 1 + 1j, 10)
        assert s[0] == 0 and s[-1] == 1 + 1j and len(s) == 11

    def test_circle_closes(self):
        c = circle_samples(1.0, 0.5, 32)
        assert abs(c[0] - c[-1]) < 1e-14
        assert np.allclose(np.abs(c - 1.0), 0.5)

    def test_loop_closes_at_base(self):
        loop = loop_samples(2.0 + 0j, 0.0 + 0j, 0.5)
        assert abs(loop[0] - (2.0 + 0j)) < 1e-14
        assert abs(loop[-1] - (2.0 + 0j)) < 1e-14
        assert np.min(np.abs(loop)) >= 0.5 - 1e-9

    def test_loop_rejects_base_inside(self):
        with pytest.raises(ValueError):
            loop_samples(0.1 + 0j, 0.0 + 0j, 0.5)


class TestTrack:
    def test_sqrt_monodromy_is_transposition(self):
        # z2^2 = z1 around z1 = 0: sheets swap
        path = circle_samples(0.0, 0.3, 64)
        tp = track(Z2**2 - Z1, path)
        assert tp.loop_permutation() == (1, 0)

    def test_split_conic_is_identity(self):
        # z2^2 = z1^2: sheets are +-z1, single valued
        path = circle_samples(0.0, 0.3, 64)
        tp = track(Z2**2 - Z1**2, path)
        assert tp.loop_permutation() == (0, 1)

    def test_constant_fiber_identity(self):
        path = circle_samples(0.0, 0.3, 64)
        tp = track((Z2 - 1) * (Z2 - 2), path)
        assert tp.loop_permutation() == (0, 1)

    def test_loop_then_reverse_is_identity(self):
        path = circle_samples(0.0, 0.4, 48)
        full = np.concatenate([path, path[::-1][1:]])
        tp = track(Z2**2 - Z1, full)
        assert tp.loop_permutation() == (0, 1)

    def test_permutation_invariant_under_refinement(self):
        f = Z2**3 - Z1**2
        for n in (48, 96, 192):
            path = circle_samples(0.0, 0.5, n)
            perm = track(f, path).loop_permutation()
            if n == 48:
                base = perm
            else:
                assert perm == base
        # a 3-cycle: z2 = z1^(2/3) sheets advance by 2 positions
        seen = {0}
        j = base[0]
        while j != 0:
            seen.add(j)
            j = base[j]
        assert len(seen) == 3

    def test_coarse_step_gets_refined(self):
        # one long step: roots move ~1.3 while separation is ~2, over threshold
        path = np.array([1.0 + 0j, -1.0 + 0.4j])
        tp = track(Z2**2 - Z1, path)
        assert tp.refinements > 0
        jumps = np.abs(np.diff(tp.fibers, axis=0))
        for k in range(tp.fibers.shape[0] - 1):
            sep = abs(tp.fibers[k][0] - tp.fibers[k][1])
            assert jumps[k].max() < 0.5 * sep

    def test_rows_stay_continuous(self):
        path = circle_samples(0.0, 0.35, 96)
        tp = track(Z2**2 - Z1, path)
        jumps = np.abs(np.diff(tp.fibers, axis=0)).max()
        seps = [
            np.abs(f[0] - f[1]) for f in tp.fibers
        ]
        assert jumps < 0.5 * min(seps)

    def test_error_when_path_hits_branch_point(self):
        # straight segment through z1 = 0 where the two sheets collide
        path = segment_samples(-0.5 + 0j, 0.5 + 0j, 16)
        with pytest.raises(TrackError):
            track(Z2**2 - Z1, path)

    def test_error_when_lead_degenerates(self):
        # z1*z2 - 1: leading coefficient vanishes at z1 = 0
        path = segment_samples(1.0 + 0j, -1.0 + 0j, 16)
        with pytest.raises(TrackError):
            track(Z1 * Z2 - 1, path)

    def test_open_path_rejects_loop_permutation(self):
        path = segment_samples(1.0 + 0j, 2.0 + 0j, 8)
        tp = track(Z2**2 - Z1, path)
        with pytest.raises(ValueError):
            tp.loop_permutation()

    def test_ambiguous_loop_end_raises(self):
        # both end roots lie nearest start root 0
        tp = TrackedPath(
            samples=np.array([0.5, 0.7, 0.5], dtype=complex),
            fibers=np.array([[0.0, 1.0], [0.1, 0.9], [0.1, 0.2]], dtype=complex),
        )
        with pytest.raises(TrackError):
            tp.loop_permutation()

    def test_fiber0_roundtrip(self):
        fp = FiberPoly(Z2**2 - Z1)
        start = all_roots(fp.coeffs_at(0.3 + 0j))
        path = circle_samples(0.0, 0.3, 64)
        tp = track(fp, path, fiber0=start)
        assert np.allclose(tp.start, start.as_array())


class TestNearestPairing:
    def test_matches_assignment_under_the_separation_rule(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(400):
            m = int(rng.integers(2, 9))
            cur = rng.normal(size=m) + 1j * rng.normal(size=m)
            perm = rng.permutation(m)
            radius = 0.5 * _min_separation(cur) * rng.uniform(0.0, 1.0, m)
            moved = cur + radius * np.exp(2j * np.pi * rng.uniform(size=m))
            new = np.empty(m, dtype=complex)
            new[perm] = moved  # new[perm[i]] continues cur[i]
            if not _step_ok(cur, moved):
                continue
            cost = np.abs(cur[:, None] - new[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert np.array_equal(_nearest_pairing(cost), cols[np.argsort(rows)])
            checked += 1
        assert checked >= 100

    def test_shared_pick_is_rejected(self):
        cost = np.array([[0.1, 1.0, 2.0], [0.2, 1.0, 2.0], [2.0, 1.0, 0.1]])
        assert _nearest_pairing(cost) is None
        assert _nearest_pairing(cost[[0, 2]][:, [0, 2]]).tolist() == [0, 1]


def cold_track(fp, path, max_bisections=48):
    """Reference tracker: an Aberth solve and an assignment at every step."""
    cur = _fiber_at(fp, path[0])
    samples, fibers, refinements = [path[0]], [cur], 0
    for seg_end_idx in range(1, path.size):
        stack = [(path[seg_end_idx - 1], path[seg_end_idx], 0)]
        while stack:
            a, b, depth = stack.pop()
            new = _fiber_at(fp, b)
            cost = np.abs(cur[:, None] - new[None, :])
            rows, cols = linear_sum_assignment(cost)
            matched = new[cols[np.argsort(rows)]]
            moved = float(np.max(np.abs(cur - matched)))
            sep = min(_min_separation(cur), _min_separation(new))
            if moved >= SEPARATION_FACTOR * sep:
                assert depth < max_bisections
                mid = 0.5 * (a + b)
                stack.append((mid, b, depth + 1))
                stack.append((a, mid, depth + 1))
                refinements += 1
                continue
            cur = matched
            samples.append(b)
            fibers.append(cur)
    return TrackedPath(np.array(samples), np.array(fibers), refinements)


def assigned(prev, roots):
    """roots reordered to pair with prev by a distance-minimal assignment."""
    rows, cols = linear_sum_assignment(np.abs(prev[:, None] - roots[None, :]))
    return roots[cols[np.argsort(rows)]]


def assert_separation_rule(tp):
    for k in range(tp.fibers.shape[0] - 1):
        cur, new = tp.fibers[k], tp.fibers[k + 1]
        sep = min(_min_separation(cur), _min_separation(new))
        assert np.abs(new - cur).max() < SEPARATION_FACTOR * sep


# (curve, centres of loops around its branch points): z2^2 - z1 and
# z2^3 - z1^2 branch at 0; the product also near 1, where its factors
# cross (z1 = 1) and the second factor branches (z1 = 2 sqrt 2 - 2)
WARM_CURVES = {
    "sqrt": (Z2**2 - Z1, (0.0,)),
    "cusp": (Z2**3 - Z1**2, (0.0,)),
    "product": ((Z2**2 - Z1) * (Z2**2 + Z1 * Z2 - Z1 + 1), (0.0, 1.0)),
}


class TestWarmTracker:
    @pytest.mark.parametrize("name", sorted(WARM_CURVES))
    def test_end_is_the_cold_fiber_by_assignment(self, name):
        f, branch = WARM_CURVES[name]
        fp = FiberPoly(f)
        paths = [
            segment_samples(0.3 + 0.2j, 1.7 - 0.4j, 12),
            segment_samples(-0.8 + 0j, -0.1 + 0.9j, 5),
            circle_samples(branch[0], 0.4, 48),
            loop_samples(2.5 + 0.5j, branch[-1], 0.3, 40, 12),
        ]
        for path in paths:
            tp = track(fp, path)
            want = assigned(tp.fibers[-2], _fiber_at(fp, path[-1]))
            assert tp.end.tobytes() == want.tobytes()
            assert tp.cold_solves >= 2  # the start and the last sample

    @pytest.mark.parametrize("name", sorted(WARM_CURVES))
    @pytest.mark.parametrize("n", (48, 96, 192))
    def test_loop_permutations_match_cold_tracker(self, name, n):
        f, branch = WARM_CURVES[name]
        fp = FiberPoly(f)
        loops = [circle_samples(b, 0.4, n) for b in branch]
        loops.append(circle_samples(0.5, 1.2, n))
        loops.append(loop_samples(-1.5 + 0.5j, branch[-1], 0.35, n, n // 4))
        for path in loops:
            warm, cold = track(fp, path), cold_track(fp, path)
            assert warm.loop_permutation() == cold.loop_permutation()
            assert warm.refinements == cold.refinements
            assert warm.samples.tobytes() == cold.samples.tobytes()
            assert warm.end.tobytes() == cold.end.tobytes()

    def test_failed_corrector_falls_back_and_bisects(self, monkeypatch):
        # from z1 = 1 to 10^4 the roots +-1 move to +-100: Newton from the
        # previous fiber cannot get there in a few steps
        calls = []
        newton = rootfind._newton_fiber

        def spy(*args, **kwargs):
            out = newton(*args, **kwargs)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(rootfind, "_newton_fiber", spy)
        path = np.array([1.0 + 0j, 1e4 + 0j])
        tp = track(Z2**2 - Z1, path)
        assert False in calls and True in calls
        assert tp.refinements > 0
        assert tp.cold_solves > 2
        assert tp.samples[-1] == path[-1]
        assert_separation_rule(tp)
        assert np.allclose(np.sort(tp.end.real), [-100.0, 100.0])
