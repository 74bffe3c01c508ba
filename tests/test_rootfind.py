"""Root finder and tracker tests.

numpy's companion-matrix solver (np.roots) serves as the independent oracle
for the Aberth iteration; tracking permutations are frozen from hand analytic
continuation of small radicals.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from nullsatz import rootfind
from nullsatz.polyalg import BiPoly, UniPoly
from nullsatz.rootfind import (
    SEPARATION_FACTOR,
    FiberPoly,
    RootFindError,
    TrackedPath,
    TrackError,
    _fiber_at,
    _min_separation,
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


class TestSolveFibers:
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

    def test_fiber0_roundtrip(self):
        fp = FiberPoly(Z2**2 - Z1)
        start = all_roots(fp.coeffs_at(0.3 + 0j))
        path = circle_samples(0.0, 0.3, 64)
        tp = track(fp, path, fiber0=start)
        assert np.allclose(tp.start, start.as_array())


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
