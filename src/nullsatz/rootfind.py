"""Univariate root finding and root-path tracking.

Two numeric workhorses live here: an Aberth–Ehrlich simultaneous iteration
(single polynomial or vectorized batches of equal degree), and a
predictor–corrector continuation that transports the root fiber of
f(z1, z2) = 0 in z2 along a path of z1 values.  Each step first tries a warm
corrector: a few batched Newton steps on every sheet, starting from the
previous fiber, which keep the rows aligned.  When Newton does not converge,
or the corrected step breaks the separation rule, the step falls back to a
cold Aberth solve whose roots are paired with the previous fiber's
nearest ones.  The tracker refuses to jump: when two roots pick the same
partner, or the pairing moves a root by half the minimum root separation or
more, the parameter step is bisected.
The last sample of every path is always solved cold, so the end fiber does
not depend on the corrector.

A batch sweeps only its rows that are still moving: a row whose roots
have all converged is frozen, so once half of the working rows are frozen
they are written back and retired.  Rows never interact, so every row
comes out bit for bit as it would when solved alone.

Everything is deterministic for fixed inputs; no RNG is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyalg import BiPoly, UniPoly

TOL_RES = 1e-10
MAX_SWEEPS = 200
CLUSTER_RADIUS = 1e-7
LEAD_DEGENERACY = 1e-12
SEPARATION_FACTOR = 0.5
MAX_BISECTIONS = 48
NEWTON_STEPS = 4


class RootFindError(RuntimeError):
    """Aberth iteration failed to converge; carries the best iterate."""

    def __init__(self, msg: str, best: np.ndarray, residuals: np.ndarray):
        super().__init__(msg)
        self.best = best
        self.residuals = residuals


class TrackError(RuntimeError):
    """Root continuation could not maintain an unambiguous pairing."""


def _as_coeff_array(f) -> np.ndarray:
    if isinstance(f, UniPoly):
        return f.to_complex()
    a = np.asarray(f, dtype=np.complex128).ravel()
    if a.size == 0:
        a = np.zeros(1, dtype=np.complex128)
    return a


def _horner(coeffs: np.ndarray, x) -> np.ndarray:
    """Horner evaluation: ascending coefficients on axis 0, broadcast against x.

    coeffs[k] multiplies x**k; each coeffs[k] broadcasts against x to one
    shape, so a (n+1, B, 1) stack evaluates B polynomials at (B, m) points
    and a (n+1, k, 1) stack evaluates k polynomials at (m,) points.

    Each step forms a new product and adds c into it in place, so a step
    makes one array, not two.  The bits are those of acc * x + c; a Python
    or NumPy scalar simply rebinds on +=.
    """
    acc = coeffs[-1] + 0 * x
    for c in coeffs[-2::-1]:
        acc = acc * x
        acc += c
    return acc


def _horner2(C: np.ndarray, z1, z2) -> np.ndarray:
    """sum C[a, b] z1^a z2^b at paired points z1, z2 (double Horner).

    Horner in z2 over the z1 passes sum_a C[a, b] z1^a, taken from the
    highest b down as they are needed: it holds the sum, one pass and one
    product, each the size of the points, instead of all deg2 + 1 passes.
    """
    z1 = np.asarray(z1, dtype=np.complex128)
    z2 = np.asarray(z2, dtype=np.complex128)
    acc = _horner(C[:, -1], z1) + 0 * z2
    for b in range(C.shape[1] - 2, -1, -1):
        acc = acc * z2
        acc += _horner(C[:, b], z1)
    return acc


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def groups(self) -> list[tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return [tuple(sorted(v)) for _, v in sorted(out.items())]


def _aberth_sweep(P, dP, x, done, lead, scale):
    """One Aberth–Ehrlich sweep over the rows of x; returns (x, done).

    P and dP hold the monic rows and their derivatives with the power on
    axis 0 (see _aberth_batch).  Roots already done do not move, so a row
    whose roots are all done comes back bit for bit.
    """
    n = x.shape[1]
    diag = np.arange(n)
    p = _horner(P, x)
    dp = _horner(dP, x)
    newton = p / dp
    diff = x[:, :, None] - x[:, None, :]
    diff[:, diag, diag] = np.inf
    repulse = np.sum(1.0 / diff, axis=2)
    w = newton / (1.0 - newton * repulse)
    bad = ~np.isfinite(w)
    if bad.any():
        # escape coincident iterates with a deterministic nudge
        w = np.where(bad, 1e-6 * (1.0 + np.abs(x)) * np.exp(0.91j), w)
    w = np.where(done, 0.0, w)
    x = x - w
    presid = np.abs(_horner(P, x)) * np.abs(lead)[:, None]
    small_step = np.abs(w) <= 1e-15 * (1.0 + np.abs(x))
    return x, done | (presid <= TOL_RES * scale[:, None]) | small_step


@np.errstate(all="ignore")
def _aberth_batch(coeffs: np.ndarray):
    """Aberth–Ehrlich on a batch of same-degree polynomials.

    coeffs: (B, n+1) ascending complex, leading column nonzero.
    Returns (roots (B, n), residuals (B, n), converged (B, n) bool).

    Rows are independent, so a row comes out bit for bit as it would alone.
    A row whose roots have all converged no longer moves, so the sweeps run
    on the rows still moving only: once at least half of them have finished,
    the finished rows are written back and dropped from the working set.
    Floating-point overflow on wild inputs is silent; such roots simply do
    not converge.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    B, n1 = coeffs.shape
    n = n1 - 1
    lead = coeffs[:, -1]
    mono = coeffs / lead[:, None]
    scale = 1.0 + np.max(np.abs(coeffs), axis=1)

    dcoeffs = mono[:, 1:] * np.arange(1, n1)
    # power on axis 0, one polynomial per row of x
    P, dP = mono.T[:, :, None], dcoeffs.T[:, :, None]

    if n == 1:
        roots = (-mono[:, 0])[:, None]
        res = np.abs(_horner(coeffs.T[:, :, None], roots))
        return roots, res, np.ones_like(res, dtype=bool)

    cauchy = 1.0 + np.max(np.abs(mono[:, :-1]), axis=1)
    angles = 2.0 * np.pi * np.arange(n) / n + 0.37659
    x = cauchy[:, None] * np.exp(1j * angles)[None, :]

    done = np.zeros((B, n), dtype=bool)
    for attempt in range(3):
        # the working set: the rows still moving, with their own coefficients
        act = np.flatnonzero(~done.all(axis=1))
        xa, da, Pa, dPa, lead_a, scale_a = x, done, P, dP, lead, scale
        if act.size < B:  # a copy of every row would only raise the peak memory
            xa, da = x[act], done[act]
            Pa, dPa, lead_a, scale_a = P[:, act], dP[:, act], lead[act], scale[act]
        for _ in range(MAX_SWEEPS):
            xa, da = _aberth_sweep(Pa, dPa, xa, da, lead_a, scale_a)
            fin = da.all(axis=1)
            if fin.all():
                break
            if 2 * np.count_nonzero(fin) >= fin.size:  # retire the finished rows
                x[act], done[act] = xa, da
                keep = ~fin
                act, xa, da = act[keep], xa[keep], da[keep]
                Pa, dPa, lead_a, scale_a = Pa[:, keep], dPa[:, keep], lead_a[keep], scale_a[keep]
        x[act], done[act] = xa, da
        if done.all():
            break
        # restart stragglers from a rotated circle
        cauchy = 1.0 + np.max(np.abs(mono[:, :-1]), axis=1)
        angles = 2.0 * np.pi * np.arange(n) / n + 0.37659 + 0.83 * (attempt + 1)
        fresh = (cauchy * (1.1 + 0.2 * attempt))[:, None] * np.exp(1j * angles)[None, :]
        x = np.where(done, x, fresh)

    # polish with Newton on p/p', whose zeros are simple regardless of
    # multiplicity; sharpens both simple and multiple roots to noise floor
    ddcoeffs = dcoeffs[:, 1:] * np.arange(1, n) if n >= 2 else None
    for _ in range(3):
        p = _horner(P, x)
        dp = _horner(dP, x)
        if ddcoeffs is not None and ddcoeffs.shape[1] > 0:
            ddp = _horner(ddcoeffs.T[:, :, None], x)
        else:
            ddp = np.zeros_like(x)
        step = p * dp / (dp * dp - p * ddp)
        ok_step = np.isfinite(step) & done & (
            np.abs(step) <= 1e-3 * (1.0 + np.abs(x))
        )
        x = x - np.where(ok_step, step, 0.0)

    residuals = np.abs(_horner(coeffs.T[:, :, None], x))
    order = np.lexsort((x.imag, x.real), axis=1)
    idx = np.arange(B)[:, None]
    return x[idx, order], residuals[idx, order], done[idx, order]


def _cluster(roots: np.ndarray) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Merge roots closer than CLUSTER_RADIUS (single linkage) to centroids."""
    n = roots.size
    uf = _UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= CLUSTER_RADIUS:
                uf.union(i, j)
    out = roots.copy()
    clusters = []
    for members in uf.groups():
        if len(members) > 1:
            centroid = np.mean(roots[list(members)])
            for m in members:
                out[m] = centroid
            clusters.append(members)
    order = np.lexsort((out.imag, out.real))
    remap = {old: new for new, old in enumerate(order)}
    clusters = [tuple(sorted(remap[m] for m in members)) for members in clusters]
    return out[order], sorted(clusters)


@dataclass(frozen=True)
class RootSet:
    """All roots of one univariate polynomial, with residual evidence."""

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    degree: int
    clusters: tuple[tuple[int, ...], ...] = ()

    def as_array(self) -> np.ndarray:
        return np.array(self.roots, dtype=np.complex128)

    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)


def all_roots(f) -> RootSet:
    """Every complex root of f, by Aberth–Ehrlich simultaneous iteration.

    f may be a UniPoly or an ascending complex coefficient array.  Requires
    degree >= 1; a float array also needs a leading coefficient above the
    degeneracy threshold (an exact UniPoly's is nonzero however small it is
    next to the others).  Raises RootFindError (carrying the best iterate)
    on non-convergence.
    """
    a = _as_coeff_array(f)
    while a.size > 1 and a[-1] == 0:
        a = a[:-1]
    n = a.size - 1
    if n < 1:
        raise ValueError("all_roots needs degree >= 1")
    if not isinstance(f, UniPoly) and abs(a[-1]) <= LEAD_DEGENERACY * np.max(np.abs(a)):
        raise ValueError("leading coefficient below degeneracy threshold")
    roots, res, ok = _aberth_batch(a[None, :])
    if not ok.all():
        bad = ~ok[0]
        raise RootFindError(
            f"Aberth iteration left {int(bad.sum())} root(s) unconverged "
            f"(worst residual {res[0][bad].max():.3e})",
            roots[0],
            res[0],
        )
    clustered, clusters = _cluster(roots[0])
    resid = np.abs(_horner(a, clustered))
    return RootSet(
        roots=tuple(clustered.tolist()),
        residuals=tuple(resid.tolist()),
        degree=n,
        clusters=tuple(clusters),
    )


# ---------------------------------------------------------------------------
# fibers of a bivariate polynomial over z1
# ---------------------------------------------------------------------------


class FiberPoly:
    """f(z1, z2) viewed as a z2-polynomial with z1-dependent coefficients.

    f is a BiPoly or a float coefficient matrix C with C[a, b] multiplying
    z1^a z2^b (the interpolated defining polynomial of a curve component).
    """

    def __init__(self, f: BiPoly | np.ndarray):
        if isinstance(f, BiPoly):
            if f.is_zero:
                raise ValueError("fiber of the zero polynomial")
            f = f.coeff_matrix()
        self._C = np.asarray(f, dtype=np.complex128)
        self.deg2 = self._C.shape[1] - 1

    @np.errstate(all="ignore")  # as in _aberth_batch, far z1 overflow silently
    def coeff_rows(self, z1: np.ndarray) -> np.ndarray:
        """Ascending z2-coefficients at each z1; shape (B, deg2+1)."""
        z1 = np.asarray(z1, dtype=np.complex128).ravel()
        return _horner(self._C[:, :, None], z1).T

    def coeffs_at(self, z1: complex) -> np.ndarray:
        return self.coeff_rows(np.array([z1]))[0]


def solve_fibers(fp: FiberPoly, z1s: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Roots in z2 above each z1 sample; tolerant of degree drops.

    Near-vanishing leading coefficients are stripped (those roots escape to
    infinity and carry no information about bounded domains).  Returns ragged
    lists (roots_i, converged_i) aligned with z1s.
    """
    z1s = np.asarray(z1s, dtype=np.complex128).ravel()
    rows = fp.coeff_rows(z1s)
    B = z1s.size
    norms = np.max(np.abs(rows), axis=1)
    # effective degree: the top coefficient above the degeneracy threshold
    kept = ~(np.abs(rows) <= LEAD_DEGENERACY * norms[:, None])
    eff_deg = np.where(kept.any(axis=1), fp.deg2 - np.argmax(kept[:, ::-1], axis=1), -1)

    roots_out: list[np.ndarray] = [np.empty(0, dtype=np.complex128)] * B
    conv_out: list[np.ndarray] = [np.empty(0, dtype=bool)] * B
    for d in np.unique(eff_deg):
        if d < 1:
            continue
        sel = np.nonzero(eff_deg == d)[0]
        batch = rows[sel, : d + 1]
        r, _, ok = _aberth_batch(batch)
        for i, r_i, ok_i in zip(sel.tolist(), r, ok):
            roots_out[i] = r_i
            conv_out[i] = ok_i
    return roots_out, conv_out


# ---------------------------------------------------------------------------
# path construction helpers
# ---------------------------------------------------------------------------


def segment_samples(a: complex, b: complex, n: int) -> np.ndarray:
    """n+1 points from a to b inclusive."""
    t = np.linspace(0.0, 1.0, n + 1)
    return a + (b - a) * t


def circle_samples(
    center: complex, radius: float, n: int, start_angle: float = 0.0
) -> np.ndarray:
    """Closed circle: n+1 samples, first == last, counterclockwise."""
    th = start_angle + 2.0 * np.pi * np.linspace(0.0, 1.0, n + 1)
    return center + radius * np.exp(1j * th)


def loop_samples(base: complex, center: complex, radius: float, n_circle: int = 64,
                 n_leg: int = 24) -> np.ndarray:
    """Base -> circle entry -> full circle -> back to base (a loop bouquet petal).

    The entry point is the circle point nearest the base along the ray from
    the center, so the legs stay radial and never cross the circle.
    """
    v = base - center
    if abs(v) <= radius:
        raise ValueError("base point must lie outside the loop circle")
    entry = center + radius * v / abs(v)
    ang = float(np.angle(entry - center))
    leg_in = segment_samples(base, entry, n_leg)
    circ = circle_samples(center, radius, n_circle, start_angle=ang)
    leg_out = segment_samples(entry, base, n_leg)
    return np.concatenate([leg_in, circ[1:], leg_out[1:]])


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------


@dataclass
class TrackedPath:
    """A fiber of z2-roots transported along a z1 path, rows kept aligned."""

    samples: np.ndarray  # (S,) complex z1 values after refinement
    fibers: np.ndarray  # (S, m) roots; row k+1 continues row k entrywise
    refinements: int = 0  # bisected steps
    cold_solves: int = 0  # Aberth solves: fallbacks, last sample, start if no fiber0

    @property
    def start(self) -> np.ndarray:
        return self.fibers[0]

    @property
    def end(self) -> np.ndarray:
        return self.fibers[-1]

    def loop_permutation(self) -> tuple[int, ...]:
        """perm[i] = index of the start root the i-th sheet lands on.

        Only meaningful when the path closes up (last sample == first).
        """
        if abs(self.samples[-1] - self.samples[0]) > 1e-12:
            raise ValueError("path is not a closed loop")
        start, end = self.fibers[0], self.fibers[-1]
        cols = _nearest_pairing(np.abs(end[:, None] - start[None, :]))
        if cols is None:
            raise TrackError("the loop's end fiber does not pair one to one with its start")
        return tuple(cols.tolist())


def _nearest_pairing(cost: np.ndarray) -> np.ndarray | None:
    """cols[i] = the column nearest row i, or None when that is no permutation.

    When every row's pick costs less than half the gap to any other column,
    as the separation rule demands, the picks form the unique least-cost
    assignment; when two rows pick one column the pairing is ambiguous.
    """
    cols = cost.argmin(axis=1)
    if len(set(cols.tolist())) != len(cols):
        return None
    return cols


def _min_separation(roots: np.ndarray) -> float:
    m = roots.size
    if m < 2:
        return np.inf
    d = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def _step_ok(cur: np.ndarray, new: np.ndarray) -> bool:
    """The separation rule: no root of an aligned step moves half a gap."""
    moved = float(np.max(np.abs(cur - new)))
    sep = min(_min_separation(cur), _min_separation(new))
    return moved < SEPARATION_FACTOR * sep


def _fiber_at(fp: FiberPoly, z1: complex) -> np.ndarray:
    row = fp.coeffs_at(z1)
    top = np.max(np.abs(row))
    if top == 0 or abs(row[-1]) <= LEAD_DEGENERACY * top:
        raise TrackError(
            f"leading z2-coefficient degenerates at z1={z1:.6g}; "
            "path passes too close to a pole of the fiber"
        )
    roots, res, ok = _aberth_batch(row[None, :])
    if not ok.all():
        raise TrackError(f"fiber solve failed to converge at z1={z1:.6g}")
    return roots[0]


def _newton_fiber(fp: FiberPoly, z1: complex, start: np.ndarray) -> np.ndarray | None:
    """Warm corrector: batched Newton on every sheet, starting from start.

    Returns the corrected fiber, row-aligned with start, once every residual
    |p(x)| is at most TOL_RES * (1 + max|coeff|), the test _aberth_batch
    uses; None if NEWTON_STEPS steps do not get there or the leading
    coefficient degenerates.
    """
    row = fp.coeffs_at(z1)
    top = np.max(np.abs(row))
    if top == 0 or abs(row[-1]) <= LEAD_DEGENERACY * top:
        return None
    limit = TOL_RES * (1.0 + top)
    drow = row[1:] * np.arange(1, row.size)
    # the powers of every sheet give p and p' as two products
    x = start
    V = np.vander(x, row.size, increasing=True)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            x = x - (V @ row) / (V[:, :-1] @ drow)
            V = np.vander(x, row.size, increasing=True)
            if (np.abs(V @ row) <= limit).all():
                return x
    return None


def track(f, path, fiber0: RootSet | None = None) -> TrackedPath:
    """Transport the z2-root fiber of f along a path of z1 samples.

    f is a BiPoly or FiberPoly; path an array of complex z1 values (closed
    loop when first == last).  Each step first runs the warm Newton
    corrector from the current fiber.  If it does not converge, or moves a
    root by half the minimum root separation or more, the step falls back
    to a cold Aberth solve, each current root taking its nearest new root;
    a cold step whose picks are not one to one, or that breaks the same
    rule, is bisected, and the whole track fails with TrackError if
    bisection bottoms out.  The last sample is always solved cold and
    paired the same way, so the end fiber is the same whatever the
    corrector did on the way.
    """
    fp = f if isinstance(f, FiberPoly) else FiberPoly(f)
    path = np.asarray(path, dtype=np.complex128).ravel()
    if path.size < 2:
        raise ValueError("path needs at least two samples")
    if fp.deg2 < 1:
        raise ValueError("polynomial has no z2 dependence to track")

    cold_solves = 0
    if fiber0 is not None:
        cur = np.asarray(fiber0.roots if isinstance(fiber0, RootSet) else fiber0,
                         dtype=np.complex128)
        if cur.size != fp.deg2:
            raise ValueError("fiber0 does not match the z2-degree")
    else:
        cur = _fiber_at(fp, path[0])
        cold_solves += 1

    samples = [path[0]]
    fibers = [cur]
    refinements = 0

    for seg_end_idx in range(1, path.size):
        final = seg_end_idx == path.size - 1
        stack = [(path[seg_end_idx - 1], path[seg_end_idx], 0, final)]
        while stack:
            a, b, depth, final = stack.pop()
            new = None if final else _newton_fiber(fp, b, cur)
            if new is None or not _step_ok(cur, new):
                new = _fiber_at(fp, b)
                cold_solves += 1
                cols = _nearest_pairing(np.abs(cur[:, None] - new[None, :]))
                new = None if cols is None else new[cols]
                if new is None or not _step_ok(cur, new):
                    if depth >= MAX_BISECTIONS:
                        raise TrackError(
                            f"pairing stayed ambiguous after {MAX_BISECTIONS} "
                            f"bisections near z1={b:.6g}"
                        )
                    mid = 0.5 * (a + b)
                    stack.append((mid, b, depth + 1, final))
                    stack.append((a, mid, depth + 1, False))
                    refinements += 1
                    continue
            cur = new
            samples.append(b)
            fibers.append(cur)

    return TrackedPath(
        samples=np.array(samples),
        fibers=np.array(fibers),
        refinements=refinements,
        cold_solves=cold_solves,
    )
