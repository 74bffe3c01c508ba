"""Numerical irreducible decomposition of zero sets in C^2.

The curve part of V(ideal) is the gcd of the generators; its square-free
factors are computed exactly, then each factor splits into vertical lines
(roots of the z1-content) and a z2-primitive part whose irreducible
components are recovered as monodromy orbits: the z2-sheets over a generic
base point are carried around every branch point, and sheets that exchange
belong to the same component.  The point part comes from resultant
elimination plus one batched Newton refinement on the residual generators.

Float geometry never feeds back into exact algebra: orbits and witness
points are numeric evidence attached to exactly-known parent factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import (
    BiPoly,
    UniPoly,
    content_pp_z2,
    exact_div,
    gcd_many,
    poly_to_json,
    resultant_z2,
    squarefree,
    unipoly_gcd,
)
from .rootfind import (
    FiberPoly,
    RootFindError,
    RootSet,
    TrackError,
    _horner2,
    _UnionFind,
    all_roots,
    loop_samples,
    segment_samples,
    solve_fibers,
    track,
)

TOL_POINT = 1e-8
TOL_WITNESS = 1e-8
CLEARANCE = 0.05
MAX_BASE_ATTEMPTS = 12
POINT_CLUSTER = 1e-7
NEWTON_ITERS = 30


class DecomposeError(RuntimeError):
    """Decomposition could not be carried out as specified."""


@dataclass(frozen=True)
class CurveComponent:
    """One irreducible piece of a curve, realized as a monodromy orbit.

    Vertical lines z1 = c (components with no z2 dependence) carry
    vertical=True, deg_z2=0 and store c in base_point.
    """

    parent: BiPoly  # exact square-free factor this orbit lives on
    orbit: tuple[int, ...]  # sheet indices into base_fiber
    deg_z2: int
    defining: np.ndarray  # float coefficient matrix C[a, b] -> z1^a z2^b
    witnesses: tuple[tuple[complex, complex], ...]
    base_point: complex
    base_fiber: tuple[complex, ...]  # full fiber over base_point (all sheets)
    vertical: bool = False

    def eval_defining(self, z1, z2):
        return _horner2(self.defining, z1, z2)

    def to_json_dict(self) -> dict:
        return {
            "parent": poly_to_json(self.parent),
            "orbit": list(self.orbit),
            "deg_z2": self.deg_z2,
            "vertical": self.vertical,
            "base_point": [self.base_point.real, self.base_point.imag],
            "defining_coeffs": [
                [[c.real, c.imag] for c in row] for row in self.defining
            ],
            "witnesses": [
                {"z1": [w1.real, w1.imag], "z2": [w2.real, w2.imag]}
                for w1, w2 in self.witnesses
            ],
        }


@dataclass(frozen=True)
class IsolatedPoint:
    """A zero-dimensional solution with per-generator residual evidence."""

    location: tuple[complex, complex]
    residuals: tuple[float, ...]

    def to_json_dict(self) -> dict:
        w1, w2 = self.location
        return {
            "z1": [w1.real, w1.imag],
            "z2": [w2.real, w2.imag],
            "residuals": list(self.residuals),
        }


@dataclass(frozen=True)
class VarietyDecomposition:
    """V(ideal) = curve components (on the gcd) plus isolated points."""

    curve_components: tuple[CurveComponent, ...]
    points: tuple[IsolatedPoint, ...]
    gcd_poly: BiPoly | None  # None when the gcd is constant (no curve part)
    residual_generators: tuple[BiPoly, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": "variety_decomposition",
            "curve_components": [c.to_json_dict() for c in self.curve_components],
            "isolated_points": [p.to_json_dict() for p in self.points],
            "gcd": None if self.gcd_poly is None else poly_to_json(self.gcd_poly),
            "residual_generators": [poly_to_json(g) for g in self.residual_generators],
        }


# ---------------------------------------------------------------------------
# curve part
# ---------------------------------------------------------------------------


def _distinct_roots(u: UniPoly) -> list[complex]:
    """Distinct roots of u, after exact square-free deflation.

    Multiple roots (discriminants and resultants are full of them) scatter
    numerically as tol**(1/multiplicity); dividing out gcd(u, u') first
    keeps every root simple and accurate.  A root solve that does not
    converge raises DecomposeError.
    """
    if u.degree >= 2:
        g = unipoly_gcd(u, u.deriv())
        if g.degree >= 1:
            u = u.exact_div(g)
    try:
        rs = all_roots(u)
    except RootFindError as exc:
        raise DecomposeError(f"root solve failed: {exc}") from exc
    out: list[complex] = []
    for r in rs.roots:
        if all(abs(r - o) > POINT_CLUSTER for o in out):
            out.append(r)
    return out


def _coeff_scale(f: BiPoly) -> float:
    return 1.0 + max((abs(complex(c)) for c in f.terms.values()), default=0.0)


def _vertical_components(parent: BiPoly, cont: UniPoly) -> list[CurveComponent]:
    """One component per root of the z1-content: the lines z1 = c."""
    comps = []
    for idx, c in enumerate(sorted(_distinct_roots(cont), key=lambda z: (z.real, z.imag))):
        defining = np.array([[-c], [1.0 + 0j]])  # z1 - c
        comps.append(
            CurveComponent(
                parent=parent,
                orbit=(idx,),
                deg_z2=0,
                defining=defining,
                witnesses=(((c, 0.0 + 0j)),),
                base_point=c,
                base_fiber=(),
                vertical=True,
            )
        )
    return comps


def _branch_candidates(pp: BiPoly) -> list[complex]:
    """z1 values where sheets can collide or escape: discriminant and
    leading-coefficient roots."""
    disc = resultant_z2(pp, pp.deriv(2)) if pp.deg2 >= 1 else UniPoly([1])
    if disc.is_zero:
        raise DecomposeError(
            "discriminant vanished identically on a primitive square-free "
            "factor; input was not square-free"
        )
    pts: list[complex] = []
    if disc.degree >= 1:
        pts.extend(_distinct_roots(disc))
    lc = pp.z2_coeffs()[-1]
    if lc.degree >= 1:
        pts.extend(_distinct_roots(lc))
    out: list[complex] = []
    for z in pts:
        if all(abs(z - o) > POINT_CLUSTER for o in out):
            out.append(z)
    return sorted(out, key=lambda z: (z.real, z.imag))


def _pick_base(branch: list[complex], rng: np.random.Generator) -> complex:
    reach = max([1.0] + [abs(b) for b in branch])
    radius = 2.0 * reach * (1.0 + 0.25 * rng.random())
    angle = 2.0 * math.pi * rng.random()
    return radius * complex(math.cos(angle), math.sin(angle))


def _monodromy_components(
    parent: BiPoly,
    pp: BiPoly,
    seed: int,
    resolution: int,
) -> list[CurveComponent]:
    """The irreducible components of pp as monodromy orbits of its sheets.

    A loop around each branch point, from a random base point, permutes the
    base fiber; sheets that a loop exchanges are joined.  Joins are certain,
    so once every sheet is in one orbit no later loop can change the
    answer, and the remaining loops are not tracked (a factor of z2-degree 1
    tracks none).  A TrackError or DecomposeError retries from a new base
    point, up to MAX_BASE_ATTEMPTS.
    """
    m = pp.deg2
    branch = _branch_candidates(pp)
    fp = FiberPoly(pp)
    rng = np.random.default_rng(seed)
    lc = pp.z2_coeffs()[-1]

    if branch:
        pair_min = min(
            (abs(a - b) for i, a in enumerate(branch) for b in branch[i + 1:]),
            default=2.0 * max(abs(b) for b in branch) + 1.0,
        )
    else:
        pair_min = 1.0

    last_err: Exception | None = None
    for _ in range(MAX_BASE_ATTEMPTS):
        base = _pick_base(branch, rng)
        if any(abs(base - b) < CLEARANCE * pair_min for b in branch):
            continue
        try:
            fiber0 = all_roots(fp.coeffs_at(base))
            uf = _UnionFind(m)
            for b in branch:
                if len(uf.groups()) == 1:  # one orbit: no loop can split it
                    break
                radius = min(0.4 * pair_min, 0.5 * abs(base - b))
                petal = loop_samples(
                    base, b, radius,
                    n_circle=64 * resolution, n_leg=24 * resolution,
                )
                perm = track(fp, petal, fiber0=fiber0).loop_permutation()
                for i, j in enumerate(perm):
                    uf.union(i, j)
            orbits = uf.groups()
            return _build_components(
                parent, pp, fp, lc, base, fiber0, orbits, branch, pair_min, rng, resolution
            )
        except (TrackError, DecomposeError) as exc:
            last_err = exc
            continue
    raise DecomposeError(
        f"no usable base point after {MAX_BASE_ATTEMPTS} attempts; "
        f"last failure: {last_err}"
    )


def _build_components(
    parent: BiPoly,
    pp: BiPoly,
    fp: FiberPoly,
    lc: UniPoly,
    base: complex,
    fiber0: RootSet,
    orbits: list[tuple[int, ...]],
    branch: list[complex],
    pair_min: float,
    rng: np.random.Generator,
    resolution: int,
) -> list[CurveComponent]:
    base_fiber = fiber0.as_array()
    scale = _coeff_scale(parent)
    for r in base_fiber:
        resid = abs(parent.eval(complex(base), complex(r)))
        if resid > TOL_WITNESS * scale * (1.0 + abs(base)) ** parent.deg1:
            raise DecomposeError(f"witness residual {resid:.3g} too large at base")

    n_orbits = len(orbits)
    deg_bound = max(0, (n_orbits - 1)) * max(lc.degree, 0) + max(pp.deg1, 0)
    n_nodes = deg_bound + 1

    # interpolation nodes: Chebyshev points on a random-direction diameter of
    # the radius-2 disk around the base, kept clear of the branch set
    nodes = None
    for _ in range(MAX_BASE_ATTEMPTS):
        phi = 2.0 * math.pi * rng.random()
        direction = complex(math.cos(phi), math.sin(phi))
        cand = [
            base + 2.0 * math.cos((2 * k + 1) * math.pi / (2 * n_nodes)) * direction
            for k in range(n_nodes)
        ]
        if all(
            all(abs(t - b) > CLEARANCE * pair_min for b in branch) for t in cand
        ):
            nodes = cand
            break
    if nodes is None:
        raise DecomposeError("could not place interpolation nodes clear of branch set")

    # transport every sheet to every node
    fibers_at_nodes = []
    for t in nodes:
        leg = segment_samples(base, t, max(8, 8 * resolution))
        tp = track(fp, leg, fiber0=fiber0)
        fibers_at_nodes.append(tp.end)
    fibers_at_nodes = np.array(fibers_at_nodes)  # (n_nodes, m)

    lc_vals = np.array([complex(lc.eval(complex(t))) for t in nodes])
    node_arr = np.array(nodes, dtype=np.complex128)
    vander = np.vander(node_arr, n_nodes, increasing=True)

    comps = []
    for orbit in orbits:
        s = len(orbit)
        # z2-coefficients of lc(z1) * prod_{i in orbit} (z2 - sheet_i(z1)),
        # sampled at the nodes; np.poly returns monic coefficients by
        # descending power
        coeff_samples = np.empty((n_nodes, s + 1), dtype=np.complex128)
        for k in range(n_nodes):
            mon = np.atleast_1d(np.poly(fibers_at_nodes[k][list(orbit)]))
            coeff_samples[k] = lc_vals[k] * mon
        interp = np.linalg.solve(vander, coeff_samples)  # (n_nodes, s+1)
        # column j multiplies z2^(s-j); build C[a, b]
        C = np.zeros((n_nodes, s + 1), dtype=np.complex128)
        for j in range(s + 1):
            C[:, s - j] = interp[:, j]
        # trim trailing zero z1-rows for compactness
        top = C.shape[0]
        while top > 1 and np.all(np.abs(C[top - 1]) < 1e-11):
            top -= 1
        C = C[:top]

        witnesses = tuple((base, complex(base_fiber[i])) for i in orbit)
        comps.append(
            CurveComponent(
                parent=parent,
                orbit=tuple(orbit),
                deg_z2=s,
                defining=C,
                witnesses=witnesses,
                base_point=base,
                base_fiber=tuple(base_fiber.tolist()),
                vertical=False,
            )
        )
    return comps


def decompose_curve(
    g: BiPoly,
    seed: int = 0,
    resolution: int = 1,
) -> list[CurveComponent]:
    """Irreducible components of the plane curve V(g).

    g is factored square-free exactly; each factor contributes its vertical
    lines (roots of the z1-content) and the monodromy orbits of its
    z2-primitive part.  Orbits are invariant under path-resolution doubling
    and base-point re-randomization; callers can check via the seed and
    resolution parameters.
    """
    if g.is_zero or g.is_constant:
        raise ValueError("curve decomposition needs a nonconstant polynomial")
    comps: list[CurveComponent] = []
    for factor, _mult in squarefree(g):
        if factor.deg2 == 0:
            comps.extend(_vertical_components(factor, factor.as_unipoly_z1()))
            continue
        cont, pp = content_pp_z2(factor)
        if cont.degree >= 1:
            comps.extend(_vertical_components(factor, cont))
        if pp.deg2 >= 1:
            comps.extend(_monodromy_components(factor, pp, seed, resolution))
    return comps


# ---------------------------------------------------------------------------
# point part
# ---------------------------------------------------------------------------


def _row_stack(polys: list[BiPoly]) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of polys, zero-padded to one stack and split into its
    real and imaginary parts: [p, b, a] multiplies z1^a z2^b in polys[p]."""
    mats = [g.coeff_matrix() for g in polys]
    stack = np.zeros(
        (len(mats), max(m.shape[1] for m in mats), max(m.shape[0] for m in mats)),
        dtype=np.complex128,
    )
    for p, m in enumerate(mats):
        stack[p, : m.shape[1], : m.shape[0]] = m.T
    return np.ascontiguousarray(stack.real), np.ascontiguousarray(stack.imag)


def _eval_stack(
    re: np.ndarray, im: np.ndarray, x1: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every polynomial of a _row_stack at the points (x1[i], x2[i]): the real
    and imaginary parts of the values, each of shape (polynomials, points).

    The double Horner of BiPoly.eval (in z1 along each z2-row, then in z2
    over the row values), run on split parts in the order of CPython's
    complex product and sum, so every float equals BiPoly.eval's at a finite
    point.  numpy's complex multiply rounds differently (in about two of
    five random products), so rootfind._horner would move the refined
    points.  The zero padding only adds leading steps that keep the sum +0.
    """
    x1r, x1i, x2r, x2i = x1.real, x1.imag, x2.real, x2.imag
    rr = np.zeros(re.shape[:2] + x1.shape)
    ri = np.zeros_like(rr)
    for a in range(re.shape[2] - 1, -1, -1):
        rr, ri = (
            (rr * x1r - ri * x1i) + re[:, :, a, None],
            (rr * x1i + ri * x1r) + im[:, :, a, None],
        )
    vr = np.zeros(re.shape[:1] + x1.shape)
    vi = np.zeros_like(vr)
    for b in range(re.shape[1] - 1, -1, -1):
        vr, vi = (vr * x2r - vi * x2i) + rr[:, b], (vr * x2i + vi * x2r) + ri[:, b]
    return vr, vi


@np.errstate(all="ignore")
def _refine_points(
    system: tuple[np.ndarray, np.ndarray],
    gens: tuple[np.ndarray, np.ndarray],
    starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton on gA = gB = 0 from every start (z1, z2) at once, then every
    generator's residual |g| at each result.

    system is the _row_stack of gA, gB, d/dz1 gA, d/dz2 gA, d/dz1 gB and
    d/dz2 gB; gens that of the generators.  Returns the points (n, 2) and
    the residuals (generators, n).  A start stops, without a step, once its
    Jacobian determinant falls below the guard; after a step below 1e-15
    relative; or after NEWTON_ITERS iterations.  Each start comes out bit
    for bit as it would refined alone with complex scalars: the determinant
    takes separately rounded products, |det| is hypot, the guard squares by
    libm pow as a float64 scalar does, and LAPACK solves each 2x2 system of
    the stack on its own.  A start that diverges overflows silently.
    """
    z = starts.copy()
    act = np.arange(len(z))
    for _ in range(NEWTON_ITERS):
        if not act.size:
            break
        za = z[act]
        vr, vi = _eval_stack(*system, za[:, 0], za[:, 1])
        v = np.empty(vr.shape, dtype=np.complex128)
        v.real, v.imag = vr, vi
        F = v[:2].T
        J = v[2:].T.reshape(-1, 2, 2)  # rows (A1, A2) and (B1, B2)
        (a_r, b_r, c_r, d_r), (a_i, b_i, c_i, d_i) = vr[2:], vi[2:]
        det_abs = np.hypot(
            (a_r * d_r - a_i * d_i) - (b_r * c_r - b_i * c_i),
            (a_r * d_i + a_i * d_r) - (b_r * c_i + b_i * c_r),
        )
        guard = np.array([(1.0 + m) ** 2 for m in np.abs(J).max(axis=(1, 2))])
        go = ~(det_abs < 1e-14 * guard)
        act, za = act[go], za[go]
        if not act.size:
            break
        step = np.linalg.solve(J[go], F[go][:, :, None])[:, :, 0]
        za = za - step
        z[act] = za
        act = act[~(np.abs(step).max(axis=1) < 1e-15 * (1.0 + np.abs(za).max(axis=1)))]
    gr, gi = _eval_stack(*gens, z[:, 0], z[:, 1])
    return z, np.hypot(gr, gi)


def zero_dim_solve(generators: list[BiPoly]) -> list[IsolatedPoint]:
    """Common zeros of a system with trivial gcd (the point part).

    Candidate z1 values come from a z2-free generator when one exists,
    otherwise from the first nonzero pair resultant; z2 values from the
    univariate slices above each candidate; Newton refinement on the chosen
    pair, every candidate at once; acceptance requires every generator
    residual below TOL_POINT.
    """
    gens = [g for g in generators if not g.is_zero]
    if len(gens) < 2:
        raise ValueError("zero_dim_solve needs at least two nonzero generators")
    common = gcd_many(gens)
    if not common.is_constant:
        raise DecomposeError(
            "generators share the nonconstant factor "
            f"{common!r}; extract the curve part (gcd) before point solving"
        )
    return _solve_points(gens)


def _solve_points(gens: list[BiPoly]) -> list[IsolatedPoint]:
    """zero_dim_solve on two or more nonzero generators with a constant gcd."""
    if any(g.is_constant for g in gens):
        return []  # a unit lies in the system: no common zeros

    z2free = sorted(
        (g for g in gens if g.deg2 == 0), key=lambda g: g.deg1
    )
    candidates: list[complex] = []
    pair: tuple[BiPoly, BiPoly] | None = None
    if z2free:
        src = z2free[0]
        candidates = _distinct_roots(src.as_unipoly_z1())
        other = next(
            (g for g in gens if g.deg2 >= 1),
            next(g for g in gens if g is not src),
        )
        pair = (src, other)
    else:
        found = False
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                res = resultant_z2(gens[i], gens[j])
                if res.is_zero:
                    continue
                found = True
                pair = (gens[i], gens[j])
                if res.degree >= 1:
                    candidates = _distinct_roots(res)
                break
            if found:
                break
        if not found:
            raise DecomposeError(
                "all pair resultants vanish identically: system has a "
                "positive-dimensional part; re-extract the gcd"
            )

    if not candidates:
        return []
    # z2 candidates: the roots of the lowest-degree nonvanishing slice, one
    # fiber solve per slicer over every z1 root it has yet to serve; a root
    # that no slice serves keeps z2 = 0 (the system may force z2 only
    # through constants)
    alphas = np.array(candidates, dtype=np.complex128)
    betas = [np.zeros(1, dtype=np.complex128)] * len(candidates)
    pending = list(range(len(candidates)))
    for g in sorted((g for g in gens if g.deg2 >= 1), key=lambda g: g.deg2):
        if not pending:
            break
        roots, _ = solve_fibers(FiberPoly(g), alphas[pending])
        for i, r in zip(pending, roots):
            if r.size:
                betas[i] = r
        pending = [i for i, r in zip(pending, roots) if not r.size]
    starts = np.array([(a, b) for a, bs in zip(candidates, betas) for b in bs])

    gA, gB = pair
    system = _row_stack([gA, gB, gA.deriv(1), gA.deriv(2), gB.deriv(1), gB.deriv(2)])
    points, resids = _refine_points(system, _row_stack(gens), starts)

    accepted: list[IsolatedPoint] = []
    for zt, resid in zip(points.tolist(), resids.T.tolist()):
        zt, resid = tuple(zt), tuple(resid)
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


# ---------------------------------------------------------------------------
# full ideal
# ---------------------------------------------------------------------------


def decompose_ideal(generators: list[BiPoly], seed: int = 0) -> VarietyDecomposition:
    """Split V(generators) into curve components and isolated points.

    The gcd of the generators carries the curve part; the cofactors carry
    the point part.  Points that land back on the curve are duplicates of
    curve evidence and are dropped.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise ValueError("decompose_ideal needs at least one nonzero generator")
    g = gcd_many(gens)

    try:  # the numeric stages round exact coefficients and resultants to floats
        comps: list[CurveComponent] = []
        if not g.is_constant:
            comps = decompose_curve(g, seed=seed)
            residual = [h for h in (exact_div(gi, g) for gi in gens) if not h.is_constant]
        else:
            residual = list(gens)

        # a constant cofactor puts g itself in the ideal, so V(I) = V(g) has no
        # isolated points
        points: list[IsolatedPoint] = []
        if len(residual) == len(gens) >= 2:
            # the cofactors of the gcd are coprime, so no second gcd is needed
            points = _solve_points(residual)
            if not g.is_constant:
                gscale = _coeff_scale(g)
                points = [
                    pt
                    for pt in points
                    if abs(g.eval(pt.location[0], pt.location[1]))
                    > TOL_POINT * gscale * 10.0
                ]
    except OverflowError as exc:
        raise DecomposeError(f"a coefficient overflows double precision: {exc}") from None

    return VarietyDecomposition(
        curve_components=tuple(comps),
        points=tuple(points),
        gcd_poly=None if g.is_constant else g,
        residual_generators=tuple(residual),
    )
