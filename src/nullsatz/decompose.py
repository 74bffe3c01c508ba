"""Numerical irreducible decomposition of zero sets in C^2.

The curve part of V(ideal) is the gcd of the generators; its square-free
factors are computed exactly, then each factor splits into vertical lines
(roots of the z1-content) and a z2-primitive part pp whose irreducible
components are found by the linear trace test (Sommese, Verschelde &
Wampler, SIAM J. Numer. Anal. 40(6), 2002).  The test runs in sheared
coordinates, G(t, w) = pp(t + mu w, w) for an exact slope mu at which no
line t = const meets the curve at infinity: over such a pencil the sum of
w over the points of a union of components is affine in t, and over any
other set of points it is not.  One tracked path labels the z2-sheets over
a random base point by G's columns and carries them to three test lines;
the least sets of columns whose sums have a zero second difference are the
components.  Each component's polynomial is then fitted on |z1| = 1.  The
point part comes from resultant elimination plus one batched Newton
refinement on the residual generators.

Float geometry never feeds back into exact algebra: sheet sets and witness
points are numeric evidence attached to exactly-known parent factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyalg import (
    BiPoly,
    GaussRational,
    content_pp_z2,
    exact_div,
    gcd2,
    gcd_many,
    poly_to_json,
    resultant_z2,
    squarefree,
)
from .rootfind import (
    FiberPoly,
    RootFindError,
    TrackError,
    _fiber_at,
    _horner,
    _horner2,
    _nearest_pairing,
    all_roots,
    circle_samples,
    segment_samples,
    solve_fibers,
    track,
)

TOL_POINT = 1e-8
TOL_WITNESS = 1e-8
MAX_BASE_ATTEMPTS = 12
POINT_CLUSTER = 1e-7
NEWTON_ITERS = 30
TOL_UNION = 1e-10
TOL_SPLIT = 1e-9
_SPLIT_BLOCK = 4096  # sets of sheets the trace split reads at once
# shear slopes for the trace test, tried in order (see _slope)
SLOPES = (
    GaussRational(Fraction(3, 7), Fraction(2, 7)),
    GaussRational(Fraction(-2, 11), Fraction(5, 11)),
    GaussRational(Fraction(5, 13), Fraction(-4, 13)),
    GaussRational(Fraction(-4, 9), Fraction(-1, 9)),
)


class DecomposeError(RuntimeError):
    """Decomposition could not be carried out as specified."""


class AmbiguousTraceError(DecomposeError):
    """A trace reading between TOL_UNION and TOL_SPLIT, on any base point."""


@dataclass(frozen=True)
class CurveComponent:
    """One irreducible piece of a curve: the set of base sheets on it.

    orbit lists the sheets of base_fiber that lie on the component, the
    least set the trace test accepts as a union of components (the name
    dates from the monodromy orbits the split once tracked).  Vertical
    lines z1 = c (components with no z2 dependence) carry vertical=True,
    deg_z2=0 and store c in base_point.
    """

    parent: BiPoly  # exact square-free factor this component lives on
    orbit: tuple[int, ...]  # sheet indices into base_fiber
    deg_z2: int
    defining: np.ndarray  # float coefficient matrix C[a, b] -> z1^a z2^b
    witnesses: tuple[tuple[complex, complex], ...]
    base_point: complex
    base_fiber: tuple[complex, ...]  # full fiber over base_point (all sheets)
    vertical: bool = False
    fit_residual: float | None = None  # held-out DFT row, relative; None if vertical

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
            "fit_residual": self.fit_residual,
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


def _drop_near(zs) -> list[complex]:
    """zs in order, less each value within POINT_CLUSTER of one kept before it."""
    out: list[complex] = []
    for z in zs:
        if all(abs(z - o) > POINT_CLUSTER for o in out):
            out.append(z)
    return out


def _distinct_roots(u: BiPoly) -> list[complex]:
    """Distinct roots of u, a polynomial in z1 alone, after exact square-free
    deflation.

    Multiple roots (discriminants and resultants are full of them) scatter
    numerically as tol**(1/multiplicity); dividing out gcd(u, u') first
    keeps every root simple and accurate.  A root within POINT_CLUSTER of
    an earlier one is dropped.  A root solve that does not converge raises
    DecomposeError.
    """
    if u.deg1 >= 2:
        g = gcd2(u, u.deriv(1))
        if g.deg1 >= 1:
            u = exact_div(u, g)
    try:
        roots = all_roots(u)
    except RootFindError as exc:
        raise DecomposeError(f"root solve failed: {exc}") from exc
    return _drop_near(roots)


def _vertical_components(parent: BiPoly, cont: BiPoly) -> list[CurveComponent]:
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
    disc = resultant_z2(pp, pp.deriv(2)) if pp.deg2 >= 1 else BiPoly.constant(1)
    if disc.is_zero:
        raise DecomposeError(
            "discriminant vanished identically on a primitive square-free "
            "factor; input was not square-free"
        )
    pts: list[complex] = []
    if disc.deg1 >= 1:
        pts.extend(_distinct_roots(disc))
    lc = pp.z2_coeffs()[-1]
    if lc.deg1 >= 1:
        pts.extend(_distinct_roots(lc))
    return sorted(_drop_near(pts), key=lambda z: (z.real, z.imag))


def _pick_base(rng: np.random.Generator) -> complex:
    """A random point of |z1| = 1, which _build_components takes as its first node."""
    angle = 2.0 * math.pi * rng.random()
    return complex(math.cos(angle), math.sin(angle))


def _slope(pp: BiPoly) -> GaussRational:
    """The first of SLOPES at which pp's top-degree form is nonzero at (mu, 1).

    There G(t, w) = pp(t + mu w, w) has the constant leading w-coefficient
    top(mu, 1) and w-degree the total degree of pp, so no line
    z1 - mu z2 = t meets the curve at infinity.  Raises DecomposeError when
    every slope is the direction of an asymptote.
    """
    deg = max(a + b for a, b in pp.terms)
    top = BiPoly({ab: c for ab, c in pp.terms.items() if sum(ab) == deg})
    for mu in SLOPES:
        if not top.eval(mu, GaussRational(1)).is_zero:
            return mu
    raise DecomposeError("every shear slope is the direction of an asymptote")


def _sheared(pp: BiPoly, mu: GaussRational) -> BiPoly:
    """G(t, w) = pp(t + mu w, w), exactly, by Horner in z1 over pp's z1-rows."""
    line = BiPoly.var(1) + BiPoly.var(2) * mu
    acc = BiPoly()
    for k in range(pp.deg1, -1, -1):
        acc = acc * line + BiPoly({(0, b): c for (a, b), c in pp.terms.items() if a == k})
    return acc


def _trace_split(second: np.ndarray, scale: float) -> list[tuple[int, ...]]:
    """The least sets of columns whose second differences sum to zero.

    second holds each column's second difference of w over the three test
    lines, and a set of columns reads |sum| / scale: at most TOL_UNION it
    passes, at least TOL_SPLIT it fails.  The component of the first column
    left is the least passing set that holds it, found among every set of
    the columns left, _SPLIT_BLOCK sets at a time; it is set aside and the
    next is found the same way.  A reading between the tolerances raises
    AmbiguousTraceError, and no or two least passing sets DecomposeError.
    """
    rest = np.arange(second.size)
    comps = []
    while rest.size:
        head, others = rest[0], rest[1:]
        shifts = np.arange(others.size)
        least, count, pick = others.size + 1, 0, 0
        for lo in range(0, 1 << others.size, _SPLIT_BLOCK):
            masks = np.arange(lo, min(lo + _SPLIT_BLOCK, 1 << others.size))
            bits = (masks[:, None] >> shifts) & 1
            reading = np.abs(second[head] + bits @ second[others]) / scale
            unsure = (reading > TOL_UNION) & (reading < TOL_SPLIT)
            if unsure.any():
                raise AmbiguousTraceError(
                    f"trace test ambiguous: a set of sheets reads {reading[unsure].max():.3g}, "
                    f"between {TOL_UNION:g} and {TOL_SPLIT:g}"
                )
            ok = reading <= TOL_UNION
            if ok.any():
                sizes = bits[ok].sum(axis=1)
                if sizes.min() < least:
                    least, count, pick = sizes.min(), 0, masks[ok][sizes.argmin()]
                count += int(np.count_nonzero(sizes == least))
        if count != 1:
            raise DecomposeError(f"trace test found {count} least sets of sheets, not one")
        inside = ((pick >> shifts) & 1).astype(bool)
        comps.append((int(head), *others[inside].tolist()))
        rest = others[~inside]
    return comps


def _paired_fibers(fp: FiberPoly, z1s: np.ndarray, tracked: np.ndarray, what: str) -> np.ndarray:
    """The fibers over z1s, solved cold in one batch, each row's roots put
    in the order of the tracked row they pair with (_nearest_pairing).

    A row that does not converge or pair one to one raises DecomposeError,
    naming the point as what=z1s[k].
    """
    roots, conv = solve_fibers(fp, z1s)
    for k in range(len(z1s)):
        cols = _nearest_pairing(np.abs(tracked[k][:, None] - roots[k][None, :])) if conv[k].all() else None
        if cols is None:
            raise DecomposeError(
                f"the fiber over {what}={z1s[k]:.6g} does not match the tracked sheets"
            )
        roots[k] = roots[k][cols]
    return roots


def _test_lines(branch: list[complex]) -> np.ndarray:
    """The test lines t*, t* + h and t* + 2h of the trace test.

    t* = b + 0.4 s and h = 0.5 s, for b the branch point nearest 0 (or 0)
    and s = 1 + |b|.  A step tied to the gap between branch points instead
    shrinks with it, and so do the readings of sets that are not unions.
    """
    b = min(branch, key=abs, default=0j)
    return b + (1.0 + abs(b)) * np.array([0.4, 0.9, 1.4])


def _trace_orbits(
    fp: FiberPoly,
    gp: FiberPoly,
    mu: complex,
    base: complex,
    fiber0: np.ndarray,
    lines: np.ndarray,
    resolution: int,
) -> list[tuple[int, ...]]:
    """The base sheets grouped by component, by the linear trace test.

    gp is the fiber of G(t, w) = pp(t + mu w, w).  One path of pp's fiber
    carries the base sheets along the ray from the base point to z1 = t*,
    the first test line; there sheet i is a point of the line
    t_i = t* - mu y_i.  One path of G's fiber through t_1 .. t_m and on to
    the three test lines, 8 * resolution steps per leg, labels each base
    sheet with the column it lies on.  Over a parallel pencil the sum of w
    over a union of components is affine in t, and over any other set of
    columns it is not, so the second difference of each set's sum over the
    test lines (cold-solved and paired with the tracked columns) splits the
    columns (_trace_split).  Orbits come sorted by their least sheet, and
    every component must hold a base sheet.

    The ray keeps the sheared path short: the lines t_i then lie near the
    test lines, and tracking G from the base point itself bisects more.
    """
    m = fiber0.size
    ray = segment_samples(base, lines[0], 24 * resolution)
    sheets = track(fp, ray, fiber0=fiber0).end  # y_1 .. y_m over z1 = t*
    ends = np.concatenate([lines[0] - mu * sheets, lines])
    n = 8 * resolution
    path = np.concatenate([segment_samples(a, b, n)[:-1] for a, b in zip(ends[:-1], ends[1:])] + [ends[-1:]])
    tp = track(gp, path)
    # the path's samples in order, among the bisection midpoints
    later = iter(range(tp.samples.size))
    rows = np.array([next(i for i in later if tp.samples[i] == z) for z in path[::n]])
    dist = np.abs(tp.fibers[rows[:m]] - sheets[:, None])
    label = dist.argmin(axis=1)
    gap = dist.copy()
    gap[np.arange(m), label] = np.inf
    if not (4.0 * dist[np.arange(m), label] < gap.min(axis=1)).all():
        raise DecomposeError("a base sheet matches no tracked column of the sheared fiber")

    cold = _paired_fibers(gp, lines, tp.fibers[rows[m:]], "the test line t")
    comps = _trace_split(cold[0] - 2.0 * cold[1] + cold[2], 1.0 + float(np.abs(cold).max()))
    orbits = sorted(tuple(np.flatnonzero(np.isin(label, c)).tolist()) for c in comps)
    if not orbits[0]:
        raise DecomposeError("a component of the trace test holds no base sheet")
    return orbits


def _trace_components(
    parent: BiPoly,
    pp: BiPoly,
    seed: int,
    resolution: int,
) -> list[CurveComponent]:
    """The irreducible components of pp, its sheets split by the trace test.

    The test runs on G(t, w) = pp(t + mu w, w) for mu from _slope, over the
    lines from _test_lines.  A factor of z2-degree 1 is one component and
    is not tested.  A TrackError or DecomposeError other than an ambiguous
    reading retries from a new base point, up to MAX_BASE_ATTEMPTS.
    """
    m = pp.deg2
    fp = FiberPoly(pp)
    rng = np.random.default_rng(seed)
    lc = pp.z2_coeffs()[-1]
    if m >= 2:
        mu = _slope(pp)
        gp = FiberPoly(_sheared(pp, mu))
        lines = _test_lines(_branch_candidates(pp))

    last_err: Exception | None = None
    for _ in range(MAX_BASE_ATTEMPTS):
        base = _pick_base(rng)
        try:
            fiber0 = _fiber_at(fp, base)
            orbits = [(0,)] if m == 1 else _trace_orbits(fp, gp, complex(mu), base, fiber0, lines, resolution)
            return _build_components(parent, pp, fp, lc, base, fiber0, orbits, resolution)
        except AmbiguousTraceError:
            raise
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
    lc: BiPoly,
    base: complex,
    fiber0: np.ndarray,
    orbits: list[tuple[int, ...]],
    resolution: int,
) -> list[CurveComponent]:
    """Fit each orbit's lc(z1) · prod (z2 - sheet_i(z1)) by a DFT on |z1| = 1.

    The nodes are the n-th roots of unity turned by the base point, which
    lies on |z1| = 1, with n one more than the z1-degree bound, so the DFT
    row of the extra node must vanish; past TOL_WITNESS relative to the
    coefficients the fit raises DecomposeError, and that row's relative
    size is the component's fit_residual.  One path carries the base fiber
    around the circle through every node; each node's fiber comes from one
    cold batched solve, matched to the tracked sheets.
    """
    scale = parent.coeff_scale()
    for r in fiber0:
        resid = abs(parent.eval(complex(base), complex(r)))
        if resid > TOL_WITNESS * scale * (1.0 + abs(base)) ** parent.deg1:
            raise DecomposeError(f"witness residual {resid:.3g} too large at base")

    # one node per coefficient of the z1-degree bound, and one held out
    n = (len(orbits) - 1) * lc.deg1 + pp.deg1 + 2
    per_arc = -(-64 * resolution // n)  # ceil: 64 samples per turn at resolution 1
    circle = base * circle_samples(0.0, 1.0, n * per_arc)  # circle[0] == base
    nodes = circle[: n * per_arc : per_arc]
    tp = track(fp, circle[: (n - 1) * per_arc + 1], fiber0=fiber0)
    tracked = tp.fibers[np.isin(tp.samples, nodes)]

    fibers = _paired_fibers(fp, nodes, tracked, "interpolation node z1")

    lc_vals = fp.coeff_rows(nodes)[:, -1]
    dft = np.conj(nodes)[None, :] ** np.arange(n)[:, None] / n  # inverse of the node powers

    comps = []
    for orbit in orbits:
        # z2-coefficients of lc · prod (z2 - sheet) at the nodes; np.poly
        # gives them monic by descending power, so the columns are flipped
        samples = lc_vals[:, None] * np.array([np.poly(f[list(orbit)]) for f in fibers])
        C = (dft @ samples)[:, ::-1]
        fit = float(np.abs(C[-1]).max() / np.abs(C).max())
        if fit > TOL_WITNESS:
            raise DecomposeError(f"component fit misses its held-out node by {fit:.3g}")
        # trim trailing zero z1-rows for compactness
        top = n - 1
        while top > 1 and np.all(np.abs(C[top - 1]) < 1e-11):
            top -= 1
        C = C[:top]

        comps.append(
            CurveComponent(
                parent=parent,
                orbit=tuple(orbit),
                deg_z2=len(orbit),
                defining=C,
                witnesses=tuple((base, complex(fiber0[i])) for i in orbit),
                base_point=base,
                base_fiber=tuple(fiber0.tolist()),
                fit_residual=fit,
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
    lines (roots of the z1-content) and the components of its z2-primitive
    part, split by the trace test.  The sheet sets are invariant under
    path-resolution doubling and base-point re-randomization; callers can
    check via the seed and resolution parameters.
    """
    if g.is_zero or g.is_constant:
        raise ValueError("curve decomposition needs a nonconstant polynomial")
    comps: list[CurveComponent] = []
    for factor, _mult in squarefree(g):
        if factor.deg2 == 0:
            comps.extend(_vertical_components(factor, factor))
            continue
        cont, pp = content_pp_z2(factor)
        if cont.deg1 >= 1:
            comps.extend(_vertical_components(factor, cont))
        if pp.deg2 >= 1:
            comps.extend(_trace_components(factor, pp, seed, resolution))
    return comps


# ---------------------------------------------------------------------------
# point part
# ---------------------------------------------------------------------------


def _row_stack(polys: list[BiPoly]) -> np.ndarray:
    """The coefficients of polys, zero-padded to one stack: [a, b, p, 0]
    multiplies z1^a z2^b in polys[p].

    _horner(_horner(stack, x1), x2) evaluates every polynomial at the points
    (x1[i], x2[i]), in z1 along each z2-row and then in z2 as BiPoly.eval
    does, as an array of shape (polynomials, points).  It gives _horner2's
    bits in two passes over the stack instead of one per z2-row, in under
    half the time on the solver's few points.
    """
    mats = [g.coeff_matrix() for g in polys]
    stack = np.zeros(
        (max(m.shape[0] for m in mats), max(m.shape[1] for m in mats), len(mats), 1),
        dtype=np.complex128,
    )
    for p, m in enumerate(mats):
        stack[: m.shape[0], : m.shape[1], p, 0] = m
    return stack


@np.errstate(all="ignore")
def _refine_points(
    system: np.ndarray, gens: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton on gA = gB = 0 from every start (z1, z2) at once, then every
    generator's residual |g| at each result.

    system is the _row_stack of gA, gB, d/dz1 gA, d/dz2 gA, d/dz1 gB and
    d/dz2 gB; gens that of the generators.  Returns the points (n, 2) and
    the residuals (generators, n).  A start stops, without a step, once its
    Jacobian determinant falls below the guard 1e-14 (1 + max|J|)^2; after a
    step below 1e-15 relative; or after NEWTON_ITERS iterations.  Rows never
    interact, so each start comes out as it would refined alone.  A start
    that diverges overflows silently.
    """
    z = starts.copy()
    act = np.arange(len(z))
    for _ in range(NEWTON_ITERS):
        if not act.size:
            break
        za = z[act]
        v = _horner(_horner(system, za[:, 0]), za[:, 1])
        F = v[:2].T
        J = v[2:].T.reshape(-1, 2, 2)  # rows (A1, A2) and (B1, B2)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        guard = (1.0 + np.abs(J).max(axis=(1, 2))) ** 2
        go = ~(np.abs(det) < 1e-14 * guard)
        act, za = act[go], za[go]
        step = np.linalg.solve(J[go], F[go][:, :, None])[:, :, 0]
        za = za - step
        z[act] = za
        act = act[~(np.abs(step).max(axis=1) < 1e-15 * (1.0 + np.abs(za).max(axis=1)))]
    return z, np.abs(_horner(_horner(gens, z[:, 0]), z[:, 1]))


def _solve_points(gens: list[BiPoly]) -> list[IsolatedPoint]:
    """Common zeros of two or more nonzero generators with a constant gcd.

    Candidate z1 values come from a z2-free generator when one exists,
    otherwise from the first nonzero pair resultant; z2 values from the
    univariate slices above each candidate; Newton refinement on the chosen
    pair, every candidate at once; acceptance requires each generator's
    residual below TOL_POINT times its coefficient scale (1 + its largest
    coefficient modulus), so scaling a generator does not move the test.
    """
    if any(g.is_constant for g in gens):
        return []  # a unit lies in the system: no common zeros

    z2free = sorted(
        (g for g in gens if g.deg2 == 0), key=lambda g: g.deg1
    )
    candidates: list[complex] = []
    pair: tuple[BiPoly, BiPoly] | None = None
    if z2free:
        src = z2free[0]
        candidates = _distinct_roots(src)
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
                if res.deg1 >= 1:
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
    # through constants), unless every slice overflowed there
    alphas = np.array(candidates, dtype=np.complex128)
    betas = [np.zeros(1, dtype=np.complex128)] * len(candidates)
    pending = list(range(len(candidates)))
    slicers = sorted((g for g in gens if g.deg2 >= 1), key=lambda g: g.deg2)
    for g in slicers:
        if not pending:
            break
        roots, _ = solve_fibers(FiberPoly(g), alphas[pending])
        for i, r in zip(pending, roots):
            if not np.isnan(r).all():
                betas[i] = r[~np.isnan(r)]
        pending = [i for i, r in zip(pending, roots) if np.isnan(r).all()]
    if pending and slicers:
        finite = np.zeros(len(pending), dtype=bool)
        for g in slicers:
            finite |= np.isfinite(FiberPoly(g).coeff_rows(alphas[pending])).all(axis=1)
        if not finite.all():
            raise DecomposeError(
                "a coefficient overflows double precision over the z1 root "
                f"{alphas[pending][~finite][0]:.6g}"
            )
    starts = np.array([(a, b) for a, bs in zip(candidates, betas) for b in bs])

    gA, gB = pair
    system = _row_stack([gA, gB, gA.deriv(1), gA.deriv(2), gB.deriv(1), gB.deriv(2)])
    points, resids = _refine_points(system, _row_stack(gens), starts)

    limits = np.array([TOL_POINT * g.coeff_scale() for g in gens])
    ok = (resids < limits[:, None]).all(axis=0)
    accepted: list[IsolatedPoint] = []
    for (w1, w2), resid in zip(points[ok].tolist(), resids[:, ok].T.tolist()):
        near = (max(abs(w1 - p.location[0]), abs(w2 - p.location[1])) for p in accepted)
        if all(d > POINT_CLUSTER for d in near):
            accepted.append(IsolatedPoint(location=(w1, w2), residuals=tuple(resid)))
    accepted.sort(key=lambda p: _point_key(p.location))
    return accepted


def _point_key(location: tuple[complex, complex]) -> tuple:
    """Sort key of a point: (z1.real, z1.imag, z2.real, z2.imag) rounded to
    the POINT_CLUSTER scale, then the same floats to break ties.

    Coordinates that are equal in exact arithmetic compare equal whatever
    their last bits, so the next coordinate decides their order.
    """
    parts = (location[0].real, location[0].imag, location[1].real, location[1].imag)
    return tuple(round(x / POINT_CLUSTER) for x in parts) + parts


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
                gscale = g.coeff_scale()
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
