"""Closure/density classification of polynomial ideals in the Bergman space.

The dichotomy being computed: a polynomial ideal is closed exactly when every
irreducible component of its zero set meets the open domain Omega_{p,q}, and
its closure is the whole space exactly when no component does.  Mixed
intersection patterns give NEITHER.  All intersection tests are numeric with
a band of half-width DELTA around the gauge value 1, so boundary-grazing
components report INCONCLUSIVE rather than a guessed verdict.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .bergman import (
    N_MAX,
    DensityCertificate,
    DomainSpec,
    density_certificate,
)
from .decompose import (
    TOL_POINT,
    CurveComponent,
    DecomposeError,
    IsolatedPoint,
    VarietyDecomposition,
    decompose_ideal,
)
from .polyalg import BiPoly, content_pp_z2
from .rootfind import (
    TOL_RES,
    FiberPoly,
    TrackError,
    _horner,
    _horner_d,
    _nearest_pairing,
    segment_samples,
    solve_fibers,
    track,
)

INTERSECTS = "INTERSECTS"
MISSES = "MISSES"
INCONCLUSIVE = "INCONCLUSIVE"

CLOSED = "CLOSED"
DENSE = "DENSE"
NEITHER = "NEITHER"

DELTA = 1e-6
GRID_PITCH = 0.01
ONCOMP_TOL = 1e-6
# every _COARSE_STRIDE-th grid sample is solved first to bound the minimum
_COARSE_STRIDE = 16
_SCAN_BLOCK = 2048  # kept samples solved at once, so the peak memory is bounded
# the root-modulus floor of the grid scan: bisection steps past its
# closed-form start, and the relative margin it is shrunk by
_FLOOR_BISECTIONS = 6
_FLOOR_MARGIN = 1e-9
# the sheet descent stops once its step length falls below _STEP_MIN or after
# _DESCENT_STEPS accepted steps.  A corrected z2 must land within _SHEET_TOL
# of the step's length from its prediction, with a last Newton step below
# _CORRECTOR_TOL relative to |z2|; phi values within _PHI_ROUNDING relative
# of each other count as equal, and the smaller gradient then decides
_STEP_MIN = 1e-12
_DESCENT_STEPS = 200
_SHEET_TOL = 0.25
_CORRECTOR_TOL = 1e-12
_PHI_ROUNDING = 1e-14
_POLISH_ITERS = 12  # the most Newton steps _newton_z2 takes


@dataclass(frozen=True)
class IntersectionResult:
    """Outcome of testing one component against the domain."""

    kind: str  # "curve" | "point"
    component: CurveComponent | IsolatedPoint
    min_phi: float
    argmin: tuple[complex, complex] | None
    verdict: str
    trace: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "min_phi": self.min_phi,
            "argmin": None
            if self.argmin is None
            else [
                [self.argmin[0].real, self.argmin[0].imag],
                [self.argmin[1].real, self.argmin[1].imag],
            ],
            "trace": self.trace,
            "component": self.component.to_json_dict(),
        }


@dataclass(frozen=True)
class ClosureVerdict:
    """Aggregated intersection results with the fired dichotomy clause."""

    results: tuple[IntersectionResult, ...]
    overall: str
    justification: str
    domain: DomainSpec
    witness: tuple[complex, complex] | None = None
    certificate: DensityCertificate | None = None
    decomposition: VarietyDecomposition | None = None
    trace: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "kind": "closure_verdict",
            "overall": self.overall,
            "justification": self.justification,
            "domain": self.domain.to_json_dict(),
            "witness": None
            if self.witness is None
            else [
                [self.witness[0].real, self.witness[0].imag],
                [self.witness[1].real, self.witness[1].imag],
            ],
            "components": [r.to_json_dict() for r in self.results],
            "certificate": None
            if self.certificate is None
            else self.certificate.to_json_dict(),
            "decomposition": None
            if self.decomposition is None
            else self.decomposition.to_json_dict(),
            "trace": self.trace,
        }


def _band_verdict(phi: float) -> str:
    if phi <= 1.0 - DELTA:
        return INTERSECTS
    if phi >= 1.0 + DELTA:
        return MISSES
    return INCONCLUSIVE


def intersect_point(pt: IsolatedPoint, domain: DomainSpec) -> IntersectionResult:
    """Gauge test of a single residual-verified point."""
    z1, z2 = pt.location
    phi = float(domain.phi(z1, z2))
    return IntersectionResult(
        kind="point",
        component=pt,
        min_phi=phi,
        argmin=(z1, z2),
        verdict=_band_verdict(phi),
        trace={"method": "direct", "delta": DELTA},
    )


@functools.lru_cache(maxsize=4)
def _disk_grid(pitch: float) -> np.ndarray:
    """The grid of this pitch over |z1| <= 1, built once, as a read-only array."""
    n = int(round(2.0 / pitch)) + 1
    ax = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(ax, ax)
    Z = (X + 1j * Y).ravel()
    Z = Z[np.abs(Z) <= 1.0 + 1e-12]
    Z.flags.writeable = False
    return Z


@functools.lru_cache(maxsize=8)
def _grid_terms(pitch: float, domain: DomainSpec) -> np.ndarray:
    """domain.z1_terms(_disk_grid(pitch)), built once, as a read-only array.

    Every component scanned on one domain shares it.
    """
    terms = domain.z1_terms(_disk_grid(pitch))
    terms.flags.writeable = False
    return terms


def _sheet_phis(fiber: FiberPoly, domain: DomainSpec, z1s: np.ndarray, terms: np.ndarray):
    """Min gauge value over the component's sheets above each z1 sample.

    terms holds domain.z1_terms(z1s), so each gauge rounds as domain.phi
    does for one scalar z1.  Returns (best_phi, best), best = (z1, z2) at
    the smallest gauge over all converged sheets; ties go to the first
    sample, then the first sheet.  (inf, None) when no sheet converged.
    """
    roots, conv = solve_fibers(fiber, z1s)
    sizes = np.array([r.size for r in roots], dtype=np.intp)
    width = int(sizes.max(initial=0))
    if width == 0:
        return np.inf, None
    # pad the ragged fibers into one (B, width) matrix; padding never converges
    B = sizes.size
    filled = np.arange(width) < sizes[:, None]
    R = np.zeros((B, width), dtype=np.complex128)
    ok = np.zeros((B, width), dtype=bool)
    R[filled] = np.concatenate(roots)
    ok[filled] = np.concatenate(conv)
    with np.errstate(all="ignore"):
        phis = np.where(ok, terms.reshape(-1, 1) + np.abs(R) ** domain.q, np.inf)
    j = np.argmin(phis, axis=1)
    row_min = phis[np.arange(B), j]
    row_min[~(row_min < np.inf)] = np.inf  # a row whose argmin is NaN never wins
    k = int(np.argmin(row_min))
    if not row_min[k] < np.inf:
        return np.inf, None
    return float(row_min[k]), (complex(z1s[k]), complex(R[k, j[k]]))


def _root_floor(rows: np.ndarray) -> np.ndarray:
    """A lower bound on |z2| over the converged roots of each coefficient row.

    rows: (B, m+1) ascending z2-coefficients a_0..a_m, m >= 1.  A root that
    _aberth_sweep accepts has |p(x)| <= eps = TOL_RES * (1 + max|a_k|), so
    S(|x|) >= |a_0| - eps for S(r) = sum_{k>=1} |a_k| r^k (Cauchy's lower
    bound, with the accepted residual taken off |a_0|); any r with
    S(r) < |a_0| - eps is therefore below |x|.  The search starts at
    min_k ((|a_0| - eps) / (m |a_k|))^(1/k), where S is at most |a_0| - eps,
    and bisects toward min_k ((|a_0| - eps) / |a_k|)^(1/k), moving only to
    points where S is still below.  The result is shrunk by _FLOOR_MARGIN to
    absorb rounding; a row whose floor comes out NaN or negative (|a_0| at
    most eps) gets 0, and a row with no z2 terms gets inf, as it has no
    roots.  Stripping a degenerate leading coefficient (solve_fibers) only
    lowers S, so the floor holds for the truncated row too.
    """
    mag = np.abs(rows)
    a0 = mag[:, 0] - TOL_RES * (1.0 + mag.max(axis=1))
    ak = mag[:, 1:]
    m = ak.shape[1]
    k = np.arange(1, m + 1)
    with np.errstate(all="ignore"):
        lo = np.min((a0[:, None] / (m * ak)) ** (1.0 / k), axis=1)
        hi = np.min((a0[:, None] / ak) ** (1.0 / k), axis=1)
        for _ in range(_FLOOR_BISECTIONS):
            mid = 0.5 * (lo + hi)
            below = np.sum(ak * mid[:, None] ** k, axis=1) < a0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        r = lo * (1.0 - _FLOOR_MARGIN)
    return np.where(r > 0.0, r, 0.0)


def _pruned_scan(fiber: FiberPoly, domain: DomainSpec, z1s: np.ndarray, terms: np.ndarray):
    """_sheet_phis(fiber, domain, z1s, terms), solving only the samples that can matter.

    terms holds domain.z1_terms(z1s).  A coarse pass over every
    _COARSE_STRIDE-th sample gives coarse_phi, which is at least the minimum
    over the samples.  Every root above a sample z1 has |z2| >= r(z1), the
    _root_floor of its coefficient row, so phi >= |z1|^p + r^q there.  A
    sample with |z1|^p + r^q > coarse_phi can neither win nor tie: the margin
    keeps r below every root, so r^q cannot round above |z2|^q, and |z1|^p is
    the terms value the gauge adds.  The full pass runs on the other samples,
    in order, and returns the same (best_phi, best).  With r = 0 this is the
    bound phi >= |z1|^p alone; the floor is what prunes a component that
    misses the domain, where |z1|^p <= 1 < phi everywhere.  The full pass
    runs _SCAN_BLOCK samples at a time; ties go to the first block.
    """
    s = _COARSE_STRIDE
    coarse_phi, _ = _sheet_phis(fiber, domain, z1s[::s], terms[::s])
    with np.errstate(over="ignore"):
        bound = terms + _root_floor(fiber.coeff_rows(z1s)) ** domain.q
    keep = np.flatnonzero(bound <= coarse_phi)
    blocks = np.split(keep, range(_SCAN_BLOCK, keep.size, _SCAN_BLOCK))
    return min((_sheet_phis(fiber, domain, z1s[i], terms[i]) for i in blocks), key=lambda r: r[0])


def _newton_z2(coeffs, z2: complex) -> complex:
    """Polish a z2 root of an ascending univariate slice (complex scalars)."""
    for _ in range(_POLISH_ITERS):
        f, df = _horner_d(coeffs, z2)
        if df == 0:
            break
        step = f / df
        z2 -= step
        if abs(step) < 1e-15 * (1.0 + abs(z2)):
            break
    return z2


def _slice(cols: list[list[complex]], z1: complex):
    """The z2-coefficients of a curve at z1 and their z1-derivatives.

    cols[b] lists the ascending z1-coefficients of the curve's z2^b term.
    """
    return tuple(zip(*(_horner_d(col, z1) for col in cols)))


def _pow_grad(z: complex, e: float) -> complex:
    """The gradient d/dx + i d/dy of |z|^e at z = x + iy; 0 at z = 0."""
    if z == 0:
        return 0j
    r = abs(z)
    return e * r ** (e - 1.0) * (z / r)


def _into_disk(z: complex) -> complex:
    """z, or its radial projection onto |z| <= 1 (never rounding outside)."""
    r = abs(z)
    if r <= 1.0:
        return z
    z /= r
    while abs(z) > 1.0:
        z *= 1.0 - 2.0**-52
    return z


def _bfgs(H, s: complex, y: complex):
    """The BFGS update of an inverse Hessian H = (h11, h12, h22) of a function
    of z1 = x + iy, by a step s and the gradient change y over it.

    H None stands for a fresh estimate, taken as (s.y / y.y) times the
    identity (Nocedal & Wright, Numerical Optimization, (6.20)).  Without
    positive curvature, s.y <= 0, H is returned as it is.
    """
    sy = (s.conjugate() * y).real
    if not sy > 0.0:
        return H
    if H is None:
        c = sy / abs(y) ** 2
        H = (c, 0.0, c)
    h11, h12, h22 = H
    a = h11 * y.real + h12 * y.imag  # H y
    b = h12 * y.real + h22 * y.imag
    r = 1.0 / sy
    c = r * r * (y.real * a + y.imag * b) + r
    return (
        h11 - 2.0 * r * s.real * a + c * s.real**2,
        h12 - r * (s.real * b + a * s.imag) + c * s.real * s.imag,
        h22 - 2.0 * r * s.imag * b + c * s.imag**2,
    )


def _descend(cols, domain: DomainSpec, z1: complex, z2: complex, step: float):
    """Lower phi from a point (z1, z2) of a curve along the curve's sheet through it.

    cols holds the curve as in _slice.  On the sheet z2 is a function of z1
    with dz2/dz1 = w = -f_z1 / f_z2, so the real gradient of
    phi = |z1|^p + |z2|^q along it is g = p|z1|^(p-2) z1 + q|z2|^(q-2) z2 conj(w).
    Inside the disk a step moves z1 a length t along -H g, where H is a BFGS
    estimate of the inverse Hessian built from the steps taken; it learns the
    narrow valleys that |z1|^p and |z2|^q make next to z1 = 0 and z2 = 0
    when p or q is small.  On the rim |z1| = 1, where -g points out of the
    disk, the step follows the tangential part of -g and H starts afresh.
    A step that leaves the disk is projected back (on the rim this turns the
    angle only); z2 is predicted as z2 + w dz1 and corrected by _newton_z2.
    The step is accepted when the corrector converges within _SHEET_TOL of
    the step from the prediction, so it cannot jump to another sheet, and
    phi decreases by more than _PHI_ROUNDING relative, or stays within it
    while |G| shrinks, G being the gradient the step follows (where phi is
    flat to rounding, the gradient still locates a smooth minimum).  t then doubles,
    up to the disk's radius; otherwise it halves.  Stops when t falls below
    _STEP_MIN, after _DESCENT_STEPS accepted steps, or where w is undefined.
    Returns (z1, z2, accepted steps).
    """
    p, q = domain.p, domain.q

    def local(z1, z2, rows, drows):
        # (phi, w, g, G, |G|) at a converged point of the sheet, with G the
        # gradient the step follows (g, or its tangential part on the rim);
        # else None.  The caller catches overflow
        f, fz2 = _horner_d(rows, z2)
        fz1 = _horner(drows, z2)
        if fz2 == 0 or abs(f) > _CORRECTOR_TOL * abs(fz2) * (1.0 + abs(z2)):
            return None
        w = -fz1 / fz2
        g = G = _pow_grad(z1, p) + _pow_grad(z2, q) * w.conjugate()
        if abs(z1) >= 1.0 - _STEP_MIN and (z1.conjugate() * g).real < 0:
            u = z1 / abs(z1)
            G = 1j * u * (u.conjugate() * g).imag
        return abs(z1) ** p + abs(z2) ** q, w, g, G, abs(G)

    try:
        cur = local(z1, z2, *_slice(cols, z1))
    except (OverflowError, ZeroDivisionError):
        cur = None
    H = None
    steps, t = 0, step
    while cur is not None and steps < _DESCENT_STEPS and t >= _STEP_MIN:
        phi, w, g, G, Gn = cur
        if not Gn > 0.0:  # a stationary point, or a gradient that overflowed
            break
        d = -G
        if H is not None and G is g:
            h11, h12, h22 = H
            d = -complex(h11 * g.real + h12 * g.imag, h12 * g.real + h22 * g.imag)
        dn = abs(d)
        if not (dn > 0.0 and (G.conjugate() * d).real < 0.0):
            H, d, dn = None, -G, Gn
        raw = z1 + t * (d / dn)
        z1n = _into_disk(raw)
        pred = z2 + w * (z1n - z1)
        rows, drows = _slice(cols, z1n)
        try:
            z2n = _newton_z2(rows, pred)
            near = abs(z2n - pred) <= _SHEET_TOL * (abs(z1n - z1) + abs(pred - z2))
            new = local(z1n, z2n, rows, drows) if near else None
        except (OverflowError, ZeroDivisionError):
            new = None
        if new is not None and (
            new[0] < phi * (1.0 - _PHI_ROUNDING)
            or (new[0] <= phi * (1.0 + _PHI_ROUNDING) and new[4] < Gn)
        ):
            inside = z1n == raw and G is g and new[3] is new[2]
            H = _bfgs(H, z1n - z1, new[2] - g) if inside else None
            z1, z2, cur = z1n, z2n, new
            steps += 1
            t = min(2.0 * t, 1.0)
        else:
            t *= 0.5
    return z1, z2, steps


def _on_component(comp: CurveComponent, z1: complex, z2: complex) -> bool:
    """|defining(z1, z2)| is within ONCOMP_TOL of the local coefficient scale."""
    fiber = FiberPoly(comp.defining)
    local = 1.0 + float(np.abs(fiber.coeffs_at(z1)).max()) * (1.0 + abs(z2)) ** fiber.deg2
    return abs(comp.eval_defining(z1, z2)) <= ONCOMP_TOL * local


def _continuation_check(
    comp: CurveComponent, pp: BiPoly, z1: complex, z2: complex
) -> bool:
    """Confirm an on-component (z1, z2) sits on this orbit by tracking.

    The component's interpolated sheet family must agree with true
    continuation from the base fiber at a regular point next to the witness.
    The detour around the witness itself matters: at an exact branch point
    the sheets coincide and direct tracking cannot terminate.
    """
    fiber = FiberPoly(comp.defining)
    fp = FiberPoly(pp)
    for off in (1e-3, 1e-3j, -1e-3, 2e-2):
        target = z1 + off * (1.0 + abs(z1))
        try:
            path = segment_samples(comp.base_point, target, 16)
            tracked = track(fp, path, fiber0=np.array(comp.base_fiber))
        except TrackError:
            continue
        true_sheets = tracked.end[list(comp.orbit)]
        roots, conv = solve_fibers(fiber, np.array([target]))
        interp_sheets = roots[0][conv[0]]
        if interp_sheets.size != true_sheets.size:
            continue
        cost = np.abs(interp_sheets[:, None] - true_sheets[None, :])
        tol = ONCOMP_TOL * (1.0 + np.abs(true_sheets).max())
        if _nearest_pairing(cost) is not None and cost.min(axis=1).max() < tol:
            return True
    return False


def intersect_curve(
    comp: CurveComponent,
    domain: DomainSpec,
    pitch: float = GRID_PITCH,
) -> IntersectionResult:
    """Minimize the gauge over one curve component.

    The search runs over |z1| <= 1 only: outside that disk the gauge already
    exceeds 1.  A pruned grid scan over the sheets of the interpolated
    defining polynomial finds a start; Newton puts every sheet above it onto
    the exact parent curve, _descend lowers the gauge along each, and the
    lowest end is kept, so the argmin lies on the exact curve and its gauge
    is not above the grid sheet's start beyond rounding.
    trace["refine_steps"] counts the descents' accepted steps.  The argmin
    must lie on the component, and an INTERSECTS argmin is re-verified by
    continuation from the component's base fiber.
    """
    if comp.vertical:
        c = comp.base_point
        phi = float(domain.phi(c, 0.0))
        return IntersectionResult(
            kind="curve",
            component=comp,
            min_phi=phi,
            argmin=(c, 0.0 + 0j),
            verdict=_band_verdict(phi),
            trace={"method": "vertical-closed-form", "delta": DELTA},
        )

    fiber = FiberPoly(comp.defining)
    grid = _disk_grid(pitch)
    _, best = _pruned_scan(fiber, domain, grid, _grid_terms(pitch, domain))
    trace = {
        "method": "grid+descent",
        "grid_points": int(grid.size),
        "pitch": pitch,
        "delta": DELTA,
        "refine_steps": 0,
    }
    if best is None:
        return IntersectionResult(
            kind="curve",
            component=comp,
            min_phi=float("inf"),
            argmin=None,
            verdict=INCONCLUSIVE,
            trace={**trace, "note": "no sheet values found over the disk"},
        )

    # descend on the exact curve from every sheet above the grid argmin, its
    # own sheet first, and keep the lowest end: two sheets can have minima
    # close together, and the grid need not pick the lower one
    _, pp = content_pp_z2(comp.parent)
    cols = pp.coeff_matrix().T.tolist()
    z1g, z2g = best
    roots, conv = solve_fibers(fiber, np.array([z1g]))
    others = roots[0][conv[0]]
    starts = [z2g, *others[np.argsort(np.abs(others - z2g))[1:]].tolist()]
    rows = _slice(cols, z1g)[0]
    ends = []
    for z2 in starts:
        z1s, z2s, steps = _descend(cols, domain, z1g, _newton_z2(rows, z2), pitch)
        trace["refine_steps"] += steps
        ends.append((float(domain.phi(z1s, z2s)), z1s, z2s))
    best_phi, z1s, z2s = min(ends, key=lambda end: end[0])
    best = (z1s, z2s)

    # at a branch point Newton can jump to a sheet of another factor of pp
    note = None
    verdict = _band_verdict(best_phi)
    if not _on_component(comp, z1s, z2s):
        note = "polish left the component"
    elif verdict == INTERSECTS:
        if _continuation_check(comp, pp, z1s, z2s):
            trace["continuation_verified"] = True
        else:
            note = "continuation to the argmin failed"
    if note is not None:
        return IntersectionResult(
            kind="curve",
            component=comp,
            min_phi=best_phi,
            argmin=best,
            verdict=INCONCLUSIVE,
            trace={**trace, "note": note},
        )
    return IntersectionResult(
        kind="curve",
        component=comp,
        min_phi=best_phi,
        argmin=best,
        verdict=verdict,
        trace=trace,
    )


def aggregate_verdicts(verdicts: list[str]) -> tuple[str, str]:
    """The dichotomy table: all-in CLOSED, all-out DENSE, mixed NEITHER."""
    if not verdicts:
        return DENSE, "zero set is empty; nothing obstructs density"
    if any(v == INCONCLUSIVE for v in verdicts):
        return INCONCLUSIVE, "at least one component test was inconclusive"
    hits = sum(v == INTERSECTS for v in verdicts)
    if hits == len(verdicts):
        return CLOSED, "every component of the zero set meets the open domain"
    if hits == 0:
        return DENSE, "no component of the zero set meets the open domain"
    return NEITHER, "some components meet the domain and some do not"


def classify(
    generators: list[BiPoly],
    domain: DomainSpec,
    seed: int = 0,
    pitch: float = GRID_PITCH,
    with_certificate: bool = True,
    n_max: int = N_MAX,
) -> ClosureVerdict:
    """Full pipeline: decompose the variety, test every component, aggregate.

    CLOSED verdicts name a common zero inside the domain (the point whose
    maximal ideal contains the input); DENSE verdicts on principal inputs
    attach a density certificate for the generator.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise ValueError("classify needs at least one nonzero generator")
    base_trace = {
        "seed": seed,
        "delta": DELTA,
        "pitch": pitch,
        "tol_point": TOL_POINT,
    }

    try:
        dec = decompose_ideal(gens, seed=seed)
    except DecomposeError as exc:
        return ClosureVerdict(
            results=(),
            overall=INCONCLUSIVE,
            justification=f"decomposition failed: {exc}",
            domain=domain,
            trace=base_trace,
        )

    results = tuple(
        [intersect_curve(c, domain, pitch=pitch) for c in dec.curve_components]
        + [intersect_point(p, domain) for p in dec.points]
    )

    overall, justification = aggregate_verdicts([r.verdict for r in results])

    witness = None
    if overall == CLOSED:
        for r in results:
            if r.verdict != INTERSECTS or r.argmin is None:
                continue
            w1, w2 = r.argmin
            on_zero_set = all(
                abs(g.eval(w1, w2)) < TOL_POINT * g.coeff_scale() for g in gens
            )
            if on_zero_set and domain.phi(w1, w2) < 1.0 - DELTA:
                witness = (w1, w2)
                break
        if witness is None:
            overall = INCONCLUSIVE
            justification = (
                "intersections found but no argmin satisfied the generator "
                "residual bound"
            )

    certificate = None
    if overall == DENSE and with_certificate and len(gens) == 1:
        certificate = density_certificate(gens[0], domain, N_max=n_max)

    return ClosureVerdict(
        results=results,
        overall=overall,
        justification=justification,
        domain=domain,
        witness=witness,
        certificate=certificate,
        decomposition=dec,
        trace=base_trace,
    )
