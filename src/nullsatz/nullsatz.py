"""Closure/density classification of polynomial ideals in the Bergman space.

The dichotomy being computed: a polynomial ideal is closed exactly when every
irreducible component of its zero set meets the open domain Omega_{p,q}, and
its closure is the whole space exactly when no component does.  Mixed
intersection patterns give NEITHER.  All intersection tests are numeric with
a delta band around the gauge value 1, so boundary-grazing components report
INCONCLUSIVE rather than a guessed verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

from .bergman import (
    MC_SAMPLES,
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
from .rootfind import FiberPoly, TrackError, segment_samples, solve_fibers, track

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


def _band_verdict(phi: float, delta: float) -> str:
    if phi <= 1.0 - delta:
        return INTERSECTS
    if phi >= 1.0 + delta:
        return MISSES
    return INCONCLUSIVE


def intersect_point(
    pt: IsolatedPoint, domain: DomainSpec, delta: float = DELTA
) -> IntersectionResult:
    """Gauge test of a single residual-verified point."""
    z1, z2 = pt.location
    phi = float(domain.phi(z1, z2))
    return IntersectionResult(
        kind="point",
        component=pt,
        min_phi=phi,
        argmin=(z1, z2),
        verdict=_band_verdict(phi, delta),
        trace={"method": "direct", "delta": delta},
    )


def _disk_grid(pitch: float) -> np.ndarray:
    n = int(round(2.0 / pitch)) + 1
    ax = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(ax, ax)
    Z = (X + 1j * Y).ravel()
    return Z[np.abs(Z) <= 1.0 + 1e-12]


def _sheet_phis(fiber: FiberPoly, domain: DomainSpec, z1s: np.ndarray):
    """Min gauge value over the component's sheets above each z1 sample.

    Returns (best_phi, best), best = (z1, z2) at the smallest gauge over all
    converged sheets; ties go to the first sample, then the first sheet.
    (inf, None) when no sheet converged.
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
        phis = np.where(ok, domain.phi_rows(z1s, R), np.inf)
    j = np.argmin(phis, axis=1)
    row_min = phis[np.arange(B), j]
    row_min[~(row_min < np.inf)] = np.inf  # a row whose argmin is NaN never wins
    k = int(np.argmin(row_min))
    if not row_min[k] < np.inf:
        return np.inf, None
    return float(row_min[k]), (complex(z1s[k]), complex(R[k, j[k]]))


def _pruned_scan(fiber: FiberPoly, domain: DomainSpec, grid: np.ndarray):
    """_sheet_phis(fiber, domain, grid), solving only the samples that can matter.

    A coarse pass over every _COARSE_STRIDE-th sample gives coarse_phi, which
    is at least the minimum over the grid.  A sample with |z1|^p > coarse_phi
    has phi >= |z1|^p > coarse_phi (adding |z2|^q >= 0 cannot round below
    |z1|^p), so it can neither win nor tie; the full pass runs on the other
    samples, in grid order, and returns the same (best_phi, best).
    """
    coarse_phi, _ = _sheet_phis(fiber, domain, grid[::_COARSE_STRIDE])
    return _sheet_phis(fiber, domain, grid[domain.z1_terms(grid) <= coarse_phi])


def _newton_z2(coeffs: np.ndarray, z2: complex, iters: int = 12) -> complex:
    """Polish a z2 root of an ascending univariate slice."""
    d = np.arange(1, coeffs.size) * coeffs[1:]
    for _ in range(iters):
        p = complex(np.polyval(coeffs[::-1], z2))
        dp = complex(np.polyval(d[::-1], z2)) if d.size else 0.0
        if dp == 0:
            break
        step = p / dp
        z2 -= step
        if abs(step) < 1e-15 * (1.0 + abs(z2)):
            break
    return z2


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
        rows, cols = linear_sum_assignment(cost)
        if cost[rows, cols].max() < ONCOMP_TOL * (1.0 + np.abs(true_sheets).max()):
            return True
    return False


def intersect_curve(
    comp: CurveComponent,
    domain: DomainSpec,
    delta: float = DELTA,
    pitch: float = GRID_PITCH,
) -> IntersectionResult:
    """Minimize the gauge over one curve component.

    The search runs over |z1| <= 1 only: outside that disk the gauge already
    exceeds 1.  Sheets come from the interpolated defining polynomial; an
    INTERSECTS argmin is re-verified against the exact parent factor and by
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
            verdict=_band_verdict(phi, delta),
            trace={"method": "vertical-closed-form", "delta": delta},
        )

    fiber = FiberPoly(comp.defining)
    grid = _disk_grid(pitch)
    best_phi, best = _pruned_scan(fiber, domain, grid)
    trace = {
        "method": "grid+descent",
        "grid_points": int(grid.size),
        "pitch": pitch,
        "delta": delta,
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

    def objective(xy):
        z1 = complex(xy[0], xy[1])
        if abs(z1) > 1.0:  # phi > 1 there; keep the descent inside the disk
            return np.inf
        phi, _ = _sheet_phis(fiber, domain, np.array([z1]))
        return phi

    res = minimize(
        objective,
        x0=[best[0].real, best[0].imag],
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 200},
    )
    trace["refine_steps"] = int(res.nit)
    if res.fun < best_phi:
        z1r = complex(res.x[0], res.x[1])
        _, cand = _sheet_phis(fiber, domain, np.array([z1r]))
        if cand is not None:
            best_phi, best = float(res.fun), cand

    # polish the candidate onto the exact curve before judging
    _, pp = content_pp_z2(comp.parent)
    z1s, z2s = best
    z2s = _newton_z2(FiberPoly(pp).coeffs_at(z1s), z2s)
    best_phi = float(domain.phi(z1s, z2s))
    best = (z1s, z2s)

    # at a branch point Newton can jump to a sheet of another factor of pp
    note = None
    verdict = _band_verdict(best_phi, delta)
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
    delta: float = DELTA,
    pitch: float = GRID_PITCH,
    with_certificate: bool = True,
    mc_samples: int = MC_SAMPLES,
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
        "delta": delta,
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
        [intersect_curve(c, domain, delta=delta, pitch=pitch)
         for c in dec.curve_components]
        + [intersect_point(p, domain, delta=delta) for p in dec.points]
    )

    overall, justification = aggregate_verdicts([r.verdict for r in results])

    witness = None
    if overall == CLOSED:
        for r in results:
            if r.verdict != INTERSECTS or r.argmin is None:
                continue
            w1, w2 = r.argmin
            resid = max(abs(g.eval(w1, w2)) for g in gens)
            if resid < TOL_POINT and domain.phi(w1, w2) < 1.0 - delta:
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
        certificate = density_certificate(
            gens[0],
            domain,
            N_max=n_max,
            mc_samples=mc_samples,
            seed=seed,
        )

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
