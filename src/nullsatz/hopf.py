"""Rotation search on the unit sphere of C^2 and the one-variable dilation
ratio on the ball.

A unitary rotation is sought that moves the circle {(0, e^{i a})} onto a
great circle {(a e^{i t}, b e^{i t})} on which a given polynomial has no
zeros; the circle modulus minimum is the certified margin.  The companion
observable is the sampled supremum of |f(z1, z2) / f(r z1, z2)| over the
closed ball, whose finiteness backs the dilation-convergence argument for
zero-free functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bergman import (
    DENOM_FLOOR,
    R_GRID_DEFAULT,
    RATIO_SAMPLES,
    DomainSpec,
    check_r_grid,
    eval_grid,
    sample_closure,
)
from .polyalg import BiPoly, poly_to_json

TOL_CIRCLE = 1e-6
ALPHA_GRID = 4096
MAX_TRIALS = 512
GOLDEN_ITERS = 48

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class RotationSearchError(RuntimeError):
    """No candidate circle cleared the modulus threshold."""

    def __init__(self, msg: str, best: "HopfRotation | None" = None):
        super().__init__(msg)
        self.best = best


@dataclass(frozen=True)
class HopfRotation:
    """A determinant-one unitary taking (0, e^{i a}) to (a e^{i a}, b e^{i a})."""

    a: complex
    b: complex
    min_modulus: float
    trace: dict = field(default_factory=dict)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [np.conj(self.b), self.a],
                [-np.conj(self.a), self.b],
            ],
            dtype=np.complex128,
        )

    def unitarity_defect(self) -> float:
        rho = self.matrix
        gram = rho.conj().T @ rho
        det = rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]
        return max(float(np.abs(gram - np.eye(2)).max()), abs(det - 1.0))

    def apply(self, w1, w2):
        rho = self.matrix
        return rho[0, 0] * w1 + rho[0, 1] * w2, rho[1, 0] * w1 + rho[1, 1] * w2

    def to_json_dict(self) -> dict:
        rho = self.matrix
        return {
            "kind": "hopf_rotation",
            "a": [self.a.real, self.a.imag],
            "b": [self.b.real, self.b.imag],
            "matrix": [[[m.real, m.imag] for m in row] for row in rho],
            "min_modulus": self.min_modulus,
            "trace": self.trace,
        }


def circle_coefficients(f: BiPoly, a: complex, b: complex) -> np.ndarray:
    """Fourier coefficients C_d of t -> f(a e^{i t}, b e^{i t}).

    f(a e^{it}, b e^{it}) = sum_d C_d e^{i d t} with C_d collecting every
    monomial of total degree d.
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no circle restriction")
    deg = max(j + k for j, k in f.terms)
    C = np.zeros(deg + 1, dtype=np.complex128)
    for (j, k), c in f.terms.items():
        C[j + k] += complex(c) * a**j * b**k
    return C


def _circle_values(C: np.ndarray, grid: int) -> np.ndarray:
    # values at t_n = 2 pi n / grid via the inverse DFT convention
    return np.fft.ifft(C, n=grid) * grid


def _golden_min(fun, lo: float, hi: float) -> tuple[float, float]:
    inv = 1.0 / _GOLDEN
    x1 = hi - (hi - lo) * inv
    x2 = lo + (hi - lo) * inv
    f1, f2 = fun(x1), fun(x2)
    for _ in range(GOLDEN_ITERS):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - (hi - lo) * inv
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + (hi - lo) * inv
            f2 = fun(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


def circle_min_modulus(
    f: BiPoly, a: complex, b: complex, grid: int = ALPHA_GRID, refine: bool = True
) -> tuple[float, float]:
    """(min over t of |f(a e^{it}, b e^{it})|, argmin t).

    Dense-grid scan via FFT, then a local golden-section pass around the
    grid minimum.
    """
    C = circle_coefficients(f, a, b)
    vals = np.abs(_circle_values(C, grid))
    m = int(np.argmin(vals))
    t_m = 2.0 * math.pi * m / grid
    if not refine:
        return float(vals[m]), t_m
    step = 2.0 * math.pi / grid
    d = np.arange(C.size)

    def mod_at(t: float) -> float:
        return float(np.abs(np.sum(C * np.exp(1j * d * t))))

    t_best, v_best = _golden_min(mod_at, t_m - step, t_m + step)
    if v_best < vals[m]:
        return v_best, t_best
    return float(vals[m]), t_m


def _fiber_rep(theta: float, phi: float) -> tuple[complex, complex]:
    # one representative per Hopf fiber over the sphere point (theta, phi)
    return (
        complex(math.cos(theta / 2.0)),
        math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi)),
    )


def find_rotation(
    f: BiPoly,
    seed: int = 0,
    alpha_grid: int = ALPHA_GRID,
) -> HopfRotation:
    """Search the sphere of circles for one avoiding the zero set of f.

    Candidates cover the fiber base by a Fibonacci lattice (seed rotates the
    lattice), the best candidate's (theta, phi) is polished by a compass
    pattern search on the circle-minimum objective, and the final minimum is
    golden-section refined in t.  Raises RotationSearchError (carrying the
    best candidate) when nothing clears TOL_CIRCLE.
    """
    if f.is_zero:
        raise ValueError("cannot rotate the zero polynomial")
    rng = np.random.default_rng(seed)
    phase = 2.0 * math.pi * rng.random()

    def objective(theta: float, phi: float) -> float:
        a, b = _fiber_rep(theta, phi)
        return circle_min_modulus(f, a, b, grid=alpha_grid, refine=False)[0]

    best_theta, best_phi, best_val = 0.0, 0.0, -1.0
    for i in range(MAX_TRIALS):
        z = 1.0 - 2.0 * (i + 0.5) / MAX_TRIALS
        theta = math.acos(max(-1.0, min(1.0, z)))
        phi = math.fmod(2.0 * math.pi * i / _GOLDEN + phase, 2.0 * math.pi)
        v = objective(theta, phi)
        if v > best_val:
            best_theta, best_phi, best_val = theta, phi, v

    # compass pattern search on (theta, phi)
    step = 0.2
    theta, phi, val = best_theta, best_phi, best_val
    polish_steps = 0
    while step > 1e-9 and polish_steps < 400:
        moved = False
        for dt, dp in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            t2 = min(max(theta + dt, 0.0), math.pi)
            p2 = math.fmod(phi + dp + 2.0 * math.pi, 2.0 * math.pi)
            v2 = objective(t2, p2)
            polish_steps += 1
            if v2 > val:
                theta, phi, val = t2, p2, v2
                moved = True
                break
        if not moved:
            step *= 0.5

    a, b = _fiber_rep(theta, phi)
    min_mod, t_min = circle_min_modulus(f, a, b, grid=alpha_grid, refine=True)
    rot = HopfRotation(
        a=a,
        b=b,
        min_modulus=min_mod,
        trace={
            "seed": seed,
            "trials": MAX_TRIALS,
            "alpha_grid": alpha_grid,
            "polish_steps": polish_steps,
            "argmin_t": t_min,
        },
    )
    if min_mod <= TOL_CIRCLE:
        raise RotationSearchError(
            f"no circle cleared modulus {TOL_CIRCLE:g}; best candidate "
            f"reached {min_mod:.3e}",
            best=rot,
        )
    return rot


@dataclass(frozen=True)
class BallRatioReport:
    """Sampled sup of |f(z1, z2) / f(r z1, z2)| on the closed ball."""

    poly: BiPoly
    r_grid: tuple[float, ...]
    samples: int
    seed: int
    sup: float
    sup_point: tuple[complex, complex]
    sup_r: float
    finite: bool
    flagged: tuple[tuple[complex, complex, float], ...]
    deviation_profile: tuple[float, ...]  # sup |1 - ratio| per r

    def to_json_dict(self) -> dict:
        return {
            "kind": "ball_ratio_report",
            "poly": poly_to_json(self.poly),
            "r_grid": list(self.r_grid),
            "samples": self.samples,
            "seed": self.seed,
            "sup": self.sup,
            "sup_point": [
                [self.sup_point[0].real, self.sup_point[0].imag],
                [self.sup_point[1].real, self.sup_point[1].imag],
            ],
            "sup_r": self.sup_r,
            "finite": self.finite,
            "flagged": [
                {"z1": [z1.real, z1.imag], "z2": [z2.real, z2.imag], "r": r}
                for z1, z2, r in self.flagged
            ],
            "deviation_profile": list(self.deviation_profile),
        }


def ball_ratio_sup(
    f: BiPoly,
    r_grid: tuple[float, ...] = R_GRID_DEFAULT,
    samples: int = RATIO_SAMPLES,
    seed: int = 0,
) -> BallRatioReport:
    """Empirical constant for the one-variable dilation ratio on the ball.

    Only z1 is dilated: the ratio is |f(z1, z2)| / |f(r z1, z2)|.  The
    caller asserts f has no zeros with z1 = 0 on the closed ball (a rotation
    from find_rotation arranges this); near-zero denominators are flagged as
    evidence against that precondition rather than silently clipped.
    """
    if f.is_zero:
        raise ValueError("ratio of the zero polynomial is undefined")
    check_r_grid(r_grid)
    ball = DomainSpec.ball()
    z1, z2 = sample_closure(ball, samples, seed)
    fvals = eval_grid(f, z1, z2)
    scale = 1.0 + float(np.abs(fvals).max())

    sup = 0.0
    sup_point = (0j, 0j)
    sup_r = r_grid[0]
    flagged: list[tuple[complex, complex, float]] = []
    deviations: list[float] = []
    for r in r_grid:
        den = eval_grid(f, r * z1, z2)
        aden = np.abs(den)
        bad = aden < DENOM_FLOOR * scale
        for idx in np.nonzero(bad)[0][:16]:
            flagged.append((complex(z1[idx]), complex(z2[idx]), float(r)))
        ok = ~bad
        if not ok.any():
            deviations.append(float("inf"))
            continue
        ratio = np.abs(fvals[ok]) / aden[ok]
        j = int(np.argmax(ratio))
        if ratio[j] > sup:
            sup = float(ratio[j])
            src = np.nonzero(ok)[0][j]
            sup_point = (complex(z1[src]), complex(z2[src]))
            sup_r = float(r)
        deviations.append(float(np.abs(1.0 - fvals[ok] / den[ok]).max()))

    return BallRatioReport(
        poly=f,
        r_grid=tuple(float(r) for r in r_grid),
        samples=samples,
        seed=seed,
        sup=sup,
        sup_point=sup_point,
        sup_r=sup_r,
        finite=not flagged,
        flagged=tuple(flagged),
        deviation_profile=tuple(deviations),
    )
