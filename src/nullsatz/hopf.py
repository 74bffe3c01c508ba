"""Rotation search on the unit sphere of C^2 and the one-variable dilation
ratio on the ball.

A unitary rotation is sought that moves the circle {(0, e^{i a})} onto a
great circle {(a e^{i t}, b e^{i t})} on which a given polynomial has no
zeros.  The search scores candidate circles by the minimum of |f| on a grid
of a few points per degree; the winner is then scanned on a dense grid
(`min_modulus`, the best value found) and certified: `min_modulus_lower` is
a proven lower bound on |f| over the whole circle, from Bernstein's
inequality for the trigonometric polynomial |f|^2.  The companion
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
CERT_FRACTION = 0.9
CERT_DEPTH = 20
_SCORE_BYTES = 1 << 16

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# the compass moves of the polish, in the order a sequential search tries them
_COMPASS = np.array([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])


class RotationSearchError(RuntimeError):
    """No candidate circle cleared the modulus threshold."""

    def __init__(self, msg: str, best: "HopfRotation | None" = None):
        super().__init__(msg)
        self.best = best


@dataclass(frozen=True)
class HopfRotation:
    """A determinant-one unitary taking (0, e^{i a}) to (a e^{i a}, b e^{i a}).

    min_modulus is the least |f| found on the circle; min_modulus_lower is a
    certified lower bound on |f| over the whole circle.
    """

    a: complex
    b: complex
    min_modulus: float
    min_modulus_lower: float
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
            "min_modulus_lower": self.min_modulus_lower,
            "trace": self.trace,
        }


def _term_table(f: BiPoly) -> tuple[np.ndarray, ...]:
    """f's terms c z1^j z2^k as arrays (j, k, c), and the 0/1 matrix that
    sums a row of terms by total degree j + k."""
    if f.is_zero:
        raise ValueError("zero polynomial has no circle restriction")
    j, k, c = (np.array(col) for col in zip(*f.complex_terms()))
    by_degree = (j + k)[:, None] == np.arange((j + k).max() + 1)
    return j, k, c, by_degree


def _coefficient_rows(table: tuple[np.ndarray, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i: the Fourier coefficients C_d of t -> f(a_i e^{it}, b_i e^{it}),
    for f given by its _term_table.

    The terms c z1^j z2^k become c a^j b^k from power tables of a and b and
    are summed by total degree d = j + k in one matrix product.
    """
    j, k, c, by_degree = table
    apow = a[:, None] ** np.arange(j.max() + 1)
    bpow = b[:, None] ** np.arange(k.max() + 1)
    return (apow[:, j] * bpow[:, k] * c) @ by_degree


def circle_coefficients(f: BiPoly, a: complex, b: complex) -> np.ndarray:
    """Fourier coefficients C_d of t -> f(a e^{i t}, b e^{i t}).

    f(a e^{it}, b e^{it}) = sum_d C_d e^{i d t} with C_d collecting every
    monomial of total degree d.
    """
    return _coefficient_rows(
        _term_table(f), np.array([a], dtype=complex), np.array([b], dtype=complex)
    )[0]


def _circle_modulus(C: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|sum_d C_d e^{i d t}| at each t."""
    return np.abs(np.exp(1j * np.outer(t, np.arange(C.size))) @ C)


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

    def mod_at(t: float) -> float:
        return float(_circle_modulus(C, np.array([t]))[0])

    t_best, v_best = _golden_min(mod_at, t_m - step, t_m + step)
    if v_best < vals[m]:
        return v_best, t_best
    return float(vals[m]), t_m


def _slope_bound(C: np.ndarray) -> float:
    """A bound on |d/dt T| for T(t) = |sum_d C_d e^{i d t}|^2.

    T is a real trigonometric polynomial of degree n = C.size - 1 with
    0 <= T <= S = (sum |C_d|)^2, so T - S/2 is bounded by S/2 and
    Bernstein's inequality ||T'|| <= n ||T - S/2|| gives n S / 2.  The bound
    is sharp: T = 2 + 2 cos(n t) for C = (1, 0, ..., 0, 1) reaches it.
    """
    return 0.5 * (C.size - 1) * float(np.abs(C).sum()) ** 2


def _arc_margin(C: np.ndarray, half_width: float) -> float:
    """How far |sum_d C_d e^{i d t}|^2 can fall below its computed value at
    the centre of an arc of this half width: the slope bound over the half
    width, plus a first-order bound on the float error of the centre value."""
    sup = float(np.abs(C).sum()) ** 2
    return half_width * _slope_bound(C) + 16.0 * C.size * np.finfo(float).eps * sup


def _certify_circle(C: np.ndarray, cells: int, upper: float) -> tuple[float, int]:
    """(certified lower bound on min_t |f(t)|, arcs examined), for
    f(t) = sum_d C_d e^{i d t} and a value `upper` that |f| is known to reach.

    The circle is cut into `cells` equal arcs centred on t_n = 2 pi n / cells.
    An arc's floor is its centre value of |f|^2 less _arc_margin.  An arc is
    settled once its floor reaches (CERT_FRACTION u)^2, u the least of
    `upper` and the centre values of |f| seen so far; any other arc is
    halved, at most CERT_DEPTH times.  A centre value at most TOL_CIRCLE
    shows that the circle cannot clear it, and ends the halving there.  The
    bound is the square root of the least floor of the settled and the
    remaining arcs, or 0 if that is negative: at least CERT_FRACTION times
    the minimum when every arc settles, and 0 on a circle through a zero.
    """
    half = math.pi / cells
    centres = 2.0 * math.pi * np.arange(cells) / cells
    best = upper * upper
    least = math.inf
    examined = 0
    for depth in range(CERT_DEPTH + 1):
        vals = _circle_modulus(C, centres) ** 2
        floors = vals - _arc_margin(C, half)
        examined += centres.size
        best = min(best, float(vals.min()))
        stop = depth == CERT_DEPTH or best <= TOL_CIRCLE * TOL_CIRCLE
        settled = (floors >= CERT_FRACTION * CERT_FRACTION * best) | stop
        least = min(least, float(floors[settled].min(initial=math.inf)))
        centres = centres[~settled]
        if not centres.size:
            break
        half *= 0.5
        centres = np.concatenate((centres - half, centres + half))
    return math.sqrt(max(least, 0.0)), examined


def _search_grid(degree: int) -> int:
    """Points per circle the search scores: a power of two >= max(32, 8 (degree + 1))."""
    return max(32, 1 << (8 * (degree + 1) - 1).bit_length())


def _fiber_rep(theta: float, phi: float) -> tuple[complex, complex]:
    # one representative per Hopf fiber over the sphere point (theta, phi)
    return (
        complex(math.cos(theta / 2.0)),
        math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi)),
    )


def _lattice(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of the MAX_TRIALS Fibonacci-lattice points; seed turns phi."""
    phase = 2.0 * math.pi * np.random.default_rng(seed).random()
    i = np.arange(MAX_TRIALS)
    theta = np.arccos(np.clip(1.0 - 2.0 * (i + 0.5) / MAX_TRIALS, -1.0, 1.0))
    phi = np.fmod(2.0 * math.pi * i / _GOLDEN + phase, 2.0 * math.pi)
    return theta, phi


class _CircleScores:
    """Minimum of |f| on the search grid of each circle over (theta_i, phi_i).

    One matrix product against the (degree + 1) x grid table of e^{i d t_n}
    scores a batch of circles; the batches keep their temporaries under
    _SCORE_BYTES.  `scored` counts the circles scored so far.
    """

    def __init__(self, f: BiPoly):
        self.table = _term_table(f)
        terms, degrees = self.table[3].shape
        self.grid = _search_grid(degrees - 1)
        powers = np.outer(np.arange(degrees), np.arange(self.grid)) % self.grid
        self.roots = np.exp(2j * math.pi * powers / self.grid)
        self.batch = max(1, _SCORE_BYTES // (16 * (self.grid + terms)))
        self.scored = 0

    def __call__(self, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        half = theta / 2.0
        a = np.cos(half).astype(complex)
        b = np.sin(half) * np.exp(1j * phi)
        out = np.empty(theta.size)
        for s in range(0, theta.size, self.batch):
            rows = _coefficient_rows(self.table, a[s : s + self.batch], b[s : s + self.batch])
            out[s : s + self.batch] = np.abs(rows @ self.roots).min(axis=1)
        self.scored += theta.size
        return out


def _search(f: BiPoly, seed: int) -> tuple[float, float, dict]:
    """(theta, phi) of the best circle found, and the search's work counts.

    The lattice circles are scored together and the best one (the first
    of equals) is polished by a compass pattern search.  Each step scores
    its four moves together and takes the first that improves, in the order
    a sequential search tries them; `polish_steps` counts the moves such a
    search would have scored.
    """
    score = _CircleScores(f)
    thetas, phis = _lattice(seed)
    vals = score(thetas, phis)
    best = int(np.argmax(vals))
    theta, phi, val = float(thetas[best]), float(phis[best]), float(vals[best])

    step = 0.2
    polish_steps = 0
    while step > 1e-9 and polish_steps < 400:
        moves_t = np.clip(theta + step * _COMPASS[:, 0], 0.0, math.pi)
        moves_p = np.fmod(phi + step * _COMPASS[:, 1] + 2.0 * math.pi, 2.0 * math.pi)
        move_vals = score(moves_t, moves_p)
        better = np.flatnonzero(move_vals > val)
        if better.size:
            i = int(better[0])
            polish_steps += i + 1
            theta, phi, val = float(moves_t[i]), float(moves_p[i]), float(move_vals[i])
        else:
            polish_steps += _COMPASS.shape[0]
            step *= 0.5
    counts = {
        "polish_steps": polish_steps,
        "circles_scored": score.scored,
        "search_grid": score.grid,
    }
    return theta, phi, counts


def find_rotation(
    f: BiPoly,
    seed: int = 0,
    alpha_grid: int = ALPHA_GRID,
) -> HopfRotation:
    """Search the sphere of circles for one avoiding the zero set of f.

    Candidates cover the fiber base by a Fibonacci lattice (seed rotates the
    lattice) and the best is polished by a compass pattern search, all
    scored on the degree-sized search grid.  Only the winner is scanned on
    `alpha_grid` points and golden-section refined in t (`min_modulus`), and
    certified by _certify_circle (`min_modulus_lower`).  Raises
    RotationSearchError (carrying the winner) when the certified bound does
    not clear TOL_CIRCLE.
    """
    if f.is_zero:
        raise ValueError("cannot rotate the zero polynomial")
    theta, phi, counts = _search(f, seed)
    a, b = _fiber_rep(theta, phi)
    min_mod, t_min = circle_min_modulus(f, a, b, grid=alpha_grid, refine=True)
    lower, cells = _certify_circle(circle_coefficients(f, a, b), counts["search_grid"], min_mod)
    rot = HopfRotation(
        a=a,
        b=b,
        min_modulus=min_mod,
        min_modulus_lower=lower,
        trace={
            "seed": seed,
            "trials": MAX_TRIALS,
            "alpha_grid": alpha_grid,
            **counts,
            "cert_cells": cells,
            "argmin_t": t_min,
        },
    )
    if lower <= TOL_CIRCLE:
        raise RotationSearchError(
            f"no circle cleared modulus {TOL_CIRCLE:g}; the best candidate "
            f"reached {min_mod:.3e}, certified >= {lower:.3e}",
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
    from find_rotation arranges this); near-zero denominators, below
    DENOM_FLOOR times the largest |f| over the samples, are flagged as
    evidence against that precondition rather than silently clipped.
    """
    if f.is_zero:
        raise ValueError("ratio of the zero polynomial is undefined")
    check_r_grid(r_grid)
    ball = DomainSpec.ball()
    z1, z2 = sample_closure(ball, samples, seed)
    fvals = eval_grid(f, z1, z2)
    floor = DENOM_FLOOR * float(np.abs(fvals).max())

    sup = 0.0
    sup_point = (0j, 0j)
    sup_r = r_grid[0]
    flagged: list[tuple[complex, complex, float]] = []
    deviations: list[float] = []
    for r in r_grid:
        den = eval_grid(f, r * z1, z2)
        aden = np.abs(den)
        bad = aden < floor
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
