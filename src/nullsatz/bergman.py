"""Bergman-space geometry of the domains |z1|^p + |z2|^q < 1.

Monomials are pairwise orthogonal on these Reinhardt domains, so the whole
Hilbert-space side reduces to the squared monomial norms

    nu_ab = (2 pi)^2 / (p q) * Gamma(alpha) Gamma(beta) / Gamma(alpha+beta+1),
    alpha = (2a+2)/p,  beta = (2b+2)/q,

computed in log space.  On top of the norm table sit the reproducing-kernel
diagonal, least-squares projection distances d_N = dist(1, p * P_N) (the
whole profile d_0..d_N_max from one Householder QR, since the systems are
nested), the dilation family p(z)/p(rz) with its 2^d ratio bound, and the
density certificate that packages the observables (its dilation norms
||1 - p/p_r|| summed from Taylor coefficients of p/p_r).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .polyalg import BiPoly, poly_to_json
from .rootfind import _horner2

R_GRID_DEFAULT = (0.51, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
RATIO_SAMPLES = 20_000
N_MAX = 20
RATIO_SLACK = 1e-9
DENOM_FLOOR = 1e-14
RANK_RCOND = 1e-12
BOUNDARY_FRACTION = 0.25
CORNER_PHASES = 128
MAX_SHELLS = 200_000
KERNEL_TOL = 1e-12
# the stopping rules of the dilation norms' shell sums (_dilation_norms)
SHELL_CAP = 400
TAIL_TOL = 1e-15
GROW_RUN = 4
# closure sample sets kept; three let a process that cycles over three
# domains reuse every set.  Only sets no larger than the default are kept: a
# set of RATIO_SAMPLES points holds 0.64 MB, so at most 1.9 MB stay.
SAMPLE_SETS = 3


class DomainError(ValueError):
    """A point or parameter falls outside the domain contract."""


class MissingNormError(KeyError):
    """A norm lookup touched an exponent the norm table does not cover."""


class RankDeficiencyWarning(UserWarning):
    """The projection system has numerical rank below its column count."""


def check_r_grid(r_grid: tuple[float, ...]) -> None:
    """Raise DomainError unless r_grid is a nonempty grid of radii in (1/2, 1)."""
    if len(r_grid) == 0:
        raise DomainError("r_grid must be nonempty")
    for r in r_grid:
        if not 0.5 < r < 1.0:
            raise DomainError(f"r_grid entry {r} outside (1/2, 1)")


@dataclass(frozen=True)
class DomainSpec:
    """The Reinhardt domain |z1|^p + |z2|^q < 1."""

    p: float
    q: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if not 0 < v < math.inf:
                raise DomainError(f"domain exponent {name} must be in (0, inf), got {v}")

    @classmethod
    def ball(cls) -> "DomainSpec":
        return cls(2.0, 2.0)

    @classmethod
    def parse(cls, text: str) -> "DomainSpec":
        """Accepts 'ball' or 'p,q' with positive numeric entries."""
        t = text.strip().lower()
        if t == "ball":
            return cls.ball()
        parts = t.split(",")
        if len(parts) != 2:
            raise DomainError(f"domain must be 'ball' or 'p,q', got {text!r}")
        try:
            p, q = float(parts[0]), float(parts[1])
        except ValueError:
            raise DomainError(f"domain exponents must be numeric, got {text!r}") from None
        return cls(p, q)

    def phi(self, z1, z2):
        """|z1|^p + |z2|^q, the defining gauge; inside iff < 1."""
        return np.abs(z1) ** self.p + np.abs(z2) ** self.q

    def z1_terms(self, z1s):
        """|z1|^p for each z1, rounded as phi rounds it for one scalar z1.

        The power is numpy's scalar power, which differs from its array
        power in the last bit on some inputs.
        """
        return np.fromiter((a ** self.p for a in np.abs(z1s)), np.float64, len(z1s))

    def contains(self, z1, z2):
        return self.phi(z1, z2) < 1.0

    def to_json_dict(self) -> dict:
        return {"p": self.p, "q": self.q}


def _lgamma(x: np.ndarray) -> np.ndarray:
    """math.lgamma of every entry, in x's shape."""
    return np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _log_base(domain: DomainSpec) -> float:
    """log of the factor (2 pi)^2 / (p q) that every nu_ab shares."""
    return 2.0 * math.log(2.0 * math.pi) - math.log(domain.p) - math.log(domain.q)


def _log_norm(domain: DomainSpec, a, b):
    """log nu_ab, vectorized over integer arrays (or scalars) a, b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    alpha = (2.0 * a + 2.0) / domain.p
    beta = (2.0 * b + 2.0) / domain.q
    return _log_base(domain) + _lgamma(alpha) + _lgamma(beta) - _lgamma(alpha + beta + 1.0)


def monomial_norm(domain: DomainSpec, a: int, b: int) -> float:
    """nu_ab = squared Bergman norm of z1^a z2^b on the domain.

    Evaluated in log space so large exponents cannot overflow.
    """
    if a < 0 or b < 0:
        raise ValueError(f"exponents must be nonnegative, got ({a}, {b})")
    v = float(np.exp(_log_norm(domain, a, b)))
    if v == 0.0:
        raise OverflowError(f"nu_({a},{b}) underflows double precision")
    return v


def volume(domain: DomainSpec) -> float:
    """Euclidean volume of the domain (= nu_00)."""
    return monomial_norm(domain, 0, 0)


class MonomialNormTable:
    """All nu_ab with a + b <= N, for inner products and projections."""

    def __init__(self, domain: DomainSpec, max_total_degree: int):
        if max_total_degree < 0:
            raise ValueError("max_total_degree must be >= 0")
        self.domain = domain
        self.max_total_degree = max_total_degree
        self.norms: dict[tuple[int, int], float] = {}
        for s in range(max_total_degree + 1):
            a = np.arange(s + 1)
            vals = np.exp(_log_norm(domain, a, s - a))
            for ai, v in zip(a, vals):
                self.norms[(int(ai), int(s - ai))] = float(v)

    def norm(self, a: int, b: int) -> float:
        try:
            return self.norms[(a, b)]
        except KeyError:
            raise MissingNormError(
                f"norm table (N={self.max_total_degree}) has no entry for "
                f"exponent ({a}, {b})"
            ) from None


def kernel_diag(domain: DomainSpec, w: tuple[complex, complex]) -> float:
    """Reproducing-kernel diagonal K(w, w) = sum |w1|^2a |w2|^2b / nu_ab.

    Summed by total-degree shells until two consecutive shells each add less
    than KERNEL_TOL times the partial sum.  Requires w strictly inside the
    domain.
    """
    w1, w2 = complex(w[0]), complex(w[1])
    gauge = domain.phi(w1, w2)
    if not gauge < 1.0:
        raise DomainError(
            f"kernel diagonal needs a point strictly inside the domain; "
            f"|w1|^p+|w2|^q = {gauge:.6g}"
        )
    r1, r2 = abs(w1), abs(w2)
    l1 = math.log(r1) if r1 > 0 else -math.inf
    l2 = math.log(r2) if r2 > 0 else -math.inf
    total = 0.0
    quiet = 0
    for s in range(MAX_SHELLS + 1):
        a = np.arange(s + 1)
        b = s - a
        keep = np.ones(s + 1, dtype=bool)
        if r1 == 0.0:
            keep &= a == 0  # |w1|^{2a} kills every other term
        if r2 == 0.0:
            keep &= b == 0
        a, b = a[keep], b[keep]
        if a.size == 0:
            shell = 0.0
        else:
            logt = -_log_norm(domain, a, b)
            if r1 > 0:
                logt = logt + 2.0 * a * l1
            if r2 > 0:
                logt = logt + 2.0 * b * l2
            shell = float(np.exp(logt).sum())
        total += shell
        if s >= 1 and shell < KERNEL_TOL * total:
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise DomainError(
        f"kernel series did not settle within {MAX_SHELLS} shells "
        f"(gauge {gauge:.6g} too close to 1?)"
    )


def kernel_lower_bound(domain: DomainSpec, w: tuple[complex, complex]) -> float:
    """K(w,w)^{-1/2}: no function with f(w)=0 gets closer to 1 than this."""
    return 1.0 / math.sqrt(kernel_diag(domain, w))


# ---------------------------------------------------------------------------
# projection distances
# ---------------------------------------------------------------------------


def projection_distances(p: BiPoly, N_max: int, table: MonomialNormTable) -> list[float]:
    """[d_0, ..., d_N_max], d_N = min over q of total degree <= N of ||1 - p*q||.

    Complex least squares in coordinates where each monomial z1^a z2^b is
    scaled by sqrt(nu_ab), making the basis orthonormal.  The columns p*z^c
    are ordered by total degree |c|, so the system for N is the first
    k_N = (N+1)(N+2)/2 columns of the one for N_max: the rows it does not
    reach are zero there, and the right-hand side lives on row (0, 0).  One
    Householder QR of [A | b] gives (Q^H b) in the last column of R, and
    d_N is the norm of its entries from k_N on, summed from the end so every
    tail keeps its digits and the profile is non-increasing.
    """
    if p.is_zero:
        raise ValueError("projection distance needs a nonzero polynomial")
    if N_max < 0:
        raise ValueError("N must be >= 0")
    ca, cb = np.array([(c, s - c) for s in range(N_max + 1) for c in range(s + 1)]).T
    terms = p.complex_terms()
    exps = np.array([(a, b) for a, b, _ in terms])
    coefs = np.array([c for _, _, c in terms])

    width = p.deg2 + N_max + 1
    keys = (exps[:, :1] + ca) * width + (exps[:, 1:] + cb)  # row key of term * z^c
    rows, inv = np.unique(np.append(keys, 0), return_inverse=True)
    scale = np.array([math.sqrt(table.norm(int(k) // width, int(k) % width)) for k in rows])

    K = ca.size
    Ab = np.zeros((rows.size, K + 1), dtype=np.complex128)
    Ab[inv[:-1].reshape(keys.shape), np.arange(K)] = coefs[:, None]
    Ab[0, K] = 1.0  # key 0 = exponent (0, 0) sorts first
    Ab *= scale[:, None]

    R = np.linalg.qr(Ab, mode="r")
    _warn_rank(R[:K, :K], N_max)
    tail = np.cumsum(np.abs(R[::-1, K]) ** 2)[::-1]
    tail = np.append(tail, 0.0)
    return [math.sqrt(tail[(N + 1) * (N + 2) // 2]) for N in range(N_max + 1)]


def _warn_rank(R: np.ndarray, N_max: int) -> None:
    """Warn once, naming the first N whose R[:k_N, :k_N] has rank < k_N.

    Rank counts the singular values above RANK_RCOND * sigma_max, the rule
    of a least-squares solve with rcond = RANK_RCOND.  Dropping columns
    cannot raise sigma_max or lower sigma_min (Cauchy interlacing), so a full
    R that passes clears every N, and once some N fails every larger N fails
    too.  Before any SVD, sigma_min / sigma_max >= 1 / (||R||_F ||R^-1||_F)
    is tried: when that bound clears the rule with a factor of 100 to spare
    for the rounding of the inverse, R has full rank.
    """
    with np.errstate(all="ignore"):
        try:
            bound = 1.0 / (np.linalg.norm(R) * np.linalg.norm(np.linalg.inv(R)))
        except np.linalg.LinAlgError:  # an exactly singular R
            bound = 0.0
    if bound > 100.0 * RANK_RCOND:
        return

    def rank(N: int) -> tuple[int, int]:
        k = (N + 1) * (N + 2) // 2
        s = np.linalg.svd(R[:k, :k], compute_uv=False)
        return int(np.count_nonzero(s > RANK_RCOND * s[0])), k

    r, k = rank(N_max)
    if r == k:
        return
    first = N_max
    while first > 0:
        r_below, k_below = rank(first - 1)
        if r_below == k_below:
            break
        first, r, k = first - 1, r_below, k_below
    warnings.warn(
        f"projection system rank {r} < {k} columns at N = {first}; d_N from "
        "there on is a distance to a numerically rank-deficient span",
        RankDeficiencyWarning,
        stacklevel=3,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def eval_grid(f: BiPoly, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Evaluate f at paired sample arrays (vectorized double Horner)."""
    return _horner2(f.coeff_matrix(), z1, z2)


def sample_closure(domain: DomainSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-random points of the closed domain, boundary-heavy.

    A fixed fraction sits exactly on the boundary shell, the rest fills the
    interior with a bias toward the boundary.  Deterministic corner circles
    ({|z1| = 1, z2 = 0} and {z1 = 0, |z2| = 1}) and the origin are always
    included, so extreme points of one-variable factors are hit exactly.
    A set of at most RATIO_SAMPLES points is built once per (domain, n,
    seed) and kept, a larger one on every call; the arrays are read-only.
    """
    if n <= RATIO_SAMPLES:
        return _kept_closure(domain, n, seed)
    return _closure_points(domain, n, seed)


def _closure_points(domain: DomainSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 2 * CORNER_PHASES + 1:
        raise ValueError(f"need at least {2 * CORNER_PHASES + 1} samples")
    m = n - 2 * CORNER_PHASES - 1
    t, mix, th1, th2 = _halton4(m, seed)
    interior = np.clip(
        (t - BOUNDARY_FRACTION) / (1.0 - BOUNDARY_FRACTION), 0.0, 1.0
    ) ** 0.25
    w = np.where(t < BOUNDARY_FRACTION, 1.0, interior)
    part1 = w * mix
    part2 = w * (1.0 - mix)
    s1 = part1 ** (1.0 / domain.p)
    s2 = part2 ** (1.0 / domain.q)
    z1 = s1 * np.exp(2j * np.pi * th1)
    z2 = s2 * np.exp(2j * np.pi * th2)

    phases = np.exp(2j * np.pi * np.arange(CORNER_PHASES) / CORNER_PHASES)
    zeros = np.zeros(CORNER_PHASES, dtype=np.complex128)
    z1 = np.concatenate([z1, phases, zeros, [0.0 + 0j]])
    z2 = np.concatenate([z2, zeros, phases, [0.0 + 0j]])
    # a kept sample set is shared by every later caller, so none may write it
    z1.flags.writeable = z2.flags.writeable = False
    return z1, z2


def _halton4(n: int, seed: int) -> np.ndarray:
    """The first n points of a scrambled 4-d Halton sequence, as 4 rows.

    Owen's random digit permutations (arXiv:1706.02808), drawn and applied as
    the reference generator of the test extra does (tests/test_bergman.py
    checks the points bit for bit).  Base b gets one permutation per digit
    position k while b^-k > 2^-54; a point adds perm_k[digit_k] * b^-(k+1)
    over every position, least significant digit first, in the same order
    and rounding.
    """
    rng = np.random.default_rng(seed)
    u = np.zeros((4, n))
    for x, b in zip(u, (2, 3, 5, 7)):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        scale = 1.0 / b
        for perm in perms:
            if q.any():
                q, digit = np.divmod(q, b)
                x += (perm * scale)[digit]
            else:  # every remaining digit is 0
                x += perm[0] * scale
            scale /= b
    return u


# the public sampler stays a plain function around the kept builder, so a
# tool that wraps a module's functions (perfbench's tracer) still sees it
_kept_closure = functools.lru_cache(maxsize=SAMPLE_SETS)(_closure_points)


# ---------------------------------------------------------------------------
# dilation ratio bound
# ---------------------------------------------------------------------------


@dataclass
class RatioBoundReport:
    """Sampled sup of |p(z)/p(rz)| against the 2^d bound."""

    poly: BiPoly
    domain: DomainSpec
    r_grid: tuple[float, ...]
    samples: int
    seed: int
    degree_sum: int
    bound: float
    sup: float
    sup_point: tuple[complex, complex]
    sup_r: float
    passed: bool
    violations: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "kind": "ratio_bound",
            "polynomial": poly_to_json(self.poly),
            "domain": self.domain.to_json_dict(),
            "r_grid": list(self.r_grid),
            "samples": self.samples,
            "seed": self.seed,
            "degree_sum": self.degree_sum,
            "bound": self.bound,
            "sup": self.sup,
            "sup_point": {
                "z1": [self.sup_point[0].real, self.sup_point[0].imag],
                "z2": [self.sup_point[1].real, self.sup_point[1].imag],
            },
            "sup_r": self.sup_r,
            "pass": self.passed,
            "violations": self.violations,
        }


def ratio_sup(
    p: BiPoly,
    domain: DomainSpec,
    r_grid: tuple[float, ...] = R_GRID_DEFAULT,
    samples: int = RATIO_SAMPLES,
    seed: int = 0,
) -> RatioBoundReport:
    """Sampled sup over the closed domain of |p(z)/p(rz)| for each r.

    For p zero-free on the closure the sup must stay below 2^(deg1+deg2).
    Near-zero denominators are recorded as bound-violation evidence; they
    mean p vanishes somewhere in the domain and the hypothesis fails.
    """
    if p.is_zero:
        raise ValueError("ratio_sup needs a nonzero polynomial")
    check_r_grid(r_grid)
    z1, z2 = sample_closure(domain, samples, seed)
    num = np.abs(eval_grid(p, z1, z2))
    d = p.degree_sum()
    bound = float(2.0**d)
    sup = 0.0
    sup_idx, sup_r = 0, r_grid[0]
    violations: list[dict] = []
    for r in r_grid:
        den = np.abs(eval_grid(p, r * z1, r * z2))
        tiny = den < DENOM_FLOOR
        if np.any(tiny):
            for idx in np.nonzero(tiny)[0][:10]:
                violations.append(
                    {
                        "z1": [float(z1[idx].real), float(z1[idx].imag)],
                        "z2": [float(z2[idx].real), float(z2[idx].imag)],
                        "r": r,
                        "denominator": float(den[idx]),
                    }
                )
        ratio = np.where(tiny, np.inf, num / np.where(tiny, 1.0, den))
        k = int(np.argmax(ratio))
        if ratio[k] > sup:
            sup, sup_idx, sup_r = float(ratio[k]), k, r
    passed = not violations and sup <= bound + RATIO_SLACK
    return RatioBoundReport(
        poly=p,
        domain=domain,
        r_grid=tuple(r_grid),
        samples=samples,
        seed=seed,
        degree_sum=d,
        bound=bound,
        sup=sup,
        sup_point=(complex(z1[sup_idx]), complex(z2[sup_idx])),
        sup_r=sup_r,
        passed=passed,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# density certificate
# ---------------------------------------------------------------------------

DENSE_TOL = 1e-6

STATUS_DENSE = "DENSE"
STATUS_NOT_DENSE = "NOT_DENSE"
STATUS_UNDECIDED = "UNDECIDED"


@dataclass
class DensityCertificate:
    """Observable evidence for or against density of p * (Bergman space)."""

    poly: BiPoly
    domain: DomainSpec
    profile: list[tuple[int, float]]  # (N, d_N)
    dilation_profile: list[tuple[float, float]]  # (r, ||1 - f_r||)
    kernel_bound: float | None
    zero_witness: tuple[complex, complex] | None
    status: str

    def min_distance(self) -> float:
        return min(d for _, d in self.profile)

    def to_json_dict(self) -> dict:
        w = self.zero_witness
        return {
            "kind": "density_certificate",
            "polynomial": poly_to_json(self.poly),
            "domain": self.domain.to_json_dict(),
            "projection_profile": [[n, d] for n, d in self.profile],
            "dilation_profile": [[r, v] for r, v in self.dilation_profile],
            "kernel_lower_bound": self.kernel_bound,
            "zero_witness": None
            if w is None
            else {"z1": [w[0].real, w[0].imag], "z2": [w[1].real, w[1].imag]},
            "status": self.status,
        }


def _dilation_norms(p: BiPoly, domain: DomainSpec, r_grid: tuple[float, ...]) -> list[float]:
    """||1 - p/p_r|| for each r in r_grid, from the Taylor series of h = p/p_r.

    Monomials are orthogonal, so ||1 - h||^2 = sum |delta_ab - h_ab|^2 nu_ab,
    taken by shells s = a + b.  p = z1^a z2^b q gives h = r^-(a+b) q/q_r; if
    q(0) = 0, every entry is nan (not determined).  g = 1/q follows once for
    every r from the recurrence of q g = 1.  With c_j the terms of q beside
    q(0), of degree t_j, shell s >= 1 of q/q_r sums c_j r^(s-t_j) (1 - r^t_j)
    times shell s - t_j of g shifted by term j: nothing cancels against q(0).
    Each shell of g is kept at modulus 1 beside its log scale, so nothing
    overflows before the shell sums.  Read in windows of deg q shells (which
    bridge the empty shells of a sparse q), the sum for each r settles once
    the geometric tail A_k^2 / (A_(k-1) - A_k) of the last two windows is
    below TAIL_TOL of it.  It is +inf once the windows overflow or rise
    GROW_RUN times in a row to a new maximum (a finite norm has shell sums
    tending to 0), and nan if neither happens within SHELL_CAP shells.
    The one-variable log-gammas of nu_ab (_log_norm) are tabled once.
    """
    r = np.asarray(r_grid, dtype=np.float64)
    terms = p.complex_terms()
    ma, mb = (min(t[i] for t in terms) for i in (0, 1))
    q = {(a - ma, b - mb): c for a, b, c in terms}
    if (0, 0) not in q:
        return [math.nan] * r.size
    total = (1.0 - r ** -(ma + mb)) ** 2 * volume(domain)  # shell 0 of 1 - h
    c0 = q.pop((0, 0))
    if not q:
        return np.sqrt(total).tolist()
    shift, deg = np.array([(a, a + b) for a, b in q]).T
    w = np.array(list(q.values())) / -c0  # shell s of c0 g: sum_j w_j (shell s - t_j)
    hfac, logr, D = -w * (1.0 - r[:, None] ** deg), np.log(r), int(deg.max())
    # G[D + k, D + a] e^L[D + k] is c0 g at z1^a z2^(k-a); D rows and columns pad
    G = np.zeros((SHELL_CAP + D + 1,) * 2, dtype=np.complex128)
    L = np.full(SHELL_CAP + D + 1, -np.inf)
    G[D, D], L[D] = 1.0, 0.0
    value, open_ = np.full(r.size, math.nan), np.ones(r.size, dtype=bool)
    window, best, rises = np.zeros(r.size), np.zeros(r.size), np.zeros(r.size)
    prev = np.full(r.size, math.nan)
    k = np.arange(SHELL_CAP + 1, dtype=np.float64)
    alpha, beta = (2.0 * k + 2.0) / domain.p, (2.0 * k + 2.0) / domain.q
    head, lg_beta = _log_base(domain) + _lgamma(alpha), _lgamma(beta)  # _log_norm's order
    with np.errstate(all="ignore"):
        for s in range(1, SHELL_CAP + 1):
            rows, a = s - deg + D, np.arange(s + 1)
            top = L[rows].max()
            if top > -np.inf:  # else every shell the recurrence reads is 0
                e = np.exp(L[rows] - top)
                X = G[rows[:, None], a - shift[:, None] + D]
                acc = (w * e) @ X
                if (size := np.abs(acc).max()) > 0.0:
                    G[D + s, D : D + s + 1], L[D + s] = acc / size, top + math.log(size)
                H = (hfac * e * np.exp(np.outer(logr, s - deg))) @ X
                lognu = head[a] + lg_beta[s - a] - _lgamma(alpha[a] + beta[s - a] + 1.0)
                nu_top = lognu.max()
                log_shell = np.log(np.abs(H) ** 2 @ np.exp(lognu - nu_top)) + nu_top
                window += np.exp(log_shell + 2.0 * top - 2.0 * (ma + mb) * logr)
            if s % D:
                continue
            total += window
            rises = np.where(window > prev, rises + 1, 0)
            settled = window * window <= TAIL_TOL * total * (prev - window)
            grown = ~(window < np.inf) | ((rises >= GROW_RUN) & (window >= best))
            value[open_ & settled] = np.sqrt(total[open_ & settled])
            value[open_ & grown] = math.inf
            open_ &= ~(settled | grown)
            if not open_.any():
                break
            best, prev, window = np.maximum(best, window), window, np.zeros(r.size)
    return value.tolist()


def density_certificate(
    p: BiPoly,
    domain: DomainSpec,
    N_max: int = N_MAX,
    r_grid: tuple[float, ...] = R_GRID_DEFAULT,
    zero_w: tuple[complex, complex] | None = None,
) -> DensityCertificate:
    """Assemble the density observables for the principal ideal of p.

    The projection profile d_N measures how well 1 is approximated from
    p * (polynomials of degree <= N); the dilation profile measures
    ||1 - p(z)/p(rz)|| as r -> 1 (inf or nan where _dilation_norms says so).
    A supplied zero of p inside the domain converts into the
    reproducing-kernel lower bound that blocks density.
    """
    if p.is_zero:
        raise ValueError("density certificate needs a nonzero polynomial")
    check_r_grid(r_grid)
    table = MonomialNormTable(domain, p.deg1 + p.deg2 + 2 * N_max + 2)
    profile = list(enumerate(projection_distances(p, N_max, table)))

    dilation = list(zip(r_grid, _dilation_norms(p, domain, r_grid)))

    kernel_bound = None
    if zero_w is not None:
        w1, w2 = complex(zero_w[0]), complex(zero_w[1])
        if not domain.contains(w1, w2):
            raise DomainError("zero witness must lie strictly inside the domain")
        pw = eval_grid(p, np.array([w1]), np.array([w2]))[0]
        if abs(pw) > 1e-6 * p.coeff_scale():
            raise ValueError(
                f"claimed zero witness is not a zero: |p(w)| = {abs(pw):.3g}"
            )
        kernel_bound = kernel_lower_bound(domain, (w1, w2))

    dmin = min(d for _, d in profile)
    if dmin <= DENSE_TOL and kernel_bound is not None:
        raise ArithmeticError(
            f"inconsistent evidence: d_N reached {dmin:.3g} but kernel bound "
            f"{kernel_bound:.3g} forbids density"
        )
    if dmin <= DENSE_TOL:
        status = STATUS_DENSE
    elif kernel_bound is not None:
        status = STATUS_NOT_DENSE
    else:
        status = STATUS_UNDECIDED

    return DensityCertificate(
        poly=p,
        domain=domain,
        profile=profile,
        dilation_profile=dilation,
        kernel_bound=kernel_bound,
        zero_witness=None if zero_w is None else (complex(zero_w[0]), complex(zero_w[1])),
        status=status,
    )
