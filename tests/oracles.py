"""Shared independent oracles for the test suite.

The monomial-norm oracle integrates the volume moment directly: phases come
out exactly (each |z_i|-circle contributes 2 pi), leaving a two-dimensional
integral over moduli which is estimated by quasi-Monte Carlo rejection on the
unit square.  No Gamma functions are involved anywhere, so agreement with the
closed form is meaningful evidence.

The dilation oracle is the quasi-Monte Carlo mean the density certificate
used before it summed Taylor coefficients: volume-distributed points drawn
through the two conditional Beta marginals of the gauge coordinates.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betaincinv, gamma
from scipy.stats import qmc

_CACHE: dict[int, np.ndarray] = {}


def _moduli(n: int, seed: int) -> np.ndarray:
    key = (n, seed)
    if key not in _CACHE:
        _CACHE[key] = qmc.Halton(d=2, seed=seed).random(n)
    return _CACHE[key]


def mc_monomial_norm(p: float, q: float, a: int, b: int,
                     n: int = 1_000_000, seed: int = 12345) -> float:
    """Quasi-Monte Carlo estimate of the squared norm of z1^a z2^b.

    Integrand: (2 pi)^2 * s1^(2a+1) * s2^(2b+1) over {s1^p + s2^q < 1},
    sampled by rejection from the unit square with a Halton sequence.
    """
    s = _moduli(n, seed)
    s1, s2 = s[:, 0], s[:, 1]
    inside = s1**p + s2**q < 1.0
    vals = s1[inside] ** (2 * a + 1) * s2[inside] ** (2 * b + 1)
    return float((2.0 * np.pi) ** 2 * vals.sum() / n)


def qmc_dilation_norm(p, domain, r: float, n: int = 100_000, seed: int = 0) -> float:
    """Quasi-Monte Carlo estimate of ||1 - p(z)/p(rz)|| over the domain.

    In gauge coordinates u = |z1|^p, v = |z2|^q the volume element is a
    Dirichlet(2/p, 2/q, 1) density; the Halton points go through the inverse
    CDFs of its two conditional Beta marginals.  p is a BiPoly.
    """
    u0, u1, th1, th2 = qmc.Halton(d=4, seed=seed).random(n).T
    a1, a2 = 2.0 / domain.p, 2.0 / domain.q
    gu = betaincinv(a1, a2 + 1.0, u0)
    gv = (1.0 - gu) * betaincinv(a2, 1.0, u1)
    z1 = gu ** (1.0 / domain.p) * np.exp(2j * np.pi * th1)
    z2 = gv ** (1.0 / domain.q) * np.exp(2j * np.pi * th2)
    def ev(x1, x2):
        return sum(complex(c) * x1**a * x2**b for (a, b), c in p.terms.items())

    vals = np.abs(1.0 - ev(z1, z2) / ev(r * z1, r * z2)) ** 2
    volume = (2.0 * np.pi) ** 2 * gamma(a1) * gamma(a2) / (domain.p * domain.q * gamma(a1 + a2 + 1.0))
    return float(np.sqrt(volume * vals.mean()))
