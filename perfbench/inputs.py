"""Seeded inputs for the three workloads, with the answer each case must give.

Nothing here imports nullsatz: the expected answers are worked out from how
each case is built (exact Gaussian-rational arithmetic in Fractions, sympy
for factorization), so they are independent of the program under test.

A polynomial is a dict {(a, b): (re, im)} of Fraction pairs for the
coefficient of z1^a z2^b.  A workload is a list of rounds; every round has
the same slots (kind, degree or grid shape, domain) and only the seeded
coefficients differ, so rounds cost about the same from seed to seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

BALL = (2.0, 2.0)
OMEGA11 = (1.0, 1.0)
OMEGA13 = (1.0, 3.0)
DOMAIN_ARG = {BALL: "ball", OMEGA11: "1,1", OMEGA13: "1,3"}

# Distinct rounds generated per run; the timed pass cycles through them.
ROUNDS = {"curves": 2, "points": 6, "certify": 4}

# curves: (kind, z2-degree, domain).  NEITHER is a degree-2 CLOSED curve
# times a DENSE curve of the remaining degree.  Five of the seven slots have
# degree 3, so the median case time falls inside the degree-3 group rather
# than on the edge between two groups.
CURVE_SLOTS = (
    ("CLOSED", 3, BALL),
    ("DENSE", 3, OMEGA13),
    ("NEITHER", 3, OMEGA11),
    ("CLOSED", 3, OMEGA13),
    ("DENSE", 3, BALL),
    ("CLOSED", 4, OMEGA11),
    ("DENSE", 4, BALL),
)

# points: (kind, k, m, rewrite one generator as h1 + q*h2, domain).  No one
# slot dominates a round (a 4x5 grid took half of one and varied most), no
# slot puts more than 9 points inside the domain and none has more than 12
# points: with 12 or 15 points packed inside, or 15 outside, zero_dim_solve
# sometimes misses one (see README).  The five 3x3 slots cost about the same
# and hold places 5 to 9 of the 13 cases of a round, so the median case time
# falls in the middle of that group rather than near an edge.
POINT_SLOTS = (
    ("CLOSED", 2, 3, False, BALL),
    ("DENSE", 3, 3, False, OMEGA11),
    ("NEITHER", 3, 3, True, OMEGA13),
    ("CLOSED", 3, 3, False, OMEGA11),
    ("CLOSED", 3, 3, True, BALL),
    ("NEITHER", 3, 3, False, OMEGA11),
    ("NEITHER", 4, 3, False, BALL),
    ("NEITHER", 3, 4, True, OMEGA11),
    ("DENSE", 4, 3, False, BALL),
    ("DENSE", 2, 4, True, OMEGA13),
)
PHI_MARGIN = 0.1  # every constructed point has |phi - 1| >= this

# V(f*h1, f*h2, f): f a vertical line z1 = c, |c| > 1, which misses the
# closed domain, and h1, h2 meeting inside it.  V is the line alone, so the
# verdict is DENSE.  These do not depend on the seed: they are known to fail
# until unit cofactors are handled (decompose_ideal drops the constant
# cofactor f/f and solves V(h1, h2)).  Vertical lines need no tracking.
UNIT_COFACTOR = (
    # (f, h1, h2, domain)
    ({(1, 0): ONE, (0, 0): (Fraction(-3), Fraction(0))},
     {(0, 1): ONE, (0, 0): (Fraction(-1, 4), Fraction(0))},
     {(1, 0): ONE, (0, 0): (Fraction(-1, 4), Fraction(0))},
     BALL),
    ({(1, 0): ONE, (0, 0): (Fraction(2), Fraction(0))},
     {(1, 0): ONE, (0, 1): ONE, (0, 0): (Fraction(-1, 3), Fraction(0))},
     {(1, 0): ONE, (0, 1): (Fraction(-1), Fraction(0)), (0, 0): (Fraction(0), Fraction(1, 5))},
     OMEGA11),
    ({(1, 0): ONE, (0, 0): (Fraction(0), Fraction(-3, 2))},
     {(0, 1): ONE, (0, 0): (Fraction(0), Fraction(-1, 2))},
     {(1, 0): ONE, (0, 0): (Fraction(1, 3), Fraction(0))},
     OMEGA13),
)

# certify: (command, polynomial family, domain)
CERTIFY_SLOTS = (
    ("density", "zero_free", BALL),
    ("density", "zero_free", OMEGA11),
    ("density", "zero_free", OMEGA13),
    ("density", "witness", BALL),
    ("density", "witness", OMEGA11),
    ("density", "witness", OMEGA13),
    ("hopf", "zero_free", BALL),
    ("hopf", "zero_free", BALL),
    ("ratio", "zero_free", None),
    ("norms", None, None),
)


SLOTS = {"curves": CURVE_SLOTS, "points": POINT_SLOTS, "certify": CERTIFY_SLOTS}

# The slots of the first round that the memory pass runs (None: all of them).
# On curves the z2-degree-4 slots, the largest cases, set the peak; a whole
# round would more than double the memory pass for the same figure.
MEMORY_SLOTS = {
    "curves": tuple(i for i, slot in enumerate(CURVE_SLOTS) if slot[1] == 4),
    "points": None,
    "certify": None,
}

# Warm-up cases: fixed, outside the timed pass, one per layer the workload uses.
WARMUP = {
    "curves": (("CLOSED", 2, BALL), ("DENSE", 2, OMEGA11)),
    "points": (("NEITHER", 2, 2, True, BALL),),
    "certify": (
        ("density", "zero_free", BALL),
        ("density", "witness", OMEGA13),
        ("hopf", "zero_free", BALL),
        ("ratio", "zero_free", None),
        ("norms", None, None),
    ),
}


# ---------------------------------------------------------------------------
# exact Gaussian-rational polynomials
# ---------------------------------------------------------------------------


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gdiv(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)


def gcomplex(x) -> complex:
    return complex(float(x[0]), float(x[1]))


def padd(f, g):
    out = dict(f)
    for k, c in g.items():
        out[k] = gadd(out.get(k, ZERO), c)
    return {k: c for k, c in out.items() if c != ZERO}


def pmul(f, g):
    out: dict = {}
    for (a, b), c in f.items():
        for (a2, b2), c2 in g.items():
            k = (a + a2, b + b2)
            out[k] = gadd(out.get(k, ZERO), gmul(c, c2))
    return {k: c for k, c in out.items() if c != ZERO}


def peval_exact(f, x, y):
    """f(x, y) for Gaussian-rational x, y, exactly."""
    acc = ZERO
    for (a, b), c in f.items():
        term = c
        for _ in range(a):
            term = gmul(term, x)
        for _ in range(b):
            term = gmul(term, y)
        acc = gadd(acc, term)
    return acc


def poly_json(f) -> dict:
    """The package's polynomial text format, coefficients as exact strings."""
    return {
        "vars": ["z1", "z2"],
        "terms": [
            {"a": a, "b": b, "re": str(f[(a, b)][0]), "im": str(f[(a, b)][1])}
            for (a, b) in sorted(f)
        ],
    }


def poly_from_json(obj) -> dict:
    return {
        (t["a"], t["b"]): (Fraction(t["re"]), Fraction(t["im"]))
        for t in obj["terms"]
    }


def phi(domain, x: complex, y: complex) -> float:
    return abs(x) ** domain[0] + abs(y) ** domain[1]


def _sympy(f):
    import sympy

    z1, z2 = sympy.symbols("z1 z2")
    expr = sum(
        (sympy.Rational(c[0].numerator, c[0].denominator)
         + sympy.I * sympy.Rational(c[1].numerator, c[1].denominator))
        * z1**a * z2**b
        for (a, b), c in f.items()
    )
    return sympy, expr, z1, z2


def factor_count(f) -> int:
    """Distinct irreducible non-constant factors of f over Q(i), by sympy."""
    sympy, expr, z1, z2 = _sympy(f)
    _, factors = sympy.factor_list(expr, z1, z2, gaussian=True)
    return sum(1 for fac, _ in factors if fac.free_symbols)


def simple_on_z2_axis(f) -> bool:
    """f(z1, 0) and df/dz2(z1, 0) have no common root.

    Then every point of V(f) on the plane z2 = 0 is a simple z2-root, never
    a branch point.
    """
    sympy, expr, z1, z2 = _sympy(f)
    on_axis = sympy.Poly(expr.subs(z2, 0), z1, domain="QQ_I")
    slope = sympy.Poly(sympy.diff(expr, z2).subs(z2, 0), z1, domain="QQ_I")
    return not slope.is_zero and on_axis.gcd(slope).degree() <= 0


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def _rat(rng, num, dens=(1, 2, 4)):
    return Fraction(rng.randint(-num, num), rng.choice(dens))


def _gauss(rng, num=2):
    return (_rat(rng, num), _rat(rng, num))


def _monic_curve(rng, d):
    """z2^d + c z1^d plus small Gaussian-rational terms of total degree < d.

    The top-degree part z2^d + c z1^d (1/2 <= |c| <= 2) has d distinct
    linear factors, so the curve meets the line at infinity in d distinct
    points and its branch points stay at a bounded distance from the origin.
    """
    while True:
        c = _gauss(rng)
        if 0.5 <= abs(gcomplex(c)) <= 2.0:
            break
    f = {(0, d): ONE, (d, 0): c}
    for b in range(d):
        for a in range(d - b):
            if (a, b) != (0, 0) and rng.random() < 0.6:
                c = _gauss(rng)
                if c != ZERO:
                    f[(a, b)] = c
    return f


def _point_in(rng, domain, cap):
    """A Gaussian-rational point with phi <= cap, denominators 8."""
    while True:
        x = (Fraction(rng.randint(-4, 4), 8), Fraction(rng.randint(-4, 4), 8))
        y = (Fraction(rng.randint(-4, 4), 8), Fraction(rng.randint(-4, 4), 8))
        if phi(domain, gcomplex(x), gcomplex(y)) <= cap:
            return x, y


def closed_curve(rng, d, domain):
    """g - g(x, y) through an interior point (x, y).

    Kept only if irreducible, and only if no point of the curve on z2 = 0
    is a branch point (simple_on_z2_axis): the gauge minimum often sits on
    z2 = 0, and intersect_curve mishandles a minimum at a branch point.
    """
    while True:
        g = _monic_curve(rng, d)
        x, y = _point_in(rng, domain, 0.5)
        g = padd(g, {(0, 0): gsub(ZERO, peval_exact(g, x, y))})
        if simple_on_z2_axis(g) and factor_count(g) == 1:
            return g


def dense_curve(rng, d):
    """Constant term beats the sum of the other moduli by at least 1.

    Then |f| >= 1 on the closed unit polydisc, which contains every closed
    Omega(p, q), so f has no zero there.
    """
    g = _monic_curve(rng, d)
    g.pop((0, 0), None)
    total = sum(abs(gcomplex(c)) for c in g.values())
    k = Fraction(int(total * 4) + 4 + rng.randint(0, 4), 4)
    g[(0, 0)] = (k, Fraction(0)) if rng.random() < 0.5 else (Fraction(0), k)
    return g


def _distinct_at_infinity(f) -> bool:
    """The top-degree part of f has no repeated linear factor."""
    d = max(a + b for a, b in f)
    top = [gcomplex(f.get((d - b, b), ZERO)) for b in range(d, -1, -1)]
    roots = np.roots(top)
    return len(roots) == d and all(
        abs(r - s) > 1e-6 for i, r in enumerate(roots) for s in roots[i + 1:]
    )


def curve_case(rng, kind, d, domain):
    if kind == "CLOSED":
        g = closed_curve(rng, d, domain)
        factors = 1
    elif kind == "DENSE":
        g = dense_curve(rng, d)
        factors = factor_count(g)
    else:
        # The factors of a product are those of its two parts, which share
        # none: one meets the domain and the other does not.
        closed = closed_curve(rng, 2, domain)
        while True:
            dense = dense_curve(rng, d - 2)
            if _distinct_at_infinity(pmul(closed, dense)):
                break
        g = pmul(closed, dense)
        factors = 1 + factor_count(dense)
    expect = {"verdict": kind, "factors": factors}
    return {"generators": [poly_json(g)], "domain": list(domain)}, expect


def _linear_map(rng):
    """Exact invertible M = [[1, beta], [gamma, 1]], beta and gamma nonzero."""
    while True:
        beta = (Fraction(rng.randint(-4, 4), 8), Fraction(rng.randint(-4, 4), 8))
        gamma = (Fraction(rng.randint(-4, 4), 8), Fraction(rng.randint(-4, 4), 8))
        if beta != ZERO and gamma != ZERO and gsub(ONE, gmul(beta, gamma)) != ZERO:
            return beta, gamma


def _coords(rng, n, lo, hi):
    """n distinct Gaussian rationals with modulus in [lo, hi], denominators 8."""
    out = []
    while len(out) < n:
        c = (Fraction(rng.randint(-12, 12), 8), Fraction(rng.randint(-12, 12), 8))
        if lo <= abs(gcomplex(c)) <= hi and c not in out:
            out.append(c)
    return out


def points_case(rng, kind, k, m, rewrite, domain):
    """Grid {(a_i, b_j)} pulled back by z -> M z, so V(I) = M^-1(grid)."""
    while True:
        beta, gamma = _linear_map(rng)
        if kind == "CLOSED":
            a, b = _coords(rng, k, 0.0, 0.5), _coords(rng, m, 0.0, 0.5)
        elif kind == "DENSE":
            a, b = _coords(rng, k, 1.2, 1.5), _coords(rng, m, 0.0, 1.5)
        else:
            a = _coords(rng, k - 1, 0.0, 0.4) + _coords(rng, 1, 1.2, 1.5)
            b = _coords(rng, m, 0.0, 0.4)
        det = gsub(ONE, gmul(beta, gamma))
        pts = [
            (gdiv(gsub(ai, gmul(beta, bj)), det), gdiv(gsub(bj, gmul(gamma, ai)), det))
            for ai in a
            for bj in b
        ]
        phis = [phi(domain, gcomplex(x), gcomplex(y)) for x, y in pts]
        inside = sum(p < 1.0 for p in phis)
        want = {"CLOSED": len(pts), "DENSE": 0}.get(kind)
        if all(abs(p - 1.0) >= PHI_MARGIN for p in phis) and (
            inside == want if want is not None else 0 < inside < len(pts)
        ):
            break
    l1 = {(1, 0): ONE, (0, 1): beta}  # z1 + beta z2
    l2 = {(1, 0): gamma, (0, 1): ONE}  # gamma z1 + z2
    h1 = {(0, 0): ONE}
    for ai in a:
        h1 = pmul(h1, padd(l1, {(0, 0): gsub(ZERO, ai)}))
    h2 = {(0, 0): ONE}
    for bj in b:
        h2 = pmul(h2, padd(l2, {(0, 0): gsub(ZERO, bj)}))
    if rewrite:
        q = {(1, 0): _gauss(rng), (0, 0): _gauss(rng)}
        h1 = padd(h1, pmul(q, h2))
    expect = {
        "verdict": kind,
        "points": [[list(map(str, x)), list(map(str, y))] for x, y in pts],
    }
    return {"generators": [poly_json(h1), poly_json(h2)], "domain": list(domain)}, expect


def unit_cofactor_case(f, h1, h2, domain):
    gens = [pmul(f, h1), pmul(f, h2), f]
    return (
        {"generators": [poly_json(g) for g in gens], "domain": list(domain)},
        {"verdict": "DENSE", "points": [], "known_fault": "unit-cofactor"},
    )


def zero_free_product(rng, n_factors=3):
    """Product of linear factors c + u z1 + v z2 with |c| > |u| + |v|.

    Each factor is at least |c| - |u| - |v| > 0 on the closed polydisc, which
    contains every closed Omega(p, q).
    """
    f = {(0, 0): ONE}
    for _ in range(n_factors):
        u, v = _gauss(rng, 2), _gauss(rng, 2)
        size = abs(gcomplex(u)) + abs(gcomplex(v))
        c = Fraction(int(size * 4) + 2 + rng.randint(0, 4), 4)
        f = pmul(f, {(0, 0): (c, Fraction(0)), (1, 0): u, (0, 1): v})
    return f


def witness_poly(rng, domain):
    """(z1 - x)(z2 - y) + (z1 - x)^2 z2 with (x, y) a seeded interior point."""
    x, y = _point_in(rng, domain, 0.5)
    l1 = {(1, 0): ONE, (0, 0): gsub(ZERO, x)}
    l2 = {(0, 1): ONE, (0, 0): gsub(ZERO, y)}
    extra = _gauss(rng)
    f = padd(pmul(l1, l2), pmul(pmul(l1, l1), {(0, 1): extra if extra != ZERO else ONE}))
    return f, (x, y)


def certify_case(rng, cmd, family, domain, round_idx):
    if cmd == "norms":
        dom = (BALL, OMEGA11, OMEGA13)[round_idx % 3]
        deg = 4 + rng.randint(0, 4)
        return (
            {"command": "norms", "max_degree": deg, "domain": list(dom)},
            {"command": "norms", "max_degree": deg, "domain": list(dom)},
        )
    if cmd == "ratio":
        domain = (BALL, OMEGA11, OMEGA13)[round_idx % 3]
    expect = {"command": cmd, "family": family, "domain": list(domain)}
    if family == "witness":
        f, (x, y) = witness_poly(rng, domain)
        expect["witness"] = [list(map(str, x)), list(map(str, y))]
    else:
        f = zero_free_product(rng)
    expect["poly"] = poly_json(f)
    case = {"command": cmd, "poly": poly_json(f), "domain": list(domain)}
    if family == "witness":
        case["witness"] = [gcomplex(x).real, gcomplex(x).imag, gcomplex(y).real, gcomplex(y).imag]
    return case, expect


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _make(workload, rng, slots, round_idx):
    if workload == "curves":
        return [curve_case(rng, *slot) for slot in slots]
    if workload == "points":
        return [points_case(rng, *slot) for slot in slots]
    return [certify_case(rng, *slot, round_idx) for slot in slots]


def memory_ids(workload: str) -> list[str]:
    """Ids of the cases the memory pass runs, in order."""
    slots = MEMORY_SLOTS[workload]
    if slots is None:
        slots = range(len(SLOTS[workload]) + (len(UNIT_COFACTOR) if workload == "points" else 0))
    return [f"r0.c{i}" for i in slots]


def make_warmup(workload: str):
    """The fixed warm-up cases; they do not depend on the seed."""
    made = _make(workload, random.Random(f"{workload}:warmup"), WARMUP[workload], 0)
    return [case for case, _ in made]


def make_rounds(workload: str, seed: int):
    """([round of cases], [round of expectations]) for ROUNDS[workload] rounds.

    Each case gets an id "r<round>.c<slot>"; the same seed always gives the
    same cases.
    """
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    rounds, expects = [], []
    for r in range(ROUNDS[workload]):
        cases, exps = [], []
        made = _make(workload, rng, SLOTS[workload], r)
        if workload == "points":
            made += [unit_cofactor_case(*u) for u in UNIT_COFACTOR]
        for i, (case, exp) in enumerate(made):
            case["id"] = exp["id"] = f"r{r}.c{i}"
            cases.append(case)
            exps.append(exp)
        rounds.append(cases)
        expects.append(exps)
    return rounds, expects
