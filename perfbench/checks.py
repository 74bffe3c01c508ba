"""Independent checks of every report, and the tampering that must trip them.

Each check takes a case's expectation (from inputs.py), the exit status and
the report text, and returns a list of problems; an empty list is a pass.
Nothing here imports nullsatz: norms come from math.lgamma or factorials,
polynomials are evaluated from their exact input coefficients.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from inputs import BALL, gcomplex, phi, poly_from_json

VERDICT_EXIT = {"CLOSED": 0, "DENSE": 1, "NEITHER": 2, "INCONCLUSIVE": 3}
RESIDUAL_TOL = 1e-8  # the package's point tolerance, TOL_POINT
POINT_TOL = 1e-6
REL_TOL = 1e-9
CIRCLE_GRID = 1 << 15


# ---------------------------------------------------------------------------
# independent numerics
# ---------------------------------------------------------------------------


def monomial_norm(domain, a: int, b: int) -> float:
    """nu_ab on Omega(p, q): (2 pi)^2 / (p q) G(al) G(be) / G(al + be + 1)."""
    p, q = domain
    if (p, q) == BALL:  # pi^2 a! b! / (a + b + 2)!, exactly in rationals
        return math.pi**2 * float(
            Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 2))
        )
    al, be = (2 * a + 2) / p, (2 * b + 2) / q
    log = math.lgamma(al) + math.lgamma(be) - math.lgamma(al + be + 1)
    return (2 * math.pi) ** 2 / (p * q) * math.exp(log)


def kernel_diag(domain, w1: complex, w2: complex) -> float:
    """K(w, w): closed form on the ball, the monomial series elsewhere."""
    if tuple(domain) == BALL:
        return 2.0 / (math.pi**2 * (1.0 - abs(w1) ** 2 - abs(w2) ** 2) ** 3)
    r1, r2 = abs(w1) ** 2, abs(w2) ** 2
    total, s = 0.0, 0
    while True:
        shell = sum(r1**a * r2 ** (s - a) / monomial_norm(domain, a, s - a)
                    for a in range(s + 1))
        total += shell
        if s > 4 and shell < 1e-17 * total:
            return total
        s += 1


def d0(poly, domain) -> float:
    """d_0 = sqrt(nu00 - |p00|^2 nu00^2 / ||p||^2), the distance from 1 to C p."""
    nu00 = monomial_norm(domain, 0, 0)
    norm_sq = sum(abs(gcomplex(c)) ** 2 * monomial_norm(domain, a, b)
                  for (a, b), c in poly.items())
    p00 = abs(gcomplex(poly.get((0, 0), (0, 0)))) ** 2
    return math.sqrt(max(nu00 - p00 * nu00**2 / norm_sq, 0.0))


def evaluate(poly, z1, z2):
    """poly at complex points, summed term by term from the exact input."""
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    out = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
    for (a, b), c in poly.items():
        out += gcomplex(c) * z1**a * z2**b
    return out


def _gq(pair) -> complex:
    return complex(float(Fraction(pair[0])), float(Fraction(pair[1])))


def _pair(xy) -> complex:
    return complex(xy[0], xy[1])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _profile_checks(profile, poly, domain) -> list[str]:
    problems = []
    ds = [d for _, d in profile]
    for n, (a, b) in enumerate(zip(ds, ds[1:])):
        if b > a * (1 + REL_TOL) + 1e-15:
            problems.append(f"d_{n + 1} = {b!r} exceeds d_{n} = {a!r}")
    want = d0(poly, domain)
    if abs(ds[0] - want) > REL_TOL * max(want, 1e-300) + 1e-15:
        problems.append(f"d_0 = {ds[0]!r}, independent value {want!r}")
    return problems


def check_curve(exp, case, status, text) -> list[str]:
    if status != 0:
        return [f"classify raised {status}"]
    rep = json.loads(text)
    problems = []
    if rep["overall"] != exp["verdict"]:
        problems.append(f"verdict {rep['overall']}, constructed {exp['verdict']}")
    comps = rep["decomposition"]["curve_components"] if rep["decomposition"] else []
    if len(comps) != exp["factors"]:
        problems.append(f"{len(comps)} curve components, sympy finds {exp['factors']} factors")
    domain = tuple(case["domain"])
    g = poly_from_json(case["generators"][0])
    if exp["verdict"] == "CLOSED":
        if rep["witness"] is None:
            problems.append("CLOSED without a witness")
        else:
            w1, w2 = (_pair(x) for x in rep["witness"])
            resid = abs(complex(evaluate(g, w1, w2)))
            if resid >= RESIDUAL_TOL:
                problems.append(f"witness residual {resid:.3g}")
            if not phi(domain, w1, w2) < 1.0:
                problems.append(f"witness phi {phi(domain, w1, w2):.6g} >= 1")
    if exp["verdict"] == "DENSE":
        cert = rep["certificate"]
        if cert is None:
            problems.append("DENSE principal ideal without a certificate")
        else:
            problems += _profile_checks(cert["projection_profile"], g, domain)
    return problems


def check_points(exp, case, status, text) -> list[str]:
    if status not in VERDICT_EXIT.values():
        return [f"classify exited {status}"]
    rep = json.loads(text)
    problems = []
    if rep["overall"] != exp["verdict"]:
        problems.append(f"verdict {rep['overall']}, constructed {exp['verdict']}")
    if status != VERDICT_EXIT[rep["overall"]]:
        problems.append(f"exit {status} does not match verdict {rep['overall']}")
    got = [(_pair(p["z1"]), _pair(p["z2"])) for p in rep["decomposition"]["isolated_points"]]
    want = [(_gq(x), _gq(y)) for x, y in exp["points"]]
    unmatched = list(got)
    for x, y in want:
        near = [p for p in unmatched if max(abs(p[0] - x), abs(p[1] - y)) <= POINT_TOL]
        if len(near) != 1:
            problems.append(f"constructed point ({x:.6g}, {y:.6g}) matched {len(near)} reported")
        else:
            unmatched.remove(near[0])
    for x, y in unmatched:
        problems.append(f"reported point ({x:.6g}, {y:.6g}) was not constructed")
    return problems


def check_certify(exp, case, status, text) -> list[str]:
    if status != 0:
        return [f"{exp['command']} exited {status}"]
    rep = json.loads(text)
    cmd = exp["command"]
    domain = tuple(exp["domain"])
    problems = []
    if cmd == "norms":
        k = exp["max_degree"]
        entries = {(e["a"], e["b"]): e["norm_sq"] for e in rep["entries"]}
        if len(entries) != (k + 1) * (k + 2) // 2:
            problems.append(f"{len(entries)} norms for total degree <= {k}")
        for (a, b), v in entries.items():
            want = monomial_norm(domain, a, b)
            if abs(v - want) > 1e-12 * want:
                problems.append(f"nu_{a}{b} = {v!r}, closed form {want!r}")
        return problems

    poly = poly_from_json(exp["poly"])
    if cmd == "density":
        profile = rep["projection_profile"]
        if exp["family"] == "witness":
            w1, w2 = (_gq(c) for c in exp["witness"])
            floor = kernel_diag(domain, w1, w2) ** -0.5
            kb = rep["kernel_lower_bound"]
            if kb is None or abs(kb - floor) > 1e-8 * floor:
                problems.append(f"kernel bound {kb!r}, independent {floor!r}")
            low = [(n, d) for n, d in profile if d < floor * (1 - REL_TOL)]
            if low:
                problems.append(f"d_N below the kernel floor {floor:.9g} at {low[:3]}")
            if rep["status"] != "NOT_DENSE":
                problems.append(f"status {rep['status']} with a known interior zero")
        else:
            problems += _profile_checks(profile, poly, domain)
    elif cmd == "ratio":
        deg = max(a for a, _ in poly) + max(b for _, b in poly)
        if not rep["pass"]:
            problems.append("zero-free product failed the ratio bound")
        if not rep["sup"] <= 2.0**deg + 1e-9:
            problems.append(f"ratio sup {rep['sup']!r} above 2^{deg}")
    elif cmd == "hopf":
        rot = rep["rotation"]
        m = np.array([[_pair(x) for x in row] for row in rot["matrix"]])
        a, b = _pair(rot["a"]), _pair(rot["b"])
        built = np.array([[b.conjugate(), a], [-a.conjugate(), b]])
        defect = max(
            float(np.abs(m.conj().T @ m - np.eye(2)).max()),
            abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0),
            float(np.abs(m - built).max()),
        )
        if defect > 1e-12:
            problems.append(f"rotation not unitary with det 1: defect {defect:.3g}")
        t = 2 * np.pi * np.arange(CIRCLE_GRID) / CIRCLE_GRID
        fine = float(np.abs(evaluate(poly, a * np.exp(1j * t), b * np.exp(1j * t))).min())
        reported = rot["min_modulus"]
        if not fine > 0.0 or fine < reported * (1 - 1e-6) - 1e-12:
            problems.append(f"circle modulus falls to {fine!r} below reported {reported!r}")
        if not rep["ball_ratio"]["finite"]:
            problems.append("ball ratio flagged a zero denominator on a zero-free product")
    return problems


CHECKS = {"curves": check_curve, "points": check_points, "certify": check_certify}


# ---------------------------------------------------------------------------
# tampering: each edit must make its check fail
# ---------------------------------------------------------------------------


def _flip_verdict(rep, exp):
    rep["overall"] = "NEITHER" if rep["overall"] != "NEITHER" else "CLOSED"
    return rep


def _drop_component(rep, exp):
    if rep.get("decomposition") and rep["decomposition"]["curve_components"]:
        rep["decomposition"]["curve_components"].pop()
        return rep
    return None


def _move_witness(rep, exp):
    if exp.get("verdict") == "CLOSED" and rep.get("witness"):
        rep["witness"][0][0] += 1e-3
        rep["witness"][1][1] += 1e-3
        return rep
    return None


def _raise_profile(rep, exp):
    cert = rep.get("certificate", rep)
    prof = cert.get("projection_profile") if cert else None
    if prof and exp.get("family", "zero_free") == "zero_free":
        prof[-1][1] = prof[-2][1] * 1.001
        return rep
    return None


def _shift_d0(rep, exp):
    cert = rep.get("certificate", rep)
    prof = cert.get("projection_profile") if cert else None
    if prof and exp.get("family", "zero_free") == "zero_free":
        prof[0][1] *= 1 + 1e-6
        return rep
    return None


def _drop_point(rep, exp):
    pts = rep["decomposition"]["isolated_points"]
    if pts:
        pts.pop()
        return rep
    return None


def _lower_profile(rep, exp):
    if exp.get("family") == "witness":
        rep["projection_profile"][-1][1] = rep["kernel_lower_bound"] * 0.999
        return rep
    return None


def _wrong_status(rep, exp):
    if exp.get("family") == "witness":
        rep["status"] = "UNDECIDED"
        return rep
    return None


def _ratio_fail(rep, exp):
    if exp.get("command") == "ratio":
        rep["pass"] = False
        return rep
    return None


def _skew_matrix(rep, exp):
    if exp.get("command") == "hopf":
        rep["rotation"]["matrix"][0][0][0] += 1e-9
        return rep
    return None


def _raise_min_modulus(rep, exp):
    if exp.get("command") == "hopf":
        rep["rotation"]["min_modulus"] *= 1.01
        return rep
    return None


def _bend_norm(rep, exp):
    if exp.get("command") == "norms":
        rep["entries"][-1]["norm_sq"] *= 1 + 1e-9
        return rep
    return None


TAMPERS = {
    "curves": (_flip_verdict, _drop_component, _move_witness, _raise_profile, _shift_d0),
    "points": (_flip_verdict, _drop_point),
    "certify": (_raise_profile, _shift_d0, _lower_profile, _wrong_status, _ratio_fail,
                _skew_matrix, _raise_min_modulus, _bend_norm),
}


def tamper_misses(workload, passing) -> list[str]:
    """Tampers that no check caught, or that found no case to apply to.

    passing: (expectation, case, status, report text) of cases that passed.
    Each tamper is tried on every passing case it applies to.
    """
    check = CHECKS[workload]
    misses = []
    for tamper in TAMPERS[workload]:
        tried = 0
        for exp, case, status, text in passing:
            bad = tamper(json.loads(text), exp)
            if bad is None:
                continue
            tried += 1
            if not check(exp, case, status, json.dumps(bad)):
                misses.append(f"{tamper.__name__} on {exp['id']}")
        if not tried:
            misses.append(f"{tamper.__name__} found no case")
    return misses
