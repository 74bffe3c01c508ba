"""Acceptance gate: one test per advertised guarantee, each printing a
single PASS/FAIL line so the whole gate reads off a plain pytest run.

Every tolerance here is a contract.  Do not loosen one to make a test
green; a red line means the implementation (or the claim) is wrong.
"""

import functools
import json
import math
import operator
from fractions import Fraction
from pathlib import Path

import numpy as np

from nullsatz.bergman import (
    DomainSpec,
    density_certificate,
    kernel_diag,
    monomial_norm,
    ratio_sup,
)
from nullsatz.cli import main as cli_main
from nullsatz.decompose import decompose_curve
from nullsatz.hopf import find_rotation
from nullsatz.nullsatz import CLOSED, DENSE, INCONCLUSIVE, NEITHER, classify
from nullsatz.polyalg import BiPoly, GaussRational

from oracles import mc_monomial_norm

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)
HALF = Fraction(1, 2)
BALL = DomainSpec.ball()
OMEGA11 = DomainSpec(p=1.0, q=1.0)
DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def report(capsys, n, label, ok, detail):
    line = f"[criterion {n}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_monomial_norms(capsys):
    """Closed-form monomial norms within 1% of a 10^6-sample MC oracle."""
    domains = [(2.0, 2.0), (1.0, 1.0), (2.0, 1.0), (0.5, 3.0)]
    worst = 0.0
    for p, q in domains:
        dom = DomainSpec(p=p, q=q)
        for a in range(5):
            for b in range(5 - a):
                exact = monomial_norm(dom, a, b)
                mc = mc_monomial_norm(p, q, a, b, n=1_000_000)
                worst = max(worst, abs(exact - mc) / mc)
    ball_rel = abs(monomial_norm(BALL, 0, 0) - math.pi**2 / 2) / (math.pi**2 / 2)
    ok = worst <= 0.01 and ball_rel <= 0.01
    report(capsys, 1, "monomial norms vs Monte Carlo", ok,
           f"max rel err {worst:.3%} over 4 domains x 15 exponents, "
           f"ball norm rel err {ball_rel:.2e}")
    assert ok


def _random_zero_free_products(count, rng):
    """Products of (z_i - c) with |c| > 1.1, so zero-free on both closures."""
    out = []
    while len(out) < count:
        factors = []
        for _ in range(int(rng.integers(1, 5))):
            re = Fraction(int(rng.integers(-32, 33)), 10)
            im = Fraction(int(rng.integers(-32, 33)), 10)
            if re * re + im * im <= Fraction(121, 100):
                re = re + 2 if re >= 0 else re - 2
            var = Z1 if rng.random() < 0.5 else Z2
            factors.append(var - GaussRational(re, im))
        out.append(functools.reduce(operator.mul, factors))
    return out


def test_criterion_2_ratio_bound(capsys):
    """sup |p(z)/p(rz)| <= 2^deg(p) on 50 random zero-free products."""
    rng = np.random.default_rng(20240814)
    products = _random_zero_free_products(50, rng)
    checked = 0
    ok = True
    sups = []
    for prod in products:
        bound = 2.0 ** (prod.deg1 + prod.deg2) + 1e-9
        for dom in (BALL, OMEGA11):
            rep = ratio_sup(prod, dom, samples=10000, seed=0)
            ok = ok and rep.passed and rep.sup <= bound
            sups.append(rep.sup / (bound - 1e-9))
            checked += 1
    witness = ratio_sup(Z1 - 1, BALL,
                        r_grid=(0.5005, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99),
                        samples=20000, seed=0)
    wit_err = abs(witness.sup - 4.0 / 3.0)
    ok = ok and wit_err <= 1e-3
    report(capsys, 2, "dilation ratio bound", ok,
           f"{checked} product/domain checks, max sup/bound {max(sups):.3f}, "
           f"witness sup {witness.sup:.6f} vs 4/3 (err {wit_err:.1e})")
    assert ok


def test_criterion_3_density_convergence(capsys):
    """z1 - 2 on the ball: exact d_0, strict decay, small dilation tail."""
    cert = density_certificate(Z1 - 2, BALL, N_max=20)
    d0 = cert.profile[0][1]
    d0_err = abs(d0 - math.sqrt(math.pi**2 / 26))
    decreasing = all(b < a for (_, a), (_, b) in zip(cert.profile,
                                                     cert.profile[1:]))
    r_last, tail = cert.dilation_profile[-1]
    ok = d0_err <= 1e-6 and decreasing and r_last == 0.99 and tail <= 0.0223
    report(capsys, 3, "density certificate for z1 - 2", ok,
           f"d_0 err {d0_err:.1e}, strictly decreasing to N=20: {decreasing}, "
           f"dilation norm at r=0.99 is {tail:.4f} <= 0.0223")
    assert ok


def test_criterion_4_non_density(capsys):
    """z1 on the ball: every d_N pinned at the kernel bound pi/sqrt(2)."""
    cert = density_certificate(Z1, BALL, N_max=20, zero_w=(0.0, 0.0))
    target = math.pi / math.sqrt(2)
    worst = max(abs(d - target) for _, d in cert.profile)
    kb = kernel_diag(BALL, (0.0, 0.0)) ** -0.5
    kb_err = abs(kb - target)
    cert_err = abs(cert.kernel_bound - target)
    ok = worst <= 1e-9 and kb_err <= 1e-9 and cert_err <= 1e-9
    report(capsys, 4, "non-density floor for z1", ok,
           f"max |d_N - pi/sqrt(2)| = {worst:.1e}, "
           f"kernel bound err {kb_err:.1e}")
    assert ok


def test_criterion_5_monodromy_counts(capsys):
    """Component counts on five curves, stable under refinement and reseed."""
    curves = [
        (Z2**2 - Z1, 1),
        (Z2**2 - Z1**2, 2),
        ((Z2**2 - Z1) * (Z2 + 2), 2),
        ((Z2 - Z1) * (Z2 + Z1) * (Z2 - 2 * Z1), 3),
        (Z2**3 - Z1**2, 1),
    ]
    runs = ({"seed": 0, "resolution": 1},
            {"seed": 0, "resolution": 2},
            {"seed": 1, "resolution": 1})
    ok = True
    got = []
    for poly, want in curves:
        counts = {len(decompose_curve(poly, **kw)) for kw in runs}
        got.append(counts)
        ok = ok and counts == {want}
    report(capsys, 5, "monodromy component counts", ok,
           f"counts {[sorted(c) for c in got]} vs expected [1, 2, 2, 3, 1], "
           "invariant under resolution doubling and base reseeding")
    assert ok


def test_criterion_6_classifier_corpus(capsys):
    """Factored-oracle verdicts on both the ball and |z1|+|z2| < 1."""
    corpus = [
        ([Z1 - HALF], CLOSED),
        ([Z1 - 2], DENSE),
        ([(Z1 - 2) * (Z1 - HALF)], NEITHER),
        ([Z1, Z2], CLOSED),
        ([Z1 - 2, Z2], DENSE),
        ([(Z2**2 - Z1) * (Z2 - 2), (Z2**2 - Z1) * (Z1 - 3)], NEITHER),
    ]
    hits = 0
    total = 0
    inconclusive = 0
    for gens, want in corpus:
        for dom in (BALL, OMEGA11):
            verdict = classify(gens, dom, seed=0, with_certificate=False)
            total += 1
            hits += verdict.overall == want
            inconclusive += verdict.overall == INCONCLUSIVE
    ok = hits == total and inconclusive == 0
    report(capsys, 6, "closure classifier corpus", ok,
           f"{hits}/{total} verdicts on 6 ideals x 2 domains, "
           f"{inconclusive} inconclusive")
    assert ok


def test_criterion_7_circle_rotations(capsys):
    """Unit-circle rotations: unitary to 1e-12, zero-free circles found."""
    family = [Z1, Z2, Z1 * Z2, Z1**2 + Z2**2 - 4]
    ok = True
    mods = []
    for f in family:
        rot = find_rotation(f, seed=0)
        mods.append(rot.min_modulus)
        ok = ok and rot.unitarity_defect() < 1e-12 and rot.min_modulus > 1e-6
    prod_err = abs(mods[2] - 0.5)
    ok = ok and prod_err <= 1e-6
    report(capsys, 7, "rotated circle minima", ok,
           f"min moduli {[f'{m:.4f}' for m in mods]}, "
           f"z1*z2 optimum err {prod_err:.1e}")
    assert ok


def test_criterion_8_determinism(capsys):
    """Identical configuration must reproduce reports byte for byte."""
    gens = [(Z2**2 - Z1) * (Z2 - 2), (Z2**2 - Z1) * (Z1 - 3)]
    lib_reports = [
        json.dumps(classify(gens, BALL, seed=3,
                            with_certificate=False).to_json_dict(),
                   sort_keys=True).encode()
        for _ in range(2)
    ]
    cli_args = ["classify", "--ideal", str(DATA / "princ_half.json"),
                "--domain", "ball", "--seed", "5"]
    cli_outs = []
    for _ in range(2):
        cli_main(list(cli_args))
        cli_outs.append(capsys.readouterr().out.encode())
    ok = lib_reports[0] == lib_reports[1] and cli_outs[0] == cli_outs[1]
    report(capsys, 8, "byte-identical reports", ok,
           f"library report {len(lib_reports[0])} bytes, "
           f"cli report {len(cli_outs[0])} bytes, both runs equal")
    assert ok
