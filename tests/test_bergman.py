"""Bergman geometry tests.

Ground truths: the Monte Carlo volume-moment oracle, the closed-form unit
ball kernel 2/(pi^2 (1 - <z,w>)^3), hand-solved small least-squares problems,
one lstsq per N for the projection profile, the dilation ratio analysis
for one-variable factors, and for the dilation norms a closed-form series,
exact unit rotations and a quasi-Monte Carlo mean.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import qmc

from oracles import mc_monomial_norm, qmc_dilation_norm

from nullsatz import bergman
from nullsatz.bergman import (
    DENOM_FLOOR,
    N_MAX,
    RankDeficiencyWarning,
    DensityCertificate,
    DomainError,
    DomainSpec,
    MissingNormError,
    MonomialNormTable,
    STATUS_DENSE,
    STATUS_NOT_DENSE,
    STATUS_UNDECIDED,
    density_certificate,
    eval_grid,
    kernel_diag,
    kernel_lower_bound,
    monomial_norm,
    projection_distances,
    ratio_sup,
    sample_closure,
    volume,
)
from nullsatz.cli import main
from nullsatz.hopf import ball_ratio_sup
from nullsatz.polyalg import BiPoly, GaussRational
from nullsatz.rootfind import FiberPoly, _horner

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)
BALL = DomainSpec.ball()
SIMPLEX = DomainSpec(1.0, 1.0)
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


class TestDomainSpec:
    def test_ball_alias(self):
        assert DomainSpec.parse("ball") == DomainSpec(2.0, 2.0)
        assert DomainSpec.parse("ball") == DomainSpec.ball()

    def test_parse_pair(self):
        d = DomainSpec.parse("0.5, 3")
        assert d.p == 0.5 and d.q == 3.0
        assert d != DomainSpec.ball()

    def test_parse_rejects_garbage(self):
        for bad in ("", "1", "1,2,3", "a,b", "ball,2"):
            with pytest.raises(DomainError):
                DomainSpec.parse(bad)

    def test_rejects_nonpositive_exponents(self):
        for p, q in ((0.0, 1.0), (-1.0, 2.0), (2.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(DomainError):
                DomainSpec(p, q)

    def test_phi_and_contains(self):
        d = DomainSpec(1.0, 1.0)
        assert d.phi(0.25, 0.25) == pytest.approx(0.5)
        assert d.contains(0.25, 0.25)
        assert not d.contains(0.5, 0.5 + 0.1j)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 1.5])
    def test_phi_rows_rounds_like_scalar_phi(self, p):
        # the gauge form of nullsatz._sheet_phis; the pruned scan's tie rule
        # needs it to round as phi does for one scalar z1
        d = DomainSpec(p, 3.0)
        rng = np.random.default_rng(3)
        z1s = rng.normal(size=500) + 1j * rng.normal(size=500)
        z2s = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
        got = d.z1_terms(z1s)[:, None] + np.abs(z2s) ** d.q
        want = np.array([d.phi(z1, row) for z1, row in zip(z1s, z2s)])
        assert got.tobytes() == want.tobytes()


class TestMonomialNorm:
    def test_ball_volume(self):
        assert monomial_norm(BALL, 0, 0) == pytest.approx(math.pi**2 / 2, rel=1e-12)

    def test_ball_z1(self):
        assert monomial_norm(BALL, 1, 0) == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_simplex_volume(self):
        assert monomial_norm(SIMPLEX, 0, 0) == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_ball_factorial_form(self):
        for a in range(5):
            for b in range(5 - a):
                expected = (
                    math.pi**2 * math.factorial(a) * math.factorial(b)
                    / math.factorial(a + b + 2)
                )
                assert monomial_norm(BALL, a, b) == pytest.approx(expected, rel=1e-12)

    def test_against_mc_oracle_sample(self):
        for p, q in ((2.0, 2.0), (1.0, 1.0), (0.5, 3.0)):
            d = DomainSpec(p, q)
            for a, b in ((0, 0), (2, 1), (0, 4)):
                mc = mc_monomial_norm(p, q, a, b, n=200_000)
                assert monomial_norm(d, a, b) == pytest.approx(mc, rel=0.02)

    def test_swap_symmetry(self):
        d1, d2 = DomainSpec(2.0, 1.0), DomainSpec(1.0, 2.0)
        for a in range(4):
            for b in range(4):
                assert monomial_norm(d1, a, b) == pytest.approx(
                    monomial_norm(d2, b, a), rel=1e-12
                )

    def test_strictly_decreasing(self):
        for d in (BALL, SIMPLEX, DomainSpec(0.5, 3.0)):
            for a in range(6):
                for b in range(6):
                    v = monomial_norm(d, a, b)
                    assert monomial_norm(d, a + 1, b) < v
                    assert monomial_norm(d, a, b + 1) < v

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            monomial_norm(BALL, -1, 0)

    def test_large_degree_no_overflow(self):
        v = monomial_norm(BALL, 80, 80)
        assert 0 < v < 1

    @pytest.mark.parametrize("domain", [BALL, SIMPLEX, DomainSpec(1.0, 3.0)],
                             ids=["ball", "1_1", "1_3"])
    def test_log_norm_matches_gammaln(self, domain):
        # math.lgamma against scipy's gammaln on the N_MAX table.  Each log
        # term is good to about an ulp, so the sum may move by a few ulps of
        # the largest term: 4 eps times the sum of the terms' magnitudes.
        a, b = np.array([(a, s - a) for s in range(N_MAX + 1) for a in range(s + 1)]).T
        alpha, beta = (2.0 * a + 2.0) / domain.p, (2.0 * b + 2.0) / domain.q
        base = 2.0 * math.log(2.0 * math.pi) - math.log(domain.p) - math.log(domain.q)
        terms = [gammaln(alpha), gammaln(beta), gammaln(alpha + beta + 1.0)]
        want = base + terms[0] + terms[1] - terms[2]
        scale = abs(base) + sum(np.abs(t) for t in terms)
        got = bergman._log_norm(domain, a, b)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
        # scalar input takes the same arithmetic
        for ai, bi, g in zip(a[::17], b[::17], got[::17]):
            assert bergman._log_norm(domain, int(ai), int(bi)) == g


class TestNormTable:
    def test_build_and_lookup(self):
        t = MonomialNormTable(BALL, 6)
        assert t.norm(0, 0) == pytest.approx(math.pi**2 / 2, rel=1e-12)
        assert t.norm(3, 3) == pytest.approx(monomial_norm(BALL, 3, 3), rel=1e-12)

    def test_missing_entry_names_exponent(self):
        t = MonomialNormTable(BALL, 2)
        with pytest.raises(MissingNormError, match=r"\(3, 1\)"):
            t.norm(3, 1)


class TestKernelDiag:
    def test_origin_ball(self):
        assert kernel_diag(BALL, (0, 0)) == pytest.approx(2 / math.pi**2, rel=1e-12)

    def test_ball_closed_form(self):
        # unit ball kernel diagonal: 2 / (pi^2 (1 - |w|^2)^3)
        for w1 in (0.5, 0.3 + 0.2j):
            expected = 2 / (math.pi**2 * (1 - abs(w1) ** 2) ** 3)
            assert kernel_diag(BALL, (w1, 0)) == pytest.approx(expected, rel=1e-9)
        expected = 2 / (math.pi**2 * (1 - 0.25 - 0.09) ** 3)
        assert kernel_diag(BALL, (0.5, 0.3j)) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_modulus(self):
        assert kernel_diag(BALL, (0.6, 0)) > kernel_diag(BALL, (0.5, 0))

    def test_truncation_stability(self):
        # the stopping rule against 400 full shells summed in log space
        r1, r2 = 0.4, 0.3
        total = 0.0
        for s in range(400):
            for a in range(s + 1):
                b = s - a
                alpha, beta = 2.0 * a + 2.0, 2.0 * b + 2.0  # p = q = 1
                log_nu = (2.0 * math.log(2.0 * math.pi) + math.lgamma(alpha)
                          + math.lgamma(beta) - math.lgamma(alpha + beta + 1.0))
                total += math.exp(2 * a * math.log(r1) + 2 * b * math.log(r2) - log_nu)
        assert kernel_diag(SIMPLEX, (0.4, 0.3j)) == pytest.approx(total, rel=1e-9)

    def test_rejects_boundary_and_outside(self):
        with pytest.raises(DomainError):
            kernel_diag(BALL, (1.0, 0.0))
        with pytest.raises(DomainError):
            kernel_diag(BALL, (1.2, 0.0))

    def test_lower_bound_is_inverse_sqrt(self):
        k = kernel_diag(BALL, (0.5, 0))
        assert kernel_lower_bound(BALL, (0.5, 0)) == pytest.approx(1 / math.sqrt(k))


class TestProjectionDistance:
    def test_unit_poly_reaches_zero(self):
        t = MonomialNormTable(BALL, 4)
        assert projection_distances(BiPoly.constant(1), 0, t)[0] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_z1_distance_is_norm_of_one(self):
        t = MonomialNormTable(BALL, 30)
        for N in (0, 3, 10):
            d = projection_distances(Z1, N, t)[N]
            assert d == pytest.approx(math.pi / math.sqrt(2), rel=1e-12)

    def test_z1_minus_two_hand_value(self):
        # minimize ||1 - c(z1-2)||: c = -6/13, distance sqrt(pi^2/26)
        t = MonomialNormTable(BALL, 4)
        d = projection_distances(Z1 - 2, 0, t)[0]
        assert d == pytest.approx(math.sqrt(math.pi**2 / 26), abs=1e-9)

    def test_monotone_in_N(self):
        t = MonomialNormTable(BALL, 40)
        rng = random.Random(17)
        for _ in range(5):
            f = BiPoly(
                {
                    (rng.randint(0, 2), rng.randint(0, 2)): GaussRational(
                        rng.randint(-3, 3), rng.randint(-2, 2)
                    )
                    for _ in range(3)
                }
            )
            if f.is_zero:
                continue
            prev = math.inf
            for N in range(8):
                d = projection_distances(f, N, t)[N]
                assert d <= prev + 1e-12
                prev = d

    def test_kernel_bound_invariant(self):
        # p vanishes at (1/2, 0) inside the ball: no N can beat the bound
        t = MonomialNormTable(BALL, 40)
        p = 2 * Z1 - 1
        bound = kernel_lower_bound(BALL, (0.5, 0))
        for N in (0, 2, 5, 9):
            assert projection_distances(p, N, t)[N] >= bound - 1e-9

    def test_rejects_zero_poly(self):
        t = MonomialNormTable(BALL, 2)
        with pytest.raises(ValueError):
            projection_distances(BiPoly.zero(), 0, t)


def _seeded_poly(rng: random.Random, zero_free: bool) -> BiPoly:
    """A random nonconstant polynomial of bidegree <= (3, 3).

    zero_free adds a constant above the sum of the other |coefficients|, so
    p has no zero on the closed polydisc and its profile d_N falls to 0.
    """
    while True:
        f = BiPoly(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): GaussRational(
                    rng.randint(-4, 4), rng.randint(-3, 3)
                )
                for _ in range(rng.randint(2, 5))
            }
        )
        if not f.is_constant:
            break
    if zero_free:
        f = f + math.ceil(sum(abs(complex(c)) for c in f.terms.values())) + 1
    return f


def _lstsq_profile(p: BiPoly, domain: DomainSpec, N_max: int) -> list[float]:
    """d_0..d_N_max with one lstsq per N, columns z1^c z2^d in (c, d) order."""
    nu: dict[tuple[int, int], float] = {}
    out = []
    for N in range(N_max + 1):
        cols = [(c, d) for c in range(N + 1) for d in range(N + 1 - c)]
        rows = sorted({(0, 0)} | {(a + c, b + d) for (a, b) in p.terms for (c, d) in cols})
        at = {e: i for i, e in enumerate(rows)}
        A = np.zeros((len(rows), len(cols)), dtype=np.complex128)
        for j, (c, d) in enumerate(cols):
            for (a, b), coef in p.terms.items():
                A[at[(a + c, b + d)], j] = complex(coef)
        for e in rows:
            if e not in nu:
                nu[e] = monomial_norm(domain, *e)
        scale = np.sqrt([nu[e] for e in rows])
        A *= scale[:, None]
        rhs = np.zeros(len(rows), dtype=np.complex128)
        rhs[at[(0, 0)]] = scale[at[(0, 0)]]
        x = np.linalg.lstsq(A, rhs, rcond=None)[0]
        out.append(float(np.linalg.norm(rhs - A @ x)))
    return out


class TestProjectionProfile:
    """One QR for every N against one lstsq per N and the closed-form d_0."""

    @pytest.mark.parametrize("domain", [BALL, SIMPLEX, DomainSpec(1.0, 3.0)],
                             ids=["ball", "1_1", "1_3"])
    def test_matches_per_N_lstsq(self, domain):
        rng = random.Random(f"profile:{domain.p},{domain.q}")
        for zero_free in (True, True, False, False):
            p = _seeded_poly(rng, zero_free)
            t = MonomialNormTable(domain, p.deg1 + p.deg2 + 20)
            got = projection_distances(p, 20, t)
            want = _lstsq_profile(p, domain, 20)
            assert len(got) == 21
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * want[0]
            assert all(b <= a for a, b in zip(got, got[1:]))
            nu00 = monomial_norm(domain, 0, 0)
            p00 = abs(complex(p.coeff(0, 0)))
            pn = sum(abs(complex(c)) ** 2 * monomial_norm(domain, a, b)
                     for (a, b), c in p.terms.items())
            d0 = math.sqrt(nu00 - p00**2 * nu00**2 / pn)
            assert got[0] == pytest.approx(d0, rel=1e-12)

    def test_rejects_negative_N(self):
        with pytest.raises(ValueError):
            projection_distances(Z1 - 2, -1, MonomialNormTable(BALL, 2))

    def test_rank_deficient_system_warns_once_and_stays_dense(self):
        p = Z1 + Z2 - 3
        with pytest.warns(RankDeficiencyWarning) as rec:
            cert = density_certificate(p, DomainSpec(0.5, 0.5), N_max=20)
        assert len(rec) == 1
        msg = str(rec[0].message)
        assert "at N = " in msg and "regularized" not in msg
        assert cert.status == STATUS_DENSE

    def test_full_rank_system_skips_the_svd(self, monkeypatch, capsys):
        # the norm bound proves full rank for princ_two at N_max = 20, so no
        # SVD runs
        svd = np.linalg.svd
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert main(["density", "--poly", str(DATA / "princ_two.json")]) == 0
        capsys.readouterr()
        assert calls == []

    def test_ball_system_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficiencyWarning)
            cert = density_certificate(Z1 + Z2 - 3, BALL, N_max=20)
        assert cert.status == STATUS_DENSE


class TestSampling:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_halton_matches_scipy_bit_for_bit(self, seed):
        for n in (19, 1000, 20_000, 100_000):
            want = qmc.Halton(d=4, seed=seed).random(n)
            assert np.array_equal(bergman._halton4(n, seed).T, want)

    def test_eval_grid_matches_pointwise(self):
        rng = random.Random(3)
        f = (Z1 - 2) * (Z2 + GaussRational(0, 1)) + Z1**2 * Z2
        z1 = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)])
        z2 = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)])
        vals = eval_grid(f, z1, z2)
        for i in range(20):
            assert abs(vals[i] - f.eval(complex(z1[i]), complex(z2[i]))) < 1e-12
        # the shared Horner helper on the layouts of FiberPoly (z1 powers on
        # axis 0, one column per z2 power) and _aberth_batch (one polynomial
        # per row of a (B, m) point array)
        rows = FiberPoly(f).coeff_rows(z1)
        w = z2[:, None] * np.array([1.0, 0.5j, -0.7])
        batch = _horner(rows.T[:, :, None], w)
        assert batch.shape == (20, 3)
        for i in range(20):
            for j in range(3):
                want = f.eval(complex(z1[i]), complex(w[i, j]))
                assert abs(batch[i, j] - want) < 1e-12

    def test_closure_points_stay_in_closure(self):
        for dom in (BALL, SIMPLEX, DomainSpec(0.5, 3.0)):
            z1, z2 = sample_closure(dom, 2000, seed=1)
            assert np.all(dom.phi(z1, z2) <= 1.0 + 1e-9)

    def test_closure_hits_boundary_and_corners(self):
        z1, z2 = sample_closure(BALL, 3000, seed=0)
        phi = BALL.phi(z1, z2)
        assert np.mean(phi > 1 - 1e-9) > 0.2
        # the corner circle contains z1 = -1 exactly
        on_axis = z2 == 0
        assert np.min(np.abs(z1[on_axis] - (-1.0))) < 1e-15

    def test_deterministic_for_seed(self):
        a = sample_closure(BALL, 1000, seed=9)
        b = sample_closure(BALL, 1000, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestSampleMemo:
    """Each closure sample set is built once per (domain, n, seed) and shared
    read-only."""

    SAMPLERS = ((sample_closure, bergman._kept_closure, bergman.RATIO_SAMPLES),)

    @pytest.mark.parametrize("sampler, builder, default", SAMPLERS)
    def test_read_only_and_shared(self, sampler, builder, default):
        builder.cache_clear()
        z1, z2 = sampler(SIMPLEX, 600, 4)
        for arr in (z1, z2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        again = sampler(SIMPLEX, 600, seed=4)
        assert again[0] is z1 and again[1] is z2
        assert builder.cache_info().hits == 1

    @pytest.mark.parametrize("sampler, builder, default", SAMPLERS)
    def test_each_key_is_its_own_entry(self, sampler, builder, default):
        builder.cache_clear()
        base = sampler(SIMPLEX, 600, 4)
        for dom, n, seed in (
            (DomainSpec(2.0, 1.0), 600, 4),
            (DomainSpec(1.0, 2.0), 600, 4),
            (SIMPLEX, 601, 4),
            (SIMPLEX, 600, 5),
        ):
            builder.cache_clear()
            z1, z2 = sampler(dom, n, seed)
            assert builder.cache_info().misses == 1
            assert z1 is not base[0] and z2 is not base[1]
            # a sampler may scale z1 by p alone, so compare the pair
            assert not (np.array_equal(z1, base[0]) and np.array_equal(z2, base[1]))

    @pytest.mark.parametrize("sampler, builder, default", SAMPLERS)
    def test_sets_above_the_default_size_are_not_kept(self, sampler, builder, default):
        builder.cache_clear()
        first = sampler(SIMPLEX, default + 1, 4)
        again = sampler(SIMPLEX, default + 1, 4)
        assert builder.cache_info().currsize == 0
        assert again[0] is not first[0] and again[1] is not first[1]
        for a, b in zip(first, again):
            assert len(a) == default + 1 and not a.flags.writeable
            assert a.tobytes() == b.tobytes()

    def test_cache_bound_is_documented(self):
        # three kept sets, at most 3 x 0.64 MB
        assert bergman.SAMPLE_SETS == 3
        for _, builder, _ in self.SAMPLERS:
            assert builder.cache_info().maxsize == bergman.SAMPLE_SETS


WITNESS_R_GRID = (0.5005, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


class TestRatioSup:
    def test_unit_poly_sup_is_one(self):
        rep = ratio_sup(BiPoly.constant(1), BALL, samples=1000)
        assert rep.sup == 1.0
        assert rep.passed and rep.bound == 1.0

    def test_one_variable_witness(self):
        rep = ratio_sup(Z1 - 1, BALL, r_grid=WITNESS_R_GRID, samples=20000, seed=0)
        assert rep.passed
        assert rep.sup == pytest.approx(4.0 / 3.0, abs=1e-3)
        assert rep.sup_r == 0.5005
        assert abs(rep.sup_point[0] - (-1.0)) < 1e-6

    def test_z1_minus_two(self):
        rep = ratio_sup(Z1 - 2, BALL, samples=5000)
        assert rep.passed
        assert rep.sup <= 2.0

    def test_product_bound(self):
        p = (Z1 - 2) * (Z2 + 3) * (Z1 + GaussRational(0, 2))
        rep = ratio_sup(p, BALL, samples=5000)
        assert rep.passed
        assert rep.sup <= 2.0**4 + 1e-9
        assert rep.degree_sum == 3

    def test_zero_inside_fails(self):
        # zero at z1 = 1/4, inside the ball: sup blows past the bound
        rep = ratio_sup(4 * Z1 - 1, BALL, samples=5000)
        assert not rep.passed

    def test_zero_at_sampled_point_reports_violation(self):
        # z1 vanishes on the corner samples; denominators hit the floor
        rep = ratio_sup(Z1, BALL, samples=2000)
        assert not rep.passed
        assert rep.violations

    def test_bad_r_grid_rejected(self):
        with pytest.raises(DomainError):
            ratio_sup(Z1 - 2, BALL, r_grid=(0.4,), samples=1000)

    def test_json_roundtrip(self):
        rep = ratio_sup(Z1 - 2, BALL, samples=1000)
        blob = json.dumps(rep.to_json_dict())
        back = json.loads(blob)
        assert back["pass"] is True
        assert back["seed"] == 0


class TestRGridCheck:
    @pytest.mark.parametrize(
        "r_grid", [(), (0.4,), (0.5,), (1.0,)], ids=["empty", "0.4", "0.5", "1.0"]
    )
    @pytest.mark.parametrize(
        "run",
        [
            lambda g: ratio_sup(Z1 - 2, BALL, r_grid=g, samples=1000),
            lambda g: ball_ratio_sup(Z1 - 2, r_grid=g, samples=1000),
            lambda g: density_certificate(Z1 - 2, BALL, N_max=1, r_grid=g),
        ],
        ids=["ratio_sup", "ball_ratio_sup", "density_certificate"],
    )
    def test_bad_grid_raises_domain_error(self, run, r_grid):
        with pytest.raises(DomainError, match="r_grid"):
            run(r_grid)

    def test_density_certificate_checks_grid_before_projecting(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("projection ran before the r-grid check")

        monkeypatch.setattr(bergman, "projection_distances", fail)
        with pytest.raises(DomainError, match="r_grid"):
            density_certificate(Z1 - 2, BALL, r_grid=(0.9, 0.4))


class TestDensityCertificate:
    def test_z1_minus_two_dense(self):
        cert = density_certificate(Z1 - 2, BALL, N_max=20)
        d = dict(cert.profile)
        assert d[0] == pytest.approx(math.sqrt(math.pi**2 / 26), abs=1e-6)
        vals = [v for _, v in cert.profile]
        assert all(b < a for a, b in zip(vals, vals[1:])), "profile must strictly decrease"
        dil = dict(cert.dilation_profile)
        assert dil[0.99] <= 0.0223
        assert cert.status == STATUS_DENSE
        assert cert.kernel_bound is None

    def test_dilation_profile_decreases_in_r(self):
        cert = density_certificate(Z1 - 2, BALL, N_max=2)
        vals = [v for _, v in cert.dilation_profile]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_z1_not_dense_with_witness(self):
        cert = density_certificate(Z1, BALL, N_max=8, zero_w=(0, 0))
        target = math.pi / math.sqrt(2)
        for _, d in cert.profile:
            assert d == pytest.approx(target, abs=1e-9)
        assert cert.kernel_bound == pytest.approx(target, abs=1e-9)
        assert cert.status == STATUS_NOT_DENSE
        for _, d in cert.profile:
            assert d >= cert.kernel_bound - 1e-9

    def test_unit_poly_immediately_dense(self):
        cert = density_certificate(BiPoly.constant(1), BALL, N_max=0)
        assert cert.profile[0][1] == pytest.approx(0.0, abs=1e-12)
        assert cert.status == STATUS_DENSE

    def test_undecided_without_witness(self):
        cert = density_certificate(Z1, BALL, N_max=3)
        assert cert.status == STATUS_UNDECIDED

    def test_bogus_witness_rejected(self):
        with pytest.raises(ValueError):
            density_certificate(Z1 - 2, BALL, N_max=1, zero_w=(0, 0))
        with pytest.raises(DomainError):
            density_certificate(Z1 - 2, BALL, N_max=1, zero_w=(2, 0))

    def test_report_does_not_depend_on_earlier_calls(self):
        omega13 = DomainSpec(1.0, 3.0)
        f = (Z1 - 2) * (Z2 + GaussRational(1, 2)) + Z1 * Z2**2

        def report():
            return json.dumps(density_certificate(f, omega13, N_max=2).to_json_dict())

        cold = report()
        for dom in (BALL, SIMPLEX):
            density_certificate(f, dom, N_max=2)
        assert report() == cold

    def test_json_serializable(self):
        cert = density_certificate(Z1, BALL, N_max=2, zero_w=(0, 0))
        blob = json.dumps(cert.to_json_dict())
        back = json.loads(blob)
        assert back["status"] == "NOT_DENSE"
        assert back["kernel_lower_bound"] == pytest.approx(math.pi / math.sqrt(2))


def _rotated(p: BiPoly, u: GaussRational, v: GaussRational) -> BiPoly:
    """p(u z1, v z2), exactly."""
    out = BiPoly.zero()
    for (a, b), c in p.terms.items():
        out = out + (Z1 * u) ** a * (Z2 * v) ** b * c
    return out


def _witness_family(seed: int, domain: DomainSpec) -> BiPoly:
    """(z1 - x)(z2 - y) + e (z1 - x)^2 z2 through a seeded point with gauge <= 1/2."""
    rng = random.Random(seed)

    def eighths():
        return GaussRational(Fraction(rng.randint(-4, 4), 8), Fraction(rng.randint(-4, 4), 8))

    while True:
        x, y = eighths(), eighths()
        if domain.phi(complex(x), complex(y)) <= 0.5:
            break
    e = GaussRational(Fraction(rng.randint(1, 4), 2), Fraction(rng.randint(-4, 4), 4))
    return (Z1 - x) * (Z2 - y) + (Z1 - x) ** 2 * Z2 * e


def _line_closed_form(c: complex, r: float) -> float:
    """||1 - p/p_r|| on the ball for p = z1 - c, |c| > 1:

    ((1 - r)/|c|)^2 sum_k |r/c|^(2k) pi^2 / ((k+2)(k+3)), summed to exhaustion.
    """
    x = abs(r / c) ** 2
    total, k, term = 0.0, 0, 1.0
    while term > 1e-20 * max(total, 1e-300):
        term = x**k * math.pi**2 / ((k + 2) * (k + 3))
        total += term
        k += 1
    return (1.0 - r) / abs(c) * math.sqrt(total)


class TestDilationNorms:
    """The certificate's dilation profile, summed from the Taylor series of p/p_r."""

    @pytest.mark.parametrize("c", [
        GaussRational(2), GaussRational(Fraction(-3, 2)),
        GaussRational(Fraction(3, 2), 2), GaussRational(0, Fraction(5, 4)),
    ], ids=["2", "-3/2", "3/2+2i", "5i/4"])
    def test_line_matches_the_closed_form(self, c):
        cert = density_certificate(Z1 - c, BALL, N_max=1)
        for r, v in cert.dilation_profile:
            assert v == pytest.approx(_line_closed_form(complex(c), r), rel=1e-12)

    @pytest.mark.parametrize("c", [
        GaussRational(Fraction(3, 2)), GaussRational(2), GaussRational(Fraction(6, 5)),
        GaussRational(1, 1),
    ], ids=["3/2", "2", "6/5", "1+i"])
    def test_diagonal_line_matches_the_closed_form(self, c):
        # p = 1 - (z1 + z2)/c depends on u = z1 + z2 alone, and on the ball
        # ||u^k||^2 = pi^2 2^k / ((k+1)(k+2)), so ||1 - p/p_r||^2 is
        # (1 - r)^2 sum_k>=1 r^(2k-2) (2/|c|^2)^k pi^2 / ((k+1)(k+2)), which is
        # infinite exactly when p_r vanishes in the ball, 2 r^2 >= |c|^2.
        # On |c| = sqrt(2) the zero set touches the sphere and the shells
        # decay too slowly to settle at r = 0.99: not determined, never wrong.
        p = BiPoly.constant(1) - (Z1 + Z2) * (GaussRational(1) / c)
        x = float(Fraction(2) / (c.re**2 + c.im**2))
        for r, v in density_certificate(p, BALL, N_max=1).dilation_profile:
            if x * r * r >= 1.0:
                assert v == math.inf, r
                continue
            want = sum((x * r * r) ** k / r**2 * math.pi**2 / ((k + 1) * (k + 2))
                       for k in range(1, 20_000))
            assert math.isnan(v) and x == 1.0 or v == pytest.approx(
                (1.0 - r) * math.sqrt(want), rel=1e-12), r

    @pytest.mark.parametrize("domain", [BALL, SIMPLEX, DomainSpec(1.0, 3.0)],
                             ids=["ball", "1_1", "1_3"])
    def test_invariant_under_unit_rotations(self, domain):
        u = GaussRational(Fraction(3, 5), Fraction(4, 5))
        v = GaussRational(Fraction(-5, 13), Fraction(12, 13))
        p = (Z1 * GaussRational(1, 1) + Z2 - 4) * (Z2 * Z1 + Z2 * 2 + 5)
        base = density_certificate(p, domain, N_max=1).dilation_profile
        turned = density_certificate(_rotated(p, u, v), domain, N_max=1).dilation_profile
        for (r, a), (_, b) in zip(base, turned):
            assert math.isfinite(a) and b == pytest.approx(a, rel=1e-12), r
        witness = _witness_family(1, domain)
        for _, b in density_certificate(_rotated(witness, u, v), domain, N_max=1).dilation_profile:
            assert b == math.inf

    def test_monomial_factor_scales_the_series(self):
        # z1: h = 1/r exactly; z1^2 (z1 - 2): h = r^-2 (z1 - 2)/(r z1 - 2)
        for r, v in density_certificate(Z1, BALL, N_max=1).dilation_profile:
            assert v == pytest.approx(abs(1.0 - 1.0 / r) * math.pi / math.sqrt(2), rel=1e-12)
        for r, v in density_certificate(Z1**2 * (Z1 - 2), BALL, N_max=1).dilation_profile:
            want = (1.0 - r**-2) ** 2 * math.pi**2 / 2 + r**-4 * _line_closed_form(2, r) ** 2
            assert v == pytest.approx(math.sqrt(want), rel=1e-12)

    def test_interior_zero_gives_inf_at_every_r(self):
        half = density_certificate(Z1 - GaussRational(Fraction(1, 2)), BALL, N_max=1)
        assert [v for _, v in half.dilation_profile] == [math.inf] * 7
        for seed in range(4):
            for domain in (BALL, SIMPLEX, DomainSpec(1.0, 3.0)):
                cert = density_certificate(_witness_family(seed, domain), domain, N_max=1)
                assert [v for _, v in cert.dilation_profile] == [math.inf] * 7

    def test_zero_at_the_origin_is_not_determined(self):
        cert = density_certificate(Z1 + Z2**2, BALL, N_max=1)
        assert all(math.isnan(v) for _, v in cert.dilation_profile)
        blob = json.loads(json.dumps(cert.to_json_dict()))
        assert all(math.isnan(v) for _, v in blob["dilation_profile"])

    @pytest.mark.parametrize("domain", [BALL, DomainSpec(1.0, 3.0)], ids=["ball", "1_3"])
    def test_matches_the_quasi_monte_carlo_mean(self, domain):
        cert = density_certificate(Z1 - 2, domain, N_max=1)
        for r, v in cert.dilation_profile:
            assert abs(v - qmc_dilation_norm(Z1 - 2, domain, r)) < 1e-5
