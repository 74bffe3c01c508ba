"""Bergman geometry tests.

Ground truths: the Monte Carlo volume-moment oracle, the closed-form unit
ball kernel 2/(pi^2 (1 - <z,w>)^3), hand-solved small least-squares problems,
one lstsq per N for the projection profile, and the dilation ratio analysis
for one-variable factors.
"""

from __future__ import annotations

import json
import math
import random
import warnings

import numpy as np
import pytest

from oracles import mc_monomial_norm

from nullsatz import bergman
from nullsatz.bergman import (
    DENOM_FLOOR,
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
    inner,
    kernel_diag,
    kernel_lower_bound,
    mean_norm_sq,
    monomial_norm,
    norm_sq,
    projection_distances,
    ratio_sup,
    sample_closure,
    sample_interior,
    volume,
)
from nullsatz.hopf import ball_ratio_sup
from nullsatz.polyalg import BiPoly, GaussRational
from nullsatz.rootfind import FiberPoly, _horner

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)
BALL = DomainSpec.ball()
SIMPLEX = DomainSpec(1.0, 1.0)


class TestDomainSpec:
    def test_ball_alias(self):
        assert DomainSpec.parse("ball") == DomainSpec(2.0, 2.0)
        assert DomainSpec.parse("ball").is_ball

    def test_parse_pair(self):
        d = DomainSpec.parse("0.5, 3")
        assert d.p == 0.5 and d.q == 3.0
        assert not d.is_ball

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
        d = DomainSpec(p, 3.0)
        rng = np.random.default_rng(3)
        z1s = rng.normal(size=500) + 1j * rng.normal(size=500)
        z2s = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
        got = d.phi_rows(z1s, z2s)
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


class TestNormTable:
    def test_build_and_lookup(self):
        t = MonomialNormTable(BALL, 6)
        assert t.norm(0, 0) == pytest.approx(math.pi**2 / 2, rel=1e-12)
        assert t.norm(3, 3) == pytest.approx(monomial_norm(BALL, 3, 3), rel=1e-12)

    def test_missing_entry_names_exponent(self):
        t = MonomialNormTable(BALL, 2)
        with pytest.raises(MissingNormError, match=r"\(3, 1\)"):
            t.norm(3, 1)

    def test_covers(self):
        t = MonomialNormTable(BALL, 3)
        assert t.covers(Z1 * Z2 + 1)
        assert not t.covers(Z1**3 * Z2)


class TestInner:
    def test_distinct_monomials_orthogonal(self):
        t = MonomialNormTable(BALL, 8)
        rng = random.Random(8)
        for _ in range(30):
            a, b = rng.randint(0, 4), rng.randint(0, 4)
            c, d = rng.randint(0, 4), rng.randint(0, 4)
            if (a, b) == (c, d):
                continue
            m1 = BiPoly({(a, b): GaussRational(1)})
            m2 = BiPoly({(c, d): GaussRational(1)})
            assert inner(m1, m2, t) == 0

    def test_one_vs_z1(self):
        t = MonomialNormTable(BALL, 2)
        assert inner(BiPoly.constant(1), Z1, t) == 0

    def test_z1_self(self):
        t = MonomialNormTable(BALL, 2)
        assert inner(Z1, Z1, t).real == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_bilinear_combination(self):
        t = MonomialNormTable(BALL, 2)
        v = inner(1 + Z1, 1 - Z1, t)
        assert v.real == pytest.approx(math.pi**2 / 2 - math.pi**2 / 6, rel=1e-12)
        assert v.imag == 0

    def test_hermitian_symmetry(self):
        t = MonomialNormTable(BALL, 4)
        i = GaussRational(0, 1)
        f = Z1 + i * Z2
        g = 2 * Z1 * Z2 - i
        assert inner(f, g, t) == pytest.approx(inner(g, f, t).conjugate())

    def test_norm_sq_positive(self):
        t = MonomialNormTable(BALL, 4)
        f = Z1 - 2 * Z2 + 1
        assert norm_sq(f, t) > 0


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
        loose = kernel_diag(SIMPLEX, (0.4, 0.3j), tol=1e-8)
        tight = kernel_diag(SIMPLEX, (0.4, 0.3j), tol=1e-14)
        assert loose == pytest.approx(tight, rel=1e-6)

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

    def test_ball_system_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficiencyWarning)
            cert = density_certificate(Z1 + Z2 - 3, BALL, N_max=20)
        assert cert.status == STATUS_DENSE


class TestSampling:
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

    def test_interior_sampler_reproduces_norms(self):
        # sampler validity: QMC mean of |z1^a z2^b|^2 must match the table
        for dom in (BALL, DomainSpec(2.0, 1.0)):
            for f, (a, b) in ((Z1, (1, 0)), (Z2 * Z1, (1, 1))):
                est = mean_norm_sq(f, dom, 100_000, seed=5)
                assert est == pytest.approx(monomial_norm(dom, a, b), rel=0.01)

    def test_interior_points_strictly_inside(self):
        z1, z2 = sample_interior(BALL, 5000, seed=2)
        assert np.all(BALL.phi(z1, z2) < 1.0 + 1e-12)

    def test_deterministic_for_seed(self):
        a = sample_closure(BALL, 1000, seed=9)
        b = sample_closure(BALL, 1000, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


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

    def test_json_serializable(self):
        cert = density_certificate(Z1, BALL, N_max=2, zero_w=(0, 0))
        blob = json.dumps(cert.to_json_dict())
        back = json.loads(blob)
        assert back["status"] == "NOT_DENSE"
        assert back["kernel_lower_bound"] == pytest.approx(math.pi / math.sqrt(2))
