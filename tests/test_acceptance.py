"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and prints its verdict through the pytest line.
The sweep in criterion 7 is shared across its sub-checks via a module fixture.
"""

import math

import numpy as np
import pytest
import scipy.stats

from drlqr.ambiguity import (AmbiguityConfig, MomentAmbiguity, SampleSet,
                             ambiguity_radii, build_ambiguity,
                             empirical_moments, min_sample_size, t_mu, t_sigma)
from drlqr.drsynth import DrSynthesisError, synth_full
from drlqr.experiment import (ExperimentConfig, example1_analytic,
                              replicate_example1, run_sample_complexity,
                              sample_gaussian)
from drlqr.matcore import NumericalFailure, SymMatrix, as_matrix, psd_sqrt
from drlqr.riccati import dr_covariance, value_iteration
from drlqr.sdpcore import LmiBuilder, kron_const, solve
from drlqr.stability import (ClosedLoop, InstabilityError,
                             closed_loop_value_matrix, is_mss)
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem

from conftest import scalar_p_star
from oracles import median_j_rel, nominal_sdp

BETA = 0.05
EPS = 1.0 / 30.0


def _scalar_loop(K):
    sys = MultNoiseSystem(A0=np.array([[0.75]]), A=(np.array([[1.0]]),),
                          B0=np.array([[1.0]]), B=(np.array([[0.0]]),))
    return ClosedLoop(sys=sys, K=np.array([[K]]))


def test_criterion_1_scalar_mss_interval():
    """Bisection on is_mss recovers the endpoints -1.4571 and -0.0429."""
    m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(0.5 * np.eye(1)))

    def stable(K):
        return is_mss(_scalar_loop(K), m)[0]

    lo, hi = -0.75, 0.5
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    upper = lo
    lo, hi = -2.5, -0.75
    for _ in range(50):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if stable(mid) else (mid, hi)
    lower = hi
    assert abs(lower - (-1.4571)) < 1e-3
    assert abs(upper - (-0.0429)) < 1e-3


def test_criterion_2_example1_failure_probability():
    assert abs(example1_analytic(500) - 0.1693) <= 5e-4
    res = replicate_example1(M=500, trials=100_000, seed=0)
    assert abs(res.monte_carlo - 0.1693) <= 0.02


def test_criterion_3_scalar_riccati_closed_form(scalar_sys, scalar_cost, scalar_moments):
    p_star = scalar_p_star(q=1.0, r=1.0e4, s2=0.5)
    k_star = -0.75 * p_star / (1.0e4 + p_star)
    vi = value_iteration(scalar_sys, scalar_moments, scalar_cost)
    sdp = nominal_sdp(scalar_sys, scalar_moments, scalar_cost)
    for ctrl in (vi, sdp):
        p = as_matrix(ctrl.P)[0, 0]
        assert abs(p - p_star) <= 1e-5 * p_star
        assert abs(ctrl.K[0, 0] - k_star) <= 1e-5
    assert abs(k_star - (-0.08438)) < 1e-4


def test_criterion_4_ambiguity_radii_anchors():
    """Radii against an independent inline evaluation of the bounds."""
    n_w, M, b2 = 2, 1000, BETA / 2.0
    q = n_w * math.log(1.0 + 1.0 / EPS) + math.log(2.0 / b2)
    ts_ref = (1.0 / (1.0 - 2.0 * EPS)) * (math.sqrt(32.0 * q / M) + 2.0 * q / M)
    p = n_w + 2.0 * math.sqrt(n_w * math.log(1.0 / b2)) + 2.0 * math.log(1.0 / b2)
    tm_ref = p / M
    rs_ref = 1.0 / (1.0 - tm_ref - ts_ref)
    rm_ref = tm_ref * rs_ref

    assert abs(t_sigma(b2, EPS, 1.0, n_w, M) - ts_ref) < 1e-12
    assert abs(t_mu(b2, 1.0, n_w, M) - tm_ref) < 1e-12
    assert abs(ts_ref - 0.6670) < 1e-3
    assert abs(tm_ref - 0.01481) < 1e-3
    rho_mu, rho_sigma = ambiguity_radii(AmbiguityConfig(beta=BETA), n_w, M)
    assert abs(rho_sigma - rs_ref) < 1e-12 and abs(rho_sigma - 3.143) < 1e-3
    assert abs(rho_mu - rm_ref) < 1e-12 and abs(rho_mu - 0.0465) < 1e-3
    assert min_sample_size(AmbiguityConfig(beta=BETA), n_w) < 1000


def test_criterion_5_coverage_property():
    """Ambiguity sets built from 500 Gaussian sample sets contain the true
    moments (mu = 0, Sigma = I) in at least a 95% fraction, tested one-sided
    at 99% confidence."""
    rng = np.random.default_rng(2024)
    cfg = AmbiguityConfig(beta=BETA)
    trials, hits = 500, 0
    for _ in range(trials):
        amb = build_ambiguity(SampleSet(rng.standard_normal((1000, 2))), cfg,
                              lambda_reg=1e-10)
        sig = as_matrix(amb.sigma_hat)
        mean_ok = amb.mu_hat @ np.linalg.solve(sig, amb.mu_hat) <= amb.rho_mu
        cov_ok = np.linalg.eigvalsh(amb.rho_sigma * sig - np.eye(2))[0] >= 0.0
        hits += int(mean_ok and cov_ok)
    # smallest count compatible with true coverage >= 0.95 at 99% confidence
    cutoff = int(scipy.stats.binom.ppf(0.01, trials, 0.95))
    assert hits >= cutoff, f"coverage {hits}/{trials}, cutoff {cutoff}"


def test_criterion_6_zero_mean_radius_consistency(sys6, cost6):
    rho_mu, rho_sigma = ambiguity_radii(AmbiguityConfig(beta=BETA), 2, 1000)
    amb = MomentAmbiguity(mu_hat=np.zeros(2), sigma_hat=SymMatrix(np.eye(2)),
                          rho_mu=0.0, rho_sigma=rho_sigma)
    full = synth_full(sys6, amb, cost6)
    cov = dr_covariance(sys6, np.zeros(2), amb, cost6)
    tr_full = float(np.trace(as_matrix(full.controller.P)))
    tr_cov = float(np.trace(as_matrix(cov.P)))
    assert abs(tr_full - tr_cov) <= 0.01 * tr_cov


@pytest.fixture(scope="module")
def sweep_records():
    TS = 0.02
    sys6 = MultNoiseSystem(
        A0=np.array([[1.0, TS], [0.0, 1.0 - 0.4 * TS]]),
        A=(np.array([[0.0, 0.0], [0.0, -TS]]), np.zeros((2, 2))),
        B0=np.array([[0.0], [TS]]),
        B=(np.zeros((2, 1)), np.array([[0.0], [TS]])))
    cfg = ExperimentConfig(
        system=sys6,
        true_moments=DisturbanceMoments(mu=np.zeros(2), sigma=SymMatrix(np.eye(2))),
        cost=CostWeights(Q=np.diag([10.0, 1.0]), R=np.array([[0.01]])),
        beta=BETA, sample_sizes=(1000, 2000, 4000, 16000, 64000),
        x0=np.array([2.0, 2.0]), realizations=30, seed=0)
    return run_sample_complexity(cfg)


def test_criterion_7_sample_complexity_replication(sweep_records):
    records = sweep_records
    # (a) every synthesized gain stabilizes under the true moments
    failures = [r for r in records if not r.stabilizing]
    assert not failures, f"{len(failures)} non-stabilizing realizations"
    # (c) the smaller covariance-only set is never more conservative
    for M in (1000, 2000, 4000):
        med_cov = median_j_rel(records, M, "dr_covariance")
        med_full = median_j_rel(records, M, "dr_full")
        assert med_cov <= med_full, f"M={M}: cov {med_cov} > full {med_full}"
    # (b) O(1/M) decay: quadrupling M divides the median suboptimality by 2..8.
    # J_rel is quadratic in the covariance radius rho_sigma - 1, so the O(1/M)
    # rate holds only where that radius falls like 1/sqrt(M).  Near
    # min_sample_size it falls faster: rho_sigma = 1/(1 - t_mu - t_sigma) gives
    # rho_sigma - 1 = 2.142 at M=1000 and 0.495 at M=4000, a factor 4.3 rather
    # than 2, so J_rel falls about 18x there.  The rate is checked at
    # M = 16000 -> 64000, where the radius falls by about 2.2.
    for method in ("dr_covariance", "dr_full"):
        ratio = median_j_rel(records, 64000, method) / median_j_rel(records, 16000, method)
        assert 1.0 / 8.0 <= ratio <= 1.0 / 2.0, \
            f"{method}: J_rel(64000)/J_rel(16000) = {ratio:.4f} outside [1/8, 1/2]"


def test_criterion_8_sdp_solver_against_bisection():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        S = (A + A.T) / 2
        b = LmiBuilder()
        t = b.scalar_var("t")
        b.add_psd(kron_const(np.eye(n), t) - S)
        b.minimize(t)
        prob = b.build()
        sol = solve(prob)
        assert sol.status == "optimal"

        lo, hi = float(np.linalg.eigvalsh(S)[-1]) - 2.0, float(np.linalg.eigvalsh(S)[-1]) + 2.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if np.linalg.eigvalsh(mid * np.eye(n) - S)[0] > 0:
                hi = mid
            else:
                lo = mid
        assert abs(sol.y[0] - hi) <= 1e-6 * (1.0 + abs(hi))
        scale = 1.0 + float(np.abs(sol.y).max())
        assert sol.min_block_eigenvalue >= -1e-8 * scale


def _random_instance(rng):
    n_w = 2
    sys = MultNoiseSystem(
        A0=rng.standard_normal((2, 2)) * 0.5,
        A=tuple(rng.standard_normal((2, 2)) * 0.08 for _ in range(n_w)),
        B0=rng.standard_normal((2, 1)),
        B=tuple(rng.standard_normal((2, 1)) * 0.08 for _ in range(n_w)))
    A = rng.standard_normal((n_w, n_w)) * 0.5
    sigma_hat = A @ A.T + 0.3 * np.eye(n_w)
    amb = MomentAmbiguity(
        mu_hat=rng.standard_normal(n_w) * 0.2,
        sigma_hat=SymMatrix(sigma_hat),
        rho_mu=float(rng.uniform(0.01, 0.1)),
        rho_sigma=float(rng.uniform(1.2, 2.5)))
    cost = CostWeights(Q=np.eye(2), R=np.eye(1))
    return sys, amb, cost


def test_criterion_9_cost_bound_validity():
    """closed_loop value under in-set moments never exceeds the certified
    bound by more than 1e-6 relative.

    Moment pairs are drawn from the ambiguity set itself: mean offsets with
    whitened ellipsoid coordinate up to the radius (including the boundary)
    and covariances dominated by the inflated envelope.
    """
    rng = np.random.default_rng(11)
    instances = 0
    worst = 0.0
    while instances < 50:
        sys, amb, cost = _random_instance(rng)
        try:
            res = synth_full(sys, amb, cost)
        except (DrSynthesisError, NumericalFailure):
            continue
        instances += 1
        cl = ClosedLoop(sys=sys, K=res.controller.K)
        half = as_matrix(psd_sqrt(as_matrix(amb.sigma_hat)))
        for j in range(20):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            u = 1.0 if j < 5 else float(rng.uniform(0.0, 1.0))
            mu = amb.mu_hat + math.sqrt(amb.rho_mu) * u * half @ d
            scale = float(rng.uniform(0.2, 1.0))
            sigma = scale * amb.rho_sigma * as_matrix(amb.sigma_hat)
            m = DisturbanceMoments(mu=mu, sigma=SymMatrix(sigma))
            try:
                tr = float(np.trace(as_matrix(closed_loop_value_matrix(cl, m, cost))))
            except InstabilityError:
                tr = float("inf")
            worst = max(worst, (tr - res.cost_bound) / res.cost_bound)
    assert worst <= 1e-6, f"worst relative bound violation {worst:.4%}"
