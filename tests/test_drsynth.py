import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlqr import drsynth, sdpcore
from drlqr.ambiguity import MomentAmbiguity
from drlqr.drsynth import DrSynthesisError, synth_full, synth_rhc
from drlqr.matcore import DomainError, NumericalFailure, SymMatrix, as_matrix, psd_sqrt
from drlqr.riccati import dr_covariance, value_iteration
from drlqr.stability import ClosedLoop, closed_loop_value_matrix, is_mss
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem
from oracles import dr_certify_mss


def _amb(mu_hat, sigma_hat, rho_mu, rho_sigma):
    return MomentAmbiguity(mu_hat=np.asarray(mu_hat, dtype=float),
                           sigma_hat=SymMatrix(np.atleast_2d(sigma_hat)),
                           rho_mu=rho_mu, rho_sigma=rho_sigma)


@pytest.fixture
def amb6_small():
    """Modest radii the double-integrator system can comfortably absorb."""
    return _amb(np.zeros(2), np.eye(2), 0.05, 1.5)


class TestSynthFull:
    def test_gain_consistent_with_variables(self, sys6, cost6, amb6_small):
        """K = V W^-1 and P = W^-1 at the synthesis SDP's solution, which is
        solved again here to read W and V."""
        res = synth_full(sys6, amb6_small, cost6)
        b = drsynth._thm6_builder(sys6, amb6_small, cost6)
        b.minimize(-b.var("W").trace())
        y = sdpcore.solve(b.build()).y
        W, V = b.extract("W", y), b.extract("V", y)
        assert np.linalg.norm(res.controller.K @ W - V) <= 1e-10 * (1 + np.linalg.norm(V))
        assert np.allclose(as_matrix(res.controller.P) @ W, np.eye(2), atol=1e-8)
        assert res.cost_bound == res.controller.cost_bound
        assert np.isclose(res.cost_bound, np.trace(np.linalg.inv(W)), rtol=1e-12)
        assert res.controller.method == "dr_full"
        assert res.controller.cost_kind == "upper_bound"

    def test_zero_mean_radius_matches_covariance_method(self, sys6, cost6):
        amb = _amb(np.zeros(2), np.eye(2), 0.0, 1.5)
        res = synth_full(sys6, amb, cost6)
        cov = dr_covariance(sys6, np.zeros(2), amb, cost6)
        P_full, P_cov = as_matrix(res.controller.P), as_matrix(cov.P)
        assert np.linalg.norm(P_full - P_cov) <= 1e-2 * np.linalg.norm(P_cov)
        assert np.linalg.norm(res.controller.K - cov.K) <= 1e-2 * (1 + np.linalg.norm(cov.K))

    def test_oversized_set_infeasible(self, scalar_sys, scalar_cost):
        amb = _amb(np.zeros(1), 0.5 * np.eye(1), 0.0, 2.2)
        with pytest.raises(DrSynthesisError, match="dual witness"):
            synth_full(scalar_sys, amb, scalar_cost)

    def test_reported_margin_is_that_of_the_returned_point(self, monkeypatch, sys6, cost6, amb6):
        """_synthesize certifies the gain by min_block_eigenvalue, so the
        field must be the margin of the returned point itself."""
        solved = []
        real = drsynth.solve

        def spy(prob):
            solved.append((prob, real(prob)))
            return solved[-1][1]

        monkeypatch.setattr(drsynth, "solve", spy)
        synth_full(sys6, amb6, cost6)
        (prob, sol), = solved
        assert sol.status == "optimal"
        assert sol.min_block_eigenvalue == prob.min_eigenvalue(sol.y)

    def test_passes_own_certificate_densely(self, sys6, cost6, amb6_small):
        res = synth_full(sys6, amb6_small, cost6)
        cl = ClosedLoop(sys=sys6, K=res.controller.K)
        assert dr_certify_mss(cl, amb6_small, mean_grid=24)

    def test_bound_valid_on_sampled_moments(self, sys6, cost6, amb6_small):
        """tr(P_cl) stays within the certified bound for in-set moments.

        Moments are drawn from the set MomentAmbiguity documents: whitened
        mean offsets of norm up to sqrt(rho_mu), the first 8 on the boundary,
        and covariances between 0.3 and 1.0 of the inflated envelope, the
        first 8 at the full envelope.
        """
        res = synth_full(sys6, amb6_small, cost6)
        cl = ClosedLoop(sys=sys6, K=res.controller.K)
        half = as_matrix(psd_sqrt(as_matrix(amb6_small.sigma_hat)))
        rng = np.random.default_rng(0)
        for k in range(25):
            d = rng.standard_normal(2)
            u = 1.0 if k < 8 else rng.uniform(0.0, 1.0)
            d *= u / np.linalg.norm(d)
            mu = amb6_small.mu_hat + np.sqrt(amb6_small.rho_mu) * half @ d
            scale = 1.0 if k < 8 else rng.uniform(0.3, 1.0)
            sigma = scale * amb6_small.rho_sigma * as_matrix(amb6_small.sigma_hat)
            m = DisturbanceMoments(mu=mu, sigma=SymMatrix(sigma))
            P_cl = as_matrix(closed_loop_value_matrix(cl, m, cost6))
            assert np.trace(P_cl) <= (1.0 + 1e-6) * res.cost_bound

    def test_bound_monotone_in_radii(self, sys6, cost6):
        bounds = []
        for rho_mu, rho_sigma in [(0.0, 1.0), (0.02, 1.3), (0.05, 1.6)]:
            res = synth_full(sys6, _amb(np.zeros(2), np.eye(2), rho_mu, rho_sigma), cost6)
            bounds.append(res.cost_bound)
        assert bounds[0] <= bounds[1] * 1.001
        assert bounds[1] <= bounds[2] * 1.001

    def test_dimension_mismatch(self, sys6, cost6):
        amb = _amb(np.zeros(1), np.eye(1), 0.0, 1.5)
        with pytest.raises(Exception):
            synth_full(sys6, amb, cost6)


class TestSynthRhc:
    def test_zero_initial_state(self, sys6, cost6, amb6_small):
        res = synth_rhc(sys6, amb6_small, cost6, np.zeros(2))
        assert res.cost_bound <= 1e-6

    def test_gamma_no_worse_than_full(self, sys6, cost6, amb6_small):
        x0 = np.array([2.0, 2.0])
        rhc = synth_rhc(sys6, amb6_small, cost6, x0)
        full = synth_full(sys6, amb6_small, cost6)
        full_bound = float(x0 @ as_matrix(full.controller.P) @ x0)
        assert rhc.cost_bound <= full_bound * (1.0 + 1e-3)
        assert rhc.controller.method == "dr_rhc"

    def test_noiseless_matches_lqr(self):
        """With no multiplicative noise and a point set, gamma is x0'P x0."""
        sys = MultNoiseSystem(A0=np.array([[0.9, 0.1], [0.0, 0.8]]),
                              A=(np.zeros((2, 2)),),
                              B0=np.array([[0.0], [1.0]]),
                              B=(np.zeros((2, 1)),))
        cost = CostWeights(Q=np.eye(2), R=np.array([[1.0]]))
        amb = _amb(np.zeros(1), np.eye(1), 0.0, 1.0)
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1)))
        x0 = np.array([1.0, -1.0])
        rhc = synth_rhc(sys, amb, cost, x0)
        ref = value_iteration(sys, m, cost)
        exact = float(x0 @ as_matrix(ref.P) @ x0)
        assert abs(rhc.cost_bound - exact) <= 1e-3 * exact

    def test_oversized_set_infeasible(self, scalar_sys, scalar_cost):
        """The set of TestSynthFull.test_oversized_set_infeasible admits no
        gain for any objective, so the gamma program is infeasible too."""
        amb = _amb(np.zeros(1), 0.5 * np.eye(1), 0.0, 2.2)
        with pytest.raises(DrSynthesisError):
            synth_rhc(scalar_sys, amb, scalar_cost, np.array([1.0]))

    def test_bad_x0_length(self, sys6, cost6, amb6_small):
        with pytest.raises(Exception):
            synth_rhc(sys6, amb6_small, cost6, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_x0_is_domain_error(self, sys6, cost6, amb6_small, bad):
        with pytest.raises(DomainError, match="x0"):
            synth_rhc(sys6, amb6_small, cost6, np.array([1.0, bad]))


def _synth(method, sys, amb, cost, x0):
    return synth_full(sys, amb, cost) if method == "full" else synth_rhc(sys, amb, cost, x0)


class TestCertificate:
    @pytest.mark.parametrize("min_eig", [0.0, -1e-3])
    @pytest.mark.parametrize("method", ["full", "rhc"])
    def test_not_strictly_feasible_is_numerical_failure(self, monkeypatch, sys6, cost6,
                                                        amb6_small, method, min_eig):
        """An "optimal" point whose LMI blocks are not strictly positive
        certifies no gain, however good the gain happens to be."""
        real = drsynth.solve
        monkeypatch.setattr(drsynth, "solve", lambda prob: dataclasses.replace(
            real(prob), min_block_eigenvalue=min_eig))
        with pytest.raises(NumericalFailure, match="strictly feasible"):
            _synth(method, sys6, amb6_small, cost6, np.array([2.0, 2.0]))

    def test_failure_reason_in_message(self, monkeypatch, sys6, cost6, amb6_small):
        def broken(*args):
            raise np.linalg.LinAlgError("Schur complement not finite")

        monkeypatch.setattr(sdpcore, "_step", broken)
        with pytest.raises(NumericalFailure, match="numerical_failure: iteration 0: Schur "
                                                   "complement not finite"):
            synth_full(sys6, amb6_small, cost6)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 3), n_u=st.integers(1, 3), n_w=st.integers(1, 2),
           noise=st.floats(0.0, 0.3), rho_mu=st.floats(0.0, 0.3),
           rho_sigma=st.floats(1.0, 2.0), method=st.sampled_from(["full", "rhc"]),
           seed=st.integers(0, 2**32 - 1))
    def test_returned_gain_passes_oracles(self, n_x, n_u, n_w, noise, rho_mu, rho_sigma,
                                          method, seed):
        """Every returned gain passes the dense mean grid, and at random
        in-set moments (a mean inside the ellipsoid, a covariance
        rho_sigma Sigma_hat - D with PSD D keeping it PSD; the first on the
        boundary at D = 0) it is MSS and its cost stays within the bound."""
        rng = np.random.default_rng(seed)
        n_u = min(n_u, n_x)
        Acl = rng.standard_normal((n_x, n_x))
        Acl *= 0.9 / max(1.0, np.max(np.abs(np.linalg.eigvals(Acl))))
        B0 = rng.standard_normal((n_x, n_u))
        sys = MultNoiseSystem(
            A0=Acl - B0 @ rng.standard_normal((n_u, n_x)),
            A=tuple(noise * rng.standard_normal((n_x, n_x)) for _ in range(n_w)),
            B0=B0, B=tuple(noise * rng.standard_normal((n_x, n_u)) for _ in range(n_w)))
        G = rng.standard_normal((n_w, n_w))
        amb = _amb(0.1 * rng.standard_normal(n_w), G @ G.T + 0.2 * np.eye(n_w),
                   rho_mu, rho_sigma)
        L = rng.standard_normal((n_x, n_x))
        cost = CostWeights(Q=L @ L.T + 0.1 * np.eye(n_x), R=np.eye(n_u))
        x0 = rng.standard_normal(n_x)
        try:
            res = _synth(method, sys, amb, cost, x0)
        except (DrSynthesisError, NumericalFailure):
            return  # no gain returned, so none to check
        cl = ClosedLoop(sys=sys, K=res.controller.K)
        assert dr_certify_mss(cl, amb, mean_grid=24)

        half = as_matrix(psd_sqrt(as_matrix(amb.sigma_hat)))
        envelope = amb.rho_sigma * as_matrix(amb.sigma_hat)
        env_half = as_matrix(psd_sqrt(envelope))
        for k in range(8):
            d = rng.standard_normal(n_w)
            u, shrink = (1.0, 0.0) if k == 0 else (rng.uniform(), rng.uniform(0.0, 1.0, n_w))
            mu = amb.mu_hat + np.sqrt(rho_mu) * u * half @ (d / np.linalg.norm(d))
            U, _ = np.linalg.qr(rng.standard_normal((n_w, n_w)))
            D = env_half @ (U * shrink) @ U.T @ env_half
            m = DisturbanceMoments(mu=mu, sigma=SymMatrix(envelope - D))
            assert is_mss(cl, m)[0]
            P_cl = as_matrix(closed_loop_value_matrix(cl, m, cost))
            J = np.trace(P_cl) if method == "full" else x0 @ P_cl @ x0
            assert J <= (1.0 + 1e-6) * res.cost_bound
