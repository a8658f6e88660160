import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from drlqr.ambiguity import AmbiguityConfig, MomentAmbiguity, build_ambiguity
from drlqr.experiment import LAMBDA_REG, _cell_stream, sample_gaussian
from drlqr import riccati
from drlqr.matcore import DomainError, NumericalFailure, SymMatrix, as_matrix
from drlqr.riccati import (NotStabilizableError, dr_covariance, load_gain,
                           save_controller, value_iteration)
from drlqr.stability import ClosedLoop, closed_loop_value_matrix, is_mss
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem

from conftest import TS, scalar_p_star
from oracles import nominal_sdp, riccati_residual


class TestValueIteration:
    def test_scalar_closed_form(self, scalar_sys, scalar_cost, scalar_moments):
        """p solves (s2 - 1) p^2 + (q + (s2 - 0.4375) r) p + q r = 0."""
        ctrl = value_iteration(scalar_sys, scalar_moments, scalar_cost)
        p_star = scalar_p_star()
        assert np.isclose(p_star, 1267.775661738586)
        p = as_matrix(ctrl.P)[0, 0]
        assert abs(p - p_star) <= 1e-6 * p_star
        k_star = -0.75 * p_star / (1.0e4 + p_star)
        assert abs(ctrl.K[0, 0] - k_star) <= 1e-6
        assert np.isclose(k_star, -0.084385, atol=1e-6)

    def test_noiseless_zero_A0(self):
        sys = MultNoiseSystem(A0=np.zeros((2, 2)), A=(np.zeros((2, 2)),),
                              B0=np.eye(2)[:, :1], B=(np.zeros((2, 1)),))
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1)))
        cost = CostWeights(Q=np.diag([2.0, 3.0]), R=np.eye(1))
        ctrl = value_iteration(sys, m, cost)
        assert np.allclose(as_matrix(ctrl.P), np.diag([2.0, 3.0]), atol=1e-8)
        assert np.allclose(ctrl.K, 0.0, atol=1e-8)

    def test_excess_noise_not_stabilizable(self, scalar_sys, scalar_cost):
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(1.05 * np.eye(1)))
        with pytest.raises(NotStabilizableError):
            value_iteration(scalar_sys, m, scalar_cost)

    def test_residual_small(self, sys6, moments6, cost6):
        ctrl = value_iteration(sys6, moments6, cost6)
        res = riccati_residual(sys6, moments6, cost6, ctrl.P)
        assert res <= 10.0 * 1e-10 * (1.0 + np.linalg.norm(as_matrix(ctrl.P)))

    def test_returned_loop_is_mss(self, sys6, moments6, cost6):
        ctrl = value_iteration(sys6, moments6, cost6)
        stable, radius = is_mss(ClosedLoop(sys=sys6, K=ctrl.K), moments6)
        assert stable and radius < 1.0

    def test_one_gain_per_pass(self, monkeypatch, sys6, moments6, cost6):
        """fgh runs once per iteration, plus once for the returned gain."""
        real, calls = riccati.fgh, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(riccati, "fgh", counting)
        ctrl = value_iteration(sys6, moments6, cost6)
        assert len(calls) == ctrl.iterations + 1

    def test_spent_budget_is_numerical_failure(self, monkeypatch, sys6, moments6, cost6):
        """Running out of iterations says nothing about stabilizability."""
        monkeypatch.setattr(riccati, "MAX_ITER", 3)
        with pytest.raises(NumericalFailure):
            value_iteration(sys6, moments6, cost6)


def _chain8(damping: float = 0.15, noise: float = 0.3) -> MultNoiseSystem:
    """Euler-discretized chain wall-m1-m2-m3-m4 of unit masses and springs,
    actuators on the end masses; noise on the damping and on the actuator gain."""
    nm = 4
    lap = 2.0 * np.eye(nm) - np.eye(nm, k=1) - np.eye(nm, k=-1)
    lap[-1, -1] = 1.0
    n = 2 * nm
    Ac = np.block([[np.zeros((nm, nm)), np.eye(nm)], [-lap, -damping * lap]])
    Bc = np.zeros((n, 2))
    Bc[nm, 0] = Bc[n - 1, 1] = 1.0
    A1 = np.zeros((n, n))
    A1[nm:, nm:] = -TS * noise * damping * lap
    B0 = TS * Bc
    return MultNoiseSystem(A0=np.eye(n) + TS * Ac, A=(A1, np.zeros((n, n))), B0=B0,
                           B=(np.zeros((n, 2)), noise * B0))


def _assert_exact_solution(sys, m, cost, ctrl, rtol=1e-12):
    """The returned gain is MSS, P is its closed-loop value matrix and solves the Riccati equation."""
    cl = ClosedLoop(sys=sys, K=ctrl.K)
    assert is_mss(cl, m)[0]
    P = as_matrix(ctrl.P)
    P_cl = as_matrix(closed_loop_value_matrix(cl, m, cost))
    assert np.linalg.norm(P - P_cl) <= rtol * np.linalg.norm(P_cl)
    assert riccati_residual(sys, m, cost, P) <= rtol * (1.0 + np.linalg.norm(P))


class TestNewtonFinish:
    def test_sys6_exact(self, sys6, moments6, cost6):
        ctrl = value_iteration(sys6, moments6, cost6)
        _assert_exact_solution(sys6, moments6, cost6, ctrl)
        assert ctrl.iterations <= 30

    def test_lightly_damped_chain_exact(self, moments6):
        sys = _chain8()
        assert 0.999 < is_mss(ClosedLoop(sys=sys, K=np.zeros((2, 8))), moments6)[1] < 1.0
        cost = CostWeights(Q=np.eye(8), R=np.eye(2))
        _assert_exact_solution(sys, moments6, cost, value_iteration(sys, moments6, cost))

    def test_paper_system_m500_stabilizable(self, sys6, moments6, cost6):
        """At M = 500 the covariance-only design sits near the edge of
        stabilizability (optimal radius about 0.99996); value iteration alone
        spent its sweep budget here and called the cell not stabilizable."""
        samples = sample_gaussian(moments6, 500, _cell_stream(0, 500, 3))
        amb = build_ambiguity(samples, AmbiguityConfig(beta=0.05), lambda_reg=LAMBDA_REG)
        ctrl = dr_covariance(sys6, amb.mu_hat, amb, cost6)
        inflated = DisturbanceMoments(mu=amb.mu_hat,
                                      sigma=SymMatrix(amb.rho_sigma * as_matrix(amb.sigma_hat)))
        assert is_mss(ClosedLoop(sys=sys6, K=ctrl.K), inflated)[0]

    def test_non_finite_gain_is_numerical_failure(self, monkeypatch, scalar_sys, scalar_cost,
                                                  scalar_moments):
        """LAPACK's Cholesky factorization passes a NaN in R + G(P) through with info 0."""
        real = riccati.fgh

        def nan_G(sys, m, P):
            F, G, H = real(sys, m, P)
            return F, np.full_like(G, np.nan), H

        monkeypatch.setattr(riccati, "fgh", nan_G)
        with pytest.raises(NumericalFailure, match="not finite"):
            value_iteration(scalar_sys, scalar_moments, scalar_cost)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda T: np.full_like(T, np.nan), "certificate"),
        (lambda T: 0.5 * (np.eye(len(T)) + T), "monotonicity"),  # doubles the value matrix
    ], ids=["non_finite", "not_monotone"])
    def test_guards(self, monkeypatch, scalar_sys, scalar_cost, corrupt, message):
        """The open loop is MSS at variance 0.25, so the probe before the first
        sweep certifies K = 0; the operator is corrupted from the next step on."""
        real, calls = riccati.second_moment_operator, []

        def faulty(cl, m):
            calls.append(cl)
            T = real(cl, m)
            return T if len(calls) == 1 else corrupt(T)

        monkeypatch.setattr(riccati, "second_moment_operator", faulty)
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(0.25 * np.eye(1)))
        with pytest.raises(NumericalFailure, match=message):
            value_iteration(scalar_sys, m, scalar_cost)

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(n_x=st.integers(1, 4), n_u=st.integers(1, 4), n_w=st.integers(1, 2),
           noise=st.floats(0.0, 0.4), seed=st.integers(0, 2**32 - 1))
    def test_random_stabilizable_plants(self, n_x, n_u, n_w, noise, seed):
        """Plants A0 = Acl - B0 K0 with a stable Acl are stabilized by K0 when
        the noise is small; K0 is checked, and the solve must be exact."""
        rng = np.random.default_rng(seed)
        n_u = min(n_u, n_x)
        Acl = rng.standard_normal((n_x, n_x))
        Acl *= 0.9 / max(1.0, np.max(np.abs(np.linalg.eigvals(Acl))))
        B0 = rng.standard_normal((n_x, n_u))
        K0 = rng.standard_normal((n_u, n_x))
        sys = MultNoiseSystem(
            A0=Acl - B0 @ K0,
            A=tuple(noise * rng.standard_normal((n_x, n_x)) for _ in range(n_w)),
            B0=B0, B=tuple(noise * rng.standard_normal((n_x, n_u)) for _ in range(n_w)))
        m = DisturbanceMoments(mu=0.1 * rng.standard_normal(n_w), sigma=SymMatrix(np.eye(n_w)))
        assume(is_mss(ClosedLoop(sys=sys, K=K0), m)[0])
        L = rng.standard_normal((n_x, n_x))
        cost = CostWeights(Q=L @ L.T + 0.1 * np.eye(n_x), R=np.eye(n_u))
        _assert_exact_solution(sys, m, cost, value_iteration(sys, m, cost))


class TestNominalSdp:
    def test_scalar_matches_closed_form(self, scalar_sys, scalar_cost, scalar_moments):
        ctrl = nominal_sdp(scalar_sys, scalar_moments, scalar_cost)
        p_star = scalar_p_star()
        assert abs(as_matrix(ctrl.P)[0, 0] - p_star) <= 1e-4 * p_star

    def test_matches_value_iteration(self, sys6, moments6, cost6):
        vi = value_iteration(sys6, moments6, cost6)
        sdp = nominal_sdp(sys6, moments6, cost6)
        P_vi, P_sdp = as_matrix(vi.P), as_matrix(sdp.P)
        assert np.linalg.norm(P_sdp - P_vi) <= 1e-4 * np.linalg.norm(P_vi)
        assert np.linalg.norm(sdp.K - vi.K) <= 1e-3 * (1.0 + np.linalg.norm(vi.K))

    def test_trivial_identity_solution(self):
        # A(w) = 0, B(w) = 0 columns irrelevant: P = Q = I exactly
        sys = MultNoiseSystem(A0=np.zeros((2, 2)), A=(np.zeros((2, 2)),),
                              B0=np.zeros((2, 1)), B=(np.zeros((2, 1)),))
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1)))
        cost = CostWeights(Q=np.eye(2), R=np.eye(1))
        ctrl = nominal_sdp(sys, m, cost)
        assert np.allclose(as_matrix(ctrl.P), np.eye(2), atol=1e-4)


class TestDrCovariance:
    def _amb(self, sigma_hat, rho_sigma):
        return MomentAmbiguity(mu_hat=np.zeros(sigma_hat.shape[0]),
                               sigma_hat=SymMatrix(sigma_hat),
                               rho_mu=0.0, rho_sigma=rho_sigma)

    def test_unit_radius_reduces_to_nominal(self, scalar_sys, scalar_cost, scalar_moments):
        amb = self._amb(0.5 * np.eye(1), 1.0)
        dr = dr_covariance(scalar_sys, np.zeros(1), amb, scalar_cost)
        vi = value_iteration(scalar_sys, scalar_moments, scalar_cost)
        assert np.allclose(as_matrix(dr.P), as_matrix(vi.P), rtol=1e-8)
        assert dr.method == "dr_covariance"

    def test_inflation_equals_nominal_at_inflated_variance(self, scalar_sys, scalar_cost):
        amb = self._amb(0.5 * np.eye(1), 1.5)
        dr = dr_covariance(scalar_sys, np.zeros(1), amb, scalar_cost)
        m75 = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(0.75 * np.eye(1)))
        vi = value_iteration(scalar_sys, m75, scalar_cost)
        assert np.allclose(as_matrix(dr.P), as_matrix(vi.P), rtol=1e-8)

    def test_excess_inflation_not_stabilizable(self, scalar_sys, scalar_cost):
        amb = self._amb(0.5 * np.eye(1), 2.2)
        with pytest.raises(NotStabilizableError):
            dr_covariance(scalar_sys, np.zeros(1), amb, scalar_cost)

    def test_dominates_nominal_value(self, sys6, moments6, cost6):
        amb = self._amb(np.eye(2), 1.8)
        dr = dr_covariance(sys6, np.zeros(2), amb, cost6)
        vi = value_iteration(sys6, moments6, cost6)
        gap = as_matrix(dr.P) - as_matrix(vi.P)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-6 * np.linalg.norm(as_matrix(vi.P))


class TestControllerIo:
    def test_save_load_gain(self, sys6, moments6, cost6, tmp_path):
        ctrl = value_iteration(sys6, moments6, cost6)
        p = tmp_path / "ctrl.json"
        save_controller(ctrl, p)
        K = load_gain(p)
        assert np.allclose(K, ctrl.K)

    def test_json_fields(self, scalar_sys, scalar_cost, scalar_moments):
        ctrl = value_iteration(scalar_sys, scalar_moments, scalar_cost)
        d = ctrl.to_json_dict()
        assert d["method"] == "nominal_vi"
        assert d["cost_kind"] == "exact"
        assert np.isclose(d["trace_P"], as_matrix(ctrl.P).trace())

    def test_controller_validation(self):
        with pytest.raises(ValueError):
            from drlqr.riccati import Controller
            Controller(K=np.zeros((1, 1)), P=SymMatrix(np.zeros((1, 1))), method="nominal_vi")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_gain_is_domain_error(self, bad):
        from drlqr.riccati import Controller
        with pytest.raises(DomainError, match="gain K"):
            Controller(K=np.array([[0.0, bad]]), P=SymMatrix(np.eye(2)), method="nominal_vi")

    def test_cost_kind_follows_cost_bound(self):
        from drlqr.riccati import Controller
        K, P = np.zeros((1, 1)), SymMatrix(np.eye(1))
        assert Controller(K=K, P=P, method="nominal_vi").cost_kind == "exact"
        assert Controller(K=K, P=P, method="dr_full", cost_bound=1.0).cost_kind == "upper_bound"
