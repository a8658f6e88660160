import numpy as np
import pytest

from drlqr.matcore import DomainError, SymMatrix, as_matrix, unvec, vec
from drlqr.sdpcore import LmiBuilder, block_expr, kron_const, solve
from drlqr.stability import (ClosedLoop, InstabilityError, closed_loop_cost,
                             closed_loop_value_matrix, is_mss, second_moment_operator)
from drlqr.ambiguity import AmbiguityConfig, MomentAmbiguity
from drlqr.riccati import value_iteration
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem
from oracles import dr_certify_mss, lyapunov_P


def _scalar_loop(K):
    sys = MultNoiseSystem(A0=np.array([[0.75]]), A=(np.array([[1.0]]),),
                          B0=np.array([[1.0]]), B=(np.array([[0.0]]),))
    return ClosedLoop(sys=sys, K=np.array([[K]]))


def _scalar_moments(s2=0.5):
    return DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(s2 * np.eye(1)))


class TestSecondMomentOperator:
    def test_zero_loop(self):
        sys = MultNoiseSystem(A0=np.zeros((2, 2)), A=(np.zeros((2, 2)),),
                              B0=np.zeros((2, 1)), B=(np.zeros((2, 1)),))
        T = second_moment_operator(ClosedLoop(sys=sys, K=np.zeros((1, 2))),
                                   DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1))))
        assert not T.any()

    def test_scalar_formula(self):
        K = -0.3
        T = second_moment_operator(_scalar_loop(K), _scalar_moments())
        assert np.allclose(T, (0.75 + K) ** 2 + 0.5)

    def test_deterministic_kron(self):
        rng = np.random.default_rng(0)
        A0 = 0.5 * rng.standard_normal((2, 2))
        sys = MultNoiseSystem(A0=A0, A=(np.zeros((2, 2)),),
                              B0=np.zeros((2, 1)), B=(np.zeros((2, 1)),))
        T = second_moment_operator(ClosedLoop(sys=sys, K=np.zeros((1, 2))),
                                   DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1))))
        assert np.allclose(T, np.kron(A0.T, A0.T))

    def test_apply_consistency(self, sys6, moments6):
        rng = np.random.default_rng(1)
        cl = ClosedLoop(sys=sys6, K=np.array([[-2.0, -1.5]]))
        P = rng.standard_normal((2, 2))
        P = (P + P.T) / 2
        Abar, Bbar = sys6.stacked()
        Acl = Abar + Bbar @ cl.K
        S = as_matrix(moments6.extended_moment)
        direct = Acl.T @ np.kron(S, P) @ Acl
        applied = unvec(second_moment_operator(cl, moments6) @ vec(P), 2)
        assert np.allclose(applied, direct, atol=1e-10)

    @pytest.mark.parametrize("n_x", [1, 2, 4, 8])
    def test_against_kron_double_sum(self, n_x):
        """T = sum_ij S_ij kron(A_j^T, A_i^T) over the closed-loop channels."""
        rng = np.random.default_rng(n_x)
        n_u, n_w = 2, 3
        sys = MultNoiseSystem(
            A0=rng.standard_normal((n_x, n_x)),
            A=tuple(rng.standard_normal((n_x, n_x)) for _ in range(n_w)),
            B0=rng.standard_normal((n_x, n_u)),
            B=tuple(rng.standard_normal((n_x, n_u)) for _ in range(n_w)))
        cl = ClosedLoop(sys=sys, K=rng.standard_normal((n_u, n_x)))
        L = rng.standard_normal((n_w, n_w))
        m = DisturbanceMoments(mu=rng.standard_normal(n_w), sigma=SymMatrix(L @ L.T))
        S = as_matrix(m.extended_moment)
        mats = cl.noise_channel_matrices()
        ref = sum(S[i, j] * np.kron(Aj.T, Ai.T)
                  for i, Ai in enumerate(mats) for j, Aj in enumerate(mats))
        T = second_moment_operator(cl, m)
        assert np.linalg.norm(T - ref) <= 1e-14 * np.linalg.norm(ref)


class TestIsMss:
    def test_scalar_interval_endpoints(self):
        """Bisection on is_mss recovers -0.75 +- sqrt(0.5)."""
        m = _scalar_moments()

        def stable(K):
            return is_mss(_scalar_loop(K), m)[0]

        lo, hi = -0.75, 0.5
        for _ in range(60):
            mid = (lo + hi) / 2
            if stable(mid):
                lo = mid
            else:
                hi = mid
        upper = lo
        lo, hi = -2.5, -0.75
        for _ in range(60):
            mid = (lo + hi) / 2
            if stable(mid):
                hi = mid
            else:
                lo = mid
        lower = hi
        assert abs(upper - (-0.75 + np.sqrt(0.5))) < 1e-3
        assert abs(lower - (-0.75 - np.sqrt(0.5))) < 1e-3

    def test_scalar_zero_gain_radius(self):
        stable, radius = is_mss(_scalar_loop(0.0), _scalar_moments())
        assert not stable
        assert np.isclose(radius, 1.0625)

    def test_zero_system(self):
        sys = MultNoiseSystem(A0=np.zeros((2, 2)), A=(np.zeros((2, 2)),),
                              B0=np.zeros((2, 1)), B=(np.zeros((2, 1)),))
        stable, radius = is_mss(ClosedLoop(sys=sys, K=np.zeros((1, 2))),
                                DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1))))
        assert stable and radius == 0.0


def _random_loop(rng):
    n_x, n_w = 2, int(rng.integers(1, 3))
    sys = MultNoiseSystem(
        A0=rng.standard_normal((n_x, n_x)) * 0.6,
        A=tuple(rng.standard_normal((n_x, n_x)) * 0.3 for _ in range(n_w)),
        B0=rng.standard_normal((n_x, 1)) * 0.5,
        B=tuple(rng.standard_normal((n_x, 1)) * 0.2 for _ in range(n_w)))
    A = rng.standard_normal((n_w, n_w)) * 0.5
    m = DisturbanceMoments(mu=rng.standard_normal(n_w) * 0.2, sigma=SymMatrix(A @ A.T))
    K = rng.standard_normal((1, n_x)) * 0.3
    return ClosedLoop(sys=sys, K=K), m


def _lyapunov_lmi_feasible(cl, m) -> bool:
    """Eq. 3 route: exists P >= I with P - L(P) >= delta*I, via sdpcore."""
    n = cl.sys.n_x
    b = LmiBuilder()
    P = b.sym_var("P", n)
    Abar, Bbar = cl.sys.stacked()
    Acl = Abar + Bbar @ cl.K
    LP = Acl.T @ kron_const(as_matrix(m.extended_moment), P) @ Acl
    b.add_psd(block_expr([[P - np.eye(n)]]))
    b.add_psd(block_expr([[P - LP - 1e-6 * np.eye(n)]]))
    sol = solve(b.build())
    return sol.status == "optimal"


class TestLmiCrossCheck:
    def test_spectral_radius_agrees_with_lmi(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            cl, m = _random_loop(rng)
            stable, radius = is_mss(cl, m)
            if abs(radius - 1.0) < 0.05:
                continue  # skip marginal cases where both tests churn
            assert _lyapunov_lmi_feasible(cl, m) == stable, f"disagreement at radius {radius}"
            checked += 1


class TestLyapunovP:
    def test_zero_system_identity(self):
        sys = MultNoiseSystem(A0=np.zeros((2, 2)), A=(np.zeros((2, 2)),),
                              B0=np.zeros((2, 1)), B=(np.zeros((2, 1)),))
        P = lyapunov_P(ClosedLoop(sys=sys, K=np.zeros((1, 2))),
                       DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1))))
        assert np.allclose(as_matrix(P), np.eye(2))

    def test_scalar_geometric_series(self):
        P = lyapunov_P(_scalar_loop(-0.5), _scalar_moments())
        assert np.isclose(as_matrix(P)[0, 0], 1.0 / 0.4375)

    def test_residual(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 10:
            cl, m = _random_loop(rng)
            stable, _ = is_mss(cl, m)
            if not stable:
                continue
            P = as_matrix(lyapunov_P(cl, m))
            n = cl.sys.n_x
            residual = P - unvec(second_moment_operator(cl, m) @ vec(P), n) - np.eye(n)
            assert np.linalg.norm(residual) <= 1e-8
            found += 1

    def test_unstable_raises(self):
        with pytest.raises(InstabilityError):
            lyapunov_P(_scalar_loop(0.0), _scalar_moments())


class TestClosedLoopCost:
    def test_one_step_decay(self):
        sys = MultNoiseSystem(A0=np.zeros((2, 2)), A=(np.zeros((2, 2)),),
                              B0=np.zeros((2, 1)), B=(np.zeros((2, 1)),))
        cost = CostWeights(Q=np.diag([2.0, 3.0]), R=np.eye(1))
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1)))
        x0 = np.array([1.0, 2.0])
        J = closed_loop_cost(ClosedLoop(sys=sys, K=np.zeros((1, 2))), m, cost, x0)
        assert np.isclose(J, x0 @ np.diag([2.0, 3.0]) @ x0)

    def test_scalar_riccati_consistency(self, scalar_sys, scalar_cost, scalar_moments):
        ctrl = value_iteration(scalar_sys, scalar_moments, scalar_cost)
        cl = ClosedLoop(sys=scalar_sys, K=ctrl.K)
        x0 = np.array([1.7])
        J = closed_loop_cost(cl, scalar_moments, scalar_cost, x0)
        assert np.isclose(J, as_matrix(ctrl.P)[0, 0] * x0[0] ** 2, rtol=1e-8)

    def test_unstable_is_error(self):
        cost = CostWeights(Q=np.eye(1), R=np.eye(1))
        with pytest.raises(InstabilityError):
            closed_loop_cost(_scalar_loop(0.0), _scalar_moments(), cost, np.array([1.0]))

    def test_non_finite_x0_is_domain_error(self):
        cost = CostWeights(Q=np.eye(1), R=np.eye(1))
        with pytest.raises(DomainError):
            closed_loop_cost(_scalar_loop(-0.75), _scalar_moments(), cost, np.array([np.nan]))

    def test_matches_monte_carlo_rollout(self):
        """Sample-average rollout cost agrees with the Lyapunov route."""
        K = -0.6
        cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[2.0]]))
        m = _scalar_moments()
        cl = _scalar_loop(K)
        x0 = np.array([1.5])
        J = closed_loop_cost(cl, m, cost, x0)

        rng = np.random.default_rng(19)
        trajectories, steps = 20000, 300
        x = np.full(trajectories, x0[0])
        total = np.zeros(trajectories)
        q_eff = 1.0 + 2.0 * K * K  # x'Qx + (Kx)'R(Kx)
        for _ in range(steps):
            total += q_eff * x * x
            w = np.sqrt(0.5) * rng.standard_normal(trajectories)
            x = (0.75 + K + w) * x
        se = total.std(ddof=1) / np.sqrt(trajectories)
        assert abs(total.mean() - J) <= 3.0 * se + 1e-6 * J


class TestDrCertify:
    def test_degenerate_reduces_to_is_mss(self, sys6, moments6):
        amb = MomentAmbiguity(mu_hat=np.zeros(2), sigma_hat=SymMatrix(np.eye(2)),
                              rho_mu=0.0, rho_sigma=1.0,
                              config=AmbiguityConfig(beta=0.05), M=1000)
        K_good = np.array([[-18.0, -8.0]])
        K_bad = np.zeros((1, 2))
        assert dr_certify_mss(ClosedLoop(sys=sys6, K=K_good), amb) == \
            is_mss(ClosedLoop(sys=sys6, K=K_good), moments6)[0]
        assert dr_certify_mss(ClosedLoop(sys=sys6, K=K_bad), amb) == \
            is_mss(ClosedLoop(sys=sys6, K=K_bad), moments6)[0]

    def test_inflated_variance_refutes_all_gains(self, scalar_sys):
        # rho_sigma * sigma_hat^2 >= 1 makes (0.75+K)^2 + rho*s2 < 1 unsatisfiable
        amb = MomentAmbiguity(mu_hat=np.zeros(1), sigma_hat=SymMatrix(0.5 * np.eye(1)),
                              rho_mu=0.0, rho_sigma=2.2,
                              config=AmbiguityConfig(beta=0.05), M=1000)
        for K in np.linspace(-2.5, 1.0, 29):
            cl = ClosedLoop(sys=scalar_sys, K=np.array([[K]]))
            assert not dr_certify_mss(cl, amb)

    def test_grid_validation(self, sys6, amb6):
        with pytest.raises(ValueError):
            dr_certify_mss(ClosedLoop(sys=sys6, K=np.zeros((1, 2))), amb6, mean_grid=0)
