import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drlqr.matcore import DomainError, SymMatrix, is_psd, smat, svec
from drlqr.sdpcore import LmiBuilder, kron_const, solve, zeros
from drlqr import stability
from drlqr.stability import (TOL, ClosedLoop, InstabilityError, _spectral_radius,
                             closed_loop_cost, closed_loop_value_matrix, is_mss,
                             lyapunov_value, second_moment_operator)
from drlqr.ambiguity import AmbiguityConfig, MomentAmbiguity, build_ambiguity
from drlqr.experiment import LAMBDA_REG, _cell_stream, sample_gaussian
from drlqr.riccati import value_iteration
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem
from conftest import bench_workloads, memo_runs, one_ulp_up
from oracles import (channel_matrices, dr_certify_mss, lyapunov_P, sliced_svec_operator,
                     spectral_radius, unvec, vec, vec_operator, vec_value)
from test_riccati import _chain8


def _elim_dup(n):
    """Elimination E (svec from vec) and duplication D (vec from svec) as 0/1 matrices."""
    s = n * (n + 1) // 2
    E = np.column_stack([svec(unvec(e, n)) for e in np.eye(n * n)])
    D = np.column_stack([vec(smat(e, n)) for e in np.eye(s)])
    return E, D


def _random_plant(rng, n_x, n_u, n_w, scale=1.0):
    sys = MultNoiseSystem(
        A0=scale * rng.standard_normal((n_x, n_x)),
        A=tuple(scale * rng.standard_normal((n_x, n_x)) for _ in range(n_w)),
        B0=scale * rng.standard_normal((n_x, n_u)),
        B=tuple(scale * rng.standard_normal((n_x, n_u)) for _ in range(n_w)))
    cl = ClosedLoop(sys=sys, K=scale * rng.standard_normal((n_u, n_x)))
    L = rng.standard_normal((n_w, n_w))
    m = DisturbanceMoments(mu=scale * rng.standard_normal(n_w), sigma=SymMatrix(scale * L @ L.T))
    return cl, m


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
        E, D = _elim_dup(2)
        assert np.allclose(T, E @ np.kron(A0.T, A0.T) @ D)

    def test_apply_consistency(self, sys6, moments6):
        rng = np.random.default_rng(1)
        cl = ClosedLoop(sys=sys6, K=np.array([[-2.0, -1.5]]))
        P = rng.standard_normal((2, 2))
        P = (P + P.T) / 2
        Abar, Bbar = sys6.stacked
        Acl = Abar + Bbar @ cl.K
        S = np.asarray(moments6.extended_moment)
        direct = Acl.T @ np.kron(S, P) @ Acl
        applied = smat(second_moment_operator(cl, moments6) @ svec(P), 2)
        assert np.allclose(applied, direct, atol=1e-10)

    @pytest.mark.parametrize("n_x", [1, 2, 4, 8])
    def test_against_kron_double_sum(self, n_x):
        """T = sum_ij S_ij kron(A_j^T, A_i^T) over the closed-loop channels on
        vec coordinates, and E T D on svec coordinates."""
        cl, m = _random_plant(np.random.default_rng(n_x), n_x, n_u=2, n_w=3)
        S = np.asarray(m.extended_moment)
        mats = channel_matrices(cl)
        ref = sum(S[i, j] * np.kron(Aj.T, Ai.T)
                  for i, Ai in enumerate(mats) for j, Aj in enumerate(mats))
        T_vec = vec_operator(cl, m)
        assert np.linalg.norm(T_vec - ref) <= 1e-14 * np.linalg.norm(ref)
        E, D = _elim_dup(n_x)
        T_ref = E @ T_vec @ D
        T = second_moment_operator(cl, m)
        assert np.linalg.norm(T - T_ref) <= 1e-14 * np.linalg.norm(T_ref)

    @pytest.mark.parametrize("case", ["sys6", "paper", "chain8"])
    def test_gathered_operator_is_the_sliced_one_byte_for_byte(self, case, sys6, moments6, cost6):
        for cl, m in _radius_cases(case, sys6, moments6, cost6):
            T, ref = second_moment_operator(cl, m), sliced_svec_operator(cl, m)
            assert T.shape == ref.shape and T.tobytes() == ref.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 8), n_u=st.integers(1, 3), n_w=st.integers(1, 3),
           scale=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_gathered_operator_on_random_loops(self, n_x, n_u, n_w, scale, seed):
        cl, m = _random_plant(np.random.default_rng(seed), n_x, n_u, n_w, scale)
        T, ref = second_moment_operator(cl, m), sliced_svec_operator(cl, m)
        assert T.shape == ref.shape and T.tobytes() == ref.tobytes()

    def test_chain_operator_shape(self):
        """An n_x = 8 loop's operator acts on the 36 svec coordinates, not the 64 of vec."""
        cl, m = _random_plant(np.random.default_rng(3), 8, n_u=2, n_w=2)
        assert second_moment_operator(cl, m).shape == (36, 36)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 5), n_u=st.integers(1, 3), n_w=st.integers(1, 3),
           scale=st.floats(0.05, 0.6), seed=st.integers(0, 2**32 - 1))
    def test_matches_vec_operator(self, n_x, n_u, n_w, scale, seed):
        """The radius on svec coordinates is the radius on vec coordinates, and
        the value matrix solved on svec coordinates is the full-vec solution."""
        cl, m = _random_plant(np.random.default_rng(seed), n_x, n_u, n_w, scale)
        T_vec = vec_operator(cl, m)
        radius = _spectral_radius(second_moment_operator(cl, m))
        radius_vec = spectral_radius(T_vec)
        assert abs(radius - radius_vec) <= 1e-12 * max(1.0, radius_vec)
        cost = CostWeights(Q=np.eye(n_x), R=np.eye(n_u))
        if not radius < 1.0 - TOL:
            with pytest.raises(InstabilityError):
                closed_loop_value_matrix(cl, m, cost)
            return
        P = np.asarray(closed_loop_value_matrix(cl, m, cost))
        rhs = np.eye(n_x) + cl.K.T @ cl.K
        P_vec = unvec(np.linalg.solve(np.eye(n_x * n_x) - T_vec, vec(rhs)), n_x)
        assert np.linalg.norm(P - P_vec) <= 1e-10 * np.linalg.norm(P_vec)


class TestLyapunovValue:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 4), n_u=st.integers(1, 3), n_w=st.integers(1, 2),
           scale=st.floats(0.05, 0.6), seed=st.integers(0, 2**32 - 1))
    def test_certified_iff_stable(self, n_x, n_u, n_w, scale, seed):
        """Away from radius 1 the solve is certified exactly when the loop is
        MSS, and then it is the solution on vec coordinates."""
        rng = np.random.default_rng(seed)
        cl, m = _random_plant(rng, n_x, n_u, n_w, scale)
        G = rng.standard_normal((n_x, n_x))
        Q = G @ G.T + 0.1 * np.eye(n_x)
        C = Q + cl.K.T @ cl.K  # R = I
        T = second_moment_operator(cl, m)
        radius = _spectral_radius(T)
        if abs(radius - 1.0) <= 1e-6:
            return
        V = lyapunov_value(T, C)
        assert (V is not None) == (radius < 1.0)
        if V is not None:
            V_vec = vec_value(cl, m, C)
            assert np.linalg.norm(V - V_vec) <= 1e-10 * np.linalg.norm(V_vec)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 4), n_u=st.integers(1, 3), n_w=st.integers(1, 2),
           target=st.floats(0.9, 1.1), seed=st.integers(0, 2**32 - 1))
    def test_cost_certificate_follows_is_mss(self, n_x, n_u, n_w, target, seed):
        """Away from the threshold 1 - TOL, is_mss calls the loop stable exactly
        when its radius is below 1 - TOL, and the cost is certified exactly then;
        otherwise the error gives the radius.  The plant is scaled by c so that
        the radius, quadratic in c, is near 1."""
        cl, m = _random_plant(np.random.default_rng(seed), n_x, n_u, n_w)
        c = np.sqrt(target / is_mss(cl, m)[1])
        sys = MultNoiseSystem(A0=c * cl.sys.A0, A=tuple(c * a for a in cl.sys.A),
                              B0=c * cl.sys.B0, B=tuple(c * b for b in cl.sys.B))
        cl = ClosedLoop(sys=sys, K=cl.K)
        stable, radius = is_mss(cl, m)
        assume(abs(radius - (1.0 - TOL)) > 1e-6)
        assert stable == (radius < 1.0 - TOL)
        cost = CostWeights(Q=np.eye(n_x), R=np.eye(n_u))
        if stable:
            assert is_psd(closed_loop_value_matrix(cl, m, cost))
        else:
            with pytest.raises(InstabilityError, match=re.escape(f"radius {radius:.6f}")):
                closed_loop_value_matrix(cl, m, cost)

    def test_uncertified_solve_raises(self, monkeypatch, sys6, moments6, cost6):
        """A radius that passes with a solve that does not certify is an error,
        never a value matrix."""
        cl = ClosedLoop(sys=sys6, K=np.array([[-18.0, -8.0]]))
        assert is_mss(cl, moments6)[0]
        monkeypatch.setattr(stability, "lyapunov_value", lambda T, C: None)
        with pytest.raises(InstabilityError, match="not certified"):
            closed_loop_value_matrix(cl, moments6, cost6)


def _radius_cases(case, sys6, moments6, cost6):
    """(loop, moments) pairs of one system: the zero gain, the Riccati gain and
    gains around it, for is_mss's radius against the oracle's."""
    if case == "sys6":
        sys, m, cost = sys6, moments6, cost6
    elif case == "paper":  # the criterion-7 sweep's M = 500 cell, near the edge of MSS
        sys = bench_workloads().paper_system()
        samples = sample_gaussian(moments6, 500, _cell_stream(0, 500, 3))
        amb = build_ambiguity(samples, AmbiguityConfig(beta=0.05), lambda_reg=LAMBDA_REG)
        m = DisturbanceMoments(mu=amb.mu_hat, sigma=amb.rho_sigma * amb.sigma_hat)
        cost = cost6
    else:
        sys, m, cost = _chain8(), moments6, CostWeights(Q=np.eye(8), R=np.eye(2))
    K = value_iteration(sys, m, cost).K
    rng = np.random.default_rng(0)
    gains = [np.zeros_like(K), K] + [K * (1.0 + 0.5 * rng.standard_normal(K.shape))
                                     for _ in range(4)]
    return [(ClosedLoop(sys=sys, K=G), m) for G in gains]


# dgeev's SMLNUM = sqrt(safe minimum) / precision and BIGNUM = 1 / SMLNUM
DGEEV_SMALL = float(np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps)
DGEEV_BIG = 1.0 / DGEEV_SMALL


class TestSpectralRadius:
    @pytest.mark.parametrize("case", ["sys6", "paper", "chain8"])
    def test_is_mss_radius_is_the_oracles_bit_for_bit(self, case, sys6, moments6, cost6):
        """The eigvals gufunc call gives the bits of np.linalg.eigvals on the same T."""
        for cl, m in _radius_cases(case, sys6, moments6, cost6):
            assert is_mss(cl, m)[1] == spectral_radius(second_moment_operator(cl, m))

    def test_general_matrices_bit_for_bit(self):
        """Complex eigenvalues too: their modulus is numpy's complex abs, which
        differs from np.hypot in the last bit on about one in five of these."""
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 6, 10, 21, 36):
            for _ in range(20):
                T = rng.standard_normal((n, n)) * rng.random()
                assert _spectral_radius(T) == spectral_radius(T)

    @pytest.mark.parametrize("top", [
        1e150, 1e-150, DGEEV_BIG, np.nextafter(DGEEV_BIG, np.inf),
        DGEEV_SMALL, np.nextafter(DGEEV_SMALL, 0.0),
    ], ids=["huge", "tiny", "big", "above_big", "small", "below_small"])
    def test_scales_dgeev_would_rescale(self, top):
        """dgeev rescales a matrix whose largest entry lies outside [SMLNUM, BIGNUM],
        and scipy's bundled build returns the rescaled eigenvalues (1.5e138 for
        2e200); the radius is numpy's there too, bit for bit, on both sides of
        each bound."""
        rng = np.random.default_rng(2)
        for n in (1, 2, 5):
            T = rng.standard_normal((n, n))
            T[np.unravel_index(np.abs(T).argmax(), T.shape)] = top
            assert _spectral_radius(T) == spectral_radius(T)

    def test_empty_and_non_finite(self):
        """Only an overflow makes T non-finite (gains and moments are checked
        finite), and its radius is inf."""
        assert _spectral_radius(np.zeros((0, 0))) == 0.0
        for bad in (np.nan, np.inf, -np.inf):
            T = np.eye(3)
            T[1, 2] = bad
            assert _spectral_radius(T) == np.inf


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

    @pytest.mark.parametrize("K, stable, wrong", [(-0.75, True, 2.0), (0.0, False, 0.5)],
                             ids=["stable", "unstable"])
    def test_verdict_ignores_the_radius(self, monkeypatch, K, stable, wrong):
        """The Lyapunov solve decides the verdict: a wrong radius is reported
        as given and changes nothing else."""
        monkeypatch.setattr(stability, "_spectral_radius", lambda T: wrong)
        assert is_mss(_scalar_loop(K), _scalar_moments()) == (stable, wrong)


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
    P = b.sym_var(n)
    Abar, Bbar = cl.sys.stacked
    Acl = Abar + Bbar @ cl.K
    LP = Acl.T @ kron_const(np.asarray(m.extended_moment), P) @ Acl
    sol = solve(b.build(zeros((1, 1)), [P - np.eye(n), P - LP - 1e-6 * np.eye(n)]))
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
        assert np.allclose(np.asarray(P), np.eye(2))

    def test_scalar_geometric_series(self):
        P = lyapunov_P(_scalar_loop(-0.5), _scalar_moments())
        assert np.isclose(np.asarray(P)[0, 0], 1.0 / 0.4375)

    def test_residual(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 10:
            cl, m = _random_loop(rng)
            stable, _ = is_mss(cl, m)
            if not stable:
                continue
            P = np.asarray(lyapunov_P(cl, m))
            n = cl.sys.n_x
            residual = P - smat(second_moment_operator(cl, m) @ svec(P), n) - np.eye(n)
            assert np.linalg.norm(residual) <= 1e-8
            found += 1

    def test_unstable_raises(self):
        with pytest.raises(InstabilityError):
            lyapunov_P(_scalar_loop(0.0), _scalar_moments())


def _overflowing_loop():
    """x+ = (1 + w) x + u under u = 1e160 x: every gain and moment is finite, and
    the second-moment operator overflows to inf."""
    sys = MultNoiseSystem(A0=[[1.0]], A=([[1.0]],), B0=[[1.0]], B=([[0.0]],))
    return ClosedLoop(sys=sys, K=[[1e160]]), DisturbanceMoments(mu=[0.0], sigma=[[1.0]])


class TestOverflow:
    """An operator that overflows is a verdict, unstable with radius inf, not a LinAlgError."""

    def test_is_mss_is_unstable_with_infinite_radius(self):
        assert not np.isfinite(second_moment_operator(*_overflowing_loop())).all()
        assert is_mss(*_overflowing_loop()) == (False, np.inf)

    def test_cost_is_instability_error(self):
        cl, m = _overflowing_loop()
        cost = CostWeights(Q=np.eye(1), R=np.eye(1))
        with pytest.raises(InstabilityError, match="radius inf"):
            closed_loop_value_matrix(cl, m, cost)
        with pytest.raises(InstabilityError, match="radius inf"):
            closed_loop_cost(cl, m, cost, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_operator_is_not_certified(self, bad):
        """A non-finite T gets no certificate from lyapunov_value itself, which
        Newton passes call directly.  The bare solve would certify this one with
        an infinite diagonal entry as V = 1.25 I: it sets the svec entry the inf
        sits on to zero and leaves the others finite."""
        T = np.full((3, 3), 0.1)
        T[1, 1] = bad
        assert lyapunov_value(T, np.eye(2)) is None
        assert not stability._certified_mss(T, 2)


class TestClosedLoop:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_gain_is_domain_error(self, bad):
        with pytest.raises(DomainError, match="gain K"):
            _scalar_loop(bad)


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
        assert np.isclose(J, np.asarray(ctrl.P)[0, 0] * x0[0] ** 2, rtol=1e-8)

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


def _loop_bytes(cl, m, cost):
    """is_mss's verdict and radius, then closed_loop_value_matrix's P or its error."""
    stable, radius = is_mss(cl, m)
    try:
        P = closed_loop_value_matrix(cl, m, cost).tobytes()
    except InstabilityError as exc:
        P = str(exc)
    return stable, radius, P


class TestOperatorMemo:
    """is_mss and closed_loop_value_matrix share the operator T and its verdict,
    kept for the last loop and moments (matcore._memo_last); each returns the
    same with the memo kept from call to call and cleared before each call."""

    def _loops(self, sys6, moments6, cost6):
        K = value_iteration(sys6, moments6, cost6).K
        return [ClosedLoop(sys=sys6, K=K), ClosedLoop(sys=sys6, K=np.zeros((1, 2))),
                ClosedLoop(sys=sys6, K=K)]

    def test_verdict_radius_and_value(self, sys6, moments6, cost6):
        """A stable loop, the unstable zero gain, and the stable loop again."""
        loops = self._loops(sys6, moments6, cost6)
        kept, cleared = memo_runs([lambda cl=cl: _loop_bytes(cl, moments6, cost6)
                                   for cl in loops])
        assert kept == cleared
        assert [k[0] for k in kept] == [True, False, True]

    def test_one_operator_per_loop_and_a_radius_per_call(self, monkeypatch, sys6, moments6,
                                                         cost6):
        calls = {"operator": 0, "radius": 0}

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(stability, "second_moment_operator",
                            counting("operator", stability.second_moment_operator))
        monkeypatch.setattr(stability, "_spectral_radius",
                            counting("radius", stability._spectral_radius))
        loop, _, twin = self._loops(sys6, moments6, cost6)
        is_mss(loop, moments6)
        closed_loop_value_matrix(twin, moments6, cost6)
        is_mss(twin, moments6)
        assert calls == {"operator": 1, "radius": 2}

    @pytest.mark.parametrize("changed", ["mu", "K", "B1"])
    def test_one_ulp_apart_misses(self, sys6, moments6, cost6, changed):
        cl = self._loops(sys6, moments6, cost6)[0]
        m = DisturbanceMoments(mu=np.array([0.1, -0.2]), sigma=moments6.sigma)
        other_cl, other_m = cl, m
        if changed == "mu":
            other_m = DisturbanceMoments(mu=one_ulp_up(m.mu, 0), sigma=m.sigma)
        elif changed == "K":
            other_cl = ClosedLoop(sys=sys6, K=one_ulp_up(cl.K, (0, 1)))
        else:
            sys = MultNoiseSystem(A0=sys6.A0, A=sys6.A, B0=sys6.B0,
                                  B=(sys6.B[0], one_ulp_up(sys6.B[1], (1, 0))))
            other_cl = ClosedLoop(sys=sys, K=cl.K)
        first = stability._operator_verdict(cl, m)
        assert stability._operator_verdict(other_cl, other_m) is not first
        kept, cleared = memo_runs([lambda: _loop_bytes(cl, m, cost6),
                                   lambda: _loop_bytes(other_cl, other_m, cost6),
                                   lambda: _loop_bytes(cl, m, cost6)])
        assert kept == cleared

    def test_kept_operator_is_read_only(self, sys6, moments6, cost6):
        T, _ = stability._operator_verdict(self._loops(sys6, moments6, cost6)[0], moments6)
        with pytest.raises(ValueError, match="read-only"):
            T[0, 0] = 1.0

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_loops(self, seed):
        """A random loop, the loop with the gain halved, the first loop again, and
        the first gain at twice the covariance."""
        rng = np.random.default_rng(seed)
        cl, m = _random_loop(rng)
        cost = CostWeights(Q=np.eye(2), R=np.eye(1))
        half = ClosedLoop(sys=cl.sys, K=0.5 * cl.K)
        wide = DisturbanceMoments(mu=m.mu, sigma=2.0 * m.sigma)
        kept, cleared = memo_runs([lambda: _loop_bytes(cl, m, cost),
                                   lambda: _loop_bytes(half, m, cost),
                                   lambda: _loop_bytes(cl, m, cost),
                                   lambda: _loop_bytes(cl, wide, cost)])
        assert kept == cleared


class TestDrCertify:
    def test_degenerate_reduces_to_is_mss(self, sys6, moments6):
        amb = MomentAmbiguity(mu_hat=np.zeros(2), sigma_hat=SymMatrix(np.eye(2)),
                              rho_mu=0.0, rho_sigma=1.0)
        K_good = np.array([[-18.0, -8.0]])
        K_bad = np.zeros((1, 2))
        assert dr_certify_mss(ClosedLoop(sys=sys6, K=K_good), amb) == \
            is_mss(ClosedLoop(sys=sys6, K=K_good), moments6)[0]
        assert dr_certify_mss(ClosedLoop(sys=sys6, K=K_bad), amb) == \
            is_mss(ClosedLoop(sys=sys6, K=K_bad), moments6)[0]

    def test_inflated_variance_refutes_all_gains(self, scalar_sys):
        # rho_sigma * sigma_hat^2 >= 1 makes (0.75+K)^2 + rho*s2 < 1 unsatisfiable
        amb = MomentAmbiguity(mu_hat=np.zeros(1), sigma_hat=SymMatrix(0.5 * np.eye(1)),
                              rho_mu=0.0, rho_sigma=2.2)
        for K in np.linspace(-2.5, 1.0, 29):
            cl = ClosedLoop(sys=scalar_sys, K=np.array([[K]]))
            assert not dr_certify_mss(cl, amb)

    def test_grid_validation(self, sys6, amb6):
        with pytest.raises(ValueError):
            dr_certify_mss(ClosedLoop(sys=sys6, K=np.zeros((1, 2))), amb6, mean_grid=0)
