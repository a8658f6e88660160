import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from drlqr.ambiguity import AmbiguityConfig, MomentAmbiguity, build_ambiguity
from drlqr.experiment import LAMBDA_REG, _cell_stream, sample_gaussian
from drlqr import riccati
from drlqr.cli import EXIT_OK, main
from drlqr.matcore import DomainError, NumericalFailure, ShapeError, SymMatrix
from drlqr.riccati import NotStabilizableError, _ce_gain, dr_covariance, value_iteration
from drlqr.stability import ClosedLoop, closed_loop_value_matrix, is_mss
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem

from conftest import (TS, bench_workloads, memo_runs, one_ulp_up, scalar_p_star,
                      write_fixture)
from oracles import ce_gain_reference, dare_gain, nominal_sdp, riccati_residual


class TestValueIteration:
    def test_scalar_closed_form(self, scalar_sys, scalar_cost, scalar_moments):
        """p solves (s2 - 1) p^2 + (q + (s2 - 0.4375) r) p + q r = 0."""
        ctrl = value_iteration(scalar_sys, scalar_moments, scalar_cost)
        p_star = scalar_p_star()
        assert np.isclose(p_star, 1267.775661738586)
        p = np.asarray(ctrl.P)[0, 0]
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
        assert np.allclose(np.asarray(ctrl.P), np.diag([2.0, 3.0]), atol=1e-8)
        assert np.allclose(ctrl.K, 0.0, atol=1e-8)

    def test_excess_noise_not_stabilizable(self, scalar_sys, scalar_cost):
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(1.05 * np.eye(1)))
        with pytest.raises(NotStabilizableError):
            value_iteration(scalar_sys, m, scalar_cost)

    def test_residual_small(self, sys6, moments6, cost6):
        ctrl = value_iteration(sys6, moments6, cost6)
        res = riccati_residual(sys6, moments6, cost6, ctrl.P)
        assert res <= 10.0 * 1e-10 * (1.0 + np.linalg.norm(np.asarray(ctrl.P)))

    def test_returned_loop_is_mss(self, sys6, moments6, cost6):
        ctrl = value_iteration(sys6, moments6, cost6)
        stable, radius = is_mss(ClosedLoop(sys=sys6, K=ctrl.K), moments6)
        assert stable and radius < 1.0

    def test_one_gain_per_pass(self, monkeypatch, sys6, moments6, cost6):
        """The moment operators (gh or fgh) are formed once per iteration, plus
        once for the returned gain."""
        calls = _spy_moment_operators(monkeypatch)
        ctrl = value_iteration(sys6, moments6, cost6)
        assert len(calls) == ctrl.iterations + 1

    def test_spent_budget_is_numerical_failure(self, monkeypatch, sys6, moments6, cost6):
        """Running out of iterations says nothing about stabilizability."""
        monkeypatch.setattr(riccati, "MAX_ITER", 3)
        with pytest.raises(NumericalFailure):
            value_iteration(sys6, moments6, cost6)


def _spy_moment_operators(monkeypatch) -> list:
    """Record, in order, "fgh" or "gh" for each call riccati makes to form the
    moment operators of an iterate (the certainty-equivalent gain's included)."""
    calls = []
    for name in ("fgh", "gh"):
        def counting(*args, _name=name, _real=getattr(riccati, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(riccati, name, counting)
    return calls


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
    P = np.asarray(ctrl.P)
    P_cl = np.asarray(closed_loop_value_matrix(cl, m, cost))
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
                                      sigma=SymMatrix(amb.rho_sigma * np.asarray(amb.sigma_hat)))
        assert is_mss(ClosedLoop(sys=sys6, K=ctrl.K), inflated)[0]

    def test_non_finite_gain_is_numerical_failure(self, monkeypatch, scalar_sys, scalar_cost,
                                                  scalar_moments):
        """LAPACK's Cholesky factorization passes a NaN in R + G(P) through with info 0:
        here in G from gh, for the certainty-equivalent gain and the Newton passes."""
        real = riccati.gh

        def nan_G(sys, m, P):
            G, H = real(sys, m, P)
            return np.full_like(G, np.nan), H

        monkeypatch.setattr(riccati, "gh", nan_G)
        with pytest.raises(NumericalFailure, match="not finite"):
            value_iteration(scalar_sys, scalar_moments, scalar_cost)

    def test_non_finite_gain_on_a_warm_up_pass(self, monkeypatch, scalar_sys, scalar_cost,
                                               scalar_moments):
        """The same NaN in G from fgh, on the first warm-up pass from P = 0."""
        real = riccati.fgh

        def nan_G(sys, m, P):
            F, G, H = real(sys, m, P)
            return F, np.full_like(G, np.nan), H

        monkeypatch.setattr(riccati, "fgh", nan_G)
        monkeypatch.setattr(riccati, "_ce_gain", lambda *args: None)
        with pytest.raises(NumericalFailure, match="not finite"):
            value_iteration(scalar_sys, scalar_moments, scalar_cost)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda T: np.full_like(T, np.nan), "certificate"),
        (lambda T: 0.5 * (np.eye(len(T)) + T), "monotonicity"),  # doubles the value matrix
    ], ids=["non_finite", "not_monotone"])
    def test_guards(self, monkeypatch, scalar_sys, scalar_cost, corrupt, message):
        """The certainty-equivalent gain is MSS at variance 0.25, so its evaluation
        certifies it; the operator is corrupted from the next step on."""
        real, calls = riccati._svec_operator, []

        def faulty(sys, K, m):
            calls.append(K)
            T = real(sys, K, m)
            return T if len(calls) == 1 else corrupt(T)

        monkeypatch.setattr(riccati, "_svec_operator", faulty)
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(0.25 * np.eye(1)))
        with pytest.raises(NumericalFailure, match=message):
            value_iteration(scalar_sys, m, scalar_cost)

    def test_infinite_operator_entry_loses_the_certificate(self, monkeypatch, sys6, moments6,
                                                           cost6):
        """A Newton pass whose operator has an infinite entry, as an overflow gives,
        is not certified: lyapunov_value refuses it, where the bare solve would
        return a finite V > 0 for this one and the passes would converge to it."""
        real, calls = riccati._svec_operator, []

        def overflowing(sys, K, m):
            calls.append(K)
            if len(calls) == 1:
                return real(sys, K, m)
            T = np.full((3, 3), 0.1)
            T[1, 1] = np.inf
            return T

        monkeypatch.setattr(riccati, "_svec_operator", overflowing)
        with pytest.raises(NumericalFailure, match="certificate"):
            value_iteration(sys6, moments6, cost6)

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


def _roadmap_chain(n: int) -> MultNoiseSystem:
    """A0 = I + TS shift, noise on the last state and on the input: lightly
    stabilizable, so sweeps from P = 0 take hundreds of iterations at n >= 10."""
    A1 = np.zeros((n, n))
    A1[-1, -1] = -TS
    B0 = np.zeros((n, 1))
    B0[-1, 0] = TS
    return MultNoiseSystem(A0=np.eye(n) + TS * np.eye(n, k=1), A=(A1, np.zeros((n, n))),
                           B0=B0, B=(np.zeros((n, 1)), B0))


def _chain_workload_case(index: int = 0):
    """The riccati-chain benchmark's dr_covariance solve of op index at seed 0."""
    w = bench_workloads().RiccatiChain(0)
    sys, samples = w.make_input(index).data
    amb = build_ambiguity(samples, AmbiguityConfig(beta=0.05), lambda_reg=LAMBDA_REG)
    inflated = DisturbanceMoments(mu=amb.mu_hat,
                                  sigma=SymMatrix(amb.rho_sigma * np.asarray(amb.sigma_hat)))
    return sys, inflated, w.cost


CE_CASES = ["sys6", "chain8", "riccati_chain"]


def _ce_case(case, sys6, moments6, cost6):
    """(sys, m, cost) of a solve whose certainty-equivalent gain is certified."""
    return {
        "sys6": lambda: (sys6, moments6, cost6),
        "chain8": lambda: (_chain8(), moments6, CostWeights(Q=np.eye(8), R=np.eye(2))),
        "riccati_chain": _chain_workload_case,
    }[case]()


class TestCertaintyEquivalentStart:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 4), n_u=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_dare(self, n_x, n_u, seed):
        """At zero covariance the doubling solve gives the DARE gain at A(mu), B(mu);
        A(mu) = Acl - B(mu) K0 with a stable Acl, so the mean pair is stabilizable."""
        rng = np.random.default_rng(seed)
        n_u = min(n_u, n_x)
        Acl = rng.standard_normal((n_x, n_x))
        Acl *= 0.9 / max(1.0, np.max(np.abs(np.linalg.eigvals(Acl))))
        A1, B1 = rng.standard_normal((n_x, n_x)), rng.standard_normal((n_x, n_u))
        B, mu = rng.standard_normal((n_x, n_u)), 0.3 * rng.standard_normal(1)
        A = Acl - B @ rng.standard_normal((n_u, n_x))
        sys = MultNoiseSystem(A0=A - mu[0] * A1, A=(A1,), B0=B - mu[0] * B1, B=(B1,))
        L, N = rng.standard_normal((n_x, n_x)), rng.standard_normal((n_u, n_u))
        Q, R = L @ L.T + 0.1 * np.eye(n_x), N @ N.T + 0.1 * np.eye(n_u)
        m = DisturbanceMoments(mu=mu, sigma=np.zeros((1, 1)))
        K, K_ref = _ce_gain(sys, m, CostWeights(Q=Q, R=R)), dare_gain(*sys.eval_AB(mu), Q, R)
        assert np.linalg.norm(K - K_ref) <= 1e-8 * np.linalg.norm(K_ref)

    @pytest.mark.parametrize("case", CE_CASES)
    def test_same_solution_as_sweeps_from_zero(self, monkeypatch, case, sys6, moments6, cost6):
        sys, m, cost = _ce_case(case, sys6, moments6, cost6)
        ce = value_iteration(sys, m, cost)
        monkeypatch.setattr(riccati, "_ce_gain", lambda *args: None)
        swept = value_iteration(sys, m, cost)
        assert ce.iterations < swept.iterations
        assert np.linalg.norm(ce.K - swept.K) <= 1e-12 * np.linalg.norm(swept.K)
        P, P_swept = np.asarray(ce.P), np.asarray(swept.P)
        assert np.linalg.norm(P - P_swept) <= 1e-12 * np.linalg.norm(P_swept)

    @pytest.mark.parametrize("case", CE_CASES)
    def test_newton_passes_form_no_F(self, monkeypatch, case, sys6, moments6, cost6):
        """F(P) is formed (fgh) on warm-up passes only: never from the certified
        certainty-equivalent start, and on the forced sweeps from P = 0 before the
        first Newton pass; every Newton pass forms G(P) and H(P) alone (gh)."""
        sys, m, cost = _ce_case(case, sys6, moments6, cost6)
        calls = _spy_moment_operators(monkeypatch)
        ce = value_iteration(sys, m, cost)
        assert calls == ["gh"] * (ce.iterations + 1)  # the certainty-equivalent gain's too
        calls.clear()
        monkeypatch.setattr(riccati, "_ce_gain", lambda *args: None)
        swept = value_iteration(sys, m, cost)
        warm_up = calls.count("fgh")
        assert len(calls) == swept.iterations + 1
        assert 0 < warm_up < len(calls)
        assert calls == ["fgh"] * warm_up + ["gh"] * (len(calls) - warm_up)

    def test_riccati_chain_in_four_iterations(self):
        """From P = 0 (_ce_gain patched to None) these 30 solves take 10 or 11."""
        for index in range(30):
            assert value_iteration(*_chain_workload_case(index)).iterations <= 4

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_roadmap_chain(self, n, amb6):
        """From P = 0 the solve takes 25, 516, 517 and 519 iterations here.  The value
        solve loses about a digit per two states (tr P = 4e7 at n = 14, radius
        0.992), so P is held to the stopping rule's 1e-10, not 1e-12; sweeps
        from P = 0 miss 1e-12 at n = 14 too (7.5e-12)."""
        sys, cost = _roadmap_chain(n), CostWeights(Q=np.eye(n), R=0.01 * np.eye(1))
        ctrl = dr_covariance(sys, amb6.mu_hat, amb6, cost)
        inflated = DisturbanceMoments(mu=amb6.mu_hat,
                                      sigma=SymMatrix(amb6.rho_sigma * np.asarray(amb6.sigma_hat)))
        _assert_exact_solution(sys, inflated, cost, ctrl, rtol=1e-10)
        assert ctrl.iterations <= 8

    def test_not_stabilizable_mean_pair_is_none(self):
        """A = 2, B = 0: the doubling overflows, which gives None and no warning."""
        sys = MultNoiseSystem(A0=np.array([[2.0]]), A=(np.zeros((1, 1)),),
                              B0=np.zeros((1, 1)), B=(np.zeros((1, 1)),))
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ce_gain(sys, m, CostWeights(Q=np.eye(1), R=np.eye(1))) is None


def _gain_bytes(K):
    return None if K is None else (K.shape, K.tobytes())


class TestCertaintyEquivalentInPlace:
    """_ce_gain's in-place doubling gives the bits of oracles.ce_gain_reference,
    which makes new arrays each step."""

    @staticmethod
    def _assert_same(sys, m, cost):
        ours = _ce_gain.__wrapped__(sys, m, cost)
        assert _gain_bytes(ours) == _gain_bytes(ce_gain_reference(sys, m, cost))
        return ours

    def test_sys6_and_the_paper_sweeps_means(self, sys6, moments6, cost6):
        assert self._assert_same(sys6, moments6, cost6) is not None
        for M in (1000, 2000, 4000):
            for realization in range(5):
                m = _cell_inflated(M, realization, moments6)
                assert self._assert_same(sys6, m, cost6) is not None

    def test_riccati_chain_ops(self):
        for index in range(30):
            assert self._assert_same(*_chain_workload_case(index)) is not None

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 8), n_u=st.integers(1, 3), unstable=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_random_plants(self, n_x, n_u, unstable, seed):
        """Plants A(mu) = Acl - B(mu) K0 around a stable or unstable Acl."""
        rng = np.random.default_rng(seed)
        Acl = rng.standard_normal((n_x, n_x))
        Acl *= (1.5 if unstable else 0.9) / max(1.0, np.max(np.abs(np.linalg.eigvals(Acl))))
        B = rng.standard_normal((n_x, n_u))
        sys = MultNoiseSystem(A0=Acl - B @ rng.standard_normal((n_u, n_x)),
                              A=(0.2 * rng.standard_normal((n_x, n_x)),),
                              B0=B, B=(0.2 * rng.standard_normal((n_x, n_u)),))
        L, N = rng.standard_normal((n_x, n_x)), rng.standard_normal((n_u, n_u))
        cost = CostWeights(Q=L @ L.T + 0.1 * np.eye(n_x), R=N @ N.T + 0.1 * np.eye(n_u))
        m = DisturbanceMoments(mu=0.3 * rng.standard_normal(1), sigma=np.eye(1))
        self._assert_same(sys, m, cost)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["overflow", "unconverged", "singular"])
    def test_failed_doubling_is_none(self, case):
        """A = 2, B = 0 overflows; A = 1, B = 0 doubles H, finite, through all 18
        steps; with G = 1e20 [[1, 1], [1, 1]] and H = I the first I + G H rounds
        to an exactly singular matrix (dgesv info 2)."""
        if case != "singular":
            sys = MultNoiseSystem(A0=np.array([[2.0 if case == "overflow" else 1.0]]),
                                  A=(np.zeros((1, 1)),), B0=np.zeros((1, 1)),
                                  B=(np.zeros((1, 1)),))
        else:
            sys = MultNoiseSystem(A0=np.eye(2), A=(np.zeros((2, 2)),),
                                  B0=np.full((2, 1), 1e10), B=(np.zeros((2, 1)),))
        m = DisturbanceMoments(mu=np.zeros(1), sigma=np.eye(1))
        cost = CostWeights(Q=np.eye(sys.n_x), R=np.eye(1))
        assert self._assert_same(sys, m, cost) is None


def _cell_inflated(M: int, realization: int, moments) -> DisturbanceMoments:
    """The inflated moments dr_covariance solves at a criterion-7 sweep cell (seed 0)."""
    samples = sample_gaussian(moments, M, _cell_stream(0, M, realization))
    amb = build_ambiguity(samples, AmbiguityConfig(beta=0.05), lambda_reg=LAMBDA_REG)
    return DisturbanceMoments(mu=amb.mu_hat,
                              sigma=SymMatrix(amb.rho_sigma * np.asarray(amb.sigma_hat)))


class TestStart:
    def test_neighbours_gain_gives_the_cold_solution(self, monkeypatch, sys6, moments6, cost6):
        """The solution at a neighbouring cell of the sweep is certified here, so
        the Newton steps start from it, without the certainty-equivalent gain."""
        m = _cell_inflated(1000, 1, moments6)
        neighbour = value_iteration(sys6, _cell_inflated(1000, 0, moments6), cost6)
        cold = value_iteration(sys6, m, cost6)
        monkeypatch.setattr(riccati, "_ce_gain", None)  # calling it fails the test
        warm = value_iteration(sys6, m, cost6, start=neighbour)
        assert warm.iterations < cold.iterations
        assert np.linalg.norm(warm.K - cold.K) <= 1e-12 * np.linalg.norm(cold.K)
        P, P_cold = np.asarray(warm.P), np.asarray(cold.P)
        assert np.linalg.norm(P - P_cold) <= 1e-12 * np.linalg.norm(P_cold)

    def test_uncertified_start_gives_the_cold_solution(self, sys6, moments6, cost6):
        """A gain that is not MSS under the moments is passed over for the
        certainty-equivalent one, with the arithmetic of a call without start."""
        bad = riccati.Controller(K=np.array([[50.0, 50.0]]), P=np.eye(2), method="nominal_vi")
        assert not is_mss(ClosedLoop(sys=sys6, K=bad.K), moments6)[0]
        cold = value_iteration(sys6, moments6, cost6)
        warm = value_iteration(sys6, moments6, cost6, start=bad)
        assert np.array_equal(warm.K, cold.K) and warm.iterations == cold.iterations
        assert np.array_equal(np.asarray(warm.P), np.asarray(cold.P))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3)], ids=["n_u", "n_x"])
    def test_start_of_another_shape(self, sys6, moments6, cost6, shape):
        start = riccati.Controller(K=np.zeros(shape), P=np.eye(shape[1]), method="nominal_vi")
        with pytest.raises(ShapeError, match="gain"):
            value_iteration(sys6, moments6, cost6, start=start)
        amb = MomentAmbiguity(mu_hat=np.zeros(2), sigma_hat=SymMatrix(np.eye(2)),
                              rho_mu=0.0, rho_sigma=1.5)
        with pytest.raises(ShapeError, match="gain"):
            dr_covariance(sys6, np.zeros(2), amb, cost6, start=start)

    def test_only_the_start_gain_is_checked_as_a_loop(self, monkeypatch, sys6, moments6, cost6):
        """The passes build each operator from (sys, K), K the package's own gain;
        only the caller's start gain goes through ClosedLoop's checks, once."""
        real, loops = riccati.ClosedLoop, []

        def counting(**kwargs):
            loops.append(kwargs["K"])
            return real(**kwargs)

        monkeypatch.setattr(riccati, "ClosedLoop", counting)
        cold = value_iteration(sys6, moments6, cost6)
        assert loops == [] and cold.iterations > 1
        value_iteration(sys6, moments6, cost6, start=cold)
        assert len(loops) == 1 and loops[0] is cold.K

    def test_dr_covariance_checks_its_controller_once(self, monkeypatch, sys6, cost6, amb6):
        """dr_covariance relabels value_iteration's Controller, whose K and P were
        checked when it was built, instead of building and checking a second one."""
        real, built = riccati.Controller.__post_init__, []

        def counting(ctrl):
            built.append(ctrl.method)
            real(ctrl)

        monkeypatch.setattr(riccati.Controller, "__post_init__", counting)
        ctrl = dr_covariance(sys6, amb6.mu_hat, amb6, cost6)
        assert built == ["nominal_vi"] and ctrl.method == "dr_covariance"
        inflated = DisturbanceMoments(mu=amb6.mu_hat, sigma=amb6.rho_sigma * amb6.sigma_hat)
        vi = value_iteration(sys6, inflated, cost6)
        assert vi.method == "nominal_vi" and vi.iterations == ctrl.iterations
        assert vi.K.tobytes() == ctrl.K.tobytes() and vi.P.tobytes() == ctrl.P.tobytes()
        assert not (ctrl.K.flags.writeable or ctrl.P.flags.writeable)


def _solve_bytes(call):
    """K, P and iterations of the Controller call() returns, or its exception."""
    try:
        ctrl = call()
    except (NotStabilizableError, NumericalFailure) as exc:
        return type(exc).__name__, str(exc)
    return ctrl.K.tobytes(), ctrl.P.tobytes(), ctrl.iterations


class TestCertaintyEquivalentMemo:
    """The certainty-equivalent gain is kept for the last system, mean and cost
    (matcore._memo_last); each solve returns the same K, P and iterations with
    the memo kept from call to call and cleared before each call."""

    def test_robust_then_nominal_share_one_doubling_solve(self, monkeypatch):
        """The riccati-chain op: dr_covariance at rho_sigma Sigma_hat, then
        value_iteration at Sigma_hat, on three ops."""
        w = bench_workloads().RiccatiChain(0)
        calls = []
        for index in range(3):
            sys, samples = w.make_input(index).data
            amb = build_ambiguity(samples, AmbiguityConfig(beta=0.05), lambda_reg=LAMBDA_REG)
            empirical = DisturbanceMoments(mu=amb.mu_hat, sigma=amb.sigma_hat)
            calls += [lambda sys=sys, amb=amb: dr_covariance(sys, amb.mu_hat, amb, w.cost),
                      lambda sys=sys, m=empirical: value_iteration(sys, m, w.cost)]
        kept, cleared = memo_runs([lambda call=call: _solve_bytes(call) for call in calls])
        assert kept == cleared
        real, steps = riccati.dgesv, []  # only the doubling solve calls riccati.dgesv

        def counting(*args):
            steps.append(args)
            return real(*args)

        monkeypatch.setattr(riccati, "dgesv", counting)
        calls[0]()
        assert steps
        done = len(steps)
        calls[1]()
        assert len(steps) == done

    @pytest.mark.parametrize("changed", ["mu", "B1", "R"])
    def test_one_ulp_apart_misses(self, sys6, moments6, cost6, changed):
        m = _cell_inflated(1000, 0, moments6)
        sys, other, cost = sys6, m, cost6
        if changed == "mu":
            other = DisturbanceMoments(mu=one_ulp_up(m.mu, 0), sigma=m.sigma)
        elif changed == "B1":
            sys = MultNoiseSystem(A0=sys6.A0, A=sys6.A, B0=sys6.B0,
                                  B=(sys6.B[0], one_ulp_up(sys6.B[1], (1, 0))))
        else:
            cost = CostWeights(Q=cost6.Q, R=one_ulp_up(cost6.R, (0, 0)))
        first = _ce_gain(sys6, m, cost6)
        assert _ce_gain(sys, other, cost) is not first
        kept, cleared = memo_runs([lambda: _solve_bytes(lambda: value_iteration(sys6, m, cost6)),
                                   lambda: _solve_bytes(lambda: value_iteration(sys, other, cost)),
                                   lambda: _solve_bytes(lambda: value_iteration(sys6, m, cost6))])
        assert kept == cleared

    def test_covariance_alone_hits(self, sys6, moments6, cost6):
        """The gain is noise-free: moments that differ only in sigma share it."""
        m = _cell_inflated(1000, 0, moments6)
        other = DisturbanceMoments(mu=m.mu, sigma=0.5 * m.sigma)
        first = _ce_gain(sys6, m, cost6)
        assert _ce_gain(sys6, other, cost6) is first
        kept, cleared = memo_runs([lambda: _solve_bytes(lambda: value_iteration(sys6, m, cost6)),
                                   lambda: _solve_bytes(lambda: value_iteration(sys6, other, cost6))])
        assert kept == cleared

    def test_kept_gain_is_read_only(self, sys6, moments6, cost6):
        K = _ce_gain(sys6, moments6, cost6)
        with pytest.raises(ValueError, match="read-only"):
            K[0, 0] = 1.0

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 4), n_u=st.integers(1, 3), noise=st.floats(0.0, 0.3),
           seed=st.integers(0, 2**32 - 1))
    def test_random_plants(self, n_x, n_u, noise, seed):
        """value_iteration at a mean and covariance, at the same mean and twice the
        covariance, at another mean, and at the first moments again."""
        rng = np.random.default_rng(seed)
        Acl = rng.standard_normal((n_x, n_x))
        Acl *= 0.9 / max(1.0, np.max(np.abs(np.linalg.eigvals(Acl))))
        B = rng.standard_normal((n_x, n_u))
        sys = MultNoiseSystem(A0=Acl - B @ rng.standard_normal((n_u, n_x)),
                              A=(noise * rng.standard_normal((n_x, n_x)),),
                              B0=B, B=(noise * rng.standard_normal((n_x, n_u)),))
        L, N = rng.standard_normal((n_x, n_x)), rng.standard_normal((n_u, n_u))
        cost = CostWeights(Q=L @ L.T + 0.1 * np.eye(n_x), R=N @ N.T + 0.1 * np.eye(n_u))
        m = DisturbanceMoments(mu=0.1 * rng.standard_normal(1), sigma=np.eye(1))
        moments = [m, DisturbanceMoments(mu=m.mu, sigma=2.0 * m.sigma),
                   DisturbanceMoments(mu=-m.mu, sigma=m.sigma), m]
        kept, cleared = memo_runs([lambda m=m: _solve_bytes(lambda: value_iteration(sys, m, cost))
                                   for m in moments])
        assert kept == cleared


class TestNominalSdp:
    def test_scalar_matches_closed_form(self, scalar_sys, scalar_cost, scalar_moments):
        ctrl = nominal_sdp(scalar_sys, scalar_moments, scalar_cost)
        p_star = scalar_p_star()
        assert abs(np.asarray(ctrl.P)[0, 0] - p_star) <= 1e-4 * p_star

    def test_matches_value_iteration(self, sys6, moments6, cost6):
        vi = value_iteration(sys6, moments6, cost6)
        sdp = nominal_sdp(sys6, moments6, cost6)
        P_vi, P_sdp = np.asarray(vi.P), np.asarray(sdp.P)
        assert np.linalg.norm(P_sdp - P_vi) <= 1e-4 * np.linalg.norm(P_vi)
        assert np.linalg.norm(sdp.K - vi.K) <= 1e-3 * (1.0 + np.linalg.norm(vi.K))

    def test_trivial_identity_solution(self):
        # A(w) = 0, B(w) = 0 columns irrelevant: P = Q = I exactly
        sys = MultNoiseSystem(A0=np.zeros((2, 2)), A=(np.zeros((2, 2)),),
                              B0=np.zeros((2, 1)), B=(np.zeros((2, 1)),))
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1)))
        cost = CostWeights(Q=np.eye(2), R=np.eye(1))
        ctrl = nominal_sdp(sys, m, cost)
        assert np.allclose(np.asarray(ctrl.P), np.eye(2), atol=1e-4)


class TestDrCovariance:
    def _amb(self, sigma_hat, rho_sigma):
        return MomentAmbiguity(mu_hat=np.zeros(sigma_hat.shape[0]),
                               sigma_hat=SymMatrix(sigma_hat),
                               rho_mu=0.0, rho_sigma=rho_sigma)

    def test_unit_radius_reduces_to_nominal(self, scalar_sys, scalar_cost, scalar_moments):
        amb = self._amb(0.5 * np.eye(1), 1.0)
        dr = dr_covariance(scalar_sys, np.zeros(1), amb, scalar_cost)
        vi = value_iteration(scalar_sys, scalar_moments, scalar_cost)
        assert np.allclose(np.asarray(dr.P), np.asarray(vi.P), rtol=1e-8)
        assert dr.method == "dr_covariance"

    def test_inflation_equals_nominal_at_inflated_variance(self, scalar_sys, scalar_cost):
        amb = self._amb(0.5 * np.eye(1), 1.5)
        dr = dr_covariance(scalar_sys, np.zeros(1), amb, scalar_cost)
        m75 = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(0.75 * np.eye(1)))
        vi = value_iteration(scalar_sys, m75, scalar_cost)
        assert np.allclose(np.asarray(dr.P), np.asarray(vi.P), rtol=1e-8)

    def test_excess_inflation_not_stabilizable(self, scalar_sys, scalar_cost):
        amb = self._amb(0.5 * np.eye(1), 2.2)
        with pytest.raises(NotStabilizableError):
            dr_covariance(scalar_sys, np.zeros(1), amb, scalar_cost)

    def test_dominates_nominal_value(self, sys6, moments6, cost6):
        amb = self._amb(np.eye(2), 1.8)
        dr = dr_covariance(sys6, np.zeros(2), amb, cost6)
        vi = value_iteration(sys6, moments6, cost6)
        gap = np.asarray(dr.P) - np.asarray(vi.P)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-6 * np.linalg.norm(np.asarray(vi.P))


class TestControllerIo:
    def test_save_load_gain(self, sys6, moments6, cost6, tmp_path, capsys):
        """drlqr mss reads the controller file that to_json_dict writes, K exactly:
        its defaults are moments6, and the radius is is_mss's for ctrl.K."""
        ctrl = value_iteration(sys6, moments6, cost6)
        gain = write_fixture(tmp_path / "ctrl.json", ctrl)
        system = write_fixture(tmp_path / "sys.json", sys6)
        assert main(["mss", "--system", str(system), "--gain", str(gain)]) == EXIT_OK
        radius = is_mss(ClosedLoop(sys=sys6, K=ctrl.K), moments6)[1]
        assert json.loads(capsys.readouterr().out) == {"stable": True, "spectral_radius": radius}

    def test_json_fields(self, scalar_sys, scalar_cost, scalar_moments):
        ctrl = value_iteration(scalar_sys, scalar_moments, scalar_cost)
        d = ctrl.to_json_dict()
        assert d["method"] == "nominal_vi"
        assert d["cost_kind"] == "exact"
        assert np.isclose(d["trace_P"], np.asarray(ctrl.P).trace())

    def test_controller_validation(self):
        with pytest.raises(ValueError):
            from drlqr.riccati import Controller
            Controller(K=np.zeros((1, 1)), P=SymMatrix(np.zeros((1, 1))), method="nominal_vi")

    def test_empty_value_matrix_is_named(self):
        """An empty P raised a bare IndexError from eigvalsh(P)[0]."""
        from drlqr.riccati import Controller
        with pytest.raises(ValueError, match="^P must be strictly positive definite"):
            Controller(K=np.zeros((1, 0)), P=np.zeros((0, 0)), method="nominal_vi")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_gain_is_domain_error(self, bad):
        from drlqr.riccati import Controller
        with pytest.raises(DomainError, match="gain K"):
            Controller(K=np.array([[0.0, bad]]), P=SymMatrix(np.eye(2)), method="nominal_vi")

    def test_cost_kind_follows_cost_bound(self):
        from drlqr.riccati import Controller
        K, P = np.zeros((1, 1)), SymMatrix(np.eye(1))
        assert Controller(K=K, P=P, method="nominal_vi").to_json_dict()["cost_kind"] == "exact"
        bounded = Controller(K=K, P=P, method="dr_full", cost_bound=1.0)
        assert bounded.to_json_dict()["cost_kind"] == "upper_bound"
