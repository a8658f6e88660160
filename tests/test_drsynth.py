import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drlqr import drsynth, sdpcore
from drlqr.ambiguity import MomentAmbiguity
from drlqr.drsynth import DrSynthesisError, SynthesisResult, synth_full, synth_rhc
from drlqr.matcore import DomainError, NumericalFailure, SymMatrix, psd_sqrt
from drlqr.riccati import NotStabilizableError, dr_covariance, value_iteration
from drlqr.stability import ClosedLoop, closed_loop_value_matrix, is_mss
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem
from conftest import bench_workloads, memo_runs
from oracles import block_margin, dr_certify_mss, root_failing_on, thm6_builder
from test_sdpcore import assert_same_solution


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
        b, W, V, blocks = thm6_builder(sys6, amb6_small, cost6)
        y = sdpcore.solve_batch(*b.build(-W.trace(), blocks))[0].y
        W, V = W.value(y), V.value(y)
        assert np.linalg.norm(res.controller.K @ W - V) <= 1e-10 * (1 + np.linalg.norm(V))
        assert np.allclose(np.asarray(res.controller.P) @ W, np.eye(2), atol=1e-8)
        assert res.cost_bound == res.controller.cost_bound
        assert np.isclose(res.cost_bound, np.trace(np.linalg.inv(W)), rtol=1e-12)
        assert res.controller.method == "dr_full"
        assert res.controller.to_json_dict()["cost_kind"] == "upper_bound"

    def test_zero_mean_radius_matches_covariance_method(self, sys6, cost6):
        amb = _amb(np.zeros(2), np.eye(2), 0.0, 1.5)
        res = synth_full(sys6, amb, cost6)
        cov = dr_covariance(sys6, np.zeros(2), amb, cost6)
        P_full, P_cov = np.asarray(res.controller.P), np.asarray(cov.P)
        assert np.linalg.norm(P_full - P_cov) <= 1e-2 * np.linalg.norm(P_cov)
        assert np.linalg.norm(res.controller.K - cov.K) <= 1e-2 * (1 + np.linalg.norm(cov.K))

    def test_oversized_set_infeasible(self, scalar_sys, scalar_cost):
        amb = _amb(np.zeros(1), 0.5 * np.eye(1), 0.0, 2.2)
        with pytest.raises(DrSynthesisError, match="dual witness"):
            synth_full(scalar_sys, amb, scalar_cost)

    def test_reported_margin_is_that_of_the_returned_point(self, monkeypatch, sys6, cost6, amb6):
        """_controller certifies the gain by min_block_eigenvalue, so the
        field must be the margin of the returned point itself."""
        solved = []
        real = drsynth.solve_batch

        def spy(c, F, dims, starts=None):
            sols = real(c, F, dims, starts)
            solved.extend(((c[j:j + 1], F[j:j + 1], dims), sol) for j, sol in enumerate(sols))
            return sols

        monkeypatch.setattr(drsynth, "solve_batch", spy)
        synth_full(sys6, amb6, cost6)
        (prob, sol), = solved
        assert sol.status == "optimal"
        assert sol.min_block_eigenvalue == block_margin(prob, sol.y)

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
        half = np.asarray(psd_sqrt(np.asarray(amb6_small.sigma_hat)))
        rng = np.random.default_rng(0)
        for k in range(25):
            d = rng.standard_normal(2)
            u = 1.0 if k < 8 else rng.uniform(0.0, 1.0)
            d *= u / np.linalg.norm(d)
            mu = amb6_small.mu_hat + np.sqrt(amb6_small.rho_mu) * half @ d
            scale = 1.0 if k < 8 else rng.uniform(0.3, 1.0)
            sigma = scale * amb6_small.rho_sigma * np.asarray(amb6_small.sigma_hat)
            m = DisturbanceMoments(mu=mu, sigma=SymMatrix(sigma))
            P_cl = np.asarray(closed_loop_value_matrix(cl, m, cost6))
            assert np.trace(P_cl) <= (1.0 + 1e-6) * res.cost_bound

    def test_bound_monotone_in_radii(self, sys6, cost6):
        bounds = []
        for rho_mu, rho_sigma in [(0.0, 1.0), (0.02, 1.3), (0.05, 1.6)]:
            res = synth_full(sys6, _amb(np.zeros(2), np.eye(2), rho_mu, rho_sigma), cost6)
            bounds.append(res.cost_bound)
        assert bounds[0] <= bounds[1] * 1.001
        assert bounds[1] <= bounds[2] * 1.001

    # the LMI's robust terms C^T (Sigma_hat (x) X) C are monotone in Sigma_hat,
    # so a point feasible at lam = 1e-8 is feasible for every smaller lam; the
    # pencil carries the whitened channels sqrt(rho_sigma) Sigma_hat^{1/2} (x) I,
    # which stay bounded as lam -> 0
    @pytest.mark.parametrize("lam", [1e-2, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_near_singular_covariance_certified(self, sys6, cost6, lam):
        amb = _amb(np.zeros(2), np.diag([1.0, lam]), 0.05, 3.0)
        res = synth_full(sys6, amb, cost6)
        assert 0.0 < res.cost_bound < 250.0
        assert dr_certify_mss(ClosedLoop(sys=sys6, K=res.controller.K), amb)

    @settings(max_examples=25, deadline=None, derandomize=True,  # sys6, cost6 are frozen
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log_lam=st.floats(-14.0, -2.0), angle=st.floats(0.0, np.pi),
           rho_mu=st.floats(0.0, 0.3), rho_sigma=st.floats(1.0, 3.0))
    def test_near_singular_covariance_as_good_as_regularized(self, sys6, cost6, log_lam, angle,
                                                             rho_mu, rho_sigma):
        """Sigma_hat = U diag(1, lam) U^T, U a rotation.  The set regularized by
        1e-8 I contains it, so whenever that superset is certified the set
        itself is certified, with an objective tr(W) no smaller, to the
        solver's gap, and a bound no larger.  The bound tr(W^-1) is read at the
        maximizer of tr(W), which the gap places only to 1e-7 absolute here
        (tr W is about 0.2), so it is compared at 1e-5: it lands up to 2.5e-6
        above the superset's, and so it did with the inverse in the pencil."""
        U = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        sigma_hat = U @ np.diag([1.0, 10.0 ** log_lam]) @ U.T
        try:
            reg = synth_full(sys6, _amb(np.zeros(2), sigma_hat + 1e-8 * np.eye(2), rho_mu,
                                        rho_sigma), cost6)
        except (DrSynthesisError, NumericalFailure):
            return
        amb = _amb(np.zeros(2), sigma_hat, rho_mu, rho_sigma)
        res = synth_full(sys6, amb, cost6)
        tr_w, tr_w_reg = (np.trace(np.linalg.inv(r.controller.P)) for r in (res, reg))
        assert tr_w >= tr_w_reg - sdpcore.GAP_TOL * max(1.0, tr_w_reg)
        assert res.cost_bound <= reg.cost_bound * (1.0 + 1e-5)
        assert dr_certify_mss(ClosedLoop(sys=sys6, K=res.controller.K), amb)

    def test_blocks_are_the_congruent_inverse_form(self, sys6, cost6):
        """At a random point, the main block taken back through the congruence
        by T = (rho_sigma Sigma_hat)^{1/2} (x) I holds the raw channels
        A_i W + B_i V against (rho_sigma Sigma_hat)^-1 (x) W, and the centre
        A(mu_hat) W + B(mu_hat) V; the arrow block holds c T [channels]."""
        amb = _amb([0.1, -0.2], [[1.0, 0.3], [0.3, 0.5]], 0.05, 1.5)
        template = drsynth._template(sys6, cost6)
        F, = drsynth._pencils(template, [amb], psd_sqrt(amb.sigma_hat)[None])
        y = np.random.default_rng(0).standard_normal(len(F) - 1)
        arrow, main = (F[-1, b, b] + np.tensordot(y, F[:-1, b, b], 1)
                       for b in (slice(0, template.dims[0]), slice(template.dims[0], sum(template.dims[:2]))))
        Wy, Vy = template.W.value(y), template.V.value(y)
        channels = np.vstack([A @ Wy + B @ Vy for A, B in zip(sys6.A, sys6.B)])
        A_mu, B_mu = sys6.eval_AB(amb.mu_hat)
        T = np.kron(psd_sqrt(amb.rho_sigma * np.asarray(amb.sigma_hat)), np.eye(2))
        T_inv = np.eye(11)
        T_inv[2:6, 2:6] = np.linalg.inv(T)
        raw = T_inv @ main @ T_inv
        close = lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
        close(raw[2:6, 2:6], np.kron(np.linalg.inv(amb.rho_sigma * np.asarray(amb.sigma_hat)), Wy))
        close(raw[2:6, :2], channels)
        close(raw[6:8, :2], A_mu @ Wy + B_mu @ Vy)
        close(arrow[2:6, :2], np.sqrt(amb.rho_mu / 2.0 / amb.rho_sigma) * T @ channels)

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
        full_bound = float(x0 @ np.asarray(full.controller.P) @ x0)
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
        exact = float(x0 @ np.asarray(ref.P) @ x0)
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


class TestInputs:
    @pytest.mark.parametrize("count", [1, 4])
    def test_one_start_per_set(self, sys6, cost6, amb6_small, count):
        with pytest.raises(ValueError, match=f"^{count} starts for 3 ambiguity sets$"):
            drsynth.synth_full_batch(sys6, [amb6_small] * 3, cost6, [None] * count)

    @pytest.mark.parametrize("call", ["full", "rhc", "batch"])
    def test_overflowing_scaled_channels(self, call):
        """Sigma_hat^{1/2} A_1 W reaches 1e308, which a symmetric part doubles
        past the largest float: DomainError naming the scaled channels, with no
        overflow warning first (error::RuntimeWarning would raise it)."""
        sys = MultNoiseSystem(A0=np.eye(2), A=(1e300 * np.eye(2),), B0=np.ones((2, 1)),
                              B=(np.zeros((2, 1)),))
        amb, cost = _amb(np.zeros(1), [[1e16]], 0.1, 2.0), CostWeights(Q=np.eye(2), R=np.eye(1))
        run = {"full": lambda: synth_full(sys, amb, cost),
               "rhc": lambda: synth_rhc(sys, amb, cost, np.ones(2)),
               "batch": lambda: drsynth.synth_full_batch(sys, [amb, amb], cost)}[call]
        with pytest.raises(DomainError, match="noise channels scaled by the ambiguity set"):
            run()


def _synth(method, sys, amb, cost, x0):
    return synth_full(sys, amb, cost) if method == "full" else synth_rhc(sys, amb, cost, x0)


class TestCertificate:
    @pytest.mark.parametrize("min_eig", [0.0, -1e-3])
    @pytest.mark.parametrize("method", ["full", "rhc"])
    def test_not_strictly_feasible_is_numerical_failure(self, monkeypatch, sys6, cost6,
                                                        amb6_small, method, min_eig):
        """An "optimal" point whose LMI blocks are not strictly positive
        certifies no gain, however good the gain happens to be."""
        real = drsynth.solve_batch
        fake = lambda c, F, dims, starts=None: [
            dataclasses.replace(sol, min_block_eigenvalue=min_eig) for sol in real(c, F, dims, starts)]
        monkeypatch.setattr(drsynth, "solve_batch", fake)
        with pytest.raises(NumericalFailure, match="strictly feasible"):
            _synth(method, sys6, amb6_small, cost6, np.array([2.0, 2.0]))

    def test_failure_reason_in_message(self, monkeypatch, sys6, cost6, amb6_small):
        def broken(*args):
            raise np.linalg.LinAlgError("Schur complement not finite")

        monkeypatch.setattr(sdpcore, "_step", broken)
        with pytest.raises(NumericalFailure, match="numerical_failure: iteration 0: Schur "
                                                   "complement not finite"):
            synth_full(sys6, amb6_small, cost6)

    def test_failed_program_stays_in_its_set(self, monkeypatch, sys6, cost6, amb6_small):
        """A set whose program cannot be written (the eigensolver of psd_sqrt
        does not converge on its Sigma_hat) gets its NumericalFailure in
        synth_full_batch's result; the other sets are solved as synth_full
        solves them alone."""
        odd = _amb(np.zeros(2), 2.0 * np.eye(2), 0.05, 1.5)
        alone = synth_full(sys6, amb6_small, cost6)
        monkeypatch.setattr(drsynth, "psd_sqrt", root_failing_on(odd.sigma_hat, drsynth.psd_sqrt))
        first, failed, last = drsynth.synth_full_batch(sys6, [amb6_small, odd, amb6_small], cost6,
                                                       [None, alone, alone])
        assert isinstance(failed, NumericalFailure) and "did not converge" in str(failed)
        assert np.array_equal(first.controller.K, alone.controller.K)
        assert first.controller.iterations == alone.controller.iterations
        assert np.array_equal(last.controller.K, synth_full(sys6, amb6_small, cost6, alone).controller.K)

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
        sys, amb, cost, x0 = _random_instance(rng, n_x, n_u, n_w, noise, rho_mu, rho_sigma)
        try:
            res = _synth(method, sys, amb, cost, x0)
        except (DrSynthesisError, NumericalFailure):
            return  # no gain returned, so none to check
        _assert_certified(rng, res, method, sys, amb, cost, x0)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 3), n_u=st.integers(1, 3), n_w=st.integers(1, 2),
           noise=st.floats(0.0, 0.3), rho_mu=st.floats(0.0, 0.3),
           rho_sigma=st.floats(1.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_warm_start_keeps_verdict_and_certificate(self, n_x, n_u, n_w, noise, rho_mu,
                                                      rho_sigma, seed):
        """synth_full warm-started from its solution on a second plant of the
        same shapes gives the cold verdict, and its gain passes the oracles
        of test_returned_gain_passes_oracles."""
        rng = np.random.default_rng(seed)
        sys, amb, cost, x0 = _random_instance(rng, n_x, n_u, n_w, noise, rho_mu, rho_sigma)
        other = _random_instance(rng, n_x, n_u, n_w, noise, rho_mu, rho_sigma)
        try:
            start = synth_full(*other[:3])
        except (DrSynthesisError, NumericalFailure):
            return  # no solution to start from
        outcomes = []
        for kwargs in ({}, {"start": start}):
            try:
                outcomes.append(synth_full(sys, amb, cost, **kwargs))
            except (DrSynthesisError, NumericalFailure) as exc:
                outcomes.append(exc)
        cold, warm = outcomes
        assert type(warm) is type(cold), (cold, warm)
        if isinstance(warm, SynthesisResult):
            _assert_certified(rng, warm, "full", sys, amb, cost, x0)


def _random_instance(rng, n_x, n_u, n_w, noise, rho_mu, rho_sigma):
    """A stabilizable plant with multiplicative noise, an ambiguity set, a cost
    and an initial state, all drawn from rng."""
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
    return sys, amb, cost, rng.standard_normal(n_x)


def _assert_certified(rng, res, method, sys, amb, cost, x0):
    """The gain passes the dense mean grid, and at 8 in-set moments drawn
    from rng it is MSS with its cost within the bound."""
    cl = ClosedLoop(sys=sys, K=res.controller.K)
    assert dr_certify_mss(cl, amb, mean_grid=24)

    n_w = sys.n_w
    half = np.asarray(psd_sqrt(np.asarray(amb.sigma_hat)))
    envelope = amb.rho_sigma * np.asarray(amb.sigma_hat)
    env_half = np.asarray(psd_sqrt(envelope))
    for k in range(8):
        d = rng.standard_normal(n_w)
        u, shrink = (1.0, 0.0) if k == 0 else (rng.uniform(), rng.uniform(0.0, 1.0, n_w))
        mu = amb.mu_hat + np.sqrt(amb.rho_mu) * u * half @ (d / np.linalg.norm(d))
        U, _ = np.linalg.qr(rng.standard_normal((n_w, n_w)))
        D = env_half @ (U * shrink) @ U.T @ env_half
        m = DisturbanceMoments(mu=mu, sigma=SymMatrix(envelope - D))
        assert is_mss(cl, m)[0]
        P_cl = np.asarray(closed_loop_value_matrix(cl, m, cost))
        J = np.trace(P_cl) if method == "full" else x0 @ P_cl @ x0
        assert J <= (1.0 + 1e-6) * res.cost_bound


def _memo_runs(calls):
    """The pencil stacks drsynth.solve_batch receives in each call, and the
    call's K, bound and iterations or its exception, by conftest.memo_runs:
    with the memos kept from call to call, and cleared before each call."""
    real = drsynth.solve_batch

    def run(call):
        pencils = []

        def spy(c, F, dims, starts=None):
            pencils.append((dims, c.shape, c.tobytes(), F.shape, F.tobytes()))
            return real(c, F, dims, starts)

        drsynth.solve_batch = spy
        try:
            ctrl = call().controller
        except (DrSynthesisError, NumericalFailure) as exc:
            return pencils, (type(exc).__name__, str(exc))
        return pencils, (ctrl.K.tobytes(), ctrl.cost_bound, ctrl.iterations)

    try:
        return memo_runs([lambda call=call: run(call) for call in calls])
    finally:
        drsynth.solve_batch = real


class TestAssemblyMemo:
    """synth_full and synth_rhc assemble the parts of the pencil that depend
    only on the system and the cost once, and keep them for the last
    (system, cost); a call that reuses them sends solve the same bytes and
    returns the same result as one made with the memo cleared."""

    def test_zero_mean_radius_after_a_positive_one(self, sys6, cost6):
        """A stale c H from the first call would show in the second."""
        calls = [lambda rho_mu=rho_mu: synth_full(sys6, _amb(np.zeros(2), np.eye(2), rho_mu, 1.5),
                                                  cost6)
                 for rho_mu in (0.1, 0.0)]
        kept, cleared = _memo_runs(calls)
        assert kept == cleared
        assert kept[0][0] != kept[1][0]

    def test_rhc_full_rhc_on_one_plant(self, sys6, cost6, amb6_small):
        """synth_rhc's gamma is a variable of its own builder only: a gamma
        left in the shared count would change the variable count after it."""
        x0 = np.array([2.0, 2.0])
        rhc = lambda: synth_rhc(sys6, amb6_small, cost6, x0)
        kept, cleared = _memo_runs([rhc, lambda: synth_full(sys6, amb6_small, cost6), rhc])
        assert kept == cleared
        assert kept[0] == kept[2]

    def test_equal_content_shares_the_entry(self, sys6, cost6, amb6_small):
        twin = MultNoiseSystem(A0=sys6.A0, A=sys6.A, B0=sys6.B0, B=sys6.B)
        twin_cost = CostWeights(Q=cost6.Q, R=cost6.R)
        assert twin.A0 is not sys6.A0 and twin_cost.R is not cost6.R
        first = drsynth._template(sys6, cost6)
        assert drsynth._template(twin, twin_cost) is first
        kept, cleared = _memo_runs([lambda: synth_full(sys6, amb6_small, cost6),
                                    lambda: synth_full(twin, amb6_small, twin_cost)])
        assert kept == cleared
        assert kept[0] == kept[1]

    @pytest.mark.parametrize("changed", ["B1", "R"])
    def test_one_entry_apart_gets_its_own_entry(self, sys6, cost6, amb6_small, changed):
        """B[1] moves by one unit in the last place; R moves from 0.01 to 0.02."""
        other_sys, other_cost = sys6, cost6
        if changed == "B1":
            B1 = np.array(sys6.B[1])
            B1[1, 0] = np.nextafter(B1[1, 0], 1.0)
            other_sys = MultNoiseSystem(A0=sys6.A0, A=sys6.A, B0=sys6.B0, B=(sys6.B[0], B1))
        else:
            other_cost = CostWeights(Q=cost6.Q, R=np.array([[0.02]]))
        first = drsynth._template(sys6, cost6)
        assert drsynth._template(other_sys, other_cost) is not first
        kept, cleared = _memo_runs([lambda: synth_full(sys6, amb6_small, cost6),
                                    lambda: synth_full(other_sys, amb6_small, other_cost),
                                    lambda: synth_full(sys6, amb6_small, cost6)])
        assert kept == cleared
        assert kept[0][0] != kept[1][0]

    def test_template_arrays_are_read_only(self, sys6, cost6):
        W, V, chan, c, F, dims, at, back = drsynth._template(sys6, cost6)
        for a in [W.coef, V.coef, chan, F]:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0, 0] = 1.0
        for a in [c, at, back]:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 3), n_u=st.integers(1, 3), n_w=st.integers(1, 2),
           noise=st.floats(0.0, 0.3), rho_mu=st.floats(0.0, 0.3),
           rho_sigma=st.floats(1.0, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_random_plants(self, n_x, n_u, n_w, noise, rho_mu, rho_sigma, seed):
        """synth_rhc, synth_full on two ambiguity sets (the second with
        rho_mu = 0) and synth_rhc again on one random plant."""
        rng = np.random.default_rng(seed)
        sys, amb, cost, x0 = _random_instance(rng, n_x, n_u, n_w, noise, rho_mu, rho_sigma)
        other = _random_instance(rng, n_x, n_u, n_w, noise, 0.0, rho_sigma)[1]
        rhc = lambda: synth_rhc(sys, amb, cost, x0)
        kept, cleared = _memo_runs([rhc, lambda: synth_full(sys, amb, cost),
                                    lambda: synth_full(sys, other, cost), rhc])
        assert kept == cleared


class TestMonotoneInRadii:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 3), n_u=st.integers(1, 3), n_w=st.integers(1, 2),
           noise=st.floats(0.0, 0.3), radius=st.sampled_from(["rho_mu", "rho_sigma"]),
           seed=st.integers(0, 2**32 - 1))
    def test_objectives_along_a_warm_started_sweep(self, n_x, n_u, n_w, noise, radius, seed):
        """The feasible sets shrink as either radius grows, so tr(W), which
        synth_full maximizes, does not increase and gamma, which synth_rhc
        minimizes, does not decrease, up to the GAP_TOL of the previous
        solve.  synth_full is warm-started from the previous radius and
        matches its cold solve to 1e-6, relative to max(1, |tr(W)|) as
        GAP_TOL is."""
        rng = np.random.default_rng(seed)
        sys, amb, cost, x0 = _random_instance(rng, n_x, n_u, n_w, noise, 0.1, 1.5)
        grid = {"rho_mu": (0.0, 0.05, 0.1, 0.2, 0.3), "rho_sigma": (1.0, 1.25, 1.5, 1.75, 2.0)}
        slack = lambda v: sdpcore.GAP_TOL * max(1.0, abs(v))
        start, tr_W, gamma = None, np.inf, -np.inf
        for value in grid[radius]:
            amb = dataclasses.replace(amb, **{radius: value})
            try:
                cold = synth_full(sys, amb, cost)
            except (DrSynthesisError, NumericalFailure):
                break  # every larger set has no certified gain either
            start = synth_full(sys, amb, cost, start=start)
            assert abs(start.solution.objective_value - cold.solution.objective_value) <= \
                1e-6 * max(1.0, abs(cold.solution.objective_value))
            assert -start.solution.objective_value <= tr_W + slack(tr_W)
            tr_W = -start.solution.objective_value
            try:
                rhc = synth_rhc(sys, amb, cost, x0).cost_bound
            except (DrSynthesisError, NumericalFailure):
                continue
            assert rhc >= gamma - slack(gamma)
            gamma = rhc


def _outcome(fn, *args):
    """fn(*args), or the exception it raised when it returned no gain."""
    try:
        return fn(*args)
    except (DrSynthesisError, NotStabilizableError, NumericalFailure) as exc:
        return exc


class TestChannelPermutation:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_x=st.integers(1, 3), n_u=st.integers(1, 3), noise=st.floats(0.0, 0.3),
           rho_mu=st.floats(0.0, 0.3), rho_sigma=st.floats(1.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_swapping_the_noise_channels(self, n_x, n_u, noise, rho_mu, rho_sigma, seed):
        """Swapping (A_1, B_1) with (A_2, B_2), with the entries of mu_hat and
        the rows and columns of Sigma_hat, describes the same set of
        distributions: synth_full keeps its verdict and tr(W) to GAP_TOL, and
        dr_covariance its value matrix to 1e-10."""
        rng = np.random.default_rng(seed)
        sys, amb, cost, _ = _random_instance(rng, n_x, n_u, 2, noise, rho_mu, rho_sigma)
        swap = [1, 0]
        swapped_sys = MultNoiseSystem(A0=sys.A0, A=sys.A[::-1], B0=sys.B0, B=sys.B[::-1])
        sigma = np.asarray(amb.sigma_hat)
        swapped_amb = dataclasses.replace(amb, mu_hat=amb.mu_hat[swap],
                                          sigma_hat=SymMatrix(sigma[np.ix_(swap, swap)]))
        full, swapped_full = (_outcome(synth_full, s, a, cost)
                              for s, a in ((sys, amb), (swapped_sys, swapped_amb)))
        assert type(full) is type(swapped_full), (full, swapped_full)
        if isinstance(full, SynthesisResult):
            tr_W, swapped_tr_W = (-r.solution.objective_value for r in (full, swapped_full))
            assert abs(tr_W - swapped_tr_W) <= sdpcore.GAP_TOL * max(1.0, tr_W)
        cov, swapped_cov = (_outcome(dr_covariance, s, a.mu_hat, a, cost)
                            for s, a in ((sys, amb), (swapped_sys, swapped_amb)))
        assert type(cov) is type(swapped_cov), (cov, swapped_cov)
        if not isinstance(cov, Exception):
            P, swapped_P = np.asarray(cov.P), np.asarray(swapped_cov.P)
            assert np.linalg.norm(P - swapped_P) <= 1e-10 * np.linalg.norm(P)


def _stage_calls(run) -> list:
    """(sys, ambs, cost, starts, results, stack) of each synth_full_batch call
    run() makes, stack being a copy of the (c, F, dims) it solves."""
    calls, stacks = [], []
    real_batch, real_stack = drsynth.synth_full_batch, drsynth.solve_batch

    def batch(sys, ambs, cost, starts=None):
        results = real_batch(sys, ambs, cost, starts)
        calls.append((sys, ambs, cost, starts or [None] * len(ambs), results))
        return results

    def stack(c, F, dims, starts):
        stacks.append((np.array(c), F.copy(), dims))
        return real_stack(c, F, dims, starts)

    drsynth.synth_full_batch, drsynth.solve_batch = batch, stack
    try:
        run()
    finally:
        drsynth.synth_full_batch, drsynth.solve_batch = real_batch, real_stack
    assert len(calls) == len(stacks)
    return [call + (st,) for call, st in zip(calls, stacks)]


def _programs_of(sys, ambs, cost) -> tuple:
    """The stack (c, F, dims) of the sets' synthesis programs, each as
    oracles.thm6_builder and LmiBuilder.build write it, set by set."""
    programs = []
    for amb in ambs:
        b, W, V, blocks = thm6_builder(sys, amb, cost)
        programs.append(b.build(-W.trace(), blocks))
    return (*(np.concatenate([prog[i] for prog in programs]) for i in (0, 1)), programs[0][2])


class TestStageStack:
    """synth_full_batch writes each stage's programs as one stack from the
    template; the stack is, byte for byte, the programs oracles.thm6_builder
    and LmiBuilder.build write set by set, and the results are those
    solve_batch returns on them."""

    def _check(self, calls):
        for sys, ambs, cost, starts, results, (c, F, dims) in calls:
            want_c, want_F, want_dims = _programs_of(sys, ambs, cost)
            assert (dims, c.shape, F.shape) == (want_dims, want_c.shape, want_F.shape)
            assert (c.tobytes(), F.tobytes()) == (want_c.tobytes(), want_F.tobytes())
            sols = sdpcore.solve_batch(want_c, want_F, want_dims,
                                       [None if s is None else s.solution for s in starts])
            W, V = drsynth._template(sys, cost)[:2]
            for res, want in zip(results, drsynth._controllers(sols, W, V, "dr_full")):
                if isinstance(want, Exception):
                    assert (type(res), str(res)) == (type(want), str(want))
                else:
                    assert_same_solution(res.solution, want.solution)
                    assert res.controller.K.tobytes() == want.controller.K.tobytes()

    def test_identity_plants(self):
        from identity_digest import plants  # builds the plants' inputs only when asked

        calls = _stage_calls(lambda: [drsynth.synth_full_batch(sys, [amb], cost)
                                      for _, sys, amb, cost, _ in plants()])
        assert len(calls) == 300
        self._check(calls)

    def test_sweep_paper_ops(self):
        workload = bench_workloads().WORKLOADS["sweep-paper"](0)
        calls = _stage_calls(lambda: [workload.run(workload.make_input(index)) for index in range(4)])
        assert [len(call[1]) for call in calls] == [1, 4, 4, 3] * 4
        self._check(calls)

    @pytest.mark.parametrize("failing", [0, 2, 3])
    def test_set_that_fails_to_write_gets_its_own_error(self, monkeypatch, failing):
        """In sweep-paper op 0's second stage, one set whose eigensolver fails
        gets its NumericalFailure; the others get what solve_batch returns on
        their programs alone."""
        workload = bench_workloads().WORKLOADS["sweep-paper"](0)
        sys, ambs, cost, starts, _, _ = _stage_calls(lambda: workload.run(workload.make_input(0)))[1]
        monkeypatch.setattr(drsynth, "psd_sqrt", root_failing_on(ambs[failing].sigma_hat, drsynth.psd_sqrt))
        results = drsynth.synth_full_batch(sys, ambs, cost, starts)
        assert isinstance(results[failing], NumericalFailure)
        others = [j for j in range(len(ambs)) if j != failing]
        monkeypatch.undo()
        sols = sdpcore.solve_batch(*_programs_of(sys, [ambs[j] for j in others], cost),
                                   [starts[j].solution for j in others])
        for j, sol in zip(others, sols):
            assert_same_solution(results[j].solution, sol)
