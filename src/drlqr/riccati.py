"""Nominal stochastic LQR and the covariance-only robust variant.

The nominal problem is the generalized Riccati equation
P = Q + F(P) - H(P)^T (R + G(P))^{-1} H(P).  It is solved by Newton
(policy-iteration) steps, Kleinman's iteration extended to multiplicative
noise by Damm & Hinrichsen (2001), from the certainty-equivalent gain (the
noise-free optimum at the mean) when its value is certified, else after a
value-iteration warm-up from P_0 = 0.  Each Newton step evaluates the greedy
gain exactly by stability.lyapunov_value; the steps converge quadratically.
The covariance-only robust controller is the same pipeline run with the
covariance inflated to rho_sigma * Sigma_hat, which is worst-case exact when
the mean is known.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .matcore import (NumericalFailure, _memo_last, all_finite, array_field, dgesv, dpotrf,
                      dpotrs, frobenius, np_eigvalsh, np_solve, sym_field, symmetrize)
from .stability import ClosedLoop, _svec_operator, lyapunov_value
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem, check_cost, fgh, gh
from .ambiguity import MomentAmbiguity

TOL = 1e-10  # relative change in P at which the iteration stops
MAX_ITER = 200_000  # budget of sweeps plus Newton steps
DIVERGENCE_TRACE = 1e12


class NotStabilizableError(RuntimeError):
    """No linear gain renders the system mean-square stable under these moments."""


@dataclass(frozen=True)
class Controller:
    """Static state-feedback gain with its value matrix and provenance."""

    K: np.ndarray
    P: np.ndarray  # read-only, symmetric
    method: str  # "nominal_vi" | "dr_covariance" | "dr_full" | "dr_rhc"
    iterations: int = 0
    cost_bound: float | None = None

    def __post_init__(self):
        K = array_field("gain K", self.K)
        P = sym_field("P", self.P, definite=True)
        if K.shape[1] != P.shape[0]:
            raise ValueError(f"gain shape {K.shape} inconsistent with P dimension {P.shape[0]}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "P", P)

    def to_json_dict(self) -> dict:
        d = {
            "K": self.K.tolist(),
            "P": self.P.tolist(),
            "method": self.method,
            "cost_kind": "exact" if self.cost_bound is None else "upper_bound",
            "trace_P": float(np.trace(self.P)),
        }
        if self.cost_bound is not None:
            d["cost_bound"] = float(self.cost_bound)
        return d


def _gain_from(G, H, R):
    """Greedy gain K = -(R + G(P))^{-1} H(P) of P, from G(P) and H(P) alone.

    The caller forms G and H (sysmodel.gh, or fgh on a warm-up pass, which
    also needs F).  Calls LAPACK with the arguments scipy's cho_factor and
    cho_solve pass it."""
    c, info = dpotrf(R + G, lower=0, clean=0)
    if info != 0:
        raise NumericalFailure(f"R + G(P) not positive definite: dpotrf info {info}")
    K = -dpotrs(c, H, lower=0)[0]
    if not all_finite(K):  # dpotrf passes NaN through with info 0
        raise NumericalFailure("greedy gain is not finite")
    return K


@_memo_last(lambda sys, m, cost: sys.stacked + (m.mu, cost.Q, cost.R))
def _ce_gain(sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights):
    """Certainty-equivalent gain: the optimal gain of the noise-free Riccati
    equation at A, B = sys.eval_AB(m.mu), by structure-preserving doubling
    (Anderson 1978; Chu, Fan, Lin & Wang 2004), or None if the doubling fails.
    Step j doubles the horizon, so 18 steps cover 2^18 > MAX_ITER stages.  The
    gain does not depend on m.sigma, so the last one is kept, read-only, for
    the last system, mean and cost (matcore._memo_last): dr_covariance and
    value_iteration at one mean solve once.  The iterates H, G and A live in
    one state array, updated in place, and dgesv's right-hand side [A | G] in
    one buffer, so a step checks the state's finiteness once."""
    A0, B = sys.eval_AB(m.mu)
    n, I = sys.n_x, np.eye(sys.n_x)
    state, rhs = np.empty((3, n, n)), np.empty((n, 2 * n))
    H, G, A = state
    H[...], A[...] = cost.Q, A0
    G[...] = B @ np_solve(cost.R, B.T)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(18):
            rhs[:, :n], rhs[:, n:] = A, G
            X, info = dgesv(I + G @ H, rhs)[2:]
            dH = A.T @ H @ X[:, :n]
            G += A @ X[:, n:] @ A.T  # G and H from the old A, then A
            H += dH
            A[...] = A @ X[:, :n]
            if info != 0 or not all_finite(state):
                return None
            if (np.maximum.reduce(np.abs(dH), axis=None)  # the 2-norm could overflow
                    <= TOL * np.maximum.reduce(np.abs(H), axis=None)):
                mean = DisturbanceMoments(mu=m.mu, sigma=np.zeros_like(m.sigma))
                K = _gain_from(*gh(sys, mean, symmetrize(H)), cost.R)
                K.setflags(write=False)
                return K
    return None


def value_iteration(sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights,
                    start: Controller | None = None) -> Controller:
    """Solve the stochastic LQR Riccati equation by Newton steps from a certified gain.

    Each pass forms the moment operators of the current iterate P from one
    Kronecker middle: G(P) and H(P) alone on a Newton pass (sysmodel.gh), and
    F(P) as well on a warm-up pass (sysmodel.fgh), the only kind that can
    sweep.  It computes the greedy gain K = -(R + G(P))^{-1} H(P) once, then
    either evaluates the value of K exactly, by the certified solve
    stability.lyapunov_value on the operator of (sys, K), which K, the
    package's own gain, reaches without a new ClosedLoop, or sweeps
    P <- Q + F(P) + H(P)^T K.  The gain of start, an earlier Controller of the
    same shape (else ShapeError), and then the certainty-equivalent gain
    (_ce_gain) are tried in turn: the first whose value lyapunov_value
    certifies under m is the first iterate, and the Newton steps, which
    converge from any certified gain (Damm & Hinrichsen 2001), start at once.
    Otherwise the sweeps run from P_0 = 0; they are monotone (P_{k+1} >= P_k),
    and a diverging trace signals that no mean-square stabilizing gain exists.
    Before sweeps k = 0, 1, 2, 4, 8, ... and once the sweeps meet the stopping
    rule, K is evaluated instead.  The
    first evaluation that certifies K as mean-square stabilizing starts the
    Newton steps P_{j+1} = value(gain(P_j)), which decrease monotonically to
    the stabilizing solution; they stop when |P_{j+1} - P_j| <= TOL (1 + |P_{j+1}|),
    and the gain of the final P is returned.

    Controller.iterations counts sweeps plus Newton steps, the certifying
    evaluation (of a certified start too) included, and MAX_ITER bounds that
    total.  Divergence raises NotStabilizableError; a spent budget, sweeps that
    converge to an uncertified gain, or a Newton step that loses its
    certificate or monotonicity raise NumericalFailure.
    """
    check_cost(sys, cost)
    n = sys.n_x

    def value(K):  # the certified value of K under m, or None
        return lyapunov_value(_svec_operator(sys, K, m), cost.Q + K.T @ cost.R @ K)

    P = None if start is None else value(ClosedLoop(sys=sys, K=start.K).K)  # checks its shape
    if P is None:
        K = _ce_gain(sys, m, cost)
        P = None if K is None else value(K)
    newton = P is not None  # a certified start needs no warm-up
    P, k, probe, converged = P if newton else np.zeros((n, n)), int(newton), 0, False
    while True:
        if newton:
            G, H = gh(sys, m, P)
        else:  # a warm-up pass may sweep, which reads F(P) too
            F, G, H = fgh(sys, m, P)
        K = _gain_from(G, H, cost.R)
        if newton and converged:
            return Controller(K=K, P=P, method="nominal_vi", iterations=k)
        if k >= MAX_ITER:
            raise NumericalFailure(f"value iteration did not converge within {MAX_ITER} "
                                   f"iterations (trace {np.trace(P):.3e})")
        P_next = None
        if newton or converged or k == probe:
            probe, P_next = max(1, 2 * k), value(K)
        if P_next is None and (newton or converged):
            raise NumericalFailure("Newton step lost the mean-square stability certificate"
                                   if newton else "sweeps converged to an uncertified gain")
        if P_next is not None and not newton:  # the certifying evaluation starts Newton
            P, k, newton, converged = P_next, k + 1, True, False
            continue
        if P_next is None:
            P_next = symmetrize(cost.Q + F + H.T @ K)
        step = P - P_next if newton else P_next - P
        if np_eigvalsh(step)[0] < -1e-8 * (1.0 + frobenius(P)):
            raise NumericalFailure(("Newton step" if newton else "value iteration")
                                   + " lost monotonicity")
        delta = frobenius(step)
        P, k = P_next, k + 1
        if not newton and np.trace(P) > DIVERGENCE_TRACE:
            raise NotStabilizableError(
                "value iteration diverged: system is not mean-square stabilizable under these moments"
            )
        converged = delta <= TOL * (1.0 + frobenius(P))


def dr_covariance(sys: MultNoiseSystem, mu_known, amb: MomentAmbiguity,
                  cost: CostWeights, start: Controller | None = None) -> Controller:
    """Covariance-only robust controller: nominal pipeline at rho_sigma * Sigma_hat.

    The mean is treated as known (rho_mu is ignored).  Worst-case exact: the
    support-function maximum over {Sigma <= rho_sigma Sigma_hat} is attained
    at the inflated covariance.  start, an earlier controller for the same
    system, is value_iteration's start: its gain is tried before the
    certainty-equivalent one.
    """
    inflated = DisturbanceMoments(mu=mu_known, sigma=amb.rho_sigma * amb.sigma_hat)
    try:
        ctrl = value_iteration(sys, inflated, cost, start)
    except NotStabilizableError as exc:
        raise NotStabilizableError(
            f"system not stabilizable under covariance inflated by rho_sigma = {amb.rho_sigma:.4f}"
        ) from exc
    # ctrl's K and P were checked when it was built: relabel a copy, do not check them again
    ctrl = copy.copy(ctrl)
    object.__setattr__(ctrl, "method", "dr_covariance")
    return ctrl
