"""Nominal stochastic LQR and the covariance-only robust variant.

The nominal problem is the generalized Riccati equation
P = Q + F(P) - H(P)^T (R + G(P))^{-1} H(P).  It is solved by a short
value-iteration warm-up from P_0 = 0, finished by Newton (policy-iteration)
steps: Kleinman's iteration, extended to multiplicative noise by Damm &
Hinrichsen (2001).  Each Newton step evaluates the greedy gain of the current
iterate exactly, through one linear solve with the second-moment operator,
and the steps converge quadratically.  The covariance-only robust controller
is the same pipeline run with the covariance inflated to rho_sigma *
Sigma_hat, which is worst-case exact when the mean is known.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matcore import (DomainError, NumericalFailure, ShapeError, SymMatrix, as_matrix,
                      symmetrize, unvec, vec)
from .stability import ClosedLoop, second_moment_operator
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem, fgh
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
    P: SymMatrix
    cost_kind: str  # "exact" | "upper_bound"
    method: str  # "nominal_vi" | "dr_covariance" | "dr_full" | "dr_rhc"
    iterations: int = 0
    cost_bound: float | None = None

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        P = self.P if isinstance(self.P, SymMatrix) else SymMatrix(np.atleast_2d(self.P))
        if np.linalg.eigvalsh(as_matrix(P))[0] <= 0:
            raise ValueError("value matrix P must be strictly positive definite")
        if K.shape[1] != P.dim:
            raise ValueError(f"gain shape {K.shape} inconsistent with P dimension {P.dim}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "P", P)

    def to_json_dict(self) -> dict:
        d = {
            "K": self.K.tolist(),
            "P": as_matrix(self.P).tolist(),
            "method": self.method,
            "cost_kind": self.cost_kind,
            "trace_P": float(np.trace(as_matrix(self.P))),
        }
        if self.cost_bound is not None:
            d["cost_bound"] = float(self.cost_bound)
        return d


def _gain_from(P, sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights) -> np.ndarray:
    _, G, H = fgh(sys, m, P)
    R = as_matrix(cost.R)
    try:
        c, low = scipy.linalg.cho_factor(R + G)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"R + G(P) not positive definite: {exc}") from exc
    return -scipy.linalg.cho_solve((c, low), H)


def _newton_step(P, sys: MultNoiseSystem, m: DisturbanceMoments,
                 cost: CostWeights) -> np.ndarray | None:
    """Value matrix of the greedy gain K = gain(P), or None when K is not certified.

    Solves (I - T_K) vec V = vec(Q + K^T R K).  The operator L_K is positive
    and Q + K^T R K > 0, so a solution V > 0 exists iff rho(L_K) < 1: a
    finite V with a Cholesky factor certifies mean-square stability.
    """
    n = sys.n_x
    K = _gain_from(P, sys, m, cost)
    T = second_moment_operator(ClosedLoop(sys=sys, K=K), m)
    rhs = as_matrix(cost.Q) + K.T @ as_matrix(cost.R) @ K
    try:
        V = symmetrize(unvec(np.linalg.solve(np.eye(n * n) - T, vec(rhs)), n))
        if not np.all(np.isfinite(V)):  # cholesky returns NaN rather than raising
            return None
        np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        return None
    return V


def value_iteration(sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights) -> Controller:
    """Solve the stochastic LQR Riccati equation: value-iteration warm-up, Newton finish.

    The warm-up sweeps P_{k+1} = Q + F(P_k) - H^T (R + G)^{-1} H from P_0 = 0
    are monotone (P_{k+1} >= P_k); a diverging trace signals that no
    mean-square stabilizing gain exists.  Before sweeps k = 0, 1, 2, 4, 8, ...
    and once the sweeps meet the stopping rule, the greedy gain of P_k is
    evaluated exactly (see _newton_step).  The first evaluation that
    certifies its gain as mean-square stabilizing starts the Newton steps
    K_{j+1} = gain(P_j), P_{j+1} = value(K_{j+1}), which decrease
    monotonically to the stabilizing solution; they stop when
    |P_{j+1} - P_j| <= TOL (1 + |P_{j+1}|), and K = gain(P) is returned.

    Controller.iterations counts sweeps plus Newton steps (the certifying
    evaluation included), and MAX_ITER bounds that total.  Divergence raises
    NotStabilizableError; a spent budget, sweeps that converge to an
    uncertified gain, or a Newton step that loses its certificate or
    monotonicity raise NumericalFailure.
    """
    n = sys.n_x
    Q, R = as_matrix(cost.Q), as_matrix(cost.R)
    P = np.zeros((n, n))
    probe = 0
    for k in range(MAX_ITER):
        if k == probe:
            probe = max(1, 2 * k)
            P_K = _newton_step(P, sys, m, cost)
            if P_K is not None:
                return _newton_finish(sys, m, cost, P_K, k + 1)
        F, G, H = fgh(sys, m, P)
        try:
            c, low = scipy.linalg.cho_factor(R + G)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"R + G(P) lost positive definiteness: {exc}") from exc
        P_next = symmetrize(Q + F - H.T @ scipy.linalg.cho_solve((c, low), H))
        if np.linalg.eigvalsh(P_next - P)[0] < -1e-8 * (1.0 + np.linalg.norm(P)):
            raise NumericalFailure("value iteration lost monotonicity")
        delta = np.linalg.norm(P_next - P)
        P = P_next
        if np.trace(P) > DIVERGENCE_TRACE:
            raise NotStabilizableError(
                "value iteration diverged: system is not mean-square stabilizable under these moments"
            )
        if delta <= TOL * (1.0 + np.linalg.norm(P)):
            P_K = _newton_step(P, sys, m, cost)
            if P_K is None:
                raise NumericalFailure("value iteration converged to a gain that is not "
                                       "certified mean-square stabilizing")
            return _newton_finish(sys, m, cost, P_K, k + 2)
    raise NumericalFailure(
        f"value iteration did not converge within {MAX_ITER} sweeps (trace {np.trace(P):.3e})"
    )


def _newton_finish(sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights,
                   P: np.ndarray, steps: int) -> Controller:
    """Newton steps from the certified value matrix P, reached after `steps` iterations."""
    while steps < MAX_ITER:
        P_next = _newton_step(P, sys, m, cost)
        steps += 1
        if P_next is None:
            raise NumericalFailure("Newton step lost the mean-square stability certificate")
        if np.linalg.eigvalsh(P - P_next)[0] < -1e-8 * (1.0 + np.linalg.norm(P)):
            raise NumericalFailure("Newton step lost monotonicity")
        delta = np.linalg.norm(P_next - P)
        P = P_next
        if delta <= TOL * (1.0 + np.linalg.norm(P)):
            K = _gain_from(P, sys, m, cost)
            return Controller(K=K, P=SymMatrix(P), cost_kind="exact", method="nominal_vi",
                              iterations=steps)
    raise NumericalFailure(f"Newton steps did not converge within {MAX_ITER} iterations "
                           f"(trace {np.trace(P):.3e})")


def dr_covariance(sys: MultNoiseSystem, mu_known, amb: MomentAmbiguity,
                  cost: CostWeights) -> Controller:
    """Covariance-only robust controller: nominal pipeline at rho_sigma * Sigma_hat.

    The mean is treated as known (rho_mu is ignored).  Worst-case exact: the
    support-function maximum over {Sigma <= rho_sigma Sigma_hat} is attained
    at the inflated covariance.
    """
    inflated = DisturbanceMoments(mu=np.asarray(mu_known, dtype=float),
                                  sigma=SymMatrix(amb.rho_sigma * as_matrix(amb.sigma_hat)))
    try:
        ctrl = value_iteration(sys, inflated, cost)
    except NotStabilizableError as exc:
        raise NotStabilizableError(
            f"system not stabilizable under covariance inflated by rho_sigma = {amb.rho_sigma:.4f}"
        ) from exc
    return Controller(K=ctrl.K, P=ctrl.P, cost_kind="exact", method="dr_covariance",
                      iterations=ctrl.iterations)


def save_controller(ctrl: Controller, path) -> None:
    with open(path, "w") as f:
        json.dump(ctrl.to_json_dict(), f, indent=2)


def load_gain(path) -> np.ndarray:
    """Read a gain matrix from controller JSON (only the "K" field is used).

    A file without a numeric "K" raises ShapeError, a non-finite K DomainError.
    """
    with open(path) as f:
        d = json.load(f)
    try:
        K = np.atleast_2d(np.asarray(d["K"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed controller file: {exc!r}") from exc
    if not np.all(np.isfinite(K)):
        raise DomainError("gain K has non-finite entries")
    return K
