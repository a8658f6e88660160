"""Nominal stochastic LQR and the covariance-only robust variant.

The nominal problem is the generalized Riccati equation
P = Q + F(P) - H(P)^T (R + G(P))^{-1} H(P).  It is solved by one loop that
computes the greedy gain of the current iterate once per pass: a short
value-iteration warm-up from P_0 = 0, finished by Newton (policy-iteration)
steps: Kleinman's iteration, extended to multiplicative noise by Damm &
Hinrichsen (2001).  Each Newton step evaluates the greedy gain exactly,
through stability.lyapunov_value, and the steps converge quadratically.
The covariance-only robust controller is the same pipeline run with the
covariance inflated to rho_sigma * Sigma_hat, which is worst-case exact when
the mean is known.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .matcore import NumericalFailure, ShapeError, SymMatrix, as_matrix, require_finite, symmetrize
from .stability import ClosedLoop, lyapunov_value, second_moment_operator
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
    method: str  # "nominal_vi" | "dr_covariance" | "dr_full" | "dr_rhc"
    iterations: int = 0
    cost_bound: float | None = None

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        require_finite("gain K", K)
        P = self.P if isinstance(self.P, SymMatrix) else SymMatrix(np.atleast_2d(self.P))
        if np.linalg.eigvalsh(as_matrix(P))[0] <= 0:
            raise ValueError("value matrix P must be strictly positive definite")
        if K.shape[1] != P.dim:
            raise ValueError(f"gain shape {K.shape} inconsistent with P dimension {P.dim}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "P", P)

    @property
    def cost_kind(self) -> str:
        """Reads "upper_bound" when the controller carries a cost bound, else "exact"."""
        return "exact" if self.cost_bound is None else "upper_bound"

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


def _gain_from(P, sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights):
    """Greedy gain K = -(R + G(P))^{-1} H(P) of P, returned as (K, F(P), H(P)).

    Calls LAPACK with the arguments scipy's cho_factor and cho_solve pass it."""
    F, G, H = fgh(sys, m, P)
    c, info = dpotrf(as_matrix(cost.R) + G, lower=0, clean=0)
    if info != 0:
        raise NumericalFailure(f"R + G(P) not positive definite: dpotrf info {info}")
    K = -dpotrs(c, H, lower=0)[0]
    if not np.isfinite(K).all():  # dpotrf passes NaN through with info 0
        raise NumericalFailure("greedy gain is not finite")
    return K, F, H


def value_iteration(sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights) -> Controller:
    """Solve the stochastic LQR Riccati equation: value-iteration warm-up, Newton finish.

    Each pass computes the greedy gain K = -(R + G(P))^{-1} H(P) of the
    current iterate once, then either evaluates the value of K exactly, by
    the certified solve stability.lyapunov_value, or sweeps
    P <- Q + F(P) + H(P)^T K.  The sweeps from P_0 = 0 are monotone
    (P_{k+1} >= P_k); a diverging trace signals that no mean-square
    stabilizing gain exists.  Before sweeps k = 0, 1, 2, 4, 8, ...
    and once the sweeps meet the stopping rule, K is evaluated instead.  The
    first evaluation that certifies K as mean-square stabilizing starts the
    Newton steps P_{j+1} = value(gain(P_j)), which decrease monotonically to
    the stabilizing solution; they stop when |P_{j+1} - P_j| <= TOL (1 + |P_{j+1}|),
    and the gain of the final P is returned.

    Controller.iterations counts sweeps plus Newton steps (the certifying
    evaluation included), and MAX_ITER bounds that total.  Divergence raises
    NotStabilizableError; a spent budget, sweeps that converge to an
    uncertified gain, or a Newton step that loses its certificate or
    monotonicity raise NumericalFailure.
    """
    n = sys.n_x
    Q, R = as_matrix(cost.Q), as_matrix(cost.R)
    P = np.zeros((n, n))
    k, probe, newton, converged = 0, 0, False, False
    while True:
        K, F, H = _gain_from(P, sys, m, cost)
        if newton and converged:
            return Controller(K=K, P=SymMatrix(P), method="nominal_vi", iterations=k)
        if k >= MAX_ITER:
            raise NumericalFailure(f"value iteration did not converge within {MAX_ITER} "
                                   f"iterations (trace {np.trace(P):.3e})")
        P_next = None
        if newton or converged or k == probe:
            T = second_moment_operator(ClosedLoop(sys=sys, K=K), m)
            probe, P_next = max(1, 2 * k), lyapunov_value(T, Q + K.T @ R @ K)
        if P_next is None and (newton or converged):
            raise NumericalFailure("Newton step lost the mean-square stability certificate"
                                   if newton else "sweeps converged to an uncertified gain")
        if P_next is not None and not newton:  # the certifying evaluation starts Newton
            P, k, newton, converged = P_next, k + 1, True, False
            continue
        if P_next is None:
            P_next = symmetrize(Q + F + H.T @ K)
        step = P - P_next if newton else P_next - P
        if np.linalg.eigvalsh(step)[0] < -1e-8 * (1.0 + np.linalg.norm(P)):
            raise NumericalFailure(("Newton step" if newton else "value iteration")
                                   + " lost monotonicity")
        delta = np.linalg.norm(step)
        P, k = P_next, k + 1
        if not newton and np.trace(P) > DIVERGENCE_TRACE:
            raise NotStabilizableError(
                "value iteration diverged: system is not mean-square stabilizable under these moments"
            )
        converged = delta <= TOL * (1.0 + np.linalg.norm(P))


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
    return Controller(K=ctrl.K, P=ctrl.P, method="dr_covariance", iterations=ctrl.iterations)


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
    require_finite("gain K", K)
    return K
