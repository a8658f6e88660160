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

One loop solves a batch of such programs on one system and cost: the sets of
a sweep stage (dr_covariance_batch), or one (value_iteration, dr_covariance).
Each keeps its own sweeps, probes, solves and verdict, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (NumericalFailure, ShapeError, _memo_last, _one, all_finite, array_field, dgesv,
                      dpotrf, dpotrs, frobenius, np_eigvalsh, np_solve, sym_field, symmetrize)
from .stability import ClosedLoop, _svec_operator, lyapunov_value
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem, check_cost, _extended_moment, fgh, gh
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
                mean = _extended_moment(m.mu, np.zeros_like(m.sigma))  # the noise-free moments
                K = _gain_from(*gh(sys, mean, symmetrize(H)), cost.R)
                K.setflags(write=False)
                return K
    return None


def _values(sys: MultNoiseSystem, K: np.ndarray, S: np.ndarray, cost: CostWeights, slots: list,
            everyone: list) -> list:
    """The certified value of the gain in each of the slots of the stack K under its extended
    moment in S, or None: one operator build, then each gain's own solve.  All slots take the
    stacks whole; a lone gain goes unstacked, the same bits without numpy's broadcasting."""
    if slots != everyone:
        K, S = K[slots], S[slots]
    if len(K) == 1:
        K, S = K[0], S[0]
    T, C = _svec_operator(sys, K, S), cost.Q + K.swapaxes(-1, -2) @ cost.R @ K
    return [lyapunov_value(T, C)] if T.ndim == 2 else list(map(lyapunov_value, T, C))


def _newton_batch(sys: MultNoiseSystem, ms: list, cost: CostWeights, starts: list,
                  method: str) -> list:
    """value_iteration for each moments ms[j] from starts[j]: per program, the Controller,
    labelled method, or the NotStabilizableError or NumericalFailure its own call raises.
    The running programs' moments and iterates sit in stacks, compacted when one leaves; a
    pass forms their moment operators (gh, or fgh while any sweeps) as one stack."""
    check_cost(sys, cost)
    p, n, Q, R = len(ms), sys.n_x, cost.Q, cost.R
    # by slot: moments, iterate and the gains evaluated; by program: the rest
    S, P, gains = np.array([m.extended_moment for m in ms]), np.zeros((p, n, n)), np.empty((p, R.shape[0], n))
    if S.shape[-1] != sys.n_w + 1:
        raise ShapeError(f"moments have n_w={S.shape[-1] - 1}, system has n_w={sys.n_w}")
    k, probe, norm, newton, converged = [0] * p, [0] * p, [0.0] * p, [False] * p, [False] * p
    gain, value, out, ids = [None] * p, [None] * p, [None] * p, list(range(p))
    everyone = ids  # the list of every slot
    # the first iterate: the value of start's gain, else of the certainty-equivalent gain, if certified
    for first in (lambda j: None if starts[j] is None else ClosedLoop(sys=sys, K=starts[j].K).K,
                  lambda j: _ce_gain(sys, ms[j], cost)):
        tried = []
        for j in ids:
            K = None if newton[j] else first(j)
            if K is not None:
                gains[j] = K
                tried.append(j)
        for j, V in zip(tried, _values(sys, gains, S, cost, tried, everyone) if tried else ()):
            if V is not None:
                P[j], k[j], norm[j], newton[j] = V, 1, frobenius(V), True
    sweeping = False in newton
    while True:
        F, G, H = fgh(sys, S, P) if sweeping else (None, *gh(sys, S, P))  # sweeps read F(P) too
        probed, left = [], False
        for i, j in enumerate(ids):  # each program's gain, then its verdict, else whether to probe
            try:
                gain[j] = K = _gain_from(G[i], H[i], R)
            except NumericalFailure as exc:
                out[j] = exc
            else:
                if newton[j] and converged[j]:
                    out[j] = Controller(K=K, P=P[i], method=method, iterations=k[j])
                elif k[j] >= MAX_ITER:
                    out[j] = NumericalFailure(f"value iteration did not converge within {MAX_ITER} "
                                              f"iterations (trace {np.trace(P[i]):.3e})")
                else:
                    if newton[j] or converged[j] or k[j] == probe[j]:
                        probe[j], gains[i] = max(1, 2 * k[j]), K
                        probed.append(i)
                    continue
            left = True
        for i, V in zip(probed, _values(sys, gains, S, cost, probed, everyone) if probed else ()):
            value[ids[i]] = V
        for i, j in enumerate(ids):  # each program's step, or its verdict
            if out[j] is not None:
                continue
            P_next, value[j] = value[j], None
            if P_next is None and (newton[j] or converged[j]):
                out[j] = NumericalFailure("Newton step lost the mean-square stability certificate"
                                          if newton[j] else "sweeps converged to an uncertified gain")
            elif P_next is not None and not newton[j]:  # the certifying evaluation starts Newton
                P[i], k[j], norm[j], newton[j], converged[j] = P_next, k[j] + 1, frobenius(P_next), True, False
                sweeping = False in [newton[j] for j in ids]
                continue
            else:
                if P_next is None:
                    P_next = symmetrize(Q + F[i] + H[i].T @ gain[j])
                step = P[i] - P_next if newton[j] else P_next - P[i]
                if np_eigvalsh(step)[0] < -1e-8 * (1.0 + norm[j]):
                    out[j] = NumericalFailure(("Newton step" if newton[j] else "value iteration")
                                              + " lost monotonicity")
                else:
                    delta = frobenius(step)
                    P[i], k[j], norm[j] = P_next, k[j] + 1, frobenius(P_next)
                    if newton[j] or np.trace(P[i]) <= DIVERGENCE_TRACE:
                        converged[j] = delta <= TOL * (1.0 + norm[j])
                        continue
                    out[j] = NotStabilizableError("value iteration diverged: system is not mean-square "
                                                  "stabilizable under these moments")
            left = True
        if left:
            keep = [i for i, j in enumerate(ids) if out[j] is None]
            if not keep:
                return out
            S, P, gains, ids = S[keep], P[keep], gains[keep], [ids[i] for i in keep]
            everyone, sweeping = list(range(len(ids))), False in [newton[j] for j in ids]


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
    certificate or monotonicity raise NumericalFailure.  The one-program case
    of the batch loop that dr_covariance_batch runs (_newton_batch).
    """
    return _one(_newton_batch(sys, [m], cost, [start], "nominal_vi"))


def _inflated(results: list, ambs: list) -> list:
    """results at the inflated covariances of ambs, NotStabilizableError naming rho_sigma."""
    for j, (res, amb) in enumerate(zip(results, ambs)):
        if isinstance(res, NotStabilizableError):
            results[j] = NotStabilizableError("system not stabilizable under covariance inflated by "
                                              f"rho_sigma = {amb.rho_sigma:.4f}")
            results[j].__cause__ = res
    return results


def dr_covariance_batch(sys: MultNoiseSystem, ambs: list[MomentAmbiguity], cost: CostWeights,
                        starts: list[Controller | None] | None = None) -> list:
    """dr_covariance for each ambiguity set in ambs at its own mean mu_hat, each solve
    started from starts[i] (None: cold), in one batch loop: per set, the Controller, or
    the NotStabilizableError or NumericalFailure dr_covariance would raise for it."""
    starts = [None] * len(ambs) if starts is None else list(starts)
    if len(starts) != len(ambs):
        raise ValueError(f"{len(starts)} starts for {len(ambs)} ambiguity sets")
    if not ambs:
        return []
    ms = [DisturbanceMoments(mu=amb.mu_hat, sigma=amb.rho_sigma * amb.sigma_hat) for amb in ambs]
    return _inflated(_newton_batch(sys, ms, cost, starts, "dr_covariance"), ambs)


def dr_covariance(sys: MultNoiseSystem, mu_known, amb: MomentAmbiguity,
                  cost: CostWeights, start: Controller | None = None) -> Controller:
    """Covariance-only robust controller: nominal pipeline at rho_sigma * Sigma_hat.

    The mean is treated as known (rho_mu is ignored).  Worst-case exact: the
    support-function maximum over {Sigma <= rho_sigma Sigma_hat} is attained
    at the inflated covariance.  start, an earlier controller for the same
    system, is value_iteration's start: its gain is tried before the
    certainty-equivalent one.  The one-set case of dr_covariance_batch, at the
    mean mu_known.
    """
    inflated = DisturbanceMoments(mu=mu_known, sigma=amb.rho_sigma * amb.sigma_hat)
    return _one(_inflated(_newton_batch(sys, [inflated], cost, [start], "dr_covariance"), [amb]))
