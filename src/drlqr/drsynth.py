"""Full-uncertainty distributionally robust LQR synthesis.

Both the mean and covariance of the disturbance are only known to lie in a
data-driven ambiguity set.  Synthesis maximizes tr(W) (W = P^{-1}) subject
to two LMIs: an arrow-shaped block coupling the mean radius to the noise
channels through auxiliary variables S and L, and a large Schur-complement
block encoding the robust Lyapunov/cost decrease.  The resulting gain is
K = V W^{-1} and tr(W^{-1}) upper-bounds the expected closed-loop cost for
an isotropic random initial state.  A strictly feasible solution certifies
the gain mean-square stabilizing for every distribution in the set.

A receding-horizon variant minimizes a scalar bound gamma on x0^T W^{-1} x0
for a specific initial state instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import MomentAmbiguity
from .matcore import NumericalFailure, ShapeError, SymMatrix, as_matrix, psd_sqrt, require_finite
from .riccati import Controller
from .sdpcore import LmiBuilder, block_expr, kron_const, solve, zeros
from .sysmodel import CostWeights, MultNoiseSystem


class DrSynthesisError(RuntimeError):
    """The robust synthesis SDP is infeasible: the ambiguity set is too large
    for any linear gain to be certifiably mean-square stabilizing."""


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesized robust controller; its cost bound is controller.cost_bound."""

    controller: Controller

    @property
    def cost_bound(self) -> float:
        return self.controller.cost_bound


def _thm6_builder(sys: MultNoiseSystem, amb: MomentAmbiguity, cost: CostWeights) -> LmiBuilder:
    if amb.n_w != sys.n_w:
        raise ShapeError(f"ambiguity has n_w={amb.n_w}, system has n_w={sys.n_w}")
    n_x, n_u, n_w = sys.n_x, sys.n_u, sys.n_w
    sigma_hat = as_matrix(amb.sigma_hat)
    sigma_half = as_matrix(psd_sqrt(sigma_hat))
    sigma_dr_inv = np.linalg.inv(amb.rho_sigma * sigma_hat)
    A_mu, B_mu = sys.eval_AB(amb.mu_hat)
    Q_half = as_matrix(psd_sqrt(cost.Q))
    R_half = as_matrix(psd_sqrt(cost.R))

    b = LmiBuilder()
    W = b.sym_var("W", n_x)
    V = b.rect_var("V", n_u, n_x)
    S = b.sym_var("S", n_x)
    L = b.sym_var("L", n_x)

    channels = [sys.A[i] @ W + sys.B[i] @ V for i in range(n_w)]
    H = [sum((sigma_half[j, i] * channels[j] for j in range(n_w)), zeros((n_x, n_x)))
         for i in range(n_w)]

    # arrow block: [[S, c H_i^T ...], [c H_i, diag(L)]] with c = sqrt(rho_mu / 2).
    # It protects the whole mean ellipsoid (mu-mu_hat)^T Sigma_hat^{-1} (mu-mu_hat)
    # <= rho_mu.  With v = Sigma_hat^{-1/2}(mu-mu_hat), the mean moves the centre
    # block by D = sum_i v_i H_i.  The main block below is the cost LMI at mu_hat
    # minus diag(sqrt2 S, sqrt2 L) on the W blocks around the centre, so the cost
    # LMI at mu holds whenever [[sqrt2 S, D^T], [D, sqrt2 L]] >= 0, i.e.
    # 2 S >= D^T L^{-1} D:
    #   D^T L^{-1} D <= |v|^2 sum_i H_i^T L^{-1} H_i <= rho_mu sum_i H_i^T L^{-1} H_i
    #   the arrow block gives S >= c^2 sum_i H_i^T L^{-1} H_i
    #   so c^2 >= rho_mu / 2 suffices.
    c = math.sqrt(amb.rho_mu / 2.0)
    arrow = [[S] + [c * H[i].T for i in range(n_w)]]
    for i in range(n_w):
        row = [c * H[i]]
        for j in range(n_w):
            row.append(L if i == j else zeros((n_x, n_x)))
        arrow.append(row)
    b.add_psd(block_expr(arrow))

    # main Schur block
    stack = block_expr([[ch] for ch in channels]) if n_w else zeros((0, n_x))
    center = A_mu @ W + B_mu @ V
    root2 = math.sqrt(2.0)
    zx = zeros((n_w * n_x, n_x))
    zxu = zeros((n_w * n_x, n_u))
    main = block_expr([
        [W - root2 * S, stack.T, center.T, W @ Q_half, V.T @ R_half],
        [stack, kron_const(sigma_dr_inv, W), zx, zx, zxu],
        [center, zx.T, W - root2 * L, zeros((n_x, n_x)), zeros((n_x, n_u))],
        [Q_half @ W, zx.T, zeros((n_x, n_x)), np.eye(n_x), zeros((n_x, n_u))],
        [R_half @ V, zxu.T, zeros((n_u, n_x)), zeros((n_u, n_x)), np.eye(n_u)],
    ])
    b.add_psd(main)

    # L >= eps I also bounds W >= sqrt2 L >= sqrt2 eps I through the centre of
    # the main block.  It keeps the solve off the degenerate points W -> 0,
    # where K = V W^-1 and the bound tr(W^-1) certify nothing; without it a
    # set too large for any gain can end at such a point instead of infeasible
    eps = 1e-9 * (1.0 + max(np.linalg.norm(as_matrix(cost.Q), 2), np.linalg.norm(as_matrix(cost.R), 2)))
    b.add_psd(block_expr([[L - eps * np.eye(n_x)]]))
    return b


def _synthesize(b: LmiBuilder, method: str, bound_var: str | None = None) -> SynthesisResult:
    """Solve the synthesis SDP and read the certified controller off it.

    The cost bound is tr(W^{-1}), or the scalar variable bound_var when the
    program minimizes its own bound.  The solution is its own certificate: at
    a strictly feasible point P = W^{-1} satisfies P > E[A_cl(w)^T P A_cl(w)]
    at every moment pair in the ambiguity set, which is robust mean-square
    stability.  An "optimal" point whose smallest LMI block eigenvalue is not
    positive certifies nothing and raises NumericalFailure.
    """
    sol = solve(b.build())
    if sol.status == "infeasible":
        raise DrSynthesisError("synthesis SDP infeasible: ambiguity set too large for this system "
                               f"({sol.reason})")
    if sol.status != "optimal":
        raise NumericalFailure(f"synthesis SDP returned status {sol.status}: {sol.reason}")
    if not sol.min_block_eigenvalue > 0:
        raise NumericalFailure("synthesis LMIs not strictly feasible at the returned point "
                               f"(min block eigenvalue {sol.min_block_eigenvalue:.3e})")
    W, V = b.extract("W", sol.y), b.extract("V", sol.y)
    W_inv = np.linalg.inv(W)
    K = V @ W_inv
    P_hat = SymMatrix(W_inv)
    if bound_var is None:
        bound = float(np.trace(as_matrix(P_hat)))
    else:
        bound = float(b.extract(bound_var, sol.y)[0, 0])
    ctrl = Controller(K=K, P=P_hat, method=method, iterations=sol.iterations,
                      cost_bound=bound)
    return SynthesisResult(controller=ctrl)


def synth_full(sys: MultNoiseSystem, amb: MomentAmbiguity, cost: CostWeights) -> SynthesisResult:
    """Full-uncertainty robust controller with cost bound tr(W^{-1}).

    The bound is the expected closed-loop cost for a random initial state
    with identity second moment, valid for every distribution in the
    ambiguity set.  The gain is certified robustly mean-square stabilizing
    by the strict feasibility of the synthesis LMIs; a returned point that is
    not strictly feasible raises NumericalFailure.
    """
    b = _thm6_builder(sys, amb, cost)
    b.minimize(-b.var("W").trace())
    return _synthesize(b, "dr_full")


def synth_rhc(sys: MultNoiseSystem, amb: MomentAmbiguity, cost: CostWeights, x0) -> SynthesisResult:
    """Receding-horizon variant: minimize gamma >= x0^T W^{-1} x0.

    The gamma constraint enters as the Schur-complement block
    [[gamma, x0^T], [x0, W]] >= 0 alongside the synthesis LMIs.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != sys.n_x:
        raise ShapeError(f"x0 has length {x0.size}, expected {sys.n_x}")
    require_finite("x0", x0)
    b = _thm6_builder(sys, amb, cost)
    gamma = b.scalar_var("gamma")
    b.add_psd(block_expr([[gamma, x0.reshape(1, -1)], [x0.reshape(-1, 1), b.var("W")]]))
    b.minimize(gamma)
    return _synthesize(b, "dr_rhc", bound_var="gamma")
