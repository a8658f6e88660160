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
from .matcore import NumericalFailure, ShapeError, _memo_last, contract, np_inv, psd_sqrt
from .riccati import Controller
from .sdpcore import (AffineExpr, LmiBuilder, LmiProblem, SdpSolution, block_expr, kron_const,
                      solve, zeros)
from .sysmodel import CostWeights, MultNoiseSystem, check_cost, state_vector


class DrSynthesisError(RuntimeError):
    """The robust synthesis SDP is infeasible: the ambiguity set is too large
    for any linear gain to be certifiably mean-square stabilizing."""


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesized robust controller; its cost bound is controller.cost_bound.
    solution is the synthesis SDP's, from which synth_full can warm-start."""

    controller: Controller
    solution: SdpSolution

    @property
    def cost_bound(self) -> float:
        return self.controller.cost_bound


@_memo_last(lambda sys, cost: sys.stacked + (cost.Q, cost.R))
def _template(sys: MultNoiseSystem, cost: CostWeights) -> tuple:
    """(num_vars, W, V, chan, arrow, main, floor) for _thm6_builder, all read-only; chan[i]
    holds the channel A_i W + B_i V, i = 0..n_w.  Only the last (system, cost) is kept, by
    matcore._memo_last on sys.stacked, Q and R: 0.02 MB on the paper's system, 34 MB at n_x = 16."""
    n_x, n_u, n_w = sys.n_x, sys.n_u, sys.n_w
    Q_half, R_half = psd_sqrt(cost.Q), psd_sqrt(cost.R)
    b = LmiBuilder()
    W, V, S, L = b.sym_var(n_x), b.rect_var(n_u, n_x), b.sym_var(n_x), b.sym_var(n_x)
    chan = np.stack([(A @ W + B @ V).coef for A, B in zip((sys.A0,) + sys.A, (sys.B0,) + sys.B)])
    zx, zxu, zc = zeros((n_w * n_x, n_x)), zeros((n_w * n_x, n_u)), zeros((n_x, n_x))
    arrow = block_expr([[S, zx.T], [zx, kron_const(np.eye(n_w), L)]])
    main = block_expr([
        [W - math.sqrt(2.0) * S, zx.T, zc, W @ Q_half, V.T @ R_half],
        [zx, kron_const(np.eye(n_w), W), zx, zx, zxu],
        [zc, zx.T, W - math.sqrt(2.0) * L, zc, zeros((n_x, n_u))],
        [Q_half @ W, zx.T, zc, np.eye(n_x), zeros((n_x, n_u))],
        [R_half @ V, zxu.T, zeros((n_u, n_x)), zeros((n_u, n_x)), np.eye(n_u)],
    ])
    # L >= eps I also bounds W >= sqrt2 L >= sqrt2 eps I through the main block's centre.
    # It keeps the solve off the degenerate points W -> 0, where K = V W^-1 and tr(W^-1)
    # certify nothing; without it a set too large for any gain can end there, not infeasible
    eps = 1e-9 * (1.0 + max(np.linalg.norm(cost.Q, 2), np.linalg.norm(cost.R, 2)))
    floor = block_expr([[L - eps * np.eye(n_x)]])
    for a in (W.coef, V.coef, chan, arrow.coef, main.coef, floor.coef):
        a.setflags(write=False)
    return b.num_vars, W, V, chan, arrow.coef, main.coef, floor


def _thm6_builder(sys: MultNoiseSystem, amb: MomentAmbiguity, cost: CostWeights
                  ) -> tuple[LmiBuilder, AffineExpr, AffineExpr, list[AffineExpr]]:
    """A fresh builder, W, V and the three synthesis blocks: arrow, main and floor.

    The data enter through Theta = [[1, mu_hat^T], [0, Sigma_hat^{1/2}]] (Theta^T Theta is
    the extended moment): G = Theta . chan stacks the centre A(mu_hat) W + B(mu_hat) V and
    the whitened channels H = [H_1; ...; H_nw], written into copies of _template's blocks.
    The main block is congruent, by (rho_sigma Sigma_hat)^{1/2} (x) I, to the one on the raw
    channels against (rho_sigma Sigma_hat)^-1 (x) W, so Sigma_hat is never inverted."""
    if amb.n_w != sys.n_w:
        raise ShapeError(f"ambiguity has n_w={amb.n_w}, system has n_w={sys.n_w}")
    check_cost(sys, cost)
    num_vars, W, V, chan, arrow, main, floor = _template(sys, cost)
    n_x, n_w = sys.n_x, sys.n_w
    theta = np.empty((1 + n_w, 1 + n_w))
    theta[0, 0] = 1.0
    theta[0, 1:] = amb.mu_hat
    theta[1:, 0] = 0.0
    theta[1:, 1:] = psd_sqrt(amb.sigma_hat)
    G = contract(theta, chan)
    H = G[1:].transpose(1, 0, 2, 3).reshape(-1, n_w * n_x, n_x)  # [H_1; ...; H_nw]
    # arrow block [[S, c H^T], [c H, I (x) L]], c = sqrt(rho_mu / 2): a mean in the ellipsoid
    # (mu-mu_hat)^T Sigma_hat^-1 (mu-mu_hat) <= rho_mu moves the centre by D = sum_i v_i H_i,
    # |v|^2 <= rho_mu; the main block (the cost LMI at mu_hat minus diag(sqrt2 S, sqrt2 L) around
    # the centre) absorbs D if D^T L^-1 D <= 2 S, and D^T L^-1 D <= rho_mu sum_i H_i^T L^-1 H_i <= 2 S.
    # Rows and columns of W, of the channels' stack and of the main block's centre:
    w, ch, ce = slice(n_x), slice(n_x, (1 + n_w) * n_x), slice((1 + n_w) * n_x, (2 + n_w) * n_x)
    arrow, main = arrow.copy(), main.copy()
    for coef, rows, e in ((arrow, ch, math.sqrt(amb.rho_mu / 2.0) * H),
                          (main, ch, math.sqrt(amb.rho_sigma) * H), (main, ce, G[0])):
        coef[:len(e), rows, w], coef[:len(e), w, rows] = e, e.transpose(0, 2, 1)
    b = LmiBuilder()
    b.num_vars = num_vars
    return b, W, V, [AffineExpr(arrow), AffineExpr(main), floor]


def _synthesize(prob: LmiProblem, W: AffineExpr, V: AffineExpr, method: str,
                bound: AffineExpr | None = None, start: SynthesisResult | None = None
                ) -> SynthesisResult:
    """Solve the synthesis SDP and read the certified controller off it.

    The cost bound is tr(W^{-1}), or the scalar expression bound when the
    program minimizes its own bound.  The solution is its own certificate: at
    a strictly feasible point P = W^{-1} satisfies P > E[A_cl(w)^T P A_cl(w)]
    at every moment pair in the ambiguity set, which is robust mean-square
    stability.  An "optimal" point whose smallest LMI block eigenvalue is not
    positive certifies nothing and raises NumericalFailure.
    """
    sol = solve(prob, start=None if start is None else start.solution)
    if sol.status == "infeasible":
        raise DrSynthesisError("synthesis SDP infeasible: ambiguity set too large for this system "
                               f"({sol.reason})")
    if sol.status != "optimal":
        raise NumericalFailure(f"synthesis SDP returned status {sol.status}: {sol.reason}")
    if not sol.min_block_eigenvalue > 0:
        raise NumericalFailure("synthesis LMIs not strictly feasible at the returned point "
                               f"(min block eigenvalue {sol.min_block_eigenvalue:.3e})")
    W_inv = np_inv(W.value(sol.y))
    cost_bound = np.trace(W_inv) if bound is None else bound.value(sol.y)[0, 0]
    ctrl = Controller(K=V.value(sol.y) @ W_inv, P=W_inv, method=method,
                      iterations=sol.iterations, cost_bound=float(cost_bound))
    return SynthesisResult(controller=ctrl, solution=sol)


def synth_full(sys: MultNoiseSystem, amb: MomentAmbiguity, cost: CostWeights,
               start: SynthesisResult | None = None) -> SynthesisResult:
    """Full-uncertainty robust controller with cost bound tr(W^{-1}).

    The bound is the expected closed-loop cost for a random initial state
    with identity second moment, valid for every distribution in the
    ambiguity set.  The gain is certified robustly mean-square stabilizing
    by the strict feasibility of the synthesis LMIs; a returned point that is
    not strictly feasible raises NumericalFailure.  start, an earlier result
    for the same system and cost, warm-starts the solve (sdpcore.solve); the
    verdict and the certificate do not depend on it.
    """
    b, W, V, blocks = _thm6_builder(sys, amb, cost)
    return _synthesize(b.build(-W.trace(), blocks), W, V, "dr_full", start=start)


def synth_rhc(sys: MultNoiseSystem, amb: MomentAmbiguity, cost: CostWeights, x0) -> SynthesisResult:
    """Receding-horizon variant: minimize gamma >= x0^T W^{-1} x0.

    The gamma constraint enters as the Schur-complement block
    [[gamma, x0^T], [x0, W]] >= 0 alongside the synthesis LMIs.
    """
    x0 = state_vector(sys, x0)
    b, W, V, blocks = _thm6_builder(sys, amb, cost)
    gamma = b.rect_var(1, 1)
    blocks.append(block_expr([[gamma, x0.reshape(1, -1)], [x0.reshape(-1, 1), W]]))
    return _synthesize(b.build(gamma, blocks), W, V, "dr_rhc", bound=gamma)
