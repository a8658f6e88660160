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
from .matcore import NumericalFailure, ShapeError, psd_sqrt
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


_memo: tuple = ((), None)  # (key, _template) of the last system and cost


def _template(sys: MultNoiseSystem, cost: CostWeights) -> tuple:
    """(num_vars, W, V, channels, arrow, main, floor) for _thm6_builder, all read-only."""
    global _memo
    key = tuple((a.shape, a.tobytes()) for a in sys.stacked + (cost.Q, cost.R))
    if (memo := _memo)[0] == key:
        return memo[1]
    n_x, n_u, n_w = sys.n_x, sys.n_u, sys.n_w
    Q_half, R_half = psd_sqrt(cost.Q), psd_sqrt(cost.R)
    b = LmiBuilder()
    W, V, S, L = b.sym_var(n_x), b.rect_var(n_u, n_x), b.sym_var(n_x), b.sym_var(n_x)
    channels = [sys.A[i] @ W + sys.B[i] @ V for i in range(n_w)]
    stack = block_expr([[ch] for ch in channels])
    zx, zxu, zc = zeros((n_w * n_x, n_x)), zeros((n_w * n_x, n_u)), zeros((n_x, n_x))
    arrow = block_expr([[S, zx.T], [zx, kron_const(np.eye(n_w), L)]])
    main = block_expr([
        [W - math.sqrt(2.0) * S, stack.T, zc, W @ Q_half, V.T @ R_half],
        [stack, zeros((n_w * n_x, n_w * n_x)), zx, zx, zxu],
        [zc, zx.T, W - math.sqrt(2.0) * L, zc, zeros((n_x, n_u))],
        [Q_half @ W, zx.T, zc, np.eye(n_x), zeros((n_x, n_u))],
        [R_half @ V, zxu.T, zeros((n_u, n_x)), zeros((n_u, n_x)), np.eye(n_u)],
    ])
    # L >= eps I also bounds W >= sqrt2 L >= sqrt2 eps I through the centre of
    # the main block.  It keeps the solve off the degenerate points W -> 0,
    # where K = V W^-1 and the bound tr(W^-1) certify nothing; without it a
    # set too large for any gain can end at such a point instead of infeasible
    eps = 1e-9 * (1.0 + max(np.linalg.norm(cost.Q, 2), np.linalg.norm(cost.R, 2)))
    floor = block_expr([[L - eps * np.eye(n_x)]])
    for e in [W, V, arrow, main, floor] + channels:
        e.coef.setflags(write=False)
    memo = _memo = (key, (b.num_vars, W, V, channels, arrow.coef, main.coef, floor))
    return memo[1]


def _thm6_builder(sys: MultNoiseSystem, amb: MomentAmbiguity, cost: CostWeights
                  ) -> tuple[LmiBuilder, AffineExpr, AffineExpr, list[AffineExpr]]:
    """A fresh builder, W, V and the three synthesis blocks: arrow, main and floor.

    _template assembles what depends only on the system and the cost once, with
    the data slots zero: c H, the centre, their transposes and kron(inv(rho_sigma
    Sigma_hat), W), which each call writes into copies.  It keeps only the last
    (system, cost), keyed by the bytes of sys.stacked, Q and R: one pencil, 0.02 MB on
    the paper's system, 2.5 MB at n_x = 8 and 34 MB at n_x = 16 (n_u = n_w = 2)."""
    if amb.n_w != sys.n_w:
        raise ShapeError(f"ambiguity has n_w={amb.n_w}, system has n_w={sys.n_w}")
    check_cost(sys, cost)
    num_vars, W, V, channels, arrow, main, floor = _template(sys, cost)
    n_x, n_w = sys.n_x, sys.n_w
    sigma_half = psd_sqrt(amb.sigma_hat)
    kron_w = kron_const(np.linalg.inv(amb.rho_sigma * amb.sigma_hat), W)
    A_mu, B_mu = sys.eval_AB(amb.mu_hat)
    H = [sum((sigma_half[j, i] * channels[j] for j in range(n_w)), zeros((n_x, n_x)))
         for i in range(n_w)]
    # arrow block [[S, c H^T], [c H, I (x) L]], H = [H_1; ...; H_nw], c = sqrt(rho_mu / 2).
    # It protects the whole mean ellipsoid (mu-mu_hat)^T Sigma_hat^{-1} (mu-mu_hat)
    # <= rho_mu.  With v = Sigma_hat^{-1/2}(mu-mu_hat), the mean moves the centre
    # block by D = sum_i v_i H_i.  The main block is the cost LMI at mu_hat
    # minus diag(sqrt2 S, sqrt2 L) on the W blocks around the centre, so the cost
    # LMI at mu holds whenever [[sqrt2 S, D^T], [D, sqrt2 L]] >= 0, i.e.
    # 2 S >= D^T L^{-1} D:
    #   D^T L^{-1} D <= |v|^2 sum_i H_i^T L^{-1} H_i <= rho_mu sum_i H_i^T L^{-1} H_i
    #   the arrow block gives S >= c^2 sum_i H_i^T L^{-1} H_i
    #   so c^2 >= rho_mu / 2 suffices.
    cH = math.sqrt(amb.rho_mu / 2.0) * block_expr([[h] for h in H])
    center = A_mu @ W + B_mu @ V
    # rows and columns of W, of the channels' stack and of the main block's centre
    w, ch, ce = slice(n_x), slice(n_x, (1 + n_w) * n_x), slice((1 + n_w) * n_x, (2 + n_w) * n_x)
    arrow, main = arrow.copy(), main.copy()
    for coef, rows, cols, e in ((arrow, ch, w, cH), (arrow, w, ch, cH.T), (main, ce, w, center),
                                (main, w, ce, center.T), (main, ch, ch, kron_w)):
        coef[:e.coef.shape[0], rows, cols] = e.coef
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
    W_inv = np.linalg.inv(W.value(sol.y))
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
