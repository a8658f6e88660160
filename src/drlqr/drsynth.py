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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .ambiguity import MomentAmbiguity
from .matcore import DomainError, NumericalFailure, ShapeError, _memo_last, _one, contract, np_inv, psd_sqrt
from .riccati import Controller
from .sdpcore import AffineExpr, LmiBuilder, SdpSolution, block_expr, kron_const, solve_batch, zeros
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


_Template = namedtuple("_Template", "W V chan c F dims at back")


@_memo_last(lambda sys, cost: sys.stacked + (cost.Q, cost.R))
def _template(sys: MultNoiseSystem, cost: CostWeights) -> _Template:
    """(W, V, chan, c, F, dims, at, back), all read-only: chan[i] holds the channel
    A_i W + B_i V, i = 0..n_w; c, F and dims are synth_full's program with zero data
    slots, the stack of one LmiBuilder.build writes; at and back, the slot map, are the
    flat indices in F of the entries _pencils writes, below and above the diagonal.  Only
    the last (system, cost) is kept, by matcore._memo_last on sys.stacked, Q and R: 0.04 MB
    on the paper's system, 89 MB at n_x = 16, n_u = 4 and n_w = 2, nearly all of it F."""
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
    c, F, dims = b.build(-W.trace(), [arrow, main, floor])
    # the slots, against the columns of W: the channels' rows of the arrow block (from row
    # n_x), those of the main block (from row dims[0] + n_x) and the main block's centre;
    # coefficient i of a slot is pencil slice i - 1, the constant (i = 0) the last slice
    i, r, q = np.indices((chan.shape[1], n_w * n_x, n_x)).reshape(3, -1)
    i0, r0, q0 = np.indices((chan.shape[1], n_x, n_x)).reshape(3, -1)
    s = (np.concatenate([i, i, i0]) - 1) % len(F[0])
    rows = np.concatenate([n_x + r, dims[0] + n_x + r, dims[0] + (1 + n_w) * n_x + r0])
    cols = np.concatenate([q, dims[0] + q, dims[0] + q0])
    at, back = (np.ravel_multi_index((s, u, v), F.shape[1:]) for u, v in ((rows, cols), (cols, rows)))
    for a in (W.coef, V.coef, chan, c, F, at, back):
        a.setflags(write=False)
    return _Template(W, V, chan, c, F, dims, at, back)


def _pencils(template: _Template, ambs: list, roots: np.ndarray) -> np.ndarray:
    """synth_full's pencil for each set in ambs, with roots[j] = Sigma_hat^{1/2} of
    ambs[j]: _template's pencil, copied once per set, with the set's data at the slot map.

    The data enter through Theta = [[1, mu_hat^T], [0, Sigma_hat^{1/2}]] (Theta^T Theta is
    the extended moment): G = Theta . chan stacks the centre A(mu_hat) W + B(mu_hat) V and
    the whitened channels H = [H_1; ...; H_nw].  The main block is congruent, by
    (rho_sigma Sigma_hat)^{1/2} (x) I, to the one on the raw channels against
    (rho_sigma Sigma_hat)^-1 (x) W, so Sigma_hat is never inverted."""
    n, n_w = len(ambs), len(template.chan) - 1
    theta = np.zeros((n, 1 + n_w, 1 + n_w))
    theta[:, 0, 0] = 1.0
    theta[:, 0, 1:] = [amb.mu_hat for amb in ambs]
    theta[:, 1:, 1:] = roots
    G = contract(theta, template.chan)
    H = G[:, 1:].swapaxes(1, 2).reshape(n, -1)  # [H_1; ...; H_nw] of each coefficient
    # arrow block [[S, c H^T], [c H, I (x) L]], c = sqrt(rho_mu / 2): a mean in the ellipsoid
    # (mu-mu_hat)^T Sigma_hat^-1 (mu-mu_hat) <= rho_mu moves the centre by D = sum_i v_i H_i,
    # |v|^2 <= rho_mu; the main block (the cost LMI at mu_hat minus diag(sqrt2 S, sqrt2 L) around
    # the centre) absorbs D if D^T L^-1 D <= 2 S, and D^T L^-1 D <= rho_mu sum_i H_i^T L^-1 H_i <= 2 S.
    scale = np.sqrt([[amb.rho_mu / 2.0, amb.rho_sigma] for amb in ambs])
    with np.errstate(over="ignore"):  # an overflow is refused below
        data = np.concatenate([scale[:, :1] * H, scale[:, 1:] * H, G[:, 0].reshape(n, -1)], axis=1)
    # each entry a stands for the symmetric part (a + a) / 2 that LmiBuilder.build would write
    if not (np.abs(data) <= np.finfo(float).max / 2.0).all():
        raise DomainError("non-finite entries in the system's noise channels scaled by the ambiguity "
                          "set: Theta . (A_i W + B_i V) times sqrt(rho_mu / 2) or sqrt(rho_sigma)")
    F = np.empty((n,) + template.F.shape[1:])
    F[:] = template.F
    F.reshape(n, -1)[:, template.at] = F.reshape(n, -1)[:, template.back] = data
    return F


def _checked(sys: MultNoiseSystem, ambs: list, cost: CostWeights) -> _Template:
    """_template(sys, cost), once sys, each set in ambs and cost are checked to fit."""
    for amb in ambs:
        if amb.n_w != sys.n_w:
            raise ShapeError(f"ambiguity has n_w={amb.n_w}, system has n_w={sys.n_w}")
    check_cost(sys, cost)
    return _template(sys, cost)


def _controllers(sols: list, W: AffineExpr, V: AffineExpr, method: str,
                 bound: AffineExpr | None = None) -> list:
    """For each synthesis SDP's solution, the certified controller read off it,
    or the DrSynthesisError or NumericalFailure that says why there is none.

    The cost bound is tr(W^{-1}), or the scalar expression bound when the
    program minimizes its own bound.  The solution is its own certificate: at
    a strictly feasible point P = W^{-1} satisfies P > E[A_cl(w)^T P A_cl(w)]
    at every moment pair in the ambiguity set, which is robust mean-square
    stability.  An "optimal" point whose smallest LMI block eigenvalue is not
    positive certifies nothing.  W, V, W^{-1} and K are read off with one
    stacked product or inverse each.
    """
    results = [DrSynthesisError("synthesis SDP infeasible: ambiguity set too large for this system "
                                f"({sol.reason})") if sol.status == "infeasible" else
               NumericalFailure(f"synthesis SDP returned status {sol.status}: {sol.reason}")
               if sol.status != "optimal" else
               NumericalFailure("synthesis LMIs not strictly feasible at the returned point "
                                f"(min block eigenvalue {sol.min_block_eigenvalue:.3e})")
               if not sol.min_block_eigenvalue > 0 else sol for sol in sols]
    good = [j for j, res in enumerate(results) if res is sols[j]]
    if good:
        z = np.ones((len(good), 1, 1 + len(sols[0].y)))  # (1, y) of each point, as AffineExpr.value
        z[:, 0, 1:] = [sols[j].y for j in good]
        W_val, V_val = (contract(z[..., :len(e.coef)], e.coef)[:, 0] for e in (W, V))
        W_inv = np_inv(W_val)
        for j, P, K in zip(good, W_inv, V_val @ W_inv):
            cost_bound = P.trace() if bound is None else bound.value(sols[j].y)[0, 0]
            results[j] = SynthesisResult(Controller(K=K, P=P, method=method, iterations=sols[j].iterations,
                                                    cost_bound=float(cost_bound)), sols[j])
    return results


def synth_full_batch(sys: MultNoiseSystem, ambs: list[MomentAmbiguity], cost: CostWeights,
                     starts: list[SynthesisResult | None] | None = None) -> list:
    """synth_full for each ambiguity set in ambs, each solve started from
    starts[i] (None: cold): per set, the SynthesisResult, or the
    DrSynthesisError or NumericalFailure synth_full would raise for it, from
    writing its program or from reading its solution.

    The programs are one pencil stack (_pencils), which sdpcore.solve_batch
    solves as one batch."""
    starts = [None] * len(ambs) if starts is None else list(starts)
    if len(starts) != len(ambs):
        raise ValueError(f"{len(starts)} starts for {len(ambs)} ambiguity sets")
    if not ambs:
        return []
    template = _checked(sys, ambs, cost)
    try:  # each Sigma_hat^{1/2} from one stacked eigensolve, or its own where that fails
        results = list(psd_sqrt(np.stack([amb.sigma_hat for amb in ambs])))
    except NumericalFailure:
        results = []
        for amb in ambs:
            try:
                results.append(psd_sqrt(amb.sigma_hat))
            except NumericalFailure as exc:
                results.append(exc)
    ok = [j for j, root in enumerate(results) if not isinstance(root, Exception)]
    if ok:
        F = _pencils(template, [ambs[j] for j in ok], np.array([results[j] for j in ok]))
        sols = solve_batch(np.broadcast_to(template.c, (len(ok), template.c.shape[1])), F, template.dims,
                           [None if starts[j] is None else starts[j].solution for j in ok])
        for j, res in zip(ok, _controllers(sols, template.W, template.V, "dr_full")):
            results[j] = res
    return results


def synth_full(sys: MultNoiseSystem, amb: MomentAmbiguity, cost: CostWeights,
               start: SynthesisResult | None = None) -> SynthesisResult:
    """Full-uncertainty robust controller with cost bound tr(W^{-1}).

    The bound is the expected closed-loop cost for a random initial state
    with identity second moment, valid for every distribution in the
    ambiguity set.  The gain is certified robustly mean-square stabilizing
    by the strict feasibility of the synthesis LMIs; a returned point that is
    not strictly feasible raises NumericalFailure.  start, an earlier result
    for the same system and cost, warm-starts the solve (sdpcore.solve_batch); the
    verdict and the certificate do not depend on it.  The one-set case of
    synth_full_batch.
    """
    return _one(synth_full_batch(sys, [amb], cost, [start]))


def synth_rhc(sys: MultNoiseSystem, amb: MomentAmbiguity, cost: CostWeights, x0) -> SynthesisResult:
    """Receding-horizon variant: minimize gamma >= x0^T W^{-1} x0.

    The gamma constraint enters as the Schur-complement block
    [[gamma, x0^T], [x0, W]] >= 0 alongside the synthesis LMIs.
    """
    x0 = state_vector(sys, x0)
    template = _checked(sys, [amb], cost)
    F, = _pencils(template, [amb], psd_sqrt(amb.sigma_hat)[None])
    k, m = len(F) - 1, F.shape[-1]
    b = LmiBuilder()
    b.num_vars = k
    gamma = b.rect_var(1, 1)
    c, G, dims = b.build(gamma, [block_expr([[gamma, x0.reshape(1, -1)], [x0.reshape(-1, 1), template.W]])])
    # synth_full's blocks, gamma's coefficient zero in them, then gamma's block
    P = np.zeros((1, k + 2) + (m + dims[0],) * 2)
    P[0, :k, :m, :m], P[0, k + 1, :m, :m], P[0, :, m:, m:] = F[:k], F[k], G[0]
    return _one(_controllers(solve_batch(c, P, template.dims + dims), template.W, template.V, "dr_rhc",
                             bound=gamma))
