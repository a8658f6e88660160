"""Reference routines the tests hold the library's results against.

dr_certify_mss samples the mean ellipsoid of an ambiguity set and checks
mean-square stability at each sampled mean with the inflated covariance.
The library certifies a synthesized gain by the strict feasibility of its
synthesis LMIs, which covers the whole set; this grid is an independent
witness of that claim on finitely many moments.

vec_operator is the second-moment operator on the full vectorization vec(P)
(vec and unvec are its column-stacking convention), an independent route to
the library's operator on svec coordinates, and spectral_radius, numpy's
eigvals, an independent route to its radius.  vec_value, lyapunov_P,
riccati_residual and nominal_sdp are independent routes to the Lyapunov and
Riccati solutions, dare_gain to the noise-free optimal gain and
ce_gain_reference the doubling loop the library's in-place one must match
bit for bit, and solve_reference the one-program interior-point loop whose
iterates sdpcore's batch loop must match bit for bit, program by program,
with block_margin its margin of strict feasibility.  thm6_builder writes the
synthesis program of one ambiguity set without drsynth's template: the
set's data written into copies of the arrow and main block expressions,
which LmiBuilder.build turns into a stack of one that drsynth's stage stack
must match byte for byte.  root_failing_on stands in for psd_sqrt with an eigensolver
that fails on one matrix; read_records_csv and median_j_rel read and
summarize the experiment CSV.
"""

import csv
import math
from dataclasses import replace
from itertools import accumulate

import numpy as np
from scipy.linalg import solve_discrete_are
from scipy.linalg.lapack import dgesv

from drlqr.experiment import RunRecord
from drlqr.matcore import (NumericalFailure, ShapeError, SymMatrix, all_finite, contract, dpotrf,
                           dpotrs, frobenius, np_cholesky, np_eigvalsh, psd_sqrt, sym_index)
from drlqr.riccati import TOL as RICCATI_TOL
from drlqr.riccati import Controller, NotStabilizableError, _gain_from
from drlqr.sdpcore import (FEAS_TOL, GAP_TOL, MAX_ITERS, STEP_TO_BOUNDARY, WARM_START, AffineExpr,
                           LmiBuilder, SdpSolution, _inv_lower, block_expr, kron_const, solve_batch,
                           zeros)
from drlqr.stability import TOL, ClosedLoop, InstabilityError, is_mss
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem, check_cost, fgh, gh


def _mean_directions(n_w: int, count: int) -> np.ndarray:
    """Deterministic unit directions used to discretize the mean ellipsoid."""
    if n_w == 1:
        signs = np.array([1.0 if k % 2 == 0 else -1.0 for k in range(count)])
        return signs.reshape(-1, 1)
    if n_w == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    rng = np.random.default_rng(np.random.SeedSequence(0))
    d = rng.standard_normal((count, n_w))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def dr_certify_mss(cl: ClosedLoop, amb, mean_grid: int = 12) -> bool:
    """Sampled sufficient check of distributionally robust mean-square stability.

    Evaluates is_mss with covariance rho_sigma * Sigma_hat at every mean in a
    deterministic grid of mean_grid^2 points covering the ellipsoid
    (mu - mu_hat)^T Sigma_hat^{-1} (mu - mu_hat) <= rho_mu, including its
    center and boundary.  A pass certifies stability only on the grid; the
    exact robust certificate is the synthesis LMI itself.
    """
    if mean_grid < 1:
        raise ValueError("mean_grid must be at least 1")
    sigma_hat = np.asarray(amb.sigma_hat)
    sigma_dr = SymMatrix(amb.rho_sigma * sigma_hat)
    half = np.asarray(psd_sqrt(sigma_hat))
    radius = float(np.sqrt(max(amb.rho_mu, 0.0)))
    mu_hat = np.asarray(amb.mu_hat, dtype=float).ravel()

    means = [mu_hat]
    if radius > 0.0 and mean_grid > 1:
        radii = np.linspace(0.0, 1.0, mean_grid)[1:]
        dirs = _mean_directions(mu_hat.size, mean_grid)
        for r in radii:
            for d in dirs:
                means.append(mu_hat + radius * r * (half @ d))
    for mu in means:
        stable, _ = is_mss(cl, DisturbanceMoments(mu=mu, sigma=sigma_dr))
        if not stable:
            return False
    return True


def vec(m) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m).flatten(order="F")


def unvec(v, rows: int) -> np.ndarray:
    """Inverse of vec for a matrix with the given number of rows."""
    v = np.asarray(v, dtype=float).ravel()
    if rows <= 0 or v.size % rows != 0:
        raise ShapeError(f"cannot reshape length-{v.size} vector into {rows} rows")
    return v.reshape((rows, v.size // rows), order="F")


def channel_matrices(cl: ClosedLoop) -> np.ndarray:
    """Closed-loop channel matrices A0 + B0 K, A1 + B1 K, ..., stacked along axis 0."""
    return np.stack([cl.sys.A0 + cl.sys.B0 @ cl.K]
                    + [Ai + Bi @ cl.K for Ai, Bi in zip(cl.sys.A, cl.sys.B)])


def vec_operator(cl: ClosedLoop, m: DisturbanceMoments) -> np.ndarray:
    """Matrix T acting on vec(P) for P -> Abar_cl^T (Sigma_ext x P) Abar_cl.

    T = sum_ij S_ij kron(A_j^T, A_i^T) over the closed-loop channel matrices
    A_i, i.e. T[a n + b, c n + d] = sum_ij S_ij A_j[c, a] A_i[d, b], built as
    one contraction over the channels.
    """
    mats = channel_matrices(cl)
    S_ext = np.asarray(m.extended_moment)
    n = cl.sys.n_x
    weighted = np.einsum("ij,jca->ica", S_ext, mats)
    return np.einsum("ica,idb->abcd", weighted, mats).reshape(n * n, n * n)


def sliced_svec_operator(cl: ClosedLoop, m: DisturbanceMoments) -> np.ndarray:
    """second_moment_operator by slicing: the vec operator plus its copy with the
    last two axes swapped, the svec rows and then columns picked out of the sum,
    and the columns c = d halved.  The library gathers only the entries it keeps,
    from the same operands in the same order, so the bytes must agree."""
    n = cl.sys.n_x
    Abar0, Bbar0 = cl.sys.stacked
    mats = (Abar0 + Bbar0 @ cl.K).reshape(-1, n, n)
    upper, position = sym_index(n)
    weighted = np.einsum("ij,jca->ica", m.extended_moment, mats)
    full = np.einsum("ica,idb->abcd", weighted, mats)
    T = (full + full.transpose(0, 1, 3, 2)).reshape(n * n, n * n)[upper][:, upper]
    T[:, position.diagonal()] *= 0.5
    return T


def spectral_radius(T) -> float:
    """Largest eigenvalue modulus of T by np.linalg.eigvals, whose gufunc the
    library calls without this wrapper, and must give the same bits."""
    return float(np.max(np.abs(np.linalg.eigvals(T)))) if np.size(T) else 0.0


def vec_value(cl: ClosedLoop, m: DisturbanceMoments, C) -> np.ndarray:
    """Solution V of V = C + L(V) on vec coordinates: (I - T) vec(V) = vec(C), T = vec_operator."""
    n = cl.sys.n_x
    return unvec(np.linalg.solve(np.eye(n * n) - vec_operator(cl, m), vec(C)), n)


def lyapunov_P(cl: ClosedLoop, m: DisturbanceMoments) -> SymMatrix:
    """Lyapunov certificate P > 0 with P - L(P) = I, by vec_value.

    Radii within TOL of 1 raise InstabilityError, as is_mss reports them
    unstable.
    """
    radius = spectral_radius(vec_operator(cl, m))
    if not radius < 1.0 - TOL:
        raise InstabilityError(f"closed loop is not mean-square stable (radius {radius:.6f})")
    return SymMatrix(vec_value(cl, m, np.eye(cl.sys.n_x)))


def riccati_residual(sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights, P) -> float:
    """Frobenius norm of P - (Q + F(P) - H^T (R+G)^{-1} H)."""
    P = np.asarray(P)
    F, G, H = fgh(sys, m, P)
    rhs = np.asarray(cost.Q) + F - H.T @ np.linalg.solve(np.asarray(cost.R) + G, H)
    return float(np.linalg.norm(P - rhs))


def dare_gain(A, B, Q, R) -> np.ndarray:
    """Optimal gain K = -(R + B^T P B)^{-1} B^T P A of the discrete algebraic
    Riccati equation, P from scipy's solve_discrete_are."""
    P = solve_discrete_are(A, B, Q, R)
    return -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


def ce_gain_reference(sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights):
    """riccati._ce_gain's structure-preserving doubling with new arrays each step:
    dgesv's right-hand side [A | G] by np.hstack, new H, G and A, each tested
    finite on its own, and the stopping rule's maxima by ndarray.max.  Returns
    the gain, or None where the doubling fails."""
    A, B = sys.eval_AB(m.mu)
    n, H, I = sys.n_x, cost.Q, np.eye(sys.n_x)
    G = B @ np.linalg.solve(cost.R, B.T)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(18):
            X, info = dgesv(I + G @ H, np.hstack((A, G)))[2:]
            dH = A.T @ H @ X[:, :n]
            H, G, A = H + dH, G + A @ X[:, n:] @ A.T, A @ X[:, :n]
            if info != 0 or not (np.isfinite(H).all() and np.isfinite(G).all()
                                 and np.isfinite(A).all()):
                return None
            if np.abs(dH).max() <= RICCATI_TOL * np.abs(H).max():
                mean = DisturbanceMoments(mu=m.mu, sigma=np.zeros_like(m.sigma))
                return _gain_from(*gh(sys, mean, (H + H.T) / 2.0), cost.R)
    return None


def nominal_sdp(sys: MultNoiseSystem, m: DisturbanceMoments, cost: CostWeights) -> Controller:
    """Solve the Riccati equation through the trace SDP.

    minimize -tr(P) subject to [[Q - P + F(P), H(P)^T], [H(P), R + G(P)]] >= 0
    and P >= 0; by complementary slackness the optimum is the Riccati solution.
    """
    b = LmiBuilder()
    P = b.sym_var(sys.n_x)
    Abar0, Bbar0 = sys.stacked
    S_ext = np.asarray(m.extended_moment)
    mid = kron_const(S_ext, P)
    F = Abar0.T @ mid @ Abar0
    G = Bbar0.T @ mid @ Bbar0
    H = Bbar0.T @ mid @ Abar0
    Q, R = np.asarray(cost.Q), np.asarray(cost.R)
    sol, = solve_batch(*b.build(-P.trace(), [block_expr([[Q - P + F, H.T], [H, R + G]]), P]))
    if sol.status == "infeasible":
        raise NotStabilizableError("Riccati SDP infeasible: system is not mean-square stabilizable")
    if sol.status != "optimal":
        raise NumericalFailure(f"Riccati SDP solver returned status {sol.status}")
    P_val = P.value(sol.y)
    K = _gain_from(*fgh(sys, m, P_val)[1:], cost.R)
    return Controller(K=K, P=SymMatrix(P_val), method="nominal_sdp", iterations=sol.iterations)


def _require_finite(a: np.ndarray, what: str) -> None:
    if not all_finite(a):
        raise np.linalg.LinAlgError(f"{what} not finite")


def _to_boundary(size: float, rate: float) -> float:
    """Largest alpha with size + alpha rate >= 0."""
    return -size / rate if rate < 0.0 else math.inf


def thm6_builder(sys: MultNoiseSystem, amb, cost: CostWeights) -> tuple:
    """(builder, W, V, [arrow, main, floor]): synth_full's variables and blocks for
    one ambiguity set, the set's data written into copies of the arrow and main
    coefficient tensors; b.build(-W.trace(), blocks) is the set's program.

    The data enter through Theta = [[1, mu_hat^T], [0, Sigma_hat^{1/2}]]: G = Theta . chan
    stacks the centre A(mu_hat) W + B(mu_hat) V and the whitened channels
    H = [H_1; ...; H_nw], c H in the arrow block (c = sqrt(rho_mu / 2)) and
    sqrt(rho_sigma) H and the centre in the main block."""
    if amb.n_w != sys.n_w:
        raise ShapeError(f"ambiguity has n_w={amb.n_w}, system has n_w={sys.n_w}")
    check_cost(sys, cost)
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
    eps = 1e-9 * (1.0 + max(np.linalg.norm(cost.Q, 2), np.linalg.norm(cost.R, 2)))
    floor = block_expr([[L - eps * np.eye(n_x)]])
    theta = np.zeros((1 + n_w, 1 + n_w))
    theta[0, 0], theta[0, 1:], theta[1:, 1:] = 1.0, amb.mu_hat, psd_sqrt(amb.sigma_hat)
    G = np.tensordot(theta, chan, 1)
    H = G[1:].transpose(1, 0, 2, 3).reshape(-1, n_w * n_x, n_x)
    # rows and columns of W, of the channels' stack and of the main block's centre
    w, ch, ce = slice(n_x), slice(n_x, (1 + n_w) * n_x), slice((1 + n_w) * n_x, (2 + n_w) * n_x)
    arrow, main = arrow.coef.copy(), main.coef.copy()
    for coef, rows, e in ((arrow, ch, math.sqrt(amb.rho_mu / 2.0) * H),
                          (main, ch, math.sqrt(amb.rho_sigma) * H), (main, ce, G[0])):
        coef[:len(e), rows, w], coef[:len(e), w, rows] = e, e.transpose(0, 2, 1)
    return b, W, V, [AffineExpr(arrow), AffineExpr(main), floor]


def block_margin(prob: tuple, y) -> float:
    """The least eigenvalue at y over the blocks of the program prob = (c, F, dims),
    a stack of one: its margin of strict feasibility."""
    _, (F,), dims = prob
    k = len(y)
    return min(float(np_eigvalsh(F[k, e - d:e, e - d:e] + contract(y, F[:k, e - d:e, e - d:e]))[0])
               for d, e in zip(dims, accumulate(dims)))


def root_failing_on(sigma: np.ndarray, real):
    """A stand-in for real, psd_sqrt, whose eigensolver fails on the matrix
    sigma, alone or in a stack."""
    def root(m):
        if any(np.array_equal(a, sigma) for a in np.reshape(m, (-1,) + np.shape(m)[-2:])):
            raise NumericalFailure("eigensolver did not converge")
        return real(m)
    return root


def solve_reference(prob: tuple, start: SdpSolution | None = None) -> SdpSolution:
    """Solve the program prob = (c, F, dims), a stack of one, by the self-dual
    primal-dual method.

    start, an "optimal" solution of a program with the same variable count
    and block sizes, puts the first iterate WARM_START of the way from the
    standard start to its final one.  A warm solve that ends in
    numerical_failure or unbounded is rerun from the standard start.
    """
    (c,), (F,), dims = prob
    k, m = len(c), F.shape[-1]
    if start is not None and (start.status != "optimal" or (start.y.size, start.iterate[0]) != (k, dims)):
        raise ValueError(f"a warm start must be an optimal solution with {k} variables and blocks {dims}")
    # F[a] is the block-diagonal pencil over x = (y, tau).  The embedding asks for
    # S = sum_a x_a F[a], tr(F_i Z) = tau c_i and kappa = -c^T y - tr(F0 Z)
    # with S, Z >= 0 and tau, kappa >= 0: tau > 0 gives the optimum y / tau,
    # tau = 0 a witness of infeasibility or unboundedness
    Fv = F.reshape(k + 1, m * m)
    with np.errstate(over="ignore"):  # an overflow is reported below
        # np.linalg.norm(Fv[:k], axis=1) by numpy's own formula
        f_max = float(np.sqrt(np.add.reduce(Fv[:k] * Fv[:k], axis=1)).max(initial=0.0))
        f0, c_norm = frobenius(Fv[k]), frobenius(c)
    eye = np.eye(m)

    def finish(status, iters, reason, y=None, gap=float("nan"), lam=None, iterate=None):
        if y is None:
            return SdpSolution(np.zeros(k), status, float("nan"), float("nan"), iters, reason=reason)
        if lam is None:
            lam = block_margin(prob, y)
        return SdpSolution(y, status, float(c @ y), lam, iters, gap, reason, iterate)

    if not np.isfinite(f_max + f0 + c_norm):
        return finish("numerical_failure", 0, "the norm of F0, of an F_i or of c overflows, "
                      "so no residual or witness test can be measured")

    def run(x, S, Z, kappa):
        centred, alpha = 0, 0.0  # centring steps in a row, and the last step length
        for it in range(MAX_ITERS + 1):
            y, tau = x[:k], x[k]
            aZ = Fv @ Z.ravel()  # (tr(F_i Z), tr(F0 Z))
            r_p = S - (x @ Fv).reshape(m, m)
            cy = c @ y
            r_d = aZ.copy()
            r_d[:k] -= tau * c
            r_d[k] = aZ[k] + cy + kappa
            mu = (float(np.vdot(S, Z)) + tau * kappa) / (m + 1)
            gap = (m + 1) * mu / tau**2
            z_norm, y_norm, a_norm = frobenius(Z), frobenius(y), frobenius(aZ[:k])

            # every residual is measured against the size of the iterate it belongs to
            converged = (frobenius(r_p) <= FEAS_TOL * (tau * f0 + y_norm * f_max)
                         and frobenius(r_d[:k]) <= FEAS_TOL * (tau * c_norm + z_norm * f_max)
                         and gap <= GAP_TOL * max(1.0, abs(float(cy)) / tau))
            # the iterates approach the optimum from outside the cone, so a converged
            # point is centred at fixed tau: where a strictly feasible point exists
            # the first full centring step clears the residual, and the second
            # centres the flat directions of the optimal face; a blocked centring
            # step hands back to Mehrotra, which goes on towards the witness on its
            # own.  With c = 0 every strictly feasible point is optimal.
            if (converged and centred >= 2) or c_norm == 0.0:
                y_opt = y / tau
                lam = block_margin(prob, y_opt)
                if lam > 0.0:
                    return finish("optimal", it, "", y_opt, gap, lam, (dims, x, S, Z, kappa))
            hold = converged and (centred == 0 or alpha == 1.0)
            # Z >= 0, Z != 0 with tr(F_i Z) = 0 and tr(F0 Z) <= 0 proves that no y
            # has F(y) > 0 (Boyd, El Ghaoui, Feron & Balakrishnan 1994, sec. 2.6).
            # Relative to |Z|, either both traces are within FEAS_TOL of zero, or
            # tr(F0 Z) < 0 outweighs the tr(F_i Z) by 1 / FEAS_TOL, so that
            # tr(F(y) Z) < 0 for every |y| < |F0| / (FEAS_TOL max|F_i|).  A dual
            # iterate merely large, as near the optimum of a badly scaled program,
            # meets neither test.
            if a_norm <= FEAS_TOL * z_norm * f_max and abs(aZ[k]) <= FEAS_TOL * z_norm * f0:
                return finish("infeasible", it, "dual witness: tr(F_i Z) and tr(F0 Z) are both "
                              "within FEAS_TOL |Z| of zero, so no point is strictly feasible")
            if aZ[k] < 0.0 and a_norm * f0 <= -FEAS_TOL * aZ[k] * f_max:
                return finish("infeasible", it, "dual witness: tr(F0 Z) < 0 outweighs every "
                              "tr(F_i Z) by 1 / FEAS_TOL")
            # a recession direction: A(y) = S - tau F0 - r_p >= 0 with c^T y < 0
            if cy < 0.0 and frobenius(tau * F[k] + r_p) <= FEAS_TOL * y_norm * f_max:
                return finish("unbounded", it, "recession direction: sum_i y_i F_i >= 0 "
                              "within FEAS_TOL with c^T y < 0", y / tau)
            if it == MAX_ITERS:
                return finish("numerical_failure", it, f"iteration budget spent ({MAX_ITERS})",
                              y / tau)
            try:
                dx, dS, dZ, dk, alpha = _step(F, Fv, eye, c, S, Z, tau, kappa, aZ, mu, r_p, r_d, hold)
            except np.linalg.LinAlgError as exc:
                return finish("numerical_failure", it, f"iteration {it}: {exc}", y / tau)
            x, S = x + alpha * dx, S + alpha * dS
            Z, kappa = Z + alpha * dZ, kappa + alpha * dk
            centred = centred + 1 if hold else 0

    cold = (np.append(np.zeros(k), 1.0), eye.copy(), eye.copy(), 1.0)
    if start is None:
        return run(*cold)
    warm = run(*(WARM_START * a + (1.0 - WARM_START) * b for a, b in zip(start.iterate[1:], cold)))
    if warm.status not in ("numerical_failure", "unbounded"):
        return warm
    sol = run(*cold)
    return replace(sol, iterations=warm.iterations + sol.iterations, reason=(
        f"restarted from the standard start: the warm start ended in {warm.status} "
        f"({warm.reason}) after {warm.iterations} iterations" + (sol.reason and f"; {sol.reason}")))


def _step(F, Fv, eye, c, S, Z, tau, kappa, aZ, mu, r_p, r_d, hold):
    """One damped step: Mehrotra's predictor-corrector, or while held a
    centring step at fixed tau that clears the residuals.

    LAPACK is called directly; a nonzero info and a non-finite residual,
    Schur complement or right-hand side raise LinAlgError.
    """
    k, m = c.size, S.shape[0]
    _require_finite(r_p, "primal residual")
    _require_finite(r_d, "dual residual")
    Ls, Lz = np_cholesky(S), np_cholesky(Z)
    Ts, Tz = _inv_lower(Ls, eye), _inv_lower(Lz, eye)
    S_inv = Ts.T @ Ts
    a_s_inv = Fv @ S_inv.ravel()
    # HKM Schur complement H_ab = tr(F_a S^-1 F_b Z) as one Gram product
    G = (Lz.T @ F @ Ts.T).reshape(k + 1, m * m)
    H = G @ G.T
    _require_finite(H[:k], "Schur complement")
    chol, info = dpotrf(H[:k, :k], lower=0, clean=0)
    if info:
        raise np.linalg.LinAlgError(f"dpotrf: Schur complement not positive definite at minor {info}")
    # tau is eliminated by hand: with u = H_yy^-1 (h, c) its pivot is a sum
    # of nonnegative terms, so it never cancels to zero near the optimum
    h = H[:k, k]
    hc = np.empty((k, 2))
    hc[:, 0], hc[:, 1] = h, c
    u, _ = dpotrs(chol, hc, lower=0)
    u_h, u_c = u[:, 0], u[:, 1]
    pivot = max(H[k, k] - h @ u_h, 0.0) + c @ u_c + kappa / tau

    def direction(eta, target, corr=0.0, corr_kappa=0.0):
        """Newton step towards S Z = target I with the residuals scaled by
        1 - eta; corr and corr_kappa are Mehrotra's second-order terms.

        S^-1 (target I - S Z) is written out as target S^-1 - Z, because
        forming S^-1 (S Z) loses the digits of the condition number of S.
        """
        rhs = eta * r_d + target * a_s_inv - aZ + Fv @ (S_inv @ (eta * r_p @ Z - corr)).ravel()
        r_kappa = target - tau * kappa - corr_kappa
        rhs[k] += r_kappa / tau
        _require_finite(rhs[:k], "right-hand side")
        dx = np.zeros(k + 1)
        dx[:k] = dpotrs(chol, rhs[:k], lower=0)[0]
        if not hold:
            dx[k] = (rhs[k] - (h - c) @ dx[:k]) / pivot
            dx[:k] -= (u_h + u_c) * dx[k]
        dS = (dx @ Fv).reshape(m, m) - eta * r_p
        dZ = target * S_inv - Z - S_inv @ (dS @ Z + corr)
        dZ = 0.5 * (dZ + dZ.T)
        dk = (r_kappa - kappa * dx[k]) / tau
        # X + alpha D >= 0 up to alpha = -1 / lambda_min(T D T^T), T = L^-1, X = L L^T
        D = np.empty((2, m, m))
        D[0], D[1] = Ts @ dS @ Ts.T, Tz @ dZ @ Tz.T
        lam_s, lam_z = np_eigvalsh(D)[:, 0]
        alpha = min(_to_boundary(1.0, lam_s), _to_boundary(1.0, lam_z),
                    _to_boundary(tau, dx[k]), _to_boundary(kappa, dk))
        return dx, dS, dZ, dk, alpha

    if hold:
        dx, dS, dZ, dk, alpha = direction(1.0, mu)
    else:
        # the affine step picks sigma and supplies the corrector
        dx, dS, dZ, dk, alpha = direction(1.0, 0.0)
        alpha = min(1.0, alpha)
        mu_aff = (float(np.vdot(S + alpha * dS, Z + alpha * dZ))
                  + (tau + alpha * dx[k]) * (kappa + alpha * dk)) / (m + 1)
        sigma = min(1.0, mu_aff / mu) ** 3
        dx, dS, dZ, dk, alpha = direction(1.0 - sigma, sigma * mu, dS @ dZ, dx[k] * dk)
    return dx, dS, dZ, dk, min(1.0, STEP_TO_BOUNDARY * alpha)


def read_records_csv(path) -> list:
    records = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            records.append(RunRecord(
                M=int(row["M"]),
                realization=int(row["realization"]),
                method=row["method"],
                stabilizing=row["stabilizing"] == "true",
                J=float(row["J"]) if row["J"] else float("inf"),
                J_rel=float(row["J_rel"]) if row["J_rel"] else float("inf"),
                wall_ms=float(row["wall_ms"]),
            ))
    return records


def median_j_rel(records, M: int, method: str) -> float:
    """Median relative suboptimality over the stabilizing realizations."""
    vals = [r.J_rel for r in records
            if r.M == M and r.method == method and r.stabilizing]
    if not vals:
        return float("inf")
    return float(np.median(vals))
