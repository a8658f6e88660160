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
bit for bit; read_records_csv and median_j_rel read and summarize the experiment CSV.
"""

import csv

import numpy as np
from scipy.linalg import solve_discrete_are
from scipy.linalg.lapack import dgesv

from drlqr.experiment import RunRecord
from drlqr.matcore import NumericalFailure, ShapeError, SymMatrix, psd_sqrt, sym_index
from drlqr.riccati import TOL as RICCATI_TOL
from drlqr.riccati import Controller, NotStabilizableError, _gain_from
from drlqr.sdpcore import LmiBuilder, block_expr, kron_const, solve
from drlqr.stability import TOL, ClosedLoop, InstabilityError, is_mss
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem, fgh, gh


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
    sol = solve(b.build(-P.trace(), [block_expr([[Q - P + F, H.T], [H, R + G]]), P]))
    if sol.status == "infeasible":
        raise NotStabilizableError("Riccati SDP infeasible: system is not mean-square stabilizable")
    if sol.status != "optimal":
        raise NumericalFailure(f"Riccati SDP solver returned status {sol.status}")
    P_val = P.value(sol.y)
    K = _gain_from(*fgh(sys, m, P_val)[1:], cost.R)
    return Controller(K=K, P=SymMatrix(P_val), method="nominal_sdp", iterations=sol.iterations)


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
