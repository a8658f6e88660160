"""Mean-square stability certification and exact closed-loop cost evaluation.

Stability of x_{k+1} = (A(w_k) + B(w_k) K) x_k is decided through the
spectral radius of the matrix representation of the second-moment operator
P -> Abar_cl^T (Sigma_ext x P) Abar_cl, which is exact and solver-free at
the problem sizes handled here.  The Lyapunov LMI route remains available
through sdpcore as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import ShapeError, SymMatrix, as_matrix, psd_sqrt, symmetrize, vec, unvec
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem

DEFAULT_TOL = 1e-9


class InstabilityError(RuntimeError):
    """The closed loop is not mean-square stable; the requested quantity diverges."""


@dataclass(frozen=True)
class ClosedLoop:
    """A multiplicative-noise system under static state feedback u = K x."""

    sys: MultNoiseSystem
    K: np.ndarray

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        if K.shape != (self.sys.n_u, self.sys.n_x):
            raise ShapeError(f"gain has shape {K.shape}, expected ({self.sys.n_u}, {self.sys.n_x})")
        object.__setattr__(self, "K", K)

    def noise_channel_matrices(self) -> list[np.ndarray]:
        """Closed-loop channel matrices [A0 + B0 K, A1 + B1 K, ...]."""
        mats = [self.sys.A0 + self.sys.B0 @ self.K]
        for Ai, Bi in zip(self.sys.A, self.sys.B):
            mats.append(Ai + Bi @ self.K)
        return mats


def second_moment_operator(cl: ClosedLoop, m: DisturbanceMoments) -> np.ndarray:
    """Matrix T acting on vec(P) for P -> Abar_cl^T (Sigma_ext x P) Abar_cl.

    T = sum_ij S_ij kron(A_j^T, A_i^T) over the closed-loop channel matrices
    A_i, i.e. T[a n + b, c n + d] = sum_ij S_ij A_j[c, a] A_i[d, b], built as
    one contraction over the channels.
    """
    if m.n_w != cl.sys.n_w:
        raise ShapeError(f"moments have n_w={m.n_w}, system has n_w={cl.sys.n_w}")
    mats = np.stack(cl.noise_channel_matrices())
    S_ext = as_matrix(m.extended_moment())
    n = cl.sys.n_x
    weighted = np.einsum("ij,jca->ica", S_ext, mats)
    return np.einsum("ica,idb->abcd", weighted, mats).reshape(n * n, n * n)


def _spectral_radius(T: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(T)))) if T.size else 0.0


def apply_second_moment(cl: ClosedLoop, m: DisturbanceMoments, P) -> np.ndarray:
    """Apply the second-moment operator directly to a symmetric matrix P."""
    T = second_moment_operator(cl, m)
    return unvec(T @ vec(as_matrix(P)), cl.sys.n_x)


def is_mss(cl: ClosedLoop, m: DisturbanceMoments, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Mean-square stability test via the spectral radius of the operator matrix.

    Radii within tol of 1 are reported unstable, erring on the safe side.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    radius = _spectral_radius(second_moment_operator(cl, m))
    return radius < 1.0 - tol, radius


def lyapunov_P(cl: ClosedLoop, m: DisturbanceMoments, tol: float = DEFAULT_TOL) -> SymMatrix:
    """Lyapunov certificate P > 0 with P - L(P) = I, via (I - T) vec(P) = vec(I)."""
    stable, radius = is_mss(cl, m, tol)
    if not stable:
        raise InstabilityError(f"closed loop is not mean-square stable (radius {radius:.6f})")
    n = cl.sys.n_x
    T = second_moment_operator(cl, m)
    P = unvec(np.linalg.solve(np.eye(n * n) - T, vec(np.eye(n))), n)
    return SymMatrix(P)


def closed_loop_cost(cl: ClosedLoop, m: DisturbanceMoments, cost: CostWeights, x0) -> float:
    """Exact infinite-horizon cost x0^T P_cl x0, P_cl = Q + K^T R K + L(P_cl)."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != cl.sys.n_x:
        raise ShapeError(f"x0 has length {x0.size}, expected {cl.sys.n_x}")
    P = closed_loop_value_matrix(cl, m, cost)
    return float(x0 @ as_matrix(P) @ x0)


def closed_loop_value_matrix(cl: ClosedLoop, m: DisturbanceMoments, cost: CostWeights) -> SymMatrix:
    """Solve P = Q + K^T R K + L(P) for the closed-loop value matrix."""
    T = second_moment_operator(cl, m)
    radius = _spectral_radius(T)
    if not radius < 1.0 - DEFAULT_TOL:
        raise InstabilityError(f"closed loop is not mean-square stable (radius {radius:.6f}); cost is infinite")
    n = cl.sys.n_x
    rhs = as_matrix(cost.Q) + cl.K.T @ as_matrix(cost.R) @ cl.K
    P = unvec(np.linalg.solve(np.eye(n * n) - T, vec(symmetrize(rhs))), n)
    return SymMatrix(P)


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
    sigma_hat = as_matrix(amb.sigma_hat)
    sigma_dr = SymMatrix(amb.rho_sigma * sigma_hat)
    half = as_matrix(psd_sqrt(sigma_hat))
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
