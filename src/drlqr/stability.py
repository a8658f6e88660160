"""Mean-square stability certification and exact closed-loop cost evaluation.

Stability of x_{k+1} = (A(w_k) + B(w_k) K) x_k is decided through the
spectral radius of the second-moment operator P -> Abar_cl^T (Sigma_ext x P)
Abar_cl as a matrix on the n(n+1)/2 coordinates svec(P) of symmetric P, which
is exact and solver-free at the problem sizes handled here.  lyapunov_value
is the one certified value solve, for the cost here and riccati's Newton
steps.  These checks hold at one moment pair; the distributionally robust
certificate of a synthesized gain is the strict feasibility of the synthesis
LMIs (see drsynth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv, dpotrf

from .matcore import ShapeError, SymMatrix, as_matrix, require_finite, smat, svec, sym_index
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem

TOL = 1e-9  # spectral radii within TOL of 1 count as unstable


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
        require_finite("gain K", K)
        object.__setattr__(self, "K", K)


def second_moment_operator(cl: ClosedLoop, m: DisturbanceMoments) -> np.ndarray:
    """Matrix T_s = E T D with svec(L(P)) = T_s svec(P), L(P) = Abar_cl^T (Sigma_ext x P) Abar_cl.

    On vec(P), L is T = sum_ij S_ij kron(A_j^T, A_i^T) over the closed-loop
    channels A_i: T[a n + b, c n + d] = sum_ij S_ij A_j[c, a] A_i[d, b], one
    contraction.  E keeps the rows a <= b; D adds the columns (c, d) and (d, c)
    of symmetric P, the diagonal once.  rho(T_s) = rho(T): L commutes with
    transposition, so T_s holds the eigenvalues of T on symmetric P, and L is a
    positive map, so rho(T) has a PSD eigenvector (Evans & Hoegh-Krohn 1978).
    """
    if m.n_w != cl.sys.n_w:
        raise ShapeError(f"moments have n_w={m.n_w}, system has n_w={cl.sys.n_w}")
    n = cl.sys.n_x
    Abar0, Bbar0 = cl.sys.stacked
    mats = (Abar0 + Bbar0 @ cl.K).reshape(-1, n, n)  # A_i + B_i K
    upper, position = sym_index(n)
    weighted = np.einsum("ij,jca->ica", as_matrix(m.extended_moment), mats)
    full = np.einsum("ica,idb->abcd", weighted, mats)
    T = (full + full.transpose(0, 1, 3, 2)).reshape(n * n, n * n)[upper][:, upper]
    T[:, position.diagonal()] *= 0.5  # columns c = d were added to themselves: exact
    return T


def _spectral_radius(T: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(T)))) if T.size else 0.0


def is_mss(cl: ClosedLoop, m: DisturbanceMoments) -> tuple[bool, float]:
    """Mean-square stability test via the spectral radius of the operator matrix T_s.

    Radii within TOL of 1 are reported unstable, erring on the safe side.
    """
    radius = _spectral_radius(second_moment_operator(cl, m))
    return radius < 1.0 - TOL, radius


def closed_loop_cost(cl: ClosedLoop, m: DisturbanceMoments, cost: CostWeights, x0) -> float:
    """Exact infinite-horizon cost x0^T P_cl x0, P_cl = Q + K^T R K + L(P_cl)."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != cl.sys.n_x:
        raise ShapeError(f"x0 has length {x0.size}, expected {cl.sys.n_x}")
    require_finite("x0", x0)
    P = closed_loop_value_matrix(cl, m, cost)
    return float(x0 @ as_matrix(P) @ x0)


def lyapunov_value(T: np.ndarray, C: np.ndarray) -> np.ndarray | None:
    """V with (I - T) svec V = svec C, T from second_moment_operator, or None.

    L is positive and C > 0, so a solution V > 0 exists iff rho(L) < 1: a
    finite V with a Cholesky factor (LAPACK, info 0) certifies mean-square
    stability, and None means the solve did not certify it.
    """
    v, info = dgesv(np.eye(T.shape[0]) - T, svec(C))[2:]
    if info != 0 or not np.isfinite(v).all():
        return None
    V = smat(v, C.shape[0])
    return V if dpotrf(V, lower=0, clean=0)[1] == 0 else None


def closed_loop_value_matrix(cl: ClosedLoop, m: DisturbanceMoments, cost: CostWeights) -> SymMatrix:
    """P = Q + K^T R K + L(P) by lyapunov_value.  InstabilityError unless the
    radius passes is_mss's rule and the solve certifies P."""
    T = second_moment_operator(cl, m)
    radius = _spectral_radius(T)
    rhs = as_matrix(cost.Q) + cl.K.T @ as_matrix(cost.R) @ cl.K
    P = lyapunov_value(T, rhs) if radius < 1.0 - TOL else None
    if P is None:
        raise InstabilityError(f"closed loop is not certified mean-square stable "
                               f"(radius {radius:.6f}); its cost is not certified finite")
    return SymMatrix(P)
