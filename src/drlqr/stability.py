"""Mean-square stability certification and exact closed-loop cost evaluation.

Stability of x_{k+1} = (A(w_k) + B(w_k) K) x_k is decided through the
spectral radius of the second-moment operator P -> Abar_cl^T (Sigma_ext x P)
Abar_cl as a matrix on the n(n+1)/2 coordinates svec(P) of symmetric P, which
is exact and solver-free at the problem sizes handled here.  These checks hold
at one moment pair; the distributionally robust certificate of a synthesized
gain is the strict feasibility of the synthesis LMIs (see drsynth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (DomainError, ShapeError, SymMatrix, as_matrix, smat, svec, sym_index,
                      symmetrize)
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
    if not np.all(np.isfinite(x0)):
        raise DomainError(f"x0 has non-finite entries: {x0}")
    P = closed_loop_value_matrix(cl, m, cost)
    return float(x0 @ as_matrix(P) @ x0)


def closed_loop_value_matrix(cl: ClosedLoop, m: DisturbanceMoments, cost: CostWeights) -> SymMatrix:
    """Solve P = Q + K^T R K + L(P), i.e. (I - T_s) svec(P) = svec(Q + K^T R K)."""
    T = second_moment_operator(cl, m)
    radius = _spectral_radius(T)
    if not radius < 1.0 - TOL:
        raise InstabilityError(f"closed loop is not mean-square stable (radius {radius:.6f}); cost is infinite")
    rhs = as_matrix(cost.Q) + cl.K.T @ as_matrix(cost.R) @ cl.K
    v = np.linalg.solve(np.eye(T.shape[0]) - T, svec(symmetrize(rhs)))
    return SymMatrix(smat(v, cl.sys.n_x))
