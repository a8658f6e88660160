"""Mean-square stability certification and exact closed-loop cost evaluation.

x_{k+1} = (A(w_k) + B(w_k) K) x_k is mean-square stable when the second-moment
operator L(P) = Abar_cl^T (Sigma_ext x P) Abar_cl, a matrix T on the n(n+1)/2
coordinates svec(P) of symmetric P, has spectral radius below 1 - TOL.  One
rule decides it for is_mss and the cost: lyapunov_value, the one certified value
solve, on T / (1 - TOL) and I; the radius is information only.  These checks
hold at one moment pair; the distributionally robust certificate of a
synthesized gain is the strict feasibility of the synthesis LMIs (see drsynth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (ShapeError, _memo_last, all_finite, array_field, c_einsum, dgesv, dpotrf,
                      np_eigvals, smat, svec, sym_index, sym_pairs)
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem, check_cost, state_vector

TOL = 1e-9  # spectral radii within TOL of 1 count as unstable


class InstabilityError(RuntimeError):
    """The closed loop is not mean-square stable; the requested quantity diverges."""


@dataclass(frozen=True)
class ClosedLoop:
    """A multiplicative-noise system under static state feedback u = K x."""

    sys: MultNoiseSystem
    K: np.ndarray

    def __post_init__(self):
        K = array_field("gain K", self.K)
        if K.shape != (self.sys.n_u, self.sys.n_x):
            raise ShapeError(f"gain has shape {K.shape}, expected ({self.sys.n_u}, {self.sys.n_x})")
        object.__setattr__(self, "K", K)


def second_moment_operator(cl: ClosedLoop, m: DisturbanceMoments) -> np.ndarray:
    """Matrix T_s = E T D with svec(L(P)) = T_s svec(P), L(P) = Abar_cl^T (Sigma_ext x P) Abar_cl.

    On vec(P), L is T = sum_ij S_ij kron(A_j^T, A_i^T) over the closed-loop
    channels A_i: T[a n + b, c n + d] = sum_ij S_ij A_j[c, a] A_i[d, b], one
    contraction.  E keeps the rows a <= b; D adds the columns (c, d) and (d, c)
    of symmetric P, the diagonal once; only the entries of T these read are
    gathered.  rho(T_s) = rho(T): L commutes with transposition, so T_s holds
    the eigenvalues of T on symmetric P, and L is a positive map, so rho(T) has
    a PSD eigenvector (Evans & Hoegh-Krohn 1978).
    """
    return _svec_operator(cl.sys, cl.K, m)


def _svec_operator(sys: MultNoiseSystem, K: np.ndarray, m: DisturbanceMoments) -> np.ndarray:
    """second_moment_operator of the loop (sys, K), for a gain K of the right shape
    that the package made itself, so no ClosedLoop checks and copies it again."""
    if m.n_w != sys.n_w:
        raise ShapeError(f"moments have n_w={m.n_w}, system has n_w={sys.n_w}")
    n = sys.n_x
    Abar0, Bbar0 = sys.stacked
    mats = (Abar0 + Bbar0 @ K).reshape(-1, n, n)  # A_i + B_i K
    cd, dc = sym_pairs(n)
    weighted = c_einsum("ij,jca->ica", m.extended_moment, mats)
    full = c_einsum("ica,idb->cadb", weighted, mats)  # full[c, a, d, b] = T[a n + b, c n + d]
    T = full.take(cd) + full.take(dc)
    T[:, sym_index(n)[1].diagonal()] *= 0.5  # columns c = d were added to themselves: exact
    return T


def _spectral_radius(T: np.ndarray) -> float:
    """Largest eigenvalue modulus of T by the gufunc np.linalg.eigvals calls
    (matcore.np_eigvals), so the bits are numpy's, at any scale of T.  A T
    with a NaN or infinite entry has radius inf: gains and moments are checked
    finite on entry, so only an overflow makes one."""
    if not T.size:
        return 0.0
    if not all_finite(T):
        return math.inf
    return float(np.abs(np_eigvals(T)).max())


def _certified_mss(T: np.ndarray, n: int) -> bool:
    """The MSS rule rho(T) < 1 - TOL, decided by lyapunov_value(T / (1 - TOL), I)."""
    return lyapunov_value(T / (1.0 - TOL), np.eye(n)) is not None


@_memo_last(lambda cl, m: cl.sys.stacked + (cl.K, m.extended_moment))
def _operator_verdict(cl: ClosedLoop, m: DisturbanceMoments) -> tuple[np.ndarray, bool]:
    """(T, _certified_mss(T)) with T = second_moment_operator(cl, m), read-only.  The last
    pair is kept for the last loop and moments (matcore._memo_last), so is_mss and
    closed_loop_value_matrix on one loop build T and decide its verdict once."""
    T = second_moment_operator(cl, m)
    T.setflags(write=False)
    return T, _certified_mss(T, cl.sys.n_x)


def is_mss(cl: ClosedLoop, m: DisturbanceMoments) -> tuple[bool, float]:
    """(stable, radius): stable when one Lyapunov solve certifies rho(T_s) < 1 - TOL.

    Radii within TOL of 1 count as unstable, erring on the safe side.  A call
    builds T_s and makes the verdict solve, both kept for the last loop and
    moments (_operator_verdict), and then computes the spectral radius of T_s
    by one call of numpy's eigvals gufunc (_spectral_radius).  The
    radius is information only, computed on every call: the solve decides the
    verdict.
    """
    T, stable = _operator_verdict(cl, m)
    return stable, _spectral_radius(T)


def closed_loop_cost(cl: ClosedLoop, m: DisturbanceMoments, cost: CostWeights, x0) -> float:
    """Exact infinite-horizon cost x0^T P_cl x0, P_cl = Q + K^T R K + L(P_cl)."""
    x0 = state_vector(cl.sys, x0)
    return float(x0 @ closed_loop_value_matrix(cl, m, cost) @ x0)


def lyapunov_value(T: np.ndarray, C: np.ndarray) -> np.ndarray | None:
    """V with (I - T) svec V = svec C, T from second_moment_operator, or None.

    L is positive and C > 0, so a solution V > 0 exists iff rho(L) < 1: a
    finite V with a Cholesky factor (LAPACK, info 0) certifies mean-square
    stability, and None means the solve did not certify it.  A T with a NaN or
    infinite entry, as an overflowed operator has, is never certified: the bare
    solve can return a finite V > 0 for one.
    """
    if not all_finite(T):
        return None
    A = 0.0 - T  # I - T, bit for bit: -T would give -0.0 where I - T has +0.0
    A.reshape(-1)[::A.shape[0] + 1] += 1.0
    v, info = dgesv(A, svec(C))[2:]
    if info != 0 or not all_finite(v):
        return None
    V = smat(v, C.shape[0])
    return V if dpotrf(V, lower=0, clean=0)[1] == 0 else None


def closed_loop_value_matrix(cl: ClosedLoop, m: DisturbanceMoments, cost: CostWeights) -> np.ndarray:
    """P = Q + K^T R K + L(P) by lyapunov_value on T.  InstabilityError unless
    is_mss's verdict, _certified_mss, passes and the value solve certifies; the
    radius is computed only for the error message."""
    check_cost(cl.sys, cost)
    T, stable = _operator_verdict(cl, m)
    P = lyapunov_value(T, cost.Q + cl.K.T @ cost.R @ cl.K) if stable else None
    if P is None:
        raise InstabilityError(f"closed loop is not certified mean-square stable "
                               f"(radius {_spectral_radius(T):.6f}); its cost is not certified finite")
    return P
