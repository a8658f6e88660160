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
from functools import lru_cache

import numpy as np

from .matcore import (ShapeError, _memo_last, all_finite, array_field, c_einsum, dgesv, dpotrf,
                      np_eigvals, sym_index, sym_pairs)
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
    if m.n_w != cl.sys.n_w:
        raise ShapeError(f"moments have n_w={m.n_w}, system has n_w={cl.sys.n_w}")
    return _svec_operator(cl.sys, cl.K, m.extended_moment)


def _svec_operator(sys: MultNoiseSystem, K: np.ndarray, S: np.ndarray) -> np.ndarray:
    """second_moment_operator of the loop (sys, K) under the extended moment S, for a
    gain K the package made itself, so no ClosedLoop checks and copies it again.  For
    a stack of gains K, and S one extended moment or one per gain, one stacked product
    and one c_einsum pair build each operator with the bits of its own build."""
    n, stack = sys.n_x, K.shape[:-2]
    Abar0, Bbar0 = sys.stacked
    mats = (Abar0 + Bbar0 @ K).reshape(stack + (-1, n, n))  # A_i + B_i K
    cd, dc = sym_pairs(n)
    weighted = c_einsum("...ij,...jca->...ica", S, mats)
    # full[c, a, d, b] = T[a n + b, c n + d], flat
    full = c_einsum("...ica,...idb->...cadb", weighted, mats).reshape(stack + (-1,))
    T = full.take(cd, axis=-1) + full.take(dc, axis=-1)
    T *= _halves(n)  # columns c = d were added to themselves: halved, exactly, the others times 1
    return T


@lru_cache(maxsize=None)
def _halves(n: int) -> np.ndarray:
    """The read-only row that scales the svec columns c = d by 0.5 and the others by 1."""
    w = np.ones(n * (n + 1) // 2)
    w[sym_index(n)[1].diagonal()] = 0.5
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _spectral_radius(T: np.ndarray) -> float:
    """Largest eigenvalue modulus of T by the gufunc np.linalg.eigvals calls
    (matcore.np_eigvals), so the bits are numpy's, at any scale of T.  A T
    with a NaN or infinite entry has radius inf: gains and moments are checked
    finite on entry, so only an overflow makes one."""
    if not T.size:
        return 0.0
    if not all_finite(T):
        return math.inf
    return float(np.maximum.reduce(np.abs(np_eigvals(T))))


def _certified_mss(T: np.ndarray, n: int) -> bool:
    """The MSS rule rho(T) < 1 - TOL, decided by lyapunov_value(T / (1 - TOL), I)."""
    return lyapunov_value(T / (1.0 - TOL), _eye(n)) is not None


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


def _closed_loop_costs(sys: MultNoiseSystem, K: np.ndarray, m: DisturbanceMoments,
                       cost: CostWeights, x0: np.ndarray) -> list:
    """closed_loop_cost of (sys, K[i]) for each of the package's gains in the stack K, x0 as
    state_vector gives it, or inf where it raises InstabilityError: one operator build."""
    T, C = _svec_operator(sys, K, m.extended_moment), cost.Q + K.swapaxes(-1, -2) @ cost.R @ K
    P = [lyapunov_value(t, c) if _certified_mss(t, sys.n_x) else None for t, c in zip(T, C)]
    return [math.inf if p is None else float(x0 @ p @ x0) for p in P]


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
    A = _eye(len(T)) - T
    upper, position = sym_index(C.shape[0])
    v, info = dgesv(A, C.take(upper))[2:]  # svec(C), and smat(v) below, without their checks
    if info != 0 or not all_finite(v):
        return None
    V = v[position]
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
