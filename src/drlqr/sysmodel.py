"""System model with state- and input-multiplicative noise.

The dynamics are x_{k+1} = A(w_k) x_k + B(w_k) u_k with
A(w) = A0 + sum_i w_i A_i and B(w) = B0 + sum_i w_i B_i.  The disturbance is
described only through its mean and covariance; the extended second moment
and the stacked matrices are derived quantities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import (DomainError, ShapeError, SymMatrix, as_matrix, is_psd, require_finite,
                      symmetrize)


@dataclass(frozen=True)
class MultNoiseSystem:
    """Multiplicative-noise system matrices A0, {A_i}, B0, {B_i}."""

    A0: np.ndarray
    A: tuple[np.ndarray, ...]
    B0: np.ndarray
    B: tuple[np.ndarray, ...]

    def __post_init__(self):
        A0 = np.atleast_2d(np.asarray(self.A0, dtype=float))
        B0 = np.atleast_2d(np.asarray(self.B0, dtype=float))
        n_x = A0.shape[0]
        if A0.shape != (n_x, n_x):
            raise ShapeError(f"A0 must be square, got {A0.shape}")
        if B0.shape[0] != n_x:
            raise ShapeError(f"B0 has {B0.shape[0]} rows, expected {n_x}")
        A = tuple(np.atleast_2d(np.asarray(a, dtype=float)) for a in self.A)
        B = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in self.B)
        if len(A) != len(B):
            raise ShapeError(f"{len(A)} state-noise matrices but {len(B)} input-noise matrices")
        for i, a in enumerate(A):
            if a.shape != A0.shape:
                raise ShapeError(f"A[{i}] has shape {a.shape}, expected {A0.shape}")
        for i, b in enumerate(B):
            if b.shape != B0.shape:
                raise ShapeError(f"B[{i}] has shape {b.shape}, expected {B0.shape}")
        require_finite("A0", A0)
        require_finite("B0", B0)
        for i, (a, b) in enumerate(zip(A, B)):
            require_finite(f"A[{i}]", a)
            require_finite(f"B[{i}]", b)
        object.__setattr__(self, "A0", A0)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B0", B0)
        object.__setattr__(self, "B", B)

    @property
    def n_x(self) -> int:
        return self.A0.shape[0]

    @property
    def n_u(self) -> int:
        return self.B0.shape[1]

    @property
    def n_w(self) -> int:
        return len(self.A)

    def eval_AB(self, w) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (A(w), B(w)) at a disturbance realization."""
        w = np.asarray(w, dtype=float).ravel()
        if w.size != self.n_w:
            raise ShapeError(f"disturbance has length {w.size}, expected {self.n_w}")
        Aw = self.A0 + sum(wi * Ai for wi, Ai in zip(w, self.A))
        Bw = self.B0 + sum(wi * Bi for wi, Bi in zip(w, self.B))
        return np.asarray(Aw), np.asarray(Bw)

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertical stacks [A0; A1; ...; A_nw] and [B0; B1; ...; B_nw], built once, read-only."""
        stacks = (np.vstack((self.A0,) + self.A), np.vstack((self.B0,) + self.B))
        for a in stacks:
            a.setflags(write=False)
        return stacks

    def to_json_dict(self) -> dict:
        return {
            "n_x": self.n_x,
            "n_u": self.n_u,
            "n_w": self.n_w,
            "A0": self.A0.tolist(),
            "A": [a.tolist() for a in self.A],
            "B0": self.B0.tolist(),
            "B": [b.tolist() for b in self.B],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MultNoiseSystem":
        try:
            n_x, n_u, n_w = int(d["n_x"]), int(d["n_u"]), int(d["n_w"])
            sys = cls(
                A0=np.array(d["A0"], dtype=float),
                A=tuple(np.array(a, dtype=float) for a in d["A"]),
                B0=np.array(d["B0"], dtype=float),
                B=tuple(np.array(b, dtype=float) for b in d["B"]),
            )
        except DomainError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ShapeError(f"malformed system description: {exc}") from exc
        if (sys.n_x, sys.n_u, sys.n_w) != (n_x, n_u, n_w):
            raise ShapeError(
                f"declared dimensions ({n_x}, {n_u}, {n_w}) do not match "
                f"matrices ({sys.n_x}, {sys.n_u}, {sys.n_w})"
            )
        return sys


def load_system(path) -> MultNoiseSystem:
    with open(path) as f:
        return MultNoiseSystem.from_json_dict(json.load(f))


def save_system(sys: MultNoiseSystem, path) -> None:
    with open(path, "w") as f:
        json.dump(sys.to_json_dict(), f, indent=2)


@dataclass(frozen=True)
class DisturbanceMoments:
    """Mean and covariance of the disturbance vector."""

    mu: np.ndarray
    sigma: SymMatrix

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).ravel()
        require_finite("mu", mu)
        sigma = self.sigma if isinstance(self.sigma, SymMatrix) else SymMatrix(np.atleast_2d(self.sigma))
        if sigma.dim != mu.size:
            raise ShapeError(f"mean has length {mu.size} but covariance is {sigma.dim}x{sigma.dim}")
        if not is_psd(sigma):
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_w(self) -> int:
        return self.mu.size

    @cached_property
    def extended_moment(self) -> SymMatrix:
        """Extended second moment [[1, mu^T], [mu, Sigma + mu mu^T]], built once."""
        mu = self.mu.reshape(-1, 1)
        top = np.hstack([np.ones((1, 1)), mu.T])
        bottom = np.hstack([mu, as_matrix(self.sigma) + mu @ mu.T])
        return SymMatrix(np.vstack([top, bottom]))


@dataclass(frozen=True)
class CostWeights:
    """Quadratic stage-cost weights, both strictly positive definite."""

    Q: SymMatrix
    R: SymMatrix

    def __post_init__(self):
        Q = self.Q if isinstance(self.Q, SymMatrix) else SymMatrix(np.atleast_2d(self.Q))
        R = self.R if isinstance(self.R, SymMatrix) else SymMatrix(np.atleast_2d(self.R))
        for name, m in (("Q", Q), ("R", R)):
            w = np.linalg.eigvalsh(as_matrix(m))
            if w[0] <= 0:
                raise ValueError(f"{name} must be strictly positive definite (lambda_min = {w[0]:.3e})")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)


def fgh(sys: MultNoiseSystem, m: DisturbanceMoments, P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment operators (F(P), G(P), H(P)) of the stochastic Riccati recursion.

    F(P) = Abar0^T (Sigma_ext x P) Abar0 and analogously for G (input stack)
    and H (mixed).  Computed through the Kronecker form; the double-sum
    expansion is kept as a test oracle only.
    """
    P = as_matrix(P)
    if P.shape != (sys.n_x, sys.n_x):
        raise ShapeError(f"P has shape {P.shape}, expected ({sys.n_x}, {sys.n_x})")
    if m.n_w != sys.n_w:
        raise ShapeError(f"moments have n_w={m.n_w}, system has n_w={sys.n_w}")
    Abar0, Bbar0 = sys.stacked
    S, P = as_matrix(m.extended_moment), symmetrize(P)
    # kron(S, P): the same products as np.kron, without its per-call overhead
    middle = (S[:, None, :, None] * P[None, :, None, :]).reshape(Abar0.shape[0], Abar0.shape[0])
    F = symmetrize(Abar0.T @ middle @ Abar0)
    G = symmetrize(Bbar0.T @ middle @ Bbar0)
    H = Bbar0.T @ middle @ Abar0
    return F, G, H
