"""System model with state- and input-multiplicative noise.

The dynamics are x_{k+1} = A(w_k) x_k + B(w_k) u_k with
A(w) = A0 + sum_i w_i A_i and B(w) = B0 + sum_i w_i B_i.  The disturbance is
described only through its mean and covariance; the extended second moment
and the stacked matrices are derived quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import DomainError, ShapeError, array_field, is_psd, psd_sqrt, sym_field, symmetrize


@dataclass(frozen=True)
class MultNoiseSystem:
    """Multiplicative-noise system matrices A0, {A_i}, B0, {B_i}."""

    A0: np.ndarray
    A: tuple[np.ndarray, ...]
    B0: np.ndarray
    B: tuple[np.ndarray, ...]

    def __post_init__(self):
        A0, B0 = array_field("A0", self.A0), array_field("B0", self.B0)
        n_x = A0.shape[0]
        if A0.shape != (n_x, n_x):
            raise ShapeError(f"A0 must be square, got {A0.shape}")
        if B0.shape[0] != n_x:
            raise ShapeError(f"B0 has {B0.shape[0]} rows, expected {n_x}")
        A = tuple(array_field(f"A[{i}]", a) for i, a in enumerate(self.A))
        B = tuple(array_field(f"B[{i}]", b) for i, b in enumerate(self.B))
        if len(A) != len(B):
            raise ShapeError(f"{len(A)} state-noise matrices but {len(B)} input-noise matrices")
        for i, a in enumerate(A):
            if a.shape != A0.shape:
                raise ShapeError(f"A[{i}] has shape {a.shape}, expected {A0.shape}")
        for i, b in enumerate(B):
            if b.shape != B0.shape:
                raise ShapeError(f"B[{i}] has shape {b.shape}, expected {B0.shape}")
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
            sys = cls(A0=d["A0"], A=d["A"], B0=d["B0"], B=d["B"])
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


@dataclass(frozen=True)
class DisturbanceMoments:
    """Mean and covariance of the disturbance vector."""

    mu: np.ndarray
    sigma: np.ndarray  # read-only, symmetric

    def __post_init__(self):
        mu = array_field("mu", self.mu, ndmin=1).ravel()
        sigma = sym_field("sigma", self.sigma)
        if sigma.shape[0] != mu.size:
            raise ShapeError(f"mean has length {mu.size} but covariance is {sigma.shape[0]}x{sigma.shape[0]}")
        if not is_psd(sigma):
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_w(self) -> int:
        return self.mu.size

    @cached_property
    def extended_moment(self) -> np.ndarray:
        """Extended second moment [[1, mu^T], [mu, Sigma + mu mu^T]], built once, read-only."""
        return _extended_moment(self.mu, self.sigma)

    @cached_property
    def _sigma_root(self) -> np.ndarray:
        """Sigma^{1/2} (matcore.psd_sqrt), built once, read-only: sample_gaussian's factor."""
        root = psd_sqrt(self.sigma)
        root.setflags(write=False)
        return root


@dataclass(frozen=True)
class CostWeights:
    """Quadratic stage-cost weights, both strictly positive definite, read-only."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("Q", "R"):
            object.__setattr__(self, name, sym_field(name, getattr(self, name), definite=True))


def _extended_moment(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """[[1, mu^T], [mu, sigma + mu mu^T]], read-only, for a checked mean and covariance."""
    col = mu.reshape(-1, 1)
    S = np.empty((1 + mu.size, 1 + mu.size))
    S[0, 0], S[0, 1:], S[1:, :1] = 1.0, mu, col
    S[1:, 1:] = sigma + col @ col.T
    return sym_field("extended_moment", S)


def check_cost(sys: MultNoiseSystem, cost: CostWeights) -> None:
    """Raise ShapeError naming Q or R unless Q is n_x x n_x and R is n_u x n_u."""
    for name, n in (("Q", sys.n_x), ("R", sys.n_u)):
        dim = getattr(cost, name).shape[0]
        if dim != n:
            raise ShapeError(f"{name} is {dim}x{dim}, expected {n}x{n} for this system")


def state_vector(sys: MultNoiseSystem, x0) -> np.ndarray:
    """x0 as array_field stores it, raising ShapeError unless it has n_x entries."""
    x0 = array_field("x0", x0, ndmin=1).ravel()
    if x0.size != sys.n_x:
        raise ShapeError(f"x0 has length {x0.size}, expected {sys.n_x}")
    return x0


def _kron_middle(sys: MultNoiseSystem, m, P) -> np.ndarray:
    """kron(Sigma_ext, P), the middle factor of F, G and H, after the checks of P and m:
    m is a DisturbanceMoments, or, for a stack P, the stack of their extended moments."""
    P, n = np.asarray(P, dtype=float), sys.n_x
    if P.shape[-2:] != (n, n):
        raise ShapeError(f"P has shape {P.shape}, expected ({n}, {n})")
    S = getattr(m, "extended_moment", m)
    if S.shape[-1] != sys.n_w + 1:
        raise ShapeError(f"moments have n_w={S.shape[-1] - 1}, system has n_w={sys.n_w}")
    P, n = symmetrize(P), S.shape[-1] * n
    # the same products as np.kron, without its per-call overhead
    return (S[..., :, None, :, None] * P[..., None, :, None, :]).reshape(P.shape[:-2] + (n, n))


def _gh_of(sys: MultNoiseSystem, middle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, H) from the Kronecker middle, for gh and fgh alike."""
    Abar0, Bbar0 = sys.stacked
    left = Bbar0.T @ middle  # the first product of both, as B^T M B and B^T M A evaluate it
    return symmetrize(left @ Bbar0), left @ Abar0


def gh(sys: MultNoiseSystem, m, P) -> tuple[np.ndarray, np.ndarray]:
    """(G(P), H(P)) of fgh, the same bits, without F(P): all a greedy gain reads."""
    return _gh_of(sys, _kron_middle(sys, m, P))


def fgh(sys: MultNoiseSystem, m, P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment operators (F(P), G(P), H(P)) of the stochastic Riccati recursion.

    F(P) = Abar0^T (Sigma_ext x P) Abar0 and analogously for G (input stack)
    and H (mixed).  Computed through the Kronecker form, whose middle factor
    is built once for all three; the double-sum expansion is kept as a test
    oracle only.  For a stack P (see _kron_middle) each is a stack, bit for bit.
    """
    middle = _kron_middle(sys, m, P)
    Abar0 = sys.stacked[0]
    return (symmetrize(Abar0.T @ middle @ Abar0), *_gh_of(sys, middle))
