"""Dense symmetric-matrix kernel shared by the control and SDP layers.

All downstream modules funnel their linear algebra through these helpers so
that symmetry handling, PSD tolerances and the half-vectorization svec live
in exactly one place.  Storage is dense; problem sizes are small (blocks of
at most a few tens of rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PSD_TOL = 1e-9  # relative eigenvalue slack of is_psd


class NumericalFailure(RuntimeError):
    """An iterative numerical routine failed to converge."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


def require_finite(name: str, a) -> None:
    """Raise DomainError naming the input when a has a NaN or infinite entry."""
    if not np.isfinite(a).all():
        raise DomainError(f"non-finite entries in {name}")


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class SymMatrix:
    """Immutable symmetric real matrix.

    Symmetry is enforced by construction: the stored entries are
    (M + M^T) / 2 of whatever was passed in, so asymmetry can never
    propagate into LMI assembly.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = symmetrize(self.entries)
        if not np.all(np.isfinite(m)):
            raise DomainError("non-finite entries in symmetric matrix")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def as_matrix(m) -> np.ndarray:
    """Coerce a SymMatrix or array-like to a float ndarray."""
    if isinstance(m, SymMatrix):
        return np.asarray(m.entries)
    return np.asarray(m, dtype=float)


def sym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, orthogonal eigenvector matrix) with
    V @ diag(w) @ V.T reconstructing the input.
    """
    a = symmetrize(as_matrix(m))
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver did not converge: {exc}") from exc
    return w, v


def psd_sqrt(m) -> SymMatrix:
    """Symmetric PSD square root.

    Eigenvalues within -1e-10 * max(1, lambda_max) of zero are clipped to
    zero; anything more negative is rejected as indefinite.
    """
    a = symmetrize(as_matrix(m))
    w, v = sym_eig(a)
    lam_max = max(1.0, float(w[-1]) if w.size else 1.0)
    if w.size and w[0] < -1e-10 * lam_max:
        raise DomainError(f"matrix is indefinite (lambda_min = {w[0]:.3e})")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return SymMatrix(root)


def is_psd(m) -> bool:
    """Scale-aware PSD test: lambda_min >= -PSD_TOL * max(1, lambda_max)."""
    w, _ = sym_eig(m)
    return w.size == 0 or bool(w[0] >= -PSD_TOL * max(1.0, float(w[-1])))


@lru_cache(maxsize=None)
def sym_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(upper, position), built once per n and read-only: the k-th svec entry is
    M[a, b], a <= b, with upper[k] = a n + b and position[a, b] = position[b, a] = k."""
    rows, cols = np.triu_indices(n)
    position = np.empty((n, n), dtype=np.intp)
    position[rows, cols] = position[cols, rows] = np.arange(rows.size)
    upper = rows * n + cols
    for a in (upper, position):
        a.setflags(write=False)
    return upper, position


def svec(m) -> np.ndarray:
    """Half-vectorization: the upper triangle of a square matrix, row by row."""
    m = as_matrix(m)
    return m.take(sym_index(m.shape[0])[0])


def smat(v, n: int) -> np.ndarray:
    """Inverse of svec: the symmetric n x n matrix with upper triangle v."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != n * (n + 1) // 2:
        raise ShapeError(f"cannot fill a symmetric {n}x{n} matrix from a length-{v.size} vector")
    return v[sym_index(n)[1]]
