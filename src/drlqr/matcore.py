"""Dense symmetric-matrix kernel shared by the control and SDP layers.

All downstream modules funnel their linear algebra through these helpers so
that symmetry handling, PSD tolerances and vectorization conventions live in
exactly one place.  Storage is dense; problem sizes are small (blocks of at
most a few tens of rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalFailure(RuntimeError):
    """An iterative numerical routine failed to converge."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


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


def is_psd(m, tol: float = 1e-9) -> bool:
    """Scale-aware PSD test: lambda_min >= -tol * max(1, lambda_max)."""
    w, _ = sym_eig(m)
    if w.size == 0:
        return True
    return w[0] >= -tol * max(1.0, float(w[-1]))


def vec(m) -> np.ndarray:
    """Column-stacking vectorization."""
    return as_matrix(m).flatten(order="F")


def unvec(v, rows: int) -> np.ndarray:
    """Inverse of vec for a matrix with the given number of rows."""
    v = np.asarray(v, dtype=float).ravel()
    if rows <= 0 or v.size % rows != 0:
        raise ShapeError(f"cannot reshape length-{v.size} vector into {rows} rows")
    return v.reshape((rows, v.size // rows), order="F")
