"""Dense symmetric-matrix kernel shared by the control and SDP layers.

All downstream modules funnel their linear algebra through these helpers so
that symmetry handling, PSD tolerances and the half-vectorization svec live
in exactly one place.  Every array a value class stores, or a function keeps
from its caller, comes in through array_field: a new float copy that the
holder owns, checked finite and made read-only, with errors that name the
field; sym_field stores the symmetric part the same way.  Storage is
dense; problem sizes are small (blocks of at most a few tens of rows).
_memo_last is the package's one memo: it keeps a function's last value, and
all_finite is its one finiteness test.

The LAPACK routines the package calls directly (dgesv, dpotrf, dpotrs, dtrtrs)
are bound here, once, from scipy's own extension module
scipy.linalg._flapack, loaded from scipy's install directory by the stdlib
loader without running the scipy.linalg package's __init__: that __init__
goes through scipy's array-API layer, which loads numpy.f2py, numpy.testing
and numpy.ma, and costs about half of import drlqr's time and 24 MB.
scipy.linalg.lapack re-exports _flapack's functions, so these are the very
objects it exports, with its bits and its per-call cost; numpy.linalg is not a
substitute, because numpy bundles another OpenBLAS build whose last bits
differ.  If the extension is not found or does not load, they come from
scipy.linalg.lapack instead.

Where the package wants numpy's bits, it calls the gufuncs numpy.linalg itself
calls, bound here once from numpy.linalg._umath_linalg as np_cholesky,
np_eigvalsh, np_eigh, np_solve, np_inv and np_eigvals: on small matrices
numpy's public functions spend most of a call on argument checks, and the
interior-point loop makes several calls per iteration, each MSS score one.
Each binding enters numpy.linalg's own error state for its gufunc on every
call, so a failure raises np.linalg.LinAlgError with numpy's message, and
callers enter none.  A gufunc numpy lacks is bound to the public function.
For the same reason c_einsum is the function np.einsum calls when it is not
asked to optimize (np.einsum where numpy lacks it), contract is np.tensordot
without its wrapper, and all_finite reduces np.isfinite with logical_and,
where ndarray.all goes through a Python wrapper.  No other module calls
numpy's internals.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, wraps
from importlib import machinery, util

import numpy as np
import scipy  # cheap, and on some platforms it sets up the paths to scipy's bundled libraries

PSD_TOL = 1e-9  # relative eigenvalue slack of is_psd and psd_sqrt


def _load_lapack():
    """scipy.linalg._flapack, loaded without importing the scipy.linalg package,
    or scipy.linalg.lapack when the extension is not found or does not load."""
    finder = machinery.FileFinder(os.path.join(os.path.dirname(scipy.__file__), "linalg"),
                                  (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is not None:
        try:
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except (ImportError, OSError):
            pass
    from scipy.linalg import lapack
    return lapack


_lapack = _load_lapack()
dgesv, dpotrf, dpotrs, dtrtrs = _lapack.dgesv, _lapack.dpotrf, _lapack.dpotrs, _lapack.dtrtrs


def _raiser(message: str):
    def handler(err, flag):
        raise np.linalg.LinAlgError(message)
    return handler


# the error state numpy.linalg enters around each gufunc, with its messages
_NOT_PD, _NO_CONVERGENCE, _SINGULAR = (
    dict(call=_raiser(message), invalid="call", over="ignore", divide="ignore", under="ignore")
    for message in ("Matrix is not positive definite", "Eigenvalues did not converge",
                    "Singular matrix"))


def _load_linalg():
    """numpy.linalg's gufuncs cholesky_lo, eigvalsh_lo, eigh_lo, solve (whose
    right-hand side is a matrix), inv and eigvals, or the public function where
    numpy.linalg._umath_linalg lacks one, each in its error state (as __wrapped__)."""
    la = np.linalg
    gufuncs = getattr(la, "_umath_linalg", None)
    return tuple(np.errstate(**state)(getattr(gufuncs, name, public)) for name, public, state in (
        ("cholesky_lo", la.cholesky, _NOT_PD), ("eigvalsh_lo", la.eigvalsh, _NO_CONVERGENCE),
        ("eigh_lo", la.eigh, _NO_CONVERGENCE), ("solve", la.solve, _SINGULAR),
        ("inv", la.inv, _SINGULAR), ("eigvals", la.eigvals, _NO_CONVERGENCE)))


np_cholesky, np_eigvalsh, np_eigh, np_solve, np_inv, np_eigvals = _load_linalg()


def _load_einsum():
    """numpy's c_einsum, which np.einsum calls when it is not asked to optimize,
    or np.einsum when numpy._core.multiarray lacks it."""
    multiarray = getattr(getattr(np, "_core", None), "multiarray", None)
    return getattr(multiarray, "c_einsum", np.einsum)


c_einsum = _load_einsum()


def contract(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """np.tensordot(a, t, 1), the sum over a's last axis and t's first, bit for
    bit: the one product tensordot forms, without its argument handling."""
    return (a @ t.reshape(len(t), math.prod(t.shape[1:]))).reshape(a.shape[:-1] + t.shape[1:])


class NumericalFailure(RuntimeError):
    """An iterative numerical routine failed to converge."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


def all_finite(a) -> bool:
    """np.isfinite(a).all() as a bool, empty and 0-d a included, without the
    Python wrapper ndarray.all calls: the package's one finiteness test."""
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def require_finite(name: str, a) -> None:
    """Raise DomainError naming the input when a has a NaN or infinite entry."""
    if not all_finite(a):
        raise DomainError(f"non-finite entries in {name}")


def _whole(value, name: str) -> int:
    """value as an int; a fractional or non-finite value raises ValueError."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


_MEMOS: list = []  # every _memo_last function


def _memo_last(key):
    """Decorator keeping the last value of fn, keyed by the shapes and bytes of the
    arrays key(*args) returns: a call whose arrays equal the last call's, byte for
    byte, returns the same object without calling fn.  fn's value must depend on
    its arguments only through those arrays, and nobody may write to it: fn seals
    the arrays it returns.  An exception keeps nothing; _clear_memos forgets all."""
    def decorate(fn):
        @wraps(fn)
        def memo(*args):
            k = tuple((a.shape, a.tobytes()) for a in key(*args))
            kept, value = memo.last  # one read: another thread may replace it meanwhile
            if kept != k:
                value = fn(*args)
                memo.last = (k, value)
            return value

        memo.last = (None, None)
        _MEMOS.append(memo)
        return memo
    return decorate


def _clear_memos() -> None:
    """Forget the value every _memo_last function keeps."""
    for memo in _MEMOS:
        memo.last = (None, None)


def frobenius(a: np.ndarray) -> float:
    """np.linalg.norm(a) bit for bit, by its own formula: the square root of
    x . x for x = a.ravel(order="K"), without its argument handling."""
    x = a.ravel(order="K")
    return math.sqrt(x.dot(x))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2 of a matrix, or of each matrix in a stack."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.swapaxes(-1, -2))


def _floats(name: str, a, copy: bool | None, ndmin: int = 2) -> np.ndarray:
    try:
        return np.array(a, dtype=float, ndmin=ndmin, copy=copy)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} is not an array of numbers: {exc}") from exc


def _sealed(name: str, a: np.ndarray) -> np.ndarray:
    require_finite(name, a)
    a.setflags(write=False)
    return a


def array_field(name: str, a, ndmin: int = 2) -> np.ndarray:
    """A new read-only float array of a, with at least ndmin dimensions, for the
    field called name.  Entries that are not numbers raise ShapeError naming it,
    a non-finite entry DomainError naming it."""
    return _sealed(name, _floats(name, a, copy=True, ndmin=ndmin))


def sym_field(name: str, m, definite: bool | str = False) -> np.ndarray:
    """The symmetric part of m (a matrix or a stack of them, array-like or
    SymMatrix) as a new array, checked and read-only as array_field does.
    With definite, anything not strictly positive definite raises ValueError
    naming the field and lambda_min; a string there is the remedy the error adds."""
    m = _sealed(name, symmetrize(_floats(name, m, copy=None)))  # symmetrize made the copy
    if definite:
        w = np_eigvalsh(m)
        if not (w.size and w[0] > 0):
            found = f"lambda_min = {w[0]:.3e}" if w.size else "it is empty"
            remedy = f"; {definite}" if isinstance(definite, str) else ""
            raise ValueError(f"{name} must be strictly positive definite ({found}{remedy})")
    return m


@dataclass(frozen=True)
class SymMatrix:
    """Immutable symmetric real matrix: entries is sym_field of what was passed in."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", sym_field("symmetric matrix", self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype, copy=copy)


def _spectrum(solver, m):
    """solver(symmetrize(m)), raising NumericalFailure if it does not converge."""
    try:
        return solver(symmetrize(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver did not converge: {exc}") from exc


def sym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, orthogonal eigenvector matrix) with
    V @ diag(w) @ V.T reconstructing the input.
    """
    return _spectrum(np_eigh, m)


def psd_sqrt(m) -> np.ndarray:
    """Symmetric PSD square root.

    Eigenvalues within -PSD_TOL * max(1, lambda_max) of zero, the slack
    is_psd accepts, are clipped to zero; anything more negative is rejected
    as indefinite.
    """
    w, v = sym_eig(m)
    lam_max = max(1.0, float(w[-1]) if w.size else 1.0)
    if w.size and w[0] < -PSD_TOL * lam_max:
        raise DomainError(f"matrix is indefinite (lambda_min = {w[0]:.3e})")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return symmetrize(root)  # (v sqrt(w)) v^T is not bitwise symmetric


def is_psd(m) -> bool:
    """Scale-aware PSD test: lambda_min >= -PSD_TOL * max(1, lambda_max)."""
    w = _spectrum(np_eigvalsh, m)
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


@lru_cache(maxsize=None)
def sym_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cd, dc), built once per n and read-only: for an n x n x n x n array X
    and the k-th and l-th svec entries M[a, b] and M[c, d], X.take(cd)[k, l]
    = X[c, a, d, b] and X.take(dc)[k, l] = X[d, a, c, b]."""
    rows, cols = np.divmod(sym_index(n)[0], n)
    ab = (rows * n * n + cols)[:, None]  # a n^2 + b, down the rows k
    cd = rows * n**3 + cols * n + ab
    dc = cols * n**3 + rows * n + ab
    for a in (cd, dc):
        a.setflags(write=False)
    return cd, dc


def svec(m) -> np.ndarray:
    """Half-vectorization: the upper triangle of a square matrix, row by row."""
    m = np.asarray(m, dtype=float)
    return m.take(sym_index(m.shape[0])[0])


def smat(v, n: int) -> np.ndarray:
    """Inverse of svec: the symmetric n x n matrix with upper triangle v."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != n * (n + 1) // 2:
        raise ShapeError(f"cannot fill a symmetric {n}x{n} matrix from a length-{v.size} vector")
    return v[sym_index(n)[1]]
