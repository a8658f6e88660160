"""Dense solver for LMI-constrained linear programs.

Problems have the pencil (inequality) form

    minimize    c^T y
    subject to  F0^(b) + sum_i y_i Fi^(b)  >= 0   for every block b,

which is the native shape of every LMI in this package.  The solver is a
standard log-det barrier path-following method: Phase I finds a strictly
feasible point by minimizing an auxiliary slack, Phase II follows the
central path with damped Newton steps and a backtracking line search.  The
duality gap at barrier parameter t is bounded by m / t with m the total
matrix dimension.

The LmiBuilder turns matrix variables and affine block expressions into the
pencil form and maps solutions back to matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .matcore import symmetrize

DEFAULT_FEAS_TOL = 1e-8
DEFAULT_GAP_TOL = 1e-7
DEFAULT_MAX_NEWTON = 400


@dataclass(frozen=True)
class LmiBlock:
    """One PSD constraint F0 + sum_i y_i Fi >= 0 (all matrices symmetric)."""

    F0: np.ndarray
    Fi: np.ndarray  # shape (num_vars, dim, dim)

    def __post_init__(self):
        F0 = symmetrize(np.atleast_2d(np.asarray(self.F0, dtype=float)))
        Fi = np.asarray(self.Fi, dtype=float)
        if Fi.ndim != 3 or Fi.shape[1:] != F0.shape:
            raise ValueError(f"pencil coefficients have shape {Fi.shape}, expected (*, {F0.shape[0]}, {F0.shape[1]})")
        Fi = 0.5 * (Fi + np.transpose(Fi, (0, 2, 1)))
        object.__setattr__(self, "F0", F0)
        object.__setattr__(self, "Fi", Fi)

    @property
    def dim(self) -> int:
        return self.F0.shape[0]


@dataclass(frozen=True)
class LmiProblem:
    """min c^T y over the intersection of PSD pencil blocks."""

    c: np.ndarray
    blocks: tuple[LmiBlock, ...]

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("problem has no constraint blocks")
        for b in blocks:
            if b.Fi.shape[0] != c.size:
                raise ValueError(f"block expects {b.Fi.shape[0]} variables, objective has {c.size}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "blocks", blocks)

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def eval_blocks(self, y) -> list[np.ndarray]:
        y = np.asarray(y, dtype=float).ravel()
        return [b.F0 + np.tensordot(y, b.Fi, axes=([0], [0])) for b in self.blocks]

    def min_eigenvalue(self, y) -> float:
        return min(float(np.linalg.eigvalsh(F)[0]) for F in self.eval_blocks(y))


@dataclass
class SdpSolution:
    y: np.ndarray
    status: str  # optimal | infeasible | unbounded | numerical_failure
    objective_value: float
    min_block_eigenvalue: float
    iterations: int
    duality_gap: float = float("nan")


class _LineSearchStall(RuntimeError):
    pass


class _Unbounded(RuntimeError):
    pass


def _try_cholesky(mats) -> bool:
    for F in mats:
        try:
            np.linalg.cholesky(F)
        except np.linalg.LinAlgError:
            return False
    return True


def _barrier_value(prob: LmiProblem, y) -> float:
    val = 0.0
    for F in prob.eval_blocks(y):
        sign, logdet = np.linalg.slogdet(F)
        if sign <= 0:
            return float("inf")
        val -= logdet
    return val


def _newton_center(prob: LmiProblem, y: np.ndarray, t: float, max_iters: int,
                   ntol: float = 1e-6, stop_when=None,
                   reg: float = 0.0) -> tuple[np.ndarray, int, bool]:
    """Minimize t*c^T y + (reg/2)|y|^2 - sum_b log det F_b(y) from a strictly feasible y.

    Returns (iterate, newton steps, converged).  The quadratic term is only
    used by Phase I to keep the feasible point it finds at moderate norm.
    """
    c = prob.c
    n = prob.num_vars
    y = y.copy()

    def objective(yy):
        return t * float(c @ yy) + 0.5 * reg * float(yy @ yy) + _barrier_value(prob, yy)

    f_cur = objective(y)
    no_progress = 0
    for it in range(max_iters):
        grad = t * c + reg * y
        hess = reg * np.eye(n)
        for b, F in zip(prob.blocks, prob.eval_blocks(y)):
            try:
                Lb = np.linalg.cholesky(F)
            except np.linalg.LinAlgError as exc:
                raise _LineSearchStall(f"iterate left the cone: {exc}") from exc
            # whitened pencil directions M_k = L^-1 F_k L^-T give the barrier
            # gradient tr(M_k) and the PSD Gram Hessian tr(M_k M_l) without
            # ever forming F^-1, which matters close to the boundary
            X = np.linalg.solve(Lb[None, :, :], b.Fi)
            M = np.linalg.solve(Lb[None, :, :], X.transpose(0, 2, 1))
            M = 0.5 * (M + M.transpose(0, 2, 1))
            grad -= np.einsum("kii->k", M)
            hess += np.einsum("kij,lij->kl", M, M)
        # Jacobi equilibration keeps the Cholesky factorization honest when
        # the barrier curvature spans many orders of magnitude; damping is
        # only escalated on factorization failure
        d = np.sqrt(np.maximum(np.diag(hess), 1e-300))
        hess_s = hess / d[:, None] / d[None, :]
        grad_s = grad / d
        step = None
        damp = 1e-14
        for _ in range(16):
            try:
                L = np.linalg.cholesky(hess_s + damp * np.eye(n))
                step = np.linalg.solve(L.T, np.linalg.solve(L, -grad_s)) / d
                break
            except np.linalg.LinAlgError:
                damp *= 100.0
        if step is None:
            raise _LineSearchStall("Newton system not positive definite after damping")
        decrement = float(-grad @ step)
        if decrement / 2.0 <= ntol:
            return y, it, True
        # damped step for large Newton decrement (self-concordant safeguard):
        # prevents full steps from collapsing the iterate onto the cone
        # boundary, where finite precision stalls all further progress
        lam = math.sqrt(max(decrement, 0.0))
        alpha = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
        accepted = False
        for _ in range(80):
            y_trial = y + alpha * step
            if _try_cholesky(prob.eval_blocks(y_trial)):
                f_trial = objective(y_trial)
                if f_trial <= f_cur - 0.25 * alpha * decrement + 1e-12 * abs(f_cur):
                    progress = f_cur - f_trial
                    y, f_cur = y_trial, f_trial
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            # near-boundary iterates can leave the computed decrement pinned
            # at rounding-noise level; a small decrement with no descent
            # direction left in double precision counts as centered
            if decrement / 2.0 <= 1e-3:
                return y, it + 1, True
            raise _LineSearchStall("backtracking line search stalled")
        if progress <= 1e-11 * (1.0 + abs(f_cur)):
            no_progress += 1
            if no_progress >= 3:
                return y, it + 1, decrement / 2.0 <= 1e-3
        else:
            no_progress = 0
        if stop_when is not None and stop_when(y):
            return y, it + 1, True
        if float(c @ y) < -1e12:
            raise _Unbounded
    return y, max_iters, False


def _phase_one(prob: LmiProblem, feas_tol: float, max_newton: int) -> tuple[np.ndarray | None, int]:
    """Find a strictly feasible point, or return None if the problem is infeasible.

    Minimizes s subject to F_b(y) + s I >= 0, starting from y = 0 with s
    large enough; exits as soon as the slack goes negative.
    """
    n = prob.num_vars
    aug_blocks = []
    for b in prob.blocks:
        Fi_aug = np.concatenate([b.Fi, np.eye(b.dim)[None, :, :]], axis=0)
        aug_blocks.append(LmiBlock(F0=b.F0, Fi=Fi_aug))
    c_aug = np.zeros(n + 1)
    c_aug[n] = 1.0
    aug = LmiProblem(c=c_aug, blocks=tuple(aug_blocks))

    s0 = max(0.0, -prob.min_eigenvalue(np.zeros(n))) + 1.0
    z = np.zeros(n + 1)
    z[n] = s0
    iters = 0
    scale = 1.0 + max(float(np.linalg.norm(b.F0, 2)) for b in prob.blocks)
    t = max(1.0, aug.total_dim / max(1.0, s0))
    target = -feas_tol * scale - min(1.0, 0.05 * s0)
    deep_slack = lambda zz: zz[n] < target
    stalls = 0
    while True:
        z, it, converged = _newton_center(aug, z, t, max_newton, stop_when=deep_slack, reg=1e-6)
        iters += it
        if z[n] < -feas_tol * scale:
            return z[:n], iters
        gap = aug.total_dim / t
        if converged and gap <= min(feas_tol, 1e-9) * scale:
            # converged with nonnegative optimal slack: no strict interior
            return (z[:n], iters) if z[n] < 0.0 else (None, iters)
        stalls = 0 if converged else stalls + 1
        if stalls >= 3 or t > 1e18:
            raise _LineSearchStall("phase I failed to make progress")
        t *= 10.0


def solve(prob: LmiProblem, feas_tol: float = DEFAULT_FEAS_TOL,
          duality_gap_tol: float = DEFAULT_GAP_TOL,
          max_newton_iters: int = DEFAULT_MAX_NEWTON) -> SdpSolution:
    """Solve the pencil LMI program by barrier path-following."""
    n = prob.num_vars
    m = prob.total_dim

    def finish(y, status, iters):
        y = np.asarray(y, dtype=float)
        return SdpSolution(
            y=y,
            status=status,
            objective_value=float(prob.c @ y),
            min_block_eigenvalue=prob.min_eigenvalue(y),
            iterations=iters,
            duality_gap=m / t if status == "optimal" else float("nan"),
        )

    t = 1.0
    try:
        y, iters = _phase_one(prob, feas_tol, max_newton_iters)
    except (_LineSearchStall, np.linalg.LinAlgError) as exc:
        return SdpSolution(np.zeros(n), "numerical_failure", float("nan"), float("nan"), 0)
    if y is None:
        return SdpSolution(np.zeros(n), "infeasible", float("nan"), float("nan"), iters)

    if not np.any(prob.c):
        return finish(y, "optimal", iters)

    t = max(1.0, m / max(1.0, abs(float(prob.c @ y))))
    stalls = 0
    try:
        while True:
            y, it, converged = _newton_center(prob, y, t, max_newton_iters)
            iters += it
            if converged and m / t <= duality_gap_tol * max(1.0, abs(float(prob.c @ y))):
                return finish(y, "optimal", iters)
            stalls = 0 if converged else stalls + 1
            if stalls >= 3 or t > 1e18:
                return SdpSolution(y, "numerical_failure", float(prob.c @ y),
                                   prob.min_eigenvalue(y), iters)
            t *= 10.0
    except _Unbounded:
        return SdpSolution(y, "unbounded", float(prob.c @ y), prob.min_eigenvalue(y), iters)
    except (_LineSearchStall, np.linalg.LinAlgError):
        return SdpSolution(y, "numerical_failure", float(prob.c @ y), prob.min_eigenvalue(y), iters)


def dump_problem(prob: LmiProblem, path) -> None:
    """Write the pencil matrices and objective to JSON for offline inspection."""
    payload = {
        "c": prob.c.tolist(),
        "blocks": [{"F0": b.F0.tolist(), "Fi": b.Fi.tolist()} for b in prob.blocks],
    }
    with open(path, "w") as f:
        json.dump(payload, f)


# --------------------------------------------------------------------------
# Assembly of block LMIs from matrix variables
# --------------------------------------------------------------------------


def _pad(coef: np.ndarray, k: int) -> np.ndarray:
    """Coefficient tensor zero-padded to k slices (variables registered later)."""
    if coef.shape[0] == k:
        return coef
    return np.concatenate([coef, np.zeros((k - coef.shape[0],) + coef.shape[1:])])


class AffineExpr:
    """Matrix-valued expression affine in the builder's scalar variables.

    Stored as one coefficient tensor coef of shape (1+k, p, q): coef[0] is
    the constant and coef[1+i] the coefficient of scalar variable i.
    Variables registered after the expression was made have zero
    coefficients, so tensors are zero-padded to a common length before they
    are combined.  Supports +, -, scalar *, matmul with constant matrices on
    either side, transpose, trace and Kronecker products with a constant
    left factor.
    """

    __array_ufunc__ = None  # keep ndarray @ AffineExpr routed to __rmatmul__

    def __init__(self, coef: np.ndarray):
        self.coef = coef

    @property
    def shape(self) -> tuple[int, int]:
        return self.coef.shape[1:]

    @classmethod
    def constant(cls, m) -> "AffineExpr":
        return cls(np.atleast_2d(np.asarray(m, dtype=float))[None])

    def _coerce(self, other) -> "AffineExpr":
        if isinstance(other, AffineExpr):
            return other
        return AffineExpr.constant(other)

    def __add__(self, other):
        o = self._coerce(other)
        if o.shape != self.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {o.shape}")
        k = max(self.coef.shape[0], o.coef.shape[0])
        return AffineExpr(_pad(self.coef, k) + _pad(o.coef, k))

    __radd__ = __add__

    def __neg__(self):
        return AffineExpr(-self.coef)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, scalar):
        return AffineExpr(float(scalar) * self.coef)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, AffineExpr):
            raise TypeError("product of two variable expressions is not affine")
        return AffineExpr(self.coef @ np.atleast_2d(np.asarray(other, dtype=float)))

    def __rmatmul__(self, other):
        return AffineExpr(np.atleast_2d(np.asarray(other, dtype=float)) @ self.coef)

    @property
    def T(self) -> "AffineExpr":
        return AffineExpr(self.coef.transpose(0, 2, 1))

    def trace(self) -> "AffineExpr":
        return AffineExpr(np.trace(self.coef, axis1=1, axis2=2)[:, None, None])

    def value(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float).ravel()
        k = self.coef.shape[0] - 1
        return np.tensordot(np.concatenate(([1.0], y[:k])), self.coef, axes=1)


def kron_const(C, expr: AffineExpr) -> AffineExpr:
    """Kronecker product kron(C, expr) with a constant left factor."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return AffineExpr(np.kron(C[None], expr.coef))


def block_expr(rows: list[list]) -> AffineExpr:
    """Assemble a block matrix from affine expressions and constant arrays."""
    rows = [[e if isinstance(e, AffineExpr) else AffineExpr.constant(e) for e in row] for row in rows]
    row_heights = [row[0].shape[0] for row in rows]
    col_widths = [e.shape[1] for e in rows[0]]
    for i, row in enumerate(rows):
        if len(row) != len(col_widths):
            raise ValueError("ragged block structure")
        for j, e in enumerate(row):
            if e.shape != (row_heights[i], col_widths[j]):
                raise ValueError(f"block ({i},{j}) has shape {e.shape}, expected ({row_heights[i]}, {col_widths[j]})")
    k = max(e.coef.shape[0] for row in rows for e in row)
    return AffineExpr(np.block([[_pad(e.coef, k) for e in row] for row in rows]))


def zeros(shape: tuple[int, int]) -> AffineExpr:
    return AffineExpr(np.zeros((1,) + tuple(shape)))


class LmiBuilder:
    """Registers matrix variables and emits the pencil form of block LMIs."""

    def __init__(self):
        self._num_vars = 0
        self._vars: dict[str, AffineExpr] = {}
        self._psd_blocks: list[AffineExpr] = []
        self._objective: AffineExpr | None = None

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def _register(self, name: str, shape: tuple[int, int], count: int) -> tuple[AffineExpr, np.ndarray]:
        """A zero expression for `count` new scalars, and their slices in its coef."""
        if name in self._vars:
            raise ValueError(f"variable {name!r} already registered")
        first = 1 + self._num_vars
        self._num_vars += count
        expr = AffineExpr(np.zeros((first + count,) + shape))
        self._vars[name] = expr
        return expr, np.arange(first, first + count)

    def sym_var(self, name: str, n: int) -> AffineExpr:
        """Symmetric n x n variable: n(n+1)/2 scalars with E_ii / (E_ij + E_ji) basis."""
        expr, k = self._register(name, (n, n), n * (n + 1) // 2)
        i, j = np.triu_indices(n)
        expr.coef[k, i, j] = expr.coef[k, j, i] = 1.0
        return expr

    def rect_var(self, name: str, p: int, q: int) -> AffineExpr:
        """General p x q variable: one scalar per entry, row-major."""
        expr, k = self._register(name, (p, q), p * q)
        i, j = np.divmod(np.arange(p * q), q)
        expr.coef[k, i, j] = 1.0
        return expr

    def scalar_var(self, name: str) -> AffineExpr:
        return self.rect_var(name, 1, 1)

    def var(self, name: str) -> AffineExpr:
        """The affine expression of a previously registered variable."""
        return self._vars[name]

    def add_psd(self, expr: AffineExpr) -> None:
        """Constrain the (symmetrized) expression to be PSD."""
        if expr.shape[0] != expr.shape[1]:
            raise ValueError(f"PSD block must be square, got {expr.shape}")
        self._psd_blocks.append(0.5 * (expr + expr.T))

    def minimize(self, expr: AffineExpr) -> None:
        """Set a scalar affine expression as the minimization objective."""
        if expr.shape != (1, 1):
            raise ValueError("objective must be scalar")
        self._objective = expr

    def build(self) -> LmiProblem:
        if not self._psd_blocks:
            raise ValueError("no PSD blocks added")
        k = 1 + self._num_vars
        objective = zeros((1, 1)) if self._objective is None else self._objective
        blocks = []
        for expr in self._psd_blocks:
            coef = _pad(expr.coef, k)
            blocks.append(LmiBlock(F0=coef[0], Fi=coef[1:]))
        return LmiProblem(c=_pad(objective.coef, k)[1:, 0, 0], blocks=tuple(blocks))

    def extract(self, name: str, y) -> np.ndarray:
        """Recover a matrix variable's value from a solution vector."""
        return self.var(name).value(y)
