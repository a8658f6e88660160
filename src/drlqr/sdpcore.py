"""Dense solver for LMI-constrained linear programs.

Problems have the pencil (inequality) form

    minimize    c^T y
    subject to  F0^(b) + sum_i y_i Fi^(b)  >= 0   for every block b,

which is the native shape of every LMI in this package.  The solver stacks
the blocks into one block-diagonal pencil and runs a single infeasible-start
primal-dual loop on the homogeneous self-dual embedding (Ye, Todd & Mizuno
1994) of this program and its dual, max -tr(F0 Z) s.t. tr(Fi Z) = c_i,
Z >= 0, with the HKM direction and Mehrotra's predictor-corrector.  There
is no phase I.  "optimal" is returned only at a strictly feasible point, and
"infeasible" only when the dual iterate meets the theorem of alternatives
for strict LMIs: F(y) > 0 has no solution iff some Z >= 0, Z != 0, has
tr(Fi Z) = 0 and tr(F0 Z) <= 0.  The loop starts at y = 0, S = Z = I,
tau = kappa = 1, or next to the final iterate of a solved program of the
same shape (the warm start of Skajaa, Andersen & Ye 2013); neither test
depends on where it started.  Each iteration calls LAPACK (dtrtrs,
dpotrf, dpotrs) directly, not through scipy's checking wrappers, and checks
finiteness explicitly; SdpSolution.reason says why a solve stopped short of
"optimal".

The LmiBuilder numbers the scalars of matrix variables and turns an objective
and a list of affine blocks into the pencil form; AffineExpr.value maps a
solution back to a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .matcore import array_field, dpotrf, dpotrs, dtrtrs, sym_field

FEAS_TOL = 1e-8  # residuals and witnesses, relative to the iterate they belong to
GAP_TOL = 1e-7  # complementarity gap, relative to max(1, |c^T y|)
MAX_ITERS = 100
STEP_TO_BOUNDARY = 0.98
WARM_START = 0.99  # weight of a solved neighbour's final iterate in a warm start


@dataclass(frozen=True)
class LmiBlock:
    """One PSD constraint F0 + sum_i y_i Fi >= 0 (all matrices symmetric)."""

    F0: np.ndarray
    Fi: np.ndarray  # shape (num_vars, dim, dim)

    def __post_init__(self):
        F0, Fi = sym_field("F0", self.F0), sym_field("Fi", self.Fi)
        if Fi.ndim != 3 or Fi.shape[1:] != F0.shape:
            raise ValueError(f"pencil coefficients have shape {Fi.shape}, expected (*, {F0.shape[0]}, {F0.shape[1]})")
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
        c = array_field("c", self.c, ndmin=1).ravel()
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

    def min_eigenvalue(self, y) -> float:
        y = np.asarray(y, dtype=float).ravel()
        return min(float(np.linalg.eigvalsh(b.F0 + np.tensordot(y, b.Fi, axes=([0], [0])))[0])
                   for b in self.blocks)


@dataclass
class SdpSolution:
    y: np.ndarray
    status: str  # optimal | infeasible | unbounded | numerical_failure
    objective_value: float
    min_block_eigenvalue: float
    iterations: int
    duality_gap: float = float("nan")
    reason: str = ""  # why the solve stopped, empty when optimal from the first start
    iterate: tuple | None = None  # (block dims, x, S, Z, kappa) at an optimum: a warm start


def _to_boundary(size: float, rate: float) -> float:
    """Largest alpha with size + alpha rate >= 0."""
    return -size / rate if rate < 0.0 else math.inf


def _inv_lower(L: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """L^-1 for the C-ordered lower Cholesky factor L.

    LAPACK reads L in C order as its transpose, so this solves the
    transposed upper system, as scipy's solve_triangular does for it.
    """
    T, info = dtrtrs(L.T, eye, lower=0, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs: singular factor at diagonal {info}")
    return T


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError(f"{what} not finite")


def solve(prob: LmiProblem, start: SdpSolution | None = None) -> SdpSolution:
    """Solve the pencil LMI program by the self-dual primal-dual method.

    start, an "optimal" solution of a program with the same variable count
    and block sizes, puts the first iterate WARM_START of the way from the
    standard start to its final one.  A warm solve that ends in
    numerical_failure or unbounded is rerun from the standard start.
    """
    k, m = prob.num_vars, prob.total_dim
    c = prob.c
    dims = tuple(b.dim for b in prob.blocks)
    if start is not None and (start.status != "optimal" or (start.y.size, start.iterate[0]) != (k, dims)):
        raise ValueError(f"a warm start must be an optimal solution with {k} variables and blocks {dims}")
    # one block-diagonal pencil F[a] over x = (y, tau).  The embedding asks for
    # S = sum_a x_a F[a], tr(F_i Z) = tau c_i and kappa = -c^T y - tr(F0 Z)
    # with S, Z >= 0 and tau, kappa >= 0: tau > 0 gives the optimum y / tau,
    # tau = 0 a witness of infeasibility or unboundedness
    F = np.zeros((k + 1, m, m))
    at = 0
    for b in prob.blocks:
        F[:k, at:at + b.dim, at:at + b.dim] = b.Fi
        F[k, at:at + b.dim, at:at + b.dim] = b.F0
        at += b.dim
    Fv = F.reshape(k + 1, m * m)
    with np.errstate(over="ignore"):  # an overflow is reported below
        f_max = float(np.linalg.norm(Fv[:k], axis=1).max(initial=0.0))
        f0, c_norm = float(np.linalg.norm(Fv[k])), float(np.linalg.norm(c))
    eye = np.eye(m)

    def finish(status, iters, reason, y=None, gap=float("nan"), lam=None, iterate=None):
        if y is None:
            return SdpSolution(np.zeros(k), status, float("nan"), float("nan"), iters, reason=reason)
        if lam is None:
            lam = prob.min_eigenvalue(y)
        return SdpSolution(y, status, float(c @ y), lam, iters, gap, reason, iterate)

    if not np.isfinite(f_max + f0 + c_norm):
        return finish("numerical_failure", 0, "the norm of F0, of an F_i or of c overflows, "
                      "so no residual or witness test can be measured")

    def run(x, S, Z, kappa):
        centred, alpha = 0, 0.0  # centring steps in a row, and the last step length
        for it in range(MAX_ITERS + 1):
            y, tau = x[:k], x[k]
            aZ = Fv @ Z.ravel()  # (tr(F_i Z), tr(F0 Z))
            r_p = S - (x @ Fv).reshape(m, m)
            r_d = np.append(aZ[:k] - tau * c, aZ[k] + c @ y + kappa)
            mu = (float(np.vdot(S, Z)) + tau * kappa) / (m + 1)
            gap = (m + 1) * mu / tau**2
            z_norm = float(np.linalg.norm(Z))

            # every residual is measured against the size of the iterate it belongs to
            converged = (np.linalg.norm(r_p) <= FEAS_TOL * (tau * f0 + np.linalg.norm(y) * f_max)
                         and np.linalg.norm(r_d[:k]) <= FEAS_TOL * (tau * c_norm + z_norm * f_max)
                         and gap <= GAP_TOL * max(1.0, abs(float(c @ y)) / tau))
            # the iterates approach the optimum from outside the cone, so a converged
            # point is centred at fixed tau: where a strictly feasible point exists
            # the first full centring step clears the residual, and the second
            # centres the flat directions of the optimal face; a blocked centring
            # step hands back to Mehrotra, which goes on towards the witness on its
            # own.  With c = 0 every strictly feasible point is optimal.
            if (converged and centred >= 2) or c_norm == 0.0:
                y_opt = y / tau
                lam = prob.min_eigenvalue(y_opt)
                if lam > 0.0:
                    return finish("optimal", it, "", y_opt, gap, lam, (dims, x, S, Z, kappa))
            hold = converged and (centred == 0 or alpha == 1.0)
            # Z >= 0, Z != 0 with tr(F_i Z) = 0 and tr(F0 Z) <= 0 proves that no y
            # has F(y) > 0 (Boyd, El Ghaoui, Feron & Balakrishnan 1994, sec. 2.6).
            # Relative to |Z|, either both traces are within FEAS_TOL of zero, or
            # tr(F0 Z) < 0 outweighs the tr(F_i Z) by 1 / FEAS_TOL, so that
            # tr(F(y) Z) < 0 for every |y| < |F0| / (FEAS_TOL max|F_i|).  A dual
            # iterate merely large, as near the optimum of a badly scaled program,
            # meets neither test.
            a_norm = np.linalg.norm(aZ[:k])
            if a_norm <= FEAS_TOL * z_norm * f_max and abs(aZ[k]) <= FEAS_TOL * z_norm * f0:
                return finish("infeasible", it, "dual witness: tr(F_i Z) and tr(F0 Z) are both "
                              "within FEAS_TOL |Z| of zero, so no point is strictly feasible")
            if aZ[k] < 0.0 and a_norm * f0 <= -FEAS_TOL * aZ[k] * f_max:
                return finish("infeasible", it, "dual witness: tr(F0 Z) < 0 outweighs every "
                              "tr(F_i Z) by 1 / FEAS_TOL")
            # a recession direction: A(y) = S - tau F0 - r_p >= 0 with c^T y < 0
            if c @ y < 0.0 and np.linalg.norm(tau * F[k] + r_p) <= FEAS_TOL * np.linalg.norm(y) * f_max:
                return finish("unbounded", it, "recession direction: sum_i y_i F_i >= 0 "
                              "within FEAS_TOL with c^T y < 0", y / tau)
            if it == MAX_ITERS:
                return finish("numerical_failure", it, f"iteration budget spent ({MAX_ITERS})",
                              y / tau)
            try:
                dx, dS, dZ, dk, alpha = _step(F, Fv, eye, c, S, Z, tau, kappa, aZ, mu, r_p, r_d, hold)
            except np.linalg.LinAlgError as exc:
                return finish("numerical_failure", it, f"iteration {it}: {exc}", y / tau)
            x, S = x + alpha * dx, S + alpha * dS
            Z, kappa = Z + alpha * dZ, kappa + alpha * dk
            centred = centred + 1 if hold else 0

    cold = (np.append(np.zeros(k), 1.0), eye.copy(), eye.copy(), 1.0)
    if start is None:
        return run(*cold)
    warm = run(*(WARM_START * a + (1.0 - WARM_START) * b for a, b in zip(start.iterate[1:], cold)))
    if warm.status not in ("numerical_failure", "unbounded"):
        return warm
    sol = run(*cold)
    return replace(sol, iterations=warm.iterations + sol.iterations, reason=(
        f"restarted from the standard start: the warm start ended in {warm.status} "
        f"({warm.reason}) after {warm.iterations} iterations" + (sol.reason and f"; {sol.reason}")))


def _step(F, Fv, eye, c, S, Z, tau, kappa, aZ, mu, r_p, r_d, hold):
    """One damped step: Mehrotra's predictor-corrector, or while held a
    centring step at fixed tau that clears the residuals.

    LAPACK is called directly; a nonzero info and a non-finite residual,
    Schur complement or right-hand side raise LinAlgError.
    """
    k, m = c.size, S.shape[0]
    _require_finite(r_p, "primal residual")
    _require_finite(r_d, "dual residual")
    Ls, Lz = np.linalg.cholesky(S), np.linalg.cholesky(Z)
    Ts, Tz = _inv_lower(Ls, eye), _inv_lower(Lz, eye)
    S_inv = Ts.T @ Ts
    a_s_inv = Fv @ S_inv.ravel()
    # HKM Schur complement H_ab = tr(F_a S^-1 F_b Z) as one Gram product
    G = (Lz.T @ F @ Ts.T).reshape(k + 1, m * m)
    H = G @ G.T
    _require_finite(H[:k], "Schur complement")
    chol, info = dpotrf(H[:k, :k], lower=0, clean=0)
    if info:
        raise np.linalg.LinAlgError(f"dpotrf: Schur complement not positive definite at minor {info}")
    # tau is eliminated by hand: with u = H_yy^-1 (h, c) its pivot is a sum
    # of nonnegative terms, so it never cancels to zero near the optimum
    h = H[:k, k]
    u, _ = dpotrs(chol, np.column_stack((h, c)), lower=0)
    u_h, u_c = u[:, 0], u[:, 1]
    pivot = max(H[k, k] - h @ u_h, 0.0) + c @ u_c + kappa / tau

    def direction(eta, target, corr=0.0, corr_kappa=0.0):
        """Newton step towards S Z = target I with the residuals scaled by
        1 - eta; corr and corr_kappa are Mehrotra's second-order terms.

        S^-1 (target I - S Z) is written out as target S^-1 - Z, because
        forming S^-1 (S Z) loses the digits of the condition number of S.
        """
        rhs = eta * r_d + target * a_s_inv - aZ + Fv @ (S_inv @ (eta * r_p @ Z - corr)).ravel()
        r_kappa = target - tau * kappa - corr_kappa
        rhs[k] += r_kappa / tau
        _require_finite(rhs[:k], "right-hand side")
        dx = np.zeros(k + 1)
        dx[:k] = dpotrs(chol, rhs[:k], lower=0)[0]
        if not hold:
            dx[k] = (rhs[k] - (h - c) @ dx[:k]) / pivot
            dx[:k] -= (u_h + u_c) * dx[k]
        dS = (dx @ Fv).reshape(m, m) - eta * r_p
        dZ = target * S_inv - Z - S_inv @ (dS @ Z + corr)
        dZ = 0.5 * (dZ + dZ.T)
        dk = (r_kappa - kappa * dx[k]) / tau
        # X + alpha D >= 0 up to alpha = -1 / lambda_min(T D T^T), T = L^-1, X = L L^T
        lam_s, lam_z = np.linalg.eigvalsh(np.stack((Ts @ dS @ Ts.T, Tz @ dZ @ Tz.T)))[:, 0]
        alpha = min(_to_boundary(1.0, lam_s), _to_boundary(1.0, lam_z),
                    _to_boundary(tau, dx[k]), _to_boundary(kappa, dk))
        return dx, dS, dZ, dk, alpha

    if hold:
        dx, dS, dZ, dk, alpha = direction(1.0, mu)
    else:
        # the affine step picks sigma and supplies the corrector
        dx, dS, dZ, dk, alpha = direction(1.0, 0.0)
        alpha = min(1.0, alpha)
        mu_aff = (float(np.vdot(S + alpha * dS, Z + alpha * dZ))
                  + (tau + alpha * dx[k]) * (kappa + alpha * dk)) / (m + 1)
        sigma = min(1.0, mu_aff / mu) ** 3
        dx, dS, dZ, dk, alpha = direction(1.0 - sigma, sigma * mu, dS @ dZ, dx[k] * dk)
    return dx, dS, dZ, dk, min(1.0, STEP_TO_BOUNDARY * alpha)


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
    """Counts scalar variables and emits the pencil form of block LMIs."""

    def __init__(self):
        self.num_vars = 0

    def _new(self, shape: tuple[int, int], count: int) -> tuple[AffineExpr, np.ndarray]:
        """A zero expression for `count` new scalars, and their slices in its coef."""
        first = 1 + self.num_vars
        self.num_vars += count
        return AffineExpr(np.zeros((first + count,) + shape)), np.arange(first, first + count)

    def sym_var(self, n: int) -> AffineExpr:
        """Symmetric n x n variable: n(n+1)/2 scalars with E_ii / (E_ij + E_ji) basis."""
        expr, k = self._new((n, n), n * (n + 1) // 2)
        i, j = np.triu_indices(n)
        expr.coef[k, i, j] = expr.coef[k, j, i] = 1.0
        return expr

    def rect_var(self, p: int, q: int) -> AffineExpr:
        """General p x q variable: one scalar per entry, row-major."""
        expr, k = self._new((p, q), p * q)
        i, j = np.divmod(np.arange(p * q), q)
        expr.coef[k, i, j] = 1.0
        return expr

    def build(self, objective: AffineExpr, blocks: list[AffineExpr]) -> LmiProblem:
        """Minimize the scalar objective with every block PSD (LmiBlock takes
        each block's symmetric part)."""
        if objective.shape != (1, 1):
            raise ValueError("objective must be scalar")
        k = 1 + self.num_vars
        coefs = [_pad(expr.coef, k) for expr in blocks]
        return LmiProblem(c=_pad(objective.coef, k)[1:, 0, 0],
                          blocks=tuple(LmiBlock(F0=coef[0], Fi=coef[1:]) for coef in coefs))
