"""Dense solver for LMI-constrained linear programs.

Problems have the pencil (inequality) form

    minimize    c^T y
    subject to  F0^(b) + sum_i y_i Fi^(b)  >= 0   for every block b,

which is the native shape of every LMI in this package.  A program has one
form, a stack of pencils (c, F, dims) that programs of one variable count k
and one set of block sizes dims share: c[j] is program j's objective and F[j]
its block-diagonal pencil over x = (y, tau), F[j, i] = F_i for i < k and
F[j, k] = F0.  LmiBuilder.build writes a stack of one; drsynth writes its own.

solve_batch runs a single infeasible-start primal-dual loop on the
homogeneous self-dual embedding (Ye, Todd & Mizuno 1994) of each program and
its dual, max -tr(F0 Z) s.t. tr(Fi Z) = c_i, Z >= 0, with the HKM direction
and Mehrotra's predictor-corrector.  There is no phase I.  "optimal" is
returned only at a strictly feasible point, and "infeasible" only when the
dual iterate meets the theorem of alternatives for strict LMIs: F(y) > 0 has
no solution iff some Z >= 0, Z != 0, has tr(Fi Z) = 0 and tr(F0 Z) <= 0.  The
loop starts at y = 0, S = Z = I, tau = kappa = 1, or next to the final
iterate of a solved program of the same shape (the warm start of Skajaa,
Andersen & Ye 2013); neither test depends on where it started.

The loop advances the programs of a stack together.  Pencils and iterates
sit in stacks on a leading axis, S and Z of each program side by side, and
each product is one stacked matmul call (a matrix-vector product as a matmul
with a unit axis, which numpy computes item by item as it computes the lone
product), or one call of numpy's Cholesky or eigvalsh gufunc.  Kept per
program: LAPACK's dtrtrs, dpotrf and dpotrs, called directly (the inverse
factors stay Fortran-ordered in their stack), the dot products of the
verdicts and of tau's elimination, on the program's own rows, their scalars
as Python floats, and the verdict itself.  A program leaves the batch at its
verdict, or when its step breaks down (a nonzero info, a failed gufunc or a
non-finite residual, Schur complement or right-hand side), with the reason a
stack of that program alone gives; the other programs go on.  So each
program's iterates, verdict and reason are bit for bit those of a stack of
its own.  The gufuncs enter numpy's error state themselves (matcore), so a
failure raises LinAlgError with no set-up here; SdpSolution.reason says why a
solve stopped short of "optimal".

The LmiBuilder numbers the scalars of matrix variables and turns an objective
and a list of affine blocks into a stack of one program; AffineExpr.value
maps a solution back to a matrix.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .matcore import (all_finite, contract, dpotrf, dpotrs, dtrtrs, np_cholesky, np_eigvalsh,
                      require_finite, symmetrize)

FEAS_TOL = 1e-8  # residuals and witnesses, relative to the iterate they belong to
GAP_TOL = 1e-7  # complementarity gap, relative to max(1, |c^T y|)
MAX_ITERS = 100
STEP_TO_BOUNDARY = 0.98
WARM_START = 0.99  # weight of a solved neighbour's final iterate in a warm start


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


class _Breakdown(np.linalg.LinAlgError):
    """The step failed for some programs of the batch: reasons maps the slot of
    each to why.  The others are stepped again without them."""

    def __init__(self, reasons: dict):
        super().__init__("; ".join(reasons.values()))
        self.reasons = reasons


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise _Breakdown naming each program (item of the stack a) with a non-finite entry."""
    if not all_finite(a):
        bad = np.flatnonzero(~np.isfinite(a).reshape(len(a), -1).all(axis=1))
        raise _Breakdown(dict.fromkeys(bad.tolist(), f"{what} not finite"))


def _each(gufunc, a: np.ndarray) -> np.ndarray:
    """gufunc(a) over the stack a.  A gufunc raises for the whole stack when one
    item fails, so the items are then redone one at a time to name those that fail."""
    try:
        return gufunc(a)
    except np.linalg.LinAlgError as whole:
        reasons = {}
        for j, item in enumerate(a):
            try:
                gufunc(item)
            except np.linalg.LinAlgError as exc:
                reasons[j] = str(exc)
        if not reasons:  # no item fails alone: the error ends every program of the step
            raise
        raise _Breakdown(reasons) from whole


def _col(values: list, ndim: int):
    """One float per program, shaped to scale the items of a stack with ndim
    axes (the float itself for a batch of one: the same products, made sooner)."""
    if len(values) == 1:
        return values[0]
    return np.array(values).reshape((-1,) + (1,) * (ndim - 1))


def _margin(F: np.ndarray, y: np.ndarray, blocks: tuple) -> float:
    """The least eigenvalue at y of the diagonal blocks (slices in blocks) of
    one program's pencil F: the margin of strict feasibility."""
    k = len(y)
    return min(float(np_eigvalsh(F[k, b, b] + contract(y, F[:k, b, b]))[0]) for b in blocks)


def _finish(c, F, blocks, status, iters, reason, y=None, gap=float("nan"), lam=None, iterate=None):
    """The solution of the program with objective c and pencil F; without y it
    has no point, and lam defaults to the margin at y."""
    if y is None:
        return SdpSolution(np.zeros(len(c)), status, float("nan"), float("nan"), iters,
                           reason=reason)
    if lam is None:
        lam = _margin(F, y, blocks)
    return SdpSolution(y, status, float(c @ y), lam, iters, gap, reason, iterate)


def solve_batch(c: np.ndarray, F: np.ndarray, dims: tuple, starts: list | None = None
                ) -> list[SdpSolution]:
    """Solve each program of the stack (c, F, dims) by the self-dual primal-dual
    method: the solutions in order, each bit for bit the one a stack of that
    program alone gets.

    starts[j], an "optimal" solution of a program with the same variable count
    and block sizes, puts program j's first iterate WARM_START of the way from
    the standard start to its final one (None: the standard start).  A warm
    solve that ends in numerical_failure or unbounded is rerun from the
    standard start.
    """
    (n, k), dims = c.shape, tuple(dims)
    starts = [None] * n if starts is None else list(starts)
    if len(starts) != n:
        raise ValueError(f"{len(starts)} starts for {n} programs")
    shape = (n, k + 1) + (sum(dims),) * 2
    if F.shape != shape:
        raise ValueError(f"pencil stack has shape {F.shape}, expected {shape} for {n} programs "
                         f"with {k} variables and blocks {dims}")
    blocks, block, off = _layout(dims)
    m = shape[-1]
    Fv = F.reshape(n, k + 1, m * m)
    if np.logical_or.reduce(Fv[:, :, off], axis=None):  # a NaN counts as nonzero
        a, b = np.argwhere(F.reshape(-1, m, m).any(axis=0) & (block[:, None] != block))[0]
        raise ValueError(f"pencil stack has a nonzero entry ({a}, {b}) outside its diagonal blocks "
                         f"{dims}: it couples block {block[a]} with block {block[b]}")
    for start in starts:
        if start is not None and (start.status != "optimal" or (start.y.size, start.iterate[0]) != (k, dims)):
            raise ValueError(f"a warm start must be an optimal solution with {k} variables and blocks {dims}")
    # the embedding asks for S = sum_a x_a F[a], tr(F_i Z) = tau c_i and
    # kappa = -c^T y - tr(F0 Z) with S, Z >= 0 and tau, kappa >= 0: tau > 0
    # gives the optimum y / tau, tau = 0 a witness of infeasibility or unboundedness
    norms = np.empty((n, 3))  # max_i |F_i|, |F0| and |c| of each program, by numpy.linalg.norm's formula
    with np.errstate(over="ignore"):  # an overflow is reported below
        np.add.reduce(Fv[:, :k] * Fv[:, :k], axis=2).max(axis=1, initial=0.0, out=norms[:, 0])
        for col, v in ((1, Fv[:, k]), (2, c)):  # lone dot products, stacked
            norms[:, col] = (v[:, None] @ v[:, :, None]).ravel()
        np.sqrt(norms, out=norms)
    overflow = "the norm of F0, of an F_i or of c overflows, so no residual or witness test can be measured"
    sols = [None if finite else _finish(c[j], F[j], blocks, "numerical_failure", 0, overflow)
            for j, finite in enumerate(np.isfinite(norms.sum(axis=1)))]
    norms = norms.tolist()
    eye = np.eye(m)
    cold = (np.append(np.zeros(k), 1.0), eye, eye, 1.0)

    def run(which, start_of):
        if not which:
            return ()
        return zip(which, _run(c[which], F[which], blocks, [norms[j] for j in which],
                               [start_of(j) for j in which], eye))

    todo = [j for j, sol in enumerate(sols) if sol is None]
    for j, sol in run(todo, lambda j: cold if starts[j] is None else tuple(
            WARM_START * a + (1.0 - WARM_START) * b for a, b in zip(starts[j].iterate[1:], cold))):
        sols[j] = sol
    again = [j for j in todo if starts[j] is not None
             and sols[j].status in ("numerical_failure", "unbounded")]
    for j, sol in run(again, lambda j: cold):
        warm = sols[j]
        sols[j] = replace(sol, iterations=warm.iterations + sol.iterations, reason=(
            f"restarted from the standard start: the warm start ended in {warm.status} "
            f"({warm.reason}) after {warm.iterations} iterations" + (sol.reason and f"; {sol.reason}")))
    return sols


@lru_cache(maxsize=None)
def _layout(dims: tuple) -> tuple:
    """(blocks, block, off), built once per dims: the slice of each diagonal block, and,
    read-only, the block of each row and the flat indices of the entries off the blocks."""
    block = np.repeat(np.arange(len(dims)), dims)
    off = np.flatnonzero(block[:, None] != block)
    for a in (block, off):
        a.setflags(write=False)
    return tuple(slice(end - d, end) for end, d in zip(np.cumsum(dims).tolist(), dims)), block, off


def _run(c, F, blocks, norms, starts, eye) -> list:
    """The primal-dual loop over a batch of programs of one shape, from the
    iterates starts[j] = (x, S, Z, kappa): their solutions in order.

    Each iteration forms every program's residuals with one stacked call per
    quantity, decides each program's verdict in Python floats, and takes one
    stacked step for the programs left; a program leaves at its verdict or when
    its step breaks down, and the others go on with their bits unchanged.
    """
    n, k, m = len(F), F.shape[1] - 1, F.shape[2]
    dims = tuple(b.stop - b.start for b in blocks)
    cs, Fs = c, F  # each program's objective and pencil, by its place in the batch
    sols, ids = [None] * n, list(range(n))  # ids: the program in each slot of the stacks
    x = np.stack([start[0] for start in starts])
    SZ = np.array([start[1:3] for start in starts])  # each program's S and Z side by side
    kappa = [start[3] for start in starts]
    centred, alpha = [0] * n, [0.0] * n  # centring steps in a row, last step length
    Fv = F.reshape(n, k + 1, m * m)
    # the Schur complement's two Gram factors, written in place at every step: made
    # anew, a block this size is mapped afresh each time, and at n_x = 5 its page
    # faults cost as much as the product
    work = np.empty((2, n, k + 1, m, m))
    for it in range(MAX_ITERS + 1):
        SZv, y = SZ.reshape(n, 2, m * m), x[:, :k]
        aZ = (Fv @ SZv[:, 1, :, None]).reshape(n, k + 1)  # (tr(F_i Z), tr(F0 Z))
        r_p = SZ[:, 0] - (x[:, None] @ Fv).reshape(n, m, m)
        r_d = aZ.copy()
        r_d[:, :k] -= x[:, k:] * c
        r_pv = r_p.reshape(n, m * m)
        # tau F0 + r_p = S - A(y), whose smallness with c^T y < 0 is a recession direction
        recede = x[:, k:] * Fv[:, k] + r_pv
        keep, hold, mu = [], [], []
        for j, i, t, kap, aZ_k in zip(range(n), ids, x[:, k].tolist(), kappa, aZ[:, k].tolist()):
            # each dot product a lone one, on the program's own rows
            S, Z, y_j, a, d = SZv[j, 0], SZv[j, 1], y[j], aZ[j, :k], r_d[j, :k]
            cy = float(c[j].dot(y_j))
            z_norm, y_norm, a_norm = math.sqrt(Z.dot(Z)), math.sqrt(y_j.dot(y_j)), math.sqrt(a.dot(a))
            mu_j = (float(S.dot(Z)) + t * kap) / (m + 1)
            f_max, f0, c_norm = norms[i]
            gap = (m + 1) * mu_j / t**2
            # every residual is measured against the size of the iterate it belongs to
            converged = (math.sqrt(r_pv[j].dot(r_pv[j])) <= FEAS_TOL * (t * f0 + y_norm * f_max)
                         and math.sqrt(d.dot(d)) <= FEAS_TOL * (t * c_norm + z_norm * f_max)
                         and gap <= GAP_TOL * max(1.0, abs(cy) / t))
            # the iterates approach the optimum from outside the cone, so a converged
            # point is centred at fixed tau: where a strictly feasible point exists
            # the first full centring step clears the residual, and the second
            # centres the flat directions of the optimal face; a blocked centring
            # step hands back to Mehrotra, which goes on towards the witness on its
            # own.  With c = 0 every strictly feasible point is optimal.
            if (converged and centred[i] >= 2) or c_norm == 0.0:
                y_opt = y[j] / t
                lam = _margin(Fs[i], y_opt, blocks)
                if lam > 0.0:
                    sols[i] = _finish(cs[i], Fs[i], blocks, "optimal", it, "", y_opt, gap, lam,
                                      (dims, x[j].copy(), SZ[j, 0].copy(), SZ[j, 1].copy(), kap))
                    continue
            # Z >= 0, Z != 0 with tr(F_i Z) = 0 and tr(F0 Z) <= 0 proves that no y
            # has F(y) > 0 (Boyd, El Ghaoui, Feron & Balakrishnan 1994, sec. 2.6).
            # Relative to |Z|, either both traces are within FEAS_TOL of zero, or
            # tr(F0 Z) < 0 outweighs the tr(F_i Z) by 1 / FEAS_TOL, so that
            # tr(F(y) Z) < 0 for every |y| < |F0| / (FEAS_TOL max|F_i|).  A dual
            # iterate merely large, as near the optimum of a badly scaled program,
            # meets neither test.
            if a_norm <= FEAS_TOL * z_norm * f_max and abs(aZ_k) <= FEAS_TOL * z_norm * f0:
                sols[i] = _finish(cs[i], Fs[i], blocks, "infeasible", it, "dual witness: tr(F_i Z) "
                                  "and tr(F0 Z) are both within FEAS_TOL |Z| of zero, so no point is "
                                  "strictly feasible")
            elif aZ_k < 0.0 and a_norm * f0 <= -FEAS_TOL * aZ_k * f_max:
                sols[i] = _finish(cs[i], Fs[i], blocks, "infeasible", it, "dual witness: tr(F0 Z) < 0 "
                                  "outweighs every tr(F_i Z) by 1 / FEAS_TOL")
            # a recession direction: A(y) = S - tau F0 - r_p >= 0 with c^T y < 0
            elif cy < 0.0 and math.sqrt(recede[j].dot(recede[j])) <= FEAS_TOL * y_norm * f_max:
                sols[i] = _finish(cs[i], Fs[i], blocks, "unbounded", it, "recession direction: sum_i y_i "
                                  "F_i >= 0 within FEAS_TOL with c^T y < 0", y[j] / t)
            elif it == MAX_ITERS:
                sols[i] = _finish(cs[i], Fs[i], blocks, "numerical_failure", it,
                                  f"iteration budget spent ({MAX_ITERS})", y[j] / t)
            else:
                keep.append(j)
                hold.append(converged and (centred[i] == 0 or alpha[i] == 1.0))
                r_d[j, k] = aZ_k + cy + kap
                mu.append(mu_j)
        kappa = [kappa[j] for j in keep]
        while keep:
            if len(keep) < n:  # programs left: the stacks keep the others' slots
                F, c, x, SZ, aZ, r_p, r_d = (a[keep] for a in (F, c, x, SZ, aZ, r_p, r_d))
                ids, n = [ids[j] for j in keep], len(keep)
                Fv, work = F.reshape(n, k + 1, m * m), work[:, :n]
            try:
                dx, dSZ, dk, step = _step(F, Fv, eye, c, SZ, x[:, k].tolist(), kappa, aZ, mu, r_p, r_d,
                                          hold, work)
                break
            except np.linalg.LinAlgError as exc:
                # a breakdown names its programs; any other error ends the whole step
                reasons = exc.reasons if isinstance(exc, _Breakdown) else dict.fromkeys(range(n), str(exc))
            for j, why in reasons.items():
                sols[ids[j]] = _finish(cs[ids[j]], Fs[ids[j]], blocks, "numerical_failure", it,
                                       f"iteration {it}: {why}", x[j, :k] / x[j, k])
            keep = [j for j in range(n) if j not in reasons]
            hold, kappa, mu = ([a[j] for j in keep] for a in (hold, kappa, mu))
        if not keep:
            return sols
        x, SZ = x + _col(step, 2) * dx, SZ + _col(step, 4) * dSZ
        for j, i, h, a, e in zip(range(n), ids, hold, step, dk):
            centred[i], alpha[i], kappa[j] = centred[i] + 1 if h else 0, a, kappa[j] + a * e
    return sols


# what a Newton direction reads, stacked over the programs of a step: T holds the
# inverse Cholesky factors of S and Z (items Fortran-ordered, as LAPACK hands them
# back: copied into C order, the products formed with them lose their bits), chol
# the upper Cholesky factor of each Schur complement H_yy, h_c is h - c, u_hc is
# H_yy^-1 (h + c) and pivot that of tau; tau, kappa and pivot are lists of floats
_Newton = namedtuple("_Newton", "Fv SZ S_inv T a_s_inv aZ r_p r_d tau kappa chol h_c u_hc pivot")


def _step(F, Fv, eye, c, SZ, tau, kappa, aZ, mu, r_p, r_d, hold, work):
    """One damped step for each program: Mehrotra's predictor-corrector, or
    while the program is held (hold[j]) a centring step at fixed tau that
    clears the residuals.  work holds two stacks of F's shape for the Schur
    complement's Gram factors.

    LAPACK is called directly, once per program; a nonzero info, a gufunc
    that fails and a non-finite residual, Schur complement or right-hand side
    raise _Breakdown naming the programs they belong to.
    """
    n, k, m = len(SZ), c.shape[1], SZ.shape[2]
    _require_finite(r_p, "primal residual")
    _require_finite(r_d, "dual residual")
    L = _each(np_cholesky, SZ)
    T = np.empty((n, 2, m, m)).swapaxes(2, 3)
    reasons = {}
    for j in range(n):
        try:
            T[j, 0], T[j, 1] = _inv_lower(L[j, 0], eye), _inv_lower(L[j, 1], eye)
        except np.linalg.LinAlgError as exc:
            reasons[j] = str(exc)
    if reasons:
        raise _Breakdown(reasons)
    Ts = T[:, 0]
    S_inv = Ts.swapaxes(1, 2) @ Ts
    a_s_inv = (Fv @ S_inv.reshape(n, m * m, 1)).reshape(n, k + 1)
    # HKM Schur complement H_ab = tr(F_a S^-1 F_b Z) as one Gram product
    np.matmul(L[:, 1, None].swapaxes(2, 3), F, out=work[0])
    G = np.matmul(work[0], Ts[:, None].swapaxes(2, 3), out=work[1]).reshape(n, k + 1, m * m)
    H = G @ G.swapaxes(1, 2)
    _require_finite(H[:, :k], "Schur complement")
    # tau is eliminated by hand: with u = H_yy^-1 (h, c) its pivot is a sum
    # of nonnegative terms, so it never cancels to zero near the optimum
    h, hc, u = H[:, :k, k], np.empty((n, k, 2)), np.empty((n, 2, k)).swapaxes(1, 2)
    hc[:, :, 0], hc[:, :, 1] = h, c
    chol, pivot = [], []
    for j, kap, t in zip(range(n), kappa, tau):
        U, info = dpotrf(H[j, :k, :k], lower=0, clean=0)
        if info:
            reasons[j] = f"dpotrf: Schur complement not positive definite at minor {info}"
            continue
        chol.append(U)
        u_j = u[j]
        u_j[:] = dpotrs(U, hc[j], lower=0)[0]
        pivot.append(float(max(H[j, k, k] - h[j] @ u_j[:, 0], 0.0) + c[j] @ u_j[:, 1]) + kap / t)
    if reasons:
        raise _Breakdown(reasons)
    u_h, u_c = u[:, :, 0], u[:, :, 1]
    P = _Newton(Fv, SZ, S_inv, T, a_s_inv, aZ, r_p, r_d, tau, kappa, chol, h - c, u_h + u_c, pivot)
    free = [j for j in range(n) if not hold[j]]
    if len(free) == n:
        dx, dSZ, dk, alpha = _predict_correct(P, mu)
    elif not free:
        dx, dSZ, dk, alpha = _direction(P, [1.0] * n, mu, hold=True)
    else:  # the held programs and the others step apart, and their steps are put together
        held = [j for j in range(n) if hold[j]]
        dx, dSZ, dk, alpha = np.empty((n, k + 1)), np.empty((n, 2, m, m)), [0.0] * n, [0.0] * n
        for slots, direction in ((free, lambda A: _predict_correct(A, [mu[j] for j in free])),
                                 (held, lambda A: _direction(A, [1.0] * len(held), [mu[j] for j in held],
                                                             hold=True))):
            try:
                part = direction(_Newton._make(a[slots] if isinstance(a, np.ndarray)
                                               else [a[j] for j in slots] for a in P))
            except _Breakdown as exc:
                raise _Breakdown({slots[j]: why for j, why in exc.reasons.items()}) from None
            dx[slots], dSZ[slots] = part[:2]
            for j, e, a in zip(slots, *part[2:]):
                dk[j], alpha[j] = e, a
    return dx, dSZ, dk, [min(1.0, STEP_TO_BOUNDARY * a) for a in alpha]


def _predict_correct(P: _Newton, mu: list):
    """Mehrotra's direction for each program: the affine step picks sigma and
    supplies the corrector."""
    n, m, k = len(P.SZ), P.SZ.shape[2], P.aZ.shape[1] - 1
    dx, dSZ, dk, alpha = _direction(P, [1.0] * n, [0.0] * n)
    alpha = [min(1.0, a) for a in alpha]
    SZ = (P.SZ + _col(alpha, 4) * dSZ).reshape(n, 2, m * m)
    eta, target, corr_kappa = [], [], []
    for j, t, a, d, kap, e, u in zip(range(n), P.tau, alpha, dx[:, k].tolist(), P.kappa, dk, mu):
        mu_aff = (float(SZ[j, 0].dot(SZ[j, 1])) + (t + a * d) * (kap + a * e)) / (m + 1)
        sigma = min(1.0, mu_aff / u) ** 3
        eta.append(1.0 - sigma)
        target.append(sigma * u)
        corr_kappa.append(d * e)
    return _direction(P, eta, target, dSZ[:, 0] @ dSZ[:, 1], corr_kappa)


def _direction(P: _Newton, eta: list, target: list, corr=0.0, corr_kappa=None, hold=False):
    """Newton step of each program towards S Z = target I with the residuals
    scaled by 1 - eta; corr and corr_kappa are Mehrotra's second-order terms,
    and hold keeps tau fixed.  eta, target and corr_kappa hold one float per
    program.

    S^-1 (target I - S Z) is written out as target S^-1 - Z, because forming
    S^-1 (S Z) loses the digits of the condition number of S.  Returns the
    directions (dS and dZ side by side in dSZ) and the largest step length that
    keeps each program's S, Z, tau and kappa in their cones.
    """
    n, m = len(P.SZ), P.SZ.shape[2]
    k = P.aZ.shape[1] - 1
    Z = P.SZ[:, 1]
    eta_m = _col(eta, 3)
    rhs = (_col(eta, 2) * P.r_d + _col(target, 2) * P.a_s_inv - P.aZ
           + (P.Fv @ (P.S_inv @ (eta_m * P.r_p @ Z - corr)).reshape(n, m * m, 1)).reshape(n, k + 1))
    r_kappa = []
    for j, g, t, kap, e in zip(range(n), target, P.tau, P.kappa, corr_kappa or [0.0] * n):
        r_kappa.append(g - t * kap - e)
        rhs[j, k] += r_kappa[-1] / t
    _require_finite(rhs[:, :k], "right-hand side")
    dx = np.zeros((n, k + 1))
    for j, d, b, U in zip(range(n), dx, rhs, P.chol):
        d[:k] = dpotrs(U, b[:k], lower=0)[0]
        if not hold:
            d[k] = (b[k] - P.h_c[j] @ d[:k]) / P.pivot[j]
    if not hold:
        dx[:, :k] -= P.u_hc * dx[:, k, None]
    dSZ = np.empty((n, 2, m, m))
    np.subtract((dx[:, None] @ P.Fv).reshape(n, m, m), eta_m * P.r_p, out=dSZ[:, 0])
    dZ = _col(target, 3) * P.S_inv - Z - P.S_inv @ (dSZ[:, 0] @ Z + corr)
    np.multiply(0.5, dZ + dZ.swapaxes(1, 2), out=dSZ[:, 1])
    # X + alpha D >= 0 up to alpha = -1 / lambda_min(T D T^T), T = L^-1, X = L L^T
    lam = _each(np_eigvalsh, P.T @ dSZ @ P.T.swapaxes(2, 3))[:, :, 0].tolist()
    dk, alpha = [], []
    for (ls, lz), r, t, d, kap in zip(lam, r_kappa, P.tau, dx[:, k].tolist(), P.kappa):
        dk.append((r - kap * d) / t)
        alpha.append(min(_to_boundary(1.0, ls), _to_boundary(1.0, lz), _to_boundary(t, d),
                         _to_boundary(kap, dk[-1])))
    return dx, dSZ, dk, alpha


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
        z = np.concatenate(([1.0], y[:k]))
        return contract(z, self.coef)


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

    def build(self, objective: AffineExpr, blocks: list[AffineExpr]) -> tuple:
        """The stack of one program (c, F, dims) that minimizes the scalar
        objective with every block PSD; F holds each block's symmetric part,
        and a non-finite entry raises DomainError naming c, F0 or Fi."""
        if objective.shape != (1, 1):
            raise ValueError("objective must be scalar")
        if not blocks:
            raise ValueError("problem has no constraint blocks")
        k = self.num_vars
        c = _pad(objective.coef, 1 + k)[None, 1:, 0, 0].copy()
        require_finite("c", c)
        dims = tuple(expr.shape[0] for expr in blocks)
        F, at = np.zeros((1, k + 1) + (sum(dims),) * 2), 0
        for expr, d in zip(blocks, dims):
            with np.errstate(over="ignore", invalid="ignore"):  # named below as non-finite
                coef = symmetrize(_pad(expr.coef, 1 + k))
            require_finite("F0", coef[0])
            require_finite("Fi", coef[1:])
            F[0, :k, at:at + d, at:at + d], F[0, k, at:at + d, at:at + d] = coef[1:], coef[0]
            at += d
        return c, F, dims
