import cProfile
import functools
import pstats

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlqr import drsynth, sdpcore
from drlqr.ambiguity import build_ambiguity
from drlqr.experiment import LAMBDA_REG, _cell_stream, sample_gaussian
from drlqr.matcore import DomainError, ShapeError
from drlqr.sdpcore import (AffineExpr, LmiBuilder, SdpSolution, block_expr, kron_const, solve_batch,
                           zeros)
from conftest import bench_workloads
from oracles import block_margin, solve_reference, thm6_builder


def _alone(prob, start=None):
    """solve_batch on the stack of one prob, from start."""
    return solve_batch(*prob, [start])[0]


def _solve(prob):
    """Solve; an "optimal" return must carry the margin of its own point,
    which the strict certificate in drsynth reads, and no reason."""
    sol = _alone(prob)
    if sol.status == "optimal":
        assert sol.min_block_eigenvalue == block_margin(prob, sol.y)
        assert sol.reason == ""
    return prob, sol


def _program(c, F0, *Fi):
    """min c^T y s.t. F0 + sum_i y_i Fi >= 0, one block, as a stack of one."""
    F = np.array([[*Fi, F0]], dtype=float)
    return np.array([c], dtype=float), F, (F.shape[-1],)


def _line(F0, F1, c=1.0):
    """min c y s.t. F0 + y F1 >= 0, one scalar block."""
    return _program([c], [[F0]], [[F1]])


def _scaled(s):
    """TestBadlyScaled's min y1 + y2 s.t. diag(s + y1, 1 + s y2) >= 0."""
    return _program([1.0, 1.0], np.diag([s, 1.0]), np.diag([1.0, 0.0]), np.diag([0.0, s]))


BADLY_SCALED = "false verdict on a badly scaled program (ROADMAP item 2)"


class TestSmallPrograms:
    def test_norm_bound(self):
        # min -y  s.t.  [[1, y], [y, 1]] >= 0  has optimum y = 1
        b = LmiBuilder()
        y = b.rect_var(1, 1)
        block = block_expr([[np.ones((1, 1)), y], [y, np.ones((1, 1))]])
        _, sol = _solve(b.build(-1.0 * y, [block]))
        assert sol.status == "optimal"
        assert abs(sol.y[0] - 1.0) < 1e-4

    def test_half_line(self):
        # min y  s.t.  y - 3 >= 0
        b = LmiBuilder()
        y = b.rect_var(1, 1)
        _, sol = _solve(b.build(y, [y - 3.0 * np.ones((1, 1))]))
        assert sol.status == "optimal"
        assert abs(sol.y[0] - 3.0) < 1e-4

    def test_feasibility_only(self):
        b = LmiBuilder()
        y = b.rect_var(1, 1)
        prob, sol = _solve(b.build(zeros((1, 1)), [y - np.ones((1, 1)), 2.0 * np.ones((1, 1)) - y]))
        assert sol.status == "optimal"
        assert block_margin(prob, sol.y) > 0.0

    def test_infeasible(self):
        b = LmiBuilder()
        y = b.rect_var(1, 1)
        _, sol = _solve(b.build(zeros((1, 1)), [y - np.ones((1, 1)), -1.0 * y]))
        assert sol.status == "infeasible"
        assert sol.reason.startswith("dual witness: tr(F0 Z) < 0")

    def test_empty_interior_is_infeasible(self):
        # y >= 0 and -y >= 0 hold only at y = 0: feasible, but not strictly
        b = LmiBuilder()
        y = b.rect_var(1, 1)
        _, sol = _solve(b.build(zeros((1, 1)), [y, -1.0 * y]))
        assert sol.status == "infeasible"
        assert sol.reason.startswith("dual witness: tr(F_i Z) and tr(F0 Z)")

    def test_weakly_infeasible_is_infeasible(self):
        # [[y, 1], [1, 0]] >= 0 has no solution, yet points come arbitrarily
        # close; Z = [[0, 0], [0, 1]] is the witness
        b = LmiBuilder()
        y = b.rect_var(1, 1)
        block = block_expr([[y, np.ones((1, 1))], [np.ones((1, 1)), np.zeros((1, 1))]])
        _, sol = _solve(b.build(zeros((1, 1)), [block]))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        b = LmiBuilder()
        y = b.rect_var(1, 1)
        _, sol = _solve(b.build(-1.0 * y, [y + np.ones((1, 1))]))
        assert sol.status == "unbounded"
        assert sol.reason.startswith("recession direction")

    def test_solution_nearly_psd(self):
        b = LmiBuilder()
        P = b.sym_var(3)
        C = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        blocks = [AffineExpr.constant(C) - P, P - 0.1 * np.eye(3)]
        prob, sol = _solve(b.build(-1.0 * P.trace(), blocks))
        assert sol.status == "optimal"
        assert sol.min_block_eigenvalue > 0.0
        # trace of P approaches trace of C at the optimum
        assert abs(-sol.objective_value - C.trace()) < 1e-3 * C.trace()


class TestFailureReason:
    def _half_line(self):
        return _line(-3.0, 1.0)

    def test_caught_exception_is_reported(self, monkeypatch):
        def broken(*args):
            raise np.linalg.LinAlgError("Schur complement not finite")

        monkeypatch.setattr(sdpcore, "_step", broken)
        sol = _alone(self._half_line())
        assert sol.status == "numerical_failure"
        assert sol.iterations == 0
        assert sol.reason == "iteration 0: Schur complement not finite"

    def test_spent_budget_is_reported(self, monkeypatch):
        monkeypatch.setattr(sdpcore, "MAX_ITERS", 2)
        sol = _alone(self._half_line())
        assert sol.status == "numerical_failure"
        assert sol.iterations == 2
        assert sol.reason == "iteration budget spent (2)"


def _trace_program(C):
    """max tr P s.t. P <= C and P >= 0.1 I; the optimum is P = C."""
    b = LmiBuilder()
    P = b.sym_var(C.shape[0])
    return b.build(-1.0 * P.trace(), [AffineExpr.constant(C) - P, P - 0.1 * np.eye(C.shape[0])])


C3 = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])


class TestWarmStart:
    def test_optimum_of_a_neighbour(self):
        """Started from a nearby program's solution, the solve reaches the cold
        optimum in fewer iterations, and returns its own iterate."""
        prob = _trace_program(C3)
        start = _alone(_trace_program(C3 + 0.1 * np.eye(3)))
        cold, warm = _alone(prob), _alone(prob, start)
        assert warm.status == cold.status == "optimal"
        assert warm.min_block_eigenvalue == block_margin(prob, warm.y) > 0.0
        assert abs(warm.objective_value - cold.objective_value) <= 1e-6 * abs(cold.objective_value)
        assert warm.iterations < cold.iterations
        dims, x, S, Z, kappa = warm.iterate
        assert dims == (3, 3) and x.shape == (7,) and S.shape == Z.shape == (6, 6)
        assert np.array_equal(x[:6] / x[6], warm.y)

    def test_other_variable_count_rejected(self):
        start = _alone(_trace_program(np.eye(2)))
        with pytest.raises(ValueError, match="6 variables"):
            _alone(_trace_program(C3), start)

    def test_other_block_sizes_rejected(self):
        # one variable each: the half line y >= 3 and the 2 x 2 norm bound
        start = _alone(_line(-3.0, 1.0))
        norm_bound = _program([-1.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
        assert start.status == "optimal"
        with pytest.raises(ValueError, match=r"blocks \(2,\)"):
            _alone(norm_bound, start)

    def test_start_that_is_not_optimal_rejected(self):
        b = LmiBuilder()
        y = b.rect_var(1, 1)
        infeasible = b.build(zeros((1, 1)), [y - np.ones((1, 1)), -1.0 * y])
        start = _alone(infeasible)
        assert start.status == "infeasible" and start.iterate is None
        with pytest.raises(ValueError, match="optimal"):
            _alone(infeasible, start)

    def test_failed_warm_solve_reruns_cold(self, monkeypatch):
        """A warm solve that ends in numerical_failure returns the cold
        result, with the iterations of both attempts and the restart named."""
        prob = _trace_program(C3)
        start = _alone(_trace_program(C3 + 0.1 * np.eye(3)))
        cold = _alone(prob)
        real, calls = sdpcore._step, []

        def fails_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("injected")
            return real(*args)

        monkeypatch.setattr(sdpcore, "_step", fails_third)
        sol = _alone(prob, start)
        assert sol.status == "optimal"
        assert np.array_equal(sol.y, cold.y)
        assert sol.iterations == 2 + cold.iterations
        assert sol.reason == ("restarted from the standard start: the warm start ended in "
                              "numerical_failure (iteration 2: injected) after 2 iterations")


class TestNonFinitePencil:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["F0", "Fi", "c"])
    def test_rejected(self, where, bad):
        """build names the field of the non-finite entry, and warns of nothing."""
        F0, Fi, c = np.eye(2), np.stack([np.eye(2), np.ones((2, 2))]), np.ones(2)
        {"F0": F0, "Fi": Fi, "c": c}[where].flat[1] = bad
        b = LmiBuilder()
        b.rect_var(1, 2)
        with pytest.raises(DomainError, match=f"in {where}$"):
            b.build(AffineExpr(np.append(0.0, c)[:, None, None]), [AffineExpr(np.concatenate([F0[None], Fi]))])

    def test_overflowing_symmetric_part_rejected(self):
        """(a + a^T) / 2 overflows for an entry beyond half the largest float:
        DomainError, and no overflow warning first (error::RuntimeWarning)."""
        b = LmiBuilder()
        y = b.rect_var(1, 1)
        with pytest.raises(DomainError, match="in Fi$"):
            b.build(y, [block_expr([[np.ones((1, 1)), 1e308 * y], [1e308 * y, np.ones((1, 1))]])])


class TestBadlyScaled:
    """Verdicts known to be wrong, held as strict xfails: each turns into a
    pass, and so fails the suite, once the solver gets it right."""

    @pytest.mark.parametrize("s", [
        1e4,
        # the recession test compares against |y| max|F_i|, which the large
        # finite optimum passes
        pytest.param(1e8, marks=pytest.mark.xfail(strict=True, reason=BADLY_SCALED)),
        pytest.param(1e150, marks=pytest.mark.xfail(strict=True, reason=BADLY_SCALED)),
        # |F0| overflows to inf, which is reported as a numerical failure
        # (test_overflowing_norms_are_not_infeasible)
        pytest.param(1e160, marks=pytest.mark.xfail(strict=True, reason=BADLY_SCALED)),
    ])
    def test_large_finite_optimum(self, s):
        # min y1 + y2 s.t. diag(s + y1, 1 + s y2) >= 0: strictly feasible at
        # y = 0, optimum -s - 1/s at y = (-s, -1/s)
        sol = _alone(_scaled(s))
        assert sol.status == "optimal"
        assert abs(sol.objective_value + s + 1.0 / s) <= 1e-6 * s

    def test_overflowing_norms_are_not_infeasible(self):
        # the strictly feasible program of test_large_finite_optimum at s = 1e160,
        # where |F0| and max|F_i| overflow to inf
        sol = _alone(_scaled(1e160))
        assert sol.status == "numerical_failure"
        assert "overflows" in sol.reason

    @pytest.mark.xfail(strict=True, reason=BADLY_SCALED)
    def test_large_offset_half_line(self):
        # min y s.t. 1e6 + y >= 0 spends the iteration budget
        sol = _alone(_line(1e6, 1.0))
        assert sol.status == "optimal"
        assert abs(sol.y[0] + 1e6) <= 1e-6 * 1e6


class TestBisectionOracle:
    def test_random_eigenvalue_problems(self):
        """min t s.t. tI - S >= 0 must return the largest eigenvalue of S.

        The oracle is a plain bisection on feasibility of the same pencil.
        """
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            A = rng.standard_normal((n, n))
            S = (A + A.T) / 2
            b = LmiBuilder()
            t = b.rect_var(1, 1)
            prob, sol = _solve(b.build(t, [kron_const(np.eye(n), t) - S]))
            assert sol.status == "optimal"
            lam_max = np.linalg.eigvalsh(S)[-1]

            lo, hi = lam_max - 2.0, lam_max + 2.0
            for _ in range(40):
                mid = (lo + hi) / 2
                if np.linalg.eigvalsh(mid * np.eye(n) - S)[0] > 0:
                    hi = mid
                else:
                    lo = mid
            assert abs(sol.y[0] - hi) < 1e-3 * (1 + abs(hi))
            assert abs(sol.y[0] - lam_max) < 1e-3 * (1 + abs(lam_max))


class TestBuilderBasis:
    def test_sym_var_basis(self):
        b = LmiBuilder()
        P = b.sym_var(2)
        assert b.num_vars == 3
        y = np.array([1.0, 2.0, 3.0])
        assert np.allclose(P.value(y), [[1.0, 2.0], [2.0, 3.0]])

    def test_rect_var_basis(self):
        b = LmiBuilder()
        V = b.rect_var(1, 2)
        assert b.num_vars == 2
        y = np.array([5.0, -1.0])
        assert np.allclose(V.value(y), [[5.0, -1.0]])

    def test_non_square_psd_rejected(self):
        b = LmiBuilder()
        V = b.rect_var(1, 2)
        with pytest.raises(ShapeError):
            b.build(zeros((1, 1)), [V])

    def test_objective_must_be_scalar(self):
        b = LmiBuilder()
        P = b.sym_var(2)
        with pytest.raises(ValueError, match="objective must be scalar"):
            b.build(P, [P])

    def test_stack_owns_its_memory(self):
        """build writes a new stack of one: c and F share no memory with the
        expressions, which a later edit would otherwise reach."""
        b = LmiBuilder()
        P = b.sym_var(2)
        objective, block = -1.0 * P.trace(), P - np.eye(2)
        c, F, dims = b.build(objective, [block])
        assert (c.shape, F.shape, dims) == ((1, 3), (1, 4, 2, 2), (2,))
        assert not any(np.shares_memory(a, e.coef) for a in (c, F) for e in (objective, block, P))


class TestExpressionAlgebra:
    def test_pencil_matches_expression(self):
        """build() pencil evaluated at random y equals the expression value."""
        rng = np.random.default_rng(1)
        b = LmiBuilder()
        W = b.sym_var(2)
        V = b.rect_var(1, 2)
        g = b.rect_var(1, 1)
        C = rng.standard_normal((2, 2))
        expr = block_expr([
            [W - np.eye(2), V.T, C @ W],
            [V, g, zeros((1, 2))],
            [(C @ W).T, zeros((2, 1)), kron_const(np.eye(2), g) + W],
        ])
        (c,), (F,), dims = b.build(zeros((1, 1)), [expr])
        assert dims == (5,) and len(c) == b.num_vars
        sym = 0.5 * (expr + expr.T)
        for _ in range(5):
            y = rng.standard_normal(len(c))
            pencil = F[-1] + np.einsum("k,kij->ij", y, F[:-1])
            assert np.allclose(pencil, sym.value(y), atol=1e-12)

    def test_matmul_and_trace(self):
        b = LmiBuilder()
        W = b.sym_var(2)
        C = np.array([[1.0, 2.0], [0.0, 1.0]])
        y = np.array([1.0, 0.5, 2.0])
        Wv = W.value(y)
        assert np.allclose((C @ W).value(y), C @ Wv)
        assert np.allclose((W @ C).value(y), Wv @ C)
        assert np.isclose(W.trace().value(y)[0, 0], np.trace(Wv))
        assert np.allclose((W - W.T).value(y), 0.0)

    def test_kron_const(self):
        b = LmiBuilder()
        W = b.sym_var(2)
        y = np.array([1.0, -1.0, 3.0])
        K = kron_const(np.diag([2.0, 5.0]), W)
        assert np.allclose(K.value(y), np.kron(np.diag([2.0, 5.0]), W.value(y)))


class TestTensorAlgebraProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=st.integers(1, 3), q=st.integers(1, 3), r=st.integers(1, 3),
           s=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_operations_commute_with_value(self, p, q, r, s, seed):
        """Every expression operation agrees with the same operation on value(y),
        including on expressions made before later variables were registered."""
        rng = np.random.default_rng(seed)
        draw = lambda *shape: rng.standard_normal(shape)
        close = lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        b = LmiBuilder()
        X = b.rect_var(p, q)
        C0, D0, Cq = draw(p, p), draw(p, q), draw(q, p)
        early = C0 @ X + D0
        square = X @ Cq  # p x p, constrained after the later variables exist
        g = b.rect_var(1, 1)
        P = b.sym_var(q)
        late = kron_const(draw(p, q), g) + draw(p, q) @ P
        assert early.coef.shape[0] < late.coef.shape[0]
        y = draw(b.num_vars)
        Xv, gv, Pv = X.value(y), g.value(y), P.value(y)
        ev, lv = early.value(y), late.value(y)

        # the variables themselves, read straight off y: X row-major, then g,
        # then the upper triangle of P row by row
        assert np.array_equal(Xv, y[:p * q].reshape(p, q))
        assert gv[0, 0] == y[p * q]
        assert np.array_equal(Pv[np.triu_indices(q)], y[p * q + 1:]) and np.array_equal(Pv, Pv.T)
        close(ev, C0 @ Xv + D0)
        close((early + late).value(y), ev + lv)
        close((late + early).value(y), ev + lv)
        close((early - late).value(y), ev - lv)
        close((late - early).value(y), lv - ev)
        close((D0 - early).value(y), D0 - ev)
        close((s * early).value(y), s * ev)
        close((late * s).value(y), s * lv)
        E, F = draw(r, p), draw(q, r)
        close((E @ early).value(y), E @ ev)
        close((early @ F).value(y), ev @ F)
        close(early.T.value(y), ev.T)
        close((late @ F).T.value(y), (lv @ F).T)
        close(square.trace().value(y), [[np.trace(Xv @ Cq)]])
        close(P.trace().value(y), [[np.trace(Pv)]])
        K = draw(r, 2)
        close(kron_const(K, early).value(y), np.kron(K, ev))
        G, H = draw(p, r), draw(p, r)
        blk = block_expr([[early, G], [P, late.T @ H]])
        close(blk.value(y), np.block([[ev, G], [Pv, lv.T @ H]]))

        (c,), (F,), dims = b.build(g - 2.0 * P.trace(), [square])
        assert len(c) == b.num_vars and dims == (p,)
        pencil = F[-1] + np.tensordot(y, F[:-1], axes=1)
        close(pencil, 0.5 * (Xv @ Cq + (Xv @ Cq).T))
        close(c @ y, gv[0, 0] - 2.0 * np.trace(Pv))



class TestReadOuts:
    """value and the margin (the least block eigenvalue, sdpcore._margin) form
    y . Fi by one matrix product, the one np.tensordot makes, so the bits are
    tensordot's."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k=st.integers(0, 12), rows=st.integers(1, 6), cols=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_value_is_tensordots(self, k, rows, cols, seed):
        rng = np.random.default_rng(seed)
        coef, y = rng.standard_normal((k + 1, rows, cols)), rng.standard_normal(k + 2)
        ours = AffineExpr(coef).value(y)
        reference = np.tensordot(np.concatenate(([1.0], y[:k])), coef, axes=1)
        assert ours.shape == reference.shape and ours.tobytes() == reference.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k=st.integers(1, 12), dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_min_eigenvalue_is_tensordots(self, k, dims, seed):
        rng = np.random.default_rng(seed)
        sym = lambda a: a + np.swapaxes(a, -1, -2)
        ends = np.cumsum(dims).tolist()
        blocks = tuple(slice(e - d, e) for d, e in zip(dims, ends))
        F = np.zeros((k + 1, ends[-1], ends[-1]))  # one program's pencil: F_1..F_k, then F0
        for b, d in zip(blocks, dims):
            F[:, b, b] = sym(rng.standard_normal((k + 1, d, d)))
        y = rng.standard_normal(k)
        # on the pencil's own slices: a product on a contiguous copy of a block may round apart
        reference = min(np.linalg.eigvalsh(F[k, b, b] + np.tensordot(y, F[:k, b, b], axes=([0], [0])))[0]
                        for b in blocks)
        assert sdpcore._margin(F, y, blocks) == reference


# --------------------------------------------------------------------------
# The batch loop against the one-program reference loop, bit for bit
# --------------------------------------------------------------------------


SMALL = [
    # one variable, one 1 x 1 block: optimal, unbounded, the spent budget, infeasible
    _line(-3.0, 1.0), _line(1.0, 1.0, c=-1.0), _line(1e6, 1.0), _line(-1.0, 0.0),
    # one variable, one 2 x 2 block: the norm bound (optimal) and a weakly infeasible program
    _program([-1.0], np.eye(2), [[0.0, 1.0], [1.0, 0.0]]),
    _program([0.0], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]),
    # two variables, one 2 x 2 block: the badly scaled programs, the last one overflowing
    *(_scaled(s) for s in (1e4, 1e8, 1e150, 1e160)),
]


N5_OPS = range(3)


def _shape(prob):
    return prob[0].shape[1], prob[2]


@functools.cache
def _programs() -> dict:
    """{shape: [(program, start)]}: the synth_full and synth_rhc programs of the
    identity digest's 300 plants, of synth-n5 ops 0-2 (seed 0: two feasible
    5-state plants and an infeasible one) and SMALL, each without a start,
    and the dr_full programs of sweep-paper op 0 (seed 0) with the starts the
    sweep gives them."""
    from identity_digest import plants  # builds the plants' inputs only when asked

    n5 = bench_workloads().WORKLOADS["synth-n5"](0)
    inputs = [data[1:] for data in plants()] + [n5.make_input(i).data for i in N5_OPS]
    found = []

    def programs(c, F, dims):  # each program of the stack as a stack of one
        return [(np.array(c[j:j + 1]), np.array(F[j:j + 1]), dims) for j in range(len(c))]

    def collect(c, F, dims, starts=None):  # a verdict that raises at once: no solve is needed here
        found.extend((prob, None) for prob in programs(c, F, dims))
        return [SdpSolution(np.zeros(c.shape[1]), "infeasible", 0.0, 0.0, 0) for _ in c]

    real = drsynth.solve_batch
    drsynth.solve_batch = collect
    try:
        for sys, amb, cost, x0 in inputs:
            for synth in (lambda: drsynth.synth_full(sys, amb, cost),
                          lambda: drsynth.synth_rhc(sys, amb, cost, x0)):
                with pytest.raises(drsynth.DrSynthesisError):
                    synth()
    finally:
        drsynth.solve_batch = real

    def sweep(c, F, dims, starts):
        found.extend(zip(programs(c, F, dims), starts))
        return real(c, F, dims, starts)

    workload = bench_workloads().WORKLOADS["sweep-paper"](0)
    drsynth.solve_batch = sweep
    try:
        assert isinstance(workload.run(workload.make_input(0)), list)
    finally:
        drsynth.solve_batch = real
    groups = {}
    for prob, start in found + [(prob, None) for prob in SMALL]:
        groups.setdefault(_shape(prob), []).append((prob, start))
    return groups


@functools.cache
def _warm_start(shape):
    """The reference's optimum of the first program of the group that has one, or None."""
    for prob, _ in _programs()[shape]:
        sol = _reference(shape, prob, None)
        if sol.status == "optimal":
            return sol
    return None


_references = {}


def _reference(shape, prob, start):
    key = (shape, id(prob), id(start))
    if key not in _references:
        _references[key] = solve_reference(prob, start)
    return _references[key]


def _bits(a) -> bytes:
    a = np.asarray(a)
    return repr((a.dtype.str, a.shape)).encode() + a.tobytes()


def assert_same_solution(sol: SdpSolution, ref: SdpSolution):
    """Every field of sol is the reference's, bit for bit, and sol's iterate owns its arrays."""
    for field in ("y", "objective_value", "min_block_eigenvalue", "duality_gap"):
        assert _bits(np.float64(getattr(sol, field))) == _bits(np.float64(getattr(ref, field))), field
    assert (sol.status, sol.iterations, sol.reason) == (ref.status, ref.iterations, ref.reason)
    assert (sol.iterate is None) == (ref.iterate is None)
    if ref.iterate is not None:
        assert sol.iterate[0] == ref.iterate[0]
        for ours, theirs in zip(sol.iterate[1:], ref.iterate[1:]):
            assert _bits(ours) == _bits(theirs)
        assert all(a.flags.owndata for a in sol.iterate[1:4])


def _solve_both(shape, entries):
    """solve_batch on entries, a list of (program, start), stacked, and each program's reference."""
    sols = solve_batch(*(np.concatenate([prob[i] for prob, _ in entries]) for i in (0, 1)), shape[1],
                       [start for _, start in entries])
    return sols, [_reference(shape, prob, start) for prob, start in entries]


class TestBatchIsReference:
    """solve_batch returns for each program what the one-program reference loop
    (tests/oracles.solve_reference, the loop sdpcore ran before it stacked
    programs) returns, bit for bit, whatever else shares its batch."""

    @pytest.fixture(scope="class")
    def groups(self):
        return _programs()  # built outside the hypothesis test, which imports test modules

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_batches(self, groups, data):
        shape = data.draw(st.sampled_from(sorted(groups)), label="shape")
        picks = data.draw(st.lists(st.tuples(st.integers(0, len(groups[shape]) - 1), st.booleans()),
                                   min_size=1, max_size=6), label="programs, warm")
        entries = [groups[shape][i] for i, _ in picks]
        entries = [(prob, _warm_start(shape) if warm and _warm_start(shape) else start)
                   for (prob, start), (_, warm) in zip(entries, picks)]
        for sol, ref in zip(*_solve_both(shape, entries)):
            assert_same_solution(sol, ref)

    def test_every_verdict_in_one_batch(self):
        """The one-variable line programs give all four verdicts, and warm
        starts from the first one's optimum make the unbounded program and the
        spent budget rerun cold."""
        shape = (1, (1,))
        lines = [prob for prob, _ in _programs()[shape]]
        start = _reference(shape, lines[0], None)
        sols, refs = _solve_both(shape, [(prob, None) for prob in lines]
                                 + [(prob, start) for prob in lines])
        for sol, ref in zip(sols, refs):
            assert_same_solution(sol, ref)
        assert [sol.status for sol in sols[:4]] == ["optimal", "unbounded", "numerical_failure",
                                                   "infeasible"]
        assert sum(sol.reason.startswith("restarted") for sol in sols) == 2

    def test_identity_group_with_three_verdicts(self):
        """The synth_rhc programs of the plants with n_x = 2, n_u = 1 and n_w = 2
        (12 variables, blocks 4, 9, 2 and 3) end optimal, infeasible and in
        numerical failure; solved as one batch, half of them warm."""
        shape = (12, (4, 9, 2, 3))
        entries = _programs()[shape]
        start = _warm_start(shape)
        entries = [(prob, start if j % 2 else None) for j, (prob, _) in enumerate(entries)]
        sols, refs = _solve_both(shape, entries)
        for sol, ref in zip(sols, refs):
            assert_same_solution(sol, ref)
        assert {sol.status for sol in sols} == {"optimal", "infeasible", "numerical_failure"}

    def test_synth_n5_group(self):
        """The synth_full programs of synth-n5 ops 0-2 (n_x = 5: 55 variables,
        blocks of 47 rows), two ending optimal and one infeasible, solved as one
        batch with the last one warm."""
        shape = next(shape for shape in _programs() if shape[0] == 55)
        entries = [(prob, None) for prob, _ in _programs()[shape]]
        assert len(entries) == len(N5_OPS)
        entries[-1] = (entries[-1][0], _warm_start(shape))
        sols, refs = _solve_both(shape, entries)
        for sol, ref in zip(sols, refs):
            assert_same_solution(sol, ref)
        assert [sol.status for sol in sols] == ["optimal", "optimal", "infeasible"]

    def test_batch_of_one_is_solve(self):
        """A warm stack of one is the reference's solve of its program."""
        shape = (11, (6, 11, 2))
        prob, start = _programs()[shape][-1]
        assert start is not None
        assert_same_solution(_alone(prob, start), _reference(shape, prob, start))

    def test_shapes_must_agree(self):
        """The pencils have the shape the objectives and block sizes give, and
        there is one start per program."""
        c, F, dims = _scaled(1e4)
        for bad in ((_line(-3.0, 1.0)[0], F, dims), (c, F, (2, 1)), (c, F[:, 1:], dims),
                    (np.concatenate([c, c]), F, dims)):
            with pytest.raises(ValueError, match=r"pencil stack has shape \("):
                solve_batch(*bad)
        with pytest.raises(ValueError, match="2 starts for 1 programs"):
            solve_batch(c, F, dims, [None, None])



def test_reference_pool_takes_mixed_steps(monkeypatch):
    """TestBatchIsReference's identity group takes steps in which some programs
    are held (centring at fixed tau) and others free (Mehrotra's direction), so
    its bit-for-bit check covers held and free programs in one pass."""
    shape = (12, (4, 9, 2, 3))
    start = _warm_start(shape)
    entries = [(prob, start if j % 2 else None) for j, (prob, _) in enumerate(_programs()[shape])]
    real, holds = sdpcore._step, []

    def spy(*args):
        holds.append(list(args[11]))
        return real(*args)

    monkeypatch.setattr(sdpcore, "_step", spy)
    sols, refs = _solve_both(shape, entries)
    assert any(True in hold and False in hold for hold in holds)
    for sol, ref in zip(sols, refs):
        assert_same_solution(sol, ref)

class TestDeclaredBlocks:
    """solve_batch solves only pencils that are zero off their declared diagonal blocks."""

    @pytest.mark.parametrize("entry", [1.0, np.nan], ids=["coupling", "nan"])
    def test_entry_outside_the_blocks_rejected(self, entry):
        """The norm bound min -y s.t. [[1, y], [y, 1]] >= 0 declared as two 1 x 1
        blocks: its coupling entry lies outside them.  Solved whole, the program
        came back "optimal" at y = 1 with margin 1.0, the margin of the diagonal
        pieces alone; declared as one block it is optimal at y = 1 with margin
        about 6e-10.  A NaN there is refused the same way."""
        F = np.zeros((1, 2, 2, 2))
        F[0, 0] = [[0.0, entry], [entry, 0.0]]
        F[0, 1] = np.eye(2)
        c = np.array([[-1.0]])
        with pytest.raises(ValueError, match=r"nonzero entry \(0, 1\) outside its diagonal blocks "
                                             r"\(1, 1\): it couples block 0 with block 1"):
            solve_batch(c, F, (1, 1))
        if entry == 1.0:
            sol, = solve_batch(c, F, (2,))
            assert sol.status == "optimal" and abs(sol.y[0] - 1.0) < 1e-6
            assert 0.0 < sol.min_block_eigenvalue < 1e-6


def _inject(monkeypatch, call, edit):
    """Run edit on the arguments of the call-th call of sdpcore._step, once."""
    real, calls = sdpcore._step, []

    def step(*args):
        calls.append(1)
        if len(calls) == call:
            edit(*args)
        return real(*args)

    monkeypatch.setattr(sdpcore, "_step", step)


class TestBatchFailures:
    """A step that breaks down for one program ends that program alone, with the
    reason a solo solve gives; the others keep their bits.  The work of a failed
    program is not carried on, which the suite's error::RuntimeWarning checks."""

    SHAPE = (11, (6, 11, 2))  # the paper system's synthesis program

    def _entries(self):
        return _programs()[self.SHAPE][-4:]  # sweep-paper cells, each with its start

    @pytest.mark.parametrize("edit, reason", [
        (lambda F, Fv, eye, c, SZ, tau, kappa, aZ, mu, r_p, r_d, hold, work:
         r_p[1].__setitem__((0, 0), np.nan), "iteration 2: primal residual not finite"),
        (lambda F, Fv, eye, c, SZ, tau, kappa, aZ, mu, r_p, r_d, hold, work:
         SZ[1].__setitem__(0, -eye), "iteration 2: Matrix is not positive definite"),
    ], ids=["non-finite residual", "failed Cholesky"])
    def test_failure_stays_in_its_program(self, monkeypatch, edit, reason):
        entries = [(prob, None) for prob, _ in self._entries()]
        _inject(monkeypatch, 3, edit)
        sols, refs = _solve_both(self.SHAPE, entries)
        assert (sols[1].status, sols[1].iterations, sols[1].reason) == (
            "numerical_failure", 2, reason)
        for j in (0, 2, 3):
            assert_same_solution(sols[j], refs[j])

    def test_two_failures_in_one_step(self, monkeypatch):
        """Programs 1 and 2 break down in the same step at different checks:
        program 1's primal residual is not finite, program 2's S is not
        positive definite.  The step stops at its first failure; each ends at
        that iteration with the reason its step alone gives."""
        def edit(F, Fv, eye, c, SZ, tau, kappa, aZ, mu, r_p, r_d, hold, work):
            r_p[1, 0, 0] = np.nan
            SZ[2, 0] = -eye

        entries = [(prob, None) for prob, _ in self._entries()]
        _inject(monkeypatch, 3, edit)
        sols, refs = _solve_both(self.SHAPE, entries)
        assert [(sol.status, sol.iterations, sol.reason) for sol in sols[1:3]] == [
            ("numerical_failure", 2, "iteration 2: primal residual not finite"),
            ("numerical_failure", 2, "iteration 2: Matrix is not positive definite")]
        for j in (0, 3):
            assert_same_solution(sols[j], refs[j])

    def test_failed_warm_solve_reruns_cold_alone(self, monkeypatch):
        entries = self._entries()
        _inject(monkeypatch, 3, lambda *args: args[9][0].__setitem__((0, 0), np.inf))
        sols, refs = _solve_both(self.SHAPE, entries)
        cold = _reference(self.SHAPE, entries[0][0], None)
        assert sols[0].status == cold.status == "optimal"
        assert _bits(sols[0].y) == _bits(cold.y) and sols[0].iterations == 2 + cold.iterations
        assert sols[0].reason == ("restarted from the standard start: the warm start ended in "
                                  "numerical_failure (iteration 2: primal residual not finite) "
                                  "after 2 iterations")
        for j in (1, 2, 3):
            assert_same_solution(sols[j], refs[j])


def test_batch_of_one_bookkeeping_is_lean():
    """cProfile's count of the Python-level calls (functions, methods and
    builtins) a batch of one makes on the paper system's synthesis program:
    sweep-paper op 0's first anchor, solved cold in 19 iterations.  Taking
    each program's dot products on its own rows, and its scalars as floats,
    brought the count from 211 calls per iteration to 157, and solving the
    stack build writes, with no program objects to stack, to 154; keeping each
    block layout's slices, with the test that the pencil is zero off its blocks,
    took 13 calls off the set-up (2,929 to 2,916); one step path, with held and
    free programs in one predictor-corrector pass and numpy's Cholesky and
    eigvalsh gufuncs called without a wrapper that names failed programs, took
    it to 2,865 (151 per iteration).  The one-program reference loop makes 90.  The count is deterministic for one numpy, so bookkeeping added to
    the loop shows here."""
    cfg = bench_workloads().WORKLOADS["sweep-paper"](0).make_input(0).data
    M = cfg.sample_sizes[0]
    amb = build_ambiguity(sample_gaussian(cfg.true_moments, M, _cell_stream(cfg.seed, M, 0)),
                          cfg.ambiguity_config(), lambda_reg=LAMBDA_REG)
    b, W, V, blocks = thm6_builder(cfg.system, amb, cfg.cost)
    prob = b.build(-W.trace(), blocks)
    solve_batch(*prob)
    profile = cProfile.Profile()
    sol, = profile.runcall(solve_batch, *prob)
    calls = pstats.Stats(profile).total_calls
    assert (sol.status, sol.iterations) == ("optimal", 19)
    assert (calls, round(calls / sol.iterations)) == (2865, 151)
    reference = cProfile.Profile()
    reference.runcall(solve_reference, prob)
    assert round(pstats.Stats(reference).total_calls / sol.iterations) == 90
