import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drlqr import sdpcore
from drlqr.matcore import DomainError, ShapeError
from drlqr.sdpcore import (AffineExpr, LmiBlock, LmiBuilder, LmiProblem, block_expr, kron_const,
                           solve, zeros)


def _solve(prob):
    """Solve; an "optimal" return must carry the margin of its own point,
    which the strict certificate in drsynth reads, and no reason."""
    sol = solve(prob)
    if sol.status == "optimal":
        assert sol.min_block_eigenvalue == prob.min_eigenvalue(sol.y)
        assert sol.reason == ""
    return prob, sol


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
        assert prob.min_eigenvalue(sol.y) > 0.0

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
        return LmiProblem(c=[1.0], blocks=(LmiBlock(F0=[[-3.0]], Fi=[[[1.0]]]),))

    def test_caught_exception_is_reported(self, monkeypatch):
        def broken(*args):
            raise np.linalg.LinAlgError("Schur complement not finite")

        monkeypatch.setattr(sdpcore, "_step", broken)
        sol = solve(self._half_line())
        assert sol.status == "numerical_failure"
        assert sol.iterations == 0
        assert sol.reason == "iteration 0: Schur complement not finite"

    def test_spent_budget_is_reported(self, monkeypatch):
        monkeypatch.setattr(sdpcore, "MAX_ITERS", 2)
        sol = solve(self._half_line())
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
        start = solve(_trace_program(C3 + 0.1 * np.eye(3)))
        cold, warm = solve(prob), solve(prob, start=start)
        assert warm.status == cold.status == "optimal"
        assert warm.min_block_eigenvalue == prob.min_eigenvalue(warm.y) > 0.0
        assert abs(warm.objective_value - cold.objective_value) <= 1e-6 * abs(cold.objective_value)
        assert warm.iterations < cold.iterations
        dims, x, S, Z, kappa = warm.iterate
        assert dims == (3, 3) and x.shape == (7,) and S.shape == Z.shape == (6, 6)
        assert np.array_equal(x[:6] / x[6], warm.y)

    def test_other_variable_count_rejected(self):
        start = solve(_trace_program(np.eye(2)))
        with pytest.raises(ValueError, match="6 variables"):
            solve(_trace_program(C3), start=start)

    def test_other_block_sizes_rejected(self):
        # one variable each: the half line y >= 3 and the 2 x 2 norm bound
        start = solve(LmiProblem(c=[1.0], blocks=(LmiBlock(F0=[[-3.0]], Fi=[[[1.0]]]),)))
        norm_bound = LmiProblem(c=[-1.0], blocks=(LmiBlock(
            F0=np.eye(2), Fi=[[[0.0, 1.0], [1.0, 0.0]]]),))
        assert start.status == "optimal"
        with pytest.raises(ValueError, match=r"blocks \(2,\)"):
            solve(norm_bound, start=start)

    def test_start_that_is_not_optimal_rejected(self):
        infeasible = LmiProblem(c=[0.0], blocks=(LmiBlock(F0=[[-1.0]], Fi=[[[1.0]]]),
                                                 LmiBlock(F0=[[0.0]], Fi=[[[-1.0]]])))
        start = solve(infeasible)
        assert start.status == "infeasible" and start.iterate is None
        with pytest.raises(ValueError, match="optimal"):
            solve(infeasible, start=start)

    def test_failed_warm_solve_reruns_cold(self, monkeypatch):
        """A warm solve that ends in numerical_failure returns the cold
        result, with the iterations of both attempts and the restart named."""
        prob = _trace_program(C3)
        start = solve(_trace_program(C3 + 0.1 * np.eye(3)))
        cold = solve(prob)
        real, calls = sdpcore._step, []

        def fails_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("injected")
            return real(*args)

        monkeypatch.setattr(sdpcore, "_step", fails_third)
        sol = solve(prob, start=start)
        assert sol.status == "optimal"
        assert np.array_equal(sol.y, cold.y)
        assert sol.iterations == 2 + cold.iterations
        assert sol.reason == ("restarted from the standard start: the warm start ended in "
                              "numerical_failure (iteration 2: injected) after 2 iterations")


class TestNonFinitePencil:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["F0", "Fi", "c"])
    def test_rejected(self, where, bad):
        F0, Fi, c = np.eye(2), np.stack([np.eye(2), np.ones((2, 2))]), np.ones(2)
        {"F0": F0, "Fi": Fi, "c": c}[where].flat[1] = bad
        with pytest.raises(DomainError):
            LmiProblem(c=c, blocks=(LmiBlock(F0=F0, Fi=Fi),))


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
        sol = solve(LmiProblem(c=[1.0, 1.0], blocks=(LmiBlock(
            F0=np.diag([s, 1.0]), Fi=np.array([np.diag([1.0, 0.0]), np.diag([0.0, s])])),)))
        assert sol.status == "optimal"
        assert abs(sol.objective_value + s + 1.0 / s) <= 1e-6 * s

    def test_overflowing_norms_are_not_infeasible(self):
        # the strictly feasible program of test_large_finite_optimum at s = 1e160,
        # where |F0| and max|F_i| overflow to inf
        s = 1e160
        sol = solve(LmiProblem(c=[1.0, 1.0], blocks=(LmiBlock(
            F0=np.diag([s, 1.0]), Fi=np.array([np.diag([1.0, 0.0]), np.diag([0.0, s])])),)))
        assert sol.status == "numerical_failure"
        assert "overflows" in sol.reason

    @pytest.mark.xfail(strict=True, reason=BADLY_SCALED)
    def test_large_offset_half_line(self):
        # min y s.t. 1e6 + y >= 0 spends the iteration budget
        sol = solve(LmiProblem(c=[1.0], blocks=(LmiBlock(F0=[[1e6]], Fi=[[[1.0]]]),)))
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
        prob = b.build(zeros((1, 1)), [expr])
        sym = 0.5 * (expr + expr.T)
        for _ in range(5):
            y = rng.standard_normal(prob.num_vars)
            pencil = prob.blocks[0].F0 + np.einsum("k,kij->ij", y, prob.blocks[0].Fi)
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

        prob = b.build(g - 2.0 * P.trace(), [square])
        assert prob.num_vars == b.num_vars
        pencil = prob.blocks[0].F0 + np.tensordot(y, prob.blocks[0].Fi, axes=1)
        close(pencil, 0.5 * (Xv @ Cq + (Xv @ Cq).T))
        close(prob.c @ y, gv[0, 0] - 2.0 * np.trace(Pv))



class TestReadOuts:
    """value and min_eigenvalue form y . Fi by one matrix product, the one
    np.tensordot makes, so the bits are tensordot's."""

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
        blocks = [LmiBlock(F0=sym(rng.standard_normal((d, d))),
                           Fi=sym(rng.standard_normal((k, d, d)))) for d in dims]
        y = rng.standard_normal(k)
        reference = min(np.linalg.eigvalsh(b.F0 + np.tensordot(y, b.Fi, axes=([0], [0])))[0]
                        for b in blocks)
        assert LmiProblem(c=np.zeros(k), blocks=blocks).min_eigenvalue(y) == reference
