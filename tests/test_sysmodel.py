import json

import numpy as np
import pytest

from drlqr.matcore import DomainError, ShapeError, SymMatrix, as_matrix
from drlqr.sysmodel import (CostWeights, DisturbanceMoments, MultNoiseSystem,
                            fgh, load_system, save_system)

TS = 0.02


class TestEvalAB:
    def test_zero_disturbance(self, sys6):
        A, B = sys6.eval_AB(np.zeros(2))
        assert np.allclose(A, sys6.A0)
        assert np.allclose(B, sys6.B0)

    def test_paper_system_unit_w1(self, sys6):
        A, _ = sys6.eval_AB(np.array([1.0, 0.0]))
        assert np.allclose(A, [[1.0, TS], [0.0, 1.0 - 1.4 * TS]])

    def test_scalar_system(self, scalar_sys):
        A, B = scalar_sys.eval_AB(np.array([0.1]))
        assert np.allclose(A, [[0.85]])
        assert np.allclose(B, [[1.0]])

    def test_wrong_length(self, sys6):
        with pytest.raises(ShapeError):
            sys6.eval_AB(np.zeros(3))


class TestStacked:
    def test_zero_channels(self):
        sys = MultNoiseSystem(A0=np.eye(2), A=(np.zeros((2, 2)),),
                              B0=np.ones((2, 1)), B=(np.zeros((2, 1)),))
        Abar, Bbar = sys.stacked
        assert np.allclose(Abar, np.vstack([np.eye(2), np.zeros((2, 2))]))
        assert np.allclose(Bbar, np.vstack([np.ones((2, 1)), np.zeros((2, 1))]))

    def test_paper_system_shape(self, sys6):
        Abar, Bbar = sys6.stacked
        assert Abar.shape == (6, 2)
        assert Bbar.shape == (6, 1)
        assert np.allclose(Abar[:2], sys6.A0)
        assert np.allclose(Abar[2:4], sys6.A[0])

    def test_built_once_read_only(self, sys6):
        Abar, Bbar = sys6.stacked
        assert sys6.stacked[0] is Abar and sys6.stacked[1] is Bbar
        assert not Abar.flags.writeable and not Bbar.flags.writeable

    def test_scalar(self, scalar_sys):
        Abar, Bbar = scalar_sys.stacked
        assert np.allclose(Abar, [[0.75], [1.0]])
        assert np.allclose(Bbar, [[1.0], [0.0]])


class TestExtendedMoment:
    def test_centered_identity(self):
        m = DisturbanceMoments(mu=np.zeros(2), sigma=SymMatrix(np.eye(2)))
        assert np.allclose(as_matrix(m.extended_moment),
                           np.diag([1.0, 1.0, 1.0]))

    def test_scalar_example(self, scalar_moments):
        assert np.allclose(as_matrix(scalar_moments.extended_moment),
                           np.diag([1.0, 0.5]))

    def test_nonzero_mean(self):
        m = DisturbanceMoments(mu=np.array([1.0, 2.0]),
                               sigma=SymMatrix(np.diag([2.0, 3.0])))
        assert np.allclose(as_matrix(m.extended_moment),
                           [[1.0, 1.0, 2.0], [1.0, 3.0, 2.0], [2.0, 2.0, 7.0]])

    def test_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            m = DisturbanceMoments(mu=rng.standard_normal(3), sigma=SymMatrix(A @ A.T))
            assert np.linalg.eigvalsh(as_matrix(m.extended_moment))[0] >= -1e-10


def _fgh_double_sum(sys, m, P):
    """Oracle: F = sum_ij S_ij Ai^T P Aj over indices 0..n_w (A_0 at index 0)."""
    S = as_matrix(m.extended_moment)
    A_list = [sys.A0] + list(sys.A)
    B_list = [sys.B0] + list(sys.B)
    n = sys.n_w + 1
    F = sum(S[i, j] * A_list[i].T @ P @ A_list[j] for i in range(n) for j in range(n))
    G = sum(S[i, j] * B_list[i].T @ P @ B_list[j] for i in range(n) for j in range(n))
    H = sum(S[i, j] * B_list[i].T @ P @ A_list[j] for i in range(n) for j in range(n))
    return F, G, H


class TestFgh:
    def test_zero_P(self, sys6, moments6):
        F, G, H = fgh(sys6, moments6, np.zeros((2, 2)))
        assert not F.any() and not G.any() and not H.any()

    def test_scalar_example(self, scalar_sys, scalar_moments):
        p = 3.7
        F, G, H = fgh(scalar_sys, scalar_moments, np.array([[p]]))
        assert np.allclose(F, (0.75 ** 2 + 0.5) * p)
        assert np.allclose(G, p)
        assert np.allclose(H, 0.75 * p)

    def test_noiseless_reduction(self):
        rng = np.random.default_rng(1)
        A0, B0 = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
        sys = MultNoiseSystem(A0=A0, A=(np.zeros((3, 3)),), B0=B0, B=(np.zeros((3, 2)),))
        m = DisturbanceMoments(mu=np.zeros(1), sigma=SymMatrix(np.eye(1)))
        P = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        P = (P + P.T) / 2
        F, G, H = fgh(sys, m, P)
        assert np.allclose(F, A0.T @ P @ A0)
        assert np.allclose(G, B0.T @ P @ B0)
        assert np.allclose(H, B0.T @ P @ A0)

    def test_against_double_sum_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n_x, n_u, n_w = rng.integers(1, 4), rng.integers(1, 3), rng.integers(1, 4)
            sys = MultNoiseSystem(
                A0=rng.standard_normal((n_x, n_x)),
                A=tuple(rng.standard_normal((n_x, n_x)) for _ in range(n_w)),
                B0=rng.standard_normal((n_x, n_u)),
                B=tuple(rng.standard_normal((n_x, n_u)) for _ in range(n_w)))
            A = rng.standard_normal((n_w, n_w))
            m = DisturbanceMoments(mu=rng.standard_normal(n_w), sigma=SymMatrix(A @ A.T))
            Pr = rng.standard_normal((n_x, n_x))
            P = (Pr + Pr.T) / 2
            F, G, H = fgh(sys, m, P)
            Fo, Go, Ho = _fgh_double_sum(sys, m, P)
            scale = 1 + np.linalg.norm(Fo)
            assert np.linalg.norm(F - Fo) <= 1e-10 * scale
            assert np.linalg.norm(G - Go) <= 1e-10 * scale
            assert np.linalg.norm(H - Ho) <= 1e-10 * scale

    def test_monte_carlo_identity(self):
        """E[(A(w)x + B(w)u)' P (A(w)x + B(w)u)] = x'Fx + 2x'H'u + u'Gu."""
        rng = np.random.default_rng(3)
        sys = MultNoiseSystem(
            A0=rng.standard_normal((2, 2)) * 0.3,
            A=tuple(rng.standard_normal((2, 2)) * 0.3 for _ in range(2)),
            B0=rng.standard_normal((2, 1)) * 0.3,
            B=tuple(rng.standard_normal((2, 1)) * 0.3 for _ in range(2)))
        A = rng.standard_normal((2, 2))
        m = DisturbanceMoments(mu=np.array([0.2, -0.1]), sigma=SymMatrix(A @ A.T))
        Pr = rng.standard_normal((2, 2))
        P = Pr @ Pr.T + np.eye(2)
        x = np.array([1.0, -0.5])
        u = np.array([0.7])
        F, G, H = fgh(sys, m, P)
        exact = x @ F @ x + 2.0 * x @ H.T @ u + u @ G @ u

        N = 10 ** 6
        half = np.linalg.cholesky(as_matrix(m.sigma))
        w = m.mu + rng.standard_normal((N, 2)) @ half.T
        # v = A(w)x + B(w)u, vectorized over draws
        v = (x @ sys.A0.T + u @ sys.B0.T)[None, :] + np.zeros((N, 2))
        for i in range(2):
            v += w[:, i:i + 1] * (sys.A[i] @ x + sys.B[i] @ u)[None, :]
        vals = np.einsum("ni,ij,nj->n", v, P, v)
        se = vals.std(ddof=1) / np.sqrt(N)
        assert abs(vals.mean() - exact) <= 3.0 * se


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["A0", "A", "B0", "B"])
    def test_system_rejects(self, sys6, field, bad):
        kwargs = {"A0": sys6.A0, "A": sys6.A, "B0": sys6.B0, "B": sys6.B}
        if field in ("A", "B"):
            mats = [m.copy() for m in kwargs[field]]
            mats[-1][0, 0] = bad
            kwargs[field] = tuple(mats)
        else:
            kwargs[field] = kwargs[field].copy()
            kwargs[field][-1, -1] = bad
        with pytest.raises(DomainError):
            MultNoiseSystem(**kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_moments_reject_mean(self, bad):
        with pytest.raises(DomainError):
            DisturbanceMoments(mu=np.array([0.0, bad]), sigma=SymMatrix(np.eye(2)))

    def test_json_keeps_domain_error(self, sys6, tmp_path):
        d = sys6.to_json_dict()
        d["B0"][1][0] = float("nan")
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(d))
        with pytest.raises(DomainError):
            load_system(p)


class TestCostWeights:
    def test_strict_pd_required(self):
        with pytest.raises(ValueError):
            CostWeights(Q=np.diag([1.0, 0.0]), R=np.eye(1))
        with pytest.raises(ValueError):
            CostWeights(Q=np.eye(2), R=np.array([[-1.0]]))

    def test_valid(self, cost6):
        assert as_matrix(cost6.Q)[0, 0] == 10.0


class TestJsonRoundTrip:
    def test_save_load(self, sys6, tmp_path):
        p = tmp_path / "sys.json"
        save_system(sys6, p)
        back = load_system(p)
        assert np.allclose(back.A0, sys6.A0)
        assert np.allclose(back.B[1], sys6.B[1])

    def test_declared_dimension_mismatch(self, sys6, tmp_path):
        d = sys6.to_json_dict()
        d["n_u"] = 3
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ShapeError):
            load_system(p)

    def test_channel_count_mismatch(self):
        with pytest.raises(ShapeError):
            MultNoiseSystem(A0=np.eye(2), A=(np.zeros((2, 2)),),
                            B0=np.zeros((2, 1)), B=())
