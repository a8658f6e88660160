import numpy as np
import pytest

from drlqr.matcore import (DomainError, ShapeError, SymMatrix, as_matrix, is_psd, psd_sqrt,
                           smat, svec, sym_eig, sym_index, symmetrize)
from oracles import unvec, vec


class TestSymMatrix:
    def test_symmetrizes_on_construction(self):
        m = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.allclose(as_matrix(m), [[1.0, 1.0], [1.0, 3.0]])

    def test_entries_are_write_protected(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises((ValueError, RuntimeError)):
            as_matrix(m)[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            SymMatrix(np.zeros((2, 3)))

    def test_dim(self):
        assert SymMatrix(np.eye(3)).dim == 3


class TestSymEig:
    def test_identity(self):
        vals, _ = sym_eig(SymMatrix(np.eye(2)))
        assert np.allclose(vals, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        vals, _ = sym_eig(SymMatrix(np.diag([3.0, 1.0])))
        assert np.allclose(vals, [1.0, 3.0])

    def test_hand_computed(self):
        vals, _ = sym_eig(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert np.allclose(vals, [1.0, 3.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = SymMatrix(rng.standard_normal((4, 4)))
            vals, vecs = sym_eig(m)
            rebuilt = vecs @ np.diag(vals) @ vecs.T
            assert np.linalg.norm(rebuilt - as_matrix(m)) <= 1e-10 * (1 + np.linalg.norm(as_matrix(m)))

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = SymMatrix(rng.standard_normal((5, 5)))
            vals, _ = sym_eig(m)
            tr = np.trace(as_matrix(m))
            assert abs(sum(vals) - tr) <= 1e-10 * (1 + abs(tr))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(as_matrix(psd_sqrt(np.eye(2))), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(as_matrix(psd_sqrt(np.diag([4.0, 9.0]))), np.diag([2.0, 3.0]))

    def test_squares_back(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = as_matrix(psd_sqrt(m))
        assert np.linalg.norm(r @ r - m) <= 1e-9 * (1 + np.linalg.norm(m))

    def test_indefinite_rejected(self):
        with pytest.raises(DomainError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_tiny_negative_clipped(self):
        r = as_matrix(psd_sqrt(np.diag([1.0, -1e-14])))
        assert r[1, 1] == 0.0

    def test_monotone_on_diagonals(self):
        a = as_matrix(psd_sqrt(np.diag([1.0, 4.0])))
        b = as_matrix(psd_sqrt(np.diag([2.0, 5.0])))
        assert np.all(np.diag(b) >= np.diag(a))


class TestIsPsd:
    def test_scale_aware_tolerance(self):
        assert is_psd(np.diag([1e6, -1e-5]))
        assert not is_psd(np.diag([1.0, -1e-3]))

    def test_psd_matrix(self):
        assert is_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))


class TestSvecSmat:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_round_trip(self, n):
        m = np.random.default_rng(n).standard_normal((n, n))
        m = m + m.T
        v = svec(m)
        assert v.shape == (n * (n + 1) // 2,)
        assert np.array_equal(smat(v, n), m)
        assert np.array_equal(svec(smat(v, n)), v)

    def test_upper_triangle_row_by_row(self):
        m = np.array([[1.0, 2.0, 3.0], [9.0, 4.0, 5.0], [9.0, 9.0, 6.0]])
        assert np.array_equal(svec(m), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.array_equal(smat([1.0, 2.0, 3.0], 2), [[1.0, 2.0], [2.0, 3.0]])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            smat(np.zeros(5), 2)

    def test_index_cached_and_read_only(self):
        upper, position = sym_index(4)
        assert sym_index(4)[0] is upper
        assert not upper.flags.writeable and not position.flags.writeable


class TestVecUnvec:
    """vec and unvec are the test oracles' column-stacking convention."""

    def test_round_trip_1x1(self):
        m = np.array([[7.0]])
        assert np.array_equal(unvec(vec(m), 1), m)

    def test_round_trip_3x3(self):
        m = np.random.default_rng(3).standard_normal((3, 3))
        assert np.array_equal(unvec(vec(m), 3), m)

    def test_column_major_order(self):
        assert np.array_equal(vec(np.array([[1.0, 2.0], [3.0, 4.0]])), [1.0, 3.0, 2.0, 4.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            unvec(np.zeros(5), 2)


def test_symmetrize():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(symmetrize(m), [[0.0, 1.0], [1.0, 0.0]])
