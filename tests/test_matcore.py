import cProfile
import pstats

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drlqr import matcore
from drlqr.matcore import (DomainError, NumericalFailure, ShapeError, SymMatrix, _clear_memos,
                           _memo_last, all_finite, array_field, contract, frobenius, is_psd,
                           psd_sqrt, smat, svec, sym_eig, sym_index, sym_pairs, symmetrize)
from conftest import bench_workloads
from oracles import unvec, vec

_computed = []  # the arguments of each call _total computed


@_memo_last(lambda a, b: (a, b))
def _total(a, b):
    _computed.append((a, b))
    if not np.isfinite(a).all():
        raise DomainError("non-finite entries in a")
    return float(a.sum() + b.sum())


class TestMemoLast:
    @pytest.fixture(autouse=True)
    def _no_calls(self):
        _computed.clear()

    def test_equal_bytes_hit(self):
        one = np.ones(2)
        assert _total(np.zeros((2, 3)), one) == _total(np.zeros((2, 3)), one.copy()) == 2.0
        assert len(_computed) == 1

    @pytest.mark.parametrize("other", [np.zeros((3, 2)), np.full((2, 3), -0.0)],
                             ids=["shape", "negative-zero"])
    def test_another_shape_or_byte_misses(self, other):
        """The key is the shapes and bytes: the same bytes in another shape, or
        -0.0 for 0.0, is another key."""
        _total(np.zeros((2, 3)), np.ones(2))
        _total(other, np.ones(2))
        assert len(_computed) == 2

    def test_only_the_last_value_is_kept(self):
        for a in (np.zeros(1), np.ones(1), np.zeros(1)):
            _total(a, np.ones(1))
        assert len(_computed) == 3

    def test_an_exception_keeps_nothing(self):
        """The failing call runs twice, and the value kept before it is still hit."""
        _total(np.zeros(1), np.ones(1))
        for _ in range(2):
            with pytest.raises(DomainError):
                _total(np.array([np.nan]), np.ones(1))
        _total(np.zeros(1), np.ones(1))
        assert len(_computed) == 3

    def test_clear_memos_forgets(self):
        _total(np.zeros(1), np.ones(1))
        _clear_memos()
        _total(np.zeros(1), np.ones(1))
        assert len(_computed) == 2


@st.composite
def _arrays(draw):
    """Float, int and bool arrays of 0-4 dimensions, empty ones included, maybe with
    NaN or +-inf at a drawn position, as they are or as a strided, transposed or
    read-only view."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]))
    a = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)))
    if a.size and a.dtype.kind == "f" and draw(st.booleans()):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    view = draw(st.sampled_from(["as is", "strided", "transposed", "read-only"]))
    if view == "strided" and a.ndim:
        a = a[..., ::2]
    elif view == "transposed":
        a = a.T
    elif view == "read-only":
        a.setflags(write=False)
    return a


class TestAllFinite:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=_arrays())
    def test_is_numpys_all_of_isfinite(self, a):
        ours = all_finite(a)
        assert type(ours) is bool and ours == bool(np.isfinite(a).all())

    @pytest.mark.parametrize("a, expected", [(np.float64(np.nan), False), (np.float64(1.0), True),
                                             (np.zeros((0, 3)), True), ([1.0, np.inf], False)],
                             ids=["0-d-nan", "0-d", "empty", "list"])
    def test_edge_cases(self, a, expected):
        assert all_finite(a) is expected


class TestSymMatrix:
    def test_symmetrizes_on_construction(self):
        m = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.allclose(np.asarray(m), [[1.0, 1.0], [1.0, 3.0]])

    def test_entries_are_write_protected(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises((ValueError, RuntimeError)):
            np.asarray(m)[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            SymMatrix(np.zeros((2, 3)))

    def test_dim(self):
        assert SymMatrix(np.eye(3)).dim == 3


class TestArrayField:
    def test_read_only_array_is_copied_and_still_checked(self):
        a = array_field("x", [[1.0, 2.0]])
        b = array_field("y", a)
        assert b is not a and not np.shares_memory(a, b) and not b.flags.writeable
        bad = np.array([[np.inf]])
        bad.setflags(write=False)
        with pytest.raises(DomainError, match="^non-finite entries in y$"):
            array_field("y", bad)

    @pytest.mark.parametrize("given", ["abc", [[1.0], [1.0, 2.0]]], ids=["string", "ragged"])
    def test_entries_that_are_not_numbers_name_the_field(self, given):
        with pytest.raises(ShapeError, match="^x is not an array of numbers"):
            array_field("x", given)


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
            assert np.linalg.norm(rebuilt - np.asarray(m)) <= 1e-10 * (1 + np.linalg.norm(np.asarray(m)))

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = SymMatrix(rng.standard_normal((5, 5)))
            vals, _ = sym_eig(m)
            tr = np.trace(np.asarray(m))
            assert abs(sum(vals) - tr) <= 1e-10 * (1 + abs(tr))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(np.asarray(psd_sqrt(np.eye(2))), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(np.asarray(psd_sqrt(np.diag([4.0, 9.0]))), np.diag([2.0, 3.0]))

    def test_squares_back(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = np.asarray(psd_sqrt(m))
        assert np.linalg.norm(r @ r - m) <= 1e-9 * (1 + np.linalg.norm(m))

    def test_indefinite_rejected(self):
        with pytest.raises(DomainError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_slack_is_that_of_is_psd(self):
        assert not is_psd(np.diag([1.0, -2e-9]))
        with pytest.raises(DomainError):
            psd_sqrt(np.diag([1.0, -2e-9]))
        assert is_psd(np.diag([1.0, -5e-10]))
        assert np.asarray(psd_sqrt(np.diag([1.0, -5e-10])))[1, 1] == 0.0

    def test_tiny_negative_clipped(self):
        r = np.asarray(psd_sqrt(np.diag([1.0, -1e-14])))
        assert r[1, 1] == 0.0

    def test_monotone_on_diagonals(self):
        a = np.asarray(psd_sqrt(np.diag([1.0, 4.0])))
        b = np.asarray(psd_sqrt(np.diag([2.0, 5.0])))
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

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pairs_gather_both_orders(self, n):
        """X.take(cd)[k, l] = X[c, a, d, b] and X.take(dc)[k, l] = X[d, a, c, b]
        for the k-th svec entry (a, b) and the l-th (c, d)."""
        X = np.random.default_rng(n).standard_normal((n, n, n, n))
        entries = list(zip(*np.triu_indices(n)))
        cd, dc = sym_pairs(n)
        assert np.array_equal(X.take(cd), [[X[c, a, d, b] for c, d in entries] for a, b in entries])
        assert np.array_equal(X.take(dc), [[X[d, a, c, b] for c, d in entries] for a, b in entries])

    def test_pairs_cached_and_read_only(self):
        cd, dc = sym_pairs(4)
        assert sym_pairs(4)[0] is cd
        assert not cd.flags.writeable and not dc.flags.writeable


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


# matcore's name for each numpy.linalg gufunc it binds, and the public function
# that stands in for it when numpy lacks the gufunc
BOUND = {"np_cholesky": ("cholesky_lo", np.linalg.cholesky),
         "np_eigvalsh": ("eigvalsh_lo", np.linalg.eigvalsh),
         "np_eigh": ("eigh_lo", np.linalg.eigh),
         "np_solve": ("solve", np.linalg.solve),
         "np_inv": ("inv", np.linalg.inv),
         "np_eigvals": ("eigvals", np.linalg.eigvals)}


def _stacks(n):
    """Fixed-seed inputs of size n: one matrix and a stack of three, each SPD."""
    rng = np.random.default_rng(n)
    for shape in ((n, n), (3, n, n)):
        G = rng.standard_normal(shape)
        yield G @ np.swapaxes(G, -1, -2) + n * np.eye(n), rng.standard_normal(shape)


class TestLinalgBinding:
    def test_bound_callables_are_numpys_gufuncs(self):
        """Each binding wraps numpy's gufunc, which it keeps as __wrapped__."""
        gufuncs = np.linalg._umath_linalg
        assert all(getattr(matcore, name).__wrapped__ is getattr(gufuncs, gufunc)
                   for name, (gufunc, _) in BOUND.items())

    @pytest.mark.parametrize("missing", ["module", "eigh_lo", "eigvals"])
    def test_missing_gufunc_falls_back_to_the_public_function(self, monkeypatch, missing):
        """Without numpy.linalg._umath_linalg every binding wraps the public
        function; without one gufunc, that one alone."""
        if missing == "module":
            monkeypatch.delattr(np.linalg, "_umath_linalg")
        else:
            monkeypatch.delattr(np.linalg._umath_linalg, missing)
        bound = dict(zip(BOUND, matcore._load_linalg()))
        for name, (gufunc, public) in BOUND.items():
            fallback = missing in ("module", gufunc)
            assert bound[name].__wrapped__ is (public if fallback
                                               else getattr(np.linalg._umath_linalg, gufunc))

    @pytest.mark.parametrize("n", [1, 2, 19, 36])
    def test_byte_equal_to_numpy_linalg(self, n):
        for spd, general in _stacks(n):
            pairs = [(matcore.np_cholesky(spd), np.linalg.cholesky(spd)),
                     (matcore.np_eigvalsh(general), np.linalg.eigvalsh(general)),
                     *zip(matcore.np_eigh(general), np.linalg.eigh(general)),
                     (matcore.np_solve(general, spd), np.linalg.solve(general, spd)),
                     (matcore.np_inv(general), np.linalg.inv(general))]
            w = np.linalg.eigvals(general)  # real when every imaginary part is 0
            ours = matcore.np_eigvals(general)
            if w.dtype.kind == "f":
                assert not ours.imag.any()
                ours = ours.real
            pairs.append((ours, w))
            for ours, numpys in pairs:
                assert ours.shape == numpys.shape and ours.tobytes() == numpys.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, message", [
        (lambda: matcore.np_cholesky(-np.eye(3)), "Matrix is not positive definite"),
        (lambda: matcore.np_eigvalsh(np.full((3, 3), np.nan)), "Eigenvalues did not converge"),
        (lambda: matcore.np_eigh(np.full((3, 3), np.nan)), "Eigenvalues did not converge"),
        (lambda: matcore.np_solve(np.zeros((2, 2)), np.eye(2)), "Singular matrix"),
        (lambda: matcore.np_inv(np.zeros((2, 2))), "Singular matrix"),
        (lambda: matcore.np_eigvals(np.full((3, 3), np.nan)), "Eigenvalues did not converge"),
    ], ids=["cholesky", "eigvalsh", "eigh", "solve", "inv", "eigvals"])
    def test_failure_raises_linalg_error(self, call, message):
        """A bare call that fails raises numpy's LinAlgError with numpy's message,
        with warnings as errors, so no RuntimeWarning came first; the caller's
        error state is the same afterwards."""
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
            call()
        assert np.geterr() == before
        with np.errstate(all="raise"), pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
            call()  # the binding's own state, not the caller's, decides

    @pytest.mark.filterwarnings("error")
    def test_is_psd_that_does_not_converge_is_a_numerical_failure(self):
        with pytest.raises(NumericalFailure, match="did not converge: Eigenvalues did not converge"):
            is_psd(np.full((3, 3), np.nan))

    @pytest.mark.parametrize("a_shape, t_shape", [
        # one sweep-paper op (n_x = 2, n_w = 2): _thm6_builder's Theta . chan,
        # min_eigenvalue's y . Fi on each block, AffineExpr.value's z . coef
        ((3, 3), (3, 6, 2, 2)), ((11,), (11, 6, 6)), ((11,), (11, 11, 11)),
        ((11,), (11, 2, 2)), ((4,), (4, 2, 2)), ((6,), (6, 1, 2)),
        # synth_full on a riccati-chain plant (n_x = 8, n_w = 2)
        ((3, 3), (3, 53, 8, 8)), ((124,), (124, 24, 24)), ((124,), (124, 42, 42)),
        ((124,), (124, 8, 8)), ((37,), (37, 8, 8)), ((53,), (53, 2, 8)),
        ((0,), (0, 4, 4)),  # a block of a program with no variables
    ])
    def test_contract_is_tensordot_bit_for_bit(self, a_shape, t_shape):
        rng = np.random.default_rng(sum(t_shape))
        a, t = rng.standard_normal(a_shape), rng.standard_normal(t_shape)
        ours, numpys = contract(a, t), np.tensordot(a, t, 1)
        assert ours.shape == numpys.shape and ours.tobytes() == numpys.tobytes()

    def test_c_einsum_is_numpys(self):
        assert matcore.c_einsum is np._core.multiarray.c_einsum

    @pytest.mark.parametrize("missing", ["core", "c_einsum"])
    def test_missing_c_einsum_falls_back_to_einsum(self, monkeypatch, missing):
        if missing == "core":
            monkeypatch.delattr(np, "_core")
        else:
            monkeypatch.delattr(np._core.multiarray, "c_einsum")
        assert matcore._load_einsum() is np.einsum

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_c_einsum_byte_equal_to_einsum(self, n):
        """The two contractions of the second-moment operator."""
        rng = np.random.default_rng(n)
        S, mats = rng.standard_normal((3, 3)), rng.standard_normal((3, n, n))
        for subscripts, operands in (("ij,jca->ica", (S, mats)), ("ica,idb->cadb", (mats, mats))):
            ours, numpys = matcore.c_einsum(subscripts, *operands), np.einsum(subscripts, *operands)
            assert ours.shape == numpys.shape and ours.tobytes() == numpys.tobytes()

    @pytest.mark.parametrize("shape, order", [((7,), "C"), ((5, 6), "C"), ((5, 6), "F"),
                                              ((9, 8), "strided")])
    def test_frobenius_is_numpys_norm_bit_for_bit(self, shape, order):
        a = np.random.default_rng(len(shape)).standard_normal(shape) * 1e3
        a = a[::2, 1::3] if order == "strided" else np.asarray(a, order=order)
        assert frobenius(a) == np.linalg.norm(a)

    @pytest.mark.parametrize("name, ops", [("sweep-paper", (0, 1)), ("riccati-chain", (0,))])
    def test_ops_call_no_numpy_linalg_function(self, monkeypatch, name, ops):
        """A warm sweep-paper op (op 1 after op 0) and a riccati-chain op call numpy's
        linear algebra through matcore's bindings alone."""
        workload = bench_workloads().WORKLOADS[name](0)
        inputs = [workload.make_input(index) for index in ops]
        for inp in inputs[:-1]:
            workload.run(inp)
        called = []

        def spy(fn):
            def spied(*args, **kwargs):
                called.append(fn.__name__)
                return fn(*args, **kwargs)
            return spied

        for attr in np.linalg.__all__:
            fn = getattr(np.linalg, attr)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, attr, spy(fn))
        out = workload.run(inputs[-1])
        assert not isinstance(out, Exception) and called == []


def _code_key(fn):
    """The (file, line, name) under which cProfile records a Python function."""
    code = getattr(fn, "_implementation", fn).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def test_warm_riccati_chain_op_skips_numpys_python_layers():
    """A riccati-chain op after another calls no ndarray.all wrapper (numpy's
    _methods._all), no np.hstack and no np.einsum: all_finite, the doubling's
    buffers and c_einsum stand in for them."""
    workload = bench_workloads().WORKLOADS["riccati-chain"](0)
    first, second = workload.make_input(0), workload.make_input(1)
    workload.run(first)
    profile = cProfile.Profile()
    out = profile.runcall(workload.run, second)
    assert not isinstance(out, Exception)
    called = set(pstats.Stats(profile).stats)
    assert called  # the profile saw the op's calls
    assert [fn for fn in (np._core._methods._all, np.hstack, np.einsum)
            if _code_key(fn) in called] == []
