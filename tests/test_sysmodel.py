import json
import re

import numpy as np
import pytest

from drlqr.ambiguity import MomentAmbiguity, SampleSet
from drlqr.matcore import DomainError, ShapeError, SymMatrix, sym_field
from drlqr.drsynth import synth_full
from drlqr.experiment import ExperimentConfig
from drlqr.riccati import Controller, value_iteration
from drlqr.stability import ClosedLoop, closed_loop_value_matrix
from drlqr.sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem, check_cost, fgh, gh

from conftest import write_fixture

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
        assert np.allclose(np.asarray(m.extended_moment),
                           np.diag([1.0, 1.0, 1.0]))

    def test_scalar_example(self, scalar_moments):
        assert np.allclose(np.asarray(scalar_moments.extended_moment),
                           np.diag([1.0, 0.5]))

    def test_nonzero_mean(self):
        m = DisturbanceMoments(mu=np.array([1.0, 2.0]),
                               sigma=SymMatrix(np.diag([2.0, 3.0])))
        assert np.allclose(np.asarray(m.extended_moment),
                           [[1.0, 1.0, 2.0], [1.0, 3.0, 2.0], [2.0, 2.0, 7.0]])

    def test_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            m = DisturbanceMoments(mu=rng.standard_normal(3), sigma=SymMatrix(A @ A.T))
            assert np.linalg.eigvalsh(np.asarray(m.extended_moment))[0] >= -1e-10

    @pytest.mark.parametrize("n_w", [1, 2, 3])
    def test_bytes_of_the_block_form(self, n_w):
        """Filled entry by entry, the moment has the bytes of the np.block form."""
        rng = np.random.default_rng(n_w)
        for _ in range(10):
            A = rng.standard_normal((n_w, n_w))
            m = DisturbanceMoments(mu=rng.standard_normal(n_w), sigma=A @ A.T)
            mu = m.mu.reshape(-1, 1)
            block = np.block([[np.ones((1, 1)), mu.T], [mu, m.sigma + mu @ mu.T]])
            assert m.extended_moment.tobytes() == sym_field("block", block).tobytes()


def _fgh_double_sum(sys, m, P):
    """Oracle: F = sum_ij S_ij Ai^T P Aj over indices 0..n_w (A_0 at index 0)."""
    S = np.asarray(m.extended_moment)
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

    def test_gh_is_fgh_without_F(self):
        """gh gives fgh's G and H bit for bit, and makes the same checks."""
        rng = np.random.default_rng(4)
        for _ in range(15):
            n_x, n_u, n_w = rng.integers(1, 5), rng.integers(1, 3), rng.integers(1, 4)
            sys = MultNoiseSystem(
                A0=rng.standard_normal((n_x, n_x)),
                A=tuple(rng.standard_normal((n_x, n_x)) for _ in range(n_w)),
                B0=rng.standard_normal((n_x, n_u)),
                B=tuple(rng.standard_normal((n_x, n_u)) for _ in range(n_w)))
            A = rng.standard_normal((n_w, n_w))
            m = DisturbanceMoments(mu=rng.standard_normal(n_w), sigma=SymMatrix(A @ A.T))
            P = rng.standard_normal((n_x, n_x))  # not symmetric: both take its symmetric part
            _, G, H = fgh(sys, m, P)
            G2, H2 = gh(sys, m, P)
            assert G.tobytes() == G2.tobytes() and H.tobytes() == H2.tobytes()
        other = DisturbanceMoments(mu=np.zeros(n_w + 1), sigma=SymMatrix(np.eye(n_w + 1)))
        for bad_m, bad_P, match in ((m, np.eye(n_x + 1), "P has shape"),
                                    (other, np.eye(n_x), "moments have n_w")):
            for fn in (fgh, gh):
                with pytest.raises(ShapeError, match=match):
                    fn(sys, bad_m, bad_P)

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
        half = np.linalg.cholesky(np.asarray(m.sigma))
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.7e308], ids=["nan", "inf", "overflow"])
    def test_moments_name_covariance(self, bad):
        """A finite sigma whose symmetric part overflows was stored as inf."""
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="non-finite entries in sigma$"):
            DisturbanceMoments(mu=np.zeros(2), sigma=[[1.0, 0.0], [0.0, bad]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["Q", "R"])
    def test_cost_weights_name_field(self, field, bad):
        kwargs = {"Q": np.eye(2), "R": np.eye(1)}
        kwargs[field] = kwargs[field].copy()
        kwargs[field][-1, -1] = bad
        with pytest.raises(DomainError, match=f"non-finite entries in {field}$"):
            CostWeights(**kwargs)

    def test_json_keeps_domain_error(self, sys6, tmp_path):
        d = sys6.to_json_dict()
        d["B0"][1][0] = float("nan")
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(d))
        with pytest.raises(DomainError):
            MultNoiseSystem.from_json_dict(json.loads(p.read_text()))


class TestCostWeights:
    def test_strict_pd_required(self):
        with pytest.raises(ValueError):
            CostWeights(Q=np.diag([1.0, 0.0]), R=np.eye(1))
        with pytest.raises(ValueError):
            CostWeights(Q=np.eye(2), R=np.array([[-1.0]]))

    def test_valid(self, cost6):
        assert np.asarray(cost6.Q)[0, 0] == 10.0

    @pytest.mark.parametrize("field", ["Q", "R"])
    def test_empty_weight_is_named(self, field):
        """An empty weight raised a bare IndexError from eigvalsh(...)[0]."""
        kwargs = {"Q": np.eye(2), "R": np.eye(1), field: np.zeros((0, 0))}
        with pytest.raises(ValueError, match=f"^{field} must be strictly positive definite"):
            CostWeights(**kwargs)


ASYMMETRIC = [[2.0, 0.5], [0.3, 1.0]]
SYMMETRIC_FIELDS = {
    "DisturbanceMoments.sigma": lambda m: DisturbanceMoments(mu=np.zeros(2), sigma=m).sigma,
    "DisturbanceMoments.extended_moment":
        lambda m: DisturbanceMoments(mu=np.zeros(2), sigma=m).extended_moment[1:, 1:],
    "CostWeights.Q": lambda m: CostWeights(Q=m, R=np.eye(1)).Q,
    "CostWeights.R": lambda m: CostWeights(Q=np.eye(1), R=m).R,
    "MomentAmbiguity.sigma_hat": lambda m: MomentAmbiguity(mu_hat=np.zeros(2), sigma_hat=m,
                                                           rho_mu=0.1, rho_sigma=1.5).sigma_hat,
    "Controller.P": lambda m: Controller(K=np.zeros((1, 2)), P=m, method="nominal_vi").P,
}


@pytest.mark.parametrize("field", sorted(SYMMETRIC_FIELDS))
def test_symmetric_field_is_read_only_array(field):
    """Each symmetric field holds the same read-only symmetrized ndarray, whether
    it was given as a list, an ndarray or a SymMatrix."""
    a = np.array(ASYMMETRIC)
    for given in (ASYMMETRIC, a, SymMatrix(a)):
        stored = SYMMETRIC_FIELDS[field](given)
        assert type(stored) is np.ndarray and not stored.flags.writeable
        assert np.array_equal(stored, 0.5 * (a + a.T))


def _system(g):
    A0, A1 = g([[1.0, 0.1], [0.0, 0.9]]), g([[0.0, 0.0], [0.0, 0.1]])
    B0, B1 = g([[0.0], [0.1]]), g([[0.0], [0.2]])
    sys = MultNoiseSystem(A0=A0, A=(A1,), B0=B0, B=(B1,))
    return [(sys.A0, A0), (sys.A[0], A1), (sys.B0, B0), (sys.B[0], B1)]


def _moments(g):
    mu, sigma = g([0.1]), g([[2.0]], sym=True)
    m = DisturbanceMoments(mu=mu, sigma=sigma)
    return [(m.mu, mu), (m.sigma, sigma)]


def _cost(g):
    Q, R = g(ASYMMETRIC, sym=True), g([[0.5]], sym=True)
    cost = CostWeights(Q=Q, R=R)
    return [(cost.Q, Q), (cost.R, R)]


def _ambiguity(g):
    mu, sigma = g([0.1, 0.2]), g(ASYMMETRIC, sym=True)
    amb = MomentAmbiguity(mu_hat=mu, sigma_hat=sigma, rho_mu=0.1, rho_sigma=1.5)
    return [(amb.mu_hat, mu), (amb.sigma_hat, sigma)]


def _samples(g):
    w = g([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    return [(SampleSet(samples=w).samples, w)]


def _controller(g):
    K, P = g([[-1.0, -0.5]]), g(ASYMMETRIC, sym=True)
    ctrl = Controller(K=K, P=P, method="nominal_vi")
    return [(ctrl.K, K), (ctrl.P, P)]


def _closed_loop(g):
    K = g([[-1.0]])
    return [(ClosedLoop(sys=MultNoiseSystem(A0=[[0.5]], A=(), B0=[[1.0]], B=()), K=K).K, K)]


def _experiment(g):
    sys, x0 = MultNoiseSystem(A0=[[0.5]], A=([[0.1]],), B0=[[1.0]], B=([[0.0]],)), g([2.0])
    cfg = ExperimentConfig(system=sys, true_moments=DisturbanceMoments(mu=[0.0], sigma=[[1.0]]),
                           cost=CostWeights(Q=[[1.0]], R=[[1.0]]), beta=0.05,
                           sample_sizes=(1000,), x0=x0)
    return [(cfg.x0, x0)]


def _sym_matrix(g):
    m = g(ASYMMETRIC)
    return [(SymMatrix(m).entries, m)]


VALUE_CLASSES = {"MultNoiseSystem": _system, "DisturbanceMoments": _moments, "CostWeights": _cost,
                 "MomentAmbiguity": _ambiguity, "SampleSet": _samples, "Controller": _controller,
                 "ClosedLoop": _closed_loop, "ExperimentConfig": _experiment,
                 "SymMatrix": _sym_matrix}


def _read_only(value):
    a = np.array(value)
    a.setflags(write=False)
    return a


FORMS = {"list": lambda value: value, "ndarray": np.array, "read_only": _read_only}
SYMMETRIC = ["CostWeights", "Controller", "DisturbanceMoments", "MomentAmbiguity"]


@pytest.mark.parametrize("cls, form", [(cls, form) for cls in sorted(VALUE_CLASSES) for form in FORMS]
                         + [(cls, "SymMatrix") for cls in SYMMETRIC])
def test_value_class_owns_read_only_copies(cls, form):
    """Every ndarray field is a read-only copy that shares no memory with what it
    was built from: a kept float ndarray went stale when its owner changed it."""
    def given(value, sym=False):
        return SymMatrix(value) if sym and form == "SymMatrix" else FORMS.get(form, np.array)(value)

    for stored, value in VALUE_CLASSES[cls](given):
        assert type(stored) is np.ndarray and not stored.flags.writeable
        assert not np.shares_memory(stored, value)


def test_caches_ignore_later_changes_to_the_inputs():
    """A0 and mu were kept by reference: after stacked and extended_moment were
    cached, changing the caller's arrays moved eval_AB and mu but not the caches."""
    A0, mu = np.array([[1.0, 0.1], [0.0, 0.9]]), np.array([0.5])
    sys = MultNoiseSystem(A0=A0, A=(np.eye(2),), B0=np.ones((2, 1)), B=(np.zeros((2, 1)),))
    m = DisturbanceMoments(mu=mu, sigma=np.eye(1))
    Abar, S = sys.stacked[0].copy(), m.extended_moment.copy()
    A0[0, 0], mu[0] = 5.0, 3.0
    assert np.array_equal(sys.eval_AB(np.zeros(1))[0], sys.stacked[0][:2]) and sys.A0[0, 0] == 1.0
    assert np.array_equal(sys.stacked[0], Abar) and np.array_equal(m.extended_moment, S)
    assert m.mu[0] == 0.5


@pytest.mark.parametrize("field, build", [
    ("A0", lambda bad: MultNoiseSystem(A0=bad, A=(), B0=[[1.0]], B=())),
    ("B[0]", lambda bad: MultNoiseSystem(A0=[[1.0]], A=([[0.0]],), B0=[[1.0]], B=(bad,))),
    ("mu", lambda bad: DisturbanceMoments(mu=bad, sigma=[[1.0]])),
    ("Q", lambda bad: CostWeights(Q=bad, R=[[1.0]])),
    ("gain K", lambda bad: Controller(K=bad, P=[[1.0]], method="nominal_vi")),
], ids=["A0", "B0_channel", "mu", "Q", "K"])
def test_entries_that_are_not_numbers_are_named(field, build):
    """A JSON object where a matrix belongs escaped as a bare TypeError."""
    with pytest.raises(ShapeError, match=rf"^{re.escape(field)} is not an array of numbers"):
        build({"a": 1})


class TestCostShape:
    """Cost weights of the wrong size are named where a system first meets its cost."""

    @pytest.mark.parametrize("Q, R, message", [
        (np.eye(1), 0.01 * np.eye(1), "Q is 1x1, expected 2x2"),
        (np.eye(3), 0.01 * np.eye(1), "Q is 3x3, expected 2x2"),
        (np.diag([10.0, 1.0]), np.eye(2), "R is 2x2, expected 1x1"),
    ], ids=["Q_small", "Q_large", "R"])
    @pytest.mark.parametrize("entry", ["value_iteration", "synth_full", "closed_loop_value_matrix",
                                       "ExperimentConfig"])
    def test_entry_points_name_the_weight(self, sys6, moments6, amb6, Q, R, message, entry):
        cost = CostWeights(Q=Q, R=R)
        call = {
            "value_iteration": lambda: value_iteration(sys6, moments6, cost),
            "synth_full": lambda: synth_full(sys6, amb6, cost),
            "closed_loop_value_matrix": lambda: closed_loop_value_matrix(
                ClosedLoop(sys=sys6, K=np.array([[-10.0, -5.0]])), moments6, cost),
            "ExperimentConfig": lambda: ExperimentConfig(
                system=sys6, true_moments=moments6, cost=cost, beta=0.05,
                sample_sizes=(1000,), x0=np.zeros(2)),
        }[entry]
        with pytest.raises(ShapeError, match=message):
            call()

    def test_matching_weights_pass(self, sys6, cost6):
        check_cost(sys6, cost6)


class TestJsonRoundTrip:
    def test_save_load(self, sys6, tmp_path):
        p = write_fixture(tmp_path / "sys.json", sys6)
        back = MultNoiseSystem.from_json_dict(json.loads(p.read_text()))
        assert np.allclose(back.A0, sys6.A0)
        assert np.allclose(back.B[1], sys6.B[1])

    def test_declared_dimension_mismatch(self, sys6, tmp_path):
        d = sys6.to_json_dict()
        d["n_u"] = 3
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ShapeError):
            MultNoiseSystem.from_json_dict(json.loads(p.read_text()))

    def test_channel_count_mismatch(self):
        with pytest.raises(ShapeError):
            MultNoiseSystem(A0=np.eye(2), A=(np.zeros((2, 2)),),
                            B0=np.zeros((2, 1)), B=())
