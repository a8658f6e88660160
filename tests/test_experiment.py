import numpy as np
import pytest

from drlqr.ambiguity import MomentAmbiguity
from drlqr import experiment, stability
from drlqr.experiment import (EX1_SIGMA2, EX1_THRESHOLD, ExperimentConfig,
                              _run_cell, empirical_gain_scalar, example1_analytic,
                              nominal_reference, replicate_example1,
                              run_sample_complexity, sample_gaussian,
                              scalar_mss, write_records_csv)
from drlqr.matcore import SymMatrix, as_matrix
from drlqr.riccati import dr_covariance, value_iteration
from drlqr.sysmodel import DisturbanceMoments
from oracles import median_j_rel, read_records_csv


def _cfg(sys6, moments6, cost6, **overrides):
    kwargs = dict(system=sys6, true_moments=moments6, cost=cost6, beta=0.05,
                  sample_sizes=(1000,), x0=np.array([2.0, 2.0]),
                  realizations=2, seed=0)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestSampleGaussian:
    def test_deterministic(self, moments6):
        a = sample_gaussian(moments6, 50, 7)
        b = sample_gaussian(moments6, 50, 7)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_covariance(self):
        m = DisturbanceMoments(mu=np.array([1.0, -2.0]), sigma=SymMatrix(np.zeros((2, 2))))
        s = sample_gaussian(m, 10, 0)
        assert np.allclose(s.samples, [1.0, -2.0])

    def test_law_of_large_numbers(self):
        m = DisturbanceMoments(mu=np.array([0.5]), sigma=SymMatrix(2.0 * np.eye(1)))
        s = sample_gaussian(m, 200_000, 1)
        assert abs(s.samples.mean() - 0.5) < 0.02
        assert abs(s.samples.var() - 2.0) < 0.05

    def test_too_few(self, moments6):
        with pytest.raises(ValueError):
            sample_gaussian(moments6, 1, 0)


class TestConfigValidation:
    def test_rejects_small_sample_size(self, sys6, moments6, cost6):
        with pytest.raises(ValueError):
            _cfg(sys6, moments6, cost6, sample_sizes=(100,))

    def test_rejects_unknown_method(self, sys6, moments6, cost6):
        with pytest.raises(ValueError):
            _cfg(sys6, moments6, cost6, methods=("bogus",))

    def test_method_aliases(self, sys6, moments6, cost6):
        cfg = _cfg(sys6, moments6, cost6, methods=("covariance", "full"))
        assert cfg.methods == ("dr_covariance", "dr_full")

    def test_rejects_bad_x0(self, sys6, moments6, cost6):
        with pytest.raises(ValueError):
            _cfg(sys6, moments6, cost6, x0=np.zeros(3))

    @pytest.mark.parametrize("field, value", [
        ("realizations", 0), ("realizations", 1.5), ("seed", 1.5), ("sample_sizes", (1000.7,)),
    ], ids=["zero_realizations", "fractional_realizations", "fractional_seed",
            "fractional_sample_size"])
    def test_rejects_bad_counts(self, sys6, moments6, cost6, field, value):
        with pytest.raises(ValueError):
            _cfg(sys6, moments6, cost6, **{field: value})

    def test_whole_floats_become_ints(self, sys6, moments6, cost6):
        cfg = _cfg(sys6, moments6, cost6, realizations=2.0, seed=3.0, sample_sizes=(1000.0,))
        assert (cfg.realizations, cfg.seed, cfg.sample_sizes) == (2, 3, (1000,))
        assert all(type(v) is int for v in (cfg.realizations, cfg.seed, *cfg.sample_sizes))

    def test_rejects_empty_sample_sizes(self, sys6, moments6, cost6):
        with pytest.raises(ValueError, match="sample_sizes"):
            _cfg(sys6, moments6, cost6, sample_sizes=())

    def test_rejects_non_finite_x0(self, sys6, moments6, cost6):
        with pytest.raises(ValueError, match="x0"):
            _cfg(sys6, moments6, cost6, x0=np.array([np.nan, 1.0]))


class TestSweep:
    def test_one_spectral_radius_per_record(self, monkeypatch, sys6, moments6, cost6):
        """Each record with a gain is scored by one closed-loop evaluation."""
        real, calls = stability._spectral_radius, []

        def counting(T):
            calls.append(T)
            return real(T)

        monkeypatch.setattr(stability, "_spectral_radius", counting)
        records = _run_cell(_cfg(sys6, moments6, cost6), 1.0, 1000, 0)
        assert [r.stabilizing for r in records] == [True, True]
        assert len(calls) == len(records)

    def test_records_and_scores(self, sys6, moments6, cost6):
        cfg = _cfg(sys6, moments6, cost6)
        records = run_sample_complexity(cfg)
        assert len(records) == 2 * 2  # realizations x methods
        assert all(r.stabilizing for r in records)
        assert all(np.isfinite(r.J) and r.J_rel >= -1e-9 for r in records)
        med = median_j_rel(records, 1000, "dr_covariance")
        assert 0.0 <= med < 0.5

    def test_deterministic_across_workers(self, sys6, moments6, cost6, tmp_path):
        cfg = _cfg(sys6, moments6, cost6)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sample_complexity(cfg, out_csv=p1, jobs=1)
        run_sample_complexity(cfg, out_csv=p2, jobs=2)

        def strip_wall(path):
            lines = path.read_text().strip().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_wall(p1) == strip_wall(p2)

    def test_pool_bounded_by_cells(self, monkeypatch, sys6, moments6, cost6):
        """A huge jobs value on a 2-cell sweep asks for at most 2 workers; the
        fake pool runs the cells in this process and starts none."""
        requested = []

        class FakePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment.concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 64)
        cfg = _cfg(sys6, moments6, cost6)
        serial = run_sample_complexity(cfg, jobs=1)
        pooled = run_sample_complexity(cfg, jobs=10_000)
        assert requested == [2]
        strip = [(r.M, r.realization, r.method, r.stabilizing, r.J, r.J_rel) for r in serial]
        assert strip == [(r.M, r.realization, r.method, r.stabilizing, r.J, r.J_rel)
                         for r in pooled]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, sys6, moments6, cost6, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_sample_complexity(_cfg(sys6, moments6, cost6), jobs=jobs)

    def test_csv_round_trip(self, sys6, moments6, cost6, tmp_path):
        cfg = _cfg(sys6, moments6, cost6)
        records = run_sample_complexity(cfg)
        p = tmp_path / "r.csv"
        write_records_csv(records, p)
        back = read_records_csv(p)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert (a.M, a.realization, a.method, a.stabilizing) == \
                (b.M, b.realization, b.method, b.stabilizing)
            assert a.J == b.J and a.J_rel == b.J_rel

    def test_nominal_reference_cost(self, sys6, moments6, cost6):
        cfg = _cfg(sys6, moments6, cost6)
        K, J = nominal_reference(cfg)
        ctrl = value_iteration(sys6, moments6, cost6)
        assert np.allclose(K, ctrl.K)
        x0 = cfg.x0
        assert np.isclose(J, x0 @ as_matrix(ctrl.P) @ x0, rtol=1e-8)

    def test_degenerate_radii_match_nominal(self, sys6, moments6, cost6):
        """With rho = (0, 1) and the true moments, dr_covariance is nominal."""
        amb = MomentAmbiguity(mu_hat=np.zeros(2), sigma_hat=SymMatrix(np.eye(2)),
                              rho_mu=0.0, rho_sigma=1.0)
        dr = dr_covariance(sys6, np.zeros(2), amb, cost6)
        vi = value_iteration(sys6, moments6, cost6)
        assert np.allclose(dr.K, vi.K, atol=1e-8)


class TestExample1:
    def test_empirical_gain_at_true_variance(self):
        K = empirical_gain_scalar(0.5)
        p = 1267.775661738586
        assert np.isclose(K, -0.75 * p / (1.0e4 + p), rtol=1e-10)

    def test_gain_nan_above_one(self):
        assert np.isnan(empirical_gain_scalar(1.0))
        assert np.isnan(empirical_gain_scalar(1.3))

    def test_instability_threshold(self):
        """scalar_mss flips from stable to unstable close to the quoted
        variance-estimate threshold."""
        grid = np.linspace(0.4, 0.6, 20001)
        stable = scalar_mss(empirical_gain_scalar(grid))
        flip = grid[np.argmax(stable)]
        assert abs(flip - EX1_THRESHOLD) < 2e-3

    def test_large_estimates_are_safe(self):
        s2 = np.linspace(0.5, 0.99, 50)
        assert scalar_mss(empirical_gain_scalar(s2)).all()

    def test_analytic_value_at_500(self):
        assert np.isclose(example1_analytic(500), 0.16927, atol=5e-5)

    def test_analytic_decreases_with_M(self):
        vals = [example1_analytic(M) for M in (200, 500, 2000, 20000)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 1e-6

    def test_monte_carlo_agrees(self):
        res = replicate_example1(M=500, trials=20000, seed=0)
        assert abs(res.monte_carlo - res.analytic) < 0.03
        assert res.analytic == example1_analytic(500)

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate_example1(M=1)
        with pytest.raises(ValueError):
            replicate_example1(trials=0)


def test_threshold_constants():
    assert EX1_SIGMA2 == 0.5
    assert EX1_THRESHOLD == 0.4697
