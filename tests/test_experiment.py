import concurrent.futures

import numpy as np
import pytest

from drlqr.ambiguity import AmbiguityConfig, MomentAmbiguity, ambiguity_radii, build_ambiguity
from drlqr import drsynth, experiment, riccati, stability
from drlqr.experiment import (EX1_SIGMA2, EX1_THRESHOLD, ExperimentConfig,
                              _run_cells, empirical_gain_scalar, example1_analytic,
                              nominal_reference, replicate_example1,
                              run_sample_complexity, sample_gaussian,
                              scalar_mss, write_records_csv)
from drlqr.matcore import ShapeError, SymMatrix
from drlqr.riccati import dr_covariance, value_iteration
from drlqr.sysmodel import DisturbanceMoments
from conftest import bench_workloads
from oracles import median_j_rel, read_records_csv, root_failing_on, solve_reference


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

    def test_covariance_that_is_psd_accepts(self):
        """A covariance inside is_psd's slack is sampled, its tiny negative
        eigenvalue clipped to zero."""
        m = DisturbanceMoments(mu=np.zeros(2), sigma=SymMatrix(np.diag([1.0, -5e-10])))
        s = sample_gaussian(m, 10, 0)
        assert np.all(s.samples[:, 1] == 0.0)

    def test_law_of_large_numbers(self):
        m = DisturbanceMoments(mu=np.array([0.5]), sigma=SymMatrix(2.0 * np.eye(1)))
        s = sample_gaussian(m, 200_000, 1)
        assert abs(s.samples.mean() - 0.5) < 0.02
        assert abs(s.samples.var() - 2.0) < 0.05

    def test_too_few(self, moments6):
        with pytest.raises(ValueError):
            sample_gaussian(moments6, 1, 0)

    def test_whole_float_count(self, moments6):
        assert np.array_equal(sample_gaussian(moments6, 10.0, 0).samples,
                              sample_gaussian(moments6, 10, 0).samples)

    @pytest.mark.parametrize("M, seed, message", [
        (2.5, 0, "M must be a whole number"), (float("nan"), 0, "M must be a whole number"),
        (10, -1, "seed must be nonnegative"), (10, 0.5, "seed must be a whole number"),
    ], ids=["M-fraction", "M-nan", "seed-negative", "seed-fraction"])
    def test_count_and_seed_named(self, moments6, M, seed, message):
        with pytest.raises(ValueError, match=message):
            sample_gaussian(moments6, M, seed)

    def test_seed_sequence(self, moments6):
        seq = np.random.SeedSequence(3, spawn_key=(1000, 0))
        expected = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(1000, 0)))
        z = expected.standard_normal((10, 2))
        assert np.array_equal(sample_gaussian(moments6, 10, seq).samples, z)


class TestConfigValidation:
    def test_rejects_small_sample_size(self, sys6, moments6, cost6):
        with pytest.raises(ValueError):
            _cfg(sys6, moments6, cost6, sample_sizes=(100,))

    def test_rejects_unknown_method(self, sys6, moments6, cost6):
        with pytest.raises(ValueError):
            _cfg(sys6, moments6, cost6, methods=("bogus",))

    def test_rejects_method_named_twice(self, sys6, moments6, cost6):
        with pytest.raises(ValueError, match="twice"):
            _cfg(sys6, moments6, cost6, methods=("full", "dr_full"))

    def test_rejects_sample_size_named_twice(self, sys6, moments6, cost6):
        """Each record was emitted once per naming: 8 records instead of 4."""
        with pytest.raises(ValueError, match=r"sample size 1000 is named twice in \(1000, 1000\)"):
            _cfg(sys6, moments6, cost6, sample_sizes=(1000, 1000))

    def test_rejects_a_string_of_methods(self, sys6, moments6, cost6):
        """A string was read character by character, which named a valid method
        as unknown."""
        with pytest.raises(ValueError, match="methods must be a list of method names, got 'full'"):
            _cfg(sys6, moments6, cost6, methods="full")

    def test_method_aliases(self, sys6, moments6, cost6):
        cfg = _cfg(sys6, moments6, cost6, methods=("covariance", "full"))
        assert cfg.methods == ("dr_covariance", "dr_full")

    def test_rejects_bad_x0(self, sys6, moments6, cost6):
        with pytest.raises(ValueError):
            _cfg(sys6, moments6, cost6, x0=np.zeros(3))

    @pytest.mark.parametrize("field, value", [
        ("realizations", 0), ("realizations", 1.5), ("seed", 1.5), ("sample_sizes", (1000.7,)),
        ("seed", -1),
    ], ids=["zero_realizations", "fractional_realizations", "fractional_seed",
            "fractional_sample_size", "negative_seed"])
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

    def test_rejects_moments_with_another_channel_count(self, sys6, cost6):
        """Three-channel moments on the two-channel system were accepted, and the
        sweep failed later with a message that named neither field."""
        m3 = DisturbanceMoments(mu=np.zeros(3), sigma=np.eye(3))
        with pytest.raises(ShapeError, match="true_moments have 3 disturbance channels, the system has 2"):
            _cfg(sys6, m3, cost6)

    def test_rejects_non_finite_x0(self, sys6, moments6, cost6):
        with pytest.raises(ValueError, match="x0"):
            _cfg(sys6, moments6, cost6, x0=np.array([np.nan, 1.0]))


class TestSweep:
    def test_one_closed_loop_evaluation_per_record(self, monkeypatch, sys6, moments6, cost6):
        """Each record with a gain is scored by one closed-loop evaluation, its
        operator one of a stack, and a stabilizing record's cost is certified
        without an eigensolver."""
        calls = {"operator": 0, "radius": 0}

        def counting(name, real):
            def wrapper(*args):  # a stack of gains K (args[1]) builds one operator each
                calls[name] += len(args[1]) if name == "operator" and args[1].ndim == 3 else 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(stability, "_svec_operator",
                            counting("operator", stability._svec_operator))
        monkeypatch.setattr(stability, "_spectral_radius",
                            counting("radius", stability._spectral_radius))
        records, _ = _run_cells(_cfg(sys6, moments6, cost6), 1.0, [(1000, 0, {})])
        assert [r.stabilizing for r in records] == [True, True]
        assert calls == {"operator": len(records), "radius": 0}

    def test_non_stabilizing_row(self, monkeypatch, sys6, moments6, cost6, tmp_path):
        """A gain whose cost is not certified finite gives stabilizing False and
        J = J_rel = inf, written as empty CSV cells.  The zero gain leaves sys6's
        open-loop eigenvalue 1, so closed_loop_cost raises InstabilityError."""
        def zero_gain(sys, ambs, cost, starts=None):
            return [riccati.Controller(K=np.zeros((1, 2)), P=np.eye(2), method="dr_covariance")
                    for _ in ambs]

        monkeypatch.setattr(riccati, "dr_covariance_batch", zero_gain)
        records = run_sample_complexity(_cfg(sys6, moments6, cost6, methods=("covariance",)))
        inf = float("inf")
        assert [(r.stabilizing, r.J, r.J_rel) for r in records] == [(False, inf, inf)] * 2
        path = tmp_path / "out.csv"
        write_records_csv(records, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [row[:6] for row in rows] == [["1000", str(r), "dr_covariance", "false", "", ""]
                                             for r in (0, 1)]

    def test_failed_program_marks_its_cell_alone(self, monkeypatch, sys6, moments6, cost6):
        """A NumericalFailure while writing one cell's synthesis program leaves
        that cell's dr_full record not stabilizing; the other cells of its
        stage keep the records of a sweep without the failure."""
        cfg = _cfg(sys6, moments6, cost6, realizations=3, methods=("full",))
        clean = run_sample_complexity(cfg)
        M = cfg.sample_sizes[0]  # realization 1, in the stage after the anchor
        failing = build_ambiguity(sample_gaussian(cfg.true_moments, M, experiment._cell_stream(cfg.seed, M, 1)),
                                  cfg.ambiguity_config(), lambda_reg=experiment.LAMBDA_REG).sigma_hat
        monkeypatch.setattr(drsynth, "psd_sqrt", root_failing_on(failing, drsynth.psd_sqrt))
        records = run_sample_complexity(cfg)
        strip = lambda r: (r.M, r.realization, r.method, r.stabilizing, r.J, r.J_rel)
        assert [strip(r) for r in records] == [
            strip(r) if r.realization != 1 else (r.M, 1, r.method, False, float("inf"), float("inf"))
            for r in clean]
        assert clean[1].stabilizing

    def test_records_and_scores(self, sys6, moments6, cost6):
        cfg = _cfg(sys6, moments6, cost6)
        records = run_sample_complexity(cfg)
        assert len(records) == 2 * 2  # realizations x methods
        assert all(r.stabilizing for r in records)
        assert all(np.isfinite(r.J) and r.J_rel >= -1e-9 for r in records)
        med = median_j_rel(records, 1000, "dr_covariance")
        assert 0.0 <= med < 0.5

    def test_deterministic_across_workers(self, monkeypatch, sys6, moments6, cost6, tmp_path):
        """Two cells for the pool per sample size; with two sample sizes the
        pool gets cells of different anchors.  The sweep-paper shape (three
        sizes, four realizations) runs stages of 1, 4, 4 and 3 cells, and its
        CSV is also that of a sweep whose SDPs are solved one at a time by the
        reference loop."""
        def strip_wall(path):
            lines = path.read_text().strip().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        real, batches = drsynth.synth_full_batch, []

        def counted(sys, ambs, cost, starts=None):
            batches.append(len(ambs))
            return real(sys, ambs, cost, starts)

        monkeypatch.setattr(drsynth, "synth_full_batch", counted)
        for sizes, realizations in (((1000,), 3), ((1000, 2000), 3), ((1000, 2000, 4000), 4)):
            cfg = _cfg(sys6, moments6, cost6, realizations=realizations, sample_sizes=sizes)
            p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
            batches.clear()
            write_records_csv(run_sample_complexity(cfg, jobs=1), p1)
            write_records_csv(run_sample_complexity(cfg, jobs=2), p2)
            assert strip_wall(p1) == strip_wall(p2)
            assert len(strip_wall(p1)) == 1 + 2 * realizations * len(sizes)
        assert batches[:4] == [1, 4, 4, 3]
        p3 = tmp_path / "c.csv"
        monkeypatch.setattr(drsynth, "solve_batch", lambda c, F, dims, starts: [
            solve_reference((c[j:j + 1], F[j:j + 1], dims), start) for j, start in enumerate(starts)])
        write_records_csv(run_sample_complexity(cfg, jobs=1), p3)
        assert strip_wall(p3) == strip_wall(p1)

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """The max_workers each pool is asked for; the fake pool runs its
        batches in this process and starts no worker."""
        requested = []

        class FakePool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 64)
        return requested

    def test_pool_bounded_by_cells(self, fake_pool, sys6, moments6, cost6):
        """A huge jobs value on a 3-cell sweep, whose first cell runs in this
        process, asks for at most 2 workers, one per batch it hands the pool."""
        cfg = _cfg(sys6, moments6, cost6, realizations=3)
        serial = run_sample_complexity(cfg, jobs=1)
        pooled = run_sample_complexity(cfg, jobs=10_000)
        assert fake_pool == [2]
        strip = [(r.M, r.realization, r.method, r.stabilizing, r.J, r.J_rel) for r in serial]
        assert strip == [(r.M, r.realization, r.method, r.stabilizing, r.J, r.J_rel)
                         for r in pooled]

    @pytest.mark.parametrize("jobs", [0, -3, 1.5, float("nan")])
    def test_rejects_jobs_below_one(self, sys6, moments6, cost6, jobs):
        """A count below one, and one that is not a whole number, raise ValueError naming jobs."""
        with pytest.raises(ValueError, match="jobs"):
            run_sample_complexity(_cfg(sys6, moments6, cost6), jobs=jobs)

    def test_whole_float_jobs_accepted(self, fake_pool, sys6, moments6, cost6):
        """jobs=2.0 runs as 2 workers."""
        cfg = _cfg(sys6, moments6, cost6, realizations=3)
        assert len(run_sample_complexity(cfg, jobs=2.0)) == 3 * 2
        assert fake_pool == [2]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        """A pool worker reports one thread from both bundled OpenBLAS builds,
        though the process that forks it runs two."""
        before = experiment._blas_threads()
        if before is None:
            pytest.skip("numpy or scipy bundles no OpenBLAS with the scipy_openblas symbols")
        try:
            assert experiment._blas_threads(2) == [2, 2]
            with experiment._pool(1) as pool:
                assert pool.submit(experiment._blas_threads).result() == [1, 1]
        finally:
            for entry, count in zip(experiment._OPENBLAS, before):
                monkeypatch.setattr(experiment, "_OPENBLAS", (entry,))
                experiment._blas_threads(count)
        monkeypatch.undo()
        assert experiment._blas_threads() == before

    def test_pool_without_the_symbols_warns(self, monkeypatch):
        """Where a bundled OpenBLAS lacks the symbol, the pool runs as it is
        and the warning names the variables to set."""
        monkeypatch.setattr(experiment, "_OPENBLAS", experiment._OPENBLAS[:1] + (
            (np, "libscipy_openblas64_*", "_not_a_suffix"),))
        with pytest.warns(UserWarning, match="OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1"):
            pool = experiment._pool(1)
        with pool:
            assert pool.submit(sum, [1, 2]).result() == 3

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

    def test_nominal_reference_is_kept_read_only(self, monkeypatch, sys6, moments6, cost6):
        """The reference is kept for the last system, true moments, cost and x0: a
        sweep at another seed reuses it, another x0 computes it afresh, and under
        identity_digest's --cold every call computes it."""
        from identity_digest import _cold  # the digest's memo bypass

        real, solves = riccati.value_iteration, []
        monkeypatch.setattr(riccati, "value_iteration", lambda *args: solves.append(1) or real(*args))
        cfg = _cfg(sys6, moments6, cost6)
        K, J = nominal_reference(cfg)
        assert not K.flags.writeable
        assert nominal_reference(_cfg(sys6, moments6, cost6, seed=5)) == (K, J) and len(solves) == 1
        assert nominal_reference(_cfg(sys6, moments6, cost6, x0=np.array([1.0, 0.0])))[1] != J
        assert len(solves) == 2
        with _cold():
            again = experiment.nominal_reference(cfg)
            experiment.nominal_reference(cfg)
        assert len(solves) == 4 and again[1] == J and again[0].tobytes() == K.tobytes()
        assert experiment.nominal_reference is nominal_reference

    def test_nominal_reference_cost(self, sys6, moments6, cost6):
        cfg = _cfg(sys6, moments6, cost6)
        K, J = nominal_reference(cfg)
        ctrl = value_iteration(sys6, moments6, cost6)
        assert np.allclose(K, ctrl.K)
        x0 = cfg.x0
        assert np.isclose(J, x0 @ np.asarray(ctrl.P) @ x0, rtol=1e-8)

    def test_degenerate_radii_match_nominal(self, sys6, moments6, cost6):
        """With rho = (0, 1) and the true moments, dr_covariance is nominal."""
        amb = MomentAmbiguity(mu_hat=np.zeros(2), sigma_hat=SymMatrix(np.eye(2)),
                              rho_mu=0.0, rho_sigma=1.0)
        dr = dr_covariance(sys6, np.zeros(2), amb, cost6)
        vi = value_iteration(sys6, moments6, cost6)
        assert np.allclose(dr.K, vi.K, atol=1e-8)



class TestWarmStart:
    def test_warm_starts_save_a_quarter_of_the_iterations(self, monkeypatch):
        """The benchmark's sweep-paper op 0 (seed 0) takes at most 0.75 of the
        interior-point iterations it takes with every start ignored; the
        counts are deterministic."""
        workload = bench_workloads().WORKLOADS["sweep-paper"](0)
        inp = workload.make_input(0)
        real, iterations = drsynth.solve_batch, []

        def counted(c, F, dims, starts=None):
            sols = real(c, F, dims, starts)
            iterations.extend(sol.iterations for sol in sols)
            return sols

        totals = []
        for fake in (counted, lambda c, F, dims, starts=None: counted(c, F, dims)):
            monkeypatch.setattr(drsynth, "solve_batch", fake)
            iterations.clear()
            assert workload.check(inp, workload.run(inp)) == []
            totals.append(sum(iterations))
        warm, cold = totals
        assert warm <= 0.75 * cold, totals

    def test_anchors_start_the_riccati_and_sdp_solves(self, monkeypatch):
        """The benchmark's sweep-paper op 0 (seed 0) computes the certainty-
        equivalent gain twice, for the nominal reference and the first anchor,
        and takes at most 120 interior-point iterations; with the first cell
        alone warm-starting dr_full it computed it 13 times and took 136."""
        workload = bench_workloads().WORKLOADS["sweep-paper"](0)
        inp = workload.make_input(0)
        counts = {"ce": 0, "iterations": 0}
        real_ce, real_solve = riccati._ce_gain, drsynth.solve_batch

        def ce(*args):
            counts["ce"] += 1
            return real_ce(*args)

        def solve(c, F, dims, starts=None):
            sols = real_solve(c, F, dims, starts)
            counts["iterations"] += sum(sol.iterations for sol in sols)
            return sols

        monkeypatch.setattr(riccati, "_ce_gain", ce)
        monkeypatch.setattr(drsynth, "solve_batch", solve)
        assert workload.check(inp, workload.run(inp)) == []
        assert counts["ce"] <= 2 and counts["iterations"] <= 120, counts

    def test_first_cell_seeds_the_others(self, monkeypatch, sys6, moments6, cost6):
        """The first cell's dr_full solve is cold; every later one starts from
        its solution."""
        real, starts = drsynth.synth_full_batch, []

        def spy(sys, ambs, cost, cell_starts=None):
            results = real(sys, ambs, cost, cell_starts)
            starts.extend(zip(cell_starts, results))
            return results

        monkeypatch.setattr(drsynth, "synth_full_batch", spy)
        run_sample_complexity(_cfg(sys6, moments6, cost6, realizations=3))
        (first, seed), *rest = starts
        assert first is None and len(rest) == 2
        assert all(start is seed for start, _ in rest)


def _spy_starts(monkeypatch):
    """Record (method, rho_sigma, start, result) of every cell of each
    dr_covariance_batch and synth_full_batch call, an exception as result None;
    rho_sigma depends on the sample size alone."""
    calls = []

    def spy(method, real):
        def batch(sys, ambs, cost, starts=None):
            results = real(sys, ambs, cost, starts)
            calls.extend((method, amb.rho_sigma, start, None if isinstance(res, Exception) else res)
                         for amb, start, res in zip(ambs, starts, results))
            return results
        return batch

    monkeypatch.setattr(riccati, "dr_covariance_batch", spy("dr_covariance", riccati.dr_covariance_batch))
    monkeypatch.setattr(drsynth, "synth_full_batch", spy("dr_full", drsynth.synth_full_batch))
    return calls


class TestAnchors:
    SIZES = (1000, 2000, 4000)
    # the stages' cells in order: the 1000 anchor; the 2000 anchor and the other 1000
    # cell; the 4000 anchor and the other 2000 cell; the other 4000 cell
    STAGED = (1000, 2000, 1000, 4000, 2000, 4000)
    ANCHORS, CELLS = (0, 1, 3), (2, 4, 5)

    def _rho_sigma(self, M):
        return ambiguity_radii(AmbiguityConfig(beta=0.05), 2, M)[1]

    def test_anchor_chain_and_cell_starts(self, monkeypatch, sys6, moments6, cost6):
        """Anchors (realization 0) run in sample_sizes order, the first cold
        and each later one from the previous anchor, each in a stage with the
        other cells of the size before it; every other cell starts from its
        own sample size's anchor."""
        calls = _spy_starts(monkeypatch)
        run_sample_complexity(_cfg(sys6, moments6, cost6, sample_sizes=self.SIZES))
        for method in ("dr_covariance", "dr_full"):
            mine = [c[1:] for c in calls if c[0] == method]
            assert [rho for rho, _, _ in mine] == [self._rho_sigma(M) for M in self.STAGED]
            anchors, cells = [mine[i] for i in self.ANCHORS], [mine[i] for i in self.CELLS]
            assert anchors[0][1] is None
            assert all(anchors[i][1] is anchors[i - 1][2] for i in (1, 2))
            assert all(cell[1] is anchor[2] for cell, anchor in zip(cells, anchors))

    def test_failed_anchor_hands_on_its_start(self, monkeypatch, sys6, moments6, cost6):
        """When the M = 2000 anchor's dr_full fails, the next anchor and the
        M = 2000 cells start from the M = 1000 anchor's result."""
        real, seen = drsynth.synth_full_batch, []

        def failing(sys, ambs, cost, starts=None):
            results = real(sys, ambs, cost, starts)
            for j, amb in enumerate(ambs):
                seen.append(amb)
                if len(seen) == 2:  # the second dr_full solve is the M = 2000 anchor's
                    results[j] = drsynth.DrSynthesisError("anchor fails")
            return results

        monkeypatch.setattr(drsynth, "synth_full_batch", failing)
        calls = _spy_starts(monkeypatch)
        records = run_sample_complexity(_cfg(sys6, moments6, cost6, sample_sizes=self.SIZES))
        assert [r.stabilizing for r in records if r.method == "dr_full"] == \
            [True, True, False, True, True, True]
        full = [c[2:] for c in calls if c[0] == "dr_full"]
        (_, first), (handed, failed), (after, _) = (full[i] for i in self.ANCHORS)
        cells = [full[i] for i in self.CELLS]
        assert failed is None and handed is first and after is first
        expected = (first, first, full[3][1])
        assert len(cells) == 3 and all(c[0] is e for c, e in zip(cells, expected))
        cov = [c[2:] for c in calls if c[0] == "dr_covariance"]
        assert cov[3][0] is cov[1][1]  # the other method's chain goes on


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

    @pytest.mark.parametrize("field, value, message", [
        ("M", 10.5, "M must be a whole number"), ("trials", 2.5, "trials must be a whole number"),
        ("seed", 0.5, "seed must be a whole number"), ("seed", -1, "seed must be nonnegative"),
    ])
    def test_counts_and_seed_named(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            replicate_example1(**{"M": 20, "trials": 10, field: value})

    def test_result_does_not_depend_on_the_batch_size(self, monkeypatch):
        """One trial per batch draws the same stream, so the same result."""
        default = replicate_example1(M=50, trials=300, seed=4)
        monkeypatch.setattr(experiment, "EX1_DRAWS", 1)
        assert replicate_example1(M=50, trials=300, seed=4) == default


def test_threshold_constants():
    assert EX1_SIGMA2 == 0.5
    assert EX1_THRESHOLD == 0.4697
