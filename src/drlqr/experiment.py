"""Monte Carlo harnesses: the scalar motivating example and the
sample-complexity sweep over data-driven robust controllers.

The sweep draws disturbance samples, builds ambiguity sets, synthesizes the
covariance-only and full-uncertainty controllers, and scores them against
the nominal controller computed from the true moments.  Randomness is
derived per (M, realization) cell from a single seed, so results do not
depend on worker count or scheduling.
"""

from __future__ import annotations

import csv
import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from . import drsynth, riccati, stability
from .ambiguity import (DEFAULT_EPS, AmbiguityConfig, SampleSet, build_ambiguity,
                        min_sample_size)
from .matcore import ShapeError, _memo_last, _whole
from .stability import ClosedLoop, closed_loop_cost
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem, check_cost, state_vector

METHOD_ALIASES = {
    "covariance": "dr_covariance",
    "full": "dr_full",
    "dr_covariance": "dr_covariance",
    "dr_full": "dr_full",
}

CSV_COLUMNS = ("M", "realization", "method", "stabilizing", "J", "J_rel", "wall_ms")

LAMBDA_REG = 1e-8


def _seed(value) -> int:
    """value as a whole, nonnegative seed; anything else raises ValueError naming seed."""
    seed = _whole(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one sample-complexity sweep."""

    system: MultNoiseSystem
    true_moments: DisturbanceMoments
    cost: CostWeights
    beta: float
    sample_sizes: tuple
    x0: np.ndarray
    realizations: int = 30
    eps: float = DEFAULT_EPS
    sigma2: float = 1.0
    seed: int = 0
    methods: tuple = ("dr_covariance", "dr_full")

    def __post_init__(self):
        check_cost(self.system, self.cost)
        if self.true_moments.n_w != self.system.n_w:
            raise ShapeError(f"true_moments have {self.true_moments.n_w} disturbance channels, "
                             f"the system has {self.system.n_w}")
        realizations, seed = _whole(self.realizations, "realizations"), _seed(self.seed)
        if realizations < 1:
            raise ValueError("realizations must be at least 1")
        if isinstance(self.methods, str):
            raise ValueError(f"methods must be a list of method names, got {self.methods!r}")
        methods = tuple(METHOD_ALIASES.get(m, None) for m in self.methods)
        if None in methods or not methods:
            raise ValueError(f"unknown method in {self.methods}; choose from covariance/full")
        if len(set(methods)) < len(methods):
            raise ValueError(f"a method is named twice in {self.methods}")
        sizes = tuple(_whole(M, "sample size") for M in self.sample_sizes)
        if not sizes:
            raise ValueError("sample_sizes must name at least one sample size")
        for M in (M for i, M in enumerate(sizes) if M in sizes[:i]):
            raise ValueError(f"sample size {M} is named twice in {sizes}")
        M_min = min_sample_size(self.ambiguity_config(), self.system.n_w)
        if min(sizes) < M_min:
            raise ValueError(f"sample size {min(sizes)} below minimum {M_min} for these parameters")
        x0 = state_vector(self.system, self.x0)
        object.__setattr__(self, "realizations", realizations)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "x0", x0)

    def ambiguity_config(self) -> AmbiguityConfig:
        return AmbiguityConfig(beta=self.beta, eps=self.eps, sigma2=self.sigma2)


@dataclass(frozen=True)
class RunRecord:
    """One synthesized controller scored against the true-moment nominal."""

    M: int
    realization: int
    method: str
    stabilizing: bool
    J: float  # +inf when not stabilizing / infeasible
    J_rel: float
    wall_ms: float


def sample_gaussian(m: DisturbanceMoments, M: int, seed) -> SampleSet:
    """Draw M Gaussian vectors with the given moments; seed may be a whole,
    nonnegative number or a SeedSequence.  Deterministic for a fixed seed."""
    M = _whole(M, "M")
    if M < 2:
        raise ValueError(f"M must be at least 2, got {M}")
    rng = np.random.default_rng(seed if isinstance(seed, np.random.SeedSequence) else _seed(seed))
    z = rng.standard_normal((M, m.n_w))
    return SampleSet(samples=m.mu + z @ m._sigma_root)


def _cell_stream(seed: int, M: int, realization: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(M, realization))


@_memo_last(lambda c: c.system.stacked + (c.true_moments.mu, c.true_moments.sigma, c.cost.Q, c.cost.R, c.x0))
def nominal_reference(cfg: ExperimentConfig) -> tuple[np.ndarray, float]:
    """Gain and cost of the nominal controller under the true moments, the last pair
    kept, the gain read-only, for the last system, true moments, cost and x0."""
    ctrl = riccati.value_iteration(cfg.system, cfg.true_moments, cfg.cost)
    cl = ClosedLoop(sys=cfg.system, K=ctrl.K)
    return ctrl.K, closed_loop_cost(cl, cfg.true_moments, cfg.cost, cfg.x0)


def _run_cells(cfg: ExperimentConfig, J_nom: float, cells) -> tuple[list, list]:
    """The records of cells, a list of (M, realization, starts), and each cell's
    solved results by method: the dr_covariance Controller and the dr_full
    SynthesisResult, None without a gain.  Each method's solve starts from
    starts[method] when that is given; each method solves the cells as one batch
    (riccati.dr_covariance_batch, drsynth.synth_full_batch), and every gain is
    scored under the true moments in one stack (stability._closed_loop_costs)."""
    ambs = [build_ambiguity(sample_gaussian(cfg.true_moments, M, _cell_stream(cfg.seed, M, r)),
                            cfg.ambiguity_config(), lambda_reg=LAMBDA_REG) for M, r, _ in cells]
    solved, wall_ms = [{} for _ in cells], {}
    for method in cfg.methods:
        batch = riccati.dr_covariance_batch if method == "dr_covariance" else drsynth.synth_full_batch
        t0 = time.perf_counter()
        results = batch(cfg.system, ambs, cfg.cost, [cell[2].get(method) for cell in cells])
        wall_ms[method] = (time.perf_counter() - t0) * 1000.0 / len(cells)
        for res, got in zip(results, solved):
            got[method] = None if isinstance(res, Exception) else res
    gains = [(got[method].K if method == "dr_covariance" else got[method].controller.K)
             for got in solved for method in cfg.methods if got[method] is not None]
    scores = iter(stability._closed_loop_costs(cfg.system, np.array(gains), cfg.true_moments, cfg.cost,
                                               cfg.x0) if gains else ())
    records = []
    for (M, realization, _), got in zip(cells, solved):
        for method in cfg.methods:
            J = math.inf if got[method] is None else next(scores)
            records.append(RunRecord(M=M, realization=realization, method=method, stabilizing=J < math.inf,
                                     J=J, J_rel=(J - J_nom) / J_nom if J < math.inf else math.inf,
                                     wall_ms=wall_ms[method]))
    return records, solved


# numpy and scipy each bundle an OpenBLAS build: the package, the library's file in the
# package's .libs folder, and the suffix of its scipy_openblas_{set,get}_num_threads symbols
_OPENBLAS = ((np, "libscipy_openblas64_*", "64_"), (scipy, "libscipy_openblas-*", ""))


def _blas_threads(count: int | None = None) -> list | None:
    """The thread count of numpy's and of scipy's bundled OpenBLAS, each set to
    count first when count is given, or None where a library or symbol is not found."""
    import ctypes  # only a sweep with a pool loads these
    import glob

    found = []
    for package, pattern, suffix in _OPENBLAS:
        try:
            lib = ctypes.CDLL(glob.glob(os.path.join(os.path.dirname(package.__file__) + ".libs", pattern))[0])
            put, get = (getattr(lib, f"scipy_openblas_{verb}_num_threads{suffix}") for verb in ("set", "get"))
        except (IndexError, OSError, AttributeError):
            return None
        put.argtypes, put.restype, get.argtypes, get.restype = [ctypes.c_int], None, [], ctypes.c_int
        if count is not None:
            put(count)
        found.append(get())
    return found


def _pool(workers: int):
    """A process pool whose workers each run one BLAS thread (_blas_threads(1)):
    forked workers inherit OpenBLAS's default thread count, one per core, and on
    a 2-core host two such workers made jobs=2 several times slower than jobs=1.
    Where a bundled OpenBLAS lacks the symbols, the pool runs as it is, with a warning."""
    import concurrent.futures  # only a sweep with a pool loads it, and multiprocessing

    pinned = _blas_threads() is not None
    if not pinned:
        warnings.warn("cannot set the thread count of numpy's and scipy's OpenBLAS: with jobs > 1 "
                      "set OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 before starting Python",
                      stacklevel=3)
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_blas_threads if pinned else None, initargs=(1,))


def run_sample_complexity(cfg: ExperimentConfig, jobs: int = 1) -> list:
    """Full sweep over (M, realization) cells; write_records_csv writes its CSV.

    Records come back sorted by (M, realization, method order), so the
    output is identical for any worker count.  Realization 0 of each sample
    size is its anchor cell.  The first anchor is solved cold, each later one
    starts both methods from the previous anchor's results (a method without
    a result hands on its previous start), and every other cell starts from
    its own sample size's anchor, so each record depends only on its own cell
    and the anchor chain.  The sweep runs in stages: the first anchor alone,
    then each later anchor with the other cells of the sample size before it,
    then the other cells of the last sample size; a stage's dr_covariance
    solves and its dr_full SDPs are each one batch, and its gains are scored
    as one stack.  With jobs > 1 the anchors run alone in this process
    and the other cells go to a pool in one batch per worker.  The pool starts
    all its workers at once, so it gets at most one per batch and per CPU, and
    each worker runs numpy's and scipy's OpenBLAS on one thread (_pool).
    """
    jobs = _whole(jobs, "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _, J_nom = nominal_reference(cfg)
    sizes, others = cfg.sample_sizes, range(1, cfg.realizations)
    workers = min(jobs, len(sizes) * len(others), os.cpu_count() or 1)
    records, pooled, starts = [], [], {}
    for i in range(len(sizes) + 1):
        stage = [(sizes[i], 0, starts)] if i < len(sizes) else []
        after = [(sizes[i - 1], r, starts) for r in others] if i else []
        if workers > 1:
            pooled += after
        else:
            stage += after
        if stage:
            batch, solved = _run_cells(cfg, J_nom, stage)
            records.extend(batch)
            if i < len(sizes):
                starts = {m: solved[0][m] or starts.get(m) for m in cfg.methods}
    if pooled:
        batches = [pooled[w::workers] for w in range(workers)]
        with _pool(workers) as pool:
            for batch, _ in pool.map(_run_cells, [cfg] * workers, [J_nom] * workers, batches):
                records.extend(batch)
    order = {m: i for i, m in enumerate(cfg.methods)}
    records.sort(key=lambda rec: (rec.M, rec.realization, order[rec.method]))
    return records


def write_records_csv(records, path) -> None:
    """CSV with empty J/J_rel cells for non-stabilizing rows.

    All fields except wall_ms are deterministic given the seed; wall_ms is
    informational only.  It is the time one method took to synthesize its
    gain from the cell's ambiguity set (the Riccati or SDP solve and its
    certificate); the sampling, the ambiguity set built once per cell and
    the scoring under the true moments are outside it.  Each method solves
    the cells of a stage (of a pool batch with jobs > 1) as one batch (see
    run_sample_complexity), so wall_ms is the stage's time for that method
    divided by its cells: its Riccati time on a dr_covariance row, its
    synthesis time on a dr_full row.  Only the
    first anchor cell's solves are cold: on a later anchor's rows wall_ms times
    solves started from the previous anchor's results, and on every other row
    solves started from its sample size's anchor.
    """
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                rec.M,
                rec.realization,
                rec.method,
                "true" if rec.stabilizing else "false",
                repr(rec.J) if math.isfinite(rec.J) else "",
                repr(rec.J_rel) if math.isfinite(rec.J_rel) else "",
                f"{rec.wall_ms:.3f}",
            ])


# --------------------------------------------------------------------------
# Scalar motivating example
# --------------------------------------------------------------------------

EX1_A = 0.75
EX1_Q = 1.0
EX1_R = 1.0e4
EX1_SIGMA2 = 0.5
EX1_THRESHOLD = 0.4697
EX1_DRAWS = 1_000_000  # draws per batch: 2,000 trials at M = 500, at least one trial


@dataclass(frozen=True)
class Example1Result:
    M: int
    trials: int
    analytic: float
    monte_carlo: float


def empirical_gain_scalar(sigma2_hat):
    """Optimal gain of the scalar system for an estimated noise variance.

    Vectorized over sigma2_hat.  Solves the quadratic Riccati root
    (s2 - 1) p^2 + (q + (s2 - 0.4375) r) p + q r = 0 exactly, with q = EX1_Q
    and r = EX1_R; estimates with s2 >= 1 make the system non-stabilizable
    and return NaN.
    """
    s2 = np.asarray(sigma2_hat, dtype=float)
    a = s2 - EX1_A * EX1_A  # = s2 - 0.5625
    lin = EX1_Q + (a + EX1_A * EX1_A - 0.4375) * EX1_R  # q + (s2 - 0.4375) r
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (lin + np.sqrt(lin * lin + 4.0 * (1.0 - s2) * EX1_Q * EX1_R)) / (2.0 * (1.0 - s2))
        K = -EX1_A * p / (EX1_R + p)
    return np.where(s2 < 1.0, K, np.nan)


def scalar_mss(K):
    """Closed-loop mean-square stability of the scalar example, vectorized.

    The loop is x+ = (0.75 + K + w) x with w of variance EX1_SIGMA2, so the
    second moment contracts iff (0.75 + K)^2 + EX1_SIGMA2 < 1, giving the
    interval -0.75 +- sqrt(0.5).
    """
    K = np.asarray(K, dtype=float)
    with np.errstate(invalid="ignore"):
        rad = (EX1_A + K) ** 2 + EX1_SIGMA2
    return np.where(np.isnan(K), False, rad < 1.0)


def example1_analytic(M: int) -> float:
    """Chi-square probability that the empirical variance estimate falls
    below the instability threshold, via the regularized incomplete gamma."""
    import scipy.special  # loaded here only: import drlqr does not need it

    x = EX1_THRESHOLD * M / EX1_SIGMA2
    return float(scipy.special.gammainc(M / 2.0, x / 2.0))


def replicate_example1(M: int = 500, trials: int = 100_000, seed: int = 0) -> Example1Result:
    """Failure rate of the empirical approach: analytic and Monte Carlo.

    Each trial draws M scalar Gaussians with the true variance, computes the
    empirical variance (second moment about zero, matching the estimator in
    the example), synthesizes the empirical-optimal gain from the exact
    Riccati root, and tests mean-square stability under the true variance.
    Batches of at most EX1_DRAWS draws (one trial at least) bound the memory;
    the result does not depend on the batch size.
    """
    M, trials, seed = _whole(M, "M"), _whole(trials, "trials"), _seed(seed)
    if M < 2:
        raise ValueError("M must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    failures = 0
    remaining = trials
    scale = math.sqrt(EX1_SIGMA2)
    while remaining > 0:
        batch = min(remaining, max(1, EX1_DRAWS // M))
        w = scale * rng.standard_normal((batch, M))
        s2 = np.mean(w * w, axis=1)
        stable = scalar_mss(empirical_gain_scalar(s2))
        failures += int(np.count_nonzero(~stable))
        remaining -= batch
    return Example1Result(M=M, trials=trials, analytic=example1_analytic(M),
                          monte_carlo=failures / trials)
