"""Monte Carlo harnesses: the scalar motivating example and the
sample-complexity sweep over data-driven robust controllers.

The sweep draws disturbance samples, builds ambiguity sets, synthesizes the
covariance-only and full-uncertainty controllers, and scores them against
the nominal controller computed from the true moments.  Randomness is
derived per (M, realization) cell from a single seed, so results do not
depend on worker count or scheduling.
"""

from __future__ import annotations

import concurrent.futures  # loads the pool, and multiprocessing, only when a sweep uses it
import csv
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.special

from . import drsynth, riccati
from .ambiguity import (DEFAULT_EPS, AmbiguityConfig, SampleSet, build_ambiguity,
                        min_sample_size)
from .matcore import NumericalFailure, SymMatrix, as_matrix, psd_sqrt
from .stability import ClosedLoop, InstabilityError, closed_loop_cost
from .sysmodel import CostWeights, DisturbanceMoments, MultNoiseSystem

METHOD_ALIASES = {
    "covariance": "dr_covariance",
    "full": "dr_full",
    "dr_covariance": "dr_covariance",
    "dr_full": "dr_full",
}

CSV_COLUMNS = ("M", "realization", "method", "stabilizing", "J", "J_rel", "wall_ms")

LAMBDA_REG = 1e-8


def _whole(value, name: str) -> int:
    """value as an int; a fractional or non-finite value raises ValueError."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


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
        realizations, seed = _whole(self.realizations, "realizations"), _whole(self.seed, "seed")
        if realizations < 1:
            raise ValueError("realizations must be at least 1")
        methods = tuple(METHOD_ALIASES.get(m, None) for m in self.methods)
        if None in methods or not methods:
            raise ValueError(f"unknown method in {self.methods}; choose from covariance/full")
        sizes = tuple(_whole(M, "sample size") for M in self.sample_sizes)
        if not sizes:
            raise ValueError("sample_sizes must name at least one sample size")
        M_min = min_sample_size(self.ambiguity_config(), self.system.n_w)
        if min(sizes) < M_min:
            raise ValueError(f"sample size {min(sizes)} below minimum {M_min} for these parameters")
        x0 = np.asarray(self.x0, dtype=float).ravel()
        if x0.size != self.system.n_x or not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must hold {self.system.n_x} finite numbers, got {x0}")
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
    """Draw M Gaussian vectors with the given moments; seed may be an int or
    a SeedSequence.  Deterministic for a fixed seed."""
    if M < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((M, m.n_w))
    half = as_matrix(psd_sqrt(m.sigma))
    return SampleSet(samples=np.asarray(m.mu, dtype=float) + z @ half)


def _cell_stream(seed: int, M: int, realization: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(M, realization))


def nominal_reference(cfg: ExperimentConfig) -> tuple[np.ndarray, float]:
    """Gain and cost of the nominal controller under the true moments."""
    ctrl = riccati.value_iteration(cfg.system, cfg.true_moments, cfg.cost)
    cl = ClosedLoop(sys=cfg.system, K=ctrl.K)
    return ctrl.K, closed_loop_cost(cl, cfg.true_moments, cfg.cost, cfg.x0)


def _run_cell(cfg: ExperimentConfig, J_nom: float, M: int, realization: int) -> list:
    records = []
    stream = _cell_stream(cfg.seed, M, realization)
    samples = sample_gaussian(cfg.true_moments, M, stream)
    amb = build_ambiguity(samples, cfg.ambiguity_config(), lambda_reg=LAMBDA_REG)
    for method in cfg.methods:
        start = time.perf_counter()
        K = None
        try:
            if method == "dr_covariance":
                K = riccati.dr_covariance(cfg.system, amb.mu_hat, amb, cfg.cost).K
            else:
                K = drsynth.synth_full(cfg.system, amb, cfg.cost).controller.K
        except (drsynth.DrSynthesisError, riccati.NotStabilizableError, NumericalFailure):
            K = None
        wall_ms = (time.perf_counter() - start) * 1000.0
        stabilizing, J, J_rel = False, float("inf"), float("inf")
        if K is not None:
            try:  # raises on the same radius < 1 - TOL rule as is_mss
                J = closed_loop_cost(ClosedLoop(sys=cfg.system, K=K), cfg.true_moments,
                                     cfg.cost, cfg.x0)
                stabilizing, J_rel = True, (J - J_nom) / J_nom
            except InstabilityError:
                pass
        records.append(RunRecord(M=M, realization=realization, method=method,
                                 stabilizing=stabilizing, J=J, J_rel=J_rel,
                                 wall_ms=wall_ms))
    return records


def run_sample_complexity(cfg: ExperimentConfig, out_csv=None, jobs: int = 1) -> list:
    """Full sweep over (M, realization) cells; optionally writes the CSV.

    Records come back sorted by (M, realization, method order), so the
    output is identical for any worker count.  The pool starts all its
    workers at once, so it gets at most one per cell and per CPU.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _, J_nom = nominal_reference(cfg)
    cells = [(M, r) for M in cfg.sample_sizes for r in range(cfg.realizations)]
    records: list[RunRecord] = []
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_run_cell, *zip(*[(cfg, J_nom, M, r) for M, r in cells])):
                records.extend(batch)
    else:
        for M, r in cells:
            records.extend(_run_cell(cfg, J_nom, M, r))
    order = {m: i for i, m in enumerate(cfg.methods)}
    records.sort(key=lambda rec: (rec.M, rec.realization, order[rec.method]))
    if out_csv is not None:
        write_records_csv(records, out_csv)
    return records


def write_records_csv(records, path) -> None:
    """CSV with empty J/J_rel cells for non-stabilizing rows.

    All fields except wall_ms are deterministic given the seed; wall_ms is
    informational only.  It is the time one method took to synthesize its
    gain from the cell's ambiguity set (the Riccati or SDP solve and its
    certificate); the sampling, the ambiguity set built once per cell and
    the scoring under the true moments are outside it.
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
EX1_CHUNK = 2000  # trials drawn per batch


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
    x = EX1_THRESHOLD * M / EX1_SIGMA2
    return float(scipy.special.gammainc(M / 2.0, x / 2.0))


def replicate_example1(M: int = 500, trials: int = 100_000, seed: int = 0) -> Example1Result:
    """Failure rate of the empirical approach: analytic and Monte Carlo.

    Each trial draws M scalar Gaussians with the true variance, computes the
    empirical variance (second moment about zero, matching the estimator in
    the example), synthesizes the empirical-optimal gain from the exact
    Riccati root, and tests mean-square stability under the true variance.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    failures = 0
    remaining = trials
    scale = math.sqrt(EX1_SIGMA2)
    while remaining > 0:
        batch = min(EX1_CHUNK, remaining)
        w = scale * rng.standard_normal((batch, M))
        s2 = np.mean(w * w, axis=1)
        stable = scalar_mss(empirical_gain_scalar(s2))
        failures += int(np.count_nonzero(~stable))
        remaining -= batch
    return Example1Result(M=M, trials=trials, analytic=example1_analytic(M),
                          monte_carlo=failures / trials)
