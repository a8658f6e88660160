"""Empirical moment estimation and high-probability ambiguity-set radii.

Given i.i.d. disturbance samples with a sub-Gaussian whitened distribution,
the routines here compute the empirical mean/covariance, the concentration
bounds t_sigma and t_mu, the sample-size threshold below which no finite
radii exist, and the resulting inflation radii (rho_mu, rho_sigma).  The
confidence budget beta is always split evenly between the mean and the
covariance bound.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .matcore import ShapeError, SymMatrix, as_matrix, require_finite, symmetrize

DEFAULT_EPS = 1.0 / 30.0


class InsufficientDataError(ValueError):
    """Too few samples for the requested estimate."""


class SampleSizeError(ValueError):
    """Sample count below the threshold needed for finite ambiguity radii."""

    def __init__(self, M: int, M_min: int):
        super().__init__(f"M = {M} samples is below the required minimum M_min = {M_min}")
        self.M = M
        self.M_min = M_min


@dataclass(frozen=True)
class SampleSet:
    """M i.i.d. disturbance draws, one per row."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if s.shape[0] < 2:
            raise InsufficientDataError(f"need at least 2 samples, got {s.shape[0]}")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples contain non-finite entries")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def M(self) -> int:
        return self.samples.shape[0]

    @property
    def n_w(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class AmbiguityConfig:
    """Confidence level, free covariance-bound parameter and variance proxy."""

    beta: float
    eps: float = DEFAULT_EPS
    sigma2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must lie in (0, 1/2), got {self.eps}")
        if not 1.0 <= self.sigma2 < math.inf:
            raise ValueError(f"variance proxy sigma2 must lie in [1, inf), got {self.sigma2}")


@dataclass(frozen=True)
class MomentAmbiguity:
    """Empirical moments with data-driven inflation radii.

    The distribution set is: mean in the ellipsoid
    (mu - mu_hat)^T Sigma_hat^{-1} (mu - mu_hat) <= rho_mu and centered
    second moment dominated by rho_sigma * Sigma_hat.
    """

    mu_hat: np.ndarray
    sigma_hat: SymMatrix
    rho_mu: float
    rho_sigma: float
    regularized: bool = False

    def __post_init__(self):
        mu = np.asarray(self.mu_hat, dtype=float).ravel()
        for name, value in (("mu_hat", mu), ("rho_mu", self.rho_mu), ("rho_sigma", self.rho_sigma)):
            require_finite(name, value)
        sigma = self.sigma_hat if isinstance(self.sigma_hat, SymMatrix) else SymMatrix(np.atleast_2d(self.sigma_hat))
        if sigma.dim != mu.size:
            raise ShapeError(f"mu_hat has length {mu.size} but Sigma_hat is {sigma.dim}x{sigma.dim}")
        if self.rho_mu < 0:
            raise ValueError("rho_mu must be nonnegative")
        if self.rho_sigma < 1:
            raise ValueError("rho_sigma must be at least 1")
        if np.linalg.eigvalsh(as_matrix(sigma))[0] <= 0:
            raise ValueError("Sigma_hat must be strictly positive definite (apply regularization)")
        object.__setattr__(self, "mu_hat", mu)
        object.__setattr__(self, "sigma_hat", sigma)

    @property
    def n_w(self) -> int:
        return self.mu_hat.size


def empirical_moments(s: SampleSet) -> tuple[np.ndarray, SymMatrix]:
    """Empirical mean and covariance, the latter normalized by M (not M - 1)."""
    mu_hat = s.samples.mean(axis=0)
    centered = s.samples - mu_hat
    sigma_hat = symmetrize(centered.T @ centered / s.M)
    return mu_hat, SymMatrix(sigma_hat)


def _q(beta: float, eps: float, n_w: int) -> float:
    return n_w * math.log(1.0 + 1.0 / eps) + math.log(2.0 / beta)


def _p(beta: float, n_w: int) -> float:
    log_ib = math.log(1.0 / beta)
    return n_w + 2.0 * math.sqrt(n_w * log_ib) + 2.0 * log_ib


def _require_positive(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def t_sigma(beta: float, eps: float, sigma2: float, n_w: int, M: int) -> float:
    """Covariance concentration bound for the whitened empirical second moment."""
    _require_positive(n_w=n_w, M=M)
    q = _q(beta, eps, n_w)
    return sigma2 / (1.0 - 2.0 * eps) * (math.sqrt(32.0 * q / M) + 2.0 * q / M)


def t_mu(beta: float, sigma2: float, n_w: int, M: int) -> float:
    """Mean concentration bound for the whitened empirical mean."""
    _require_positive(n_w=n_w, M=M)
    return sigma2 / M * _p(beta, n_w)


def min_sample_size(config: AmbiguityConfig, n_w: int) -> int:
    """Smallest M for which the ambiguity radii are finite.

    Evaluates the explicit quadratic-in-sqrt(M) threshold (a strict
    inequality) and cross-checks positivity of 1 - t_mu - t_sigma.
    """
    _require_positive(n_w=n_w)
    b2 = config.beta / 2.0
    s2, eps = config.sigma2, config.eps
    q = _q(b2, eps, n_w)
    p = _p(b2, n_w)
    num = s2 * math.sqrt(32.0 * q) + math.sqrt(
        32.0 * s2 * s2 * q + 8.0 * s2 * (1.0 - 2.0 * eps) * q + 4.0 * s2 * (1.0 - 2.0 * eps) ** 2 * p
    )
    threshold = (num / (2.0 * (1.0 - 2.0 * eps))) ** 2
    M = math.floor(threshold) + 1
    while 1.0 - t_mu(b2, s2, n_w, M) - t_sigma(b2, eps, s2, n_w, M) <= 0.0:
        M += 1
    return M


def ambiguity_radii(config: AmbiguityConfig, n_w: int, M: int) -> tuple[float, float]:
    """Inflation radii (rho_mu, rho_sigma); raises SampleSizeError below threshold."""
    M_min = min_sample_size(config, n_w)
    if M < M_min:
        raise SampleSizeError(M, M_min)
    b2 = config.beta / 2.0
    tm = t_mu(b2, config.sigma2, n_w, M)
    ts = t_sigma(b2, config.eps, config.sigma2, n_w, M)
    denom = 1.0 - tm - ts
    return tm / denom, 1.0 / denom


def build_ambiguity(s: SampleSet, config: AmbiguityConfig, lambda_reg: float = 0.0) -> MomentAmbiguity:
    """Combine empirical moments and radii into an ambiguity record.

    When the smallest eigenvalue of Sigma_hat falls below lambda_reg, the
    covariance is shifted by lambda_reg * I and the record is flagged as
    regularized (the set grows, adding conservatism but never losing
    coverage).
    """
    rho_mu, rho_sigma = ambiguity_radii(config, s.n_w, s.M)
    mu_hat, sigma_hat = empirical_moments(s)
    sigma = as_matrix(sigma_hat)
    regularized = False
    if lambda_reg > 0.0 and np.linalg.eigvalsh(sigma)[0] < lambda_reg:
        sigma = sigma + lambda_reg * np.eye(s.n_w)
        regularized = True
    return MomentAmbiguity(
        mu_hat=mu_hat,
        sigma_hat=SymMatrix(sigma),
        rho_mu=rho_mu,
        rho_sigma=rho_sigma,
        regularized=regularized,
    )


def load_samples_csv(path, n_w: int | None = None) -> SampleSet:
    """Read samples from CSV, one draw per row; an optional header is skipped.

    Ragged rows or non-numeric data rows raise ValueError.
    """
    rows: list[list[float]] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for lineno, raw in enumerate(reader, start=1):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            try:
                row = [float(cell) for cell in raw]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ValueError(f"non-numeric value on line {lineno}")
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"ragged row on line {lineno}: expected {len(rows[0])} columns, got {len(row)}")
            rows.append(row)
    if not rows:
        raise InsufficientDataError("no data rows in samples file")
    data = np.array(rows, dtype=float)
    if n_w is not None and data.shape[1] != n_w:
        raise ShapeError(f"samples have {data.shape[1]} columns, expected {n_w}")
    return SampleSet(samples=data)


def save_samples_csv(s: SampleSet, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in s.samples:
            writer.writerow([repr(float(v)) for v in row])
