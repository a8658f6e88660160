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

from .matcore import ShapeError, _whole, array_field, require_finite, sym_field, symmetrize

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
        s = array_field("samples", self.samples, ndmin=0)
        if s.ndim != 2:
            raise ShapeError(f"samples must be 2-D, one draw per row, got shape {s.shape}")
        if s.shape[0] < 2:
            raise InsufficientDataError(f"need at least 2 samples, got {s.shape[0]}")
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
    sigma_hat: np.ndarray  # read-only, symmetric
    rho_mu: float
    rho_sigma: float
    regularized: bool = False

    def __post_init__(self):
        mu = array_field("mu_hat", self.mu_hat, ndmin=1).ravel()
        for name, value in (("rho_mu", self.rho_mu), ("rho_sigma", self.rho_sigma)):
            require_finite(name, value)
        if mu.size == 0:
            raise ValueError("mu_hat is empty: the set needs at least one disturbance channel")
        sigma = sym_field("sigma_hat", self.sigma_hat, definite="apply regularization")
        if sigma.shape[0] != mu.size:
            raise ShapeError(f"mu_hat has length {mu.size} but Sigma_hat is {sigma.shape[0]}x{sigma.shape[0]}")
        if self.rho_mu < 0:
            raise ValueError("rho_mu must be nonnegative")
        if self.rho_sigma < 1:
            raise ValueError("rho_sigma must be at least 1")
        object.__setattr__(self, "mu_hat", mu)
        object.__setattr__(self, "sigma_hat", sigma)

    @property
    def n_w(self) -> int:
        return self.mu_hat.size


def empirical_moments(s: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """Empirical mean and covariance, the latter normalized by M (not M - 1)."""
    mu_hat = s.samples.mean(axis=0)
    centered = s.samples - mu_hat
    return mu_hat, symmetrize(centered.T @ centered / s.M)


def _q(beta: float, eps: float, n_w: int) -> float:
    return n_w * math.log(1.0 + 1.0 / eps) + math.log(2.0 / beta)


def _p(beta: float, n_w: int) -> float:
    log_ib = math.log(1.0 / beta)
    return n_w + 2.0 * math.sqrt(n_w * log_ib) + 2.0 * log_ib


def _require_positive(**counts: int) -> None:
    """Raise ValueError naming the count unless each is a whole number at least 1."""
    for name, value in counts.items():
        if _whole(value, name) < 1:
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


def _concentration(config: AmbiguityConfig, n_w: int, M: int) -> tuple[float, float]:
    """(t_mu, t_sigma) at M samples, config's confidence budget beta split evenly."""
    b2 = config.beta / 2.0
    return t_mu(b2, config.sigma2, n_w, M), t_sigma(b2, config.eps, config.sigma2, n_w, M)


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
    while True:
        tm, ts = _concentration(config, n_w, M)
        if 1.0 - tm - ts > 0.0:
            return M
        M += 1


def ambiguity_radii(config: AmbiguityConfig, n_w: int, M: int) -> tuple[float, float]:
    """Inflation radii (rho_mu, rho_sigma); raises SampleSizeError below threshold."""
    _require_positive(M=M)
    M_min = min_sample_size(config, n_w)
    if M < M_min:
        raise SampleSizeError(M, M_min)
    tm, ts = _concentration(config, n_w, M)
    denom = 1.0 - tm - ts
    return tm / denom, 1.0 / denom


def build_ambiguity(s: SampleSet, config: AmbiguityConfig, lambda_reg: float = 0.0) -> MomentAmbiguity:
    """Combine empirical moments and radii into an ambiguity record.

    When the smallest eigenvalue of Sigma_hat falls below lambda_reg, the
    covariance is shifted by lambda_reg * I and the record is flagged as
    regularized (the set grows, adding conservatism but never losing
    coverage).  A negative or non-finite lambda_reg raises ValueError.
    """
    if not 0.0 <= lambda_reg < math.inf:
        raise ValueError(f"lambda_reg must be finite and nonnegative, got {lambda_reg}")
    rho_mu, rho_sigma = ambiguity_radii(config, s.n_w, s.M)
    mu_hat, sigma = empirical_moments(s)
    regularized = False
    if lambda_reg > 0.0 and np.linalg.eigvalsh(sigma)[0] < lambda_reg:
        sigma = sigma + lambda_reg * np.eye(s.n_w)
        regularized = True
    return MomentAmbiguity(mu_hat=mu_hat, sigma_hat=sigma, rho_mu=rho_mu,
                           rho_sigma=rho_sigma, regularized=regularized)


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_samples_csv(path, n_w: int | None = None) -> SampleSet:
    """Read samples from CSV, one draw per row; blank rows are skipped, and so is
    the first non-blank row when none of its cells is a number (a header).

    Ragged rows or non-numeric data rows raise ValueError.
    """
    rows: list[list[float]] = []
    first = True
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for lineno, raw in enumerate(reader, start=1):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            row = [_number(cell) for cell in raw]
            header, first = first and all(v is None for v in row), False
            if header:
                continue
            if None in row:
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
