"""Reference checks the tests hold the library's certificates against.

dr_certify_mss samples the mean ellipsoid of an ambiguity set and checks
mean-square stability at each sampled mean with the inflated covariance.
The library certifies a synthesized gain by the strict feasibility of its
synthesis LMIs, which covers the whole set; this grid is an independent
witness of that claim on finitely many moments.
"""

import numpy as np

from drlqr.matcore import SymMatrix, as_matrix, psd_sqrt
from drlqr.stability import ClosedLoop, is_mss
from drlqr.sysmodel import DisturbanceMoments


def _mean_directions(n_w: int, count: int) -> np.ndarray:
    """Deterministic unit directions used to discretize the mean ellipsoid."""
    if n_w == 1:
        signs = np.array([1.0 if k % 2 == 0 else -1.0 for k in range(count)])
        return signs.reshape(-1, 1)
    if n_w == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    rng = np.random.default_rng(np.random.SeedSequence(0))
    d = rng.standard_normal((count, n_w))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def dr_certify_mss(cl: ClosedLoop, amb, mean_grid: int = 12) -> bool:
    """Sampled sufficient check of distributionally robust mean-square stability.

    Evaluates is_mss with covariance rho_sigma * Sigma_hat at every mean in a
    deterministic grid of mean_grid^2 points covering the ellipsoid
    (mu - mu_hat)^T Sigma_hat^{-1} (mu - mu_hat) <= rho_mu, including its
    center and boundary.  A pass certifies stability only on the grid; the
    exact robust certificate is the synthesis LMI itself.
    """
    if mean_grid < 1:
        raise ValueError("mean_grid must be at least 1")
    sigma_hat = as_matrix(amb.sigma_hat)
    sigma_dr = SymMatrix(amb.rho_sigma * sigma_hat)
    half = as_matrix(psd_sqrt(sigma_hat))
    radius = float(np.sqrt(max(amb.rho_mu, 0.0)))
    mu_hat = np.asarray(amb.mu_hat, dtype=float).ravel()

    means = [mu_hat]
    if radius > 0.0 and mean_grid > 1:
        radii = np.linspace(0.0, 1.0, mean_grid)[1:]
        dirs = _mean_directions(mu_hat.size, mean_grid)
        for r in radii:
            for d in dirs:
                means.append(mu_hat + radius * r * (half @ d))
    for mu in means:
        stable, _ = is_mss(cl, DisturbanceMoments(mu=mu, sigma=sigma_dr))
        if not stable:
            return False
    return True
