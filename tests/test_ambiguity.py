import math

import numpy as np
import pytest

from drlqr.ambiguity import (AmbiguityConfig, InsufficientDataError, MomentAmbiguity,
                             SampleSet, SampleSizeError, ambiguity_radii,
                             build_ambiguity, empirical_moments,
                             load_samples_csv, min_sample_size,
                             save_samples_csv, t_mu, t_sigma)
from drlqr.matcore import DomainError, SymMatrix, as_matrix

BETA = 0.05
EPS = 1.0 / 30.0


class TestEmpiricalMoments:
    def test_identical_rows(self):
        s = SampleSet(np.tile([1.0, -2.0], (5, 1)))
        mu, sigma = empirical_moments(s)
        assert np.allclose(mu, [1.0, -2.0])
        assert np.allclose(as_matrix(sigma), 0.0)

    def test_two_point_support(self):
        s = SampleSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        mu, sigma = empirical_moments(s)
        assert np.allclose(mu, 0.0)
        assert np.allclose(as_matrix(sigma), np.diag([1.0, 0.0]))

    def test_normalization_by_M(self):
        # With M in the denominator the two-sample variance is d^2/4, not d^2/2.
        s = SampleSet(np.array([[0.0], [2.0]]))
        _, sigma = empirical_moments(s)
        assert np.isclose(as_matrix(sigma)[0, 0], 1.0)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(0)
        mu_true = np.array([0.3, -0.7])
        half = np.array([[1.0, 0.0], [0.5, 1.2]])
        draws = mu_true + rng.standard_normal((10 ** 6, 2)) @ half.T
        mu, sigma = empirical_moments(SampleSet(draws))
        assert np.linalg.norm(mu - mu_true) < 5e-3
        assert np.linalg.norm(as_matrix(sigma) - half @ half.T) < 2e-2

    def test_matches_two_pass_formula(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((37, 3)) * 10.0 + 100.0
        mu, sigma = empirical_moments(SampleSet(x))
        direct = sum(np.outer(r - mu, r - mu) for r in x) / 37.0
        assert np.linalg.norm(as_matrix(sigma) - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            SampleSet(np.array([[1.0, 2.0]]))


class TestConcentrationBounds:
    def test_t_sigma_anchor(self):
        # n_w = 2, beta/2 = 0.025, eps = 1/30, M = 1000:
        # q = 2 log(31) + log(80) = 11.2500...
        q = 2.0 * math.log(31.0) + math.log(80.0)
        assert np.isclose(q, 11.250001043644174)
        expected = (1.0 / (1.0 - 2.0 * EPS)) * (math.sqrt(32.0 * q / 1000.0) + 2.0 * q / 1000.0)
        got = t_sigma(BETA / 2.0, EPS, 1.0, 2, 1000)
        assert np.isclose(got, expected, rtol=1e-14)
        assert np.isclose(got, 0.6669643, atol=1e-6)

    def test_t_mu_anchor(self):
        # p = 2 + 2 sqrt(2 log 40) + 2 log 40 = 14.810...
        p = 2.0 + 2.0 * math.sqrt(2.0 * math.log(40.0)) + 2.0 * math.log(40.0)
        got = t_mu(BETA / 2.0, 1.0, 2, 1000)
        assert np.isclose(got, p / 1000.0, rtol=1e-14)
        assert np.isclose(got, 0.0148102, atol=1e-6)

    def test_monotone_in_M(self):
        for M in (500, 1000, 2000, 4000):
            assert t_sigma(BETA / 2.0, EPS, 1.0, 2, 2 * M) < t_sigma(BETA / 2.0, EPS, 1.0, 2, M)
            assert t_mu(BETA / 2.0, 1.0, 2, 2 * M) < t_mu(BETA / 2.0, 1.0, 2, M)

    def test_monotone_in_beta(self):
        assert t_sigma(0.01, EPS, 1.0, 2, 1000) > t_sigma(0.1, EPS, 1.0, 2, 1000)
        assert t_mu(0.01, 1.0, 2, 1000) > t_mu(0.1, 1.0, 2, 1000)

    def test_scales_with_sigma2(self):
        assert np.isclose(t_mu(0.025, 3.0, 2, 1000), 3.0 * t_mu(0.025, 1.0, 2, 1000))
        assert np.isclose(t_sigma(0.025, EPS, 3.0, 2, 1000),
                          3.0 * t_sigma(0.025, EPS, 1.0, 2, 1000))

    @pytest.mark.parametrize("n_w, M, name", [(2, 0, "M"), (2, -3, "M"),
                                              (0, 1000, "n_w"), (-1, 1000, "n_w")])
    def test_rejects_empty_counts(self, n_w, M, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            t_sigma(0.025, EPS, 1.0, n_w, M)
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            t_mu(0.025, 1.0, n_w, M)


class TestMinSampleSize:
    def test_anchor_value(self):
        cfg = AmbiguityConfig(beta=BETA, eps=EPS, sigma2=1.0)
        assert min_sample_size(cfg, 2) == 488

    def test_boundary(self):
        cfg = AmbiguityConfig(beta=BETA, eps=EPS, sigma2=1.0)
        M_min = min_sample_size(cfg, 2)
        b2 = BETA / 2.0

        def slack(M):
            return 1.0 - t_mu(b2, 1.0, 2, M) - t_sigma(b2, EPS, 1.0, 2, M)

        assert slack(M_min) > 0.0
        assert slack(M_min - 1) <= 0.0

    def test_grows_with_dimension(self):
        cfg = AmbiguityConfig(beta=BETA)
        sizes = [min_sample_size(cfg, n) for n in (1, 2, 4, 8)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    @pytest.mark.parametrize("n_w", [0, -1])
    def test_rejects_empty_dimension(self, n_w):
        with pytest.raises(ValueError, match="^n_w must be at least 1"):
            min_sample_size(AmbiguityConfig(beta=BETA), n_w)


class TestAmbiguityRadii:
    def test_anchor_values(self):
        cfg = AmbiguityConfig(beta=BETA, eps=EPS, sigma2=1.0)
        rho_mu, rho_sigma = ambiguity_radii(cfg, 2, 1000)
        assert np.isclose(rho_mu, 0.0465398, atol=1e-6)
        assert np.isclose(rho_sigma, 3.1424256, atol=1e-6)

    def test_large_M_limits(self):
        cfg = AmbiguityConfig(beta=BETA)
        rho_mu, rho_sigma = ambiguity_radii(cfg, 2, 10 ** 9)
        assert rho_mu < 1e-6
        assert abs(rho_sigma - 1.0) < 1e-3

    def test_below_threshold(self):
        cfg = AmbiguityConfig(beta=BETA)
        with pytest.raises(SampleSizeError) as exc:
            ambiguity_radii(cfg, 2, 100)
        assert exc.value.M_min == 488
        assert "488" in str(exc.value)

    def test_decreasing_in_M(self):
        cfg = AmbiguityConfig(beta=BETA)
        grid = [500, 1000, 2000, 4000, 16000]
        radii = [ambiguity_radii(cfg, 2, M) for M in grid]
        for (mu_a, sig_a), (mu_b, sig_b) in zip(radii, radii[1:]):
            assert mu_b < mu_a
            assert sig_b < sig_a
        assert all(sig >= 1.0 for _, sig in radii)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0}, {"beta": 1.0}, {"beta": 0.05, "eps": 0.5},
        {"beta": 0.05, "eps": 0.0}, {"beta": 0.05, "sigma2": 0.5},
        {"beta": 0.05, "sigma2": float("inf")}, {"beta": 0.05, "sigma2": float("nan")},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            AmbiguityConfig(**kwargs)


class TestMomentAmbiguity:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["mu_hat", "rho_mu", "rho_sigma"])
    def test_non_finite_field_is_domain_error(self, field, bad):
        kwargs = dict(mu_hat=np.zeros(2), sigma_hat=SymMatrix(np.eye(2)), rho_mu=0.05, rho_sigma=2.0)
        kwargs[field] = np.array([0.0, bad]) if field == "mu_hat" else bad
        with pytest.raises(DomainError, match=field):
            MomentAmbiguity(**kwargs)


class TestBuildAmbiguity:
    def test_plain_path(self):
        rng = np.random.default_rng(2)
        s = SampleSet(rng.standard_normal((1000, 2)))
        amb = build_ambiguity(s, AmbiguityConfig(beta=BETA))
        assert not amb.regularized
        assert np.isclose(amb.rho_sigma, 3.1424256, atol=1e-6)
        mu, sigma = empirical_moments(s)
        assert np.allclose(amb.mu_hat, mu)
        assert np.allclose(as_matrix(amb.sigma_hat), as_matrix(sigma))

    def test_regularization_kicks_in(self):
        rng = np.random.default_rng(3)
        # second coordinate identically zero makes Sigma_hat singular
        draws = np.column_stack([rng.standard_normal(1000), np.zeros(1000)])
        s = SampleSet(draws)
        amb = build_ambiguity(s, AmbiguityConfig(beta=BETA), lambda_reg=1e-8)
        assert amb.regularized
        assert np.linalg.eigvalsh(as_matrix(amb.sigma_hat))[0] >= 1e-8 * 0.99

    def test_singular_without_reg_rejected(self):
        draws = np.column_stack([np.arange(1000.0), np.zeros(1000)])
        with pytest.raises(ValueError):
            build_ambiguity(SampleSet(draws), AmbiguityConfig(beta=BETA))


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        s = SampleSet(rng.standard_normal((50, 3)))
        p = tmp_path / "w.csv"
        save_samples_csv(s, p)
        back = load_samples_csv(p)
        assert np.array_equal(back.samples, s.samples)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("w1,w2\n1.0,2.0\n3.0,4.0\n")
        s = load_samples_csv(p)
        assert s.M == 2
        assert np.allclose(s.samples, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError):
            load_samples_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("1.0,2.0\nfoo,4.0\n")
        with pytest.raises(ValueError):
            load_samples_csv(p)

    def test_column_count_check(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(Exception):
            load_samples_csv(p, n_w=3)


class TestCoverageSmoke:
    def test_whitened_moments_inside_set_most_of_the_time(self):
        """The radii are conservative, so empirical coverage should be high."""
        rng = np.random.default_rng(5)
        cfg = AmbiguityConfig(beta=0.2)
        misses = 0
        trials = 40
        for _ in range(trials):
            draws = rng.standard_normal((600, 2))
            amb = build_ambiguity(SampleSet(draws), cfg, lambda_reg=1e-8)
            sig = as_matrix(amb.sigma_hat)
            inv = np.linalg.inv(sig)
            # true moments: mu = 0, Sigma = I
            mean_ok = amb.mu_hat @ inv @ amb.mu_hat <= amb.rho_mu
            cov_ok = np.linalg.eigvalsh(amb.rho_sigma * sig - np.eye(2))[0] >= 0.0
            if not (mean_ok and cov_ok):
                misses += 1
        assert misses <= math.ceil(0.2 * trials)
