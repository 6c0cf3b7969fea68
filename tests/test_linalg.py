"""Tests for repro.core.linalg: the masked-posterior machinery."""

import numpy as np
import pytest

from repro.core.linalg import (
    MaskedPosterior,
    dense_posterior,
    nearest_psd_jitter,
    symmetrize,
)
from repro.errors import CovarianceError
from repro.obs import Observability, use


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestSymmetrize:
    def test_result_is_symmetric(self, rng):
        a = rng.standard_normal((5, 5))
        s = symmetrize(a)
        np.testing.assert_allclose(s, s.T)

    def test_symmetric_input_unchanged(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(symmetrize(a), a)


class TestNearestPsdJitter:
    def test_spd_input_untouched(self):
        a = _random_spd(6, 0)
        np.testing.assert_allclose(nearest_psd_jitter(a), a)

    def test_repairs_slightly_indefinite(self):
        a = _random_spd(4, 1)
        a[0, 0] -= np.linalg.eigvalsh(a)[0] * 1.0000001  # tip negative
        repaired = nearest_psd_jitter(a)
        np.linalg.cholesky(repaired)  # must not raise

    def test_passing_matrix_is_returned_without_a_copy(self):
        a = _random_spd(6, 0)
        assert nearest_psd_jitter(a) is a

    def test_non_finite_input_raises(self):
        a = _random_spd(4, 2)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(CovarianceError, match="non-finite"):
            nearest_psd_jitter(a)

    def test_escalations_are_counted(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        indefinite = symmetrize(q @ np.diag([1.0] * 5 + [-1e-6]) @ q.T)
        ob = Observability.recording()
        with use(ob):
            repaired = nearest_psd_jitter(indefinite)
        np.linalg.cholesky(repaired)
        counters = ob.metrics.snapshot()["counters"]
        assert counters["linalg_jitter_escalations_total"] >= 1

    def test_gives_up_on_hopeless_matrix(self):
        hopeless = -1e6 * np.eye(3)
        with pytest.raises(np.linalg.LinAlgError):
            nearest_psd_jitter(hopeless)


class TestMaskedPosterior:
    def test_matches_dense_eq3_partial_mask(self):
        """Woodbury form equals the literal Eq. (3) inverses."""
        n = 12
        sigma = _random_spd(n, 2)
        mu = np.linspace(-1, 1, n)
        noise = 0.3
        obs_idx = np.array([1, 4, 7, 9])
        y_obs = np.array([0.5, -0.2, 1.0, 0.3])

        post = MaskedPosterior(sigma, noise, obs_idx)
        z_dense, cov_dense = dense_posterior(sigma, noise, obs_idx, mu, y_obs)
        np.testing.assert_allclose(post.mean(mu, y_obs), z_dense,
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(post.covariance, cov_dense,
                                   rtol=1e-7, atol=1e-9)

    def test_matches_dense_eq3_full_mask(self):
        n = 8
        sigma = _random_spd(n, 3)
        mu = np.zeros(n)
        noise = 0.1
        obs_idx = np.arange(n)
        y_obs = np.linspace(0, 1, n)
        post = MaskedPosterior(sigma, noise, obs_idx)
        z_dense, cov_dense = dense_posterior(sigma, noise, obs_idx, mu, y_obs)
        np.testing.assert_allclose(post.mean(mu, y_obs), z_dense,
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(post.covariance, cov_dense,
                                   rtol=1e-7, atol=1e-9)

    def test_posterior_mean_interpolates_observations(self):
        """With tiny noise, the posterior passes through the data."""
        sigma = _random_spd(6, 4)
        mu = np.zeros(6)
        obs_idx = np.array([0, 3])
        y_obs = np.array([2.0, -1.0])
        post = MaskedPosterior(sigma, 1e-10, obs_idx)
        zhat = post.mean(mu, y_obs)
        np.testing.assert_allclose(zhat[obs_idx], y_obs, atol=1e-4)

    def test_posterior_variance_shrinks_at_observations(self):
        sigma = _random_spd(6, 5)
        post = MaskedPosterior(sigma, 0.01, np.array([2]))
        cov = post.covariance
        assert cov[2, 2] < sigma[2, 2] * 0.1
        # Unrelated coordinates keep most of their prior variance.
        assert cov[5, 5] > 0

    def test_covariance_is_psd(self):
        sigma = _random_spd(10, 6)
        post = MaskedPosterior(sigma, 0.5, np.array([0, 2, 9]))
        eigenvalues = np.linalg.eigvalsh(symmetrize(post.covariance))
        assert eigenvalues.min() > -1e-9

    def test_unobserved_prior_recovery(self):
        """With huge noise, the posterior reverts to the prior mean."""
        sigma = _random_spd(5, 7)
        mu = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        post = MaskedPosterior(sigma, 1e12, np.array([0]))
        zhat = post.mean(mu, np.array([100.0]))
        np.testing.assert_allclose(zhat, mu, rtol=1e-3)

    def test_observed_loglik_matches_scipy(self):
        from scipy.stats import multivariate_normal
        sigma = _random_spd(7, 8)
        mu = np.linspace(0, 1, 7)
        obs_idx = np.array([1, 3, 6])
        y_obs = np.array([0.4, 0.9, 0.1])
        noise = 0.2
        post = MaskedPosterior(sigma, noise, obs_idx)
        expected = multivariate_normal(
            mean=mu[obs_idx],
            cov=sigma[np.ix_(obs_idx, obs_idx)] + noise * np.eye(3),
        ).logpdf(y_obs)
        assert post.observed_loglik(mu, y_obs) == pytest.approx(expected)

    def test_validation(self):
        sigma = _random_spd(4, 9)
        with pytest.raises(ValueError):
            MaskedPosterior(sigma, 0.0, np.array([0]))
        with pytest.raises(ValueError):
            MaskedPosterior(sigma, 1.0, np.array([], dtype=int))
        post = MaskedPosterior(sigma, 1.0, np.array([0, 1]))
        with pytest.raises(ValueError):
            post.mean(np.zeros(4), np.array([1.0]))
