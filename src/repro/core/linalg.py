"""Numerical linear algebra for the EM engine.

Two concerns live here:

* **Stability** — covariance iterates must stay symmetric positive
  definite through hundreds of floating-point updates.  They are
  exactly symmetric by construction (symmetric products, in-place
  sums, a mirrored inverse), and :func:`nearest_psd_jitter` checks
  positive definiteness with one Cholesky factorization per update.
* **Efficiency** — the E-step posterior (paper Eq. 3)

      Cov(z_i) = (diag(L_i)/sigma^2 + Sigma^{-1})^{-1}

  is an n x n inverse per application if computed naively.  Rewriting it
  with the Woodbury identity over the k = |Omega_i| observed coordinates,

      Cov(z_i) = Sigma - Sigma[:, O] (Sigma[O, O] + sigma^2 I)^{-1} Sigma[O, :],
      E(z_i)   = mu + Sigma[:, O] (Sigma[O, O] + sigma^2 I)^{-1} (y[O] - mu[O]),

  costs O(n^2 k + k^3) and — crucially — the covariance depends only on
  the *mask*, so applications sharing a mask (all M-1 fully observed
  priors) share one factorization (:class:`MaskedPosterior`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import linalg as sla

from repro.errors import CovarianceError
from repro.obs import get_metrics, start_timer, stop_timer

#: Rows per strip of :func:`_mirror_lower`, and the strict upper
#: triangle of a diagonal block of that size.
_MIRROR_BLOCK = 64
_BLOCK_UPPER = np.triu(np.ones((_MIRROR_BLOCK, _MIRROR_BLOCK), bool), 1)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """The symmetric part ``(A + A') / 2``."""
    return 0.5 * (a + a.T)


def _add_to_diagonal(a: np.ndarray, value: float) -> None:
    """``a += value * I`` in place, for a square ``a``."""
    a.flat[::a.shape[0] + 1] += value


def _mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the lower triangle of square ``a`` onto its upper one, in
    place, one strip of rows at a time; the result is exactly
    symmetric."""
    n = a.shape[0]
    for lo in range(0, n, _MIRROR_BLOCK):
        hi = min(lo + _MIRROR_BLOCK, n)
        a[lo:hi, hi:] = a[hi:, lo:hi].T
        block = a[lo:hi, lo:hi]
        np.copyto(block, block.T, where=_BLOCK_UPPER[:hi - lo, :hi - lo])
    return a


def _cholesky(a: np.ndarray, overwrite: bool = False):
    """LAPACK ``potrf`` of a symmetric ``a``: ``(factor, info)``.

    The factor is Fortran-ordered with ``L`` in its lower triangle (the
    upper one is left as it was).  A C-ordered ``a`` is handed over as
    its transpose, which is the same matrix, so no reordering copy is
    made.
    """
    if not a.flags.f_contiguous:
        a = a.T
    return sla.lapack.dpotrf(a, lower=1, clean=0, overwrite_a=overwrite)


def nearest_psd_jitter(a: np.ndarray, max_tries: int = 12) -> np.ndarray:
    """Return ``a`` with just enough diagonal jitter to be Cholesky-able.

    ``a`` must be symmetric (see :func:`symmetrize`).  One Cholesky
    factorization checks it; a matrix that passes is returned as is,
    without a copy.  Otherwise the jitter starts from a relative 1e-12
    of the mean diagonal and grows by 10x per failed attempt.  Raises
    :class:`~repro.errors.CovarianceError` (a ``np.linalg.LinAlgError``
    subclass, so legacy handlers keep working) when the matrix contains
    non-finite entries or cannot be repaired within ``max_tries``
    escalations — either indicates a genuinely broken update, not
    roundoff.  Escalations past the first attempt are counted on the
    ambient metrics registry (``linalg_jitter_escalations_total``).
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise CovarianceError(
            "covariance matrix contains non-finite entries")
    scale = float(np.mean(np.diag(a)))
    if scale <= 0 or not np.isfinite(scale):
        scale = 1.0
    repaired = a
    for attempt in range(max_tries):
        if _cholesky(repaired)[1] == 0:
            return repaired
        jitter = scale * 10.0 ** (attempt - 12)
        if attempt:
            get_metrics().inc("linalg_jitter_escalations_total")
        repaired = a.copy()
        _add_to_diagonal(repaired, jitter)
    raise CovarianceError("matrix is not repairable to positive definite")


def cholesky_logdet(chol_lower: np.ndarray) -> float:
    """``log det(A)`` from A's lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(chol_lower))))


class MaskedPosterior:
    """Posterior of z given observations at a fixed index subset.

    Precomputes everything that depends only on (Sigma, sigma^2, Omega)
    so that the per-application mean is a cheap matrix-vector product.
    For a symmetric Sigma the covariance is exactly symmetric.

    Args:
        sigma_mat: Prior covariance Sigma, ``(n, n)``, SPD and symmetric.
        noise_var: Observation noise sigma^2 (> 0).
        obs_idx: Sorted observed configuration indices Omega.
    """

    def __init__(self, sigma_mat: np.ndarray, noise_var: float,
                 obs_idx: np.ndarray) -> None:
        if noise_var <= 0:
            raise ValueError(f"noise_var must be positive, got {noise_var}")
        obs_idx = np.asarray(obs_idx, dtype=int)
        if obs_idx.ndim != 1 or obs_idx.size == 0:
            raise ValueError("obs_idx must be a non-empty 1-D index array")
        n = sigma_mat.shape[0]
        if sigma_mat.shape != (n, n):
            raise ValueError(f"Sigma must be square, got {sigma_mat.shape}")
        self.obs_idx = obs_idx
        self.noise_var = float(noise_var)

        started = start_timer()
        if obs_idx.size == n and np.array_equal(obs_idx, np.arange(n)):
            # Fully observed fast path (the M-1 offline applications):
            # with S = Sigma + noise I and K = S^{-1},
            #   G = I - noise K   and   Cov(z) = noise G,
            # so one Cholesky and one Cholesky inverse do all the work.
            s_full = sigma_mat.T.copy(order="F")
            _add_to_diagonal(s_full, noise_var)
            factor = self._factor(s_full)
            k_inv, info = sla.lapack.dpotri(factor, lower=1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"dpotri failed with info={info}")
            gain = _mirror_lower(k_inv).T  # C-ordered, same matrix
            gain *= -noise_var
            _add_to_diagonal(gain, 1.0)
            self._gain_t = gain
            self._cov = noise_var * gain
        else:
            # With L L' = Sigma[O, O] + noise I and W = L^{-1} Sigma[O, :],
            #   Cov(z) = Sigma - W'W   and   G' = L^{-T} W,
            # where W'W is computed as an exactly symmetric product.
            s_on = sigma_mat[obs_idx, :]                   # (k, n)
            s_oo = s_on[:, obs_idx]
            _add_to_diagonal(s_oo, noise_var)
            factor = self._factor(s_oo)
            w = sla.solve_triangular(factor, s_on, lower=True,
                                     check_finite=False)
            self._gain_t = sla.solve_triangular(
                factor, w, lower=True, trans="T", check_finite=False)
            cov = w.T @ w
            self._cov = np.subtract(sigma_mat, cov, out=cov)
        self._chol = (factor, True)
        self._logdet = cholesky_logdet(factor)
        get_metrics().inc("linalg_posterior_factorizations_total")
        stop_timer("linalg_posterior_seconds", started)

    @staticmethod
    def _factor(s: np.ndarray) -> np.ndarray:
        """The Cholesky factor of ``s``, computed in place."""
        factor, info = _cholesky(s, overwrite=True)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"Sigma[O, O] + noise I is not positive definite "
                f"(potrf info={info})")
        return factor

    @property
    def covariance(self) -> np.ndarray:
        """Cov(z_i), identical for every application with this mask."""
        return self._cov

    def mean(self, mu: np.ndarray, y_obs: np.ndarray) -> np.ndarray:
        """E(z_i) for one application's observed values ``y_obs``.

        ``y_obs`` must be ordered like ``obs_idx``.
        """
        if y_obs.shape != self.obs_idx.shape:
            raise ValueError(
                f"y_obs shape {y_obs.shape} != obs count {self.obs_idx.shape}"
            )
        residual = y_obs - mu[self.obs_idx]
        return mu + residual @ self._gain_t

    def means(self, mu: np.ndarray, y_obs_rows: np.ndarray) -> np.ndarray:
        """E(z_i) for a batch of applications sharing this mask.

        ``y_obs_rows`` has shape ``(m, k)``; returns ``(m, n)``.  One
        matrix product replaces m matrix-vector products.
        """
        if y_obs_rows.ndim != 2 or y_obs_rows.shape[1] != self.obs_idx.size:
            raise ValueError(
                f"y_obs_rows must be (m, {self.obs_idx.size}), "
                f"got {y_obs_rows.shape}"
            )
        residuals = y_obs_rows - mu[self.obs_idx]
        return mu + residuals @ self._gain_t

    def logliks(self, mu: np.ndarray, y_obs_rows: np.ndarray) -> np.ndarray:
        """Observed-data log-likelihood of each application in a batch."""
        if y_obs_rows.ndim != 2 or y_obs_rows.shape[1] != self.obs_idx.size:
            raise ValueError(
                f"y_obs_rows must be (m, {self.obs_idx.size}), "
                f"got {y_obs_rows.shape}"
            )
        residuals = y_obs_rows - mu[self.obs_idx]
        alphas = sla.cho_solve(self._chol, residuals.T, check_finite=False)
        quads = np.einsum("km,km->m", residuals.T, alphas)
        k = self.obs_idx.size
        return -0.5 * (quads + self._logdet + k * np.log(2 * np.pi))

    def observed_loglik(self, mu: np.ndarray, y_obs: np.ndarray) -> float:
        """Log N(y_obs | mu[O], Sigma[O, O] + sigma^2 I).

        This is one application's contribution to the observed-data
        log-likelihood at the current parameters.
        """
        residual = y_obs - mu[self.obs_idx]
        alpha = sla.cho_solve(self._chol, residual, check_finite=False)
        k = self.obs_idx.size
        return float(-0.5 * (residual @ alpha + self._logdet
                             + k * np.log(2 * np.pi)))


def dense_posterior(sigma_mat: np.ndarray, noise_var: float,
                    obs_idx: np.ndarray, mu: np.ndarray,
                    y_obs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Literal Eq. (3): the dense-inverse form of the posterior.

    Computes ``C = (diag(L)/sigma^2 + Sigma^{-1})^{-1}`` and
    ``zhat = C (diag(L) y / sigma^2 + Sigma^{-1} mu)`` by direct solves.
    Mathematically identical to :class:`MaskedPosterior` but O(n^3) per
    call; retained for the correctness cross-check and the Woodbury
    ablation benchmark.
    """
    started = start_timer()
    n = sigma_mat.shape[0]
    indicator = np.zeros(n)
    indicator[np.asarray(obs_idx, dtype=int)] = 1.0
    y_full = np.zeros(n)
    y_full[np.asarray(obs_idx, dtype=int)] = y_obs

    sigma_inv = np.linalg.inv(nearest_psd_jitter(symmetrize(sigma_mat)))
    precision = np.diag(indicator / noise_var) + sigma_inv
    cov = np.linalg.inv(precision)
    zhat = cov @ (indicator * y_full / noise_var + sigma_inv @ mu)
    stop_timer("linalg_dense_posterior_seconds", started)
    return zhat, symmetrize(cov)
