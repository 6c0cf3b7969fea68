"""The expectation-maximization engine (paper Section 5.3).

Alternates the E-step (Eq. 3: posterior moments of each application's
latent curve z_i given the current parameters) with the M-step (Eq. 4:
re-estimating theta = {mu, Sigma, sigma}) until the observed-data
log-likelihood stabilizes.  The paper reports convergence in 3-4
iterations on its benchmark set; the engine caps iterations and reports
whether the tolerance was reached.

The M-step follows Eq. (4) with the normal-inverse-Wishart terms placed
inside the normalizer (see DESIGN.md section 2 for why the printed
formula's placement cannot be literal).  Passing ``prior=None`` removes
the NIW terms entirely, giving the exact maximum-likelihood M-step, under
which EM's classic monotonicity guarantee holds and is property-tested.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import List, Optional

import numpy as np

from repro.core.linalg import (
    MaskedPosterior,
    nearest_psd_jitter,
    symmetrize,
)
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior
from repro.errors import ConvergenceError
from repro.faults.context import get_injector
from repro.obs import get_observability

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM engine.

    Attributes:
        max_iterations: Hard cap on EM iterations.
        tol: Relative log-likelihood change below which EM stops.
        min_noise_var: Floor on sigma^2 to keep posteriors well-posed.
        use_woodbury: Use the masked Woodbury E-step (True) or the
            literal dense Eq. (3) inverses (False; for the ablation).
        raise_on_nonconvergence: Raise :class:`~repro.errors.
            ConvergenceError` when the iteration cap is hit without
            meeting the tolerance, instead of returning
            ``converged=False``.  Off by default: the paper's runtime
            deliberately runs few iterations and accepts the partial
            fit.  A non-finite log-likelihood *always* raises — a
            NaN-poisoned fit is never returned.
    """

    max_iterations: int = 50
    tol: float = 1e-6
    min_noise_var: float = 1e-10
    use_woodbury: bool = True
    raise_on_nonconvergence: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.min_noise_var <= 0:
            raise ValueError(
                f"min_noise_var must be positive, got {self.min_noise_var}"
            )


@dataclasses.dataclass
class EMResult:
    """Fitted parameters and posterior summaries.

    Attributes:
        mu: Estimated shared mean, shape ``(n,)``.
        sigma_mat: Estimated shared covariance Sigma, shape ``(n, n)``.
        noise_var: Estimated measurement noise sigma^2.
        zhat: Posterior means E(z_i), shape ``(M, n)`` — row M-1 is the
            target application's estimate (paper Section 5.4).
        zvar: Posterior variances diag(Cov(z_i)), shape ``(M, n)``,
            quantifying per-configuration estimation uncertainty.
        loglik_history: Observed-data log-likelihood before each E-step.
        iterations: EM iterations executed.
        converged: Whether the tolerance was met before the cap.
    """

    mu: np.ndarray
    sigma_mat: np.ndarray
    noise_var: float
    zhat: np.ndarray
    zvar: np.ndarray
    loglik_history: List[float]
    iterations: int
    converged: bool


def _default_initialization(obs: ObservationSet):
    """Offline-flavoured initialization (paper Section 5.5).

    mu starts at the per-configuration mean of whatever was observed;
    Sigma at the sample covariance of the fully observed rows (falling
    back to a scaled identity); sigma^2 at one percent of the data
    variance.
    """
    values, mask = obs.values, obs.mask
    counts = mask.sum(axis=0)
    col_sum = values.sum(axis=0)
    global_mean = values[mask].mean()
    mu = np.where(counts > 0, col_sum / np.maximum(counts, 1), global_mean)

    full_rows = mask.all(axis=1)
    data_var = float(values[mask].var())
    if data_var <= 0:
        data_var = 1.0
    if full_rows.sum() >= 2:
        sigma_mat = np.cov(values[full_rows], rowvar=False)
        sigma_mat = nearest_psd_jitter(symmetrize(
            sigma_mat + 0.05 * data_var * np.eye(obs.num_configs)))
    else:
        sigma_mat = data_var * np.eye(obs.num_configs)
    noise_var = max(0.01 * data_var, 1e-8)
    return mu, sigma_mat, noise_var


class EMEngine:
    """Runs EM for the hierarchical model on an observation set.

    Each iteration's dense work is one :class:`~repro.core.linalg.
    MaskedPosterior` per mask group — for the fully observed group one
    Cholesky factorization and one Cholesky inverse, for a partially
    observed group k x k work and one exactly symmetric ``W'W`` product
    — and one Cholesky check of the M-step's Sigma in
    :func:`~repro.core.linalg.nearest_psd_jitter`.  Every Sigma iterate
    is exactly symmetric by construction, so nothing is symmetrized per
    iteration; the engine keeps no state between fits.
    """

    def __init__(self, prior: Optional[NIWPrior] = None,
                 config: EMConfig = EMConfig()) -> None:
        self.prior = prior
        self.config = config

    # ------------------------------------------------------------------
    def fit(self, obs: ObservationSet,
            init_mu: Optional[np.ndarray] = None,
            init_sigma: Optional[np.ndarray] = None,
            init_noise_var: Optional[float] = None) -> EMResult:
        """Fit theta = {mu, Sigma, sigma^2} and the posterior curves."""
        n = obs.num_configs
        m = obs.num_applications
        default_mu, default_sigma, default_noise = _default_initialization(obs)
        mu = np.asarray(init_mu, dtype=float) if init_mu is not None else default_mu
        if mu.shape != (n,):
            raise ValueError(f"init_mu shape {mu.shape} != ({n},)")
        sigma_mat = (nearest_psd_jitter(symmetrize(
                         np.asarray(init_sigma, dtype=float)))
                     if init_sigma is not None else default_sigma)
        if sigma_mat.shape != (n, n):
            raise ValueError(f"init_sigma shape {sigma_mat.shape} != ({n}, {n})")
        noise_var = (float(init_noise_var) if init_noise_var is not None
                     else default_noise)
        if noise_var <= 0:
            raise ValueError(f"init_noise_var must be positive, got {noise_var}")

        # Fault-injection hook: force the failure modes the numerical
        # guards below exist for.
        for spec in get_injector().fire("em.fit"):
            if spec.kind == "em-nonconvergence":
                raise ConvergenceError(
                    "injected EM non-convergence",
                    iterations=self.config.max_iterations)
            if spec.kind == "singular-covariance":
                if spec.magnitude < 0:
                    sigma_mat = np.full_like(sigma_mat, np.nan)
                else:
                    # A singular starting Sigma: repairable, so this
                    # exercises the jitter-escalation guard; a negative
                    # magnitude poisons it outright, so the guard raises
                    # CovarianceError.
                    sigma_mat = sigma_mat * spec.magnitude
                sigma_mat = nearest_psd_jitter(sigma_mat)

        groups = obs.mask_groups()
        loglik_history: List[float] = []
        zhat = np.zeros((m, n))
        zvar = np.zeros((m, n))
        converged = False
        iterations = 0

        ob = get_observability()
        with ob.tracer.span("em.fit", num_applications=m, num_configs=n,
                            use_woodbury=self.config.use_woodbury) as fit_span:
            for iterations in range(1, self.config.max_iterations + 1):
                with ob.tracer.span("em.iteration",
                                    iteration=iterations) as it_span:
                    # ---------------- E-step (Eq. 3) ----------------
                    # Each mask group is handled as one stacked solve:
                    # the factorization is computed once per group and
                    # applied to all matching applications at once.
                    loglik = 0.0
                    sum_cov = None
                    sse_obs = 0.0  # sum over observed entries of (zhat - y)^2
                    trace_obs = 0.0  # sum over observed entries of diag(C)
                    dense_sigma_inv = None
                    if not self.config.use_woodbury:
                        # The literal Eq. (3) needs Sigma^{-1}; it depends
                        # only on the iteration's parameters, not the mask.
                        dense_sigma_inv = np.linalg.inv(
                            nearest_psd_jitter(sigma_mat))
                    for obs_idx, apps in groups:
                        apps_arr = np.asarray(apps)
                        y_rows = obs.values[apps_arr][:, obs_idx]
                        if self.config.use_woodbury:
                            post = MaskedPosterior(sigma_mat, noise_var,
                                                   obs_idx)
                            cov = post.covariance
                            zhat[apps_arr] = post.means(mu, y_rows)
                            loglik += float(post.logliks(mu, y_rows).sum())
                        else:
                            cov, zhat_rows = self._dense_group_posterior(
                                dense_sigma_inv, noise_var, obs_idx, mu,
                                y_rows, n)
                            zhat[apps_arr] = zhat_rows
                            check = MaskedPosterior(sigma_mat, noise_var,
                                                    obs_idx)
                            loglik += float(check.logliks(mu, y_rows).sum())
                        diag_cov = np.diag(cov)
                        zvar[apps_arr] = diag_cov
                        if sum_cov is None:
                            sum_cov = len(apps) * cov
                        else:
                            sum_cov += cov if len(apps) == 1 else (
                                len(apps) * cov)
                        trace_obs += len(apps) * float(diag_cov[obs_idx].sum())
                        diffs = zhat[apps_arr][:, obs_idx] - y_rows
                        sse_obs += float(np.einsum("ij,ij->", diffs, diffs))

                    if not np.isfinite(loglik):
                        raise ConvergenceError(
                            f"EM log-likelihood became non-finite "
                            f"({loglik!r}) at iteration {iterations}",
                            iterations=iterations, loglik=loglik)
                    loglik_history.append(loglik)
                    it_span.set_attribute("loglik", loglik)
                    ob.metrics.inc("em_iterations_total")
                    if len(loglik_history) >= 2:
                        prev = loglik_history[-2]
                        it_span.set_attribute("loglik_delta", loglik - prev)
                        if (abs(loglik - prev)
                                <= self.config.tol * (abs(prev) + 1.0)):
                            converged = True

                    if not converged:
                        # ---------------- M-step (Eq. 4) ----------------
                        mu, sigma_mat, noise_var = self._m_step(
                            obs, zhat, sum_cov, sse_obs, trace_obs)
                if converged:
                    break
            fit_span.set_attribute("iterations", iterations)
            fit_span.set_attribute("converged", converged)

        if not converged:
            if self.config.raise_on_nonconvergence:
                raise ConvergenceError(
                    f"EM hit the iteration cap ({iterations}) without "
                    f"reaching tol={self.config.tol}",
                    iterations=iterations,
                    loglik=loglik_history[-1] if loglik_history
                    else float("nan"))
            logger.debug(
                "EM stopped at the iteration cap without converging",
                extra={"fields": {"iterations": iterations,
                                  "tol": self.config.tol}})
        return EMResult(mu=mu, sigma_mat=sigma_mat, noise_var=noise_var,
                        zhat=zhat, zvar=zvar, loglik_history=loglik_history,
                        iterations=iterations, converged=converged)

    # ------------------------------------------------------------------
    @staticmethod
    def _dense_group_posterior(sigma_inv: np.ndarray, noise_var: float,
                               obs_idx: np.ndarray, mu: np.ndarray,
                               y_rows: np.ndarray, n: int):
        """Literal Eq. (3) for one mask group, as a stacked solve.

        Mathematically identical to calling
        :func:`repro.core.linalg.dense_posterior` once per application,
        but the O(n^3) precision inverse is computed once per group and
        the per-application means collapse into a single matrix product.
        Retained for the Woodbury ablation benchmark.
        """
        indicator = np.zeros(n)
        indicator[obs_idx] = 1.0
        precision = np.diag(indicator / noise_var) + sigma_inv
        cov = np.linalg.inv(precision)
        y_full = np.zeros((y_rows.shape[0], n))
        y_full[:, obs_idx] = y_rows
        rhs = indicator * y_full / noise_var + sigma_inv @ mu
        zhat_rows = rhs @ cov.T
        return symmetrize(cov), zhat_rows

    # ------------------------------------------------------------------
    def _m_step(self, obs: ObservationSet, zhat: np.ndarray,
                sum_cov: np.ndarray, sse_obs: float, trace_obs: float):
        m, n = zhat.shape
        prior = self.prior

        if prior is None:
            mu = zhat.mean(axis=0)
        else:
            mu0 = prior.mu0_vector(n)
            mu = (prior.pi * mu0 + zhat.sum(axis=0)) / (m + prior.pi)

        # Every term is exactly symmetric (``C'C`` is one symmetric BLAS
        # product), and the sums are made in place on one n x n array.
        centered = zhat - mu
        sigma_mat = centered.T @ centered
        sigma_mat += sum_cov
        if prior is None:
            sigma_mat /= m
        else:
            prior.add_psi(sigma_mat)
            dev = mu - prior.mu0_vector(n)
            outer = np.outer(dev, dev)
            outer *= prior.pi
            sigma_mat += outer
            sigma_mat /= m + prior.nu
        sigma_mat = nearest_psd_jitter(sigma_mat)

        noise_var = (trace_obs + sse_obs) / obs.total_observations
        noise_var = max(noise_var, self.config.min_noise_var)
        return mu, sigma_mat, noise_var
