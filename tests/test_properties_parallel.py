"""Property tests for the parallel harness and the batched E-step.

These lock down the two claims the parallel/batched PR rests on:

* **Batching changes nothing** — the stacked mask-group E-step
  (`MaskedPosterior.means` / `logliks`, `EMEngine._dense_group_posterior`)
  produces the same numbers as the one-application-at-a-time loops it
  replaced, and its posterior covariances are exactly symmetric and
  match the literal dense Eq. (3);
* **Scheduling changes nothing** — `ParallelRunner(workers=k)` returns
  results identical to the serial path for every k, chunking, and
  fallback mode, because each cell's seed is fixed in its payload.

Plus the optimizer invariants the golden fixtures rely on (hull vertices
are Pareto-optimal; the LP never loses to a single configuration) and
counter-based assertions that the batched E-step performs fewer
factorizations than one per application.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.em import EMConfig, EMEngine
from repro.core.linalg import MaskedPosterior, dense_posterior, symmetrize
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior
from repro.experiments.parallel import ParallelRunner, cell_seed
from repro.obs import Observability, use
from repro.optimize.lp import EnergyMinimizer
from repro.optimize.pareto import TradeoffFrontier, pareto_optimal_mask

# ----------------------------------------------------------------------
# Shared generators
# ----------------------------------------------------------------------


def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _random_obs_set(rng, m, n, num_masks):
    """Observations where groups of applications share random masks."""
    values = rng.standard_normal((m, n))
    mask = np.zeros((m, n), dtype=bool)
    masks = []
    for _ in range(num_masks):
        k = int(rng.integers(1, n + 1))
        masks.append(np.sort(rng.choice(n, size=k, replace=False)))
    for i in range(m):
        mask[i, masks[i % num_masks]] = True
    return ObservationSet(values=values, mask=mask)


# ----------------------------------------------------------------------
# Batched-vs-loop equality
# ----------------------------------------------------------------------


class TestBatchedEStepEqualsLoop:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 12), st.integers(2, 8), st.integers(0, 10_000))
    def test_means_match_per_row_mean(self, n, m, seed):
        """The stacked means() is the per-application mean(), row by row."""
        rng = np.random.default_rng(seed)
        sigma = _random_spd(rng, n)
        mu = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        obs_idx = np.sort(rng.choice(n, size=k, replace=False))
        y_rows = rng.standard_normal((m, k))

        post = MaskedPosterior(sigma, 0.3, obs_idx)
        stacked = post.means(mu, y_rows)
        for i in range(m):
            np.testing.assert_allclose(stacked[i], post.mean(mu, y_rows[i]),
                                       rtol=1e-12, atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 12), st.integers(2, 8), st.integers(0, 10_000))
    def test_logliks_match_per_row_loglik(self, n, m, seed):
        rng = np.random.default_rng(seed)
        sigma = _random_spd(rng, n)
        mu = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        obs_idx = np.sort(rng.choice(n, size=k, replace=False))
        y_rows = rng.standard_normal((m, k))

        post = MaskedPosterior(sigma, 0.7, obs_idx)
        stacked = post.logliks(mu, y_rows)
        singles = [post.observed_loglik(mu, y_rows[i]) for i in range(m)]
        np.testing.assert_allclose(stacked, singles, rtol=1e-10, atol=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(2, 10), st.integers(2, 8), st.integers(0, 10_000))
    def test_dense_group_posterior_matches_per_app(self, n, m, seed):
        """The stacked literal Eq. (3) equals dense_posterior per app."""
        rng = np.random.default_rng(seed)
        sigma = _random_spd(rng, n)
        mu = rng.standard_normal(n)
        k = int(rng.integers(1, n + 1))
        obs_idx = np.sort(rng.choice(n, size=k, replace=False))
        y_rows = rng.standard_normal((m, k))
        noise = 0.4

        sigma_inv = np.linalg.inv(sigma)
        cov, zhat_rows = EMEngine._dense_group_posterior(
            sigma_inv, noise, obs_idx, mu, y_rows, n)
        for i in range(m):
            z_i, cov_i = dense_posterior(sigma, noise, obs_idx, mu, y_rows[i])
            np.testing.assert_allclose(zhat_rows[i], z_i,
                                       rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(cov, cov_i, rtol=1e-8, atol=1e-10)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(3, 8), st.integers(4, 10), st.integers(1, 3),
           st.integers(0, 10_000))
    def test_woodbury_engine_matches_dense_engine(self, n, m, num_masks,
                                                  seed):
        """Both E-step formulations fit to the same posterior curves."""
        rng = np.random.default_rng(seed)
        obs = _random_obs_set(rng, m, n, num_masks)
        kwargs = dict(max_iterations=10, tol=1e-10)
        wood = EMEngine(config=EMConfig(use_woodbury=True, **kwargs)).fit(obs)
        dense = EMEngine(config=EMConfig(use_woodbury=False,
                                         **kwargs)).fit(obs)
        np.testing.assert_allclose(wood.zhat, dense.zhat,
                                   rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(wood.mu, dense.mu, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(wood.loglik_history, dense.loglik_history,
                                   rtol=1e-6)


# ----------------------------------------------------------------------
# The posterior and the M-step: exact symmetry, dense agreement
# ----------------------------------------------------------------------

#: Mask sizes drawn for the properties below: one observation, a full
#: mask (k = n, the fully observed fast path), or anything in between.
_MASK_SIZES = st.sampled_from(["one", "full", "some"])


def _mask(rng, n, size):
    k = {"one": 1, "full": n}.get(size) or int(rng.integers(1, n + 1))
    return np.sort(rng.choice(n, size=k, replace=False))


def _obs_with_masks(rng, m, n, sizes):
    """Observations whose applications cycle through masks of the
    given sizes."""
    masks = [_mask(rng, n, size) for size in sizes]
    mask = np.zeros((m, n), dtype=bool)
    for i in range(m):
        mask[i, masks[i % len(masks)]] = True
    return ObservationSet(values=rng.standard_normal((m, n)), mask=mask)


class TestPosteriorProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 12), _MASK_SIZES, st.floats(0.01, 2.0),
           st.integers(0, 10_000))
    def test_covariance_is_exactly_symmetric(self, n, size, noise, seed):
        rng = np.random.default_rng(seed)
        sigma = symmetrize(_random_spd(rng, n))
        cov = MaskedPosterior(sigma, noise, _mask(rng, n, size)).covariance
        assert np.array_equal(cov, cov.T)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 12), _MASK_SIZES, st.floats(0.01, 2.0),
           st.integers(0, 10_000))
    def test_matches_dense_posterior(self, n, size, noise, seed):
        """Mean and covariance equal the literal Eq. (3) inverses."""
        rng = np.random.default_rng(seed)
        sigma = symmetrize(_random_spd(rng, n))
        obs_idx = _mask(rng, n, size)
        mu = rng.standard_normal(n)
        y_obs = rng.standard_normal(obs_idx.size)
        post = MaskedPosterior(sigma, noise, obs_idx)
        z_dense, cov_dense = dense_posterior(sigma, noise, obs_idx, mu,
                                             y_obs)
        np.testing.assert_allclose(post.mean(mu, y_obs), z_dense,
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(post.covariance, cov_dense,
                                   rtol=1e-10, atol=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 8), st.integers(2, 9),
           st.lists(_MASK_SIZES, min_size=1, max_size=3),
           st.sampled_from(["ml", "scalar", "matrix"]),
           st.integers(0, 10_000))
    def test_m_step_sigma_is_exactly_symmetric(self, n, m, sizes, psi,
                                               seed):
        rng = np.random.default_rng(seed)
        obs = _obs_with_masks(rng, m, n, sizes)
        if psi == "matrix":
            # Symmetric to allclose, not to the bit.
            a = _random_spd(rng, n) / n
            prior = NIWPrior(psi=a + 1e-15 * np.triu(a, 1))
        else:
            prior = None if psi == "ml" else NIWPrior.paper_default()
        result = EMEngine(prior=prior, config=EMConfig(
            max_iterations=4, tol=1e-12)).fit(obs)
        assert np.array_equal(result.sigma_mat, result.sigma_mat.T)


# ----------------------------------------------------------------------
# Factorization counters: the batched path does strictly less work
# ----------------------------------------------------------------------


class TestFactorizationCounters:
    def _fit_counting(self, obs, config):
        ob = Observability.recording()
        with use(ob):
            result = EMEngine(config=config).fit(obs)
        counters = ob.metrics.snapshot()["counters"]
        return result, counters

    def test_one_factorization_per_group_per_iteration(self):
        rng = np.random.default_rng(11)
        obs = _random_obs_set(rng, m=12, n=8, num_masks=3)
        groups = obs.mask_groups()
        assert len(groups) == 3 and obs.num_applications == 12

        result, counters = self._fit_counting(
            obs, EMConfig(max_iterations=6, tol=1e-12))
        factorizations = counters["linalg_posterior_factorizations_total"]
        # One per (mask group, iteration) — NOT one per application.
        assert factorizations == result.iterations * len(groups)
        assert factorizations < result.iterations * obs.num_applications

    @settings(deadline=None, max_examples=15)
    @given(st.integers(1, 8), st.integers(2, 9),
           st.lists(_MASK_SIZES, min_size=1, max_size=3),
           st.integers(0, 10_000))
    def test_one_factorization_per_group_for_any_masks(self, n, m, sizes,
                                                       seed):
        rng = np.random.default_rng(seed)
        obs = _obs_with_masks(rng, m, n, sizes)
        result, counters = self._fit_counting(
            obs, EMConfig(max_iterations=4, tol=1e-12))
        assert (counters["linalg_posterior_factorizations_total"]
                == result.iterations * len(obs.mask_groups()))

    def test_dense_ablation_also_factorizes_per_group(self):
        rng = np.random.default_rng(12)
        obs = _random_obs_set(rng, m=10, n=6, num_masks=2)
        result, counters = self._fit_counting(
            obs, EMConfig(max_iterations=5, tol=1e-12, use_woodbury=False))
        factorizations = counters["linalg_posterior_factorizations_total"]
        assert factorizations == result.iterations * len(obs.mask_groups())


# ----------------------------------------------------------------------
# ParallelRunner: worker count is invisible in the results
# ----------------------------------------------------------------------

# Tasks must be module-level so they pickle by name into workers.


def _draw_task(shared, cell):
    """A cell whose result depends only on its payload-carried seed."""
    label, seed = cell
    rng = np.random.default_rng(seed)
    return label, float(rng.standard_normal()), shared


def _square_task(shared, cell):
    return cell * cell + (shared or 0)


def _make_cells(base_seed, count):
    return [(f"cell-{i}", cell_seed(base_seed, "prop", i))
            for i in range(count)]


class TestParallelRunnerEquality:
    def test_serial_matches_process_for_any_worker_count(self):
        cells = _make_cells(0, 13)
        serial = ParallelRunner(workers=1).map(_draw_task, cells, shared=7)
        for k in (2, 3):
            runner = ParallelRunner(workers=k)
            parallel = runner.map(_draw_task, cells, shared=7)
            assert parallel == serial
            assert runner.last_backend in ("process", "serial")

    def test_chunk_size_does_not_change_results(self):
        cells = _make_cells(1, 9)
        serial = ParallelRunner(workers=1).map(_draw_task, cells)
        for chunk_size in (1, 2, 5, 100):
            runner = ParallelRunner(workers=2, chunk_size=chunk_size)
            assert runner.map(_draw_task, cells) == serial

    def test_results_keep_input_order(self):
        cells = list(range(20))
        out = ParallelRunner(workers=3).map(_square_task, cells, shared=1)
        assert out == [c * c + 1 for c in cells]

    def test_empty_cells(self):
        runner = ParallelRunner(workers=4)
        assert runner.map(_square_task, []) == []

    def test_unavailable_start_method_falls_back_to_serial(self):
        cells = _make_cells(2, 5)
        runner = ParallelRunner(workers=4, mp_context="no-such-method")
        out = runner.map(_draw_task, cells, shared=None)
        assert runner.last_backend == "serial"
        assert out == ParallelRunner(workers=1).map(_draw_task, cells,
                                                    shared=None)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ParallelRunner(workers=0)
        with pytest.raises(ValueError):
            ParallelRunner(workers=2, chunk_size=0)


class TestCellSeed:
    def test_stable_and_distinct(self):
        a = cell_seed(0, "kmeans", "leo", 3)
        assert a == cell_seed(0, "kmeans", "leo", 3)  # deterministic
        others = {cell_seed(0, "kmeans", "leo", t) for t in range(50)}
        assert len(others) == 50  # no collisions across trials
        assert cell_seed(1, "kmeans", "leo", 3) != a  # base seed matters

    def test_fits_numpy_seed_range(self):
        for i in range(100):
            s = cell_seed(i, "x")
            assert 0 <= s < 2 ** 63
            np.random.default_rng(s)  # must be accepted


# ----------------------------------------------------------------------
# Optimizer invariants the golden fixtures rely on
# ----------------------------------------------------------------------


class TestHullAndLPInvariants:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 40), st.integers(0, 10_000))
    def test_hull_vertices_are_pareto_optimal(self, n, seed):
        """Every hull vertex tied to a config is on the Pareto frontier."""
        rng = np.random.default_rng(seed)
        rates = rng.uniform(1.0, 100.0, n)
        powers = rng.uniform(50.0, 400.0, n)
        frontier = TradeoffFrontier(rates, powers, idle_power=25.0)
        mask = pareto_optimal_mask(rates, powers)
        for vertex in frontier.vertices:
            if vertex.config_index is not None:
                assert mask[vertex.config_index]

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 30), st.integers(0, 10_000),
           st.floats(min_value=0.05, max_value=1.0))
    def test_lp_beats_every_single_config(self, n, seed, utilization):
        """The LP schedule never costs more than any one feasible config."""
        rng = np.random.default_rng(seed)
        rates = rng.uniform(1.0, 100.0, n)
        powers = rng.uniform(60.0, 400.0, n)
        idle = 40.0
        minimizer = EnergyMinimizer(rates, powers, idle)
        deadline = 10.0
        work = utilization * minimizer.max_rate * deadline
        best = minimizer.min_energy(work, deadline)
        for rate, power in zip(rates, powers):
            time_needed = work / rate
            if time_needed > deadline:
                continue  # this config alone cannot meet the deadline
            single = power * time_needed + idle * (deadline - time_needed)
            assert best <= single * (1 + 1e-9) + 1e-9
