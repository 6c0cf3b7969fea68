"""Regenerate the golden numerical-regression fixtures.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/generate_golden.py

The fixtures pin down the numerical behaviour of the EM engine, the
Pareto/hull geometry and the Eq. (1) LP *before* any hot-path
optimisation: ``tests/test_golden_regression.py`` asserts that the
current code reproduces these arrays to ``rtol=1e-9``.  They were first
captured against the serial, unbatched implementation, and the
paper-scale cases against the batched engine before its dense work was
cut down, so any rewrite of the same math is provably
behaviour-preserving.

Only regenerate them when the *intended* numerics change (a new model,
a different convergence rule), never to make an optimisation pass.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.em import EMConfig, EMEngine
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior
from repro.core.transfer import TransferPrior
from repro.estimators.base import EstimationProblem
from repro.estimators.leo import LEOEstimator
from repro.estimators.transfer import TransferAwareLEO
from repro.experiments import harness
from repro.optimize.lp import EnergyMinimizer
from repro.optimize.pareto import TradeoffFrontier, pareto_optimal_mask

HERE = pathlib.Path(__file__).parent


def _spd_covariance(rng: np.random.Generator, n: int) -> np.ndarray:
    """A well-conditioned random SPD matrix with unit-scale diagonal."""
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.5 * np.eye(n)


def make_observation_set(seed: int, num_apps: int, num_configs: int,
                         layout: str) -> ObservationSet:
    """Seeded synthetic data in one of the fixture layouts.

    ``"paper"`` mimics the paper's setting (fully observed priors plus a
    sparse target row); ``"multimask"`` gives three distinct observation
    masks shared across the applications, exercising the mask-group
    batching in the E-step.
    """
    rng = np.random.default_rng(seed)
    sigma = _spd_covariance(rng, num_configs)
    chol = np.linalg.cholesky(sigma)
    mu = rng.normal(scale=2.0, size=num_configs)
    curves = mu + rng.standard_normal((num_apps, num_configs)) @ chol.T
    values = curves + 0.1 * rng.standard_normal(curves.shape)

    mask = np.ones((num_apps, num_configs), dtype=bool)
    if layout == "paper":
        target_idx = np.sort(rng.choice(num_configs, size=5, replace=False))
        mask[-1] = False
        mask[-1, target_idx] = True
    elif layout == "multimask":
        patterns = []
        for _ in range(3):
            k = int(rng.integers(3, num_configs))
            idx = np.sort(rng.choice(num_configs, size=k, replace=False))
            pattern = np.zeros(num_configs, dtype=bool)
            pattern[idx] = True
            patterns.append(pattern)
        for i in range(num_apps):
            mask[i] = patterns[i % len(patterns)]
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return ObservationSet(values, mask)


#: The EM fixture cases: name -> (seed, M, n, layout, prior?, woodbury).
EM_CASES = {
    "em_paper_ml": (7, 9, 12, "paper", False, True),
    "em_paper_niw": (7, 9, 12, "paper", True, True),
    "em_multimask_niw": (21, 9, 10, "multimask", True, True),
    "em_paper_dense": (7, 6, 8, "paper", True, False),
}


def generate_em() -> None:
    for name, (seed, m, n, layout, use_prior, woodbury) in EM_CASES.items():
        obs = make_observation_set(seed, m, n, layout)
        prior = NIWPrior.paper_default() if use_prior else None
        engine = EMEngine(prior=prior,
                          config=EMConfig(max_iterations=25, tol=1e-8,
                                          use_woodbury=woodbury))
        result = engine.fit(obs)
        np.savez_compressed(
            HERE / f"{name}.npz",
            values=obs.values, mask=obs.mask,
            mu=result.mu, sigma_mat=result.sigma_mat,
            noise_var=np.float64(result.noise_var),
            zhat=result.zhat, zvar=result.zvar,
            loglik_history=np.asarray(result.loglik_history),
            iterations=np.int64(result.iterations),
            converged=np.bool_(result.converged),
        )


def generate_leo() -> None:
    """An end-to-end LEO estimate on a synthetic problem."""
    rng = np.random.default_rng(1234)
    n, m_prior = 24, 10
    features = rng.uniform(0.5, 4.0, size=(n, 4))
    base = np.linspace(1.0, 6.0, n)
    prior = base * rng.uniform(0.7, 1.3, size=(m_prior, 1))
    prior += 0.1 * rng.standard_normal(prior.shape)
    truth = base * 1.1
    idx = np.sort(rng.choice(n, size=8, replace=False))
    observed = truth[idx] + 0.05 * rng.standard_normal(idx.size)
    problem = EstimationProblem(features=features, prior=prior,
                                observed_indices=idx,
                                observed_values=observed)
    curve = LEOEstimator().estimate(problem)
    np.savez_compressed(HERE / "leo_estimate.npz",
                        features=features, prior=prior, indices=idx,
                        observed=observed, curve=curve)


#: Seed of the paper-scale cases' target choice and samples.
PAPER_SCALE_SEED = 2015


def paper_scale_problems():
    """Rate and power problems for one seeded leave-one-out target on
    the 1024-config paper space, k = 20 noisy samples.

    Only the fitted outputs are stored; the inputs are rebuilt here from
    the seeded standard context.
    """
    ctx = harness.default_context("paper")
    rng = np.random.default_rng(PAPER_SCALE_SEED)
    name = ctx.benchmark_names[int(rng.integers(len(ctx.benchmark_names)))]
    view = ctx.dataset.leave_one_out(name)
    indices = harness.random_indices(len(ctx.space), 20,
                                     seed=int(rng.integers(2 ** 31)))
    rates, powers = harness.sample_target(ctx, ctx.profile(name), indices)
    return tuple(
        EstimationProblem(features=ctx.features, prior=prior,
                          observed_indices=indices, observed_values=values)
        for prior, values in ((view.prior_rates, rates),
                              (view.prior_powers, powers)))


def hetero_scale_fit():
    """A ``TransferAwareLEO`` rate problem and estimator on the
    undecimated 2240-config big.LITTLE space, 48 noisy samples, with the
    transfer prior built from a paper-space leave-one-out view."""
    from repro.platform.hetero import BIG_LITTLE, HeteroMachine, hetero_space
    from repro.platform.topology import PAPER_TOPOLOGY

    ctx = harness.default_context("paper")
    rng = np.random.default_rng(PAPER_SCALE_SEED + 1)
    name = ctx.benchmark_names[int(rng.integers(len(ctx.benchmark_names)))]
    view = ctx.dataset.leave_one_out(name)
    space = hetero_space(BIG_LITTLE)
    transfer = TransferPrior()
    transfer.add_platform(PAPER_TOPOLOGY, ctx.space, view.prior_rates,
                          view.prior_powers, names=view.prior_names)
    transferred = transfer.build(BIG_LITTLE, space)
    true_rates, _ = HeteroMachine(BIG_LITTLE, seed=7).sweep(
        ctx.profile(name), space, noisy=False)
    indices = harness.random_indices(len(space), 48,
                                     seed=int(rng.integers(2 ** 31)))
    observed = true_rates[indices] * (
        1.0 + 0.02 * rng.standard_normal(indices.size))
    problem = EstimationProblem(features=space.feature_matrix(),
                                prior=transferred.rates,
                                observed_indices=indices,
                                observed_values=observed)
    return problem, TransferAwareLEO(blocks=transferred.blocks)


def generate_paper_scale() -> None:
    """Target curves and posterior variances at paper scale."""
    rate_problem, power_problem = paper_scale_problems()
    out = {}
    for quantity, problem in (("rate", rate_problem),
                              ("power", power_problem)):
        estimator = LEOEstimator()
        out[f"{quantity}_curve"] = estimator.estimate(problem)
        out[f"{quantity}_zvar"] = estimator.last_fit.result.zvar[-1]
    np.savez_compressed(HERE / "leo_paper_1024.npz", **out)

    problem, estimator = hetero_scale_fit()
    curve = estimator.estimate(problem)
    np.savez_compressed(HERE / "leo_transfer_2240.npz", curve=curve,
                        zvar=estimator.last_fit.result.zvar[-1])


def generate_hull_lp() -> None:
    rng = np.random.default_rng(99)
    n = 64
    rates = rng.uniform(0.5, 40.0, size=n)
    powers = 5.0 + 2.0 * rates ** 0.8 + rng.uniform(0.0, 8.0, size=n)
    idle = 4.0
    frontier = TradeoffFrontier(rates, powers, idle_power=idle)
    verts = np.array([[v.rate, v.power,
                       -1 if v.config_index is None else v.config_index]
                      for v in frontier.vertices])
    mask = pareto_optimal_mask(rates, powers)

    deadline = 50.0
    works, energies, slot_tables = [], [], []
    for mode in ("deadline-energy", "active-energy"):
        minimizer = EnergyMinimizer(rates, powers, idle, mode=mode)
        for frac in (0.1, 0.35, 0.6, 0.85, 1.0):
            work = frac * minimizer.max_rate * deadline
            schedule = minimizer.solve(work, deadline)
            works.append(work)
            energies.append(minimizer.min_energy(work, deadline))
            slot_tables.append(np.array(
                [[-1 if s.config_index is None else s.config_index,
                  s.duration] for s in schedule]))
    slots = np.full((len(slot_tables), max(len(t) for t in slot_tables), 2),
                    np.nan)
    for i, table in enumerate(slot_tables):
        slots[i, :len(table)] = table
    np.savez_compressed(HERE / "hull_lp.npz",
                        rates=rates, powers=powers,
                        idle=np.float64(idle), hull_vertices=verts,
                        pareto_mask=mask, deadline=np.float64(deadline),
                        works=np.asarray(works),
                        energies=np.asarray(energies), slots=slots)


def main() -> None:
    generate_em()
    generate_leo()
    generate_hull_lp()
    generate_paper_scale()
    print(f"fixtures written to {HERE}")


if __name__ == "__main__":
    main()
