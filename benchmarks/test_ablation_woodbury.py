"""Ablation: Woodbury masked E-step vs the literal dense Eq. (3).

Both compute the same posterior (property-tested in the unit suite);
this ablation measures the cost difference on a realistically sized
hierarchy, which is why the Woodbury path is the default.  The dense
path inverts an n x n matrix per application per iteration; Woodbury
pays one factorization per unique mask.

The two arms are timed over interleaved repeats and compared by their
medians, so one slow sample on a shared host cannot flip the verdict.
"""

import statistics
import time

import numpy as np

from conftest import save_results
from repro.core.em import EMConfig, EMEngine
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior
from repro.experiments.harness import format_table

#: Dense Eq. (3) on the full 1024-config space would invert 25 matrices
#: of 1024^2 per iteration; the ablation uses a mid-sized space so the
#: dense arm finishes quickly while the asymmetry stays obvious.
NUM_CONFIGS = 192
NUM_APPS = 12
#: Timed repeats of each arm, interleaved.
REPEATS = 7


def _observations(seed=0):
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal(NUM_CONFIGS)
    a = rng.standard_normal((NUM_CONFIGS, NUM_CONFIGS))
    sigma = (a @ a.T) / NUM_CONFIGS + 0.3 * np.eye(NUM_CONFIGS)
    z = rng.multivariate_normal(mu, sigma, size=NUM_APPS)
    y = z + 0.05 * rng.standard_normal(z.shape)
    mask = np.ones((NUM_APPS, NUM_CONFIGS), dtype=bool)
    mask[-1] = False
    mask[-1, rng.choice(NUM_CONFIGS, 20, replace=False)] = True
    return ObservationSet(np.where(mask, y, 0.0), mask)


def test_ablation_woodbury(benchmark):
    obs = _observations()
    config = dict(max_iterations=4, tol=1e-12)

    def run_woodbury():
        engine = EMEngine(prior=NIWPrior.paper_default(),
                          config=EMConfig(use_woodbury=True, **config))
        return engine.fit(obs)

    def run_dense():
        engine = EMEngine(prior=NIWPrior.paper_default(),
                          config=EMConfig(use_woodbury=False, **config))
        return engine.fit(obs)

    fast_result = benchmark.pedantic(run_woodbury, rounds=1, iterations=1)
    slow_result = run_dense()

    def timed(run):
        started = time.perf_counter()
        run()
        return time.perf_counter() - started

    samples = {run_woodbury: [], run_dense: []}
    for repeat in range(REPEATS):
        # Alternate which arm goes first, so neither always runs on a
        # warmer cache.
        order = ((run_woodbury, run_dense) if repeat % 2 == 0
                 else (run_dense, run_woodbury))
        for run in order:
            samples[run].append(timed(run))
    woodbury_seconds = statistics.median(samples[run_woodbury])
    dense_seconds = statistics.median(samples[run_dense])

    print()
    print(format_table(
        ["E-step", "seconds", "target curve max |delta|"],
        [
            ["woodbury", woodbury_seconds, 0.0],
            ["dense Eq.(3)", dense_seconds,
             float(np.max(np.abs(fast_result.zhat - slow_result.zhat)))],
        ],
        title=(f"Ablation: E-step implementation "
               f"({NUM_APPS} apps x {NUM_CONFIGS} configs, 4 iterations, "
               f"median of {REPEATS} interleaved repeats)")))
    save_results("ablation_woodbury", {
        "woodbury_seconds": woodbury_seconds,
        "dense_seconds": dense_seconds,
        "repeats": REPEATS,
        "max_abs_delta": float(
            np.max(np.abs(fast_result.zhat - slow_result.zhat))),
    })

    # Identical math...
    np.testing.assert_allclose(fast_result.zhat, slow_result.zhat,
                               rtol=1e-5, atol=1e-7)
    # ...at a visibly different price.
    assert woodbury_seconds < dense_seconds
