"""Golden numerical-regression suite.

The ``.npz`` fixtures under ``tests/golden/`` were captured against
earlier implementations of the EM engine, the hull geometry and the
Eq. (1) LP (see ``tests/golden/generate_golden.py``): the small EM, LEO
and hull/LP cases against the serial, unbatched engine, and the
paper-scale LEO (n=1024) and ``TransferAwareLEO`` (n=2240) cases against
the batched engine that still symmetrized every iterate and cached
factorizations.  These tests assert that the current code — the batched
E-step with its exactly symmetric posteriors and one PSD check per
M-step — reproduces those numbers to ``rtol=1e-9``, so every hot-path
optimisation is provably behaviour-preserving.

If one of these fails after an intentional modelling change, regenerate
with ``PYTHONPATH=src python tests/golden/generate_golden.py`` and
explain the change in the commit; never regenerate to make a pure
optimisation pass.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.core.em import EMConfig, EMEngine
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior
from repro.estimators.base import EstimationProblem
from repro.estimators.leo import LEOEstimator
from repro.optimize.lp import EnergyMinimizer
from repro.optimize.pareto import TradeoffFrontier, pareto_optimal_mask

from golden.generate_golden import (
    EM_CASES,
    hetero_scale_fit,
    paper_scale_problems,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
RTOL = 1e-9


def _load(name: str):
    path = GOLDEN / f"{name}.npz"
    if not path.exists():
        pytest.fail(f"missing golden fixture {path}; regenerate with "
                    f"PYTHONPATH=src python tests/golden/generate_golden.py")
    return np.load(path)


@pytest.mark.parametrize("case", sorted(EM_CASES))
def test_em_matches_golden(case):
    """EM posterior means/covariances match the pre-optimisation runs."""
    seed, m, n, layout, use_prior, woodbury = EM_CASES[case]
    fixture = _load(case)
    obs = ObservationSet(fixture["values"], fixture["mask"])
    prior = NIWPrior.paper_default() if use_prior else None
    engine = EMEngine(prior=prior,
                      config=EMConfig(max_iterations=25, tol=1e-8,
                                      use_woodbury=woodbury))
    result = engine.fit(obs)

    np.testing.assert_allclose(result.mu, fixture["mu"], rtol=RTOL)
    np.testing.assert_allclose(result.sigma_mat, fixture["sigma_mat"],
                               rtol=RTOL, atol=1e-12)
    np.testing.assert_allclose(result.noise_var, fixture["noise_var"],
                               rtol=RTOL)
    np.testing.assert_allclose(result.zhat, fixture["zhat"], rtol=RTOL,
                               atol=1e-12)
    np.testing.assert_allclose(result.zvar, fixture["zvar"], rtol=RTOL,
                               atol=1e-12)
    np.testing.assert_allclose(result.loglik_history,
                               fixture["loglik_history"], rtol=RTOL)
    assert result.iterations == int(fixture["iterations"])
    assert bool(result.converged) == bool(fixture["converged"])


def test_leo_estimate_matches_golden():
    """End-to-end LEO curve (standardize -> EM -> map back) is pinned."""
    fixture = _load("leo_estimate")
    problem = EstimationProblem(features=fixture["features"],
                                prior=fixture["prior"],
                                observed_indices=fixture["indices"],
                                observed_values=fixture["observed"])
    curve = LEOEstimator().estimate(problem)
    np.testing.assert_allclose(curve, fixture["curve"], rtol=RTOL)


def test_leo_paper_scale_matches_golden():
    """LEO rate and power curves and posterior variances of one
    leave-one-out target on the 1024-config paper space (k=20)."""
    fixture = _load("leo_paper_1024")
    for quantity, problem in zip(("rate", "power"), paper_scale_problems()):
        estimator = LEOEstimator()
        curve = estimator.estimate(problem)
        np.testing.assert_allclose(curve, fixture[f"{quantity}_curve"],
                                   rtol=RTOL)
        np.testing.assert_allclose(estimator.last_fit.result.zvar[-1],
                                   fixture[f"{quantity}_zvar"], rtol=RTOL)


def test_transfer_leo_hetero_scale_matches_golden():
    """A ``TransferAwareLEO`` rate fit (matrix Psi) on the undecimated
    2240-config big.LITTLE space."""
    fixture = _load("leo_transfer_2240")
    problem, estimator = hetero_scale_fit()
    curve = estimator.estimate(problem)
    np.testing.assert_allclose(curve, fixture["curve"], rtol=RTOL)
    np.testing.assert_allclose(estimator.last_fit.result.zvar[-1],
                               fixture["zvar"], rtol=RTOL)


def test_hull_matches_golden():
    """Hull vertices (and the Pareto mask) are byte-stable geometry."""
    fixture = _load("hull_lp")
    frontier = TradeoffFrontier(fixture["rates"], fixture["powers"],
                                idle_power=float(fixture["idle"]))
    verts = np.array([[v.rate, v.power,
                       -1 if v.config_index is None else v.config_index]
                      for v in frontier.vertices])
    np.testing.assert_allclose(verts, fixture["hull_vertices"], rtol=RTOL)
    mask = pareto_optimal_mask(fixture["rates"], fixture["powers"])
    assert np.array_equal(mask, fixture["pareto_mask"])


def test_lp_schedules_match_golden():
    """Eq. (1) schedules and energies across modes and demand levels."""
    fixture = _load("hull_lp")
    deadline = float(fixture["deadline"])
    works = fixture["works"]
    energies = fixture["energies"]
    slots = fixture["slots"]
    row = 0
    for mode in ("deadline-energy", "active-energy"):
        minimizer = EnergyMinimizer(fixture["rates"], fixture["powers"],
                                    float(fixture["idle"]), mode=mode)
        for _ in range(5):
            schedule = minimizer.solve(works[row], deadline)
            got = np.array(
                [[-1 if s.config_index is None else s.config_index,
                  s.duration] for s in schedule])
            want = slots[row][~np.isnan(slots[row]).any(axis=1)]
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=1e-12)
            np.testing.assert_allclose(
                minimizer.min_energy(works[row], deadline),
                energies[row], rtol=RTOL)
            row += 1
