"""Tests for repro.optimize.pareto."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimize.pareto import TradeoffFrontier, pareto_optimal_mask


class TestParetoMask:
    def test_simple_domination(self):
        # (rate, power): config 1 dominates config 0.
        mask = pareto_optimal_mask([1.0, 2.0], [100.0, 90.0])
        assert list(mask) == [False, True]

    def test_incomparable_both_survive(self):
        mask = pareto_optimal_mask([1.0, 2.0], [90.0, 100.0])
        assert list(mask) == [True, True]

    def test_equal_rate_cheaper_wins(self):
        mask = pareto_optimal_mask([1.0, 1.0], [90.0, 100.0])
        assert list(mask) == [True, False]

    def test_equal_power_faster_wins(self):
        mask = pareto_optimal_mask([1.0, 2.0], [90.0, 90.0])
        assert list(mask) == [False, True]

    def test_exact_ties_all_survive(self):
        mask = pareto_optimal_mask([1.0, 1.0], [90.0, 90.0])
        assert list(mask) == [True, True]

    def test_none_dominated_on_a_frontier(self):
        rates = np.array([1.0, 2.0, 3.0, 4.0])
        powers = np.array([10.0, 20.0, 35.0, 60.0])
        assert pareto_optimal_mask(rates, powers).all()

    def test_matches_brute_force(self, rng):
        rates = rng.uniform(1, 100, 60)
        powers = rng.uniform(50, 300, 60)
        mask = pareto_optimal_mask(rates, powers)
        for i in range(60):
            dominated = any(
                rates[j] >= rates[i] and powers[j] <= powers[i]
                and (rates[j] > rates[i] or powers[j] < powers[i])
                for j in range(60))
            assert mask[i] == (not dominated)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            pareto_optimal_mask([1.0], [1.0, 2.0])


class TestTradeoffFrontier:
    def test_vertices_sorted_by_rate(self, rng):
        rates = rng.uniform(1, 100, 50)
        powers = rng.uniform(50, 300, 50)
        frontier = TradeoffFrontier(rates, powers, idle_power=40.0)
        vertex_rates = [v.rate for v in frontier.vertices]
        assert vertex_rates == sorted(vertex_rates)

    def test_idle_anchor_is_first_vertex(self):
        frontier = TradeoffFrontier([1.0, 2.0], [100.0, 150.0],
                                    idle_power=80.0)
        first = frontier.vertices[0]
        assert first.rate == 0.0
        assert first.power == 80.0
        assert first.config_index is None

    def test_hull_is_convex(self, rng):
        rates = rng.uniform(1, 100, 80)
        powers = rng.uniform(50, 300, 80)
        frontier = TradeoffFrontier(rates, powers, idle_power=40.0)
        verts = frontier.vertices
        slopes = [(b.power - a.power) / (b.rate - a.rate)
                  for a, b in zip(verts, verts[1:])]
        assert all(s1 <= s2 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))

    def test_hull_below_all_points(self, rng):
        rates = rng.uniform(1, 100, 80)
        powers = rng.uniform(50, 300, 80)
        frontier = TradeoffFrontier(rates, powers, idle_power=40.0)
        for r, p in zip(rates, powers):
            assert frontier.power_at(r) <= p + 1e-9

    def test_power_at_vertex_is_exact(self):
        frontier = TradeoffFrontier([1.0, 2.0, 4.0], [100.0, 110.0, 200.0],
                                    idle_power=80.0)
        for vertex in frontier.vertices:
            assert frontier.power_at(vertex.rate) == pytest.approx(
                vertex.power)

    def test_interpolation_between_vertices(self):
        frontier = TradeoffFrontier([2.0], [120.0], idle_power=80.0)
        assert frontier.power_at(1.0) == pytest.approx(100.0)

    def test_bracket_weights(self):
        frontier = TradeoffFrontier([2.0], [120.0], idle_power=80.0)
        low, high, lam = frontier.bracket(0.5)
        assert low.rate == 0.0 and high.rate == 2.0
        assert lam == pytest.approx(0.25)

    def test_bracket_at_vertex_degenerate(self):
        # (2, 100) lies below the idle-(4, 150) chord, so it is a vertex.
        frontier = TradeoffFrontier([2.0, 4.0], [100.0, 150.0],
                                    idle_power=80.0)
        low, high, lam = frontier.bracket(2.0)
        assert low is high
        assert low.rate == 2.0
        assert lam == 0.0

    def test_unachievable_rate_raises(self):
        frontier = TradeoffFrontier([2.0], [120.0], idle_power=80.0)
        with pytest.raises(ValueError):
            frontier.power_at(3.0)
        with pytest.raises(ValueError):
            frontier.power_at(-0.1)

    def test_without_idle_anchor(self):
        frontier = TradeoffFrontier([2.0, 4.0], [120.0, 150.0])
        assert frontier.min_rate == 2.0
        assert not frontier.achievable(1.0)

    def test_energy_per_work_vertex(self):
        # power/rate: 60, 37.5, 50 -> the 4-rate config wins.
        frontier = TradeoffFrontier([2.0, 4.0, 6.0], [120.0, 150.0, 300.0],
                                    idle_power=80.0)
        best = frontier.energy_per_work()
        assert best.rate == 4.0

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            TradeoffFrontier([0.0], [100.0])
        with pytest.raises(ValueError):
            TradeoffFrontier([1.0], [0.0])
        with pytest.raises(ValueError):
            TradeoffFrontier([1.0], [100.0], idle_power=-5.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TradeoffFrontier([np.nan], [100.0])

    def test_duplicate_rates_keep_cheapest(self):
        frontier = TradeoffFrontier([2.0, 2.0], [120.0, 100.0],
                                    idle_power=80.0)
        assert frontier.power_at(2.0) == pytest.approx(100.0)


def _oracle_lower_hull(points):
    """The per-point reference build: Python ``sorted`` on (rate, power),
    keep the first (cheapest) point of each rate, then the monotone
    chain.  ``TradeoffFrontier`` must give exactly its vertices."""
    points = sorted(points, key=lambda q: (q[0], q[1]))
    dedup = []
    for q in points:
        if dedup and dedup[-1][0] == q[0]:
            continue
        dedup.append(q)
    hull = []
    for q in dedup:
        while len(hull) >= 2:
            (x1, y1, _), (x2, y2, _) = hull[-2], hull[-1]
            cross = (x2 - x1) * (q[1] - y1) - (q[0] - x1) * (y2 - y1)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(q)
    return hull


@st.composite
def _clouds(draw):
    """(rates, powers, idle_power) with repeated rates and repeated
    points drawn from small value pools, n from 1 to 1024."""
    n = draw(st.integers(min_value=1, max_value=1024))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    pool = draw(st.sampled_from([3, 16, 1 << 20]))
    rates = rng.integers(1, pool + 1, n) * 0.37
    powers = rng.integers(1, pool + 1, n) * 1.9
    if draw(st.booleans()):
        repeat = rng.integers(0, n, n // 3 + 1)
        rates[repeat[1:]] = rates[repeat[0]]
        powers[repeat[1:]] = powers[repeat[0]]
    idle = draw(st.one_of(st.none(), st.floats(0.0, 50.0)))
    return rates, powers, idle


class TestHullBuildOracle:
    @settings(deadline=None, max_examples=150)
    @given(_clouds())
    def test_vertices_identical_to_per_point_build(self, cloud):
        rates, powers, idle = cloud
        points = [(float(rates[i]), float(powers[i]), i)
                  for i in range(rates.size)]
        if idle is not None:
            points.append((0.0, float(idle), None))
        expected = _oracle_lower_hull(points)
        got = [(v.rate, v.power, v.config_index)
               for v in TradeoffFrontier(rates, powers, idle).vertices]
        assert got == expected
        assert all(type(rate) is float and type(power) is float
                   for rate, power, _ in got)
