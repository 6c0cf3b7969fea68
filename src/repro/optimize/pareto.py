"""Pareto-optimal power/performance tradeoffs and their convex hull.

After estimation, LEO "finds the set of configurations that represent
Pareto-optimal performance and power tradeoffs, and finally walks along
the convex hull of this optimal tradeoff space until the performance goal
is reached" (Section 5.3).  This module implements both steps:

* :func:`pareto_optimal_mask` — which configurations are undominated
  (no other configuration is at least as fast and strictly cheaper, or
  strictly faster and at most as expensive);
* :class:`TradeoffFrontier` — the lower convex hull of the (rate, power)
  cloud, anchored at the idle point (rate 0 at idle power), supporting
  interpolation at any achievable rate.  Points on this hull are exactly
  the average behaviours achievable by time-division between two
  configurations, which is what the Eq. (1) linear program optimizes
  over.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_metrics, start_timer, stop_timer


def pareto_optimal_mask(rates: Sequence[float],
                        powers: Sequence[float]) -> np.ndarray:
    """Boolean mask of Pareto-optimal configurations.

    A configuration dominates another if it has rate >= and power <= the
    other's, with at least one strict.  Ties (identical rate and power)
    are all kept.
    """
    r = np.asarray(rates, dtype=float)
    p = np.asarray(powers, dtype=float)
    if r.shape != p.shape or r.ndim != 1:
        raise ValueError("rates and powers must be equal-length 1-D arrays")
    mask = np.zeros(r.size, dtype=bool)
    best_strictly_faster = np.inf
    # Walk rate groups from fastest to slowest.  A point survives iff no
    # strictly faster point is as cheap, and no equal-rate point is cheaper.
    for rate in np.unique(r)[::-1]:
        group = np.where(r == rate)[0]
        group_pmin = p[group].min()
        for idx in group:
            mask[idx] = (p[idx] < best_strictly_faster
                         and p[idx] == group_pmin)
        best_strictly_faster = min(best_strictly_faster, group_pmin)
    return mask


@dataclasses.dataclass(frozen=True)
class HullPoint:
    """One vertex of the tradeoff frontier.

    ``config_index`` is ``None`` for the idle anchor (rate 0).
    """

    rate: float
    power: float
    config_index: Optional[int]


class TradeoffFrontier:
    """Lower convex hull of (rate, power) points, anchored at idle.

    Args:
        rates: Per-configuration performance (heartbeats/s); must be > 0.
        powers: Per-configuration power (W); must be > 0.
        idle_power: Power of the idle system, the rate-0 anchor.  Pass
            ``None`` to build a frontier without an idle point (then only
            rates between the slowest and fastest hull vertices are
            interpolable).
    """

    def __init__(self, rates: Sequence[float], powers: Sequence[float],
                 idle_power: Optional[float] = None) -> None:
        r = np.asarray(rates, dtype=float)
        p = np.asarray(powers, dtype=float)
        if r.shape != p.shape or r.ndim != 1 or r.size == 0:
            raise ValueError("rates and powers must be equal-length, non-empty")
        if np.any(~np.isfinite(r)) or np.any(~np.isfinite(p)):
            raise ValueError("rates and powers must be finite")
        if np.any(r <= 0):
            raise ValueError("all configuration rates must be positive")
        if np.any(p <= 0):
            raise ValueError("all configuration powers must be positive")
        if idle_power is not None and idle_power < 0:
            raise ValueError(f"idle_power must be >= 0, got {idle_power}")
        self.idle_power = idle_power
        started = start_timer()
        self._vertices = self._lower_hull(self._sorted_points(r, p,
                                                              idle_power))
        stop_timer("hull_build_seconds", started)
        get_metrics().set_gauge("hull_vertices", len(self._vertices))

    @staticmethod
    def _sorted_points(r: np.ndarray, p: np.ndarray,
                       idle_power: Optional[float]
                       ) -> List[Tuple[float, float, Optional[int]]]:
        """``(rate, power, config_index)`` sorted by rate then power,
        keeping the cheapest point of each rate (the first on ties).

        Every configuration rate is positive, so the idle anchor (rate
        0) always comes first.
        """
        order = np.lexsort((p, r))  # stable, like sorted()
        rates = r[order]
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        np.not_equal(rates[1:], rates[:-1], out=first[1:])
        order = order[first]
        points: List[Tuple[float, float, Optional[int]]] = list(zip(
            rates[first].tolist(), p[order].tolist(), order.tolist()))
        if idle_power is not None:
            points.insert(0, (0.0, float(idle_power), None))
        return points

    @staticmethod
    def _lower_hull(points: List[Tuple[float, float, Optional[int]]]
                    ) -> List[HullPoint]:
        """Andrew's monotone chain, lower boundary only, over points
        sorted by rate with no rate repeated."""
        hull: List[Tuple[float, float, Optional[int]]] = []
        for q in points:
            while len(hull) >= 2:
                (x1, y1, _), (x2, y2, _) = hull[-2], hull[-1]
                cross = (x2 - x1) * (q[1] - y1) - (q[0] - x1) * (y2 - y1)
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(q)
        return [HullPoint(rate=x, power=y, config_index=i) for x, y, i in hull]

    @property
    def vertices(self) -> List[HullPoint]:
        """Hull vertices sorted by increasing rate."""
        return list(self._vertices)

    @property
    def max_rate(self) -> float:
        """Highest achievable rate (rightmost vertex)."""
        return self._vertices[-1].rate

    @property
    def min_rate(self) -> float:
        """Lowest rate on the hull (0 if an idle anchor exists)."""
        return self._vertices[0].rate

    def achievable(self, rate: float) -> bool:
        """Whether ``rate`` lies within the hull's rate span."""
        return self.min_rate <= rate <= self.max_rate

    def power_at(self, rate: float) -> float:
        """Minimum average power achieving ``rate``, by hull interpolation."""
        lo, hi, lam = self.bracket(rate)
        return (1.0 - lam) * lo.power + lam * hi.power

    def bracket(self, rate: float) -> Tuple[HullPoint, HullPoint, float]:
        """The hull segment covering ``rate`` and its mixing weight.

        Returns ``(low, high, lam)`` with
        ``rate == (1-lam)*low.rate + lam*high.rate``.  For a rate exactly
        on a vertex, ``low == high`` and ``lam == 0``.
        """
        if not np.isfinite(rate):
            raise ValueError(f"rate must be finite, got {rate}")
        if not self.achievable(rate):
            raise ValueError(
                f"rate {rate} outside achievable span "
                f"[{self.min_rate}, {self.max_rate}]"
            )
        verts = self._vertices
        for low, high in zip(verts, verts[1:]):
            if low.rate <= rate <= high.rate:
                span = high.rate - low.rate
                lam = 0.0 if span == 0 else (rate - low.rate) / span
                if lam == 0.0:
                    return low, low, 0.0
                if lam == 1.0:
                    return high, high, 0.0
                return low, high, lam
        # rate == max_rate with a single vertex, or exactly the last vertex.
        last = verts[-1]
        return last, last, 0.0

    def energy_per_work(self) -> HullPoint:
        """The vertex minimizing energy per unit work (power / rate).

        This is the most energy-efficient sustained operating point; the
        idle anchor (rate 0) is excluded.
        """
        best: Optional[HullPoint] = None
        for vertex in self._vertices:
            if vertex.rate <= 0:
                continue
            if best is None or vertex.power / vertex.rate < best.power / best.rate:
                best = vertex
        if best is None:
            raise RuntimeError("frontier has no positive-rate vertex")
        return best
