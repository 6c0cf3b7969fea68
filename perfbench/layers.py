"""Which package bindings are wrapped, and the per-layer metrics.

Every span is named after the span (or timer) the layer already emits,
so a benchmark trace and a program trace read alike.  The layer-to-
metric map, with the end-to-end metric each layer metric should move,
is ``layers.json`` beside this file.
"""

from __future__ import annotations

import collections
from typing import Any, Dict, List, Tuple

from spans import (Recorder, Span, Target, median, percentile,
                   self_times, tail_percentile)

#: The paper's Section 6.7 energy of running the runtime, in joules.
PAPER_RUNTIME_ENERGY_J = 178.5

JITTER_COUNTER = "linalg_jitter_escalations_total"


def _iterations(span, args, kwargs, result) -> None:
    span.attrs["iterations"] = int(getattr(result, "iterations", 0))


def _op_from_call(span, args, kwargs, result) -> None:
    span.attrs["op"] = kwargs.get("op", args[1] if len(args) > 1 else None)


def _op_from_request(span, args, kwargs, result) -> None:
    request = kwargs.get("request", args[1] if len(args) > 1 else None)
    span.attrs["op"] = getattr(request, "op", None)


def _encoded_bytes(span, args, kwargs, result) -> None:
    span.attrs["bytes"] = len(result)


def _decoded_bytes(span, args, kwargs, result) -> None:
    span.attrs["bytes"] = len(args[0]) if args else 0


def _count_escalations(fn):
    """Run ``nearest_psd_jitter`` against a private metrics registry to
    read its escalation count, then pass the count on to the caller's
    registry so the program's own metrics are unchanged."""
    import functools

    from repro.obs import MetricsRegistry, Observability, get_observability, use

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        outer = get_observability()
        probe = MetricsRegistry()
        try:
            with use(Observability(tracer=outer.tracer, metrics=probe,
                                   slo=outer.slo)):
                return fn(*args, **kwargs)
        finally:
            escalations = probe.counter(JITTER_COUNTER).value
            if escalations:
                counted.escalations += escalations
                outer.metrics.inc(JITTER_COUNTER, escalations)
    counted.escalations = 0
    return counted


def targets() -> Tuple[List[Target], Dict[str, Any]]:
    """The bindings to wrap, plus probes read after the run.

    Functions the caller imports by name are patched in the caller's
    module; methods are patched on the class that defines them.
    """
    from repro.cluster import allocator, coordinator
    from repro.core import em, linalg, transfer
    from repro.estimators.base import Estimator
    from repro.optimize import lp, pareto
    from repro.platform import machine
    from repro.runtime import controller, persistence, resilience
    from repro.service import client, server
    from repro.shard import client as shard_client
    from repro.shard import router

    found: List[Target] = [
        Target(em.EMEngine, "fit", "em.fit", _iterations),
        Target(linalg.MaskedPosterior, "__init__", "linalg.posterior"),
        Target(transfer.TransferPrior, "build", "transfer.build"),
        Target(pareto.TradeoffFrontier, "__init__", "hull.build"),
        Target(lp.EnergyMinimizer, "solve", "lp.solve"),
        Target(controller.RuntimeController, "calibrate",
               "controller.calibrate"),
        Target(controller.RuntimeController, "run", "controller.run"),
        # One call per executed (non-idle) quantum.
        Target(controller.RuntimeController, "_next_slot",
               "controller.quantum"),
        Target(resilience.DegradationLadder, "demote_to",
               "resilience.demote"),
        Target(persistence.CheckpointManager, "save", "checkpoint.save"),
        Target(persistence.CheckpointManager, "load", "checkpoint.load"),
        Target(machine.Machine, "run_for", "machine.run_for"),
        Target(coordinator.ClusterCoordinator, "run", "cluster.run"),
        Target(coordinator.ClusterCoordinator, "_run_tenant_epoch",
               "cluster.tenant_epoch"),
        Target(client.ServiceClient, "call", "client.call", _op_from_call),
        Target(client.ServiceClient, "_backoff_sleep", "client.retry"),
        Target(server.EstimationService, "handle", "service.request",
               _op_from_request),
        Target(router.ShardRouter, "route", "shard.route"),
        Target(shard_client.ShardedServiceClient, "call", "shard.call"),
    ]
    cache = getattr(linalg, "PosteriorCache", None)
    if cache is not None:
        found.append(Target(cache, "get", "linalg.posterior_cache.get"))
        found.append(Target(cache, "_record_hit",
                            "linalg.posterior_cache.hit"))
    for cls in (allocator.PowerCapAllocator, allocator.StaticAllocator):
        found.append(Target(cls, "allocate", "cluster.allocate"))
    for cls in _subclasses(Estimator):
        if "estimate" in vars(cls):
            found.append(Target(cls, "estimate", "estimator.fit"))
    for module in (client, server):
        for name in ("encode_binary_frame", "encode_frame"):
            found.append(Target(module, name, "frames.encode",
                                _encoded_bytes))
        for name in ("decode_binary_frame", "decode_frame"):
            found.append(Target(module, name, "frames.decode",
                                _decoded_bytes))
    repairs = []
    for module in (em, linalg):
        original = vars(module).get("nearest_psd_jitter")
        if original is not None:
            counted = _count_escalations(original)
            repairs.append(counted)
            found.append(Target(module, "nearest_psd_jitter",
                                "linalg.psd_repair", adapt=counted))
    return found, {"psd_repairs": repairs}


def _subclasses(cls) -> List[type]:
    seen, stack = [], list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        if sub not in seen:
            seen.append(sub)
            stack.extend(sub.__subclasses__())
    return seen


def full_load_package_watts() -> float:
    """Package power of the simulated paper Xeon at full load: the
    highest chip power any suite application draws on the paper space."""
    from repro.platform.config_space import ConfigurationSpace
    from repro.platform.power_model import PowerModel
    from repro.workloads.suite import paper_suite

    space = ConfigurationSpace.paper_space()
    model = PowerModel(space.topology)
    top = max(space, key=lambda c: (c.threads, c.cores,
                                    c.effective_ghz(space.topology.total_cores)))
    return max(model.chip_power(profile, top) for profile in paper_suite())


def layer_metrics(recorder: Recorder, probes: Dict[str, Any],
                  server_counters: Dict[str, float]
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts, busy and self seconds, latencies and ratios."""
    spans = recorder.spans
    by: Dict[str, List[Span]] = collections.defaultdict(list)
    for span in spans:
        by[span.name].append(span)
    own = self_times(spans)
    out: Dict[str, Tuple[float, str]] = {}

    def count(name: str) -> None:
        out[name + ".count"] = (len(by[name]), "count")

    def busy(name: str) -> None:
        out[name + ".busy_s"] = (sum(s.duration for s in by[name]), "s")

    def self_s(name: str) -> None:
        out[name + ".self_s"] = (sum(own[s.ident] for s in by[name]), "s")

    for name in ("em.fit", "linalg.posterior", "linalg.psd_repair",
                 "transfer.build", "estimator.fit", "hull.build",
                 "lp.solve", "controller.calibrate", "controller.run",
                 "checkpoint.save", "checkpoint.load", "machine.run_for",
                 "cluster.run", "cluster.tenant_epoch", "cluster.allocate",
                 "frames.encode", "frames.decode", "client.call",
                 "service.request", "shard.route"):
        count(name)
        busy(name)
    for name in ("em.fit", "controller.calibrate", "controller.run",
                 "cluster.tenant_epoch", "service.request"):
        self_s(name)
    for name in ("controller.quantum", "resilience.demote", "client.retry"):
        count(name)
    out["em.iteration.count"] = (
        sum(s.attrs.get("iterations", 0) for s in by["em.fit"]), "count")

    lookups = len(by["linalg.posterior_cache.get"])
    hits = len(by["linalg.posterior_cache.hit"])
    out["linalg.posterior_cache.lookups"] = (lookups, "count")
    out["linalg.posterior_cache.hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio")
    out["linalg.jitter_escalations.count"] = (
        sum(fn.escalations for fn in probes["psd_repairs"]), "count")

    fits = [s.duration for s in by["estimator.fit"]]
    out["estimator.fit.p50_ms"] = (1e3 * median(fits) if fits else 0.0, "ms")
    calibrations = len(by["controller.calibrate"])
    fit_in_calibrate = sum(s.duration for s in by["estimator.fit"]
                           if s.ancestor("controller.calibrate"))
    out["estimator.fit.energy_j"] = (
        fit_in_calibrate / calibrations * probes["package_watts"]
        if calibrations else 0.0, "J")

    for direction in ("encode", "decode"):
        out[f"frames.{direction}.bytes"] = (
            sum(s.attrs.get("bytes", 0) for s in by[f"frames.{direction}"]),
            "B")
    for op in ("optimize", "estimate"):
        calls = [s.duration for s in by["client.call"]
                 if s.attrs.get("op") == op and "error" not in s.attrs]
        tail = tail_percentile(len(calls))
        out[f"client.call.{op}.p50_ms"] = (
            1e3 * median(calls) if calls else 0.0, "ms")
        out[f"client.call.{op}.tail_ms"] = (
            1e3 * percentile(calls, tail) if tail else 0.0, "ms")
        out[f"client.call.{op}.tail_pct"] = (tail or 0.0, "%")
    out["service.wait_s"] = (
        out["client.call.busy_s"][0] - out["service.request.busy_s"][0]
        - out["frames.encode.busy_s"][0] - out["frames.decode.busy_s"][0],
        "s")
    errors = collections.Counter(s.attrs.get("error") for s in by["client.call"])
    out["service.shed.count"] = (errors["ServiceOverloaded"], "count")
    out["service.deadline_exceeded.count"] = (errors["DeadlineExceeded"],
                                              "count")
    out["service.coalesced.count"] = (
        server_counters.get("service_coalesced_total", 0.0), "count")
    out["shard.unavailable.count"] = (
        sum(s.attrs.get("error") == "ShardUnavailable"
            for s in by["shard.call"]), "count")

    calibrate_busy = out["controller.calibrate.busy_s"][0]
    em_in_calibrate = sum(s.duration for s in by["em.fit"]
                          if s.ancestor("controller.calibrate"))
    out["split.em_fit_share_of_calibrate"] = (
        em_in_calibrate / calibrate_busy if calibrate_busy else 0.0, "ratio")
    out["split.optimize_em_fits"] = (
        sum(1 for s in by["em.fit"]
            if (r := s.ancestor("service.request")) is not None
            and r.attrs.get("op") == "optimize"), "count")
    return out
