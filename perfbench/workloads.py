"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, sets up once per
:meth:`setup` call, and measures units of work in :meth:`measure` until
a time budget runs out or a given number of units is done.  A unit is
the operation its users wait for:

* ``paper-loop`` -- one application on the 1024-config paper space:
  ``RuntimeController(LEO).calibrate`` on a leave-one-out target, then
  ``run`` at a few utilizations with a 100-s deadline.  EM is nearly
  all of the work, so core and estimator changes show here.
* ``hetero-loop`` -- one application on the undecimated 2240-config
  big.LITTLE space: a transfer-prior build, a ``TransferAwareLEO``
  calibrate with 48 samples, an Eq. 1 solve, priced on the true curves.
  The matrix-Psi EM path at the largest n.
* ``fleet-serve`` -- one request to a 2-shard ``ShardFleet`` from one
  closed-loop client (one client, so that a request's CPU time is its
  own); 3 in 4 are ``optimize`` on perturbed
  paper-space curves and 1 in 4 are LEO ``estimate`` on the 32-config
  cores space, all distinct so none coalesce.  Codec, broker and router
  dominate; EM is small.
* ``cluster-node`` -- one ``ClusterCoordinator`` run of three seeded
  tenants under a seeded power cap on the 32-config node, then one
  checkpointed controller run resumed from its checkpoint.  Cluster,
  controller, hull, machine simulator and checkpoint work.

Every unit records its wall time and the process CPU time it used; the
gated metrics are built from the CPU times (see ``run.py``).
"""

from __future__ import annotations

import dataclasses
import pathlib
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from spans import median, percentile, tail_percentile
from speed import cpu_time

PAPER_DEADLINE_S = 100.0
#: Figure 11's bound on LEO's normalized energy.
FIG11_BOUND = 1.10


@dataclasses.dataclass
class Outcome:
    """What one measurement produced.

    Attributes:
        unit_s: Wall time of each unit's operation.
        unit_cpu_s: Process CPU time of each completed unit, less the
            speed probes' (``speed.cpu_time``).
        units: Units completed.
        attempted: Operations attempted (runs, requests, cluster-node
            units).
        failed: Operations that raised an error or were refused.  A run
            that misses its deadline is not a failure; its share is the
            ``deadline_miss_ratio`` of the report.
        report: The workload's own named metrics, ``{name: (value, unit)}``.
        problems: Failed correctness checks.
    """

    unit_s: List[float]
    unit_cpu_s: List[float]
    units: int
    attempted: int
    failed: int
    report: Dict[str, tuple]
    problems: List[str]


def _fig11_ratio(energy: float, work_done: float, work: float,
                 optimal_energy: float) -> float:
    """Figure 11's normalization (``repro.experiments.energy``): energy
    per completed fraction of the demand, over the Eq. 1 optimum."""
    fraction = min(max(work_done / work, 1e-6), 1.0)
    return (energy / fraction) / optimal_energy


def _loop_outcome(cal_s, app_s, app_cpu_s, ratios, misses, runs,
                  bound=None) -> Outcome:
    problems = []
    ratio = float(np.mean(ratios))
    if bound is not None and not ratio <= bound:
        problems.append(f"energy_vs_optimal {ratio:.4f} exceeds "
                        f"Figure 11's {bound:.2f}x bound")
    return Outcome(
        unit_s=app_s, unit_cpu_s=app_cpu_s, units=len(app_s),
        attempted=runs, failed=0,
        report={
            "calibrate_p50_s": (median(cal_s), "s", len(cal_s)),
            "apps_per_min": (60.0 * len(app_s) / sum(app_s), "1/min",
                             len(app_s)),
            "energy_vs_optimal": (ratio, "x", len(ratios)),
            "deadline_miss_ratio": (misses / runs, "ratio", runs),
        },
        problems=problems)


class Workload:
    """Hooks every workload has; the defaults do nothing."""

    def prime(self, state) -> None:
        """Warm what set-up built, before timing starts."""

    def close(self, state) -> None:
        """Release what :meth:`setup` built."""

    def server_counters(self, state) -> Dict[str, float]:
        """Counters the program keeps that no wrapper can see."""
        return {}


class PaperLoop(Workload):
    name = "paper-loop"

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        # More items than any budget reaches; unit i is the same for a
        # given seed however many units a measurement runs.
        self.items = [(int(rng.integers(25)), int(rng.integers(2 ** 31)),
                       int(rng.integers(1000, 10 ** 6)),
                       rng.uniform(0.1, 1.0, size=3))
                      for _ in range(256)]

    def warm(self) -> None:
        from repro.experiments import harness
        harness.default_context("cores")
        _tiny_calibrate(harness.default_context("cores"))

    def setup(self):
        from repro.experiments import harness
        return harness.default_context.__wrapped__("paper", 0)

    def measure(self, ctx, seconds: Optional[float] = None,
                units: Optional[int] = None) -> Outcome:
        from repro.estimators import LEOEstimator
        from repro.optimize import EnergyMinimizer
        from repro.runtime.controller import RuntimeController
        from repro.runtime.sampling import RandomSampler

        names = ctx.benchmark_names
        idle = ctx.idle_power()
        cal_s, app_s, app_cpu_s, ratios = [], [], [], []
        misses = runs = 0
        started = time.perf_counter()
        for done, (b, sampler_seed, offset, utils) in enumerate(self.items):
            if _budget_spent(started, seconds, done, units):
                break
            name = names[b]
            profile = ctx.profile(name)
            view = ctx.dataset.leave_one_out(name)
            truth = ctx.truth.leave_one_out(name)
            works = [u * float(truth.true_rates.max()) * PAPER_DEADLINE_S
                     for u in utils]
            t0, c0 = time.perf_counter(), cpu_time()
            controller = RuntimeController(
                machine=ctx.machine(seed_offset=offset), space=ctx.space,
                estimator=LEOEstimator(), prior_rates=view.prior_rates,
                prior_powers=view.prior_powers,
                sampler=RandomSampler(seed=sampler_seed))
            estimate = controller.calibrate(profile)
            t1 = time.perf_counter()
            reports = [controller.run(profile, work, PAPER_DEADLINE_S,
                                      estimate) for work in works]
            t2, c2 = time.perf_counter(), cpu_time()
            cal_s.append(t1 - t0)
            app_s.append(t2 - t0)
            app_cpu_s.append(c2 - c0)
            optimal = EnergyMinimizer(truth.true_rates, truth.true_powers,
                                      idle)
            for work, report in zip(works, reports):
                runs += 1
                misses += not report.met_target
                ratios.append(_fig11_ratio(
                    report.energy, report.work_done, work,
                    optimal.min_energy(work, PAPER_DEADLINE_S)))
        return _loop_outcome(cal_s, app_s, app_cpu_s, ratios, misses, runs,
                             bound=FIG11_BOUND)


class HeteroLoop(Workload):
    name = "hetero-loop"
    SAMPLES = 48

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.items = [(int(rng.integers(25)), int(rng.integers(2 ** 31)),
                       int(rng.integers(1000, 10 ** 6)),
                       float(rng.uniform(0.2, 0.9)))
                      for _ in range(64)]

    def warm(self) -> None:
        from repro.experiments import harness
        _tiny_calibrate(harness.default_context("cores"))

    def setup(self):
        from repro.core.transfer import TransferPrior
        from repro.experiments import harness
        from repro.platform.hetero import BIG_LITTLE, hetero_space
        from repro.platform.topology import PAPER_TOPOLOGY

        ctx = harness.default_context.__wrapped__("paper", 0)
        space = hetero_space(BIG_LITTLE)
        space.feature_matrix()
        # The first unit's transfer prior, so set-up covers a prior
        # build the way paper-loop's covers the offline tables.
        view = ctx.dataset.leave_one_out(ctx.benchmark_names[
            self.items[0][0]])
        transfer = TransferPrior()
        transfer.add_platform(PAPER_TOPOLOGY, ctx.space, view.prior_rates,
                              view.prior_powers, names=view.prior_names)
        transfer.build(BIG_LITTLE, space)
        return ctx, space

    def measure(self, state, seconds: Optional[float] = None,
                units: Optional[int] = None) -> Outcome:
        from repro.core.transfer import TransferPrior
        from repro.errors import InfeasibleConstraintError
        from repro.estimators import TransferAwareLEO
        from repro.optimize import EnergyMinimizer
        from repro.platform.hetero import BIG_LITTLE, HeteroMachine
        from repro.platform.topology import PAPER_TOPOLOGY
        from repro.runtime.controller import RuntimeController
        from repro.runtime.sampling import RandomSampler

        ctx, space = state
        names = ctx.benchmark_names
        cal_s, app_s, app_cpu_s, ratios = [], [], [], []
        misses = runs = 0
        started = time.perf_counter()
        for done, (b, sampler_seed, offset, util) in enumerate(self.items):
            if _budget_spent(started, seconds, done, units):
                break
            name = names[b]
            profile = ctx.profile(name)
            view = ctx.dataset.leave_one_out(name)
            machine = HeteroMachine(BIG_LITTLE, seed=offset)
            idle = machine.idle_power()
            true_rates, true_powers = machine.sweep(profile, space,
                                                    noisy=False)
            work = util * float(true_rates.max()) * PAPER_DEADLINE_S

            t0, c0 = time.perf_counter(), cpu_time()
            transfer = TransferPrior()
            transfer.add_platform(PAPER_TOPOLOGY, ctx.space,
                                  view.prior_rates, view.prior_powers,
                                  names=view.prior_names)
            transferred = transfer.build(BIG_LITTLE, space)
            controller = RuntimeController(
                machine=machine, space=space,
                estimator=TransferAwareLEO(blocks=transferred.blocks),
                prior_rates=transferred.rates,
                prior_powers=transferred.powers,
                sampler=RandomSampler(seed=sampler_seed),
                sample_count=self.SAMPLES)
            t_cal = time.perf_counter()
            estimate = controller.calibrate(profile)
            t1 = time.perf_counter()
            minimizer = EnergyMinimizer(estimate.rates, estimate.powers, idle)
            try:
                schedule = minimizer.solve(work, PAPER_DEADLINE_S)
            except InfeasibleConstraintError as err:
                # The estimate undersells the platform: run flat out at
                # the estimated maximum and accept the shortfall.
                schedule = minimizer.solve(
                    err.max_rate * PAPER_DEADLINE_S * (1.0 - 1e-12),
                    PAPER_DEADLINE_S)
            t2, c2 = time.perf_counter(), cpu_time()
            cal_s.append(t1 - t_cal)
            app_s.append(t2 - t0)
            app_cpu_s.append(c2 - c0)

            energy = done_work = busy = 0.0
            for slot in schedule:
                if slot.config_index is None or slot.duration <= 0:
                    continue
                energy += true_powers[slot.config_index] * slot.duration
                done_work += true_rates[slot.config_index] * slot.duration
                busy += slot.duration
            energy += idle * max(PAPER_DEADLINE_S - busy, 0.0)
            optimal = EnergyMinimizer(true_rates, true_powers, idle)
            runs += 1
            misses += done_work < work * (1.0 - 1e-6)
            ratios.append(_fig11_ratio(
                energy, done_work, work,
                optimal.min_energy(work, PAPER_DEADLINE_S)))
        return _loop_outcome(cal_s, app_s, app_cpu_s, ratios, misses, runs)


class FleetServe(Workload):
    name = "fleet-serve"
    TENANTS = 8
    DEADLINE_S = 100.0
    #: Requests checked for bit-equality against in-process results,
    #: per operation.
    CHECKED = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm(self) -> None:
        from repro.experiments import harness
        _tiny_calibrate(harness.default_context("cores"))

    def _streams(self, paper, cores):
        """The request generator: ``request(stream, i)`` returns
        ``(op, tenant, args)`` and depends only on the seed, the stream
        and ``i``, so the streams are fixed in advance yet cost no memory
        up front.  Every 4th request of a stream is an ``estimate``.
        """
        from repro.estimators import EstimationProblem, normalize_problem

        idle = paper.idle_power()
        features = cores.features
        views = [cores.dataset.leave_one_out(name)
                 for name in cores.benchmark_names]
        truth = [cores.truth.leave_one_out(name).true_rates
                 for name in cores.benchmark_names]
        true_rates = paper.truth.rates
        true_powers = paper.truth.powers

        def request(stream: int, index: int):
            rng = np.random.default_rng([self.seed, 3, stream, index])
            tenant = f"tenant-{int(rng.integers(self.TENANTS))}"
            b = int(rng.integers(len(views)))
            if index % 4 != 3:
                rates = true_rates[b] * rng.lognormal(0.0, 0.05,
                                                      true_rates.shape[1])
                powers = true_powers[b] * rng.lognormal(0.0, 0.03,
                                                        true_powers.shape[1])
                work = (float(rng.uniform(0.1, 0.9)) * float(rates.max())
                        * self.DEADLINE_S)
                return "optimize", tenant, (rates, powers, idle, work,
                                            self.DEADLINE_S)
            k = int(rng.integers(6, 13))
            indices = np.sort(rng.choice(features.shape[0], size=k,
                                         replace=False))
            observed = truth[b][indices] * rng.lognormal(0.0, 0.03, k)
            problem, _ = normalize_problem(EstimationProblem(
                features=features, prior=views[b].prior_rates,
                observed_indices=indices, observed_values=observed))
            return "estimate", tenant, problem
        return request

    def setup(self):
        """The contexts the request streams are drawn from, and the fleet."""
        from repro.experiments import harness
        from repro.shard.fleet import ShardFleet

        paper = harness.default_context.__wrapped__("paper", 0)
        cores = harness.default_context.__wrapped__("cores", 0)
        fleet = ShardFleet(num_shards=2)
        fleet.start()
        return fleet, self._streams(paper, cores)

    def close(self, state) -> None:
        state[0].stop()

    def prime(self, state) -> None:
        # Connections, wire negotiation and handler threads; a stream of
        # its own so the measured requests stay unseen.
        fleet, request = state
        self._client_loop(fleet, request, stream=1, limit=8, stop_at=None)

    def server_counters(self, state) -> Dict[str, float]:
        from repro.shard.client import ShardedServiceClient

        totals: Dict[str, float] = {}
        with ShardedServiceClient(state[0].addresses) as client:
            for answer in client.metrics().values():
                counters = answer["metrics"].get("counters", {})
                for name, value in counters.items():
                    totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def measure(self, state, seconds: Optional[float] = None,
                units: Optional[int] = None) -> Outcome:
        fleet, request = state
        started = time.perf_counter()
        result = self._client_loop(
            fleet, request, stream=0, limit=units,
            stop_at=None if seconds is None else started + seconds)
        wall = time.perf_counter() - started
        latencies, cpu = result["latencies"], result["cpu"]
        attempted = result["attempted"]
        failed = sum(result["failed"].values())
        problems = self._check(result["checked"])
        if not latencies:
            problems.append("no request succeeded")
            latencies = cpu = [float("nan")]
        tail = tail_percentile(len(latencies))
        report = {
            "requests_per_s": ((attempted - failed) / wall, "1/s",
                               attempted - failed),
            "request_p50_ms": (1e3 * median(latencies), "ms",
                               len(latencies)),
            "failed_ratio": (failed / max(attempted, 1), "ratio",
                             attempted),
        }
        if tail is not None:
            report[f"request_p{tail:g}_ms"] = (
                1e3 * percentile(latencies, tail), "ms", len(latencies))
        for kind, count in sorted(result["failed"].items()):
            report[f"failed.{kind}"] = (count, "count", attempted)
        return Outcome(unit_s=latencies, unit_cpu_s=cpu, units=attempted,
                       attempted=attempted,
                       failed=failed, report=report, problems=problems)

    def _client_loop(self, fleet, request, stream, limit, stop_at):
        """One closed-loop client: the next request of ``stream`` is sent
        when the previous answer is in."""
        from repro.errors import ReproError
        from repro.service.protocol import encode_array
        from repro.shard.client import ShardedServiceClient

        latencies: List[float] = []
        cpu: List[float] = []
        failed: Dict[str, int] = {}
        checked: List[tuple] = []
        seen = {"optimize": 0, "estimate": 0}
        attempted = 0
        with ShardedServiceClient(fleet.addresses) as client:
            index = 0
            while True:
                if limit is not None and index >= limit:
                    break
                if stop_at is not None and time.perf_counter() >= stop_at:
                    break
                op, tenant, args = request(stream, index)
                index += 1
                attempted += 1
                t0, c0 = time.perf_counter(), cpu_time()
                try:
                    if op == "optimize":
                        rates, powers, idle, work, deadline = args
                        answer = client.call("optimize", {
                            "rates": encode_array(rates),
                            "powers": encode_array(powers),
                            "idle_power": idle, "work": work,
                            "deadline": deadline}, tenant_key=tenant)
                    else:
                        answer = client.estimate(args, tenant_key=tenant)
                except (ReproError, OSError) as exc:
                    name = type(exc).__name__
                    failed[name] = failed.get(name, 0) + 1
                    continue
                latencies.append(time.perf_counter() - t0)
                # The process's CPU time: the client's side of the call
                # and the broker threads' handling of it.
                cpu.append(cpu_time() - c0)
                if seen[op] < self.CHECKED:
                    seen[op] += 1
                    checked.append((op, args, answer))
        return {"latencies": latencies, "cpu": cpu, "failed": failed,
                "attempted": attempted, "checked": checked}

    @staticmethod
    def _check(checked) -> List[str]:
        """Served answers must be bit-equal to in-process results."""
        from repro.estimators import LEOEstimator
        from repro.optimize import EnergyMinimizer

        problems = []
        for op, args, answer in checked:
            if op == "optimize":
                rates, powers, idle, work, deadline = args
                minimizer = EnergyMinimizer(rates, powers, idle)
                local = [{"config_index": s.config_index,
                          "duration": s.duration}
                         for s in minimizer.solve(work, deadline)]
                if (answer["schedule"] != local
                        or answer["energy"]
                        != minimizer.min_energy(work, deadline)):
                    problems.append("served optimize differs from "
                                    "EnergyMinimizer")
            else:
                local = LEOEstimator().estimate(args)
                if answer.tobytes() != np.asarray(local, float).tobytes():
                    problems.append("served estimate differs from "
                                    "LEOEstimator")
        return problems


class ClusterNode(Workload):
    name = "cluster-node"
    TENANTS = 3
    DEADLINE_S = 40.0
    #: The power caps a unit draws from, those of the cluster experiment
    #: (``repro.experiments.cluster_energy``) for three tenants.
    CAP_RANGE_W = (230.0, 260.0)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.repeatable = True

    def _item(self, index: int):
        """Unit ``index``'s tenants, utilizations, cap and seed; like
        fleet-serve's requests they depend only on the seed and index."""
        rng = np.random.default_rng([self.seed, 4, index])
        picks = [int(b) for b in rng.choice(25, size=self.TENANTS,
                                            replace=False)]
        utils = [float(u) for u in rng.uniform(0.2, 0.8, self.TENANTS)]
        return (picks, utils, float(rng.uniform(*self.CAP_RANGE_W)),
                int(rng.integers(2 ** 31)))

    def warm(self) -> None:
        from repro.experiments import harness
        _tiny_calibrate(harness.default_context("cores"))

    def setup(self):
        """The cores context with each target's leave-one-out tables."""
        from repro.experiments import harness

        ctx = harness.default_context.__wrapped__("cores", 0)
        targets = []
        for name in ctx.benchmark_names:
            view = ctx.dataset.leave_one_out(name)
            peak = float(ctx.truth.leave_one_out(name).true_rates.max())
            targets.append((name, ctx.profile(name), view, peak))
        return ctx, targets

    def prime(self, state) -> None:
        """The first unit twice: the same inputs give the same reports."""
        self.repeatable = self._unit(state, 0) == self._unit(state, 0)

    def _unit(self, state, index: int):
        """One cluster run, then a checkpointed run of its first tenant's
        application resumed from the checkpoint it left."""
        from repro.cluster import ClusterCoordinator, Tenant
        from repro.estimators import LEOEstimator
        from repro.runtime.controller import RuntimeController
        from repro.runtime.persistence import CheckpointManager
        from repro.runtime.sampling import RandomSampler

        ctx, targets = state
        picks, utils, cap, seed = self._item(index)
        coordinator = ClusterCoordinator(ctx.space, cap_watts=cap, seed=seed)
        for b, util in zip(picks, utils):
            name, profile, view, peak = targets[b]
            coordinator.admit(Tenant(
                name=name, workload=profile,
                work=util * peak * self.DEADLINE_S / self.TENANTS,
                deadline=self.DEADLINE_S, prior_rates=view.prior_rates,
                prior_powers=view.prior_powers))
        cluster = coordinator.run()

        name, profile, view, peak = targets[picks[0]]

        def controller():
            return RuntimeController(
                machine=ctx.machine(seed_offset=seed % 10 ** 6),
                space=ctx.space, estimator=LEOEstimator(),
                prior_rates=view.prior_rates,
                prior_powers=view.prior_powers,
                sampler=RandomSampler(seed=seed))

        manager = CheckpointManager(
            pathlib.Path(tempfile.gettempdir()) / "cluster-node.ckpt")
        first = controller()
        full = first.run(profile, utils[0] * peak * self.DEADLINE_S,
                         self.DEADLINE_S, first.calibrate(profile),
                         checkpointer=manager)
        saved = manager.load()
        manager.clear()
        resumed = (None if saved is None
                   else controller().resume(saved, profile))
        return cluster, full, resumed

    def measure(self, state, seconds: Optional[float] = None,
                units: Optional[int] = None) -> Outcome:
        unit_s, unit_cpu_s = [], []
        problems: List[str] = []
        if not self.repeatable:
            problems.append("the first unit run twice gave different "
                            "reports")
        tenants = misses = over_cap = not_resumed = unsaved = 0
        started = time.perf_counter()
        done = 0
        while not _budget_spent(started, seconds, done, units):
            t0, c0 = time.perf_counter(), cpu_time()
            cluster, full, resumed = self._unit(state, done)
            unit_cpu_s.append(cpu_time() - c0)
            unit_s.append(time.perf_counter() - t0)
            done += 1
            tenants += len(cluster.tenants)
            misses += sum(not t.met_deadline
                          for t in cluster.tenants.values())
            over_cap += not cluster.cap_respected
            unsaved += resumed is None
            not_resumed += resumed is not None and resumed != full
        if over_cap:
            problems.append(f"{over_cap} of {done} cluster runs exceeded "
                            f"their power cap")
        if not_resumed:
            problems.append(f"{not_resumed} of {done} resumed runs differ "
                            f"from the uninterrupted run")
        return Outcome(
            unit_s=unit_s, unit_cpu_s=unit_cpu_s, units=done,
            attempted=done, failed=0,
            report={
                "cluster_unit_p50_ms": (1e3 * median(unit_s), "ms", done),
                "units_per_s": (done / sum(unit_s), "1/s", done),
                "deadline_miss_ratio": (misses / tenants, "ratio", tenants),
                "runs_without_checkpoint": (unsaved, "count", done),
            },
            problems=problems)


WORKLOADS = {cls.name: cls for cls in (PaperLoop, HeteroLoop, FleetServe,
                                       ClusterNode)}


def _budget_spent(started: float, seconds: Optional[float], done: int,
                  units: Optional[int]) -> bool:
    """Whether a measurement should start no further unit.  At least one
    unit always runs, so every metric has a sample."""
    if units is not None:
        return done >= units
    return done >= 1 and time.perf_counter() - started >= seconds


def _tiny_calibrate(ctx) -> None:
    """One calibrate and run on the small cores space: imports the
    modules and fills lazy caches the timed paths would otherwise pay."""
    from repro.estimators import LEOEstimator
    from repro.runtime.controller import RuntimeController

    name = ctx.benchmark_names[0]
    view = ctx.dataset.leave_one_out(name)
    controller = RuntimeController(
        machine=ctx.machine(), space=ctx.space, estimator=LEOEstimator(),
        prior_rates=view.prior_rates, prior_powers=view.prior_powers,
        sample_count=8)
    estimate = controller.calibrate(ctx.profile(name))
    controller.run(ctx.profile(name),
                   0.5 * float(view.true_rates.max()) * 10.0, 10.0, estimate)
