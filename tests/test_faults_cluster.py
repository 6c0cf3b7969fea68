"""Cluster fault tests: tenant crashes, cap transients, infeasible caps.

The coordinator's resilience contract (docs/RESILIENCE.md): injected
tenant crashes become ordinary departures at the next epoch boundary,
cap transients rebuild the allocator at the scaled cap and respect it,
per-tenant epoch faults idle one tenant for one epoch instead of taking
the node down, and demand beyond the cap degrades through the
allocator's typed ``InfeasibleConstraintError`` handling rather than
crashing the run.
"""

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, Tenant
from repro.cluster.allocator import PowerCapAllocator, TenantDemand
from repro.cluster.partition import PartitionedMachine
from repro.errors import InfeasibleConstraintError
from repro.faults import FaultInjector, FaultPlan, FaultSpec, use
from repro.obs import Observability
from repro.workloads.suite import get_benchmark

CAP = 220.0
DEADLINE = 15.0
SEED = 3
NAMES = ("kmeans", "blackscholes")


def plan(*specs, seed=0):
    return FaultPlan(name="test", seed=seed, specs=specs)


def sized_work(cores_space, names, utilizations, deadline=DEADLINE):
    share = cores_space.topology.total_cores // len(names)
    node = PartitionedMachine(cores_space, [(n, share) for n in names])
    for name in names:
        node.set_profile(name, get_benchmark(name))
    work = {}
    for name, utilization in zip(names, utilizations):
        view = node.view(name)
        profile = get_benchmark(name)
        max_rate = max(view.true_rate(profile, c)
                       for c in node.space_for(name).space)
        work[name] = utilization * max_rate * deadline
    return work


def build(cores_space, cores_dataset, cap=CAP, observability=None,
          utilizations=(0.3, 0.4)):
    coordinator = ClusterCoordinator(
        cores_space, cap_watts=cap, policy="joint", seed=SEED,
        observability=observability)
    work = sized_work(cores_space, NAMES, utilizations)
    for name in NAMES:
        view = cores_dataset.leave_one_out(name)
        coordinator.admit(Tenant(
            name=name, workload=get_benchmark(name), work=work[name],
            deadline=DEADLINE,
            prior_rates=view.prior_rates, prior_powers=view.prior_powers))
    return coordinator


class TestTenantCrash:
    def test_crash_departs_victim_at_epoch_boundary(self, cores_space,
                                                    cores_dataset):
        observability = Observability.recording()
        coordinator = build(cores_space, cores_dataset,
                            observability=observability)
        with use(FaultInjector(plan(
                FaultSpec("tenant-crash", target="kmeans", start=3.0,
                          max_events=1)))):
            report = coordinator.run()
        counters = observability.metrics.snapshot()["counters"]
        assert counters["cluster_tenant_crashes_total"] == 1
        # The victim's report records its incomplete work; the survivor
        # still finishes under the cap.
        assert set(report.tenants) == set(NAMES)
        assert not report.tenants["kmeans"].met_deadline
        assert report.tenants["blackscholes"].met_deadline
        assert report.cap_respected

    def test_crash_of_unknown_target_picks_a_victim(self, cores_space,
                                                    cores_dataset):
        coordinator = build(cores_space, cores_dataset)
        with use(FaultInjector(plan(
                FaultSpec("tenant-crash", target="no-such-tenant",
                          start=3.0, max_events=1)))):
            report = coordinator.run()
        crashed = [name for name, t in report.tenants.items()
                   if not t.met_deadline]
        assert len(crashed) == 1


class TestCapTransient:
    def test_transient_scales_the_cap_and_recovers(self, cores_space,
                                                   cores_dataset):
        observability = Observability.recording()
        coordinator = build(cores_space, cores_dataset,
                            observability=observability)
        with use(FaultInjector(plan(
                FaultSpec("cap-transient", start=2.0, end=8.0,
                          magnitude=0.7)))):
            report = coordinator.run()
        counters = observability.metrics.snapshot()["counters"]
        assert counters["cluster_cap_transients_total"] == 1
        # The full-cap invariant still holds everywhere, and the run
        # survives the brown-out and the restore.
        assert report.cap_respected
        assert report.reallocations >= 2
        # After the window the allocator is back at the full cap.
        assert coordinator.allocator.cap_watts == pytest.approx(CAP)

    def test_scale_clamped_to_a_floor(self, cores_space, cores_dataset):
        # A pathological magnitude cannot zero the cap: the coordinator
        # clamps the scale so the allocator stays constructible.
        coordinator = build(cores_space, cores_dataset)
        with use(FaultInjector(plan(
                FaultSpec("cap-transient", start=2.0, end=5.0,
                          magnitude=0.0)))):
            report = coordinator.run()
        assert report.epochs > 0
        assert coordinator.allocator.cap_watts == pytest.approx(CAP)


class TestEpochFaults:
    def test_mid_epoch_dropouts_never_take_down_the_node(
            self, cores_space, cores_dataset):
        # Sensor dropouts strike tenants mid-epoch; each faulty epoch
        # idles that tenant for the epoch instead of crashing the run.
        observability = Observability.recording()
        coordinator = build(cores_space, cores_dataset,
                            observability=observability)
        with use(FaultInjector(plan(
                FaultSpec("sensor-dropout", end=10.0, probability=0.2)))):
            report = coordinator.run()
        assert report.epochs > 0
        assert set(report.tenants) == set(NAMES)
        # Faulty sensors can bias the power estimates the budgets rest
        # on, so the hard cap guarantee is out of reach — but the
        # allocation must stay near it, not run open-loop.
        for peak in report.epoch_peak_watts:
            assert peak <= CAP * 1.15

    def test_full_cluster_plan_survives(self, cores_space, cores_dataset):
        from repro.faults.plans import get_plan
        coordinator = build(cores_space, cores_dataset)
        with use(FaultInjector(get_plan("cluster", seed=SEED))) as injector:
            report = coordinator.run()
        assert report.epochs > 0
        assert report.cap_respected
        assert injector.total_fired > 0


class TestCalibrationLoss:
    def test_tenant_that_loses_every_sample_departs(self, cores_space,
                                                    cores_dataset):
        # Total sensor dropout through the first tenant's admission
        # calibration and its retry: the tenant departs at the epoch
        # boundary with a counted reason, and the node keeps running
        # for the tenant that arrives after the dropout window.
        observability = Observability.recording()
        coordinator = ClusterCoordinator(
            cores_space, cap_watts=CAP, policy="joint", seed=SEED,
            observability=observability)
        for name, arrival in zip(NAMES, (0.0, 20.0)):
            view = cores_dataset.leave_one_out(name)
            coordinator.admit(Tenant(
                name=name, workload=get_benchmark(name), work=200.0,
                deadline=DEADLINE, arrival=arrival,
                prior_rates=view.prior_rates,
                prior_powers=view.prior_powers))
        with use(FaultInjector(plan(
                FaultSpec("sensor-dropout", end=15.0, probability=1.0)))):
            report = coordinator.run()
        lost, survivor = (report.tenants[name] for name in NAMES)
        assert lost.calibrations == 2 and lost.epochs == 0
        assert not lost.met_deadline
        assert survivor.met_deadline and survivor.epochs > 0
        counters = observability.metrics.snapshot()["counters"]
        assert counters["cluster_calibration_departures_total"] == 1
        assert counters["cluster_calibration_faults_total"] == 2


class TestInfeasibleDemand:
    def _demand(self, name, required):
        rates = np.array([1.0, 2.0, 4.0])
        powers = np.array([40.0, 60.0, 100.0])
        return TenantDemand(name=name, rates=rates, powers=powers,
                            idle_power=10.0, required_rate=required)

    def test_lp_raises_typed_error_beyond_capacity(self):
        from repro.optimize.lp import EnergyMinimizer
        minimizer = EnergyMinimizer(np.array([1.0, 2.0]),
                                    np.array([50.0, 80.0]), 10.0)
        with pytest.raises(InfeasibleConstraintError) as exc:
            minimizer.solve(work=30.0, deadline=10.0)  # needs 3 hb/s
        assert exc.value.required == pytest.approx(3.0)
        assert exc.value.max_rate == pytest.approx(2.0)

    def test_allocator_degrades_instead_of_raising(self):
        # Demand above any tenant's curve: the allocator clamps the
        # target to the achievable rate (catching the typed error
        # internally) and marks the allocation infeasible.
        allocator = PowerCapAllocator(cap_watts=300.0)
        allocation = allocator.allocate([
            self._demand("greedy", required=100.0),
            self._demand("modest", required=1.0),
        ])
        greedy = allocation.tenant("greedy")
        assert not greedy.feasible
        assert not allocation.all_feasible
        assert greedy.target_rate <= 4.0 + 1e-9
        assert allocation.tenant("modest").feasible

    def test_tight_cap_degrades_proportionally(self):
        # Even the minimal feasible budgets exceed a starved cap: the
        # proportional mode still returns a valid allocation under it.
        allocator = PowerCapAllocator(cap_watts=50.0)
        allocation = allocator.allocate([
            self._demand("a", required=4.0),
            self._demand("b", required=4.0),
        ])
        assert allocation.total_budget_watts <= allocator.usable_watts + 1e-9
        assert not allocation.all_feasible

    def test_overdemand_under_faults_still_completes(self, cores_space,
                                                     cores_dataset):
        # Both tenants demand near-peak rates under a tight cap while
        # the cluster plan injects a crash and a brown-out: the run
        # must finish and report honest deadline misses, not raise.
        coordinator = build(cores_space, cores_dataset, cap=180.0,
                            utilizations=(0.95, 0.95))
        from repro.faults.plans import get_plan
        with use(FaultInjector(get_plan("cluster", seed=1))):
            report = coordinator.run()
        assert report.epochs > 0
        for peak in report.epoch_peak_watts:
            assert peak <= 180.0 * (1.0 + 1e-6)
