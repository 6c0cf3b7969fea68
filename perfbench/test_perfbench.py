"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
from spans import (Patcher, Recorder, Span, Target, percentile,  # noqa: E402
                   self_times, tail_percentile, union_length)


class TestTailPercentile:
    @pytest.mark.parametrize("count, expected", [
        (10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0),
        (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0),
    ])
    def test_highest_percentile_with_ten_beyond(self, count, expected):
        q = tail_percentile(count)
        assert q == expected
        values = list(range(count))
        beyond = sum(v > percentile(values, q) for v in values)
        assert beyond >= 10

    @pytest.mark.parametrize("count", [0, 1, 19])
    def test_too_few_samples_give_no_tail(self, count):
        assert tail_percentile(count) is None

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100


def _span(ident, name, start, end, parent=None):
    span = Span(ident, name, start, parent, {})
    span.end = end
    return span


class TestSelfTime:
    def test_overlapping_children_counted_once(self):
        parent = _span(1, "p", 0.0, 10.0)
        spans = [parent,
                 _span(2, "c", 1.0, 4.0, parent),
                 _span(3, "c", 3.0, 6.0, parent),    # overlaps the first
                 _span(4, "c", 8.0, 12.0, parent)]   # runs past the parent
        own = self_times(spans)
        assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
        assert own[2] == pytest.approx(3.0)

    def test_grandchildren_do_not_reduce_the_grandparent(self):
        root = _span(1, "r", 0.0, 10.0)
        child = _span(2, "c", 2.0, 6.0, root)
        grandchild = _span(3, "g", 3.0, 5.0, child)
        own = self_times([root, child, grandchild])
        assert own[1] == pytest.approx(6.0)
        assert own[2] == pytest.approx(2.0)
        assert own[3] == pytest.approx(2.0)

    def test_union_length(self):
        assert union_length([]) == 0.0
        assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


class TestRecorder:
    def test_parent_and_nested_same_name(self):
        recorder = Recorder()

        def inner():
            return recorder.call("leaf", lambda: 7, (), {})

        def outer():
            # A same-name call directly inside is not recorded twice.
            return recorder.call("outer", inner, (), {})

        assert recorder.call("outer", outer, (), {}) == 7
        names = [s.name for s in recorder.spans]
        assert sorted(names) == ["leaf", "outer"]
        leaf = recorder.named("leaf")[0]
        assert leaf.parent is recorder.named("outer")[0]

    def test_error_recorded_and_reraised(self):
        recorder = Recorder()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            recorder.call("bad", boom, (), {})
        assert recorder.spans[0].attrs["error"] == "KeyError"


class TestWrapperRemoval:
    def _fixture(self):
        module = types.ModuleType("fake")
        module.double = lambda x: 2 * x

        class Thing:
            def method(self, x):
                return x + 1

        return module, Thing

    def test_remove_restores_every_binding(self):
        module, thing = self._fixture()
        originals = (module.double, vars(thing)["method"])
        recorder = Recorder()
        patcher = Patcher(recorder)
        patcher.install([Target(module, "double", "f"),
                         Target(thing, "method", "m"),
                         Target(thing, "missing", "skipped")])
        assert patcher.installed == 2
        assert module.double(2) == 4
        assert thing().method(1) == 2
        assert len(recorder.spans) == 2
        patcher.remove()
        assert (module.double, vars(thing)["method"]) == originals
        module.double(2)
        thing().method(1)
        assert len(recorder.spans) == 2

    def test_package_bindings_restored_before_untraced_run(self):
        recorder = Recorder()
        found, _ = layers.targets()
        before = {(id(t.owner), t.attr): vars(t.owner).get(t.attr)
                  for t in found}
        patcher = Patcher(recorder)
        patcher.install(found)
        assert patcher.installed == sum(v is not None
                                        for v in before.values())
        assert any(vars(t.owner).get(t.attr) is not before[
            (id(t.owner), t.attr)] for t in found)
        patcher.remove()
        after = {(id(t.owner), t.attr): vars(t.owner).get(t.attr)
                 for t in found}
        assert all(after[key] is before[key] for key in before)

    def test_traced_fit_records_layers_and_keeps_results(self):
        import numpy as np

        from repro.estimators import EstimationProblem, LEOEstimator

        rng = np.random.default_rng(0)
        prior = rng.uniform(1.0, 2.0, size=(6, 16))
        problem = EstimationProblem(
            features=np.ones((16, 1)), prior=prior,
            observed_indices=np.array([1, 5, 9]),
            observed_values=np.array([1.2, 1.4, 1.1]))
        plain = LEOEstimator().estimate(problem)
        recorder = Recorder()
        found, probes = layers.targets()
        with Patcher(recorder) as patcher:
            patcher.install(found)
            traced = LEOEstimator().estimate(problem)
        assert traced.tobytes() == plain.tobytes()
        probes["package_watts"] = 100.0
        metrics = layers.layer_metrics(recorder, probes, {})
        assert metrics["estimator.fit.count"][0] == 1
        assert metrics["em.fit.count"][0] == 1
        assert metrics["em.iteration.count"][0] >= 1
        assert metrics["linalg.posterior.count"][0] >= 1
        fit = recorder.named("em.fit")[0]
        assert fit.ancestor("estimator.fit") is not None


class TestSpeedSampler:
    def test_slowdown_is_mean_probe_time_over_nominal(self):
        sampler = speed.SpeedSampler()
        sampler.samples = [speed.NOMINAL_S, 3 * speed.NOMINAL_S,
                           2 * speed.NOMINAL_S]
        assert sampler.slowdown(0, 2) == pytest.approx(2.0)
        assert sampler.slowdown(2) == pytest.approx(2.0)
        assert sampler.slowdown(3) == 1.0

    def test_probes_run_and_are_left_out_of_cpu_time(self):
        import signal
        import time

        process = time.process_time()
        with speed.SpeedSampler() as sampler:
            started = speed.cpu_time()
            while time.process_time() - process < 0.3:
                sum(range(1000))
            spent = speed.cpu_time() - started
            probes = sampler.spent
        assert sampler.mark() >= 5
        assert spent == pytest.approx(
            time.process_time() - process - probes, abs=0.05)
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
        assert speed.cpu_time() == pytest.approx(time.process_time(),
                                                 abs=1e-3)

    def test_one_sampler_at_a_time(self):
        with speed.SpeedSampler():
            with pytest.raises(RuntimeError):
                speed.SpeedSampler().__enter__()
