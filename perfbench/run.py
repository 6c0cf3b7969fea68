"""The repository's benchmark: one command per workload, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload paper-loop --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no instrumentation installed; its times are process CPU times put on the
scale of a reference probe that runs alongside (``speed.py``), so that a
change of the host's speed during the run cancels.  ``--trace 1`` wraps each layer's public
functions (see ``layers.py``), measures for ``--seconds``, removes every
wrapper, then repeats the same units untraced; it reports the per-layer
metrics and the tracing overhead (traced minus untraced wall time).

Every run checks the program's outputs and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
check prints ``"correct": false`` and exits with status 1.  The lines
before it give each workload's own named metrics, the sample counts and
the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run: at least ``SETUP_REPEATS``, and more while they
#: total under ``SETUP_MIN_S``, so a set-up of milliseconds still gets a
#: steady median.  ``setup_s`` is their median.
SETUP_REPEATS = 7
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 100
#: BLAS threads the benchmark fixes.  On a small shared host one thread
#: is both faster and steadier for these matrix sizes than the library
#: default.
BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def pin_to_one_cpu() -> int:
    """Run the whole benchmark process on the lowest CPU it may use.

    Every thread (the fleet's brokers and handler threads, the client,
    the interpreter lock's hand-offs between them) then shares one core, so
    a run measures one core's work and does not depend on how the host
    schedules a second one; on a small shared host that schedule was the
    largest source of run-to-run spread for the threaded workloads.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(cpu: int) -> dict:
    """Interpreter, numerical libraries, BLAS threading and the host."""
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_fixed_by_benchmark": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": model,
    }


def blas_threads():
    """Threads the loaded OpenBLAS uses, or ``None`` if it cannot say."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def end_to_end(outcome, setup_cpu_s, setup_slowdown,
               measure_slowdown) -> dict:
    """The gated metrics.  Times are process CPU times divided by the
    host's slowdown in the same phase (``speed.py``): on a small shared
    host both the wall and the CPU time of the same code moved by a
    third from one run to the next, while the time on the probe's scale
    is what a change to the program moves.  The wall-time figures are in
    the workload's report."""
    from spans import median
    cpu = [t / measure_slowdown for t in outcome.unit_cpu_s]
    return {
        "setup_s": (median(setup_cpu_s) / setup_slowdown, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "op_cpu_p50_ms": (1e3 * median(cpu), "ms"),
        "work_per_cpu_s": (len(cpu) / sum(cpu), "1/s"),
    }


#: Layer-split checks of the traced run, per workload.
SPLIT_CHECKS = {
    "paper-loop": ("split.em_fit_share_of_calibrate", ">=", 0.90),
    "fleet-serve": ("split.optimize_em_fits", "==", 0),
}


def traced(workload, state, seconds):
    """Traced measurement, wrapper removal, then the same units untraced."""
    import layers
    from spans import Patcher, Recorder

    recorder = Recorder()
    found, probes = layers.targets()
    with Patcher(recorder) as patcher:
        patcher.install(found)
        started = time.perf_counter()
        first = workload.measure(state, seconds=seconds)
        traced_wall = time.perf_counter() - started
        counters = workload.server_counters(state)
    # Every wrapper is gone (Patcher.remove checks each binding).
    started = time.perf_counter()
    second = workload.measure(state, units=first.units)
    untraced_wall = time.perf_counter() - started

    probes["package_watts"] = layers.full_load_package_watts()
    metrics = layers.layer_metrics(recorder, probes, counters)
    metrics["split.em_fit_share_of_wall"] = (
        metrics["em.fit.busy_s"][0] / traced_wall, "ratio")
    metrics["trace.units"] = (first.units, "count")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.wrappers"] = (len(found), "count")

    problems = first.problems + second.problems
    check = SPLIT_CHECKS.get(workload.name)
    if check is not None:
        name, op, bound = check
        value = metrics[name][0]
        held = {">=": value >= bound, "<": value < bound,
                "==": value == bound}[op]
        if not held:
            problems.append(f"layer split: {name} = {value:.4g}, "
                            f"expected {op} {bound}")
    report = dict(first.report)
    report["estimator.fit.energy_j"] = (
        metrics["estimator.fit.energy_j"][0], "J",
        int(metrics["controller.calibrate.count"][0]))
    report["paper_runtime_energy_j"] = (layers.PAPER_RUNTIME_ENERGY_J, "J", 0)
    return metrics, report, problems, first, second


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before anything imports numpy, which reads these once.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    cpu = pin_to_one_cpu()

    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no package source under {ROOT / 'src'}; run from a "
                     f"checkout of the repository")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # The fleet registry and the checkpoint files go to temporary
    # directories; keep them inside the checkout and remove them after.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tempfile.tempdir = tempfile.mkdtemp(dir=scratch)
    try:
        return run(parser, args, contract, cpu)
    finally:
        shutil.rmtree(tempfile.tempdir, ignore_errors=True)


def run(parser, args, contract, cpu: int) -> int:
    from spans import median
    from speed import SpeedSampler, cpu_time
    from workloads import WORKLOADS

    known = [w["name"] for w in contract["workloads"]]
    if args.workload not in known or args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {known}")
    workload = WORKLOADS[args.workload](args.seed)

    workload.warm()
    setup_s, setup_cpu_s = [], []
    state = None
    # Probes run only in set-up and in untraced measurement; a traced
    # run reports no time that is compared across runs.
    sampler = SpeedSampler()
    with sampler if not args.trace else contextlib.nullcontext():
        while len(setup_s) < SETUP_REPEATS or (
                sum(setup_s) < SETUP_MIN_S
                and len(setup_s) < SETUP_MAX_REPEATS):
            if state is not None:
                workload.close(state)
            started, cpu_started = time.perf_counter(), cpu_time()
            state = workload.setup()
            setup_cpu_s.append(cpu_time() - cpu_started)
            setup_s.append(time.perf_counter() - started)
    setup_probes = sampler.mark()
    try:
        workload.prime(state)
        if args.trace:
            metrics, report, problems, first, second = traced(
                workload, state, args.seconds)
            attempted = first.attempted + second.attempted
            failed = first.failed + second.failed
            wanted = contract["per_layer"]
        else:
            with sampler:
                outcome = workload.measure(state, seconds=args.seconds)
            slowdown = (sampler.slowdown(0, setup_probes),
                        sampler.slowdown(setup_probes))
            metrics = end_to_end(outcome, setup_cpu_s, *slowdown)
            report, problems = dict(outcome.report), outcome.problems
            report["setup_wall_s"] = (median(setup_s), "s", len(setup_s))
            report["op_wall_p50_ms"] = (1e3 * median(outcome.unit_s), "ms",
                                        len(outcome.unit_s))
            report["host_slowdown.setup"] = (slowdown[0], "x", setup_probes)
            report["host_slowdown.measure"] = (
                slowdown[1], "x", sampler.mark() - setup_probes)
            attempted, failed = outcome.attempted, outcome.failed
            wanted = contract["end_to_end"]
    finally:
        workload.close(state)

    for name, (value, unit, samples) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples})")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_wall_s_samples": setup_s,
        "setup_cpu_s_samples": setup_cpu_s, "problems": problems,
        "report": {k: {"value": v, "unit": u, "samples": n}
                   for k, (v, u, n) in report.items()},
        "environment": environment(cpu),
    }))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]][0]),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
