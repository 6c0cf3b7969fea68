"""The host's speed, sampled during a measurement, to put CPU times on
one scale.

On a small shared host the same code's CPU time moves by a third from
one minute to the next, with what the neighbours on the physical core
are doing; no median inside one run removes a change that lasts the
whole run.  So while a run measures, :class:`SpeedSampler` runs a fixed
reference probe every :data:`INTERVAL_S` of process CPU time (a profiling
timer signal, handled between bytecodes of the main thread) and records
how long each probe took.  The probe's mean over a phase, against
:data:`NOMINAL_S`, is that phase's slowdown; dividing the phase's CPU
times by it gives the time the program would have taken on a host where
the probe takes :data:`NOMINAL_S`.

:func:`cpu_time` is the process CPU clock minus the time spent in
probes, so the probes do not count as work of the program.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional

import numpy as np

#: Process CPU seconds between probes.
INTERVAL_S = 0.02
#: The probe's CPU time on the host the scale is set to.
NOMINAL_S = 3e-4

_MATRIX = np.linspace(0.5, 1.5, 48 * 48).reshape(48, 48)
_active: Optional["SpeedSampler"] = None


def probe() -> float:
    """The reference work: interpreted loops over dicts and floats, and
    small array operations, the two kinds of work the program does."""
    table = {}
    total = 0.0
    for i in range(600):
        key = i % 13
        table[key] = table.get(key, 0.0) + i * 0.5
        total += (i + 1.0) ** 0.5
    vector = _MATRIX[0]
    for _ in range(20):
        vector = _MATRIX @ vector
        vector = vector / float(np.abs(vector).max())
    return total + float(vector.sum()) + sum(table.values())


def cpu_time() -> float:
    """Process CPU seconds, less the time the active sampler's probes
    took."""
    spent = _active.spent if _active is not None else 0.0
    return time.process_time() - spent


class SpeedSampler:
    """Runs :func:`probe` on a CPU-time timer and records its duration."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def __enter__(self) -> "SpeedSampler":
        global _active
        if _active is not None:
            raise RuntimeError("a speed sampler is already running")
        _active = self
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        _active = None

    def _tick(self, signum, frame) -> None:
        started = time.thread_time()
        probe()
        took = time.thread_time() - started
        self.samples.append(took)
        self.spent += took

    def mark(self) -> int:
        """A position in the samples, to delimit a phase."""
        return len(self.samples)

    def slowdown(self, start: int = 0, end: Optional[int] = None) -> float:
        """Mean probe time of samples ``start:end`` over
        :data:`NOMINAL_S`; 1.0 when the phase had no probe."""
        window = self.samples[start:end]
        if not window:
            return 1.0
        return (sum(window) / len(window)) / NOMINAL_S
