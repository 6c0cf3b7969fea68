"""Spans recorded from outside the program, and the statistics over them.

The benchmark times each layer by wrapping a public function or method
of the package in place (:class:`Patcher`) and recording one span per
call into a :class:`Recorder`.  Nothing under ``src/`` is edited: a
wrapper is installed on the binding its caller looks up, and
:meth:`Patcher.remove` puts every original object back before an
untraced measurement.
"""

from __future__ import annotations

import contextvars
import functools
import math
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class Span:
    """One recorded call: name, interval, parent, and attributes."""

    __slots__ = ("ident", "name", "start", "end", "parent", "attrs")

    def __init__(self, ident: int, name: str, start: float,
                 parent: Optional["Span"], attrs: Dict[str, Any]) -> None:
        self.ident = ident
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ancestor(self, name: str) -> Optional["Span"]:
        """The nearest enclosing span called ``name``, if any."""
        node = self.parent
        while node is not None and node.name != name:
            node = node.parent
        return node


class Recorder:
    """Collects spans in memory; the parent is the caller's open span.

    The open span is a context variable, so spans on different threads
    (client threads, broker handler threads) get separate parent chains.
    A call nested directly inside a span of the same name (a subclass
    method delegating to its base) is not recorded twice.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._lock = threading.Lock()
        self._next = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             observe: Optional[Callable] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``observe(span, args, kwargs, result)`` may add attributes once
        the call returns; an exception is recorded as the ``error``
        attribute and re-raised.
        """
        parent = self._current.get()
        if parent is not None and parent.name == name:
            return fn(*args, **kwargs)
        with self._lock:
            self._next += 1
            ident = self._next
        span = Span(ident, name, time.perf_counter(), parent, {})
        token = self._current.set(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(span)
        if observe is not None:
            observe(span, args, kwargs, result)
        return result

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


class Target:
    """One binding to wrap: ``owner.attr`` recorded as span ``span``.

    ``owner`` is a module (a function bound by name) or a class (a
    method).  A target whose attribute does not exist is skipped, so the
    benchmark keeps running after the program deletes a mechanism.
    ``adapt``, if given, is called in place of the original inside the
    span (a counting shim around it); the original is what is restored.
    """

    def __init__(self, owner: Any, attr: str, span: str,
                 observe: Optional[Callable] = None,
                 adapt: Optional[Callable] = None) -> None:
        self.owner = owner
        self.attr = attr
        self.span = span
        self.observe = observe
        self.adapt = adapt


class Patcher:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._installed: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> int:
        return len(self._installed)

    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            original = vars(target.owner).get(target.attr)
            if original is None:
                continue
            self._installed.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr,
                    self._wrap(original, target))

    def _wrap(self, original: Callable, target: Target) -> Callable:
        recorder = self.recorder
        inner = target.adapt or original

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(target.span, inner, args, kwargs,
                                 target.observe)
        return wrapper

    def remove(self) -> None:
        """Restore every original binding, newest first, and verify it."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples,
    in integer arithmetic (``q`` has at most one decimal)."""
    return max(1, -(-round(q * 10) * count // 1000))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` that leaves at least
    :data:`MIN_BEYOND` of ``count`` samples beyond it; ``None`` when even
    the median does not."""
    for q in TAIL_LADDER:
        if count - _rank(q, count) >= MIN_BEYOND:
            return q
    return None


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap one another (calls on other threads parented
    here), so the covered part is the union of their intervals clipped
    to the parent's.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.ident, []).append(
                (span.start, span.end))
    result = {}
    for span in spans:
        covered = union_length(
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.ident, ())
            if min(e, span.end) > max(s, span.start))
        result[span.ident] = span.duration - covered
    return result
