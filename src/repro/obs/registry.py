"""The observability core: counters, timers, and nestable spans.

Design constraints (why this module looks the way it does):

**No-op fast path.**  Instrumentation lives inside the hot kernels
(:mod:`repro.core.rules`, the protocol engines), so when observability is
off the cost must be a single module-level boolean check per *pass*, not
per inner-loop iteration.  :func:`enabled` is that check; call sites hoist
it out of their loops and aggregate counts locally before one
:func:`add` flush.  :func:`span` returns a shared do-nothing context
manager when disabled, so no object is allocated.

**Process-safe registry.**  The benchmark harness fans trials out to a
process pool; a forked worker inherits the parent's module state.  The
active :class:`Registry` is therefore keyed by ``os.getpid()`` — a child
process transparently starts from a fresh registry instead of double
counting into (a copy of) the parent's.  :meth:`Registry.snapshot` /
:meth:`Registry.merge` turn registries into plain dicts and back so
workers can ship their numbers across the pool boundary.

**Nestable spans.**  Spans form a tree: entering ``span("cds")`` inside
``span("interval")`` aggregates under the path ``"interval/cds"``.  The
span stack is thread-local; counters incremented while a span is open are
additionally attributed to the innermost open span, which is what lets the
exporter print counters underneath the stage that produced them.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Any, Callable, Iterator
from contextlib import contextmanager

__all__ = [
    "Registry",
    "SpanStats",
    "enable",
    "disable",
    "enabled",
    "reset",
    "get_registry",
    "span",
    "count",
    "add",
    "gauge_max",
    "timed",
    "capture",
    "isolated_capture",
    "current_path",
]

#: Path separator for nested span names.
SEP = "/"


class SpanStats:
    """Aggregate timing of every execution of one span path."""

    __slots__ = ("count", "total_s", "min_s", "max_s", "counters")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self.counters: dict[str, float] = {}

    def record(self, dur_s: float) -> None:
        self.count += 1
        self.total_s += dur_s
        if dur_s < self.min_s:
            self.min_s = dur_s
        if dur_s > self.max_s:
            self.max_s = dur_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "counters": dict(self.counters),
        }


class Registry:
    """One process's counters, span aggregates, and (optional) trace.

    All mutation goes through the module-level helpers (:func:`count`,
    :func:`add`, :func:`span`); the registry itself only stores.  A lock
    guards the dicts — contention is negligible because flushes happen per
    pass, not per iteration.
    """

    def __init__(self, *, trace: bool = False) -> None:
        self.counters: dict[str, float] = {}
        self.spans: dict[str, SpanStats] = {}
        self.trace_events: list[dict[str, Any]] | None = [] if trace else None
        self.t0 = time.perf_counter()
        self._lock = threading.Lock()

    # -- mutation ------------------------------------------------------------

    def add_counter(self, name: str, n: float, path: str | None) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + n
            if path:
                stats = self.spans.get(path)
                if stats is None:
                    stats = self.spans[path] = SpanStats()
                stats.counters[name] = stats.counters.get(name, 0.0) + n
            if self.trace_events is not None:
                self.trace_events.append(
                    {
                        "ev": "count",
                        "name": name,
                        "n": n,
                        "path": path or "",
                        "t": time.perf_counter() - self.t0,
                    }
                )

    def raise_counter(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.counters.get(name, float("-inf")):
                self.counters[name] = value

    def record_span(self, path: str, t_enter: float, dur_s: float) -> None:
        with self._lock:
            stats = self.spans.get(path)
            if stats is None:
                stats = self.spans[path] = SpanStats()
            stats.record(dur_s)
            if self.trace_events is not None:
                self.trace_events.append(
                    {
                        "ev": "span",
                        "path": path,
                        "t": t_enter - self.t0,
                        "dur_s": dur_s,
                    }
                )

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view (JSON-serializable; crosses process pools)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "spans": {p: s.as_dict() for p, s in self.spans.items()},
            }

    def merge(self, snap: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another process into this registry."""
        with self._lock:
            for name, n in snap.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0.0) + n
            for path, d in snap.get("spans", {}).items():
                stats = self.spans.get(path)
                if stats is None:
                    stats = self.spans[path] = SpanStats()
                if d["count"]:
                    stats.count += d["count"]
                    stats.total_s += d["total_s"]
                    stats.min_s = min(stats.min_s, d["min_s"])
                    stats.max_s = max(stats.max_s, d["max_s"])
                for name, n in d.get("counters", {}).items():
                    stats.counters[name] = stats.counters.get(name, 0.0) + n


# -- module state -----------------------------------------------------------

_enabled = False
_registries: dict[int, Registry] = {}
_trace_requested = False
_tls = threading.local()


def _stack() -> list[str]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def get_registry() -> Registry:
    """The calling process's registry (created fresh after a fork)."""
    pid = os.getpid()
    reg = _registries.get(pid)
    if reg is None:
        reg = _registries[pid] = Registry(trace=_trace_requested)
    return reg


def enabled() -> bool:
    """Is instrumentation live?  Hoist this out of hot loops."""
    return _enabled


def enable(*, trace: bool = False) -> Registry:
    """Turn instrumentation on; returns the active registry.

    ``trace=True`` additionally buffers every span exit and counter flush
    as an event for the JSON-lines exporter (memory grows with activity —
    use for bounded profiling runs, not endless simulations).
    """
    global _enabled, _trace_requested
    _trace_requested = trace
    reg = get_registry()
    if trace and reg.trace_events is None:
        reg.trace_events = []
    _enabled = True
    return reg


def disable() -> None:
    """Turn instrumentation off (the registry keeps its data)."""
    global _enabled
    _enabled = False


def reset() -> Registry:
    """Drop this process's registry and start a fresh one."""
    _registries[os.getpid()] = reg = Registry(trace=_trace_requested)
    return reg


# -- spans ------------------------------------------------------------------


class _NoopSpan:
    """Shared do-nothing context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    """A live span: pushes its name on the thread-local stack on enter,
    records the duration under the joined path on exit."""

    __slots__ = ("name", "path", "t_enter")

    def __init__(self, name: str) -> None:
        self.name = name
        self.path = ""
        self.t_enter = 0.0

    def __enter__(self) -> "_Span":
        stack = _stack()
        stack.append(self.name)
        self.path = SEP.join(stack)
        self.t_enter = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        dur = time.perf_counter() - self.t_enter
        stack = _stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        get_registry().record_span(self.path, self.t_enter, dur)


def span(name: str) -> _Span | _NoopSpan:
    """Context manager timing one stage; nests into a path when enabled.

    ``name`` must not contain ``"/"`` (reserved as the path separator).
    """
    if not _enabled:
        return _NOOP
    return _Span(name)


def current_path() -> str:
    """Path of the innermost open span in this thread ('' outside spans)."""
    stack = getattr(_tls, "stack", None)
    return SEP.join(stack) if stack else ""


# -- counters ---------------------------------------------------------------


def add(name: str, n: float) -> None:
    """Add ``n`` to counter ``name`` (no-op when disabled).

    The increment is also attributed to the innermost open span, so the
    exporter can show which stage produced it.
    """
    if not _enabled:
        return
    get_registry().add_counter(name, n, current_path())


def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` (no-op when disabled)."""
    if not _enabled:
        return
    get_registry().add_counter(name, n, current_path())


def gauge_max(name: str, value: float) -> None:
    """Raise counter ``name`` to ``value`` if it is higher (no-op when
    disabled).

    A high-water mark within one registry; :meth:`Registry.merge` adds
    counters, so it does not combine gauges across processes.
    """
    if not _enabled:
        return
    get_registry().raise_counter(name, value)


def timed(name: str) -> Callable:
    """Decorator form of :func:`span` for whole functions."""

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return fn(*args, **kwargs)
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    return deco


@contextmanager
def capture(*, trace: bool = False) -> Iterator[Registry]:
    """Enable instrumentation on a fresh registry for one ``with`` block.

    Restores the previous enabled/disabled state afterwards; the yielded
    registry stays readable after the block closes.  This is the intended
    way for tests and the ``repro profile`` CLI to scope a measurement::

        with obs.capture() as reg:
            compute_cds(net, "el2", energy=levels)
        print(reg.counters["rule2.coverage_tests"])
    """
    global _enabled, _trace_requested
    prev_enabled, prev_trace = _enabled, _trace_requested
    _trace_requested = trace
    reg = reset()
    _enabled = True
    try:
        yield reg
    finally:
        _enabled = prev_enabled
        _trace_requested = prev_trace
        if _registries.get(os.getpid()) is reg:
            reset()


@contextmanager
def isolated_capture() -> Iterator[Registry]:
    """Enable instrumentation on a fresh registry, then put everything back.

    The sharded executor runs every trial under one of these so a shard's
    counters/spans can be :meth:`Registry.snapshot`-ed and merged into the
    parent regardless of where the shard ran (pool worker, or in-process on
    the serial path).  It differs from :func:`capture` in two ways that
    matter there:

    * it restores the *previous registry object* on exit (``capture``
      resets to a brand-new one, which would discard an enclosing
      ``capture`` block's data on the serial path), so it nests; and
    * it swaps in an empty span stack, so span paths recorded inside are
      identical whether or not the caller holds spans open — a trial
      measured serially and one measured in a worker produce the same
      snapshot.

    No trace buffer is created: snapshots do not carry trace events across
    the pool boundary.
    """
    global _enabled
    pid = os.getpid()
    prev_reg = _registries.get(pid)
    prev_enabled = _enabled
    prev_stack = getattr(_tls, "stack", None)
    _tls.stack = []
    reg = _registries[pid] = Registry()
    _enabled = True
    try:
        yield reg
    finally:
        _enabled = prev_enabled
        if prev_reg is not None:
            _registries[pid] = prev_reg
        elif _registries.get(pid) is reg:
            del _registries[pid]
        _tls.stack = prev_stack if prev_stack is not None else []
