"""Unit tests for the observability core (repro.obs.registry)."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs import registry as reg_mod


@pytest.fixture(autouse=True)
def _clean_state():
    """Every test starts disabled with a fresh registry."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestEnableDisable:
    def test_disabled_by_default_in_suite(self):
        assert not obs.enabled()

    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_counters_are_noops_when_disabled(self):
        obs.count("x")
        obs.add("y", 10)
        obs.gauge_max("z", 3)
        assert obs.get_registry().counters == {}

    def test_disabled_span_is_shared_noop(self):
        a = obs.span("a")
        b = obs.span("b")
        assert a is b  # no allocation on the fast path
        with a:
            obs.count("inside")
        assert obs.get_registry().spans == {}


class TestCounters:
    def test_count_and_add_accumulate(self):
        obs.enable()
        obs.count("hits")
        obs.count("hits", 4)
        obs.add("bytes", 2.5)
        c = obs.get_registry().counters
        assert c["hits"] == 5
        assert c["bytes"] == 2.5

    def test_gauge_max_keeps_the_high_water_mark(self):
        obs.enable()
        for value in (3, 10, 4):
            obs.gauge_max("batch", value)
        assert obs.get_registry().counters["batch"] == 10

    def test_counters_attributed_to_innermost_span(self):
        obs.enable()
        with obs.span("outer"):
            obs.count("a")
            with obs.span("inner"):
                obs.count("b", 3)
        spans = obs.get_registry().spans
        assert spans["outer"].counters == {"a": 1}
        assert spans["outer/inner"].counters == {"b": 3}


class TestSpans:
    def test_nesting_builds_paths(self):
        obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                pass
            with obs.span("b"):
                pass
        spans = obs.get_registry().spans
        assert spans["a"].count == 1
        assert spans["a/b"].count == 2
        assert spans["a/b"].total_s >= spans["a/b"].max_s > 0.0
        assert spans["a/b"].min_s <= spans["a/b"].mean_s <= spans["a/b"].max_s

    def test_span_pops_stack_on_exception(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("outer"):
                raise ValueError("boom")
        assert obs.current_path() == ""
        assert obs.get_registry().spans["outer"].count == 1

    def test_span_stack_is_thread_local(self):
        obs.enable()
        seen: list[str] = []

        def worker():
            with obs.span("w"):
                seen.append(obs.current_path())

        with obs.span("main"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert obs.current_path() == "main"
        assert seen == ["w"]

    def test_timed_decorator(self):
        obs.enable()

        @obs.timed("fn")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert obs.get_registry().spans["fn"].count == 1


class TestProcessSafety:
    def test_registry_is_per_pid(self, monkeypatch):
        obs.enable()
        obs.count("parent")
        parent = obs.get_registry()
        # simulate a forked worker: same module state, different pid
        monkeypatch.setattr(reg_mod.os, "getpid", lambda: 999_999_999)
        child = obs.get_registry()
        assert child is not parent
        assert child.counters == {}
        obs.count("child")
        assert parent.counters == {"parent": 1}

    def test_snapshot_merge_roundtrip(self):
        obs.enable()
        with obs.span("stage"):
            obs.count("n", 2)
        snap = obs.get_registry().snapshot()
        fresh = reg_mod.Registry()
        fresh.merge(snap)
        fresh.merge(snap)
        assert fresh.counters["n"] == 4
        assert fresh.spans["stage"].count == 2
        assert fresh.spans["stage"].counters["n"] == 4


class TestCapture:
    def test_capture_scopes_enablement_and_registry(self):
        assert not obs.enabled()
        with obs.capture() as reg:
            assert obs.enabled()
            obs.count("x")
            assert obs.get_registry() is reg
        assert not obs.enabled()
        # the captured registry stays readable; the live one is fresh
        assert reg.counters == {"x": 1}
        assert obs.get_registry() is not reg

    def test_capture_restores_prior_enabled_state(self):
        obs.enable()
        with obs.capture():
            pass
        assert obs.enabled()

    def test_capture_trace_buffers_events(self):
        with obs.capture(trace=True) as reg:
            with obs.span("s"):
                obs.count("c")
        assert reg.trace_events is not None
        kinds = [e["ev"] for e in reg.trace_events]
        assert kinds == ["count", "span"]


class TestIsolatedCapture:
    """isolated_capture: the executor's per-shard capture primitive."""

    def test_restores_outer_registry_object(self):
        with obs.capture() as outer:
            obs.count("outer")
            with obs.isolated_capture() as inner:
                obs.count("inner")
            assert obs.get_registry() is outer
            obs.count("outer")
        assert outer.counters == {"outer": 2}
        assert inner.counters == {"inner": 1}

    def test_restores_disabled_state(self):
        assert not obs.enabled()
        with obs.isolated_capture():
            assert obs.enabled()
        assert not obs.enabled()

    def test_span_paths_ignore_enclosing_spans(self):
        # a shard measured under an open caller span must record the same
        # paths as one measured in a worker (where the stack is empty)
        with obs.capture():
            with obs.span("outer"):
                with obs.isolated_capture() as inner:
                    with obs.span("trial"):
                        obs.count("c")
                assert reg_mod.current_path() == "outer"
        assert set(inner.spans) == {"trial"}
        assert inner.spans["trial"].counters == {"c": 1}

    def test_snapshot_merges_into_parent(self):
        with obs.capture() as outer:
            with obs.isolated_capture() as inner:
                obs.count("c", 3)
            obs.get_registry().merge(inner.snapshot())
        assert outer.counters == {"c": 3}
