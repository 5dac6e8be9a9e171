"""Zero-dependency observability: spans, counters, and exporters.

Quickstart::

    from repro import obs

    with obs.capture() as reg:               # scoped enable + fresh registry
        result = compute_cds(net, "el2", energy=levels)
    print(obs.render_profile(reg))           # span tree + counters
    reg.counters["rule2.coverage_tests"]     # raw numbers

Instrumentation is **off by default** and designed so the disabled path
costs one boolean check per pipeline stage (never per inner-loop
iteration) — see :mod:`repro.obs.registry` for the fast-path rules and
:mod:`repro.obs.export` for the output formats.  Set ``REPRO_OBS=1`` in
the environment to enable at import time (``REPRO_OBS=trace`` also
buffers the JSON-lines event trace).
"""

from __future__ import annotations

import os

from repro.obs.export import profile_dict, render_profile, write_jsonl_trace
from repro.obs.registry import (
    Registry,
    SpanStats,
    add,
    capture,
    count,
    current_path,
    disable,
    enable,
    enabled,
    gauge_max,
    get_registry,
    isolated_capture,
    reset,
    span,
    timed,
)

__all__ = [
    "Registry",
    "SpanStats",
    "add",
    "capture",
    "count",
    "current_path",
    "disable",
    "enable",
    "enabled",
    "gauge_max",
    "get_registry",
    "isolated_capture",
    "reset",
    "span",
    "timed",
    "profile_dict",
    "render_profile",
    "write_jsonl_trace",
]

_env = os.environ.get("REPRO_OBS", "").strip().lower()
if _env and _env not in ("0", "false", "no", "off"):
    enable(trace=_env == "trace")
