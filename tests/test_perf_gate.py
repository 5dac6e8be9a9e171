"""``benchmarks/perf_gate.py --check`` gates without writing.

The gate compares fresh micro-benchmark values against the medians in a
trajectory log.  Its measurements are replaced here by fixed values, so
these tests pin the verdict logic only: the log is read, never written;
a ratio metric far past the band fails; an absolute metric with no
same-platform history passes ungated.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def perf_gate():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "perf_gate_under_test", BENCH_DIR / "perf_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _run(metric, value, platform, python):
    return {
        "name": metric.name, "value": value, "unit": metric.unit,
        "platform": platform, "python": python, "created_unix": 0.0,
    }


def _write_log(perf_gate, tmp_path, *, absolute_here: bool) -> Path:
    """Three runs of every metric at value 1.0; absolute metrics are
    recorded on this platform only when ``absolute_here``."""
    plat, py = perf_gate.perf_trajectory.platform_signature()
    runs = []
    for metric in perf_gate.METRICS:
        here = absolute_here or not metric.absolute
        for _ in range(3):
            runs.append(
                _run(metric, 1.0, plat if here else "Elsewhere-0", py)
            )
    path = tmp_path / "BENCH_trajectory.json"
    payload = {"schema": perf_gate.perf_trajectory.SCHEMA, "runs": runs}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _measure_all(perf_gate, monkeypatch, **overrides):
    values = {m.name: 1.0 for m in perf_gate.METRICS}
    values.update(overrides)
    monkeypatch.setattr(perf_gate, "measure", lambda seed: dict(values))


def test_check_leaves_the_log_byte_identical(perf_gate, tmp_path, monkeypatch):
    path = _write_log(perf_gate, tmp_path, absolute_here=False)
    before = path.read_bytes()
    _measure_all(perf_gate, monkeypatch)
    assert perf_gate.check(1, path) == 0
    assert path.read_bytes() == before


def test_check_does_not_create_a_missing_log(perf_gate, tmp_path, monkeypatch):
    path = tmp_path / "absent.json"
    _measure_all(perf_gate, monkeypatch)
    assert perf_gate.check(1, path) == 0
    assert not path.exists()


def test_ratio_metric_half_worse_fails(perf_gate, tmp_path, monkeypatch):
    path = _write_log(perf_gate, tmp_path, absolute_here=True)
    ratio = next(
        m for m in perf_gate.METRICS
        if not m.absolute and m.higher_is_better
    )
    _measure_all(perf_gate, monkeypatch, **{ratio.name: 0.5})
    monkeypatch.delenv(perf_gate.BAND_ENV, raising=False)
    assert perf_gate.check(1, path) == 1


def test_absolute_metric_without_platform_history_passes(
    perf_gate, tmp_path, monkeypatch, capsys
):
    path = _write_log(perf_gate, tmp_path, absolute_here=False)
    absolute = next(m for m in perf_gate.METRICS if m.absolute)
    # ten times the foreign platform's median: would fail if it gated
    _measure_all(perf_gate, monkeypatch, **{absolute.name: 10.0})
    assert perf_gate.check(1, path) == 0
    out = capsys.readouterr().out
    assert f"UNGATED {absolute.name}" in out
    assert "(no same-platform history)" in out
