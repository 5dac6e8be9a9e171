"""Simulation engine: the paper's §4 evaluation loop.

One *update interval* = compute CDS on the current topology → drain energy
by gateway status → roam hosts → regenerate topology.  The lifespan
simulator runs intervals until the first host dies (the paper's stop
condition); the runner fans trials out over processes with independent
seed streams.  ``run_lifespan_batch`` (and with it the batched kernels)
loads on first use.
"""

from typing import TYPE_CHECKING

from repro.simulation.config import SimulationConfig
from repro.simulation.interval import IntervalOutcome, run_interval
from repro.simulation.lifespan import LifespanResult, LifespanSimulator
from repro.simulation.metrics import IntervalMetrics, TrialMetrics
from repro.simulation.rng import spawn_generators, spawn_seeds
from repro.simulation.runner import TrialRunner, run_trials
from repro.simulation.traffic_lifespan import TrafficLifespanResult, TrafficLifespanSimulator
from repro.simulation.churn_lifespan import ChurnLifespanResult, ChurnLifespanSimulator
from repro.simulation.directed_lifespan import DirectedLifespanResult, DirectedLifespanSimulator

__all__ = [
    "DirectedLifespanResult",
    "DirectedLifespanSimulator",
    "TrafficLifespanResult",
    "TrafficLifespanSimulator",
    "ChurnLifespanResult",
    "ChurnLifespanSimulator",
    "SimulationConfig",
    "IntervalOutcome",
    "run_interval",
    "LifespanResult",
    "LifespanSimulator",
    "run_lifespan_batch",
    "IntervalMetrics",
    "TrialMetrics",
    "spawn_generators",
    "spawn_seeds",
    "TrialRunner",
    "run_trials",
]

if TYPE_CHECKING:
    from repro.simulation.batch_lifespan import run_lifespan_batch


def __getattr__(name: str):
    if name == "run_lifespan_batch":
        from repro.simulation.batch_lifespan import run_lifespan_batch

        globals()[name] = run_lifespan_batch
        return run_lifespan_batch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
