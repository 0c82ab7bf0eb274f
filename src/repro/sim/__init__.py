"""End-to-end simulation driver, sweep engine and experiment runners.

:mod:`repro.sim.driver` wires the full stack together -- workload
generator -> cache hierarchy -> memory coalescer -> HMC device -- and
derives the runtime model used for the paper's performance results.
:mod:`repro.sim.sweep` shards grids of such runs across worker
processes with per-run checkpointing (:mod:`repro.sim.shard` holds the
worker side and the checkpoint format).  :mod:`repro.sim.experiments`
holds :class:`~repro.sim.experiments.Session`, the cached evaluation
context, and one runner per evaluation figure (Figures 1-2 and 8-15),
each returning plain data the CLI and benchmark harness render.
"""

from repro.sim.driver import (
    PlatformConfig,
    SimulationResult,
    run_benchmark,
    run_trace_through_coalescer,
)
from repro.sim.events import EventDrivenHMC, ReplayRequest, replay_issued_requests
from repro.sim.sweep import (
    FIGURE_CONFIGS,
    FailedRun,
    RunKey,
    SweepResult,
    SweepSpec,
    run_sweep,
)

__all__ = [
    "EventDrivenHMC",
    "FIGURE_CONFIGS",
    "FailedRun",
    "PlatformConfig",
    "ReplayRequest",
    "RunKey",
    "SimulationResult",
    "SweepResult",
    "SweepSpec",
    "replay_issued_requests",
    "run_benchmark",
    "run_sweep",
    "run_trace_through_coalescer",
]
