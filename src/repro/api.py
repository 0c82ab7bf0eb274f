"""The stable public surface of the reproduction.

Import from here (or from :mod:`repro` directly, which re-exports this
module) instead of reaching into ``repro.sim.driver`` internals::

    from repro import Session

    s = Session(accesses=24_000)
    coal = s.run("HPCG")                         # cached per config digest
    base = s.baseline("HPCG")                    # uncoalesced reference
    sweep = s.sweep(jobs=4)                      # full figure grid, parallel
    figures = s.figures(jobs=4)                  # every paper figure

A :class:`Session` (defined in :mod:`repro.sim.experiments`, next to
the figure runners it carries) owns one base
:class:`~repro.sim.driver.PlatformConfig` plus a results cache keyed by
the *content digest* of the effective platform, so structurally equal
configurations -- however constructed -- run exactly once.
``sweep()`` and ``figures()`` route through the parallel sweep engine
(:mod:`repro.sim.sweep`) and feed its results back into the same
cache; with a ``checkpoint_dir`` the cache persists across processes
and interrupted sweeps resume for free.

The underlying modules keep evolving, but ``Session.run`` /
``Session.sweep`` / ``Session.figures`` and the re-exported
config/result types are the supported API.
"""

from __future__ import annotations

from repro.core.config import CoalescerConfig
from repro.sim.driver import PlatformConfig, SimulationResult
from repro.sim.experiments import CachedRun, FigureData, Session
from repro.sim.sweep import SweepResult, SweepSpec

__all__ = [
    "CachedRun",
    "CoalescerConfig",
    "FigureData",
    "PlatformConfig",
    "Session",
    "SimulationResult",
    "SweepResult",
    "SweepSpec",
]
