"""repro.trace: materialize the LLC miss stream once, replay it everywhere.

The simulation front end -- workload address generation plus the
L1/L2/LLC filtering pass -- produces exactly the same LLC request
stream for every coalescer and HMC configuration sharing a workload
and cache geometry.  This package captures that stream once and
replays it bit-identically, which is how the paper itself evaluates
(Section 5.1 drives the coalescer from captured LLC traces) and how
trace-driven memory-system simulators scale in general.

Three layers:

* :class:`~repro.trace.buffer.TraceBuffer` -- a compact columnar
  container (parallel ``array`` columns for cycle, address,
  type+flags, size, requested bytes) with a versioned, digest-checked
  binary on-disk format written atomically;
* :class:`~repro.trace.store.TraceStore` -- an in-process LRU plus an
  optional on-disk cache, keyed by a structural digest of exactly the
  inputs the trace depends on (workload name/seed/accesses, hierarchy
  geometry, ``cycles_per_access``) and *not* the coalescer or HMC
  config, so the baseline and every coalesced/swept configuration
  share one capture;
* :func:`~repro.trace.replay.replay_trace` -- the packed-row replay
  loop feeding :meth:`repro.core.coalescer.MemoryCoalescer.push`.

The driver (:func:`repro.sim.driver.run_benchmark`) accepts a
``trace_store`` and routes through here; ``run_baseline_and_coalesced``,
:class:`repro.Session` (with its figure runners) and the sweep engine
all share stores by default.  Replay is bit-exact: the same
``SimulationResult`` digest as a live run (enforced by
``scripts/check_perf_parity.py``, the differential tests and the
perf-harness digest gate).
"""

from repro.trace.buffer import (
    TRACE_MAGIC,
    TRACE_SUFFIX,
    TRACE_VERSION,
    TraceBuffer,
    TraceError,
    TraceIntegrityError,
    TraceVersionError,
)
from repro.trace.replay import publish_replay_tracer_metrics, replay_trace
from repro.trace.store import TraceKey, TraceStore, trace_key

__all__ = [
    "TRACE_MAGIC",
    "TRACE_SUFFIX",
    "TRACE_VERSION",
    "TraceBuffer",
    "TraceError",
    "TraceIntegrityError",
    "TraceKey",
    "TraceStore",
    "TraceVersionError",
    "publish_replay_tracer_metrics",
    "replay_trace",
    "trace_key",
]
