"""Replay a captured trace through the coalescer, bit-identically.

The replay loop is the whole point of the trace layer: it walks the
:class:`~repro.trace.buffer.TraceBuffer`'s packed columns directly --
no tracer, no cache hierarchy, no workload generation -- and feeds
each row into :meth:`repro.core.coalescer.MemoryCoalescer.push`.

Two invariants keep replay digest-identical to the live path:

* every non-fence row becomes a *fresh* :class:`MemoryRequest` (the
  coalescer retains pushed requests in coalesced constituents and MSHR
  subentries, so rows must not share objects across pushes or runs);
* :func:`publish_replay_tracer_metrics` reproduces the tracer's
  registry counters from the buffer's aggregate metadata through the
  live tracer's own publisher, so the metrics flat-dict -- part of the
  result digest -- matches a live run counter for counter.
"""

from __future__ import annotations

import time

from repro.cache.tracer import publish_tracer_metrics
from repro.core.coalescer import MemoryCoalescer
from repro.core.request import MemoryRequest, RequestType
from repro.obs import MetricsRegistry, PhaseProfiler
from repro.trace.buffer import TraceBuffer

#: Module-level singleton fence: fences carry no per-row state, and
#: the coalescer does not retain them, so one flyweight serves all.
_FENCE = MemoryRequest(addr=0, rtype=RequestType.FENCE)

_TYPE_MASK = 0b11
_FENCE_CODE = int(RequestType.FENCE)
_LOAD = RequestType.LOAD
_STORE = RequestType.STORE


def replay_trace(
    buffer: TraceBuffer,
    *,
    coalescer: MemoryCoalescer,
    profiler: PhaseProfiler | None = None,
) -> int:
    """Feed a captured trace into ``coalescer``; return the last cycle.

    Mirrors :func:`repro.sim.driver.run_trace_through_coalescer`
    exactly -- same push/flush sequence, same ``flush(last_cycle + 1)``
    -- but decodes packed rows instead of simulating the front end.
    With a ``profiler``, row decode is charged to the ``trace`` phase
    and each push to ``coalesce``, keeping profile output comparable
    between live and replay runs.
    """
    cycles, addrs, flags, sizes, requested = buffer.columns()
    # Decode to plain Python ints up front: mmap-backed buffers hand
    # out NumPy views, and NumPy scalars must not leak into request
    # objects (they would poison JSON digests downstream).  For the
    # eager ``array`` columns this is the same tolist() the vector
    # engine already pays.
    cycles = cycles.tolist()
    addrs = addrs.tolist()
    flags = flags.tolist()
    sizes = sizes.tolist()
    requested = requested.tolist()
    n = len(cycles)
    push = coalescer.push
    if profiler is not None:
        clock = time.perf_counter
        charge = profiler.add
        mark = clock()
        for i in range(n):
            f = flags[i]
            if f & _TYPE_MASK == _FENCE_CODE:
                req = _FENCE
            else:
                req = MemoryRequest(
                    addr=addrs[i],
                    rtype=_STORE if f & 0b01 else _LOAD,
                    size=sizes[i],
                    requested_bytes=requested[i],
                )
            start = clock()
            charge("trace", start - mark)
            push(req, cycles[i])
            mark = clock()
            charge("coalesce", mark - start)
        with profiler.phase("flush"):
            coalescer.flush(buffer.last_cycle + 1)
        return buffer.last_cycle
    for i in range(n):
        f = flags[i]
        if f & _TYPE_MASK == _FENCE_CODE:
            req = _FENCE
        else:
            req = MemoryRequest(
                addr=addrs[i],
                rtype=_STORE if f & 0b01 else _LOAD,
                size=sizes[i],
                requested_bytes=requested[i],
            )
        push(req, cycles[i])
    coalescer.flush(buffer.last_cycle + 1)
    return buffer.last_cycle


def publish_replay_tracer_metrics(
    registry: MetricsRegistry, buffer: TraceBuffer
) -> None:
    """Recreate the tracer's registry counters from a stored capture.

    Writes through :func:`repro.cache.tracer.publish_tracer_metrics`,
    the live tracer's own publisher, fed from the buffer's aggregate
    metadata, so the metrics flat-dict is indistinguishable from the
    live run's.
    """
    meta = buffer.meta
    publish_tracer_metrics(
        registry,
        cpu_accesses=meta.get("cpu_accesses") or 0,
        requested_bytes=meta.get("requested_bytes") or 0,
        kinds=meta.get("kinds") or {},
    )
