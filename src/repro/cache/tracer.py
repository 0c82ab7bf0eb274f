"""Memory tracer (Section 5.1).

The paper instruments the Spike simulator with a *memory tracer* that
routes LLC-level memory footprints into the memory coalescer.  This
module is the equivalent component for this stack: it pushes a CPU
access stream through a :class:`repro.cache.hierarchy.CacheHierarchy`
and emits timestamped line-granularity requests (misses plus dirty
write-backs), which is exactly what the coalescer ingests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.core.request import Access, MemoryRequest
from repro.errors import ConfigError
from repro.obs import NULL_REGISTRY, MetricsRegistry


@dataclass(slots=True)
class TraceRecord:
    """One LLC-level request with its issue cycle."""

    request: MemoryRequest
    cycle: int
    is_writeback: bool = False
    is_secondary: bool = False
    is_prefetch: bool = False


@dataclass(slots=True)
class TracerStats:
    """Summary of a traced run."""

    cpu_accesses: int = 0
    llc_requests: int = 0
    writebacks: int = 0
    prefetches: int = 0
    requested_bytes: int = 0

    @property
    def miss_fraction(self) -> float:
        """LLC requests per CPU access (traffic intensity)."""
        return self.llc_requests / self.cpu_accesses if self.cpu_accesses else 0.0


def publish_tracer_metrics(
    registry: MetricsRegistry,
    *,
    cpu_accesses: int,
    requested_bytes: int,
    kinds: dict[str, int],
) -> None:
    """Write the tracer's three counters for one run into ``registry``.

    The one writer for both the live :class:`MemoryTracer` and the
    trace-replay path (:func:`repro.trace.replay.publish_replay_tracer_metrics`),
    so both produce byte-identical names, help strings, units and
    samples -- which is what keeps replayed results digest-identical
    to live runs.  ``kinds`` maps an LLC request kind (``miss``,
    ``secondary_miss``, ``writeback``, ``prefetch``) to its count; a
    kind's label set exists only if it occurred.
    """
    cpu = registry.counter(
        "tracer_cpu_accesses_total", help="CPU accesses entering the hierarchy"
    )
    llc = registry.counter(
        "tracer_llc_requests_total",
        help="LLC-level requests emitted to the coalescer, by kind",
    )
    requested = registry.counter(
        "tracer_requested_bytes_total",
        help="Bytes the surviving LLC requests actually asked for",
        unit="bytes",
    )
    if cpu_accesses:
        cpu.inc(cpu_accesses)
    if requested_bytes:
        requested.inc(requested_bytes)
    for kind, count in kinds.items():
        if count:
            llc.inc(count, kind=kind)


class MemoryTracer:
    """Trace-producing front-end over the cache hierarchy.

    Parameters
    ----------
    hierarchy:
        The cache hierarchy to filter accesses through (a fresh
        default-config hierarchy if omitted).
    cycles_per_access:
        CPU cycles the clock advances per access -- the aggregate
        arrival pacing of the 12-core platform at the LLC.  Fractions
        are supported (multiple accesses can share a cycle).
    llc_port_cycles:
        Minimum spacing between consecutive LLC-level requests: the
        LLC has finite ports, so no matter how many cores miss in the
        same cycle, requests leave at most one per ``llc_port_cycles``
        cycles.  ``0`` disables the limit.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy | None = None,
        cycles_per_access: float = 1.0,
        llc_port_cycles: float = 1.0,
        registry: MetricsRegistry | None = None,
    ):
        if cycles_per_access <= 0:
            raise ConfigError("cycles_per_access must be positive")
        if llc_port_cycles < 0:
            raise ConfigError("llc_port_cycles must be non-negative")
        self.hierarchy = hierarchy or CacheHierarchy(HierarchyConfig())
        self.cycles_per_access = cycles_per_access
        self.llc_port_cycles = llc_port_cycles
        self.stats = TracerStats()
        self._clock = 0.0
        self._next_port_free = 0.0
        self.registry = registry if registry is not None else NULL_REGISTRY
        # LLC requests emitted so far, by kind (see
        # :func:`publish_tracer_metrics`).
        self._kinds = {"miss": 0, "secondary_miss": 0, "writeback": 0, "prefetch": 0}

    @property
    def cycle(self) -> int:
        """Current CPU cycle."""
        return int(self._clock)

    def trace(self, accesses: Iterable[Access]) -> Iterator[TraceRecord]:
        """Yield LLC-level trace records for a CPU access stream.

        The stream is processed lazily so multi-hundred-thousand-access
        workloads never materialize their full trace in memory.
        """
        for access in accesses:
            self.stats.cpu_accesses += 1
            for event in self.hierarchy.access(access, cycle=int(self._clock)):
                emit = self._clock
                if self.llc_port_cycles and not event.request.is_fence:
                    emit = max(emit, self._next_port_free)
                    self._next_port_free = emit + self.llc_port_cycles
                record = TraceRecord(
                    request=event.request,
                    cycle=int(emit),
                    is_writeback=event.is_writeback,
                    is_secondary=event.is_secondary,
                    is_prefetch=event.is_prefetch,
                )
                if not event.request.is_fence:
                    self.stats.llc_requests += 1
                    self.stats.requested_bytes += event.request.requested_bytes
                    if event.is_writeback:
                        self.stats.writebacks += 1
                    if event.is_prefetch:
                        self.stats.prefetches += 1
                    if event.is_writeback:
                        kind = "writeback"
                    elif event.is_prefetch:
                        kind = "prefetch"
                    elif event.is_secondary:
                        kind = "secondary_miss"
                    else:
                        kind = "miss"
                    self._kinds[kind] += 1
                yield record
            self._clock += self.cycles_per_access

    def trace_list(self, accesses: Iterable[Access]) -> list[TraceRecord]:
        """Materialized convenience wrapper around :meth:`trace`."""
        return list(self.trace(accesses))

    def publish_metrics(self) -> None:
        """Write the run's tracer counters into the registry (once per run)."""
        publish_tracer_metrics(
            self.registry,
            cpu_accesses=self.stats.cpu_accesses,
            requested_bytes=self.stats.requested_bytes,
            kinds=self._kinds,
        )
