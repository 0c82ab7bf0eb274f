"""Coalesced Request Queue (CRQ) -- Sections 3.2.2 and 5.3.3.

The CRQ is the FIFO between the DMC unit and the dynamic MSHRs.  Its
depth equals the number of MSHR entries so that, whenever MSHRs free
up, pending coalesced requests can occupy every entry immediately.

Besides FIFO behaviour the queue records the *fill time* statistic the
paper reports in Figure 13: the time the upstream units (sorting
pipeline + DMC) need to produce a CRQ's worth of packets, which must
hide inside the HMC access latency so freed MSHR entries can always be
re-occupied immediately (Section 4.2).  Highly coalescable workloads
fill slowest -- each sorted sequence yields few (large) packets and
spends longer in the coalescing stage -- which is the paper's FT
observation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.request import CoalescedRequest
from repro.obs import NULL_REGISTRY, MetricsRegistry


@dataclass(slots=True)
class CRQStats:
    """Aggregate counters for the coalesced request queue."""

    pushes: int = 0
    pops: int = 0
    fills: int = 0
    total_fill_cycles: int = 0
    max_occupancy: int = 0
    stall_cycles: int = 0

    def mean_fill_cycles(self) -> float:
        """Average cycles to produce one CRQ's worth of packets."""
        return self.total_fill_cycles / self.fills if self.fills else 0.0


@dataclass(slots=True)
class _Slot:
    request: CoalescedRequest | None  # None marks a memory fence
    enqueue_cycle: int

    @property
    def is_fence(self) -> bool:
        return self.request is None


class CoalescedRequestQueue:
    """Bounded FIFO of coalesced requests with fill-time accounting."""

    def __init__(self, depth: int, registry: MetricsRegistry | None = None):
        if depth <= 0:
            raise ValueError("CRQ depth must be positive")
        self.depth = depth
        self._slots: deque[_Slot] = deque()
        self._fill_window: list[int] = []
        self.stats = CRQStats()
        self.registry = registry if registry is not None else NULL_REGISTRY
        # Histogram tallies (value -> observations), written out by
        # :meth:`publish_metrics`: queue depth after each admission and
        # the span of each completed fill window.
        self._depth_counts: dict[int, int] = {}
        self._fill_counts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def is_full(self) -> bool:
        return len(self._slots) >= self.depth

    @property
    def is_empty(self) -> bool:
        return not self._slots

    def push(
        self, request: CoalescedRequest, cycle: int, produced_cycle: int | None = None
    ) -> bool:
        """Enqueue one coalesced request.

        Returns ``False`` (back-pressure) when the queue is full; the
        caller must retry after popping.  Every ``depth`` consecutive
        pushes record one *fill time*: the span the upstream sorting +
        coalescing stages needed to *produce* a CRQ's worth of packets
        (the Figure 13 metric).  ``produced_cycle`` is when the packet
        left the DMC unit; it defaults to the admission cycle but
        should be passed explicitly when admission was delayed by
        back-pressure, so the metric reflects production capability
        rather than downstream congestion.
        """
        if self.is_full:
            return False
        self._slots.append(_Slot(request, cycle))
        depth = len(self._slots)
        stats = self.stats
        stats.pushes += 1
        if depth > stats.max_occupancy:
            stats.max_occupancy = depth
        self._depth_counts[depth] = self._depth_counts.get(depth, 0) + 1
        self._fill_window.append(
            produced_cycle if produced_cycle is not None else cycle
        )
        if len(self._fill_window) >= self.depth:
            fill_cycles = max(0, self._fill_window[-1] - self._fill_window[0])
            stats.fills += 1
            stats.total_fill_cycles += fill_cycles
            self._fill_window.clear()
            self._fill_counts[fill_cycles] = self._fill_counts.get(fill_cycles, 0) + 1
            self.registry.timeline.record(cycle, "crq", "fill", fill_cycles)
        return True

    def publish_metrics(self) -> None:
        """Write the run's CRQ series into the registry (once per run)."""
        registry = self.registry
        stats = self.stats
        for name, help, total in (
            ("crq_pushes_total", "Packets admitted into the CRQ", stats.pushes),
            ("crq_pops_total", "Packets drained from the CRQ into MSHRs",
             stats.pops),
            ("crq_fills_total", "Times the CRQ produced a full queue's worth",
             stats.fills),
        ):
            counter = registry.counter(name, help=help)
            if total:
                counter.inc(total)
        registry.histogram(
            "crq_depth",
            buckets=(1, 2, 4, 8, 16, 32),
            help="Queue depth observed after each admission (depth over time)",
            unit="slots",
        ).observe_counts(self._depth_counts)
        registry.histogram(
            "crq_fill_cycles",
            buckets=(8, 16, 32, 64, 128, 256, 512),
            help="Cycles to produce one CRQ's worth of packets (Figure 13)",
            unit="cycles",
        ).observe_counts(self._fill_counts)
        max_occupancy = registry.gauge(
            "crq_max_occupancy", help="High-water mark of queue depth", unit="slots"
        )
        if stats.pushes:
            max_occupancy.set_max(stats.max_occupancy)

    def push_fence(self, cycle: int) -> None:
        """Enqueue a memory-fence marker (Section 3.4).

        The marker preserves FIFO order: requests behind it may not be
        offered to the MSHRs until the coalescer observes that all
        requests ahead of it have committed and pops it.
        """
        self._slots.append(_Slot(None, cycle))

    @property
    def head_is_fence(self) -> bool:
        """Whether the queue head is a fence marker."""
        return bool(self._slots) and self._slots[0].is_fence

    def pop_fence(self) -> None:
        """Remove a fence marker from the head."""
        if not self.head_is_fence:
            raise ValueError("queue head is not a fence marker")
        self._slots.popleft()

    def peek(self) -> CoalescedRequest | None:
        """Head request without removing it (None if empty or fence)."""
        if not self._slots or self._slots[0].is_fence:
            return None
        return self._slots[0].request

    def pop(self) -> CoalescedRequest:
        """Dequeue the head request (FIFO order)."""
        if not self._slots:
            raise IndexError("pop from empty CRQ")
        slot = self._slots.popleft()
        self.stats.pops += 1
        return slot.request

    def iter_requests(self):
        """Iterate over queued requests up to the first fence marker
        (for the second-phase compare-against-all-MSHRs optimization of
        Section 4.2 -- merging must not cross a fence)."""
        for slot in self._slots:
            if slot.is_fence:
                break
            yield slot.request

    def remove(self, request: CoalescedRequest) -> None:
        """Remove a specific queued request (merged into an MSHR while
        waiting; Section 4.2)."""
        for slot in self._slots:
            if slot.request is request:
                self._slots.remove(slot)
                self.stats.pops += 1
                return
        raise ValueError("request not present in CRQ")

    def replace(self, old: CoalescedRequest, new: list[CoalescedRequest]) -> None:
        """Replace a queued request with its split remainder (case B of
        second-phase coalescing) preserving queue position."""
        for idx, slot in enumerate(self._slots):
            if slot.request is old:
                cycle = slot.enqueue_cycle
                self._slots.remove(slot)
                for offset, req in enumerate(new):
                    self._slots.insert(idx + offset, _Slot(req, cycle))
                return
        raise ValueError("request not present in CRQ")
