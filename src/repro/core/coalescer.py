"""The memory coalescer: orchestration of sorting pipeline, DMC unit,
CRQ and dynamic MSHRs (Section 3.2, Figure 3).

The coalescer sits between the shared LLC and the memory device.  It is
driven trace-style: the LLC miss/write-back stream (already interleaved
across cores) is pushed in cycle order via :meth:`MemoryCoalescer.push`
and the coalescer emits :class:`IssuedRequest` records for every packet
actually sent to the HMC.  A pluggable ``service_time`` callback maps a
packet to its HMC round-trip in coalescer cycles, so the same engine
runs against the full HMC device model or a fixed-latency stub.

Configuration degrees of freedom reproduce the paper's comparison axes:

====================================  =========================================
configuration                          models
====================================  =========================================
``enable_dmc + enable_mshr_coalescing``  the proposed two-phase coalescer
``enable_mshr_coalescing`` only          conventional MSHR-based coalescing
``enable_dmc`` only                      first-phase (DMC unit) coalescing
neither                                  uncoalesced 64 B-per-miss baseline
====================================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.config import CoalescerConfig
from repro.core.crq import CoalescedRequestQueue, CRQStats
from repro.core.dmc import DMCStats, DMCUnit
from repro.core.mshr import DynamicMSHRFile, InsertOutcome, MSHRStats
from repro.core.pipeline import PipelinedSortingNetwork, SortPipelineStats
from repro.core.request import CoalescedRequest, MemoryRequest
from repro.obs import NULL_REGISTRY, MetricsRegistry


#: Default HMC round-trip used when no device model is attached;
#: roughly 100 ns at the paper's 3.3 GHz clock.
DEFAULT_SERVICE_CYCLES = 330

#: Constructor used for the coalescer's MSHR file.  Tests and the
#: parity harness swap in :class:`repro.core.mshr_reference.ReferenceMSHRFile`
#: to run the retained linear-scan implementation side by side.
DEFAULT_MSHR_FACTORY = DynamicMSHRFile


@dataclass(slots=True)
class IssuedRequest:
    """One packet actually issued to the HMC device."""

    request: CoalescedRequest
    issue_cycle: int
    complete_cycle: int
    mshr_index: int
    bypassed: bool = False

    @property
    def latency_cycles(self) -> int:
        return self.complete_cycle - self.issue_cycle


@dataclass(slots=True)
class ServicedRequest:
    """An original LLC request whose data has returned from memory."""

    request: MemoryRequest
    complete_cycle: int


@dataclass(slots=True)
class CoalescerStats:
    """Snapshot of all component statistics plus derived metrics."""

    llc_requests: int
    hmc_requests: int
    bypassed_requests: int
    pipeline: SortPipelineStats
    dmc: DMCStats
    crq: CRQStats
    mshr: MSHRStats
    config: CoalescerConfig

    @property
    def requests_eliminated(self) -> int:
        return self.llc_requests - self.hmc_requests

    @property
    def coalescing_efficiency(self) -> float:
        """Fraction of LLC requests eliminated before reaching the HMC
        (the paper's Figure 8 metric)."""
        if not self.llc_requests:
            return 0.0
        return self.requests_eliminated / self.llc_requests

    @property
    def dmc_latency_ns(self) -> float:
        """Mean first-phase coalescing latency per sequence (Figure 12)."""
        return self.config.cycles_to_ns(self.dmc.mean_latency_cycles())

    @property
    def crq_fill_ns(self) -> float:
        """Mean time to fill the CRQ from empty (Figure 13)."""
        return self.config.cycles_to_ns(self.crq.mean_fill_cycles())

    @property
    def mean_coalescer_latency_ns(self) -> float:
        """Mean added latency: buffer wait + sort + DMC (Figure 14)."""
        per_seq = (
            self.pipeline.mean_wait_latency_cycles()
            + self.pipeline.mean_sort_latency_cycles()
            + self.dmc.mean_latency_cycles()
        )
        return self.config.cycles_to_ns(per_seq)


class MemoryCoalescer:
    """Two-phase memory coalescer for HMC (the paper's contribution)."""

    def __init__(
        self,
        config: CoalescerConfig | None = None,
        service_time: Callable[..., int] | int = DEFAULT_SERVICE_CYCLES,
        registry: MetricsRegistry | None = None,
        mshr_factory: Callable[..., DynamicMSHRFile] | None = None,
    ):
        self.config = config or CoalescerConfig()
        self.registry = registry if registry is not None else NULL_REGISTRY
        if callable(service_time):
            import inspect

            params = [
                p
                for p in inspect.signature(service_time).parameters.values()
                if p.kind
                in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)
            ]
            if len(params) >= 2 or any(
                p.kind is p.VAR_POSITIONAL for p in params
            ):
                self._service_time = service_time
            else:
                one_arg = service_time
                self._service_time = lambda req, _cycle: one_arg(req)
        else:
            fixed = int(service_time)
            self._service_time = lambda _req, _cycle: fixed

        self.pipeline = PipelinedSortingNetwork(self.config, self.registry)
        self.dmc = DMCUnit(self.config, self.registry)
        self.crq = CoalescedRequestQueue(
            self.config.effective_crq_depth, self.registry
        )
        factory = mshr_factory if mshr_factory is not None else DEFAULT_MSHR_FACTORY
        self.mshrs = factory(self.config, self.registry)

        self.issued: list[IssuedRequest] = []
        self.serviced: list[ServicedRequest] = []
        self._llc_requests = 0
        self._bypassed = 0

    # -- public API -----------------------------------------------------------

    def push(self, request: MemoryRequest, cycle: int) -> None:
        """Feed one LLC miss/write-back (or fence) at ``cycle``."""
        self._complete_up_to(cycle)

        if request.is_fence:
            for seq in self.pipeline.push(request, cycle):
                self._handle_sequence(seq)
            # The fence takes its place in the CRQ: requests behind it
            # cannot issue until everything ahead has committed.
            self.crq.push_fence(cycle)
            self._drain_crq(cycle)
            return

        self._llc_requests += 1

        if self._can_bypass(cycle):
            self._bypass(request, cycle)
            return

        if not self.config.enable_dmc:
            # Conventional path: no sorting network or first-phase
            # coalescing; each miss is a single-line packet offered
            # straight to the (possibly coalescing) MSHR file.
            packet = CoalescedRequest(
                addr=request.addr,
                num_lines=1,
                rtype=request.rtype,
                constituents=[request],
                issue_cycle=cycle,
            )
            self._enqueue_packet(packet, cycle)
            self._drain_crq(cycle)
            return

        for seq in self.pipeline.push(request, cycle):
            self._handle_sequence(seq)
        self._drain_crq(cycle)

    def flush(self, cycle: int) -> None:
        """Drain buffered requests at end of trace."""
        self._complete_up_to(cycle)
        for seq in self.pipeline.drain(cycle):
            self._handle_sequence(seq)
        self._drain_crq(cycle)
        # Keep advancing time until everything retires.
        guard = 0
        while len(self.crq) or self.mshrs.occupancy():
            horizon = self.mshrs.latest_completion(cycle)
            cycle = max(cycle + 1, horizon)
            self._complete_up_to(cycle)
            self._drain_crq(cycle)
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - defensive
                raise RuntimeError("coalescer failed to drain")

    def run_trace(
        self, trace: Iterable[tuple[MemoryRequest, int]]
    ) -> CoalescerStats:
        """Convenience driver: push an entire (request, cycle) trace,
        flush, and return the statistics snapshot."""
        last_cycle = 0
        for request, cycle in trace:
            self.push(request, cycle)
            last_cycle = cycle
        self.flush(last_cycle + 1)
        return self.stats()

    def service_time_for(self, packet: CoalescedRequest, cycle: int) -> int:
        """Modelled HMC round-trip for ``packet`` issued at ``cycle``.

        Public wrapper around the normalized service-time hook so
        engine kernels (:mod:`repro.kernels.coalesce`) consult the
        backing device at exactly the same points the object path does
        without reaching into ``_service_time``.
        """
        return self._service_time(packet, cycle)

    def stats(self) -> CoalescerStats:
        """Current statistics snapshot."""
        return CoalescerStats(
            llc_requests=self._llc_requests,
            hmc_requests=len(self.issued),
            bypassed_requests=self._bypassed,
            pipeline=self.pipeline.stats,
            dmc=self.dmc.stats,
            crq=self.crq.stats,
            mshr=self.mshrs.stats,
            config=self.config,
        )

    def publish_metrics(self) -> None:
        """Write the run's coalescer series into the registry.

        Covers the front end and every stage it owns (sorter, DMC, CRQ,
        MSHR file); call once, after the last :meth:`flush`.
        """
        registry = self.registry
        bypassed = self._bypassed
        coalesced = len(self.issued) - bypassed
        llc = registry.counter(
            "coalescer_llc_requests_total",
            help="LLC miss/write-back requests entering the coalescer",
        )
        if self._llc_requests:
            llc.inc(self._llc_requests)
        bypasses = registry.counter(
            "coalescer_bypass_total",
            help="Raw requests that skipped the coalescer (stage-select bypass)",
        )
        issued = registry.counter(
            "coalescer_hmc_requests_total",
            help="Packets actually issued to the HMC, by path",
        )
        if bypassed:
            bypasses.inc(bypassed)
            issued.inc(bypassed, path="bypass")
        if coalesced:
            issued.inc(coalesced, path="coalesced")
        self.pipeline.publish_metrics()
        self.dmc.publish_metrics()
        self.crq.publish_metrics()
        self.mshrs.publish_metrics()

    # -- internals ----------------------------------------------------------

    def _can_bypass(self, cycle: int) -> bool:
        """Stage-select bypass (Section 4.2): raw requests skip the
        coalescer while the CRQ is empty, nothing is mid-sort, and the
        MSHR file is completely idle (program start / post-blocking)."""
        return (
            self.config.stage_select_enabled
            and self.crq.is_empty
            and self.pipeline.pending() == 0
            and self.mshrs.all_idle
        )

    def _bypass(self, request: MemoryRequest, cycle: int) -> None:
        packet = CoalescedRequest(
            addr=request.addr,
            num_lines=1,
            rtype=request.rtype,
            constituents=[request],
            issue_cycle=cycle,
        )
        self._shrink_payload(packet)
        entry = self.mshrs.allocate_direct(
            packet, cycle, lambda: self._service_time(packet, cycle)
        )
        if entry is None:  # pragma: no cover - all_idle guarantees a slot
            raise RuntimeError("bypass allocation failed with idle MSHRs")
        self._bypassed += 1
        self.registry.timeline.record(cycle, "coalescer", "bypass")
        self._record_issue(packet, cycle, entry.complete_cycle, entry.index, True)

    def _handle_sequence(self, seq) -> None:
        if seq.is_fence or not seq.requests:
            return
        packets, done_cycle = self.dmc.coalesce(seq.requests, seq.complete_cycle)
        for packet in packets:
            self._enqueue_packet(packet, done_cycle)
        self._drain_crq(done_cycle)

    def _enqueue_packet(self, packet: CoalescedRequest, cycle: int) -> None:
        while not self.crq.push(packet, cycle, produced_cycle=packet.issue_cycle):
            # Back-pressure: advance time to the earliest MSHR
            # completion so a CRQ slot can drain.
            horizon = self.mshrs.earliest_completion(cycle + 1)
            cycle = max(cycle + 1, horizon)
            self._complete_up_to(cycle)
            self._drain_crq(cycle)

    def _shrink_payload(self, packet: CoalescedRequest) -> None:
        """Adaptive granularity: size a lone-line packet to its demand.

        The HMC interface supports 16 B..max-size payloads; when the
        packet covers one line but its constituents only asked for a
        few bytes, carry the smallest sufficient FLIT multiple.
        """
        if not self.config.adaptive_granularity or packet.num_lines != 1:
            return
        if packet.payload_bytes is not None:
            # Already sized on a previous CRQ-head visit; the inputs
            # (constituents, line size) cannot have changed since.
            return
        wanted = min(packet.requested_bytes, self.config.line_size)
        if wanted <= 0:
            wanted = 16
        packet.payload_bytes = min(
            self.config.line_size, max(16, -(-wanted // 16) * 16)
        )

    def _drain_crq(self, cycle: int) -> None:
        """Move CRQ requests into MSHRs, applying second-phase merging."""
        progressed = True
        while progressed and not self.crq.is_empty:
            progressed = False
            if self.crq.head_is_fence:
                # Section 3.4: nothing behind the fence issues until
                # the requests ahead of it have committed.
                if self.mshrs.occupancy():
                    break
                self.crq.pop_fence()
                progressed = True
                continue
            head = self.crq.peek()
            assert head is not None
            self._shrink_payload(head)
            at = max(cycle, head.issue_cycle)
            outcome, remainder, entry = self.mshrs.offer(
                head, at, lambda: self._service_time(head, at)
            )
            if outcome is InsertOutcome.MERGED:
                self.crq.pop()
                progressed = True
            elif outcome is InsertOutcome.ALLOCATED:
                self.crq.pop()
                assert entry is not None
                self._record_issue(head, at, entry.complete_cycle, entry.index, False)
                progressed = True
            elif outcome is InsertOutcome.PARTIAL:
                self.crq.replace(head, remainder)
                progressed = True
            else:  # FULL: try merge-only pass over the waiting queue
                self._merge_waiting(at)
                break

    def _merge_waiting(self, cycle: int) -> None:
        """While MSHRs are packed, compare every queued request against
        all entries so merges can proceed during the memory access
        (Section 4.2 optimization)."""
        if not self.config.enable_mshr_coalescing:
            return
        merged: list[CoalescedRequest] = []
        replacements: list[tuple[CoalescedRequest, list[CoalescedRequest]]] = []
        gen = self.mshrs.alloc_gen
        for queued in list(self.crq.iter_requests()):
            if queued.merge_checked_gen == gen:
                # No entry was allocated since this request last found
                # nothing to merge with; re-comparing cannot succeed.
                continue
            outcome, remainder = self._merge_only(queued)
            if outcome is InsertOutcome.MERGED:
                merged.append(queued)
            elif outcome is InsertOutcome.PARTIAL:
                replacements.append((queued, remainder))
            else:
                queued.merge_checked_gen = gen
        for request in merged:
            self.crq.remove(request)
        for old, rest in replacements:
            self.crq.replace(old, rest)

    def _merge_only(
        self, request: CoalescedRequest
    ) -> tuple[InsertOutcome, list[CoalescedRequest]]:
        """Second-phase merge attempt that never allocates an entry."""
        return self.mshrs.merge_only(request)

    def _complete_up_to(self, cycle: int) -> None:
        for entry in self.mshrs.pop_completions(cycle):
            for sub in entry.subentries:
                self.serviced.append(
                    ServicedRequest(sub.request, entry.complete_cycle)
                )

    def _record_issue(
        self,
        packet: CoalescedRequest,
        cycle: int,
        complete: int,
        index: int,
        bypassed: bool,
    ) -> None:
        self.issued.append(
            IssuedRequest(
                request=packet,
                issue_cycle=cycle,
                complete_cycle=complete,
                mshr_index=index,
                bypassed=bypassed,
            )
        )
