"""Pipelined request sorting network (Sections 3.3, 3.4 and 4.1).

This module wraps the combinational odd-even mergesort network of
:mod:`repro.core.sorting` with everything the paper adds around it:

* a **front buffer** that accumulates up to ``n`` LLC miss/write-back
  requests and launches a sort when the buffer fills, when the
  per-sequence *timeout* expires, when a *memory fence* arrives, or at
  end of trace;
* **invalid-request padding** (Valid bit, Section 3.4) so short
  sequences still flow through the fixed-width network correctly;
* the **stage-select** component that skips trailing merge stages when
  at most ``n/2``, ``n/4``, ... requests arrived (Section 3.3);
* **pipeline timing**: all latency, initiation-interval and hardware
  accounting is derived from the configured *sorter architecture*
  (:func:`repro.core.sorting.compiled_architecture`) -- the paper's
  single-phase network pipelined one step per stage ("step";
  latency-optimal) or with steps balanced into ``log2 n`` stages
  ("merge", the space-optimized layout of Section 4.1), or the
  two-phase presort + merge-tree design -- with one comparator step
  costing ``2 * compare_cycles`` clock cycles (compare + exchange);
* **memory-fence semantics**: a fence drains the buffered requests and
  then monopolizes one whole pipeline slot, so no request can pass it
  (Section 3.4).

The pipeline is used in a trace-driven fashion: callers push requests
tagged with issue cycles and receive completed :class:`SortedSequence`
batches, each carrying its launch/completion cycle so downstream units
can account latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CoalescerConfig
from repro.core.request import MemoryRequest
from repro.core.sorting import balanced_step_groups, compiled_architecture
from repro.obs import NULL_REGISTRY, MetricsRegistry


@dataclass(slots=True)
class SortedSequence:
    """A sorted batch of requests emerging from the sorting pipeline.

    Attributes
    ----------
    requests:
        The valid requests in non-decreasing extended-key order (loads
        first, then stores; padding already stripped).
    launch_cycle / complete_cycle:
        Cycle the sequence entered stage 1 and the cycle its sorted
        output became available to the DMC unit.
    stages_used:
        Merge stages actually evaluated (stage select may skip some).
    padding:
        Number of invalid padding slots appended.
    flush_reason:
        Why the front buffer flushed: ``"full"``, ``"timeout"``,
        ``"fence"`` or ``"drain"``.
    is_fence:
        ``True`` for the pipeline-slot marker a memory fence occupies;
        such sequences carry no requests.
    """

    requests: list[MemoryRequest]
    launch_cycle: int
    complete_cycle: int
    stages_used: int
    padding: int
    flush_reason: str
    is_fence: bool = False

    @property
    def latency_cycles(self) -> int:
        """Cycles from launch to sorted availability."""
        return self.complete_cycle - self.launch_cycle


@dataclass(slots=True)
class SortPipelineStats:
    """Aggregate counters for the sorting pipeline."""

    sequences: int = 0
    fence_slots: int = 0
    requests_sorted: int = 0
    padding_slots: int = 0
    comparator_ops: int = 0
    flushes_full: int = 0
    flushes_timeout: int = 0
    flushes_fence: int = 0
    flushes_drain: int = 0
    total_sort_latency_cycles: int = 0
    total_wait_latency_cycles: int = 0
    stages_skipped: int = 0

    def mean_sort_latency_cycles(self) -> float:
        """Average in-network latency per sorted sequence."""
        return self.total_sort_latency_cycles / self.sequences if self.sequences else 0.0

    def mean_wait_latency_cycles(self) -> float:
        """Average front-buffer wait before launch (timeout effect)."""
        return self.total_wait_latency_cycles / self.sequences if self.sequences else 0.0


# ``balanced_step_groups`` moved to :mod:`repro.core.sorting` with the
# architecture layer; re-exported here for its long-standing import path.
__all__ = [
    "PipelinedSortingNetwork",
    "SortedSequence",
    "SortPipelineStats",
    "balanced_step_groups",
]


class PipelinedSortingNetwork:
    """Trace-driven model of the pipelined request sorting network."""

    def __init__(
        self, config: CoalescerConfig, registry: MetricsRegistry | None = None
    ):
        self.config = config
        #: The physical design point (single- or two-phase); owns all
        #: step-denominated timing and hardware accounting.
        self.arch = compiled_architecture(config.sorter_width, config.sorter_arch)
        #: The functional comparator schedule (shared by both
        #: architectures at equal width -- see repro.core.sorting).
        self.network = self.arch.network
        self.stats = SortPipelineStats()
        self.registry = registry if registry is not None else NULL_REGISTRY
        # Per-sequence histogram tallies (value -> sequences), written
        # to the registry by :meth:`publish_metrics`.
        self._occupancy_counts: dict[int, int] = {}
        self._wait_counts: dict[int, int] = {}
        self._sort_latency_counts: dict[int, int] = {}

        # Step time tau: one compare plus one exchange (Section 4.1:
        # "2 clock cycles per operation (totally 4 cycles)").
        self.step_cycles = 2 * config.compare_cycles

        #: Steps per physical pipeline stage, architecture-derived
        #: (``[2, 2, 3, 3]`` for the paper's single-phase n=16 "merge"
        #: layout).
        self.stage_steps = list(
            self.arch.pipeline_stage_steps(config.pipeline_stages)
        )

        #: Memoized merge-stage count -> pipeline latency (cycles).
        self._latency_cache: dict[int, int] = {}
        # Front buffer state.
        self._buffer: list[MemoryRequest] = []
        self._first_arrival_cycle: int | None = None
        # Cycle at which pipeline stage 1 next becomes free.
        self._stage1_free_cycle = 0

    # -- static structure ------------------------------------------------

    @property
    def num_pipeline_stages(self) -> int:
        """Number of pipeline stages (4 or 10 for single-phase n = 16)."""
        return len(self.stage_steps)

    @property
    def initiation_interval_cycles(self) -> int:
        """Cycles between consecutive sequence launches.

        Architecture-derived: the deepest pipeline stage for a
        single-phase network, or the time-multiplexed presorter's k
        back-to-back launches for the two-phase design (whichever of
        presorter occupancy and widest merge-tree stage binds).
        """
        return (
            self.arch.initiation_interval_steps(self.config.pipeline_stages)
            * self.step_cycles
        )

    @property
    def full_latency_cycles(self) -> int:
        """End-to-end pipeline latency for a full-width sequence."""
        return (
            self.arch.full_latency_steps(self.config.pipeline_stages)
            * self.step_cycles
        )

    def request_buffers(self) -> int:
        """Request buffers held by the pipeline (stage width per stage:
        ``n`` everywhere for single-phase, ``m`` in the two-phase
        presorter's stages)."""
        return self.arch.request_buffers(self.config.pipeline_stages)

    def comparators(self) -> int:
        """Physical comparators, reusing hardware across steps in a stage.

        With per-stage reuse each pipeline stage needs as many
        comparators as its widest step; the two-phase design counts its
        one shared presorter once instead of k times.  (The paper
        quotes 36 for the single-phase 4-stage n=16 network under its
        own counting; the schedule-derived per-stage maxima sum to a
        comparable 31.)
        """
        return self.arch.physical_comparators(self.config.pipeline_stages)

    # -- timing helpers ----------------------------------------------------

    def _stages_to_pipeline_latency(self, merge_stages: int) -> int:
        """Pipeline latency (cycles) to evaluate ``merge_stages`` stages.

        The sequence traverses pipeline stages until all comparator
        steps belonging to the required merge stages have executed;
        with stage select, later pipeline stages are skipped entirely.
        The walk itself lives on the architecture (the two-phase design
        adds the presorter's sequential-launch cost first).
        """
        cached = self._latency_cache.get(merge_stages)
        if cached is not None:
            return cached
        latency = (
            self.arch.latency_steps(merge_stages, self.config.pipeline_stages)
            * self.step_cycles
        )
        self._latency_cache[merge_stages] = latency
        return latency

    # -- trace-driven interface -------------------------------------------

    def push(self, request: MemoryRequest, cycle: int) -> list[SortedSequence]:
        """Offer one LLC miss/write-back to the front buffer.

        Returns any sequences whose sort completed as a result (buffer
        fill or an expired timeout detected at this arrival), in launch
        order.  A fence request flushes the buffer and then occupies a
        dedicated pipeline slot.
        """
        out: list[SortedSequence] = []
        if request.is_fence:
            if self._buffer:
                out.append(self._flush("fence", cycle))
            out.append(self.fence_slot(cycle))
            return out

        # A timeout is checked against the arrival clock: if the oldest
        # buffered request has waited past the timeout when a new one
        # arrives, the old batch launches first.
        if (
            self._buffer
            and self._first_arrival_cycle is not None
            and cycle - self._first_arrival_cycle >= self.config.timeout_cycles
        ):
            out.append(self._flush("timeout", cycle))

        if not self._buffer:
            self._first_arrival_cycle = cycle
        self._buffer.append(request)
        if len(self._buffer) >= self.config.sorter_width:
            out.append(self._flush("full", cycle))
        return out

    def drain(self, cycle: int) -> list[SortedSequence]:
        """Flush any buffered requests at end of trace."""
        if not self._buffer:
            return []
        return [self._flush("drain", cycle)]

    def pending(self) -> int:
        """Number of requests waiting in the front buffer."""
        return len(self._buffer)

    def stages_for(self, count: int) -> int:
        """Merge stages a ``count``-request sequence runs (stage select)."""
        if self.config.stage_select_enabled:
            return max(self.network.required_stages(count), 1)
        return self.network.num_stages

    # -- internals ----------------------------------------------------------

    def _flush(self, reason: str, cycle: int) -> SortedSequence:
        requests = self._buffer
        self._buffer = []
        first_cycle = self._first_arrival_cycle or cycle
        self._first_arrival_cycle = None

        count = len(requests)
        padding = self.config.sorter_width - count
        stages_used = self.stages_for(count)

        # Sort on the extended key; padding slots use the maximal
        # invalid key so they sink to the end and are dropped.  The
        # compare-exchange loop runs over the pre-flattened comparator
        # tuple, swapping (key, request) pairs in place; equal keys are
        # never exchanged, so duplicates stay stable.
        keyed: list[tuple[int, MemoryRequest | None]] = [
            (req.sort_key(), req) for req in requests
        ]
        if padding:
            keyed += [(MemoryRequest.padding_key(), None)] * padding
        for lo, hi in self.network.prefix_pairs(stages_used):
            if keyed[lo][0] > keyed[hi][0]:
                keyed[lo], keyed[hi] = keyed[hi], keyed[lo]
        sorted_requests = [req for _, req in keyed if req is not None]

        return self.emit_sorted(
            sorted_requests,
            count=count,
            reason=reason,
            cycle=cycle,
            first_cycle=first_cycle,
        )

    def emit_sorted(
        self,
        sorted_requests: list[MemoryRequest],
        *,
        count: int,
        reason: str,
        cycle: int,
        first_cycle: int,
    ) -> SortedSequence:
        """Account for one flushed sequence whose sort is already done.

        All timing and statistics bookkeeping of a flush lives here;
        :meth:`_flush` calls it after the comparator walk, and the
        vector engine (:mod:`repro.kernels.replay`) calls it directly
        with orderings it computed itself, so both engines share one
        digest-visible accounting implementation.  ``sorted_requests``
        must hold the ``count`` valid requests in network output order,
        padding already stripped.
        """
        padding = self.config.sorter_width - count
        stages_used = self.stages_for(count)

        launch = max(cycle, self._stage1_free_cycle)
        self._stage1_free_cycle = launch + self.initiation_interval_cycles
        complete = launch + self._stages_to_pipeline_latency(stages_used)
        sort_latency = complete - launch
        wait = max(0, launch - first_cycle)

        stats = self.stats
        stats.sequences += 1
        stats.requests_sorted += count
        stats.padding_slots += padding
        stats.comparator_ops += self.network.count_operations(stages_used)
        stats.stages_skipped += self.network.num_stages - stages_used
        stats.total_sort_latency_cycles += sort_latency
        stats.total_wait_latency_cycles += wait
        setattr(stats, f"flushes_{reason}", getattr(stats, f"flushes_{reason}") + 1)
        tally = self._occupancy_counts
        tally[count] = tally.get(count, 0) + 1
        tally = self._wait_counts
        tally[wait] = tally.get(wait, 0) + 1
        tally = self._sort_latency_counts
        tally[sort_latency] = tally.get(sort_latency, 0) + 1
        self.registry.timeline.record(launch, "sorter", reason, count)

        return SortedSequence(
            requests=sorted_requests,
            launch_cycle=launch,
            complete_cycle=complete,
            stages_used=stages_used,
            padding=padding,
            flush_reason=reason,
        )

    def fence_slot(self, cycle: int) -> SortedSequence:
        """Insert the pipeline slot a memory fence monopolizes."""
        launch = max(cycle, self._stage1_free_cycle)
        # The fence owns an entire stage slot; nothing overlaps it.
        self._stage1_free_cycle = launch + self.initiation_interval_cycles
        complete = launch + self.full_latency_cycles
        self.stats.fence_slots += 1
        self.registry.timeline.record(launch, "sorter", "fence_slot")
        return SortedSequence(
            requests=[],
            launch_cycle=launch,
            complete_cycle=complete,
            stages_used=0,
            padding=0,
            flush_reason="fence",
            is_fence=True,
        )

    def publish_metrics(self) -> None:
        """Write the run's sorter series into the registry (once per run)."""
        registry = self.registry
        stats = self.stats
        sequences = registry.counter(
            "sorter_sequences_total",
            help="Sorted sequences launched, by flush reason",
        )
        for reason in ("full", "timeout", "fence", "drain"):
            flushes = getattr(stats, f"flushes_{reason}")
            if flushes:
                sequences.inc(flushes, reason=reason)
        # Every launch increments these four, by zero too, so each
        # series exists once a sequence has launched.
        for name, help, total in (
            ("sorter_requests_total",
             "Valid requests entering the sorter", stats.requests_sorted),
            ("sorter_padding_slots_total",
             "Invalid padding slots appended to short sequences",
             stats.padding_slots),
            ("sorter_comparator_ops_total",
             "Comparator operations evaluated across all sequences",
             stats.comparator_ops),
            ("sorter_stages_skipped_total",
             "Merge stages skipped by stage select (Section 3.3)",
             stats.stages_skipped),
        ):
            counter = registry.counter(name, help=help)
            if stats.sequences:
                counter.inc(total)
        fences = registry.counter(
            "sorter_fence_slots_total",
            help="Pipeline slots monopolized by memory fences",
        )
        if stats.fence_slots:
            fences.inc(stats.fence_slots)
        registry.histogram(
            "sorter_occupancy",
            buckets=(1, 2, 4, 8, 16, 32),
            help="Valid requests per launched sequence (buffer occupancy)",
            unit="requests",
        ).observe_counts(self._occupancy_counts)
        registry.histogram(
            "sorter_wait_cycles",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            help="Front-buffer wait before launch (timeout effect)",
            unit="cycles",
        ).observe_counts(self._wait_counts)
        registry.histogram(
            "sorter_sort_latency_cycles",
            buckets=(4, 8, 16, 32, 64, 128),
            help="In-network latency per sorted sequence",
            unit="cycles",
        ).observe_counts(self._sort_latency_counts)
