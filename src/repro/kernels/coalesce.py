"""Batched second-phase coalescing: lean DMC/CRQ/MSHR replay.

The vector replay engine (:mod:`repro.kernels.replay`) eliminated the
per-row comparator walk, but every flushed sequence still ran the
object DMC/CRQ/MSHR machinery call-for-call -- per-packet method
calls, per-offer bookkeeping, and (dominating the profile) thousands
of *repeat* rejected-full drains while the MSHR file sat fully
occupied.  This module removes that ceiling in two moves, neither of
which changes a digest-visible effect:

**Inline accounting.**  The core components count each event once, in
their ``*Stats`` dataclasses and small value->count tallies, and write
their registry series at run end (``publish_metrics``).
:class:`BatchedCoalescer` keeps the *structural* state in the wrapped
components (CRQ slots, MSHR entries, free heap, line index, HMC device
calls -- everything whose order matters) and adds straight into those
same stats and tallies, so its run publishes exactly what the object
run would.

**Drain memoization.**  When a drain ends in ``rejected_full``, the
object path repeats the identical offer/reject/merge-pass sequence on
every subsequent row until an entry retires or a new packet arrives:
the merge-while-full pass marks every queued request with the current
``alloc_gen``, so re-running it is a no-op, and the head's re-offer
deterministically records one offer + occupancy + rejection.  The
kernel memoizes that terminal state as ``(head slot, alloc_gen,
retire count)`` and replays repeats as one count (see *folded
counts* below).  Any allocation or retirement invalidates the memo;
an enqueue does not.
A pushed packet lands behind the head, which stays checked clean
with an empty allocation log, so the head's re-offer is still a
rejection and the memo-hit drain only adds the merge-while-full pass
that checks the fresh packet -- exactly what the full drain would
do.  The replay row loop goes one step further: a *run* of
consecutive memo-hit drains with nothing pushed in between has
cycle-independent accounting, so the loop just counts them and
flushes the whole run through :meth:`BatchedCoalescer.drain_hits_bulk`
-- which re-verifies the memo (head identity, ``alloc_gen``, retire
count) before applying the batch -- immediately before anything
mutates CRQ/MSHR state.

**The saturated step.**  The paper sizes the CRQ to the MSHR file so
that a freed entry is re-occupied at once (Section 3.2.2), and the
replay spends nearly all its time in that state: a packet meets a full
CRQ, the back-pressure round advances to the earliest completion, one
entry retires, the CRQ head allocates into it and leaves, and the
packet takes the freed slot.  :meth:`BatchedCoalescer.enqueue` runs
that round as one step in its own frame when all of these hold:
exactly one entry is due at the advanced cycle, the free heap is empty
(so the due entry's index is the only free one), no streams are
recorded, and the head is a request whose offer cannot merge (no MSHR
coalescing, or it is checked clean and the allocation log is empty).
The step retires the due entry, allocates the head into that same
entry (one ``heapreplace`` on the completion heap, no free-heap
traffic), pops it, and offers the next head: if that one cannot merge
either, the step rejects and memoizes it, running the merge pass only
for fresh packets.  Any other state hands over to
:meth:`BatchedCoalescer._drain_full` at the point reached -- two due
entries, a fence or a fresh packet at the head, logged entries --
which is exact because the drain keeps no state between heads.  The
room check then repeats, because a case-B split may have left the
queue deeper than its depth.

**Folded counts.**  The saturated state fixes the keys of its counts:
a step is one completion, one offer at occupancy M-1, one allocation
and one CRQ pop; a rejection at a full file (the step's, and every
memo-hit drain's) is one offer at occupancy M; a push that fills the
CRQ adds to its full-depth tally.  The kernel counts these three
events and :meth:`BatchedCoalescer.finish` folds them into the stats
and tallies once, before :meth:`BatchedCoalescer.finalize`.  Tallies
publish in sorted value order, so when they are added does not change
a digest.  Everything that depends on the packet or on order stays per
packet: the retired entry's subentry count, ``subentries_added``, the
fill window and its timeline record, and ``max_occupancy``.

Supporting machinery sharing the same digest boundary:

* **Inverted merge join.**  The object merge-while-full pass re-scans
  the whole queue per allocation; the kernel keeps checked-clean
  queued requests in a ``(type, line) -> slots`` index
  (``_queue_index``) and probes each *new allocation's* lines against
  it as the entry is allocated.  Only entries that hit are logged for
  the next merge-while-full pass, so a pass is O(logged entry lines)
  dict lookups, and none at all while the queue shares no line with
  the new entries.  A full check is miss-first: one membership test
  per line against the MSHR file's line index, and only a hit builds
  the ordered ``_find_overlaps`` list.  Without MSHR coalescing the
  kernel keeps none of this bookkeeping.
* **Constituent hand-over.**  The kernel builds its packets with the
  unchecked :meth:`CoalescedRequest.from_aligned_span` (its own span
  arithmetic guarantees the alignment), and an allocation hands the
  packet's constituent list to the MSHR entry instead of copying it:
  nothing reads an allocated packet again, unless the ``issued``
  stream keeps it, in which case the list is copied.
* **Completion heap.**  Retirements pop from a ``(complete_cycle,
  index)`` min-heap instead of scanning the file; the row loop skips
  the completion call entirely while the heap's minimum is in the
  future (the object call is a no-op there).
* **Streams only when asked.**  The digest-invisible
  ``issued``/``serviced`` request streams are appended only when the
  coalescer was built with ``record_streams=True``.  The driver builds
  it with ``False``, so on its runs no record outlives its packet and
  each request is freed when its MSHR entry retires.
* **Kernel bypass.**  The Section 4.2 bypass check (empty CRQ, idle
  MSHRs, nothing mid-sort) is evaluated from kernel state, so
  bypassed packets take the same lean allocate/issue path.

The kernel only engages for the stock component stack (an *envelope
check*, mirroring the capture kernel); anything else -- reference MSHR
files, subclassed coalescers -- replays whole on the object loop.
Configs without the DMC unit are inside the envelope: their rows reach
the CRQ as single-line packets through :meth:`BatchedCoalescer.enqueue`
and a drain, instead of sorted sequences.  If an
invariant the kernel relies on is violated mid-run it raises
:class:`CoalesceKernelError`; the driver catches it, rebuilds the
component stack and re-runs the object replay, so a verification miss
costs one retry, never a wrong digest.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from operator import itemgetter

from repro.core.address import CACHE_LINE_SIZE
from repro.core.coalescer import IssuedRequest, MemoryCoalescer, ServicedRequest
from repro.core.crq import CoalescedRequestQueue, _Slot
from repro.core.dmc import DMCUnit, split_aligned_runs
from repro.core.mshr import DynamicMSHRFile
from repro.core.pipeline import PipelinedSortingNetwork
from repro.core.request import CoalescedRequest, MemoryRequest
from repro.kernels import KernelCounters

_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1
_BY_INDEX = itemgetter(1)
#: CRQ slots are built without their generated ``__init__``.
_new = object.__new__
#: Every packet the kernel builds spans an aligned run of 1, 2, 4 or 8
#: lines (the envelope plus ``split_aligned_runs``), so it skips the
#: validating constructor.
_span_packet = CoalescedRequest.from_aligned_span


#: This kernel's engagement/fallback counts (see
#: :class:`~repro.kernels.KernelCounters`).
COUNTERS = KernelCounters()
kernel_counters = COUNTERS.snapshot
reset_kernel_counters = COUNTERS.reset


class CoalesceKernelError(RuntimeError):
    """A batched-coalescing invariant failed mid-run.

    Raised instead of silently continuing; the replay driver catches
    it, rebuilds the component stack and re-runs the object engine
    (see ``repro.sim.driver._replay_benchmark``).  Creating one counts
    one fallback in :attr:`counters`, the raising kernel's own, so each
    fallback is counted once, by the kernel it starts in.
    """

    counters = COUNTERS

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
        self.counters.record_fallback(reason)


def supports_batched_coalesce(coalescer: MemoryCoalescer) -> bool:
    """Envelope check: does the stock batched kernel model this stack?

    The kernel replays the exact accounting of the stock
    ``MemoryCoalescer``/``DynamicMSHRFile``/``CoalescedRequestQueue``/
    ``DMCUnit`` stack, with or without the DMC unit enabled;
    subclasses or swapped implementations (e.g. the reference MSHR
    file used by the parity harness) delegate to the object engine
    instead.
    """
    config = coalescer.config
    return (
        type(coalescer) is MemoryCoalescer
        and type(coalescer.mshrs) is DynamicMSHRFile
        and type(coalescer.crq) is CoalescedRequestQueue
        and type(coalescer.dmc) is DMCUnit
        and type(coalescer.pipeline) is PipelinedSortingNetwork
        and config.line_size == CACHE_LINE_SIZE
        and config.max_packet_lines in (1, 2, 4, 8)
    )


class BatchedCoalescer:
    """Lean replay of the second-phase coalescing machinery.

    Wraps a stock :class:`MemoryCoalescer` (envelope-checked by
    :func:`supports_batched_coalesce`) and substitutes for its
    ``_complete_up_to`` / ``_handle_sequence`` / ``_drain_crq`` /
    ``flush`` internals inside the vector replay loop.  Structural
    state and statistics live in the wrapped components (see the module
    docstring); :meth:`finish` retires the run at end of trace, folds
    the saturated state's counts, and calls :meth:`finalize`, which
    finishes the HMC back end's accounting.
    """

    def __init__(self, coalescer: MemoryCoalescer):
        config = coalescer.config
        self._coalescer = coalescer
        self._mshrs = coalescer.mshrs
        self._line_index = coalescer.mshrs._line_index
        self._crq = coalescer.crq
        self._dmc = coalescer.dmc
        self._pipeline = coalescer.pipeline
        self._slots = coalescer.crq._slots
        self._fill_window = coalescer.crq._fill_window
        self._depth = coalescer.crq.depth
        self._timeline = coalescer.registry.timeline
        self._service_time = coalescer.service_time_for
        # The per-request streams, or ``None`` when the coalescer does
        # not record them.
        streams = coalescer.record_streams
        self._issued = coalescer.issued if streams else None
        self._serviced = coalescer.serviced if streams else None
        self._coalescing = config.enable_mshr_coalescing
        self._adaptive = config.adaptive_granularity
        self._line_size = config.line_size
        self._max_lines = config.max_packet_lines
        self._compare_cycles = config.compare_cycles

        #: Retirement epoch: bumped whenever entries complete.  Part of
        #: the drain memo key (a retire frees capacity, so a memoized
        #: rejected-full drain is stale once this moves).
        self._retires = 0
        #: ``(head slot, alloc_gen, retires, head_is_fence)`` of a
        #: drain that ended with no progress possible, or ``None``.
        self._memo: tuple | None = None
        #: Entries allocated since the last merge-while-full pass
        #: finished that shared a line with a checked-clean queued
        #: request when they were allocated.  A queued request that
        #: already passed a full overlap check can only overlap entries
        #: allocated after that check (entries never gain lines), and
        #: it sat in ``_queue_index`` at each such allocation, so every
        #: entry it overlaps is in this log.  The pass then probes only
        #: the log entries' lines against ``_queue_index`` instead of
        #: scanning every queued request, and a pass that finds the log
        #: empty has no join to make.  Without MSHR coalescing nothing
        #: probes, so nothing is logged (and the MSHR file's line
        #: index, which only the overlap search reads, is not
        #: maintained either).
        self._alloc_log: list = []
        #: ``(type, line) -> [slot, ...]`` over queued requests whose
        #: last full overlap check found nothing (the check's result
        #: stays valid modulo ``_alloc_log``).  Slots enter on a clean
        #: check, leave when popped/merged/replaced; a fence pop sends
        #: everything back to ``_unchecked`` (slots behind a fence are
        #: skipped by probes, so their checks go stale).
        self._queue_index: dict = {}
        #: ``id(slot) -> slot`` for queued requests that still need a
        #: full overlap check (fresh pushes, post-fence re-checks), in
        #: queue order.  Like the log and the index, it stays empty
        #: without MSHR coalescing.
        self._unchecked: dict = {}
        #: Fence markers currently in the queue (probe filtering is
        #: only needed while this is non-zero).
        self._fences = 0
        #: ``(complete_cycle, entry_index)`` min-heap over the valid
        #: entries, maintained by :meth:`_alloc_entry` and drained by
        #: :meth:`complete_up_to`.  Replaces the object file's
        #: ``_next_complete``/``_last_complete`` bound refresh (an
        #: O(entries) rescan after every retire batch): the heap head
        #: is the next completion, its max the drain horizon.  The
        #: object bounds are left stale -- nothing reads them once the
        #: kernel owns the replay (``pop_completions`` guards on
        #: ``_valid_count`` first).
        self._c_heap: list[tuple[int, int]] = []
        self._finalized = False
        #: Saturated steps, rejections at a full file and pushes that
        #: fill the CRQ, folded into the stats and tallies by
        #: :meth:`finish` (see *Folded counts* in the module docstring).
        self._steps = 0
        self._rejects = 0
        self._full_pushes = 0
        self._num_entries = len(coalescer.mshrs.entries)

        # Statistics go straight into the wrapped components' stats
        # and tallies (a fallback discards the whole stack, so a
        # half-run's counts never reach a result).
        self._mstats = coalescer.mshrs.stats
        self._cstats = coalescer.crq.stats
        self._dstats = coalescer.dmc.stats
        self._occupancy = coalescer.mshrs._occupancy_counts
        self._entry_subs = coalescer.mshrs._entry_subentry_counts
        self._depth_counts = coalescer.crq._depth_counts
        self._fill_counts = coalescer.crq._fill_counts
        self._merge_dist = coalescer.dmc._merge_distance_counts
        self._packet_lines = coalescer.dmc.stats.packets_by_lines

        # Batched HMC back end: when the service-time closure
        # advertises a pristine stock device stack, allocations take
        # the flat-frame timing path with batched accounting instead of
        # walking the scalar device call tree (see
        # ``repro.kernels.hmc``); any other stack is timed through the
        # closure.  Imported lazily to break the module cycle (hmc.py
        # subclasses CoalesceKernelError).
        from repro.kernels.hmc import attach_backend

        self._hmc = attach_backend(coalescer)

    # -- completion ---------------------------------------------------------

    def complete_up_to(self, cycle: int) -> None:
        """Lean twin of ``MemoryCoalescer._complete_up_to``.

        Pops due records off the completion heap instead of scanning
        the entry file; a batch of several due entries is re-sorted by
        entry index because the object scan retires (and appends the
        serviced records) in index order.  In kernel mode subentries
        are the raw constituent requests (``_retire`` never reads
        them), so the serviced append skips the wrapper hop.
        """
        heap = self._c_heap
        if not heap or heap[0][0] > cycle:
            return
        m = self._mshrs
        entries = m.entries
        serviced = self._serviced
        d_subs = self._entry_subs
        free_heap = m._free_heap
        line_index = m._line_index if self._coalescing else None
        line_size = m._line_size
        first = heappop(heap)
        if heap and heap[0][0] <= cycle:
            due = [first]
            while heap and heap[0][0] <= cycle:
                due.append(heappop(heap))
            due.sort(key=_BY_INDEX)
        else:
            due = (first,)
        for cc, idx in due:
            entry = entries[idx]
            subs = entry.subentries
            if serviced is not None:
                for req in subs:
                    serviced.append(ServicedRequest(req, cc))
            # Lean twin of ``DynamicMSHRFile._retire`` (valid flag,
            # free heap, line-index unwind; the valid count is batched
            # below -- nothing in this loop reads it).
            entry.valid = False
            heappush(free_heap, idx)
            if line_index is not None:
                t = entry.rtype
                base = entry.addr // line_size
                num_lines = entry.num_lines
                if num_lines == 1:
                    key = (t, base)
                    bucket = line_index.get(key)
                    if bucket is not None:
                        try:
                            bucket.remove(entry)
                        except ValueError:
                            pass
                        if not bucket:
                            del line_index[key]
                else:
                    for line in range(base, base + num_lines):
                        bucket = line_index.get((t, line))
                        if bucket is not None:
                            try:
                                bucket.remove(entry)
                            except ValueError:
                                pass
                            if not bucket:
                                del line_index[(t, line)]
            n_subs = len(subs)
            d_subs[n_subs] = d_subs.get(n_subs, 0) + 1
            entry.subentries = []
        retired = len(due)
        m._valid_count -= retired
        self._mstats.completions += retired
        self._retires += retired

    # -- CRQ drain ----------------------------------------------------------

    def drain(self, cycle: int) -> None:
        """Lean twin of ``MemoryCoalescer._drain_crq``.

        A memoized no-progress drain (head unchanged, no allocation or
        retirement since) replays as the deterministic offer/reject
        accounting it would produce -- one offer at the full
        occupancy the memo implies, one rejection, counted in
        ``_rejects`` -- plus the merge-while-full pass over packets
        pushed since, or as a pure no-op for a fence head blocked on
        busy MSHRs.
        """
        memo = self._memo
        if memo is not None:
            slot, gen, retires, fence = memo
            slots = self._slots
            if (
                slots
                and slots[0] is slot
                and self._mshrs.alloc_gen == gen
                and self._retires == retires
            ):
                if not fence:
                    # One offer at full occupancy, one rejection
                    # (counted in ``_rejects``, folded at finish).
                    self._rejects += 1
                    # The full drain would end exactly here: the head
                    # is checked clean and the allocation log is empty
                    # (no allocation since the pass that set the memo),
                    # so its re-offer can only be rejected.  What is
                    # left is that drain's merge pass, which only has
                    # work when pushes added unchecked packets.  Its
                    # common case, one fresh single-line packet ahead
                    # of any fence, is a miss-first check inline.
                    unchecked = self._unchecked
                    if unchecked:
                        if len(unchecked) == 1 and not self._fences:
                            (fresh,) = unchecked.values()
                            req = fresh.request
                            key = (req.rtype, req.addr >> _LINE_SHIFT)
                            if (
                                req.num_lines == 1
                                and key not in self._line_index
                            ):
                                unchecked.clear()
                                queued = self._queue_index
                                bucket = queued.get(key)
                                if bucket is None:
                                    queued[key] = [fresh]
                                else:
                                    bucket.append(fresh)
                                return
                        self._merge_waiting_pass()
                return
            self._memo = None
        self._drain_full(cycle)

    def drain_hits_bulk(self, count: int) -> None:
        """Replay ``count`` memoized no-progress drains at once.

        The replay loop counts consecutive per-row drains between state
        changes instead of calling :meth:`drain` for each: a memoized
        drain's accounting (one offer at full occupancy, one rejection)
        is cycle-independent, so a run of them applies as a single bulk
        count.  The memo is re-verified here; the caller
        flushing before every mutation should make that vacuous, so a
        stale memo means the engine contract broke (fallback).
        """
        memo = self._memo
        if memo is None:
            raise CoalesceKernelError("bulk-drain-without-memo")
        slot, gen, retires, fence = memo
        slots = self._slots
        if (
            not slots
            or slots[0] is not slot
            or self._mshrs.alloc_gen != gen
            or self._retires != retires
        ):
            raise CoalesceKernelError("bulk-drain-memo-stale")
        if not fence:
            self._rejects += count

    def _drain_full(self, cycle: int) -> None:
        slots = self._slots
        m = self._mshrs
        coalescing = self._coalescing
        adaptive = self._adaptive
        mstats = self._mstats
        cstats = self._cstats
        d_occ = self._occupancy
        unchecked = self._unchecked
        alloc_log = self._alloc_log
        popleft = slots.popleft
        overlaps_of = self._overlaps
        probe_log = self._probe_log
        free_heap = m._free_heap
        alloc_entry = self._alloc_entry
        issued = self._issued
        while slots:
            slot = slots[0]
            head = slot.request
            if head is None:
                # Fence marker: nothing behind it issues until every
                # request ahead has committed.
                if m._valid_count:
                    self._memo = (slot, m.alloc_gen, self._retires, True)
                    return
                popleft()  # pop_fence records nothing
                self._fences -= 1
                if self._hmc is not None:
                    self._hmc.mark_fence()
                if self._queue_index:
                    # Probes skipped everything behind the fence, so
                    # every stored check is now suspect: re-check the
                    # whole queue in full at the next pass.
                    self._queue_index.clear()
                    unchecked.clear()
                    for s in slots:
                        if s.request is not None:
                            unchecked[id(s)] = s
                continue
            if adaptive and head.num_lines == 1 and head.payload_bytes is None:
                # Inline :meth:`_shrink` (its guards are this branch).
                line_size = self._line_size
                wanted = head.requested_bytes
                if wanted > line_size:
                    wanted = line_size
                elif wanted <= 0:
                    wanted = 16
                head.payload_bytes = min(
                    line_size, max(16, -(-wanted // 16) * 16)
                )
            at = cycle if cycle >= head.issue_cycle else head.issue_cycle
            mstats.offered += 1
            occ = m._valid_count
            d_occ[occ] = d_occ.get(occ, 0) + 1
            sid = id(slot)
            if coalescing and occ:
                fresh = sid in unchecked
                if fresh:
                    overlaps = overlaps_of(head)
                elif alloc_log:
                    # Already checked clean: only entries allocated
                    # since (all in the log) can overlap.
                    overlaps = probe_log(head)
                else:
                    overlaps = None
                if overlaps:
                    covered: set[int] = set()
                    for entry, common in overlaps:
                        self._merge_entry(entry, head, common)
                        covered |= common
                    remainder = sorted(set(head.lines) - covered)
                    if fresh:
                        del unchecked[sid]
                    else:
                        self._unindex_slot(slot)
                    if not remainder:
                        mstats.merged_full += 1
                        popleft()
                        cstats.pops += 1
                    else:
                        mstats.merged_partial += 1
                        rest = m._repack(head, remainder)
                        mstats.remainder_packets += len(rest)
                        enq = slot.enqueue_cycle
                        popleft()
                        new_slots = [_Slot(r, enq) for r in rest]
                        slots.extendleft(reversed(new_slots))
                        # Remainder lines overlap nothing right now by
                        # construction: born checked.
                        for ns in new_slots:
                            self._index_slot(ns)
                    continue
            if free_heap:
                # Coalesced-path allocation: shared core plus the
                # issue record (inlined -- this is the one call site).
                # The head leaves the join first, so the allocation
                # logs its entry only for the requests still queued.
                if coalescing:
                    if sid in unchecked:
                        del unchecked[sid]
                    else:
                        self._unindex_slot(slot)
                entry = alloc_entry(head, at)
                if issued is not None:
                    issued.append(
                        IssuedRequest(
                            head, at, entry.complete_cycle, entry.index
                        )
                    )
                popleft()
                cstats.pops += 1
                continue
            mstats.rejected_full += 1
            if coalescing:
                if sid in unchecked:
                    # The offer just ran a full overlap check; record it.
                    del unchecked[sid]
                    self._index_slot(slot)
                if unchecked or alloc_log:
                    self._merge_waiting_pass()
            self._memo = (slot, m.alloc_gen, self._retires, False)
            return

    def note_fence(self) -> None:
        """A fence marker was pushed onto the CRQ (probe filtering on)."""
        self._fences += 1
        if self._hmc is not None:
            self._hmc.mark_fence()

    def _index_slot(self, slot: _Slot) -> None:
        req = slot.request
        t = req.rtype
        base = req.addr >> _LINE_SHIFT
        qi = self._queue_index
        n = req.num_lines
        for line in (base,) if n == 1 else range(base, base + n):
            bucket = qi.get((t, line))
            if bucket is None:
                qi[(t, line)] = [slot]
            else:
                bucket.append(slot)

    def _unindex_slot(self, slot: _Slot) -> None:
        req = slot.request
        t = req.rtype
        base = req.addr >> _LINE_SHIFT
        qi = self._queue_index
        n = req.num_lines
        for line in (base,) if n == 1 else range(base, base + n):
            bucket = qi[(t, line)]
            for i, s in enumerate(bucket):
                if s is slot:
                    del bucket[i]
                    break
            if not bucket:
                del qi[(t, line)]

    def _overlaps(self, request: CoalescedRequest):
        """``DynamicMSHRFile._find_overlaps`` behind a miss-first test.

        One ``(type, line) in _line_index`` test per line; only a hit
        pays for the ordered ``(entry, common lines)`` list.  The index
        never keeps an empty bucket, so a member line always overlaps.
        ``IntEnum`` request types hash and compare as their value, so
        they match the index's integer keys.
        """
        index = self._line_index
        t = request.rtype
        base = request.addr >> _LINE_SHIFT
        n = request.num_lines
        for line in (base,) if n == 1 else range(base, base + n):
            if (t, line) in index:
                return self._mshrs._find_overlaps(request)
        return None

    def _probe_log(self, queued: CoalescedRequest):
        """Overlaps of ``queued`` against the allocation log only.

        Valid exactly when ``queued``'s last full overlap check found
        nothing: entries never gain lines, so anything older than the
        log was ruled out then.  Spans are contiguous on both sides, so
        the common-line set is a range intersection; duplicate log
        records for a recycled entry collapse in the by-index dict, and
        the ascending-index order matches ``_find_overlaps``.  Callers
        probe only a non-empty log.
        """
        log = self._alloc_log
        line_size = self._line_size
        qb = queued.addr // line_size
        q_hi = qb + queued.num_lines
        q_type = queued.rtype
        hits = None
        for entry in log:
            if not entry.valid or entry.rtype is not q_type:
                continue
            eb = entry.addr // line_size
            lo = eb if eb > qb else qb
            hi = eb + entry.num_lines
            if q_hi < hi:
                hi = q_hi
            if lo < hi:
                if hits is None:
                    hits = {}
                hits[entry.index] = (entry, set(range(lo, hi)))
        if not hits:
            return None
        if len(hits) > 1:
            return [hits[i] for i in sorted(hits)]
        return list(hits.values())

    def _merge_waiting_pass(self) -> None:
        """Lean twin of ``MemoryCoalescer._merge_waiting``.

        The object pass re-joins every queued request against the MSHR
        file after each allocation.  Here the join is inverted: queued
        requests whose last full check found nothing sit in
        ``_queue_index``, and each newly allocated entry (the log)
        probes its lines against that index -- O(new entry lines) dict
        lookups in the steady state.  Only fresh pushes and post-fence
        re-checks (``_unchecked``) still pay a full check, miss-first
        (:meth:`_overlaps`).  Requests behind the first fence are
        skipped, exactly like the object pass; a fence pop sends the
        whole queue back to ``_unchecked`` to make up for the skipped
        probes.  Only runs with MSHR coalescing call it, and only with
        unchecked requests or logged entries (otherwise nothing is new
        on either side of the join since the last pass).
        """
        log = self._alloc_log
        unchecked = self._unchecked
        if not unchecked and not self._queue_index:
            # New allocations but an empty join target: the requests
            # they shared lines with have left the queue since.
            log.clear()
            return
        m = self._mshrs
        valid = m._valid_count
        slots = self._slots
        if not valid:
            # No entries to overlap: every waiting packet checks clean.
            if unchecked:
                for slot in unchecked.values():
                    self._index_slot(slot)
                unchecked.clear()
            log.clear()
            return
        # Fence filter: ids of slots ahead of the first fence marker.
        before: set | None = None
        if self._fences:
            before = set()
            for s in slots:
                if s.request is None:
                    break
                before.add(id(s))
        # Both join-result containers allocate lazily: the common
        # steady-state pass probes a handful of index buckets and finds
        # nothing, so it should not pay two container constructions.
        hits: list[tuple[_Slot, list]] | None = None
        if unchecked:
            behind = None
            for sid, slot in unchecked.items():
                if before is not None and sid not in before:
                    if behind is None:
                        behind = {}
                    behind[sid] = slot  # stays unchecked past the fence
                    continue
                overlaps = self._overlaps(slot.request)
                if overlaps:
                    if hits is None:
                        hits = []
                    hits.append((slot, overlaps))
                else:
                    self._index_slot(slot)
            unchecked.clear()
            if behind:
                unchecked.update(behind)
        if log and self._queue_index:
            line_size = self._line_size
            qi = self._queue_index
            probed: dict[int, _Slot] | None = None
            for entry in log:
                if not entry.valid:
                    continue
                t = entry.rtype
                eb = entry.addr // line_size
                n = entry.num_lines
                for line in (eb,) if n == 1 else range(eb, eb + n):
                    bucket = qi.get((t, line))
                    if bucket:
                        if probed is None:
                            probed = {}
                        for s in bucket:
                            probed[id(s)] = s
            if probed:
                for sid, slot in probed.items():
                    if before is not None and sid not in before:
                        continue
                    overlaps = self._probe_log(slot.request)
                    if overlaps is None:  # pragma: no cover - defensive
                        raise CoalesceKernelError("queue-index-probe-mismatch")
                    if hits is None:
                        hits = []
                    hits.append((slot, overlaps))
                    self._unindex_slot(slot)
        if hits:
            if len(hits) > 1:
                # Subentry append order is digest-visible through the
                # serviced stream: process hits in queue order, exactly
                # like the object pass.
                pos = {id(s): i for i, s in enumerate(slots)}
                hits.sort(key=lambda h: pos[id(h[0])])
            mstats = self._mstats
            d_occ = self._occupancy
            for slot, overlaps in hits:
                queued = slot.request
                mstats.offered += 1
                d_occ[valid] = d_occ.get(valid, 0) + 1
                covered: set[int] = set()
                for entry, common in overlaps:
                    self._merge_entry(entry, queued, common)
                    covered |= common
                remainder = sorted(set(queued.lines) - covered)
                idx = None
                for i, s in enumerate(slots):
                    if s is slot:
                        idx = i
                        break
                if not remainder:
                    mstats.merged_full += 1
                    del slots[idx]
                    self._cstats.pops += 1
                else:
                    mstats.merged_partial += 1
                    rest = m._repack(queued, remainder)
                    mstats.remainder_packets += len(rest)
                    del slots[idx]
                    enq = slot.enqueue_cycle
                    for offset, r in enumerate(rest):
                        ns = _Slot(r, enq)
                        slots.insert(idx + offset, ns)
                        self._index_slot(ns)
        log.clear()

    def _merge_entry(
        self, entry, request: CoalescedRequest, lines: set[int]
    ) -> None:
        # Kernel-mode subentries are the raw constituent requests:
        # ``_retire`` never reads them, and the serviced stream only
        # wants the request back, so the MSHRSubentry wrapper (and its
        # per-request line_id arithmetic) is pure overhead here.
        subentries = entry.subentries
        added = 0
        for req in request.constituents:
            if req.line in lines:
                subentries.append(req)
                added += 1
        self._mstats.subentries_added += added

    def _alloc_entry(self, request: CoalescedRequest, at: int):
        """Lean twin of ``DynamicMSHRFile._allocate``.

        The caller has already verified a free entry exists; the
        service hook (the HMC device call, digest-visible) is evaluated
        at exactly the same point the object path evaluates its lazy
        ``service_cycles`` callable.  Subentries are raw requests (see
        :meth:`_merge_entry`); the completion-bound refresh is replaced
        by a heap push (see ``_c_heap``).

        With the batched HMC back end attached the service hop runs
        through its flat-frame :meth:`~repro.kernels.hmc.
        BatchedHMCBackend.service` instead -- same completion cycle,
        computed without the scalar device call tree.
        """
        m = self._mshrs
        hmc = self._hmc
        if hmc is None:
            service = self._service_time(request, at)
        entry = m.entries[heappop(m._free_heap)]
        entry.valid = True
        entry.addr = request.addr
        entry.num_lines = request.num_lines
        entry.rtype = request.rtype
        base = request.addr // self._line_size
        num_lines = request.num_lines
        constituents = request.constituents
        for req in constituents:
            if not 0 <= req.line - base < num_lines:
                raise CoalesceKernelError("subentry-line-out-of-range")
        # Nothing reads an allocated packet again unless the issued
        # stream keeps it, so the entry takes its list over; a kept
        # packet's list must not grow with later merges.
        entry.subentries = (
            constituents if self._issued is None else list(constituents)
        )
        entry.issue_cycle = at
        if hmc is None:
            complete = at + service
        else:
            complete = hmc.service(request, at)
        entry.complete_cycle = complete
        m._valid_count += 1
        if self._coalescing:
            index = self._line_index
            queued = self._queue_index
            t = request.rtype
            if num_lines == 1:
                key = (t, base)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [entry]
                else:
                    bucket.append(entry)
                shared = key in queued
            else:
                shared = False
                for line in range(base, base + num_lines):
                    key = (t, line)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [entry]
                    else:
                        bucket.append(entry)
                    if key in queued:
                        shared = True
            if shared:
                # A checked-clean queued request shares a line with
                # the new entry: the next merge pass must probe it.
                self._alloc_log.append(entry)
        m.alloc_gen += 1
        heappush(self._c_heap, (complete, entry.index))
        mstats = self._mstats
        mstats.allocated += 1
        mstats.subentries_added += len(constituents)
        return entry

    def bypass(self, request: MemoryRequest, cycle: int) -> None:
        """Lean twin of ``MemoryCoalescer._bypass``.

        Replays ``allocate_direct``'s accounting (one offer at the
        current -- necessarily zero -- occupancy, then the shared
        allocation core, which counts the ``allocated`` outcome and
        subentries exactly like the object ``_allocate``), the bypass
        count and the timeline entry.
        """
        packet = _span_packet(request.addr, 1, request.rtype, [request], cycle)
        self._shrink(packet)
        self._mstats.offered += 1
        occ = self._mshrs._valid_count
        d_occ = self._occupancy
        d_occ[occ] = d_occ.get(occ, 0) + 1
        entry = self._alloc_entry(packet, cycle)
        self._coalescer._bypassed += 1
        self._timeline.record(cycle, "coalescer", "bypass")
        if self._issued is not None:
            self._issued.append(
                IssuedRequest(
                    packet, cycle, entry.complete_cycle, entry.index, True
                )
            )

    def _shrink(self, packet: CoalescedRequest) -> None:
        if (
            self._adaptive
            and packet.num_lines == 1
            and packet.payload_bytes is None
        ):
            wanted = min(packet.requested_bytes, self._line_size)
            if wanted <= 0:
                wanted = 16
            packet.payload_bytes = min(
                self._line_size, max(16, -(-wanted // 16) * 16)
            )

    # -- enqueue ------------------------------------------------------------

    def enqueue(self, packet: CoalescedRequest, cycle: int) -> None:
        """Lean twin of ``MemoryCoalescer._enqueue_packet`` + CRQ push.

        While the CRQ is full, each back-pressure round advances to the
        earliest MSHR completion and runs as one saturated step or as
        the general retire and drain (see the module docstring).  The
        push keeps the drain memo: a fresh packet joins ``_unchecked``,
        and a memo-hit drain runs the merge pass that checks it (see
        :meth:`drain`).
        """
        slots = self._slots
        depth_limit = self._depth
        while len(slots) >= depth_limit:
            # The advance guarantees the completion pass retires
            # something whenever the heap is non-empty (and an empty
            # heap means no entries, hence no reject memo), so the drain
            # memo is always stale here.
            heap = self._c_heap
            horizon = heap[0][0] if heap else cycle + 1
            cycle = cycle + 1 if cycle + 1 > horizon else horizon
            m = self._mshrs
            slot = slots[0]
            head = slot.request
            coalescing = self._coalescing
            if (
                m._free_heap
                or head is None
                or self._serviced is not None
                or (len(heap) > 1 and heap[1][0] <= cycle)
                or (len(heap) > 2 and heap[2][0] <= cycle)
                or (
                    coalescing
                    and (self._alloc_log or id(slot) in self._unchecked)
                )
            ):
                self.complete_up_to(cycle)
                self._memo = None
                self._drain_full(cycle)
                continue
            # The saturated step.  The due entry's index is the only
            # free one once it retires, so the head allocates straight
            # into it: no free-heap push/pop, one heapreplace.
            idx = heap[0][1]
            entry = m.entries[idx]
            d_subs = self._entry_subs
            n_subs = len(entry.subentries)
            d_subs[n_subs] = d_subs.get(n_subs, 0) + 1
            self._retires += 1
            if self._adaptive:
                self._shrink(head)
            at = cycle if cycle >= head.issue_cycle else head.issue_cycle
            addr = head.addr
            num_lines = head.num_lines
            rtype = head.rtype
            base = addr >> _LINE_SHIFT
            constituents = head.constituents
            for req in constituents:
                if not 0 <= req.line - base < num_lines:
                    raise CoalesceKernelError("subentry-line-out-of-range")
            if coalescing:
                # Retire the old span from the line index, take the head
                # out of the join, then index the new span; the entry is
                # logged if a request still queued shares one of its
                # lines (see :meth:`_alloc_entry`).
                index = self._line_index
                queued = self._queue_index
                t = entry.rtype
                eb = entry.addr >> _LINE_SHIFT
                for line in (
                    (eb,) if entry.num_lines == 1
                    else range(eb, eb + entry.num_lines)
                ):
                    bucket = index.get((t, line))
                    if bucket is not None:
                        try:
                            bucket.remove(entry)
                        except ValueError:
                            pass
                        if not bucket:
                            del index[(t, line)]
                if num_lines == 1:
                    key = (rtype, base)
                    bucket = queued[key]
                    if len(bucket) == 1 and bucket[0] is slot:
                        del queued[key]
                    else:
                        self._unindex_slot(slot)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [entry]
                    else:
                        bucket.append(entry)
                    shared = key in queued
                else:
                    self._unindex_slot(slot)
                    shared = False
                    for line in range(base, base + num_lines):
                        key = (rtype, line)
                        bucket = index.get(key)
                        if bucket is None:
                            index[key] = [entry]
                        else:
                            bucket.append(entry)
                        if key in queued:
                            shared = True
                if shared:
                    self._alloc_log.append(entry)
            hmc = self._hmc
            if hmc is None:
                complete = at + self._service_time(head, at)
            else:
                complete = hmc.service(head, at)
            entry.addr = addr
            entry.num_lines = num_lines
            entry.rtype = rtype
            entry.subentries = constituents
            entry.issue_cycle = at
            entry.complete_cycle = complete
            m.alloc_gen += 1
            heapreplace(heap, (complete, idx))
            self._mstats.subentries_added += len(constituents)
            self._steps += 1
            slots.popleft()
            # Offer the next head.  If it cannot merge either, it is
            # rejected and memoized here; otherwise the general drain
            # takes over at this point (it keeps no state between heads).
            self._memo = None
            if not slots:
                continue
            slot = slots[0]
            head = slot.request
            if head is None or (
                coalescing
                and (self._alloc_log or id(slot) in self._unchecked)
            ):
                self._drain_full(cycle)
                continue
            if self._adaptive:
                self._shrink(head)
            self._rejects += 1
            unchecked = self._unchecked
            if unchecked:
                # The rejection's merge pass.  Its common case, one
                # fresh single-line packet ahead of any fence, is a
                # miss-first check inline (the log is empty).
                fresh = None
                if len(unchecked) == 1 and not self._fences:
                    (fresh,) = unchecked.values()
                    req = fresh.request
                    key = (req.rtype, req.addr >> _LINE_SHIFT)
                    if req.num_lines != 1 or key in self._line_index:
                        fresh = None
                if fresh is None:
                    self._merge_waiting_pass()
                else:
                    unchecked.clear()
                    queued = self._queue_index
                    bucket = queued.get(key)
                    if bucket is None:
                        queued[key] = [fresh]
                    else:
                        bucket.append(fresh)
            self._memo = (slot, m.alloc_gen, self._retires, False)
        slot = _new(_Slot)
        slot.request = packet
        slot.enqueue_cycle = cycle
        slots.append(slot)
        if self._coalescing:
            self._unchecked[id(slot)] = slot
        cstats = self._cstats
        depth = len(slots)
        if depth > cstats.max_occupancy:
            cstats.max_occupancy = depth
        if depth == depth_limit:
            self._full_pushes += 1
        else:
            cstats.pushes += 1
            d_depth = self._depth_counts
            d_depth[depth] = d_depth.get(depth, 0) + 1
        window = self._fill_window
        window.append(packet.issue_cycle)
        if len(window) >= depth_limit:
            fill_cycles = window[-1] - window[0]
            if fill_cycles < 0:
                fill_cycles = 0
            cstats.fills += 1
            cstats.total_fill_cycles += fill_cycles
            d_fill = self._fill_counts
            d_fill[fill_cycles] = d_fill.get(fill_cycles, 0) + 1
            window.clear()
            self._timeline.record(cycle, "crq", "fill", fill_cycles)

    # -- sequence handling ---------------------------------------------------

    def handle_sequence(self, seq) -> None:
        """Lean twin of ``MemoryCoalescer._handle_sequence``."""
        requests = seq.requests
        if seq.is_fence or not requests:
            return
        packets, done_cycle = self._coalesce(requests, seq.complete_cycle)
        enqueue = self.enqueue
        for packet in packets:
            enqueue(packet, done_cycle)
        self.drain(done_cycle)

    def sequence_spans(self, requests) -> list[tuple[int, int]]:
        """The ``(start, end)`` DMC groups of one sorted sequence.

        A new group starts where the type changes, the line step
        exceeds one, or a step of one crosses an aligned
        ``max_packet_lines`` block (the distinct-line cap is subsumed
        by that cut for power-of-two sizes): the decisions of the
        object :meth:`~repro.core.dmc.DMCUnit.coalesce` scan, so packet
        formation becomes list slicing.
        """
        n = len(requests)
        max_lines = self._max_lines
        spans = []
        start = 0
        prev = requests[0]
        prev_line = prev.line
        prev_type = prev.rtype
        for j in range(1, n):
            req = requests[j]
            line = req.line
            d = line - prev_line
            if (
                req.rtype is not prev_type
                or d > 1
                or (d == 1 and line % max_lines == 0)
            ):
                spans.append((start, j))
                start = j
            prev_line = line
            prev_type = req.rtype
        spans.append((start, n))
        return spans

    def _coalesce(self, requests, start_cycle: int):
        """Lean twin of ``DMCUnit.coalesce`` over :meth:`sequence_spans`."""
        spans = self.sequence_spans(requests)
        cc = self._compare_cycles
        max_lines = self._max_lines
        line_size = self._line_size
        dstats = self._dstats
        dstats.sequences += 1
        dstats.requests_in += len(requests)
        latency = 0
        comparisons = 0
        merges = 0
        packets: list[CoalescedRequest] = []
        packets_append = packets.append
        d_md = self._merge_dist
        d_pl = self._packet_lines
        span_packet = _span_packet
        for start, end in spans:
            base_req = requests[start]
            base_line = base_req.line
            group_size = end - start
            # One simultaneous comparison per group, one merge op per
            # absorbed request, one packet-construction stage for
            # multi-request groups (Section 5.3.3 timing).
            latency += cc
            comparisons += 1
            if group_size > 1:
                merges += group_size - 1
                for j in range(start + 1, end):
                    dist = requests[j].line - base_line
                    d_md[dist] = d_md.get(dist, 0) + 1
                latency += cc * (group_size - 1) + cc
            pkt_cycle = start_cycle + latency
            last_line = requests[end - 1].line
            if last_line == base_line:
                chunks = ((base_line, 1),)
            else:
                # Group lines are contiguous by construction of the
                # boundary predicate.
                chunks = split_aligned_runs(
                    list(range(base_line, last_line + 1)), max_lines
                )
            pos = start
            rtype = base_req.rtype
            for chunk_base, chunk_num in chunks:
                limit = chunk_base + chunk_num
                cursor = pos
                while cursor < end and requests[cursor].line < limit:
                    cursor += 1
                packets_append(
                    span_packet(
                        chunk_base * line_size,
                        chunk_num,
                        rtype,
                        requests[pos:cursor],
                        pkt_cycle,
                    )
                )
                d_pl[chunk_num] = d_pl.get(chunk_num, 0) + 1
                pos = cursor
        dstats.comparisons += comparisons
        dstats.merges += merges
        dstats.packets_out += len(packets)
        dstats.total_latency_cycles += latency
        return packets, start_cycle + latency

    # -- end of trace --------------------------------------------------------

    def finish(self, cycle: int) -> None:
        """Lean twin of ``MemoryCoalescer.flush``, then :meth:`finalize`.

        The vector engine never uses the pipeline's front buffer, so
        the object path's ``pipeline.drain`` here is a guaranteed
        no-op; a non-empty buffer means the engine contract broke.
        Once the run has retired, the folded counts (see the module
        docstring) are added to the stats and tallies, once.
        """
        self.complete_up_to(cycle)
        if self._pipeline.pending():
            raise CoalesceKernelError("pipeline-buffer-not-empty-at-flush")
        self.drain(cycle)
        m = self._mshrs
        slots = self._slots
        heap = self._c_heap
        guard = 0
        while slots or m._valid_count:
            # Max over the heap equals the object file's
            # ``_last_complete`` here: every retired completion is
            # <= cycle and every valid one is > cycle, so the running
            # max always belongs to a still-valid entry.
            horizon = max(heap)[0] if heap else cycle
            cycle = cycle + 1 if cycle + 1 > horizon else horizon
            self.complete_up_to(cycle)
            self.drain(cycle)
            guard += 1
            if guard > 10_000_000:  # pragma: no cover - defensive
                raise CoalesceKernelError("drain-guard-exceeded")
        # Fold the fixed-key counts.  Tallies publish in sorted value
        # order, so when they are added does not change a digest.
        mstats = self._mstats
        d_occ = self._occupancy
        full = self._num_entries
        steps = self._steps
        if steps:
            mstats.offered += steps
            mstats.allocated += steps
            mstats.completions += steps
            self._cstats.pops += steps
            d_occ[full - 1] = d_occ.get(full - 1, 0) + steps
        rejects = self._rejects
        if rejects:
            mstats.offered += rejects
            mstats.rejected_full += rejects
            d_occ[full] = d_occ.get(full, 0) + rejects
        pushes = self._full_pushes
        if pushes:
            self._cstats.pushes += pushes
            d_depth = self._depth_counts
            d_depth[self._depth] = d_depth.get(self._depth, 0) + pushes
        self._steps = self._rejects = self._full_pushes = 0
        self.finalize()

    def finalize(self) -> None:
        """Finish the HMC back end's accounting.  Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        if self._hmc is not None:
            self._hmc.finalize()
