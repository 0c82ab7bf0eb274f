"""Vectorized trace replay: one row loop, one sort per flush.

The object replay loop constructs a :class:`MemoryRequest` per row and
hands it to :meth:`MemoryCoalescer.push`, which buffers it in the
sorting pipeline and eventually runs the comparator walk over each
flushed sequence.  This engine keeps the pipeline's front buffer as a
span of row indices instead: a span flushes when it fills, times out,
meets a fence or reaches the end of the trace, exactly as the paper's
n-wide sorter does.  The flush sorts the span's keys once with
:meth:`~repro.kernels.sortnet.VectorSortNetwork.sequence_permutation`,
builds the span's requests in network output order, accounts the
flush through :meth:`~repro.core.pipeline.PipelinedSortingNetwork.emit_sorted`
and hands the sequence to the batched coalescing kernel
(:class:`~repro.kernels.coalesce.BatchedCoalescer`).  Every
digest-visible side effect -- stats, metrics, timeline entries,
CRQ/MSHR interactions, drain cadence -- replays the object path's call
sequence exactly; the parity cells in ``scripts/check_perf_parity.py``
and the differential tests pin it.

Configurations without the DMC unit never sort: each row becomes a
single-line packet.  They run a short row loop on the same kernel that
replays the non-DMC branch of :meth:`MemoryCoalescer.push`: the packet
goes to :meth:`~repro.kernels.coalesce.BatchedCoalescer.enqueue`, then
the CRQ drains.  Both loops build their requests and packets with the
unchecked constructors directly, one call each.  Component stacks
outside the kernel's envelope replay whole on the object loop
(:func:`repro.trace.replay.replay_trace`).

Back-to-back replays of the same buffer (a grouped sweep worker
replaying many configs against one trace) reuse the decoded Python
columns and extended sort keys via ``buffer.replay_cache``; they are
pure functions of the trace.  Request objects are *never* cached: the
coalescer retains pushed requests in packet constituents and MSHR
subentries, so every run materializes a fresh set.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.address import CACHE_LINE_SIZE, TYPE_BIT
from repro.core.coalescer import MemoryCoalescer
from repro.core.request import CoalescedRequest, MemoryRequest, RequestType
from repro.kernels.coalesce import (
    COUNTERS,
    BatchedCoalescer,
    supports_batched_coalesce,
)
from repro.kernels.sortnet import VectorSortNetwork
from repro.obs import PhaseProfiler
from repro.trace.buffer import TraceBuffer, TraceError
from repro.trace.replay import replay_trace

_TYPE_MASK = 0b11
_LINE_MASK = CACHE_LINE_SIZE - 1
_FENCE_CODE = int(RequestType.FENCE)
_LOAD = RequestType.LOAD
_STORE = RequestType.STORE


def vector_replay(
    buffer: TraceBuffer,
    *,
    coalescer: MemoryCoalescer,
    profiler: PhaseProfiler | None = None,
) -> int:
    """Feed a captured trace into ``coalescer``; return the last cycle.

    Drop-in replacement for :func:`repro.trace.replay.replay_trace`
    with digest-identical results: the same stats, registry series and
    timeline, and, when the coalescer records them, the same issued and
    serviced streams in the same order.  Requests are built as their
    flush span (or bypass) needs them, so their ``request_id`` values
    follow flush order rather than row order.  With a ``profiler``, column
    precomputation is charged to the ``trace`` phase, the main loop to
    ``coalesce`` and the end-of-trace retire to ``flush`` (the same
    phase names the object path uses, at coarser grain).
    """
    if not supports_batched_coalesce(coalescer):
        # No kernel models this stack: the object loop replays it.
        COUNTERS.delegated += 1
        return replay_trace(buffer, coalescer=coalescer, profiler=profiler)
    config = coalescer.config
    if not config.enable_dmc:
        return _replay_single_lines(buffer, coalescer, profiler)

    clock = time.perf_counter
    mark = clock()

    decoded = _decoded_columns(buffer)
    cycles_l, addrs_l, flags_l, sizes_l, requested_l, keys_l = decoded
    # Requests are built unchecked (the decode validated the rows) and
    # fresh for every push: the coalescer keeps pushed requests in
    # packet constituents and MSHR subentries, so no two may share one.
    from_row = MemoryRequest.from_trace_row

    pipeline = coalescer.pipeline
    permutation = VectorSortNetwork(pipeline.network).sequence_permutation
    width = config.sorter_width
    timeout = config.timeout_cycles
    can_bypass = coalescer._can_bypass
    crq = coalescer.crq
    crq_slots = crq._slots  # the deque mutates in place, never rebinds
    emit_sorted = pipeline.emit_sorted

    kernel = BatchedCoalescer(coalescer)
    COUNTERS.engaged += 1
    complete = kernel.complete_up_to
    drain_bulk = kernel.drain_hits_bulk
    drain_full = kernel._drain_full
    handle = kernel.handle_sequence
    kheap = kernel._c_heap

    span: list[int] = []
    first = 0
    llc_count = 0

    def flush_span(reason: str, cycle: int):
        """Sort the current span and account it as one flush.

        Returns the sorted sequence, not yet handled: a fence takes its
        pipeline slot between the two.
        """
        perm = permutation([keys_l[j] for j in span])
        # The span's requests are built as it flushes, so each lives
        # only as long as the packets and MSHR entries holding it.
        requests = [
            from_row(
                addrs_l[j],
                _STORE if flags_l[j] & 0b01 else _LOAD,
                sizes_l[j],
                requested_l[j],
            )
            for j in map(span.__getitem__, perm)
        ]
        seq = emit_sorted(
            requests,
            count=len(span),
            reason=reason,
            cycle=cycle,
            first_cycle=first or cycle,
        )
        span.clear()
        return seq

    if profiler is not None:
        now = clock()
        profiler.add("trace", now - mark)
        mark = now

    # Memoized no-progress drains owed since the last real drain call:
    # each per-row drain between state changes is a memo hit with
    # cycle-independent accounting, so a run of them replays as one
    # bulk update -- flushed before anything mutates CRQ/MSHR state,
    # while the memo the accounting depends on is still valid.
    pending = 0
    stale = True  # True when the kernel's drain memo may be invalid
    for i in range(len(cycles_l)):
        c = cycles_l[i]
        if kheap and c >= kheap[0][0]:
            # Inline twin of the kernel's completion-heap early exit:
            # the object path's per-row _complete_up_to is a no-op
            # outside this condition, so skipping the call is
            # digest-invisible.
            if pending:
                drain_bulk(pending)
                pending = 0
            complete(c)
            stale = True
        f = flags_l[i]
        if f & _TYPE_MASK == _FENCE_CODE:
            # push(): buffer flush, then the fence's own pipeline slot,
            # then the CRQ fence marker.
            if pending:
                drain_bulk(pending)
                pending = 0
            if span:
                seq = flush_span("fence", c)
                pipeline.fence_slot(c)
                handle(seq)
            else:
                pipeline.fence_slot(c)
            crq.push_fence(c)
            kernel.note_fence()
            kernel.drain(c)
            stale = False
            continue
        llc_count += 1
        if not span and can_bypass(c):
            # _can_bypass requires pipeline.pending() == 0, which here
            # is exactly "the span is empty" (the pipeline's own buffer
            # is never used by this engine).
            if pending:
                drain_bulk(pending)
                pending = 0
            kernel.bypass(
                from_row(
                    addrs_l[i],
                    _STORE if f & 0b01 else _LOAD,
                    sizes_l[i],
                    requested_l[i],
                ),
                c,
            )
            stale = True
            continue
        if span and c - first >= timeout:
            if pending:
                drain_bulk(pending)
                pending = 0
            handle(flush_span("timeout", c))
            stale = False
        if not span:
            first = c
        span.append(i)
        if len(span) == width:
            if pending:
                drain_bulk(pending)
                pending = 0
            handle(flush_span("full", c))
            stale = False
        if crq_slots:
            # push() unconditionally drains after every non-bypassed
            # request; on an empty CRQ that drain is a pure no-op, so
            # only the non-empty case is replayed.  A drain right after
            # a dispatch (whose handle path always drains last) or
            # another row drain is a guaranteed memo hit: count it
            # instead of calling.
            if stale:
                # A completion (retire count moved) or bypass (alloc
                # generation moved) since the last drain guarantees the
                # memo check would fail: skip it and drain directly.
                kernel._memo = None
                drain_full(c)
                stale = False
            else:
                pending += 1
    if pending:
        drain_bulk(pending)

    if profiler is not None:
        now = clock()
        profiler.add("coalesce", now - mark)
        mark = now

    last_cycle = buffer.last_cycle
    final = last_cycle + 1
    complete(final)
    if span:
        handle(flush_span("drain", final))
    # flush() re-runs _complete_up_to (now a no-op) and drains an
    # already-empty pipeline buffer, then retires CRQ/MSHR state --
    # the exact end-of-trace sequence of the object path, which the
    # kernel's finish() replays lean.
    kernel.finish(final)

    coalescer._llc_requests += llc_count

    if profiler is not None:
        profiler.add("flush", clock() - mark)
    return last_cycle


def _decoded_columns(buffer: TraceBuffer) -> tuple:
    """The buffer's decoded row columns.

    Decodes once per buffer: Python-int lists of the five trace columns
    plus the extended sort keys, kept in
    ``buffer.replay_cache["columns"]`` for every later replay.

    The same pass validates the rows once per column, so requests can
    be built from them unchecked (:meth:`MemoryRequest.from_trace_row`):
    a non-fence row at an address that is not line-aligned raises
    :class:`~repro.trace.buffer.TraceError` naming the first such row,
    and a non-fence row with no requested bytes gets its ``size``, as
    ``MemoryRequest`` would normalize it.
    """
    # columns() also runs the buffer's deferred integrity check.
    cycles_a, addrs_a, flags_a, sizes_a, requested_a = buffer.columns()
    cache = buffer.replay_cache
    if cache is None:
        cache = buffer.replay_cache = {}
    decoded = cache.get("columns")
    if decoded is not None:
        return decoded
    if len(cycles_a):
        addr_u = _np_column(addrs_a, np.uint64)
        flag_np = _np_column(flags_a, np.uint8)
        live = (flag_np & _TYPE_MASK) != _FENCE_CODE
        bad = np.flatnonzero(live & ((addr_u & _LINE_MASK) != 0))
        if len(bad):
            row = int(bad[0])
            raise TraceError(
                f"trace row {row}: address {int(addr_u[row]):#x} is not line aligned"
            )
        requested_np = _np_column(requested_a, np.uint32)
        unset = live & (requested_np == 0)
        if unset.any():
            requested_np = np.where(
                unset, _np_column(sizes_a, np.uint32), requested_np
            )
        requested_l = requested_np.tolist()
        keys_l = (
            addr_u.astype(np.int64)
            | ((flag_np & 0b01).astype(np.int64) << TYPE_BIT)
        ).tolist()
    else:
        requested_l = []
        keys_l = []
    decoded = (
        cycles_a.tolist(),
        addrs_a.tolist(),
        flags_a.tolist(),
        sizes_a.tolist(),
        requested_l,
        keys_l,
    )
    cache["columns"] = decoded
    return decoded


def _np_column(column, dtype) -> np.ndarray:
    """A NumPy view of one trace column (mmap columns already are)."""
    if isinstance(column, np.ndarray):
        return column
    return np.frombuffer(column, dtype=dtype)


def _replay_single_lines(
    buffer: TraceBuffer,
    coalescer: MemoryCoalescer,
    profiler: PhaseProfiler | None,
) -> int:
    """The kernel row loop for configs without the DMC unit.

    Replays the non-DMC branch of ``MemoryCoalescer.push`` row by row:
    a fence takes its sorter slot and its CRQ marker, and every other
    row is either bypassed or enqueued as one single-line packet and
    drained at once.  Each row's request is built as the row comes, so
    the run never holds a list of all of them.  Profiler phases match
    :func:`vector_replay`'s.
    """
    clock = time.perf_counter
    mark = clock()

    decoded = _decoded_columns(buffer)
    cycles_l, addrs_l, flags_l, sizes_l, requested_l = decoded[:5]
    from_row = MemoryRequest.from_trace_row
    span_packet = CoalescedRequest.from_aligned_span
    kernel = BatchedCoalescer(coalescer)
    COUNTERS.engaged += 1
    pipeline = coalescer.pipeline
    crq = coalescer.crq
    crq_slots = crq._slots  # the deque mutates in place, never rebinds
    can_bypass = coalescer._can_bypass
    complete = kernel.complete_up_to
    kheap = kernel._c_heap
    enqueue = kernel.enqueue
    drain = kernel.drain

    if profiler is not None:
        now = clock()
        profiler.add("trace", now - mark)
        mark = now

    llc_count = 0
    for i in range(len(cycles_l)):
        c = cycles_l[i]
        if kheap and c >= kheap[0][0]:
            # The object path's per-row _complete_up_to is a no-op
            # unless the earliest completion is due.
            complete(c)
        f = flags_l[i]
        if f & _TYPE_MASK == _FENCE_CODE:
            # push(): the pipeline buffer is always empty here, so the
            # fence only takes its slot, then the CRQ fence marker.
            pipeline.fence_slot(c)
            crq.push_fence(c)
            kernel.note_fence()
            kernel.drain(c)
            continue
        llc_count += 1
        addr = addrs_l[i]
        rtype = _STORE if f & 0b01 else _LOAD
        request = from_row(addr, rtype, sizes_l[i], requested_l[i])
        # The bypass needs an empty CRQ; test that first, because the
        # CRQ is rarely empty in the saturated steady state.
        if not crq_slots and can_bypass(c):
            kernel.bypass(request, c)
        else:
            enqueue(span_packet(addr, 1, rtype, [request], c), c)
            drain(c)

    if profiler is not None:
        now = clock()
        profiler.add("coalesce", now - mark)
        mark = now

    last_cycle = buffer.last_cycle
    kernel.finish(last_cycle + 1)
    coalescer._llc_requests += llc_count

    if profiler is not None:
        profiler.add("flush", clock() - mark)
    return last_cycle
