"""Vectorized trace replay: batch-precomputed sort orderings.

The object replay loop constructs a :class:`MemoryRequest` per row and
hands it to :meth:`MemoryCoalescer.push`, which buffers it in the
sorting pipeline and eventually runs the comparator walk over each
flushed sequence.  This engine inverts that flow: it partitions the
row stream into flush sequences itself (the partition is a pure
function of row cycles and the width/timeout/fence rules), precomputes
the sorted orderings for whole *chunks* of upcoming sequences with one
batched NumPy pass over the comparator schedule
(:class:`~repro.kernels.sortnet.VectorSortNetwork`), and materializes
requests directly in network output order via
:meth:`~repro.core.pipeline.PipelinedSortingNetwork.emit_sorted`.

The partition is *predicted*, not assumed: a stage-select bypass
consumes a row without buffering it, which shifts every later sequence
boundary.  Each flush therefore verifies the predicted group against
the actual span and replans from the resume point on mismatch; a
mismatch streak collapses the chunk size to 1, degrading gracefully to
per-sequence planning.  Every digest-visible side effect -- stats,
metrics, timeline entries, CRQ/MSHR interactions, drain cadence --
replays the object path's call sequence exactly; the parity cells in
``scripts/check_perf_parity.py`` and the differential tests pin it.

Configurations without the DMC unit never sort: each row becomes a
single-line packet.  They run a short row loop on the same batched
kernel, :meth:`~repro.kernels.coalesce.BatchedCoalescer.push_line`
replaying the non-DMC branch of :meth:`MemoryCoalescer.push`.  Without
the DMC unit, only component stacks outside the kernel's envelope
still delegate to the object loop
(:func:`repro.trace.replay.replay_trace`).

Back-to-back replays of the same buffer (a grouped sweep worker
replaying many configs against one trace) reuse two kinds of work via
``buffer.replay_cache``: the decoded Python columns + extended sort
keys (pure functions of the trace), and the predicted plan tails --
``plan_from`` groups with their batched permutations and merge spans,
keyed by the config envelope ``(width, timeout, max_packet_lines,
kernel-engaged)`` plus the resume point.  Request objects are *never*
cached: the coalescer retains pushed requests in packet constituents
and MSHR subentries, so every run materializes a fresh set.  Cached
plans are consumed strictly read-only, so sharing them cannot couple
runs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.address import CACHE_LINE_SIZE, INVALID_KEY, TYPE_BIT
from repro.core.coalescer import MemoryCoalescer
from repro.core.request import MemoryRequest, RequestType
from repro.kernels.coalesce import (
    COUNTERS,
    BatchedCoalescer,
    plan_merge_spans,
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

#: Flush sequences planned (and their permutations batch-computed)
#: per chunk.
_PLAN_CHUNK = 128
#: Below this many sequences, the scalar permutation beats the batch.
_MIN_BATCH_GROUPS = 4
#: Consecutive plan mismatches before collapsing to per-sequence mode.
_MAX_MISS_STREAK = 8


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
    config = coalescer.config
    batched = supports_batched_coalesce(coalescer)
    if not config.enable_dmc:
        if batched:
            return _replay_single_lines(buffer, coalescer, profiler)
        # No sorting pipeline and no kernel for this stack: nothing to
        # batch.
        COUNTERS.delegated += 1
        return replay_trace(buffer, coalescer=coalescer, profiler=profiler)

    clock = time.perf_counter
    mark = clock()

    cache, decoded = _decoded_columns(buffer)
    cycles_l, _, flags_l, _, _, keys_np, keys_l = decoded
    request_at = _request_builder(decoded)
    n = len(cycles_l)

    pipeline = coalescer.pipeline
    # The architecture's presorted-run width (two-phase only) engages
    # the sortnet's batched presort + merge-tree path; permutations are
    # bit-identical either way, so the plan memo below stays shareable
    # across architectures of equal width.
    vsn = VectorSortNetwork(
        pipeline.network, presort_width=pipeline.arch.presort_width
    )
    width = config.sorter_width
    timeout = config.timeout_cycles
    can_bypass = coalescer._can_bypass
    crq = coalescer.crq
    crq_slots = crq._slots  # the deque mutates in place, never rebinds
    emit_sorted = pipeline.emit_sorted

    # Second-phase coalescing: the batched kernel replays DMC/CRQ/MSHR
    # effects with inline accounting and precomputed merge plans when
    # the component stack is the stock one; otherwise every call goes
    # through the object machinery unchanged.
    if batched:
        kernel = BatchedCoalescer(coalescer, replay_cache=cache)
        COUNTERS.engaged += 1
        complete = kernel.complete_up_to
        drain_crq = kernel.drain
        drain_bulk = kernel.drain_hits_bulk
        drain_full_k = kernel._drain_full
        dispatch = kernel.handle_sequence
        kheap = kernel._c_heap
    else:
        kernel = None
        COUNTERS.delegated += 1
        complete = coalescer._complete_up_to
        drain_crq = coalescer._drain_crq
        handle = coalescer._handle_sequence
        kheap = None

        def dispatch(seq, spans=None, _handle=handle):
            _handle(seq)

    span: list[int] = []
    first = 0
    llc_count = 0
    plan_groups: list[list[int]] = []
    plan_perms: list[list[int]] = []
    plan_spans: list = []
    plan_pos = 0
    chunk = _PLAN_CHUNK
    miss_streak = 0

    # Plan-tail memo shared across replays of this buffer: the groups,
    # permutations and merge spans predicted from a resume point are
    # pure functions of the trace columns and the envelope below, so a
    # second config replayed back-to-back reuses them instead of
    # re-running the sort-network batch.  (Bypass behaviour -- which
    # *does* differ per config -- only decides *when* a replan happens
    # at some resume point, never what the plan from that point is.)
    plan_memo: dict = cache.setdefault(
        (
            "plans",
            width,
            timeout,
            config.max_packet_lines,
            kernel is not None,
        ),
        {},
    )

    def plan_from(start: int, budget: int) -> list[list[int]]:
        """Predict the next ``budget`` flush sequences from row ``start``.

        Mirrors the main loop's partition rules (fence / timeout /
        width) while assuming no bypass occurs; a trailing partial
        sequence is only a real group if the trace ends inside it
        (the drain flush).
        """
        groups: list[list[int]] = []
        g: list[int] = []
        g_first = 0
        i = start
        while i < n and len(groups) < budget:
            f = flags_l[i]
            if f & _TYPE_MASK == _FENCE_CODE:
                if g:
                    groups.append(g)
                    g = []
                i += 1
                continue
            c = cycles_l[i]
            if g and c - g_first >= timeout:
                groups.append(g)
                g = []
                if len(groups) >= budget:
                    break  # row i not consumed by this plan
            if not g:
                g_first = c
            g.append(i)
            if len(g) == width:
                groups.append(g)
                g = []
            i += 1
        if g and i >= n:
            groups.append(g)
        return groups

    def batch_plans(
        groups: list[list[int]],
    ) -> tuple[list[list[int]], list]:
        """Sort orderings plus (when the kernel is engaged) DMC merge
        plans for a batch of predicted flush groups.  Small batches
        skip both vector passes; a ``None`` plan makes the kernel
        compute the spans scalar at handle time."""
        if len(groups) < _MIN_BATCH_GROUPS:
            perms = [
                vsn.sequence_permutation([keys_l[j] for j in g])
                for g in groups
            ]
            return perms, [None] * len(groups)
        mat = np.full((len(groups), width), INVALID_KEY, dtype=np.int64)
        for g, grp in enumerate(groups):
            mat[g, : len(grp)] = keys_np[grp]
        perms = vsn.permutations(mat)
        perm_lists = [
            perms[g, : len(grp)].tolist() for g, grp in enumerate(groups)
        ]
        if kernel is None:
            spans = [None] * len(groups)
        else:
            spans = plan_merge_spans(
                np.take_along_axis(mat, perms, axis=1),
                [len(grp) for grp in groups],
                config.max_packet_lines,
            )
        return perm_lists, spans

    def flush_span(reason: str, cycle: int, resume_i: int):
        """Emit the current span as a sorted sequence (not yet handled).

        Returns ``(sequence, merge_plan)``; the plan is ``None`` when
        it must be computed scalar (object-backed runs, small batches).
        """
        nonlocal plan_groups, plan_perms, plan_spans, plan_pos, chunk, miss_streak
        if plan_pos < len(plan_groups) and plan_groups[plan_pos] == span:
            perm = plan_perms[plan_pos]
            spans = plan_spans[plan_pos]
            plan_pos += 1
            miss_streak = 0
        else:
            miss_streak += 1
            if miss_streak > _MAX_MISS_STREAK:
                chunk = 1
            # The head (the span actually being flushed) is planned
            # scalar -- it may reflect a bypass the prediction missed.
            # The tail from the resume point is pure trace work and
            # comes from (or fills) the cross-run memo.  A ``None``
            # head plan makes the kernel compute its spans scalar.
            head = list(span)
            head_perm = vsn.sequence_permutation([keys_l[j] for j in head])
            if chunk > 1:
                tail = plan_memo.get((resume_i, chunk - 1))
                if tail is None:
                    tail_groups = plan_from(resume_i, chunk - 1)
                    tail_perms, tail_spans = batch_plans(tail_groups)
                    tail = (tail_groups, tail_perms, tail_spans)
                    plan_memo[(resume_i, chunk - 1)] = tail
                plan_groups = [head] + tail[0]
                plan_perms = [head_perm] + tail[1]
                plan_spans = [None] + tail[2]
            else:
                plan_groups = [head]
                plan_perms = [head_perm]
                plan_spans = [None]
            plan_pos = 1
            perm = plan_perms[0]
            spans = plan_spans[0]
        count = len(span)
        # The span's requests are built as it flushes, so each lives
        # only as long as the packets and MSHR entries holding it.
        requests = [request_at(span[p]) for p in perm]
        seq = emit_sorted(
            requests,
            count=count,
            reason=reason,
            cycle=cycle,
            first_cycle=first or cycle,
        )
        span.clear()
        return seq, spans

    if profiler is not None:
        now = clock()
        profiler.add("trace", now - mark)
        mark = now

    # Memoized no-progress drains owed since the last real drain call
    # (kernel mode): each per-row drain between state changes is a memo
    # hit with cycle-independent accounting, so a run of them replays
    # as one bulk update -- flushed before anything mutates CRQ/MSHR
    # state, while the memo the accounting depends on is still valid.
    pending = 0
    stale = True  # True when the kernel's drain memo may be invalid
    for i in range(n):
        c = cycles_l[i]
        if kheap is None:
            complete(c)
        elif kheap and c >= kheap[0][0]:
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
                seq, spans = flush_span("fence", c, i + 1)
                pipeline.fence_slot(c)
                dispatch(seq, spans)
            else:
                pipeline.fence_slot(c)
            crq.push_fence(c)
            if kernel is not None:
                kernel.note_fence()
            drain_crq(c)
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
            if kernel is not None:
                kernel.bypass(request_at(i), c)
                stale = True
            else:
                coalescer._bypass(request_at(i), c)
            continue
        if span and c - first >= timeout:
            if pending:
                drain_bulk(pending)
                pending = 0
            seq, spans = flush_span("timeout", c, i)
            dispatch(seq, spans)
            stale = False
        if not span:
            first = c
        span.append(i)
        if len(span) == width:
            if pending:
                drain_bulk(pending)
                pending = 0
            seq, spans = flush_span("full", c, i + 1)
            dispatch(seq, spans)
            stale = False
        if crq_slots:
            # push() unconditionally drains after every non-bypassed
            # request; on an empty CRQ that drain is a pure no-op, so
            # only the non-empty case is replayed.  A drain right after
            # a dispatch (whose handle path always drains last) or
            # another row drain is a guaranteed memo hit: count it
            # instead of calling.
            if kheap is None:
                drain_crq(c)
            elif stale:
                # A completion (retire count moved) or bypass (alloc
                # generation moved) since the last drain guarantees the
                # memo check would fail: skip it and drain directly.
                kernel._memo = None
                drain_full_k(c)
                stale = False
            else:
                pending += 1
    if pending:
        drain_bulk(pending)
        pending = 0

    if profiler is not None:
        now = clock()
        profiler.add("coalesce", now - mark)
        mark = now

    last_cycle = buffer.last_cycle
    final = last_cycle + 1
    complete(final)
    if span:
        seq, spans = flush_span("drain", final, n)
        dispatch(seq, spans)
    # flush() re-runs _complete_up_to (now a no-op) and drains an
    # already-empty pipeline buffer, then retires CRQ/MSHR state --
    # the exact end-of-trace sequence of the object path.  The kernel's
    # finish() replays that sequence lean.
    if kernel is not None:
        kernel.finish(final)
    else:
        coalescer.flush(final)

    coalescer._llc_requests += llc_count

    if profiler is not None:
        profiler.add("flush", clock() - mark)
    return last_cycle


def _decoded_columns(buffer: TraceBuffer) -> tuple[dict, tuple]:
    """The buffer's replay cache and its decoded row columns.

    Decodes once per buffer: Python-int lists of the five trace columns
    plus the extended sort keys (as an int64 array and as a list), kept
    in ``buffer.replay_cache["columns"]`` for every later replay.

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
        return cache, decoded
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
        keys_np = addr_u.astype(np.int64) | (
            (flag_np & 0b01).astype(np.int64) << TYPE_BIT
        )
    else:
        requested_l = []
        keys_np = np.empty(0, dtype=np.int64)
    decoded = (
        cycles_a.tolist(),
        addrs_a.tolist(),
        flags_a.tolist(),
        sizes_a.tolist(),
        requested_l,
        keys_np,
        keys_np.tolist(),
    )
    cache["columns"] = decoded
    return cache, decoded


def _np_column(column, dtype) -> np.ndarray:
    """A NumPy view of one trace column (mmap columns already are)."""
    if isinstance(column, np.ndarray):
        return column
    return np.frombuffer(column, dtype=dtype)


def _request_builder(decoded: tuple):
    """``j -> MemoryRequest`` over the decoded columns' non-fence rows.

    Every call builds a fresh request: the coalescer keeps pushed
    requests in packet constituents and MSHR subentries, so no two
    pushes may share one.  :func:`_decoded_columns` validated the
    rows, so requests are built unchecked.
    """
    addrs_l, flags_l, sizes_l, requested_l = decoded[1:5]
    from_row = MemoryRequest.from_trace_row

    def request_at(j: int) -> MemoryRequest:
        return from_row(
            addrs_l[j],
            _STORE if flags_l[j] & 0b01 else _LOAD,
            sizes_l[j],
            requested_l[j],
        )

    return request_at


def _replay_single_lines(
    buffer: TraceBuffer,
    coalescer: MemoryCoalescer,
    profiler: PhaseProfiler | None,
) -> int:
    """The kernel row loop for configs without the DMC unit.

    Replays the non-DMC branch of ``MemoryCoalescer.push`` row by row:
    a fence takes its sorter slot and its CRQ marker, and every other
    row is either bypassed or offered as one single-line packet through
    :meth:`BatchedCoalescer.push_line`.  Each row's request is built as
    the row comes, so the run never holds a list of all of them.
    Profiler phases match :func:`vector_replay`'s.
    """
    clock = time.perf_counter
    mark = clock()

    cache, decoded = _decoded_columns(buffer)
    cycles_l, _, flags_l = decoded[:3]
    request_at = _request_builder(decoded)
    kernel = BatchedCoalescer(coalescer, replay_cache=cache)
    COUNTERS.engaged += 1
    pipeline = coalescer.pipeline
    crq = coalescer.crq
    crq_slots = crq._slots  # the deque mutates in place, never rebinds
    can_bypass = coalescer._can_bypass
    complete = kernel.complete_up_to
    kheap = kernel._c_heap
    push_line = kernel.push_line

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
        request = request_at(i)
        # The bypass needs an empty CRQ; test that first, because the
        # CRQ is rarely empty in the saturated steady state.
        if not crq_slots and can_bypass(c):
            kernel.bypass(request, c)
        else:
            push_line(request, c)

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
