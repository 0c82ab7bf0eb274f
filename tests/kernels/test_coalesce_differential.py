"""Differential suite for the batched second-phase coalescing kernel.

Property-based: random flush batches (scripted access streams mixing
loads, stores, duplicate lines and fences) run end-to-end under the
object engine and the kernel engine, and the two results must be
bit-identical -- compared both as full metric dictionaries and as
:func:`result_digest` values, the same witness the parity gates use.

The platform uses deliberately tiny caches so short streams still
produce dense LLC miss traffic, and the coalescer configs cover the
regimes the merge join has to get right:

* the stock ``combined`` config (DMC + dynamic MSHRs);
* one ``combined`` config per example with a drawn sorter (width 2 to
  128, single- or two-phase, timeout 1 to 100 cycles), since every
  flush the engine sorts goes through that width's permutation;
* one config per example with a drawn coalescer: 1 to 16 MSHRs, a CRQ
  from one slot to twice the file, adaptive granularity on or off,
  64 B to 512 B packets, and either coalescing phase on or off;
* the configs without the DMC unit (``uncoalesced``, ``mshr_only``),
  where every LLC request is a single-line packet, with stage-select
  bypass on and off;
* a 4-MSHR file, where allocation pressure forces merge-while-full
  decisions and CRQ backpressure on nearly every flush -- behind the
  DMC unit and, with single-line packets, without it;
* fences pinned adjacent to sorter-width flush boundaries, where the
  fence marker lands first/last in a CRQ batch and the probe-filter
  bookkeeping is easiest to get wrong.

Each fixed config, the drawn sorter and the drawn coalescer is its own
property of 20 streams, so a failing config shrinks alone.

Fixed scripted traces reach each hand-off of the kernel's saturated
back-pressure step to the general drain -- two entries due at once, a
fence or a fresh packet at the CRQ head, a non-empty allocation log,
recorded streams -- and the two ways a case-B split leaves the CRQ
fuller than its pushes did: deeper than its depth before a push, and
full before any push filled it.  A watcher asserts that each case
really reaches its hand-off.

Each random example also draws the route the kernel's packets take to
the HMC device: the stock ``HMCDevice``, where the batched HMC back
end engages, or a trivial subclass patched in as
``repro.sim.driver.HMCDevice``, which is outside the back end's
envelope, so the kernel times every packet through the driver's
``service_time`` closure.  The HMC kernel must count the drawn route
(``engaged`` or ``delegated``) and never fall back.

A forced mid-run verification miss checks the fallback contract, with
and without the DMC unit: the partially-mutated stack is discarded,
the object engine re-runs, and the result is still bit-identical (one
fallback counter tick).  Without MSHR coalescing the kernel must keep
no overlap-search state at all.
"""

import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import (
    DMC_ONLY_CONFIG,
    MSHR_ONLY_CONFIG,
    UNCOALESCED_CONFIG,
    CoalescerConfig,
)
from repro.core.coalescer import MemoryCoalescer
from repro.core.request import Access, RequestType
from repro.core.sorting import SORTER_ARCHITECTURES
from repro.hmc.device import HMCDevice
from repro.hmc.timing import FUTURE_HMC_CONFIG
from repro.kernels import hmc as hmc_kernel
from repro.kernels import replay as replay_module
from repro.kernels.coalesce import BatchedCoalescer, kernel_counters
from repro.kernels.replay import vector_replay
from repro.obs import MetricsRegistry
from repro.perf.digest import result_digest
from repro.sim import driver
from repro.sim.driver import (
    PlatformConfig,
    _make_service_time,
    _replay_benchmark,
    run_benchmark,
)
from repro.trace import TraceBuffer, replay_trace
from repro.workloads.base import Workload

#: Shrunk geometry: 2 L1 sets / 4 L2 sets / 4 LLC sets, so a 64-line
#: footprint thrashes every level and the coalescer sees real traffic.
_TINY_HIERARCHY = {"l1_size": 1024, "l2_size": 2048, "llc_size": 4096}

_COMBINED = CoalescerConfig()
#: Merge-while-full regime: the MSHR file fills within one flush.
_TINY_MSHRS = replace(_COMBINED, num_mshrs=4, crq_depth=4)
#: The same file fed single-line packets (no DMC unit).
_TINY_MSHR_ONLY = replace(MSHR_ONLY_CONFIG, num_mshrs=4, crq_depth=4)


def _bypass_on_and_off(**configs: CoalescerConfig) -> dict:
    """Each config with stage-select bypass enabled, then disabled, by
    test id."""
    return {
        f"{name}-{label}": replace(config, stage_select_enabled=on)
        for name, config in configs.items()
        for label, on in (("bypass", True), ("no-bypass", False))
    }


#: Configs each random stream runs on, with and without the DMC unit.
_RANDOM_CONFIGS = {
    "combined": _COMBINED,
    **_bypass_on_and_off(
        uncoalesced=UNCOALESCED_CONFIG, mshr_only=MSHR_ONLY_CONFIG
    ),
}
#: Merge-while-full configs, multi-line and single-line packets.
_FULL_CONFIGS = {
    "tiny_mshrs": _TINY_MSHRS,
    **_bypass_on_and_off(tiny_mshr_only=_TINY_MSHR_ONLY),
}


def _sorter_config(width: int) -> st.SearchStrategy[CoalescerConfig]:
    """The combined config behind a drawn ``width``-wide sorter."""
    archs = SORTER_ARCHITECTURES if width >= 4 else ("single_phase",)
    return st.builds(
        lambda arch, timeout: replace(
            _COMBINED,
            sorter_width=width,
            sorter_arch=arch,
            timeout_cycles=timeout,
        ),
        st.sampled_from(archs),
        st.sampled_from((1, 10, 40, 100)),
    )


#: One DMC config per example with a drawn sorter: widths around the
#: stock 16, both architectures where the width allows two-phase, and
#: timeouts from every-row flushes to longer than most spans live.
_SORTER_CONFIGS = st.sampled_from((2, 8, 32, 64, 128)).flatmap(_sorter_config)


def _coalescer_config(num_mshrs: int) -> st.SearchStrategy[CoalescerConfig]:
    """A drawn coalescer around a ``num_mshrs``-entry MSHR file."""
    return st.builds(
        lambda depth, adaptive, packet, dmc, mshr: replace(
            _COMBINED,
            num_mshrs=num_mshrs,
            crq_depth=depth,
            adaptive_granularity=adaptive,
            max_packet_bytes=packet,
            enable_dmc=dmc,
            enable_mshr_coalescing=mshr,
        ),
        st.sampled_from((0, 1, 2, 2 * num_mshrs)),
        st.booleans(),
        st.sampled_from((64, 128, 256, 512)),
        st.booleans(),
        st.booleans(),
    )


#: One coalescer per example: MSHR file size, CRQ depth (``0`` is the
#: paper's "as deep as the file"), adaptive granularity, packet limit
#: and both coalescing phases.
_COALESCER_CONFIGS = st.sampled_from((1, 2, 4, 16)).flatmap(_coalescer_config)


def _base_platform(accesses: int, coalescer: CoalescerConfig) -> PlatformConfig:
    """The default platform; 512 B packets need the 512 B-block cube."""
    base = PlatformConfig(accesses=accesses, coalescer=coalescer)
    if coalescer.max_packet_bytes > base.hmc.block_bytes:
        base = replace(base, hmc=FUTURE_HMC_CONFIG)
    return base


def _platform(accesses: int, coalescer: CoalescerConfig) -> PlatformConfig:
    base = _base_platform(accesses, coalescer)
    return replace(base, hierarchy=replace(base.hierarchy, **_TINY_HIERARCHY))


class _Scripted(Workload):
    """Replays a fixed access list (hypothesis owns the randomness)."""

    name = "ScriptedDifferential"

    def __init__(self, events: list[Access], num_threads: int = 4):
        super().__init__(num_threads=num_threads)
        self._events = events

    def thread_phases(self, tid, n, rng):  # pragma: no cover - unused
        raise NotImplementedError

    def accesses(self, total_accesses: int, *, burst: int = 1):
        yield from self._events[:total_accesses]


#: Raw event rows: (fence selector, line, 16 B offset, size, type, thread).
_EVENT_ROWS = st.lists(
    st.tuples(
        st.integers(0, 9),  # 9 -> fence (~10% of rows)
        st.integers(0, 63),  # cache line (dense: forces overlap/merge)
        st.integers(0, 3),  # 16 B-granule offset within the line
        st.sampled_from((1, 4, 8, 16, 32)),
        st.integers(0, 2),  # 2 -> store
        st.integers(0, 3),  # issuing thread
    ),
    min_size=100,
    max_size=260,
)


def _to_accesses(rows) -> list[Access]:
    out = []
    for fence_sel, line, off, size, rtype_sel, tid in rows:
        if fence_sel == 9:
            out.append(Access(addr=0, size=0, rtype=RequestType.FENCE))
        else:
            out.append(
                Access(
                    addr=line * 64 + off * 16,
                    size=size,
                    rtype=(
                        RequestType.STORE
                        if rtype_sel == 2
                        else RequestType.LOAD
                    ),
                    thread_id=tid,
                )
            )
    return out


class _ClosureTimedDevice(HMCDevice):
    """A stock device in all but its type, which puts it outside the
    HMC back end's envelope: the kernel times its packets through the
    driver's ``service_time`` closure."""


#: The HMC route of one example: the stock device, where the batched
#: back end engages, or the subclass, where the kernel delegates the
#: timing to the closure.  Drawn per example, not run both ways, so
#: each example costs one vector run per config.
_HMC_ROUTES = st.sampled_from((HMCDevice, _ClosureTimedDevice))


def _assert_engines_match(
    events: list[Access], coalescer: CoalescerConfig, device: type
):
    workload = _Scripted(events)
    platform = _platform(len(events), coalescer)
    obj = run_benchmark(workload, platform=platform, engine="object")
    before = kernel_counters()
    hmc_before = hmc_kernel.kernel_counters()
    with mock.patch.object(driver, "HMCDevice", device):
        vec = run_benchmark(workload, platform=platform, engine="vector")
    after = kernel_counters()
    hmc_after = hmc_kernel.kernel_counters()
    # The batched kernel must actually be the thing under test: the
    # stock component stack supports it, so the run engages it (no
    # silent delegation) and verification never misses.
    assert after["engaged"] == before["engaged"] + 1
    assert after["fallbacks"] == before["fallbacks"]
    # Its packets took the drawn route to the device.
    route = "engaged" if device is HMCDevice else "delegated"
    assert hmc_after[route] == hmc_before[route] + 1
    assert hmc_after["fallbacks"] == hmc_before["fallbacks"]
    assert vec.metrics.as_flat_dict() == obj.metrics.as_flat_dict()
    assert result_digest(vec) == result_digest(obj)


#: Every property below draws 20 streams.  Each config is its own
#: property, so a failing config shrinks alone instead of re-running
#: every config of the example at each shrink step.
_TWENTY_EXAMPLES = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize(
    "coalescer", tuple(_RANDOM_CONFIGS.values()), ids=tuple(_RANDOM_CONFIGS)
)
@_TWENTY_EXAMPLES
@given(rows=_EVENT_ROWS, device=_HMC_ROUTES)
def test_random_flush_batches_match_object_engine(coalescer, rows, device):
    _assert_engines_match(_to_accesses(rows), coalescer, device)


@_TWENTY_EXAMPLES
@given(rows=_EVENT_ROWS, coalescer=_SORTER_CONFIGS, device=_HMC_ROUTES)
def test_drawn_sorter_matches_object_engine(rows, coalescer, device):
    _assert_engines_match(_to_accesses(rows), coalescer, device)


@_TWENTY_EXAMPLES
@given(rows=_EVENT_ROWS, coalescer=_COALESCER_CONFIGS, device=_HMC_ROUTES)
def test_drawn_coalescer_matches_object_engine(rows, coalescer, device):
    _assert_engines_match(_to_accesses(rows), coalescer, device)


@pytest.mark.parametrize(
    "coalescer", tuple(_FULL_CONFIGS.values()), ids=tuple(_FULL_CONFIGS)
)
@_TWENTY_EXAMPLES
@given(rows=_EVENT_ROWS, device=_HMC_ROUTES)
def test_merge_while_full_matches_object_engine(coalescer, rows, device):
    _assert_engines_match(_to_accesses(rows), coalescer, device)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=_EVENT_ROWS,
    fence_offset=st.integers(-1, 1),
    device=_HMC_ROUTES,
)
def test_fence_adjacent_flushes_match_object_engine(
    rows, fence_offset, device
):
    """Fences pinned against sorter-width flush boundaries.

    ``fence_offset`` places each fence one row before, exactly on, or
    one row after a multiple of the flush width, so the CRQ sees fence
    markers at the head, tail and middle of its batches.
    """
    width = _COMBINED.sorter_width
    events = _to_accesses(
        (row[0] % 9, *row[1:]) for row in rows  # strip random fences
    )
    for pos in range(width + fence_offset, len(events), width):
        events[pos] = Access(addr=0, size=0, rtype=RequestType.FENCE)
    _assert_engines_match(events, _COMBINED, device)


def test_verification_miss_falls_back_to_object_engine(monkeypatch):
    """A mid-run kernel error discards the stack and re-runs object.

    Checked behind the DMC unit (the sequence handler raises) and
    without it (the single-line packet enqueue raises).
    """
    from repro.kernels import coalesce as ck

    rows = [(i % 9, (i * 13) % 64, i % 4, 8, i % 3, i % 4) for i in range(240)]
    events = _to_accesses(rows)
    workload = _Scripted(events)

    def boom(self, *args, **kwargs):
        raise ck.CoalesceKernelError("forced-test-miss")

    for coalescer, method in (
        (_COMBINED, "handle_sequence"),
        (MSHR_ONLY_CONFIG, "enqueue"),
    ):
        platform = _platform(len(events), coalescer)
        obj = run_benchmark(workload, platform=platform, engine="object")
        with monkeypatch.context() as patch:
            patch.setattr(ck.BatchedCoalescer, method, boom)
            before = kernel_counters()
            vec = run_benchmark(workload, platform=platform, engine="vector")
            after = kernel_counters()
        assert after["fallbacks"] == before["fallbacks"] + 1
        assert (
            after["fallback_reasons"]["forced-test-miss"]
            == before["fallback_reasons"].get("forced-test-miss", 0) + 1
        )
        assert result_digest(vec) == result_digest(obj)


@pytest.mark.parametrize(
    "coalescer",
    (UNCOALESCED_CONFIG, DMC_ONLY_CONFIG),
    ids=("uncoalesced", "dmc_only"),
)
def test_no_overlap_state_without_mshr_coalescing(monkeypatch, coalescer):
    """Without MSHR coalescing nothing searches for overlaps, so the
    kernel keeps no merge bookkeeping: the allocation log, the MSHR
    line index, the unchecked set and the queue index all stay empty
    while entries are still in flight at end of trace."""
    from repro.kernels import replay as replay_module
    from repro.kernels.coalesce import BatchedCoalescer

    seen: list[tuple[int, ...]] = []

    class Watched(BatchedCoalescer):
        def finish(self, cycle):
            m = self._mshrs
            seen.append(
                (
                    m._valid_count,
                    len(self._alloc_log),
                    len(m._line_index),
                    len(self._unchecked),
                    len(self._queue_index),
                )
            )
            super().finish(cycle)

    monkeypatch.setattr(replay_module, "BatchedCoalescer", Watched)
    run_benchmark(
        "SG",
        platform=PlatformConfig(accesses=2000),
        coalescer=coalescer,
        engine="vector",
    )
    [(in_flight, *bookkeeping)] = seen
    assert in_flight > 0
    assert bookkeeping == [0, 0, 0, 0]


# -- the saturated step's hand-offs -------------------------------------------


def _scripted_rows(
    seed: int, n: int, lines: int, fence_p: float, gap: int
) -> list[tuple[int, int, int]]:
    """``n`` LLC rows ``(cycle, line, flags)`` over ``lines`` lines.

    Rows advance the cycle by 0 to ``gap``; a row is a fence with
    probability ``fence_p`` and otherwise a store one time in five.
    Only ``Random.random`` is drawn, whose sequence Python keeps
    stable across versions.
    """
    rng = random.Random(seed)
    cycle = 0
    rows = []
    for _ in range(n):
        cycle += int(rng.random() * (gap + 1))
        if rng.random() < fence_p:
            rows.append((cycle, 0, int(RequestType.FENCE)))
        else:
            line = int(rng.random() * lines)
            store = rng.random() < 0.2
            rows.append((cycle, line, int(store)))
    return rows


def _trace(rows) -> TraceBuffer:
    """A finished trace buffer of ``(cycle, line, flags)`` rows."""
    buffer = TraceBuffer()
    buffer.extend_rows(
        [cycle for cycle, _, _ in rows],
        [line * 64 for _, line, _ in rows],
        [flags for _, _, flags in rows],
        [64] * len(rows),
        [16] * len(rows),
    )
    return buffer.finalize(
        benchmark="Scripted",
        cpu_accesses=len(rows),
        compute_cycles_per_access=1.0,
        secondary_misses=0,
    )


def _watched(seen: set):
    """A kernel class that adds to ``seen`` the hand-offs it reaches.

    Each name is recorded inside a back-pressure round of
    :meth:`BatchedCoalescer.enqueue` when the state there makes the
    step hand over (or, for the last two names, when a case-B split
    left the CRQ fuller than its pushes did):

    * ``two-due``: two entries are due while the file is full and the
      head could otherwise take the step;
    * ``streams``: one entry is due and the head could take the step,
      but the coalescer records its streams;
    * ``fence-head`` / ``fresh-head`` / ``logged``: the general drain
      starts at a fence marker, at a packet that still needs a full
      overlap check, or with entries in the allocation log;
    * ``over-depth``: a packet arrives while the CRQ, holding no fence,
      is deeper than its depth;
    * ``step-raises-max``: a push after a step sets a new
      ``max_occupancy``, because the queue last filled by a split.
    """

    class Watched(BatchedCoalescer):
        _inside = False

        def _head_could_step(self) -> bool:
            slots = self._slots
            if not slots or self._mshrs._free_heap:
                return False
            head = slots[0]
            return head.request is not None and not (
                self._coalescing
                and (self._alloc_log or id(head) in self._unchecked)
            )

        def enqueue(self, packet, cycle):
            slots = self._slots
            if len(slots) > self._depth and all(
                s.request is not None for s in slots
            ):
                seen.add("over-depth")
            high = self._cstats.max_occupancy
            steps = self._steps
            self._inside = True
            try:
                super().enqueue(packet, cycle)
            finally:
                self._inside = False
            if high and self._steps > steps and self._cstats.max_occupancy > high:
                seen.add("step-raises-max")

        def complete_up_to(self, cycle):
            if self._inside and self._head_could_step():
                due = sum(1 for cc, _ in self._c_heap if cc <= cycle)
                if due >= 2:
                    seen.add("two-due")
                elif due == 1 and self._serviced is not None:
                    seen.add("streams")
            super().complete_up_to(cycle)

        def _drain_full(self, cycle):
            slots = self._slots
            if self._inside and slots:
                head = slots[0]
                if head.request is None:
                    seen.add("fence-head")
                elif self._coalescing:
                    if id(head) in self._unchecked:
                        seen.add("fresh-head")
                    if self._alloc_log:
                        seen.add("logged")
            super()._drain_full(cycle)

    return Watched


def _split_fills_crq_rows() -> list[tuple[int, int, int]]:
    """Four one-packet flushes on a 2-entry file with no bypass.

    Lines 1 and 100 fill the file.  The packet over lines 0-3 then
    shares line 1 with an entry, and its case-B split leaves two
    remainder packets, filling the 2-slot CRQ although no push ever
    did.  Line 300's packet meets that full CRQ and takes the step.
    """
    return [
        (0, 1, 0),
        (25, 100, 0),
        *((50, line, 0) for line in (0, 1, 2, 3)),
        (75, 300, 0),
    ]


_TWO_MSHRS = replace(_COMBINED, num_mshrs=2)
_ONE_MSHR = replace(_COMBINED, num_mshrs=1)
#: ``hand-off -> (coalescer, rows)``; each case reaches its hand-off.
_HANDOFF_CASES = {
    "two-due": (
        replace(MSHR_ONLY_CONFIG, num_mshrs=2),
        _scripted_rows(4, 12, lines=8, fence_p=0.1, gap=2),
    ),
    "fence-head": (
        replace(MSHR_ONLY_CONFIG, num_mshrs=1),
        _scripted_rows(0, 12, lines=16, fence_p=0.15, gap=4),
    ),
    "fresh-head": (
        _ONE_MSHR,
        _scripted_rows(0, 12, lines=4, fence_p=0.0, gap=1),
    ),
    "logged": (
        replace(MSHR_ONLY_CONFIG, num_mshrs=1, crq_depth=2),
        _scripted_rows(0, 12, lines=4, fence_p=0.0, gap=1),
    ),
    "over-depth": (
        replace(_TWO_MSHRS, max_packet_bytes=512),
        _scripted_rows(3, 24, lines=8, fence_p=0.0, gap=2),
    ),
    "step-raises-max": (
        replace(_TWO_MSHRS, stage_select_enabled=False),
        _split_fills_crq_rows(),
    ),
}


def _assert_trace_engines_match(rows, coalescer: CoalescerConfig) -> None:
    platform = _base_platform(len(rows), coalescer)
    obj = _replay_benchmark(
        _trace(rows), platform=platform, profiler=None, engine="object"
    )
    before = kernel_counters()
    vec = _replay_benchmark(
        _trace(rows), platform=platform, profiler=None, engine="vector"
    )
    after = kernel_counters()
    assert after["engaged"] == before["engaged"] + 1
    assert after["fallbacks"] == before["fallbacks"]
    assert vec.metrics.as_flat_dict() == obj.metrics.as_flat_dict()
    assert result_digest(vec) == result_digest(obj)


@pytest.mark.parametrize("handoff", tuple(_HANDOFF_CASES))
def test_step_handoff_matches_object_engine(monkeypatch, handoff):
    coalescer, rows = _HANDOFF_CASES[handoff]
    seen: set[str] = set()
    monkeypatch.setattr(replay_module, "BatchedCoalescer", _watched(seen))
    _assert_trace_engines_match(rows, coalescer)
    assert handoff in seen


def _issued(coalescer: MemoryCoalescer) -> list[tuple]:
    return [
        (
            rec.request.addr,
            rec.request.num_lines,
            rec.request.rtype,
            rec.request.payload_bytes,
            [req.addr for req in rec.request.constituents],
            rec.issue_cycle,
            rec.complete_cycle,
            rec.mshr_index,
            rec.bypassed,
        )
        for rec in coalescer.issued
    ]


def _serviced(coalescer: MemoryCoalescer) -> list[tuple]:
    return [
        (rec.request.addr, rec.request.rtype, rec.complete_cycle)
        for rec in coalescer.serviced
    ]


@pytest.mark.parametrize(
    "coalescer",
    (_TWO_MSHRS, replace(MSHR_ONLY_CONFIG, num_mshrs=2)),
    ids=("combined", "mshr_only"),
)
def test_recorded_streams_match_object_engine(monkeypatch, coalescer):
    """With streams recorded the step hands over to the general path,
    and both engines issue and service the same packets and requests,
    in the same order, at the same cycles."""
    rows = _scripted_rows(4, 48, lines=8, fence_p=0.05, gap=2)
    platform = _base_platform(len(rows), coalescer)
    seen: set[str] = set()
    monkeypatch.setattr(replay_module, "BatchedCoalescer", _watched(seen))
    stacks = []
    for replay in (replay_trace, vector_replay):
        registry = MetricsRegistry()
        device = HMCDevice(platform.hmc, registry)
        coal = MemoryCoalescer(
            coalescer,
            service_time=_make_service_time(device, platform.cycle_ns),
            registry=registry,
            record_streams=True,
        )
        replay(_trace(rows), coalescer=coal)
        coal.publish_metrics()
        device.apply_deferred_metrics()
        stacks.append((coal, registry))
    (obj, obj_registry), (vec, vec_registry) = stacks
    assert "streams" in seen
    assert obj.issued and obj.serviced
    assert _issued(vec) == _issued(obj)
    assert _serviced(vec) == _serviced(obj)
    assert vec.stats() == obj.stats()
    assert vec_registry.as_flat_dict() == obj_registry.as_flat_dict()
