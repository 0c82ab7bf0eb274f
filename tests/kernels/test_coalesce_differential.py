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
* the configs without the DMC unit (``uncoalesced``, ``mshr_only``),
  where every LLC request is a single-line packet, with stage-select
  bypass on and off;
* a 4-MSHR file, where allocation pressure forces merge-while-full
  decisions and CRQ backpressure on nearly every flush -- behind the
  DMC unit and, with single-line packets, without it;
* fences pinned adjacent to sorter-width flush boundaries, where the
  fence marker lands first/last in a CRQ batch and the probe-filter
  bookkeeping is easiest to get wrong.

A forced mid-run verification miss checks the fallback contract, with
and without the DMC unit: the partially-mutated stack is discarded,
the object engine re-runs, and the result is still bit-identical (one
fallback counter tick).  Without MSHR coalescing the kernel must keep
no overlap-search state at all.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import (
    DMC_ONLY_CONFIG,
    MSHR_ONLY_CONFIG,
    UNCOALESCED_CONFIG,
    CoalescerConfig,
)
from repro.core.request import Access, RequestType
from repro.core.sorting import SORTER_ARCHITECTURES
from repro.kernels.coalesce import kernel_counters
from repro.perf.digest import result_digest
from repro.sim.driver import PlatformConfig, run_benchmark
from repro.workloads.base import Workload

#: Shrunk geometry: 2 L1 sets / 4 L2 sets / 4 LLC sets, so a 64-line
#: footprint thrashes every level and the coalescer sees real traffic.
_TINY_HIERARCHY = {"l1_size": 1024, "l2_size": 2048, "llc_size": 4096}

_COMBINED = CoalescerConfig()
#: Merge-while-full regime: the MSHR file fills within one flush.
_TINY_MSHRS = replace(_COMBINED, num_mshrs=4, crq_depth=4)
#: The same file fed single-line packets (no DMC unit).
_TINY_MSHR_ONLY = replace(MSHR_ONLY_CONFIG, num_mshrs=4, crq_depth=4)


def _bypass_on_and_off(*configs: CoalescerConfig) -> tuple:
    """Each config with stage-select bypass enabled, then disabled."""
    return tuple(
        replace(c, stage_select_enabled=on)
        for c in configs
        for on in (True, False)
    )


#: Configs each random stream runs on, with and without the DMC unit.
_RANDOM_CONFIGS = (
    _COMBINED,
    *_bypass_on_and_off(UNCOALESCED_CONFIG, MSHR_ONLY_CONFIG),
)
#: Merge-while-full configs, multi-line and single-line packets.
_FULL_CONFIGS = (_TINY_MSHRS, *_bypass_on_and_off(_TINY_MSHR_ONLY))


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


def _platform(accesses: int, coalescer: CoalescerConfig) -> PlatformConfig:
    base = PlatformConfig(accesses=accesses)
    return replace(
        base,
        hierarchy=replace(base.hierarchy, **_TINY_HIERARCHY),
        coalescer=coalescer,
    )


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


def _assert_engines_match(events: list[Access], coalescer: CoalescerConfig):
    workload = _Scripted(events)
    platform = _platform(len(events), coalescer)
    obj = run_benchmark(workload, platform=platform, engine="object")
    before = kernel_counters()
    vec = run_benchmark(workload, platform=platform, engine="vector")
    after = kernel_counters()
    # The batched kernel must actually be the thing under test: the
    # stock component stack supports it, so the run engages it (no
    # silent delegation) and verification never misses.
    assert after["engaged"] == before["engaged"] + 1
    assert after["fallbacks"] == before["fallbacks"]
    assert vec.metrics.as_flat_dict() == obj.metrics.as_flat_dict()
    assert result_digest(vec) == result_digest(obj)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=_EVENT_ROWS, sorter=_SORTER_CONFIGS)
def test_random_flush_batches_match_object_engine(rows, sorter):
    for coalescer in (*_RANDOM_CONFIGS, sorter):
        _assert_engines_match(_to_accesses(rows), coalescer)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=_EVENT_ROWS)
def test_merge_while_full_matches_object_engine(rows):
    for coalescer in _FULL_CONFIGS:
        _assert_engines_match(_to_accesses(rows), coalescer)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=_EVENT_ROWS,
    fence_offset=st.integers(-1, 1),
)
def test_fence_adjacent_flushes_match_object_engine(rows, fence_offset):
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
    _assert_engines_match(events, _COMBINED)


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
