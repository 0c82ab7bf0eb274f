"""Differential tests: indexed MSHR file vs the reference linear scan.

:class:`repro.core.mshr.DynamicMSHRFile` replaced the original
linear-scan offer path with a line->entry hash index plus incremental
occupancy counters; :class:`repro.core.mshr_reference.ReferenceMSHRFile`
retains the original implementation verbatim.  These tests drive both
through identical randomized CRQ-style operation streams and require
bit-identical observable behaviour at every step: outcomes, allocated
entry indices, remainder packets, subentry attachment order, stats,
occupancy answers, and metric registries.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CoalescerConfig
from repro.core.mshr import DynamicMSHRFile, InsertOutcome
from repro.core.mshr_reference import ReferenceMSHRFile
from repro.core.request import CoalescedRequest, MemoryRequest, RequestType
from repro.obs import MetricsRegistry

LINE = 64


def make_packet(
    base_line: int, num_lines: int, rtype: RequestType, cycle: int
) -> CoalescedRequest:
    """A coalesced packet with one constituent per covered line."""
    constituents = [
        MemoryRequest(addr=(base_line + k) * LINE, rtype=rtype)
        for k in range(num_lines)
    ]
    return CoalescedRequest(
        addr=base_line * LINE,
        num_lines=num_lines,
        rtype=rtype,
        constituents=constituents,
        issue_cycle=cycle,
    )


def snapshot(file) -> dict:
    """Every observable of an MSHR file, for equality comparison."""
    return {
        "entries": [
            (
                e.index,
                e.valid,
                e.addr,
                e.num_lines,
                e.rtype,
                [(s.line_id, s.request.request_id) for s in e.subentries],
                e.issue_cycle,
                e.complete_cycle,
            )
            for e in file.entries
        ],
        "stats": vars(file.stats) if hasattr(file.stats, "__dict__") else {
            name: getattr(file.stats, name)
            for name in (
                "offered",
                "allocated",
                "merged_full",
                "merged_partial",
                "rejected_full",
                "completions",
                "subentries_added",
                "remainder_packets",
            )
        },
        "free_entries": file.free_entries(),
        "has_free_entry": file.has_free_entry,
        "all_idle": file.all_idle,
        "occupancy": file.occupancy(),
        "earliest": file.earliest_completion(-1),
        "latest": file.latest_completion(-1),
    }


def packet_key(packet: CoalescedRequest) -> tuple:
    return (
        packet.addr,
        packet.num_lines,
        packet.rtype,
        [r.request_id for r in packet.constituents],
        packet.issue_cycle,
    )


def _normalize_ids(snap: dict) -> dict:
    """Rewrite request_ids to first-appearance ordinals."""
    mapping: dict[int, int] = {}
    entries = []
    for idx, valid, addr, num_lines, rtype, subs, issue, complete in snap["entries"]:
        renamed = []
        for line_id, request_id in subs:
            ordinal = mapping.setdefault(request_id, len(mapping))
            renamed.append((line_id, ordinal))
        entries.append((idx, valid, addr, num_lines, rtype, renamed, issue, complete))
    return {**snap, "entries": entries}


# One randomized operation: (kind, base_line, num_lines, type_bit, latency)
op_strategy = st.tuples(
    st.sampled_from(["offer", "direct", "merge_only", "complete"]),
    st.integers(min_value=0, max_value=11),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
    st.integers(min_value=1, max_value=40),
)


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(op_strategy, min_size=1, max_size=40),
        coalescing=st.booleans(),
    )
    def test_randomized_streams_match(self, ops, coalescing):
        config = CoalescerConfig(
            num_mshrs=4, enable_mshr_coalescing=coalescing
        )
        reg_fast, reg_ref = MetricsRegistry(), MetricsRegistry()
        fast = DynamicMSHRFile(config, reg_fast)
        ref = ReferenceMSHRFile(config, reg_ref)

        cycle = 0
        for kind, base_line, num_lines, is_store, latency in ops:
            cycle += 1
            rtype = RequestType.STORE if is_store else RequestType.LOAD
            if kind == "complete":
                done_fast = fast.pop_completions(cycle + latency)
                done_ref = ref.pop_completions(cycle + latency)
                assert [
                    (e.index, e.addr, [s.request.request_id for s in e.subentries])
                    for e in done_fast
                ] == [
                    (e.index, e.addr, [s.request.request_id for s in e.subentries])
                    for e in done_ref
                ]
            else:
                # Same request_ids on both sides: build one packet spec
                # and clone it so constituent ids match pairwise.
                packet_fast = make_packet(base_line, num_lines, rtype, cycle)
                packet_ref = CoalescedRequest(
                    addr=packet_fast.addr,
                    num_lines=packet_fast.num_lines,
                    rtype=packet_fast.rtype,
                    constituents=list(packet_fast.constituents),
                    issue_cycle=packet_fast.issue_cycle,
                )
                if kind == "offer":
                    out_fast, rest_fast, entry_fast = fast.offer(
                        packet_fast, cycle, latency
                    )
                    out_ref, rest_ref, entry_ref = ref.offer(
                        packet_ref, cycle, latency
                    )
                    assert out_fast is out_ref
                    assert [packet_key(p) for p in rest_fast] == [
                        packet_key(p) for p in rest_ref
                    ]
                    assert (entry_fast is None) == (entry_ref is None)
                    if entry_fast is not None:
                        assert entry_fast.index == entry_ref.index
                elif kind == "direct":
                    entry_fast = fast.allocate_direct(packet_fast, cycle, latency)
                    entry_ref = ref.allocate_direct(packet_ref, cycle, latency)
                    assert (entry_fast is None) == (entry_ref is None)
                    if entry_fast is not None:
                        assert entry_fast.index == entry_ref.index
                else:  # merge_only
                    out_fast, rest_fast = fast.merge_only(packet_fast)
                    out_ref, rest_ref = ref.merge_only(packet_ref)
                    assert out_fast is out_ref
                    assert [packet_key(p) for p in rest_fast] == [
                        packet_key(p) for p in rest_ref
                    ]
            assert snapshot(fast) == snapshot(ref)

        fast.publish_metrics()
        ref.publish_metrics()
        assert reg_fast.as_flat_dict() == reg_ref.as_flat_dict()

    def test_duplicate_coverage_from_bypass(self):
        """allocate_direct can create same-type entries covering one
        line; a later offer must merge into both, like the scan did."""
        config = CoalescerConfig(num_mshrs=4)
        fast = DynamicMSHRFile(config, MetricsRegistry())
        ref = ReferenceMSHRFile(config, MetricsRegistry())
        snaps = []
        for file in (fast, ref):
            first = file.allocate_direct(
                make_packet(3, 1, RequestType.LOAD, 1), 1, 10
            )
            second = file.allocate_direct(
                make_packet(3, 1, RequestType.LOAD, 2), 2, 10
            )
            assert first is not None and second is not None
            out, rest, entry = file.offer(
                make_packet(3, 1, RequestType.LOAD, 3), 3, 10
            )
            assert out is InsertOutcome.MERGED and not rest and entry is None
            # Both resident entries must have received the subentry.
            assert len(first.subentries) == 2
            assert len(second.subentries) == 2
            snaps.append(snapshot(file))
        # request_ids are globally unique across the two loops; compare
        # structure with ids normalized to first-appearance order.
        assert _normalize_ids(snaps[0]) == _normalize_ids(snaps[1])

    def test_service_cycles_laziness_preserved(self):
        """The service-time callable fires only when an entry is
        actually allocated, identically on both implementations."""
        config = CoalescerConfig(num_mshrs=1)
        for cls in (DynamicMSHRFile, ReferenceMSHRFile):
            calls = []
            file = cls(config, MetricsRegistry())

            def service():
                calls.append(1)
                return 10

            out, _, _ = file.offer(make_packet(0, 1, RequestType.LOAD, 1), 1, service)
            assert len(calls) == 1  # allocated -> evaluated
            out, _, _ = file.offer(make_packet(9, 1, RequestType.LOAD, 2), 2, service)
            assert out.name == "FULL"
            assert len(calls) == 1  # rejected -> not evaluated
