"""Tests for the request object model."""

import dataclasses

import pytest

from repro.core.address import CACHE_LINE_SIZE
from repro.core.request import (
    Access,
    CoalescedRequest,
    MemoryRequest,
    RequestType,
    reset_id_counters,
)


class TestAccess:
    def test_defaults(self):
        a = Access(addr=0x100, size=8)
        assert a.rtype is RequestType.LOAD
        assert not a.is_store
        assert not a.is_fence

    def test_ids_are_unique(self):
        a, b = Access(addr=0, size=4), Access(addr=0, size=4)
        assert a.access_id != b.access_id

    def test_store(self):
        a = Access(addr=0, size=4, rtype=RequestType.STORE)
        assert a.is_store

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Access(addr=0, size=0)

    def test_fence_needs_no_size(self):
        a = Access(addr=0, size=0, rtype=RequestType.FENCE)
        assert a.is_fence


class TestMemoryRequest:
    def test_line_alignment_enforced(self):
        with pytest.raises(ValueError):
            MemoryRequest(addr=7, rtype=RequestType.LOAD)

    def test_requested_bytes_defaults_to_size(self):
        r = MemoryRequest(addr=64, rtype=RequestType.LOAD)
        assert r.requested_bytes == CACHE_LINE_SIZE

    def test_requested_bytes_kept_when_given(self):
        r = MemoryRequest(addr=64, rtype=RequestType.LOAD, requested_bytes=4)
        assert r.requested_bytes == 4

    def test_line_number(self):
        r = MemoryRequest(addr=640, rtype=RequestType.LOAD)
        assert r.line == 10

    def test_sort_key_orders_loads_before_stores(self):
        load = MemoryRequest(addr=64 * 100, rtype=RequestType.LOAD)
        store = MemoryRequest(addr=0, rtype=RequestType.STORE)
        assert load.sort_key() < store.sort_key()

    def test_fence_has_no_sort_key(self):
        f = MemoryRequest(addr=0, rtype=RequestType.FENCE)
        with pytest.raises(ValueError):
            f.sort_key()

    def test_padding_key_larger_than_any_request(self):
        r = MemoryRequest(addr=(2**46 - 1) * 64, rtype=RequestType.STORE)
        assert MemoryRequest.padding_key() > r.sort_key()


class TestCoalescedRequest:
    def test_valid_line_counts(self):
        for n in (1, 2, 4):
            c = CoalescedRequest(addr=0, num_lines=n, rtype=RequestType.LOAD)
            assert c.size == n * 64

    def test_invalid_line_count(self):
        with pytest.raises(ValueError):
            CoalescedRequest(addr=0, num_lines=3, rtype=RequestType.LOAD)

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            CoalescedRequest(addr=100, num_lines=1, rtype=RequestType.LOAD)

    def test_lines_range(self):
        c = CoalescedRequest(addr=256, num_lines=4, rtype=RequestType.LOAD)
        assert list(c.lines) == [4, 5, 6, 7]
        assert c.covers(5)
        assert not c.covers(8)

    def test_size_field(self):
        assert CoalescedRequest(addr=0, num_lines=1, rtype=RequestType.LOAD).size_field == 0
        assert CoalescedRequest(addr=0, num_lines=2, rtype=RequestType.LOAD).size_field == 1
        assert CoalescedRequest(addr=0, num_lines=4, rtype=RequestType.LOAD).size_field == 2

    def test_requested_bytes_sums_constituents(self):
        members = [
            MemoryRequest(addr=0, rtype=RequestType.LOAD, requested_bytes=8),
            MemoryRequest(addr=64, rtype=RequestType.LOAD, requested_bytes=16),
        ]
        c = CoalescedRequest(
            addr=0, num_lines=2, rtype=RequestType.LOAD, constituents=members
        )
        assert c.requested_bytes == 24


def _slots(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


class TestTrustedConstructors:
    """The unchecked constructors must fill every dataclass field
    exactly as the validated ones do; comparing over
    ``dataclasses.fields`` means a new field cannot be skipped."""

    ROWS = (
        (0x1000, RequestType.LOAD, 64, 8),
        (0x2040, RequestType.STORE, 64, 64),
        (0x3000, RequestType.LOAD, 64, 0),
        (0x40, RequestType.STORE, 64, 0),
    )

    def test_trace_rows_build_like_validated_requests(self):
        from repro.kernels.replay import _decoded_columns, _request_builder
        from repro.trace import TraceBuffer

        buffer = TraceBuffer()
        buffer.extend_rows(
            range(len(self.ROWS)),
            [row[0] for row in self.ROWS],
            [int(row[1]) for row in self.ROWS],
            [row[2] for row in self.ROWS],
            [row[3] for row in self.ROWS],
        )
        _, decoded = _decoded_columns(buffer)
        request_at = _request_builder(decoded)
        for j, (addr, rtype, size, requested) in enumerate(self.ROWS):
            reset_id_counters()
            want = MemoryRequest(
                addr=addr, rtype=rtype, size=size, requested_bytes=requested
            )
            reset_id_counters()
            got = request_at(j)
            assert _slots(got) == _slots(want)

    @pytest.mark.parametrize("members", (1, 3))
    @pytest.mark.parametrize("num_lines", (1, 2, 4, 8))
    def test_aligned_spans_build_like_validated_packets(
        self, num_lines, members
    ):
        base = 0x4000  # aligned to every span size
        constituents = [
            MemoryRequest(
                addr=base + CACHE_LINE_SIZE * (k % num_lines),
                rtype=RequestType.STORE,
                requested_bytes=8 * (k + 1),
            )
            for k in range(members)
        ]
        want = CoalescedRequest(
            addr=base,
            num_lines=num_lines,
            rtype=RequestType.STORE,
            constituents=constituents,
            issue_cycle=77,
        )
        got = CoalescedRequest.from_aligned_span(
            base, num_lines, RequestType.STORE, constituents, 77
        )
        # Settle the byte-total memo on both (a one-request packet
        # presets it).
        assert got.requested_bytes == want.requested_bytes
        assert _slots(got) == _slots(want)
