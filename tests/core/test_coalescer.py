"""Integration tests for the orchestrating MemoryCoalescer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalescer import MemoryCoalescer
from repro.core.config import (
    CoalescerConfig,
    DMC_ONLY_CONFIG,
    MSHR_ONLY_CONFIG,
    UNCOALESCED_CONFIG,
)
from repro.core.request import MemoryRequest, RequestType
from repro.kernels.replay import vector_replay
from repro.trace.buffer import TraceBuffer
from repro.trace.replay import replay_trace


def load(line):
    return MemoryRequest(addr=line * 64, rtype=RequestType.LOAD, requested_bytes=8)


def store(line):
    return MemoryRequest(addr=line * 64, rtype=RequestType.STORE, requested_bytes=8)


def fence():
    return MemoryRequest(addr=0, rtype=RequestType.FENCE)


def run(requests, config=None, gap=2, service=300):
    c = MemoryCoalescer(config or CoalescerConfig(), service_time=service)
    cycle = 0
    for r in requests:
        c.push(r, cycle)
        cycle += gap
    c.flush(cycle + 1)
    return c


class TestConservation:
    """Every LLC request must be serviced exactly once -- the
    end-to-end invariant of the whole coalescer."""

    def test_sequential_loads(self):
        n = 256
        c = run([load(i) for i in range(n)])
        assert len(c.serviced) == n
        ids = sorted(s.request.request_id for s in c.serviced)
        assert len(set(ids)) == n

    def test_mixed_loads_and_stores(self):
        rng = random.Random(42)
        reqs = [
            store(rng.randrange(100)) if rng.random() < 0.3 else load(rng.randrange(100))
            for _ in range(500)
        ]
        c = run(reqs)
        assert len(c.serviced) == 500

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.booleans()),
            min_size=1,
            max_size=200,
        ),
        st.integers(1, 20),
    )
    def test_conservation_property(self, items, gap):
        reqs = [store(ln) if s else load(ln) for ln, s in items]
        want = sorted(r.request_id for r in reqs)
        c = run(reqs, gap=gap)
        got = sorted(s.request.request_id for s in c.serviced)
        assert got == want

    def test_completion_after_issue(self):
        c = run([load(i) for i in range(64)])
        for rec in c.issued:
            assert rec.complete_cycle > rec.issue_cycle
        for s in c.serviced:
            assert s.complete_cycle > 0


class TestCoalescingModes:
    def test_two_phase_beats_single_phases_on_contiguous(self):
        """A dense contiguous stream: full coalescer eliminates the
        most requests; both single phases help."""
        reqs = [load(i) for i in range(512)]
        full = run(list(reqs), CoalescerConfig()).stats()
        dmc = run([load(i) for i in range(512)], DMC_ONLY_CONFIG).stats()
        none = run([load(i) for i in range(512)], UNCOALESCED_CONFIG).stats()
        assert full.coalescing_efficiency >= dmc.coalescing_efficiency > 0
        assert none.coalescing_efficiency == 0.0

    def test_uncoalesced_issues_one_packet_per_miss(self):
        n = 128
        c = run([load(i) for i in range(n)], UNCOALESCED_CONFIG)
        assert c.stats().hmc_requests == n
        assert all(r.request.num_lines == 1 for r in c.issued)

    def test_mshr_only_merges_duplicates(self):
        """Repeated misses on an outstanding line merge in the MSHRs
        (conventional coalescing) -- needs the line still in flight."""
        reqs = [load(5) for _ in range(16)]
        c = run(reqs, MSHR_ONLY_CONFIG, gap=1, service=10_000)
        s = c.stats()
        # First miss allocates (after the idle-bypass one), later ones merge.
        assert s.hmc_requests < s.llc_requests
        assert s.coalescing_efficiency > 0.5

    def test_dmc_only_builds_large_packets(self):
        c = run([load(i) for i in range(256)], DMC_ONLY_CONFIG, gap=1)
        sizes = {r.request.num_lines for r in c.issued}
        assert 4 in sizes

    def test_efficiency_ordering_on_locality_trace(self):
        """On a trace with spatial locality the paper's ordering holds:
        two-phase >= DMC-only and two-phase >= MSHR-only."""

        def trace():
            rng = random.Random(7)
            out = []
            for _ in range(200):
                base = rng.randrange(64) * 4
                for k in rng.sample(range(4), 4):
                    out.append(load(base + k))
            return out

        full = run(trace(), CoalescerConfig(), gap=1).stats()
        dmc = run(trace(), DMC_ONLY_CONFIG, gap=1).stats()
        mshr = run(trace(), MSHR_ONLY_CONFIG, gap=1).stats()
        assert full.coalescing_efficiency >= dmc.coalescing_efficiency
        assert full.coalescing_efficiency >= mshr.coalescing_efficiency
        assert full.coalescing_efficiency > 0.3


class TestBypass:
    def test_first_request_bypasses_idle_coalescer(self):
        """Section 4.2: with idle MSHRs and an empty CRQ the raw
        request goes straight to an MSHR."""
        c = MemoryCoalescer(CoalescerConfig(), service_time=300)
        c.push(load(3), 0)
        assert c.stats().bypassed_requests == 1
        assert len(c.issued) == 1
        assert c.issued[0].bypassed

    def test_no_bypass_once_busy(self):
        c = MemoryCoalescer(CoalescerConfig(), service_time=10_000)
        c.push(load(3), 0)
        c.push(load(4), 1)
        assert c.stats().bypassed_requests == 1

    def test_bypass_disabled_with_stage_select_off(self):
        cfg = CoalescerConfig(stage_select_enabled=False)
        c = MemoryCoalescer(cfg, service_time=300)
        c.push(load(3), 0)
        assert c.stats().bypassed_requests == 0

    def test_bypass_resumes_after_drain(self):
        c = MemoryCoalescer(CoalescerConfig(), service_time=10)
        c.push(load(3), 0)
        c.flush(1000)
        c.push(load(9), 2000)
        assert c.stats().bypassed_requests == 2

    @pytest.mark.parametrize("replay", [replay_trace, vector_replay])
    def test_no_bypass_while_requests_wait_in_the_sorter(self, replay):
        """After an arrival gap longer than the service time the MSHRs
        and CRQ are idle again, but lines 1-2 still wait in the sorter
        (the timeout is 1000 cycles): line 3 must queue behind them and
        merge with line 2, not bypass ahead of them."""
        lines = [0, 1, 2, 3, 4]
        buf = TraceBuffer()
        buf.extend_rows(
            [0, 1, 2, 602, 603],
            [line * 64 for line in lines],
            [int(RequestType.LOAD)] * len(lines),
            [8] * len(lines),
            [8] * len(lines),
        )
        c = MemoryCoalescer(CoalescerConfig(timeout_cycles=1000), service_time=100)
        replay(buf, coalescer=c)
        assert c.stats().bypassed_requests == 1
        assert [(i.request.addr // 64, i.request.num_lines) for i in c.issued] == [
            (0, 1),
            (1, 1),
            (2, 2),
            (4, 1),
        ]


class TestFences:
    def test_fence_drains_pipeline(self):
        c = MemoryCoalescer(CoalescerConfig(stage_select_enabled=False), service_time=50)
        c.push(load(1), 0)
        c.push(load(2), 1)
        c.push(fence(), 2)
        # The two buffered requests were flushed by the fence.
        assert c.pipeline.pending() == 0
        c.flush(10_000)
        assert len(c.serviced) == 2

    def test_fence_not_counted_as_llc_request(self):
        c = MemoryCoalescer(CoalescerConfig(), service_time=50)
        c.push(fence(), 0)
        assert c.stats().llc_requests == 0


class TestBackPressure:
    def test_tiny_mshr_file_still_drains(self):
        cfg = CoalescerConfig(num_mshrs=2, stage_select_enabled=False)
        c = MemoryCoalescer(cfg, service_time=500)
        for i in range(100):
            c.push(load(i * 3), i)
        c.flush(200)
        assert len(c.serviced) == 100
        assert c.stats().mshr.rejected_full > 0

    def test_stats_consistency(self):
        c = run([load(i % 40) for i in range(300)], gap=1)
        s = c.stats()
        # hmc_requests counts MSHR allocations; the issued stream is an
        # independent tally of the same packets (bypass included).
        assert s.hmc_requests == len(c.issued)
        assert s.requests_eliminated >= 0
        assert 0 <= s.coalescing_efficiency <= 1

    def test_run_trace_helper(self):
        c = MemoryCoalescer(CoalescerConfig(), service_time=100)
        stats = c.run_trace((load(i), i * 2) for i in range(64))
        assert stats.llc_requests == 64
        assert len(c.serviced) == 64


class TestLatencyMetrics:
    def test_latency_metrics_populate(self):
        c = run([load(i % 32) for i in range(400)], gap=1, service=400)
        s = c.stats()
        assert s.dmc_latency_ns > 0
        assert s.mean_coalescer_latency_ns > 0

    def test_timeout_increases_latency(self):
        """Figure 14: larger timeouts increase overall latency once
        the sorting wait dominates."""
        def mk(timeout):
            cfg = CoalescerConfig(timeout_cycles=timeout, stage_select_enabled=False)
            reqs = [load(random.Random(1).randrange(1000) + i) for i in range(300)]
            c = run(reqs, cfg, gap=6, service=400)
            return c.stats().mean_coalescer_latency_ns

        assert mk(200) > mk(16)


class TestFenceOrdering:
    """Section 3.4: no request issues to memory until all requests
    preceding a fence have committed."""

    def test_post_fence_issues_after_pre_fence_completions(self):
        c = MemoryCoalescer(
            CoalescerConfig(stage_select_enabled=False), service_time=500
        )
        for i in range(8):
            c.push(load(i), i)
        c.push(fence(), 8)
        for i in range(8):
            c.push(load(100 + i), 9 + i)
        c.flush(10_000)

        pre_lines = set(range(8))
        post_lines = {100 + i for i in range(8)}
        pre_complete = max(
            rec.complete_cycle
            for rec in c.issued
            if set(rec.request.lines) & pre_lines
        )
        post_issue = min(
            rec.issue_cycle
            for rec in c.issued
            if set(rec.request.lines) & post_lines
        )
        assert post_issue >= pre_complete

    def test_everything_still_serviced_across_fences(self):
        c = MemoryCoalescer(CoalescerConfig(), service_time=200)
        n = 0
        for burst in range(5):
            for i in range(10):
                c.push(load(burst * 50 + i), burst * 100 + i)
                n += 1
            c.push(fence(), burst * 100 + 20)
        c.flush(100_000)
        assert len(c.serviced) == n

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 60),  # a load to this line
                st.just(-1),         # a fence
            ),
            min_size=2,
            max_size=60,
        )
    )
    def test_fence_barrier_property(self, ops):
        """Property: for every fence, every pre-fence request's HMC
        completion precedes every post-fence request's HMC issue."""
        c = MemoryCoalescer(CoalescerConfig(), service_time=300)
        epoch = 0
        line_epoch = {}
        cycle = 0
        for op in ops:
            if op == -1:
                c.push(fence(), cycle)
                epoch += 1
            else:
                req = load(1000 * epoch + op)
                line_epoch[1000 * epoch + op] = epoch
                c.push(req, cycle)
            cycle += 3
        c.flush(10**6)

        per_epoch_issue = {}
        per_epoch_complete = {}
        for rec in c.issued:
            e = line_epoch.get(rec.request.base_line)
            if e is None:
                continue
            per_epoch_issue.setdefault(e, []).append(rec.issue_cycle)
            per_epoch_complete.setdefault(e, []).append(rec.complete_cycle)
        for e in sorted(per_epoch_issue):
            if e + 1 in per_epoch_issue:
                assert min(per_epoch_issue[e + 1]) >= max(per_epoch_complete[e])
